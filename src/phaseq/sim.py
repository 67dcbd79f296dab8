"""Monte Carlo error-rate measurement for the GLRT receiver.

Blocks are simulated in chunks of DEFAULT_CHUNK blocks, each driven by its
own child of one SeedSequence, with every random draw inside its chunk's
stream, so results are bit-identical for any worker count. A chunk sweeps
through demod only the distinct rows its lane's memo (core._RowMemo) does
not hold. The memo keeps one int64 row per distinct row, up to
_LANE_MEMO_BYTES, [winner vector | candidate count | index of its tie set
among the lane's _TieSets, or -1]; blocks take decisions by gathers. Tied
blocks re-draw their winner from the chunk stream in block order, so
memoization never correlates tie outcomes across blocks. A chunk's tied
blocks draw by one rng.integers(0, sizes) call over their tie-set sizes
(_redraw_ties), which draws what rng.choice on each set in turn would and
leaves the stream where it would.

Without dither every position shares one scan table, so P(z | x, phi) is
unchanged when z and x are permuted together, and a block is demodulated as
its residue vector z mod a sorted ascending, which its residue histogram
fixes: at most C(L + a - 1, L) rows (45 at K=12, L=8). Crossovers are per
symbol, so candidate d of the sorted row is candidate d of the block
permuted, with the same tie set; only the summation order of the L
scan-table entries of a metric changes, by a few ulps (about 1e-15
relative), which moves a decision only where a relative gap lies that close
to DEFAULT_TIE_TOL. Nor does the sort need undoing: the coherent decision at
a phase depends on z_l alone, so every candidate gives equal symbols to
equal residues, and a block's symbol at residue r is the candidate's symbol
at the first sorted position holding r, plus the block's own z div a. Under
dither each position has its own rotation, so rows are the residue vectors
in block order (at most a^L, 256 at K=8, L=8), and a block's decision is its
row's plus its own z div a. demod scores rows from kernels on its own scan
grid, so a run fills no kernel on a block-probability grid.

A chunk keys each block's row by its digits (_block_rows): one int64 where
the config's largest key fits, else a few int64 words, each a gather from a
per-config weight table (_key_words) and a sum. core._group ranks the keys,
which find the rows in the memo; each row is read from one of its blocks.
Every per-sample integer step is a gather, not an int64 division: a sample
is decided by one gather from a per-chunk decision table (_run_chunk) and
scored by one from a 6M-entry table of "nonzero mod M" flags (_symbol_errors).

Chunks run in lanes (_run_lane): each runs its chunks in order on one
thread with its own row memo and workspace, and lanes share and lock
nothing. A row two lanes meet is swept by each, to one decision, since a
sweep is row-local. With workers > 1, min(workers, chunks) pool lanes each
take every workers-th chunk and a fresh workspace. One worker runs one lane
on the calling thread, which keeps its workspace across runs: fresh buffers
would be fresh pages (about 500 minor faults a 10,000-block ramp K=8, L=8
run). Buffers above core._KEPT_BYTES (a long block's) are dropped when the
run returns (core._call_workspace).

A chunk is its bulk draws (_draw_chunk: symbols, block phases and noise in
stream order, then the rotations exp(j*phi) and the noise scaled by sigma)
and then everything else (_run_chunk, from the same Generator). With one
worker, a helper thread makes chunk i + 1's draws into the other of two
buffer pairs while the lane runs chunk i, by the rule Monte Carlo MI shares
(core._usable_cpus: more than one chunk and more than one usable CPU);
NumPy's fills and ufuncs release the GIL, so the two overlap and give the
same floats on either thread. Otherwise the draws run inline.
The helper ends with the run, also when a chunk raises. While the helper
makes chunk 0's draws, the lane sweeps its whole row space into its memo
when the space is small (_row_space: rows * L at most DEFAULT_CHUNK // 2,
so 256 rows at L = 8), in one sweep in place of one per chunk; only there,
as a lane with no helper has no idle wait to fill, and rows a run never
meets would then cost it time.

Raw block decisions are only defined up to a common constellation shift
(the metric's constant-addition ambiguity). Two scoring conventions:

* pilot: position 0 carries a known reference symbol (fixed to 0); the
  decision is rotated to match it and errors are counted on the remaining
  L - 1 positions.
* genie: errors are counted under the best of the M shifts, over all L
  positions. Lower by construction; useful as an optimistic bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import _class_tree
from .core import (
    SystemConfig,
    _as_int,
    _call_workspace,
    _chunk_sizes,
    _digit_words,
    _draw_into,
    _group,
    _row_keys,
    _RowMemo,
    _sample_into,
    _usable_cpus,
    _Workspace,
)
from .demod import _pick, _scan_points, _sweep_rows

DEFAULT_CHUNK = 4096
# run_ser refuses a _key_words table above this many int64 elements (128
# MB). Undithered it is (W, K), W about a/19 words at L = 8: 3.5M elements
# (28 MB) at K = 16,384, 14M at 32,768, 57M (452 MB) at 65,536, dwarfing
# every chunk buffer, and 115 GB at K = 2**20, which the scan grid admits.
_MAX_KEY_ELEMENTS = 2**24
# Bytes of value rows (L + 2 int64 each) a lane memo keeps: long dithered rows
# rarely repeat, and all were kept (61.6 MiB at ramp K=8 L=200, 40,000 blocks);
# repeating rows fit (209,715 at L = 8; 1M K=64 blocks at 10 dB meet 155,964).
_LANE_MEMO_BYTES = 2**24
_CONVENTIONS = ("pilot", "genie")
# the workspace buffers (noise, rotations) that chunks drawn ahead
# alternate between
_DRAW_BUFFERS = (("noise", "rot"), ("noise_ahead", "rot_ahead"))


@dataclass(frozen=True)
class SerPoint:
    """One measured operating point with a 95% Wilson interval on SER.

    The run's tie census rides along: tie_blocks blocks (tie_rate of the
    trials) had an exact metric tie, and each block's row had
    mean_candidates candidate vectors on average, max_candidates at most.
    wilson_interval(tie_blocks, trials) bounds the tie rate.
    """

    snr_db: float
    trials: int
    errors: int
    symbols: int
    ser: float
    ci_low: float
    ci_high: float
    tie_rate: float
    convention: str
    tie_blocks: int
    mean_candidates: float
    max_candidates: int


def wilson_interval(successes: float, total: float, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Counts may be floats (a per-symbol rate scaled back to counts); successes
    outside [0, total], a non-finite total, or z outside [0, inf) raise ValueError.
    """
    if not (0 <= successes <= total and math.isfinite(total) and 0 <= z < math.inf):
        raise ValueError(
            f"successes must lie in [0, total], total must be finite and z finite "
            f"and non-negative (got {successes!r} of {total!r}, z={z!r})"
        )
    if total <= 0:
        return (0.0, 1.0)
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def ser_crossing_snr(snrs_db, sers, target: float) -> float:
    """SNR where a measured curve crosses the target rate, by log-linear
    interpolation between the bracketing grid points.

    Expects sers decreasing in snrs_db overall; uses the first bracket with
    ser >= target on the left and ser < target on the right. Non-finite
    input raises ValueError.
    """
    snrs_db = np.asarray(snrs_db, dtype=float)
    sers = np.asarray(sers, dtype=float)
    if snrs_db.shape != sers.shape or snrs_db.ndim != 1:
        raise ValueError("snrs_db and sers must be equal-length 1-d arrays")
    if not (np.isfinite(snrs_db).all() and np.isfinite(sers).all() and math.isfinite(target)):
        raise ValueError("SNRs, rates and target must be finite")
    if np.any(sers <= 0.0):
        raise ValueError("crossing interpolation needs strictly positive rates")
    for i in range(len(sers) - 1):
        if sers[i] >= target > sers[i + 1]:
            ly0, ly1 = math.log(sers[i]), math.log(sers[i + 1])
            frac = (math.log(target) - ly0) / (ly1 - ly0)
            return float(snrs_db[i] + frac * (snrs_db[i + 1] - snrs_db[i]))
    raise ValueError(f"curve never crosses {target!r} on the given grid")


# ---- chunk engine -----------------------------------------------------------


def _draw_chunk(
    config: SystemConfig,
    n_blocks: int,
    seed_seq: np.random.SeedSequence,
    convention: str,
    noise: np.ndarray,
    rot: np.ndarray,
) -> tuple[np.random.Generator, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every draw of a chunk that comes before its decisions, in stream order.

    Returns (rng, X, draws): the chunk's Generator, its symbols (the pilot
    column zeroed) and core._draw_into's (phases, rotations, scaled noise),
    made into noise (2, n_blocks, L) and rot (n_blocks,). The Generator then
    makes the chunk's remaining draws (zero-sample and tie re-draws) in
    _run_chunk. The fills and the rotation and scaling ufuncs release the
    GIL, so a lane may run all of this on a helper thread.
    """
    rng = np.random.default_rng(seed_seq)
    X = rng.integers(0, config.M, size=(n_blocks, config.L))
    if convention == "pilot":
        X[:, 0] = 0
    return rng, X, _draw_into(rng, None, config.sigma, noise, rot)


@lru_cache(maxsize=1)
def _key_words(config: SystemConfig) -> tuple[np.ndarray, int]:
    """_block_rows' key tables (weights, top), once per config; a table of
    more than _MAX_KEY_ELEMENTS raises ValueError before it is built."""
    L, K, a = config.L, config.K, config.a
    # n sample cells: l*K + z under dither, z without
    if config.is_dithered:
        base, significance, n, word_top = a, np.arange(L)[::-1], L * K, lambda p: a**p - 1
    else:
        base, significance, n, word_top = L + 1, np.arange(a), K, lambda p: L * (L + 1) ** (p - 1)
    per, word, place = _digit_words(base, significance, word_top)
    shape = (int(word.max()) + 1, n)
    if math.prod(shape) > _MAX_KEY_ELEMENTS:
        raise ValueError(
            f"K={K}, L={L} needs a {shape[0]} x {n} row-key table, above the"
            f" limit of {_MAX_KEY_ELEMENTS} elements"
        )
    cells = np.arange(n)
    digit, amount = (cells // K, cells % a) if config.is_dithered else (cells % a, 1)
    weights = np.zeros(shape, dtype=np.int64)
    weights[word[digit], cells] = amount * place[digit]
    # the cache hands the same array to every chunk
    weights.flags.writeable = False
    return weights, word_top(per)


def _block_rows(
    Z: np.ndarray, config: SystemConfig, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's distinct rows: (index, inverse, blocks per row, keys).

    Z holds each sample's sector z, or l*K + z at position l under dither,
    and t is an (n, L) int64 scratch plane. A row is D digits, packed by
    core._digit_words: without dither the counts of residues 0..a-1 among
    the block's z mod a (D = a, base L + 1, least significant first), under
    dither the residues by position (D = L, base a, most significant
    first). A block's word w is weights[w] gathered at its samples and
    summed. Each word stays at most top < 2**63, so W = 1 exactly where the
    whole key fits int64 (top = a**L - 1, or L*(L + 1)**(a - 1)); W is first
    2 at ramp K/M = 2, L = 64 and at K = 64, L = 15. core._group ranks the
    (W, n) words; index names one block of each row, and the row's words
    are its memo key (core._row_keys).
    """
    weights, top = _key_words(config)
    words = np.empty((len(weights), len(Z)), dtype=np.int64)
    for table, key in zip(weights, words):
        # einsum sums the short rows several times faster than sum(axis=1)
        np.einsum("ij->i", np.take(table, Z, out=t, mode="clip"), out=key)
    index, inverse, per_row = _group(words, top)
    return index, inverse, per_row, _row_keys(words, index)


def _row_space(config: SystemConfig, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, keys) of every residue row a block of config can have, for
    _RowMemo, or None when there are more than limit or rows * L exceeds
    DEFAULT_CHUNK // 2 (256 rows at L = 8). Without dither the rows are the
    sorted residue multisets, C(L + a - 1, L) of them in lexicographic
    order: combinatorics._class_tree's rows over one group of L positions,
    whose weights go unread. Under dither they are all a**L residue vectors.
    Keys are _block_rows', position l's residue read at l*K + r under
    dither, as in _run_chunk."""
    L, K, a = config.L, config.K, config.a
    n = a**L if config.is_dithered else math.comb(L + a - 1, L)
    if n > limit or n * L > DEFAULT_CHUNK // 2:
        return None
    if config.is_dithered:
        rows = np.arange(n)[:, None] // a ** np.arange(L)[::-1] % a
        Z = rows + K * np.arange(L)
    else:
        rows = Z = _class_tree([0] * L, a)[0]
    index, _, _, keys = _block_rows(Z, config, np.empty((n, L), dtype=np.int64))
    return rows[index], keys


class _TieSets:
    """A lane's tie sets in one int64 array of candidate vectors: set i is
    rows[start[i] : start[i] + size[i]], its candidates in sweep order."""

    def __init__(self, L: int) -> None:
        self.rows = np.empty((0, L), dtype=np.int64)
        self.start = self.size = np.empty(0, dtype=np.int64)

    def add(self, rows: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Appends sets of the given sizes, their candidates back to back in
        rows; returns their indices."""
        first = len(self.size)
        self.start = np.concatenate([self.start, len(self.rows) + np.cumsum(size) - size])
        self.size = np.concatenate([self.size, size])
        self.rows = np.concatenate([self.rows, rows])
        return first + np.arange(len(size))


def _redraw_ties(
    rng: np.random.Generator,
    ties: _TieSets,
    sets: np.ndarray,
    pos: np.ndarray,
    cells: np.ndarray,
    M: int,
) -> np.ndarray:
    """Decisions (n, L) of n tied blocks in block order. Block i picks its
    candidate from tie set sets[i], all by one rng.integers(0, sizes) call,
    which draws what rng.choice on each set in turn would, and decides its
    cells[i] (cells of its row's decision table, _run_chunk's) from the
    candidate's symbols at pos[i]."""
    chosen = ties.rows[ties.start[sets] + rng.integers(0, ties.size[sets])]
    table = np.take_along_axis(chosen, pos, axis=1)[:, None, :] + np.arange(M)[:, None]
    return np.take_along_axis(table.reshape(len(sets), -1), cells, axis=1)


def _run_chunk(
    config: SystemConfig,
    drawn: tuple[np.random.Generator, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]],
    convention: str,
    memo: _RowMemo,
    ties: _TieSets,
    work: _Workspace,
) -> tuple[int, int, int, int]:
    """Simulate one chunk from _draw_chunk's draws; returns (errors, tie
    blocks, candidate sum, candidate max).

    Each distinct row is Z mod a at one of its blocks (_block_rows' index;
    l*K + z has z's residue, as a divides K), sorted without dither (see the
    module docstring). memo gives each its winner, candidate count and the
    index of its tie set in ties, or -1, sweeping only the rows it does not
    hold. The winners become one decision table, a row per distinct row
    and a column per sample cell: the sector z without dither, decided as
    the winner's symbol at the first sorted position of residue z mod a plus
    z div a; under dither the cell (z div a)*L + l, decided as the winner's
    symbol at l plus z div a. Each sample is decided by one gather from that
    table at its cell plus the table's width times its block's row. Tied
    blocks re-draw their candidates from the chunk stream, in block order
    by one call, and gather their decisions the same way (_redraw_ties).
    Every chunk-sized array but X lives in work (the draws too, in buffers
    _run_lane names): the sampler's buffers, then "t0" as key and cell
    plane and "t1" as decision plane; "t0" then takes the pilot differences
    that _symbol_errors scores.
    """
    M, K, L, a = config.M, config.K, config.L, config.a
    rng, X, draws = drawn
    n_blocks = len(X)
    _, Z = _sample_into(X, config, rng, work, draws)
    t = work.buffer("t0", (n_blocks, L), np.int64)
    if config.is_dithered:
        # position l reads the (position, sector) tables at l*K + z
        Z += K * np.arange(L)
    index, inverse, per_row, keys = _block_rows(Z, config, t)
    rows = Z[index] % a
    if config.is_dithered:
        # a row's decisions are its winner's symbols, by position
        pos = np.broadcast_to(np.arange(L), (len(rows), L))
        # l*K + z to the cell (z div a)*L + l
        cell_of = np.arange(L * K)
        cells = np.take((cell_of % K // a) * L + cell_of // K, Z, out=t, mode="clip")
    else:
        # every candidate gives equal symbols to equal residues, so residue
        # r takes the symbol at the row's first sorted position holding r:
        # its count of residues below r, a running count over every row's
        # histogram less L per earlier row. Sector z's cell is z itself
        rows.sort(axis=1)
        row = np.arange(len(rows))[:, None]
        hist = np.bincount((rows + a * row).ravel(), minlength=a * len(rows))
        pos = np.minimum((np.cumsum(hist) - hist).reshape(-1, a) - L * row, L - 1)
        cells = Z
    decided = memo(rows, keys)
    winners, n_cand, row_tied = decided[:, :L], decided[:, L], decided[:, L + 1] >= 0
    # cell q*c + j of a row (c columns of pos) holds the winner's symbol at
    # position pos[j], plus q
    table = np.take_along_axis(winners, pos, axis=1)[:, None, :] + np.arange(M)[:, None]
    width = M * pos.shape[1]
    cells += width * inverse[:, None]
    xhat = np.take(table, cells, out=work.buffer("t1", (n_blocks, L), np.int64), mode="clip")
    if row_tied.any():
        b = np.flatnonzero(row_tied[inverse])
        r = inverse[b]
        xhat[b] = _redraw_ties(rng, ties, decided[r, L + 1], pos[r], cells[b] - width * r[:, None], M)
    errors = _symbol_errors(xhat, X, M, convention, work)
    return errors, int(row_tied @ per_row), int(n_cand @ per_row), int(n_cand.max())


def _symbol_errors(
    xhat: np.ndarray, X: np.ndarray, M: int, convention: str, work: _Workspace
) -> int:
    """Symbol errors of decisions xhat (n, L) against X under convention.

    xhat holds symbols plus residue quotients, so it lies in [0, 2M - 1)
    and is read mod M; it is overwritten. Every difference scored lies in
    [-3M, 3M), so entry d + 3M of one bool table says whether d != 0
    (mod M): a gather in place of an int64 remainder. The pilot differences
    xhat_l - xhat_0 - X_l go to the buffer "t0" of work, not back into
    xhat, whose in-place subtract of its own column numpy would buffer.
    """
    wrong = np.arange(-3 * M, 3 * M) % M != 0
    if convention == "pilot":
        d = work.buffer("t0", (len(X), X.shape[1] - 1), np.int64)
        np.subtract(xhat[:, 1:], X[:, 1:], out=d)
        d += 3 * M - xhat[:, :1]
        return int(np.count_nonzero(np.take(wrong, d, mode="clip")))
    xhat -= X
    xhat += 3 * M
    shifted = np.take(wrong, xhat[:, None, :] + np.arange(M)[:, None], mode="clip")
    return int(shifted.sum(axis=2).min(axis=1).sum())


def _run_lane(
    config: SystemConfig,
    chunks: list[tuple[int, np.random.SeedSequence]],
    convention: str,
    work: _Workspace,
    helper: ThreadPoolExecutor | None = None,
) -> list[tuple[int, int, int, int]]:
    """_run_chunk's results for chunks, (blocks, stream) pairs run in order
    on this thread with the workspace work and one row memo, whose sweep
    appends the tie sets of its tied rows to the lane's _TieSets.

    A one-thread helper makes chunk j + 1's draws, into the buffers
    _DRAW_BUFFERS[(j + 1) % 2] looked up on this thread, while chunk j
    runs, and while it makes chunk 0's the memo takes the row space
    (_row_space) where that is small; without a helper, every chunk draws
    inline into the first pair and the memo takes only the rows chunks meet.
    """
    M, L = config.M, config.L
    ties = _TieSets(L)

    def sweep(rows: np.ndarray) -> np.ndarray:
        s = _sweep_rows(rows, config)
        decided = np.full((len(rows), L + 2), -1, dtype=np.int64)
        decided[:, :L] = _pick(s.base, s.rank, s.winner[:, None], M)
        decided[:, L] = s.n_distinct
        size = np.count_nonzero(s.ties, axis=1)
        tied = np.flatnonzero(size > 1)
        # each tied row's tied candidates, row by row
        j, d = np.nonzero(s.ties[tied])
        tie_rows = _pick(s.base[tied[j]], s.rank[tied[j]], d[:, None], M)
        decided[tied, L + 1] = ties.add(tie_rows, size[tied])
        return decided

    memo = _RowMemo(sweep, limit=_LANE_MEMO_BYTES // (8 * (L + 2)))

    def draws(j: int) -> tuple:
        n_blocks, stream = chunks[j]
        noise, rot = _DRAW_BUFFERS[j % 2 if helper else 0]
        return (
            config,
            n_blocks,
            stream,
            convention,
            work.buffer(noise, (2, n_blocks, config.L)),
            work.buffer(rot, (n_blocks,), np.complex128),
        )

    results = []
    if helper:
        ahead = helper.submit(_draw_chunk, *draws(0))
        # this thread would wait for chunk 0's draws: sweep a small row
        # space whole meanwhile, in place of a sweep per chunk
        space = _row_space(config, memo.limit)
        if space is not None:
            memo(*space)
    for j in range(len(chunks)):
        drawn = ahead.result() if helper else _draw_chunk(*draws(j))
        if helper and j + 1 < len(chunks):
            ahead = helper.submit(_draw_chunk, *draws(j + 1))
        results.append(_run_chunk(config, drawn, convention, memo, ties, work))
    return results


def run_ser(
    config: SystemConfig,
    trials: int,
    seed=0,
    convention: str = "pilot",
    workers: int = 1,
) -> SerPoint:
    """Measure SER at config's operating point over `trials` blocks.

    Reproducible for a given (seed, trials) regardless of workers; seed may
    be a non-negative int or a SeedSequence, and workers an int of at least
    1. The point's tie census counts the run's own blocks, so a census of
    random inputs on every position is convention="genie".
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not isinstance(seed, np.random.SeedSequence):
        seed = _as_int(seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative (got {seed})")
        seed = np.random.SeedSequence(seed)
    workers = _as_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1 (got {workers})")
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    if convention == "pilot" and config.L < 2:
        raise ValueError("pilot convention needs L >= 2")
    # an oversized scan grid or key table is refused before anything is built
    _scan_points(config.K)
    _key_words(config)
    sizes = _chunk_sizes(trials, DEFAULT_CHUNK)
    chunks = list(zip(sizes, seed.spawn(len(sizes))))
    lanes = min(workers, len(chunks))
    if lanes > 1:
        with ThreadPoolExecutor(max_workers=lanes) as pool:
            parts = [chunks[w::lanes] for w in range(lanes)]
            runs = pool.map(lambda part: _run_lane(config, part, convention, _Workspace()), parts)
            results = [r for run in runs for r in run]
    else:
        draws_ahead = len(chunks) > 1 and _usable_cpus() > 1
        # no thread starts until the first submit
        helper = ThreadPoolExecutor(max_workers=1) if draws_ahead else None
        with _call_workspace() as work, helper or nullcontext():
            results = _run_lane(config, chunks, convention, work, helper)
    errors, ties, cands = (sum(r[i] for r in results) for i in range(3))
    symbols = trials * (config.L - 1 if convention == "pilot" else config.L)
    lo, hi = wilson_interval(errors, symbols)
    return SerPoint(
        snr_db=config.snr_db,
        trials=trials,
        errors=errors,
        symbols=symbols,
        ser=errors / symbols,
        ci_low=lo,
        ci_high=hi,
        tie_rate=ties / trials,
        convention=convention,
        tie_blocks=ties,
        mean_candidates=cands / trials,
        max_candidates=max(r[3] for r in results),
    )
