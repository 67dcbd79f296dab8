"""Monte Carlo error-rate measurement for the GLRT receiver.

Blocks are simulated in fixed-size chunks, each driven by its own child of a
single SeedSequence, so results are bit-identical for any worker count: the
chunk layout depends only on trials (chunks of DEFAULT_CHUNK blocks) and
every random draw happens inside its chunk's stream. Each chunk sends only
its distinct observation rows that the run's memo has not seen through the
array sweep of demod. The memo maps each row to an id into run-level arrays
(winner vector, tie flag, candidate count; tie sets for tied rows only), so
every block takes its decision by one gather through the ids, with no
per-row record. Tied blocks re-draw their winner from the chunk stream, in
block order, so memoization never correlates tie outcomes across blocks.

Without dither every position shares one scan table, so P(z | x, phi) is
unchanged when z and x are permuted together: the row demodulated for a block
is its residue vector z mod a sorted ascending. Crossovers are per symbol, so
candidate d of the sorted row is candidate d of the block permuted, and its
tie set names the same candidates; only the summation order of the log
metrics changes. Each metric is a sum of L scan-table entries at one grid
point, so reordering moves it by a few ulps, about 1e-15 relative: a decision
can move only where a relative gap lies that close to DEFAULT_TIE_TOL. At
most C(L + a - 1, L) sorted rows exist (45 at K=12, L=8), against thousands
of ordered ones. A sorted row is fixed by its residue histogram, so a chunk
finds its distinct rows among the blocks' histograms (one bincount) and
builds only those rows. Nor does a decision need the sort to be undone: the
coherent decision at a phase depends on z_l alone, so every candidate of the
sweep, the winner and each tie-set member alike, gives equal symbols to
equal residues. A block's symbol at residue r is the candidate's symbol at
the first sorted position holding r, plus the block's own z div a. Under
dither each position has its own rotation, so the sort is lost but the
residue step is not: rows are the residue vectors in block order (at most
a^L of them, 256 at K=8, L=8 against thousands of sector vectors), and a
block's decision is its row's plus its own z div a. The chunk engine hands
demod the config alone, and demod scores rows from kernels on its own scan
grid, so a run fills no kernel on a block-probability grid.

Each thread that runs chunks keeps one workspace (_THREAD_WORK), which
holds the sampler's planes and the chunk's quotient, index and decision
planes, so a chunk allocates no chunk-sized array there after the thread's
first chunk. The calling thread keeps it from run to run: a run's fresh
buffers would otherwise be fresh pages (about 500 minor faults a 10,000-block
ramp K=8, L=8 run), unless earlier frees happened to raise glibc's mmap
threshold. The pool threads of a multi-worker run, and their workspaces,
end with the run.

A chunk is its bulk draws (_draw_chunk: the symbols, block phases and
noise, in stream order) and then everything else (_run_chunk: the sampler
arithmetic, zero-sample redraws, decisions, tie re-draws and scoring, from
the same Generator). With one worker, more than one chunk and more than one
usable CPU, a helper thread makes chunk i + 1's draws while the calling
thread runs chunk i, alternating between two noise buffers of the calling
thread's workspace; NumPy's fills release the GIL, so the two overlap. On
one CPU they would only take turns, so the draws run inline there. The
helper ends with the run, also when a chunk raises. Pool workers draw their
own chunks, since they already run in parallel.

The per-sample integer steps are gathers from small tables, not int64 division:
a sector z splits into quotient and residue through the K-entry tables
z div a and z mod a, and a decision is scored by looking its difference
from the sent symbol up in a 6M-entry table of "nonzero mod M" flags (see
_symbol_errors). Both give the integers of divmod and % exactly, at a
fraction of their cost on a chunk.

The constant-addition ambiguity of the metric means raw block decisions are
only defined up to a common constellation shift. Two scoring conventions:

* pilot: position 0 carries a known reference symbol (fixed to 0); the
  decision is rotated to match it and errors are counted on the remaining
  L - 1 positions.
* genie: errors are counted under the best of the M shifts, over all L
  positions. Lower by construction; useful as an optimistic bound.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import SystemConfig, _as_int, _distinct_rows, _draw_into, _sample_into, _Workspace
from .demod import _sweep_rows

DEFAULT_CHUNK = 4096
_CONVENTIONS = ("pilot", "genie")
# each thread's chunk workspace, kept across runs (see the module docstring)
_THREAD_WORK = threading.local()
# the workspace buffers that chunks drawn ahead alternate between
_NOISE_BUFFERS = ("noise", "noise_ahead")


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
    outside [0, total] raise ValueError.
    """
    if not 0 <= successes <= total:
        raise ValueError(f"successes must lie in [0, total] (got {successes!r} of {total!r})")
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
    ser >= target on the left and ser < target on the right.
    """
    snrs_db = np.asarray(snrs_db, dtype=float)
    sers = np.asarray(sers, dtype=float)
    if snrs_db.shape != sers.shape or snrs_db.ndim != 1:
        raise ValueError("snrs_db and sers must be equal-length 1-d arrays")
    if np.any(sers <= 0.0):
        raise ValueError("crossing interpolation needs strictly positive rates")
    for i in range(len(sers) - 1):
        if sers[i] >= target > sers[i + 1]:
            ly0, ly1 = math.log(sers[i]), math.log(sers[i + 1])
            frac = (math.log(target) - ly0) / (ly1 - ly0)
            return float(snrs_db[i] + frac * (snrs_db[i + 1] - snrs_db[i]))
    raise ValueError(f"curve never crosses {target!r} on the given grid")


# ---- chunk engine -----------------------------------------------------------


def _thread_work() -> _Workspace:
    """The calling thread's chunk workspace, made on its first chunk."""
    if not hasattr(_THREAD_WORK, "work"):
        _THREAD_WORK.work = _Workspace()
    return _THREAD_WORK.work


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    full, rem = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


class _RowMemo:
    """Decisions of the distinct rows a run has demodulated, as arrays.

    A row key (the row's bytes) maps to an id into run-level arrays: the
    winner candidate vector ((m, L) for m stored rows), the tie flag and the
    candidate count. Tied rows also keep their tie set, the candidate
    vectors a tied block re-draws from. Chunk threads share one memo. Under
    the lock a thread claims the rows nobody has stored or claimed, sweeps
    them without the lock and stores them under it; rows another thread has
    claimed it waits for, so no row is swept twice, and sweeps of disjoint
    rows run in parallel.
    """

    def __init__(self, L: int):
        self._lock = threading.Lock()
        self._ids: dict[bytes, int] = {}
        # rows being swept, each mapped to the event its sweeper sets
        self._claims: dict[bytes, threading.Event] = {}
        self._winners = np.empty((0, L), dtype=np.int64)
        self._tied = np.empty(0, dtype=bool)
        self._n_cand = np.empty(0, dtype=np.int64)
        self.tie_sets: dict[int, np.ndarray] = {}

    def decide(
        self, distinct: np.ndarray, config: SystemConfig
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, winner vectors, tie flags, candidate counts) of the rows."""
        # each row's bytes, as row.tobytes() gives them
        rows = np.ascontiguousarray(distinct)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        while True:
            with self._lock:
                absent = set(keys).difference(self._ids)
                if not absent:
                    ids = np.fromiter(map(self._ids.__getitem__, keys), np.intp, len(keys))
                    return ids, self._winners[ids], self._tied[ids], self._n_cand[ids]
                busy = absent.intersection(self._claims)
                claimed = {self._claims[key] for key in busy}
                absent -= busy
                done = threading.Event()
                self._claims.update(dict.fromkeys(absent, done))
            if absent:
                missing = [i for i, key in enumerate(keys) if key in absent]
                try:
                    self._store(distinct[missing], [keys[i] for i in missing], config)
                finally:
                    # a failed sweep leaves its rows unstored and unclaimed,
                    # so the next pass of a waiting thread claims them
                    with self._lock:
                        for key in absent:
                            del self._claims[key]
                    done.set()
            for event in claimed:
                event.wait()

    def _store(self, rows: np.ndarray, keys: list[bytes], config: SystemConfig) -> None:
        sweep = _sweep_rows(rows, config)
        winners = sweep.candidates[np.arange(len(rows)), sweep.winner]
        tied = np.count_nonzero(sweep.ties, axis=1) > 1
        with self._lock:
            base = len(self._ids)
            self._ids.update(zip(keys, range(base, base + len(keys))))
            for j in np.flatnonzero(tied):
                self.tie_sets[base + int(j)] = sweep.candidates[j, sweep.ties[j]]
            self._winners = np.concatenate([self._winners, winners])
            self._tied = np.concatenate([self._tied, tied])
            self._n_cand = np.concatenate([self._n_cand, sweep.n_distinct])


def _draw_chunk(
    config: SystemConfig,
    n_blocks: int,
    seed_seq: np.random.SeedSequence,
    convention: str,
    noise: np.ndarray,
) -> tuple[np.random.Generator, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Every draw of a chunk that comes before its decisions, in stream order.

    Returns (rng, X, (phases, noise)): the chunk's Generator, its symbols
    (the pilot column zeroed) and core._draw_into's draws into noise
    (2, n_blocks, L). The Generator then makes the chunk's remaining draws
    (zero-sample and tie re-draws) in _run_chunk. The fills release the GIL,
    so run_ser may make them on a helper thread.
    """
    rng = np.random.default_rng(seed_seq)
    X = rng.integers(0, config.M, size=(n_blocks, config.L))
    if convention == "pilot":
        X[:, 0] = 0
    return rng, X, _draw_into(rng, None, noise)


def _run_chunk(
    config: SystemConfig,
    drawn: tuple[np.random.Generator, np.ndarray, tuple[np.ndarray, np.ndarray]],
    convention: str,
    memo: _RowMemo,
    work: _Workspace,
) -> tuple[int, int, int, int]:
    """Simulate one chunk from _draw_chunk's draws; returns (errors, tie
    blocks, candidate sum, candidate max).

    Undithered, a block's row is its residue histogram, demodulated as the
    sorted residue vector it stands for (see the module docstring); under
    dither it is the block's residue vector. Only distinct rows the memo has
    not seen are demodulated; each block then takes its row's decision, and
    tied blocks re-draw theirs from the chunk stream in block order, before
    the quotients are added back. Every chunk-sized array but X and the
    histograms lives in work (the noise too, in a buffer run_ser names):
    the sampler's buffers, then its temporaries "t0" and "t1" as the
    quotient and decision planes. Sectors split into quotient and residue
    by gathers from the K-entry tables arange(K) // a and arange(K) % a (Z
    lies in 0..K-1, so mode="clip" never clips), which beat np.divmod's
    int64 division; "t0" then takes the pilot differences that
    _symbol_errors scores.
    """
    M, K, L, a = config.M, config.K, config.L, config.a
    rng, X, draws = drawn
    n_blocks = len(X)
    _, Z = _sample_into(X, config, rng, work, draws)
    xhat = work.buffer("t1", (n_blocks, L), np.int64)
    q = work.buffer("t0", (n_blocks, L), np.int64)
    sectors = np.arange(K)
    np.take(sectors // a, Z, out=q, mode="clip")
    np.take(sectors % a, Z, out=xhat, mode="clip")

    if config.is_dithered:
        distinct, inverse = _distinct_rows(xhat)
        ids, winners, row_tied, n_cand = memo.decide(distinct, config)
        np.take(winners, inverse, axis=0, out=xhat, mode="clip")
        for b in np.flatnonzero(row_tied[inverse]):
            xhat[b] = rng.choice(memo.tie_sets[ids[inverse[b]]])
    else:
        # Z now holds the flat index of each sample's residue in the
        # (block, residue) histogram, and later in the (row, residue) table
        np.add(xhat, a * np.arange(n_blocks)[:, None], out=Z)
        counts = np.bincount(Z.reshape(-1), minlength=a * n_blocks).reshape(n_blocks, a)
        hist, inverse = _distinct_rows(counts)
        rows = np.repeat(np.tile(np.arange(a), len(hist)), hist.reshape(-1)).reshape(-1, L)
        ids, winners, row_tied, n_cand = memo.decide(rows, config)
        # every candidate gives equal symbols to equal residues, so residue r
        # of a row takes the symbol at the first sorted position holding r
        first = np.minimum(np.cumsum(hist, axis=1) - hist, L - 1).reshape(-1)
        table = winners[np.repeat(np.arange(len(hist)), a), first]
        np.add(xhat, a * inverse[:, None], out=Z)
        np.take(table, Z, out=xhat, mode="clip")
        for b in np.flatnonzero(row_tied[inverse]):
            xhat[b] = rng.choice(memo.tie_sets[ids[inverse[b]]])[first[Z[b]]]
    xhat += q
    tied = row_tied[inverse]
    errors = _symbol_errors(xhat, X, M, convention, work)
    cand_total = n_cand @ np.bincount(inverse, minlength=len(n_cand))
    return errors, int(tied.sum()), int(cand_total), int(n_cand.max())


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
    sizes = _chunk_sizes(trials, DEFAULT_CHUNK)
    children = seed.spawn(len(sizes))
    memo = _RowMemo(config.L)

    def draws(i: int, work: _Workspace, noise: str = _NOISE_BUFFERS[0]) -> tuple:
        """_draw_chunk's arguments for chunk i, with work's buffer noise."""
        return config, sizes[i], children[i], convention, work.buffer(noise, (2, sizes[i], config.L))

    def job(i: int) -> tuple[int, int, int, int]:
        work = _thread_work()
        return _run_chunk(config, _draw_chunk(*draws(i, work)), convention, memo, work)

    chunks = range(len(sizes))
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, chunks))
    elif len(sizes) > 1 and _usable_cpus() > 1:
        # chunk i + 1's draws fill the other noise buffer on a helper thread
        # while this thread runs chunk i
        work, results = _thread_work(), []
        with ThreadPoolExecutor(max_workers=1) as helper:
            ahead = helper.submit(_draw_chunk, *draws(0, work))
            for i in chunks:
                drawn = ahead.result()
                if i + 1 < len(sizes):
                    args = draws(i + 1, work, _NOISE_BUFFERS[(i + 1) % 2])
                    ahead = helper.submit(_draw_chunk, *args)
                results.append(_run_chunk(config, drawn, convention, memo, work))
    else:
        results = [job(i) for i in chunks]
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
