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
dither each position has its own rotation, so rows are the full sector
vectors in block order. The chunk engine hands demod the config alone, and
demod scores rows from its own scan tables, so a run fills no transition
kernel.

Each worker thread of a run keeps one workspace, which holds the sampler's
planes and the chunk's quotient, index and decision planes, so a chunk
allocates no chunk-sized array there after the worker's first chunk.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import SystemConfig, _distinct_rows, _sample_into, _Workspace
from .demod import _sweep_rows

DEFAULT_CHUNK = 4096
_CONVENTIONS = ("pilot", "genie")


@dataclass(frozen=True)
class SerPoint:
    """One measured operating point with a 95% Wilson interval on SER."""

    snr_db: float
    trials: int
    errors: int
    symbols: int
    ser: float
    ci_low: float
    ci_high: float
    tie_rate: float
    convention: str


@dataclass(frozen=True)
class TieCensus:
    """Exact-tie statistics of the demodulator at one operating point."""

    trials: int
    tie_blocks: int
    tie_rate: float
    ci_low: float
    ci_high: float
    mean_candidates: float
    max_candidates: int


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return (0.0, 1.0)
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def coherent_qpsk_ser(snr_db: float) -> float:
    """Symbol error rate of coherent Gray-mapped QPSK at the same Es/N0."""
    q = 1.0 - float(ndtr(math.sqrt(10.0 ** (snr_db / 10.0))))
    return 2.0 * q - q * q


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


def _run_chunk(
    config: SystemConfig,
    n_blocks: int,
    seed_seq: np.random.SeedSequence,
    convention: str,
    memo: _RowMemo,
    work: _Workspace,
) -> tuple[int, int, int, int]:
    """Simulate one chunk; returns (errors, tie blocks, candidate sum, candidate max).

    Undithered, a block's row is its residue histogram, demodulated as the
    sorted residue vector it stands for (see the module docstring); under
    dither it is the block's sector vector. Only distinct rows the memo has
    not seen are demodulated; each block then takes its row's decision, and
    tied blocks re-draw theirs from the chunk stream in block order. Every
    chunk-sized array but X and the histograms lives in work: the sampler's
    buffers, then its temporaries "t0" and "t1" as the quotient and
    decision planes.
    """
    M, L, a = config.M, config.L, config.a
    rng = np.random.default_rng(seed_seq)
    X = rng.integers(0, M, size=(n_blocks, L))
    if convention == "pilot":
        X[:, 0] = 0
    _, Z = _sample_into(X, config, rng, None, work)
    xhat = work.buffer("t1", (n_blocks, L), np.int64)

    if config.is_dithered:
        distinct, inverse = _distinct_rows(Z)
        ids, winners, row_tied, n_cand = memo.decide(distinct, config)
        np.take(winners, inverse, axis=0, out=xhat, mode="clip")
        for b in np.flatnonzero(row_tied[inverse]):
            xhat[b] = rng.choice(memo.tie_sets[ids[inverse[b]]])
    else:
        q = work.buffer("t0", (n_blocks, L), np.int64)
        np.divmod(Z, a, out=(q, xhat))
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
    if convention == "pilot":
        xhat -= xhat[:, :1]
        xhat %= M
        errors = np.count_nonzero(xhat[:, 1:] != X[:, 1:])
    else:
        shifted = (xhat[:, None, :] + np.arange(M)[:, None]) % M
        errors = (shifted != X[:, None, :]).sum(axis=2).min(axis=1).sum()
    cand_total = n_cand @ np.bincount(inverse, minlength=len(n_cand))
    return int(errors), int(tied.sum()), int(cand_total), int(n_cand.max())


def _simulate(
    config: SystemConfig,
    trials: int,
    seed,
    convention: str,
    workers: int,
) -> tuple[int, int, int, int]:
    if trials < 1:
        raise ValueError("trials must be positive")
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    if convention == "pilot" and config.L < 2:
        raise ValueError("pilot convention needs L >= 2")
    sizes = _chunk_sizes(trials, DEFAULT_CHUNK)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(sizes))
    memo = _RowMemo(config.L)
    # one workspace per worker thread, reused by every chunk it runs and
    # freed with the run
    local = threading.local()

    def job(args):
        size, child = args
        if not hasattr(local, "work"):
            local.work = _Workspace()
        return _run_chunk(config, size, child, convention, memo, local.work)

    n_workers = max(1, workers)
    if n_workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(job, zip(sizes, children)))
    else:
        results = [job(arg) for arg in zip(sizes, children)]
    errors = sum(r[0] for r in results)
    ties = sum(r[1] for r in results)
    cands = sum(r[2] for r in results)
    cand_max = max(r[3] for r in results)
    return errors, ties, cands, cand_max


def run_ser(
    config: SystemConfig,
    trials: int,
    seed=0,
    convention: str = "pilot",
    workers: int = 1,
) -> SerPoint:
    """Measure SER at config's operating point over `trials` blocks.

    Reproducible for a given (seed, trials) regardless of workers; seed may
    be an int or a SeedSequence.
    """
    errors, ties, _, _ = _simulate(config, trials, seed, convention, workers)
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
    )


def run_tie_census(
    config: SystemConfig,
    trials: int,
    seed=0,
    workers: int = 1,
) -> TieCensus:
    """Count exact metric ties over random blocks (genie-style inputs)."""
    _, ties, cands, cand_max = _simulate(config, trials, seed, "genie", workers)
    lo, hi = wilson_interval(ties, trials)
    return TieCensus(
        trials=trials,
        tie_blocks=ties,
        tie_rate=ties / trials,
        ci_low=lo,
        ci_high=hi,
        mean_candidates=cands / trials,
        max_candidates=cand_max,
    )
