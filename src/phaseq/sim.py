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

Without dither every position shares one kernel, so P(z | x, phi) is
unchanged when z and x are permuted together: the row demodulated for a block
is its residue vector z mod a sorted ascending, and the winner is scattered
back to the block's own positions. Crossovers are per symbol, so candidate d
of the sorted row is candidate d of the block permuted, and its tie set names
the same candidates; only the summation order of the log metrics changes.
Each metric is a sum of L scan-table entries at one grid point, so reordering
moves it by a few ulps, about 1e-15 relative: a decision can move only where
a relative gap lies that close to DEFAULT_TIE_TOL. At most C(L + a - 1, L)
sorted rows exist (45 at K=12, L=8), against
thousands of ordered ones. Under dither each position has its own kernel, so
rows are the full sector vectors in block order.

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

from .core import SystemConfig, _distinct_rows, sample_blocks
from .demod import _sweep_rows
from .transition import kernel_bank_for

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
    vectors a tied block re-draws from. Chunk threads share one memo: the
    key lookup and the merge of a chunk's new rows each run under the lock,
    and the sweep between them does not, so a row two threads both miss is
    swept twice and stored once.
    """

    def __init__(self, L: int):
        self._lock = threading.Lock()
        self._ids: dict[bytes, int] = {}
        self._winners = np.empty((0, L), dtype=np.int64)
        self._tied = np.empty(0, dtype=bool)
        self._n_cand = np.empty(0, dtype=np.int64)
        self.tie_sets: dict[int, np.ndarray] = {}

    def decide(
        self, distinct: np.ndarray, config: SystemConfig, kernels
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, winner vectors, tie flags, candidate counts) of the rows."""
        # each row's bytes, as row.tobytes() gives them
        rows = np.ascontiguousarray(distinct)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        with self._lock:
            missing = [i for i, key in enumerate(keys) if key not in self._ids]
        if missing:
            sweep = _sweep_rows(distinct[missing], config, kernels)
            winners = sweep.candidates[np.arange(len(missing)), sweep.winner]
            tied = np.count_nonzero(sweep.ties, axis=1) > 1
            with self._lock:
                # another chunk may have stored some of these rows meanwhile
                fresh = np.array(
                    [j for j, i in enumerate(missing) if keys[i] not in self._ids],
                    dtype=np.intp,
                )
                base = len(self._ids)
                new_keys = [keys[missing[j]] for j in fresh]
                self._ids.update(zip(new_keys, range(base, base + fresh.size)))
                for k in np.flatnonzero(tied[fresh]):
                    j = fresh[k]
                    self.tie_sets[base + int(k)] = sweep.candidates[j, sweep.ties[j]]
                self._winners = np.concatenate([self._winners, winners[fresh]])
                self._tied = np.concatenate([self._tied, tied[fresh]])
                self._n_cand = np.concatenate([self._n_cand, sweep.n_distinct[fresh]])
        with self._lock:
            ids = np.fromiter(map(self._ids.__getitem__, keys), np.intp, len(keys))
            return ids, self._winners[ids], self._tied[ids], self._n_cand[ids]


def _run_chunk(
    config: SystemConfig,
    kernels,
    n_blocks: int,
    seed_seq: np.random.SeedSequence,
    convention: str,
    memo: _RowMemo,
) -> tuple[int, int, int, int]:
    """Simulate one chunk; returns (errors, tie blocks, candidate sum, candidate max).

    A block's row is its sorted residue vector when undithered (see the
    module docstring) and its sector vector under dither. Only distinct rows
    the memo has not seen are demodulated; each block then takes its row's
    winner, tied blocks re-draw theirs from the chunk stream in block order,
    and the decision is scattered back to the block's positions.
    """
    M, L, a = config.M, config.L, config.a
    rng = np.random.default_rng(seed_seq)
    X = rng.integers(0, M, size=(n_blocks, L))
    if convention == "pilot":
        X[:, 0] = 0
    _, Z = sample_blocks(X, config, rng)

    if config.is_dithered:
        rows, shifts = Z, 0
        order = np.broadcast_to(np.arange(L), Z.shape)
    else:
        residues, shifts = Z % a, Z // a
        order = np.argsort(residues, axis=1, kind="stable")
        rows = np.take_along_axis(residues, order, axis=1)
    distinct, inverse = _distinct_rows(rows)
    ids, winners, row_tied, n_cand = memo.decide(distinct, config, kernels)

    decided = winners[inverse]
    tied = row_tied[inverse]
    for b in np.flatnonzero(tied):
        decided[b] = rng.choice(memo.tie_sets[ids[inverse[b]]])
    xhat = np.empty_like(decided)
    np.put_along_axis(xhat, order, decided, axis=1)
    xhat = (xhat + shifts) % M
    if convention == "pilot":
        xhat = (xhat - xhat[:, :1]) % M
        errors = np.count_nonzero(xhat[:, 1:] != X[:, 1:])
    else:
        shifted = (xhat[:, None, :] + np.arange(M)[:, None]) % M
        errors = (shifted != X[:, None, :]).sum(axis=2).min(axis=1).sum()
    cand_total = n_cand @ np.bincount(inverse, minlength=len(distinct))
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
    kernels = kernel_bank_for(config)
    sizes = _chunk_sizes(trials, DEFAULT_CHUNK)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(sizes))
    memo = _RowMemo(config.L)

    def job(args):
        size, child = args
        return _run_chunk(config, kernels, size, child, convention, memo)

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
