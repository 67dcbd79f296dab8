"""GLRT block demodulation for the quantized noncoherent channel.

The decision rule picks the input whose best-case metric max_phi P(z | x, phi)
is largest. Two structural facts keep the search tiny. First, adding one
constellation step to every symbol only shifts the maximizing phase, so
solutions come in constant-addition families and only one 2*pi/M period of
phi needs scanning. Second, within that period the per-symbol coherent
decision switches to the next constellation point exactly once, at a
"crossover" angle determined by the observed sector alone; sorting the
distinct crossover angles splits the period into segments whose coherent
decisions are the only GLRT candidates.

The observation further reduces, with or without dither: z = a*q + r with
r = z mod a. Position l's law depends on z_l - a*x_l alone, and its crossover
on r_l alone (a step of a sectors moves the sector midpoint by exactly
2*pi/M), so the sweep of z is the sweep of r with q added to every candidate
(mod M); _sweep_rows makes that step, the only one in demod. Dither gives
each position its own rotation, so a dithered row has up to L distinct
crossovers, one per symbol, where an undithered one has at most a.

Metrics are maxima over a scan grid of the smallest multiple of K at or above
720 points: _scan_bank holds, per config, the log table of each position's
transition kernel on that grid (exact symmetry on the grid), so demod and
the block probabilities share one fill and one table cache. The sweep scores
all candidates of a row by one scan of the envelope
E(phi) = sum_l max_m log P(z_l | m, phi) over the n_scan/M grid points of one
period (each term the (a, n_scan/M) view transition._fold_inputs makes with
np.max): on a candidate's segment E is its own metric, so each candidate gets
the maximum of E over its segment's grid points. The winner's value is thus
its full-circle grid maximum, since no other candidate beats E anywhere; a
loser carries its in-segment maximum, which can lie below its full-circle
one. The oracle, brute_force_glrt, scans each hypothesis over the full
circle instead. One decision rule, shared by the sweep and the oracle, picks
the winner and flags exactly tied candidates (the signature failure of
K = 2M without dither): those whose relative metric gap to the winner is at
most DEFAULT_TIE_TOL. The winner is the lowest-index tied candidate; the SER
simulator re-draws a tied block's decision from the tie set itself.

The sweep runs on arrays of rows (_sweep_rows: each row's candidate 0 and
crossover ranks, from which _pick reads any candidate, then metrics, winner,
tie mask, tie gap), which the SER simulator scores directly. It takes the
config alone, as do the single-block entry points. _records is the one place
that cuts a row's DemodRecord from those arrays: the entry points build their
GlrtResult from row 0's record, and demodulate_rows returns one per row; it
still takes a kernel bank, and rejects one that is not the config's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig, _check_indices, _thread_workspace
from .transition import (
    _MAX_GRID,
    TransitionKernel,
    _check_own_kernels,
    _fold_inputs,
    _kernel_cached,
    _log_table,
)

DEFAULT_TIE_TOL = 1e-6
_ALPHA_DEDUPE = 1e-12
# The scan grid has the smallest multiple of K at or above this many points.
_SCAN_TARGET = 720


def _scan_points(K: int) -> int:
    """Scan grid points for K sectors; ValueError past the fill's _MAX_GRID."""
    n = K * math.ceil(_SCAN_TARGET / K)
    if n > _MAX_GRID:
        raise ValueError(f"K={K} needs a {n}-point scan grid, above the {_MAX_GRID}-point limit")
    return n


@dataclass(frozen=True)
class GlrtCandidate:
    """One evaluated hypothesis: input vector and metric value."""

    x: tuple[int, ...]
    metric: float


@dataclass(frozen=True)
class GlrtResult:
    """Demodulation outcome with diagnostics.

    winner is the selected input (the lowest-index candidate of the tie
    set); tie_gap is the relative gap between the top two metrics (None with
    a single candidate). Metrics are grid values: from the sweep, a losing
    candidate carries its maximum over its own crossover segment; from
    brute_force_glrt, every candidate carries its maximum over the full
    circle.
    """

    winner: tuple[int, ...]
    candidates: tuple[GlrtCandidate, ...]
    tie: bool
    tie_gap: float | None


@dataclass
class DemodRecord:
    """One row of the candidate sweep, cut from its arrays (_records)."""

    candidates: np.ndarray  # (n_cand, L)
    log_metrics: np.ndarray  # (n_cand,)
    winner_index: int
    tie: bool
    tie_gap: float | None


# ---- crossover geometry ---------------------------------------------------


def _symbol_crossovers(Z: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Per-symbol crossover angles in (0, 2*pi/M], shape like Z.

    The coherent per-symbol decision switches where the rotated sector
    midpoint is equidistant between adjacent constellation points:
    alpha = (midpoint - theta0 - dither - pi/M) mod 2*pi/M, with 0 folded to
    the top of the window, for Z in residues mod a as _sweep_rows passes them.
    """
    K, M = config.K, config.M
    window = TWO_PI / M
    mid = (Z + 0.5) * (TWO_PI / K)
    alpha = np.mod(mid - config.theta0 - np.asarray(config.dither) - math.pi / M, window)
    return np.where(alpha < _ALPHA_DEDUPE, alpha + window, alpha)


def _distinct_crossovers(Z: np.ndarray, config: SystemConfig) -> tuple[np.ndarray, ...]:
    """Sorted distinct crossover angles of each row of Z (n, L), with ranks.

    Returns (edges, n_distinct, rank): row i's distinct angles are
    edges[i, :n_distinct[i]] (the rest is padding), and symbol l's crossover
    is edges[i, rank[i, l]]. Angles within _ALPHA_DEDUPE of the previous
    sorted angle are duplicates and share its rank.
    """
    alphas = _symbol_crossovers(Z, config)
    order = np.argsort(alphas, axis=1)
    alphas = np.take_along_axis(alphas, order, axis=1)
    dup = np.zeros_like(alphas, dtype=bool)
    dup[:, 1:] = np.diff(alphas, axis=1) <= _ALPHA_DEDUPE
    n_distinct = (~dup).sum(axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.cumsum(~dup, axis=1) - 1, axis=1)
    # a stable sort on the duplicate flag moves each row's kept angles to
    # the front, still in ascending order
    keep = np.argsort(dup, axis=1, kind="stable")[:, : int(n_distinct.max())]
    return np.take_along_axis(alphas, keep, axis=1), n_distinct, rank


# ---- scan tables -------------------------------------------------------------


# A config holds per position a scan table of 2*n_scan values and an envelope
# of 2*n_scan/M (about 5.2 MiB at K = 64, 200-position ramp). Runs score one
# config at a time, so one entry is enough.
@lru_cache(maxsize=1)
def _scan_bank(config: SystemConfig) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Each position's (phi_scan, log table, envelope) under the config.

    Position l is scanned at theta0 + dither_l on the grid i*2*pi/n_scan,
    n_scan the smallest multiple of K at or above _SCAN_TARGET. Its log
    table is _log_table of the kernel at that rotation and grid (-inf where
    it underflows), so each row is an exact roll of row 0, which keeps ties
    between symmetry-related candidates exact. The envelope is
    _fold_inputs(log table, M, np.max): row r of that (a, n_scan/M) view
    is max_m log P(z | m, phi_i) for every z = r mod a. Positions with equal
    rotations share one triple, and all share one phi_scan: the first
    kernel's phi_grid, made read-only. The cache holds whole configs, so a
    block longer than the kernel cache never refills a position once its
    config is held.
    """
    K, M = config.K, config.M
    n_scan = _scan_points(K)
    scans = {}
    for d in config.dither:
        theta = config.theta0 + d
        if theta not in scans:
            kernel = _kernel_cached(K, config.snr_db, theta, n_scan)
            if not scans:
                phi_scan = kernel.phi_grid
                phi_scan.flags.writeable = False
            with np.errstate(divide="ignore"):
                table = _log_table(kernel.table)
            scans[theta] = (phi_scan, table, _fold_inputs(table, M, np.max))
    return tuple(scans[config.theta0 + d] for d in config.dither)


# ---- metric evaluation ------------------------------------------------------


def _evaluate_candidates(z: np.ndarray, C: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Grid log metric of each candidate row of C (D, L) on one block z (L,).

    Scans every candidate over the full 2*pi: brute_force_glrt's oracle
    path, independent of the envelope scan. Blocks of candidates hold about
    _CHUNK_ELEMENTS scan values each, so its hundreds of thousands of
    candidates never share one accumulator; each candidate is reduced on its
    own, so the output does not depend on the block size.
    """
    D, L = C.shape
    K, a = config.K, config.a
    log_tables = [t[1] for t in _scan_bank(config)]
    n_scan = log_tables[0].shape[1]

    grid_val = np.empty(D)
    chunk = max(1, _CHUNK_ELEMENTS // n_scan)
    for lo in range(0, D, chunk):
        S = (z - a * C[lo : lo + chunk]) % K
        acc = log_tables[0][S[:, 0], :]
        for l in range(1, L):
            acc += log_tables[l][S[:, l], :]
        grid_val[lo : lo + chunk] = acc.max(axis=1)
    return grid_val


def _segment_maxima(
    R: np.ndarray,
    base: np.ndarray,
    rank: np.ndarray,
    edges: np.ndarray,
    n_distinct: np.ndarray,
    config: SystemConfig,
) -> np.ndarray:
    """Grid log metric of each residue row's sweep candidates, (n, D).

    One scan of E(phi_i) = sum_l max_m log P(r_l | m, phi_i) over the P grid
    points of one 2*pi/M period serves every candidate of a residue row (R,
    n x L). Candidate d is the coherent decision between crossovers d-1 and
    d, so E is its own metric there; it gets the maximum of E over that
    segment's grid points (a grid point on a crossover goes to the later
    segment). Candidate 0 also owns the wrap piece from the last crossover
    to 2*pi/M, where the decision is candidate 0 less one constellation step
    (the same metric at phi - 2*pi/M), so its value is the larger of its two
    pieces' maxima. A candidate whose segment holds no grid point gets its
    own metric, read by _pick, at the two grid points bounding the segment.
    Entries past a row's candidates, and pieces that start at P, hold -inf.
    Rows are scanned in blocks of _CHUNK_ELEMENTS // P, each on its own.
    """
    (n, L), D = R.shape, edges.shape[1]
    K, M, a = config.K, config.M, config.a
    scans = _scan_bank(config)
    phi_scan = scans[0][0]
    P = phi_scan.size // M
    envs = [t[2] for t in scans]

    # piece k of a row spans [starts[k], starts[k + 1]) of its P columns:
    # pieces 0..D_r-1 are the candidates' segments, piece D_r the wrap piece
    bounds = np.minimum(np.searchsorted(phi_scan[: P + 1], edges), P)
    starts = np.concatenate([np.zeros((n, 1), dtype=bounds.dtype), bounds], axis=1)
    pieces = np.arange(D + 1)[None, :] <= n_distinct[:, None]
    piece_val = np.full((n, D + 1), -np.inf)
    chunk = max(1, _CHUNK_ELEMENTS // P)
    for lo_i in range(0, n, chunk):
        hi_i = min(lo_i + chunk, n)
        # the rows' sums, and past them a -inf for a last row's piece at P,
        # in a buffer kept by the thread: a fresh 512 KB block would be
        # mapped, or trimmed off the heap, and faulted in again each time
        flat = _thread_workspace().buffer("demod_scan", ((hi_i - lo_i) * P + 1,))
        flat[-1] = -np.inf
        acc = flat[:-1].reshape(hi_i - lo_i, P)
        np.take(envs[0], R[lo_i:hi_i, 0], axis=0, out=acc, mode="clip")
        for l in range(1, L):
            acc += envs[l][R[lo_i:hi_i, l]]
        sel = pieces[lo_i:hi_i]
        first = (starts[lo_i:hi_i] + P * np.arange(hi_i - lo_i)[:, None])[sel]
        piece_val[lo_i:hi_i][sel] = np.maximum.reduceat(flat, first)
    # a piece starting at P holds no grid point; reduceat read the next row
    piece_val[starts == P] = -np.inf

    log_metric = piece_val[:, :D].copy()
    np.maximum(log_metric[:, 0], piece_val[np.arange(n), n_distinct], out=log_metric[:, 0])
    valid = np.arange(D)[None, :] < n_distinct[:, None]
    log_metric[~valid] = -np.inf

    empty = valid.copy()
    empty[:, 0] = False
    empty[:, 1:] &= starts[:, 2:] == starts[:, 1:-1]
    if empty.any():
        # summed one position at a time, so no (pairs, L) plane is built
        r, d = np.nonzero(empty)
        around = starts[r, d + 1][:, None] - np.array([[1, 0]])
        own = np.zeros(around.shape)
        for l, t in enumerate(scans):
            S = (R[r, l] - a * _pick(base[r, l], rank[r, l], d, M)) % K
            own += t[1][S[:, None], around]
        log_metric[r, d] = own.max(axis=1)
    return log_metric


def _decide(
    log_metric: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GLRT decision on each row of log_metric (n, D).

    Returns the winner, the tie mask (valid candidates whose relative metric
    gap to the top metric is at most DEFAULT_TIE_TOL) and the tie gap array
    (least gap of the other valid candidates to the top; NaN where only one
    is valid). The winner is the lowest-index candidate of the tie mask, which
    holds the argmax: exactly tied metrics can differ in their last bits
    with the order of the positions, and the winner must not. A row whose
    metrics are all -inf (every hypothesis underflowed on the grid) ties all
    its valid candidates with gap 0. Invalid entries must hold -inf.
    """
    n = log_metric.shape[0]
    top_idx = np.argmax(log_metric, axis=1)
    top = log_metric[np.arange(n), top_idx]
    with np.errstate(invalid="ignore"):
        gaps = np.abs(np.expm1(log_metric - top[:, None]))
    # -inf - -inf is nan; equal metrics have gap 0
    gaps[log_metric == top[:, None]] = 0.0
    ties = valid & (gaps <= DEFAULT_TIE_TOL)
    winner = np.argmax(ties, axis=1)
    others = np.where(valid, gaps, np.inf)
    others[np.arange(n), top_idx] = np.inf
    least = others.min(axis=1)
    return winner, ties, np.where(valid.sum(axis=1) > 1, least, np.nan)


class _Sweep(NamedTuple):
    """Array results of the candidate sweep on n rows, D = max n_distinct.

    Row i's candidates are _pick(base[i], rank[i], d, M) for d below
    n_distinct[i]; entries past them hold -inf metrics and are never
    winners or tied. tie_gap is NaN where a row has one valid candidate.
    """

    base: np.ndarray  # (n, L) candidate 0
    rank: np.ndarray  # (n, L) each symbol's crossover among the row's edges
    n_distinct: np.ndarray  # (n,)
    log_metrics: np.ndarray  # (n, D)
    winner: np.ndarray  # (n,)
    ties: np.ndarray  # (n, D) bool
    tie_gap: np.ndarray  # (n,)


def _pick(base: np.ndarray, rank: np.ndarray, d, M: int) -> np.ndarray:
    """Candidate d of sweep rows: across one 2*pi/M period each symbol's
    coherent decision steps down once, at its crossover (edge rank)."""
    return (base - (rank < d)) % M


def _sweep_rows(Z: np.ndarray, config: SystemConfig) -> _Sweep:
    """The candidate sweep on each row of Z (n, L), as arrays.

    Rows may hold any sectors: the sweep runs on their residues r and adds
    the quotients q, Z = a*q + r, to every candidate (mod M), the one place
    where demod reduces rows mod a. Only candidate 0 is rounded, at half the
    first crossover; _pick reads the others, so no array holds them all.
    """
    q, R = np.divmod(np.asarray(Z, dtype=np.int64), config.a)
    M, K = config.M, config.K

    edges, n_distinct, rank = _distinct_crossovers(R, config)
    zeta = R * (TWO_PI / K) - config.theta0 - np.asarray(config.dither)[None, :]
    base = np.round((zeta + math.pi / K - edges[:, :1] / 2) * (M / TWO_PI)).astype(np.int64)
    log_metric = _segment_maxima(R, base, rank, edges, n_distinct, config)
    valid = np.arange(edges.shape[1])[None, :] < n_distinct[:, None]
    return _Sweep((base + q) % M, rank, n_distinct, log_metric, *_decide(log_metric, valid))


def _records(s: _Sweep, M: int) -> list[DemodRecord]:
    """One DemodRecord per row of a sweep of M-PSK rows."""
    n_tied = np.count_nonzero(s.ties, axis=1)
    return [
        DemodRecord(
            candidates=_pick(s.base[i], s.rank[i], np.arange(d)[:, None], M),
            log_metrics=s.log_metrics[i, :d],
            winner_index=w,
            tie=k > 1,
            tie_gap=None if math.isnan(gap) else gap,
        )
        for i, (d, w, k, gap) in enumerate(
            zip(s.n_distinct.tolist(), s.winner.tolist(), n_tied.tolist(), s.tie_gap.tolist())
        )
    ]


def demodulate_rows(
    Z: np.ndarray,
    config: SystemConfig,
    kernels: tuple[TransitionKernel, ...],
) -> list[DemodRecord]:
    """Run the candidate sweep on each row of Z (n, L), one record per row.

    Rows hold sectors 0..K-1 (else ValueError), full or residues alike; no
    rows give no records. kernels must be kernel_bank_for(config) in value,
    else ValueError; the sweep itself reads only the config's scan tables.
    """
    _check_own_kernels(config, kernels)
    Z = _check_indices(Z, "Z", config.L, config.K, "K", stacked=True)
    return _records(_sweep_rows(Z, config), config.M) if Z.size else []


def _result_from_record(rec: DemodRecord) -> GlrtResult:
    """The GlrtResult of one record."""
    # a log metric is never +inf or NaN, and exp(-inf) is 0
    cands = tuple(
        GlrtCandidate(x=tuple(x), metric=math.exp(lm))
        for x, lm in zip(rec.candidates.tolist(), rec.log_metrics.tolist())
    )
    return GlrtResult(
        winner=cands[rec.winner_index].x, candidates=cands, tie=rec.tie, tie_gap=rec.tie_gap
    )


# ---- public entry points ---------------------------------------------------


def _demodulate(z, config: SystemConfig) -> GlrtResult:
    """The sweep of one block."""
    z = _check_indices(z, "z", config.L, config.K, "K")
    return _result_from_record(_records(_sweep_rows(z[None, :], config), config.M)[0])


def glrt_demodulate(z, config: SystemConfig) -> GlrtResult:
    """Demodulate one undithered block via the residue reduction.

    At most a candidates are evaluated. A tie goes to the lowest-index tied
    candidate.
    """
    if config.is_dithered:
        raise ValueError("glrt_demodulate requires an undithered config")
    return _demodulate(z, config)


def glrt_demodulate_dithered(z, config: SystemConfig) -> GlrtResult:
    """Demodulate one block under the config's dither via the residue
    reduction.

    Per-symbol rotations give up to L distinct crossover angles, hence at most
    L candidates per 2*pi/M period.
    """
    return _demodulate(z, config)


def brute_force_glrt(z, config: SystemConfig) -> GlrtResult:
    """Oracle demodulator: score every input, without the candidate sweep.

    Adding a constant to every symbol leaves the metric exactly invariant
    (it only shifts the maximizing phase), so inputs are enumerated with the
    first symbol pinned to 0, one representative per constant-addition orbit;
    the tie flag then reports genuine cross-orbit ties rather than firing on
    every orbit. Exponential in L by construction.
    """
    z = _check_indices(z, "z", config.L, config.K, "K")
    if config.M ** (config.L - 1) > 300_000:
        raise ValueError("brute-force input space too large")
    tails = np.array(list(product(range(config.M), repeat=config.L - 1)), dtype=np.int64)
    C = np.concatenate([np.zeros((tails.shape[0], 1), dtype=np.int64), tails], axis=1)
    lm = _evaluate_candidates(z, C, config)
    # every orbit is a candidate
    winner, ties, gap = (v[0] for v in _decide(lm[None], np.ones((1, lm.size), dtype=bool)))
    tie_gap = None if math.isnan(gap) else float(gap)
    return _result_from_record(DemodRecord(C, lm, int(winner), bool(ties.sum() > 1), tie_gap))
