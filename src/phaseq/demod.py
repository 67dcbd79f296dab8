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

For undithered configs the observation further reduces: z = a*q + r with
r = z mod a, the winner for z is the winner for r plus q. Dither breaks that
reduction (each position carries its own rotation), so the dithered path
sweeps per-symbol crossovers on the full observation, at most one per symbol.

Metrics are maxima over a scan grid of the smallest multiple of K at or above
720 points, which this module fills and holds per config (_scan_bank; exact
symmetry on the grid); it reads no transition kernel. The sweep scores all
candidates of a row by one scan of the envelope
E(phi) = sum_l max_m log P(z_l | m, phi) over the n_scan/M grid points of one
period: on a candidate's segment E is its own metric, so each candidate gets
the maximum of E over its segment's grid points. The winner's value is thus
its full-circle grid maximum, since no other candidate beats E anywhere; a
loser carries its in-segment maximum, which can lie below its full-circle
one. The oracle paths (glrt_metric, brute_force_glrt) scan each
hypothesis over the full circle instead. One decision rule, shared by the
sweep and the brute-force oracle, picks the winner and flags exactly tied
candidates (the signature failure of K = 2M without dither): those whose
relative metric gap to the winner is at most DEFAULT_TIE_TOL.

The sweep runs on arrays of rows (_sweep_rows: candidates, metrics, winner,
tie mask, tie gap), which the SER simulator scores directly. It takes the
config alone, as do the single-block entry points. _records is the one place
that cuts a row's DemodRecord from those arrays: the entry points build their
GlrtResult from row 0's record, and demodulate_rows returns one per row; it
still takes a kernel bank, and rejects one that is not the config's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig, _check_indices
from .transition import (
    TransitionKernel,
    _arc_probabilities,
    _check_own_kernels,
    sector_probability,
)

DEFAULT_TIE_TOL = 1e-6
_ALPHA_DEDUPE = 1e-12
# crossover_angles(validate=True) tolerance between geometric and root angles
_ROOT_TOL = 1e-9
# The scan grid has the smallest multiple of K at or above this many points.
_SCAN_TARGET = 720


@dataclass(frozen=True)
class GlrtCandidate:
    """One evaluated hypothesis: input vector, best phase, metric value."""

    x: tuple[int, ...]
    phi_star: float
    metric: float


@dataclass(frozen=True)
class GlrtResult:
    """Demodulation outcome with diagnostics.

    winner is the selected input (ties resolved by the caller's rng when
    given, else lowest candidate index); tie_gap is the relative gap between
    the top two metrics (None with a single candidate). Metrics and phi_star
    are grid values: from the sweep, a losing candidate carries its maximum
    over its own crossover segment; from brute_force_glrt, every candidate
    carries its maximum over the full circle.
    """

    winner: tuple[int, ...]
    candidates: tuple[GlrtCandidate, ...]
    tie: bool
    tie_gap: float | None
    crossovers: tuple[float, ...]


@dataclass
class DemodRecord:
    """One row of the candidate sweep, cut from its arrays (_records)."""

    candidates: np.ndarray  # (n_cand, L)
    log_metrics: np.ndarray  # (n_cand,)
    phi_stars: np.ndarray  # (n_cand,)
    winner_index: int
    tie_indices: np.ndarray
    tie: bool
    tie_gap: float | None
    crossovers: np.ndarray


# ---- crossover geometry ---------------------------------------------------


def _symbol_crossovers(Z: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Per-symbol crossover angles in (0, 2*pi/M], shape like Z.

    The coherent per-symbol decision switches where the rotated sector
    midpoint is equidistant between adjacent constellation points:
    alpha = (midpoint - theta0 - dither - pi/M) mod 2*pi/M, with 0 folded to
    the top of the window.
    """
    K, M = config.K, config.M
    window = TWO_PI / M
    mid = (Z + 0.5) * (TWO_PI / K)
    alpha = np.mod(mid - config.theta0 - np.asarray(config.dither) - math.pi / M, window)
    return np.where(alpha < _ALPHA_DEDUPE, alpha + window, alpha)


def _distinct_crossovers(
    Z: np.ndarray, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct crossover angles of each row of Z (n, L).

    Returns (edges, n_distinct, source): row i's distinct angles are
    edges[i, :n_distinct[i]] (the rest is padding), and source[i, j] is the
    position whose crossover edges[i, j] is. Angles within _ALPHA_DEDUPE of
    the previous sorted angle are duplicates.
    """
    alphas = _symbol_crossovers(Z, config)
    order = np.argsort(alphas, axis=1)
    alphas = np.take_along_axis(alphas, order, axis=1)
    dup = np.zeros_like(alphas, dtype=bool)
    dup[:, 1:] = np.diff(alphas, axis=1) <= _ALPHA_DEDUPE
    n_distinct = (~dup).sum(axis=1)
    # a stable sort on the duplicate flag moves each row's kept angles to
    # the front, still in ascending order
    keep = np.argsort(dup, axis=1, kind="stable")[:, : int(n_distinct.max())]
    edges = np.take_along_axis(alphas, keep, axis=1)
    return edges, n_distinct, np.take_along_axis(order, keep, axis=1)


def crossover_angles(z, config: SystemConfig, validate: bool = False) -> np.ndarray:
    """Sorted distinct crossover angles of a block, in (0, 2*pi/M].

    The same angles demodulate_rows splits the period at. validate=True
    re-derives each angle as the root of the likelihood equality between
    the two adjacent constellation points (brentq on the quadrature path)
    and raises if the geometric value is off by more than _ROOT_TOL.
    """
    z = _check_indices(z, "z", config.L, config.K, "K")
    edges, _, source = _distinct_crossovers(z[None, :], config)
    values = edges[0]
    if validate:
        gaps = np.diff(np.concatenate([values, [values[0] + TWO_PI / config.M]]))
        min_gap = float(gaps.min()) if values.size > 1 else TWO_PI / config.M
        for value, sym in zip(values, source[0]):
            _validate_crossover(float(value), int(z[sym]), int(sym), config, min_gap)
    return values


def _validate_crossover(
    alpha: float, z_sym: int, sym: int, config: SystemConfig, gap: float
) -> None:
    cfg_sym = replace(
        config, L=1, dither=None, theta0=config.theta0 + config.dither[sym]
    )
    span = 0.49 * min(gap, TWO_PI / config.M)
    zeta = z_sym * (TWO_PI / config.K) - cfg_sym.theta0
    half_w = math.pi / config.K
    probe = alpha - 1e-6 * TWO_PI / config.M
    m_lo = int(round((zeta + half_w - probe) * config.M / TWO_PI)) % config.M
    # the coherent argmax decreases with phi, so crossing alpha hands the
    # decision from m_lo to m_lo - 1
    m_hi = (m_lo - 1) % config.M

    def diff(phi: float) -> float:
        return sector_probability(z_sym, m_lo, phi, cfg_sym) - sector_probability(
            z_sym, m_hi, phi, cfg_sym
        )

    root = brentq(diff, alpha - span, alpha + span, xtol=1e-12)
    if abs(root - alpha) > _ROOT_TOL:
        raise RuntimeError(
            f"crossover mismatch at symbol {sym}: geometric {alpha!r}, root {root!r}"
        )


# ---- scan tables -------------------------------------------------------------


@lru_cache(maxsize=128)
def _scan_grid(K: int, snr_db: float, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi_scan, log table (K, n_scan)) on the plain grid i*2*pi/n_scan.

    n_scan is the smallest multiple of K at or above _SCAN_TARGET, so each
    row is an exact roll of the base row log g(m*2*pi/n_scan - theta0), one
    arc fill; that keeps metric ties between symmetry-related candidates
    exact on the grid. Underflowed cells hold -inf. The pair depends on K,
    the SNR and theta0 only, so configs that differ in M or L share it.
    """
    n_scan = K * math.ceil(_SCAN_TARGET / K)
    with np.errstate(divide="ignore"):
        base = np.log(_arc_probabilities(-theta0, n_scan, K, 10.0 ** (snr_db / 10.0)))
    idx = (n_scan // K * np.arange(K)[:, None] - np.arange(n_scan)[None, :]) % n_scan
    return (TWO_PI / n_scan) * np.arange(n_scan), base[idx]


# A dithered config holds L tables of K*n_scan values (98 MB with envelopes
# at K = 64 and a 200-position ramp). A run, its chunk threads and a
# per-block loop score one config at a time, so one entry is enough.
@lru_cache(maxsize=1)
def _scan_bank(config: SystemConfig) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Each position's (phi_scan, log table, envelope) under the config.

    Position l is scanned at theta0 + dither_l. The envelope is the
    (K, P + 1) table of max_m log P(z | m, phi_i), with P = n_scan/M. The
    scan rows are exact rolls by P per constellation step (row z - a*m at i
    is row z at i + m*P), so the envelope is bitwise 2*pi/M-periodic and its
    first P columns hold all of it. Column P is a -inf sentinel that closes
    each row's last segment. Positions with equal rotations share one
    triple. The cache holds whole configs, so a dithered block longer than
    _scan_grid's cache never refills a position once its config is held;
    SER chunk threads that fill one config at once store equal tables.
    """
    K, M = config.K, config.M
    scans = {}
    for d in config.dither:
        theta = config.theta0 + d
        if theta not in scans:
            phi_scan, table = _scan_grid(K, config.snr_db, theta)
            P = phi_scan.size // M
            env = np.full((K, P + 1), -np.inf)
            env[:, :P] = table.reshape(K, M, P).max(axis=1)
            scans[theta] = (phi_scan, table, env)
    return tuple(scans[config.theta0 + d] for d in config.dither)


# ---- metric evaluation ------------------------------------------------------


def _evaluate_candidates(
    Z: np.ndarray,
    C: np.ndarray,
    valid: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid (log metric, phi_star) of candidate array C (n, D, L).

    Scans every candidate over the full 2*pi: the oracle path behind
    glrt_metric and brute_force_glrt, independent of the envelope scan.
    Blocks of rows and of candidates hold about _CHUNK_ELEMENTS scan values
    each, so brute_force_glrt's hundreds of thousands of candidates never
    share one accumulator; each candidate is reduced on its own, so the
    output does not depend on the block size.
    """
    n, D, L = C.shape
    K, a = config.K, config.a
    scans = _scan_bank(config)
    phi_scan = scans[0][0]
    log_tables = [t[1] for t in scans]
    n_scan = phi_scan.size

    grid_val = np.full((n, D), -np.inf)
    grid_arg = np.zeros((n, D), dtype=np.int64)
    d_chunk = max(1, min(D, _CHUNK_ELEMENTS // n_scan))
    chunk = max(1, _CHUNK_ELEMENTS // (d_chunk * n_scan))
    for lo_i in range(0, n, chunk):
        hi_i = min(lo_i + chunk, n)
        for lo_d in range(0, D, d_chunk):
            hi_d = min(lo_d + d_chunk, D)
            S = (Z[lo_i:hi_i, None, :] - a * C[lo_i:hi_i, lo_d:hi_d]) % K
            acc = log_tables[0][S[:, :, 0], :]
            for l in range(1, L):
                acc += log_tables[l][S[:, :, l], :]
            grid_val[lo_i:hi_i, lo_d:hi_d] = acc.max(axis=2)
            grid_arg[lo_i:hi_i, lo_d:hi_d] = acc.argmax(axis=2)
    grid_val[~valid] = -np.inf
    return grid_val, phi_scan[grid_arg]


def _segment_maxima(
    Z: np.ndarray,
    C: np.ndarray,
    edges: np.ndarray,
    n_distinct: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid (log metric, phi_star) of each row's sweep candidates, (n, D).

    One scan of E(phi_i) = sum_l max_m log P(z_l | m, phi_i) over the P grid
    points of one 2*pi/M period serves every candidate of a row. Candidate
    d is the coherent decision between crossovers d-1 and d, so E is its own
    metric there; it gets the maximum of E over that segment's grid points
    (a grid point on a crossover goes to the later segment) and phi_star the
    first point attaining it. Candidate 0 also owns the wrap piece from the
    last crossover to 2*pi/M, where the decision is candidate 0 less one
    constellation step: the same metric at phi - 2*pi/M. A candidate whose
    segment holds no grid point gets its own metric at the two grid points
    bounding the segment. Entries past a row's candidates hold -inf. Rows
    are scanned in blocks of _CHUNK_ELEMENTS // (P + 1), each on its own.
    """
    n, D, L = C.shape
    K, M, a = config.K, config.M, config.a
    scans = _scan_bank(config)
    phi_scan = scans[0][0]
    n_scan = phi_scan.size
    P = n_scan // M
    W = P + 1
    envs = [t[2] for t in scans]

    # piece k of a row spans [starts[k], starts[k + 1]) of its W columns:
    # pieces 0..D_r-1 are the candidates' segments, piece D_r the wrap piece
    bounds = np.minimum(np.searchsorted(phi_scan[:W], edges), P)
    starts = np.concatenate([np.zeros((n, 1), dtype=bounds.dtype), bounds], axis=1)
    pieces = np.arange(D + 1)[None, :] <= n_distinct[:, None]
    piece_val = np.full((n, D + 1), -np.inf)
    piece_arg = np.zeros((n, D + 1), dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // W)
    for lo_i in range(0, n, chunk):
        hi_i = min(lo_i + chunk, n)
        acc = envs[0][Z[lo_i:hi_i, 0]]
        for l in range(1, L):
            acc += envs[l][Z[lo_i:hi_i, l]]
        flat = acc.ravel()
        sel = pieces[lo_i:hi_i]
        first = (starts[lo_i:hi_i] + W * np.arange(hi_i - lo_i)[:, None])[sel]
        top = np.maximum.reduceat(flat, first)
        hit = flat == np.repeat(top, np.diff(first, append=flat.size))
        at = np.minimum.reduceat(np.where(hit, np.arange(flat.size), flat.size), first)
        piece_val[lo_i:hi_i][sel] = top
        piece_arg[lo_i:hi_i][sel] = at % W

    rows = np.arange(n)
    log_metric = piece_val[:, :D].copy()
    arg = piece_arg[:, :D].copy()
    wrap = piece_val[rows, n_distinct]
    use_wrap = wrap > log_metric[:, 0]
    log_metric[use_wrap, 0] = wrap[use_wrap]
    arg[use_wrap, 0] = piece_arg[rows, n_distinct][use_wrap] - P
    valid = np.arange(D)[None, :] < n_distinct[:, None]
    log_metric[~valid] = -np.inf

    empty = valid.copy()
    empty[:, 0] = False
    empty[:, 1:] &= starts[:, 2:] == starts[:, 1:-1]
    if empty.any():
        r, d = np.nonzero(empty)
        S = (Z[r] - a * C[r, d]) % K
        around = starts[r, d + 1][:, None] - np.array([[1, 0]])
        own = sum(t[1][S[:, l, None], around] for l, t in enumerate(scans))
        best = np.argmax(own, axis=1)
        log_metric[r, d] = own[np.arange(r.size), best]
        arg[r, d] = around[np.arange(r.size), best]
    return log_metric, phi_scan[arg % n_scan]


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

    Row i's candidates are candidates[i, :n_distinct[i]]; entries past them
    hold -inf metrics and are never winners or tied. tie_gap is NaN where a
    row has one valid candidate.
    """

    candidates: np.ndarray  # (n, D, L)
    n_distinct: np.ndarray  # (n,)
    log_metrics: np.ndarray  # (n, D)
    phi_stars: np.ndarray  # (n, D)
    edges: np.ndarray  # (n, D) crossovers
    winner: np.ndarray  # (n,)
    ties: np.ndarray  # (n, D) bool
    tie_gap: np.ndarray  # (n,)


def _sweep_rows(Z: np.ndarray, config: SystemConfig) -> _Sweep:
    """The candidate sweep on each row of Z (n, L), as arrays.

    Z rows are taken as-is: residues of an undithered config (the caller
    re-adds q) or full observations of a dithered one.
    """
    Z = np.asarray(Z, dtype=np.int64)
    n, L = Z.shape
    M, K = config.M, config.K

    edges, n_distinct, _ = _distinct_crossovers(Z, config)
    D = edges.shape[1]
    prev = np.concatenate([np.zeros((n, 1)), edges[:, : D - 1]], axis=1)
    probes = 0.5 * (prev + edges)
    valid = np.arange(D)[None, :] < n_distinct[:, None]

    zeta = Z * (TWO_PI / K) - config.theta0 - np.asarray(config.dither)[None, :]
    half_w = math.pi / K
    # (n, D, L) in place: one float and one int array at a time
    args = zeta[:, None, :] + half_w - np.where(valid, probes, 0.0)[:, :, None]
    args *= M / TWO_PI
    np.round(args, out=args)
    C = args.astype(np.int64)
    del args
    C %= M

    log_metric, phi_star = _segment_maxima(Z, C, edges, n_distinct, config)
    winner, ties, tie_gap = _decide(log_metric, valid)
    return _Sweep(C, n_distinct, log_metric, phi_star, edges, winner, ties, tie_gap)


def _records(s: _Sweep) -> list[DemodRecord]:
    """One DemodRecord per row of a sweep; views into its arrays."""
    # row i's tie set is tie_cols[end - k:end], k = n_tied[i], end = ends[i]
    n_tied = np.count_nonzero(s.ties, axis=1)
    tie_cols = np.nonzero(s.ties)[1]
    ends = np.cumsum(n_tied)
    return [
        DemodRecord(
            candidates=s.candidates[i, :d],
            log_metrics=s.log_metrics[i, :d],
            phi_stars=s.phi_stars[i, :d],
            winner_index=w,
            tie_indices=tie_cols[end - k : end],
            tie=k > 1,
            tie_gap=None if math.isnan(gap) else gap,
            crossovers=s.edges[i, :d].copy(),
        )
        for i, (d, w, k, end, gap) in enumerate(
            zip(
                s.n_distinct.tolist(),
                s.winner.tolist(),
                n_tied.tolist(),
                ends.tolist(),
                s.tie_gap.tolist(),
            )
        )
    ]


def demodulate_rows(
    Z: np.ndarray,
    config: SystemConfig,
    kernels: tuple[TransitionKernel, ...],
) -> list[DemodRecord]:
    """Run the candidate sweep on each row of Z (n, L), one record per row.

    Rows are taken as _sweep_rows takes them. kernels must be
    kernel_bank_for(config) in value, else ValueError; the sweep itself
    reads only the config's scan tables.
    """
    _check_own_kernels(config, kernels)
    return _records(_sweep_rows(Z, config))


def _result_from_record(
    rec: DemodRecord, shift: np.ndarray | int, M: int, rng: np.random.Generator | None
) -> GlrtResult:
    """The GlrtResult of one record, its candidates shifted by shift mod M.

    A tied record draws its winner uniformly from its tie set when rng is given.
    """
    X = (rec.candidates + shift) % M
    # a log metric is never +inf or NaN, and exp(-inf) is 0
    cands = tuple(
        GlrtCandidate(x=tuple(x), phi_star=phi, metric=math.exp(lm))
        for x, phi, lm in zip(X.tolist(), rec.phi_stars.tolist(), rec.log_metrics.tolist())
    )
    idx = rec.winner_index
    if rec.tie and rng is not None:
        idx = int(rng.choice(rec.tie_indices))
    return GlrtResult(
        winner=cands[idx].x,
        candidates=cands,
        tie=rec.tie,
        tie_gap=rec.tie_gap,
        crossovers=tuple(rec.crossovers.tolist()),
    )


# ---- public entry points ---------------------------------------------------


def glrt_demodulate(
    z, config: SystemConfig, rng: np.random.Generator | None = None
) -> GlrtResult:
    """Demodulate one undithered block via the residue reduction.

    Solves the sweep on r = z mod a and adds back q = z div a per position;
    at most a candidates are evaluated. Ties are resolved uniformly from rng
    when given, else deterministically by candidate order.
    """
    if config.is_dithered:
        raise ValueError("glrt_demodulate requires an undithered config")
    z = _check_indices(z, "z", config.L, config.K, "K")
    rec = _records(_sweep_rows(z[None, :] % config.a, config))[0]
    return _result_from_record(rec, z // config.a, config.M, rng)


def glrt_demodulate_dithered(
    z, config: SystemConfig, rng: np.random.Generator | None = None
) -> GlrtResult:
    """Demodulate one block under the config's dither (no residue reduction).

    Per-symbol rotations give up to L distinct crossover angles, hence at most
    L + 1 candidates per 2*pi/M period.
    """
    z = _check_indices(z, "z", config.L, config.K, "K")
    return _result_from_record(_records(_sweep_rows(z[None, :], config))[0], 0, config.M, rng)


def glrt_metric(z, x, config: SystemConfig) -> GlrtCandidate:
    """max_phi P(z | x, phi) for one explicit hypothesis, over the full
    circle of the scan grid."""
    z = _check_indices(z, "z", config.L, config.K, "K")
    x = _check_indices(x, "x", config.L, config.M, "M")
    valid = np.ones((1, 1), dtype=bool)
    lm, ph = _evaluate_candidates(z[None, :], x[None, None, :], valid, config)
    return GlrtCandidate(
        x=tuple(int(v) for v in x), phi_star=float(ph[0, 0]), metric=math.exp(lm[0, 0])
    )


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
    valid = np.ones((1, C.shape[0]), dtype=bool)
    lm, ph = _evaluate_candidates(z[None, :], C[None, :, :], valid, config)
    winner, ties, tie_gap = _decide(lm, valid)
    # every orbit is a candidate; the oracle splits the period at no crossover
    n_cand = np.array([C.shape[0]])
    sweep = _Sweep(C[None], n_cand, lm, ph, np.empty((1, 0)), winner, ties, tie_gap)
    return _result_from_record(_records(sweep)[0], 0, config.M, None)
