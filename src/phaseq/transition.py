"""Scalar and block sector-transition probabilities.

Conditioned on the block phase offset phi, each received sample is a unit
vector at a known phase plus circular complex Gaussian noise, so the density
of the received phase minus the clean phase has the classical closed form

    f(u) = e^{-rho}/(2*pi)
         + sqrt(rho/pi) * cos(u) * e^{-rho*sin^2(u)} * Phi(sqrt(2*rho)*cos(u))

with rho the linear SNR and Phi the standard normal CDF. _phase_offset_pdf
evaluates f without checking its arguments: its callers pass a config's SNR,
already checked, or check the SNR themselves. A sector probability
is f integrated over an arc of width 2*pi/K: by adaptive quadrature in the
reference sector_probability, and for a whole grid (a kernel's table, the
one fill of the package) by _arc_probabilities, one 16-node Gauss-Legendre
rule (computed once, at import) per part of each grid cell, with each arc
summing the cells it spans. A fill evaluates all 16 nodes of a block of
cells in one density call, in blocks of _CHUNK_ELEMENTS // 16 cells, so its
temporaries stay at 512 KB whatever the grid size.
Block probabilities average the per-symbol product over phi on the uniform
grid phi_i = i*2*pi/n (the composite trapezoidal rule; the integrand is
smooth and periodic, so the rule converges spectrally). The grid size is
worked out from (K, SNR, L) by _grid_size, not chosen: the L-fold product of
per-symbol phase laws is about 1/sqrt(2*rho*L) wide, so its Fourier
coefficients fall below 1e-12 of the mean near 10.5*sqrt(rho*L);
24*sqrt(rho*L) + 64 points leave about 2x margin above that and cover low
SNR, and rounding up to a multiple of K keeps the sector-shift symmetries
exact rolls. Against a grid 8x finer, log P(z | x) and log P(z) of
channel-sampled blocks agree within 1e-13 from -10 to 40 dB and up to
L = 200. One routine, _log_grid_mean, forms every such product in one pass
over its rows, in blocks of about core._CHUNK_ELEMENTS grid values (512 KB),
so that the accumulator and the table rows gathered into it stay in L2 cache
and below the allocator's mmap threshold. Each block is multiplied linearly,
and the rows whose linear product underflows are redone in log space in the
same block (every row is, at once, when the tables' peaks alone multiply to
below the floor), so long blocks keep finite log-probabilities. Each row's
arithmetic is the same however rows are grouped, so the results do not
depend on the block size.

Only the x = 0 slice of the scalar transition law is ever tabulated: shifting
the input by one constellation step shifts the output law by a = K/M sectors,
so any (z, x) probability is row (z - a*x) mod K of that slice. Each row of
the slice is in turn one base row rolled by n/K grid points per sector, so
every (K, n) sector table (a kernel's table and its log, which demod scans)
is _rolled_rows: a read-only view over one doubled copy of its base row,
holding 2n values rather than K*n. Capacity's input-averaged tables are the
same view on one 2*pi/M period: (a, n/M) over 2n/M values, whose rows are
the residues mod a. _log_grid_mean reads the grid size from its tables, so
it averages over that period there.

Every table is a function of the operating point alone, so the config is
the only handle: block_conditional takes it and looks its kernels up through
kernel_bank_for. A kernel holds one table, built on first read, and is keyed
by what that table depends on: K, the SNR, the rotation theta0 (plus the
position's dither) and the grid size, which is the config's _grid_size for
block probabilities and demod's fixed scan grid for its log tables. The
x = 0 slice does not depend on M, so configs that differ only in M share one
kernel. Where a kernel is still passed in, _check_own_kernels rejects any
that is not the config's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig, _check_indices

# A kernel table is filled only up to this many phase grid points, i.e. up to
# rho*L of about 1.9e9 (93 dB at L = 1, 84 dB at L = 8). The table is a view
# of one doubled row (16 MB here), so the limit bounds fill time, not memory:
# the arc sums cost O(n^2/K), and a K = 64 fill at the limit takes about
# 12 s on a 2-vCPU host.
_MAX_GRID = 2**20
# A grid mean below this is near the float64 underflow limit (~2.2e-308), where
# the linear product has lost precision or reached zero; such rows are redone
# in log space.
_UNDERFLOW_FLOOR = 1e-280
# _arc_probabilities splits each grid cell into ceil(width*sqrt(2*rho)) parts
# and refuses more than this many: on demod's 720-point scan grid that is
# about 104 dB, where a fill already costs 2,048*16*720 density evaluations.
# Block-probability grids need one part, since they grow with sqrt(rho*L).
_MAX_ARC_PARTS = 2048
# The 16-node Gauss-Legendre rule on [-1, 1] that integrates every part,
# computed once here: leggauss costs about half a millisecond a call, as much
# as half a scan-table fill.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Cells per block of an arc fill: a (16, cells) evaluation holds about
# _CHUNK_ELEMENTS values (512 KB) per temporary at any grid size.
_ARC_BLOCK = _CHUNK_ELEMENTS // _GAUSS_NODES.size


def _check_snr_linear(snr_linear: float) -> None:
    if not 0 < snr_linear < math.inf:
        raise ValueError(f"snr_linear must be positive and finite (got {snr_linear})")


def _phase_offset_pdf(u, rho: float) -> np.ndarray:
    """The density f(u) of the module docstring at float u and linear SNR
    rho, unchecked: callers pass finite u and a positive finite rho."""
    cu = np.cos(u)
    su = np.sin(u)
    base = math.exp(-rho) / TWO_PI if rho < 700 else 0.0
    amp = np.sqrt(rho / math.pi) * cu * np.exp(-rho * su * su) * ndtr(np.sqrt(2.0 * rho) * cu)
    # The two terms cancel catastrophically in the far tail at high SNR and can
    # leave a tiny negative residue; the true density is positive everywhere.
    return np.maximum(base + amp, 0.0)


def _wrap_pi(t):
    """(t + pi) mod 2*pi - pi, with the same bits as that expression.

    An array whose t + pi lies in [-2*pi, 4*pi) is wrapped without the
    division, as core._quantize does: np.mod adds 2*pi to a negative value,
    the same rounded add as here, and from 2*pi upward it subtracts 2*pi,
    which is exact (Sterbenz). Both shifts are chosen from the unshifted
    values, so a negative value that rounds up to 2*pi stays there, as in
    np.mod. Scalars, and arrays outside that range, take the expression.
    """
    s = t + math.pi
    if np.ndim(s) and s.size and s.min() >= -TWO_PI and s.max() < 2.0 * TWO_PI:
        shift = TWO_PI * (s < 0.0)
        shift -= TWO_PI * (s >= TWO_PI)
        s += shift
        s -= math.pi
        return s
    return s % TWO_PI - math.pi


def sector_offset_probability(t: float, width: float, snr_linear: float) -> float:
    """P(phase offset lands in [t, t + width)), the quadrature primitive.

    The quadrature targets a relative error of 1e-13, so that deep-tail
    sectors keep their relative accuracy too. No run path calls this
    reference, so scipy.integrate (which loads scipy.optimize, sparse and
    linalg) is imported here, on first use.
    """
    from scipy.integrate import quad

    _check_snr_linear(snr_linear)
    if not (math.isfinite(t) and math.isfinite(width)):
        raise ValueError(f"t and width must be finite (got {t}, {width})")
    t = _wrap_pi(t)
    hi = t + width
    interior = [p for p in (0.0, math.pi) if t < p < hi]

    def integrand(u: float) -> float:
        return float(_phase_offset_pdf(_wrap_pi(u), snr_linear))

    val = quad(
        integrand,
        t,
        hi,
        points=interior or None,
        epsabs=1e-300,
        epsrel=1e-13,
        limit=200,
        full_output=1,
    )[0]
    return min(max(val, 0.0), 1.0)


def sector_probability(z: int, x: int, phi: float, config: SystemConfig) -> float:
    """P(Z = z | X = x, phi) for a single symbol, by adaptive quadrature."""
    K, M = config.K, config.M
    z = int(_check_indices(z, "z", None, K, "K"))
    x = int(_check_indices(x, "x", None, M, "M"))
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite (got {phi})")
    clean = config.theta0 + x * (TWO_PI / M) + phi
    return sector_offset_probability(z * (TWO_PI / K) - clean, TWO_PI / K, config.snr_linear)


def _arc_probabilities(start: float, n: int, K: int, snr_linear: float) -> np.ndarray:
    """g(start + m*2*pi/n) for m < n, with g(t) = P(offset in [t, t + 2*pi/K)).

    n is a multiple of K, so an arc is s = n/K cells. Each cell is split into
    parts no wider than the noise scale 1/sqrt(2*rho), each integrated by the
    16-node Gauss-Legendre rule of the module constants; an arc sums its s
    positive cells (never a difference of running sums), so deep-tail arcs
    keep their relative accuracy. Cells are filled in blocks of _ARC_BLOCK:
    for each part, one density call evaluates all 16 nodes of the block, so
    memory stays O(n) however large the grid and however many parts high
    SNR needs. Each cell sums its parts in order and, within a part, its
    nodes in order, so the values do not depend on the block size. Raises
    ValueError beyond _MAX_ARC_PARTS parts per cell.
    """
    delta = TWO_PI / n
    s = n // K
    parts = max(1, math.ceil(delta * math.sqrt(2.0 * snr_linear)))
    if parts > _MAX_ARC_PARTS:
        raise ValueError(
            f"SNR {10.0 * math.log10(snr_linear):g} dB needs {parts} parts per cell of a"
            f" {n}-point arc fill, above the limit of {_MAX_ARC_PARTS}"
        )
    h = delta / parts
    offsets = (0.5 * h * (_GAUSS_NODES + 1.0))[:, None]
    lo = start + delta * np.arange(n)
    cells = np.zeros(n)
    for b in range(0, n, _ARC_BLOCK):
        block = cells[b : b + _ARC_BLOCK]
        for part in range(parts):
            left = lo[b : b + _ARC_BLOCK] + part * h
            pdf = _phase_offset_pdf(_wrap_pi(left + offsets), snr_linear)
            # row by row in node order: a weights @ pdf would reorder the sum
            for w, row in zip(_GAUSS_WEIGHTS, pdf):
                block += w * row
    cells *= 0.5 * h
    return sliding_window_view(np.concatenate([cells, cells[: s - 1]]), s).sum(axis=1)


def _rolled_rows(base: np.ndarray, K: int) -> np.ndarray:
    """Read-only (K, n) table whose row z is np.roll(base, z*n/K), n = base.size.

    Row z starts z*n/K elements before row 0 in one doubled copy of base, so
    the table holds 2n values whatever K is; reading it gives the same bits
    as gathering base at the rolled indices.
    """
    n = base.size
    return sliding_window_view(np.concatenate([base, base]), n)[n:0:-(n // K)]


def _is_rolled(table: np.ndarray) -> bool:
    """Whether table is a _rolled_rows view (row stride of -n/K elements)."""
    K, n = table.shape
    return table.strides == (-(n // K) * table.itemsize, table.itemsize)


def _log_table(table: np.ndarray) -> np.ndarray:
    """np.log(table); a _rolled_rows table comes back as _rolled_rows of the
    log of its row 0, which has the same bits since the log is elementwise."""
    if _is_rolled(table):
        return _rolled_rows(np.log(table[0]), table.shape[0])
    return np.log(table)


def _grid_size(config: SystemConfig) -> int:
    """Phase grid points for the config's blocks: K*ceil((24*sqrt(rho*L) + 64)/K)."""
    K = config.K
    return K * math.ceil((24.0 * math.sqrt(config.snr_linear * config.L) + 64.0) / K)


@dataclass(eq=False)
class TransitionKernel:
    """P(z | x = 0, phi_i) on the uniform grid phi_i = i*2*pi/n_phi.

    The fields are all the table depends on, so they key the kernel cache:
    configs that differ only in M share one kernel. n_phi is the _grid_size
    of the config for block probabilities and demod's scan grid for its
    scan tables. The (K, n_phi) table is built on first use; every table row
    is a cyclic relabeling of one set of arc probabilities g(t) sampled
    uniformly in t, which makes the sector-shift symmetry hold exactly on
    the grid, and the table is a read-only _rolled_rows view of that one row.
    """

    snr_db: float
    K: int
    theta0: float
    n_phi: int

    @property
    def phi_grid(self) -> np.ndarray:
        return np.arange(self.n_phi) * (TWO_PI / self.n_phi)

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only (K, n_phi) table of the arc probabilities
        g(m*2*pi/n_phi - theta0): cell (z, i) is g at m = (z*n_phi/K - i) mod
        n_phi, so row z is row 0 rolled by z*n_phi/K. Raises ValueError
        beyond _MAX_GRID points.
        """
        n, K = self.n_phi, self.K
        if n > _MAX_GRID:
            raise ValueError(
                f"SNR {self.snr_db:g} dB needs a {n}-point phase grid for this block"
                f" length, above the {_MAX_GRID}-point limit of block probabilities"
            )
        rho = 10.0 ** (self.snr_db / 10.0)
        g = _arc_probabilities(-self.theta0, n, K, rho)
        return _rolled_rows(np.roll(g[::-1], 1), K)


@lru_cache(maxsize=128)
def _kernel_cached(K: int, snr_db: float, theta0: float, n_phi: int) -> TransitionKernel:
    return TransitionKernel(snr_db=snr_db, K=K, theta0=theta0, n_phi=n_phi)


def kernel_for(config: SystemConfig) -> TransitionKernel:
    """The shared kernel of an undithered config, on the config's phase grid.

    A kernel is keyed by (K, SNR, theta0, grid), so configs that differ only
    in M share it. The grid depends on K, the SNR and the block length L
    (_grid_size), so configs that differ only in L may get different kernels.
    """
    if config.is_dithered:
        raise ValueError(
            "dithered config has no single shared kernel; use kernel_bank_for"
        )
    return _kernel_cached(config.K, config.snr_db, config.theta0, _grid_size(config))


def kernel_bank_for(config: SystemConfig) -> tuple[TransitionKernel, ...]:
    """One kernel per block position; position l bakes its dither into theta0.

    Undithered, theta0 + 0.0 == theta0, so every position gets kernel_for's
    kernel. Looking a bank up fills no table.
    """
    n = _grid_size(config)
    return tuple(
        _kernel_cached(config.K, config.snr_db, config.theta0 + d, n)
        for d in config.dither
    )


def _check_own_kernels(config: SystemConfig, kernels) -> None:
    """ValueError unless kernels[l] is kernel_bank_for(config)[l] in value.

    Each position's (K, snr_db, theta0 + dither_l, n_phi) must be the
    config's, so a kernel from another operating point or phase grid cannot
    score this one; M is not compared, since the table does not depend on
    it. The comparison is by value, not identity, because the kernel cache
    can evict and rebuild a bank's kernels.
    """
    n = _grid_size(config)
    want = [(config.K, config.snr_db, config.theta0 + d, n) for d in config.dither]
    got = [(k.K, k.snr_db, k.theta0, k.n_phi) for k in kernels]
    if got != want:
        raise ValueError("kernels are not the config's own; look them up with kernel_bank_for")


def block_conditional(z, x, config: SystemConfig) -> float:
    """P(z | x) for one block of the config: phase-average of the per-symbol
    product, under the config's dither if it has one.

    z holds L sector indices in 0..K-1 and x L inputs in 0..M-1.
    """
    z = _check_indices(z, "z", config.L, config.K, "K")
    x = _check_indices(x, "x", config.L, config.M, "M")
    S = (z - config.a * x) % config.K
    tables = [k.table for k in kernel_bank_for(config)]
    return float(np.exp(_log_grid_mean(tables, S[None, :])[0]))


def block_conditional_batch(Z: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
    """P(z | 0) for many undithered blocks at once; Z is (n, L).

    The input is the all-zero block; P(z | x) is P((z - a*x) mod K | 0).
    """
    S = np.asarray(Z, dtype=np.int64) % kernel.K
    return np.exp(_log_grid_mean([kernel.table] * S.shape[1], S))


def _log_grid_mean(tables, S: np.ndarray) -> np.ndarray:
    """log of the phase-grid mean of prod_l tables[l][S[:, l]], one per row.

    tables holds one table per block position, all with n_phi grid columns
    (the grid, or one period of it), and S is (n, L) row indices into them.
    Rows are multiplied linearly in blocks of _CHUNK_ELEMENTS // n_phi rows
    (at least one), so that the (rows, n_phi) accumulator and the table rows
    gathered into it stay in L2 cache. The
    rows of a block whose mean lands below _UNDERFLOW_FLOOR are redone in the
    same block as a log-sum-exp, from the log of each distinct table (built
    the first time a row needs it), so long blocks keep a finite log instead
    of log(0) = -inf. When the tables' peaks multiply to below the floor (by
    a margin of 1 for rounding), no row can pass the linear test, so every
    row goes straight to log space. Every row is reduced on its own, so the
    output is bitwise the same for any block size and either path.
    """
    S = np.asarray(S, dtype=np.int64)
    n, L = S.shape
    chunk = max(1, _CHUNK_ELEMENTS // tables[0].shape[1])
    out = np.empty(n)
    # reduce each distinct table once; a rolled table's rows all hold row 0's values
    distinct = {id(t): t for t in tables}
    log_tables = None
    with np.errstate(divide="ignore"):
        log_peaks = {k: np.log((t[0] if _is_rolled(t) else t).max()) for k, t in distinct.items()}
        all_deep = sum(log_peaks[id(t)] for t in tables) < math.log(_UNDERFLOW_FLOOR) - 1.0
        for lo in range(0, n, chunk):
            rows = S[lo : lo + chunk]
            deep = slice(None)
            if not all_deep:
                acc = tables[0][rows[:, 0]]
                for l in range(1, L):
                    acc *= tables[l][rows[:, l]]
                mean = acc.mean(axis=1)
                out[lo : lo + chunk] = np.log(mean)
                deep = np.flatnonzero(mean < _UNDERFLOW_FLOOR)
                if not deep.size:
                    continue
                rows = rows[deep]
            if log_tables is None:
                log_tables = {key: _log_table(t) for key, t in distinct.items()}
            logs = log_tables[id(tables[0])][rows[:, 0]]
            for l in range(1, L):
                logs += log_tables[id(tables[l])][rows[:, l]]
            peak = logs.max(axis=1)
            # an all-zero row keeps log 0 = -inf instead of -inf - -inf
            peak[np.isneginf(peak)] = 0.0
            out[lo : lo + chunk][deep] = peak + np.log(np.exp(logs - peak[:, None]).mean(axis=1))
    return out
