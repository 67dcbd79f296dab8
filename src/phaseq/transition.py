"""Scalar and block sector-transition probabilities.

Conditioned on the block phase offset phi, each received sample is a unit
vector at a known phase plus circular complex Gaussian noise, so the density
of the received phase minus the clean phase has the classical closed form

    f(u) = e^{-rho}/(2*pi)
         + sqrt(rho/pi) * cos(u) * e^{-rho*sin^2(u)} * Phi(sqrt(2*rho)*cos(u))

with rho the linear SNR and Phi the standard normal CDF. A sector probability
is f integrated over an arc of width 2*pi/K: by adaptive quadrature in the
reference sector_probability, and for whole grids (the kernel tables here,
demod's scan tables) by _arc_probabilities, Gauss-Legendre rules per grid
cell with each arc summing the cells it spans.
Block probabilities average the per-symbol product over phi on a uniform grid
(composite midpoint rule; the integrand is smooth and periodic, so the rule
converges spectrally). The grid size is worked out from (K, SNR, L) by
_grid_size, not chosen: the L-fold product of per-symbol phase laws is about
1/sqrt(2*rho*L) wide, so its Fourier coefficients fall below 1e-12 of the
mean near 10.5*sqrt(rho*L); 24*sqrt(rho*L) + 64 points leave about 2x margin
above that and cover low SNR, and rounding up to a multiple of K keeps the
sector-shift symmetries exact rolls. Against a grid 8x finer, log P(z | x)
and log P(z) of channel-sampled blocks agree within 1e-13 from -10 to 40 dB
and up to L = 200. One routine, _log_grid_mean, forms every such
product: it multiplies linearly and falls back to log space for the blocks
whose linear product underflows, so long blocks keep finite
log-probabilities. It works through its rows in blocks of about
core._CHUNK_ELEMENTS grid values (512 KB), so that the accumulator and the
table rows gathered into it stay in L2 cache and below the allocator's mmap
threshold; each row's arithmetic is the same however rows are grouped, so
the results do not depend on the block size.

Only the x = 0 slice of the scalar transition law is ever tabulated: shifting
the input by one constellation step shifts the output law by a = K/M sectors,
so any (z, x) probability is the stored row (z - a*x) mod K.

Every table is a function of the operating point alone (M, K, SNR, theta0,
dither and, through the grid, L), so the config is the only handle:
block_conditional takes it and looks its kernels up through kernel_bank_for.
A kernel holds one table, its block-probability table, filled on first read;
demod's scan tables are keyed by the config and never touch a kernel. Where a
kernel is still passed in, _check_own_kernels rejects any that is not the
config's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.special import ndtr

from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig, _check_indices

DEFAULT_TOL = 1e-12
# A kernel table is filled only up to this many phase grid points, i.e. up to
# rho*L of about 1.9e9 (93 dB at L = 1, 84 dB at L = 8); beyond it a K = 64
# table would pass half a gigabyte.
_MAX_GRID = 2**20
# A grid mean below this is near the float64 underflow limit (~2.2e-308), where
# the linear product has lost precision or reached zero; such rows are redone
# in log space.
_UNDERFLOW_FLOOR = 1e-280


def phase_offset_pdf(u, snr_linear: float) -> np.ndarray:
    """Density of (received phase - clean phase), wrapped to [-pi, pi)."""
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    u = np.asarray(u, dtype=float)
    rho = snr_linear
    cu = np.cos(u)
    su = np.sin(u)
    base = math.exp(-rho) / TWO_PI if rho < 700 else 0.0
    amp = np.sqrt(rho / math.pi) * cu * np.exp(-rho * su * su) * ndtr(np.sqrt(2.0 * rho) * cu)
    # The two terms cancel catastrophically in the far tail at high SNR and can
    # leave a tiny negative residue; the true density is positive everywhere.
    return np.maximum(base + amp, 0.0)


def _wrap_pi(t):
    return (t + math.pi) % TWO_PI - math.pi


def sector_offset_probability(
    t: float, width: float, snr_linear: float, tol: float = DEFAULT_TOL
) -> float:
    """P(phase offset lands in [t, t + width)), the quadrature primitive.

    Driven by a relative target of tol/10 so that even deep-tail sectors keep
    relative accuracy; that is stricter than an absolute tol for any p <= 1.
    """
    t = _wrap_pi(t)
    hi = t + width
    interior = [p for p in (0.0, math.pi) if t < p < hi]

    def integrand(u: float) -> float:
        return float(phase_offset_pdf(_wrap_pi(u), snr_linear))

    val = quad(
        integrand,
        t,
        hi,
        points=interior or None,
        epsabs=1e-300,
        epsrel=max(tol * 0.1, 1e-13),
        limit=200,
        full_output=1,
    )[0]
    return min(max(val, 0.0), 1.0)


def sector_probability(z: int, x: int, phi: float, config: SystemConfig) -> float:
    """P(Z = z | X = x, phi) for a single symbol, by adaptive quadrature."""
    K, M = config.K, config.M
    if not 0 <= z < K:
        raise ValueError(f"z must lie in 0..{K - 1}")
    if not 0 <= x < M:
        raise ValueError(f"x must lie in 0..{M - 1}")
    clean = config.theta0 + x * (TWO_PI / M) + phi
    return sector_offset_probability(z * (TWO_PI / K) - clean, TWO_PI / K, config.snr_linear)


def _arc_probabilities(start: float, n: int, K: int, snr_linear: float) -> np.ndarray:
    """g(start + m*2*pi/n) for m < n, with g(t) = P(offset in [t, t + 2*pi/K)).

    n is a multiple of K, so an arc is s = n/K cells. Each cell is split into
    parts no wider than the noise scale 1/sqrt(2*rho), each integrated by a
    16-node Gauss-Legendre rule; an arc sums its s positive cells (never a
    difference of running sums), so deep-tail arcs keep their relative
    accuracy.
    """
    delta = TWO_PI / n
    s = n // K
    parts = max(1, math.ceil(delta * math.sqrt(2.0 * snr_linear)))
    h = delta / parts
    lo = start + delta * np.arange(n)
    cells = np.zeros(n)
    # one node at a time keeps memory O(n) however many parts high SNR needs
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for part in range(parts):
        left = lo + part * h
        for x, w in zip(nodes, weights):
            cells += w * phase_offset_pdf(_wrap_pi(left + 0.5 * h * (x + 1.0)), snr_linear)
    cells *= 0.5 * h
    return sliding_window_view(np.concatenate([cells, cells[: s - 1]]), s).sum(axis=1)


def _grid_size(config: SystemConfig) -> int:
    """Phase grid points for the config's blocks: K*ceil((24*sqrt(rho*L) + 64)/K)."""
    K = config.K
    return K * math.ceil((24.0 * math.sqrt(config.snr_linear * config.L) + 64.0) / K)


@dataclass(eq=False)
class TransitionKernel:
    """P(z | x = 0, phi_i) on a uniform midpoint phi grid of n_phi points.

    n_phi is the _grid_size of the config the kernel was looked up for. The
    (K, n_phi) table is filled on first use; every table row is a cyclic
    relabeling of one set of arc probabilities g(t) sampled uniformly in t,
    which makes the sector-shift symmetry hold exactly on the grid. The
    demodulator never reads the table: demod fills its own scan tables.
    """

    snr_db: float
    M: int
    K: int
    a: int
    theta0: float
    n_phi: int

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def phi_grid(self) -> np.ndarray:
        return (np.arange(self.n_phi) + 0.5) * (TWO_PI / self.n_phi)

    @cached_property
    def table(self) -> np.ndarray:
        """(K, n_phi) table, from the n_phi arc probabilities
        g((m + 1/2)*2*pi/n_phi - theta0) by index shifts, since every cell is
        g at a grid offset. Raises ValueError beyond _MAX_GRID points.
        """
        n, K = self.n_phi, self.K
        if n > _MAX_GRID:
            raise ValueError(
                f"SNR {self.snr_db:g} dB needs a {n}-point phase grid for this block"
                f" length, above the {_MAX_GRID}-point limit of block probabilities"
            )
        g = _arc_probabilities(0.5 * (TWO_PI / n) - self.theta0, n, K, self.snr_linear)
        idx = (n // K * np.arange(K)[:, None] - np.arange(n)[None, :] - 1) % n
        return g[idx]


@lru_cache(maxsize=128)
def _kernel_cached(M: int, K: int, snr_db: float, theta0: float, n_phi: int) -> TransitionKernel:
    return TransitionKernel(snr_db=snr_db, M=M, K=K, a=K // M, theta0=theta0, n_phi=n_phi)


def kernel_for(config: SystemConfig) -> TransitionKernel:
    """The shared kernel of an undithered config, on the config's phase grid.

    The grid depends on K, the SNR and the block length L (_grid_size), so
    configs that differ only in L may get different kernels.
    """
    if config.is_dithered:
        raise ValueError(
            "dithered config has no single shared kernel; use kernel_bank_for"
        )
    return _kernel_cached(config.M, config.K, config.snr_db, config.theta0, _grid_size(config))


def kernel_bank_for(config: SystemConfig) -> tuple[TransitionKernel, ...]:
    """One kernel per block position; position l bakes its dither into theta0.

    Undithered, theta0 + 0.0 == theta0, so every position gets kernel_for's
    kernel.
    """
    n = _grid_size(config)
    return tuple(
        _kernel_cached(config.M, config.K, config.snr_db, config.theta0 + d, n)
        for d in config.dither
    )


def _check_own_kernels(config: SystemConfig, kernels) -> None:
    """ValueError unless kernels[l] is kernel_bank_for(config)[l] in value.

    Each position's (M, K, snr_db, theta0 + dither_l, n_phi) must be the
    config's, so a kernel from another operating point or phase grid cannot
    score this one. The comparison is by value, not identity, because the
    kernel cache can evict and rebuild a bank's kernels.
    """
    n = _grid_size(config)
    want = [(config.M, config.K, config.snr_db, config.theta0 + d, n) for d in config.dither]
    got = [(k.M, k.K, k.snr_db, k.theta0, k.n_phi) for k in kernels]
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


def block_conditional_batch(
    Z: np.ndarray,
    kernel: TransitionKernel,
    x: np.ndarray | None = None,
) -> np.ndarray:
    """P(z | x) for many undithered blocks at once; Z is (n, L).

    x defaults to the all-zero input.
    """
    Z = np.asarray(Z, dtype=np.int64)
    if x is None:
        S = Z % kernel.K
    else:
        x = np.asarray(x, dtype=np.int64)
        S = (Z - kernel.a * x[None, :]) % kernel.K
    return np.exp(_log_grid_mean([kernel.table] * S.shape[1], S))


def _log_grid_mean(tables, S: np.ndarray) -> np.ndarray:
    """log of the phase-grid mean of prod_l tables[l][S[:, l]], one per row.

    tables holds one (K, n_phi) table per block position and S is (n, L)
    sector indices into them. Rows are multiplied linearly in blocks of
    _CHUNK_ELEMENTS // n_phi rows (at least one), so that the (rows, n_phi)
    accumulator and the table rows gathered into it stay in L2 cache; a row
    whose mean lands below _UNDERFLOW_FLOOR is recomputed as a log-sum-exp
    in blocks of the same size, so long blocks keep a finite log instead of
    log(0) = -inf. A row whose bound sum_l log max_i tables[l][S[:, l], i]
    is already below the floor (by a margin of 1 for rounding) skips the
    linear pass. Every row is reduced on its own, so the output is bitwise
    the same for any block size.
    """
    S = np.asarray(S, dtype=np.int64)
    n, L = S.shape
    chunk = max(1, _CHUNK_ELEMENTS // tables[0].shape[1])
    out = np.empty(n)
    # positions usually share one table object: reduce each one once
    distinct = {id(t): t for t in tables}
    with np.errstate(divide="ignore"):
        log_peaks = {key: np.log(t.max(axis=1)) for key, t in distinct.items()}
    bound = np.zeros(n)
    for l, t in enumerate(tables):
        bound += log_peaks[id(t)][S[:, l]]
    deep = bound < math.log(_UNDERFLOW_FLOOR) - 1.0
    linear = np.flatnonzero(~deep)
    for lo in range(0, linear.size, chunk):
        idx = linear[lo : lo + chunk]
        rows = S[idx]
        acc = tables[0][rows[:, 0]]
        for l in range(1, L):
            acc *= tables[l][rows[:, l]]
        mean = acc.mean(axis=1)
        with np.errstate(divide="ignore"):
            out[idx] = np.log(mean)
        deep[idx[mean < _UNDERFLOW_FLOOR]] = True
    deep_rows = np.flatnonzero(deep)
    if deep_rows.size:
        with np.errstate(divide="ignore"):
            log_tables = {key: np.log(t) for key, t in distinct.items()}
        for lo in range(0, deep_rows.size, chunk):
            idx = deep_rows[lo : lo + chunk]
            rows = S[idx]
            logs = log_tables[id(tables[0])][rows[:, 0]]
            for l in range(1, L):
                logs += log_tables[id(tables[l])][rows[:, l]]
            peak = logs.max(axis=1)
            # an all-zero row keeps log 0 = -inf instead of -inf - -inf
            peak[np.isneginf(peak)] = 0.0
            with np.errstate(divide="ignore"):
                out[idx] = peak + np.log(np.exp(logs - peak[:, None]).mean(axis=1))
    return out


# ---- CSV round trip -----------------------------------------------------


def export_kernel_csv(kernel: TransitionKernel, path) -> None:
    """Write the kernel table as phi_index,z,probability rows."""
    with open(path, "w") as fh:
        fh.write("phi_index,z,probability\n")
        for i in range(kernel.n_phi):
            for z in range(kernel.K):
                fh.write(f"{i},{z},{float(kernel.table[z, i])!r}\n")


def load_kernel_csv(path) -> np.ndarray:
    """Read a table written by export_kernel_csv back into a (K, n_phi) array."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "phi_index,z,probability":
            raise ValueError(f"unexpected kernel CSV header: {header!r}")
        for line in fh:
            i, z, p = line.strip().split(",")
            rows.append((int(i), int(z), float(p)))
    if not rows:
        raise ValueError("kernel CSV has no data rows")
    n_phi = max(r[0] for r in rows) + 1
    K = max(r[1] for r in rows) + 1
    table = np.full((K, n_phi), np.nan)
    for i, z, p in rows:
        table[z, i] = p
    if np.isnan(table).any():
        raise ValueError("kernel CSV is missing cells")
    return table
