"""Scalar and block sector-transition probabilities.

Conditioned on the block phase offset phi, each received sample is a unit
vector at a known phase plus circular complex Gaussian noise, so the density
of the received phase minus the clean phase has the classical closed form

    f(u) = e^{-rho}/(2*pi)
         + sqrt(rho/pi) * cos(u) * e^{-rho*sin^2(u)} * Phi(sqrt(2*rho)*cos(u))

with rho the linear SNR and Phi the standard normal CDF. _phase_offset_pdf
evaluates f from cos(u) and sin(u) without checking its arguments: its
callers pass a config's SNR, already checked, or check the SNR themselves.
Phi is _ndtr, the Cephes ndtr rationals in NumPy (erf below |x| = sqrt(2),
erfc above), so no run path imports SciPy. Above |x| = sqrt(2), Phi carries
a factor exp(-x^2/2), and e^{-rho*sin^2(u)}*e^{-x^2/2} = e^{-rho}: the
density takes that product in closed form, with no exponential of its own.
A sector probability is f integrated over an arc of width 2*pi/K: by
adaptive quadrature in the reference sector_probability (in scalar
arithmetic, Phi by the C library's erfc, so that it checks _ndtr too), and
for a whole grid (a kernel's table, the one fill of the package) by
_arc_probabilities, one 16-node Gauss-Legendre rule (computed once, at
import) per part of each grid cell, with each arc summing the cells it
spans by doubling (_arc_sums). A fill takes cos and sin of each cell's
left edge once, and gets each node's by angle addition with 16 constant
offsets; it evaluates all 16 nodes of a block of cells in one density
call, in blocks of _CHUNK_ELEMENTS // 16 cells, in buffers that the
calling thread keeps (core._thread_workspace), so its temporaries stay at
512 KB whatever the grid size and a later fill faults in no fresh pages.
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
so that the accumulator and the table rows gathered into it stay in L2 cache;
both are planes the calling thread keeps, so repeated products fault in no
fresh pages. Each block is multiplied linearly,
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
holding 2n values rather than K*n. A table that folds the input away, a mean
(capacity's input averages) or a max (demod's envelopes) over m of rows
z - a*m, repeats every 2*pi/M and depends on z mod a alone: _fold_inputs
makes it the same view on one period, (a, n/M) over 2n/M values, which
_log_grid_mean averages over.

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

from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig, _check_indices, _thread_workspace

# A kernel table is filled only up to this many phase grid points, i.e. up to
# rho*L of about 1.9e9 (93 dB at L = 1, 84 dB at L = 8). The table is a view
# of one doubled row (16 MB here), so the limit bounds fill time, not memory:
# a K = 64 fill at the limit takes about 0.6 s on a 2-vCPU host.
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
# The Cephes ndtr rationals (S. L. Moshier, after W. J. Cody, Math. Comp.
# 1969), highest degree first; the monic denominators list their leading 1.0.
# erf(w) = w*T(w^2)/U(w^2) for |w| < 1, and erfc(z) = exp(-z^2)*P(z)/Q(z)
# for 1 <= z < 8 and exp(-z^2)*R(z)/S(z) from 8 on.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# Beyond this z, S(z) would overflow; exp(-z^2) underflowed long before, so
# the tail rational is taken at this z instead.
_ERFC_Z_CAP = 1e30


def _check_snr_linear(snr_linear: float) -> None:
    if not 0 < snr_linear < math.inf:
        raise ValueError(f"snr_linear must be positive and finite (got {snr_linear})")


def _polevl(x: np.ndarray, coefs: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """Horner's rule into out, as Cephes polevl: coefs highest degree first.
    A leading 1.0 multiplies exactly, so a monic polynomial also matches
    Cephes p1evl bit for bit."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _ndtr(x: np.ndarray, work) -> np.ndarray:
    """Phi(x) = a - b*exp(-z*z)/2, z = |x|*sqrt(1/2), by the Cephes ndtr rationals.

    x is a C-contiguous float array; it is overwritten with a, and b is
    returned in work's buffer "ndtr_b". Below z = 1, a = 0.5 + 0.5*erf(w)
    for w = x*sqrt(1/2) and b = 0. From z = 1 on, erfc(z) = exp(-z*z)*r(z)
    with r = P/Q below z = 8 and R/S above, so a = 0, b = -r for x < 0 and
    a = 1, b = r for x > 0. Leaving exp(-z*z) to the caller lets one that
    knows its product with another factor in closed form skip it. Each
    element takes the same arithmetic whatever the array's size.
    """
    xf = x.reshape(-1)
    b = work.buffer("ndtr_b", xf.shape)
    g1, g2 = work.buffer("ndtr_g1", xf.shape), work.buffer("ndtr_g2", xf.shape)
    center, far, near = (work.buffer(f"ndtr_{m}", xf.shape, np.bool_) for m in ("c", "f", "n"))
    z = np.abs(np.multiply(xf, math.sqrt(0.5), out=b), out=b)
    np.less(z, 1.0, out=center)
    np.greater_equal(z, 8.0, out=far)
    np.logical_not(np.logical_or(center, far, out=near), out=near)
    xc = xf[center]
    for piece, num, den in ((near, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        k = np.count_nonzero(piece)
        if not k:
            continue
        zt = z[piece]
        if piece is far:
            np.minimum(zt, _ERFC_Z_CAP, out=zt)
        r = _polevl(zt, num, g1[:k])
        r /= _polevl(zt, den, g2[:k])
        b[piece] = r
    # b takes x's sign, and a is 1 on the right tail and 0 on the left; the
    # center is set below
    np.copysign(b, xf, out=b)
    np.greater(xf, 0.0, out=xf)
    k = xc.size
    if k:
        w = np.multiply(xc, math.sqrt(0.5), out=xc)
        w2 = w * w
        erf = _polevl(w2, _ERF_T, g1[:k])
        erf *= w
        erf /= _polevl(w2, _ERF_U, g2[:k])
        erf *= 0.5
        erf += 0.5
        xf[center] = erf
        b[center] = 0.0
    return b


def _phase_offset_pdf(cu: np.ndarray, su: np.ndarray, rho: float, work) -> np.ndarray:
    """The density f of the module docstring at the angles u whose cosines
    are cu and sines su, at linear SNR rho, unchecked: C-contiguous float
    arrays of one shape, and a positive finite rho.

    f is written into cu, which is returned; su and work's buffers "pdf_x"
    and those of _ndtr are overwritten. With x = sqrt(2*rho)*cos(u),
    Phi(x) = a - b*exp(-x^2/2)/2 (_ndtr), and exp(-rho*sin^2(u))*exp(-x^2/2)
    is exp(-rho), so the tails of Phi need no exponential of their own.
    """
    e = np.multiply(su, su, out=su)
    e *= -rho
    np.exp(e, out=e)
    x = np.multiply(cu, math.sqrt(2.0 * rho), out=work.buffer("pdf_x", cu.shape))
    b = _ndtr(x, work).reshape(cu.shape)
    # e*Phi(x) = e*a - exp(-rho)*b/2, in x's buffer
    x *= e
    b *= 0.5 * math.exp(-rho)
    x -= b
    x *= cu
    x *= math.sqrt(rho / math.pi)
    x += math.exp(-rho) / TWO_PI if rho < 700 else 0.0
    # The two terms cancel catastrophically in the far tail at high SNR and can
    # leave a tiny negative residue; the true density is positive everywhere.
    return np.maximum(x, 0.0, out=cu)


def sector_offset_probability(t: float, width: float, snr_linear: float) -> float:
    """P(phase offset lands in [t, t + width)), the quadrature primitive.

    The quadrature targets a relative error of 1e-13, so that deep-tail
    sectors keep their relative accuracy too. No run path calls this
    reference, so scipy.integrate (which loads scipy.optimize, sparse and
    linalg) is imported here, on first use. Its integrand is f in scalar
    arithmetic with Phi from math.erfc, independent of _ndtr.
    """
    from scipy.integrate import quad

    _check_snr_linear(snr_linear)
    if not (math.isfinite(t) and math.isfinite(width)):
        raise ValueError(f"t and width must be finite (got {t}, {width})")
    t = (t + math.pi) % TWO_PI - math.pi
    hi = t + width
    interior = [p for p in (0.0, math.pi) if t < p < hi]
    rho = snr_linear
    base = math.exp(-rho) / TWO_PI if rho < 700 else 0.0

    def integrand(u: float) -> float:
        # the density f in scalar arithmetic, Phi(x) by the C library's erfc
        cu, su = math.cos(u), math.sin(u)
        x = math.sqrt(2.0 * rho) * cu
        phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
        return max(base + math.sqrt(rho / math.pi) * cu * math.exp(-rho * su * su) * phi, 0.0)

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
    positive cells (_arc_sums, never a difference of running sums), so
    deep-tail arcs keep their relative accuracy. The cosine and sine of each
    node come by angle addition from those of its cell's left edge, taken
    once per fill, and of its offset from that edge, 16 constants per part.
    Cells are filled in blocks of _ARC_BLOCK: for each part, one density call
    evaluates all 16 nodes of the block, in the calling thread's workspace,
    so memory stays O(n) however large the grid and however many parts high
    SNR needs. Each cell sums its parts in order and, within a part, its
    nodes in order, so the values do not depend on the block size. Raises
    ValueError beyond _MAX_ARC_PARTS parts per cell.
    """
    delta = TWO_PI / n
    parts = max(1, math.ceil(delta * math.sqrt(2.0 * snr_linear)))
    if parts > _MAX_ARC_PARTS:
        raise ValueError(
            f"SNR {10.0 * math.log10(snr_linear):g} dB needs {parts} parts per cell of a"
            f" {n}-point arc fill, above the limit of {_MAX_ARC_PARTS}"
        )
    h = delta / parts
    lo = start + delta * np.arange(n)
    cos_lo, sin_lo = np.cos(lo), np.sin(lo)
    work = _thread_workspace()
    cells = np.zeros(n)
    for b in range(0, n, _ARC_BLOCK):
        block = cells[b : b + _ARC_BLOCK]
        cl, sl = cos_lo[b : b + _ARC_BLOCK], sin_lo[b : b + _ARC_BLOCK]
        shape = (_GAUSS_NODES.size, block.size)
        for part in range(parts):
            offsets = part * h + 0.5 * h * (_GAUSS_NODES + 1.0)
            co, so = np.cos(offsets)[:, None], np.sin(offsets)[:, None]
            cu = np.multiply(co, cl, out=work.buffer("arc_cos", shape))
            su = np.multiply(co, sl, out=work.buffer("arc_sin", shape))
            # scratch that the density call overwrites
            tmp = np.multiply(so, sl, out=work.buffer("pdf_x", shape))
            cu -= tmp
            su += np.multiply(so, cl, out=tmp)
            pdf = _phase_offset_pdf(cu, su, snr_linear, work)
            pdf *= _GAUSS_WEIGHTS[:, None]
            # row by row in node order: a weights @ pdf would reorder the sum
            for row in pdf:
                block += row
    cells *= 0.5 * h
    return _arc_sums(cells, n // K)


def _arc_sums(cells: np.ndarray, s: int) -> np.ndarray:
    """sum(cells[m : m + s]) for each m < n = cells.size, cyclically.

    Each window is a sum of the power-of-two blocks of cells that make up s
    (its set bits, lowest first), and a block of 2w cells is the sum of two
    of w, so the sums take O(n log s) additions of positive terms: no
    differencing, and no O(n*s) sliding sum.
    """
    n = cells.size
    blocks = np.concatenate([cells, cells[: s - 1]])
    out, used, width = None, 0, 1
    while True:
        if s & width:
            window = blocks[used : used + n]
            out = window.copy() if out is None else np.add(out, window, out=out)
            used += width
        if 2 * width > s:
            return out
        blocks = blocks[:-width] + blocks[width:]
        width *= 2


def _rolled_rows(base: np.ndarray, K: int) -> np.ndarray:
    """Read-only (K, n) table whose row z is np.roll(base, z*n/K), n = base.size.

    Row z starts z*n/K elements before row 0 in one doubled copy of base, so
    the table holds 2n values whatever K is; reading it gives the same bits
    as gathering base at the rolled indices.
    """
    n = base.size
    return sliding_window_view(np.concatenate([base, base]), n)[n:0:-(n // K)]


def _fold_inputs(table: np.ndarray, M: int, reduce) -> np.ndarray:
    """reduce over m of table[(z - a*m) mod K], a = K/M, for a _rolled_rows table.

    Row z - a*m is row z rolled by m*n/M, so the fold repeats every n/M grid
    points (a mean up to summation order) and its row z is row z mod a: the
    (a, n/M) _rolled_rows view of reduce over axis 0 of row 0 as (M, n/M).
    """
    K, n = table.shape
    return _rolled_rows(reduce(table[0].reshape(M, n // M), axis=0), K // M)


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


def _readable(tables: dict) -> dict:
    """Distinct tables (by id) as np.take reads them fastest. np.take reads
    a C-contiguous table in place but copies any other (a _rolled_rows
    view) whole on every call, so all of them are copied C-contiguous once
    when together they hold at most _CHUNK_ELEMENTS values; larger sets
    (one table per position of a long dithered block) stay views."""
    if sum(t.size for t in tables.values()) > _CHUNK_ELEMENTS:
        return tables
    return {k: np.ascontiguousarray(t) for k, t in tables.items()}


def _log_grid_mean(tables, S: np.ndarray) -> np.ndarray:
    """log of the phase-grid mean of prod_l tables[l][S[:, l]], one per row.

    tables holds one table per block position, all with n_phi grid columns
    (the grid, or one period of it), and S is (n, L) row indices into them,
    each in range (np.take gathers them with mode="clip"). Rows are
    multiplied linearly in blocks of _CHUNK_ELEMENTS // n_phi rows (at
    least one), so that the (rows, n_phi) accumulator and the table rows
    gathered into it stay in L2 cache. Both are planes the calling thread
    keeps (core._thread_workspace), as demod._segment_maxima keeps its scan:
    a fresh 512 KB block per position and block would be mapped, or trimmed
    off the heap, and faulted in again each time. Small tables are gathered
    from C-contiguous copies (_readable). The
    rows of a block whose mean lands below _UNDERFLOW_FLOOR are redone in the
    same block and planes as a log-sum-exp, from the log of each distinct
    table (built the first time a row needs it), so long blocks keep a
    finite log instead of log(0) = -inf. When the tables' peaks multiply to
    below the floor (by a margin of 1 for rounding), no row can pass the
    linear test, so every row goes straight to log space. Every row is
    reduced on its own, so the output is bitwise the same for any block
    size and either path.
    """
    S = np.asarray(S, dtype=np.int64)
    n, L = S.shape
    n_phi = tables[0].shape[1]
    chunk = max(1, _CHUNK_ELEMENTS // n_phi)
    out = np.empty(n)
    work = _thread_workspace()
    # reduce each distinct table once; a rolled table's rows all hold row 0's values
    distinct = {id(t): t for t in tables}
    log_tables = None
    with np.errstate(divide="ignore"):
        log_peaks = {k: np.log((t[0] if _is_rolled(t) else t).max()) for k, t in distinct.items()}
        all_deep = sum(log_peaks[id(t)] for t in tables) < math.log(_UNDERFLOW_FLOOR) - 1.0
        linear = None if all_deep else _readable(distinct)
        for lo in range(0, n, chunk):
            rows = S[lo : lo + chunk]
            acc = work.buffer("grid_acc", (len(rows), n_phi))
            term = work.buffer("grid_term", (len(rows), n_phi))
            deep = slice(None)
            if not all_deep:
                np.take(linear[id(tables[0])], rows[:, 0], axis=0, out=acc, mode="clip")
                for l in range(1, L):
                    acc *= np.take(linear[id(tables[l])], rows[:, l], axis=0, out=term, mode="clip")
                mean = acc.mean(axis=1)
                out[lo : lo + chunk] = np.log(mean)
                deep = np.flatnonzero(mean < _UNDERFLOW_FLOOR)
                if not deep.size:
                    continue
                rows = rows[deep]
                acc, term = acc[: len(rows)], term[: len(rows)]
            if log_tables is None:
                log_tables = _readable({key: _log_table(t) for key, t in distinct.items()})
            logs = np.take(log_tables[id(tables[0])], rows[:, 0], axis=0, out=acc, mode="clip")
            for l in range(1, L):
                logs += np.take(log_tables[id(tables[l])], rows[:, l], axis=0, out=term, mode="clip")
            peak = logs.max(axis=1)
            # an all-zero row keeps log 0 = -inf instead of -inf - -inf
            peak[np.isneginf(peak)] = 0.0
            logs -= peak[:, None]
            out[lo : lo + chunk][deep] = peak + np.log(np.exp(logs, out=logs).mean(axis=1))
    return out
