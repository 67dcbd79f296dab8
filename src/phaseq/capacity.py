"""Mutual information of the quantized block channel.

I(X; Z) = H(Z) - H(Z|X) in bits per block, each entropy one class sum over
one table. The conditional entropy needs only the all-zero input (it is
input-independent by symmetry, which the test suite verifies rather than
assumes blindly), summed over canonical output classes of the kernel table.
The output entropy is the same sum over residue classes of the
input-averaged table: inputs are i.i.d. uniform, so on each phase grid point
P(z) is a product of per-symbol input averages and no input is enumerated.
That table is 2*pi/M-periodic in the phase (a rotation by 2*pi/M is the
input shift x -> x + 1), so it is transition._fold_inputs of the kernel
table with np.mean: a residue rows on one period, n/M grid points, and
every H(Z) product, exact or Monte Carlo, averages n/M points, not n.
The classes come from combinatorics.output_class_arrays as integer arrays.
A full-enumeration brute-force path is shipped alongside as the oracle, and
a Monte Carlo estimator, which takes P(z) from the same input-averaged
tables, covers dithered configurations where the reduction does not apply.
It uses the same symmetries on its sampled blocks: adding one sector to
every output leaves a block's probability unchanged, dithered or not, and so
does permuting positions without dither; output blocks are read mod a. So
each batch scores every distinct pinned block once.
Block probabilities fall back to log space when the linear phase-grid
product underflows, so the Monte Carlo estimate stays finite for long
blocks; it works on log-probabilities throughout. Every function takes the
config and looks its kernels up itself; the two entropies still accept the
config's own kernel and reject any other.

Normalization: the first symbol effectively spends its information resolving
the unknown block phase, so the per-symbol rate divides by L - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .combinatorics import output_class_arrays
from .core import SystemConfig, _as_int, _distinct_rows, sample_blocks
from .transition import (
    TransitionKernel,
    _check_own_kernels,
    _fold_inputs,
    _log_grid_mean,
    kernel_bank_for,
    kernel_for,
)

LOG2E = 1.0 / math.log(2.0)
# Monte Carlo blocks sampled and scored per batch
_MC_BATCH = 8192
# The brute-force oracle refuses a (K^L, n_phi) table of P(z | x, phi) above
# _MAX_BRUTE_ELEMENTS (64 MB), and H(Z) its M^L tables above _MAX_BRUTE_WORK
# elements in all (M=4 K=8 L=5 at 6 dB would take 31 s). The largest tested
# case, M=2 K=4 L=5 at 40 dB, has 1,024 x 5,432 (5.6M) per input, 178M in all.
_MAX_BRUTE_ELEMENTS = 2**23
_MAX_BRUTE_WORK = 2**28


@dataclass(frozen=True)
class CapacityResult:
    """One capacity evaluation: entropies and rates in bits.

    per_symbol is mi / (L - 1); None for L = 1 where no payload positions
    exist. error_bar is the Monte Carlo standard error of mi (None for the
    exact methods).
    """

    snr_db: float
    M: int
    K: int
    L: int
    method: str
    h_cond: float
    h_out: float
    mi: float
    per_symbol: float | None
    error_bar: float | None = None


def _entropy_terms(p: np.ndarray) -> np.ndarray:
    terms = np.zeros_like(p)
    mask = p > 0
    terms[mask] = p[mask] * np.log2(p[mask])
    return terms


def _class_entropy(table: np.ndarray, alphabet: int, L: int, scale: float) -> float:
    """-sum over canonical classes of scale * multiplicity * p * log2 p.

    p is the phase-grid mean of prod_l table[rep_l] for each canonical
    representative of blocks of L symbols in 0..alphabet-1; scale is the
    number of blocks each arrangement of a representative stands for.
    """
    reps, mult = output_class_arrays(alphabet, L)
    probs = np.exp(_log_grid_mean([table] * L, reps))
    return float(-(scale * mult.astype(float) * _entropy_terms(probs)).sum())


def conditional_entropy(config: SystemConfig, kernel: TransitionKernel | None = None) -> float:
    """H(Z | X) in bits for an undithered config, via canonical classes.

    Equals -sum over classes of K * multiplicity * P(rep|0) * log2 P(rep|0):
    each canonical representative stands for K constant-addition shifts times
    the permutation multiplicity of its free positions. A kernel, if given,
    must equal kernel_for(config) in value, else ValueError.
    """
    if config.is_dithered:
        raise ValueError("conditional_entropy requires an undithered config")
    kernel = kernel_for(config) if kernel is None else kernel
    _check_own_kernels(config, (kernel,) * config.L)
    return _class_entropy(kernel.table, config.K, config.L, config.K)


def output_entropy(config: SystemConfig, kernel: TransitionKernel | None = None) -> float:
    """H(Z) in bits for an undithered config, via residue classes.

    A class sum over the input-averaged table: each residue-class
    representative covers multiplicity * a residue blocks, and each residue
    block stands for M^L full-alphabet blocks of equal probability. A kernel,
    if given, must equal kernel_for(config) in value, else ValueError.
    """
    if config.is_dithered:
        raise ValueError("output_entropy requires an undithered config")
    kernel = kernel_for(config) if kernel is None else kernel
    _check_own_kernels(config, (kernel,) * config.L)
    mixed = _fold_inputs(kernel.table, config.M, np.mean)
    return _class_entropy(mixed, config.a, config.L, float(config.a * config.M**config.L))


def mutual_information(config: SystemConfig, method: str = "reduced") -> CapacityResult:
    """Exact I(X; Z) per block for an undithered config.

    method="reduced" sums over canonical classes; method="brute" enumerates
    the full K^L output space (and all M^L inputs for the marginal) and exists
    as the independent check of the reduction.
    """
    if config.is_dithered:
        raise ValueError("exact mutual information requires an undithered config")
    if method == "reduced":
        h_cond = conditional_entropy(config)
        h_out = output_entropy(config)
        label = "reduced-exact"
    elif method == "brute":
        # H(Z) first: its work bound refuses before any table is multiplied
        h_out = brute_force_output_entropy(config)
        h_cond = brute_force_conditional_entropy(config)
        label = "brute-force"
    else:
        raise ValueError(f"unknown method: {method!r}")
    mi = h_out - h_cond
    per_symbol = mi / (config.L - 1) if config.L > 1 else None
    return CapacityResult(
        snr_db=config.snr_db,
        M=config.M,
        K=config.K,
        L=config.L,
        method=label,
        h_cond=h_cond,
        h_out=h_out,
        mi=mi,
        per_symbol=per_symbol,
    )


# ---- brute-force oracle --------------------------------------------------


def block_probs_all_outputs(config: SystemConfig, x) -> np.ndarray:
    """P(z | x) for every z in lexicographic order, one chained outer product
    over the table of kernel_for(config). Raises ValueError, before
    allocating, when the (K^L, n_phi) product exceeds _MAX_BRUTE_ELEMENTS."""
    x = np.asarray(x, dtype=np.int64)
    kernel = kernel_for(config)
    K, n_phi = kernel.K, kernel.n_phi
    if K**config.L * n_phi > _MAX_BRUTE_ELEMENTS:
        raise ValueError(
            f"brute-force output space too large: {K}^{config.L} blocks x {n_phi} phase"
            f" points is above the limit of {_MAX_BRUTE_ELEMENTS} elements"
        )
    acc = np.ones((1, n_phi))
    for xl in x:
        rows = kernel.table[(np.arange(K) - config.a * int(xl)) % K]
        acc = (acc[:, None, :] * rows[None, :, :]).reshape(-1, n_phi)
    return acc.mean(axis=1)


def brute_force_conditional_entropy(config: SystemConfig) -> float:
    """H(Z | X = 0) by summing the full K^L output space."""
    probs = block_probs_all_outputs(config, np.zeros(config.L, dtype=np.int64))
    return float(-_entropy_terms(probs).sum())


def brute_force_output_probs(config: SystemConfig) -> np.ndarray:
    """P(z) for every z in lexicographic order, averaging all M^L inputs.
    Raises ValueError, before the first product, when their M^L (K^L, n_phi)
    tables exceed _MAX_BRUTE_WORK elements in all."""
    M, K, L = config.M, config.K, config.L
    n_phi = kernel_for(config).n_phi
    if M**L * K**L * n_phi > _MAX_BRUTE_WORK:
        raise ValueError(
            f"brute-force output space too large: {M}^{L} inputs x {K}^{L} blocks x {n_phi}"
            f" phase points is above the limit of {_MAX_BRUTE_WORK} elements in all"
        )
    inputs = product(range(config.M), repeat=config.L)
    total = block_probs_all_outputs(config, next(inputs))
    for x in inputs:
        total += block_probs_all_outputs(config, x)
    return total / config.M**config.L


def brute_force_output_entropy(config: SystemConfig) -> float:
    probs = brute_force_output_probs(config)
    return float(-_entropy_terms(probs).sum())


# ---- Monte Carlo path ------------------------------------------------------


def _pin(S: np.ndarray, K: int, period: int) -> np.ndarray:
    """(S - S[:, :1]) mod period for S in (-K, K), as a fresh array.

    S - S_0 lies in (-2K, 2K), so its residue is entry S - S_0 + 2K of one
    table of 4K residues: a gather in place of int64 remainders.
    """
    residues = np.arange(-2 * K, 2 * K) % period
    return np.take(residues, S - (S[:, :1] - 2 * K), mode="clip")


def _pinned_log_grid_mean(
    tables, S: np.ndarray, K: int, period: int, shared: bool
) -> np.ndarray:
    """_log_grid_mean(tables, S mod K), scoring each distinct pinned row once.

    Rows are read modulo period and shifted so that their first entry is 0,
    and sorted too when every position shares one table (shared). This is
    valid where adding c to every entry rolls each table row by the same
    number of grid points and leaves row z mod period equal to row z, up to
    summation order: the results move by a few ulps, not more.
    """
    pinned = _pin(S, K, period)
    if shared:
        pinned.sort(axis=1)
    distinct, inverse = _distinct_rows(pinned)
    return _log_grid_mean(tables, distinct)[inverse]


def mutual_information_mc(
    config: SystemConfig,
    trials: int,
    rng: np.random.Generator,
) -> CapacityResult:
    """Monte Carlo I(X; Z) estimate, valid for dithered configs too.

    Averages log2(P(z|x) / P(z)) over sampled (x, z). P(z|x) is the phase-grid
    block conditional; P(z) is its exact average over all M^L inputs, computed
    through the per-symbol factorization that holds conditioned on each phase
    grid point (transition._fold_inputs with np.mean; finite-sum exchange,
    no sampling of the input space).

    Each batch scores every distinct block once. Adding c sectors to every
    output rolls every kernel row and every input-averaged row by c*n_phi/K
    grid points, dithered or not, and input-averaged row z mod a equals row
    z, because the input average already sums over shifts by a; the
    input-averaged tables hold only those a rows, on one 2*pi/M period. So S =
    z - a*x is pinned to (S - S_0) mod K, and z to (z - z_0) mod a, each by
    one table lookup. Without dither all positions share one table,
    so permuting positions changes nothing either, and pinned rows are
    sorted. Only the summation order changes, by a few ulps.
    """
    trials = _as_int(trials, "trials")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    kernels = kernel_bank_for(config)
    L, M, K, a = config.L, config.M, config.K, config.a
    tables = [k.table for k in kernels]
    averaged = {id(t): _fold_inputs(t, M, np.mean) for t in tables}
    mixed = [averaged[id(t)] for t in tables]
    shared = not config.is_dithered

    sum_ratio = 0.0
    sum_ratio_sq = 0.0
    sum_cond = 0.0
    sum_out = 0.0
    done = 0
    while done < trials:
        n = min(_MC_BATCH, trials - done)
        X = rng.integers(0, M, size=(n, L))
        _, Z = sample_blocks(X, config, rng)
        log_cond = _pinned_log_grid_mean(tables, Z - a * X, K, K, shared)
        log_out = _pinned_log_grid_mean(mixed, Z, K, a, shared)
        ratio = (log_cond - log_out) * LOG2E
        sum_ratio += ratio.sum()
        sum_ratio_sq += (ratio * ratio).sum()
        sum_cond -= log_cond.sum() * LOG2E
        sum_out -= log_out.sum() * LOG2E
        done += n

    mi = sum_ratio / trials
    var = max(sum_ratio_sq / trials - mi * mi, 0.0)
    se = math.sqrt(var / trials)
    per_symbol = mi / (L - 1) if L > 1 else None
    return CapacityResult(
        snr_db=config.snr_db,
        M=M,
        K=K,
        L=L,
        method="monte-carlo",
        h_cond=sum_cond / trials,
        h_out=sum_out / trials,
        mi=mi,
        per_symbol=per_symbol,
        error_bar=se,
    )
