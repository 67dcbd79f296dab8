"""Mutual information of the quantized block channel.

I(X; Z) = H(Z) - H(Z|X) in bits per block, each entropy one class sum over
one table. The conditional entropy needs only the all-zero input (it is
input-independent by symmetry, which the test suite verifies rather than
assumes blindly), summed over canonical output classes of the kernel table.
The output entropy is the same sum over residue classes of the
input-averaged table: inputs are i.i.d. uniform, so on each phase grid point
P(z) is a product of per-symbol input averages and no input is enumerated.
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
from .core import SystemConfig, _check_indices, _distinct_rows, sample_blocks
from .transition import (
    TransitionKernel,
    _check_own_kernels,
    _log_grid_mean,
    kernel_bank_for,
    kernel_for,
)

LOG2E = 1.0 / math.log(2.0)
# Monte Carlo blocks sampled and scored per batch
_MC_BATCH = 8192


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


def _input_average(table: np.ndarray, M: int, a: int) -> np.ndarray:
    """Row z is the mean over inputs m of table[(z - a*m) mod K].

    Inputs are i.i.d. uniform, so on each phase grid point the output marginal
    factorises: P(z) is the phase-grid mean of prod_l _input_average(...)[z_l].
    """
    K = table.shape[0]
    return table[(np.arange(K)[:, None] - a * np.arange(M)[None, :]) % K].mean(axis=1)


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


def marginal_probability(z, config: SystemConfig) -> float:
    """P(z) for a reduced output block (components below a = K/M).

    The phase-grid mean of the per-symbol product of the input-averaged
    table, which equals the plain average of P(z | x) over all M^L inputs.
    """
    if config.is_dithered:
        raise ValueError("marginal_probability requires an undithered config")
    z = _check_indices(z, "residue output z", config.L, config.a, "a")
    mixed = _input_average(kernel_for(config).table, config.M, config.a)
    return float(np.exp(_log_grid_mean([mixed] * config.L, z[None, :])[0]))


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
    mixed = _input_average(kernel.table, config.M, config.a)
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
        h_cond = brute_force_conditional_entropy(config)
        h_out = brute_force_output_entropy(config)
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


def _all_outputs(K: int, L: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(K)] * L), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def block_probs_all_outputs(kernel: TransitionKernel, x) -> np.ndarray:
    """P(z | x) for every z in lexicographic order, one chained outer product."""
    x = np.asarray(x, dtype=np.int64)
    K, n_phi = kernel.K, kernel.n_phi
    acc = np.ones((1, n_phi))
    for xl in x:
        rows = kernel.table[(np.arange(K) - kernel.a * int(xl)) % K]
        acc = (acc[:, None, :] * rows[None, :, :]).reshape(-1, n_phi)
    return acc.mean(axis=1)


def brute_force_conditional_entropy(config: SystemConfig) -> float:
    """H(Z | X = 0) by summing the full K^L output space."""
    probs = block_probs_all_outputs(kernel_for(config), np.zeros(config.L, dtype=np.int64))
    return float(-_entropy_terms(probs).sum())


def brute_force_output_probs(config: SystemConfig) -> np.ndarray:
    """P(z) for every z in lexicographic order, averaging all M^L inputs."""
    kernel = kernel_for(config)
    total = np.zeros(config.K**config.L)
    for x in product(range(config.M), repeat=config.L):
        total += block_probs_all_outputs(kernel, np.array(x, dtype=np.int64))
    return total / config.M**config.L


def brute_force_output_entropy(config: SystemConfig) -> float:
    probs = brute_force_output_probs(config)
    return float(-_entropy_terms(probs).sum())


# ---- Monte Carlo path ------------------------------------------------------


def _pinned_log_grid_mean(tables, S: np.ndarray, period: int, shared: bool) -> np.ndarray:
    """_log_grid_mean(tables, S), scoring each distinct pinned row once.

    Rows are read modulo period and shifted so that their first entry is 0,
    and sorted too when every position shares one table (shared). This is
    valid where adding c to every entry rolls each table row by the same
    number of grid points and leaves row z mod period equal to row z, up to
    summation order: the results move by a few ulps, not more.
    """
    pinned = (S - S[:, :1]) % period
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
    grid point (_input_average; finite-sum exchange, no sampling of the input
    space).

    Each batch scores every distinct block once. Adding c sectors to every
    output rolls every kernel row and every input-averaged row by c*n_phi/K
    grid points, dithered or not, and input-averaged row z mod a equals row
    z, because the input average already sums over shifts by a. So S =
    (z - a*x) mod K is pinned to (S - S_0) mod K, and z is read mod a and
    pinned to (z - z_0) mod a. Without dither all positions share one table,
    so permuting positions changes nothing either, and pinned rows are
    sorted. Only the summation order changes, by a few ulps.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    kernels = kernel_bank_for(config)
    L, M, K, a = config.L, config.M, config.K, config.a
    tables = [k.table for k in kernels]
    averaged = {id(t): _input_average(t, M, a) for t in tables}
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
        log_cond = _pinned_log_grid_mean(tables, (Z - a * X) % K, K, shared)
        log_out = _pinned_log_grid_mean(mixed, Z, a, shared)
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
