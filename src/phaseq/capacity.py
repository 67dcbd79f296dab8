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
The classes come from combinatorics.output_class_arrays as integer arrays,
and each sum runs over their bracelets, which combinatorics._bracelet_rows
finds with core._group: one phase-grid product per bracelet, weighted by its
classes' summed multiplicities. Adding a sector to every output rolls every
table row by n/K grid points, which is exact. The reflection z -> -z-1,
x -> -x holds on undithered configs because the offset density is even, so
the phase mean absorbs phi -> -phi - 2*theta0; on the grid it is exact up
to the rule's accuracy, about 2e-13 relative. Exact sums take undithered
configs only. At K=12 L=6 that is 561 products for 4,368 classes (H(Z|X));
classes whose gaps need more than 63 bits keep one product each.
A full-enumeration brute-force path is shipped alongside as the oracle, and
a Monte Carlo estimator, which takes P(z) from the same input-averaged
tables, covers dithered configurations where the reduction does not apply.
It uses the same symmetries on its sampled blocks, so a call scores every
distinct pinned block once under dither, and every bracelet once without:
one core._RowMemo per side (conditional and output), of at most one batch
of rows, holds log-probabilities by the keys core._group ranks, and ends
with its call. Batches run in buffers the calling thread keeps, as
run_ser's chunks do, less those above core._KEPT_BYTES (a long block's),
which go when the call returns (core._call_workspace). Once batch j is
sampled, zero-sample redraws included, the calling thread draws batch
j + 1's symbols, and a one-thread helper fills its phases and noise into
the calling thread's noise and rotation buffers, which batch j's sampling
no longer reads, while the calling thread scores batch j; the run_ser rule
(core._usable_cpus) decides whether a call gets a helper. Scoring draws
nothing, so the Generator makes the same draws in the same order on either
path, and the estimate does not depend on it.
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .combinatorics import _bracelet_rows, output_class_arrays
from .core import (
    SystemConfig,
    _as_int,
    _call_workspace,
    _chunk_sizes,
    _distinct_rows,
    _draw_into,
    _RowMemo,
    _sample_into,
    _usable_cpus,
)
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
    """-sum over bracelets of scale * weight * p * log2 p.

    The canonical representatives of blocks of L symbols in 0..alphabet-1
    are grouped by bracelet (_bracelet_rows), each bracelet weighted by the
    sum of its classes' multiplicities; p is the phase-grid mean of
    prod_l table[rep_l] for the bracelet's representative, and scale is the
    number of blocks each arrangement of a representative stands for.
    """
    reps, mult = output_class_arrays(alphabet, L)
    bracelets, inverse, _ = _bracelet_rows(reps, alphabet)
    weight = np.bincount(inverse, weights=mult.astype(float))
    probs = np.exp(_log_grid_mean([table] * L, bracelets))
    return float(-(scale * weight * _entropy_terms(probs)).sum())


def conditional_entropy(config: SystemConfig, kernel: TransitionKernel | None = None) -> float:
    """H(Z | X) in bits for an undithered config, via canonical classes.

    Equals -sum over classes of K * multiplicity * P(rep|0) * log2 P(rep|0):
    each canonical representative stands for K constant-addition shifts times
    the permutation multiplicity of its free positions, and the classes of one
    bracelet share one product (_class_entropy). A kernel, if given,
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
    block stands for M^L full-alphabet blocks of equal probability; the
    classes of one bracelet over Z_a share one product. A kernel, if given,
    must equal kernel_for(config) in value, else ValueError.
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


def _pin(S: np.ndarray, K: int, period: int, out: np.ndarray) -> np.ndarray:
    """(S - S[:, :1]) mod period for int64 S in (-K, K), written into out,
    an int64 array of S's shape; S is overwritten.

    S - S_0 lies in (-2K, 2K), so its residue is entry S - S_0 + 2K of one
    table of 4K residues: S is shifted in place and gathered from the
    table, in place of int64 remainders.
    """
    residues = np.arange(-2 * K, 2 * K) % period
    S -= S[:, :1] - 2 * K
    return np.take(residues, S, out=out, mode="clip")


def _pinned_log_grid_mean(
    scores: _RowMemo, pinned: np.ndarray, period: int, shared: bool
) -> np.ndarray:
    """scores' _log_grid_mean of each pinned row (n, L) of digits
    0..period-1 (first column 0), each distinct one looked up once by key.
    When every position shares one table (shared, the undithered case), rows
    are sorted in place and grouped by bracelet (_bracelet_rows), else by
    distinct row (_distinct_rows); mutual_information_mc says why either
    grouping keeps the probability, and how closely.
    """
    if shared:
        pinned.sort(axis=1)
        distinct, inverse, keys = _bracelet_rows(pinned, period)
    else:
        distinct, inverse, keys = _distinct_rows(pinned, period)
    return scores(distinct, keys)[inverse]


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
    no sampling of the input space). rng must be a numpy Generator, else
    ValueError.

    Each batch scores every distinct block once. Adding c sectors to every
    output rolls every kernel row and every input-averaged row by c*n_phi/K
    grid points, dithered or not, and input-averaged row z mod a equals row
    z, because the input average already sums over shifts by a; the
    input-averaged tables hold only those a rows, on one 2*pi/M period. So S =
    z - a*x is pinned to (S - S_0) mod K, and z to (z - z_0) mod a, each by
    one table lookup. Without dither all positions share one table,
    so permuting positions changes nothing either, and neither does the
    reflection S -> -S-1 (the offset density is even): pinned rows are
    sorted and grouped by bracelet. Only the summation order changes, by a
    few ulps, and the reflection moves a row by at most about 2e-13
    relative. Dithered rows keep one product per distinct pinned row.

    A row is scored once per call, not once per batch: each side keeps the
    log-probabilities of up to _MC_BATCH rows in a core._RowMemo, and every
    row is reduced on its own, so a held value is bitwise the value the row
    would get afresh. The draws are those of sample_blocks, batch by batch
    (symbols, phases, noise, then redraws). Once batch j is sampled, its
    redraws included, this thread draws batch j + 1's symbols, and its
    phases and noise go into this thread's noise and rotation buffers,
    which batch j's sampling no longer reads: on a one-thread helper while
    this thread scores batch j, by core._usable_cpus's rule (more than one
    batch, more than one usable CPU), else inline. Scoring draws nothing,
    so either way the Generator makes batch j's redraws, then batch
    j + 1's symbols, phases and noise, and every value is bitwise the
    same. S = z - a*x goes to the symbols' memory, and both pinned rows to
    the sampler's planes once it is done with them, all in buffers the
    calling thread keeps, less those above core._KEPT_BYTES.
    """
    trials = _as_int(trials, "trials")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator (got {rng!r})")
    kernels = kernel_bank_for(config)
    L, M, K, a = config.L, config.M, config.K, config.a
    tables = [k.table for k in kernels]
    averaged = {id(t): _fold_inputs(t, M, np.mean) for t in tables}
    mixed = [averaged[id(t)] for t in tables]
    shared = not config.is_dithered
    cond_scores, out_scores = (
        _RowMemo(partial(_log_grid_mean, side), limit=_MC_BATCH) for side in (tables, mixed)
    )
    sizes = _chunk_sizes(trials, _MC_BATCH)
    draws_ahead = len(sizes) > 1 and _usable_cpus() > 1
    # no thread starts until the first submit
    helper = ThreadPoolExecutor(max_workers=1) if draws_ahead else None

    sum_ratio = 0.0
    # squares about the first batch's mean: equal ratios then leave a
    # variance of rounding size, where E[r^2] - mi^2 leaves mi^2's rounding
    shift = None
    sum_dev = 0.0
    sum_dev_sq = 0.0
    sum_cond = 0.0
    sum_out = 0.0
    with _call_workspace() as work, helper or nullcontext():

        def draw_args(n: int) -> tuple:
            noise = work.buffer("noise", (2, n, L))
            return rng, None, config.sigma, noise, work.buffer("rot", (n,), np.complex128)

        X = rng.integers(0, M, size=(sizes[0], L))
        ahead = None
        for j, n in enumerate(sizes):
            draws = ahead.result() if ahead else _draw_into(*draw_args(n))
            _, Z = _sample_into(X, config, rng, work, draws)
            S, ahead = X, None
            if j + 1 < len(sizes):
                # batch j's redraws are made: batch j + 1's symbols here,
                # and its phases and noise on the helper while j is scored
                X = rng.integers(0, M, size=(sizes[j + 1], L))
                if helper:
                    ahead = helper.submit(_draw_into, *draw_args(sizes[j + 1]))
            # S = Z - a*X in the symbols' memory; the pins go to the sampler's dead planes
            S *= -a
            S += Z
            cond_rows = _pin(S, K, K, work.buffer("t0", (n, L), np.int64))
            out_rows = _pin(Z, K, a, work.buffer("t1", (n, L), np.int64))
            log_cond = _pinned_log_grid_mean(cond_scores, cond_rows, K, shared)
            log_out = _pinned_log_grid_mean(out_scores, out_rows, a, shared)
            ratio = (log_cond - log_out) * LOG2E
            sum_ratio += ratio.sum()
            if shift is None:
                shift = ratio.mean()
            ratio -= shift
            sum_dev += ratio.sum()
            sum_dev_sq += np.square(ratio, out=ratio).sum()
            sum_cond -= log_cond.sum() * LOG2E
            sum_out -= log_out.sum() * LOG2E

    mi = sum_ratio / trials
    var = max(sum_dev_sq / trials - (sum_dev / trials) ** 2, 0.0)
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
