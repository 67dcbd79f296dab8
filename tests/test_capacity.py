"""Mutual information: reduced-class sums vs brute force vs Monte Carlo."""

from __future__ import annotations

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import SystemConfig
from phaseq.capacity import (
    LOG2E,
    _MC_BATCH,
    _pin,
    block_probs_all_outputs,
    brute_force_conditional_entropy,
    brute_force_output_entropy,
    brute_force_output_probs,
    conditional_entropy,
    mutual_information,
    mutual_information_mc,
    output_entropy,
)
from phaseq.combinatorics import output_class_arrays
from phaseq.core import _check_indices, sample_blocks
from phaseq.sim import run_ser
from phaseq.transition import _fold_inputs, _log_grid_mean, kernel_bank_for, kernel_for


def marginal_probability(z, config: SystemConfig) -> float:
    """P(z) for a reduced output block (components below a = K/M).

    The phase-grid mean of the per-symbol product of the input-averaged
    table, which equals the plain average of P(z | x) over all M^L inputs.
    """
    z = _check_indices(z, "residue output z", config.L, config.a, "a")
    mixed = _fold_inputs(kernel_for(config).table, config.M, np.mean)
    return float(np.exp(_log_grid_mean([mixed] * config.L, z[None, :])[0]))


class TestDegenerateLimits:
    def test_single_symbol_block_carries_nothing(self):
        cfg = SystemConfig(M=4, K=8, L=1, snr_db=12.0)
        res = mutual_information(cfg)
        assert abs(res.mi) < 1e-9
        assert res.per_symbol is None
        assert res.h_cond == pytest.approx(3.0, abs=1e-9)
        assert res.h_out == pytest.approx(3.0, abs=1e-9)

    def test_deep_noise_entropies_saturate(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=-40.0)
        res = mutual_information(cfg)
        assert res.h_cond == pytest.approx(3 * 3.0, abs=1e-2)
        assert res.h_out == pytest.approx(3 * 3.0, abs=1e-2)
        assert 0.0 <= res.mi < 1e-2


    @pytest.mark.parametrize("M, K, L", [(2, 6, 3), (2, 6, 4), (4, 12, 3), (8, 24, 3)])
    @pytest.mark.parametrize("snr_db", [40.0, 50.0, 60.0])
    def test_high_snr_mi_reaches_log2_m_per_scored_symbol(self, M, K, L, snr_db):
        # at K = 3M a one-sector slip leaves z_l - z_0 nearest to 3(x_l - x_0),
        # and far above 20 dB wider slips vanish, so Z fixes the L - 1 symbol
        # differences and I(X; Z) = (L - 1) log2 M (at K = 2M a slip lands
        # halfway, and the deficit only decays like SNR^(-1/2))
        res = mutual_information(SystemConfig(M=M, K=K, L=L, snr_db=snr_db))
        assert res.mi == pytest.approx((L - 1) * math.log2(M), abs=1e-11)

    @pytest.mark.parametrize(
        "M, K, L", [(4, 4, 4), (8, 8, 3), (2, 4, 3), (8, 16, 3), (4, 12, 3), (8, 24, 3)]
    )
    def test_high_snr_ramp_mc_mi_reaches_noiseless_limit(self, M, K, L):
        # at 60 dB the ramp's L*K sector edges cut the phase circle into L*K
        # equal arcs, and a block fixes its arc: H(Z|X) = log2(L K). With
        # K >= 2M, Z also fixes the L - 1 symbol differences, so I(X; Z) =
        # (L - 1) log2 M; with K = M the output alphabet caps it at
        # L log2 K - log2(L K)
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=60.0, dither="ramp")
        res = mutual_information_mc(cfg, 5_000, np.random.default_rng(5))
        tol = 3 * res.error_bar + 1e-12
        assert res.h_cond == pytest.approx(math.log2(L * K), abs=tol)
        limit = (L - 1) * math.log2(M) if K >= 2 * M else L * math.log2(K) - math.log2(L * K)
        assert res.mi == pytest.approx(limit, abs=tol)


# (M, K, L, snr_db): the original case, then M in {2, 4, 8} with K = M, 2M
# and 4M, L up to 5, from 0 to 40 dB
_BRUTE_CASES = [(4, 8, 3, 5.0)] + [
    (M, K, L, snr_db)
    for (M, K, L) in [(2, 4, 5), (2, 8, 3), (4, 8, 3), (8, 8, 2), (8, 16, 2)]
    for snr_db in (0.0, 10.0, 25.0, 40.0)
]


class TestBruteForceAgreement:
    @pytest.mark.parametrize("M, K, L, snr_db", _BRUTE_CASES)
    def test_entropies_match_brute_force(self, M, K, L, snr_db):
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db)
        h_cond = conditional_entropy(cfg)
        h_out = output_entropy(cfg)
        assert h_cond == pytest.approx(brute_force_conditional_entropy(cfg), rel=1e-9)
        assert h_out == pytest.approx(brute_force_output_entropy(cfg), rel=1e-9)

    def test_mutual_information_reduced_equals_brute(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=10.0)
        red = mutual_information(cfg, method="reduced")
        brute = mutual_information(cfg, method="brute")
        assert red.mi == pytest.approx(brute.mi, rel=1e-9)
        assert red.method == "reduced-exact"
        assert brute.method == "brute-force"

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reduced_equals_brute_on_random_channels(self, data):
        # M in {2, 8}, K^L <= 256 and M^L <= 64 keep the brute force cheap
        M = data.draw(st.sampled_from([2, 8]), label="M")
        K = M * data.draw(st.integers(1, 4 if M == 2 else 2), label="K/M")
        L_max = max(L for L in range(2, 7) if K**L <= 256 and M**L <= 64)
        L = data.draw(st.integers(2, L_max), label="L")
        snr_db = data.draw(st.floats(0.0, 40.0), label="snr_db")
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db)
        reduced = mutual_information(cfg, method="reduced")
        brute = mutual_information(cfg, method="brute")
        assert reduced.mi == pytest.approx(brute.mi, rel=1e-9)

    @pytest.mark.parametrize("M, K, L, snr_db", [(4, 8, 3, 6.0)] + _BRUTE_CASES[1:])
    def test_marginal_probability_matches_brute_average(self, M, K, L, snr_db):
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db)
        probs = brute_force_output_probs(cfg)
        # residues 1, 0, 1, ... (all 0 when a = 1): adjacent residues stay
        # reachable at 40 dB, where a row spanning three sectors underflows to 0
        z = (np.arange(L) + 1) % min(cfg.a, 2)
        # brute table is indexed over full K-ary outputs; residues embed directly
        idx = int(np.ravel_multi_index(tuple(z), (K,) * L))
        assert probs[idx] > 0
        assert marginal_probability(z, cfg) == pytest.approx(
            float(probs[idx]), rel=1e-10
        )

    def test_marginal_single_symbol_uniform(self):
        cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
        assert marginal_probability([0], cfg) == pytest.approx(1 / 8, abs=1e-12)
        assert marginal_probability([1], cfg) == pytest.approx(1 / 8, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("snr_db", [0.0, 6.0, 12.0])
    def test_bounds(self, snr_db):
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=snr_db)
        res = mutual_information(cfg)
        assert 0.0 <= res.mi <= 2.0 * (cfg.L - 1) + 1e-9
        assert res.h_cond <= res.h_out + 1e-12
        assert res.per_symbol == pytest.approx(res.mi / (cfg.L - 1))

    def test_per_symbol_monotone_in_snr(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=0.0)
        vals = [mutual_information(cfg.with_snr(s)).per_symbol for s in (0.0, 4.0, 8.0, 12.0)]
        diffs = np.diff(vals)
        assert np.all(diffs > -1e-6)

    def test_exact_methods_have_no_error_bar(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        assert mutual_information(cfg).error_bar is None

    def test_result_records_config(self):
        cfg = SystemConfig(M=4, K=12, L=2, snr_db=7.0)
        res = mutual_information(cfg)
        assert (res.M, res.K, res.L, res.snr_db) == (4, 12, 2, 7.0)


class TestValidation:
    def test_dithered_config_rejected_by_exact_paths(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
        with pytest.raises(ValueError, match="undithered"):
            conditional_entropy(cfg)
        with pytest.raises(ValueError, match="undithered"):
            output_entropy(cfg)
        with pytest.raises(ValueError, match="undithered"):
            mutual_information(cfg)

    @pytest.mark.parametrize("entropy", [conditional_entropy, output_entropy])
    def test_entropies_reject_a_foreign_kernel(self, entropy):
        # a kernel of another SNR, theta0 or phase grid would silently score
        # this config with its tables; a kernel equal in value passes
        cfg = SystemConfig(M=4, K=12, L=6, snr_db=6.0)
        for other in (replace(cfg, snr_db=12.0), replace(cfg, theta0=0.3), replace(cfg, L=8)):
            with pytest.raises(ValueError, match="config's own"):
                entropy(cfg, kernel_for(other))
        # a copy is another object with the same key, as after cache eviction
        copy = replace(kernel_for(cfg))
        assert copy is not kernel_for(cfg)
        assert entropy(cfg, copy) == entropy(cfg)

    def test_marginal_rejects_full_range_outputs(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="residue"):
            marginal_probability([0, 5], cfg)
        # a short block must not be answered, nor a fractional one truncated
        cfg3 = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        with pytest.raises(ValueError, match="residue output z must have L=3 entries"):
            marginal_probability([0], cfg3)
        with pytest.raises(ValueError, match="residue output z components must be integers"):
            marginal_probability([1.7, 0, 0], cfg3)
        with pytest.raises(ValueError, match="residue output z components must lie in 0..a-1"):
            marginal_probability([0, -1, 0], cfg3)

    def test_unknown_method_rejected(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="method"):
            mutual_information(cfg, method="guess")

    def test_grid_guard_stops_block_probabilities_not_ser(self):
        # 100 dB at L = 8 would need a 6.8M-point phase grid (3.5 GB at
        # K = 64); the demodulator never reads the grid, so SER still runs
        cfg = SystemConfig(M=4, K=64, L=8, snr_db=100.0)
        with pytest.raises(ValueError, match="phase grid"):
            mutual_information(cfg)
        point = run_ser(cfg, 200, seed=1)
        assert point.trials == 200 and point.errors == 0

    def test_mc_requires_enough_trials(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="trials"):
            mutual_information_mc(cfg, 50, np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [150.5, 200.0, "200", None])
    def test_mc_trials_must_be_an_integer(self, trials):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            mutual_information_mc(cfg, trials, np.random.default_rng(0))


class TestMonteCarlo:
    def test_estimate_brackets_exact_value(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        exact = mutual_information(cfg).mi
        res = mutual_information_mc(cfg, 40_000, np.random.default_rng(7))
        assert res.method == "monte-carlo"
        assert res.error_bar is not None and res.error_bar > 0
        assert abs(res.mi - exact) < 3 * res.error_bar
        assert res.per_symbol == pytest.approx(res.mi / (cfg.L - 1))

    def test_deep_noise_estimate_near_zero(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=-40.0)
        res = mutual_information_mc(cfg, 5_000, np.random.default_rng(3))
        assert abs(res.mi) < 3 * res.error_bar + 1e-6

    def test_dither_strictly_helps_at_moderate_snr(self):
        # the undithered K=2M ambiguity costs rate; dither recovers it
        base = SystemConfig(M=4, K=8, L=2, snr_db=10.0)
        plain = mutual_information(base).mi
        dith = mutual_information_mc(
            SystemConfig(M=4, K=8, L=2, snr_db=10.0, dither="ramp"),
            60_000,
            np.random.default_rng(11),
        )
        assert dith.mi - plain > 3 * dith.error_bar

    def test_single_symbol_mc_is_zero(self):
        cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
        res = mutual_information_mc(cfg, 2_000, np.random.default_rng(5))
        assert abs(res.mi) < 1e-9
        assert res.per_symbol is None

    def test_long_block_stays_finite(self):
        # at L=200 every block probability underflows a linear product
        cfg = SystemConfig(M=4, K=64, L=200, snr_db=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mutual_information_mc(cfg, trials=200, rng=np.random.default_rng(8))
        assert all(math.isfinite(v) for v in (res.mi, res.h_cond, res.h_out, res.error_bar))

    @pytest.mark.parametrize(
        "cfg, trials",
        [
            (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 9_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 9_000),
            (SystemConfig(M=4, K=8, L=4, snr_db=10.0, dither=(0, 0.05, 0.11, 0.3)), 3_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=30.0, dither="ramp"), 1_000),
            (SystemConfig(M=4, K=64, L=200, snr_db=0.0), 300),
        ],
        ids=["k64", "ramp", "tuple", "ramp-30dB", "k64-L200"],
    )
    def test_deduplicated_rows_match_per_block_products(self, cfg, trials):
        # the estimator scores each distinct pinned row once; here every
        # sampled block gets its own phase-grid product, on the same draws
        got_rng = np.random.default_rng(21)
        got = mutual_information_mc(cfg, trials, got_rng)

        rng = np.random.default_rng(21)
        tables = [k.table for k in kernel_bank_for(cfg)]
        mixed = [_fold_inputs(t, cfg.M, np.mean) for t in tables]
        ratios, conds, outs = [], [], []
        for lo in range(0, trials, _MC_BATCH):
            X = rng.integers(0, cfg.M, size=(min(_MC_BATCH, trials - lo), cfg.L))
            _, Z = sample_blocks(X, cfg, rng)
            log_cond = _log_grid_mean(tables, (Z - cfg.a * X) % cfg.K)
            log_out = _log_grid_mean(mixed, Z % cfg.a)
            ratios.append((log_cond - log_out) * LOG2E)
            conds.append(-log_cond * LOG2E)
            outs.append(-log_out * LOG2E)
        ratio = np.concatenate(ratios)
        mi = ratio.mean()
        se = math.sqrt(max((ratio * ratio).mean() - mi * mi, 0.0) / trials)

        assert got.mi == pytest.approx(mi, rel=1e-12)
        assert got.h_cond == pytest.approx(np.concatenate(conds).mean(), rel=1e-12)
        assert got.h_out == pytest.approx(np.concatenate(outs).mean(), rel=1e-12)
        # the variance is E[r^2] - mi^2, which magnifies relative error
        assert got.error_bar == pytest.approx(se, rel=1e-9, abs=1e-12)
        assert got_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("M, K", [(2, 2), (4, 8), (4, 12), (4, 64), (8, 16)])
def test_pin_matches_plain_mod(M, K):
    # the MC estimator pins S = z - a*x, in (-K, K), mod K and z mod a by
    # one lookup; both ends S = -(K-1) and K-1 occur, first and later
    rng = np.random.default_rng(K)
    S = rng.integers(-(K - 1), K, size=(500, 5))
    S[:4] = [[-(K - 1)] * 5, [K - 1] * 5, [-(K - 1)] + [K - 1] * 4, [K - 1] + [-(K - 1)] * 4]
    for period in (K, K // M):
        got = _pin(S, K, period)
        assert got.dtype == np.int64
        assert np.array_equal(got, (S - S[:, :1]) % period)


def test_block_probs_all_outputs_normalizes():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
    probs = block_probs_all_outputs(cfg, np.array([1, 3]))
    assert probs.shape == (64,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)


def test_brute_force_refuses_oversized_space_before_allocating():
    # 16^6 blocks x 192 phase points is about 26 GB per input; every case
    # of _BRUTE_CASES stays under the limit
    cfg = SystemConfig(M=4, K=16, L=6, snr_db=6.0)
    calls = (
        brute_force_conditional_entropy,
        brute_force_output_entropy,
        lambda c: mutual_information(c, method="brute"),
    )
    tracemalloc.start()
    started = time.perf_counter()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="brute-force output space too large"):
                call(cfg)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


def test_brute_force_refuses_oversized_work_before_any_product():
    # 4^5 inputs x 8^5 blocks x 176 phase points is 5.9G products, about
    # 31 s, though each input's table is under _MAX_BRUTE_ELEMENTS
    cfg = SystemConfig(M=4, K=8, L=5, snr_db=6.0)
    calls = (
        brute_force_output_probs,
        brute_force_output_entropy,
        lambda c: mutual_information(c, method="brute"),
    )
    started = time.perf_counter()
    for call in calls:
        with pytest.raises(ValueError, match="inputs x"):
            call(cfg)
    assert time.perf_counter() - started < 1.0


def test_brute_output_probs_normalize():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
    probs = brute_force_output_probs(cfg)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    assert probs.min() > 0


# ---- the input average on one 2*pi/M period ----------------------------------


def _full_grid_average(table: np.ndarray, M: int) -> np.ndarray:
    """The input average on every grid point, one row per residue r < K/M:
    row r is the mean over m of table[(r - a*m) mod K]."""
    K = table.shape[0]
    a = K // M
    return np.stack([table[(r - a * np.arange(M)) % K].mean(axis=0) for r in range(a)])


@pytest.mark.parametrize(
    "M, K, snr_db, theta0",
    [(2, 4, 6.0, 0.0), (4, 8, 6.0, 0.3), (4, 12, 11.0, 0.0), (4, 64, 10.0, 0.1), (8, 16, 3.0, 0.2)],
)
def test_input_average_is_one_period_of_the_full_grid(M, K, snr_db, theta0):
    cfg = SystemConfig(M=M, K=K, L=3, snr_db=snr_db, theta0=theta0)
    table = kernel_for(cfg).table
    period = table.shape[1] // M
    full = _full_grid_average(table, M)
    # the mean over m at i + n/M sums the values it sums at i, in another order
    for j in range(1, M):
        shifted = np.roll(full, -j * period, axis=1)
        assert (np.abs(shifted - full) <= 8 * np.spacing(full)).all()
    folded = _fold_inputs(table, M, np.mean)
    assert folded.shape == (cfg.a, period)
    assert folded[0].tobytes() == full[0, :period].tobytes()


@pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(M=2, K=4, L=5, snr_db=6.0),
        SystemConfig(M=4, K=8, L=4, snr_db=6.0, theta0=0.3),
        SystemConfig(M=8, K=16, L=3, snr_db=10.0),
        SystemConfig(M=4, K=64, L=3, snr_db=6.0),
    ],
    ids=["M2", "M4", "M8", "M4-K64"],
)
def test_output_entropy_matches_full_grid_class_sum(cfg):
    M, L, a = cfg.M, cfg.L, cfg.a
    full = _full_grid_average(kernel_for(cfg).table, M)
    reps, mult = output_class_arrays(a, L)
    acc = full[reps[:, 0]]
    for l in range(1, L):
        acc *= full[reps[:, l]]
    p = acc.mean(axis=1)
    want = float(-(a * M**L * mult * p * np.log2(p)).sum())
    assert output_entropy(cfg) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "cfg, trials",
    [
        (SystemConfig(M=2, K=8, L=6, snr_db=12.0, dither="ramp"), 2_000),
        (SystemConfig(M=4, K=8, L=4, snr_db=10.0, dither=(0, 0.05, 0.11, 0.3)), 2_000),
        (SystemConfig(M=2, K=6, L=3, snr_db=20.0, dither=(0.2, 0.0, 0.4)), 2_000),
        (SystemConfig(M=8, K=16, L=4, snr_db=8.0), 2_000),
        (SystemConfig(M=4, K=64, L=200, snr_db=0.0), 300),
        (SystemConfig(M=4, K=8, L=200, snr_db=0.0, dither="ramp"), 300),
    ],
    ids=["M2-ramp", "M4-tuple", "M2-tuple", "M8", "M4-K64-L200", "M4-ramp-L200"],
)
def test_mc_output_entropy_matches_full_grid_products(cfg, trials):
    # the same draws as mutual_information_mc, each block's P(z) a product
    # over the full phase grid
    got = mutual_information_mc(cfg, trials, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    bank = kernel_bank_for(cfg)
    full = {id(k): _full_grid_average(k.table, cfg.M) for k in bank}
    tables = [full[id(k)] for k in bank]
    outs = []
    for lo in range(0, trials, _MC_BATCH):
        X = rng.integers(0, cfg.M, size=(min(_MC_BATCH, trials - lo), cfg.L))
        _, Z = sample_blocks(X, cfg, rng)
        outs.append(-_log_grid_mean(tables, Z % cfg.a) * LOG2E)
    assert got.h_out == pytest.approx(np.concatenate(outs).mean(), rel=1e-13)
