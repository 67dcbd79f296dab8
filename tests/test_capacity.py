"""Mutual information: reduced-class sums vs brute force vs Monte Carlo."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import (
    SystemConfig,
    brute_force_conditional_entropy,
    brute_force_output_entropy,
    brute_force_output_probs,
    conditional_entropy,
    kernel_for,
    marginal_probability,
    mutual_information,
    mutual_information_mc,
    output_entropy,
    run_ser,
)
from phaseq.capacity import LOG2E, _MC_BATCH, _input_average, block_probs_all_outputs
from phaseq.core import sample_blocks
from phaseq.transition import _log_grid_mean, kernel_bank_for


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
        mixed = [_input_average(t, cfg.M, cfg.a) for t in tables]
        ratios, conds, outs = [], [], []
        for lo in range(0, trials, _MC_BATCH):
            X = rng.integers(0, cfg.M, size=(min(_MC_BATCH, trials - lo), cfg.L))
            _, Z = sample_blocks(X, cfg, rng)
            log_cond = _log_grid_mean(tables, (Z - cfg.a * X) % cfg.K)
            log_out = _log_grid_mean(mixed, Z)
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


def test_block_probs_all_outputs_normalizes():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
    kernel = kernel_for(cfg)
    probs = block_probs_all_outputs(kernel, np.array([1, 3]))
    assert probs.shape == (64,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)


def test_brute_output_probs_normalize():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
    probs = brute_force_output_probs(cfg)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    assert probs.min() > 0
