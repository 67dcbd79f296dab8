"""Mutual information: reduced-class sums vs brute force vs Monte Carlo."""

from __future__ import annotations

import math
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import SystemConfig, capacity
from phaseq.capacity import (
    LOG2E,
    _MC_BATCH,
    _entropy_terms,
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
from phaseq.combinatorics import _bracelet_rows, output_class_arrays
from phaseq.core import (
    _KEPT_BYTES,
    _check_indices,
    _distinct_rows,
    _draw_into,
    _sample_into,
    _thread_workspace,
    modulate,
    sample_blocks,
)
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
        # theta0 moves the reflection z -> -z-1 to the phase -phi - 2*theta0
        theta0 = data.draw(st.floats(-math.pi, math.pi), label="theta0")
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, theta0=theta0)
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

    @pytest.mark.parametrize(
        "rng", [0, None, np.random.RandomState(0)], ids=["int", "None", "RandomState"]
    )
    def test_mc_rng_must_be_a_generator(self, rng, monkeypatch):
        # refused before any kernel is looked up or a helper is made
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the rng check")

        monkeypatch.setattr(capacity, "kernel_bank_for", unreachable)
        monkeypatch.setattr(capacity, "ThreadPoolExecutor", unreachable)
        cfg = SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp")
        with pytest.raises(ValueError, match="rng must be a numpy.random.Generator"):
            mutual_information_mc(cfg, 3 * _MC_BATCH, rng)


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
        "cfg",
        [
            SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"),
            SystemConfig(M=2, K=4, L=64, snr_db=8.0, dither="ramp"),
        ],
        ids=["ramp", "ramp-L64"],
    )
    def test_distinct_pinned_rows_match_np_unique(self, cfg, monkeypatch):
        # under dither each batch scores every distinct pinned row once; with
        # numpy's unique in place of core._distinct_rows the estimate is the
        # same to the bit. At M=2 K=4 L=64 a pinned row of S takes three
        # int64 words (31 base-4 digits each), and one of z two
        got = mutual_information_mc(cfg, 3_000, np.random.default_rng(9))
        bases = []

        def oracle(rows, base):
            bases.append(base)
            assert 0 <= rows.min() and rows.max() < base
            distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
            # the estimator's memo looks rows up by key: here a row's bytes
            keys = np.ascontiguousarray(distinct).view(np.dtype((np.void, 8 * rows.shape[1])))
            return distinct, inverse.reshape(-1), keys[:, 0]

        monkeypatch.setattr(capacity, "_distinct_rows", oracle)
        want = mutual_information_mc(cfg, 3_000, np.random.default_rng(9))
        assert sorted(set(bases)) == [cfg.a, cfg.K]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "cfg, trials",
        [
            (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 9_000),
            (SystemConfig(M=4, K=64, L=6, snr_db=12.0, theta0=0.7), 9_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 9_000),
            (SystemConfig(M=4, K=8, L=4, snr_db=10.0, dither=(0, 0.05, 0.11, 0.3)), 3_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=30.0, dither="ramp"), 1_000),
            (SystemConfig(M=4, K=64, L=200, snr_db=0.0), 300),
            # every ratio is 10 bits up to rounding, so the error bar is of
            # rounding size, not of mi's
            (SystemConfig(M=4, K=64, L=6, snr_db=20.0, theta0=0.7), 5_000),
            # three batches, the last ragged or not, each looking its rows up
            # in the rows the batches before it scored
            (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 17_000),
            (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 20_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 17_000),
            (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 20_000),
            (SystemConfig(M=4, K=8, L=4, snr_db=10.0, dither=(0, 0.05, 0.11, 0.3)), 17_000),
            # pinned rows of S keyed by three int64 words and of z by two
            (SystemConfig(M=2, K=4, L=64, snr_db=8.0, dither="ramp"), 17_000),
            # 70 bits of gaps: bracelets keyed as plain rows, one int64 word
            (SystemConfig(M=4, K=64, L=10, snr_db=6.0), 17_000),
        ],
        ids=[
            "k64", "k64-12dB-theta0", "ramp", "tuple", "ramp-30dB", "k64-L200",
            "k64-20dB-zero-variance", "k64-3-batches-ragged", "k64-3-batches",
            "ramp-3-batches-ragged", "ramp-3-batches", "tuple-3-batches",
            "ramp-L64-3-batches", "k64-L10-3-batches",
        ],
    )
    def test_deduplicated_rows_match_per_block_products(self, cfg, trials):
        # the estimator scores each bracelet of pinned rows once (each
        # distinct pinned row under dither, or past 63 bits of gaps at L=200)
        # over the whole call; here every sampled block gets its own
        # phase-grid product, on the same draws
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
        # two-pass: ratios equal up to rounding give a variance of rounding
        # size, where E[r^2] - mi^2 leaves a residue of mi^2's rounding
        se = math.sqrt(((ratio - mi) ** 2).mean() / trials)

        assert got.mi == pytest.approx(mi, rel=1e-12)
        assert got.h_cond == pytest.approx(np.concatenate(conds).mean(), rel=1e-12)
        assert got.h_out == pytest.approx(np.concatenate(outs).mean(), rel=1e-12)
        # the estimator sums squares about a shift, batch by batch, which
        # moves the variance by more than the means' few ulps
        assert got.error_bar == pytest.approx(se, rel=1e-9, abs=1e-12)
        assert got_rng.bit_generator.state == rng.bit_generator.state


def _replayed_scored_rows(cfg: SystemConfig, trials: int, seed: int, batch: int) -> dict:
    """Rows mutual_information_mc(cfg, trials, default_rng(seed)) scores
    with batches and memos of batch rows, on each side by period (K for the
    conditional rows, a for the output rows), replayed from its draws: a
    batch scores the distinct keys its side's memo does not hold, and the
    memo keeps the first of them in key order until it holds batch rows."""
    rng = np.random.default_rng(seed)
    held = {cfg.K: set(), cfg.a: set()}
    scored = {cfg.K: 0, cfg.a: 0}
    for lo in range(0, trials, batch):
        X = rng.integers(0, cfg.M, size=(min(batch, trials - lo), cfg.L))
        _, Z = sample_blocks(X, cfg, rng)
        for rows, period in ((Z - cfg.a * X, cfg.K), (Z, cfg.a)):
            pinned = (rows - rows[:, :1]) % period
            if cfg.is_dithered:
                keys = _distinct_rows(pinned, period)[2]
            else:
                keys = _bracelet_rows(np.sort(pinned, axis=1), period)[2]
            # int64 keys as ints, void keys as bytes: both sort as numpy does
            new = sorted(set(keys.tolist()) - held[period])
            scored[period] += len(new)
            held[period].update(new[: batch - len(held[period])])
    return scored


@pytest.mark.parametrize(
    "cfg, trials, batch",
    [
        (SystemConfig(M=4, K=8, L=3, snr_db=6.0), 20_000, _MC_BATCH),
        (SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp"), 20_000, _MC_BATCH),
        (SystemConfig(M=2, K=4, L=64, snr_db=8.0, dither="ramp"), 17_000, _MC_BATCH),
        # batches of 500 and memos of 500 rows: the first batches fill the
        # conditional memo, and later ones score again what it could not keep
        (SystemConfig(M=4, K=16, L=5, snr_db=6.0, dither="ramp"), 2_300, 500),
        (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 2_300, 500),
    ],
    ids=["k8-L3", "ramp-k8-L3", "ramp-L64-void-keys", "ramp-k16-capped", "k64-capped"],
)
def test_mc_scores_each_distinct_row_once_per_call(cfg, trials, batch, monkeypatch):
    # counted through capacity's _log_grid_mean, each side by its tables'
    # rows: K for the kernels, a for the input averages
    monkeypatch.setattr(capacity, "_MC_BATCH", batch)
    scored = {cfg.K: 0, cfg.a: 0}

    def counting(tables, S):
        scored[len(tables[0])] += len(S)
        return _log_grid_mean(tables, S)

    monkeypatch.setattr(capacity, "_log_grid_mean", counting)
    mutual_information_mc(cfg, trials, np.random.default_rng(5))
    assert scored == _replayed_scored_rows(cfg, trials, 5, batch)


def test_mc_leaves_no_state_for_the_next_call():
    # the thread's workspace and kernel caches carry over between calls,
    # and memos end with their call: an SER run and an exact sum in between
    # leave the estimate unchanged to the bit
    cfg = SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp")
    first = mutual_information_mc(cfg, 9_000, np.random.default_rng(3))
    run_ser(SystemConfig(M=4, K=12, L=8, snr_db=11.0), 5_000, seed=4)
    mutual_information(SystemConfig(M=4, K=12, L=6, snr_db=6.0))
    again = mutual_information_mc(cfg, 9_000, np.random.default_rng(3))
    assert repr(first) == repr(again)


def _pinned_class_entropy(table: np.ndarray, alphabet: int, L: int, scale: float) -> float:
    """-sum of scale * multiplicity * p * log2 p over the pinned classes of
    output_class_arrays, one phase-grid product per class."""
    reps, mult = output_class_arrays(alphabet, L)
    p = np.exp(_log_grid_mean([table] * L, reps))
    return float(-(scale * mult.astype(float) * _entropy_terms(p)).sum())


@pytest.mark.parametrize(
    "M, K, L, snr_db, theta0",
    [
        (2, 4, 6, 0.0, 0.0),
        (2, 6, 7, 20.0, 0.3),
        (2, 8, 5, 40.0, 1.1),
        (2, 4, 22, 6.0, 0.3),
        (4, 8, 4, 0.0, 1.1),
        (4, 8, 6, 6.0, 0.3),
        (4, 12, 6, 12.0, 1.1),
        (4, 12, 5, 30.0, 0.3),
        (4, 16, 5, 40.0, 0.0),
        (8, 16, 4, 20.0, 0.3),
        (8, 24, 3, 6.0, 1.1),
        (8, 16, 3, 40.0, 0.0),
    ],
)
def test_bracelet_sums_match_pinned_class_sums(M, K, L, snr_db, theta0):
    # each bracelet stands for the pinned classes its rotations and its
    # reflection z -> -z-1 reach; K=4 L=22 needs 66 bits of gaps, so its
    # H(Z | X) keeps one product per pinned class
    cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, theta0=theta0)
    table = kernel_for(cfg).table
    h_cond = _pinned_class_entropy(table, K, L, K)
    mixed = _fold_inputs(table, M, np.mean)
    h_out = _pinned_class_entropy(mixed, cfg.a, L, cfg.a * M**L)
    got = mutual_information(cfg)
    assert got.h_cond == pytest.approx(h_cond, rel=1e-12)
    assert got.h_out == pytest.approx(h_out, rel=1e-12)
    assert got.mi == pytest.approx(h_out - h_cond, rel=1e-12)


@pytest.mark.parametrize("M, K", [(2, 2), (4, 8), (4, 12), (4, 64), (8, 16)])
def test_pin_matches_plain_mod(M, K):
    # the MC estimator pins S = z - a*x, in (-K, K), mod K and z mod a by
    # one lookup; both ends S = -(K-1) and K-1 occur, first and later
    rng = np.random.default_rng(K)
    S = rng.integers(-(K - 1), K, size=(500, 5))
    S[:4] = [[-(K - 1)] * 5, [K - 1] * 5, [-(K - 1)] + [K - 1] * 4, [K - 1] + [-(K - 1)] * 4]
    for period in (K, K // M):
        # _pin writes into out and overwrites its S
        got = _pin(S.copy(), K, period, np.empty_like(S))
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


# ---- batches drawn ahead -------------------------------------------------


def _mc_on_both_paths(cfg, trials, seed, monkeypatch):
    """(repr of the result, final Generator state) with batch j + 1 drawn on
    a helper thread while batch j is scored (two usable CPUs), and with
    every draw inline (one)."""
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(capacity, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(seed)
        runs.append((repr(mutual_information_mc(cfg, trials, rng)), rng.bit_generator.state))
    return runs


@pytest.mark.parametrize(
    "cfg, trials, batch",
    [
        # capacity_mix's two Monte Carlo configs
        (SystemConfig(M=4, K=64, L=6, snr_db=6.0), 20_000, _MC_BATCH),
        (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 20_000, _MC_BATCH),
        (SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"), 20_001, _MC_BATCH),
        (SystemConfig(M=4, K=12, L=5, snr_db=8.0), 5_000, 500),
        (SystemConfig(M=2, K=4, L=64, snr_db=8.0, dither="ramp"), 3_000, 1_000),
        (SystemConfig(M=4, K=8, L=200, snr_db=6.0, dither="ramp"), 2_500, 1_000),
    ],
    ids=["k64", "ramp-k8", "ragged", "many-batches", "void-keys", "log-path"],
)
def test_drawing_ahead_equals_drawing_inline(cfg, trials, batch, monkeypatch):
    monkeypatch.setattr(capacity, "_MC_BATCH", batch)
    ahead, inline = _mc_on_both_paths(cfg, trials, 7, monkeypatch)
    assert ahead == inline


def test_a_batch_redraws_before_the_next_batch_draws(monkeypatch):
    # block 0 of the second batch, whose phases and noise the helper drew,
    # gets noise that cancels its clean sample at position 0 to exactly
    # zero, so the sampler redraws that noise from the Generator; the next
    # batch's draws must come after the redraw on both paths
    cfg = SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp")
    monkeypatch.setattr(capacity, "_MC_BATCH", 500)
    for zero in (True, False):
        batches = []

        def sample(X, config, rng, work, draws):
            # four batches per call, two calls
            batches.append(len(X))
            if zero and len(batches) % 4 == 2:
                _, rot, noise = draws
                c = modulate(X[0], config)[0]
                er, ei = rot.real[0], rot.imag[0]
                noise[0, 0, 0] = -(c.real * er - c.imag * ei)
                noise[1, 0, 0] = -(c.real * ei + c.imag * er)
            return _sample_into(X, config, rng, work, draws)

        monkeypatch.setattr(capacity, "_sample_into", sample)
        runs = _mc_on_both_paths(cfg, 2_000, 3, monkeypatch)
        assert batches == [500] * 8
        assert runs[0] == runs[1]
        if zero:
            forced = runs[0]
    # the forced zero did make a redraw: the stream moved on
    assert forced[1] != runs[0][1]


def test_a_draw_that_raises_on_the_helper_ends_it(monkeypatch):
    # batch 0 is drawn on the calling thread and batch 1 on the helper,
    # where the draw fails: the error propagates and the helper thread ends
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: 2)
    threads = []

    def draw(*args):
        threads.append(threading.get_ident())
        if len(threads) == 2:
            raise RuntimeError("draw failed")
        return _draw_into(*args)

    monkeypatch.setattr(capacity, "_draw_into", draw)
    cfg = SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp")
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        mutual_information_mc(cfg, 3 * _MC_BATCH, np.random.default_rng(1))
    assert threads[0] == threading.get_ident() != threads[1]
    assert len(threads) == 2
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "trials, cpus, helpers",
    [(_MC_BATCH, 2, 0), (_MC_BATCH + 1, 1, 0), (_MC_BATCH + 1, 2, 1), (3 * _MC_BATCH, 2, 1)],
    ids=["one-batch", "one-cpu", "two-batches", "three-batches"],
)
def test_helper_only_with_batches_and_cpus_to_spare(trials, cpus, helpers, monkeypatch):
    # one helper per call, given more than one batch and more than one
    # usable CPU; it draws every batch but the first
    made = []

    class RecordedPool(capacity.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(capacity, "ThreadPoolExecutor", RecordedPool)
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    mutual_information_mc(cfg, trials, np.random.default_rng(2))
    batches = -(-trials // _MC_BATCH)
    assert [(p._max_workers, p.submitted) for p in made] == [(1, batches - 1)] * helpers
    assert threading.active_count() == before


def test_mc_drops_long_block_buffers_when_it_returns():
    # ramp K=8 L=200 grows its noise, symbols' sectors and pin planes to
    # 67 MB; on return no buffer above core._KEPT_BYTES is kept, and a
    # repeat call on the same thread is bitwise equal. A fresh thread
    # holds only this test's buffers
    cfg = SystemConfig(M=4, K=8, L=200, snr_db=6.0, dither="ramp")
    seen = []

    def run():
        seen.append(repr(mutual_information_mc(cfg, 20_000, np.random.default_rng(13))))
        seen.append(max(v.size for v in _thread_workspace()._bytes.values()))
        seen.append(repr(mutual_information_mc(cfg, 20_000, np.random.default_rng(13))))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(seen) == 3
    first, largest, again = seen
    assert largest <= _KEPT_BYTES
    assert again == first
