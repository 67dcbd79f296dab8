"""GLRT demodulation: crossover geometry, candidate sweep, brute oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import (
    SystemConfig,
    brute_force_glrt,
    crossover_angles,
    glrt_demodulate,
    glrt_demodulate_dithered,
    glrt_metric,
    kernel_bank_for,
    kernel_for,
    sample_blocks,
)
from phaseq import demod
from phaseq.demod import (
    _arc_probabilities,
    _decide,
    _evaluate_candidates,
    _scan_bank,
    _scan_grid,
    _sweep_rows,
    demodulate_rows,
)

TWO_PI = 2.0 * math.pi


def up_to_constant_addition(x, y, M):
    x = np.asarray(x)
    y = np.asarray(y)
    return any(np.array_equal((x + c) % M, y) for c in range(M))


# ---- crossover angles ----------------------------------------------------


class TestCrossoverAngles:
    def test_known_angles_qpsk8(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        # sector midpoints pi/8 * (2z+1); alpha = midpoint - pi/4 mod pi/2
        angles = crossover_angles([1, 0, 5], cfg)
        assert angles == pytest.approx([math.pi / 8, 3 * math.pi / 8])

    def test_equal_sectors_collapse_to_one_angle(self):
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=6.0)
        angles = crossover_angles([2, 2, 2, 2], cfg)
        assert angles.shape == (1,)

    def test_angles_live_in_half_open_window(self):
        cfg = SystemConfig(M=4, K=12, L=5, snr_db=6.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.integers(0, 12, size=5)
            angles = crossover_angles(z, cfg)
            assert np.all(angles > 0) and np.all(angles <= TWO_PI / 4 + 1e-15)
            assert np.all(np.diff(angles) > 0)

    def test_validate_against_likelihood_roots(self):
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=6.0, theta0=0.3)
        crossover_angles([0, 4, 7], cfg, validate=True)
        dithered = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp")
        crossover_angles([1, 3, 6], dithered, validate=True)

    def test_dither_separates_coincident_angles(self):
        plain = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        dithered = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp")
        z = [2, 2, 2]
        assert crossover_angles(z, plain).size == 1
        assert crossover_angles(z, dithered).size == 3

    @pytest.mark.parametrize("dither", ["none", "ramp"])
    def test_same_angles_as_the_sweep(self, dither):
        # one dedupe rule: the angles of a block are the ones its sweep
        # record splits the period at
        for M, K, L, theta0 in [(4, 8, 6, 0.0), (2, 32, 5, 0.3), (8, 16, 7, 0.1)]:
            cfg = SystemConfig(M=M, K=K, L=L, snr_db=10.0, theta0=theta0, dither=dither)
            Z = np.random.default_rng(K + L).integers(0, K, size=(40, L))
            records = demodulate_rows(Z, cfg, kernel_bank_for(cfg))
            for z, rec in zip(Z, records):
                np.testing.assert_array_equal(crossover_angles(z, cfg), rec.crossovers)

    def test_rejects_bad_input(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="L="):
            crossover_angles([0, 1, 2], cfg)
        with pytest.raises(ValueError, match="0..K-1"):
            crossover_angles([0, 9], cfg)


# ---- the K = 2M ambiguity -------------------------------------------------


class TestBuiltInAmbiguity:
    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 20.0])
    def test_two_exactly_tied_candidates(self, snr_db):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=snr_db, theta0=math.pi / 4)
        res = glrt_demodulate([1, 0], cfg)
        assert len(res.candidates) == 2
        assert {c.x for c in res.candidates} == {(0, 0), (0, 3)}
        assert res.tie
        assert res.tie_gap is not None and res.tie_gap < 1e-6
        stars = sorted(c.phi_star for c in res.candidates)
        assert stars[0] == pytest.approx(0.0, abs=1e-3)
        assert stars[1] == pytest.approx(math.pi / 4, abs=1e-3)

    def test_ramp_dither_breaks_the_tie(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=10.0, theta0=math.pi / 4, dither="ramp")
        res = glrt_demodulate_dithered([1, 0], cfg)
        assert not res.tie
        assert res.tie_gap is not None and res.tie_gap > 1e-3


# ---- agreement with the brute-force oracle ---------------------------------


class TestBruteForceAgreement:
    def test_undithered_agreement_on_random_draws(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=8.0)
        rng = np.random.default_rng(42)
        for _ in range(60):
            x = rng.integers(0, 4, size=3)
            _, Z = sample_blocks(x[None, :], cfg, rng)
            fast = glrt_demodulate(Z[0], cfg)
            oracle = brute_force_glrt(Z[0], cfg)
            if oracle.tie:
                continue
            assert up_to_constant_addition(fast.winner, oracle.winner, 4)

    def test_dithered_agreement_on_random_draws(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=8.0, dither="ramp")
        rng = np.random.default_rng(43)
        disagreements = 0
        for _ in range(60):
            x = rng.integers(0, 4, size=3)
            _, Z = sample_blocks(x[None, :], cfg, rng)
            fast = glrt_demodulate_dithered(Z[0], cfg)
            oracle = brute_force_glrt(Z[0], cfg)
            if oracle.tie:
                continue
            if not up_to_constant_addition(fast.winner, oracle.winner, 4):
                disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize("dither", [None, "ramp"])
    @pytest.mark.parametrize("M,K,L", [(2, 4, 6), (2, 6, 5), (2, 8, 4), (8, 16, 3), (8, 24, 3)])
    def test_agreement_beyond_qpsk_and_20_db(self, M, K, L, dither):
        rng = np.random.default_rng(M * 1000 + K * 10 + L)
        checked = 0
        for snr_db in (0.0, 10.0, 20.0, 28.0, 35.0):
            cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, dither=dither)
            demod = glrt_demodulate_dithered if cfg.is_dithered else glrt_demodulate
            for _ in range(8):
                x = rng.integers(0, M, size=L)
                _, Z = sample_blocks(x[None, :], cfg, rng)
                fast = demod(Z[0], cfg)
                oracle = brute_force_glrt(Z[0], cfg)
                if fast.tie or oracle.tie:
                    continue
                checked += 1
                assert up_to_constant_addition(fast.winner, oracle.winner, M), (snr_db, Z[0])
        assert checked >= 20

    @settings(max_examples=40, deadline=None)
    @given(
        M_L=st.sampled_from([(2, 3), (2, 5), (2, 8), (4, 3), (4, 5), (8, 3), (8, 4)]),
        ratio=st.sampled_from([2, 3, 8]),
        snr_db=st.floats(min_value=8.0, max_value=40.0),
        dithered=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sweep_matches_oracle_winner_and_tie_flag(self, M_L, ratio, snr_db, dithered, seed):
        # the winner lies in the oracle's tie set, up to constant addition,
        # and both flag a tie or neither does
        M, L = M_L
        cfg = SystemConfig(
            M=M, K=ratio * M, L=L, snr_db=snr_db, dither="ramp" if dithered else None
        )
        rng = np.random.default_rng(seed)
        _, Z = sample_blocks(rng.integers(0, M, size=(1, L)), cfg, rng)
        demod = glrt_demodulate_dithered if dithered else glrt_demodulate
        fast = demod(Z[0], cfg)
        oracle = brute_force_glrt(Z[0], cfg)
        assert fast.tie == oracle.tie
        best = max(c.metric for c in oracle.candidates)
        tied = [c.x for c in oracle.candidates if abs(c.metric / best - 1.0) <= 1e-6]
        assert any(up_to_constant_addition(fast.winner, x, M) for x in tied)

    def test_candidate_sweep_is_sufficient(self):
        # the brute winner's orbit must appear among the sweep's candidates
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=6.0)
        rng = np.random.default_rng(44)
        for _ in range(30):
            z = rng.integers(0, 12, size=3)
            fast = glrt_demodulate(z, cfg)
            oracle = brute_force_glrt(z, cfg)
            found = any(
                up_to_constant_addition(c.x, oracle.winner, 4) for c in fast.candidates
            )
            assert found


# ---- the envelope scan against the full-period scan --------------------------


class TestEnvelopeScan:
    @pytest.mark.parametrize(
        "M,K,L,snr_db,dither",
        [
            (2, 4, 6, 8.0, None),
            (2, 32, 5, 20.0, "ramp"),
            (4, 8, 8, 14.0, "ramp"),
            (4, 12, 8, 11.0, None),
            (4, 64, 6, 10.0, None),
            (8, 16, 5, 18.0, None),
            (8, 24, 4, 30.0, "ramp"),
        ],
    )
    def test_decisions_match_full_period_scan(self, M, K, L, snr_db, dither):
        # one envelope scan per row against a full 2*pi scan of every
        # candidate: same winners, tie flags and tie sets; the winner's metric
        # and phase are the full-period ones (candidate 0's wrap piece maps
        # back by 2*pi/M) and no candidate scores above its own
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, dither=dither)
        kernels = kernel_bank_for(cfg)
        rng = np.random.default_rng(K * 100 + L)
        _, Z = sample_blocks(rng.integers(0, M, size=(300, L)), cfg, rng)
        rows = Z if cfg.is_dithered else np.sort(Z % cfg.a, axis=1)
        for z, rec in zip(rows, demodulate_rows(rows, cfg, kernels)):
            valid = np.ones((1, rec.candidates.shape[0]), dtype=bool)
            full, phi = _evaluate_candidates(z[None, :], rec.candidates[None], valid, cfg)
            winner, ties, _ = _decide(full, valid)
            assert rec.winner_index == winner[0]
            assert rec.tie == (ties[0].sum() > 1)
            np.testing.assert_array_equal(rec.tie_indices, np.flatnonzero(ties[0]))
            w = rec.winner_index
            assert rec.log_metrics[w] == pytest.approx(full[0, w], rel=1e-12)
            assert rec.phi_stars[w] == phi[0, w]
            assert np.all(rec.log_metrics <= full[0] + 1e-12 * np.abs(full[0]))

    def test_segment_without_grid_point(self):
        # two crossovers 0.11 scan steps apart, both between grid points 134
        # and 135 of the 720-point scan: the candidate between them is scored
        # by its own metric at those two points, never by the neighbouring
        # segments' envelope
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=10.0, dither=(0.002, 0.003, 0.3))
        z = np.array([2, 2, 2])
        step = TWO_PI / 720
        angles = crossover_angles(z, cfg)
        assert np.ceil(angles[1] / step) == np.ceil(angles[2] / step) == 135
        rec = demodulate_rows(z[None, :], cfg, kernel_bank_for(cfg))[0]
        own = [
            sum(
                scan[1][(z[l] - cfg.a * rec.candidates[2, l]) % cfg.K, i]
                for l, scan in enumerate(_scan_bank(cfg))
            )
            for i in (134, 135)
        ]
        assert rec.log_metrics[2] == max(own)
        assert rec.phi_stars[2] == pytest.approx((134 + int(np.argmax(own))) * step)
        res = glrt_demodulate_dithered(z, cfg)
        for c in res.candidates:
            assert 0.0 < c.metric <= 1.0
        assert up_to_constant_addition(res.winner, brute_force_glrt(z, cfg).winner, 4)


# ---- structure and invariants ----------------------------------------------


class TestSweepStructure:
    def test_noise_free_draw_recovers_input(self):
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=40.0)
        rng = np.random.default_rng(9)
        x = np.array([2, 0, 3, 1])
        _, Z = sample_blocks(x[None, :], cfg, rng, phi=math.pi / 8)
        res = glrt_demodulate(Z[0], cfg)
        assert up_to_constant_addition(res.winner, x, 4)

    def test_candidate_count_bounds(self):
        plain = SystemConfig(M=4, K=12, L=5, snr_db=6.0)
        dithered = SystemConfig(M=4, K=12, L=5, snr_db=6.0, dither="ramp")
        rng = np.random.default_rng(10)
        for _ in range(20):
            z = rng.integers(0, 12, size=5)
            res = glrt_demodulate(z, plain)
            assert 1 <= len(res.candidates) <= plain.a
            resd = glrt_demodulate_dithered(z, dithered)
            assert 1 <= len(resd.candidates) <= dithered.L + 1

    def test_winner_has_top_metric(self):
        cfg = SystemConfig(M=4, K=12, L=4, snr_db=6.0)
        rng = np.random.default_rng(11)
        for _ in range(15):
            z = rng.integers(0, 12, size=4)
            res = glrt_demodulate(z, cfg)
            best = max(c.metric for c in res.candidates)
            winner_metric = next(c.metric for c in res.candidates if c.x == res.winner)
            assert winner_metric == pytest.approx(best, rel=1e-9)
            for c in res.candidates:
                assert 0.0 < c.metric <= 1.0
                assert 0.0 <= c.phi_star < TWO_PI

    def test_reduction_identity(self):
        # demodulating z directly must match solving on residues + adding q
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        rng = np.random.default_rng(12)
        for _ in range(25):
            z = rng.integers(0, 8, size=3)
            via_reduction = glrt_demodulate(z, cfg)
            oracle = brute_force_glrt(z, cfg)
            if oracle.tie:
                continue
            assert up_to_constant_addition(via_reduction.winner, oracle.winner, 4)

    def test_zero_dither_path_matches_plain(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = rng.integers(0, 8, size=3)
            a = glrt_demodulate(z, cfg)
            b = glrt_demodulate_dithered(z, cfg)
            assert up_to_constant_addition(a.winner, b.winner, 4)
            ga = sorted(c.metric for c in a.candidates)
            gb = sorted(c.metric for c in b.candidates)
            assert ga[-1] == pytest.approx(gb[-1], rel=1e-9)

    def test_constant_addition_leaves_metric_invariant(self):
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=6.0)
        z = np.array([4, 0, 10])
        base = glrt_metric(z, [1, 0, 2], cfg)
        for c in range(1, 4):
            shifted = glrt_metric(z, (np.array([1, 0, 2]) + c) % 4, cfg)
            assert shifted.metric == pytest.approx(base.metric, rel=1e-10)

    def test_permutation_equivariance(self):
        # K = 2M ties make the winner order-dependent, so compare at the
        # metric level: the permuted original winner must score the permuted
        # problem's top metric
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=6.0)
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = rng.integers(0, 8, size=4)
            perm = rng.permutation(4)
            res = glrt_demodulate(z, cfg)
            res_p = glrt_demodulate(z[perm], cfg)
            top = max(c.metric for c in res.candidates)
            top_p = max(c.metric for c in res_p.candidates)
            assert top_p == pytest.approx(top, rel=1e-9)
            carried = glrt_metric(z[perm], np.asarray(res.winner)[perm], cfg)
            assert carried.metric == pytest.approx(top_p, rel=1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=12.0),
            SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
            SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither=(0.0, 0.0, 0.3, 0.3)),
            SystemConfig(M=2, K=4, L=6, snr_db=8.0),
            SystemConfig(M=8, K=16, L=5, snr_db=18.0, dither="ramp"),
        ],
        ids=["undithered", "ramp", "tuple", "m2", "m8-ramp"],
    )
    def test_records_match_sweep_arrays(self, cfg):
        # demodulate_rows cuts its records from the array sweep that sim
        # scores with: row by row they hold the same bits, and a tie gap is
        # None exactly where the sweep holds NaN. The single-block entry
        # points build the same decision from their own one-row sweep
        kernels = kernel_bank_for(cfg)
        rng = np.random.default_rng(cfg.K + cfg.L)
        _, Z = sample_blocks(rng.integers(0, cfg.M, size=(300, cfg.L)), cfg, rng)
        # a constant undithered row has one crossover, hence one candidate
        Z = np.concatenate([Z, np.zeros((1, cfg.L), dtype=Z.dtype)])
        rows = Z if cfg.is_dithered else Z % cfg.a
        sweep = _sweep_rows(rows, cfg)
        records = demodulate_rows(rows, cfg, kernels)
        assert len(records) == rows.shape[0]
        for i, rec in enumerate(records):
            d = sweep.n_distinct[i]
            assert rec.candidates.tobytes() == sweep.candidates[i, :d].tobytes()
            assert rec.log_metrics.tobytes() == sweep.log_metrics[i, :d].tobytes()
            assert rec.phi_stars.tobytes() == sweep.phi_stars[i, :d].tobytes()
            assert rec.crossovers.tobytes() == sweep.edges[i, :d].tobytes()
            assert rec.winner_index == sweep.winner[i]
            np.testing.assert_array_equal(rec.tie_indices, np.flatnonzero(sweep.ties[i]))
            assert rec.tie == (sweep.ties[i].sum() > 1)
            if math.isnan(sweep.tie_gap[i]):
                assert rec.tie_gap is None
            else:
                assert rec.tie_gap == sweep.tie_gap[i]
            assert np.all(sweep.log_metrics[i, d:] == -np.inf)
            assert not sweep.ties[i, d:].any()
        one = sweep.n_distinct == 1
        assert np.array_equal(np.isnan(sweep.tie_gap), one)
        for z, r, rec in zip(Z, rows, records):
            results = [(glrt_demodulate_dithered(r, cfg), 0)]
            if not cfg.is_dithered:
                # the residue row's record, plus q = z div a
                results.append((glrt_demodulate(z, cfg), z // cfg.a))
            for res, q in results:
                X = (rec.candidates + q) % cfg.M
                assert res.winner == tuple(X[rec.winner_index].tolist())
                assert (res.tie, res.tie_gap) == (rec.tie, rec.tie_gap)
                assert res.crossovers == tuple(rec.crossovers.tolist())
                assert [c.x for c in res.candidates] == [tuple(x) for x in X.tolist()]
                assert [c.phi_star for c in res.candidates] == rec.phi_stars.tolist()
                metrics = [math.exp(v) for v in rec.log_metrics.tolist()]
                assert [c.metric for c in res.candidates] == metrics
        if not cfg.is_dithered:
            assert one.any()
        if cfg.K == 2 * cfg.M and not cfg.is_dithered:
            assert any(rec.tie for rec in records)

    def test_scan_tables_fill_once_per_position(self, monkeypatch):
        # 200 ramp positions, each with its own rotation, outnumber the 128
        # entries of _scan_grid's cache; the config's bank holds all of them,
        # so two sweeps fill each position's table once
        cfg = SystemConfig(M=4, K=8, L=200, snr_db=7.25, dither="ramp")
        calls = [0]

        def counting_fill(*args):
            calls[0] += 1
            return _arc_probabilities(*args)

        monkeypatch.setattr(demod, "_arc_probabilities", counting_fill)
        _scan_bank.cache_clear()
        _scan_grid.cache_clear()
        rng = np.random.default_rng(5)
        for _ in range(2):
            _sweep_rows(rng.integers(0, cfg.K, size=(20, cfg.L)), cfg)
        assert calls[0] == cfg.L


class TestPermutationSymmetry:
    # Undithered, every position shares one kernel, so permuting a residue
    # row permutes its records and nothing else; the SER engine relies on
    # this to demodulate sorted rows only.
    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("ratio", [2, 3, 16])
    def test_permuted_rows_give_permuted_records(self, M, ratio):
        rng = np.random.default_rng(10 * M + ratio)
        for L, snr_db in [(2, 0.0), (4, 10.0), (6, 20.0), (8, 30.0)]:
            cfg = SystemConfig(M=M, K=ratio * M, L=L, snr_db=snr_db)
            kernels = (kernel_for(cfg),) * L
            R = rng.integers(0, cfg.a, size=(12, L))
            base = demodulate_rows(R, cfg, kernels)
            for _ in range(3):
                perm = rng.permutation(L)
                for rec, ref in zip(demodulate_rows(R[:, perm], cfg, kernels), base):
                    np.testing.assert_array_equal(rec.crossovers, ref.crossovers)
                    np.testing.assert_array_equal(rec.candidates, ref.candidates[:, perm])
                    assert rec.winner_index == ref.winner_index
                    assert rec.tie == ref.tie
                    np.testing.assert_array_equal(rec.tie_indices, ref.tie_indices)
                    np.testing.assert_allclose(rec.log_metrics, ref.log_metrics, rtol=1e-12)

    def test_permuted_observation_gives_permuted_winner(self):
        rng = np.random.default_rng(16)
        for M, K, L, snr_db in [(2, 32, 8, 10.0), (4, 12, 8, 11.0), (8, 24, 5, 20.0)]:
            cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db)
            for _ in range(8):
                z = rng.integers(0, K, size=L)
                perm = rng.permutation(L)
                res = glrt_demodulate(z, cfg)
                permuted = glrt_demodulate(z[perm], cfg)
                assert permuted.winner == tuple(np.asarray(res.winner)[perm])

    def test_deep_tail_row_is_order_independent(self):
        # Two adjacent grid points tie for the best candidate of this row, in
        # the deep tail of g; a phase refine through a spline that is
        # inaccurate there once made the winner depend on the order of
        # positions.
        cfg = SystemConfig(M=2, K=32, L=4, snr_db=20.0)
        z = np.array([5, 0, 0, 11])
        outcomes = set()
        for perm in itertools.permutations(range(4)):
            perm = np.array(perm)
            res = glrt_demodulate(z[perm], cfg)
            winner = np.empty(4, dtype=np.int64)
            winner[perm] = res.winner
            outcomes.add((tuple((winner - winner[0]) % cfg.M), res.tie))
        brute = brute_force_glrt(z, cfg)
        assert outcomes == {(brute.winner, brute.tie)}
        assert outcomes == {((0, 0, 0, 1), False)}


class TestTieHandling:
    def test_rng_resolution_stays_in_tie_set(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=10.0, theta0=math.pi / 4)
        tied = {(0, 0), (0, 3)}
        seen = set()
        for seed in range(12):
            res = glrt_demodulate([1, 0], cfg, rng=np.random.default_rng(seed))
            assert res.winner in tied
            seen.add(res.winner)
        assert seen == tied  # both outcomes occur across seeds

    def test_deterministic_without_rng(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=10.0, theta0=math.pi / 4)
        winners = {glrt_demodulate([1, 0], cfg).winner for _ in range(5)}
        assert len(winners) == 1

    def test_brute_force_tie_flag_is_cross_orbit(self):
        # random dithered draws: the orbit quotient means no spurious ties
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=10.0, dither="ramp")
        rng = np.random.default_rng(15)
        flagged = 0
        for _ in range(25):
            x = rng.integers(0, 4, size=3)
            _, Z = sample_blocks(x[None, :], cfg, rng)
            if brute_force_glrt(Z[0], cfg).tie:
                flagged += 1
        assert flagged <= 2

    def test_all_minus_inf_row_ties_every_candidate(self):
        # at 100 dB the dither leaves the consistent phase window of z = (0, 0)
        # and (0, 2) with no scan point, so every metric underflows to -inf:
        # each candidate ties with gap 0 (not nan) and the tie is reported
        step = TWO_PI / 720
        dither = (0.3 * step, 0.3 * step + TWO_PI / 8 - 1e-3)
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=100.0, dither=dither)
        for z in ([0, 0], [0, 2]):
            for res in (glrt_demodulate_dithered(z, cfg), brute_force_glrt(z, cfg)):
                assert res.tie
                assert res.tie_gap == 0.0
                assert all(c.metric == 0.0 for c in res.candidates)
            rec = demodulate_rows(np.array([z]), cfg, kernel_bank_for(cfg))[0]
            np.testing.assert_array_equal(rec.tie_indices, np.arange(len(rec.candidates)))


class TestValidation:
    def test_dithered_config_rejected_by_reduced_path(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
        with pytest.raises(ValueError, match="undithered"):
            glrt_demodulate([0, 1], cfg)

    def test_wrong_length_and_range(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="L="):
            glrt_demodulate([0], cfg)
        with pytest.raises(ValueError, match="0..K-1"):
            glrt_demodulate([0, 8], cfg)
        with pytest.raises(ValueError, match="L="):
            glrt_demodulate_dithered([0, 1, 2], cfg)
        with pytest.raises(ValueError, match="0..K-1"):
            brute_force_glrt([9, 0], cfg)
        with pytest.raises(ValueError, match="0..K-1"):
            glrt_metric([9, 0], [0, 0], cfg)
        with pytest.raises(ValueError, match="0..M-1"):
            glrt_metric([1, 0], [0, 7], cfg)
        with pytest.raises(ValueError, match="L="):
            glrt_metric([1, 0, 2], [0, 0], cfg)
        with pytest.raises(ValueError, match="0..K-1"):
            crossover_angles([0, -1], cfg)

    def test_non_integer_inputs_rejected(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        dithered = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
        for z in ([1.7, 0], [0, 0.5], [np.nan, 0], [np.inf, 0], ["1", "0"], [True, False]):
            for call in (
                lambda z: glrt_demodulate(z, cfg),
                lambda z: glrt_demodulate_dithered(z, dithered),
                lambda z: brute_force_glrt(z, cfg),
                lambda z: glrt_metric(z, [0, 0], cfg),
                lambda z: crossover_angles(z, cfg),
            ):
                with pytest.raises(ValueError, match="integers"):
                    call(z)
        for x in ([0.9, 0], [0, -0.5], [np.nan, 0]):
            with pytest.raises(ValueError, match="integers"):
                glrt_metric([1, 0], x, cfg)

    def test_integral_floats_and_numpy_integers_accepted(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        ref = glrt_demodulate([5, 2], cfg)
        for z in ([5.0, 2.0], np.array([5, 2], dtype=np.uint8), np.array([5, 2], dtype=np.int16)):
            assert glrt_demodulate(z, cfg) == ref
        assert brute_force_glrt([5.0, 2], cfg) == brute_force_glrt([5, 2], cfg)
        np.testing.assert_array_equal(
            crossover_angles([5.0, 2.0], cfg), crossover_angles([5, 2], cfg)
        )
        metric = glrt_metric([5, 2], [1, 3], cfg)
        assert glrt_metric([5, 2], [1.0, 3.0], cfg) == metric
        z32, x16 = np.array([5, 2], dtype=np.int32), np.array([1, 3], dtype=np.uint16)
        assert glrt_metric(z32, x16, cfg) == metric

    def test_demodulate_rows_rejects_foreign_kernels(self):
        # another SNR, theta0 or phase grid would score the rows with the
        # wrong tables; kernels equal in value to the config's own pass
        cfg = SystemConfig(M=4, K=12, L=6, snr_db=6.0)
        R = np.array([[0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2]])
        for other in (replace(cfg, snr_db=12.0), replace(cfg, theta0=0.3), replace(cfg, L=8)):
            with pytest.raises(ValueError, match="config's own"):
                demodulate_rows(R, cfg, (kernel_for(other),) * cfg.L)
        with pytest.raises(ValueError, match="config's own"):
            demodulate_rows(R, cfg, (kernel_for(cfg),) * (cfg.L - 1))
        ramp = replace(cfg, dither="ramp")
        with pytest.raises(ValueError, match="config's own"):
            demodulate_rows(R, ramp, kernel_bank_for(cfg))
        with pytest.raises(ValueError, match="config's own"):
            demodulate_rows(R, cfg, kernel_bank_for(ramp))
        # a copy is another object with the same key, as after cache eviction
        copy = replace(kernel_for(cfg))
        base = demodulate_rows(R, cfg, kernel_bank_for(cfg))
        for rec, ref in zip(demodulate_rows(R, cfg, (copy,) * cfg.L), base):
            assert rec.winner_index == ref.winner_index
            np.testing.assert_array_equal(rec.log_metrics, ref.log_metrics)

    def test_brute_force_guards_input_space(self):
        cfg = SystemConfig(M=4, K=8, L=12, snr_db=6.0)
        with pytest.raises(ValueError, match="too large"):
            brute_force_glrt(np.zeros(12, dtype=int), cfg)


def test_glrt_metric_matches_demodulate_winner():
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    z = np.array([3, 1, 6])
    res = glrt_demodulate(z, cfg)
    direct = glrt_metric(z, res.winner, cfg)
    winner_metric = next(c.metric for c in res.candidates if c.x == res.winner)
    assert direct.metric == pytest.approx(winner_metric, rel=1e-9)
