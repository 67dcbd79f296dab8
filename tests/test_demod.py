"""GLRT demodulation: crossover geometry, candidate sweep, brute oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from phaseq import SystemConfig, transition
from phaseq.core import _check_indices, sample_blocks
from phaseq.demod import (
    GlrtCandidate,
    _decide,
    _distinct_crossovers,
    _evaluate_candidates,
    _pick,
    _scan_bank,
    _sweep_rows,
    _symbol_crossovers,
    brute_force_glrt,
    demodulate_rows,
    glrt_demodulate,
    glrt_demodulate_dithered,
)
from phaseq.transition import (
    _arc_probabilities,
    _kernel_cached,
    kernel_bank_for,
    kernel_for,
    sector_probability,
)

TWO_PI = 2.0 * math.pi
# tolerance between a geometric crossover angle and its likelihood root
ROOT_TOL = 1e-9


def crossover_angles(z, config: SystemConfig) -> np.ndarray:
    """Sorted distinct crossover angles of a block, in (0, 2*pi/M].

    The same angles demodulate_rows splits the period at.
    """
    z = _check_indices(z, "z", config.L, config.K, "K")
    return _distinct_crossovers(z[None, :], config)[0][0]


def glrt_metric(z, x, config: SystemConfig) -> GlrtCandidate:
    """max_phi P(z | x, phi) for one explicit hypothesis, over the full
    circle of the scan grid."""
    z = _check_indices(z, "z", config.L, config.K, "K")
    x = _check_indices(x, "x", config.L, config.M, "M")
    lm = _evaluate_candidates(z, x[None, :], config)
    return GlrtCandidate(x=tuple(int(v) for v in x), metric=math.exp(lm[0]))


def assert_crossovers_are_likelihood_roots(z, config):
    """Re-derive each crossover angle of z as the root of the likelihood
    equality between the two adjacent constellation points (brentq on the
    quadrature path) and fail if the geometric value is off by more than
    ROOT_TOL."""
    values = crossover_angles(z, config)
    per_symbol = _symbol_crossovers(np.asarray(z)[None, :], config)[0]
    gaps = np.diff(np.concatenate([values, [values[0] + TWO_PI / config.M]]))
    min_gap = float(gaps.min()) if values.size > 1 else TWO_PI / config.M
    for alpha in values:
        # the position whose crossover this is (duplicates share the angle)
        sym = int(np.argmin(np.abs(per_symbol - alpha)))
        z_sym = int(z[sym])
        cfg_sym = replace(config, L=1, dither=None, theta0=config.theta0 + config.dither[sym])
        span = 0.49 * min_gap
        zeta = z_sym * (TWO_PI / config.K) - cfg_sym.theta0
        half_w = math.pi / config.K
        probe = alpha - 1e-6 * TWO_PI / config.M
        m_lo = int(round((zeta + half_w - probe) * config.M / TWO_PI)) % config.M
        # the coherent argmax decreases with phi, so crossing alpha hands the
        # decision from m_lo to m_lo - 1
        m_hi = (m_lo - 1) % config.M

        def diff(phi: float) -> float:
            return sector_probability(z_sym, m_lo, phi, cfg_sym) - sector_probability(
                z_sym, m_hi, phi, cfg_sym
            )

        root = brentq(diff, alpha - span, alpha + span, xtol=1e-12)
        assert abs(root - alpha) <= ROOT_TOL, (sym, alpha, root)


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
        assert_crossovers_are_likelihood_roots([0, 4, 7], cfg)
        dithered = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp")
        assert_crossovers_are_likelihood_roots([1, 3, 6], dithered)

    def test_dither_separates_coincident_angles(self):
        plain = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        dithered = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp")
        z = [2, 2, 2]
        assert crossover_angles(z, plain).size == 1
        assert crossover_angles(z, dithered).size == 3

    @pytest.mark.parametrize("dither", ["none", "ramp"])
    def test_same_angles_as_the_sweep(self, dither):
        # one dedupe rule: the angles of a block are the ones its sweep
        # splits the period at, one candidate per segment
        for M, K, L, theta0 in [(4, 8, 6, 0.0), (2, 32, 5, 0.3), (8, 16, 7, 0.1)]:
            cfg = SystemConfig(M=M, K=K, L=L, snr_db=10.0, theta0=theta0, dither=dither)
            Z = np.random.default_rng(K + L).integers(0, K, size=(40, L))
            records = demodulate_rows(Z, cfg, kernel_bank_for(cfg))
            for z, rec in zip(Z, records):
                assert rec.candidates.shape[0] == crossover_angles(z, cfg).size

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
        # is the full-period one (candidate 0's wrap piece maps back by
        # 2*pi/M) and no candidate scores above its own
        cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, dither=dither)
        kernels = kernel_bank_for(cfg)
        rng = np.random.default_rng(K * 100 + L)
        _, Z = sample_blocks(rng.integers(0, M, size=(300, L)), cfg, rng)
        rows = Z if cfg.is_dithered else np.sort(Z % cfg.a, axis=1)
        sweep = _sweep_rows(rows, cfg)
        for i, (z, rec) in enumerate(zip(rows, demodulate_rows(rows, cfg, kernels))):
            d = rec.candidates.shape[0]
            valid = np.ones((1, d), dtype=bool)
            full = _evaluate_candidates(z, rec.candidates, cfg)[None, :]
            winner, ties, _ = _decide(full, valid)
            assert rec.winner_index == winner[0]
            assert rec.tie == (ties[0].sum() > 1)
            np.testing.assert_array_equal(sweep.ties[i, :d], ties[0])
            w = rec.winner_index
            assert rec.log_metrics[w] == pytest.approx(full[0, w], rel=1e-12)
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
            candidates = _pick(sweep.base[i], sweep.rank[i], np.arange(d)[:, None], cfg.M)
            assert rec.candidates.tobytes() == candidates.tobytes()
            assert rec.log_metrics.tobytes() == sweep.log_metrics[i, :d].tobytes()
            assert rec.winner_index == sweep.winner[i]
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
                assert [c.x for c in res.candidates] == [tuple(x) for x in X.tolist()]
                metrics = [math.exp(v) for v in rec.log_metrics.tolist()]
                assert [c.metric for c in res.candidates] == metrics
        if not cfg.is_dithered:
            assert one.any()
        if cfg.K == 2 * cfg.M and not cfg.is_dithered:
            assert any(rec.tie for rec in records)

    def test_scan_tables_fill_once_per_position(self, monkeypatch):
        # 200 ramp positions, each with its own rotation, outnumber the 128
        # entries of the kernel cache; the config's bank holds all of them,
        # so two sweeps fill each position's table once
        cfg = SystemConfig(M=4, K=8, L=200, snr_db=7.25, dither="ramp")
        calls = [0]

        def counting_fill(*args):
            calls[0] += 1
            return _arc_probabilities(*args)

        monkeypatch.setattr(transition, "_arc_probabilities", counting_fill)
        _scan_bank.cache_clear()
        _kernel_cached.cache_clear()
        rng = np.random.default_rng(5)
        for _ in range(2):
            _sweep_rows(rng.integers(0, cfg.K, size=(20, cfg.L)), cfg)
        assert calls[0] == cfg.L

    def test_scan_bank_memory_is_bounded(self):
        # each of 200 ramp positions holds a (64, 768) scan table and a
        # (16, 192) envelope, each a view of one doubled row (1,536 and 384
        # values): with the kernel cache's linear tables of the last 128
        # positions (1.5 MB), the bank holds about 5.2 MiB, while gathered
        # (64, 768) tables alone would hold 99.8 MB
        cfg = SystemConfig(M=4, K=64, L=200, snr_db=10.0, dither="ramp")
        _scan_bank.cache_clear()
        _kernel_cached.cache_clear()
        tracemalloc.start()
        try:
            bank = _scan_bank(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            _scan_bank.cache_clear()
            _kernel_cached.cache_clear()
        assert len({id(t[1]) for t in bank}) == cfg.L
        assert held < 8 * 2**20


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
            base_ties = _sweep_rows(R, cfg).ties
            for _ in range(3):
                perm = rng.permutation(L)
                for rec, ref in zip(demodulate_rows(R[:, perm], cfg, kernels), base):
                    np.testing.assert_array_equal(rec.candidates, ref.candidates[:, perm])
                    assert rec.winner_index == ref.winner_index
                    assert rec.tie == ref.tie
                    np.testing.assert_allclose(rec.log_metrics, ref.log_metrics, rtol=1e-12)
                np.testing.assert_array_equal(_sweep_rows(R[:, perm], cfg).ties, base_ties)

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
            assert demodulate_rows(np.array([z]), cfg, kernel_bank_for(cfg))[0].tie
            assert _sweep_rows(np.array([z]), cfg).ties.all()


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

    @pytest.mark.parametrize("row", [[0, 8], [0, -1], [3, 16]])
    def test_demodulate_rows_rejects_sectors_out_of_range(self, row):
        # the sweep reads any integer as quotient and residue, so the range
        # check is demodulate_rows' own
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
        with pytest.raises(ValueError, match="0..K-1"):
            demodulate_rows(np.array([[1, 2], row]), cfg, kernel_bank_for(cfg))

    @pytest.mark.parametrize("dither", [None, "ramp"])
    def test_demodulate_rows_of_no_rows(self, dither):
        # like block_conditional_batch and sample_blocks, no rows give an
        # empty result; the wrong block length is still refused
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither=dither)
        assert demodulate_rows(np.zeros((0, 3), dtype=np.int64), cfg, kernel_bank_for(cfg)) == []
        with pytest.raises(ValueError, match="L=3"):
            demodulate_rows(np.zeros((0, 2), dtype=np.int64), cfg, kernel_bank_for(cfg))

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


def probe_fill(R: np.ndarray, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every sweep candidate of each residue row (n, D, L), and each row's
    count, each rounded on its own: the coherent decision at the middle of
    its segment, between the previous crossover (0 for candidate 0) and its
    own. The reference for the sweep's candidate 0 plus crossover ranks."""
    edges, n_distinct, _ = _distinct_crossovers(R, config)
    prev = np.concatenate([np.zeros((len(R), 1)), edges[:, :-1]], axis=1)
    probes = 0.5 * (prev + edges)
    zeta = R * (TWO_PI / config.K) - config.theta0 - np.asarray(config.dither)[None, :]
    args = zeta[:, None, :] + math.pi / config.K - probes[:, :, None]
    args *= config.M / TWO_PI
    return np.round(args).astype(np.int64) % config.M, n_distinct


# Each symbol's coherent decision steps down one constellation point, once,
# at its crossover, so the sweep keeps candidate 0 and each symbol's
# crossover rank and reads candidate d back (_pick). It must give what
# rounding at every segment's middle gives, on every valid segment: with
# merged crossovers (equal residues, a constant row, a tuple dither that
# repeats rotations) and with a crossover folded to the top of the window
# (K = 3M without dither at theta0 = 0, residue 1).
@pytest.mark.parametrize("theta0", [0.0, 0.3, -7.5])
@pytest.mark.parametrize("dither", [None, "ramp", "tuple"])
@pytest.mark.parametrize("M", [2, 4, 8])
def test_pick_matches_per_segment_rounding(M, dither, theta0):
    L = 8
    if dither == "tuple":
        dither = tuple(0.05 * (l // 2) for l in range(L))
    cfg = SystemConfig(M=M, K=3 * M, L=L, snr_db=10.0, theta0=theta0, dither=dither)
    rng = np.random.default_rng(M)
    Z = rng.integers(0, cfg.K, size=(200, L))
    Z = np.concatenate([Z, np.zeros((1, L), dtype=Z.dtype), np.ones((1, L), dtype=Z.dtype)])
    R = Z % cfg.a
    want, n_distinct = probe_fill(R, cfg)
    D = want.shape[1]
    valid = np.arange(D)[None, :] < n_distinct[:, None]
    d = np.arange(D)[None, :, None]
    for rows in (R, Z):
        s = _sweep_rows(rows, cfg)
        np.testing.assert_array_equal(s.n_distinct, n_distinct)
        got = _pick(s.base[:, None, :], s.rank[:, None, :], d, cfg.M)
        assert got.dtype == np.int64
        # the quotients z div a ride on every candidate
        shifted = (want + (rows // cfg.a)[:, None, :]) % cfg.M
        np.testing.assert_array_equal(got[valid], shifted[valid])
    if dither != "ramp":
        # equal residues at equal rotations share one crossover
        assert (n_distinct < L).any()
    if theta0 == 0.0 and dither is None:
        top = _symbol_crossovers(R, cfg) > TWO_PI / M - 1e-9
        assert top[R == 1].all()


# A step of a sectors moves position l's law by one constellation step and
# leaves its crossover in place, dither or not, so _sweep_rows sweeps a row's
# residues mod a and adds the quotients back. Its sweeps of full sector rows
# must give the oracle's decisions: the winner's orbit, the tie flag and the
# winner's metric.
@pytest.mark.parametrize("snr_db", [6.0, 14.0, 24.0])
@pytest.mark.parametrize("dither", ["ramp", "tuple"])
@pytest.mark.parametrize("M,K,L", [(2, 8, 6), (4, 4, 5), (4, 8, 8), (4, 12, 5), (8, 24, 4)])
def test_dithered_rows_reduce_to_residues(M, K, L, dither, snr_db):
    if dither == "tuple":
        # multiples of the scan step 2*pi/720 put crossovers on grid points
        dither = tuple(TWO_PI / 720 * (7 * l % 11) for l in range(L))
    cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, dither=dither)
    # the oracle scores M^(L-1) orbits a row, 16,384 at M = 4, L = 8
    rows = 20 if M ** (L - 1) <= 1024 else 4
    Z = np.random.default_rng(K * L).integers(0, K, size=(rows, L))
    sweep = _sweep_rows(Z, cfg)
    for i, z in enumerate(Z):
        oracle = brute_force_glrt(z, cfg)
        winner = _pick(sweep.base[i], sweep.rank[i], sweep.winner[i], M)
        assert (np.count_nonzero(sweep.ties[i]) > 1) == oracle.tie
        best = max(c.metric for c in oracle.candidates)
        tied = [c.x for c in oracle.candidates if abs(c.metric / best - 1.0) <= 1e-6]
        assert any(up_to_constant_addition(winner, x, M) for x in tied)
        if not oracle.tie:
            assert up_to_constant_addition(winner, oracle.winner, M)
        assert math.exp(sweep.log_metrics[i, sweep.winner[i]]) == pytest.approx(best, rel=1e-12)


def test_glrt_metric_matches_demodulate_winner():
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    z = np.array([3, 1, 6])
    res = glrt_demodulate(z, cfg)
    direct = glrt_metric(z, res.winner, cfg)
    winner_metric = next(c.metric for c in res.candidates if c.x == res.winner)
    assert direct.metric == pytest.approx(winner_metric, rel=1e-9)
