"""Symbol error rate simulation and its small analytic helpers."""

from __future__ import annotations

import copy
import math
import os
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import phaseq
from phaseq import SystemConfig, sim, transition
from phaseq.core import (
    _KEPT_BYTES,
    _digit_words,
    _distinct_rows,
    _group,
    _thread_workspace,
    sample_blocks,
)
from phaseq.demod import _pick, _sweep_rows
from phaseq.sim import (
    DEFAULT_CHUNK,
    _chunk_sizes,
    run_ser,
    ser_crossing_snr,
    wilson_interval,
)
from phaseq.transition import kernel_bank_for


def coherent_qpsk_ser(snr_db: float) -> float:
    """Symbol error rate of coherent Gray-mapped QPSK at the same Es/N0."""
    q = 1.0 - float(ndtr(math.sqrt(10.0 ** (snr_db / 10.0))))
    return 2.0 * q - q * q


class TestHelpers:
    def test_wilson_interval_known_values(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038, abs=2e-4)
        assert hi == pytest.approx(0.5962, abs=2e-4)
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0
        assert hi0 == pytest.approx(0.0370, abs=2e-4)
        assert wilson_interval(0, 0) == (0.0, 1.0)
        # counts scaled back from per-symbol rates are floats
        lo, hi = wilson_interval(2.5, 10.0)
        assert 0.0 < lo < 0.25 < hi < 1.0

    @pytest.mark.parametrize(
        "successes, total", [(5, 3), (-1, 10), (0.5, 0), (float("nan"), 10), (3, -2)]
    )
    def test_wilson_interval_rejects_successes_outside_total(self, successes, total):
        with pytest.raises(ValueError, match=r"successes must lie in \[0, total\]"):
            wilson_interval(successes, total)

    @pytest.mark.parametrize(
        "successes, total, z",
        [
            (1.0, math.inf, 1.96),
            (math.inf, math.inf, 1.96),
            (1, 10, math.nan),
            (1, 10, math.inf),
            # a negative z would swap the bounds
            (5, 10, -1.96),
        ],
    )
    def test_wilson_interval_rejects_non_finite_total_or_bad_z(self, successes, total, z):
        with pytest.raises(ValueError, match="finite"):
            wilson_interval(successes, total, z)

    @pytest.mark.parametrize(
        "snrs, sers, target",
        [
            ([math.nan, 1.0], [0.1, 1e-3], 1e-2),
            ([0.0, math.inf], [0.1, 1e-3], 1e-2),
            ([-math.inf, 1.0], [0.1, 1e-3], 1e-2),
            ([0.0, 1.0], [math.nan, 1e-3], 1e-2),
            ([0.0, 1.0], [math.inf, 1e-3], 1e-2),
            ([0.0, 1.0], [0.1, 1e-3], math.nan),
            ([0.0, 1.0], [0.1, 1e-3], math.inf),
        ],
    )
    def test_crossing_rejects_non_finite_inputs(self, snrs, sers, target):
        with pytest.raises(ValueError, match="finite"):
            ser_crossing_snr(snrs, sers, target)

    def test_coherent_qpsk_ser_limits(self):
        assert coherent_qpsk_ser(-60.0) == pytest.approx(0.75, abs=1e-3)
        # 2Q - Q^2 at 10 dB, Q = 1 - Phi(sqrt(10))
        assert coherent_qpsk_ser(10.0) == pytest.approx(1.5648e-3, rel=1e-3)
        assert coherent_qpsk_ser(20.0) < 1e-22

    def test_crossing_recovers_exact_log_linear_point(self):
        snrs = np.array([8.0, 9.0, 10.0, 11.0])
        true_cross = 9.4
        # synthetic curve that is exactly log-linear in snr
        sers = 10 ** (-3.0 - 0.8 * (snrs - true_cross))
        assert ser_crossing_snr(snrs, sers, 1e-3) == pytest.approx(true_cross, abs=1e-12)

    def test_crossing_error_cases(self):
        with pytest.raises(ValueError, match="never crosses"):
            ser_crossing_snr([8.0, 9.0], [1e-2, 9e-3], 1e-3)
        with pytest.raises(ValueError, match="positive"):
            ser_crossing_snr([8.0, 9.0], [1e-2, 0.0], 1e-3)
        with pytest.raises(ValueError, match="equal-length"):
            ser_crossing_snr([8.0], [1e-2, 1e-3], 1e-3)

    def test_chunk_sizes_partition_trials(self):
        assert _chunk_sizes(10_000, 4096) == [4096, 4096, 1808]
        assert _chunk_sizes(100, 4096) == [100]
        assert sum(_chunk_sizes(123_457, 4096)) == 123_457

    def test_distinct_rows_match_np_unique(self):
        rng = np.random.default_rng(0)

        def spanning(top, shape):
            # few values below top, so rows repeat, plus the extremes 0 and top
            rows = rng.integers(0, 3, size=shape) * (top // 2)
            rows[0, 0], rows[-1, -1] = 0, top
            return rows

        cases = [
            (rng.integers(0, 3, size=(4096, 8)), 3),
            (rng.integers(0, 10, size=(300, 3)), 10),
            (rng.integers(0, 100, size=(50, 1)), 100),
            (np.array([[4, 1, 7]]), 8),
            (np.full((20, 5), 2), 3),
            # rows packed into several words: base 64, 10 digits per word
            (rng.integers(0, 64, size=(500, 200)), 64),
            # bases whose largest digit needs k bits (2^k - 1) or k + 1 bits (2^k)
            *((spanning(top, shape), top + 1) for top, shape in [
                (7, (400, 7)), (8, (400, 7)), (2**21 - 1, (400, 5)), (2**21, (400, 5)),
            ]),
            # one digit per word, and a narrow span far from 0
            (spanning(2**40 + 1, (300, 4)), 2**40 + 2),
            (rng.integers(2**40 - 3, 2**40 + 3, size=(300, 4)), 2**40 + 3),
            # one column, and one long row
            (rng.integers(0, 4, size=(200, 1)), 4),
            (rng.integers(0, 70, size=(1, 90)), 70),
        ]
        # on both sides of the one-word edge: 21 digits of base 8 and 63 of
        # base 2 are the most that keep a word below 2**63
        for base, L, words in [(8, 20, 1), (8, 21, 1), (8, 22, 2), (2, 63, 1), (2, 64, 2)]:
            rows = rng.integers(0, base, size=(300, L))
            rows[150:] = rows[rng.integers(0, 150, size=150)]
            rows[0], rows[1] = 0, base - 1
            per, word, _ = _digit_words(base, np.arange(L)[::-1], lambda p: base**p - 1)
            assert word[-1] + 1 == words
            cases.append((rows, base))
        for rows, base in cases:
            distinct, inverse, keys = _distinct_rows(rows, base)
            ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
            np.testing.assert_array_equal(distinct, ref)
            np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
            np.testing.assert_array_equal(distinct[inverse], rows)
            # a key per distinct row: one int64 word, else the bytes of W words
            per, _, _ = _digit_words(base, np.arange(rows.shape[1])[::-1], lambda p: base**p - 1)
            n_words = -(-rows.shape[1] // per)
            assert keys.dtype == (np.int64 if n_words == 1 else np.dtype((np.void, 8 * n_words)))
            assert len(set(keys.tolist())) == len(keys) == len(distinct)

        def check_group(words, top):
            index, inverse, counts = _group(words, top)
            ref, ref_inverse, ref_counts = np.unique(
                words.T, axis=0, return_inverse=True, return_counts=True
            )
            np.testing.assert_array_equal(words[:, index], ref.T)
            np.testing.assert_array_equal(inverse[index], np.arange(len(ref)))
            np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
            np.testing.assert_array_equal(counts, ref_counts)

        # core._group on one word of keys in 0..top: one bincount while
        # top < 4n (top = 4n - 1), one argsort from top = 4n; spread keys and
        # repeated ones, each holding top, and keys up to int64's largest value
        key_cases = []
        for n in (1, 3, 500):
            for top in (4 * n - 1, 4 * n):
                for keys in (rng.integers(0, top, size=n), rng.integers(0, 3, size=n) * (top // 2)):
                    keys[-1] = top
                    key_cases.append((keys, top))
        key_cases += [
            (np.array([2**63 - 1, 0, 2**63 - 1, 2**62, 5]), 2**63 - 1),
            (rng.integers(2**63 - 20, 2**63 - 1, size=500, endpoint=True), 2**63 - 1),
        ]
        for keys, top in key_cases:
            check_group(keys.astype(np.int64)[None], top)
        # core._group on (W, n) int64 words, most significant first (one
        # lexsort): one column, repeated columns, and words at 0 and int64's
        # largest value
        big = 2**63 - 1
        word_cases = [
            np.array([[5], [0]]),
            np.array([[0, big, 0, big, 0], [big, 0, big, 0, big], [0, 0, 0, 1, 0]]),
            rng.integers(0, 3, size=(2, 500)),
            rng.integers(0, 2, size=(3, 500)) * big,
            rng.integers(big - 2, big, size=(3, 300), endpoint=True),
        ]
        for words in word_cases:
            check_group(words.astype(np.int64), 0)


@pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(M=4, K=12, L=8, snr_db=10.0),
        SystemConfig(M=4, K=8, L=8, snr_db=10.0, dither="ramp"),
        SystemConfig(M=4, K=4, L=5, snr_db=10.0, dither="ramp"),
        SystemConfig(M=4, K=64, L=8, snr_db=10.0),
        SystemConfig(M=2, K=4, L=64, snr_db=10.0, dither="ramp"),
        SystemConfig(M=4, K=64, L=15, snr_db=10.0),
    ],
    ids=["K12-counted", "ramp-counted", "ramp-a=1", "K64-sorted", "ramp-L64-sorted", "K64-L15-packed"],
)
def test_block_rows_are_the_residue_rows(cfg):
    # each block's row is its residue histogram without dither and its
    # residue vector with it, whichever way the keys are found, and each
    # distinct row is read from one of its blocks: that block's residues,
    # sorted without dither, are every member's. Each row's key is
    # distinct, and is the row's digits: one int64, or past int64 the bytes
    # of int64 words, the most significant first, each holding as many
    # digits as keep its largest value in int64
    rng = np.random.default_rng(cfg.L)
    Z = rng.integers(0, cfg.K, size=(600, cfg.L))
    Z[300:] = Z[rng.integers(0, 300, size=300)]
    residues = Z % cfg.a
    if cfg.is_dithered:
        Z += cfg.K * np.arange(cfg.L)
    else:
        residues.sort(axis=1)
    index, inverse, per_row, keys = sim._block_rows(Z, cfg, np.empty_like(Z))
    rows = Z[index] % cfg.a
    if not cfg.is_dithered:
        rows.sort(axis=1)
    np.testing.assert_array_equal(rows[inverse], residues)
    np.testing.assert_array_equal(inverse[index], np.arange(len(index)))
    assert len(np.unique(rows, axis=0)) == len(rows)
    np.testing.assert_array_equal(per_row, np.bincount(inverse, minlength=len(rows)))
    assert len(set(keys.tolist())) == len(keys) == len(rows)
    if not cfg.is_dithered:
        rows = (rows[:, :, None] == np.arange(cfg.a)).sum(axis=1)
    base, width = (cfg.a, cfg.L) if cfg.is_dithered else (cfg.L + 1, cfg.a)
    # the largest value of a word of p digits
    top = (lambda p: base**p - 1) if cfg.is_dithered else (lambda p: cfg.L * base ** (p - 1))
    per = max(p for p in range(1, width + 1) if top(p) < 2**63)
    words = keys.view(np.int64).reshape(len(keys), -1) if keys.dtype.kind == "V" else keys[:, None]
    assert words.shape[1] == -(-width // per) == (1 if top(width) < 2**63 else 2)
    # a dithered key's first position is its most significant digit, a
    # histogram key's residue 0 its least
    values = [sum(int(w) * base ** (per * i) for i, w in enumerate(ws[::-1])) for ws in words.tolist()]
    place = [base**j for j in range(width)]
    decoded = [[v // q % base for q in (place[::-1] if cfg.is_dithered else place)] for v in values]
    np.testing.assert_array_equal(decoded, rows)


class TestRunSer:
    def test_deep_noise_is_guessing(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=-40.0)
        point = run_ser(cfg, trials=20_000, seed=1)
        assert point.ser == pytest.approx(0.75, abs=0.02)
        assert point.trials == 20_000
        assert point.symbols == 20_000  # pilot convention scores L-1 per block

    @pytest.mark.parametrize("M", [2, 8])
    @pytest.mark.parametrize("mult", [2, 3])
    @pytest.mark.parametrize("dither", ["none", "ramp"])
    def test_deep_noise_is_guessing_beyond_m4(self, M, mult, dither):
        # at -40 dB the decisions are independent of the symbols, so each
        # scored symbol is wrong with probability (M - 1)/M
        cfg = SystemConfig(M=M, K=mult * M, L=3, snr_db=-40.0, dither=dither)
        point = run_ser(cfg, trials=20_000, seed=1)
        assert point.ser == pytest.approx((M - 1) / M, abs=0.02)

    def test_seed_reproducibility_across_worker_counts(self):
        # undithered pilot, dithered pilot, undithered genie with ties, and
        # K=64 L=8, where most sorted rows are new, so the threads fill the
        # shared memo concurrently
        for cfg, convention in [
            (SystemConfig(M=4, K=8, L=3, snr_db=8.0), "pilot"),
            (SystemConfig(M=4, K=8, L=3, snr_db=10.0, dither="ramp"), "pilot"),
            (SystemConfig(M=4, K=8, L=4, snr_db=20.0), "genie"),
            (SystemConfig(M=4, K=64, L=8, snr_db=10.0), "pilot"),
        ]:
            a = run_ser(cfg, trials=6_000, seed=7, convention=convention, workers=1)
            b = run_ser(cfg, trials=6_000, seed=7, convention=convention, workers=4)
            assert a.errors == b.errors
            assert a.ser == b.ser
            assert a.tie_rate == b.tie_rate
            c = run_ser(cfg, trials=6_000, seed=8, convention=convention, workers=1)
            assert c.errors != a.errors
        # ramp K=64 L=8 at 8 dB: every residue row of the 4 chunks is new
        # (13,000 of 13,000), so chunk threads merge new rows into the
        # shared memo at the same time; a short switch interval makes them
        # interleave often. Ramp K=8 L=8 has at most 2^8 residue rows, so
        # its threads mostly read the memo.
        configs = {
            8: SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
            64: SystemConfig(M=4, K=64, L=8, snr_db=8.0, dither="ramp"),
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = {
                (K, w): (run_ser(cfg, trials=13_000, seed=7, workers=w),
                         run_ser(cfg, trials=13_000, seed=7, convention="genie", workers=w))
                for K, cfg in configs.items()
                for w in (1, 2, 4)
            }
        finally:
            sys.setswitchinterval(interval)
        assert runs[8, 1][0].errors == 344
        assert (runs[8, 1][1].mean_candidates, runs[8, 1][1].max_candidates) == (8.0, 8)
        assert runs[64, 1][0].errors == 3299
        for K in configs:
            assert runs[K, 2] == runs[K, 1]
            assert runs[K, 4] == runs[K, 1]

    # Exact counts of seeded runs (5000 blocks are two chunks, so the row memo
    # carries across chunks); any change to the RNG stream, the tie re-draw,
    # the scatter of sorted-row decisions back to block positions or the
    # error scoring moves them. The last three are undithered cases where
    # sorting residues merges many rows (K=64 L=8, K=12 L=8, M=2 K=6 L=7).
    @pytest.mark.parametrize(
        "cfg, seed, convention, errors, tie_rate",
        [
            (SystemConfig(M=4, K=8, L=4, snr_db=20.0), 21, "pilot", 776, 0.1836),
            (SystemConfig(M=4, K=8, L=4, snr_db=20.0), 21, "genie", 578, 0.1828),
            (SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither="ramp"), 22, "pilot", 74, 0.0),
            (SystemConfig(M=8, K=16, L=4, snr_db=18.0), 23, "genie", 1533, 0.474),
            (SystemConfig(M=4, K=64, L=8, snr_db=10.0), 25, "pilot", 133, 0.0008),
            (SystemConfig(M=4, K=12, L=8, snr_db=11.0), 26, "genie", 147, 0.0028),
            (SystemConfig(M=2, K=6, L=7, snr_db=8.0), 27, "pilot", 23, 0.0022),
        ],
    )
    def test_pinned_counts(self, cfg, seed, convention, errors, tie_rate):
        point = run_ser(cfg, trials=5_000, seed=seed, convention=convention)
        assert point.errors == errors
        assert point.tie_rate == tie_rate

    # A chunk keys each block's residue row by one int64 wherever the largest
    # possible key (a**L - 1 under dither, L*(L + 1)**(a - 1) without) fits
    # int64, whatever the chunk's size; only past int64 does core._group get
    # W = 2 words to lexsort. Counts on both sides of the bincount edge of
    # core._group (top < 4n, n = 4,096 here), on both sides of the widest key
    # that fits int64, for a short last chunk (4,196 blocks end in 100) and
    # for K=64 L=8, whose keys are argsorted, and for K=8 L=8 at 12 dB, where
    # about 65% of blocks tie and re-draw from their rows' tie sets, for one
    # lane and two.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "cfg, trials, errors, tie_blocks, key_words",
        [
            (SystemConfig(M=2, K=4, L=14, snr_db=8.0, dither="ramp"), 8_192, 330, 0, False),
            (SystemConfig(M=2, K=4, L=15, snr_db=8.0, dither="ramp"), 8_192, 505, 78, False),
            (SystemConfig(M=4, K=12, L=24, snr_db=11.0), 8_192, 880, 9, False),
            (SystemConfig(M=4, K=12, L=25, snr_db=11.0), 8_192, 908, 83, False),
            (SystemConfig(M=2, K=4, L=63, snr_db=8.0, dither="ramp"), 5_000, 913, 0, False),
            (SystemConfig(M=2, K=4, L=64, snr_db=8.0, dither="ramp"), 5_000, 583, 0, True),
            (SystemConfig(M=4, K=64, L=14, snr_db=8.0), 5_000, 1849, 1, False),
            (SystemConfig(M=4, K=64, L=15, snr_db=8.0), 5_000, 2209, 1, True),
            (SystemConfig(M=4, K=12, L=8, snr_db=11.0), 4_196, 227, 17, False),
            (SystemConfig(M=4, K=64, L=8, snr_db=10.0), 5_000, 197, 1, False),
            (SystemConfig(M=4, K=8, L=8, snr_db=12.0), 20_000, 17_875, 13_053, False),
        ],
        ids=[
            "ramp-L14", "ramp-L15", "K12-L24", "K12-L25", "ramp-L63", "ramp-L64",
            "K64-L14", "K64-L15", "K12-L8-short-chunk", "K64-L8", "K8-L8-ties",
        ],
    )
    def test_pinned_counts_at_key_edges(
        self, cfg, trials, errors, tie_blocks, key_words, workers, monkeypatch
    ):
        shapes = []

        def recorded(words, top):
            shapes.append(words.shape)
            return _group(words, top)

        monkeypatch.setattr(sim, "_group", recorded)
        point = run_ser(cfg, trials=trials, seed=5, workers=workers)
        assert (point.errors, point.tie_blocks) == (errors, tie_blocks)
        assert {shape[0] for shape in shapes} == {2 if key_words else 1}

    def test_seed_sequence_accepted(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        a = run_ser(cfg, trials=2_000, seed=np.random.SeedSequence(5))
        b = run_ser(cfg, trials=2_000, seed=np.random.SeedSequence(5))
        assert a.errors == b.errors

    def test_dither_beats_undithered_at_moderate_snr(self):
        plain = SystemConfig(M=4, K=8, L=4, snr_db=15.0)
        dithered = SystemConfig(M=4, K=8, L=4, snr_db=15.0, dither="ramp")
        p = run_ser(plain, trials=20_000, seed=2, workers=4)
        d = run_ser(dithered, trials=20_000, seed=2, workers=4)
        assert d.ser > 0
        assert p.ser / d.ser >= 5.0
        assert p.tie_rate > 10 * d.tie_rate

    def test_genie_convention_no_worse_than_pilot(self):
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=10.0)
        pilot = run_ser(cfg, trials=8_000, seed=3, convention="pilot")
        genie = run_ser(cfg, trials=8_000, seed=3, convention="genie")
        assert genie.convention == "genie"
        assert genie.symbols == 3 * 8_000
        assert genie.ser <= pilot.ser + 3 * (pilot.ci_high - pilot.ci_low)

    def test_dithered_ser_monotone_in_snr(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=0.0, dither="ramp")
        points = [
            run_ser(cfg.with_snr(s), trials=6_000, seed=4, workers=4)
            for s in (6.0, 10.0, 14.0)
        ]
        for lo, hi in zip(points[1:], points[:-1]):
            # allow 3 binomial SE of slack between adjacent grid points
            se = (hi.ci_high - hi.ci_low) / 2
            assert lo.ser <= hi.ser + 3 * se

    def test_high_snr_dithered_pilot_is_clean(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=25.0, dither="ramp")
        point = run_ser(cfg, trials=4_000, seed=5)
        assert point.ser < 5e-3

    def test_ci_brackets_point_estimate(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        point = run_ser(cfg, trials=3_000, seed=6)
        assert point.ci_low <= point.ser <= point.ci_high

    def test_validation(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="positive"):
            run_ser(cfg, trials=0)
        with pytest.raises(ValueError, match="convention"):
            run_ser(cfg, trials=100, convention="oracle")
        single = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
        with pytest.raises(ValueError, match="L >= 2"):
            run_ser(single, trials=100, convention="pilot")

    @pytest.mark.parametrize("trials", [100.5, 100.0, "100", None])
    def test_trials_must_be_an_integer(self, trials):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_ser(cfg, trials)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed", 1.5),
            ("seed", -1),
            ("seed", "3"),
            ("seed", None),
            ("workers", 2.5),
            ("workers", 0),
            ("workers", -2),
            ("workers", "2"),
        ],
    )
    def test_seed_and_workers_checked(self, name, value):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        with pytest.raises(ValueError, match=name):
            run_ser(cfg, 100, **{name: value})

    def test_numpy_integer_seed_and_workers(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0)
        want = run_ser(cfg, 500, seed=3)
        assert run_ser(cfg, 500, seed=np.int64(3), workers=np.int32(2)) == want
        # counts are plain ints, so a point serializes to JSON as it is
        assert all(type(v) is int for v in (want.errors, want.tie_blocks, want.max_candidates))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refuses_snr_beyond_scan_fill(self, workers):
        # one scan cell at 150 dB would need about 390,000 quadrature parts;
        # the fill refuses above 2,048 before evaluating any. Two chunks, so
        # two workers both meet the refusal
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=150.0)
        started = time.monotonic()
        with pytest.raises(ValueError, match="SNR 150 dB needs .* above the limit of 2048"):
            run_ser(cfg, 2 * DEFAULT_CHUNK, seed=1, workers=workers)
        assert time.monotonic() - started < 1.0


class TestSymbolErrors:
    """_symbol_errors reads decisions mod M through a bool table; over
    decisions drawn from their full range [0, 2M - 1) it must count what
    the plain % M formulas count."""

    @staticmethod
    def _plain(xhat, X, M, convention):
        if convention == "pilot":
            return int(np.count_nonzero((xhat[:, 1:] - xhat[:, :1]) % M != X[:, 1:]))
        shifted = (xhat[:, None, :] + np.arange(M)[:, None]) % M
        return int((shifted != X[:, None, :]).sum(axis=2).min(axis=1).sum())

    @pytest.mark.parametrize("convention", ["pilot", "genie"])
    @pytest.mark.parametrize("L", [2, 5])
    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_matches_plain_mod(self, M, L, convention):
        rng = np.random.default_rng(M * 10 + L)
        xhat = rng.integers(0, 2 * M - 1, size=(2_000, L))
        X = rng.integers(0, M, size=(2_000, L))
        # the ends of both ranges, so the extreme differences occur
        top = 2 * M - 2
        xhat[:4] = [[0] * L, [top] * L, [0] + [top] * (L - 1), [top] + [0] * (L - 1)]
        X[:4] = [[M - 1] * L, [0] * L, [M - 1] * L, [M - 1] * L]
        want = self._plain(xhat, X, M, convention)
        assert sim._symbol_errors(xhat, X, M, convention, sim._Workspace()) == want


_CHUNK_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(M=4, K=4, L=6, snr_db=6.0),
        SystemConfig(M=4, K=8, L=1, snr_db=12.0),
        SystemConfig(M=2, K=6, L=5, snr_db=8.0),
        SystemConfig(M=4, K=8, L=200, snr_db=0.0),
        SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
        SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither=(0.0, 0.0, 0.3, 0.3)),
    ],
    ids=["a=1", "L=1-genie", "M=2", "L=200", "ramp", "tuple"],
)


@pytest.fixture
def pools(monkeypatch):
    """The thread pools run_ser makes, each counting its submitted jobs."""
    made = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.submitted = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordedPool)
    return made


class TestChunkEngine:
    # trials of two full chunks and a ragged one of 17 blocks, so a worker's
    # workspace serves a smaller chunk after a full one
    @_CHUNK_CONFIGS
    def test_ragged_chunks_equal_for_any_worker_count(self, cfg):
        trials = 2 * DEFAULT_CHUNK + 17
        convention = "genie" if cfg.L == 1 else "pilot"
        runs = {
            w: (run_ser(cfg, trials, seed=9, convention=convention, workers=w),
                run_ser(cfg, trials, seed=9, convention="genie", workers=w))
            for w in (1, 2, 4)
        }
        assert runs[2] == runs[1]
        assert runs[4] == runs[1]

    # one worker draws the next chunk ahead on a helper thread where it may
    # use two CPUs, and inline on one; both equal the pool's points
    @_CHUNK_CONFIGS
    @pytest.mark.parametrize("trials", [2 * DEFAULT_CHUNK + 17, 100], ids=["ragged", "one-chunk"])
    def test_draw_ahead_equals_inline_and_pool(self, cfg, trials, pools, monkeypatch):
        convention = "genie" if cfg.L == 1 else "pilot"

        def points(workers):
            return (run_ser(cfg, trials, seed=9, convention=convention, workers=workers),
                    run_ser(cfg, trials, seed=9, convention="genie", workers=workers))

        one_worker = {}
        for cpus in (1, 2):
            monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
            pools.clear()
            one_worker[cpus] = points(1)
            # one helper per run, and only with chunks to draw ahead
            ahead = cpus > 1 and trials > DEFAULT_CHUNK
            assert [p._max_workers for p in pools] == ([1, 1] if ahead else [])
            assert all(p.submitted == 3 for p in pools)
        assert one_worker[2] == one_worker[1]
        for workers in (2, 4):
            assert points(workers) == one_worker[1]

    def test_one_chunk_starts_no_thread(self, pools, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        run_ser(SystemConfig(M=4, K=12, L=8, snr_db=12.0), DEFAULT_CHUNK, seed=2)
        assert pools == []
        assert threading.active_count() == before

    def test_refusal_with_draws_in_flight_ends_the_helper(self, pools, monkeypatch):
        # the lane sweeps its row space while chunk 0's draws are in
        # flight, and that sweep meets the 150 dB refusal; the error
        # propagates and the helper thread ends
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=150.0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="SNR 150 dB needs .* above the limit of 2048"):
            run_ser(cfg, 3 * DEFAULT_CHUNK, seed=1)
        assert [(p._max_workers, p.submitted) for p in pools] == [(1, 1)]
        assert threading.active_count() == before

    # A lane that draws ahead sweeps a small row space whole while chunk 0
    # is drawn; a sweep is row-local, so its points equal those of lanes
    # that sweep each chunk's new rows
    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=6.0, dither="ramp"),
            SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
            SystemConfig(M=4, K=8, L=8, snr_db=30.0, dither="ramp"),
            SystemConfig(M=4, K=12, L=8, snr_db=11.0),
            SystemConfig(M=4, K=12, L=8, snr_db=13.0),
            SystemConfig(M=4, K=12, L=5, snr_db=8.0, dither="ramp"),
            SystemConfig(M=4, K=16, L=8, snr_db=10.0),
            SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither=(0.0, 0.0, 0.3, 0.3)),
        ],
        ids=["ramp-6dB", "ramp-14dB", "ramp-30dB", "K=12-11dB", "K=12-13dB", "ramp-L=5",
             "K=16", "tuple"],
    )
    def test_prefilled_memo_gives_equal_points(self, cfg, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        assert sim._row_space(cfg, DEFAULT_CHUNK) is not None

        def points():
            return [
                run_ser(cfg, 2 * DEFAULT_CHUNK + 17, seed=3, convention=c, workers=w)
                for c in ("pilot", "genie")
                for w in (1, 2)
            ]

        want = points()
        monkeypatch.setattr(sim, "_row_space", lambda config, limit: None)
        assert points() == want

    @pytest.mark.parametrize(
        "cfg, trials",
        [
            (SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"), 10_000),
            (SystemConfig(M=4, K=12, L=8, snr_db=11.0), 40_000),
        ],
        ids=["ramp", "K=12"],
    )
    def test_prefilled_lane_sweeps_once(self, cfg, trials, monkeypatch):
        # every row a chunk meets is in the swept space, under its key
        sweeps = []
        memos = []

        def recorded_sweep(rows, config):
            sweeps.append(len(rows))
            return _sweep_rows(rows, config)

        class RecordedMemo(sim._RowMemo):
            def __init__(self, score, limit=None):
                super().__init__(score, limit)
                memos.append(self)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_sweep_rows", recorded_sweep)
        monkeypatch.setattr(sim, "_RowMemo", RecordedMemo)
        run_ser(cfg, trials, seed=0, workers=1)
        rows, keys = sim._row_space(cfg, memos[0].limit)
        assert sweeps == [len(rows)]
        assert len(rows) == (cfg.a**cfg.L if cfg.is_dithered else math.comb(cfg.L + cfg.a - 1, cfg.L))
        assert np.array_equal(memos[0].keys, np.sort(keys))

    # Pool lanes, inline draws and row spaces above the bound sweep each
    # chunk's new rows: one memo call per chunk, none before
    @pytest.mark.parametrize(
        "cfg, workers, cpus",
        [
            (SystemConfig(M=4, K=8, L=12, snr_db=10.0, dither="ramp"), 1, 2),
            (SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"), 2, 2),
            (SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"), 1, 1),
        ],
        ids=["ramp-L=12", "pool", "one-cpu"],
    )
    def test_lanes_without_prefill_sweep_chunk_rows(self, cfg, workers, cpus, monkeypatch):
        memos = []

        class RecordedMemo(sim._RowMemo):
            def __init__(self, score, limit=None):
                super().__init__(score, limit)
                self.calls = 0
                memos.append(self)

            def __call__(self, rows, keys):
                self.calls += 1
                return super().__call__(rows, keys)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_RowMemo", RecordedMemo)
        run_ser(cfg, 10_000, seed=0, workers=workers)
        assert sorted(memo.calls for memo in memos) == ([3] if workers == 1 else [1, 2])

    def test_workspace_kept_across_runs(self):
        # the calling thread keeps its workspace from run to run; what a run
        # of another shape left in it changes no later run
        ramp = SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp")
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(run_ser(ramp, 5_000, seed=3)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and len(fresh) == 1
        run_ser(SystemConfig(M=2, K=6, L=20, snr_db=3.0), DEFAULT_CHUNK + 5, seed=4)
        work = _thread_workspace()
        assert run_ser(ramp, 5_000, seed=3) == fresh[0]
        assert _thread_workspace() is work

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_long_block_buffers_dropped_when_the_run_returns(self, cpus, monkeypatch):
        # chunks of 400 ramp blocks of L = 200 grow the lane's noise planes
        # to 1.28 MB, two pairs of them with a draw-ahead helper; on return
        # no buffer above core._KEPT_BYTES is kept, and a repeat run is
        # equal. A fresh thread holds only this test's buffers
        monkeypatch.setattr(sim, "DEFAULT_CHUNK", 400)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        cfg = SystemConfig(M=4, K=8, L=200, snr_db=6.0, dither="ramp")
        seen = []

        def run():
            seen.append(run_ser(cfg, 700, seed=5))
            seen.append(max(v.size for v in _thread_workspace()._bytes.values()))
            seen.append(run_ser(cfg, 700, seed=5))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and len(seen) == 3
        first, largest, again = seen
        assert largest <= _KEPT_BYTES
        assert again == first

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
            SystemConfig(M=4, K=64, L=8, snr_db=10.0),
        ],
        ids=["ramp", "K=64"],
    )
    def test_each_lane_owns_its_memo(self, cfg, monkeypatch):
        # chunk threads switch often, yet each memo is read and extended by
        # one thread only, and no lane sweeps a row twice: rows swept ==
        # the rows the run's memos store
        lock = threading.Lock()
        swept = [0]
        memos = []

        def counting_sweep(rows, config):
            with lock:
                swept[0] += len(rows)
            return _sweep_rows(rows, config)

        class RecordedMemo(sim._RowMemo):
            def __init__(self, score, limit=None):
                super().__init__(score, limit)
                self.threads = set()
                with lock:
                    memos.append(self)

            def __call__(self, rows, keys):
                self.threads.add(threading.get_ident())
                return super().__call__(rows, keys)

        monkeypatch.setattr(sim, "_sweep_rows", counting_sweep)
        monkeypatch.setattr(sim, "_RowMemo", RecordedMemo)
        want = run_ser(cfg, trials=13_000, seed=11, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in (2, 4):
                swept[0] = 0
                memos.clear()
                assert run_ser(cfg, trials=13_000, seed=11, workers=w) == want
                assert all(len(memo.threads) == 1 for memo in memos)
                assert len(memos) == w
                assert swept[0] == sum(len(memo.keys) for memo in memos)
        finally:
            sys.setswitchinterval(interval)

    # A lane's memo keeps at most _LANE_MEMO_BYTES of value rows, first met
    # first kept; a row it drops is swept again, to the same decision
    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=12.0, dither="ramp"),
            SystemConfig(M=4, K=12, L=8, snr_db=11.0),
        ],
        ids=["ramp", "K=12"],
    )
    def test_lane_memo_is_bounded(self, cfg, monkeypatch):
        want = [run_ser(cfg, trials=13_000, seed=5, workers=w) for w in (1, 2)]
        memos = []

        class RecordedMemo(sim._RowMemo):
            def __init__(self, score, limit=None):
                super().__init__(score, limit)
                memos.append(self)

        limit = 20
        monkeypatch.setattr(sim, "_LANE_MEMO_BYTES", limit * 8 * (cfg.L + 2))
        monkeypatch.setattr(sim, "_RowMemo", RecordedMemo)
        for w, point in zip((1, 2), want):
            memos.clear()
            assert run_ser(cfg, trials=13_000, seed=5, workers=w) == point
            assert all(memo.limit == limit for memo in memos)
            assert max(len(memo.keys) for memo in memos) == limit
        assert want[0] == want[1]

    def test_long_dithered_rows_run_in_bounded_memory(self):
        # ramp L=200: each row has 200 candidates, and a chunk's 4,096 rows
        # as one (4096, 200, 200) int64 array would be 1.22 GiB. The run is
        # a child under a 512 MiB address-space limit (about 185 MB peak
        # RSS), and its counts are those of a run without the limit
        code = (
            "from phaseq import SystemConfig; from phaseq.sim import run_ser; "
            "p = run_ser(SystemConfig(M=4, K=8, L=200, snr_db=6, dither='ramp'), 4096, seed=1); "
            "print(p.errors, p.tie_blocks, p.max_candidates)"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(phaseq.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)),
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["120696", "0", "200"]

    # A guard against a future regression rather than a present defect:
    # demod scores rows from kernels on its own scan grid, so a kernel on
    # the block-probability grid is filled only where it is read. The kernel
    # cache is cleared first, so tables other tests filled do not count.
    @pytest.mark.parametrize("dither", [None, "ramp"])
    def test_run_fills_no_kernel_table(self, dither):
        cfg = SystemConfig(M=4, K=12, L=6, snr_db=10.0, dither=dither)
        transition._kernel_cached.cache_clear()
        run_ser(cfg, trials=2_000, seed=3, workers=2)
        assert all("table" not in k.__dict__ for k in kernel_bank_for(cfg))


# Without dither the coherent decision at phase phi depends on z_l alone, so
# every candidate of the sweep gives equal symbols to equal residues: the
# chunk engine scatters decisions by residue and relies on it.
@pytest.mark.parametrize("L", [1, 3, 8])
@pytest.mark.parametrize("mult", [2, 3, 16])
@pytest.mark.parametrize("M", [2, 4, 8])
def test_candidates_give_equal_residues_equal_symbols(M, mult, L):
    # K = 2M ties often, more so at high SNR
    for snr in (12.0, 20.0) if mult == 2 else (8.0,):
        cfg = SystemConfig(M=M, K=mult * M, L=L, snr_db=snr)
        X = np.random.default_rng(M * mult * L).integers(0, M, size=(400, L))
        _, Z = sample_blocks(X, cfg, np.random.default_rng(int(snr)))
        rows = np.unique(np.sort(Z % cfg.a, axis=1), axis=0)
        sweep = _sweep_rows(rows, cfg)
        D = sweep.log_metrics.shape[1]
        valid = np.arange(D) < sweep.n_distinct[:, None]
        assert valid[np.arange(len(rows)), sweep.winner].all()
        assert (sweep.ties <= valid).all()
        # sorted rows: equal residues sit side by side
        same = (rows[:, 1:] == rows[:, :-1])[:, None, :] & valid[:, :, None]
        C = _pick(sweep.base[:, None, :], sweep.rank[:, None, :], np.arange(D)[:, None], M)
        assert np.array_equal(C[:, :, 1:][same], C[:, :, :-1][same])
        if mult == 2 and L > 1:
            assert (np.count_nonzero(sweep.ties, axis=1) > 1).any()


def _choice_redraw(rng, ties, sets, pos, cells, M):
    """The per-block loop sim._redraw_ties replaced, kept as its reference:
    rng.choice on each tied block's set in block order."""
    quotients = np.arange(M)[:, None]
    xhat = np.empty_like(cells)
    for i, s in enumerate(sets):
        tie_set = ties.rows[ties.start[s] : ties.start[s] + ties.size[s]]
        xhat[i] = (rng.choice(tie_set)[pos[i]] + quotients).reshape(-1)[cells[i]]
    return xhat


class TestTieRedraw:
    # a chunk's tied blocks re-draw their candidates by one call: the same
    # decisions and generator state as the per-block loop, so equal points
    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=12.0),
            SystemConfig(M=2, K=6, L=6, snr_db=6.0, dither="ramp"),
            SystemConfig(M=8, K=16, L=3, snr_db=14.0),
            SystemConfig(M=4, K=12, L=8, snr_db=6.0),
        ],
        ids=["K=8", "ramp-M=2", "M=8", "K=12"],
    )
    def test_one_draw_equals_choice_per_block(self, cfg, monkeypatch):
        redraw = sim._redraw_ties
        checked = []

        def compared(rng, ties, sets, pos, cells, M):
            twin = copy.deepcopy(rng)
            want = _choice_redraw(rng, ties, sets, pos, cells, M)
            assert np.array_equal(redraw(twin, ties, sets, pos, cells, M), want)
            assert twin.bit_generator.state == rng.bit_generator.state
            checked.append(len(sets))
            return want

        trials = 2 * DEFAULT_CHUNK + 17
        want = [run_ser(cfg, trials, seed=6, convention=c) for c in ("pilot", "genie")]
        monkeypatch.setattr(sim, "_redraw_ties", compared)
        assert [run_ser(cfg, trials, seed=6, convention=c) for c in ("pilot", "genie")] == want
        assert sum(checked) == sum(p.tie_blocks for p in want) > 0

    def test_integers_over_sizes_equals_one_draw_per_size(self):
        # the re-draw rests on this: integers(0, sizes) draws what one
        # integers(0, size), or choice of a set of that size, draws per size
        # in turn, and leaves the generator where they leave it
        L = 8
        sizes = np.random.default_rng(0).integers(1, L + 1, size=2_000)
        sizes[:L] = np.arange(1, L + 1)
        one, each, choice = (np.random.default_rng(1) for _ in range(3))
        got = one.integers(0, sizes)
        assert got.tolist() == [each.integers(0, s) for s in sizes]
        assert got.tolist() == [choice.choice(np.arange(s)) for s in sizes]
        assert one.bit_generator.state == each.bit_generator.state == choice.bit_generator.state


# A tie census is run_ser with genie inputs: every position random.
class TestTieCensus:
    def test_undithered_k8_ties_are_common(self):
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=20.0)
        census = run_ser(cfg, trials=3_000, seed=1, convention="genie")
        assert census.tie_rate > 0.05
        assert census.mean_candidates > 1.0
        assert census.max_candidates <= cfg.a

    def test_dither_eliminates_ties(self):
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=20.0, dither="ramp")
        census = run_ser(cfg, trials=3_000, seed=1, convention="genie")
        assert census.tie_rate < 1e-3

    def test_k12_ties_are_rare(self):
        cfg = SystemConfig(M=4, K=12, L=4, snr_db=20.0)
        census = run_ser(cfg, trials=3_000, seed=1, convention="genie")
        assert census.tie_rate < 1e-3

    def test_pinned_counts(self):
        cfg = SystemConfig(M=4, K=8, L=4, snr_db=20.0)
        census = run_ser(cfg, trials=5_000, seed=24, convention="genie")
        assert census.tie_blocks == 905
        assert census.tie_rate == 0.181
        assert census.mean_candidates == 1.181
        assert census.max_candidates == 2

    # Candidate counts come from the run memo's per-row count array. Ramp
    # rows always have L candidates; the tuple repeats rotations, so its rows
    # have up to 4 (2.4 on average) and some tie.
    @pytest.mark.parametrize(
        "cfg, tie_blocks, mean_candidates, max_candidates",
        [
            (SystemConfig(M=4, K=8, L=8, snr_db=12.0), 3239, 1.6478, 2),
            (SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"), 0, 8.0, 8),
            (SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither=(0.0, 0.0, 0.3, 0.3)), 89, 2.4054, 4),
        ],
        ids=["undithered", "ramp", "tuple"],
    )
    def test_pinned_candidate_counts(self, cfg, tie_blocks, mean_candidates, max_candidates):
        census = run_ser(cfg, trials=5_000, seed=24, convention="genie")
        assert census.tie_blocks == tie_blocks
        assert census.mean_candidates == mean_candidates
        assert census.max_candidates == max_candidates

    def test_census_ci_brackets_rate(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=15.0)
        census = run_ser(cfg, trials=2_000, seed=2, convention="genie")
        lo, hi = wilson_interval(census.tie_blocks, census.trials)
        assert lo <= census.tie_rate <= hi
        assert census.trials == 2_000
