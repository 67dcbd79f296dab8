"""Symbol error rate simulation and its small analytic helpers."""

from __future__ import annotations

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr

from phaseq import SystemConfig, sim, transition
from phaseq.core import sample_blocks
from phaseq.demod import _sweep_rows
from phaseq.sim import (
    DEFAULT_CHUNK,
    _chunk_sizes,
    _distinct_rows,
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
            rng.integers(0, 3, size=(4096, 8)),
            rng.integers(-5, 5, size=(300, 3)),
            rng.integers(0, 100, size=(50, 1)),
            np.array([[4, 1, 7]]),
            np.full((20, 5), 2),
            # rows packed into several words: 6 bits, 10 values per word
            rng.integers(0, 64, size=(500, 200)),
            # spans whose maximum needs k bits (2^k - 1) or k + 1 bits (2^k)
            *(spanning(top, shape) for top, shape in [
                (7, (400, 7)), (8, (400, 7)), (2**21 - 1, (400, 5)), (2**21, (400, 5)),
            ]),
            # 41-bit spans, one value per word, and a narrow span far from 0
            spanning(2**40 + 1, (300, 4)),
            rng.integers(2**40 - 3, 2**40 + 3, size=(300, 4)),
            # one column, and one long row
            rng.integers(0, 4, size=(200, 1)),
            rng.integers(-3, 70, size=(1, 90)),
        ]
        for rows in cases:
            distinct, inverse = _distinct_rows(rows)
            ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
            np.testing.assert_array_equal(distinct, ref)
            np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
            np.testing.assert_array_equal(distinct[inverse], rows)


class TestRunSer:
    def test_deep_noise_is_guessing(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=-40.0)
        point = run_ser(cfg, trials=20_000, seed=1)
        assert point.ser == pytest.approx(0.75, abs=0.02)
        assert point.trials == 20_000
        assert point.symbols == 20_000  # pilot convention scores L-1 per block

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
        # chunk 0 meets the 150 dB refusal after chunk 1's draws were
        # submitted; the error propagates and the helper thread ends
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=150.0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="SNR 150 dB needs .* above the limit of 2048"):
            run_ser(cfg, 3 * DEFAULT_CHUNK, seed=1)
        assert [(p._max_workers, p.submitted) for p in pools] == [(1, 2)]
        assert threading.active_count() == before

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
        work = sim._THREAD_WORK.work
        assert run_ser(ramp, 5_000, seed=3) == fresh[0]
        assert sim._THREAD_WORK.work is work

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
            SystemConfig(M=4, K=64, L=8, snr_db=10.0),
        ],
        ids=["ramp", "K=64"],
    )
    def test_each_row_is_swept_once(self, cfg, monkeypatch):
        # chunk threads that miss the same row at once: one sweeps it, the
        # other waits for it, so rows swept == rows stored
        lock = threading.Lock()
        swept = [0]
        memos = []

        def counting_sweep(rows, config):
            with lock:
                swept[0] += len(rows)
            return _sweep_rows(rows, config)

        class RecordedMemo(sim._RowMemo):
            def __init__(self, L):
                super().__init__(L)
                memos.append(self)

        monkeypatch.setattr(sim, "_sweep_rows", counting_sweep)
        monkeypatch.setattr(sim, "_RowMemo", RecordedMemo)
        want = run_ser(cfg, trials=13_000, seed=11, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in (2, 4):
                swept[0] = 0
                assert run_ser(cfg, trials=13_000, seed=11, workers=w) == want
                assert swept[0] == len(memos[-1]._tied)
        finally:
            sys.setswitchinterval(interval)

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
        valid = np.arange(sweep.candidates.shape[1]) < sweep.n_distinct[:, None]
        assert valid[np.arange(len(rows)), sweep.winner].all()
        assert (sweep.ties <= valid).all()
        # sorted rows: equal residues sit side by side
        same = (rows[:, 1:] == rows[:, :-1])[:, None, :] & valid[:, :, None]
        C = sweep.candidates
        assert np.array_equal(C[:, :, 1:][same], C[:, :, :-1][same])
        if mult == 2 and L > 1:
            assert (np.count_nonzero(sweep.ties, axis=1) > 1).any()


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
