"""Acceptance gate: eight go/no-go checks, one printed verdict line each.

Run order matters only for wall clock (the heavy capacity/SER comparisons sit
at the end). Every test prints its verdict through capsys.disabled() so the
line survives pytest's capture, then asserts.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from phaseq import SystemConfig
from phaseq.capacity import mutual_information, mutual_information_mc
from phaseq.demod import glrt_demodulate, glrt_demodulate_dithered
from phaseq.sim import run_ser, ser_crossing_snr
from phaseq.verify import (
    check_cardinalities,
    check_conditional_entropy_constant,
    check_oracle_equivalence,
    check_symmetries,
)


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_symmetry_suite(capsys):
    started = time.monotonic()
    results = check_symmetries(instances=100, seed=2024)
    elapsed = time.monotonic() - started
    worst = max(r.deviation for r in results)
    ok = all(r.passed for r in results) and len(results) == 11 and elapsed < 120.0
    announce(
        capsys, 1, ok,
        f"11 properties x 100 instances, max rel dev {worst:.2e} < 1e-9, {elapsed:.1f}s"
    )
    assert len(results) == 11
    for r in results:
        assert r.passed, r.line()
    assert elapsed < 120.0


def test_criterion_2_conditional_entropy_constant(capsys):
    result = check_conditional_entropy_constant(n_inputs=20, seed=2027)
    announce(
        capsys, 2, result.passed,
        f"20 random x, max |H(Z|x) - H(Z|x0)| = {result.deviation:.2e} bits < 1e-9"
    )
    assert result.passed, result.line()


def test_criterion_3_reduced_equals_brute_force(capsys):
    started = time.monotonic()
    results = check_oracle_equivalence()
    elapsed = time.monotonic() - started
    worst = max(r.deviation for r in results)
    ok = all(r.passed for r in results) and elapsed < 300.0
    announce(
        capsys, 3, ok,
        f"9 (K, L, SNR) cases, max rel dev {worst:.2e} < 1e-9, {elapsed:.1f}s"
    )
    for r in results:
        assert r.passed, r.line()
    assert elapsed < 300.0


def test_criterion_4_class_cardinalities(capsys):
    results = check_cardinalities()
    ok = all(r.passed for r in results)
    announce(
        capsys, 4, ok,
        "output classes {36,120,330,792,1716} for L=3..7, worst input classes 1225"
    )
    for r in results:
        assert r.passed, r.line()


def test_criterion_5_two_way_ambiguity_and_dither(capsys):
    gaps = []
    for snr_db in (5.0, 10.0, 20.0):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=snr_db, theta0=math.pi / 4)
        res = glrt_demodulate([1, 0], cfg)
        assert len(res.candidates) == 2, f"{snr_db} dB: {len(res.candidates)} candidates"
        assert {c.x for c in res.candidates} == {(0, 0), (0, 3)}
        assert res.tie_gap is not None and res.tie_gap < 1e-6
        gaps.append(res.tie_gap)
    dith_cfg = SystemConfig(
        M=4, K=8, L=2, snr_db=10.0, theta0=math.pi / 4, dither="ramp"
    )
    dith = glrt_demodulate_dithered([1, 0], dith_cfg)
    broken = dith.tie_gap is not None and dith.tie_gap > 1e-3
    announce(
        capsys, 5, broken,
        f"tied pair (0,0)/(0,3), max gap {max(gaps):.1e} < 1e-6 at 5/10/20 dB; "
        f"dithered gap {dith.tie_gap:.2e} > 1e-3"
    )
    assert broken


def test_criterion_6_capacity_ratios(capsys):
    started = time.monotonic()
    trials = 200_000
    lines = []
    ok = True
    for i, snr_db in enumerate((4.0, 6.0, 8.0)):
        proxy_cfg = SystemConfig(M=4, K=64, L=6, snr_db=snr_db)
        proxy = mutual_information_mc(
            proxy_cfg, trials, np.random.default_rng(np.random.SeedSequence((600, i)))
        )
        k8d_cfg = SystemConfig(M=4, K=8, L=6, snr_db=snr_db, dither="ramp")
        k8d = mutual_information_mc(
            k8d_cfg, trials, np.random.default_rng(np.random.SeedSequence((601, i)))
        )
        k12 = mutual_information(SystemConfig(M=4, K=12, L=6, snr_db=snr_db))
        r8 = k8d.per_symbol / proxy.per_symbol
        r12 = k12.per_symbol / proxy.per_symbol
        ok = ok and r8 >= 0.75 and r12 >= 0.85
        lines.append(f"{snr_db:g} dB: K8d/K64 {r8:.3f}, K12/K64 {r12:.3f}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1800.0
    announce(capsys, 6, ok, "; ".join(lines) + f"; {elapsed:.0f}s")
    assert ok, lines
    assert elapsed < 1800.0


def test_criterion_7_ser_crossing_offsets(capsys):
    trials = 100_000
    setups = {
        "k64": (SystemConfig(M=4, K=64, L=8, snr_db=0.0), range(8, 14)),
        "k12": (SystemConfig(M=4, K=12, L=8, snr_db=0.0), range(10, 16)),
        "k8d": (
            SystemConfig(M=4, K=8, L=8, snr_db=0.0, dither="ramp"),
            range(12, 18),
        ),
    }
    crossings = {}
    for ci, (name, (base, grid)) in enumerate(setups.items()):
        snrs, sers = [], []
        for si, snr in enumerate(grid):
            point = run_ser(
                base.with_snr(float(snr)),
                trials=trials,
                seed=np.random.SeedSequence((700, ci, si)),
                workers=4,
            )
            snrs.append(float(snr))
            sers.append(point.ser)
        crossings[name] = ser_crossing_snr(snrs, sers, 1e-3)
    off8 = crossings["k8d"] - crossings["k64"]
    off12 = crossings["k12"] - crossings["k64"]
    ok = 2.5 <= off8 <= 5.5 and 0.5 <= off12 <= 3.5
    announce(
        capsys, 7, ok,
        f"1e-3 crossings: K64 {crossings['k64']:.2f} dB, "
        f"K12 +{off12:.2f} dB (2 +- 1.5), K8-dithered +{off8:.2f} dB (4 +- 1.5)"
    )
    assert 2.5 <= off8 <= 5.5, crossings
    assert 0.5 <= off12 <= 3.5, crossings


def test_criterion_8_degenerate_limits(capsys):
    mi_worst = 0.0
    for snr_db in (0.0, 6.0, 12.0, 20.0):
        res = mutual_information(SystemConfig(M=4, K=8, L=1, snr_db=snr_db))
        mi_worst = max(mi_worst, abs(res.mi))
    deep = mutual_information(SystemConfig(M=4, K=8, L=3, snr_db=-40.0))
    target = 3 * math.log2(8)
    ent_dev = max(abs(deep.h_cond - target), abs(deep.h_out - target))
    point = run_ser(
        SystemConfig(M=4, K=8, L=2, snr_db=-40.0), trials=20_000, seed=808
    )
    ok = mi_worst < 1e-6 and ent_dev < 1e-2 and abs(point.ser - 0.75) <= 0.02
    announce(
        capsys, 8, ok,
        f"L=1 MI max {mi_worst:.1e} < 1e-6; -40 dB entropy dev {ent_dev:.1e} < 1e-2; "
        f"-40 dB SER {point.ser:.3f} = 0.75 +- 0.02"
    )
    assert mi_worst < 1e-6
    assert ent_dev < 1e-2
    assert abs(point.ser - 0.75) <= 0.02
