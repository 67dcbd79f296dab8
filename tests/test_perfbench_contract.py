"""The names and signatures the benchmark calls, on tiny operations.

perfbench/workloads.py and perfbench/traced.py drive phaseq only through its
public functions. They are imported here unchanged and run on operations far
smaller than the benchmark's, so renaming or re-signing anything they call
fails this suite instead of the benchmark run.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from phaseq import SystemConfig, mutual_information

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # import without leaving bytecode in the benchmark's directory
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import traced
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return workloads, traced


@pytest.fixture(scope="module")
def ops(bench):
    workloads, _ = bench
    Op = workloads.Op
    return {
        "ser": Op("ser", "ser_k12", SystemConfig(M=4, K=12, L=4, snr_db=11.0), 300, (0, 0)),
        "ramp": Op(
            "ser", "ser_k8_ramp", SystemConfig(M=4, K=8, L=4, snr_db=14.0, dither="ramp"), 300, (0, 1)
        ),
        "exact": Op("exact_mi", "exact_k8", SystemConfig(M=4, K=8, L=3, snr_db=6.0)),
        "mc": Op("mc_mi", "mc_k8", SystemConfig(M=4, K=8, L=3, snr_db=6.0), 200, (0, 2)),
    }


def test_set_up_and_run_op(bench, ops):
    workloads, _ = bench
    setup = workloads.set_up(list(ops.values()))
    assert set(setup) == {"fill_s", "lazy_s", "scaled_s", "kernels"}
    # one kernel each for K=12 and the exact/MC config, four for the ramp
    assert setup["kernels"] == 6
    for key in ("ser", "ramp"):
        out = workloads.run_op(ops[key])
        assert set(out) == {"errors", "ties", "symbols", "ser"}
        assert out["symbols"] == 300 * 3
        assert workloads.run_op(ops[key], workers=2) == out
    exact = workloads.run_op(ops["exact"])
    assert exact["mi"] == mutual_information(ops["exact"].config).mi
    mc = workloads.run_op(ops["mc"])
    assert all(math.isfinite(v) for v in mc.values())


def test_replays_and_oracle(bench, ops):
    _, traced = bench
    tr = traced.Tracer()
    for key in ("ser", "ramp"):
        rows = traced.replay_ser(ops[key], tr)
        assert rows
        for row in rows[:3]:
            assert traced.oracle_agrees(ops[key], np.asarray(row))
    assert tr.count("core.sample_blocks", "blocks") == 600
    assert tr.count("demod.demodulate_rows", "rows") > 0
    traced.replay_exact(ops["exact"], tr)
    assert tr.select("capacity.conditional_entropy") and tr.select("capacity.output_entropy")
    assert tr.select("transition.block_conditional_batch")
    traced.replay_mc_sampling(ops["mc"], tr)
    assert tr.count("core.sample_blocks", "blocks") == 800
