"""phaseq benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload ser_k12 --seed 0 --seconds 12 --trace 0

Run it from anywhere inside a phaseq checkout; it imports the package from the
checkout's `src`. With `--trace 0` it measures the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer ones (see traced.py), and
writes the spans to `.perfbench/` at the root of the checkout. Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Cold set-ups per measured run: one in this process, the rest in fresh ones.
SETUP_REPS = 3


def import_phaseq() -> None:
    """Put the checkout's phaseq first on the path; exit non-zero when absent."""
    if not (SRC / "phaseq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no phaseq sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import phaseq

    if Path(phaseq.__file__).resolve().parent != (SRC / "phaseq").resolve():
        sys.exit(f"perfbench: imported phaseq from {phaseq.__file__}, not {SRC}")


def probe_setup(name: str) -> dict:
    """Cold set-up of the workload in a fresh interpreter (import excluded)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measured_run(name: str, seed: int, seconds: float, ref: dict):
    """End-to-end metrics of one workload; returns (metrics, attempted, failures)."""
    import workloads

    ops = workloads.workload_ops(name, seed)
    # Set-ups and timed passes alternate, so that both sample the host over
    # the whole run rather than over one stretch of it.
    setups = [workloads.set_up(ops)]
    passes = workloads.timed_passes(ops, seed, ref, seconds / SETUP_REPS)
    for _ in range(SETUP_REPS - 1):
        setups.append(probe_setup(name))
        passes = workloads.timed_passes(ops, seed, ref, seconds / SETUP_REPS, res=passes)

    for op in ops:
        print(f"op {op.label}: {passes.outputs.get(op.label)}")
        print(f"op {op.label} seconds: {passes.times[op.label]}")
        print(f"op {op.label} scaled seconds: {passes.scaled[op.label]}")
    for i, s in enumerate(setups):
        print(f"set-up {i}: fill {s['fill_s']!r} s, lazy tables {s['lazy_s']!r} s,"
              f" scaled {s['scaled_s']!r} s, {s['kernels']} kernels")
    print(f"host reference readings: {passes.refs}")

    setup_s = statistics.median(s["scaled_s"] for s in setups)
    pass_s = sum(statistics.median(t) for t in passes.scaled.values())
    raw_setup = statistics.median(s["fill_s"] + s["lazy_s"] for s in setups)
    raw_pass = sum(statistics.median(t) for t in passes.times.values())
    # Cold time to all results. Printed but not a bounded metric: it adds
    # set-up's run-to-run spread to pass_s.
    print(f"wall_s (set-up plus pass) = {setup_s + pass_s!r} s scaled,"
          f" {raw_setup + raw_pass!r} s unscaled")
    print(f"unscaled: setup_s = {raw_setup!r} s, pass_s = {raw_pass!r} s")
    block_ops = [op for op in ops if op.trials]
    block_s = sum(statistics.median(passes.scaled[op.label]) for op in block_ops)
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "blocks_per_s": sum(op.trials for op in block_ops) / block_s,
        "peak_rss_mb": usage / 1024.0,
    }
    return metrics, passes.attempted, passes.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    import_phaseq()
    import traced

    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, attempted, failures = traced.traced_run(
            args.workload, args.seed, args.seconds, ref, trace_path
        )
        print(f"spans written to {trace_path}")
    else:
        metrics, attempted, failures = measured_run(
            args.workload, args.seed, args.seconds, ref
        )
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    print(f"failed_frac = {len(failures)}/{attempted}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
