"""The traced run: per-layer times and counts of one workload.

Spans are recorded by the benchmark around calls into the public functions of
each phaseq layer; the package itself is not instrumented. The workload's
operations run in traced passes for the given seconds, after as many seconds
of untraced passes; an operation's time is its median over the traced passes,
and the tracing overhead is the difference of the two median pass walls.

Where a layer is only reached from inside another public function (sampling
and demod inside `run_ser`, sampling inside `mutual_information_mc`, class
enumeration and phase products inside `mutual_information`), the benchmark
replays those inner calls once on the same inputs under their own spans. A
layer's time is then the replayed span's time, and `sim.self_s` is `run_ser`
minus its replayed sampling and demod.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from phaseq.capacity import conditional_entropy, output_entropy
from phaseq.combinatorics import canonical_output_classes, grouped_input_classes
from phaseq.core import sample_blocks
from phaseq.demod import DEFAULT_TIE_TOL, brute_force_glrt, demodulate_rows
from phaseq.sim import DEFAULT_CHUNK
from phaseq.transition import block_conditional_batch, kernel_bank_for, kernel_for

import workloads

# Distinct demod rows per SER workload checked against brute_force_glrt.
ORACLE_ROWS = 3
# mutual_information_mc's default batch, mirrored so the sampling replay
# draws the same blocks.
MC_BATCH = 8192


class Tracer:
    """In-memory spans: name, start, end, parent index, run id and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: str | None = None, **counts):
        parent = self._stack[-1] if self._stack else None
        if run is None and parent is not None:
            run = self.spans[parent]["run"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "run": run, "counts": dict(counts)}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _under(self, rec: dict, ancestor: str) -> bool:
        while rec["parent"] is not None:
            rec = self.spans[rec["parent"]]
            if rec["name"] == ancestor:
                return True
        return False

    def select(self, name: str, under: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (under is None or self._under(s, under))
        ]

    def seconds(self, name: str, under: str | None = None) -> float:
        return sum((s["end"] - s["start"] for s in self.select(name, under)), 0.0)

    def count(self, name: str, key: str, under: str | None = None) -> int:
        return sum(s["counts"].get(key, 0) for s in self.select(name, under))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


# ---- replays -----------------------------------------------------------------


def replay_ser(op, tr: Tracer) -> list[np.ndarray]:
    """Replay run_ser's sampling and demod calls; returns each row demodulated.

    Mirrors run_ser's stream layout (one SeedSequence child per chunk of
    DEFAULT_CHUNK blocks, pilot symbol 0) and its per-call memo, so
    demodulate_rows sees exactly the distinct rows run_ser sends it.
    """
    cfg = op.config
    kernels = kernel_bank_for(cfg)
    full, rem = divmod(op.trials, DEFAULT_CHUNK)
    sizes = [DEFAULT_CHUNK] * full + ([rem] if rem else [])
    seen: set[tuple[int, ...]] = set()
    demodulated = []
    with tr.span("replay.run_ser"):
        for size, child in zip(sizes, op.seed_sequence().spawn(len(sizes))):
            rng = np.random.default_rng(child)
            X = rng.integers(0, cfg.M, size=(size, cfg.L))
            X[:, 0] = 0
            with tr.span("core.sample_blocks", blocks=size):
                _, Z = sample_blocks(X, cfg, rng)
            rows = Z if cfg.is_dithered else Z % cfg.a
            missing = []
            for row in rows:
                key = tuple(int(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    missing.append(row)
            if not missing:
                continue
            missing = np.array(missing, dtype=np.int64)
            with tr.span("demod.demodulate_rows", rows=len(missing)) as counts:
                records = demodulate_rows(missing, cfg, kernels)
            cands = [r.candidates.shape[0] for r in records]
            counts["candidates"] = sum(cands)
            counts["max_candidates"] = max(cands)
            counts["ties"] = sum(bool(r.tie) for r in records)
            demodulated.extend(missing)
    return demodulated


def replay_mc_sampling(op, tr: Tracer) -> None:
    """Replay the block draws of mutual_information_mc (same rng order)."""
    cfg = op.config
    rng = np.random.default_rng(op.seed_sequence())
    with tr.span("replay.mutual_information_mc"):
        for lo in range(0, op.trials, MC_BATCH):
            n = min(MC_BATCH, op.trials - lo)
            X = rng.integers(0, cfg.M, size=(n, cfg.L))
            with tr.span("core.sample_blocks", blocks=n):
                sample_blocks(X, cfg, rng)


def replay_exact(op, tr: Tracer) -> None:
    """Replay the entropies, class enumerations and phase products of exact MI."""
    cfg = op.config
    kernel = kernel_for(cfg)
    with tr.span("replay.mutual_information"):
        with tr.span("capacity.conditional_entropy"):
            conditional_entropy(cfg, kernel)
        with tr.span("capacity.output_entropy"):
            output_entropy(cfg, kernel)
        with tr.span("combinatorics.canonical_output_classes") as counts:
            out_classes = canonical_output_classes(cfg.K, cfg.L)
            residue_classes = canonical_output_classes(cfg.a, cfg.L)
            counts["classes"] = len(out_classes) + len(residue_classes)
        reps = np.array([c.representative for c in out_classes], dtype=np.int64)
        with tr.span("transition.block_conditional_batch"):
            block_conditional_batch(reps, kernel)
        for rc in residue_classes:
            z = np.array(rc.representative, dtype=np.int64)
            with tr.span("combinatorics.grouped_input_classes") as counts:
                in_classes = grouped_input_classes(z, cfg.M)
                counts["classes"] = len(in_classes)
            xs = np.array([c.representative for c in in_classes], dtype=np.int64)
            S = (z[None, :] - cfg.a * xs) % cfg.K
            with tr.span("transition.block_conditional_batch"):
                block_conditional_batch(S, kernel)


# ---- oracle sample -----------------------------------------------------------


def _orbit(x, M: int) -> tuple[int, ...]:
    """Input up to a constant constellation shift: first symbol pinned to 0."""
    x = np.asarray(x, dtype=np.int64)
    return tuple(int(v) for v in (x - x[0]) % M)


def oracle_agrees(op, row: np.ndarray) -> bool:
    """Sweep winner (up to shift) and tie flag against brute_force_glrt."""
    sweep = workloads.sweep(op, row)
    brute = brute_force_glrt(row, op.config)
    if sweep.tie != brute.tie:
        return False
    best = max(c.metric for c in brute.candidates)
    tied = {
        _orbit(c.x, op.config.M)
        for c in brute.candidates
        if abs(c.metric / best - 1.0) <= DEFAULT_TIE_TOL
    }
    return _orbit(sweep.winner, op.config.M) in tied


# ---- the traced run ----------------------------------------------------------


def traced_run(name: str, seed: int, seconds: float, ref: dict, trace_path):
    """Per-layer metrics of one workload; returns (metrics, attempted, failures)."""
    ops = workloads.workload_ops(name, seed)
    ser_ops = [op for op in ops if op.kind == "ser"]
    tr = Tracer()

    with tr.span("transition.kernel_fill", run="setup") as counts:
        counts["kernels"] = workloads.fill_kernels(ops)
    if ser_ops:
        with tr.span("transition.lazy_tables", run="setup"):
            for op in ser_ops:
                workloads.demod_probe(op)

    untraced = workloads.timed_passes(ops, seed, ref, seconds)
    traced = workloads.timed_passes(ops, seed, ref, seconds, span=tr.span)
    failures = untraced.failures + traced.failures
    attempted = untraced.attempted + traced.attempted
    outputs = traced.outputs
    op_s = {label: statistics.median(t) for label, t in traced.times.items()}

    rows_by_op = {}
    for i, op in enumerate(ops):
        with tr.span(f"replay.{op.label}", run=f"op{i}"):
            if op.kind == "ser":
                rows_by_op[op.label] = replay_ser(op, tr)
            elif op.kind == "mc_mi":
                replay_mc_sampling(op, tr)
            else:
                replay_exact(op, tr)

    run_ser_1w = sum(op_s[op.label] for op in ser_ops)
    for i, op in enumerate(ser_ops):
        with tr.span("sim.run_ser_2_workers", run=f"op{i}"):
            out2 = workloads.run_op(op, workers=2)
        attempted += 1
        if out2 != outputs[op.label]:
            failures.append(f"{op.label}: 2 workers gave {out2}, 1 worker {outputs[op.label]}")
    run_ser_2w = tr.seconds("sim.run_ser_2_workers")

    oracle_checked = oracle_agreed = 0
    if ser_ops:
        pairs = [(op, row) for op in ser_ops for row in rows_by_op[op.label]]
        rng = np.random.default_rng([seed, 7])
        for j in rng.choice(len(pairs), size=min(ORACLE_ROWS, len(pairs)), replace=False):
            op, row = pairs[int(j)]
            with tr.span("oracle.brute_force_glrt", run="oracle"):
                ok = oracle_agrees(op, row)
            oracle_checked += 1
            oracle_agreed += ok
            attempted += 1
            if not ok:
                failures.append(f"{op.label}: sweep disagrees with brute force on row {row.tolist()}")

    tr.write(trace_path)

    blocks = tr.count("core.sample_blocks", "blocks")
    ser_blocks = tr.count("core.sample_blocks", "blocks", under="replay.run_ser")
    rows = tr.count("demod.demodulate_rows", "rows")
    metrics = {
        "transition.kernel_fill_s": tr.seconds("transition.kernel_fill"),
        "transition.kernels_built": tr.count("transition.kernel_fill", "kernels"),
        "transition.lazy_tables_s": tr.seconds("transition.lazy_tables"),
        "transition.phase_product_s": tr.seconds("transition.block_conditional_batch"),
        "combinatorics.output_classes_s": tr.seconds("combinatorics.canonical_output_classes"),
        "combinatorics.output_classes": tr.count("combinatorics.canonical_output_classes", "classes"),
        "combinatorics.input_classes_s": tr.seconds("combinatorics.grouped_input_classes"),
        "combinatorics.input_classes": tr.count("combinatorics.grouped_input_classes", "classes"),
        "capacity.exact_mi_s": sum(
            (op_s[op.label] for op in ops if op.kind == "exact_mi"), 0.0
        ),
        "capacity.h_cond_s": tr.seconds("capacity.conditional_entropy"),
        "capacity.h_out_s": tr.seconds("capacity.output_entropy"),
        "capacity.mc_k64_s": op_s.get("mc_k64", 0.0),
        "capacity.mc_k8_ramp_s": op_s.get("mc_k8_ramp", 0.0),
        "core.sample_blocks_s": tr.seconds("core.sample_blocks"),
        "core.blocks_sampled": blocks,
        "demod.rows_s": tr.seconds("demod.demodulate_rows"),
        "demod.rows": rows,
        "demod.distinct_row_fraction": rows / ser_blocks if ser_blocks else 0.0,
        "demod.candidates_per_row": (
            tr.count("demod.demodulate_rows", "candidates") / rows if rows else 0.0
        ),
        "demod.max_candidates": max(
            [s["counts"]["max_candidates"] for s in tr.select("demod.demodulate_rows")],
            default=0,
        ),
        "demod.tie_fraction": tr.count("demod.demodulate_rows", "ties") / rows if rows else 0.0,
        "sim.run_ser_s": run_ser_1w,
        "sim.self_s": run_ser_1w
        - tr.seconds("core.sample_blocks", under="replay.run_ser")
        - tr.seconds("demod.demodulate_rows"),
        "sim.worker_scaling": run_ser_1w / run_ser_2w if run_ser_2w else 0.0,
        "sim.symbol_errors": sum(outputs[op.label]["errors"] for op in ser_ops),
        "sim.tie_blocks": sum(outputs[op.label]["ties"] for op in ser_ops),
        "oracle.rows_checked": oracle_checked,
        "oracle.rows_agreed": oracle_agreed,
        "trace.overhead_s": statistics.median(traced.pass_walls)
        - statistics.median(untraced.pass_walls),
        "host.ref_loop_s": statistics.median(untraced.refs + traced.refs),
    }
    return metrics, attempted, failures
