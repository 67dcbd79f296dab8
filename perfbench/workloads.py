"""Workloads of the phaseq benchmark and the checks on their outputs.

A workload is a fixed list of operations built from a seed. An operation is
one SER point (`run_ser`) or one mutual-information value (reduced-exact or
Monte Carlo). Before its operations run, a workload needs its transition
kernels filled and, for the SER workloads, the lazy demod tables of every
kernel built; that is its set-up.

Everything here calls the public functions of phaseq from outside; the
benchmark edits no module of the package. `phaseq` must be importable before
this module is imported (run.py puts the checkout's `src` first on the path).
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from phaseq.capacity import mutual_information, mutual_information_mc
from phaseq.core import SystemConfig
from phaseq.demod import glrt_demodulate, glrt_demodulate_dithered
from phaseq.sim import run_ser, wilson_interval
from phaseq.transition import kernel_bank_for

# The seed whose SER counts and MI values were recorded in reference.json.
REFERENCE_SEED = 0
# Other seeds: an SER point passes when it lies in the reference's Wilson
# interval at this z. Two independent estimates of equal size differ by
# sqrt(2) of one estimate's standard error, so this is six standard errors
# of their difference. The interval is taken over blocks, not symbols: a
# block whose phase is resolved wrongly can lose all of its L-1 scored
# symbols, so symbol errors come in bursts and their variance is up to L-1
# times the binomial one (about 4 times, measured on ser_k12).
SER_Z = 6.0 * math.sqrt(2.0)
# Other seeds: a Monte Carlo MI passes within this many of its own standard
# errors of the reference value.
MC_SIGMAS = 6.0
REL_TOL = 1e-9
# Host-speed scaling. On a shared host the same work can take 40% longer
# from one minute to the next, presumably while another tenant loads the
# sibling hardware thread, and a run's median follows. Each timed interval is therefore
# paired with readings of host_reference() taken just before and after it,
# and reported as seconds on a host whose reading is REF_S:
#     scaled = seconds * REF_S / mean(reading before, reading after).
REF_S = 0.030


@dataclass(frozen=True)
class Op:
    """One operation: an SER point, an exact MI value or a Monte Carlo MI."""

    kind: str  # "ser", "exact_mi" or "mc_mi"
    label: str
    config: SystemConfig
    trials: int = 0  # blocks for "ser", trials for "mc_mi"
    entropy: tuple[int, ...] = ()  # SeedSequence entropy of the op's stream

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(list(self.entropy))


def workload_ops(name: str, seed: int) -> list[Op]:
    """The operations of a workload for one seed; equal seeds, equal ops."""
    if name == "ser_k12":
        # Criterion 7's K=12 arm around its SER 1e-3 crossing.
        return [
            Op("ser", f"ser_{snr:g}dB", SystemConfig(M=4, K=12, L=8, snr_db=snr), 40_000, (seed, i))
            for i, snr in enumerate((11.0, 13.0))
        ]
    if name == "ser_k8_ramp":
        cfg = SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp")
        return [Op("ser", "ser_14dB", cfg, 10_000, (seed, 0))]
    if name == "capacity_mix":
        # Criterion 6 at one SNR.
        return [
            Op("exact_mi", "exact_k12", SystemConfig(M=4, K=12, L=6, snr_db=6.0)),
            Op("mc_mi", "mc_k64", SystemConfig(M=4, K=64, L=6, snr_db=6.0), 20_000, (seed, 1)),
            Op(
                "mc_mi",
                "mc_k8_ramp",
                SystemConfig(M=4, K=8, L=6, snr_db=6.0, dither="ramp"),
                20_000,
                (seed, 2),
            ),
        ]
    raise ValueError(f"unknown workload: {name!r}")


# ---- set-up ----------------------------------------------------------------


def fill_kernels(ops: list[Op]) -> int:
    """Build every kernel the ops need; returns the number of distinct kernels."""
    kernels = set()
    for op in ops:
        kernels.update(id(k) for k in kernel_bank_for(op.config))
    return len(kernels)


def sweep(op: Op, z):
    """The public GLRT sweep on one observation of the op's config."""
    if op.config.is_dithered:
        return glrt_demodulate_dithered(z, op.config)
    return glrt_demodulate(z, op.config)


def demod_probe(op: Op):
    """One public demod call, which builds the kernels' lazy scan tables."""
    return sweep(op, np.zeros(op.config.L, dtype=np.int64))


def set_up(ops: list[Op]) -> dict:
    """Cold set-up of a workload: kernel fill, then the lazy demod tables.

    Meaningful only from empty kernel caches, i.e. once per process. Returns
    the raw seconds of both steps, their total scaled to REF_S, and the
    number of distinct kernels.
    """
    ref_before = host_reference()
    t0 = time.perf_counter()
    kernels = fill_kernels(ops)
    t1 = time.perf_counter()
    for op in ops:
        if op.kind == "ser":
            demod_probe(op)
    t2 = time.perf_counter()
    ref = (ref_before + host_reference()) / 2
    return {"fill_s": t1 - t0, "lazy_s": t2 - t1, "scaled_s": (t2 - t0) * REF_S / ref,
            "kernels": kernels}


# ---- operations and their checks ---------------------------------------------


def run_op(op: Op, workers: int = 1) -> dict:
    """Run one operation; returns its outputs as plain numbers."""
    if op.kind == "ser":
        p = run_ser(op.config, op.trials, seed=op.seed_sequence(), workers=workers)
        return {
            "errors": p.errors,
            "ties": round(p.tie_rate * p.trials),
            "symbols": p.symbols,
            "ser": p.ser,
        }
    if op.kind == "exact_mi":
        r = mutual_information(op.config)
        return {"mi": r.mi, "h_cond": r.h_cond, "h_out": r.h_out}
    if op.kind == "mc_mi":
        r = mutual_information_mc(op.config, op.trials, np.random.default_rng(op.seed_sequence()))
        return {"mi": float(r.mi), "se": r.error_bar, "h_cond": float(r.h_cond), "h_out": float(r.h_out)}
    raise ValueError(f"unknown op kind: {op.kind!r}")


def _rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_op(op: Op, out: dict, ref: dict, seed: int) -> str | None:
    """None when the outputs pass, else the reason they fail.

    ref is the op's entry in reference.json, recorded with REFERENCE_SEED.
    On that seed SER counts must match exactly and MI values within 1e-9
    relative. On other seeds the checks are statistical, as documented at
    SER_Z and MC_SIGMAS. Exact MI does not depend on the seed.
    """
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {', '.join(bad)}"
    if op.kind == "ser":
        if seed == REFERENCE_SEED:
            if (out["errors"], out["ties"]) != (ref["errors"], ref["ties"]):
                return (
                    f"errors/ties {out['errors']}/{out['ties']} != "
                    f"reference {ref['errors']}/{ref['ties']}"
                )
            return None
        per_block = op.config.L - 1
        lo, hi = wilson_interval(ref["errors"] / per_block, ref["symbols"] / per_block, z=SER_Z)
        if not lo <= out["ser"] <= hi:
            return f"SER {out['ser']!r} outside reference interval [{lo!r}, {hi!r}]"
        return None
    if op.kind == "exact_mi":
        for key in ("mi", "h_cond", "h_out"):
            if not _rel_close(out[key], ref[key]):
                return f"{key} {out[key]!r} != reference {ref[key]!r}"
        return None
    if seed == REFERENCE_SEED:
        if not _rel_close(out["mi"], ref["mi"]):
            return f"MC MI {out['mi']!r} != reference {ref['mi']!r}"
        return None
    if abs(out["mi"] - ref["mi"]) > MC_SIGMAS * out["se"]:
        return f"MC MI {out['mi']!r} more than {MC_SIGMAS} SE from reference {ref['mi']!r}"
    return None


# ---- timed passes ------------------------------------------------------------


@dataclass
class Passes:
    """Per-op seconds (raw and scaled to REF_S), host readings, pass walls
    and check results of repeated passes."""

    times: dict[str, list[float]]
    scaled: dict[str, list[float]]
    refs: list[float] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    outputs: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def timed_passes(
    ops: list[Op], seed: int, ref: dict, seconds: float, span=None, res: Passes | None = None
) -> Passes:
    """Run every op in order, pass after pass, within `seconds`.

    Another pass starts only if it should end within `seconds`, judged by the
    last pass's wall time; at least one pass runs. The passes are added to
    `res` when given. Each result is checked against the reference
    and, from the second pass on, against the op's first result in this run:
    the same op on the same seed must give bit-identical outputs. A host
    reading separates consecutive ops, so each op's time is scaled by the
    readings on either side of it. `span`, a Tracer.span, records a span
    around each op when given.
    """
    if res is None:
        res = Passes(times={op.label: [] for op in ops}, scaled={op.label: [] for op in ops})
    if span is None:
        span = _no_span
    res.refs.append(host_reference())
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                with span(f"op.{op.label}", run=f"pass{len(res.pass_walls)}-op{i}"):
                    out = run_op(op)
            except Exception:
                out, reason = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            res.refs.append(host_reference())
            res.times[op.label].append(dt)
            res.scaled[op.label].append(dt * REF_S / statistics.fmean(res.refs[-2:]))
            res.attempted += 1
            if out is not None:
                reason = check_op(op, out, ref[op.label], seed)
                first = res.outputs.setdefault(op.label, out)
                if reason is None and out != first:
                    reason = f"{out} differs from the first pass's {first}"
            if reason:
                res.failures.append(f"{op.label}: {reason}")
        res.pass_walls.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + res.pass_walls[-1] > seconds:
            return res


@contextmanager
def _no_span(name: str, run: str | None = None):
    yield


def host_reference(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop, a reading of host speed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
