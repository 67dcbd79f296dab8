"""Command-line frontend: reproducible experiments over the library API.

Every CSV written is paired with a plain-text key=value manifest recording
the command line, resolved configuration, seed, package version, output
paths, and wall-clock duration. Reruns with the same arguments and seed
produce byte-identical CSVs (manifests differ only in the duration field).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import mutual_information, mutual_information_mc
from .combinatorics import (
    canonical_output_classes,
    export_input_classes_csv,
    export_output_classes_csv,
    grouped_input_classes,
)
from .core import SystemConfig, ramp_dither
from .sim import run_ser
from .transition import export_kernel_csv, kernel_bank_for, kernel_for
from .verify import run_all_checks


def parse_snr_grid(text: str) -> list[float]:
    """SNR grid in dB: 'start:stop:step' (inclusive ends), comma list, or one value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        if stop < start:
            raise ValueError("stop must be >= start")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("SNR grid is empty")
    return values


def _dither_mode(cfg: SystemConfig) -> str:
    """The dither label of a resolved config: none, ramp or custom."""
    if not cfg.is_dithered:
        return "none"
    return "ramp" if cfg.dither == ramp_dither(cfg.L, cfg.K) else "custom"


def _build_config(args, snr_db: float) -> SystemConfig:
    return SystemConfig(
        M=args.M,
        K=args.K,
        L=args.L,
        snr_db=snr_db,
        theta0=args.theta0,
        dither=args.dither,
    )


def _system_fields(cfg: SystemConfig, snr) -> dict[str, object]:
    """The manifest fields every subcommand with system flags starts with."""
    return {
        "M": cfg.M,
        "K": cfg.K,
        "L": cfg.L,
        "snr": snr,
        "theta0": cfg.theta0,
        "dither": _dither_mode(cfg),
    }


def _write_manifest(
    path: Path,
    args: argparse.Namespace,
    fields: dict[str, object],
    started: float,
    rows: int,
) -> None:
    """Write path's key=value manifest; started is the run's time.monotonic()."""
    lines = [f"command={' '.join(args.argv)}", f"version={__version__}"]
    lines += [f"{key}={value}" for key, value in fields.items()]
    lines += [f"output={path}", f"rows={rows}", f"duration_s={time.monotonic() - started:.3f}"]
    path.with_name(path.name + ".manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(
    args, header: list[str], rows: list[list[str]], fields: dict[str, object], started: float
) -> int:
    """Write header and rows to args.out, then its manifest; returns exit code 0."""
    out = Path(args.out)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(out, args, fields, started, len(rows))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _fmt(value: float | None, none_token: str = "na") -> str:
    if value is None:
        return none_token
    return repr(float(value))


# ---- subcommands ------------------------------------------------------------


def cmd_capacity(args) -> int:
    snrs = parse_snr_grid(args.snr)
    first = _build_config(args, snrs[0])
    if first.is_dithered and args.method != "mc":
        raise ValueError(
            f"--dither needs --method mc: --method {args.method} takes undithered configs only"
        )
    started = time.monotonic()
    children = np.random.SeedSequence(args.seed).spawn(len(snrs))
    rows = []
    grids = []
    for snr_db, child in zip(snrs, children):
        cfg = _build_config(args, snr_db)
        if args.method == "mc":
            rng = np.random.default_rng(child)
            res = mutual_information_mc(cfg, trials=args.trials, rng=rng)
        else:
            res = mutual_information(cfg, method=args.method)
        grids.append(str(kernel_bank_for(cfg)[0].n_phi))
        rows.append(
            [
                repr(float(snr_db)),
                str(args.M),
                str(args.K),
                str(args.L),
                res.method,
                _fmt(res.h_cond),
                _fmt(res.h_out),
                _fmt(res.mi),
                _fmt(res.per_symbol),
                _fmt(res.error_bar if res.error_bar is not None else 0.0),
            ]
        )
    header = [
        "snr_db",
        "M",
        "K",
        "L",
        "method",
        "h_cond_bits",
        "h_out_bits",
        "mi_bits",
        "per_symbol_bits",
        "stderr",
    ]
    fields = _system_fields(first, args.snr) | {
        "method": args.method,
        "nphi": ",".join(grids),
        "trials": args.trials if args.method == "mc" else "",
        "seed": args.seed,
    }
    return _write_csv(args, header, rows, fields, started)


def cmd_ser(args) -> int:
    snrs = parse_snr_grid(args.snr)
    first = _build_config(args, snrs[0])
    mode = _dither_mode(first)
    started = time.monotonic()
    children = np.random.SeedSequence(args.seed).spawn(len(snrs))
    rows = []
    for snr_db, child in zip(snrs, children):
        cfg = _build_config(args, snr_db)
        point = run_ser(
            cfg,
            trials=args.trials,
            seed=child,
            convention=args.convention,
            workers=args.workers,
        )
        rows.append(
            [
                repr(float(snr_db)),
                str(args.M),
                str(args.K),
                str(args.L),
                mode,
                str(point.trials),
                str(point.errors),
                repr(point.ser),
                repr(point.ci_low),
                repr(point.ci_high),
                repr(point.tie_rate),
                str(args.seed),
            ]
        )
    header = [
        "snr_db",
        "M",
        "K",
        "L",
        "dither_mode",
        "trials",
        "errors",
        "ser",
        "ci_low",
        "ci_high",
        "tie_rate",
        "seed",
    ]
    fields = _system_fields(first, args.snr) | {
        "convention": args.convention,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _write_csv(args, header, rows, fields, started)


def cmd_verify(args) -> int:
    instances = 30 if args.fast else args.instances
    results = run_all_checks(
        instances=instances, seed=args.seed, include_oracle=not args.fast
    )
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_tables(args) -> int:
    cfg = _build_config(args, args.snr_db)
    if cfg.is_dithered:
        raise ValueError("tables exports the one kernel of an undithered config; drop --dither")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    kernel = kernel_for(cfg)
    kernel_path = out_dir / "kernel.csv"
    export_kernel_csv(kernel, kernel_path)
    classes_path = out_dir / "canonical_output_classes.csv"
    export_output_classes_csv(canonical_output_classes(cfg.K, cfg.L), classes_path)
    residue_path = out_dir / "residue_output_classes.csv"
    residue_classes = canonical_output_classes(cfg.a, cfg.L)
    export_output_classes_csv(residue_classes, residue_path)
    inputs_path = out_dir / "input_classes.csv"
    export_input_classes_csv(
        grouped_input_classes(np.array(residue_classes[0].representative), cfg.M),
        inputs_path,
    )
    fields = _system_fields(cfg, args.snr_db) | {"nphi": kernel.n_phi}
    for path in (kernel_path, classes_path, residue_path, inputs_path):
        _write_manifest(path, args, fields, started, 0)
    print(f"wrote tables to {out_dir}")
    return 0


# ---- argument wiring ---------------------------------------------------------


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, default=4, help="constellation size")
    p.add_argument("--K", type=int, default=8, help="number of phase sectors (multiple of M)")
    p.add_argument("--L", type=int, default=2, help="block length")
    p.add_argument("--theta0", type=float, default=0.0, help="constellation rotation, radians")
    p.add_argument(
        "--dither",
        default="none",
        help="per-symbol rotation: none, ramp, or L comma-separated radians",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseq",
        description="Capacity and error-rate experiments for phase-quantized "
        "block-noncoherent PSK receivers.",
    )
    parser.add_argument("--version", action="version", version=f"phaseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="mutual information over an SNR grid")
    _add_system_flags(p_cap)
    p_cap.add_argument("--snr", default="0:12:1", help="dB grid: start:stop:step or list")
    p_cap.add_argument("--method", choices=("reduced", "brute", "mc"), default="reduced")
    p_cap.add_argument("--trials", type=int, default=1_000_000, help="MC draws (method=mc)")
    p_cap.add_argument("--seed", type=int, default=0)
    p_cap.add_argument("--out", default="capacity.csv")
    p_cap.set_defaults(func=cmd_capacity)

    p_ser = sub.add_parser("ser", help="Monte Carlo symbol error rate")
    _add_system_flags(p_ser)
    p_ser.add_argument("--snr", default="0:20:2", help="dB grid: start:stop:step or list")
    p_ser.add_argument("--trials", type=int, default=100_000)
    p_ser.add_argument("--convention", choices=("pilot", "genie"), default="pilot")
    p_ser.add_argument("--seed", type=int, default=0)
    p_ser.add_argument("--workers", type=int, default=1)
    p_ser.add_argument("--out", default="ser.csv")
    p_ser.set_defaults(func=cmd_ser)

    p_ver = sub.add_parser("verify", help="run the invariant and oracle suite")
    p_ver.add_argument("--instances", type=int, default=100)
    p_ver.add_argument("--fast", action="store_true", help="fewer instances, skip oracles")
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("tables", help="dump kernel and class tables as CSV")
    _add_system_flags(p_tab)
    p_tab.add_argument("--snr-db", type=float, default=6.0)
    p_tab.add_argument("--out-dir", default="tables")
    p_tab.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the manifests record the command line as it was given
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
