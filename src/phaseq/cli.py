"""Command-line frontend: reproducible experiments over the library API.

Every CSV is written by one function, _write_table: a header, then one
comma-joined line per row, each line ending in "\n". Each CSV is paired
with a plain-text key=value manifest recording the command line, resolved
configuration, seed, package version, output paths, and wall-clock
duration. Reruns with the same arguments and seed produce byte-identical
CSVs (manifests differ only in the duration field). capacity and ser share
one SNR sweep, _snr_sweep. An --out or --out-dir in a missing directory,
or whose CSV or manifest is a directory, exits 2 before any compute.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import mutual_information, mutual_information_mc
from .combinatorics import grouped_input_classes, output_class_arrays
from .core import SystemConfig, ramp_dither
from .sim import run_ser
from .transition import kernel_bank_for, kernel_for
from .verify import run_all_checks


# the most points of a start:stop:step range, checked before any is built
_MAX_RANGE_POINTS = 10_000
# rows of a class table turned into Python lists at a time: K=16 L=10
# (1.3M classes) listed whole peaked at 410 MB RSS, against 221 MB so
_LIST_ROWS = 65_536


def parse_snr_grid(text: str) -> list[float]:
    """SNR grid in dB: 'start:stop:step' (inclusive ends), comma list, or one value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not 0 < step < math.inf:
            raise ValueError("step must be positive and finite")
        if stop < start:
            raise ValueError("stop must be >= start")
        # the range has floor(span) + 1 points; a NaN or infinite end, or
        # more points than a float counts, leaves the span NaN or infinite
        span = (stop - start) / step + 1e-9
        if not span < _MAX_RANGE_POINTS:
            raise ValueError(
                f"range {text} needs finite ends and a finite point count of at most "
                f"{_MAX_RANGE_POINTS}"
            )
        return [start + i * step for i in range(int(np.floor(span)) + 1)]
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
    _manifest_of(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest_of(path: Path) -> Path:
    return path.with_name(path.name + ".manifest")


def _refuse_directories(flag: str, paths) -> None:
    """Refuse with ValueError a CSV of paths whose file or manifest is a directory."""
    for path in paths:
        for target in (path, _manifest_of(path)):
            if target.is_dir():
                raise ValueError(f"{flag}: {target} is a directory")


def _out_file(text: str) -> Path:
    """--out as a path, refused with ValueError if it cannot be written."""
    path = Path(text)
    if not path.parent.is_dir():
        raise ValueError(f"--out {text}: directory {path.parent} does not exist")
    _refuse_directories(f"--out {text}", [path])
    return path


def _write_table(path: Path, header: str, lines, args, fields, started: float) -> int:
    """Write header and then lines to path, each ending in a newline, then the
    manifest, whose rows is the number of lines written after the header;
    returns that number."""
    rows = 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
            rows += 1
    _write_manifest(path, args, fields, started, rows)
    return rows


def _class_lines(reps, counts):
    """One "representative,count" line per class, the representative's
    symbols separated by spaces."""
    for rep, count in zip(reps, counts):
        yield f"{' '.join(map(str, rep))},{count}"


def _listed(array: np.ndarray):
    """The rows of array as Python lists (or numbers), made _LIST_ROWS rows
    at a time, so that no list of the whole array exists."""
    for lo in range(0, len(array), _LIST_ROWS):
        yield from array[lo : lo + _LIST_ROWS].tolist()


def _fmt(value: float | None) -> str:
    if value is None:
        return "na"
    return repr(float(value))


# ---- subcommands ------------------------------------------------------------


def _snr_sweep(args, header: str, fields, point) -> int:
    """Run capacity's or ser's SNR sweep and write its CSV and manifest.

    Every point's config is built, and --out checked, before any point runs;
    fields(configs) gives the manifest fields and may refuse the sweep with
    ValueError. Point i returns its CSV line from point(config, seed), seed
    being child i of SeedSequence(args.seed) spawned once per point.
    """
    configs = [_build_config(args, snr_db) for snr_db in parse_snr_grid(args.snr)]
    out = _out_file(args.out)
    manifest = fields(configs)
    started = time.monotonic()
    seeds = np.random.SeedSequence(args.seed).spawn(len(configs))
    lines = [point(cfg, seed) for cfg, seed in zip(configs, seeds)]
    rows = _write_table(out, header, lines, args, manifest, started)
    print(f"wrote {rows} rows to {out}")
    return 0


def cmd_capacity(args) -> int:
    def fields(configs):
        if configs[0].is_dithered and args.method != "mc":
            raise ValueError(
                f"--dither needs --method mc: --method {args.method} takes undithered configs only"
            )
        # a bank lookup fills no table
        return _system_fields(configs[0], args.snr) | {
            "method": args.method,
            "nphi": ",".join(str(kernel_bank_for(cfg)[0].n_phi) for cfg in configs),
            "trials": args.trials if args.method == "mc" else "",
            "seed": args.seed,
        }

    def point(cfg, seed):
        if args.method == "mc":
            res = mutual_information_mc(cfg, trials=args.trials, rng=np.random.default_rng(seed))
        else:
            res = mutual_information(cfg, method=args.method)
        stderr = res.error_bar if res.error_bar is not None else 0.0
        values = (res.h_cond, res.h_out, res.mi, res.per_symbol, stderr)
        return f"{cfg.snr_db!r},{cfg.M},{cfg.K},{cfg.L},{res.method}," + ",".join(map(_fmt, values))

    header = "snr_db,M,K,L,method,h_cond_bits,h_out_bits,mi_bits,per_symbol_bits,stderr"
    return _snr_sweep(args, header, fields, point)


def cmd_ser(args) -> int:
    def fields(configs):
        return _system_fields(configs[0], args.snr) | {
            "convention": args.convention,
            "trials": args.trials,
            "seed": args.seed,
        }

    def point(cfg, seed):
        res = run_ser(
            cfg, trials=args.trials, seed=seed, convention=args.convention, workers=args.workers
        )
        return (
            f"{cfg.snr_db!r},{cfg.M},{cfg.K},{cfg.L},{_dither_mode(cfg)},{res.trials},"
            f"{res.errors},{res.ser!r},{res.ci_low!r},{res.ci_high!r},{res.tie_rate!r},{args.seed}"
        )

    header = "snr_db,M,K,L,dither_mode,trials,errors,ser,ci_low,ci_high,tie_rate,seed"
    return _snr_sweep(args, header, fields, point)


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


# (file name, header) of the CSVs tables writes, in order
_TABLES = (
    ("kernel.csv", "phi_index,z,probability"),
    ("canonical_output_classes.csv", "representative,multiplicity"),
    ("residue_output_classes.csv", "representative,multiplicity"),
    ("input_classes.csv", "representative,weight"),
)


def cmd_tables(args) -> int:
    cfg = _build_config(args, args.snr_db)
    if cfg.is_dithered:
        raise ValueError("tables exports the one kernel of an undithered config; drop --dither")
    out_dir = Path(args.out_dir)
    # the nearest path of out_dir and its parents that exists must be a
    # directory, or making out_dir would fail after the tables were built
    if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
        raise ValueError(f"--out-dir {args.out_dir} is, or is inside, a file")
    _refuse_directories(f"--out-dir {args.out_dir}", [out_dir / name for name, _ in _TABLES])
    started = time.monotonic()
    # every table is built before the directory is made, so a refused config
    # (a phase grid or a class count above its limit) leaves nothing behind
    kernel = kernel_for(cfg)
    table = kernel.table
    residues, residue_mults = output_class_arrays(cfg.a, cfg.L)
    inputs = grouped_input_classes(residues[0], cfg.M)
    reps, mults = output_class_arrays(cfg.K, cfg.L)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = _system_fields(cfg, args.snr_db) | {"nphi": kernel.n_phi}
    kernel_lines = (
        f"{i},{z},{p!r}" for i, column in enumerate(table.T) for z, p in enumerate(column.tolist())
    )
    tables = (
        kernel_lines,
        _class_lines(_listed(reps), _listed(mults)),
        _class_lines(_listed(residues), _listed(residue_mults)),
        _class_lines([c.representative for c in inputs], [c.weight for c in inputs]),
    )
    for (name, header), lines in zip(_TABLES, tables):
        _write_table(out_dir / name, header, lines, args, fields, started)
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
