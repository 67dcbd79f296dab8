"""Command line interface: grids, CSV outputs, manifests, exit codes."""

from __future__ import annotations

import csv
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import numpy as np

import phaseq
from phaseq import SystemConfig, cli, verify
from phaseq.capacity import mutual_information
from phaseq.cli import main, parse_snr_grid
from phaseq.combinatorics import grouped_input_classes, output_class_arrays
from phaseq.transition import kernel_for


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestSnrGrid:
    def test_forms(self):
        assert parse_snr_grid("0:12:1") == list(range(13))
        assert parse_snr_grid("4:8:2") == [4.0, 6.0, 8.0]
        assert parse_snr_grid("5") == [5.0]
        assert parse_snr_grid("1,3.5,7") == [1.0, 3.5, 7.0]
        # fractional step with an inexact endpoint still includes it
        assert parse_snr_grid("0:1:0.25") == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_errors(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_snr_grid("0:12")
        with pytest.raises(ValueError, match="positive"):
            parse_snr_grid("0:12:0")
        with pytest.raises(ValueError, match=">= start"):
            parse_snr_grid("12:0:1")
        with pytest.raises(ValueError):
            parse_snr_grid("abc")
        for grid in ("0:10:inf", "0:10:nan"):
            with pytest.raises(ValueError, match="positive and finite"):
                parse_snr_grid(grid)
        for grid in ("nan:10:1", "0:inf:1", "-inf:inf:1"):
            with pytest.raises(ValueError, match="finite ends"):
                parse_snr_grid(grid)
        # the point count overflows a float
        for grid in ("0:1e308:1e-308", "-1e308:1e308:1"):
            with pytest.raises(ValueError, match="finite point count"):
                parse_snr_grid(grid)
        # a range of more than 10,000 points is refused before it is built
        assert len(parse_snr_grid("0:9999:1")) == 10_000
        for grid in ("0:10000:1", "0:1:1e-9"):
            with pytest.raises(ValueError, match="point count of at most 10000"):
                parse_snr_grid(grid)


class TestCapacityCommand:
    def test_dense_range_exits_2_before_building_it(self, tmp_path):
        # 1e9 + 1 points; the script runs in a child under a timeout and a
        # 2 GiB address-space limit, so building them would fail fast
        # rather than exhaust the host's memory
        out = tmp_path / "dense.csv"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from phaseq.cli import main; main(sys.argv[1:])",
             "capacity", "--M", "4", "--K", "8", "--L", "2", "--snr", "0:1:1e-9", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(phaseq.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert run.returncode == 2
        assert "point count of at most 10000" in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_grid_produces_one_row_per_point(self, tmp_path):
        out = tmp_path / "cap.csv"
        code = main(
            [
                "capacity",
                "--M", "4", "--K", "8", "--L", "2",
                "--snr", "0:12:1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 13
        assert rows[0]["method"] == "reduced-exact"
        assert float(rows[0]["snr_db"]) == 0.0
        assert float(rows[-1]["snr_db"]) == 12.0
        mi = [float(r["mi_bits"]) for r in rows]
        assert mi == sorted(mi)
        manifest = read_manifest(out.with_suffix(".csv.manifest"))
        assert manifest["rows"] == "13"
        assert manifest["K"] == "8"
        assert "duration_s" in manifest

    def test_manifest_records_the_given_arguments(self, tmp_path, monkeypatch):
        # main(argv) called from a host script records argv, not the host's
        # own command line
        monkeypatch.setattr("sys.argv", ["host.py", "x"])
        out = tmp_path / "cap.csv"
        args = ["capacity", "--K", "8", "--L", "2", "--snr", "6", "--out", str(out)]
        assert main(args) == 0
        manifest = read_manifest(out.with_suffix(".csv.manifest"))
        assert manifest["command"] == " ".join(args)
        assert list(manifest) == [
            "command", "version", "M", "K", "L", "snr", "theta0", "dither",
            "method", "nphi", "trials", "seed", "output", "rows", "duration_s",
        ]

    def test_brute_matches_reduced(self, tmp_path):
        args = ["capacity", "--M", "4", "--K", "8", "--L", "2", "--snr", "10"]
        out_r = tmp_path / "r.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_r)]) == 0
        assert main(args + ["--method", "brute", "--out", str(out_b)]) == 0
        mi_r = float(read_csv(out_r)[0]["mi_bits"])
        mi_b = float(read_csv(out_b)[0]["mi_bits"])
        assert mi_b == pytest.approx(mi_r, rel=1e-9)

    def test_manifest_records_phase_grid(self, tmp_path):
        # one grid size per SNR point, the one the library derived
        for method in ("reduced", "brute", "mc"):
            out = tmp_path / f"{method}.csv"
            args = ["capacity", "--M", "4", "--K", "8", "--L", "3", "--snr", "0,12"]
            assert main(args + ["--method", method, "--trials", "200", "--out", str(out)]) == 0
            grids = [kernel_for(SystemConfig(M=4, K=8, L=3, snr_db=s)).n_phi for s in (0, 12)]
            manifest = read_manifest(out.with_suffix(".csv.manifest"))
            assert manifest["nphi"] == f"{grids[0]},{grids[1]}"
            if method != "mc":
                direct = mutual_information(SystemConfig(M=4, K=8, L=3, snr_db=12.0), method=method)
                assert float(read_csv(out)[1]["mi_bits"]) == direct.mi

    def test_mc_with_dither(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(
            [
                "capacity",
                "--M", "4", "--K", "8", "--L", "2",
                "--snr", "6",
                "--method", "mc", "--trials", "2000", "--seed", "3",
                "--dither", "ramp",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["method"] == "monte-carlo"
        assert float(row["stderr"]) > 0

    def test_exact_methods_refuse_dither(self, tmp_path, capsys):
        # a usage error: exit 2 before any SNR point runs, and no CSV
        for method in ("reduced", "brute"):
            out = tmp_path / f"{method}.csv"
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "capacity",
                        "--M", "4", "--K", "8", "--L", "2",
                        "--snr", "6",
                        "--dither", "ramp",
                        "--method", method,
                        "--out", str(out),
                    ]
                )
            assert exc.value.code == 2
            assert "--dither needs --method mc" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []


_TABLES_INTO_TD = ["tables", "--K", "8", "--L", "2", "--out-dir", "{tmp}/td"]


@pytest.mark.parametrize(
    "argv, dirs, message",
    [
        (["capacity", "--M", "4", "--K", "8", "--L", "2", "--snr", "4000"], (), "out of range"),
        (["ser", "--M", "4", "--K", "8", "--L", "2", "--snr", "10", "--trials", "100",
          "--workers", "0"], (), "workers must be at least 1"),
        (["capacity", "--method", "brute", "--K", "16", "--L", "6", "--snr", "6"], (),
         "brute-force output space too large"),
        (["capacity", "--method", "brute", "--M", "4", "--K", "8", "--L", "5", "--snr", "6"], (),
         "inputs x"),
        (["ser", "--K", "8", "--L", "2", "--snr", "6", "--trials", "100",
          "--out", "{tmp}/missing/s.csv"], (), "does not exist"),
        (["capacity", "--K", "8", "--L", "2", "--snr", "6", "--out", "{tmp}"], (),
         "is a directory"),
        (["tables", "--K", "8", "--L", "2", "--out-dir", "{tmp}/taken.csv"], (),
         "is, or is inside, a file"),
        (["ser", "--K", "8", "--L", "2", "--snr", "6", "--trials", "2000",
          "--out", "{tmp}/s.csv"], ("s.csv.manifest",), "s.csv.manifest is a directory"),
        (["capacity", "--K", "8", "--L", "2", "--snr", "6", "--out", "{tmp}/c.csv"],
         ("c.csv.manifest",), "c.csv.manifest is a directory"),
        (_TABLES_INTO_TD, ("td/kernel.csv",), "kernel.csv is a directory"),
        (_TABLES_INTO_TD, ("td/canonical_output_classes.csv.manifest",),
         "canonical_output_classes.csv.manifest is a directory"),
        (_TABLES_INTO_TD, ("td/residue_output_classes.csv",),
         "residue_output_classes.csv is a directory"),
        (_TABLES_INTO_TD, ("td/input_classes.csv.manifest",),
         "input_classes.csv.manifest is a directory"),
        # C(70, 7) = 1.2e9 canonical classes: the reduced sums refuse to enumerate
        (["capacity", "--K", "64", "--L", "8", "--snr", "6"], (), "enumeration limit"),
    ],
    ids=["snr-4000", "workers-0", "brute-oversized", "brute-work", "out-missing-dir",
         "out-directory", "out-dir-file", "ser-manifest-directory",
         "capacity-manifest-directory", "tables-kernel-directory",
         "tables-canonical-manifest-directory", "tables-residue-directory",
         "tables-input-manifest-directory", "reduced-classes"],
)
def test_out_of_range_inputs_exit_2(argv, dirs, message, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken.csv"
    taken.write_text("kept\n")
    for name in dirs:
        (tmp_path / name).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" in argv or "--out-dir" in argv:
        # a destination that cannot be written is refused before any compute
        def never(*args, **kwargs):
            raise AssertionError("computed before the destination was checked")

        for name in ("run_ser", "mutual_information", "kernel_for"):
            monkeypatch.setattr(cli, name, never)
    else:
        argv += ["--out", str(tmp_path / "refused.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    # nothing was written: the paths made above are all there is
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "kept\n"


def test_every_csv_ends_its_lines_in_newline(tmp_path):
    system = ["--M", "4", "--K", "8", "--L", "3"]
    for argv in (
        ["capacity", *system, "--snr", "0,6", "--out", str(tmp_path / "reduced.csv")],
        ["capacity", *system, "--snr", "6", "--method", "mc", "--trials", "500",
         "--dither", "ramp", "--out", str(tmp_path / "mc.csv")],
        ["ser", *system, "--snr", "6,8", "--trials", "500", "--out", str(tmp_path / "ser.csv")],
        ["tables", *system, "--out-dir", str(tmp_path / "tables")],
    ):
        assert main(argv) == 0
    written = sorted(tmp_path.glob("**/*.csv"))
    assert len(written) == 7
    for path in written:
        raw = path.read_bytes()
        assert b"\r" not in raw, path.name
        assert raw.endswith(b"\n"), path.name


class TestSerCommand:
    def test_snr_beyond_scan_fill_exits_2(self, tmp_path, capsys):
        out = tmp_path / "high.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ser", "--K", "8", "--L", "2", "--snr", "150", "--trials", "100",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "above the limit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "K, refusal",
        [
            (2**21, "2097152-point scan grid, above the 1048576-point limit"),
            (2**20, "13798 x 1048576 row-key table, above the limit of 16777216 elements"),
        ],
    )
    def test_huge_k_exits_2_before_building_tables(self, tmp_path, K, refusal):
        # K=2**21 is past the scan fill's grid limit, and K=2**20 within it
        # but with a 115 GB row-key table; the script runs in a child under
        # a timeout and a 2 GiB address-space limit, so building either
        # would fail fast rather than exhaust the host's memory
        out = tmp_path / "huge_k.csv"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from phaseq.cli import main; main(sys.argv[1:])",
             "ser", "--M", "4", "--K", str(K), "--L", "8", "--snr", "10", "--trials", "100",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(phaseq.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert run.returncode == 2
        assert refusal in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "ser",
            "--M", "4", "--K", "8", "--L", "2",
            "--snr", "6,8",
            "--trials", "2000", "--seed", "11",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert len(rows) == 2
        assert rows[0]["dither_mode"] == "none"
        assert int(rows[0]["seed"]) == 11

    def test_dithered_run(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(
            [
                "ser",
                "--M", "4", "--K", "8", "--L", "3",
                "--snr", "12",
                "--trials", "2000", "--seed", "1",
                "--dither", "ramp",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_csv(out)[0]["dither_mode"] == "ramp"
        assert read_manifest(out.with_suffix(".csv.manifest"))["dither"] == "ramp"

    @pytest.mark.parametrize("dither, label", [("0,0", "none"), ("0.1,0", "custom")])
    def test_dither_label_follows_resolved_config(self, tmp_path, dither, label):
        # an all-zero list is the undithered constellation, and is run as one
        out = tmp_path / "d.csv"
        args = ["ser", "--K", "8", "--L", "2", "--snr", "6", "--trials", "500"]
        assert main(args + ["--dither", dither, "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["dither_mode"] == label
        assert read_manifest(out.with_suffix(".csv.manifest"))["dither"] == label
        if label == "none":
            plain = tmp_path / "plain.csv"
            assert main(args + ["--out", str(plain)]) == 0
            assert plain.read_bytes() == out.read_bytes()


class TestTablesCommand:
    def test_writes_all_tables(self, tmp_path):
        out_dir = tmp_path / "tables"
        code = main(
            [
                "tables",
                "--M", "4", "--K", "8", "--L", "3",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        expected = {
            "kernel.csv",
            "canonical_output_classes.csv",
            "residue_output_classes.csv",
            "input_classes.csv",
        }
        assert expected <= names
        assert expected | {n + ".manifest" for n in expected} <= names
        n_phi = kernel_for(SystemConfig(M=4, K=8, L=3, snr_db=6.0)).n_phi
        kernel_rows = read_csv(out_dir / "kernel.csv")
        assert len(kernel_rows) == 8 * n_phi
        rows = {
            "kernel.csv": 8 * n_phi,
            "canonical_output_classes.csv": 36,
            "residue_output_classes.csv": 3,
            "input_classes.csv": 20,
        }
        for name in expected:
            manifest = read_manifest(out_dir / (name + ".manifest"))
            assert manifest["nphi"] == str(n_phi)
            assert manifest["rows"] == str(rows[name])
            assert len(read_csv(out_dir / name)) == rows[name]

    def test_csv_contents_round_trip(self, tmp_path):
        cfg = SystemConfig(M=4, K=12, L=3, snr_db=2.0, theta0=0.3)
        out_dir = tmp_path / "tables"
        argv = ["tables", "--M", "4", "--K", "12", "--L", "3", "--snr-db", "2", "--theta0", "0.3"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        data = {}
        for name, header in (
            ("kernel.csv", "phi_index,z,probability"),
            ("canonical_output_classes.csv", "representative,multiplicity"),
            ("residue_output_classes.csv", "representative,multiplicity"),
            ("input_classes.csv", "representative,weight"),
        ):
            raw = (out_dir / name).read_bytes()
            assert raw.startswith(header.encode() + b"\n")
            assert raw.endswith(b"\n") and b"\r" not in raw
            data[name] = [line.split(",") for line in raw.decode().splitlines()[1:]]
            manifest = read_manifest(out_dir / (name + ".manifest"))
            assert manifest["rows"] == str(len(data[name]))
        # kernel rows in (phi_index, z) order; each repr reads back to its cell
        table = kernel_for(cfg).table
        K, n_phi = table.shape
        assert [(int(i), int(z)) for i, z, _ in data["kernel.csv"]] == [
            (i, z) for i in range(n_phi) for z in range(K)
        ]
        read = np.array([float(p) for _, _, p in data["kernel.csv"]]).reshape(n_phi, K)
        assert np.array_equal(read, table.T)
        for name, alphabet in (
            ("canonical_output_classes.csv", cfg.K),
            ("residue_output_classes.csv", cfg.a),
        ):
            reps, mults = output_class_arrays(alphabet, cfg.L)
            assert [[int(v) for v in rep.split()] for rep, _ in data[name]] == reps.tolist()
            assert [int(m) for _, m in data[name]] == mults.tolist()
        inputs = grouped_input_classes(np.zeros(cfg.L, dtype=np.int64), cfg.M)
        assert [tuple(int(v) for v in rep.split()) for rep, _ in data["input_classes.csv"]] == [
            c.representative for c in inputs
        ]
        assert sum(int(w) for _, w in data["input_classes.csv"]) == cfg.M**cfg.L

    def test_grid_refusal_leaves_no_directory(self, tmp_path, capsys):
        # 100 dB at L = 8 needs a phase grid above the kernel's limit; every
        # table is built before the directory is made
        out_dir = tmp_path / "tables"
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--K", "8", "--L", "8", "--snr-db", "100", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "phase grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_class_limit_leaves_no_directory(self, tmp_path, capsys):
        # K=64 L=8 has 1.2e9 canonical classes, refused before enumerating
        out_dir = tmp_path / "tables"
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--K", "64", "--L", "8", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "enumeration limit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_input_class_limit_leaves_no_directory(self, tmp_path):
        # M=16 K=16 has 17,383,860 input classes at L=12 and about 3.2e9 at
        # L=20, refused before enumerating; the script runs in a child under
        # a timeout and a 2 GiB address-space limit, so building them would
        # fail fast rather than exhaust the host's memory
        for L in ("12", "20"):
            out_dir = tmp_path / f"tables_L{L}"
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from phaseq.cli import main; main(sys.argv[1:])",
                 "tables", "--M", "16", "--K", "16", "--L", L, "--out-dir", str(out_dir)],
                env={**os.environ, "PYTHONPATH": str(Path(phaseq.__file__).parents[1])},
                capture_output=True,
                text=True,
                timeout=60,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
            )
            assert run.returncode == 2
            assert "input classes are above the limit of 1048576" in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_dither_refused_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--K", "8", "--L", "3", "--dither", "ramp", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "--dither" in capsys.readouterr().err
        assert not out_dir.exists()


class TestVerifyCommand:
    def test_fast_mode_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "PASS" in out and "FAIL" not in out

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a running max kept with max() reported a
        # NaN deviation as a pass; every identity but marginal-period, and
        # kernel-fill, read _rel_dev, and entropy-constant _entropy_terms
        monkeypatch.setattr(verify, "_rel_dev", lambda p, q: math.nan)
        monkeypatch.setattr(verify, "_entropy_terms", lambda p: np.full(p.shape, math.nan))
        assert main(["verify", "--fast"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 15 and all("max deviation nan" in line for line in failed)

    def test_phase_marginal_memory_is_bounded(self):
        # M=8 L=4 30 dB: 4,096 inputs on a 1,584-point grid, 104 MB when the
        # accumulator and its gathered operand held every input at once
        cfg = SystemConfig(M=8, K=16, L=4, snr_db=30.0)
        z = np.array([0, 5, 9, 14])
        kernel_for(cfg).table  # the kernel fill is not the marginal's memory
        tracemalloc.start()
        try:
            p = verify._phase_marginal(z, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.shape == (kernel_for(cfg).n_phi,)
        assert peak < 4 * 2**20

    def test_no_instances_exits_2(self, capsys):
        # zero instances would report every identity passed with nothing checked
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", "0"])
        assert exc.value.code == 2
        assert "instances must be at least 1" in capsys.readouterr().err


class TestBadArguments:
    def test_k_not_multiple_of_m_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "capacity",
                    "--M", "4", "--K", "10", "--L", "2",
                    "--snr", "6",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["capacity", "ser"])
    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_snr_grid_exits_2(self, command, grid, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--snr", grid, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["capacity", "ser"])
    @pytest.mark.parametrize("grid", ["0:1e308:1e-308", "0:10:inf"])
    def test_non_finite_snr_grid_exits_2(self, command, grid, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--M", "4", "--K", "8", "--L", "2", "--snr", grid, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "phaseq" in capsys.readouterr().out
