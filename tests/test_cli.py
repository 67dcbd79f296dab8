"""Command line interface: grids, CSV outputs, manifests, exit codes."""

from __future__ import annotations

import csv

import pytest

import numpy as np

from phaseq import SystemConfig
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


class TestCapacityCommand:
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capacity", "--M", "4", "--K", "8", "--L", "2", "--snr", "4000"], "out of range"),
        (["ser", "--M", "4", "--K", "8", "--L", "2", "--snr", "10", "--trials", "100",
          "--workers", "0"], "workers must be at least 1"),
        (["capacity", "--method", "brute", "--K", "16", "--L", "6", "--snr", "6"],
         "brute-force output space too large"),
        (["capacity", "--method", "brute", "--M", "4", "--K", "8", "--L", "5", "--snr", "6"],
         "inputs x"),
    ],
    ids=["snr-4000", "workers-0", "brute-oversized", "brute-work"],
)
def test_out_of_range_inputs_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "refused.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestSerCommand:
    def test_snr_beyond_scan_fill_exits_2(self, tmp_path, capsys):
        out = tmp_path / "high.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ser", "--K", "8", "--L", "2", "--snr", "150", "--trials", "100",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "above the limit" in capsys.readouterr().err
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
