"""End-to-end tests of the command-line interface.

Each test invokes ``wavebound.cli.main`` in-process with argv lists and
inspects the produced files, so the full argument-parsing, config-merge,
computation, and serialization path is exercised exactly as a shell user
would hit it.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import field_reference as F
from wavebound import cli
from wavebound.geometry import Geometry, ModelKind
from wavebound import modematch as mm

MU = math.pi**2 / 4.0


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def run_module(argv):
    """``python -m wavebound.cli`` in a fresh process, as from a shell."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "wavebound.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# wavebound-csv v4"
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


class TestConfigResolution:
    def test_lambda_and_delta_conflict(self, capsys):
        assert run(["spectrum", "--lambda", "0.5", "--delta", "0.5"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_geometry(self, capsys):
        assert run(["spectrum", "--model", "A"]) == 2

    @pytest.mark.parametrize("lam,message", [
        ("-0.5", "lambda must be positive"),
        ("0", "lambda must be positive"),
        ("nan", "half window delta must be positive, got nan"),
        ("inf", "half window delta must be positive, got inf"),
    ], ids=["-0.5", "0", "nan", "inf"])
    def test_negative_lambda(self, lam, message, capsys):
        assert run(["spectrum", "--lambda", lam]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_delta_with_width(self, tmp_path):
        """delta/d and lambda parameterizations give identical output."""
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["spectrum", "--model", "A", "--modes", "16", "--out"]
        assert run(base + [str(out1), "--lambda", "0.5"]) == 0
        assert run(base + [str(out2), "--delta", "1.25", "--d", "2.5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_used_and_overridden(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model=B\nlambda = 0.5 # comment\nmodes=16\n")
        out1 = tmp_path / "file.csv"
        out2 = tmp_path / "flag.csv"
        assert run(["spectrum", "--config", str(conf), "--out", str(out1)]) == 0
        assert run(
            ["spectrum", "--config", str(conf), "--model", "A", "--out", str(out2)]
        ) == 0
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        # model B and model A ground states differ measurably at lam=0.5
        e_b = float(rows1[0]["eigenvalue_over_mu"])
        e_a = float(rows2[0]["eigenvalue_over_mu"])
        assert abs(e_b - e_a) > 1e-3

    def test_retired_scan_points_key_ignored(self, tmp_path):
        """Config files written for the old energy-grid scan still load;
        the key is ignored like any unknown key, and the flag is gone."""
        conf = tmp_path / "old.conf"
        conf.write_text("scan_points = 120\nmodes = 16\n")
        out1 = tmp_path / "old.json"
        out2 = tmp_path / "new.json"
        base = ["spectrum", "--model", "A", "--lambda", "0.5", "--format", "json"]
        assert run(base + ["--config", str(conf), "--out", str(out1)]) == 0
        assert run(base + ["--modes", "16", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "scan_points" not in json.loads(out1.read_text())["config"]
        with pytest.raises(SystemExit):
            run(base + ["--scan-points", "120"])

    def test_malformed_config_file(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("model B\n")
        assert run(["spectrum", "--config", str(conf)]) == 2

    def test_missing_config_file(self):
        assert run(["spectrum", "--config", "/nonexistent/х.conf"]) == 2

    def test_bad_model_name(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("model=C\nlambda=0.5\n")
        assert run(["spectrum", "--config", str(conf)]) == 2

    @pytest.mark.parametrize("width", ["-1", "0", "nan", "inf"])
    def test_bad_width_rejected_without_delta(self, width, tmp_path, capsys):
        """d is checked for every command, not only when --delta uses it."""
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--lambda", "2.5", "--d", width, "--format",
                    "json", "--out", str(out)]) == 2
        assert "d must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOut:
    """An --out that cannot be opened exits 2 and names the path."""

    def test_directory(self, tmp_path, capsys):
        assert run(["bounds", "--lambda", "0.5", "--out", str(tmp_path)]) == 2
        assert f"cannot write --out {tmp_path}" in capsys.readouterr().err

    def test_missing_parent_directory(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert run(["spectrum", "--lambda", "0.5", "--modes", "16",
                    "--out", str(out)]) == 2
        assert f"cannot write --out {out}" in capsys.readouterr().err
        assert not out.parent.exists()


class TestSpectrumCommand:
    def test_empty_spectrum_is_ok(self, tmp_path):
        """No bound state at lam=0.2 in model A: exit 0, header-only CSV."""
        out = tmp_path / "empty.csv"
        code = run(
            ["spectrum", "--model", "A", "--lambda", "0.2", "--modes", "16",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "branch_index", "eigenvalue_over_mu",
                          "residual", "stable"]
        assert rows == []

    def test_one_state_csv(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(
            ["spectrum", "--model", "A", "--lambda", "0.5", "--modes", "32",
             "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["branch_index"] == "1"
        assert abs(float(rows[0]["eigenvalue_over_mu"]) - 0.8396) < 1e-3
        assert float(rows[0]["residual"]) < 1e-6

    def test_state_next_to_threshold_written(self, tmp_path):
        """A lambda = 0.2634 holds one state 9.1e-8 mu below mu: it is
        written, with its residual in radians."""
        out = tmp_path / "threshold.csv"
        assert run(["spectrum", "--model", "A", "--lambda", "0.2634",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert 8e-8 < 1.0 - float(rows[0]["eigenvalue_over_mu"]) < 1e-7
        assert float(rows[0]["residual"]) < 1e-6
        assert rows[0]["stable"] == "true"

    def test_largest_truncation_is_gated(self, tmp_path):
        """At N=256 the stability gate cannot go to N + 8 and compares
        with N - 8 instead."""
        out = tmp_path / "n256.csv"
        assert run(
            ["spectrum", "--model", "A", "--lambda", "0.5", "--modes", "256",
             "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["stable"] == "true"

    def test_json_schema(self, tmp_path):
        out = tmp_path / "one.json"
        assert run(
            ["spectrum", "--model", "B", "--lambda", "0.5", "--modes", "16",
             "--format", "json", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "results", "provenance"}
        assert payload["provenance"]["tool"] == "wavebound"
        assert "timestamp" not in json.dumps(payload)
        assert payload["config"]["model"] == "B"
        assert len(payload["results"]) == 1

    def test_determinism_byte_identical(self, tmp_path):
        args = ["spectrum", "--model", "A", "--lambda", "0.5", "--modes", "16",
                "--format", "json"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepCommand:
    def test_single_point_matches_spectrum(self, tmp_path):
        s_out = tmp_path / "spec.csv"
        w_out = tmp_path / "sweep.csv"
        common = ["--model", "A", "--modes", "16"]
        assert run(["spectrum", "--lambda", "0.75"] + common
                   + ["--out", str(s_out)]) == 0
        assert run(["sweep", "--lambda-min", "0.75", "--lambda-max", "0.75",
                    "--step", "0.1"] + common + ["--out", str(w_out)]) == 0
        assert s_out.read_bytes() == w_out.read_bytes()

    def test_rows_ordered_by_lambda(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            ["sweep", "--model", "A", "--lambda-min", "0.5", "--lambda-max",
             "1.0", "--step", "0.25", "--modes", "16", "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        lams = [float(r["lambda"]) for r in rows]
        assert lams == sorted(lams)
        assert lams[0] == 0.5 and lams[-1] == 1.0

    def test_parallel_matches_serial(self, tmp_path):
        base = ["sweep", "--model", "A", "--lambda-min", "0.5", "--lambda-max",
                "1.0", "--step", "0.25", "--modes", "16"]
        out1, out2 = tmp_path / "ser.csv", tmp_path / "par.csv"
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_range(self, capsys):
        assert run(["sweep", "--model", "A", "--lambda-min", "1.0",
                    "--lambda-max", "0.5", "--step", "0.1"]) == 2
        for command in ("sweep", "analyze"):
            for flags in (["--lambda-min", "nan", "--lambda-max", "0.5"],
                          ["--lambda-min", "0.1", "--lambda-max", "inf"]):
                assert run([command, *flags, "--step", "0.1"]) == 2
            capsys.readouterr()
            assert run([command, "--lambda-min", "0.1", "--lambda-max", "0.5",
                        "--step", "nan"]) == 2
            assert "--step > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "analyze"])
    def test_step_below_lambda_resolution(self, command, capsys):
        """A step that cannot move lambda (~1e299 copies of lambda-min), or
        that moves it but asks for 1e14 points, is refused before any grid
        point is built."""
        for step in ("1e-300", "1e-15"):
            assert run([command, "--model", "A", "--lambda-min", "0.1",
                        "--lambda-max", "0.2", "--step", step]) == 2
            assert "--step" in capsys.readouterr().err

    def test_grid_size_limit(self):
        """MAX_GRID_POINTS lambda values are built, one more is refused."""
        step = 1.0 / 1024
        last = 1.0 + (cli.MAX_GRID_POINTS - 1) * step
        assert len(cli._lambda_grid(1.0, last, step)) == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError, match=f"more than {cli.MAX_GRID_POINTS}"):
            cli._lambda_grid(1.0, last + step, step)


class TestInvariantViolation:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--lambda", "0.75"],
        ["sweep", "--lambda-min", "0.5", "--lambda-max", "1.0", "--step",
         "0.25", "--jobs", "1"],
        ["sweep", "--lambda-min", "0.5", "--lambda-max", "1.0", "--step",
         "0.25", "--jobs", "2"],
    ], ids=["spectrum", "sweep-jobs1", "sweep-jobs2"])
    def test_failed_bounds_check_exits_5(self, argv, tmp_path, monkeypatch, capsys):
        """A spectrum that contradicts the brackets is never written."""
        monkeypatch.setattr(cli.bd, "check_spectrum",
                            lambda lam, eigenvalues: ["forced"])
        out = tmp_path / "out.csv"
        assert run(argv + ["--model", "A", "--modes", "16", "--out", str(out)]) == 5
        assert "internal invariant violation: forced" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "A", "--lambda", "0.5", "--modes", "16"],
        ["oracle", "--model", "A", "--lambda", "0.5"],
        ["thresholds"],
    ], ids=["spectrum", "oracle", "thresholds"])
    def test_failed_factorization_exits_5(self, argv, tmp_path, monkeypatch, capsys):
        """Both solvers factor matrices proved positive definite, so a
        failed factorization is an invariant violation: not bad input (2),
        although numpy's LinAlgError is a ValueError, nor non-convergence
        (3) under thresholds."""
        def not_positive_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            "internal invariant violation: factorization failed: "
            "Matrix is not positive definite\n")
        assert not out.exists()


class TestFieldCommand:
    def test_missing_branch_exit_code(self, tmp_path):
        assert run(
            ["field", "--model", "A", "--lambda", "0.2", "--branch", "1",
             "--modes", "16", "--out", str(tmp_path / "f.csv")]
        ) == 4

    def test_defaults_restored_between_calls(self, tmp_path):
        """The parser is built once per process, and a call that omits
        the grid flags an earlier call set gets the default grid."""
        assert cli.build_parser() is cli.build_parser()
        common = ["field", "--model", "A", "--lambda", "0.5", "--modes", "16"]
        outs = [tmp_path / f"{name}.csv" for name in ("before", "small", "after")]
        assert run(common + ["--out", str(outs[0])]) == 0
        assert run(common + ["--nx", "3", "--ny", "2", "--x-halfwidth", "1",
                             "--out", str(outs[1])]) == 0
        assert run(common + ["--out", str(outs[2])]) == 0
        assert len(read_csv(outs[1])[1]) == 3 * 2
        assert len(read_csv(outs[2])[1]) == 201 * 41
        assert outs[2].read_bytes() == outs[0].read_bytes()

    def test_density_grid(self, tmp_path):
        """Density vanishes on Dirichlet parts and integrates to ~1."""
        out = tmp_path / "field.csv"
        nx, ny, W = 241, 33, 7.0
        assert run(
            ["field", "--model", "A", "--lambda", "0.5", "--branch", "1",
             "--modes", "32", "--nx", str(nx), "--ny", str(ny),
             "--x-halfwidth", str(W), "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == nx * ny
        xs = np.array([float(r["x"]) for r in rows]).reshape(nx, ny)
        ys = np.array([float(r["y"]) for r in rows]).reshape(nx, ny)
        dens = np.array([float(r["density"]) for r in rows]).reshape(nx, ny)

        # Dirichlet rows: bottom wall left of the window, top wall right.
        bottom = dens[:, 0][xs[:, 0] < -0.5]
        top = dens[:, -1][xs[:, -1] > 0.5]
        assert float(bottom.max()) <= 1e-8
        assert float(top.max()) <= 1e-8

        # Grid quadrature over the box plus analytic tails ~ unit norm.
        box = np.trapezoid(np.trapezoid(dens, ys[0], axis=1), xs[:, 0])
        field = mm.solve_field(
            ModelKind.A, Geometry.from_lambda(0.5), 1, N=32
        )
        kap = field.kappa
        tail = float(
            np.sum(field.a**2 / (2 * kap) * np.exp(-2 * kap * (W - 0.5)))
            + np.sum(field.b**2 / (2 * kap) * np.exp(-2 * kap * (W - 0.5)))
        )
        assert abs(box + tail - 1.0) < 1e-4

    @pytest.mark.parametrize("model, lam, branch, nx, ny", [
        (ModelKind.A, 0.5, 1, 41, 9),
        (ModelKind.B, 2.5, 2, 41, 11),
        (ModelKind.A, 0.5, 1, 201, 41),
        (ModelKind.B, 0.3, 1, 40, 3),
    ], ids=["A-0.5-branch1", "B-2.5-branch2", "A-0.5-branch1-201x41",
            "B-0.3-two-window-x"])
    def test_bytes_match_the_dict_rows(self, model, lam, branch, nx, ny, tmp_path):
        """CSV and JSON equal the writer that builds one dict per point; the
        odd --nx puts x = 0.0 on the grid, the default 201 x 41 grid spans
        three blocks of GRID_BLOCK points (99, 99 and 3 x values), and B at
        0.3 on 40 x values has two of them in the window, one in each half,
        whose first must keep the bits of the whole grid's evaluation."""
        config, rows = F.field_rows(model, lam, branch, 32, nx, ny, 6.0)
        base = ["field", "--model", model.name, "--lambda", str(lam), "--branch",
                str(branch), "--modes", "32", "--nx", str(nx), "--ny", str(ny)]
        for fmt, expected in (("csv", F.render_csv(rows)),
                              ("json", F.render_json(config, rows))):
            out = tmp_path / f"field.{fmt}"
            assert run(base + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == expected

    def test_bytes_match_across_blocks(self, monkeypatch, tmp_path):
        """Written in blocks of 2 x values (a last block of one), and of a
        block smaller than one x's rows, the bytes stay those of the
        writer that builds one dict per point."""
        config, rows = F.field_rows(ModelKind.A, 0.5, 1, 16, 5, 3, 6.0)
        base = ["field", "--model", "A", "--lambda", "0.5", "--modes", "16",
                "--nx", "5", "--ny", "3"]
        for block in (6, 1):
            monkeypatch.setattr(cli, "GRID_BLOCK", block)
            for fmt, expected in (("csv", F.render_csv(rows)),
                                  ("json", F.render_json(config, rows))):
                out = tmp_path / f"field.{fmt}"
                assert run(base + ["--format", fmt, "--out", str(out)]) == 0
                assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("model, lam, branch", [
        (ModelKind.A, 0.5, 1),
        (ModelKind.B, 2.5, 2),
        (ModelKind.A, 20.2, 5),
    ], ids=["A-0.5-branch1", "B-2.5-branch2", "A-20.2-branch5"])
    def test_mirror_changes_only_rounding(self, model, lam, branch, tmp_path):
        """The mirrored densities differ from the square of the field on the
        whole grid by rounding alone (2.2e-15 of the largest density at
        most here, measured), and the written densities, CSV texts and JSON
        values, are exactly symmetric under the model's reflection."""
        field = mm.solve_field(model, Geometry.from_lambda(lam), branch)
        axes = (0, 1) if model is ModelKind.A else 0
        for nx, ny in itertools.product((2, 40, 201), (2, 3, 41)):
            base = ["field", "--model", model.name, "--lambda", str(lam), "--branch",
                    str(branch), "--nx", str(nx), "--ny", str(ny)]
            csv_out, json_out = tmp_path / "field.csv", tmp_path / "field.json"
            assert run(base + ["--out", str(csv_out)]) == 0
            assert run(base + ["--format", "json", "--out", str(json_out)]) == 0
            _, rows = read_csv(csv_out)
            texts = np.array([r["density"] for r in rows]).reshape(nx, ny)
            whole = mm.evaluate_field(field, np.linspace(-6.0, 6.0, nx),
                                      np.linspace(0.0, 1.0, ny)) ** 2
            assert np.abs(texts.astype(float) - whole).max() <= 1e-14 * whole.max()
            assert np.array_equal(texts, np.flip(texts, axes))
            results = json.loads(json_out.read_text(encoding="utf-8"))["results"]
            values = np.array([r["density"] for r in results]).reshape(nx, ny)
            assert np.array_equal(values, np.flip(values, axes))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_memory_bounded(self, fmt):
        """The grid writer streams blocks of GRID_BLOCK points and keeps
        the density texts of the first half of the x values: at 500 x 200
        points its traced peak stays below 8 MB (4.6 MB CSV and 5.0 MB
        JSON measured; 0.9 and 1.4 MB when it formatted every density and
        kept none), where building the whole text first took 32 MB and 50
        MB."""
        field = mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), 1, N=16)
        xs, ys = np.linspace(-6.0, 6.0, 500), np.linspace(0.0, 1.0, 200)
        values = mm.evaluate_field(field, xs[:250], ys).ravel().tolist()
        xs, ys = xs.tolist(), ys.tolist()
        with open(os.devnull, "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                cli.write_grid(handle, fmt, {"nx": 500, "ny": 200}, xs, ys, values, True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8e6

    def test_far_grid_is_silent(self, tmp_path):
        """A half-width whose product with the fastest tail rate would
        overflow writes its zero densities with nothing on stderr."""
        out = tmp_path / "far.csv"
        proc = run_module(["field", "--model", "A", "--lambda", "0.5", "--nx", "2",
                           "--ny", "2", "--x-halfwidth", "8e307", "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        _, rows = read_csv(out)
        assert [float(r["density"]) for r in rows] == [0.0] * 4

    def test_bad_grid_args(self, capsys):
        assert run(["field", "--model", "A", "--lambda", "0.5", "--nx", "1"]) == 2
        for width in ("-1", "nan", "inf", "1e308"):
            assert run(["field", "--model", "A", "--lambda", "0.5",
                        "--x-halfwidth", width]) == 2
            assert "--x-halfwidth" in capsys.readouterr().err
        assert run(["field", "--model", "A", "--lambda", "0.5",
                    "--branch", "0"]) == 2

    def test_grid_size_limit(self, monkeypatch, capsys):
        """A grid above MAX_FIELD_POINTS is refused before any solve."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_field called")

        monkeypatch.setattr(cli.mm, "solve_field", no_solve)
        assert run(["field", "--model", "A", "--lambda", "0.5", "--nx", "1000",
                    "--ny", str(cli.MAX_FIELD_POINTS // 1000 + 1)]) == 2
        err = capsys.readouterr().err
        assert "--nx" in err and "--ny" in err and str(cli.MAX_FIELD_POINTS) in err


class TestLambdaLimit:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--lambda", "1e300"],
        ["spectrum", "--lambda", "1000.5"],
        ["oracle", "--delta", "2001", "--d", "2"],
        ["sweep", "--lambda-min", "0.5", "--lambda-max", "1e300", "--step", "0.5"],
        ["analyze", "--lambda-min", "0.5", "--lambda-max", "1001"],
    ], ids=["bounds", "spectrum", "oracle", "sweep", "analyze"])
    def test_lambda_above_limit(self, argv, capsys):
        """A window above MAX_LAMBDA exits 2 and names the limit."""
        assert run(argv) == 2
        assert "exceeds the largest window 1000" in capsys.readouterr().err

    def test_largest_lambda_accepted(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--lambda", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1000


class TestBoundsCommand:
    def test_reference_point(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--lambda", "2.5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["n_min"] == "2"
        assert rows[0]["n_max"] == "3"
        assert len(rows) == 3  # one window row per candidate branch
        for m, row in enumerate(rows, start=1):
            assert row["branch_index"] == str(m)
            assert float(row["window_lo"]) <= float(row["window_hi"])

    def test_json_rows(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--lambda", "2.5", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"] == {"d": 1.0, "lambda": 2.5, "model": "A",
                                     "modes": 64}
        windows = [(0.0, 0.16), (0.16, 0.64), (0.64, 1.0)]
        assert len(payload["results"]) == len(windows)
        for m, (row, (lo, hi)) in enumerate(zip(payload["results"], windows), 1):
            assert set(row) == {"lambda", "n_min", "n_max", "branch_index",
                                "window_lo", "window_hi"}
            assert (row["lambda"], row["n_min"], row["n_max"]) == (2.5, 2, 3)
            assert row["branch_index"] == m
            assert row["window_lo"] == pytest.approx(lo, abs=1e-15)
            assert row["window_hi"] == pytest.approx(hi, abs=1e-15)


class TestThresholdsCommand:
    @pytest.mark.slow
    def test_values_and_ordering(self, tmp_path):
        out = tmp_path / "thresholds.json"
        assert run(["thresholds", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        res = payload["results"]
        assert 0.075 < res["lambda1"] < 0.085
        assert 0.33 < res["lambda2"] < 0.35
        assert 0.25 < res["lambda0_numeric"] < 0.27
        assert abs(res["kappa0"] - res["lambda0_numeric"]) < 5e-3
        assert res["ordering_ok"] is True

    def test_csv_names(self, tmp_path):
        out = tmp_path / "thresholds.csv"
        assert run(["thresholds", "--format", "csv", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["name", "value"]
        assert [r["name"] for r in rows] == [
            "kappa0", "lambda0_numeric", "lambda1", "lambda2", "ordering_ok"]
        assert rows[-1]["value"] == "true"


class TestAnalyzeCommand:
    @pytest.mark.slow
    def test_report(self, tmp_path):
        out = tmp_path / "analyze.json"
        assert run(
            ["analyze", "--model", "A", "--lambda", "0.5", "--modes", "32",
             "--lambda-min", "0.3", "--lambda-max", "0.9", "--step", "0.15",
             "--out", str(out)]
        ) == 0
        res = json.loads(out.read_text())["results"]
        assert res["monotonicity"]["ok"] is True
        assert res["scaling"]["ok"] is True
        fits = res["corner_exponents"]["fits"]
        assert set(fits) == {"P1", "P2"}
        for fit in fits.values():
            assert abs(fit["exponent"] - 0.5) < 0.05

    def test_csv_names(self, tmp_path):
        out = tmp_path / "analyze.csv"
        assert run(["analyze", "--model", "A", "--lambda", "0.5", "--modes",
                    "16", "--format", "csv", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["name", "value"]
        assert [r["name"] for r in rows] == [
            "monotonicity_ok", "scaling_ok", "scaling_worst_margin",
            "P1_exponent", "P1_r_squared", "P2_exponent", "P2_r_squared"]

    def test_branch_zero(self, monkeypatch, capsys):
        """analyze and field refuse branch 0 alike (exit 2, one message),
        analyze before its sweep."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep called")

        monkeypatch.setattr(cli.an, "sweep", no_sweep)
        for command in ("analyze", "field"):
            assert run([command, "--model", "A", "--lambda", "0.5", "--modes",
                        "16", "--branch", "0"]) == 2
            assert capsys.readouterr().err == "error: branch must be >= 1\n"

    def test_parallel_matches_serial(self, tmp_path):
        """analysis.sweep's worker pool returns the serial spectra."""
        base = ["analyze", "--model", "A", "--lambda", "0.5", "--modes", "16"]
        out1, out2 = tmp_path / "ser.json", tmp_path / "par.json"
        assert run(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert run(base + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def synthetic_spectra(counts):
    """A stand-in for ``fo.bound_spectra`` whose grid i binds ``counts[i]``
    states; branch b converges as E_b + h with E_b = (1 - 0.01 b) mu."""
    def spectra(model, geometry, h_list, count):
        hs = sorted(h_list, reverse=True)
        for h, bound in zip(hs, counts):
            branches = range(1, min(bound, count) + 1)
            yield h, [(1.0 - 0.01 * b) * MU + h for b in branches]
    return spectra


class TestOracleCommand:
    def test_every_branch_at_lambda_20(self, tmp_path, capsys):
        """At lambda = 20 the oracle reports all 20 branches the count
        certifies, each inside its closed-form window, and warns of
        nothing."""
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "--model", "A", "--lambda", "20", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert [int(r["branch_index"]) for r in rows] == list(range(1, 21))
        for r in rows:
            lower, upper = cli.bd.eigenvalue_window(int(r["branch_index"]), 20.0)
            assert lower <= float(r["eigenvalue_over_mu"]) <= upper

    def test_unbound_branch_dropped_silently(self, tmp_path, monkeypatch, capsys):
        """A branch that a grid does not bind is left out like one above
        mu: no stderr line, and only the bound branch's row is written.
        Asked for with --branch, it exits 4 naming that grid."""
        monkeypatch.setattr(cli.fo, "bound_spectra", synthetic_spectra([1, 2, 2]))
        argv = ["oracle", "--model", "B", "--lambda", "1.5"]
        assert cli.bd.state_count_bounds(1.5)[1] >= 2
        out = tmp_path / "oracle.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert [int(r["branch_index"]) for r in rows] == [1]
        assert run(argv + ["--branch", "2"]) == 4
        assert "not bound on the grid h = 0.025" in capsys.readouterr().err

    def test_branch_writes_one_row(self, tmp_path, monkeypatch):
        """--branch 2 writes branch 2 alone, although the pass that
        solves it at lambda = 2.5 also binds model A's odd state."""
        monkeypatch.setattr(cli.fo, "SPACINGS", (1.0 / 8, 1.0 / 16, 1.0 / 32))
        out = tmp_path / "oracle.csv"
        argv = ["oracle", "--model", "A", "--lambda", "2.5", "--branch", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(r["branch_index"]) for r in rows] == [2]

    def test_one_pass_for_all_branches(self, monkeypatch):
        """Without --branch each default grid is solved once for both of
        B's branches at lambda = 1.5 (measured 54 junction-level lanes;
        one evaluation per lane, the scalar loop took 66)."""
        calls = []
        real = cli.fo.EndColumns.levels

        def counted(ends, energies, sectors):
            calls.extend(energies)
            return real(ends, energies, sectors)

        monkeypatch.setattr(cli.fo.EndColumns, "levels", counted)
        assert run(["oracle", "--model", "B", "--lambda", "1.5"]) == 0
        assert 0 < len(calls) <= 85

    @pytest.mark.slow
    def test_agrees_with_spectrum(self, tmp_path):
        o_out = tmp_path / "oracle.csv"
        s_out = tmp_path / "spec.csv"
        common = ["--model", "A", "--lambda", "0.5"]
        assert run(["oracle"] + common + ["--out", str(o_out)]) == 0
        assert run(["spectrum"] + common + ["--modes", "64",
                    "--out", str(s_out)]) == 0
        _, orows = read_csv(o_out)
        _, srows = read_csv(s_out)
        assert len(orows) == len(srows) == 1
        diff = abs(float(orows[0]["eigenvalue_over_mu"])
                   - float(srows[0]["eigenvalue_over_mu"]))
        assert diff < 1e-3
        assert 0.9 < float(orows[0]["order"]) < 1.3


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [
        (["bounds", "--lambda", "2.5"], 0),
        (["bounds", "--lambda", "2.5", "--d", "-1"], 2),
        (["field", "--model", "A", "--lambda", "0.2", "--modes", "16"], 4),
    ], ids=["ok", "bad-config", "missing-branch"])
    def test_exit_code_reaches_the_shell(self, argv, code):
        """``python -m wavebound.cli`` exits with the code main returns."""
        proc = run_module(argv)
        assert proc.returncode == code, proc.stderr


def _parse_outcome(parse, argv, capsys):
    """(stdout, stderr, exit code) of a parse that stops; code None if it
    returns."""
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


class TestParser:
    STOPS = [["--help"], *([name, "--help"] for name in cli.COMMANDS), ["nope"], [],
             ["spectrum", "--bogus", "1"], ["spectrum", "--lambda", "0.5", "extra"],
             ["sweep", "--model", "A"], ["spectrum", "--model", "C"]]

    @pytest.mark.parametrize("argv", STOPS, ids=lambda argv: " ".join(argv) or "empty")
    def test_stops_as_the_full_parser(self, argv, capsys):
        """main builds the invoked subcommand alone; what it prints and
        exits with on help and on bad arguments is the full parser's."""
        full = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
        assert full[2] is not None
        assert _parse_outcome(cli.main, argv, capsys) == full

    @pytest.mark.parametrize("argv, message", [
        (["nope"], "argument command: invalid choice: 'nope' (choose from "),
        ([], "the following arguments are required: command\n"),
    ], ids=["unknown", "empty"])
    def test_command_errors_name_the_command(self, argv, message, capsys):
        """A missing or unknown command is reported by its name, as
        argparse words it when no metavar replaces the choices."""
        _, err, code = _parse_outcome(cli.main, argv, capsys)
        assert code == 2
        assert f"wavebound: error: {message}" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--lambda", "0.5", "--model", "b", "--modes", "16"],
        ["sweep", "--lambda-min", "0.4", "--lambda-max", "0.6", "--step", "0.1",
         "--jobs", "2"],
        ["field", "--lambda", "0.5", "--nx", "3", "--format", "json"],
        ["bounds", "--delta", "2", "--d", "0.5"],
        ["thresholds", "--out", "t.json"],
        ["oracle", "--lambda", "1.5", "--branch", "2"],
        ["analyze", "--config", "a.conf", "--rho", "2"],
    ], ids=lambda argv: argv[0])
    def test_namespace_of_the_full_parser(self, argv):
        """A subcommand's own parser, built once, fills the namespace the
        full parser fills."""
        command = argv[0]
        assert set(cli.COMMANDS) == {"spectrum", "sweep", "field", "bounds",
                                     "thresholds", "oracle", "analyze"}
        assert cli.build_parser(command) is cli.build_parser(command)
        assert (vars(cli.build_parser(command).parse_args(argv))
                == vars(cli.build_parser().parse_args(argv)))
