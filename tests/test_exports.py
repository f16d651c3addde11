"""Every name a module lists in ``__all__`` exists, so that
``from wavebound.<module> import *`` keeps working; the names the
benchmark in ``bench/`` reads keep their names and call shapes;
importing the package defaults BLAS to one thread unless the caller
chose a count; the package runs on numpy and the standard library."""

import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavebound
from wavebound import analysis, bounds, cli, fdm_oracle, geometry
from wavebound.geometry import Geometry, ModelKind

MODULES = ("geometry", "bounds", "variational", "roots", "modematch", "fdm_oracle",
           "analysis")

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"wavebound.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_names():
    """A rename of any of these breaks every benchmark run."""
    assert cli.MU == math.pi**2 / 4
    assert cli.MU == geometry.MU
    assert cli.CSV_VERSION_LINE == "# wavebound-csv v4"
    assert cli.EXIT_OK == 0
    assert Geometry.from_lambda(0.5).lam == 0.5
    assert ModelKind["A"] is ModelKind.A and ModelKind["B"].name == "B"
    assert isinstance(bounds.FLOAT_SLACK, float)
    inspect.signature(fdm_oracle.extrapolate).bind(
        ModelKind.A, Geometry.from_lambda(0.5), h_list=fdm_oracle.SPACINGS, branch=1)
    inspect.signature(analysis.find_emergence).bind(ModelKind.A, 1, N=32, tol=1e-4)
    sweep = analysis.SweepResult(model=ModelKind.A, lambdas=(), spectra=(), N=32)
    inspect.signature(analysis.monotonicity_check).bind(sweep)
    inspect.signature(analysis.scaling_check).bind(sweep, 1.5)


def test_benchmark_field_schema(tmp_path):
    """The keys ``bench/workloads.py`` reads from ``field --format json``:
    the grid in ``config`` and one row per point, x-major."""
    out = tmp_path / "field.json"
    nx, ny, halfwidth = 5, 3, 2.0
    assert cli.main(["field", "--model", "A", "--lambda", "0.5", "--modes", "16",
                     "--nx", str(nx), "--ny", str(ny), "--x-halfwidth",
                     str(halfwidth), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    config, rows = payload["config"], payload["results"]
    assert (config["nx"], config["ny"], config["x_halfwidth"]) == (nx, ny, halfwidth)
    assert 0.0 < config["eigenvalue_over_mu"] < 1.0
    assert len(rows) == nx * ny
    xs = np.linspace(-halfwidth, halfwidth, nx)
    ys = np.linspace(0.0, 1.0, ny)
    assert [(r["x"], r["y"]) for r in rows] == [(x, y) for x in xs for y in ys]
    assert all(isinstance(r["density"], float) and r["density"] >= 0.0 for r in rows)


def _fresh_env(**preset) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset)
    src = str(Path(wavebound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("preset,expected", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"}, ["3", "2"]),
], ids=["unset", "user-set"])
def test_blas_threads_default_to_one(preset, expected):
    """A fresh interpreter sees one BLAS thread after ``import wavebound``
    when the variables are unset, and the user's values when set."""
    code = ("import os, wavebound; "
            f"print(*(os.environ[name] for name in {THREAD_VARIABLES!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**preset),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def test_no_scipy_at_run_time():
    """A fresh interpreter that imports the command line and every module
    loads no scipy module, and no file of the package names scipy, so no
    function imports it when first called either."""
    imports = ", ".join(f"wavebound.{name}" for name in ("cli",) + MODULES)
    code = (f"import sys, {imports}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    package = Path(wavebound.__file__).parent
    naming = [path.name for path in package.rglob("*")
              if path.is_file() and "__pycache__" not in path.parts
              and b"scipy" in path.read_bytes()]
    assert naming == []


def test_no_process_pool_at_start_up():
    """A fresh interpreter that imports the command line and every module
    loads no concurrent.futures module: ``analysis.sweep`` imports the
    process pool only when it starts one."""
    imports = ", ".join(f"wavebound.{name}" for name in ("cli",) + MODULES)
    code = (f"import sys, {imports}; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: what importing the command line may load besides the package itself:
#: numpy and the standard-library modules the package imports at its top
STARTUP_IMPORTS = ("numpy", "__future__", "argparse", "dataclasses", "enum", "functools",
                   "itertools", "json", "math", "os", "sys")


def test_no_module_added_at_start_up():
    """A fresh interpreter that imports the command line and every module
    loads no module beyond the package, numpy and STARTUP_IMPORTS with
    what they import themselves: every command pays for each module
    loaded here in its start-up time."""
    imports = ", ".join(f"wavebound.{name}" for name in ("cli",) + MODULES)
    code = (f"import sys, {', '.join(STARTUP_IMPORTS)}; base = set(sys.modules); "
            f"import {imports}; "
            "print(sorted(m for m in set(sys.modules) - base "
            "if m.partition('.')[0] != 'wavebound'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
