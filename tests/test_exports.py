"""Every name a module lists in ``__all__`` exists, so that
``from wavebound.<module> import *`` keeps working; the names the
benchmark in ``bench/`` reads keep their names and call shapes;
importing the package defaults BLAS to one thread unless the caller
chose a count."""

import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

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
    assert cli.CSV_VERSION_LINE == "# wavebound-csv v2"
    assert cli.EXIT_OK == 0
    assert Geometry.from_lambda(0.5).lam == 0.5
    assert ModelKind["A"] is ModelKind.A and ModelKind["B"].name == "B"
    assert isinstance(bounds.FLOAT_SLACK, float)
    inspect.signature(fdm_oracle.extrapolate).bind(
        ModelKind.A, Geometry.from_lambda(0.5), h_list=fdm_oracle.SPACINGS, branch=1)
    inspect.signature(analysis.find_emergence).bind(ModelKind.A, 1, N=32, tol=1e-4)


@pytest.mark.parametrize("preset,expected", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"}, ["3", "2"]),
], ids=["unset", "user-set"])
def test_blas_threads_default_to_one(preset, expected):
    """A fresh interpreter sees one BLAS thread after ``import wavebound``
    when the variables are unset, and the user's values when set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset)
    src = str(Path(wavebound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, wavebound; "
            f"print(*(os.environ[name] for name in {THREAD_VARIABLES!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected
