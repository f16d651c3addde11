"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench

* the README's determinism promise, end to end: one cheap CLI operation
  run twice in fresh processes writes byte-identical files;
* smoke mode reports every metric named in ``BENCHMARK.json`` within
  ``SMOKE_LIMIT_S`` seconds;
* the tracer still installs when the program drops a function it wraps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: wall-time limit of ``run.py --smoke``
SMOKE_LIMIT_S = 10.0

CHEAP_ARGV = ("spectrum", "--model", "B", "--lambda", "1.5", "--modes", "8",
              "--config", os.path.join(BENCH_DIR, "smoke.conf"), "--format", "json")


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cli_output(path: str) -> bytes:
    subprocess.run([sys.executable, "-m", "wavebound.cli", *CHEAP_ARGV, "--out", path],
                   cwd=ROOT, env=_env(), check=True, timeout=120)
    with open(path, "rb") as handle:
        return handle.read()


def test_cli_output_is_byte_identical_across_processes(tmp_path):
    first = _cli_output(str(tmp_path / "first.json"))
    second = _cli_output(str(tmp_path / "second.json"))
    assert json.loads(first)["results"], "the cheap operation found no state"
    assert first == second


def test_smoke_reports_every_declared_metric():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"smoke_ok": True}
    assert elapsed <= SMOKE_LIMIT_S, f"smoke mode took {elapsed:.1f} s"


def test_tracer_installs_without_a_wrapped_function(monkeypatch):
    """A solver without the energy scan still gets per-layer figures."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import tracing
    from wavebound import analysis as an
    from wavebound import modematch as mm

    def scan_spectrum(model, geometry, N=64):
        return types.SimpleNamespace(eigenvalues=(0.84,))

    monkeypatch.delattr(mm, "dispersion_trace")
    monkeypatch.delattr(mm, "assemble")
    monkeypatch.setattr(mm, "scan_spectrum", scan_spectrum)
    monkeypatch.setattr(an, "scan_spectrum", scan_spectrum)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        an.scan_spectrum("A", None)
        tracer.active = False
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert an.scan_spectrum is scan_spectrum
    assert metrics["modematch.scan_spectrum.calls"] == 1
    assert metrics["modematch.dispersion_trace_s"] == 0
    assert metrics["modematch.trace_points"] == 0
    assert metrics["modematch.grid_doubled"] == 0
    assert set(tracing.kernel_probe().values()) == {0.0}
