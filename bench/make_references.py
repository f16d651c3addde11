"""Compute the reference values the benchmark checks against.

Run from the repository root (takes about a quarter of an hour on one
core; the oracle references peak near 1.5 GB of memory):

    python3 bench/make_references.py

Every section is recomputed on each run, so the whole file comes from
one version of the program.  Each entry stores the call that produced
it.  Timed benchmark runs only read ``references.json``.

* spectrum: ``scan_spectrum`` at N=128, twice the CLI default truncation
  the spectrum workload uses, for every lambda of its pools.
* oracle: the ``wavebound oracle`` command at its production grids
  (finest spacing 1/160, 5 times finer than the workload's 1/32).
* thresholds: the analytic thresholds, and the emergence point at N=64,
  twice the truncation the ``thresholds`` command uses.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from wavebound import analysis as an
from wavebound import cli
from wavebound import modematch as mm
from wavebound import variational as va
from wavebound.geometry import Geometry, ModelKind

import workloads as wl

REF_N = 128
REF_GRID = 400
REF_EMERGENCE_N = 64
REF_EMERGENCE_TOL = 1e-7


def _pools(kinds: tuple) -> list:
    """(model, pool) of every workload slot of the given kinds."""
    return sorted({(slot.model, slot.pool) for slots in wl.WORKLOADS.values()
                   for slot in slots if slot.kind in kinds})


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def spectrum_refs() -> dict:
    refs = {}
    for model, pool in _pools(("spectrum", "field")):
        for lam in wl.POOLS[pool]:
            start = time.perf_counter()
            spec = mm.scan_spectrum(ModelKind[model], Geometry.from_lambda(lam),
                                    N=REF_N, grid_points=REF_GRID,
                                    check_stability=False)
            refs[wl.ref_key(model, lam)] = {
                "eigenvalues_over_mu": list(spec.eigenvalues),
                "near_threshold": list(spec.near_threshold),
                "command": (f"modematch.scan_spectrum(ModelKind.{model}, "
                            f"Geometry.from_lambda({lam}), N={REF_N}, "
                            f"grid_points={REF_GRID}, check_stability=False)"),
            }
            _log(f"spectrum {model} {lam}: {len(spec.eigenvalues)} states "
                 f"in {time.perf_counter() - start:.1f} s")
    return refs


def oracle_refs() -> dict:
    refs = {}
    out_dir = os.path.join(wl.BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "oracle.json")
        for model, pool in _pools(("oracle",)):
            for lam in wl.POOLS[pool]:
                start = time.perf_counter()
                argv = ["oracle", "--model", model, "--lambda", f"{lam:g}"]
                code = cli.main(argv + ["--format", "json", "--out", out])
                if code != cli.EXIT_OK:
                    raise RuntimeError(f"{argv} exited with {code}")
                with open(out, encoding="utf-8") as handle:
                    rows = json.load(handle)["results"]
                refs[wl.ref_key(model, lam)] = {
                    "eigenvalues_over_mu": {
                        str(r["branch_index"]): r["eigenvalue_over_mu"] for r in rows
                    },
                    "order": {str(r["branch_index"]): r["order"] for r in rows},
                    "command": "wavebound " + " ".join(argv),
                }
                _log(f"oracle {model} {lam}: {len(rows)} branches "
                     f"in {time.perf_counter() - start:.1f} s")
    return refs


def threshold_refs() -> dict:
    start = time.perf_counter()
    lambda0 = an.find_emergence(ModelKind.A, 1, N=REF_EMERGENCE_N,
                                tol=REF_EMERGENCE_TOL)
    _log(f"emergence point {lambda0} in {time.perf_counter() - start:.1f} s")
    return {
        "lambda1": va.lambda1(),
        "kappa0": va.kappa0(),
        "lambda2": va.lambda2(),
        "lambda0_numeric": lambda0,
        "command": (f"variational.lambda1(), kappa0(), lambda2(); "
                    f"analysis.find_emergence(ModelKind.A, 1, N={REF_EMERGENCE_N}, "
                    f"tol={REF_EMERGENCE_TOL})"),
    }


def main() -> int:
    refs = {
        "generated_by": "python3 bench/make_references.py",
        "spectrum": spectrum_refs(),
        "oracle": oracle_refs(),
        "thresholds": threshold_refs(),
    }
    with open(wl.REFERENCES_PATH, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(refs, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
