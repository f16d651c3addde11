"""Benchmark workloads: operation slots, seeded parameter pools and checks.

A workload is an ordered list of slots.  Each slot is one operation: a
``wavebound.cli.main(argv)`` call writing to a temporary ``--out`` file,
or one public library call.  The workload seed picks every slot's
``lambda`` from a small fixed pool; slots that name the same pool share
the pick.  Every pool entry has a stored reference in
``references.json`` (written by ``make_references.py``), and every
operation's output is checked against it after the operation returns.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import inspect
import json
import os
import random
import sys

import numpy as np

from wavebound import analysis as an
from wavebound import bounds as bd
from wavebound import cli
from wavebound import fdm_oracle as fo
from wavebound.geometry import Geometry, ModelKind

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(BENCH_DIR, "references.json")

#: default workload seed
DEFAULT_SEED = 0

#: allowed |E/mu - reference| (the README's oracle agreement contract)
TOL_ENERGY = 1e-3
#: allowed |lambda - reference| for thresholds and emergence points
TOL_LAMBDA = 1e-3
#: allowed |exponent - 1/2| of a corner fit (the README's contract)
TOL_EXPONENT = 0.05
#: allowed |integral of the density over the field grid - 1|
TOL_NORM = 2e-2

#: lambda pools.  Entries of one pool bind the same number of states and
#: cost about the same, and the largest reference error of a workload
#: moves little between them, so that seeds differ in input but not in
#: what they measure.  The oracle pools sit on the 1/8 lattice, where
#: lambda/h is an integer on every grid of both the workload and the
#: reference; off it the Richardson error jumps between neighbouring
#: lambdas.  The oracle pools have one entry each: at the workload's
#: spacings the lattice neighbours change the worst reference error
#: (A at 0.625 misses by 5.9e-4 against 3.7e-4 for B at 1.5) or the cost
#: of a slot (A at 0.625 takes 20% longer than at 0.5), so a second entry
#: would make the oracle figures depend on the seed.
POOLS = {
    "A-small": (0.5, 0.51, 0.52),
    "B-mid": (2.4, 2.5, 2.6),
    "A-large": (20.0, 20.1, 20.2),
    "A-oracle": (0.5,),
    "B-oracle": (1.5,),
}

#: README field grid
FIELD_GRID = ("--nx", "201", "--ny", "41", "--x-halfwidth", "6")

#: FDM spacings of the oracle workload (the CLI default is 1/40..1/160).
#: The finest grid has about 27k unknowns, so an operation takes about
#: 0.6 s and a run repeats each slot some 20 times; at 1/16..1/64 (110k
#: unknowns, 3 s) a run held three repeats, and its median moved with
#: every slowdown of the shared host (IQR/median 0.13 against 0.04 over
#: the same five seeds, runs of the two sizes alternated).
ORACLE_H = (1.0 / 8, 1.0 / 16, 1.0 / 32)


def conf_path(name: str) -> str:
    """Relative path of a CLI --config file kept beside this module."""
    return os.path.relpath(os.path.join(BENCH_DIR, name))


#: smoke mode: tiny sizes appended to each kind's arguments (the last
#: occurrence of a flag wins), tiny oracle spacings, and a tiny
#: emergence search for the thresholds command
SMOKE_ARGS = {
    "spectrum": ("--modes", "4", "--config", conf_path("smoke.conf")),
    "field": ("--modes", "4", "--nx", "21", "--ny", "5",
              "--config", conf_path("smoke.conf")),
    "analyze": ("--modes", "4", "--step", "0.5", "--config", conf_path("smoke.conf")),
    "thresholds": (),
    "oracle": (1.0 / 4, 1.0 / 8, 1.0 / 16),
}
SMOKE_EMERGENCE = {"N": 8, "grid_points": 20, "tol": 1e-2}


def ref_key(model: str, lam: float) -> str:
    return f"{model}:{lam:g}"


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclasses.dataclass(frozen=True)
class Slot:
    """One operation of a workload, before the seed fixes its lambda.

    ``kind`` selects the runner and the check: ``spectrum``, ``field``,
    ``analyze`` and ``thresholds`` are CLI commands whose ``args`` are
    extra CLI arguments; ``oracle`` is a call of
    ``fdm_oracle.extrapolate`` whose ``args`` are the grid spacings.
    ``pool`` names the lambda pool (None for commands without a window
    size).
    """

    kind: str
    model: str = "A"
    pool: str | None = None
    branch: int = 1
    args: tuple = ()


@dataclasses.dataclass(frozen=True)
class Op:
    """A slot with its lambda chosen; ``label`` names it in results."""

    slot_index: int
    slot: Slot
    lam: float | None

    @property
    def label(self) -> str:
        s = self.slot
        if s.kind == "oracle":
            spacings = ", ".join(f"1/{1 / h:g}" for h in s.args)
            return (f"fdm_oracle.extrapolate({s.model}, lambda={self.lam:g}, "
                    f"h_list=({spacings}), branch={s.branch})")
        return " ".join(self.argv("OUT"))

    def argv(self, out: str) -> list:
        s = self.slot
        argv = [s.kind]
        if s.pool is not None:
            argv += ["--model", s.model, "--lambda", f"{self.lam:g}"]
        # --jobs 1 is the CLI default; stated so that the operation stays
        # in this process, where its CPU time is measured
        return argv + list(s.args) + ["--jobs", "1", "--out", out]


WORKLOADS = {
    # production single-lambda solves at the default N=64 with the gate
    "spectrum": (
        Slot("spectrum", "A", "A-small", args=("--config", conf_path("spectrum.conf"))),
        Slot("spectrum", "B", "B-mid", args=("--config", conf_path("spectrum.conf"))),
        Slot("spectrum", "A", "A-large", args=("--config", conf_path("spectrum.conf"))),
        Slot("field", "A", "A-small",
             args=("--branch", "1") + FIELD_GRID
             + ("--format", "json", "--config", conf_path("spectrum.conf"))),
    ),
    # many cheap ungated solves at N=32 plus the emergence bisection
    "survey": (
        Slot("analyze", "A", "A-small",
             args=("--modes", "32", "--lambda-min", "0.1", "--lambda-max", "3.0",
                   "--step", "0.3", "--config", conf_path("survey.conf"))),
        Slot("thresholds", args=("--format", "json")),
    ),
    # the finite-difference cross-check; no mode-matching code runs
    "oracle": (
        Slot("oracle", "A", "A-oracle", branch=1, args=ORACLE_H),
        Slot("oracle", "B", "B-oracle", branch=1, args=ORACLE_H),
        Slot("oracle", "B", "B-oracle", branch=2, args=ORACLE_H),
    ),
}


def make_ops(workload: str, seed: int) -> list:
    """The workload's operations with each pool's lambda picked by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    picks = {name: rng.choice(pool) for name, pool in sorted(POOLS.items())}
    return [
        Op(i, slot, picks[slot.pool] if slot.pool else None)
        for i, slot in enumerate(WORKLOADS[workload])
    ]


def smoke_op(op: Op) -> Op:
    """The same operation at the tiny sizes of smoke mode."""
    slot = op.slot
    if slot.kind == "oracle":
        args = SMOKE_ARGS["oracle"]
    else:
        args = slot.args + SMOKE_ARGS[slot.kind]
    return dataclasses.replace(op, slot=dataclasses.replace(slot, args=args))


@contextlib.contextmanager
def smoke_emergence():
    """Run the thresholds command's emergence search at tiny sizes."""
    original = an.find_emergence

    accepted = inspect.signature(original).parameters
    sizes = {k: v for k, v in SMOKE_EMERGENCE.items() if k in accepted}

    def tiny(model, m, **_):
        return original(model, m, **sizes)

    an.find_emergence = tiny
    try:
        yield
    finally:
        an.find_emergence = original


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

#: ``cache_clear`` of every memoised function of the program, taken before
#: any wrapper of the tracer hides them
_CACHE_CLEARS = tuple(
    obj.cache_clear
    for name, module in sorted(sys.modules.items())
    if name == "wavebound" or name.startswith("wavebound.")
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_clear", None))
)


def clear_caches() -> None:
    """Empty the program's memo caches, as a fresh CLI process starts.

    Called before every operation, so that each repeat of a slot does
    the same work (the variational thresholds are memoised).
    """
    for clear in _CACHE_CLEARS:
        clear()


def execute(op: Op, out_path: str):
    """Run one operation; returns what ``check`` needs.

    CLI operations return their exit code; the output stays in
    ``out_path``.  Oracle operations return ``(estimate, order)``.
    """
    if op.slot.kind == "oracle":
        model = ModelKind[op.slot.model]
        return fo.extrapolate(model, Geometry.from_lambda(op.lam),
                              h_list=op.slot.args, branch=op.slot.branch)
    return cli.main(op.argv(out_path))


# ---------------------------------------------------------------------------
# checking one operation against the references
# ---------------------------------------------------------------------------


def _compare(errors: list, diffs: list, what: str, value, ref, tol) -> None:
    diff = abs(float(value) - float(ref))
    diffs.append(diff)
    if not diff <= tol:
        errors.append(f"{what} = {value!r}, reference {ref!r}, |diff| {diff:.3e} > {tol}")


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != cli.CSV_VERSION_LINE:
        raise ValueError(f"missing CSV version line in {path}")
    return list(csv.DictReader(lines[1:]))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_spectrum(op: Op, path: str, refs: dict, errors: list, diffs: list) -> None:
    rows = _read_csv(path)
    values = [float(r["eigenvalue_over_mu"]) for r in rows]
    ref = refs["spectrum"][ref_key(op.slot.model, op.lam)]["eigenvalues_over_mu"]
    if len(values) != len(ref):
        errors.append(f"state count {len(values)}, reference {len(ref)}")
        return
    errors.extend(bd.check_spectrum(op.lam, values))
    for i, (value, expect) in enumerate(zip(values, ref), start=1):
        _compare(errors, diffs, f"E_{i}/mu", value, expect, TOL_ENERGY)


def _check_field(op: Op, path: str, refs: dict, errors: list, diffs: list) -> None:
    payload = _read_json(path)
    config = payload["config"]
    ref = refs["spectrum"][ref_key(op.slot.model, op.lam)]["eigenvalues_over_mu"]
    _compare(errors, diffs, f"E_{op.slot.branch}/mu", config["eigenvalue_over_mu"],
             ref[op.slot.branch - 1], TOL_ENERGY)
    nx, ny = config["nx"], config["ny"]
    rows = payload["results"]
    if len(rows) != nx * ny:
        errors.append(f"{len(rows)} field rows, expected {nx * ny}")
        return
    density = np.array([r["density"] for r in rows]).reshape(nx, ny)
    xs = np.linspace(-config["x_halfwidth"], config["x_halfwidth"], nx)
    ys = np.linspace(0.0, 1.0, ny)
    norm = float(np.trapezoid(np.trapezoid(density, ys, axis=1), xs))
    if not abs(norm - 1.0) <= TOL_NORM:
        errors.append(f"density integrates to {norm:.6f} on the grid, expected 1")


def _check_analyze(op: Op, path: str, refs: dict, errors: list, diffs: list) -> None:
    results = _read_json(path)["results"]
    if not results["monotonicity"]["ok"]:
        errors.append(f"monotonicity violated: {results['monotonicity']['violations']}")
    if not results["scaling"]["ok"]:
        errors.append(f"scaling violated, worst margin {results['scaling']['worst_margin']}")
    fits = results["corner_exponents"]["fits"]
    if len(fits) != 2:
        errors.append(f"{len(fits)} corner fits, expected 2")
    for name, fit in sorted(fits.items()):
        if not abs(fit["exponent"] - 0.5) <= TOL_EXPONENT:
            errors.append(f"corner {name} exponent {fit['exponent']}, expected 0.5")


def _check_thresholds(op: Op, path: str, refs: dict, errors: list, diffs: list) -> None:
    results = _read_json(path)["results"]
    ref = refs["thresholds"]
    if not results["ordering_ok"]:
        errors.append("threshold ordering lambda1 < lambda0 < lambda2 violated")
    for name in ("lambda1", "kappa0", "lambda2", "lambda0_numeric"):
        _compare(errors, diffs, name, results[name], ref[name], TOL_LAMBDA)


def _check_oracle(op: Op, result, refs: dict, errors: list, diffs: list) -> None:
    estimate, order = result
    ref = refs["oracle"][ref_key(op.slot.model, op.lam)]["eigenvalues_over_mu"]
    value = estimate / cli.MU
    _compare(errors, diffs, f"E_{op.slot.branch}/mu", value,
             ref[str(op.slot.branch)], TOL_ENERGY)
    lo, hi = bd.eigenvalue_window(op.slot.branch, op.lam)
    if not lo - bd.FLOAT_SLACK <= value <= hi + bd.FLOAT_SLACK:
        errors.append(f"E_{op.slot.branch}/mu = {value} outside the window [{lo}, {hi}]")
    if not 0.5 < order < 2.5:
        errors.append(f"Richardson order {order} outside (0.5, 2.5)")


_CHECKS = {
    "spectrum": _check_spectrum,
    "field": _check_field,
    "analyze": _check_analyze,
    "thresholds": _check_thresholds,
}


def check(op: Op, result, out_path: str, refs: dict) -> tuple[list, list]:
    """Compare one operation's output with the references.

    Returns (errors, diffs): an empty error list means the operation
    passed; ``diffs`` holds |value - reference| of every E/mu and
    lambda compared.
    """
    errors, diffs = [], []
    if op.slot.kind == "oracle":
        _check_oracle(op, result, refs, errors, diffs)
    elif result != cli.EXIT_OK:
        errors.append(f"exit code {result}")
    else:
        _CHECKS[op.slot.kind](op, out_path, refs, errors, diffs)
    return errors, diffs
