"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each wavebound
module, at the names their callers look up, with wrappers that record
a span (name, start, end, parent; CPU time of the process, like the
operation times) and a few counts.  A call from one
layer into another therefore shows up as a child span, and no source
file of the program changes.  Spans are kept in memory and summarised
per operation by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

from wavebound import analysis as an
from wavebound import bounds as bd
from wavebound import cli
from wavebound import fdm_oracle as fo
from wavebound import modematch as mm
from wavebound import variational as va
from wavebound.geometry import Geometry, ModelKind

SCAN = "modematch.scan_spectrum"
TRACE = "modematch.dispersion_trace"
EMERGENCE = "analysis.find_emergence"
EIGENSOLVE = "fdm_oracle.lowest_eigenpairs"
CLI = "cli.main"

#: (module, attribute, span name); a module that imported a function by
#: name gets its own entry so that calls through that name are seen too.
#: An entry the program no longer has is skipped and its metrics read 0.
WRAPPED = (
    (cli, "main", CLI),
    (mm, "scan_spectrum", SCAN),
    (an, "scan_spectrum", SCAN),
    (mm, "dispersion_trace", TRACE),
    (mm, "solve_coefficients", "modematch.solve_coefficients"),
    (mm, "evaluate_field", "modematch.evaluate_field"),
    (an, "evaluate_field", "modematch.evaluate_field"),
    (an, "sweep", "analysis.sweep"),
    (an, "find_emergence", EMERGENCE),
    (an, "monotonicity_check", "analysis.checks"),
    (an, "scaling_check", "analysis.checks"),
    (an, "corner_exponent", "analysis.checks"),
    (fo, "extrapolate", "fdm_oracle.extrapolate"),
    (fo, "build_operator", "fdm_oracle.build_operator"),
    (fo, "lowest_eigenpairs", EIGENSOLVE),
    (va, "lambda1", "variational.thresholds"),
    (va, "kappa0", "variational.thresholds"),
    (va, "lambda2", "variational.thresholds"),
    (bd, "check_spectrum", "bounds.check_spectrum"),
)

#: per-layer metrics of one operation: (metric, kind, span or counter);
#: kind "incl" sums spans not nested in a span of the same name, "self"
#: subtracts the direct children, "calls" counts spans, "count" reads a
#: counter
SPAN_METRICS = (
    ("modematch.scan_spectrum_s", "incl", SCAN),
    ("modematch.scan_spectrum.calls", "calls", SCAN),
    ("modematch.dispersion_trace_s", "incl", TRACE),
    ("modematch.trace_points", "count", "trace_points"),
    ("modematch.refine_s", "self", SCAN),
    ("modematch.grid_doubled", "count", "grid_doubled"),
    ("modematch.solve_coefficients_s", "incl", "modematch.solve_coefficients"),
    ("modematch.evaluate_field_s", "incl", "modematch.evaluate_field"),
    ("analysis.sweep_s", "incl", "analysis.sweep"),
    ("analysis.find_emergence_s", "incl", EMERGENCE),
    ("analysis.find_emergence.scans", "count", "emergence_scans"),
    ("analysis.checks_s", "incl", "analysis.checks"),
    ("fdm_oracle.extrapolate_s", "incl", "fdm_oracle.extrapolate"),
    ("fdm_oracle.build_operator_s", "incl", "fdm_oracle.build_operator"),
    ("fdm_oracle.lowest_eigenpairs_s", "incl", EIGENSOLVE),
    ("fdm_oracle.eigensolves", "calls", EIGENSOLVE),
    ("variational.thresholds_s", "incl", "variational.thresholds"),
    ("bounds.check_spectrum_s", "incl", "bounds.check_spectrum"),
    ("cli.self_s", "self", CLI),
)

#: kernel probe: truncations, repeats, and the fixed point it runs at
PROBE_N = (32, 64, 128)
PROBE_ASSEMBLE_REPEATS = 21
PROBE_DISPERSION_REPEATS = 7
PROBE_LAMBDA = 0.5
PROBE_E_OVER_MU = 0.5


class Tracer:
    """Spans and counts recorded while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.grids = set()
        self._open = []
        self._patches = []

    def reset(self) -> None:
        self.spans, self.counts, self.grids, self._open = [], {}, set(), []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            if hasattr(owner, attr):
                self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        after = _AFTER.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.process_time(), None, parent])
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.process_time()
                self._open.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, index, bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def ancestors(self, index: int):
        """Names of the spans enclosing span ``index``, innermost first."""
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def layer_metrics(self) -> dict:
        """Per-layer values of the spans recorded since ``reset``."""
        children = {}
        for i, (_, start, end, parent) in enumerate(self.spans):
            children[parent] = children.get(parent, 0.0) + (end - start)
        values = {}
        for metric, kind, key in SPAN_METRICS:
            if kind == "count":
                values[metric] = self.counts.get(key, 0)
                continue
            total = 0.0
            for i, (name, start, end, _) in enumerate(self.spans):
                if name != key:
                    continue
                if kind == "calls":
                    total += 1
                elif kind == "self":
                    total += (end - start) - children.get(i, 0.0)
                elif name not in self.ancestors(i):
                    total += end - start
            values[metric] = total
        values["fdm_oracle.unknowns_max"] = self.counts.get("unknowns_max", 0)
        return values


def _after_scan(tracer: Tracer, index: int, arguments: dict, result) -> None:
    asked = arguments.get("grid_points")
    used = getattr(result, "grid_points", None)
    if asked is not None and used is not None and used > asked:
        tracer.add("grid_doubled")
    if EMERGENCE in tracer.ancestors(index):
        tracer.add("emergence_scans")


def _after_trace(tracer: Tracer, index: int, arguments: dict, result) -> None:
    tracer.add("trace_points", len(result.energies))


def _after_eigensolve(tracer: Tracer, index: int, arguments: dict, result) -> None:
    operator = arguments["operator"]
    grid = operator.grid
    tracer.grids.add((grid.L, grid.nx, grid.ny, operator.mask.tobytes()))
    tracer.counts["unknowns_max"] = max(tracer.counts.get("unknowns_max", 0),
                                        operator.n_unknowns)


_AFTER = {SCAN: _after_scan, TRACE: _after_trace, EIGENSOLVE: _after_eigensolve}


def kernel_probe(repeats_scale: float = 1.0) -> dict:
    """Median CPU ms of one ``mm.assemble`` and one ``mm.dispersion`` per N.

    Runs at a fixed energy (E = mu/2, model A, lambda = 0.5), so the
    numbers compare the per-energy kernels at the survey workload's
    truncation (32), the CLI default (64) and twice that (128).  Reads 0
    where the program no longer has these kernels.
    """
    values = {f"modematch.{kernel}_ms.N{n}": 0.0
              for n in PROBE_N for kernel in ("assemble", "dispersion")}
    if not (hasattr(mm, "assemble") and hasattr(mm, "dispersion")):
        return values
    geometry = Geometry.from_lambda(PROBE_LAMBDA)
    energy = PROBE_E_OVER_MU * geometry.unit().mu
    for n in PROBE_N:
        times = []
        for _ in range(max(1, round(PROBE_ASSEMBLE_REPEATS * repeats_scale))):
            start = time.process_time()
            system = mm.assemble(ModelKind.A, geometry, n, energy)
            times.append(time.process_time() - start)
        values[f"modematch.assemble_ms.N{n}"] = 1e3 * statistics.median(times)
        times = []
        for _ in range(max(1, round(PROBE_DISPERSION_REPEATS * repeats_scale))):
            start = time.process_time()
            mm.dispersion(system)
            times.append(time.process_time() - start)
        values[f"modematch.dispersion_ms.N{n}"] = 1e3 * statistics.median(times)
    return values
