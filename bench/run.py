"""Run one wavebound benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload spectrum --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --smoke

A run is one fresh interpreter with BLAS and OpenMP pinned to one
thread.  It is a closed loop with a single client: the workload's
operations run in order, each starting when the previous one returned.
The list runs twice, then again while another pass still fits in
``--seconds``.  After every operation its output is checked against
``references.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the list untraced and with per-layer spans (see
``tracing.py``) in turn, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (every
operation, the seed, library versions and the machine) is written to
``bench/out/``.

``--smoke`` runs every workload once at tiny sizes, checks only that
each metric named in ``BENCHMARK.json`` is reported, and asserts
nothing about speed or accuracy.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import itertools
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: fresh interpreters started to measure set-up time; the median counts
SETUP_REPEATS = 5
#: passes over the operation list in an untraced run, so that each
#: slot's time is a median over repeats
MIN_PASSES = 2
#: the set-up probe prints this line once it could run an operation
READY = "ready"
#: an operation fails when its wall time exceeds this multiple of its CPU
#: time plus ``WALL_SLACK_S``: its work went somewhere the CPU figures do
#: not see.  On a busy shared 2-core host the ratio stays below 1.4.
WALL_CPU_RATIO = 3.0
WALL_SLACK_S = 1.0


def _children_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import the program from this checkout's ``src``, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "wavebound", "__init__.py")):
        raise ImportError(f"no wavebound package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import wavebound

    if os.path.dirname(os.path.dirname(os.path.abspath(wavebound.__file__))) != SRC:
        raise ImportError(f"wavebound imported from {wavebound.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


@dataclass
class Sample:
    """One executed operation."""

    slot: int
    label: str
    seconds: float  # wall
    cpu: float  # CPU time of this process and of its waited-for children
    traced: bool
    errors: list
    diffs: list
    layers: dict = field(default_factory=dict)
    grids: set = field(default_factory=set)


class Runner:
    """Executes and checks operations; owns the temporary output files."""

    def __init__(self, wl, refs: dict, tmpdir: str):
        self.wl = wl
        self.refs = refs
        self.tmpdir = tmpdir

    def run(self, op, tracer=None) -> Sample:
        """Run and check ``op``; with spans if an installed ``tracer`` is given."""
        out = os.path.join(self.tmpdir, f"op{op.slot_index}.out")
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        self.wl.clear_caches()
        result, errors = None, []
        children_cpu, _ = _children_usage()
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            result = self.wl.execute(op, out)
        except Exception:  # an operation that raises is a failed operation
            errors.append("raised: " + traceback.format_exc(limit=3))
        finally:
            seconds = time.perf_counter() - start
            cpu = time.process_time() - start_cpu
            if tracer is not None:
                tracer.active = False
        children_cpu = _children_usage()[0] - children_cpu
        cpu += children_cpu
        sample = Sample(op.slot_index, op.label, seconds, cpu, tracer is not None,
                        errors, [])
        if tracer is not None:
            sample.layers = tracer.layer_metrics()
            sample.grids = set(tracer.grids)
        if not errors:
            try:
                sample.errors, sample.diffs = self.wl.check(op, result, out, self.refs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                sample.errors = [f"unreadable output: {exc!r}"]
        # the figures are CPU time of one process: work moved elsewhere
        # must not pass for a speed-up
        if children_cpu > 0 or multiprocessing.active_children():
            sample.errors.append("started child processes; run single-process")
        if seconds > WALL_CPU_RATIO * cpu + WALL_SLACK_S:
            sample.errors.append(f"wall time {seconds:.3f} s is far above "
                                 f"CPU time {cpu:.3f} s")
        if os.path.exists(out):
            os.remove(out)
        return sample


def cycle(runner: Runner, ops: list, seconds: float, min_passes: int) -> list:
    """Whole passes over the list: ``min_passes``, then more while they fit.

    A further pass starts only if it would end within ``seconds`` of wall
    time at the last pass's duration, so every slot of a run has the
    same number of repeats.
    """
    start = time.perf_counter()
    samples = []
    for passes in itertools.count(1):
        pass_start = time.perf_counter()
        samples += [runner.run(op) for op in ops]
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > seconds:
            return samples


def alternate(runner: Runner, ops: list, tracer, seconds: float) -> tuple[list, list]:
    """Untraced (U) and traced (T) passes in turn: U T U, then T U while it fits.

    A further T U starts only if it would end within ``seconds``.  The
    untraced passes enclose the traced ones, so drift of the host's
    speed that is linear over the run falls equally on both sides of
    ``trace_overhead_frac``, and the cold first pass of the interpreter
    is only one of the untraced repeats.  Returns (untraced samples,
    traced samples).
    """
    start = time.perf_counter()
    untraced, traced = [runner.run(op) for op in ops], []
    while True:
        block_start = time.perf_counter()
        tracer.install()
        try:
            traced += [runner.run(op, tracer) for op in ops]
        finally:
            tracer.uninstall()
        untraced += [runner.run(op) for op in ops]
        now = time.perf_counter()
        if now - start + (now - block_start) > seconds:
            return untraced, traced


def _per_slot(samples: list, value) -> dict:
    """{slot: median of ``value`` over the slot's repeats}."""
    by_slot = {}
    for s in samples:
        by_slot.setdefault(s.slot, []).append(value(s))
    return {slot: statistics.median(v) for slot, v in by_slot.items()}


def slot_cpu(samples: list) -> dict:
    """Each slot's median CPU time in the run.

    The operations are deterministic, single-threaded and compute-bound,
    so on an idle machine their CPU time is their wall time.  On a shared
    virtual machine the hypervisor steals time and neighbours slow the
    caches; CPU time excludes the first.  Uncontended moments come in
    rare bursts there, so a slot's minimum would depend on whether the
    run caught one; the median does not.
    """
    return _per_slot(samples, lambda s: s.cpu)


def list_cpu(samples: list) -> float:
    """CPU time of one pass over the operation list."""
    return sum(slot_cpu(samples).values())


def end_to_end_metrics(samples: list, setup_times: list) -> dict:
    per_slot = slot_cpu(samples)
    diffs = [d for s in samples for d in s.diffs]
    return {
        "setup_s": statistics.median(setup_times),
        "list_cpu_s": sum(per_slot.values()),
        "op_p50_cpu_s": statistics.median(per_slot.values()),
        "op_max_cpu_s": max(per_slot.values()),
        "ref_err_max": max(diffs, default=0.0),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                           _children_usage()[1]),
    }


def per_layer_metrics(untraced: list, traced: list, probe: dict) -> dict:
    """Per-layer values of one pass: per-slot medians summed over slots."""
    names = traced[0].layers.keys()
    values = {}
    for name in names:
        per_slot = _per_slot(traced, lambda s, n=name: s.layers[n])
        if name == "fdm_oracle.unknowns_max":
            values[name] = max(per_slot.values())
        else:
            values[name] = sum(per_slot.values())
    first_pass = {}
    for s in traced:
        first_pass.setdefault(s.slot, s.grids)
    distinct = len(set().union(*first_pass.values()))
    solves = values["fdm_oracle.eigensolves"]
    values["fdm_oracle.grid_reuse"] = distinct / solves if solves else 0.0
    values["trace_overhead_frac"] = list_cpu(traced) / list_cpu(untraced) - 1.0
    values.update(probe)
    return values


def measure_setup(repeats: int) -> list:
    """Seconds from starting a fresh interpreter to its first operation ready."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle
                        if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def declared_metrics() -> dict:
    """{trace mode: {metric name: unit}} from BENCHMARK.json."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(wl, tracing, workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, setup_times: list | None = None) -> dict:
    """Run one workload; returns the full record of the run.

    ``smoke`` runs the operations at tiny sizes and, in trace mode, adds
    the end-to-end metrics of the untraced passes with ``setup_times``.
    """
    refs = wl.load_references()
    ops = wl.make_ops(workload, seed)
    if smoke:
        ops = [wl.smoke_op(op) for op in ops]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        runner = Runner(wl, refs, tmpdir)
        if trace:
            untraced, traced = alternate(runner, ops, tracing.Tracer(), seconds)
            samples = untraced + traced
            metrics = per_layer_metrics(untraced, traced,
                                        tracing.kernel_probe(0.05 if smoke else 1.0))
            if smoke:  # both schemas from one run: end to end from the untraced passes
                metrics.update(end_to_end_metrics(untraced, setup_times))
        else:
            setup_times = measure_setup(SETUP_REPEATS)
            samples = cycle(runner, ops, seconds, MIN_PASSES)
            metrics = end_to_end_metrics(samples, setup_times)
    failed = sum(1 for s in samples if s.errors)
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": wl.DEFAULT_SEED,
        "seconds": seconds,
        "trace": trace,
        "ops": [op.label for op in ops],
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "samples": [
            {"slot": s.slot, "label": s.label, "seconds": s.seconds, "cpu": s.cpu,
             "traced": s.traced,
             "errors": s.errors, "max_diff": max(s.diffs, default=None),
             "layers": s.layers}
            for s in samples
        ],
    }


def result_line(record: dict, units: dict) -> str:
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def smoke(wl, tracing) -> int:
    """Every workload once at tiny sizes; checks the metric names.

    Each workload runs in trace mode, whose untraced passes also yield
    the end-to-end metrics.  Operations that fail their checks are
    counted but do not fail the smoke run: at tiny sizes some miss their
    references or drop states.
    """
    declared = declared_metrics()
    want = set(declared[0]) | set(declared[1])
    setup_times = measure_setup(1)
    problems = []
    with wl.smoke_emergence():
        for workload in wl.WORKLOADS:
            record = run_workload(wl, tracing, workload, wl.DEFAULT_SEED, 0.0, 1,
                                  smoke=True, setup_times=setup_times)
            got = set(record["metrics"])
            if got != want:
                problems.append(f"{workload}: missing {sorted(want - got)}, "
                                f"undeclared {sorted(got - want)}")
            print(f"smoke {workload}: {record['attempted']} ops "
                  f"({record['failed']} failed their checks), "
                  f"{len(got & want)}/{len(want)} metrics", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="picks each operation's lambda from its pool (default 0)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload; checks the output schema only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, tracing = _import_program()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    if args.setup_probe:
        wl.load_references()
        print(READY, flush=True)
        return 0
    if args.smoke:
        return smoke(wl, tracing)
    if args.workload not in wl.WORKLOADS:
        return _fail(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    units = declared_metrics()[args.trace]
    record = run_workload(wl, tracing, args.workload, seed, args.seconds, args.trace)
    record["provenance"] = provenance()
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    for s in record["samples"]:
        state = "FAILED " + "; ".join(s["errors"]) if s["errors"] else "ok"
        print(f"{s['seconds']:8.3f} s wall {s['cpu']:8.3f} s cpu  {s['label']}  {state}",
              file=sys.stderr)
    print(f"workload={args.workload} seed={seed} (default {wl.DEFAULT_SEED}) "
          f"trace={args.trace} record={os.path.relpath(path, ROOT)}")
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
