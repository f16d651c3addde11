"""Command-line interface.

Subcommands: spectrum, sweep, field, bounds, thresholds, oracle,
analyze.  All energies are emitted in units of mu, lengths in units of
d, densities in d^-2, so outputs are directly comparable across
geometries.  Every run is deterministic: identical invocations produce
byte-identical files (no timestamps, sorted JSON keys, fixed float
formatting).

Exit codes: 0 ok, 2 bad configuration, 3 non-convergence, 4 missing
branch, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import analysis as an
from . import bounds as bd
from . import fdm_oracle as fo
from . import modematch as mm
from . import variational as va
from .geometry import MU, Geometry, ModelKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_MISSING_BRANCH = 4
EXIT_INVARIANT = 5

CSV_VERSION_LINE = "# wavebound-csv v2"

#: largest window lambda accepted: every command's work grows with the
#: number of states, ceil(lambda), and spectrum takes seconds at 1000
MAX_LAMBDA = 1000.0

#: most lambda values in one sweep or analyze grid
MAX_GRID_POINTS = 10_000


class ConfigError(Exception):
    """Invalid configuration (exit 2)."""


class InvariantViolation(Exception):
    """An emitted spectrum failed bounds validation (exit 5)."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters (defaults documented in --help)."""

    model: ModelKind
    d: float
    lam: float | None
    modes: int
    out: str | None
    format: str
    jobs: int

    @property
    def geometry(self) -> Geometry:
        if self.lam is None:
            raise ConfigError("this command requires --lambda or --delta")
        return Geometry.from_lambda(self.lam)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; whitespace ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    file_values = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, cast, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            try:
                return cast(file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        return default

    model_name = pick(args.model, "model", str, "A")
    try:
        model = ModelKind[model_name.upper()]
    except KeyError:
        raise ConfigError(f"unknown model {model_name!r} (expected A or B)")

    d = pick(getattr(args, "d", None), "d", float, 1.0)
    if not 0.0 < d < math.inf:
        raise ConfigError("d must be positive and finite")
    lam = pick(getattr(args, "lam", None), "lambda", float, None)
    delta = pick(getattr(args, "delta", None), "delta", float, None)
    if lam is not None and delta is not None:
        raise ConfigError("give exactly one of --lambda and --delta")
    if lam is None and delta is not None:
        lam = delta / d
    if lam is not None and lam <= 0:
        raise ConfigError("lambda must be positive")
    if lam is not None and MAX_LAMBDA < lam < math.inf:  # Geometry rejects inf
        raise ConfigError(f"lambda {lam:g} exceeds the largest window {MAX_LAMBDA:g}")

    modes = pick(args.modes, "modes", int, 64)
    out = pick(args.out, "out", str, None)
    fmt = pick(args.format, "format", str, None)
    if fmt is not None and fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r} (expected csv or json)")
    jobs = pick(getattr(args, "jobs", None), "jobs", int, 1)
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return RunConfig(
        model=model,
        d=d,
        lam=lam,
        modes=modes,
        out=out,
        format=fmt,
        jobs=jobs,
    )


def _config_dict(config: RunConfig, **extra) -> dict:
    base = {
        "model": config.model.name,
        "d": config.d,
        "lambda": config.lam,
        "modes": config.modes,
    }
    base.update(extra)
    return base


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def render_csv(columns, rows) -> str:
    lines = [CSV_VERSION_LINE, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(config: dict, results) -> str:
    payload = {
        "config": config,
        "results": results,
        "provenance": {"tool": "wavebound", "version": __version__},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(config: RunConfig, default_fmt: str, columns, rows, json_config,
          results=None) -> None:
    """Write ``rows`` as CSV, or ``results`` (default: ``rows``) as JSON."""
    fmt = config.format or default_fmt
    if fmt == "csv":
        text = render_csv(columns, rows)
    else:
        text = render_json(json_config, rows if results is None else results)
    _write_text(config.out, text)


def _name_value_rows(results: dict) -> list:
    return [{"name": k, "value": v} for k, v in results.items()]


# ---------------------------------------------------------------------------
# spectrum rows shared by cmd_spectrum and cmd_sweep
# ---------------------------------------------------------------------------

SPECTRUM_COLUMNS = ("lambda", "branch_index", "eigenvalue_over_mu",
                    "residual", "stable")


def _spectrum_rows(lam: float, spectrum: mm.Spectrum) -> list:
    violations = bd.check_spectrum(lam, spectrum.eigenvalues)
    if violations:
        raise InvariantViolation("; ".join(violations))
    return [
        {
            "lambda": lam,
            "branch_index": i + 1,
            "eigenvalue_over_mu": value,
            "residual": spectrum.residuals[i],
            "stable": spectrum.stable[i],
        }
        for i, value in enumerate(spectrum.eigenvalues)
    ]


def _lambda_grid(lam_min: float, lam_max: float, step: float) -> list:
    """lam_min, lam_min + step, ... up to lam_max; the range and the
    number of points are checked before any point is built."""
    if lam_max > MAX_LAMBDA:
        raise ConfigError(f"--lambda-max {lam_max:g} exceeds the largest "
                          f"window {MAX_LAMBDA:g}")
    if lam_max > lam_min and lam_max + step == lam_max:
        raise ConfigError(f"--step {step:g} is below the float resolution of "
                          f"lambda at {lam_max:g}")
    count = int(math.floor((lam_max - lam_min) / step + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"--step {step:g} gives {count} lambda values, more "
                          f"than {MAX_GRID_POINTS}")
    return [lam_min + i * step for i in range(count)]


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    geometry = config.geometry
    spectrum = mm.scan_spectrum(config.model, geometry, N=config.modes)
    rows = _spectrum_rows(geometry.lam, spectrum)
    _emit(config, "csv", SPECTRUM_COLUMNS, rows, _config_dict(config))
    return EXIT_OK


def cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    lam_min, lam_max, step = args.lam_min, args.lam_max, args.step
    if not (0 < lam_min <= lam_max) or step <= 0:
        raise ConfigError("sweep requires 0 < lambda-min <= lambda-max, step > 0")
    result = an.sweep(config.model, _lambda_grid(lam_min, lam_max, step),
                      N=config.modes, jobs=config.jobs)
    rows = [
        row
        for lam, spectrum in zip(result.lambdas, result.spectra)
        for row in _spectrum_rows(lam, spectrum)
    ]
    json_config = _config_dict(
        config, lambda_min=lam_min, lambda_max=lam_max, step=step
    )
    json_config.pop("lambda")
    _emit(config, "csv", SPECTRUM_COLUMNS, rows, json_config)
    return EXIT_OK


def cmd_field(config: RunConfig, args: argparse.Namespace) -> int:
    branch, nx, ny, x_halfwidth = args.branch, args.nx, args.ny, args.x_halfwidth
    if branch < 1:
        raise ConfigError("branch must be >= 1")
    if nx < 2 or ny < 2 or x_halfwidth <= 0:
        raise ConfigError("field grid requires nx, ny >= 2 and x-halfwidth > 0")
    field = mm.solve_field(config.model, config.geometry, branch, N=config.modes)
    xs = np.linspace(-x_halfwidth, x_halfwidth, nx)
    ys = np.linspace(0.0, 1.0, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    values = mm.evaluate_field(field, X.ravel(), Y.ravel()).reshape(X.shape)
    rows = [
        {"x": float(xs[i]), "y": float(ys[j]), "density": float(values[i, j] ** 2)}
        for i in range(nx)
        for j in range(ny)
    ]
    json_config = _config_dict(
        config,
        branch=branch,
        nx=nx,
        ny=ny,
        x_halfwidth=x_halfwidth,
        eigenvalue_over_mu=field.E / MU,
    )
    _emit(config, "csv", ("x", "y", "density"), rows, json_config)
    return EXIT_OK


def cmd_bounds(config: RunConfig, args: argparse.Namespace) -> int:
    lam = config.geometry.lam
    n_min, n_max = bd.state_count_bounds(lam)
    columns = ("lambda", "n_min", "n_max", "branch_index", "window_lo", "window_hi")
    rows = [
        dict(zip(columns, (lam, n_min, n_max, m, *bd.eigenvalue_window(m, lam))))
        for m in range(1, n_max + 1)
    ]
    _emit(config, "csv", columns, rows, _config_dict(config))
    return EXIT_OK


def cmd_thresholds(config: RunConfig, args: argparse.Namespace) -> int:
    try:
        lambda1 = va.lambda1()
        kappa0 = va.kappa0()
        lambda2 = va.lambda2()
        lambda0 = an.find_emergence(ModelKind.A, 1, N=32)
    except (RuntimeError, ValueError) as exc:
        raise RuntimeError(f"threshold search failed: {exc}") from exc
    # alphabetical: the CSV lists the rows in this order
    results = {
        "kappa0": kappa0,
        "lambda0_numeric": lambda0,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "ordering_ok": 0.0 < lambda1 < lambda0 < lambda2 < 1.0,
    }
    _emit(config, "json", ("name", "value"), _name_value_rows(results),
          {"command": "thresholds"}, results=results)
    return EXIT_OK


def cmd_oracle(config: RunConfig, args: argparse.Namespace) -> int:
    branch = args.branch
    lam = config.geometry.lam
    n_max = bd.state_count_bounds(lam)[1]
    count = n_max if branch is None else branch
    hs, spectra = [], []
    for h, states in fo.bound_spectra(config.model, config.geometry, fo.SPACINGS, count):
        if branch is not None and len(states) < branch:
            raise LookupError(f"branch {branch} is not bound on the grid h = {h:g}")
        hs.append(h)
        spectra.append(states)
    columns = ("lambda", "branch_index", "eigenvalue_over_mu", "order")
    rows = []
    # a branch some grid does not bind is dropped like one above mu
    for b in range(branch or 1, min(map(len, spectra)) + 1):
        estimate, order = fo.richardson(hs, [states[b - 1] for states in spectra])
        if estimate / MU >= 1.0:
            if branch is not None:
                raise LookupError(f"branch {b} lies above the threshold at lambda={lam}")
            continue
        rows.append(dict(zip(columns, (lam, b, estimate / MU, order))))
    _emit(config, "csv", columns, rows, _config_dict(config))
    return EXIT_OK


def cmd_analyze(config: RunConfig, args: argparse.Namespace) -> int:
    lam_min, lam_max, step = args.lam_min, args.lam_max, args.step
    rho, branch = args.rho, args.branch
    if not (0 < lam_min < lam_max) or step <= 0:
        raise ConfigError("analyze requires 0 < lambda-min < lambda-max, step > 0")
    sweep_result = an.sweep(
        config.model,
        _lambda_grid(lam_min, lam_max, step),
        N=config.modes,
        check_stability=False,
        jobs=config.jobs,
    )
    mono_ok, violations = an.monotonicity_check(sweep_result)
    scale_ok, worst = an.scaling_check(sweep_result, rho)

    corners = {}
    lam = config.lam if config.lam is not None else 0.5
    field = mm.solve_field(config.model, Geometry.from_lambda(lam), branch, N=config.modes)
    for i, corner in enumerate(an.switch_points(config.model, field.geometry), 1):
        exponent, quality = an.corner_exponent(field, corner)
        corners[f"P{i}"] = {
            "x": corner[0],
            "y": corner[1],
            "exponent": exponent,
            "fit_r_squared": quality,
        }

    results = {
        "monotonicity": {"ok": mono_ok, "violations": violations},
        "scaling": {"rho": rho, "ok": scale_ok, "worst_margin": worst},
        "corner_exponents": {"lambda": lam, "branch": branch, "fits": corners},
    }
    summary = {
        "monotonicity_ok": mono_ok,
        "scaling_ok": scale_ok,
        "scaling_worst_margin": worst,
    }
    for name, fit in sorted(corners.items()):
        summary[f"{name}_exponent"] = fit["exponent"]
        summary[f"{name}_r_squared"] = fit["fit_r_squared"]
    json_config = _config_dict(
        config, lambda_min=lam_min, lambda_max=lam_max, step=step, rho=rho
    )
    _emit(config, "json", ("name", "value"), _name_value_rows(summary),
          json_config, results=results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["A", "B", "a", "b"], default=None,
                        help="boundary-condition model (default A)")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="window half-length over width, delta/d")
    parser.add_argument("--delta", type=float, default=None,
                        help="window half-length (needs --d unless d=1)")
    parser.add_argument("--d", type=float, default=None,
                        help="strip width (default 1)")
    parser.add_argument("--modes", type=int, default=None,
                        help="truncation order per region (default 64)")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format (default csv; thresholds/analyze json)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers for sweeps (default 1)")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebound",
        description="Bound states of a strip with mixed boundary windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        _add_common(p)
        return p

    command("spectrum", cmd_spectrum, "eigenvalues at one window size")

    p = command("sweep", cmd_sweep, "eigenvalue branches over a lambda range")
    p.add_argument("--lambda-min", dest="lam_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lam_max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    p = command("field", cmd_field, "probability density grid of one state")
    p.add_argument("--branch", type=int, default=1)
    p.add_argument("--nx", type=int, default=201)
    p.add_argument("--ny", type=int, default=41)
    p.add_argument("--x-halfwidth", dest="x_halfwidth", type=float, default=6.0)

    command("bounds", cmd_bounds, "bracketing state counts and windows")
    command("thresholds", cmd_thresholds, "analytic and numeric critical windows")

    p = command("oracle", cmd_oracle, "finite-difference cross-check")
    p.add_argument("--branch", type=int, default=None)

    p = command("analyze", cmd_analyze, "monotonicity, scaling, corner fits")
    p.add_argument("--lambda-min", dest="lam_min", type=float, default=0.3)
    p.add_argument("--lambda-max", dest="lam_max", type=float, default=0.9)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=1.5)
    p.add_argument("--branch", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_resolve(args), args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_BRANCH
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
