"""The field writer built from one {x, y, density} dict per grid point:
the reference whose bytes ``wavebound field`` must reproduce.

The rows square numpy scalars, as ``values[i, j] ** 2``; the CSV formats
every cell with the CLI's ``_fmt``, and the JSON is the whole payload
through ``json.dumps(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import json

import numpy as np

from wavebound import __version__, cli
from wavebound import modematch as mm
from wavebound.geometry import MU, Geometry, ModelKind

COLUMNS = ("x", "y", "density")


def field_rows(model: ModelKind, lam: float, branch: int, modes: int, nx: int,
               ny: int, x_halfwidth: float) -> tuple[dict, list]:
    """(JSON config, rows) of ``wavebound field --lambda lam`` with d = 1."""
    field = mm.solve_field(model, Geometry.from_lambda(lam), branch, N=modes)
    xs = np.linspace(-x_halfwidth, x_halfwidth, nx)
    ys = np.linspace(0.0, 1.0, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    values = mm.evaluate_field(field, X.ravel(), Y.ravel()).reshape(X.shape)
    rows = [
        {"x": float(xs[i]), "y": float(ys[j]), "density": float(values[i, j] ** 2)}
        for i in range(nx)
        for j in range(ny)
    ]
    config = {"model": model.name, "d": 1.0, "lambda": lam, "modes": modes,
              "branch": branch, "nx": nx, "ny": ny, "x_halfwidth": x_halfwidth,
              "eigenvalue_over_mu": field.E / MU}
    return config, rows


def render_csv(rows: list) -> str:
    lines = [cli.CSV_VERSION_LINE, ",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(cli._fmt(row[c]) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(config: dict, rows: list) -> str:
    payload = {
        "config": config,
        "results": rows,
        "provenance": {"tool": "wavebound", "version": __version__},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
