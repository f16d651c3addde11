"""References for the eigenfield: the pointwise evaluator, and the field
writer built from one {x, y, density} dict per grid point.

``evaluate_points`` sums the modal expansion point by point, one
N-vector of longitudinal factors and profiles per point; the grid
evaluator ``modematch.evaluate_field`` must match it to rounding.  The
writer's rows take their values from the grid evaluator on the whole
grid, keep its first ceil(nx/2) x values and mirror them with numpy
under the model's reflection, so its bytes pin the writer of ``wavebound
field`` alone: they square numpy scalars, as ``values[i, j] ** 2``; the
CSV formats every cell with the CLI's ``_fmt``, and the JSON is the
whole payload through ``json.dumps(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import json

import numpy as np

from wavebound import __version__, cli
from wavebound import modematch as mm
from wavebound.geometry import MU, Geometry, ModelKind, ProfileKind, profile_values

COLUMNS = ("x", "y", "density")


def evaluate_points(field: mm.EigenField, x, y) -> np.ndarray:
    """Eigenfunction value at the points (x, y), broadcast; y in [0, 1]."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape)
    delta = field.geometry.delta
    kappa = field.kappa
    left = x < -delta
    right = x > delta
    center = ~(left | right)
    tails = np.exp(kappa[:, None] * (x[left][None, :] + delta))
    prof = profile_values(field.model.tails[0], field.N, y[left])
    out[left] = np.einsum("k,kp,kp->p", field.a, tails, prof)
    tails = np.exp(-kappa[:, None] * (x[right][None, :] - delta))
    prof = profile_values(field.model.tails[1], field.N, y[right])
    out[right] = np.einsum("k,kp,kp->p", field.b, tails, prof)
    f = mm._center_factors(field, x[center])
    prof = profile_values(ProfileKind.NN_COSINE, field.N, y[center])
    longi = field.alpha[:, None] * f[0] + field.beta[:, None] * f[1]
    out[center] = np.einsum("mp,mp->p", longi, prof)
    return out


def field_rows(model: ModelKind, lam: float, branch: int, modes: int, nx: int,
               ny: int, x_halfwidth: float) -> tuple[dict, list]:
    """(JSON config, rows) of ``wavebound field --lambda lam`` with d = 1."""
    field = mm.solve_field(model, Geometry.from_lambda(lam), branch, N=modes)
    xs = np.linspace(-x_halfwidth, x_halfwidth, nx)
    ys = np.linspace(0.0, 1.0, ny)
    half = mm.evaluate_field(field, xs, ys)[:(nx + 1) // 2]
    # the point (i, j) of the mirror half is (nx-1-i, ny-1-j) of the first
    # in model A, whose reflection flips y, and (nx-1-i, j) in model B
    mirror = np.flip(half[:nx // 2], axis=(0, 1) if model is ModelKind.A else 0)
    values = np.concatenate([half, mirror])
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
