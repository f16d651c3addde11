"""Structural diagnostics on computed spectra and fields.

Three families of checks:

* corner-singularity exponent fits: |Phi| ~ r^(1/2) along the ray
  perpendicular to the boundary at a Dirichlet/Neumann switch point;
* monotonicity of each eigenvalue branch in the window half-length
  (branches are nonincreasing in lambda);
* the scaling sandwich E(lambda)/r^2 <= E(lambda*r) <= E(lambda) for
  r > 1, checked between computed grid points only (dilating the window
  cannot raise an eigenvalue, and shrinking coordinates scales it by
  r^-2, so lambda^2 E is nondecreasing);

plus bisection for the emergence point of the m-th branch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import critical_lambda_window
from .geometry import Geometry, ModelKind
from .modematch import EigenField, count_states
from .modematch import evaluate_field, scan_spectra
# scan_spectrum is imported by name so that tracers wrapping it here keep
# finding it; sweep itself runs scan_spectra
from .modematch import scan_spectrum  # noqa: F401

__all__ = [
    "SweepResult",
    "sweep",
    "switch_points",
    "corner_exponent",
    "monotonicity_check",
    "scaling_check",
    "find_emergence",
]

#: monotonicity / scaling comparison tolerance, in units of mu
BRANCH_TOL = 1e-6

#: emergence predicate requires the branch at least this far below mu
EMERGENCE_GAP = 1e-5

#: default corner-fit radii (in units of d)
DEFAULT_RADII = tuple(np.geomspace(0.03, 0.18, 12))


@dataclass(frozen=True)
class SweepResult:
    """Spectra over a strictly increasing lambda grid, common truncation."""

    model: ModelKind
    lambdas: tuple
    spectra: tuple  # Spectrum per lambda
    N: int

    def __post_init__(self):
        if len(self.lambdas) != len(self.spectra):
            raise ValueError("grid and spectra lengths differ")
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("lambda grid must be strictly increasing")
        if any(s.N != self.N for s in self.spectra):
            raise ValueError("spectra must share a common truncation")

    def branch(self, m: int) -> list:
        """(lambda, E/mu) pairs where branch m (1-based) exists."""
        out = []
        for lam, spec in zip(self.lambdas, self.spectra):
            if len(spec.eigenvalues) >= m:
                out.append((lam, spec.eigenvalues[m - 1]))
        return out


def _scan_slice(args) -> list:
    model, lams, N, check_stability = args
    return scan_spectra(model, [Geometry.from_lambda(lam) for lam in lams],
                        N=N, check_stability=check_stability)


def sweep(
    model: ModelKind,
    lambdas,
    N: int = 64,
    check_stability: bool = True,
    jobs: int = 1,
) -> SweepResult:
    """Spectra over a lambda grid from ``scan_spectra``, whose root chains
    advance in lockstep, shared by up to ``jobs`` worker processes, at
    most one per core and per point (all start at once); each worker
    scans one contiguous slice of the grid."""
    lams = tuple(float(x) for x in lambdas)
    workers = min(jobs, len(lams), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost every start-up some 7 ms
        from concurrent.futures import ProcessPoolExecutor

        cuts = [len(lams) * w // workers for w in range(workers + 1)]
        tasks = [(model, lams[a:b], N, check_stability) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            spectra = tuple(s for part in pool.map(_scan_slice, tasks) for s in part)
    else:
        spectra = tuple(_scan_slice((model, lams, N, check_stability)))
    return SweepResult(model=model, lambdas=lams, spectra=spectra, N=N)


def switch_points(model: ModelKind, geometry: Geometry) -> tuple:
    """The two boundary-condition switch points (x, y) of the model, where
    its tails' Dirichlet walls end: top-wall points first, then by x."""
    delta = geometry.delta
    left, right = model.value
    return tuple(sorted(((-delta, left), (delta, right)), key=lambda p: (-p[1], p[0])))


def corner_exponent(field, corner, radii=None) -> tuple[float, float]:
    """Power-law exponent of |Phi| along the inward ray at a corner.

    ``field`` is an EigenField or any callable (x, y) -> values; the ray
    runs perpendicular to the boundary (the polar angle pi/2 from the
    Dirichlet side).  Returns (exponent, R^2 of the log-log fit).
    """
    x0, y0 = float(corner[0]), float(corner[1])
    if y0 not in (0.0, 1.0):
        raise ValueError("corner must lie on the bottom or top boundary")
    r = np.asarray(DEFAULT_RADII if radii is None else radii, dtype=float)
    if r.size < 8:
        raise ValueError("need at least 8 radii")
    if not np.all((r > 1e-3) & (r < 0.2)):
        raise ValueError("radii must lie within (1e-3, 0.2) in units of d")

    ys = r if y0 == 0.0 else 1.0 - r
    if isinstance(field, EigenField):
        pts = switch_points(field.model, field.geometry)
        if not any(
            abs(x0 - px) < 1e-9 and abs(y0 - py) < 1e-9 for px, py in pts
        ):
            raise ValueError(
                f"corner {corner} is not a switch point of model "
                f"{field.model.name}: {pts}"
            )
        vals = evaluate_field(field, x0, ys)[0]
    else:
        vals = field(np.full_like(r, x0), ys)
    vals = np.abs(np.asarray(vals, dtype=float))
    if np.any(vals < 1e-10):
        raise ValueError("field magnitude below 1e-10 along the ray "
                         "(node of the eigenfunction)")
    logr = np.log(r)
    logv = np.log(vals)
    slope, intercept = np.polyfit(logr, logv, 1)
    pred = slope * logr + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def _branches(sweep_result: SweepResult):
    """(m, lambda array, E/mu array) for every branch m of the sweep."""
    count = max((len(s.eigenvalues) for s in sweep_result.spectra), default=0)
    for m in range(1, count + 1):
        lams, values = np.array(sweep_result.branch(m)).T
        yield m, lams, values


def monotonicity_check(sweep_result: SweepResult) -> tuple[bool, list]:
    """Each branch must be nonincreasing in lambda (within BRANCH_TOL).

    Returns (ok, violations); each violation is a dict with the branch,
    the offending grid index, and the size of the increase (E/mu units).
    """
    if len(sweep_result.lambdas) < 5:
        raise ValueError("need at least 5 grid points")
    violations = [
        {"branch": m, "index": int(i), "lambda_low": float(lams[i]),
         "lambda_high": float(lams[i + 1]), "increase": float(e[i + 1] - e[i])}
        for m, lams, e in _branches(sweep_result)
        for i in np.flatnonzero(e[1:] > e[:-1] + BRANCH_TOL)
    ]
    return (not violations), violations


def scaling_check(sweep_result: SweepResult, rho: float) -> tuple[bool, float]:
    """Two-sided dilation bound per branch: E(lam)/r^2 <= E(lam*r) <= E(lam).

    Checked on the computed points only: every pair lam_i < lam_j on a
    branch with r = lam_j/lam_i <= rho (rho is the largest dilation
    checked).  The upper half is monotonicity, the lower half says that
    lam^2 E is nondecreasing.  Returns (ok, worst margin) with positive
    margins meaning satisfied (E/mu units, BRANCH_TOL included).
    """
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    lams = sweep_result.lambdas
    if lams[0] * rho > lams[-1] + 1e-12:
        raise ValueError("lambda * rho falls outside the sweep grid")
    worst = math.inf  # a running minimum over pairs keeps memory O(n)
    for _, lam, e in _branches(sweep_result):
        ends = np.searchsorted(lam, lam * rho + 1e-9, "right")
        for i, end in enumerate(ends):
            lam_j, e_j = lam[i + 1:end], e[i + 1:end]
            if e_j.size:
                lower = e_j - (lam[i] / lam_j) ** 2 * e[i]
                worst = min(worst, e[i] - e_j.max(), lower.min())
    worst = float(worst + BRANCH_TOL)
    if worst == math.inf:
        raise ValueError("no (lambda, lambda*rho) pair available on the grid")
    return worst >= 0.0, worst


def find_emergence(
    model: ModelKind,
    m: int,
    lo: float | None = None,
    hi: float | None = None,
    N: int = 32,
    tol: float = 1e-4,
) -> float:
    """Bisect for the lambda at which the m-th branch detaches from mu.

    The branch "exists" at lambda when at least m eigenvalues lie
    strictly below (1 - EMERGENCE_GAP)*mu, one state count there
    (eigenvalues emerge from the threshold, so a strict gap avoids
    near-threshold dust).  The default bracket is the closed-form
    window (m-1, m) of ``bounds.critical_lambda_window`` with its lower
    end moved 1e-3 off the integer, and (0.2, 0.3) for m = 1, whose
    emergence point lies near 0.264.  A bracket whose ``lo`` already
    holds the branch raises ValueError, one whose ``hi`` lacks it
    RuntimeError.
    """
    window_lo, window_hi = critical_lambda_window(m)
    if m == 1:
        window_lo, window_hi = 0.2, 0.3
    else:
        window_lo += 1e-3
    lo = window_lo if lo is None else lo
    hi = window_hi if hi is None else hi

    def exists(lam: float) -> bool:
        geometry = Geometry.from_lambda(lam)
        below_gap = (1.0 - EMERGENCE_GAP) * geometry.mu
        return count_states(model, geometry, N, below_gap) >= m

    if exists(lo):
        raise ValueError(f"branch {m} already present at lo={lo}")
    if not exists(hi):
        raise RuntimeError(f"branch {m} absent at hi={hi}; bad bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if exists(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
