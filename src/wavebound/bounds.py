"""Closed-form bracketing of state counts, eigenvalues, and emergence windows.

Sandwiching the strip operator between decoupled comparison operators
with an extra Dirichlet or Neumann wall at x = +-delta gives, for the
window parameter lam = delta/d:

* state count:      -floor(-lam) - 1  <=  count  <=  -floor(-lam)
* m-th eigenvalue:  ((m-1)/lam)^2  <=  mu_m/mu  <=  (m/lam)^2
* emergence point:  m - 1  <=  lam_m  <=  m

The eigenvalue upper window is clamped at 1 (values above the threshold
are vacuous for the discrete spectrum).  These brackets are exact
inequalities; every computed spectrum is validated against them.
"""

from __future__ import annotations

import math

__all__ = [
    "state_count_bounds",
    "eigenvalue_window",
    "critical_lambda_window",
    "check_spectrum",
]

#: slack added to the exact inequalities to absorb floating-point error
FLOAT_SLACK = 1e-9


def state_count_bounds(lam: float) -> tuple[int, int]:
    """Two-sided bound on the number of bound states at window lam.

    Returns (n_min, n_max) = (-floor(-lam) - 1, -floor(-lam)).
    """
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    n_max = -math.floor(-lam)
    return n_max - 1, n_max


def eigenvalue_window(m: int, lam: float) -> tuple[float, float]:
    """Window on mu_m/mu for the m-th eigenvalue (1-based), upper clamped at 1."""
    if m < 1:
        raise ValueError(f"eigenvalue index m must be >= 1, got {m}")
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    lower = ((m - 1) / lam) ** 2
    upper = min((m / lam) ** 2, 1.0)
    return lower, upper


def critical_lambda_window(m: int) -> tuple[float, float]:
    """Interval (m-1, m) guaranteed to contain the emergence point lam_m."""
    if m < 1:
        raise ValueError(f"eigenvalue index m must be >= 1, got {m}")
    return float(m - 1), float(m)


def check_spectrum(lam: float, eigenvalues_over_mu) -> list[str]:
    """Validate a computed spectrum against the brackets.

    ``eigenvalues_over_mu`` is the sorted list of mu_m/mu values.  Returns
    a list of human-readable violation messages (empty = consistent).
    """
    violations = []
    n_min, n_max = state_count_bounds(lam)
    count = len(eigenvalues_over_mu)
    if not (n_min <= count <= n_max):
        violations.append(
            f"state count {count} outside bracket [{n_min}, {n_max}] at lam={lam}"
        )
    for m, ratio in enumerate(eigenvalues_over_mu, start=1):
        lower, upper = eigenvalue_window(m, lam)
        if not (lower - FLOAT_SLACK <= ratio <= upper + FLOAT_SLACK):
            violations.append(
                f"eigenvalue m={m}: mu_m/mu={ratio} outside window "
                f"[{lower}, {upper}] at lam={lam}"
            )
    return violations
