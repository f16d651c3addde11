"""Analytic window thresholds and the model-B existence certificate.

Three ingredients bracket the model-A emergence threshold and certify
binding for model B:

* ``q2_closed``: the reduced window functional, in closed form at the
  trial profiles, whose sign decides whether a variational trial state
  beats the threshold; its unique root in (0, 1) is the upper estimate
  ``lambda2()``.
* ``konec2_rhs``: the rational function whose crossing with 1 - 2/pi
  yields the lower estimate ``lambda1() = kappa0/pi``.
* ``modelB_certificate``: the two-parameter trial-state energy whose
  negativity certifies a model-B bound state for any window size;
  ``find_negative_certificate`` takes its minimum in closed form.

The trial profiles entering the window functional solve a coupled
linear Euler system.  The test suite keeps their closed forms as the
reference for ``q2_closed``: it checks the Euler residuals and the
analytic derivatives, and integrates the functional by quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .geometry import MU
from .roots import brent

__all__ = [
    "T1",
    "T2",
    "KONEC2_LHS",
    "KAPPA_MAX",
    "q2_closed",
    "lambda2",
    "konec2_rhs",
    "kappa0",
    "lambda1",
    "certificate_norms",
    "modelB_certificate",
    "find_negative_certificate",
]

_PI = math.pi

#: hyperbolic rates of the even/odd profile components
T1 = math.sqrt((4.0 - _PI) / (_PI**2 + 2.0 * _PI - 16.0))
T2 = math.sqrt(3.0 * (3.0 * _PI - 8.0) / (9.0 * _PI**2 - 18.0 * _PI - 32.0))

#: left-hand side of the window inequality deciding lambda1
KONEC2_LHS = 1.0 - 2.0 / _PI

#: upper end of the admissible kappa window (denominator sign change)
KAPPA_MAX = (math.sqrt(129.0) - 1.0) / (8.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# The upper estimate lambda2 from the window functional
# ---------------------------------------------------------------------------


#: coefficients of the closed-form window functional
_C1 = math.sqrt((4.0 - _PI) * (_PI**2 + 2.0 * _PI - 16.0)) / (2.0 * _PI)
_C2 = 8.0 / (3.0 * math.sqrt(3.0) * _PI)
_C3 = math.sqrt((3.0 * _PI - 8.0) * (9.0 * _PI**2 - 18.0 * _PI - 32.0)) / (
    6.0 * math.sqrt(3.0) * _PI
)
_C4 = 4.0 / _PI


def q2_closed(delta: float) -> float:
    """Closed form of the reduced window functional at the Euler profiles.

    Diverges to +inf as delta -> 0+ (coth terms) and to -inf as
    delta -> 1- (tan term); its unique root defines lambda2.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"window must satisfy 0 < delta < 1, got delta={delta}")
    return (
        _C1 * math.tanh(_PI * delta * T1)
        + _C2 / math.tanh(math.sqrt(3.0) * _PI * delta / 2.0)
        + _C3 / math.tanh(_PI * delta * T2)
        - _C4 * math.tan(_PI * delta / 2.0)
    )


@lru_cache(maxsize=1)
def lambda2() -> float:
    """Upper window estimate: the root of q2_closed in (0.05, 0.95)."""
    return brent(q2_closed, 0.05, 0.95, 1e-10)


# ---------------------------------------------------------------------------
# The lower estimate lambda1 from the kappa inequality
# ---------------------------------------------------------------------------


def konec2_rhs(kappa: float) -> float:
    """Right-hand side of the window inequality in the variable kappa.

    Defined for 0 < kappa < KAPPA_MAX (the denominator changes sign at
    the upper end).  Vanishes as kappa -> 0 and diverges at KAPPA_MAX.
    """
    if not (0.0 < kappa < KAPPA_MAX):
        raise ValueError(
            f"kappa must lie in (0, {KAPPA_MAX:.6f}), got {kappa}"
        )
    s = 2.0 * math.sqrt(2.0)
    num = 3.0 * kappa * (s * (1.0 + kappa) * kappa + 1.0 - kappa)
    den = (1.0 - kappa) * (2.0 * s * (1.0 - kappa**2) - kappa)
    return num / den


@lru_cache(maxsize=1)
def kappa0() -> float:
    """The crossing konec2_rhs(kappa) = 1 - 2/pi."""
    return brent(lambda k: konec2_rhs(k) - KONEC2_LHS, 1e-6, KAPPA_MAX - 1e-6, 1e-12)


def lambda1() -> float:
    """Lower window estimate Lambda1 = kappa0 / pi."""
    return kappa0() / _PI


# ---------------------------------------------------------------------------
# Model-B existence certificate
# ---------------------------------------------------------------------------


#: int g^2, int (g g')^2 and int g^4 over (-1, 1) for the bump
#: g(u) = exp(-1/(1 - u^2)), |u| < 1; the tests recompute them by quadrature
_BUMP_MOMENTS = (0.13308612084499427, 0.013317859247257036, 0.014059716813219315)


def certificate_norms(delta: float) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the certificate q = sigma A - eps B + eps^2 C.

    A = ||phi'||^2 = sqrt(pi/2) for the plateau function (1 on
    [-2 delta, 2 delta], Gaussian decay exp(-(|x| - 2 delta)^2)
    outside), B = pi sqrt(2) ||j||^2 for the bump localization
    j(x) = g(x/delta), and C = 4 ||j j'||^2 - mu ||j^2||^2.  The
    bump norms scale exactly with the window: ||j||^2 = delta int g^2,
    ||j j'||^2 = int (g g')^2 / delta and ||j^2||^2 = delta int g^4.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    g2, ggp2, g4 = _BUMP_MOMENTS
    A = math.sqrt(_PI / 2.0)
    B = _PI * math.sqrt(2.0) * delta * g2
    C = 4.0 * ggp2 / delta - MU * delta * g4
    return A, B, C


def modelB_certificate(delta: float, sigma: float, epsilon: float) -> float:
    """Trial-state energy excess q[Phi_{sigma, eps}] for model B.

    Negative values certify a bound state below the threshold.  The
    linear-in-epsilon term is strictly negative, so for every delta > 0
    suitable (sigma, epsilon) make the certificate negative.
    """
    if sigma < 0.0 or epsilon < 0.0:
        raise ValueError("sigma and epsilon must be nonnegative")
    A, B, C = certificate_norms(delta)
    return sigma * A - epsilon * B + epsilon * epsilon * C


def find_negative_certificate(delta: float) -> tuple[float, float, float]:
    """(sigma, epsilon, value) at the closed-form minimum of the certificate.

    q grows linearly in sigma, which therefore sits on a positive floor
    of 1e-12 (the construction needs sigma > 0).  In epsilon q is a
    parabola with minimum at B/(2C) when C > 0; when C <= 0 (wide
    windows) every epsilon > 0 makes -eps B + eps^2 C negative, and
    epsilon = 1 is taken.
    """
    _, B, C = certificate_norms(delta)
    sigma = 1e-12
    epsilon = B / (2.0 * C) if C > 0.0 else 1.0
    return sigma, epsilon, modelB_certificate(delta, sigma, epsilon)
