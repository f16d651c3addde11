"""Analytic window thresholds and the model-B existence certificate.

Three ingredients bracket the model-A emergence threshold and certify
binding for model B:

* ``q2_closed`` / ``q2_quadrature``: the reduced window functional whose
  sign decides whether a variational trial state beats the threshold;
  its unique root in (0, 1) is the upper estimate ``lambda2()``.
* ``konec2_rhs``: the rational function whose crossing with 1 - 2/pi
  yields the lower estimate ``lambda1() = kappa0/pi``.
* ``modelB_certificate``: the two-parameter trial-state energy whose
  negativity certifies a model-B bound state for any window size;
  ``find_negative_certificate`` takes its minimum in closed form.

The trial profiles entering the window functional solve a coupled
linear Euler system; their closed forms and analytic derivatives are
implemented in ``TrialProfiles`` and verified by the test suite (Euler
residuals, finite-difference derivative checks, and quadrature
equivalence of the closed-form functional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .geometry import MU

__all__ = [
    "T1",
    "T2",
    "KONEC2_LHS",
    "KAPPA_MAX",
    "TrialProfiles",
    "euler_residuals",
    "q2_closed",
    "q2_quadrature",
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

#: rates of the four longitudinal trial components: the cosh component
#: of phi/psi and eta, the sinh component of phi/psi and chi, the sinh
#: component of chi and the cosine component of eta
_A1 = _PI * T1
_A2 = _PI * T2
_A3 = math.sqrt(3.0) * _PI / 2.0
_A4 = _PI / 2.0


# ---------------------------------------------------------------------------
# Trial profiles (closed-form Euler solutions) and the window functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialProfiles:
    """Closed-form trial profiles chi, phi, psi, eta on [-delta, delta],
    0 < delta < 1.

    They solve the coupled Euler system of the window functional with
    boundary values phi(-delta) = psi(delta) = 1, phi(delta) =
    psi(-delta) = 0 and chi, eta vanishing at both ends.  ``phi(x) =
    psi(-x)``, chi is odd and eta is even.  Analytic first and second
    derivatives are provided for the functional quadrature and the Euler
    residual check.
    """

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"window must satisfy 0 < delta < 1, got delta={self.delta}")

    # normalized component functions: value 1 at x = delta (cosh/cos: even)
    def _ch1(self, x):
        return np.cosh(_A1 * x) / math.cosh(_A1 * self.delta)

    def _sh2(self, x):
        return np.sinh(_A2 * x) / math.sinh(_A2 * self.delta)

    def _sh3(self, x):
        return np.sinh(_A3 * x) / math.sinh(_A3 * self.delta)

    def _cs4(self, x):
        return np.cos(_A4 * x) / math.cos(_A4 * self.delta)

    def chi(self, x):
        return (4.0 / (3.0 * _PI)) * (self._sh3(x) - self._sh2(x))

    def phi(self, x):
        return 0.5 * (self._ch1(x) - self._sh2(x))

    def psi(self, x):
        return 0.5 * (self._ch1(x) + self._sh2(x))

    def eta(self, x):
        return (2.0 / _PI) * (self._cs4(x) - self._ch1(x))

    # first derivatives
    def _dch1(self, x):
        return _A1 * np.sinh(_A1 * x) / math.cosh(_A1 * self.delta)

    def _dsh2(self, x):
        return _A2 * np.cosh(_A2 * x) / math.sinh(_A2 * self.delta)

    def _dsh3(self, x):
        return _A3 * np.cosh(_A3 * x) / math.sinh(_A3 * self.delta)

    def _dcs4(self, x):
        return -_A4 * np.sin(_A4 * x) / math.cos(_A4 * self.delta)

    def dchi(self, x):
        return (4.0 / (3.0 * _PI)) * (self._dsh3(x) - self._dsh2(x))

    def dphi(self, x):
        return 0.5 * (self._dch1(x) - self._dsh2(x))

    def dpsi(self, x):
        return 0.5 * (self._dch1(x) + self._dsh2(x))

    def deta(self, x):
        return (2.0 / _PI) * (self._dcs4(x) - self._dch1(x))

    # second derivatives (cosh/sinh reproduce with rate^2, cos with -rate^2)
    def d2chi(self, x):
        return (4.0 / (3.0 * _PI)) * (
            _A3**2 * self._sh3(x) - _A2**2 * self._sh2(x)
        )

    def d2phi(self, x):
        return 0.5 * (_A1**2 * self._ch1(x) - _A2**2 * self._sh2(x))

    def d2psi(self, x):
        return 0.5 * (_A1**2 * self._ch1(x) + _A2**2 * self._sh2(x))

    def d2eta(self, x):
        return (2.0 / _PI) * (-_A4**2 * self._cs4(x) - _A1**2 * self._ch1(x))

    def functional_integrand(self, x):
        """Quadratic density of the reduced window functional."""
        phi, psi = self.phi(x), self.psi(x)
        chi, eta = self.chi(x), self.eta(x)
        dphi, dpsi = self.dphi(x), self.dpsi(x)
        dchi, deta = self.dchi(x), self.deta(x)
        return (
            0.5 * (dphi**2 + dpsi**2 + dchi**2)
            + deta**2
            + (2.0 / _PI) * dphi * dpsi
            + (4.0 / (3.0 * _PI)) * dchi * (dpsi - dphi)
            + (4.0 / _PI) * deta * (dphi + dpsi)
            + _PI * chi * (psi - phi)
            + (3.0 * _PI**2 / 8.0) * chi**2
            - _PI * phi * psi
            - (_PI**2 / 4.0) * eta**2
            - _PI * eta * (psi + phi)
        )


def euler_residuals(profiles: TrialProfiles, x) -> np.ndarray:
    """Residuals of the four Euler equations at points x, shape (4, len(x)).

    Zero (to rounding) certifies that the closed-form profiles solve the
    stationarity system of the window functional.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi, psi = profiles.phi(x), profiles.psi(x)
    chi, eta = profiles.chi(x), profiles.eta(x)
    d2phi, d2psi = profiles.d2phi(x), profiles.d2psi(x)
    d2chi, d2eta = profiles.d2chi(x), profiles.d2eta(x)
    r1 = (
        d2phi
        + (2.0 / _PI) * d2psi
        - (4.0 / (3.0 * _PI)) * d2chi
        + (4.0 / _PI) * d2eta
        + _PI * (psi + eta + chi)
    )
    r2 = (
        d2psi
        + (2.0 / _PI) * d2phi
        + (4.0 / (3.0 * _PI)) * d2chi
        + (4.0 / _PI) * d2eta
        + _PI * (phi + eta - chi)
    )
    r3 = (
        d2chi
        + (4.0 / (3.0 * _PI)) * (d2psi - d2phi)
        - _PI * (psi - phi)
        - (3.0 * _PI**2 / 4.0) * chi
    )
    r4 = (
        2.0 * d2eta
        + (4.0 / _PI) * (d2psi + d2phi)
        + _PI * (psi + phi)
        + (_PI**2 / 2.0) * eta
    )
    return np.stack([r1, r2, r3, r4])


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


def q2_quadrature(delta: float) -> float:
    """The same functional by adaptive quadrature of the ten-term density.

    This is the independent oracle for ``q2_closed``.
    """
    profiles = TrialProfiles(delta=delta)
    val, err = quad(
        lambda x: float(profiles.functional_integrand(x)),
        -delta,
        delta,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=300,
    )
    if err > 1e-10:
        raise RuntimeError(f"window functional quadrature did not converge: err={err}")
    return val


@lru_cache(maxsize=1)
def lambda2() -> float:
    """Upper window estimate: the root of q2_closed in (0.05, 0.95)."""
    return brentq(q2_closed, 0.05, 0.95, xtol=1e-10)


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
    return brentq(
        lambda k: konec2_rhs(k) - KONEC2_LHS,
        1e-6,
        KAPPA_MAX - 1e-6,
        xtol=1e-12,
    )


def lambda1() -> float:
    """Lower window estimate Lambda1 = kappa0 / pi."""
    return kappa0() / _PI


# ---------------------------------------------------------------------------
# Model-B existence certificate
# ---------------------------------------------------------------------------


def _bump(u: float) -> float:
    """Smooth bump g(u) = exp(-1/(1 - u^2)) for |u| < 1 (zero outside)."""
    return math.exp(-1.0 / (1.0 - u * u))


@lru_cache(maxsize=1)
def _bump_moments() -> tuple[float, float, float]:
    """int g^2, int (g g')^2 and int g^4 over (-1, 1), by adaptive quadrature."""
    integrands = (
        lambda u: _bump(u) ** 2,
        lambda u: (_bump(u) ** 2 * 2.0 * u / (1.0 - u * u) ** 2) ** 2,
        lambda u: _bump(u) ** 4,
    )
    moments = []
    for integrand in integrands:
        val, err = quad(integrand, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        if err > 1e-12 * val:
            raise RuntimeError(f"bump moment quadrature did not converge: err={err}")
        moments.append(val)
    return tuple(moments)


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
    g2, ggp2, g4 = _bump_moments()
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
