"""Trial profiles of the model-A window functional and its quadrature:
the reference that ``variational.q2_closed`` must match.

The profiles chi, phi, psi, eta solve the coupled linear Euler system of
the reduced window functional in closed form; ``euler_residuals``
certifies that they do, and ``q2_quadrature`` integrates the functional's
ten-term density adaptively, independently of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from wavebound.variational import T1, T2

_PI = math.pi

#: rates of the four longitudinal trial components: the cosh component
#: of phi/psi and eta, the sinh component of phi/psi and chi, the sinh
#: component of chi and the cosine component of eta
_A1 = _PI * T1
_A2 = _PI * T2
_A3 = math.sqrt(3.0) * _PI / 2.0
_A4 = _PI / 2.0


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
