"""Strip geometry, transverse mode bases, and cross-basis overlap integrals.

The strip is Omega = R x (0, d).  Boundary conditions switch between
Dirichlet and Neumann at x = -delta and x = +delta, which splits the
strip into three rectangular regions:

* region I   : x < -delta
* region II  : -delta < x < delta
* region III : x > delta

On each region the cross section carries one of three orthonormal mode
families, fixed by the wall conditions of that region:

* ``DN_SINE``   u_k(y) = sqrt(2/d) sin(nu_k pi y / d)   (Dirichlet y=0, Neumann y=d)
* ``ND_COSINE`` v_k(y) = sqrt(2/d) cos(nu_k pi y / d)   (Neumann y=0, Dirichlet y=d)
* ``NN_COSINE`` w_0(y) = sqrt(1/d),
                w_m(y) = sqrt(2/d) cos(m pi y / d)      (Neumann both walls)

with nu_k = (2k+1)/2.  The transverse eigenvalue is (nu_k pi / d)^2 for
the half-integer families and (m pi / d)^2 for the Neumann-Neumann one.
``profile_values`` evaluates the first N profiles of a family at d = 1,
the units of every spectral computation.

Overlap integrals between a tail family (DN_SINE or ND_COSINE) and the
center family (NN_COSINE) have closed forms which are used at runtime;
adaptive quadrature is provided as the verification oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

__all__ = [
    "ModelKind",
    "Region",
    "ProfileKind",
    "Geometry",
    "region_profile",
    "profile_values",
    "overlap_matrix",
    "overlap_quadrature",
]


class ModelKind(enum.Enum):
    """Which walls carry the Dirichlet condition outside the window."""

    A = "A"  # Dirichlet: bottom for x < -delta, top for x > delta
    B = "B"  # Dirichlet: top for |x| > delta


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


class ProfileKind(enum.Enum):
    DN_SINE = "DN_sine"
    ND_COSINE = "ND_cosine"
    NN_COSINE = "NN_cosine"


#: cross-section mode family of each region, per model
_REGION_PROFILES = {
    ModelKind.A: {
        Region.I: ProfileKind.DN_SINE,
        Region.II: ProfileKind.NN_COSINE,
        Region.III: ProfileKind.ND_COSINE,
    },
    ModelKind.B: {
        Region.I: ProfileKind.ND_COSINE,
        Region.II: ProfileKind.NN_COSINE,
        Region.III: ProfileKind.ND_COSINE,
    },
}


def region_profile(model: ModelKind, region: Region) -> ProfileKind:
    """Mode family used on a region of the given model."""
    return _REGION_PROFILES[model][region]


@dataclass(frozen=True)
class Geometry:
    """Strip width d and half window delta; both strictly positive.

    ``lam = delta/d`` is the dimensionless window parameter and
    ``mu = pi^2/(4 d^2)`` the essential-spectrum threshold.  All spectral
    computations are done internally with d = 1; d enters only at the
    input/output boundary.
    """

    d: float = 1.0
    delta: float = 0.5

    def __post_init__(self):
        if not (self.d > 0.0) or not math.isfinite(self.d):
            raise ValueError(f"strip width d must be positive, got {self.d}")
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise ValueError(f"half window delta must be positive, got {self.delta}")

    @classmethod
    def from_lambda(cls, lam: float, d: float = 1.0) -> "Geometry":
        """Build a geometry from the dimensionless window lam = delta/d."""
        return cls(d=d, delta=lam * d)

    @property
    def lam(self) -> float:
        """Dimensionless window parameter delta/d."""
        return self.delta / self.d

    @property
    def mu(self) -> float:
        """Essential-spectrum threshold pi^2/(4 d^2)."""
        return math.pi**2 / (4.0 * self.d**2)

    def unit(self) -> "Geometry":
        """The same window in nondimensional units (d = 1)."""
        return Geometry(d=1.0, delta=self.lam)


def profile_values(profile: ProfileKind, N: int, y: np.ndarray) -> np.ndarray:
    """Transverse profiles evaluated at y, shape (N, len(y)) (d = 1)."""
    y = np.asarray(y, dtype=float)
    idx = np.arange(N)
    if profile is ProfileKind.DN_SINE:
        nu = idx + 0.5
        return math.sqrt(2.0) * np.sin(nu[:, None] * math.pi * y[None, :])
    if profile is ProfileKind.ND_COSINE:
        nu = idx + 0.5
        return math.sqrt(2.0) * np.cos(nu[:, None] * math.pi * y[None, :])
    vals = math.sqrt(2.0) * np.cos(idx[:, None] * math.pi * y[None, :])
    vals[0] = 1.0
    return vals


def _check_tail(tail_profile: ProfileKind) -> None:
    if tail_profile not in (ProfileKind.DN_SINE, ProfileKind.ND_COSINE):
        raise ValueError(f"tail family must be DN_SINE or ND_COSINE, got {tail_profile}")


@lru_cache(maxsize=8)
def overlap_matrix(tail_profile: ProfileKind, N: int) -> np.ndarray:
    """O[k, m] = overlap of tail mode k with center mode m, for k, m < N;
    independent of the energy, so memoised and returned read-only.

    For the sine family against the Neumann-Neumann cosines,

        C_k0 = sqrt(2) / (nu_k pi),
        C_km = (2 nu_k / pi) / (nu_k^2 - m^2)          (m >= 1),

    and for the cosine tail family D_km = (-1)^(k+m) C_km.  The
    integrals are independent of d because all profiles carry the
    1/sqrt(d) normalization.
    """
    _check_tail(tail_profile)
    k = np.arange(N)[:, None]
    m = np.arange(N)[None, :]
    nu = k + 0.5
    c = np.where(m == 0, math.sqrt(2.0) / (nu * math.pi),
                 (2.0 * nu / math.pi) / (nu * nu - m * m))
    if tail_profile is ProfileKind.ND_COSINE:
        c = c * (-1.0) ** (k + m)
    c.setflags(write=False)
    return c


def overlap_quadrature(tail_profile: ProfileKind, k: int, m: int) -> float:
    """Overlap of tail mode k with center mode m by adaptive quadrature (the oracle)."""
    _check_tail(tail_profile)

    def integrand(y):
        tail = profile_values(tail_profile, k + 1, [y])[k, 0]
        center = profile_values(ProfileKind.NN_COSINE, m + 1, [y])[m, 0]
        return float(tail * center)

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-12:
        raise RuntimeError(f"overlap quadrature did not converge: err={err}")
    return val
