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

Overlap integrals between a tail family (DN_SINE or ND_COSINE) and the
center family (NN_COSINE) have closed forms which are used at runtime;
adaptive quadrature is provided as the verification oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = [
    "ModelKind",
    "Region",
    "ProfileKind",
    "Geometry",
    "TransverseMode",
    "region_profile",
    "decay_rate",
    "overlap",
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


@dataclass(frozen=True)
class TransverseMode:
    """One cross-section mode: a family, an index, and the strip width."""

    profile: ProfileKind
    index: int
    d: float = 1.0
    region: Region | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"mode index must be >= 0, got {self.index}")
        if not (self.d > 0.0):
            raise ValueError(f"strip width d must be positive, got {self.d}")

    @property
    def nu_or_m(self) -> float:
        """Half-integer nu_k = (2k+1)/2, or the integer m for NN_COSINE."""
        if self.profile is ProfileKind.NN_COSINE:
            return float(self.index)
        return (2 * self.index + 1) / 2.0

    @property
    def transverse_eigenvalue(self) -> float:
        """Eigenvalue of -d^2/dy^2 with the family's wall conditions."""
        return (self.nu_or_m * math.pi / self.d) ** 2

    def __call__(self, y):
        """Evaluate the orthonormal profile at y (scalar or array)."""
        y = np.asarray(y, dtype=float)
        if self.profile is ProfileKind.DN_SINE:
            return np.sqrt(2.0 / self.d) * np.sin(self.nu_or_m * np.pi * y / self.d)
        if self.profile is ProfileKind.ND_COSINE:
            return np.sqrt(2.0 / self.d) * np.cos(self.nu_or_m * np.pi * y / self.d)
        if self.index == 0:
            return np.full_like(y, np.sqrt(1.0 / self.d))
        return np.sqrt(2.0 / self.d) * np.cos(self.nu_or_m * np.pi * y / self.d)


def decay_rate(mode: TransverseMode, E: float) -> float:
    """Longitudinal decay rate kappa = sqrt(transverse_eigenvalue - E).

    The mode must be evanescent at energy E: a propagating mode
    (E >= transverse eigenvalue) has no square-integrable tail and is
    rejected.
    """
    ev = mode.transverse_eigenvalue
    if E >= ev:
        raise ValueError(
            f"E={E} >= transverse eigenvalue {ev}: mode is propagating, "
            "not a bound-state tail"
        )
    return math.sqrt(ev - E)


def _check_overlap_pair(mode_tail: TransverseMode, mode_center: TransverseMode):
    if mode_tail.profile not in (ProfileKind.DN_SINE, ProfileKind.ND_COSINE):
        raise ValueError(f"tail mode must be DN_SINE or ND_COSINE, got {mode_tail.profile}")
    if mode_center.profile is not ProfileKind.NN_COSINE:
        raise ValueError(f"center mode must be NN_COSINE, got {mode_center.profile}")
    if mode_tail.d != mode_center.d:
        raise ValueError(
            f"mismatched strip widths: tail d={mode_tail.d}, center d={mode_center.d}"
        )


def _overlap_closed_form(tail_profile: ProfileKind, k, m):
    """C_km (sine tails) or D_km (cosine tails) for broadcastable k, m.

    For the sine family against the Neumann-Neumann cosines,

        C_k0 = sqrt(2) / (nu_k pi),
        C_km = (2 nu_k / pi) / (nu_k^2 - m^2)          (m >= 1),

    and for the cosine tail family D_km = (-1)^(k+m) C_km.  The
    integrals are independent of d because all profiles carry the
    1/sqrt(d) normalization.
    """
    nu = np.asarray(k) + 0.5
    m = np.asarray(m)
    c = np.where(m == 0, math.sqrt(2.0) / (nu * math.pi),
                 (2.0 * nu / math.pi) / (nu * nu - m * m))
    if tail_profile is ProfileKind.ND_COSINE:
        c = c * (-1.0) ** (k + m)
    return c


def overlap(mode_tail: TransverseMode, mode_center: TransverseMode) -> float:
    """Closed-form projection integral int_0^d tail(y) center(y) dy."""
    _check_overlap_pair(mode_tail, mode_center)
    return float(_overlap_closed_form(mode_tail.profile, mode_tail.index,
                                      mode_center.index))


def overlap_matrix(tail_profile: ProfileKind, N: int) -> np.ndarray:
    """O[k, m] = overlap of tail mode k with center mode m, for k, m < N."""
    if tail_profile not in (ProfileKind.DN_SINE, ProfileKind.ND_COSINE):
        raise ValueError(f"tail family must be DN_SINE or ND_COSINE, got {tail_profile}")
    idx = np.arange(N)
    return _overlap_closed_form(tail_profile, idx[:, None], idx[None, :])


def overlap_quadrature(
    mode_tail: TransverseMode, mode_center: TransverseMode
) -> float:
    """The same projection integral by adaptive quadrature (the oracle)."""
    _check_overlap_pair(mode_tail, mode_center)
    d = mode_tail.d
    val, err = quad(
        lambda y: float(mode_tail(y) * mode_center(y)),
        0.0,
        d,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if err > 1e-12:
        raise RuntimeError(f"overlap quadrature did not converge: err={err}")
    return val
