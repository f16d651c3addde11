"""Strip geometry, the two models, transverse mode bases and overlaps.

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
center family (NN_COSINE) are used in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelKind",
    "SECTORS",
    "MU",
    "ProfileKind",
    "Geometry",
    "profile_values",
    "overlap_matrix",
]


class ProfileKind(enum.Enum):
    DN_SINE = "DN_sine"
    ND_COSINE = "ND_cosine"
    NN_COSINE = "NN_cosine"


class ModelKind(enum.Enum):
    """A model is the pair of walls, y = 0 or 1, that are Dirichlet in its
    left (x < -delta) and right (x > delta) tail; every other wall is
    Neumann.  ``tails`` are the tails' mode families: DN_SINE under a
    Dirichlet bottom, ND_COSINE under a Dirichlet top."""

    A = (0.0, 1.0)  # Dirichlet: bottom for x < -delta, top for x > delta
    B = (1.0, 1.0)  # Dirichlet: top for |x| > delta

    def __init__(self, left: float, right: float):
        self.tails = tuple(ProfileKind.ND_COSINE if y else ProfileKind.DN_SINE
                           for y in (left, right))

    @property
    def flips_y(self) -> bool:
        """Whether the reflection that swaps the tails flips y: (x, y) ->
        (-x, 1 - y) when the two Dirichlet walls differ, else x -> -x."""
        left, right = self.value
        return left != right

    def parity(self, n: int) -> np.ndarray:
        """Parities p_m of cos(m pi y), m < n, under the reflection that swaps
        the tails: (-1)^m when it flips y, else 1."""
        return (-1.0) ** np.arange(n) if self.flips_y else np.ones(n)


#: parity sectors under the model's reflection, which swaps the two
#: tails: even (+1) and odd (-1)
SECTORS = (1, -1)

#: essential-spectrum threshold pi^2/(4 d^2) at d = 1
MU = math.pi**2 / 4.0


@dataclass(frozen=True)
class Geometry:
    """The window lam = delta/d, strictly positive and finite.

    By scaling, E/mu depends on the window only through lam, so every
    computation runs on the strip of width d = 1: there the half window
    delta equals lam and the essential-spectrum threshold is MU.
    """

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"half window delta must be positive, got {self.lam}")

    @classmethod
    def from_lambda(cls, lam: float) -> "Geometry":
        """Build a geometry from the dimensionless window lam = delta/d."""
        return cls(lam)

    @property
    def delta(self) -> float:
        """Half window at d = 1, equal to lam."""
        return self.lam

    @property
    def mu(self) -> float:
        """Essential-spectrum threshold at d = 1, MU = pi^2/4."""
        return MU


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
