"""The sector matrix M_s(E) and its Wittrick-Williams count: the reference
the junction phase of ``wavebound.modematch`` must reproduce; and the
phase itself assembled from scratch at every call, which the solver's
memoised operands must reproduce bit for bit; and one-lane helpers on
the solver's own level (``level``, ``phase_count``).

In the parity sector s the matching at x = -delta is the symmetric N x N
system

    M_s(E) a = 0,    M_s(E) = diag(kappa_k) - O diag(Lambda_m) O^T,

with O the tail-I/center overlap matrix and Lambda_m = f_m'(-delta) /
f_m(-delta) of the sector's center functions.  M_s(E) decreases in E
between the poles of Lambda_0, so the number of sector eigenvalues below
E is the number of negative eigenvalues of M_s(E) plus the number of
poles of Lambda_0 below E (Wittrick & Williams, Q. J. Mech. Appl. Math.
24 (1971) 263).  The pole formula holds strictly below mu only: at
E = mu with integer lambda a pole sits on the threshold itself and is
counted as a state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh

from roots_reference import bordered_cholesky
from wavebound import modematch as mm
from wavebound.geometry import SECTORS, Geometry, ModelKind, overlap_matrix


def sector_matrix(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> np.ndarray:
    """M_s(E) = diag(kappa) - O diag(Lambda) O^T of one parity sector,
    for E strictly inside (0, mu)."""
    if not (0.0 < E < geometry.mu):
        raise ValueError(f"energy must lie in (0, mu)=(0, {geometry.mu}), got {E}")
    if not (4 <= N <= mm.MAX_MODES):
        raise ValueError(f"truncation N must lie in [4, {mm.MAX_MODES}], got {N}")
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector}")
    O = overlap_matrix(model.tails[0], N)
    f, df = mm._center_at_interface(
        mm._center_is_cos(model, sector, N), geometry.delta, E)
    return np.diag(mm._kappa(N, E)) - (O * (df / f)) @ O.T


def poles_below(delta: float, E: float, sector: int) -> int:
    """Poles of Lambda_0 below E: sqrt(E) delta = pi/2 + k pi for the
    cosine of the even sector, k pi (k >= 1) for the sine of the odd one."""
    phase = math.sqrt(E) * delta / math.pi
    return math.floor(phase + 0.5) if sector == 1 else math.floor(phase)


def sector_count(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> int:
    """neg(M_s(E)) plus the poles of Lambda_0 below E."""
    w = eigvalsh(sector_matrix(model, geometry, N, E, sector), check_finite=False)
    return int(np.count_nonzero(w < 0.0)) + poles_below(geometry.delta, E, sector)


def sector_phase(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> tuple[float, np.ndarray]:
    """The junction phase phi_s(E) and bordered factor L of
    ``modematch.sector_phase``, with R_s = O_1 diag(-df/f) O_1^T + diag(kappa)
    rebuilt from the overlap matrix and the interface values at each call."""
    O = overlap_matrix(model.tails[0], N)
    f, df = mm._center_at_interface(
        mm._center_is_cos(model, sector, N), geometry.delta, E)
    R = (O[:, 1:] * (-df[1:] / f[1:])) @ O[:, 1:].T
    R[np.diag_indices(N)] += mm._kappa(N, E)
    L = bordered_cholesky(R, O[:, 0])
    z = L[N, :N]
    root_e = math.sqrt(E)
    return root_e * geometry.delta - math.atan2(1.0, root_e * (z @ z)), L


def level(model: ModelKind, geometry: Geometry, N: int, E: float, sector: int) -> float:
    """The junction level of one sector at E: one lane of ``modematch._levels``."""
    return mm._levels(model, N, [E], [geometry.delta], [sector])[0]


def phase_count(model: ModelKind, geometry: Geometry, N: int, E: float, sector: int) -> int:
    """The sector's eigenvalues at or below E, read from its junction level."""
    return math.floor(level(model, geometry, N, E, sector)) + 1


def stable(model: ModelKind, geometry: Geometry, N: int, E: float, sector: int) -> bool:
    """The stability flag of a root E below the cut by its definition: the
    sector's count at N' = ``modematch._bumped(N)`` steps between E - drift
    and E + drift (clipped to the scan window), two counts."""
    mu = geometry.mu
    drift = mm.STABLE_DRIFT_FRAC * mu
    lo = max(E - drift, mm.SCAN_LO_FRAC * mu)
    hi = min(E + drift, mu)
    bumped = mm._bumped(N)
    return phase_count(model, geometry, bumped, hi, sector) > phase_count(
        model, geometry, bumped, lo, sector)


def wide_stable(model: ModelKind, geometry: Geometry, N: int,
                E: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """The stability flags of roots E from the cut on, the two counts read
    from the full phase table at N' = ``modematch._bumped(N)``."""
    mu, delta = geometry.mu, geometry.delta
    drift = mm.STABLE_DRIFT_FRAC * mu
    table = mm._phase_table(model.tails[0], mm._bumped(N))

    def count(x):
        phase = np.sqrt(x) * delta - mm._interpolate_theta(table, mm._angle(x))
        return np.floor(phase / math.pi - (1 - sectors) / 4)

    lo = np.maximum(E - drift, mm.SCAN_LO_FRAC * mu)
    return count(np.minimum(E + drift, mu)) > count(lo)
