"""Interface-matching eigenvalue solver for the three-region strip.

At an energy E below the threshold mu, the field is expanded in the
exact transverse basis of each region:

* region I   (x < -delta):  sum_k a_k exp(+kappa_k (x + delta)) T^I_k(y)
* region II  (|x| < delta): sum_m [alpha_m c_m(x) + beta_m s_m(x)] w_m(y)
* region III (x > delta):   sum_k b_k exp(-kappa_k (x - delta)) T^III_k(y)

with kappa_k the tail decay rates.  The center longitudinal functions
are unit-scaled to keep matrix entries bounded: for m = 0 (the only
propagating center mode below mu) c_0 = cos(sqrt(E) x), s_0 =
sin(sqrt(E) x); for m >= 1 c_m = cosh(gamma_m x)/cosh(gamma_m delta)
and s_m = sinh(gamma_m x)/sinh(gamma_m delta).

Both models are symmetric under a reflection that swaps the tails:
(x, y) -> (-x, 1 - y) when their Dirichlet walls differ (model A), else
x -> -x (model B).  It maps center profile m to p_m times itself and
left tail profile k to p_k times the right one, p_m = (-1)^m or 1
(``ModelKind.parity``).  Every eigenfunction is even or odd under it
(its parity sector s), which fixes b = s p_k a and keeps one center
function f_m per mode: c_m where s p_m = +1, s_m where s p_m = -1.
Matching at x = -delta then suffices.  Value continuity projected on
the center modes gives the center amplitudes, (O^T a)_m = A_m
f_m(-delta), and derivative continuity projected on the tail-I modes
becomes the symmetric N x N system

    M_s(E) a = 0,    M_s(E) = diag(kappa_k) - O diag(Lambda_m) O^T,

with O the tail-I/center overlap matrix and Lambda_m =
f_m'(-delta)/f_m(-delta).  M_s(E) decreases in E between the poles of
Lambda_0, so the number of sector eigenvalues below E is the number of
negative eigenvalues of M_s(E) plus the number of poles of Lambda_0
below E (Wittrick & Williams, Q. J. Mech. Appl. Math. 24 (1971) 263).
The count is exact for the truncated problem and isolates each
eigenvalue in a pole-free bracket, where Brent's method converges on the
one eigenvalue of M_s(E) that crosses zero there.  Each eigenvalue keeps
the sector it was found in (``Spectrum.sectors``), and its eigenfield is
solved in that sector.

Reported eigenvalues are the dimensionless ratios E/mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh

from .geometry import (
    SECTORS,
    Geometry,
    ModelKind,
    ProfileKind,
    overlap_matrix,
    profile_values,
)
from .roots import count, count_roots

__all__ = [
    "SECTORS",
    "Spectrum",
    "EigenField",
    "sector_matrix",
    "sector_count",
    "count_states",
    "scan_spectrum",
    "solve_coefficients",
    "evaluate_field",
    "solve_field",
]

#: scan window margins, in units of mu
SCAN_LO_FRAC = 1e-8
SCAN_HI_FRAC = 1.0 - 1e-6

#: refinement width and stability drift tolerances
REFINE_FRAC = 1e-10
STABLE_DRIFT_FRAC = 1e-4

#: truncation bump used by the stability check
STABILITY_BUMP = 8

#: largest truncation N per region
MAX_MODES = 256


def _kappa(N: int, E: float) -> np.ndarray:
    """Tail decay rates kappa_k = sqrt((nu_k pi)^2 - E)."""
    nu = np.arange(N) + 0.5
    return np.sqrt((nu * math.pi) ** 2 - E)


def _gamma(N: int, E: float) -> np.ndarray:
    """Center rates: sqrt(E) for the propagating m = 0, else sqrt((m pi)^2 - E)."""
    return np.sqrt(np.abs((np.arange(N) * math.pi) ** 2 - E))


@lru_cache(maxsize=64)
def _center_is_cos(model: ModelKind, sector: int, N: int) -> np.ndarray:
    """Memoised read-only mask: True where f_m is c_m (s p_m = 1), False for s_m."""
    is_cos = sector * model.parity(N) > 0
    is_cos.setflags(write=False)
    return is_cos


def _center_at_interface(
    is_cos: np.ndarray, delta: float, E: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values f_m(-delta) and derivatives f_m'(-delta) of the sector's center functions."""
    g = _gamma(is_cos.size, E)
    f = np.where(is_cos, 1.0, -1.0)
    tanh = np.tanh(g[1:] * delta)
    df = np.empty(is_cos.size)
    df[1:] = np.where(is_cos[1:], -g[1:] * tanh, g[1:] / tanh)
    phase = g[0] * delta
    if is_cos[0]:
        f[0], df[0] = math.cos(phase), g[0] * math.sin(phase)
    else:
        f[0], df[0] = -math.sin(phase), g[0] * math.cos(phase)
    return f, df


def sector_matrix(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> np.ndarray:
    """M_s(E) = diag(kappa) - O diag(Lambda) O^T of one parity sector.

    E is the absolute energy at d = 1, so it must lie strictly inside
    (0, pi^2/4).
    """
    if not (0.0 < E < geometry.mu):
        raise ValueError(f"energy must lie in (0, mu)=(0, {geometry.mu}), got {E}")
    if not (4 <= N <= MAX_MODES):
        raise ValueError(f"truncation N must lie in [4, {MAX_MODES}], got {N}")
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector}")
    O = overlap_matrix(model.tails[0], N)
    f, df = _center_at_interface(_center_is_cos(model, sector, N), geometry.delta, E)
    return np.diag(_kappa(N, E)) - (O * (df / f)) @ O.T


def _poles_below(delta: float, E: float, sector: int) -> int:
    """Poles of Lambda_0 below E: sqrt(E) delta = pi/2 + k pi for the
    cosine of the even sector, k pi (k >= 1) for the sine of the odd one."""
    phase = math.sqrt(E) * delta / math.pi
    return math.floor(phase + 0.5) if sector == 1 else math.floor(phase)


def _sector_problem(model: ModelKind, geometry: Geometry, N: int, sector: int):
    """The sector's matrix family M_s(E) and its pole count, as the
    arguments ``roots.count`` and ``roots.count_roots`` take."""
    return (lambda E: sector_matrix(model, geometry, N, E, sector),
            lambda E: _poles_below(geometry.delta, E, sector))


def sector_count(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> int:
    """Number of eigenvalues below E in one sector of the N-truncated problem:
    neg(M_s(E)) plus the poles of Lambda_0 below E."""
    return count(*_sector_problem(model, geometry, N, sector), E)[0]


def count_states(model: ModelKind, geometry: Geometry, N: int, E: float) -> int:
    """Number of eigenvalues below E of the N-truncated problem."""
    return sum(sector_count(model, geometry, N, E, s) for s in SECTORS)


def _residual(model: ModelKind, geometry: Geometry, N: int, E: float, sector: int) -> float:
    """min |eig M_s(E)|: zero at a root of the sector."""
    w = count(*_sector_problem(model, geometry, N, sector), E)[1]
    return float(np.min(np.abs(w)))


def _sector_roots(model: ModelKind, geometry: Geometry, N: int, sector: int) -> list:
    """Eigenvalues of one sector in the scan window, isolated by count
    and refined to REFINE_FRAC * mu (``roots.count_roots``)."""
    mu = geometry.mu
    return list(count_roots(
        *_sector_problem(model, geometry, N, sector),
        SCAN_LO_FRAC * mu, SCAN_HI_FRAC * mu, REFINE_FRAC * mu,
    ))


def _stable(model: ModelKind, geometry: Geometry, N: int, E: float, sector: int) -> bool:
    """True when the sector at N + STABILITY_BUMP (N - STABILITY_BUMP
    above MAX_MODES) has a root within STABLE_DRIFT_FRAC * mu of E
    (inside the scan window)."""
    mu = geometry.mu
    drift = STABLE_DRIFT_FRAC * mu
    lo = max(E - drift, SCAN_LO_FRAC * mu)
    hi = min(E + drift, SCAN_HI_FRAC * mu)
    bumped = N + STABILITY_BUMP
    if bumped > MAX_MODES:
        bumped = N - STABILITY_BUMP
    return sector_count(model, geometry, bumped, hi, sector) > sector_count(
        model, geometry, bumped, lo, sector
    )


@dataclass(frozen=True)
class Spectrum:
    """Discrete eigenvalues (as E/mu) with their parity sectors, residuals
    and stability flags.

    Every root of the scan window (1e-8, 1 - 1e-6) mu is an eigenvalue;
    a state closer to the threshold lies above the window and is not
    listed.
    """

    model: ModelKind
    geometry: Geometry
    N: int
    eigenvalues: tuple  # E/mu, sorted, strictly inside (0, 1)
    sectors: tuple  # per-eigenvalue parity sector, +1 even or -1 odd
    residuals: tuple  # min |eig M_s| at each refined root
    stable: tuple  # per-eigenvalue bool


def scan_spectrum(
    model: ModelKind,
    geometry: Geometry,
    N: int = 64,
    check_stability: bool = True,
) -> Spectrum:
    """All discrete eigenvalues in the scan window, from the sector counts,
    each with the parity sector it was found in.

    The window is (SCAN_LO_FRAC, SCAN_HI_FRAC) * mu.  When
    ``check_stability`` is set, each root is flagged stable when its
    sector at truncation N + STABILITY_BUMP (N - STABILITY_BUMP above
    MAX_MODES) has a root within STABLE_DRIFT_FRAC * mu of it.
    """
    roots = sorted(
        (root, sector)
        for sector in SECTORS
        for root in _sector_roots(model, geometry, N, sector)
    )
    eigenvalues, sectors, residuals, flags = [], [], [], []
    for root, sector in roots:
        eigenvalues.append(root / geometry.mu)
        sectors.append(sector)
        residuals.append(_residual(model, geometry, N, root, sector))
        flags.append(not check_stability or _stable(model, geometry, N, root, sector))
    return Spectrum(
        model=model,
        geometry=geometry,
        N=N,
        eigenvalues=tuple(eigenvalues),
        sectors=tuple(sectors),
        residuals=tuple(residuals),
        stable=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Eigenfields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenField:
    """Matched modal coefficients of one eigenfunction.

    Normalized to unit L^2 norm over the full strip, in closed form:
    the transverse bases are orthonormal, the tail factors are pure
    exponentials, and the center cross terms int c_m s_m vanish by
    parity.
    """

    model: ModelKind
    geometry: Geometry
    N: int
    E: float
    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def kappa(self) -> np.ndarray:
        return _kappa(self.N, self.E)

    @property
    def gamma(self) -> np.ndarray:
        """Center longitudinal rates; entry 0 is sqrt(E) (propagating)."""
        return _gamma(self.N, self.E)


def _center_factors(field: EigenField, x: np.ndarray) -> np.ndarray:
    """Longitudinal center functions c_m(x), s_m(x), shape (2, N, len(x)).

    Uses exponential scaling for the hyperbolic modes so that no
    intermediate overflows even at large gamma_m * delta.
    """
    delta = field.geometry.delta
    g = field.gamma
    x = np.asarray(x, dtype=float)
    out = np.empty((2, field.N, x.size))
    rootE = g[0]
    out[0, 0] = np.cos(rootE * x)
    out[1, 0] = np.sin(rootE * x)
    if field.N > 1:
        gx = g[1:, None] * x[None, :]
        gd = g[1:, None] * delta
        # cosh(gx)/cosh(gd) and sinh(gx)/sinh(gd) without overflow
        ep = np.exp(gx - gd)
        em = np.exp(-gx - gd)
        denom_c = 1.0 + np.exp(-2.0 * gd)
        denom_s = 1.0 - np.exp(-2.0 * gd)
        out[0, 1:] = (ep + em) / denom_c
        out[1, 1:] = (ep - em) / denom_s
    return out


def solve_coefficients(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> EigenField:
    """Eigenfield at a root E of the given parity sector (+1 or -1, as
    recorded in ``Spectrum.sectors``) from the null vector of its matrix.

    E must be a root of that sector: its count steps within
    REFINE_FRAC * mu of E (the width the roots are refined to), else
    ValueError.  The eigenvector of M_s(E) closest to zero gives a, the
    reflection gives b, and value continuity the center amplitudes
    (O^T a)_m / f_m(-delta); where f_0(-delta) is small (near a pole of
    Lambda_0) the m = 0 amplitude comes from derivative continuity
    instead.  The field is scaled to unit L^2(Omega) norm with the
    largest-magnitude coefficient positive.
    """
    delta = geometry.delta
    tol = REFINE_FRAC * geometry.mu
    if sector_count(model, geometry, N, E + tol, sector) == sector_count(
        model, geometry, N, E - tol, sector
    ):
        raise ValueError(
            f"E={E} is not a root of sector {sector}: its count does not step "
            f"within {tol:.3g}"
        )
    w, V = eigh(sector_matrix(model, geometry, N, E, sector), check_finite=False)
    a = V[:, np.argmin(np.abs(w))]

    O = overlap_matrix(model.tails[0], N)
    is_cos = _center_is_cos(model, sector, N)
    f, df = _center_at_interface(is_cos, delta, E)
    amplitude = (O.T @ a) / f
    if abs(f[0]) * math.sqrt(E) < abs(df[0]):
        rest = _kappa(N, E) * a - O[:, 1:] @ (df[1:] * amplitude[1:])
        amplitude[0] = (O[:, 0] @ rest) / (O[:, 0] @ O[:, 0]) / df[0]
    b = sector * model.parity(N) * a
    alpha = np.where(is_cos, amplitude, 0.0)
    beta = np.where(is_cos, 0.0, amplitude)

    v = np.concatenate([a, b, alpha, beta])
    scale = math.sqrt(_field_norm_sq(geometry, E, a, b, alpha, beta))
    if v[np.argmax(np.abs(v))] < 0.0:
        scale = -scale
    return EigenField(
        model=model,
        geometry=geometry,
        N=N,
        E=E,
        a=a / scale,
        b=b / scale,
        alpha=alpha / scale,
        beta=beta / scale,
    )


def _field_norm_sq(geometry: Geometry, E: float, a, b, alpha, beta) -> float:
    """L^2(Omega) norm squared: tails a_k^2 / (2 kappa_k), center
    alpha_m^2 int c_m^2 + beta_m^2 int s_m^2 over (-delta, delta)."""
    N = len(a)
    kappa = _kappa(N, E)
    delta = geometry.delta
    g = _gamma(N, E)
    cos_sq = np.empty(N)
    sin_sq = np.empty(N)
    half_sin = math.sin(2.0 * g[0] * delta) / (2.0 * g[0])
    cos_sq[0] = delta + half_sin
    sin_sq[0] = delta - half_sin
    t = np.tanh(g[1:] * delta)
    cos_sq[1:] = delta * (1.0 - t**2) + t / g[1:]  # delta sech^2 + tanh / gamma
    sin_sq[1:] = 1.0 / (g[1:] * t) - delta * (1.0 / t**2 - 1.0)  # coth / gamma - delta csch^2
    tails = np.sum((a**2 + b**2) / (2.0 * kappa))
    return float(tails + np.sum(alpha**2 * cos_sq + beta**2 * sin_sq))


def evaluate_field(field: EigenField, x, y) -> np.ndarray:
    """Eigenfunction value at points (x, y) of the strip.

    Accepts scalars or broadcastable arrays; y must lie in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("points outside the strip: y must lie in [0, 1]")
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape)
    delta = field.geometry.delta
    kappa = field.kappa

    left = x < -delta
    right = x > delta
    center = ~(left | right)

    if np.any(left):
        xl, yl = x[left], y[left]
        tails = np.exp(kappa[:, None] * (xl[None, :] + delta))  # decaying
        prof = profile_values(field.model.tails[0], field.N, yl)
        out[left] = np.einsum("k,kp,kp->p", field.a, tails, prof)
    if np.any(right):
        xr, yr = x[right], y[right]
        tails = np.exp(-kappa[:, None] * (xr[None, :] - delta))
        prof = profile_values(field.model.tails[1], field.N, yr)
        out[right] = np.einsum("k,kp,kp->p", field.b, tails, prof)
    if np.any(center):
        xc, yc = x[center], y[center]
        f = _center_factors(field, xc)
        prof = profile_values(ProfileKind.NN_COSINE, field.N, yc)
        longi = field.alpha[:, None] * f[0] + field.beta[:, None] * f[1]
        out[center] = np.einsum("mp,mp->p", longi, prof)
    return out


def solve_field(
    model: ModelKind,
    geometry: Geometry,
    branch: int,
    N: int = 64,
) -> EigenField:
    """Spectrum plus coefficient solve for the given branch (1-based)."""
    if branch < 1:
        raise ValueError("branch must be >= 1")
    spectrum = scan_spectrum(model, geometry, N=N, check_stability=False)
    if branch > len(spectrum.eigenvalues):
        raise LookupError(
            f"branch {branch} absent: spectrum has {len(spectrum.eigenvalues)} "
            f"eigenvalue(s) at lam={geometry.lam}"
        )
    E = spectrum.eigenvalues[branch - 1] * geometry.mu
    return solve_coefficients(model, geometry, N, E, spectrum.sectors[branch - 1])
