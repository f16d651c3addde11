"""Independent finite-difference verification of the strip eigenvalues.

The negative Laplacian on the strip R x [0, 1] is discretized on a
vertex-centered grid by the quadratic form

    q(u) = sum_edges w_e (u_p - u_q)^2,      w_e = ell_perp / h_par,

which reproduces the classical 5-point stencil with mirror-ghost
Neumann rows after dividing by the lumped vertex masses
m_v = hx * ell_y(j) (half cells on the walls y = 0, 1).  In the scaled
unknowns hx^(1/2) Ly^(1/2) u the operator is A0 = M^(-1/2) K M^(-1/2).
The grid covers the window plus one cell, x in [-delta - hx, delta + hx],
with Dirichlet vertices eliminated.  A column's lumped-mass transverse
operator S = Ly^(-1/2) Ty Ly^(-1/2) acts on its free vertices.

Transparent ends.  Beyond each end column the grid repeats that column
without end, and the exterior is eliminated exactly (the discrete
Dirichlet-to-Neumann map of the 5-point stencil; Arnold, Ehrhardt &
Sofronov, Commun. Math. Sci. 1 (2003) 501).  On the end column
S = Psi diag(t_j) Psi^T, and its lowest level t_0 = mu_h is the discrete
threshold.  Below it the exterior's mode j falls by rho_j per column,

    rho_j + 1/rho_j = 2 + hx^2 (t_j - E),      |rho_j| < 1,

and the eliminated tail adds hx^-2 Psi diag(1 - rho_j(E)) Psi^T to the
end column's block: A(E) = A0 + D(E).  E is a bound state of the
infinite grid exactly when A(E) - E is singular.  D(E), and with it
every eigenvalue of A(E) - E, decreases in E below mu_h, so the number
of bound states below E is neg(A(E) - E).

Reduction to the end columns.  Every column strictly between the end
columns is Neumann-Neumann (``dirichlet_mask`` keeps the switch vertices
on the Neumann side), with S = Phi diag(sigma_m) Phi^T.  In mode m the
n = nx - 1 interior columns form the chain hx^-2 tridiag(-1, a_m, -1),
a_m = 2 + hx^2 (sigma_m - E), joined to the end columns only through its
first and last cell, and it is eliminated exactly.  On an end column
A(E) - E is hx^-2 Psi diag(1/rho_j) Psi^T, with 1/rho_j = 1 + q_j.

Both models are symmetric under a reflection of the grid that swaps
the two tails: (i, j) -> (nx - i, ny - j) when their Dirichlet walls
differ (model A, the point reflection (x, y) -> (-x, 1 - y)), else
(i, j) -> (nx - i, j) (model B, x -> -x).  Cosine mode m has parity p_m
under it (``ModelKind.parity``), (-1)^m for model A and +1 for model B,
and chain eigenvector k (sin(k pi i / (n+1))) has parity (-1)^(k+1).
In the parity sector s (+1 even, -1 odd) the far end column is the
mirror image of column 0 times s, and the problem reduces exactly to
one symmetric matrix on the free vertices of column 0,

    T_s(E) = hx^-2 [Psi diag(1 + q) Psi^T - P diag(r) P^T],

with P the rows of Phi at those vertices and r_m the sum (s p_m = +1)
or difference (-1) of the corner entries of the chain's inverse:

    r_m = (rho + t rho^n) / (1 + t rho^(n+1)),    t = s p_m,

with rho + 1/rho = a_m, rho in (0, 1], where a_m >= 2, and for
a_m = 2 cos(theta) < 2

    r_m = cos((n-1) theta/2) / cos((n+1) theta/2)    (t = +1),
    r_m = sin((n-1) theta/2) / sin((n+1) theta/2)    (t = -1).

T_s(E) decreases in E between the poles of r, which are the sector's
chain eigenvalues sigma_m + (2 - 2 cos(k pi/(n+1)))/hx^2 with
(-1)^(k+1) p_m = s.  By the inertia of the Schur complement the sector's
count of bound states below E is neg(T_s(E)) plus the number of those
below E (Wittrick & Williams, Q. J. Mech. Appl. Math. 24 (1971) 263),
and ``roots.count_roots`` isolates and refines each state, as mode
matching does with its M_s(E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .geometry import SECTORS, Geometry, ModelKind
from .roots import count_roots

__all__ = [
    "FdmGrid",
    "EndColumns",
    "dirichlet_mask",
    "bound_spectra",
    "richardson",
    "extrapolate",
]

#: the states are sought in (WINDOW_LO_FRAC * mu_h, mu_h] and refined to
#: ROOT_FRAC * mu_h
WINDOW_LO_FRAC = 1e-8
ROOT_FRAC = 1e-13

#: default grid spacings, coarsest first
SPACINGS = (1.0 / 40, 1.0 / 80, 1.0 / 160)


@dataclass(frozen=True)
class FdmGrid:
    """Vertex-centered grid on [-L, L] x [0, 1].

    The switch points x = +-delta must fall exactly on grid columns;
    ``from_spacing`` chooses hx accordingly (hx = delta / round(delta/hy))
    and adds one cell beyond each switch point.
    """

    L: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2 cells per direction")
        if self.L <= 0.0:
            raise ValueError("half-length L must be positive")

    @property
    def hx(self) -> float:
        return 2.0 * self.L / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    def x(self) -> np.ndarray:
        return -self.L + self.hx * np.arange(self.nx + 1)

    def y(self) -> np.ndarray:
        return self.hy * np.arange(self.ny + 1)

    def column_of(self, x0: float) -> int:
        """Grid column index of x0; errors if x0 is off-grid."""
        t = (x0 + self.L) / self.hx
        i = int(round(t))
        if abs(t - i) > 1e-9 or not (0 <= i <= self.nx):
            raise ValueError(f"x = {x0} does not fall on a grid column")
        return i

    @classmethod
    def from_spacing(cls, geometry: Geometry, hy: float) -> "FdmGrid":
        """Window grid with transverse spacing hy, switch-aligned columns
        and one cell beyond each switch point."""
        delta = geometry.delta
        ny = int(round(1.0 / hy))
        if abs(ny * hy - 1.0) > 1e-9:
            raise ValueError(f"hy = {hy} must divide the strip width")
        n_delta = max(1, int(round(delta / hy)))
        hx = delta / n_delta
        return cls(delta + hx, 2 * n_delta + 2, ny)


def dirichlet_mask(model: ModelKind, geometry: Geometry, grid: FdmGrid) -> np.ndarray:
    """Boolean (nx+1, ny+1) array marking Dirichlet vertices: each tail's
    Dirichlet wall (``ModelKind``) beyond its switch point.

    The Dirichlet boundary sets are open in x, so the switch vertices at
    x = +-delta stay on the Neumann side (an O(h) local choice absorbed by
    extrapolation).  The end columns carry the tails' pattern, which
    their transparent exteriors continue.
    """
    delta = geometry.delta
    i_minus = grid.column_of(-delta)
    i_plus = grid.column_of(delta)
    left, right = model.value
    mask = np.zeros((grid.nx + 1, grid.ny + 1), dtype=bool)
    mask[:i_minus, round(left * grid.ny)] = True
    mask[i_plus + 1 :, round(right * grid.ny)] = True
    return mask


def _decay(levels: np.ndarray, hx: float, energy: float) -> np.ndarray:
    """q_j = 1/rho_j - 1 of each mode at ``energy`` <= its level.

    With a = hx^2 (t_j - E), q = a/2 + sqrt(a + a^2/4), free of
    cancellation; then rho = 1/(1 + q).
    """
    a = hx * hx * (levels - energy)
    return 0.5 * a + np.sqrt(a + 0.25 * a * a)


def _row_lengths(grid: FdmGrid) -> np.ndarray:
    """Lumped cell length of each row (half cells on the walls); every
    column's is hx, and the vertex masses are hx times these."""
    ly = np.full(grid.ny + 1, grid.hy)
    ly[0] = ly[grid.ny] = grid.hy / 2.0
    return ly


def _end_modes(grid: FdmGrid, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels and orthonormal modes of an end column's lumped-mass
    transverse operator S = Ly^(-1/2) Ty Ly^(-1/2) on its ``free`` vertices."""
    # column stiffness Ty per unit cell length: vertical edges of weight 1/hy
    w = np.full(grid.ny, 1.0 / grid.hy)
    stiffness = np.diag(np.r_[w, 0.0] + np.r_[0.0, w]) - np.diag(w, 1) - np.diag(w, -1)
    scale = 1.0 / np.sqrt(_row_lengths(grid)[free])
    return np.linalg.eigh(scale[:, None] * stiffness[np.ix_(free, free)] * scale[None, :])


def _cosine_modes(grid: FdmGrid) -> tuple[np.ndarray, np.ndarray]:
    """Levels sigma_m = (2/hy sin(m pi hy/2))^2 and orthonormal modes
    Ly^(1/2) cos(m pi y) of a Neumann-Neumann column's S, in closed form:
    sigma_0 = 0 exactly, and mode m has parity (-1)^m under y -> 1 - y."""
    m = np.arange(grid.ny + 1)
    levels = (2.0 / grid.hy * np.sin(0.5 * math.pi * grid.hy * m)) ** 2
    phase = np.outer(m, m) % (2 * grid.ny)  # j m mod 2 ny, exactly
    modes = np.sqrt(_row_lengths(grid))[:, None] * np.cos(math.pi * phase / grid.ny)
    return levels, modes / np.linalg.norm(modes, axis=0)


@dataclass(frozen=True)
class EndColumns:
    """A model's grid problem with transparent ends, reduced exactly to
    the free vertices of end column 0 (see the module docstring).

    ``modes`` diag(``levels``) ``modes``^T is the end column's transverse
    operator; ``chain_modes`` are the rows of the interior columns' cosine
    modes at the end column's free vertices, with levels ``chain_levels``
    and reflection parities ``parity``; ``n`` is the number of interior
    columns.
    """

    hx: float
    n: int
    modes: np.ndarray
    levels: np.ndarray
    chain_modes: np.ndarray
    chain_levels: np.ndarray
    parity: np.ndarray

    @classmethod
    def build(cls, model: ModelKind, geometry: Geometry, grid: FdmGrid) -> "EndColumns":
        """Reduce a model's grid, whose interior columns must carry no
        Dirichlet vertex (as on ``FdmGrid.from_spacing`` grids)."""
        mask = dirichlet_mask(model, geometry, grid)
        if mask[1:-1].any():
            raise ValueError("a Dirichlet vertex lies between the end columns")
        free = ~mask[0]
        levels, modes = _end_modes(grid, free)
        if grid.hx**2 * levels[0] >= 4.0:
            raise ValueError(f"hx = {grid.hx} is too coarse for the threshold")
        chain_levels, chain_modes = _cosine_modes(grid)
        return cls(grid.hx, grid.nx - 1, modes, levels, chain_modes[free],
                   chain_levels, model.parity(grid.ny + 1))

    @property
    def threshold(self) -> float:
        """mu_h, the bottom of the ends' continuum."""
        return float(self.levels[0])

    def _signs(self, sector: int) -> np.ndarray:
        """t_m = s p_m: +1 where mode m's chain ends combine as a sum."""
        if sector not in SECTORS:
            raise ValueError(f"sector must be one of {SECTORS}")
        return sector * self.parity

    def _theta(self, energy: float) -> np.ndarray:
        """theta_m = arccos(a_m / 2), from 2 - a_m = 4 sin^2(theta_m / 2)
        without rounding a_m; 0 where a_m >= 2."""
        gap = np.maximum(energy - self.chain_levels, 0.0)
        return 2.0 * np.arcsin(0.5 * self.hx * np.sqrt(gap))

    def matrix(self, energy: float, sector: int) -> np.ndarray:
        """T_s(E) of one parity sector; ``energy`` must not exceed mu_h."""
        t = self._signs(sector)
        if energy > self.threshold:
            raise ValueError(f"energy {energy} is above the threshold {self.threshold}")
        n = self.n
        r = np.empty(self.chain_levels.size)
        wave = self.chain_levels < energy
        theta = self._theta(energy)[wave]
        num, den = 0.5 * (n - 1) * theta, 0.5 * (n + 1) * theta
        r[wave] = np.where(t[wave] > 0, np.cos(num) / np.cos(den), np.sin(num) / np.sin(den))
        decay = ~wave
        rho = 1.0 / (1.0 + _decay(self.chain_levels[decay], self.hx, energy))
        td = t[decay]
        r[decay] = (rho + td * rho**n) / (1.0 + td * rho ** (n + 1))
        q = _decay(self.levels, self.hx, energy)
        ends = (self.modes * (1.0 + q)) @ self.modes.T
        chain = (self.chain_modes * r) @ self.chain_modes.T
        return (ends - chain) / self.hx**2

    def poles(self, energy: float, sector: int) -> int:
        """The sector's chain eigenvalues below ``energy``: in mode m, the
        k >= 1 with k < (n+1) theta_m / pi and (-1)^(k+1) = s p_m."""
        odd = self._signs(sector) > 0
        below = np.maximum(np.ceil((self.n + 1) * self._theta(energy) / math.pi) - 1, 0)
        return int(np.sum(np.where(odd, (below + 1) // 2, below // 2)))

    def states(self, sector: int):
        """Yield the sector's bound states, ascending: the eigenvalues in
        (WINDOW_LO_FRAC * mu_h, mu_h] to ROOT_FRAC * mu_h."""
        mu_h = self.threshold
        return count_roots(lambda E: self.matrix(E, sector),
                           lambda E: self.poles(E, sector),
                           WINDOW_LO_FRAC * mu_h, mu_h, ROOT_FRAC * mu_h)


def bound_spectra(model: ModelKind, geometry: Geometry, h_list, count: int):
    """Yield (h, states) for each grid, coarsest first: the grid's bound
    states, ascending, cut to the ``count`` lowest.  The ground state is
    even (A(E) has nonpositive off-diagonals and a connected graph, so by
    Perron-Frobenius its lowest state is simple and positive), so these
    are among the even sector's ``count`` and the odd sector's
    ``count - 1`` lowest.  A count below 1,
    fewer than three spacings or ones not in a fixed decreasing ratio
    raise before any grid is built.
    """
    if count < 1:
        raise ValueError("branch must be at least 1")
    hs = sorted(h_list, reverse=True)
    if len(hs) < 3:
        raise ValueError("need at least three grid spacings")
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("grid spacings must be in a fixed ratio")
    if ratios[0] <= 1.0:
        raise ValueError("grid spacings must decrease")

    for hy in hs:
        ends = EndColumns.build(model, geometry, FdmGrid.from_spacing(geometry, hy))
        found = sorted(E for s, k in zip(SECTORS, (count, count - 1))
                       for E in islice(ends.states(s), k))
        yield hy, found[:count]


def richardson(spacings, values) -> tuple[float, float]:
    """Richardson extrapolation of ``values`` on ``spacings`` in a fixed
    ratio, coarsest first: the empirical order p fitted to the last three
    and (extrapolated value, p).  A sequence that is not monotone with
    shrinking steps raises RuntimeError."""
    e1, e2, e3 = values[-3:]
    d1, d2 = e1 - e2, e2 - e3
    if d1 * d2 <= 0.0 or abs(d1) <= abs(d2):
        raise RuntimeError(
            "non-monotone eigenvalue sequence; grid too coarse for extrapolation"
        )
    ratio = d1 / d2
    p = math.log(ratio) / math.log(spacings[0] / spacings[1])
    return e3 - d2 / (ratio - 1.0), p


def extrapolate(model: ModelKind, geometry: Geometry, h_list=SPACINGS,
                branch: int = 1) -> tuple[float, float]:
    """Richardson estimate (value, order p) of one eigenvalue branch on the
    grids of ``bound_spectra`` with count ``branch``; a grid that does not
    bind the branch raises LookupError naming h.  The corner singularity
    typically gives 1 < p < 2; smooth harnesses give p close to 2."""
    hs, energies = [], []
    for hy, states in bound_spectra(model, geometry, h_list, branch):
        if len(states) < branch:
            raise LookupError(f"branch {branch} is not bound on the grid h = {hy:g}")
        hs.append(hy)
        energies.append(states[branch - 1])
    return richardson(hs, energies)
