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
threshold.  The end column has one Dirichlet vertex, on a wall, so its
levels and modes are closed forms (``_column_modes``):
t_k = (2/hy sin((k + 1/2) pi hy/2))^2 and
Psi_jk = sqrt(2 ly_j) sin((k + 1/2) pi j hy) under a Dirichlet bottom
wall, cos(...) under a Dirichlet top wall.  Below mu_h the exterior's
mode j falls by rho_j per column,

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

with P the rows of Phi at those vertices (sqrt(2 ly_j) cos(m pi j hy),
scaled by sqrt(1/2) at m = 0 and m = ny) and r_m the sum (s p_m = +1)
or difference (-1) of the corner entries of the chain's inverse:

    r_m = (rho + t rho^n) / (1 + t rho^(n+1)),    t = s p_m,

with rho + 1/rho = a_m, rho in (0, 1].  Below mu_h only chain mode 0
(sigma_0 = 0) is a wave: sigma_1 >= 8 > pi^2/4 >= mu_h.  With
a_0 = 2 cos(theta), theta = 2 arcsin(hx sqrt(E)/2), psi = (n+1) theta/2 and
p_0 = P[:, 0] (t_0 = s),

    r_0 = cos(psi - theta) / cos(psi) (even),  sin(psi - theta) / sin(psi) (odd),

and T_s(E) = T_rest(E) - hx^-2 r_0 p_0 p_0^T, where T_rest keeps the
modes m >= 1.  T_rest is positive definite up to and including mu_h:
1 + q_j >= 1; 0 <= r_m < 1, as 1 - r = (1 - rho)(1 -+ rho^n)/(1 +- rho^(n+1))
for t = +-1; and P_rest P_rest^T = I - p_0 p_0^T <= I, so
hx^2 T_rest >= (1 - max r) I.  T_s(E) is then singular exactly where
r_0 g = 1, g = p_0^T (hx^2 T_rest)^-1 p_0 > 0 (the last row of the
Cholesky factor of hx^2 T_rest bordered by p_0): at the discrete
junction phase

    phi_s(E) = psi - atan2(1 - g cos(theta), g sin(theta)) = k pi (even), (k + 1/2) pi (odd),

which rises from -pi/2 at E = 0 as its continuous counterpart in
``modematch`` does, so state k of the sector is the root of one
increasing scalar, found by the Brent chain ``roots.level_steps``.
Mode basis.  Rotated by Psi, which is orthogonal, hx^2 T_rest becomes
diag(1 + q) - C_1 diag(r) C_1^T and p_0 becomes c_0, with the coupling
C = Psi^T P formed once per grid: g is unchanged, and each level is one
bordered factor of the form U diag(w) U^T + diag(d) that
``modematch.sector_phase`` factors, on the same kernel,
``roots.bordered_factors``.  ``EndColumns.build`` makes the operands
that do not depend on E once, and ``EndColumns.levels`` takes lanes
(E, sector) and hands the kernel the weights -r and the diagonal 1 + q,
written in 1/rho = 1 + q as r = (1 + t rho^n/rho)/(1/rho + t rho^n).
``bound_spectra`` advances a grid's even and odd chains in
``roots.lockstep``, one stacked call per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SECTORS, Geometry, ModelKind
from .roots import BORDER_CORNER, bordered_factors, lane_rows, lane_values, level_steps, lockstep

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

    With b = hx^2 (t_j - E)/2, q = b + sqrt(b (2 + b)), free of
    cancellation; then rho = 1/(1 + q).
    """
    b = 0.5 * hx * hx * (levels - energy)
    return b + np.sqrt(b * (2.0 + b))


def _row_lengths(grid: FdmGrid) -> np.ndarray:
    """Lumped cell length of each row (half cells on the walls); every
    column's is hx, and the vertex masses are hx times these."""
    ly = np.full(grid.ny + 1, grid.hy)
    ly[0] = ly[grid.ny] = grid.hy / 2.0
    return ly


def _column_modes(grid: FdmGrid, fixed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Levels and orthonormal modes of a column's lumped-mass transverse
    operator S = Ly^(-1/2) Ty Ly^(-1/2) on its free vertices j, in closed
    form.  With every vertex free (Neumann-Neumann), sigma_m =
    (2/hy sin(m pi hy/2))^2 and sqrt(2 ly_j) cos(m pi j hy), m = 0 ... ny,
    scaled by sqrt(1/2) at m = 0 and ny: sigma_0 = 0 exactly, and mode m has
    parity (-1)^m under y -> 1 - y.  With the wall vertex ``fixed`` (0 or
    ny) Dirichlet, t_k = (2/hy sin((k + 1/2) pi hy/2))^2 and
    sqrt(2 ly_j) sin((k + 1/2) pi j hy) (bottom) or cos((k + 1/2) pi j hy)
    (top), k < ny.  Each phase nu pi j hy is pi p / (2 ny), with p = 2 nu j
    mod 4 ny in integers (less ny for the sine), read from one table."""
    ny = grid.ny
    nu2 = 2 * np.arange(ny + 1) if fixed is None else 2 * np.arange(ny) + 1  # 2 nu
    levels = (2.0 / grid.hy * np.sin(0.25 * math.pi * grid.hy * nu2)) ** 2
    phase = (np.outer(np.arange(ny + 1), nu2) - (ny if fixed == 0 else 0)) % (4 * ny)
    cosines = np.cos(0.5 * math.pi / ny * np.arange(4 * ny))
    modes = np.sqrt(2.0 * _row_lengths(grid))[:, None] * cosines[phase]
    if fixed is None:
        modes[:, ::ny] *= math.sqrt(0.5)
        return levels, modes
    return levels, modes[1:] if fixed == 0 else modes[:-1]


@dataclass(frozen=True)
class EndColumns:
    """A model's grid problem with transparent ends, reduced exactly to
    end column 0 and rotated into its mode basis (see the module
    docstring): the operands of ``levels`` that do not depend on E.

    ``decay_levels`` are the end column's levels t_j, then the interior
    columns' sigma_m for m >= 1; ``signs`` the rows t_m = s p_m, m >= 1, of
    the even and the odd sector (p_m the modes' reflection parities; +1
    where mode m's chain ends combine as a sum; t_0 = s); ``terms`` the
    coupling C_1 = C[:, 1:] and ``terms_t`` its transposed view;
    ``last_row`` the bordered matrix's last row (c_0, BORDER_CORNER); ``n``
    the number of interior columns.
    """

    hx: float
    n: int
    decay_levels: np.ndarray
    signs: np.ndarray
    terms: np.ndarray
    terms_t: np.ndarray
    last_row: np.ndarray

    @classmethod
    def build(cls, model: ModelKind, geometry: Geometry, grid: FdmGrid) -> "EndColumns":
        """Reduce a model's grid, whose interior columns must carry no
        Dirichlet vertex and whose end column must carry one, on a wall
        (as on ``FdmGrid.from_spacing`` grids)."""
        mask = dirichlet_mask(model, geometry, grid)
        if mask[1:-1].any():
            raise ValueError("a Dirichlet vertex lies between the end columns")
        fixed = np.flatnonzero(mask[0]).tolist()
        if fixed not in ([0], [grid.ny]):
            raise ValueError(f"the end column's Dirichlet vertices {fixed} are not one wall vertex")
        levels, modes = _column_modes(grid, fixed[0])
        if grid.hx**2 * levels[0] >= 4.0:
            raise ValueError(f"hx = {grid.hx} is too coarse for the threshold")
        chain_levels, chain_modes = _column_modes(grid)
        coupling = modes.T @ chain_modes[~mask[0]]
        terms = np.ascontiguousarray(coupling[:, 1:])
        return cls(grid.hx, grid.nx - 1, np.concatenate([levels, chain_levels[1:]]),
                   np.outer(SECTORS, model.parity(grid.ny + 1)[1:]), terms, terms.T,
                   np.append(coupling[:, 0], BORDER_CORNER))

    @property
    def threshold(self) -> float:
        """mu_h, the bottom of the ends' continuum."""
        return float(self.decay_levels[0])

    def levels(self, E, sectors) -> list:
        """phi_s(E)/pi, less 1/2 in the odd sector, of each lane (E[i],
        sectors[i]): state k (0-based) of the sector sits at k.  Every
        energy must lie in (0, mu_h], and a bad lane raises ValueError
        before any lane is computed.

        Each lane's matrix diag(1 + q) - C_1 diag(r) C_1^T is factored on
        ``roots.bordered_factors``, with terms C_1, weights -r and diagonal
        1 + q, and its phase is finished in scalar form from g.
        """
        mu_h = self.threshold
        for energy in E:
            if not (0.0 < energy <= mu_h):
                raise ValueError(f"energy {energy} is outside (0, {mu_h}]")
        for sector in sectors:
            if sector not in SECTORS:
                raise ValueError(f"sector must be one of {SECTORS}")
        n, hx, size = self.n, self.hx, self.terms.shape[0]

        def operands(index):  # -r, then 1 + q for the diagonal
            growth = 1.0 + _decay(self.decay_levels, hx, lane_values(E, index))  # 1/rho
            chain = growth[..., size:]
            t_rho_n = self.signs[lane_rows(sectors, index)] * chain**-n
            return (-1.0 - t_rho_n * chain) / (chain + t_rho_n), growth[..., :size]

        levels = []
        factors = bordered_factors(self.terms, self.terms_t, self.last_row, len(E), operands)
        for (g, _), energy, sector in zip(factors, E, sectors):
            theta = 2.0 * math.asin(0.5 * hx * math.sqrt(energy))
            phase = 0.5 * (n + 1) * theta - math.atan2(1.0 - g * math.cos(theta),
                                                       g * math.sin(theta))
            levels.append(phase / math.pi - (1 - sector) / 4)
        return levels


def bound_spectra(model: ModelKind, geometry: Geometry, h_list, count: int):
    """Yield (h, states) for each grid, coarsest first: the grid's bound
    states, ascending, cut to the ``count`` lowest.  The ground state is
    even (A(E) has nonpositive off-diagonals and a connected graph, so by
    Perron-Frobenius its lowest state is simple and positive), so these
    are among the even sector's ``count`` and the odd sector's
    ``count - 1`` lowest: each is the capped Brent chain
    ``roots.level_steps`` on (WINDOW_LO_FRAC * mu_h, mu_h] to
    ROOT_FRAC * mu_h, a sector capped at 0 runs none, and the grid's
    chains advance in ``roots.lockstep``, one stacked ``levels`` call per
    round.  A count below 1, fewer than three spacings or ones not in a
    fixed decreasing ratio raise before any grid is built.
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

    sectors, caps = zip(*((s, cap) for s, cap in zip(SECTORS, (count, count - 1)) if cap))
    for hy in hs:
        ends = EndColumns.build(model, geometry, FdmGrid.from_spacing(geometry, hy))
        mu_h = ends.threshold
        chains = [level_steps(WINDOW_LO_FRAC * mu_h, mu_h, ROOT_FRAC * mu_h, cap)
                  for cap in caps]
        roots, _ = lockstep(chains, lambda indices, points: ends.levels(
            points, [sectors[i] for i in indices]))
        yield hy, sorted(E for chain in roots for _, E in chain)[:count]


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
