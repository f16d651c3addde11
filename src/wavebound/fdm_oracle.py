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
``EndColumns.levels`` is a stacked kernel, built like
``modematch.sector_phase``: ``build`` makes the operands that do not
depend on E once, and a call takes lanes (E, sector), writes every
lane's bordered matrix into one stack (up to LEVEL_STACK_DOUBLES) and
factors the stack with one call.  ``bound_spectra`` advances a grid's
even and odd chains in ``roots.lockstep``, one stacked call per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SECTORS, Geometry, ModelKind
from .roots import BORDER_CORNER, level_steps, lockstep

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

#: doubles of bordered matrices that one stacked factorization of
#: ``EndColumns.levels`` holds, max(1, LEVEL_STACK_DOUBLES // (k + 1)^2)
#: lanes for k free end-column vertices (15 at h = 1/32, 2 at 1/80, 1 from
#: 1/90 on).  Larger stacks make temporaries above the C allocator's default
#: mmap threshold (128 KiB), paged in afresh on every call: two lanes at
#: h = 1/160 took 1.55 ms stacked against 1.10 ms one at a time, and 1.09 ms
#: stacked with that threshold raised
LEVEL_STACK_DOUBLES = 16_384


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
    # column stiffness Ty per unit cell length: vertical edges of weight
    # 1/hy, one at each wall vertex and two at every other
    w = 1.0 / grid.hy
    size = grid.ny + 1
    stiffness = np.zeros((size, size))
    stiffness.flat[:: size + 1] = 2.0 * w
    stiffness[0, 0] = stiffness[-1, -1] = w
    stiffness.flat[1 :: size + 1] = stiffness.flat[size :: size + 1] = -w
    scale = 1.0 / np.sqrt(_row_lengths(grid)[free])
    return np.linalg.eigh(scale[:, None] * stiffness[free][:, free] * scale[None, :])


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

    ``modes`` diag(``end_levels``) ``modes``^T is the end column's
    transverse operator; ``chain_modes`` are the rows of the interior
    columns' cosine modes at the end column's free vertices, with levels
    ``chain_levels``; ``n`` is the number of interior columns.  The rest
    are the operands of ``levels`` that do not depend on E:
    ``decay_levels``, the end column's levels and then chain_levels[1:];
    ``signs``, the rows t_m = s p_m of the even and the odd sector (p_m
    the modes' reflection parities; +1 where mode m's chain ends combine
    as a sum); ``rest_modes`` = chain_modes[:, 1:] and ``rest_modes_t``,
    its transposed view; and ``last_row``, the bordered matrix's last row
    (p_0, BORDER_CORNER).
    """

    hx: float
    n: int
    modes: np.ndarray
    chain_modes: np.ndarray
    chain_levels: np.ndarray
    decay_levels: np.ndarray
    signs: np.ndarray
    rest_modes: np.ndarray
    rest_modes_t: np.ndarray
    last_row: np.ndarray

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
        chain_modes = chain_modes[free]
        rest_modes = chain_modes[:, 1:]
        return cls(grid.hx, grid.nx - 1, modes, chain_modes, chain_levels,
                   np.concatenate([levels, chain_levels[1:]]),
                   np.outer(SECTORS, model.parity(grid.ny + 1)), rest_modes,
                   rest_modes.T, np.append(chain_modes[:, 0], BORDER_CORNER))

    @property
    def end_levels(self) -> np.ndarray:
        """Levels t_j of the end column's transverse operator, ascending."""
        return self.decay_levels[: self.modes.shape[1]]

    @property
    def threshold(self) -> float:
        """mu_h, the bottom of the ends' continuum."""
        return float(self.decay_levels[0])

    def levels(self, E, sectors) -> list:
        """phi_s(E)/pi, less 1/2 in the odd sector, of each lane (E[i],
        sectors[i]): state k (0-based) of the sector sits at k.  Every
        energy must lie in (0, mu_h], and a bad lane raises ValueError
        before any lane is computed.

        The lanes' elementwise work shares one (lanes, modes) array; their
        two products are written into stacks of bordered matrices of at
        most LEVEL_STACK_DOUBLES, and one factorization factors each
        stack; each lane's g = z.z is one dot product of its factor's last
        row, and its phase is finished in scalar form.  Every operation
        acts on each lane as on a lone matrix, so a lane's level does not
        depend on the lanes stacked with it.
        """
        mu_h = self.threshold
        for energy in E:
            if not (0.0 < energy <= mu_h):
                raise ValueError(f"energy {energy} is outside (0, {mu_h}]")
        for sector in sectors:
            if sector not in SECTORS:
                raise ValueError(f"sector must be one of {SECTORS}")
        t = self.signs[[SECTORS.index(sector) for sector in sectors], 1:]
        n, hx, size = self.n, self.hx, self.modes.shape[1]
        q = _decay(self.decay_levels, hx, np.array(E, dtype=float)[:, None])
        rho = 1.0 / (1.0 + q[:, size:])
        r = (rho + t * rho**n) / (1.0 + t * rho ** (n + 1))
        gs = []  # z.z of each lane
        stack = max(1, LEVEL_STACK_DOUBLES // (size + 1) ** 2)
        for start in range(0, len(t), stack):
            lanes = slice(start, start + stack)
            bordered = np.empty((len(t[lanes]), size + 1, size + 1))
            rest = bordered[:, :size, :size]
            np.matmul(self.modes * (1.0 + q[lanes, None, :size]), self.modes.T, out=rest)
            rest -= (self.rest_modes * r[lanes, None, :]) @ self.rest_modes_t
            bordered[:, size] = self.last_row
            bordered[:, :size, size] = self.last_row[:size]
            z = np.linalg.cholesky(bordered)[:, size, :size]
            gs += np.matmul(z[:, None], z[:, :, None]).ravel().tolist()
        levels = []
        for energy, sector, g in zip(E, sectors, gs):
            theta = 2.0 * math.asin(0.5 * hx * math.sqrt(energy))
            phase = 0.5 * (n + 1) * theta - math.atan2(1.0 - g * math.cos(theta),
                                                       g * math.sin(theta))
            levels.append(phase / math.pi - (1 - sector) / 4)
        return levels

    def level(self, energy: float, sector: int) -> float:
        """The level of one sector at ``energy``: one lane of ``levels``."""
        return self.levels([energy], [sector])[0]


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
