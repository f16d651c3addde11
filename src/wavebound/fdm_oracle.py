"""Independent finite-difference verification of the strip eigenvalues.

The negative Laplacian on the truncated strip [-L, L] x [0, d] is
discretized on a vertex-centered grid by the quadratic form

    q(u) = sum_edges w_e (u_p - u_q)^2,      w_e = ell_perp / h_par,

which reproduces the classical 5-point stencil with mirror-ghost
Neumann rows after dividing by the lumped vertex masses
m_v = ell_x(i) * ell_y(j) (half cells on boundary lines).  Dirichlet
vertices are eliminated; the symmetrically scaled matrix

    A = M^(-1/2) K M^(-1/2)

is assembled entry-by-entry so that A == A^T holds exactly in floating
point.  Its eigenvalues equal those of the generalized problem
K u = E M u, i.e. of the ghost-point finite-difference operator.

Both models are symmetric under a reflection sigma of the grid that
swaps the two tails: (i, j) -> (nx - i, ny - j) for model A (the point
reflection (x, y) -> (-x, 1 - y)) and (i, j) -> (nx - i, j) for model B
(x -> -x).  sigma maps the Dirichlet set and the masses onto themselves,
so A commutes with it and splits into an even (s = +1) and an odd
(s = -1) sector.  A sector's unknowns are the orbit representatives p
(the vertex of {p, sigma p} that comes first in row-major order); its
matrix is Q_s^T A Q_s with the orthonormal fold

    Q_s e_p = (e_p + s e_{sigma p}) / sqrt(2),    Q_+ e_p = e_p if sigma p = p,

and vertices fixed by sigma carry no odd unknown (an odd field vanishes
there).  The sector matrix is assembled from the same edge form in fold
coordinates, upper triangle once plus its transpose, so it is exactly
symmetric too; the two spectra together are the spectrum of A, each on
about half the unknowns.  A has nonpositive off-diagonals and a
connected graph, so by Perron-Frobenius its ground state is simple and
positive, hence even: the odd sector never holds the lowest state, and
the b-th eigenvalue is among the b lowest even and b - 1 lowest odd ones.

Truncation uses artificial Dirichlet walls at x = +-L (monotone upward
bias).  Everything is in d = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .geometry import Geometry, ModelKind

__all__ = [
    "FdmGrid",
    "FdmOperator",
    "dirichlet_mask",
    "build_operator",
    "build_from_mask",
    "lowest_eigenpairs",
    "extrapolate",
]

#: default half-length margin beyond the window, in units of d
L_MARGIN = 12.0

#: relative eigenpair residual contract
RESIDUAL_TOL = 1e-10

#: most eigenpairs one shift-invert solve returns, per sector
MAX_PAIRS = 6

#: reflection parity sectors, even then odd (as ``modematch.SECTORS``)
SECTORS = (1, -1)


@dataclass(frozen=True)
class FdmGrid:
    """Vertex-centered grid on [-L, L] x [0, 1].

    The switch points x = +-delta must fall exactly on grid columns;
    ``from_spacing`` chooses hx accordingly (hx = delta / round(delta/hy),
    L snapped up to a multiple of hx).
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
    def from_spacing(
        cls, geometry: Geometry, hy: float, L: float | None = None
    ) -> "FdmGrid":
        """Grid with transverse spacing hy and switch-aligned columns."""
        unit = geometry.unit()
        delta = unit.delta
        ny = int(round(1.0 / hy))
        if abs(ny * hy - 1.0) > 1e-9:
            raise ValueError(f"hy = {hy} must divide the strip width")
        n_delta = max(1, int(round(delta / hy)))
        hx = delta / n_delta
        target = delta + L_MARGIN if L is None else L
        n_half = int(math.ceil(target / hx - 1e-12))
        return cls(L=n_half * hx, nx=2 * n_half, ny=ny)


def dirichlet_mask(model: ModelKind, geometry: Geometry, grid: FdmGrid) -> np.ndarray:
    """Boolean (nx+1, ny+1) array marking Dirichlet vertices.

    The artificial ends x = +-L are Dirichlet.  The Dirichlet boundary
    sets are open in x, so the switch vertices at x = +-delta stay on
    the Neumann side (an O(h) local choice absorbed by extrapolation).
    """
    unit = geometry.unit()
    delta = unit.delta
    i_minus = grid.column_of(-delta)
    i_plus = grid.column_of(delta)
    mask = np.zeros((grid.nx + 1, grid.ny + 1), dtype=bool)
    mask[0, :] = True
    mask[grid.nx, :] = True
    if model is ModelKind.A:
        mask[:i_minus, 0] = True  # bottom Dirichlet for x < -delta
        mask[i_plus + 1 :, grid.ny] = True  # top Dirichlet for x > +delta
    else:
        mask[:i_minus, grid.ny] = True  # top Dirichlet for |x| > delta
        mask[i_plus + 1 :, grid.ny] = True
    return mask


@dataclass(frozen=True)
class FdmOperator:
    """Assembled symmetric operator with its grid bookkeeping.

    ``matrix`` acts on vectors of unknowns scaled by sqrt-masses (fold
    coordinates for a parity sector); ``embed`` maps such a vector to
    nodal field values on the full grid.
    """

    grid: FdmGrid
    mask: np.ndarray  # True at Dirichlet vertices
    matrix: sp.csr_matrix
    index: np.ndarray  # (nx+1, ny+1) unknown of each vertex, -1 where u = 0
    weight: np.ndarray  # (nx+1, ny+1) nodal value per unit of that unknown

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Nodal values on the (nx+1, ny+1) grid (zeros on Dirichlet;
        a sector's field reflected with the sector's sign)."""
        full = np.zeros(self.index.shape)
        carried = self.index >= 0
        full[carried] = self.weight[carried] * vec[self.index[carried]]
        return full


def _cell_lengths(grid: FdmGrid) -> tuple[np.ndarray, np.ndarray]:
    """Lumped cell lengths per column and per row (half cells on the
    boundary lines); the vertex masses are their outer product."""
    lx = np.full(grid.nx + 1, grid.hx)
    lx[0] = lx[grid.nx] = grid.hx / 2.0
    ly = np.full(grid.ny + 1, grid.hy)
    ly[0] = ly[grid.ny] = grid.hy / 2.0
    return lx, ly


def _inv_sqrt_mass(grid: FdmGrid) -> np.ndarray:
    lx, ly = _cell_lengths(grid)
    return 1.0 / np.sqrt(np.outer(lx, ly))


def _assemble(grid: FdmGrid, index: np.ndarray, weight: np.ndarray) -> sp.csr_matrix:
    """Matrix of the edge form in coordinates z with u_p = g_p z_index(p),
    g = ``weight``.

    Each edge (p, q) of weight w adds w g_p^2 and w g_q^2 to the diagonal
    and -w g_p g_q to the entry pair (index(p), index(q)); an edge joining
    two vertices of one orbit adds twice that to the diagonal instead.
    The upper triangle is summed once and added to its transpose, so the
    result is exactly symmetric.
    """
    nx, ny = grid.nx, grid.ny
    lx, ly = _cell_lengths(grid)
    n = int(index.max()) + 1
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    edges = (
        # horizontal edges (i, j) -- (i+1, j)
        (np.s_[:-1, :], np.s_[1:, :],
         np.broadcast_to((ly / grid.hx)[None, :], (nx, ny + 1))),
        # vertical edges (i, j) -- (i, j+1)
        (np.s_[:, :-1], np.s_[:, 1:],
         np.broadcast_to((lx / grid.hy)[:, None], (nx + 1, ny))),
    )
    for p, q, w in edges:
        p_idx, q_idx = index[p].ravel(), index[q].ravel()
        p_g, q_g = weight[p].ravel(), weight[q].ravel()
        w = w.ravel()
        p_only = p_idx >= 0
        np.add.at(diag, p_idx[p_only], w[p_only] * p_g[p_only] ** 2)
        q_only = q_idx >= 0
        np.add.at(diag, q_idx[q_only], w[q_only] * q_g[q_only] ** 2)
        both = p_only & q_only
        off = -w[both] * p_g[both] * q_g[both]
        a, b = p_idx[both], q_idx[both]
        loop = a == b
        np.add.at(diag, a[loop], 2.0 * off[loop])
        rows.append(np.minimum(a, b)[~loop])
        cols.append(np.maximum(a, b)[~loop])
        vals.append(off[~loop])
    upper = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return (upper + upper.T + sp.diags(diag)).tocsr()


def build_from_mask(grid: FdmGrid, mask: np.ndarray) -> FdmOperator:
    """Assemble the full-grid scaled operator for an arbitrary Dirichlet mask."""
    if mask.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("mask shape must be (nx+1, ny+1)")
    if not mask.any():
        raise ValueError("at least one Dirichlet vertex is required")
    free = ~mask
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[free] = np.arange(int(free.sum()))
    weight = np.where(free, _inv_sqrt_mass(grid), 0.0)
    return FdmOperator(
        grid=grid,
        mask=mask.copy(),
        matrix=_assemble(grid, index, weight),
        index=index,
        weight=weight,
    )


def build_operator(
    model: ModelKind, geometry: Geometry, grid: FdmGrid, sector: int
) -> FdmOperator:
    """Assemble one parity sector (+1 even, -1 odd) of a model's operator.

    The unknowns are the orbit representatives of the model's grid
    reflection, and the matrix is Q_s^T A Q_s (see the module docstring).
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    mask = dirichlet_mask(model, geometry, grid)
    flat = np.arange(mask.size).reshape(mask.shape)
    mirror = flat[::-1, ::-1] if model is ModelKind.A else flat[::-1, :]
    fixed = flat == mirror
    carried = ~mask if sector == 1 else ~mask & ~fixed
    first = flat <= mirror
    orbit = np.full(mask.size, -1, dtype=np.int64)
    orbit[flat[carried & first]] = np.arange(int((carried & first).sum()))
    index = np.where(carried, orbit[np.minimum(flat, mirror)], -1)
    fold = np.where(fixed, 1.0, np.where(first, 1.0, float(sector)) * math.sqrt(0.5))
    weight = np.where(carried, fold * _inv_sqrt_mass(grid), 0.0)
    return FdmOperator(
        grid=grid,
        mask=mask,
        matrix=_assemble(grid, index, weight),
        index=index,
        weight=weight,
    )


def lowest_eigenpairs(operator: FdmOperator, k: int):
    """The k smallest eigenpairs by shift-invert at zero.

    Every returned pair satisfies ||A v - E v|| / ||v|| < RESIDUAL_TOL;
    pairs that miss the contract after inverse-iteration polish raise.
    Vectors are in the scaled unknown space (use ``operator.embed``).
    """
    if not 1 <= k <= MAX_PAIRS:
        raise ValueError(f"k must lie in [1, {MAX_PAIRS}]")
    A = operator.matrix
    n = A.shape[0]
    if k >= n:
        raise ValueError("grid too small for the requested eigenpair count")
    # A is exactly symmetric, so a minimum-degree ordering of its
    # symmetric pattern fits it; it roughly halves the fill of the
    # default column ordering.
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    # tol=0 (machine precision), not an early stop: tol=1e-11 would cut a
    # k=1 solve from 31 to 21 applications of lu.solve, but on the full
    # grid the constant v0 seeds an odd state only through rounding, and
    # the early stop returns B lambda=1.5's even quasi-continuum value
    # 2.5285 as the second pair instead of the odd bound state 2.1420.
    vals, vecs = eigsh(A, k=k, sigma=0.0, which="LM", OPinv=opinv, v0=v0)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    pairs = []
    accepted = []
    for j in range(k):
        lam = float(vals[j])
        v = vecs[:, j]
        v = v / np.linalg.norm(v)
        res = float(np.linalg.norm(A @ v - lam * v))
        if res >= RESIDUAL_TOL:
            # deflated inverse iteration, reusing the factorization
            for _ in range(8):
                w = lu.solve(v)
                for u in accepted:
                    w -= (u @ w) * u
                v = w / np.linalg.norm(w)
                lam = float(v @ (A @ v))
                res = float(np.linalg.norm(A @ v - lam * v))
                if res < RESIDUAL_TOL:
                    break
            else:
                raise RuntimeError(
                    f"eigenpair {j} residual {res:.3e} exceeds {RESIDUAL_TOL}"
                )
        accepted.append(v)
        pairs.append((lam, v))
    pairs.sort(key=lambda t: t[0])
    return pairs


def extrapolate(
    model: ModelKind,
    geometry: Geometry,
    h_list=(1.0 / 40, 1.0 / 80, 1.0 / 160),
    L: float | None = None,
    branch: int = 1,
) -> tuple[float, float]:
    """Richardson extrapolation of one eigenvalue branch over grids.

    Requires at least three spacings in a fixed ratio; fits the
    empirical order p from the last three (finest) grids and returns
    (extrapolated eigenvalue, p).  The corner singularity typically
    gives 1 < p < 2; smooth harnesses give p close to 2.

    On each grid the even sector yields its ``branch`` lowest pairs and
    the odd sector its ``branch - 1`` lowest (the ground state is even),
    so branch 1 is one half-size solve.  A branch above ``MAX_PAIRS``
    raises ``LookupError`` before any grid is built.
    """
    if branch < 1:
        raise ValueError("branch must be at least 1")
    if branch > MAX_PAIRS:
        raise LookupError(
            f"branch {branch} not available: the oracle resolves at most "
            f"{MAX_PAIRS} branches"
        )
    hs = sorted(h_list, reverse=True)
    if len(hs) < 3:
        raise ValueError("need at least three grid spacings")
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("grid spacings must be in a fixed ratio")
    r = ratios[0]
    if r <= 1.0:
        raise ValueError("grid spacings must decrease")

    energies = []
    for hy in hs:
        grid = FdmGrid.from_spacing(geometry, hy, L=L)
        values = []
        for sector, k in zip(SECTORS, (branch, branch - 1)):
            if k:
                op = build_operator(model, geometry, grid, sector)
                values += [value for value, _ in lowest_eigenpairs(op, k)]
        energies.append(sorted(values)[branch - 1])

    e1, e2, e3 = energies[-3], energies[-2], energies[-1]
    d1, d2 = e1 - e2, e2 - e3
    if d1 * d2 <= 0.0 or abs(d1) <= abs(d2):
        raise RuntimeError(
            "non-monotone eigenvalue sequence; grid too coarse for extrapolation"
        )
    ratio = d1 / d2
    p = math.log(ratio) / math.log(r)
    estimate = e3 - d2 / (ratio - 1.0)
    return estimate, p
