"""Independent finite-difference verification of the strip eigenvalues.

The negative Laplacian on the strip R x [0, d] is discretized on a
vertex-centered grid by the quadratic form

    q(u) = sum_edges w_e (u_p - u_q)^2,      w_e = ell_perp / h_par,

which reproduces the classical 5-point stencil with mirror-ghost
Neumann rows after dividing by the lumped vertex masses
m_v = hx * ell_y(j) (half cells on the walls y = 0, d).  The oracle's
grid covers the window plus one cell, x in [-delta - hx, delta + hx];
its end columns are full interior columns.  Dirichlet vertices are eliminated; the
symmetrically scaled matrix

    A0 = M^(-1/2) K M^(-1/2)

is assembled entry-by-entry so that A0 == A0^T holds exactly in floating
point.

Transparent ends.  Beyond each end column the grid repeats that column
without end, and the exterior is eliminated exactly (the discrete
Dirichlet-to-Neumann map of the 5-point stencil; Arnold, Ehrhardt &
Sofronov, Commun. Math. Sci. 1 (2003) 501).  On the end column,
S = Ly^(-1/2) Ty Ly^(-1/2) = Psi diag(t_j) Psi^T is the lumped-mass
transverse operator, and its lowest eigenvalue t_0 = mu_h is the discrete
threshold.  Below it the exterior's mode j falls by rho_j per column,

    rho_j + 1/rho_j = 2 + hx^2 (t_j - E),      |rho_j| < 1,

and the exterior's energy (form minus E times mass) is exactly
(1 - rho_j)/hx per unit squared coefficient of mode j in Ly^(1/2) u on
the end column; the scaled unknowns there are hx^(1/2) Ly^(1/2) u, so
the eliminated tails add the dense block

    D(E) = hx^-2 Psi diag(1 - rho_j(E)) Psi^T

to the end column's block: A(E) = A0 + D(E), and E is a bound state of
the infinite grid exactly when E is an eigenvalue of A(E).  D(E), and
with it every eigenvalue lambda_b(A(E)), decreases in E below mu_h, so
the b-th bound state is the unique root of f(E) = lambda_b(A(E)) - E in
(0, mu_h).  The root exists exactly when lambda_b(A(mu_h)) < mu_h (the
grid binds at least b states), and then that value is a lower bound for
it.  Newton's method refines the root with the Hellmann-Feynman slope

    d lambda_b / dE = -sum_j c_j^2 rho_j^2 / (1 - rho_j^2),    c = Psi^T v_end,

inside the bracket [lower bound, mu_h], bisecting when a step leaves it.

Both models are symmetric under a reflection sigma of the grid that
swaps the two tails: (i, j) -> (nx - i, ny - j) for model A (the point
reflection (x, y) -> (-x, 1 - y)) and (i, j) -> (nx - i, j) for model B
(x -> -x).  sigma maps the Dirichlet set, the masses and the two ends onto
themselves, so A(E) commutes with it and splits into an even (s = +1)
and an odd (s = -1) sector.  A sector's unknowns are the orbit
representatives p (the vertex of {p, sigma p} that comes first in
row-major order); its matrix is Q_s^T A(E) Q_s with the orthonormal fold

    Q_s e_p = (e_p + s e_{sigma p}) / sqrt(2),    Q_+ e_p = e_p if sigma p = p,

and vertices fixed by sigma carry no odd unknown (an odd field vanishes
there).  The sector matrix is assembled from the same edge form in fold
coordinates, upper triangle once plus its transpose, so it is exactly
symmetric too; the two spectra together are the spectrum of A(E), each
on about half the unknowns.  A(E) has nonpositive off-diagonals (D(E) is
a Schur complement of an M-matrix) and a connected graph, so by
Perron-Frobenius its ground state is simple and positive, hence even:
the odd sector never holds the lowest state, and the b-th bound state is
among the b lowest even and b - 1 lowest odd ones.  Everything is in
d = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .geometry import Geometry, ModelKind

__all__ = [
    "FdmGrid",
    "FdmOperator",
    "TransparentEnd",
    "dirichlet_mask",
    "build_operator",
    "build_from_mask",
    "lowest_eigenpairs",
    "bound_states",
    "bound_spectra",
    "richardson",
    "extrapolate",
]

#: relative eigenpair residual contract
RESIDUAL_TOL = 1e-10

#: most eigenpairs one shift-invert solve returns, per sector
MAX_PAIRS = 6

#: reflection parity sectors, even then odd (as ``modematch.SECTORS``)
SECTORS = (1, -1)

#: a root is accepted, its last Newton step applied, once that step is
#: below this fraction of it; the error left is of the step's square
ROOT_TOL = 1e-9

#: most eigensolves one bound state may take
MAX_ROOT_STEPS = 60

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
        delta = geometry.unit().delta
        ny = int(round(1.0 / hy))
        if abs(ny * hy - 1.0) > 1e-9:
            raise ValueError(f"hy = {hy} must divide the strip width")
        n_delta = max(1, int(round(delta / hy)))
        hx = delta / n_delta
        return cls(delta + hx, 2 * n_delta + 2, ny)


def dirichlet_mask(model: ModelKind, geometry: Geometry, grid: FdmGrid) -> np.ndarray:
    """Boolean (nx+1, ny+1) array marking Dirichlet vertices.

    The Dirichlet boundary sets are open in x, so the switch vertices at
    x = +-delta stay on the Neumann side (an O(h) local choice absorbed by
    extrapolation).  The end columns carry the tails' pattern, which
    their transparent exteriors continue.
    """
    unit = geometry.unit()
    delta = unit.delta
    i_minus = grid.column_of(-delta)
    i_plus = grid.column_of(delta)
    mask = np.zeros((grid.nx + 1, grid.ny + 1), dtype=bool)
    if model is ModelKind.A:
        mask[:i_minus, 0] = True  # bottom Dirichlet for x < -delta
        mask[i_plus + 1 :, grid.ny] = True  # top Dirichlet for x > +delta
    else:
        mask[:i_minus, grid.ny] = True  # top Dirichlet for |x| > delta
        mask[i_plus + 1 :, grid.ny] = True
    return mask


def _decay(levels: np.ndarray, hx: float, energy: float) -> np.ndarray:
    """q_j = 1/rho_j - 1 of each tail mode at ``energy`` <= its level.

    With a = hx^2 (t_j - E), q = a/2 + sqrt(a + a^2/4); then
    rho = 1/(1 + q), 1 - rho = q/(1 + q) and rho^2/(1 - rho^2) =
    1/(q (2 + q)), all free of cancellation.
    """
    a = hx * hx * (levels - energy)
    return 0.5 * a + np.sqrt(a + 0.25 * a * a)


@dataclass(frozen=True)
class TransparentEnd:
    """An end column whose exterior, the column repeated without end,
    is eliminated exactly.

    ``modes`` diag(``levels``) ``modes``^T is the column's lumped-mass
    transverse operator on its free vertices; the scaled value of free
    vertex r is ``fold[r]`` * v[``unknowns[r]``] for an unknown vector v.
    """

    unknowns: np.ndarray
    fold: np.ndarray
    modes: np.ndarray
    levels: np.ndarray

    def coefficients(self, vector: np.ndarray) -> np.ndarray:
        """Tail mode coefficients c = Psi^T v_end of an unknown vector."""
        return self.modes.T @ (self.fold * vector[self.unknowns])


@dataclass(frozen=True)
class FdmOperator:
    """Assembled symmetric operator with its grid bookkeeping.

    ``matrix`` acts on vectors of unknowns scaled by sqrt-masses (fold
    coordinates for a parity sector); ``embed`` maps such a vector to
    nodal field values on the grid.  ``matrix`` is A0; ``at(E)`` adds the
    exterior of each transparent end in ``ends``.
    """

    grid: FdmGrid
    mask: np.ndarray  # True at Dirichlet vertices
    matrix: sp.csr_matrix
    index: np.ndarray  # (nx+1, ny+1) unknown of each vertex, -1 where u = 0
    weight: np.ndarray  # (nx+1, ny+1) nodal value per unit of that unknown
    ends: tuple[TransparentEnd, ...] = ()

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    @property
    def threshold(self) -> float:
        """mu_h, the bottom of the ends' continuum (inf without ends)."""
        return min((end.levels[0] for end in self.ends), default=math.inf)

    def at(self, energy: float) -> "FdmOperator":
        """A(E) = A0 + D(E): the exteriors eliminated at ``energy``, which
        must not exceed the threshold.  The result has no ``ends``."""
        if not self.ends:
            return self
        if energy > self.threshold:
            raise ValueError(f"energy {energy} is above the threshold {self.threshold}")
        hx = self.grid.hx
        rows, cols, vals = [], [], []
        for end in self.ends:
            q = _decay(end.levels, hx, energy)
            block = (end.modes * (q / (1.0 + q))) @ end.modes.T
            block = 0.5 * (block + block.T) * np.outer(end.fold, end.fold) / (hx * hx)
            rows.append(np.repeat(end.unknowns, end.unknowns.size))
            cols.append(np.tile(end.unknowns, end.unknowns.size))
            vals.append(block.ravel())
        exterior = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.matrix.shape,
        ).tocsr()
        return replace(self, matrix=self.matrix + exterior, ends=())

    def slope(self, energy: float, vector: np.ndarray) -> float:
        """d lambda / dE of a simple eigenvalue of A(E) with unit eigenvector
        ``vector`` (Hellmann-Feynman); ``energy`` lies below the threshold."""
        total = 0.0
        for end in self.ends:
            q = _decay(end.levels, self.grid.hx, energy)
            total += float(end.coefficients(vector) ** 2 @ (1.0 / (q * (2.0 + q))))
        return -total

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Nodal values on the (nx+1, ny+1) grid (zeros on Dirichlet;
        a sector's field reflected with the sector's sign)."""
        full = np.zeros(self.index.shape)
        carried = self.index >= 0
        full[carried] = self.weight[carried] * vec[self.index[carried]]
        return full


def _row_lengths(grid: FdmGrid) -> np.ndarray:
    """Lumped cell length of each row (half cells on the walls); every
    column's is hx, and the vertex masses are hx times these."""
    ly = np.full(grid.ny + 1, grid.hy)
    ly[0] = ly[grid.ny] = grid.hy / 2.0
    return ly


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
    ly = _row_lengths(grid)
    n = int(index.max()) + 1
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    edges = (
        # horizontal edges (i, j) -- (i+1, j)
        (np.s_[:-1, :], np.s_[1:, :],
         np.broadcast_to((ly / grid.hx)[None, :], (nx, ny + 1))),
        # vertical edges (i, j) -- (i, j+1)
        (np.s_[:, :-1], np.s_[:, 1:], np.full((nx + 1, ny), grid.hx / grid.hy)),
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


def _ends(grid: FdmGrid, index: np.ndarray,
          fold: np.ndarray) -> tuple[TransparentEnd, ...]:
    """Transparent ends of the end columns that carry unknowns."""
    ly = _row_lengths(grid)
    # column stiffness Ty per unit cell length: vertical edges of weight 1/hy
    w = np.full(grid.ny, 1.0 / grid.hy)
    stiffness = np.diag(np.r_[w, 0.0] + np.r_[0.0, w]) - np.diag(w, 1) - np.diag(w, -1)
    ends = []
    for i in (0, grid.nx):
        free = index[i] >= 0
        if not free.any():
            continue
        scale = 1.0 / np.sqrt(ly[free])
        levels, modes = np.linalg.eigh(
            scale[:, None] * stiffness[np.ix_(free, free)] * scale[None, :]
        )
        ends.append(TransparentEnd(index[i, free], fold[i, free], modes, levels))
    return tuple(ends)


def _operator(grid: FdmGrid, mask: np.ndarray, index: np.ndarray,
              fold: np.ndarray) -> FdmOperator:
    """Operator on unknown vectors v that give vertex p the scaled value
    fold[p] * v[index[p]] (fold is 0 where p carries no unknown)."""
    weight = fold / np.sqrt(grid.hx * _row_lengths(grid))
    return FdmOperator(
        grid=grid,
        mask=mask,
        matrix=_assemble(grid, index, weight),
        index=index,
        weight=weight,
        ends=_ends(grid, index, fold),
    )


def build_from_mask(grid: FdmGrid, mask: np.ndarray) -> FdmOperator:
    """Assemble the full-grid scaled operator for an arbitrary Dirichlet
    mask; an end column with a free vertex becomes a transparent end."""
    if mask.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("mask shape must be (nx+1, ny+1)")
    if not mask.any():
        raise ValueError("at least one Dirichlet vertex is required")
    free = ~mask
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[free] = np.arange(int(free.sum()))
    return _operator(grid, mask.copy(), index, free.astype(float))


def build_operator(
    model: ModelKind, geometry: Geometry, grid: FdmGrid, sector: int
) -> FdmOperator:
    """Assemble one parity sector (+1 even, -1 odd) of a model's operator.

    The unknowns are the orbit representatives of the model's grid
    reflection, and the matrix is Q_s^T A0 Q_s (see the module docstring).
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
    return _operator(grid, mask, index, np.where(carried, fold, 0.0))


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


def bound_states(operator: FdmOperator, k: int, guesses=()) -> list[float]:
    """The bound states among the k lowest states of an operator with
    transparent ends, ascending.

    One solve at the threshold mu_h certifies how many of them the grid
    binds and bounds each from below; each is then refined by Newton's
    method from its entry in ``guesses`` (the same state on a coarser
    grid) where that lies in its bracket, else from its lower bound.
    """
    if not operator.ends:
        raise ValueError("the operator has no transparent end")
    mu_h = operator.threshold
    lower = [value for value, _ in lowest_eigenpairs(operator.at(mu_h), k)]
    roots = []
    for b, bound in enumerate(lower, start=1):
        if bound >= mu_h:
            break
        guess = guesses[b - 1] if b <= len(guesses) else bound
        roots.append(_root(operator, b, bound, mu_h, guess))
    return roots


def _root(operator: FdmOperator, b: int, lo: float, hi: float, guess: float) -> float:
    """The root of f(E) = lambda_b(A(E)) - E, which is decreasing, in the
    bracket [lo, hi): Newton steps that stay inside the bracket, bisection
    otherwise."""
    energy = guess if lo < guess < hi else lo
    for _ in range(MAX_ROOT_STEPS):
        value, vector = lowest_eigenpairs(operator.at(energy), b)[b - 1]
        excess = value - energy
        if excess > 0.0:
            lo = energy
        else:
            hi = energy
        step = excess / (1.0 - operator.slope(energy, vector))
        if abs(step) <= ROOT_TOL * energy:
            return energy + step
        energy += step
        if not lo < energy < hi:
            energy = 0.5 * (lo + hi)
    raise RuntimeError(f"bound state {b} not converged in {MAX_ROOT_STEPS} solves")


def bound_spectra(model: ModelKind, geometry: Geometry, h_list, count: int):
    """Yield (h, states) for each grid, coarsest first: the bound states,
    ascending, among the ``count`` lowest, from the even sector's
    ``count`` and the odd sector's ``count - 1`` lowest (the ground state
    is even), each warm-started from the coarser grid's.  A count above
    ``MAX_PAIRS``, or fewer than three spacings or ones not in a fixed
    decreasing ratio, raise before any grid is built.
    """
    if count < 1:
        raise ValueError("branch must be at least 1")
    if count > MAX_PAIRS:
        raise LookupError(
            f"branch {count} not available: the oracle resolves at most "
            f"{MAX_PAIRS} branches"
        )
    hs = sorted(h_list, reverse=True)
    if len(hs) < 3:
        raise ValueError("need at least three grid spacings")
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("grid spacings must be in a fixed ratio")
    if ratios[0] <= 1.0:
        raise ValueError("grid spacings must decrease")

    guesses = {}
    for hy in hs:
        grid = FdmGrid.from_spacing(geometry, hy)
        found = []
        for sector, k in zip(SECTORS, (count, count - 1)):
            if k:
                op = build_operator(model, geometry, grid, sector)
                guesses[sector] = bound_states(op, k, guesses.get(sector, ()))
                found += guesses[sector]
        yield hy, sorted(found)[:count]


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
