"""Full-grid sparse finite-difference operator: the reference that the
oracle's reduction to its end columns must match.

The whole grid is assembled from the edge form of ``fdm_oracle``'s
module docstring in the scaled unknowns hx^(1/2) Ly^(1/2) u, entry by
entry, so that A0 == A0^T holds exactly in floating point.  An end
column with a free vertex is a transparent end: ``at(E)`` adds its
exterior block D(E) = hx^-2 Psi diag(1 - rho_j(E)) Psi^T.  Eigenpairs
come from shift-invert Lanczos with no polish, and the count of states
below E is neg(A(E) - E), read from the eigenvalues of A(E).

Per sector, the reference is the end-column matrix T_s(E) of the module
docstring in the end column's vertex basis (``VertexEnds``: its modes
from ``eigh`` of the column's edge assembly, every chain mode in closed
form, wave or decaying), and its Wittrick-Williams count: T_s(E) decreases in E between the poles of
r, the sector's chain eigenvalues sigma_m + (2 - 2 cos(k pi/(n+1)))/hx^2
with (-1)^(k+1) p_m = s, so by the inertia of the Schur complement the
sector's count below E is neg(T_s(E)) plus the poles below E (Wittrick &
Williams, Q. J. Mech. Appl. Math. 24 (1971) 263).  The junction phase
``EndColumns.levels`` must reproduce that count.

``level`` is that junction phase one energy at a time, assembled from
scratch in the end column's mode basis from the operands of
``EndColumns``, and ``bound_spectra`` the oracle's pass on that scalar
level: each sector's lazy root loop cut by ``islice``.  The stacked
kernel and the lockstep pass must equal them bit for bit.
``vertex_level`` is the same phase in the vertex basis of
``VertexEnds``, as the oracle computed it before its rotation; the two
agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh
from scipy.sparse.linalg import eigsh

from roots_reference import bordered_cholesky, level_roots
from wavebound.fdm_oracle import (
    ROOT_FRAC,
    SECTORS,
    WINDOW_LO_FRAC,
    EndColumns,
    FdmGrid,
    _decay,
    _row_lengths,
    dirichlet_mask,
)


@dataclass(frozen=True)
class TransparentEnd:
    """An end column whose exterior, the column repeated without end, is
    eliminated exactly: ``modes`` diag(``levels``) ``modes``^T is its
    transverse operator on the free vertices, the unknowns ``unknowns``."""

    unknowns: np.ndarray
    modes: np.ndarray
    levels: np.ndarray

    def coefficients(self, vector: np.ndarray) -> np.ndarray:
        """Tail mode coefficients c = Psi^T v_end of an unknown vector."""
        return self.modes.T @ vector[self.unknowns]


@dataclass(frozen=True)
class FdmOperator:
    """``matrix`` (A0, or A(E) once ``at`` eliminated the ``ends``) on
    the unknowns ``index`` numbers (-1 on Dirichlet vertices); ``embed``
    maps an unknown vector to nodal values."""

    grid: FdmGrid
    mask: np.ndarray
    matrix: sp.csr_matrix
    index: np.ndarray
    ends: tuple[TransparentEnd, ...] = ()

    @property
    def threshold(self) -> float:
        """mu_h, the bottom of the ends' continuum (inf without ends)."""
        return min((end.levels[0] for end in self.ends), default=math.inf)

    def at(self, energy: float) -> "FdmOperator":
        """A(E) = A0 + D(E); ``energy`` must not exceed the threshold."""
        if not self.ends:
            return self
        if energy > self.threshold:
            raise ValueError(f"energy {energy} is above the threshold {self.threshold}")
        hx = self.grid.hx
        rows, cols, vals = [], [], []
        for end in self.ends:
            q = _decay(end.levels, hx, energy)
            block = (end.modes * (q / (1.0 + q))) @ end.modes.T
            block = 0.5 * (block + block.T) / (hx * hx)
            rows.append(np.repeat(end.unknowns, end.unknowns.size))
            cols.append(np.tile(end.unknowns, end.unknowns.size))
            vals.append(block.ravel())
        exterior = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.matrix.shape,
        ).tocsr()
        return replace(self, matrix=self.matrix + exterior, ends=())

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Nodal values on the (nx+1, ny+1) grid, zero on Dirichlet."""
        full = np.where(self.index >= 0, vec[self.index], 0.0)
        return full / np.sqrt(self.grid.hx * _row_lengths(self.grid))


def _assemble(grid: FdmGrid, index: np.ndarray) -> sp.csr_matrix:
    """Scaled matrix of the edge form: each edge (p, q) of weight w adds
    w g_p^2 and w g_q^2 to the diagonal and -w g_p g_q to the entry pair,
    with g = (hx ell_y)^(-1/2).  The upper triangle is summed once and
    added to its transpose, so the result is exactly symmetric."""
    nx, ny = grid.nx, grid.ny
    ly = _row_lengths(grid)
    g = np.broadcast_to(1.0 / np.sqrt(grid.hx * ly)[None, :], index.shape)
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
        p_g, q_g = g[p].ravel(), g[q].ravel()
        w = w.ravel()
        p_free, q_free = p_idx >= 0, q_idx >= 0
        np.add.at(diag, p_idx[p_free], w[p_free] * p_g[p_free] ** 2)
        np.add.at(diag, q_idx[q_free], w[q_free] * q_g[q_free] ** 2)
        both = p_free & q_free
        rows.append(np.minimum(p_idx, q_idx)[both])
        cols.append(np.maximum(p_idx, q_idx)[both])
        vals.append(-w[both] * p_g[both] * q_g[both])
    upper = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return (upper + upper.T + sp.diags(diag)).tocsr()


def end_operator(grid: FdmGrid, free: np.ndarray) -> np.ndarray:
    """A column's lumped-mass transverse operator Ly^(-1/2) Ty Ly^(-1/2)
    on its ``free`` vertices, from the column's edges: each vertical edge
    of weight 1/hy adds to the diagonal at both its ends."""
    w = np.full(grid.ny, 1.0 / grid.hy)
    stiffness = np.diag(np.r_[w, 0.0] + np.r_[0.0, w]) - np.diag(w, 1) - np.diag(w, -1)
    scale = 1.0 / np.sqrt(_row_lengths(grid)[free])
    return scale[:, None] * stiffness[np.ix_(free, free)] * scale[None, :]


def cosine_modes(grid: FdmGrid) -> tuple[np.ndarray, np.ndarray]:
    """Levels sigma_m = (2/hy sin(m pi hy/2))^2 and orthonormal modes
    Ly^(1/2) cos(m pi y) of a Neumann-Neumann column's transverse
    operator: sigma_0 = 0 exactly, and mode m has parity (-1)^m under
    y -> 1 - y."""
    m = np.arange(grid.ny + 1)
    levels = (2.0 / grid.hy * np.sin(0.5 * math.pi * grid.hy * m)) ** 2
    phase = np.outer(m, m) % (2 * grid.ny)  # j m mod 2 ny, exactly
    modes = np.sqrt(_row_lengths(grid))[:, None] * np.cos(math.pi * phase / grid.ny)
    return levels, modes / np.linalg.norm(modes, axis=0)


def _ends(grid: FdmGrid, index: np.ndarray) -> tuple[TransparentEnd, ...]:
    """Transparent ends of the end columns that carry unknowns."""
    ends = []
    for i in (0, grid.nx):
        free = index[i] >= 0
        if not free.any():
            continue
        levels, modes = np.linalg.eigh(end_operator(grid, free))
        ends.append(TransparentEnd(index[i, free], modes, levels))
    return tuple(ends)


def build_from_mask(grid: FdmGrid, mask: np.ndarray) -> FdmOperator:
    """The full-grid operator for an arbitrary Dirichlet mask; an end
    column with a free vertex becomes a transparent end."""
    if mask.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("mask shape must be (nx+1, ny+1)")
    if not mask.any():
        raise ValueError("at least one Dirichlet vertex is required")
    free = ~mask
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[free] = np.arange(int(free.sum()))
    return FdmOperator(grid, mask.copy(), _assemble(grid, index), index, _ends(grid, index))


def build(model, geometry, grid: FdmGrid) -> FdmOperator:
    """A model's full-grid operator."""
    return build_from_mask(grid, dirichlet_mask(model, geometry, grid))


def lowest_eigenpairs(operator: FdmOperator, k: int):
    """The k smallest (value, unit vector) pairs, ascending, by
    shift-invert Lanczos at zero."""
    vals, vecs = eigsh(operator.matrix, k=k, sigma=0.0, which="LM")
    order = np.argsort(vals)
    return [(float(vals[j]), vecs[:, j] / np.linalg.norm(vecs[:, j])) for j in order]


def count_below(operator: FdmOperator, energy: float) -> int:
    """neg(A(E) - E): the grid's states below ``energy``."""
    A = operator.at(energy)
    k = 4
    while True:
        values = [v for v, _ in lowest_eigenpairs(A, k)]
        if values[-1] >= energy:
            return sum(v < energy for v in values)
        k *= 2


@dataclass(frozen=True)
class VertexEnds:
    """The reduction of the module docstring in the end column's vertex
    basis, as the oracle assembled it before its rotation into the end
    column's modes: ``modes`` diag(``end_levels``) ``modes``^T is the end
    column's transverse operator on its free vertices, from ``eigh`` of
    the edge assembly ``end_operator`` and so independent of the
    oracle's closed forms; ``chain_modes`` are the rows there of the
    Neumann-Neumann column's cosine modes, with levels ``chain_levels``
    and reflection parities ``parity``; ``n`` is the number of interior
    columns."""

    hx: float
    n: int
    end_levels: np.ndarray
    modes: np.ndarray
    chain_levels: np.ndarray
    chain_modes: np.ndarray
    parity: np.ndarray

    @classmethod
    def build(cls, model, geometry, grid: FdmGrid) -> "VertexEnds":
        free = ~dirichlet_mask(model, geometry, grid)[0]
        end_levels, modes = np.linalg.eigh(end_operator(grid, free))
        chain_levels, chain_modes = cosine_modes(grid)
        return cls(grid.hx, grid.nx - 1, end_levels, modes, chain_levels,
                   chain_modes[free], model.parity(grid.ny + 1))

    @property
    def threshold(self) -> float:
        """mu_h, the end column's lowest level."""
        return float(self.end_levels[0])


def signs(ends: VertexEnds, sector: int) -> np.ndarray:
    """The sector's t_m = s p_m, m >= 0."""
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    return sector * ends.parity


def _theta(ends: VertexEnds, energy: float) -> np.ndarray:
    """theta_m = arccos(a_m / 2), from 2 - a_m = 4 sin^2(theta_m / 2)
    without rounding a_m; 0 where a_m >= 2."""
    gap = np.maximum(energy - ends.chain_levels, 0.0)
    return 2.0 * np.arcsin(0.5 * ends.hx * np.sqrt(gap))


def sector_matrix(ends: VertexEnds, energy: float, sector: int) -> np.ndarray:
    """T_s(E) of one parity sector; ``energy`` must not exceed mu_h."""
    t = signs(ends, sector)
    if energy > ends.threshold:
        raise ValueError(f"energy {energy} is above the threshold {ends.threshold}")
    n = ends.n
    r = np.empty(ends.chain_levels.size)
    wave = ends.chain_levels < energy
    theta = _theta(ends, energy)[wave]
    num, den = 0.5 * (n - 1) * theta, 0.5 * (n + 1) * theta
    r[wave] = np.where(t[wave] > 0, np.cos(num) / np.cos(den), np.sin(num) / np.sin(den))
    decay = ~wave
    rho = 1.0 / (1.0 + _decay(ends.chain_levels[decay], ends.hx, energy))
    td = t[decay]
    r[decay] = (rho + td * rho**n) / (1.0 + td * rho ** (n + 1))
    q = _decay(ends.end_levels, ends.hx, energy)
    end = (ends.modes * (1.0 + q)) @ ends.modes.T
    chain = (ends.chain_modes * r) @ ends.chain_modes.T
    return (end - chain) / ends.hx**2


def chain_poles(ends: VertexEnds, energy: float, sector: int) -> int:
    """The sector's chain eigenvalues below ``energy``: in mode m, the
    k >= 1 with k < (n+1) theta_m / pi and (-1)^(k+1) = s p_m."""
    odd = signs(ends, sector) > 0
    below = np.maximum(np.ceil((ends.n + 1) * _theta(ends, energy) / math.pi) - 1, 0)
    return int(np.sum(np.where(odd, (below + 1) // 2, below // 2)))


def sector_count(ends: VertexEnds, energy: float, sector: int) -> int:
    """neg(T_s(E)) plus the sector's chain poles below E."""
    w = eigvalsh(sector_matrix(ends, energy, sector), check_finite=False)
    return int(np.count_nonzero(w < 0.0)) + chain_poles(ends, energy, sector)


def _phase_level(g: float, hx: float, n: int, energy: float, sector: int) -> float:
    """phi_s(E)/pi, less 1/2 in the odd sector, from g."""
    theta = 2.0 * math.asin(0.5 * hx * math.sqrt(energy))
    phase = 0.5 * (n + 1) * theta - math.atan2(1.0 - g * math.cos(theta),
                                               g * math.sin(theta))
    return phase / math.pi - (1 - sector) / 4


def vertex_level(ends: VertexEnds, energy: float, sector: int) -> float:
    """The junction level in the vertex basis, the oracle's formula
    before it was rotated into the end column's modes: T_rest =
    Psi diag(1 + q) Psi^T - P_1 diag(r) P_1^T bordered by p_0."""
    t = signs(ends, sector)[1:]
    if not (0.0 < energy <= ends.threshold):
        raise ValueError(f"energy {energy} is outside (0, {ends.threshold}]")
    n, hx = ends.n, ends.hx
    rho = 1.0 / (1.0 + _decay(ends.chain_levels[1:], hx, energy))
    r = (rho + t * rho**n) / (1.0 + t * rho ** (n + 1))
    rest = ((ends.modes * (1.0 + _decay(ends.end_levels, hx, energy))) @ ends.modes.T
            - (ends.chain_modes[:, 1:] * r) @ ends.chain_modes[:, 1:].T)
    z = bordered_cholesky(rest, ends.chain_modes[:, 0])[-1, :-1]
    return _phase_level(z @ z, hx, n, energy, sector)


def level(ends: EndColumns, energy: float, sector: int) -> float:
    """The junction level of one energy in the end column's mode basis,
    assembled from scratch: diag(1 + q) - C_1 diag(r) C_1^T bordered by
    c_0, with 1/rho = 1 + q of each mode from ``decay_levels`` and r
    written in 1/rho, one matrix and one bordered factorization."""
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    if not (0.0 < energy <= ends.threshold):
        raise ValueError(f"energy {energy} is outside (0, {ends.threshold}]")
    n, hx, size = ends.n, ends.hx, ends.terms.shape[0]
    growth = 1.0 + _decay(ends.decay_levels, hx, energy)
    chain = growth[size:]
    t_rho_n = ends.signs[SECTORS.index(sector)] * chain**-n
    r = (1.0 + t_rho_n * chain) / (chain + t_rho_n)
    C1 = ends.terms
    rest = (C1 * -r) @ C1.T
    rest[np.diag_indices(size)] += growth[:size]
    z = bordered_cholesky(rest, ends.last_row[:-1])[-1, :-1]
    return _phase_level(z @ z, hx, n, energy, sector)


def states(ends: EndColumns, sector: int, evaluate=level):
    """Yield the sector's bound states, ascending, from the junction
    level evaluate(ends, E, sector): the roots in
    (WINDOW_LO_FRAC * mu_h, mu_h] to ROOT_FRAC * mu_h."""
    mu_h = ends.threshold
    return (E for _, E in level_roots(partial(evaluate, ends, sector=sector),
                                      WINDOW_LO_FRAC * mu_h, mu_h, ROOT_FRAC * mu_h))


def bound_spectra(model, geometry, h_list, count: int):
    """(h, states) of each grid, coarsest first: the even sector's
    ``count`` and the odd sector's ``count - 1`` lowest states, merged
    and cut to ``count``."""
    spectra = []
    for hy in sorted(h_list, reverse=True):
        ends = EndColumns.build(model, geometry, FdmGrid.from_spacing(geometry, hy))
        found = sorted(E for s, k in zip(SECTORS, (count, count - 1))
                       for E in islice(states(ends, s), k))
        spectra.append((hy, found[:count]))
    return spectra
