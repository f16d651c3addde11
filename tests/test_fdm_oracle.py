"""Tests for the finite-difference oracle.

Analytic harnesses (rectangle, strip section) pin the discretization
order; the full-grid operator is the reference for the parity sectors;
the model runs cross-validate the mode-matching solver.
"""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from wavebound import fdm_oracle as fo
from wavebound import modematch as mm
from wavebound.geometry import Geometry, ModelKind

MU = math.pi**2 / 4.0

#: coarse spacing triple for test-speed extrapolations
COARSE = (1.0 / 20, 1.0 / 40, 1.0 / 80)


def all_dirichlet_square(n: int) -> fo.FdmOperator:
    grid = fo.FdmGrid(L=0.5, nx=n, ny=n)
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return fo.build_from_mask(grid, mask)


def full_operator(model, geometry, grid) -> fo.FdmOperator:
    return fo.build_from_mask(grid, fo.dirichlet_mask(model, geometry, grid))


def reflect(model, field):
    """A nodal field composed with the model's grid reflection."""
    return field[::-1, ::-1] if model is ModelKind.A else field[::-1, :]


@pytest.fixture(scope="module")
def op_a_half():
    geometry = Geometry.from_lambda(0.5)
    grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40)
    return fo.build_operator(ModelKind.A, geometry, grid, 1)


@pytest.fixture(
    scope="module",
    params=[(m, lam, 20) for m in (ModelKind.A, ModelKind.B)
            for lam in (0.37, 0.5, 1.5)] + [(ModelKind.A, 0.5, 21)],
    ids=lambda p: f"{p[0].name}-{p[1]}-ny{p[2]}",
)
def split(request):
    """The full grid's 4 lowest pairs and each sector's, h = 1/ny.

    ny = 21 gives model A no fixed vertex and one edge joining a vertex
    to its mirror image."""
    model, lam, ny = request.param
    geometry = Geometry.from_lambda(lam)
    grid = fo.FdmGrid.from_spacing(geometry, 1.0 / ny)
    full = fo.lowest_eigenpairs(full_operator(model, geometry, grid), 4)
    sectors = {}
    for s in fo.SECTORS:
        op = fo.build_operator(model, geometry, grid, s)
        sectors[s] = (op, fo.lowest_eigenpairs(op, 4))
    return model, full, sectors


@pytest.fixture(scope="module")
def pairs_a_half(op_a_half):
    return fo.lowest_eigenpairs(op_a_half, 3)


class TestGrid:
    def test_switch_points_on_grid(self):
        geometry = Geometry.from_lambda(0.37)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40)
        i_minus = grid.column_of(-0.37)
        i_plus = grid.column_of(0.37)
        assert grid.x()[i_minus] == pytest.approx(-0.37, abs=1e-12)
        assert grid.x()[i_plus] == pytest.approx(0.37, abs=1e-12)
        assert grid.L >= 0.37 + 12.0

    def test_off_grid_rejected(self):
        grid = fo.FdmGrid(L=1.0, nx=40, ny=20)
        with pytest.raises(ValueError):
            grid.column_of(0.3333)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            fo.FdmGrid.from_spacing(Geometry.from_lambda(0.5), 0.3)


class TestHarnesses:
    def test_all_dirichlet_square_second_order(self):
        """Smooth eigenfunction: classical O(h^2), limit 2*pi^2."""
        exact = 2.0 * math.pi**2
        values = [fo.lowest_eigenpairs(all_dirichlet_square(n), 1)[0][0]
                  for n in (20, 40, 80)]
        d1, d2 = values[0] - values[1], values[1] - values[2]
        p = math.log2(d1 / d2)
        estimate = values[2] - d2 / (d1 / d2 - 1.0)
        assert 1.9 < p < 2.1
        assert abs(estimate - exact) < 5e-4
        assert abs(values[2] - exact) < 5e-3

    def test_dirichlet_neumann_strip_section(self):
        """Bottom-Dirichlet/top-Neumann box: E1 = pi^2/4 + (pi/2L)^2."""
        L, ny = 4.0, 80
        nx = int(2 * L * ny)
        grid = fo.FdmGrid(L=L, nx=nx, ny=ny)
        mask = np.zeros((nx + 1, ny + 1), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = True
        op = fo.build_from_mask(grid, mask)
        value = fo.lowest_eigenpairs(op, 1)[0][0]
        exact = math.pi**2 / 4.0 + (math.pi / (2 * L)) ** 2
        assert abs(value - exact) < 1e-3

    def test_matrix_exactly_symmetric(self, op_a_half):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 20)
        sectors = [fo.build_operator(m, geometry, grid, s).matrix
                   for m in (ModelKind.A, ModelKind.B) for s in fo.SECTORS]
        for A in [op_a_half.matrix, all_dirichlet_square(16).matrix] + sectors:
            diff = A - A.T
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


class TestEigenpairs:
    def test_residual_contract(self, op_a_half, pairs_a_half):
        A = op_a_half.matrix
        for value, vector in pairs_a_half:
            res = np.linalg.norm(A @ vector - value * vector)
            res /= np.linalg.norm(vector)
            assert res < 1e-10

    def test_exactly_one_below_threshold(self):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 80)
        values = [v for s in fo.SECTORS for v, _ in fo.lowest_eigenpairs(
            fo.build_operator(ModelKind.A, geometry, grid, s), 3)]
        assert sum(v < MU for v in values) == 1

    def test_k_out_of_range(self, op_a_half):
        with pytest.raises(ValueError):
            fo.lowest_eigenpairs(op_a_half, 7)
        with pytest.raises(ValueError):
            fo.lowest_eigenpairs(op_a_half, 0)

    def test_truncation_monotone_in_L(self):
        """Shrinking the Dirichlet box raises eigenvalues (form inclusion)."""
        geometry = Geometry.from_lambda(0.5)
        values = {}
        for L in (6.0, 12.5):
            grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40, L=L)
            op = fo.build_operator(ModelKind.A, geometry, grid, 1)
            values[L] = fo.lowest_eigenpairs(op, 1)[0][0]
        assert values[6.0] > values[12.5]

    def test_truncation_length_sufficient(self):
        """Doubling L moves the eigenvalue by less than 1e-6 * mu."""
        geometry = Geometry.from_lambda(0.5)
        values = {}
        for L in (12.5, 25.0):
            grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40, L=L)
            op = fo.build_operator(ModelKind.A, geometry, grid, 1)
            values[L] = fo.lowest_eigenpairs(op, 1)[0][0]
        assert abs(values[25.0] - values[12.5]) < 1e-6 * MU

    def test_tail_slice_projects_on_transverse_family(self, op_a_half, pairs_a_half):
        """In the tails the eigenvector is a combination of the region's
        transverse modes; the first 8 carry >= 0.999 of a slice's norm."""
        from wavebound.geometry import ProfileKind, profile_values

        field = op_a_half.embed(pairs_a_half[0][1])
        grid = op_a_half.grid
        y = grid.y()
        weights = np.full(grid.ny + 1, grid.hy)
        weights[0] = weights[-1] = grid.hy / 2.0
        for x0, profile in ((2.0, ProfileKind.ND_COSINE), (-2.0, ProfileKind.DN_SINE)):
            slice_vals = field[grid.column_of(x0), :]
            norm_sq = float(np.sum(weights * slice_vals**2))
            assert norm_sq > 0.0
            modes = profile_values(profile, 8, y)
            coefs = modes @ (weights * slice_vals)
            assert float(np.sum(coefs**2)) / norm_sq >= 0.999


class TestParitySplit:
    def test_sectors_merge_to_full_spectrum(self, split):
        _, full, sectors = split
        merged = sorted(v for _, pairs in sectors.values() for v, _ in pairs)
        for reference, value in zip((v for v, _ in full), merged[:4]):
            assert abs(value - reference) <= 1e-12 * reference

    def test_ground_state_is_even(self, split):
        _, full, sectors = split
        lowest = full[0][0]
        assert abs(sectors[1][1][0][0] - lowest) <= 1e-12 * lowest
        assert sectors[-1][1][0][0] > lowest

    def test_embedded_vectors_reflect_with_sector_sign(self, split):
        model, _, sectors = split
        for s, (op, pairs) in sectors.items():
            for _, vector in pairs:
                field = op.embed(vector)
                assert np.array_equal(reflect(model, field), s * field)
                assert not field[op.mask].any()
                assert np.abs(field).max() > 0.0

    def test_model_b_second_branch_is_odd(self):
        """B at lambda = 1.5 binds an even and an odd state; the odd one
        is branch 2, and the odd sector finds it by construction."""
        geometry = Geometry.from_lambda(1.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 20)
        full = fo.lowest_eigenpairs(full_operator(ModelKind.B, geometry, grid), 2)
        even = fo.lowest_eigenpairs(fo.build_operator(ModelKind.B, geometry, grid, 1), 2)
        odd = fo.lowest_eigenpairs(fo.build_operator(ModelKind.B, geometry, grid, -1), 1)
        assert even[0][0] < odd[0][0] < even[1][0]
        assert odd[0][0] < MU
        assert abs(odd[0][0] - full[1][0]) <= 1e-12 * full[1][0]

    def test_sector_validation(self):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 8)
        with pytest.raises(ValueError):
            fo.build_operator(ModelKind.A, geometry, grid, 0)


def default_ordering_pairs(A, k):
    """Reference shift-invert at zero with splu's default (COLAMD column)
    ordering, sorted and normalized as ``lowest_eigenpairs`` returns them."""
    n = A.shape[0]
    lu = splu(A.tocsc())
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    vals, vecs = eigsh(A, k=k, sigma=0.0, which="LM", OPinv=opinv, v0=v0)
    order = np.argsort(vals)
    return [(vals[j], vecs[:, j] / np.linalg.norm(vecs[:, j])) for j in order]


def model_operators(model, lam, hy):
    """Both sector operators and the full-grid operator at spacing hy."""
    geometry = Geometry.from_lambda(lam)
    grid = fo.FdmGrid.from_spacing(geometry, hy)
    sectors = [fo.build_operator(model, geometry, grid, s) for s in fo.SECTORS]
    return sectors, full_operator(model, geometry, grid)


class TestFactorOrdering:
    """The shift-invert factor is ordered by minimum degree on A + A^T."""

    @pytest.mark.parametrize("model,lam", [(ModelKind.A, 0.5), (ModelKind.B, 1.5)])
    def test_fill_budget(self, monkeypatch, model, lam):
        """L + U of each sector's factor at h = 1/32 is at most 0.65 of the
        default ordering's (measured 0.57)."""
        factored = []

        def recorded(A, **kwargs):
            lu = splu(A, **kwargs)
            factored.append((A, lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(fo, "splu", recorded)
        sectors, _ = model_operators(model, lam, 1.0 / 32)
        for op in sectors:
            fo.lowest_eigenpairs(op, 1)
        assert len(factored) == len(sectors)
        for A, fill in factored:
            default = splu(A)
            assert fill <= 0.65 * (default.L.nnz + default.U.nnz)

    @pytest.mark.parametrize("model,lam", [(ModelKind.A, 0.5), (ModelKind.B, 1.5)])
    def test_pairs_match_default_ordering(self, model, lam):
        """Eigenvalues agree to 1e-12 relative and vectors, up to sign,
        to 1e-10 (rounding over the gaps of the full grid's near pairs)."""
        sectors, full = model_operators(model, lam, 1.0 / 20)
        for op, k in [(op, 3) for op in sectors] + [(full, 4)]:
            pairs = fo.lowest_eigenpairs(op, k)
            reference = default_ordering_pairs(op.matrix, k)
            for (value, vector), (ref_value, ref_vector) in zip(pairs, reference):
                assert abs(value - ref_value) <= 1e-12 * ref_value
                sign = math.copysign(1.0, vector @ ref_vector)
                assert np.linalg.norm(vector - sign * ref_vector) <= 1e-10


class TestExtrapolate:
    def test_model_a_agrees_with_modematch(self):
        geometry = Geometry.from_lambda(0.5)
        estimate, p = fo.extrapolate(ModelKind.A, geometry, h_list=COARSE)
        reference = mm.scan_spectrum(
            ModelKind.A, geometry, N=64, check_stability=False
        ).eigenvalues[0]
        assert abs(estimate / MU - reference) < 1e-3
        assert 0.9 < p < 1.3  # corner singularity limits the order to ~1

    @pytest.mark.parametrize("model", [ModelKind.A, ModelKind.B])
    def test_oracle_equivalence_lam_15(self, model):
        geometry = Geometry.from_lambda(1.5)
        spec = mm.scan_spectrum(model, geometry, N=64, check_stability=False)
        assert len(spec.eigenvalues) == 2
        for branch, reference in enumerate(spec.eigenvalues, start=1):
            estimate, p = fo.extrapolate(model, geometry, h_list=COARSE,
                                         branch=branch)
            assert abs(estimate / MU - reference) < 1e-3
            assert 0.9 < p < 1.3

    def test_model_b_agrees_with_modematch(self):
        geometry = Geometry.from_lambda(0.5)
        estimate, _ = fo.extrapolate(ModelKind.B, geometry, h_list=COARSE)
        reference = mm.scan_spectrum(
            ModelKind.B, geometry, N=64, check_stability=False
        ).eigenvalues[0]
        assert abs(estimate / MU - reference) < 1e-3

    def test_spacing_validation(self):
        geometry = Geometry.from_lambda(0.5)
        with pytest.raises(ValueError):
            fo.extrapolate(ModelKind.A, geometry, h_list=(1 / 40, 1 / 80))
        with pytest.raises(ValueError):
            fo.extrapolate(ModelKind.A, geometry, h_list=(1 / 20, 1 / 50, 1 / 80))

    def test_branch_out_of_range_builds_no_grid(self, monkeypatch):
        """A branch no sector solve can reach fails before any work."""
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(fo.FdmGrid, "from_spacing", no_grid)
        monkeypatch.setattr(fo, "build_operator", no_grid)
        geometry = Geometry.from_lambda(20.0)
        with pytest.raises(LookupError):
            fo.extrapolate(ModelKind.A, geometry, branch=fo.MAX_PAIRS + 1)
        with pytest.raises(ValueError):
            fo.extrapolate(ModelKind.A, geometry, branch=0)
