"""Tests for the finite-difference oracle.

Analytic harnesses (rectangle, strip section) pin the discretization
order; wider margins and a long Dirichlet box pin the transparent ends;
the full-grid operator is the reference for the parity sectors; the
model runs cross-validate the mode-matching solver.
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

#: spacings of the benchmark's oracle workload
BENCH_H = (1.0 / 8, 1.0 / 16, 1.0 / 32)

#: energy at which A(E) is compared across assemblies (below mu_h for
#: every spacing used here)
E_FIXED = 0.9 * MU


def all_dirichlet_square(n: int) -> fo.FdmOperator:
    grid = fo.FdmGrid(L=0.5, nx=n, ny=n)
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return fo.build_from_mask(grid, mask)


def full_operator(model, geometry, grid) -> fo.FdmOperator:
    return fo.build_from_mask(grid, fo.dirichlet_mask(model, geometry, grid))


def margin_grid(lam, ny, cells):
    """Switch-aligned grid at h = 1/ny reaching ``cells`` cells beyond the
    window (``from_spacing`` reaches one)."""
    n_delta = round(lam * ny)
    hx = lam / n_delta
    return fo.FdmGrid(L=lam + cells * hx, nx=2 * (n_delta + cells), ny=ny)


def sector_states(model, lam, grid, k=2):
    """Bound states among each sector's k lowest on ``grid``."""
    geometry = Geometry.from_lambda(lam)
    return {s: fo.bound_states(fo.build_operator(model, geometry, grid, s), k)
            for s in fo.SECTORS}


def reflect(model, field):
    """A nodal field composed with the model's grid reflection."""
    return field[::-1, ::-1] if model is ModelKind.A else field[::-1, :]


@pytest.fixture(scope="module")
def op_a_half():
    geometry = Geometry.from_lambda(0.5)
    grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40)
    return fo.build_operator(ModelKind.A, geometry, grid, 1)


@pytest.fixture(scope="module")
def state_a_half(op_a_half):
    """The even sector's bound state E and A(E)."""
    (energy,) = fo.bound_states(op_a_half, 1)
    return energy, op_a_half.at(energy)


@pytest.fixture(
    scope="module",
    params=[(m, lam, 20) for m in (ModelKind.A, ModelKind.B)
            for lam in (0.37, 0.5, 1.5)] + [(ModelKind.A, 0.5, 21)],
    ids=lambda p: f"{p[0].name}-{p[1]}-ny{p[2]}",
)
def split(request):
    """The 4 lowest pairs of the full grid's A(E) and of each sector's,
    h = 1/ny, at E = ``E_FIXED``.

    ny = 21 gives model A no fixed vertex and one edge joining a vertex
    to its mirror image."""
    model, lam, ny = request.param
    geometry = Geometry.from_lambda(lam)
    grid = fo.FdmGrid.from_spacing(geometry, 1.0 / ny)
    full = fo.lowest_eigenpairs(full_operator(model, geometry, grid).at(E_FIXED), 4)
    sectors = {}
    for s in fo.SECTORS:
        op = fo.build_operator(model, geometry, grid, s).at(E_FIXED)
        sectors[s] = (op, fo.lowest_eigenpairs(op, 4))
    return model, full, sectors


@pytest.fixture(scope="module")
def pairs_a_half(state_a_half):
    return fo.lowest_eigenpairs(state_a_half[1], 3)


class TestGrid:
    def test_switch_points_on_grid(self):
        geometry = Geometry.from_lambda(0.37)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40)
        i_minus = grid.column_of(-0.37)
        i_plus = grid.column_of(0.37)
        assert grid.x()[i_minus] == pytest.approx(-0.37, abs=1e-12)
        assert grid.x()[i_plus] == pytest.approx(0.37, abs=1e-12)
        # the window plus one cell: the switch columns are next to the ends
        assert (i_minus, i_plus) == (1, grid.nx - 1)
        assert grid == margin_grid(0.37, 40, 1)

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
        ops = [fo.build_operator(m, geometry, grid, s)
               for m in (ModelKind.A, ModelKind.B) for s in fo.SECTORS]
        ops += [full_operator(m, geometry, grid) for m in (ModelKind.A, ModelKind.B)]
        matrices = [op.matrix for op in ops] + [op.at(E_FIXED).matrix for op in ops]
        for A in [op_a_half.matrix, all_dirichlet_square(16).matrix] + matrices:
            diff = A - A.T
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


class TestEigenpairs:
    def test_residual_contract(self, state_a_half, pairs_a_half):
        A = state_a_half[1].matrix
        for value, vector in pairs_a_half:
            res = np.linalg.norm(A @ vector - value * vector)
            res /= np.linalg.norm(vector)
            assert res < 1e-10

    def test_exactly_one_below_threshold(self):
        """The certificate at mu_h counts one bound state over both sectors."""
        grid = fo.FdmGrid.from_spacing(Geometry.from_lambda(0.5), 1.0 / 80)
        states = sector_states(ModelKind.A, 0.5, grid, k=3)
        assert [len(states[s]) for s in fo.SECTORS] == [1, 0]
        assert states[1][0] < MU

    def test_k_out_of_range(self, op_a_half):
        with pytest.raises(ValueError):
            fo.lowest_eigenpairs(op_a_half, 7)
        with pytest.raises(ValueError):
            fo.lowest_eigenpairs(op_a_half, 0)

    def test_tail_slice_projects_on_transverse_family(self, op_a_half, state_a_half,
                                                      pairs_a_half):
        """In the tails the eigenvector is a combination of the region's
        transverse modes; the first 8 carry >= 0.999 of a slice's norm.
        The slice at |x| = 2 is the end column's, continued outward by
        each tail mode's decay rho_j per column."""
        from wavebound.geometry import ProfileKind, profile_values

        energy, op = state_a_half
        vector = pairs_a_half[0][1]
        grid = op_a_half.grid
        y = grid.y()
        weights = np.full(grid.ny + 1, grid.hy)
        weights[0] = weights[-1] = grid.hy / 2.0
        profiles = (ProfileKind.DN_SINE, ProfileKind.ND_COSINE)
        for end, x0, profile in zip(op_a_half.ends, (-2.0, 2.0), profiles):
            free = op.index[0 if x0 < 0 else grid.nx] >= 0
            a = grid.hx**2 * (end.levels - energy)
            rho = 1.0 + a / 2.0 - np.sqrt(a + a * a / 4.0)
            cells = round((abs(x0) - grid.L) / grid.hx)
            slice_vals = np.zeros(grid.ny + 1)
            slice_vals[free] = end.modes @ (rho**cells * end.coefficients(vector))
            slice_vals /= np.sqrt(grid.hx * weights)
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
        is branch 2, and the odd sector finds it by construction: at its
        energy E it is the full grid's second eigenvalue of A(E)."""
        geometry = Geometry.from_lambda(1.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 20)
        states = sector_states(ModelKind.B, 1.5, grid)
        (even,), (odd,) = states[1], states[-1]
        assert even < odd < MU
        full_at_odd = full_operator(ModelKind.B, geometry, grid).at(odd)
        full = fo.lowest_eigenpairs(full_at_odd, 2)
        assert full[0][0] < odd
        assert abs(full[1][0] - odd) <= 1e-12 * odd

    def test_sector_validation(self):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 8)
        with pytest.raises(ValueError):
            fo.build_operator(ModelKind.A, geometry, grid, 0)


class TestTransparentEnds:
    """The ends eliminate the infinite tails exactly: the bound states
    do not depend on how far the grid reaches beyond the window, and a
    long Dirichlet box reproduces them."""

    CASES = [(ModelKind.A, 0.5, ny) for ny in (8, 32)] + [
        (ModelKind.B, 1.5, ny) for ny in (8, 32)]

    @pytest.mark.parametrize("model,lam,ny", CASES,
                             ids=lambda p: getattr(p, "name", str(p)))
    def test_margin_independent(self, model, lam, ny):
        """1, 2 and 4 cells beyond the window agree within 1e-12."""
        reference = sector_states(model, lam, margin_grid(lam, ny, 1))
        assert len(reference[1]) == 1
        assert len(reference[-1]) == (1 if model is ModelKind.B else 0)
        for cells in (2, 4):
            states = sector_states(model, lam, margin_grid(lam, ny, cells))
            for s in fo.SECTORS:
                assert len(states[s]) == len(reference[s])
                for value, ref in zip(states[s], reference[s]):
                    assert abs(value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("model,lam,ny", CASES,
                             ids=lambda p: getattr(p, "name", str(p)))
    def test_matches_long_dirichlet_box(self, model, lam, ny):
        """A Dirichlet box reaching 30 beyond the window (tail bias below
        1e-13) agrees within 1e-11."""
        states = sector_states(model, lam, margin_grid(lam, ny, 1))
        merged = sorted(states[1] + states[-1])
        grid = margin_grid(lam, ny, math.ceil(30 * ny))
        mask = fo.dirichlet_mask(model, Geometry.from_lambda(lam), grid)
        mask[0, :] = mask[-1, :] = True
        box = fo.build_from_mask(grid, mask)
        assert box.ends == ()
        values = [v for v, _ in fo.lowest_eigenpairs(box, len(merged))]
        for value, ref in zip(merged, values):
            assert abs(value - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("ny", [8, 21, 80])
    def test_tail_levels_closed_form(self, ny):
        """A tail column's lumped-mass transverse spectrum is the 1-D
        Dirichlet-Neumann one, t_j = 4/hy^2 sin^2((2j+1) pi hy/4), so the
        threshold is mu_h = 4/hy^2 sin^2(pi hy/4) < mu."""
        hy = 1.0 / ny
        exact = 4.0 / hy**2 * np.sin((2 * np.arange(ny) + 1) * math.pi * hy / 4) ** 2
        for model, lam in ((ModelKind.A, 0.5), (ModelKind.B, 1.5)):
            geometry = Geometry.from_lambda(lam)
            grid = fo.FdmGrid.from_spacing(geometry, hy)
            op = full_operator(model, geometry, grid)
            assert len(op.ends) == 2
            for end in op.ends:
                assert np.allclose(end.levels, exact, rtol=1e-12, atol=0.0)
            assert op.threshold == min(end.levels[0] for end in op.ends) < MU

    def test_energy_above_threshold_rejected(self, op_a_half):
        with pytest.raises(ValueError):
            op_a_half.at(op_a_half.threshold * (1.0 + 1e-9))
        with pytest.raises(ValueError):
            fo.bound_states(all_dirichlet_square(8), 1)


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
    """Both sector operators and the full-grid operator at spacing hy,
    at E = ``E_FIXED``."""
    geometry = Geometry.from_lambda(lam)
    grid = fo.FdmGrid.from_spacing(geometry, hy)
    sectors = [fo.build_operator(model, geometry, grid, s).at(E_FIXED)
               for s in fo.SECTORS]
    return sectors, full_operator(model, geometry, grid).at(E_FIXED)


class TestFactorOrdering:
    """The shift-invert factor is ordered by minimum degree on A + A^T."""

    @pytest.mark.parametrize("model,lam", [(ModelKind.A, 0.5), (ModelKind.B, 1.5)])
    def test_fill_budget(self, monkeypatch, model, lam):
        """L + U of each sector's factor of A(E) at h = 1/32, dense end
        blocks included, is at most 0.65 of the default ordering's
        (measured 0.62-0.64 on the window grid; 0.57 on the former
        12-d box)."""
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

    @pytest.mark.parametrize("lam,branch", [(0.3, 1), (1.25, 2)])
    def test_near_threshold_agrees_with_modematch(self, lam, branch):
        """Weakly bound states (E/mu > 0.99), whose slow tails a
        truncated box biases upward, agree within 1e-3 (measured 4.3e-4
        and 2.4e-4)."""
        geometry = Geometry.from_lambda(lam)
        reference = mm.scan_spectrum(
            ModelKind.A, geometry, N=64, check_stability=False
        ).eigenvalues[branch - 1]
        assert reference > 0.99
        estimate, _ = fo.extrapolate(ModelKind.A, geometry, h_list=COARSE,
                                     branch=branch)
        assert abs(estimate / MU - reference) < 1e-3

    def test_unbound_branch_names_the_grid(self):
        """A grid without the branch's bound state raises LookupError
        naming its spacing (A at lambda = 0.5 binds one state)."""
        with pytest.raises(LookupError, match="h = 0.05"):
            fo.extrapolate(ModelKind.A, Geometry.from_lambda(0.5), h_list=COARSE,
                           branch=2)

    @pytest.mark.parametrize("model,lam,branch,budget", [
        (ModelKind.A, 0.5, 1, 19),
        (ModelKind.B, 1.5, 1, 16),
        (ModelKind.B, 1.5, 2, 35),
    ])
    def test_evaluation_budget(self, monkeypatch, model, lam, branch, budget):
        """Eigensolves per extrapolation of the benchmark's oracle
        operations: per grid and state, one certificate at mu_h and a
        few warm-started Newton steps (measured 16, 13 and 29; the
        budgets leave about 20%)."""
        calls = []
        real = fo.lowest_eigenpairs

        def counted(operator, k):
            calls.append(k)
            return real(operator, k)

        monkeypatch.setattr(fo, "lowest_eigenpairs", counted)
        fo.extrapolate(model, Geometry.from_lambda(lam), h_list=BENCH_H, branch=branch)
        assert len(calls) <= budget

    @pytest.mark.parametrize("model,lam,branches", [
        (ModelKind.B, 1.5, 2),
        (ModelKind.A, 2.5, 3),
    ])
    def test_one_pass_matches_per_branch(self, model, lam, branches):
        """One pass that solves each grid for all branches gives every
        branch's per-branch extrapolation (measured bitwise)."""
        geometry = Geometry.from_lambda(lam)
        grids = list(fo.bound_spectra(model, geometry, BENCH_H, branches))
        hs = [h for h, _ in grids]
        assert [len(states) for _, states in grids] == [branches] * len(BENCH_H)
        for b in range(1, branches + 1):
            estimate, order = fo.richardson(hs, [states[b - 1] for _, states in grids])
            expected, expected_order = fo.extrapolate(model, geometry, h_list=BENCH_H,
                                                      branch=b)
            assert estimate == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert order == pytest.approx(expected_order, rel=0.0, abs=1e-9)

    def test_spectra_capped_at_count(self):
        """A pass with count 2 yields the two lowest states on each grid,
        although at lambda = 2.5 it also binds model A's third (odd)
        state."""
        geometry = Geometry.from_lambda(2.5)
        two = list(fo.bound_spectra(ModelKind.A, geometry, BENCH_H, 2))
        three = list(fo.bound_spectra(ModelKind.A, geometry, BENCH_H, 3))
        assert [len(states) for _, states in two] == [2] * len(BENCH_H)
        for (_, lowest), (_, states) in zip(two, three):
            assert lowest == pytest.approx(states[:2], rel=1e-12, abs=0.0)

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
