"""Tests for the finite-difference oracle.

Analytic harnesses (rectangle, strip section) pin the discretization
order of the full-grid reference operator (``fdm_reference``); the
oracle's reduction to its end columns must reproduce that operator's
state count and bound states; wider margins and a long Dirichlet box
pin the transparent ends; the model runs cross-validate the
mode-matching solver.
"""

import math

import numpy as np
import pytest

import fdm_reference as ref
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

#: a reduced bound state E_b and the b-th eigenvalue of the reference's
#: A(E_b) agree to this relative width; as every eigenvalue of A(E) - E
#: falls with slope <= -1, E_b is then as close to the reference's root
ROOT_REL = 1e-10


def all_dirichlet_square(n: int) -> ref.FdmOperator:
    grid = fo.FdmGrid(L=0.5, nx=n, ny=n)
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return ref.build_from_mask(grid, mask)


def margin_grid(lam, ny, cells):
    """Switch-aligned grid at h = 1/ny reaching ``cells`` cells beyond the
    window (``from_spacing`` reaches one)."""
    n_delta = round(lam * ny)
    hx = lam / n_delta
    return fo.FdmGrid(L=lam + cells * hx, nx=2 * (n_delta + cells), ny=ny)


def reduced(model, lam, grid) -> fo.EndColumns:
    return fo.EndColumns.build(model, Geometry.from_lambda(lam), grid)


def level(ends, energy, sector):
    """The oracle's junction level at one energy: one lane of
    ``EndColumns.levels``."""
    return ends.levels([energy], [sector])[0]


def states(ends, sector):
    """The sector's bound states, ascending, from the oracle's junction
    level."""
    return list(ref.states(ends, sector, level))


def sector_states(model, lam, grid):
    """Each sector's bound states on ``grid``, from the reduction."""
    ends = reduced(model, lam, grid)
    return {s: states(ends, s) for s in fo.SECTORS}


def recorded_levels(monkeypatch):
    """Record each ``EndColumns.levels`` call as (its EndColumns, its
    lanes' sectors)."""
    calls = []
    real = fo.EndColumns.levels

    def counted(ends, energies, sectors):
        calls.append((ends, list(sectors)))
        return real(ends, energies, sectors)

    monkeypatch.setattr(fo.EndColumns, "levels", counted)
    return calls


def sector_count(ends, energy, sector):
    """The sector's states at or below E, read from its junction level."""
    return math.floor(level(ends, energy, sector)) + 1


def assert_counts_match(ends, full):
    """At 0.3, 0.7, 0.95 and 1 times mu_h the sector counts add up to
    the reference's neg(A(E) - E).  mu_h is the lower of the two
    assemblies' thresholds, which differ by rounding (the reference
    takes the lower of its two end columns')."""
    mu_h = min(ends.threshold, full.threshold)
    for frac in (0.3, 0.7, 0.95, 1.0):
        energy = frac * mu_h
        counts = [sector_count(ends, energy, s) for s in fo.SECTORS]
        assert sum(counts) == ref.count_below(full, energy)


def assert_roots_of(full, states, rel=ROOT_REL):
    """Each of the ascending ``states`` E_b is the b-th eigenvalue of the
    reference's A(E_b), to ``rel``."""
    for b, energy in enumerate(states, start=1):
        values = [v for v, _ in ref.lowest_eigenpairs(full.at(energy), b)]
        assert abs(values[-1] - energy) <= rel * energy


def state_vector(full, energy):
    """The reference's eigenvector of A(E) whose eigenvalue is E."""
    pairs = ref.lowest_eigenpairs(full.at(energy), 3)
    return min(pairs, key=lambda pair: abs(pair[0] - energy))[1]


def reflect(model, field):
    """A nodal field composed with the model's grid reflection."""
    return field[::-1, ::-1] if model is ModelKind.A else field[::-1, :]


@pytest.fixture(scope="module")
def op_a_half():
    """Model A's reference operator at lambda = 0.5, h = 1/40."""
    geometry = Geometry.from_lambda(0.5)
    return ref.build(ModelKind.A, geometry, fo.FdmGrid.from_spacing(geometry, 1.0 / 40))


@pytest.fixture(scope="module")
def state_a_half(op_a_half):
    """The reduction's one bound state E there (even) and the reference's A(E)."""
    (energy,) = sector_states(ModelKind.A, 0.5, op_a_half.grid)[1]
    return energy, op_a_half.at(energy)


@pytest.fixture(
    scope="module",
    params=[(m, lam, 20) for m in (ModelKind.A, ModelKind.B)
            for lam in (0.37, 0.5, 1.5)] + [(ModelKind.A, 0.5, 21)],
    ids=lambda p: f"{p[0].name}-{p[1]}-ny{p[2]}",
)
def split(request):
    """The reference full-grid operator at h = 1/ny, the reduction and
    its states per sector.

    ny = 21 gives model A no fixed vertex and one edge joining a vertex
    to its mirror image."""
    model, lam, ny = request.param
    grid = fo.FdmGrid.from_spacing(Geometry.from_lambda(lam), 1.0 / ny)
    ends = reduced(model, lam, grid)
    return (model, ref.build(model, Geometry.from_lambda(lam), grid), ends,
            {s: states(ends, s) for s in fo.SECTORS})


class TestGrid:
    def test_switch_points_on_grid(self):
        geometry = Geometry.from_lambda(0.37)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 40)
        i_minus = grid.column_of(-0.37)
        i_plus = grid.column_of(0.37)
        for i, x in ((i_minus, -0.37), (i_plus, 0.37)):
            assert -grid.L + grid.hx * i == pytest.approx(x, abs=1e-12)
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
        values = [ref.lowest_eigenpairs(all_dirichlet_square(n), 1)[0][0]
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
        op = ref.build_from_mask(grid, mask)
        value = ref.lowest_eigenpairs(op, 1)[0][0]
        exact = math.pi**2 / 4.0 + (math.pi / (2 * L)) ** 2
        assert abs(value - exact) < 1e-3

    def test_matrix_exactly_symmetric(self, op_a_half):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 20)
        ops = [ref.build(m, geometry, grid) for m in (ModelKind.A, ModelKind.B)]
        matrices = [op.matrix for op in ops] + [op.at(E_FIXED).matrix for op in ops]
        for A in [op_a_half.matrix, all_dirichlet_square(16).matrix] + matrices:
            diff = A - A.T
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


class TestEigenpairs:
    def test_residual_contract(self, state_a_half):
        """The reduction's bound state E is an eigenvalue of the
        reference's A(E): its eigenpair there has residual below 1e-10
        against E itself."""
        energy, A = state_a_half
        vector = state_vector(A, energy)
        res = np.linalg.norm(A.matrix @ vector - energy * vector)
        assert res < 1e-10 * energy

    def test_exactly_one_below_threshold(self):
        """The count at mu_h finds one bound state over both sectors."""
        grid = fo.FdmGrid.from_spacing(Geometry.from_lambda(0.5), 1.0 / 80)
        states = sector_states(ModelKind.A, 0.5, grid)
        assert [len(states[s]) for s in fo.SECTORS] == [1, 0]
        assert states[1][0] < MU

    def test_tail_slice_projects_on_transverse_family(self, op_a_half, state_a_half):
        """In the tails the eigenvector is a combination of the region's
        transverse modes; the first 8 carry >= 0.999 of a slice's norm.
        The slice at |x| = 2 is the end column's, continued outward by
        each tail mode's decay rho_j per column."""
        from wavebound.geometry import ProfileKind, profile_values

        energy, op = state_a_half
        vector = state_vector(op, energy)
        grid = op_a_half.grid
        y = grid.hy * np.arange(grid.ny + 1)
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
        """The sector counts add up to the reference's neg(A(E) - E),
        and the merged sector states are the reference's bound states."""
        _, full, ends, states = split
        assert_counts_match(ends, full)
        assert_roots_of(full, sorted(states[1] + states[-1]))

    def test_ground_state_is_even(self, split):
        """A(E) has nonpositive off-diagonals and a connected graph, so
        by Perron-Frobenius its lowest state is simple, positive, even."""
        _, full, _, states = split
        lowest = states[1][0]
        assert all(lowest < odd for odd in states[-1])
        assert_roots_of(full, [lowest])

    def test_embedded_vectors_reflect_with_sector_sign(self, split):
        """The reference's eigenvector at each state of sector s is even
        (s = 1) or odd (s = -1) under the model's grid reflection."""
        model, full, _, states = split
        for s, energies in states.items():
            for energy in energies:
                field = full.embed(state_vector(full, energy))
                scale = np.abs(field).max()
                assert scale > 0.0
                assert not field[full.mask].any()
                assert np.abs(reflect(model, field) - s * field).max() <= 1e-8 * scale

    def test_model_b_second_branch_is_odd(self):
        """B at lambda = 1.5 binds an even and an odd state; the odd one
        is branch 2: at its energy E it is the reference's second
        eigenvalue of A(E)."""
        geometry = Geometry.from_lambda(1.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 20)
        states = sector_states(ModelKind.B, 1.5, grid)
        (even,), (odd,) = states[1], states[-1]
        assert even < odd < MU
        full = ref.lowest_eigenpairs(ref.build(ModelKind.B, geometry, grid).at(odd), 2)
        assert full[0][0] < odd
        assert abs(full[1][0] - odd) <= ROOT_REL * odd

    def test_sector_validation(self):
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 8)
        ends = reduced(ModelKind.A, 0.5, grid)
        vertex = ref.VertexEnds.build(ModelKind.A, geometry, grid)
        with pytest.raises(ValueError):
            ends.levels([0.5 * MU], [0])
        with pytest.raises(ValueError):
            ref.sector_count(vertex, 0.5 * MU, 0)


class TestReduction:
    """Stop rule of the reduction: its count equals the reference's on
    every tested grid and energy, and its states are the reference's."""

    @pytest.mark.parametrize("model,lam", [
        (ModelKind.A, 0.3), (ModelKind.A, 0.5), (ModelKind.A, 1.25),
        (ModelKind.A, 2.5), (ModelKind.B, 1.5), (ModelKind.B, 2.5),
    ], ids=lambda p: getattr(p, "name", str(p)))
    def test_count_matches_full_grid(self, model, lam):
        geometry = Geometry.from_lambda(lam)
        for hy in BENCH_H:
            grid = fo.FdmGrid.from_spacing(geometry, hy)
            ends = fo.EndColumns.build(model, geometry, grid)
            full = ref.build(model, geometry, grid)
            assert_counts_match(ends, full)
            merged = sorted(E for s in fo.SECTORS for E in states(ends, s))
            assert len(merged) == ref.count_below(full, full.threshold)
            assert_roots_of(full, merged)


class TestPhaseCount:
    """Stop rule of the junction phase: the count floor(level) + 1 equals
    the per-sector reference neg(T_s(E)) + poles on every probe, T_rest
    factors up to and including mu_h, each state is a zero of T_s, and
    the level increases.  The reference T_s is assembled in the end
    column's vertex basis from ``eigh`` modes (``fdm_reference.VertexEnds``),
    whose mu_h differs from the oracle's closed form by rounding, so the
    probes run up to the lower of the two."""

    #: energies as fractions of mu_h, from deep below to the threshold
    FRACS = np.r_[np.geomspace(1e-6, 0.9, 40), np.linspace(0.9, 1.0 - 1e-4, 20),
                  1.0 - 1e-7, 1.0]

    @pytest.mark.parametrize("model", [ModelKind.A, ModelKind.B],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("lam", [0.3, 0.37, 0.5, 1.25, 1.5, 2.5, 20.0])
    def test_phase_count_equals_reference(self, model, lam):
        geometry = Geometry.from_lambda(lam)
        for ny in (8, 20, 21, 40):
            grid = fo.FdmGrid.from_spacing(geometry, 1.0 / ny)
            ends = fo.EndColumns.build(model, geometry, grid)
            vertex = ref.VertexEnds.build(model, geometry, grid)
            for energy in self.FRACS * min(ends.threshold, vertex.threshold):
                for s in fo.SECTORS:
                    assert sector_count(ends, energy, s) == ref.sector_count(vertex, energy, s)

    @pytest.mark.parametrize("model", [ModelKind.A, ModelKind.B],
                             ids=lambda m: m.name)
    def test_states_are_zeros_of_reference(self, model):
        """At each state of a sector the reference T_s(E) is singular: its
        smallest eigenvalue is below 1e-12 of its largest (measured
        1.9e-15)."""
        for lam in (0.3, 0.5, 1.5, 2.5, 20.0):
            geometry = Geometry.from_lambda(lam)
            for ny in (8, 21, 40):
                grid = fo.FdmGrid.from_spacing(geometry, 1.0 / ny)
                ends = fo.EndColumns.build(model, geometry, grid)
                vertex = ref.VertexEnds.build(model, geometry, grid)
                for s in fo.SECTORS:
                    for energy in states(ends, s):
                        w = np.abs(np.linalg.eigvalsh(ref.sector_matrix(vertex, energy, s)))
                        assert w.min() <= 1e-12 * w.max()

    def test_level_increases(self):
        """On 4,001 energies up to mu_h (A, lambda = 2.5, h = 1/40), both
        sectors."""
        geometry = Geometry.from_lambda(2.5)
        ends = reduced(ModelKind.A, 2.5, fo.FdmGrid.from_spacing(geometry, 1.0 / 40))
        energies = np.linspace(0.0, ends.threshold, 4002)[1:]
        for s in fo.SECTORS:
            levels = np.array([level(ends, E, s) for E in energies])
            assert np.all(np.diff(levels) > 0.0)
        # phi_s rises from -pi/2 at E = 0, so no state lies below the window
        assert -0.5 < level(ends, fo.WINDOW_LO_FRAC * ends.threshold, 1) < 0.0


class TestLevels:
    """The stacked kernel ``EndColumns.levels``: every lane equals the
    scalar reference ``fdm_reference.level`` bit for bit, whatever it is
    stacked with, and that reference equals the vertex-basis level; a bad
    lane is refused before any work; and the closed-form end modes are
    the eigenpairs of the column's edge assembly."""

    GRIDS = (1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 40) + COARSE

    @staticmethod
    def lanes(ends, seed):
        """Every energy of ``TestPhaseCount.FRACS`` (up to mu_h itself) in
        both sectors, shuffled."""
        energies = [float(f) * ends.threshold for f in TestPhaseCount.FRACS]
        lanes = [(E, s) for E in energies for s in fo.SECTORS]
        order = np.random.default_rng(seed).permutation(len(lanes))
        return [lanes[i][0] for i in order], [lanes[i][1] for i in order]

    @pytest.mark.parametrize("model,lam", [(ModelKind.A, 0.5), (ModelKind.A, 2.5),
                                           (ModelKind.B, 1.5)],
                             ids=["A-0.5", "A-2.5", "B-1.5"])
    def test_lanes_equal_the_scalar_level(self, model, lam):
        """124 lanes in one call: one stack up to 1/32, stacks split by
        ``roots.STACK_DOUBLES`` from 1/20 on (37, 9 and 2 lanes at 1/20,
        1/40 and 1/80)."""
        geometry = Geometry.from_lambda(lam)
        for seed, hy in enumerate(self.GRIDS):
            ends = fo.EndColumns.build(model, geometry, fo.FdmGrid.from_spacing(geometry, hy))
            energies, sectors = self.lanes(ends, seed)
            assert energies.count(ends.threshold) == 2
            stacked = ends.levels(energies, sectors)
            assert stacked == [ref.level(ends, E, s) for E, s in zip(energies, sectors)]
            assert stacked == [level(ends, E, s) for E, s in zip(energies, sectors)]
            assert stacked[:3] == ends.levels(energies[:3], sectors[:3])

    def test_bad_lane_refused_before_any_factorization(self, monkeypatch):
        geometry = Geometry.from_lambda(0.5)
        ends = fo.EndColumns.build(ModelKind.A, geometry,
                                   fo.FdmGrid.from_spacing(geometry, 1.0 / 16))
        mu_h = ends.threshold

        def no_factorization(*args, **kwargs):
            raise AssertionError("a stack was factored")

        monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
        good = ([0.5 * mu_h, mu_h], [1, -1])
        for energy, sector in ((mu_h * (1.0 + 1e-9), 1), (0.0, -1), (math.nan, 1),
                               (0.5 * mu_h, 0), (0.5 * mu_h, 2)):
            with pytest.raises(ValueError):
                ends.levels(good[0] + [energy], good[1] + [sector])

    @pytest.mark.parametrize("model,lam", [(ModelKind.A, 0.5), (ModelKind.A, 2.5),
                                           (ModelKind.B, 1.5)],
                             ids=["A-0.5", "A-2.5", "B-1.5"])
    def test_mode_basis_equals_the_vertex_basis(self, model, lam):
        """Rotating the reduction into the end column's closed-form modes
        moves no level by more than 1e-11 below 0.999 mu_h (measured
        1.6e-12), against the vertex-basis formula on ``eigh`` modes.  Near
        mu_h the level moves with sqrt(t_0 - E), and eigh's t_0 misses the
        closed form by up to 1.1e-13 relative."""
        geometry = Geometry.from_lambda(lam)
        fracs = TestPhaseCount.FRACS[TestPhaseCount.FRACS <= 0.999]
        for hy in self.GRIDS:
            grid = fo.FdmGrid.from_spacing(geometry, hy)
            ends = fo.EndColumns.build(model, geometry, grid)
            vertex = ref.VertexEnds.build(model, geometry, grid)
            for energy in fracs * ends.threshold:
                for s in fo.SECTORS:
                    assert abs(ref.level(ends, energy, s)
                               - ref.vertex_level(vertex, energy, s)) <= 1e-11

    @pytest.mark.parametrize("ny", [2, 8, 21, 80])
    def test_closed_forms_are_the_edge_assembly(self, ny):
        """The closed-form levels and modes of a column with either wall
        vertex fixed, and of the Neumann-Neumann chain column, are
        orthonormal eigenpairs of the operator its edges assemble
        (``fdm_reference.end_operator``): the residual within 4 eps of its
        norm and the Gram matrix within 4 eps ny of the identity (measured
        1.2 and 1.0)."""
        grid = fo.FdmGrid(L=1.0, nx=4, ny=ny)
        eps = np.finfo(float).eps
        for fixed in (0, ny, None):
            free = np.ones(ny + 1, dtype=bool)
            if fixed is not None:
                free[fixed] = False
            levels, modes = fo._column_modes(grid, fixed)
            S = ref.end_operator(grid, free)
            assert modes.shape == S.shape == (free.sum(),) * 2
            assert np.all(np.diff(levels) > 0.0)
            norm = np.linalg.norm(S, 2)
            assert np.abs(S @ modes - modes * levels).max() <= 4 * eps * norm
            assert np.abs(modes.T @ modes - np.eye(free.sum())).max() <= 4 * eps * ny

    def test_end_column_must_fix_one_wall_vertex(self, monkeypatch):
        """``build`` refuses an end column whose Dirichlet set is not one
        wall vertex: none, an interior vertex or both walls."""
        geometry = Geometry.from_lambda(0.5)
        grid = fo.FdmGrid.from_spacing(geometry, 1.0 / 8)
        for fixed in ([], [4], [0, 8]):
            mask = np.zeros((grid.nx + 1, grid.ny + 1), dtype=bool)
            mask[0, fixed] = True
            monkeypatch.setattr(fo, "dirichlet_mask", lambda *args, mask=mask: mask)
            with pytest.raises(ValueError, match="one wall vertex"):
                fo.EndColumns.build(ModelKind.A, geometry, grid)


class TestTransparentEnds:
    """The ends eliminate the infinite tails exactly: the bound states
    do not depend on how far the grid reaches beyond the window, and a
    long Dirichlet box reproduces them."""

    CASES = [(ModelKind.A, 0.5, ny) for ny in (8, 32)] + [
        (ModelKind.B, 1.5, ny) for ny in (8, 32)]

    @pytest.mark.parametrize("model,lam,ny", CASES,
                             ids=lambda p: getattr(p, "name", str(p)))
    def test_margin_independent(self, model, lam, ny):
        """The states of the window plus one cell are the reference's on
        grids reaching 2 and 4 cells beyond it, within 1e-12."""
        states = sector_states(model, lam, margin_grid(lam, ny, 1))
        assert len(states[1]) == 1
        assert len(states[-1]) == (1 if model is ModelKind.B else 0)
        merged = sorted(states[1] + states[-1])
        for cells in (2, 4):
            grid = margin_grid(lam, ny, cells)
            full = ref.build(model, Geometry.from_lambda(lam), grid)
            assert ref.count_below(full, full.threshold) == len(merged)
            assert_roots_of(full, merged, rel=1e-12)

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
        box = ref.build_from_mask(grid, mask)
        assert box.ends == ()
        values = [v for v, _ in ref.lowest_eigenpairs(box, len(merged))]
        for value, expected in zip(merged, values):
            assert abs(value - expected) <= 1e-11 * expected

    @pytest.mark.parametrize("ny", [8, 21, 80])
    def test_tail_levels_closed_form(self, ny):
        """A tail column's lumped-mass transverse spectrum is the 1-D
        Dirichlet-Neumann one, t_j = 4/hy^2 sin^2((2j+1) pi hy/4), so the
        threshold is mu_h = 4/hy^2 sin^2(pi hy/4) < mu; an interior
        column's is the Neumann-Neumann one, 4/hy^2 sin^2(m pi hy/2)."""
        hy = 1.0 / ny
        exact = 4.0 / hy**2 * np.sin((2 * np.arange(ny) + 1) * math.pi * hy / 4) ** 2
        chain = 4.0 / hy**2 * np.sin(np.arange(ny + 1) * math.pi * hy / 2) ** 2
        for model, lam in ((ModelKind.A, 0.5), (ModelKind.B, 1.5)):
            ends = reduced(model, lam, fo.FdmGrid.from_spacing(Geometry.from_lambda(lam), hy))
            end, rest = ends.decay_levels[:ny], ends.decay_levels[ny:]
            assert np.allclose(end, exact, rtol=1e-12, atol=0.0)
            assert np.allclose(rest, chain[1:], rtol=1e-12, atol=0.0)
            assert ends.threshold == end[0] < MU

    def test_energy_above_threshold_rejected(self):
        ends = reduced(ModelKind.A, 0.5,
                       fo.FdmGrid.from_spacing(Geometry.from_lambda(0.5), 1.0 / 40))
        for energy in (ends.threshold * (1.0 + 1e-9), 0.0):
            with pytest.raises(ValueError):
                ends.levels([energy], [1])

    def test_unreducible_grid_rejected(self):
        """A grid with Dirichlet vertices between its end columns has no
        reduction to them, and one with hx^2 mu_h >= 4 has a chain mode
        outside the closed forms."""
        with pytest.raises(ValueError, match="between the end columns"):
            reduced(ModelKind.A, 0.5, margin_grid(0.5, 8, 2))
        with pytest.raises(ValueError, match="too coarse"):
            reduced(ModelKind.B, 1.5, fo.FdmGrid(L=3.0, nx=4, ny=2))


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
        (ModelKind.A, 0.5, 1, 34),
        (ModelKind.B, 1.5, 1, 38),
        (ModelKind.B, 1.5, 2, 71),
    ])
    def test_evaluation_budget(self, monkeypatch, model, lam, branch, budget):
        """Junction-level lanes per extrapolation of the benchmark's
        oracle operations: per grid and sector, the window's two ends and
        a few Brent steps per state (measured 27, 27 and 53; one lane per
        evaluation of the scalar loop took 33, 33 and 65).  Each grid
        takes one stacked call per round: no call holds two lanes of one
        sector's chain, and a grid takes as many calls as its longest
        chain has lanes."""
        calls = recorded_levels(monkeypatch)
        fo.extrapolate(model, Geometry.from_lambda(lam), h_list=BENCH_H, branch=branch)
        assert 0 < sum(len(sectors) for _, sectors in calls) <= budget
        grids = {id(ends): [] for ends, _ in calls}
        for ends, sectors in calls:
            assert len(set(sectors)) == len(sectors)
            grids[id(ends)].append(sectors)
        assert len(grids) == len(BENCH_H)
        for grid_calls in grids.values():
            lanes = [s for sectors in grid_calls for s in sectors]
            assert len(grid_calls) == max(lanes.count(s) for s in fo.SECTORS)

    def test_capped_chain_budget(self, monkeypatch):
        """Branch 1 at lambda = 20, where every grid binds 20 states,
        stops each grid's even chain at its first root and runs no odd
        chain: no more lanes than the scalar loop cut by islice
        evaluated (33; measured 27)."""
        calls = recorded_levels(monkeypatch)
        fo.extrapolate(ModelKind.A, Geometry.from_lambda(20.0), h_list=COARSE, branch=1)
        lanes = [s for _, sectors in calls for s in sectors]
        assert set(lanes) == {1}
        assert 0 < len(lanes) <= 33

    @pytest.mark.parametrize("model,lam,count", [
        (ModelKind.A, 0.5, 1),
        (ModelKind.B, 1.5, 1),
        (ModelKind.B, 1.5, 2),
        (ModelKind.A, 2.5, 3),
    ])
    def test_pass_equals_the_scalar_loop(self, model, lam, count):
        """The lockstep pass gives, bit for bit, the states of each
        sector's lazy root loop on the scalar reference level cut by
        islice, and so the benchmark's extrapolations (the first three)."""
        geometry = Geometry.from_lambda(lam)
        expected = ref.bound_spectra(model, geometry, BENCH_H, count)
        assert list(fo.bound_spectra(model, geometry, BENCH_H, count)) == expected
        assert fo.extrapolate(model, geometry, h_list=BENCH_H, branch=count) == fo.richardson(
            [h for h, _ in expected], [states[count - 1] for _, states in expected])

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
        """A branch below 1 fails before any work."""
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(fo.FdmGrid, "from_spacing", no_grid)
        monkeypatch.setattr(fo.EndColumns, "build", no_grid)
        with pytest.raises(ValueError):
            fo.extrapolate(ModelKind.A, Geometry.from_lambda(20.0), branch=0)
