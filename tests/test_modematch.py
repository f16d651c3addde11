"""Tests for the interface-matching solver.

Reference counts come from the geometry's bracketing bounds; coefficient
structure is checked against the exact reflection symmetries of the two
models.  The full 4N x 4N matching matrix of both interfaces, which the
solver reduces to one N x N matrix per parity sector, is kept here as an
independent reference: every counted root must be a null point of it.
Heavier objects (spectra, fields) are shared per module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from wavebound import modematch as mm
from wavebound.bounds import state_count_bounds
from wavebound.geometry import (
    Geometry,
    ModelKind,
    ProfileKind,
    overlap_matrix,
)

MU = math.pi**2 / 4.0


def _assemble_general(profile_I, profile_III, delta, N, E):
    """4N x 4N matching matrix for arbitrary tail families (d = 1 units).

    Row blocks: value continuity at x = -delta projected on the center
    modes, derivative continuity at -delta projected on the tail-I
    modes, and the same two at x = +delta.  Column blocks: a (tail I),
    b (tail III), alpha (center c_m), beta (center s_m).
    """
    k = np.arange(N)
    nu = k + 0.5
    kappa = np.sqrt((nu * math.pi) ** 2 - E)
    rootE = math.sqrt(E)
    gamma = np.sqrt((k[1:] * math.pi) ** 2 - E)

    # unit-scaled center functions and derivatives at the interfaces
    c_minus = np.ones(N)
    c_plus = np.ones(N)
    s_minus = -np.ones(N)
    s_plus = np.ones(N)
    dc_minus = np.empty(N)
    dc_plus = np.empty(N)
    ds_minus = np.empty(N)
    ds_plus = np.empty(N)
    c_minus[0] = c_plus[0] = math.cos(rootE * delta)
    s_plus[0] = math.sin(rootE * delta)
    s_minus[0] = -s_plus[0]
    dc_minus[0] = rootE * math.sin(rootE * delta)
    dc_plus[0] = -dc_minus[0]
    ds_minus[0] = ds_plus[0] = rootE * math.cos(rootE * delta)
    tanh = np.tanh(gamma * delta)
    dc_plus[1:] = gamma * tanh
    dc_minus[1:] = -dc_plus[1:]
    ds_plus[1:] = ds_minus[1:] = gamma / tanh

    O_I = overlap_matrix(profile_I, N)
    O_III = overlap_matrix(profile_III, N)
    r1, r2, r3, r4 = (slice(i * N, (i + 1) * N) for i in range(4))
    ca, cb, cal, cbe = r1, r2, r3, r4
    A = np.zeros((4 * N, 4 * N))
    A[r1, ca] = O_I.T
    A[r1, cal] = -np.diag(c_minus)
    A[r1, cbe] = -np.diag(s_minus)
    A[r2, ca] = np.diag(kappa)
    A[r2, cal] = -O_I * dc_minus[None, :]
    A[r2, cbe] = -O_I * ds_minus[None, :]
    A[r3, cb] = O_III.T
    A[r3, cal] = -np.diag(c_plus)
    A[r3, cbe] = -np.diag(s_plus)
    A[r4, cb] = -np.diag(kappa)
    A[r4, cal] = -O_III * dc_plus[None, :]
    A[r4, cbe] = -O_III * ds_plus[None, :]
    return A


def reference_matrix(model, lam, N, E):
    return _assemble_general(*model.tails, lam, N, E)


@pytest.fixture(scope="module")
def spectrum_a_half():
    """Model A, lam=0.5, N=32, no stability pass (count-level anchor)."""
    return mm.scan_spectrum(
        ModelKind.A, Geometry.from_lambda(0.5), N=32, check_stability=False
    )


@pytest.fixture(scope="module")
def field_a_half(spectrum_a_half):
    E = spectrum_a_half.eigenvalues[0] * MU
    return mm.solve_coefficients(
        ModelKind.A, Geometry.from_lambda(0.5), 32, E, spectrum_a_half.sectors[0]
    )


@pytest.fixture(scope="module")
def field_b_half():
    spec = mm.scan_spectrum(
        ModelKind.B, Geometry.from_lambda(0.5), N=32, check_stability=False
    )
    E = spec.eigenvalues[0] * MU
    return mm.solve_coefficients(
        ModelKind.B, Geometry.from_lambda(0.5), 32, E, spec.sectors[0]
    )


# ---------------------------------------------------------------------------
# sector matrix
# ---------------------------------------------------------------------------


class TestAssemble:
    def test_shape_and_blocks(self):
        for sector in mm.SECTORS:
            M = mm.sector_matrix(ModelKind.A, Geometry.from_lambda(0.5), 8, 0.5 * MU, sector)
            assert M.shape == (8, 8)
            assert np.all(np.isfinite(M))
            assert np.allclose(M, M.T, rtol=0.0, atol=1e-13)

    @given(
        lam=st.floats(0.05, 3.0),
        e_frac=st.floats(1e-6, 1.0 - 1e-6),
        N=st.integers(4, 24),
        model=st.sampled_from(list(ModelKind)),
    )
    @settings(max_examples=40, deadline=None)
    def test_entries_bounded(self, lam, e_frac, N, model):
        """The 4N reference stays well scaled, so its smallest singular
        value is a fair root test: unit-scaled longitudinal functions
        keep every entry below 10 * max(kappa_max, 1/delta, 1), since
        the diagonal carries kappa_k and gamma*coth(gamma*delta) <=
        gamma + 1/delta."""
        A = reference_matrix(model, lam, N, e_frac * MU)
        kappa_top = math.sqrt(((N - 0.5) * math.pi) ** 2 - e_frac * MU)
        bound = 10.0 * max(kappa_top, 1.0 / lam, 1.0)
        assert np.all(np.isfinite(A))
        assert np.max(np.abs(A)) <= bound

    def test_energy_out_of_range_rejected(self):
        geometry = Geometry.from_lambda(0.5)
        for E in (0.0, MU, 1.2 * MU):
            with pytest.raises(ValueError):
                mm.sector_matrix(ModelKind.A, geometry, 8, E, 1)
            with pytest.raises(ValueError):
                mm.count_states(ModelKind.A, geometry, 8, E)

    def test_truncation_out_of_range_rejected(self):
        geometry = Geometry.from_lambda(0.5)
        with pytest.raises(ValueError):
            mm.sector_matrix(ModelKind.A, geometry, 3, 0.5 * MU, 1)
        with pytest.raises(ValueError):
            mm.sector_matrix(ModelKind.A, geometry, 257, 0.5 * MU, 1)

    def test_unknown_sector_rejected(self):
        """Only +1 and -1 name a sector; unchecked, any other value would
        build the odd matrix and, at an odd root, a field with b = 0."""
        geometry = Geometry.from_lambda(2.5)
        spec = mm.scan_spectrum(ModelKind.B, geometry, N=16, check_stability=False)
        assert spec.sectors[1] == -1
        for sector in (0, 2):
            with pytest.raises(ValueError):
                mm.solve_coefficients(
                    ModelKind.B, geometry, 16, spec.eigenvalues[1] * MU, sector
                )

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Geometry(0.0)

    def test_no_rank_deficiency_away_from_roots(self):
        # lam=0.5, N=16, E=0.5*mu sits far from the only eigenvalue
        geometry = Geometry.from_lambda(0.5)
        for sector in mm.SECTORS:
            M = mm.sector_matrix(ModelKind.A, geometry, 16, 0.5 * MU, sector)
            assert np.min(np.abs(np.linalg.eigvalsh(M))) > 1e-3


# ---------------------------------------------------------------------------
# residual min |eig M_s| on and off a root
# ---------------------------------------------------------------------------


class TestDispersion:
    def test_sigma_floor_away_from_root(self, spectrum_a_half):
        geometry = Geometry.from_lambda(0.5)
        root = spectrum_a_half.eigenvalues[0] * MU
        energies = np.linspace(1e-8 * MU, (1.0 - 1e-6) * MU, 200)
        far = energies[np.abs(energies - root) > 0.02 * MU]
        floor = min(
            np.min(np.abs(np.linalg.eigvalsh(
                mm.sector_matrix(ModelKind.A, geometry, 32, float(E), sector))))
            for E in far
            for sector in mm.SECTORS
        )
        assert floor > 1e-4

    def test_sigma_small_at_root(self, spectrum_a_half):
        assert spectrum_a_half.residuals[0] < 1e-8


# ---------------------------------------------------------------------------
# the state count
# ---------------------------------------------------------------------------


class TestCount:
    def test_count_nondecreasing_in_energy(self):
        for model, lam in ((ModelKind.A, 2.5), (ModelKind.B, 2.5)):
            geometry = Geometry.from_lambda(lam)
            energies = np.linspace(1e-8 * MU, (1.0 - 1e-6) * MU, 300)
            for sector in mm.SECTORS:
                counts = [mm.sector_count(model, geometry, 24, float(E), sector)
                          for E in energies]
                assert counts[0] == 0
                assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_count_steps_by_one_across_each_root(self):
        width = mm.REFINE_FRAC * MU
        for model, lam in ((ModelKind.A, 2.5), (ModelKind.B, 2.5), (ModelKind.A, 20.2)):
            geometry = Geometry.from_lambda(lam)
            spec = mm.scan_spectrum(model, geometry, N=32, check_stability=False)
            assert len(spec.eigenvalues) >= 2
            for i, value in enumerate(spec.eigenvalues):
                E = value * MU
                assert mm.count_states(model, geometry, 32, E - width) == i
                assert mm.count_states(model, geometry, 32, E + width) == i + 1

    def test_model_a_count_invariant_under_tail_swap(self, monkeypatch):
        """The x-mirrored model A (tail families swapped) is the same
        problem reflected, so every sector count must coincide."""
        geometry = Geometry.from_lambda(1.7)
        energies = np.random.default_rng(42).uniform(0.01 * MU, 0.99 * MU, 20)
        sector_counts = [[mm.sector_count(ModelKind.A, geometry, 16, float(E), s)
                          for s in mm.SECTORS] for E in energies]
        swap = {ProfileKind.DN_SINE: ProfileKind.ND_COSINE,
                ProfileKind.ND_COSINE: ProfileKind.DN_SINE}
        swapped_tails = tuple(swap[t] for t in ModelKind.A.tails)
        monkeypatch.setattr(ModelKind.A, "tails", swapped_tails)
        swapped = [[mm.sector_count(ModelKind.A, geometry, 16, float(E), s)
                    for s in mm.SECTORS] for E in energies]
        assert swapped == sector_counts
        assert max(map(sum, sector_counts)) >= 1

    @pytest.mark.parametrize("lam", [1.0, 2.0, 20.0])
    def test_count_within_bounds_at_integer_lambda(self, lam):
        """At integer lambda the threshold sits on a pole of Lambda_0."""
        n_min, n_max = state_count_bounds(lam)
        for model in ModelKind:
            spec = mm.scan_spectrum(model, Geometry.from_lambda(lam), N=32,
                                    check_stability=False)
            top = mm.count_states(model, Geometry.from_lambda(lam), 32,
                                  mm.SCAN_HI_FRAC * MU)
            assert top == len(spec.eigenvalues)
            if model is ModelKind.A:
                assert n_min <= top <= n_max

    @given(
        lam=st.floats(0.05, 3.0),
        N=st.integers(4, 24),
        model=st.sampled_from(list(ModelKind)),
    )
    @settings(max_examples=30, deadline=None)
    def test_roots_are_null_points_of_reference_matrix(self, lam, N, model):
        geometry = Geometry.from_lambda(lam)
        spec = mm.scan_spectrum(model, geometry, N=N, check_stability=False)
        for value, sector in zip(spec.eigenvalues, spec.sectors):
            E = value * MU
            A = reference_matrix(model, lam, N, E)
            assert svdvals(A)[-1] < 1e-6
            field = mm.solve_coefficients(model, geometry, N, E, sector)
            v = np.concatenate([field.a, field.b, field.alpha, field.beta])
            assert np.linalg.norm(A @ v) < 1e-6 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# root refinement: isolation by count, then Brent
# ---------------------------------------------------------------------------


def _bisected_sector_roots(model, geometry, N, sector):
    """Reference: each root of the sector as the midpoint of a count
    bracket halved to REFINE_FRAC * mu, the next search starting from the
    lower end of the previous bracket."""
    tol = mm.REFINE_FRAC * MU
    lo, hi = mm.SCAN_LO_FRAC * MU, mm.SCAN_HI_FRAC * MU

    def count(E):
        return mm.sector_count(model, geometry, N, E, sector)

    roots = []
    for below in range(count(lo), count(hi)):
        top = hi
        while top - lo > tol:
            mid = 0.5 * (lo + top)
            if count(mid) > below:
                top = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + top))
    return roots


def _scan_evaluations(monkeypatch, model, lam):
    """Sector-matrix evaluations of one ungated scan at N=64."""
    calls = []
    original = mm.sector_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mm, "sector_matrix", counted)
    mm.scan_spectrum(model, Geometry.from_lambda(lam), N=64, check_stability=False)
    return len(calls)


class TestRefinement:
    @pytest.mark.parametrize("model,lam,budget", [
        (ModelKind.A, 0.5, 16),
        (ModelKind.B, 2.5, 45),
        (ModelKind.A, 20.2, 300),
    ])
    def test_evaluation_budget(self, monkeypatch, model, lam, budget):
        """Brent refinement against the count bisection, which took 39,
        109 and 690 evaluations."""
        assert 0 < _scan_evaluations(monkeypatch, model, lam) <= budget

    @pytest.mark.parametrize("model,lam,budget", [
        (ModelKind.A, 0.5, 14),
        (ModelKind.B, 2.5, 38),
        (ModelKind.A, 20.2, 257),
    ])
    def test_bracket_ends_not_reevaluated(self, monkeypatch, model, lam, budget):
        """Brent reuses the eigenvalues the count computed at each bracket
        end; rebuilding M_s there took 14, 39 and 279 evaluations."""
        assert 0 < _scan_evaluations(monkeypatch, model, lam) <= budget

    @pytest.mark.parametrize("model,lam", [
        (ModelKind.A, 1.0),
        (ModelKind.A, 2.0),
        (ModelKind.A, 20.0),
        (ModelKind.B, 2.0),
    ])
    def test_roots_next_to_poles_match_count_bisection(self, model, lam):
        """At integer lambda roots sit next to poles of Lambda_0; the
        refined roots match the count bisection and carry the count
        certificate at the refinement width."""
        geometry = Geometry.from_lambda(lam)
        width = mm.REFINE_FRAC * MU
        refined = []
        for sector in mm.SECTORS:
            roots = sorted(mm._sector_roots(model, geometry, 64, sector))
            reference = _bisected_sector_roots(model, geometry, 64, sector)
            assert len(roots) == len(reference)
            assert np.max(np.abs(np.subtract(roots, reference)), initial=0.0) <= width
            refined += roots
        assert refined
        for i, E in enumerate(sorted(refined)):
            assert mm.count_states(model, geometry, 64, E - width) == i
            assert mm.count_states(model, geometry, 64, E + width) == i + 1


# ---------------------------------------------------------------------------
# scan_spectrum
# ---------------------------------------------------------------------------


class TestScanSpectrum:
    def test_model_a_half_exactly_one(self, spectrum_a_half):
        assert len(spectrum_a_half.eigenvalues) == 1
        # no state between the scan window and mu is left unreported
        below_mu = mm.count_states(ModelKind.A, Geometry.from_lambda(0.5),
                                   spectrum_a_half.N, (1.0 - 1e-9) * MU)
        assert below_mu == len(spectrum_a_half.eigenvalues)

    def test_model_a_twenty_percent_empty(self):
        spec = mm.scan_spectrum(
            ModelKind.A, Geometry.from_lambda(0.20), N=32, check_stability=False
        )
        assert spec.eigenvalues == ()

    def test_model_b_half_at_least_one(self):
        spec = mm.scan_spectrum(
            ModelKind.B, Geometry.from_lambda(0.5), N=32, check_stability=False
        )
        assert len(spec.eigenvalues) >= 1

    def test_model_a_near_critical_close_to_threshold(self):
        spec = mm.scan_spectrum(
            ModelKind.A, Geometry.from_lambda(0.27), N=32, check_stability=False
        )
        assert len(spec.eigenvalues) == 1
        assert spec.eigenvalues[0] > 0.9

    def test_eigenvalues_strictly_inside_and_sorted(self):
        spec = mm.scan_spectrum(
            ModelKind.A, Geometry.from_lambda(1.5), N=32, check_stability=False
        )
        values = spec.eigenvalues
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_count_within_bracketing_bounds(self):
        for lam in (0.5, 1.5, 2.5):
            spec = mm.scan_spectrum(
                ModelKind.A, Geometry.from_lambda(lam), N=32, check_stability=False
            )
            n_min, n_max = state_count_bounds(lam)
            assert n_min <= len(spec.eigenvalues) <= n_max

    def test_stability_flag_at_production_truncation(self):
        spec = mm.scan_spectrum(ModelKind.A, Geometry.from_lambda(0.5), N=64)
        assert len(spec.eigenvalues) == 1
        assert spec.stable == (True,)


# ---------------------------------------------------------------------------
# the parity sector recorded per eigenvalue
# ---------------------------------------------------------------------------


class TestSectorRecord:
    @pytest.mark.parametrize("model,lam", [
        (ModelKind.A, 0.5),
        (ModelKind.B, 2.5),
        (ModelKind.A, 2.0),  # roots next to poles take the midpoint path
        (ModelKind.A, 20.2),
    ])
    def test_each_eigenvalue_steps_its_own_sector_count(self, model, lam):
        geometry = Geometry.from_lambda(lam)
        spec = mm.scan_spectrum(model, geometry, N=64, check_stability=False)
        width = mm.REFINE_FRAC * MU
        assert len(spec.sectors) == len(spec.eigenvalues) >= 1
        assert spec.sectors[0] == 1  # the ground state is even (Perron-Frobenius)
        for value, sector in zip(spec.eigenvalues, spec.sectors):
            assert sector in mm.SECTORS
            E = value * MU
            below = mm.sector_count(model, geometry, 64, E - width, sector)
            assert mm.sector_count(model, geometry, 64, E + width, sector) == below + 1

    def test_wrong_sector_rejected(self, spectrum_a_half):
        E = spectrum_a_half.eigenvalues[0] * MU
        with pytest.raises(ValueError):
            mm.solve_coefficients(ModelKind.A, Geometry.from_lambda(0.5), 32, E, -1)

    def test_field_costs_the_scan_plus_three_evaluations(self, monkeypatch):
        """Two counts certify the root in its recorded sector and one
        eigendecomposition gives the null vector."""
        calls = []
        original = mm.sector_matrix

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mm, "sector_matrix", counted)
        mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), branch=1, N=64)
        assert 0 < len(calls) <= 17


# ---------------------------------------------------------------------------
# solve_coefficients / evaluate_field
# ---------------------------------------------------------------------------


class TestEigenField:
    def test_model_a_reflection_symmetry(self, field_a_half):
        k = np.arange(field_a_half.N)
        a, b = field_a_half.a, field_a_half.b
        mask = np.abs(a) > 1e-8
        signed = (-1.0) ** k * a
        s = b[0] / signed[0]
        assert abs(abs(s) - 1.0) < 1e-8
        assert np.max(np.abs(b[mask] - s * signed[mask])) < 1e-8

    def test_model_b_even_parity(self, field_b_half):
        f = field_b_half
        scale = max(np.abs(f.a).max(), np.abs(f.alpha).max())
        even = np.abs(f.beta).max() < 1e-8 * scale and np.max(np.abs(f.b - f.a)) < 1e-8
        odd = np.abs(f.alpha).max() < 1e-8 * scale and np.max(np.abs(f.b + f.a)) < 1e-8
        assert even or odd
        assert even  # the lowest state is even in x

    def test_unit_norm_independent_quadrature(self, field_a_half):
        """Gauss-Legendre over a wide box reproduces the unit norm."""
        total = 0.0
        for lo, hi, nx in ((-20.0, -0.5, 600), (-0.5, 0.5, 200), (0.5, 20.0, 600)):
            xs, wx = np.polynomial.legendre.leggauss(nx)
            xs = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
            wx = 0.5 * (hi - lo) * wx
            ys, wy = np.polynomial.legendre.leggauss(120)
            ys = 0.5 * ys + 0.5
            wy = 0.5 * wy
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            V = mm.evaluate_field(field_a_half, X.ravel(), Y.ravel()).reshape(X.shape)
            total += np.einsum("i,j,ij->", wx, wy, V**2)
        assert abs(total - 1.0) < 1e-6

    def test_not_at_root_rejected(self):
        for sector in mm.SECTORS:
            with pytest.raises(ValueError):
                mm.solve_coefficients(
                    ModelKind.A, Geometry.from_lambda(0.5), 16, 0.5 * MU, sector
                )

    def test_dirichlet_side_exact_zero(self, field_a_half):
        xs = np.array([-0.6, -1.0, -3.0])
        vals = mm.evaluate_field(field_a_half, xs, np.zeros_like(xs))
        assert np.all(vals == 0.0)

    def test_neumann_side_small_normal_derivative(self, field_a_half):
        h = 1e-6
        xs = np.linspace(-0.49, 3.0, 120)
        up = mm.evaluate_field(field_a_half, xs, np.full_like(xs, h))
        lo = mm.evaluate_field(field_a_half, xs, np.zeros_like(xs))
        assert np.abs((up - lo) / h).max() < 1e-3

    def test_outside_strip_rejected(self, field_a_half):
        with pytest.raises(ValueError):
            mm.evaluate_field(field_a_half, 0.0, 1.5)
        with pytest.raises(ValueError):
            mm.evaluate_field(field_a_half, 0.0, -0.1)

    def test_interface_jump_small_and_decreasing(self, field_a_half):
        """Value continuity holds in the L2 sense up to the truncation
        tail (the corner singularity limits the rate to O(1/N))."""
        geometry = Geometry.from_lambda(0.5)
        ys = np.linspace(0.0, 1.0, 2001)

        def jump(field):
            left = mm.evaluate_field(field, np.full_like(ys, -0.5 - 1e-12), ys)
            right = mm.evaluate_field(field, np.full_like(ys, -0.5 + 1e-12), ys)
            return math.sqrt(np.trapezoid((left - right) ** 2, ys))

        spec16 = mm.scan_spectrum(ModelKind.A, geometry, N=16, check_stability=False)
        field16 = mm.solve_coefficients(
            ModelKind.A, geometry, 16, spec16.eigenvalues[0] * MU, spec16.sectors[0]
        )
        j16, j32 = jump(field16), jump(field_a_half)
        assert j32 < 1e-2
        assert j32 < 0.7 * j16

    def test_solve_field_missing_branch(self):
        with pytest.raises(LookupError):
            mm.solve_field(ModelKind.A, Geometry.from_lambda(0.2), branch=1, N=16)
