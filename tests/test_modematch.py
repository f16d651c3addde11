"""Tests for the interface-matching solver.

Reference counts come from the geometry's bracketing bounds and from the
Wittrick-Williams count of the sector matrix (``matching_reference``),
which the junction phase must reproduce; coefficient structure is checked
against the exact reflection symmetries of the two models.  The full
4N x 4N matching matrix of both interfaces, which the solver reduces to
one N x N matrix per parity sector, is kept here as an independent
reference: every counted root must be a null point of it.  Heavier
objects (spectra, fields) are shared per module.
"""

import math
import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

import field_reference
import matching_reference as ref
from roots_reference import level_roots
from wavebound import modematch as mm
from wavebound.bounds import state_count_bounds
from wavebound.geometry import (
    Geometry,
    ModelKind,
    ProfileKind,
    overlap_matrix,
)
from wavebound.roots import STACK_DOUBLES, drive

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


def _phase(model, geometry, N, E, sector):
    """(phi_s(E), L) of one lane of the stacked ``sector_phase``."""
    return next(mm.sector_phase(model, N, [E], [geometry.delta], [sector]))


def _distance_to_target(model, geometry, N, E, sector):
    """|phi_s(E) - target_k| in radians for the nearest state k >= 0."""
    level = ref.level(model, geometry, N, E, sector)
    return math.pi * abs(level - max(round(level), 0))


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
        """The phase's bordered factor L gives y = L_R^-T L_R^-1 o, which
        solves the rank-one split of the sector matrix,
        R_s y = (M_s + Lambda_0 o o^T) y = o."""
        geometry = Geometry.from_lambda(0.5)
        E = 0.5 * MU
        o = overlap_matrix(ModelKind.A.tails[0], 8)[:, 0]
        for sector in mm.SECTORS:
            M = ref.sector_matrix(ModelKind.A, geometry, 8, E, sector)
            assert M.shape == (8, 8)
            assert np.all(np.isfinite(M))
            assert np.allclose(M, M.T, rtol=0.0, atol=1e-13)
            phase, L = _phase(ModelKind.A, geometry, 8, E, sector)
            assert L.shape == (9, 9) and math.isfinite(phase)
            y = np.linalg.solve(L[:8, :8].T, L[8, :8])
            is_cos = mm._center_is_cos(ModelKind.A, sector, 8)
            f, df = mm._center_at_interface(is_cos, geometry.delta, E)
            R = M + (df[0] / f[0]) * np.outer(o, o)
            assert np.allclose(R @ y, o, rtol=0.0, atol=1e-12)
            g = o @ y
            assert g > 0.0
            assert phase == pytest.approx(
                math.sqrt(E) * 0.5 - math.atan(1.0 / (math.sqrt(E) * g)), abs=1e-14)

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
        """The phase accepts E in (0, mu], the threshold included."""
        geometry = Geometry.from_lambda(0.5)
        for E in (0.0, -0.1, math.nextafter(MU, math.inf), 1.2 * MU):
            with pytest.raises(ValueError):
                _phase(ModelKind.A, geometry, 8, E, 1)
            with pytest.raises(ValueError):
                mm.count_states(ModelKind.A, geometry, 8, E)
        assert math.isfinite(_phase(ModelKind.A, geometry, 8, MU, 1)[0])
        assert mm.count_states(ModelKind.A, geometry, 8, MU) == 1

    def test_truncation_out_of_range_rejected(self):
        geometry = Geometry.from_lambda(0.5)
        with pytest.raises(ValueError):
            _phase(ModelKind.A, geometry, 3, 0.5 * MU, 1)
        with pytest.raises(ValueError):
            _phase(ModelKind.A, geometry, 257, 0.5 * MU, 1)

    def test_unknown_sector_rejected(self):
        """Only +1 and -1 name a sector; unchecked, any other value would
        build the odd matrix and, at an odd root, a field with b = 0."""
        geometry = Geometry.from_lambda(2.5)
        spec = mm.scan_spectrum(ModelKind.B, geometry, N=16, check_stability=False)
        assert spec.sectors[1] == -1
        for sector in (0, 2):
            with pytest.raises(ValueError):
                _phase(ModelKind.B, geometry, 16, 0.5 * MU, sector)
            with pytest.raises(ValueError):
                mm.solve_coefficients(
                    ModelKind.B, geometry, 16, spec.eigenvalues[1] * MU, sector
                )

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Geometry(0.0)

    def test_no_rank_deficiency_away_from_roots(self):
        """lam=0.5, N=16, E=0.5*mu sits far from the only eigenvalue: the
        sector matrix is regular there, and the phase is far from every
        state's target."""
        geometry = Geometry.from_lambda(0.5)
        for sector in mm.SECTORS:
            M = ref.sector_matrix(ModelKind.A, geometry, 16, 0.5 * MU, sector)
            assert np.min(np.abs(np.linalg.eigvalsh(M))) > 1e-3
            assert _distance_to_target(ModelKind.A, geometry, 16, 0.5 * MU, sector) > 3e-2


# ---------------------------------------------------------------------------
# the memoised energy-independent operands of the phase
# ---------------------------------------------------------------------------


class TestPhaseOperands:
    @pytest.mark.parametrize("N", [4, 8, 32, 33, 64, 65, 72, 99, 100, 256])
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.name)
    def test_bit_identical_to_the_reference(self, model, N):
        """Memoising the operands and stacking the lanes keep every
        operation and its order: in one call whose lanes mix both sectors
        and windows on both sides of the cut, each lane's phase and factor
        equal the reference's, assembled from scratch for that lane alone,
        bit for bit, from the bottom of the scan window to mu itself (33
        and 100 are sizes where a contiguous copy of O[:, 1:]^T moves bits;
        from N = 64 on a call stacks several chunks)."""
        energies = np.geomspace(mm.SCAN_LO_FRAC, 1.0, 9) * MU
        assert energies[-1] == MU
        lanes = [(float(E), lam, sector)
                 for lam in (0.2634, 0.5, 2.5, 6.9, mm.WIDE_LAMBDA, 20.2, 1000.0)
                 for sector in mm.SECTORS for E in energies]
        lanes = [lanes[i] for i in np.random.default_rng(N).permutation(len(lanes))]
        E, delta, sectors = (list(column) for column in zip(*lanes))
        stacked = list(mm.sector_phase(model, N, E, delta, sectors))
        assert len(stacked) == len(lanes)
        for (phase, L), (e, lam, sector) in zip(stacked, lanes):
            ref_phase, ref_L = ref.sector_phase(model, Geometry.from_lambda(lam), N, e, sector)
            assert phase == ref_phase
            assert np.array_equal(L, ref_L)

    def test_stack_stays_within_its_budget(self):
        """A request of 200 lanes at N = 256 stacks one lane at a time (a
        bordered matrix there outgrows ``roots.STACK_DOUBLES``), not 200 (106
        MB of bordered matrices): its traced peak, the bordered matrix, the
        factorization's copy and its factor, the previous factor and the
        matrix product's operand, stays within five such matrices
        (measured 2.2 MB)."""
        N, lanes = 256, 200
        budget = 5 * 8 * max(STACK_DOUBLES, (N + 1) ** 2)
        E = list(np.linspace(0.1, 1.0, lanes) * MU)
        next(mm.sector_phase(ModelKind.A, N, E[:1], [0.5], [1]))  # fill the memo
        tracemalloc.start()
        try:
            phases = [phase for phase, _ in
                      mm.sector_phase(ModelKind.A, N, E, [0.5] * lanes, [1, -1] * (lanes // 2))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(phases) == lanes
        assert peak <= budget

    def test_memo_follows_the_tail_family(self, monkeypatch):
        """The memo is keyed on the tail family as well as the model:
        swapping model A's tails changes the factor at the same E, N and
        sector."""
        geometry = Geometry.from_lambda(1.7)
        E = 0.6 * MU
        before = [_phase(ModelKind.A, geometry, 16, E, s)[1] for s in mm.SECTORS]
        swap = {ProfileKind.DN_SINE: ProfileKind.ND_COSINE,
                ProfileKind.ND_COSINE: ProfileKind.DN_SINE}
        monkeypatch.setattr(ModelKind.A, "tails", tuple(swap[t] for t in ModelKind.A.tails))
        for sector, L in zip(mm.SECTORS, before):
            swapped = _phase(ModelKind.A, geometry, 16, E, sector)
            assert not np.array_equal(swapped[1], L)
            assert np.array_equal(
                swapped[1], ref.sector_phase(ModelKind.A, geometry, 16, E, sector)[1])

    def test_memoised_arrays_read_only(self):
        operands = mm._sector_operands(ModelKind.B.tails[0], ModelKind.B, 8)
        assert len(operands) == 5
        for array in operands:
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert operands is mm._sector_operands(ModelKind.B.tails[0], ModelKind.B, 8)


# ---------------------------------------------------------------------------
# residual |phi_s - target_k| on and off a root
# ---------------------------------------------------------------------------


class TestDispersion:
    def test_sigma_floor_away_from_root(self, spectrum_a_half):
        """Away from the root the phase keeps clear of every target, up
        to mu itself; the sector matrix stays regular below mu."""
        geometry = Geometry.from_lambda(0.5)
        root = spectrum_a_half.eigenvalues[0] * MU
        energies = np.linspace(1e-8 * MU, MU, 200)
        far = energies[np.abs(energies - root) > 0.02 * MU]
        floor = min(
            _distance_to_target(ModelKind.A, geometry, 32, float(E), sector)
            for E in far
            for sector in mm.SECTORS
        )
        assert floor > 1e-3
        matrix_floor = min(
            np.min(np.abs(np.linalg.eigvalsh(
                ref.sector_matrix(ModelKind.A, geometry, 32, float(E), sector))))
            for E in far[:-1]
            for sector in mm.SECTORS
        )
        assert matrix_floor > 1e-4

    def test_sigma_small_at_root(self, spectrum_a_half):
        assert spectrum_a_half.residuals[0] < 1e-8
        E = spectrum_a_half.eigenvalues[0] * MU
        assert spectrum_a_half.residuals[0] == _distance_to_target(
            ModelKind.A, Geometry.from_lambda(0.5), 32, E, spectrum_a_half.sectors[0])


# ---------------------------------------------------------------------------
# the state count
# ---------------------------------------------------------------------------


class TestCount:
    def test_count_nondecreasing_in_energy(self):
        for model, lam in ((ModelKind.A, 2.5), (ModelKind.B, 2.5)):
            geometry = Geometry.from_lambda(lam)
            energies = np.linspace(1e-8 * MU, MU, 300)
            for sector in mm.SECTORS:
                counts = [ref.phase_count(model, geometry, 24, float(E), sector)
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
        sector_counts = [[ref.phase_count(ModelKind.A, geometry, 16, float(E), s)
                          for s in mm.SECTORS] for E in energies]
        swap = {ProfileKind.DN_SINE: ProfileKind.ND_COSINE,
                ProfileKind.ND_COSINE: ProfileKind.DN_SINE}
        swapped_tails = tuple(swap[t] for t in ModelKind.A.tails)
        monkeypatch.setattr(ModelKind.A, "tails", swapped_tails)
        swapped = [[ref.phase_count(ModelKind.A, geometry, 16, float(E), s)
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
            top = mm.count_states(model, Geometry.from_lambda(lam), 32, MU)
            assert top == len(spec.eigenvalues)
            if model is ModelKind.A:
                assert n_min <= top <= n_max

    @pytest.mark.parametrize("lam,states", [(1.0, 1), (2.0, 2), (20.0, 20)])
    def test_count_at_threshold_exact(self, lam, states):
        """The count at E = mu itself equals the states the scan reports
        and the reference count just below mu.  At integer lambda a pole
        of Lambda_0 sits on mu, and the pole formula counted it as a
        state there (21 at lambda = 20)."""
        geometry = Geometry.from_lambda(lam)
        spec = mm.scan_spectrum(ModelKind.A, geometry, N=64, check_stability=False)
        top = mm.count_states(ModelKind.A, geometry, 64, MU)
        below = sum(ref.sector_count(ModelKind.A, geometry, 64, (1.0 - 1e-9) * MU, s)
                    for s in mm.SECTORS)
        assert top == below == len(spec.eigenvalues) == states

    @pytest.mark.slow
    def test_phase_count_equals_reference(self):
        """Stop rule of the phase: its sector count equals the reference's
        neg(M_s) + poles on every probe, and R_s has a Cholesky factor at
        every probe and at mu.  The probes keep off the poles of
        Lambda_0, where M_s is undefined; at one (lambda = 20,
        E = 0.01 mu, odd sector) the reference counts the pole and the
        crossing it causes as two states, the phase one."""
        fractions = np.concatenate([(np.arange(48) + 0.5) / 48,
                                    1.0 - np.geomspace(10**-2.5, 1e-7, 15)])
        mismatches = []
        for model in ModelKind:
            for lam in (0.1, 0.2634, 0.5, 1.0, 1.5, 2.5, 20.0, 20.2):
                geometry = Geometry.from_lambda(lam)
                for N in (16, 64, 256):
                    for sector in mm.SECTORS:
                        assert math.isfinite(
                            _phase(model, geometry, N, MU, sector)[0])
                        for E in fractions * MU:
                            pole = math.sqrt(E) * lam / math.pi + (1 + sector) / 4
                            assert abs(pole - round(pole)) > 1e-9
                            phase = ref.phase_count(model, geometry, N, E, sector)
                            expected = ref.sector_count(model, geometry, N, E, sector)
                            if phase != expected:
                                mismatches.append((model, lam, N, sector, E))
        assert mismatches == []

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
    """Reference: each root of the sector below (1 - 1e-9) mu as the
    midpoint of a bracket of the reference count halved to
    REFINE_FRAC * mu, the next search starting from the lower end of the
    previous bracket."""
    tol = mm.REFINE_FRAC * MU
    lo, hi = mm.SCAN_LO_FRAC * MU, (1.0 - 1e-9) * MU

    def count(E):
        return ref.sector_count(model, geometry, N, E, sector)

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


def _count_lanes(monkeypatch) -> list:
    """The list to which every later ``sector_phase`` call appends its
    number of lanes (phase evaluations, one factorization each)."""
    calls = []
    original = mm.sector_phase

    def counted(model, N, E, delta, sector):
        calls.append(len(E))
        return original(model, N, E, delta, sector)

    monkeypatch.setattr(mm, "sector_phase", counted)
    return calls


def _scan_evaluations(monkeypatch, model, lam, check_stability=False):
    """Phase evaluations of one scan at N=64, ungated unless
    ``check_stability``, with the wide-window phase and difference tables
    built afresh."""
    calls = _count_lanes(monkeypatch)
    mm._phase_table.cache_clear()
    mm._phase_difference.cache_clear()
    mm.scan_spectrum(model, Geometry.from_lambda(lam), N=64,
                     check_stability=check_stability)
    return sum(calls)


class TestRefinement:
    @pytest.mark.parametrize("model,lam,budget", [
        (ModelKind.A, 0.5, 16),
        (ModelKind.B, 2.5, 45),
        (ModelKind.A, 20.2, 300),
    ])
    def test_evaluation_budget(self, monkeypatch, model, lam, budget):
        """Brent refinement of the phase, against the count bisection of
        the sector matrix, which took 39, 109 and 690 evaluations."""
        assert 0 < _scan_evaluations(monkeypatch, model, lam) <= budget

    @pytest.mark.parametrize("model,lam,budget", [
        (ModelKind.A, 0.5, 14),
        (ModelKind.B, 2.5, 38),
        (ModelKind.A, 20.2, 257),
    ])
    def test_bracket_ends_not_reevaluated(self, monkeypatch, model, lam, budget):
        """Each phase is computed once: the count at the window's ends,
        Brent's bracket ends (the previous root and mu) and the residual
        at a root reuse it."""
        assert 0 < _scan_evaluations(monkeypatch, model, lam) <= budget

    @pytest.mark.parametrize("model,lam,budget", [
        (ModelKind.A, 0.5, 12),
        (ModelKind.B, 2.5, 28),
    ])
    def test_gated_evaluation_budget(self, monkeypatch, model, lam, budget):
        """The stability gate costs one evaluation at N + 8 per state when
        the level's slope bound decides it (13 and 31 evaluations with two
        counts per state)."""
        assert 0 < _scan_evaluations(monkeypatch, model, lam, True) <= budget

    @pytest.mark.parametrize("check_stability,budget", [
        (False, (mm.THETA_INTERVALS + 1) + 20),
        (True, (mm.THETA_INTERVALS + 1)
         + (mm.THETA_INTERVALS // mm.DIFFERENCE_STRIDE + 1) + 20),
    ])
    def test_wide_window_budget(self, monkeypatch, check_stability, budget):
        """Above the cut the 20 states of A at lambda = 20.2 cost one
        phase table (gated, plus the difference table's 5 evaluations at
        N + 8) and one exact evaluation each, against 111 evaluations (151
        gated) of the Brent chains and 54 gated with a full table at N + 8."""
        evaluations = _scan_evaluations(monkeypatch, ModelKind.A, 20.2, check_stability)
        assert 0 < evaluations <= budget

    @pytest.mark.parametrize("model,lam", [
        (ModelKind.A, 1.0),
        (ModelKind.A, 2.0),
        (ModelKind.A, 20.0),
        (ModelKind.B, 2.0),
    ])
    def test_roots_next_to_poles_match_count_bisection(self, model, lam):
        """At integer lambda roots sit next to poles of Lambda_0; the
        refined roots match the bisection of the reference count and
        carry the count certificate at the refinement width."""
        geometry = Geometry.from_lambda(lam)
        width = mm.REFINE_FRAC * MU
        refined = []
        spec = mm.scan_spectrum(model, geometry, N=64, check_stability=False)
        for sector in mm.SECTORS:
            roots = [value * MU for value, s in zip(spec.eigenvalues, spec.sectors)
                     if s == sector]
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
        # no state below mu is left unreported
        below_mu = mm.count_states(ModelKind.A, Geometry.from_lambda(0.5),
                                   spectrum_a_half.N, MU)
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


#: the windows below the cut on which the lockstep scan is checked
NARROW_GRID = [round(0.10 + 0.05 * i, 2) for i in range(138)]  # 0.10 ... 6.95


def _gate_costs(model, geometry, N, E, sector):
    """Evaluations at N + 8 that the stability gate of a root costs when it
    probes the end nearer in level first, and when it probes lo first."""
    level = partial(ref.level, model, geometry, mm._bumped(N), sector=sector)
    flag_steps = mm._stable_steps(geometry.delta, E)
    assert next(flag_steps) == E
    at_root = level(E)
    try:
        flag_steps.send(at_root)
    except StopIteration:
        return 1, 1  # the slope bound decides
    j = math.floor(at_root)
    drift = mm.STABLE_DRIFT_FRAC * MU
    lo_decides = level(max(E - drift, mm.SCAN_LO_FRAC * MU)) < j
    hi_decides = level(min(E + drift, MU)) >= j + 1
    nearer_decides = hi_decides if at_root - j >= 0.5 else lo_decides
    return 2 if nearer_decides else 3, 2 if lo_decides else 3


class TestLockstep:
    @pytest.mark.slow
    @pytest.mark.parametrize("N", [8, 32, 64])
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.name)
    def test_matches_the_per_window_chains(self, monkeypatch, model, N):
        """The chains of 138 windows (lambda = 0.10 ... 6.95), both
        sectors, advanced in lockstep, give each window's Brent chains run
        on their own bit for bit, energies, sectors, residuals and flags,
        at exactly their number of phase evaluations; each round costs one
        stacked call."""
        geometries = [Geometry.from_lambda(lam) for lam in NARROW_GRID]
        calls = _count_lanes(monkeypatch)
        spectra = mm.scan_spectra(model, geometries, N, check_stability=False)
        rounds, lanes = len(calls), sum(calls)
        gated = mm.scan_spectra(model, geometries, N)
        evaluations = []
        for geometry, spec, flagged in zip(geometries, spectra, gated):
            roots, flags = _brent_spectrum(model, geometry, N, evaluations)
            assert spec.eigenvalues == tuple(E / MU for E, _, _ in roots)
            assert spec.sectors == tuple(s for _, s, _ in roots)
            assert spec.residuals == tuple(r for _, _, r in roots)
            assert (flagged.eigenvalues, flagged.residuals) == (spec.eigenvalues, spec.residuals)
            assert flagged.stable == flags
        assert lanes == sum(evaluations)
        assert rounds == max(evaluations)  # a chain's evaluations, one per round

    def test_gate_probes_the_nearer_end(self, monkeypatch):
        """Below the cut at N = 8 most roots need an exact probe; probing
        the end nearer in level first saves one evaluation on 212 of the
        1,052 roots of A and B at lambda = 0.10 ... 6.95, and the gate's
        evaluations are the three rounds' lanes."""
        nearer = lo_first = 0
        for model in ModelKind:
            geometries = [Geometry.from_lambda(lam) for lam in NARROW_GRID]
            calls = _count_lanes(monkeypatch)
            mm.scan_spectra(model, geometries, 8, check_stability=False)
            ungated = sum(calls)
            calls.clear()
            spectra = mm.scan_spectra(model, geometries, 8)
            gate = sum(calls) - ungated
            costs = [_gate_costs(model, geometry, 8, value * MU, sector)
                     for geometry, spec in zip(geometries, spectra)
                     for value, sector in zip(spec.eigenvalues, spec.sectors)]
            assert gate == sum(c for c, _ in costs)
            nearer += gate
            lo_first += sum(c for _, c in costs)
            monkeypatch.undo()
        assert lo_first - nearer == 212


# ---------------------------------------------------------------------------
# wide windows: one tabulated junction phase
# ---------------------------------------------------------------------------


def _node_g(model, lam, N, E, sector):
    """g = z.z from the last row of sector_phase's factor."""
    z = _phase(model, Geometry.from_lambda(lam), N, E, sector)[1][N, :N]
    return z @ z


def _brent_spectrum(model, geometry, N, evaluations=None):
    """(E, sector, residual) of each root of one window's Brent chains and
    its stability flag, as below the cut, each chain on its own: one
    memoised scalar level per sector (one lane per call), driven by
    ``roots.level_roots``, and each flag ``_stable_steps`` driven by the
    scalar level at N + 8.  Appends the chains' evaluation count to
    ``evaluations`` when given."""
    roots = []
    for sector in mm.SECTORS:
        level = lru_cache(maxsize=None)(partial(ref.level, model, geometry, N, sector=sector))
        roots += [(E, sector, math.pi * abs(level(E) - k)) for k, E in
                  level_roots(level, mm.SCAN_LO_FRAC * MU, MU, mm.REFINE_FRAC * MU)]
        if evaluations is not None:
            evaluations.append(level.cache_info().misses)
    roots.sort()
    return roots, tuple(
        drive(mm._stable_steps(geometry.delta, E),
              partial(ref.level, model, geometry, mm._bumped(N), sector=s))
        for E, s, _ in roots)


class TestWideWindow:
    def test_cut_value(self):
        cut = mm.WIDE_LAMBDA
        assert abs(cut - 6.97995) <= 1e-5
        gamma_1 = np.sqrt((np.arange(2) * math.pi)[1:] ** 2 - MU)  # as sector_phase
        assert np.tanh(gamma_1 * cut)[0] == 1.0
        assert np.tanh(gamma_1 * np.nextafter(cut, 0.0))[0] < 1.0

    @pytest.mark.parametrize("N", [8, 64, 256])
    @pytest.mark.parametrize("lam", ["cut", 7.0, 20.2, 1000.0])
    def test_cut_is_exact(self, lam, N):
        """At every table node, from the cut on, g is bitwise the same in
        both sectors and both models, and equals the table's."""
        lam = mm.WIDE_LAMBDA if lam == "cut" else lam
        _, energies, theta = mm._phase_table(ModelKind.A.tails[0], N)
        for E, expected in zip(energies.tolist(), theta.tolist()):
            gs = {_node_g(model, lam, N, E, sector)
                  for model in ModelKind for sector in mm.SECTORS}
            assert len(gs) == 1
            assert math.atan2(1.0, math.sqrt(E) * gs.pop()) == expected

    def test_cut_is_not_loose(self):
        _, energies, _ = mm._phase_table(ModelKind.A.tails[0], 64)
        differs = any(
            len({_node_g(model, 6.9, 64, E, sector)
                 for model in ModelKind for sector in mm.SECTORS}) > 1
            for E in energies.tolist())
        assert differs

    @pytest.mark.parametrize("N", [8, 32, 64, 128, 256])
    def test_interpolation_at_midpoints(self, N):
        """At THETA_INTERVALS = 16 (17 nodes) the interpolant misses the
        exact theta by at most 2.96e-12 rad at the midpoints (in t) between
        nodes for every N here (3.9e-10 at 12 intervals, 5e-15 at 20);
        the bound is 5e-12 rad."""
        assert mm.THETA_INTERVALS == 16
        table = mm._phase_table(ProfileKind.DN_SINE, N)
        t = table[0]
        mids = 0.5 * (t[1:] + t[:-1])
        approx = mm._interpolate_theta(table, mids)
        for value, angle in zip(approx.tolist(), mids.tolist()):
            E = MU * math.sin(angle) ** 2
            exact = math.atan2(1.0, math.sqrt(E) * _node_g(ModelKind.A, 20.0, N, E, 1))
            assert abs(value - exact) <= 5e-12

    def test_interpolation_exact_at_nodes(self):
        table = mm._phase_table(ProfileKind.ND_COSINE, 32)
        assert np.array_equal(mm._interpolate_theta(table, table[0]), table[2])

    @pytest.mark.slow
    def test_matches_the_brent_chains(self):
        """The wide branch against the Brent chains and their stability
        check: A and B over lambda = 7 ... 50 in steps of 0.5,
        the bench pool and lambda = 1000 at N = 64; model A on the same
        grid at N = 8, where 439 of its flags are unstable, and at N = 256,
        whose check runs at N - 8.  Counts, sectors and flags agree, every
        root within REFINE_FRAC mu with its certified bound |E - root| <=
        residual pi / delta met."""
        width = mm.REFINE_FRAC * MU
        grid = [7.0 + 0.5 * i for i in range(87)]
        cases = ([(model, lam, 64) for model in ModelKind
                  for lam in grid + [20.1, 20.2, 1000.0]]
                 + [(ModelKind.A, lam, 8) for lam in grid] + [(ModelKind.A, 7.0, 256)])
        for model, lam, N in cases:
            geometry = Geometry.from_lambda(lam)
            spec = mm.scan_spectrum(model, geometry, N=N)
            roots, flags = _brent_spectrum(model, geometry, N)
            assert len(spec.eigenvalues) == len(roots) >= math.ceil(lam) - 1
            assert spec.sectors == tuple(s for _, s, _ in roots)
            assert spec.stable == flags
            for value, residual, (E, _, _) in zip(spec.eigenvalues, spec.residuals, roots):
                assert abs(value * MU - E) <= width
                assert residual * math.pi / lam <= width

    @pytest.mark.parametrize("lam", [7.0, 20.2])
    def test_models_coincide(self, lam):
        """From the cut on, models A and B have the same spectrum, bit for bit."""
        geometry = Geometry.from_lambda(lam)
        a, b = (mm.scan_spectrum(model, geometry) for model in ModelKind)
        assert (a.eigenvalues, a.sectors, a.residuals, a.stable) == (
            b.eigenvalues, b.sectors, b.residuals, b.stable)

    def test_field_at_a_table_root(self):
        """The count certificate of solve_coefficients accepts the root
        of the wide branch."""
        field = mm.solve_field(ModelKind.A, Geometry.from_lambda(20.2), branch=20)
        spec = mm.scan_spectrum(ModelKind.A, Geometry.from_lambda(20.2),
                                check_stability=False)
        assert len(spec.eigenvalues) == 20
        assert field.E == spec.eigenvalues[19] * MU

    def test_uncertified_root_raises(self, monkeypatch):
        """A root whose exact residual bounds it no closer than REFINE_FRAC mu
        is not reported."""
        table = mm._phase_table(ProfileKind.DN_SINE, 16)
        shifted = (table[0], table[1], table[2] + 1e-6)
        monkeypatch.setattr(mm, "_phase_table", lambda tail, N: shifted)
        with pytest.raises(RuntimeError):
            mm.scan_spectrum(ModelKind.A, Geometry.from_lambda(9.3), N=16,
                             check_stability=False)


# ---------------------------------------------------------------------------
# the stability gate
# ---------------------------------------------------------------------------


def _reference_flags(model, geometry, N, spec):
    """The flags of the spectrum's roots by the reference rule: two counts
    at N + 8 below the cut, the full phase table at N + 8 from it on."""
    E = np.array(spec.eigenvalues) * MU
    if geometry.delta >= mm.WIDE_LAMBDA:
        return tuple(ref.wide_stable(model, geometry, N, E, np.array(spec.sectors)).tolist())
    return tuple(ref.stable(model, geometry, N, e, s)
                 for e, s in zip(E.tolist(), spec.sectors))


class TestStabilityGate:
    @pytest.mark.slow
    @pytest.mark.parametrize("N", [8, 64, 256])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_flags_match_the_reference_rule(self, model, N):
        """The slope bound with its exact probes below the cut, and the
        difference table above it, flag every root as the reference rule
        does: lambda = 0.2634 (a state at 1 - E/mu = 9.1e-8) up to 1000;
        at N = 256 the check runs at N - 8.  At A and B lambda = 26.75,
        N = 8, the N + 8 level at E + drift is 10 + 2.4e-9, within the
        difference table's error of the step, and the guard evaluates it
        exactly."""
        lams = [0.2634, 0.5, 1.3, 2.5, 6.9, 7.0, 20.2, 1000.0]
        if N == 8:
            lams.append(26.75)
        flags = []
        for lam in lams:
            geometry = Geometry.from_lambda(lam)
            spec = mm.scan_spectrum(model, geometry, N=N)
            assert spec.stable == _reference_flags(model, geometry, N, spec)
            flags += spec.stable
        assert len(flags) >= 1000

    def test_unstable_flags_match_the_reference_rule(self):
        """At N = 8 most roots move by more than the drift at N + 8, and
        the flags still agree, both sides of the cut."""
        flags = []
        for lam in (6.9, 20.2):
            geometry = Geometry.from_lambda(lam)
            spec = mm.scan_spectrum(ModelKind.A, geometry, N=8)
            assert spec.stable == _reference_flags(ModelKind.A, geometry, 8, spec)
            flags += spec.stable
        assert True in flags and False in flags

    @pytest.mark.parametrize("N", [8, 16, 64, 128, 256])
    def test_difference_interpolation_at_midpoints(self, N):
        """At the midpoints (in t) between the phase table's 17 nodes the
        difference table's 5-node interpolant misses the exact Delta =
        theta_N' - theta_N by at most 1.1e-6 rad at N = 8, 1.6e-7 at 16,
        2.3e-10 at 64, 3.7e-10 at 128 and 1.3e-10 at 256 (against 248);
        the bound is 2e-6 rad, inside the exact-evaluation guard."""
        assert 2e-6 < mm.DIFFERENCE_GUARD
        tail = ProfileKind.DN_SINE
        t = mm._phase_table(tail, N)[0]
        mids = 0.5 * (t[1:] + t[:-1])
        nodes, difference = mm._phase_difference(tail, N)
        approx = mm._barycentric(nodes, mm._DIFFERENCE_WEIGHTS, difference, mids)
        for value, angle in zip(approx.tolist(), mids.tolist()):
            E = MU * math.sin(angle) ** 2
            exact = (mm._node_thetas(tail, mm._bumped(N), [E])[0]
                     - mm._node_thetas(tail, N, [E])[0])
            assert abs(value - exact) <= 2e-6

    def test_difference_table_exact_at_its_nodes(self):
        """The difference table's nodes are every fourth node of the phase
        table, and its values the phase table at N + 8 less the one at N."""
        tail = ProfileKind.ND_COSINE
        nodes, difference = mm._phase_difference(tail, 32)
        t, _, theta = mm._phase_table(tail, 32)
        _, _, bumped = mm._phase_table(tail, 40)
        stride = mm.DIFFERENCE_STRIDE
        assert np.array_equal(nodes, t[::stride])
        assert np.array_equal(difference, bumped[::stride] - theta[::stride])
        assert np.array_equal(
            mm._barycentric(nodes, mm._DIFFERENCE_WEIGHTS, difference, nodes), difference)


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
            below = ref.phase_count(model, geometry, 64, E - width, sector)
            assert ref.phase_count(model, geometry, 64, E + width, sector) == below + 1

    def test_wrong_sector_rejected(self, spectrum_a_half):
        E = spectrum_a_half.eigenvalues[0] * MU
        with pytest.raises(ValueError):
            mm.solve_coefficients(ModelKind.A, Geometry.from_lambda(0.5), 32, E, -1)

    def test_field_costs_the_scan_plus_three_evaluations(self, monkeypatch):
        """Two counts certify the root in its recorded sector and one
        phase solve gives the null vector, the three in one stacked call."""
        calls = _count_lanes(monkeypatch)
        mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), branch=1, N=64)
        assert 0 < sum(calls) <= 17
        assert calls[-1] == 3


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
            V = mm.evaluate_field(field_a_half, xs, ys)
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
        vals = mm.evaluate_field(field_a_half, xs, 0.0)
        assert vals.shape == (3, 1)
        assert np.all(vals == 0.0)

    def test_neumann_side_small_normal_derivative(self, field_a_half):
        h = 1e-6
        xs = np.linspace(-0.49, 3.0, 120)
        lo, up = mm.evaluate_field(field_a_half, xs, [0.0, h]).T
        assert np.abs((up - lo) / h).max() < 1e-3

    def test_outside_strip_rejected(self, field_a_half):
        with pytest.raises(ValueError):
            mm.evaluate_field(field_a_half, 0.0, 1.5)
        with pytest.raises(ValueError):
            mm.evaluate_field(field_a_half, 0.0, -0.1)

    @pytest.mark.parametrize("x, y", [
        (0.0, math.nan), (math.nan, 0.5), ([0.0, 1.0], [0.5, math.nan]),
    ], ids=["nan-y", "nan-x", "nan-in-axis"])
    def test_nan_point_rejected(self, field_a_half, x, y):
        """A NaN coordinate is no point of the strip: it raises, where a
        y range check of the form y < 0 or y > 1 lets it through."""
        with pytest.raises(ValueError, match="outside the strip"):
            mm.evaluate_field(field_a_half, x, y)

    def test_interface_jump_small_and_decreasing(self, field_a_half):
        """Value continuity holds in the L2 sense up to the truncation
        tail (the corner singularity limits the rate to O(1/N))."""
        geometry = Geometry.from_lambda(0.5)
        ys = np.linspace(0.0, 1.0, 2001)

        def jump(field):
            left, right = mm.evaluate_field(field, [-0.5 - 1e-12, -0.5 + 1e-12], ys)
            return math.sqrt(np.trapezoid((left - right) ** 2, ys))

        spec16 = mm.scan_spectrum(ModelKind.A, geometry, N=16, check_stability=False)
        field16 = mm.solve_coefficients(
            ModelKind.A, geometry, 16, spec16.eigenvalues[0] * MU, spec16.sectors[0]
        )
        j16, j32 = jump(field16), jump(field_a_half)
        assert j32 < 1e-2
        assert j32 < 0.7 * j16

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("model, lam, branch", [
        (ModelKind.A, 0.5, 1), (ModelKind.B, 2.5, 2),
    ], ids=["A-0.5-branch1", "B-2.5-branch2"])
    def test_grid_matches_pointwise_reference(self, model, lam, branch, N):
        """Each grid value equals the pointwise sum to rounding, on axes
        holding both interfaces x = -delta, +delta exactly (they belong to
        the center), both tails and both walls."""
        field = mm.solve_field(model, Geometry.from_lambda(lam), branch, N=N)
        delta = field.geometry.delta
        xs = np.concatenate([np.linspace(-delta - 4.0, delta + 4.0, 53),
                             [-delta, delta, np.nextafter(delta, 9.0)]])
        ys = np.linspace(0.0, 1.0, 23)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        reference = field_reference.evaluate_points(field, X, Y)
        grid = mm.evaluate_field(field, xs, ys)
        assert grid.shape == (xs.size, ys.size)
        assert np.abs(grid - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_grid_memory_bounded(self):
        """At 500 x 200 points and N = 64 the evaluator allocates a few
        N-by-axis blocks next to its 0.8 MB output, not N-by-point arrays."""
        field = mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), 1, N=64)
        xs = np.linspace(-6.0, 6.0, 500)
        ys = np.linspace(0.0, 1.0, 200)
        tracemalloc.start()
        try:
            mm.evaluate_field(field, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_solve_field_missing_branch(self):
        with pytest.raises(LookupError):
            mm.solve_field(ModelKind.A, Geometry.from_lambda(0.2), branch=1, N=16)
