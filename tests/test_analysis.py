"""Tests for the diagnostics module.

Synthetic fields pin the exponent fitter exactly; small N=32 sweeps
exercise monotonicity, scaling, and emergence bisection.
"""

import concurrent.futures
import math

import numpy as np
import pytest

import matching_reference as ref
from wavebound import analysis as an
from wavebound import modematch as mm
from wavebound.bounds import state_count_bounds
from wavebound.geometry import SECTORS, Geometry, ModelKind

MU = math.pi**2 / 4.0


@pytest.fixture(scope="module")
def sweep_a():
    grid = (0.3, 0.44, 0.5, 0.62, 0.75, 1.0)
    return an.sweep(ModelKind.A, grid, N=32, check_stability=False)


@pytest.fixture(scope="module")
def sweep_b():
    grid = (0.1, 0.2, 0.28, 0.4, 0.64, 0.8, 1.0)
    return an.sweep(ModelKind.B, grid, N=32, check_stability=False)


@pytest.fixture(scope="module")
def field_a_half():
    return mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), branch=1, N=32)


class TestSweep:
    def test_structure(self, sweep_a):
        assert len(sweep_a.spectra) == len(sweep_a.lambdas)
        assert sweep_a.N == 32
        branch = sweep_a.branch(1)
        assert len(branch) == len(sweep_a.lambdas)  # all points have a state

    def test_bad_grids_rejected(self, sweep_a):
        with pytest.raises(ValueError):
            an.SweepResult(
                model=ModelKind.A,
                lambdas=(0.5, 0.4),
                spectra=sweep_a.spectra[:2],
                N=32,
            )
        with pytest.raises(ValueError):
            an.SweepResult(
                model=ModelKind.A,
                lambdas=(0.4,),
                spectra=sweep_a.spectra[:2],
                N=32,
            )

    @pytest.mark.parametrize("jobs, cores, workers", [
        (5000, 8, 3), (2, 8, 2), (5000, 2, 2), (5000, 1, None), (4, None, None),
    ])
    def test_workers_capped(self, jobs, cores, workers, monkeypatch):
        """The pool gets at most one worker per core and per lambda point
        (it starts them all at once), and none runs for one; each worker
        gets one contiguous slice of the grid; the fake pool maps
        in-process, so no process starts."""
        started, slices = [], []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                slices.extend(lams for _, lams, _, _ in tasks)
                return map(fn, tasks)

        # sweep imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(an.os, "cpu_count", lambda: cores)
        grid = (0.4, 0.5, 0.6)
        result = an.sweep(ModelKind.A, grid, N=16, check_stability=False, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(slices) == (workers or 0)
        assert sum(slices, ()) == (grid if workers else ())
        serial = an.sweep(ModelKind.A, grid, N=16, check_stability=False)
        assert result == serial

    def test_bracketing_consistency(self, sweep_a, sweep_b):
        for sweep_result in (sweep_a, sweep_b):
            for lam, spec in zip(sweep_result.lambdas, sweep_result.spectra):
                n_min, n_max = state_count_bounds(lam)
                assert n_min <= len(spec.eigenvalues) <= n_max


class TestCornerExponent:
    def test_synthetic_power_law(self):
        expo, r2 = an.corner_exponent(lambda x, y: 1.3 * np.sqrt(y), (0.0, 0.0))
        assert abs(expo - 0.5) < 1e-3
        assert r2 > 1.0 - 1e-9

    def test_synthetic_power_law_top_corner(self):
        expo, _ = an.corner_exponent(
            lambda x, y: 2.0 * np.sqrt(1.0 - y), (0.3, 1.0)
        )
        assert abs(expo - 0.5) < 1e-3

    def test_flat_field_zero_exponent(self):
        expo, _ = an.corner_exponent(
            lambda x, y: np.full_like(x, 2.0), (0.0, 1.0)
        )
        assert abs(expo) < 1e-9

    def test_vanishing_field_rejected(self):
        with pytest.raises(ValueError):
            an.corner_exponent(lambda x, y: np.zeros_like(x), (0.0, 0.0))

    def test_radii_validation(self):
        field = lambda x, y: np.sqrt(y)
        with pytest.raises(ValueError):
            an.corner_exponent(field, (0.0, 0.0), radii=np.geomspace(0.01, 0.1, 5))
        with pytest.raises(ValueError):
            an.corner_exponent(field, (0.0, 0.0), radii=np.geomspace(1e-4, 0.1, 10))
        with pytest.raises(ValueError):
            an.corner_exponent(field, (0.0, 0.0), radii=np.geomspace(0.01, 0.3, 10))

    def test_nan_radii_rejected_before_the_fit(self, field_a_half, capfd):
        """A NaN radius is refused as bad input; it never reaches the
        log-log fit, whose LAPACK call would complain on stderr."""
        corner = an.switch_points(field_a_half.model, field_a_half.geometry)[0]
        for field in (lambda x, y: np.sqrt(y), field_a_half):
            with pytest.raises(ValueError, match="radii"):
                an.corner_exponent(field, corner, radii=[math.nan] * 8)
        assert capfd.readouterr() == ("", "")

    def test_corner_must_be_switch_point(self, field_a_half):
        with pytest.raises(ValueError):
            an.corner_exponent(field_a_half, (0.1, 1.0))
        with pytest.raises(ValueError):
            an.corner_exponent(field_a_half, (0.5, 0.5))

    def test_model_a_ground_state_exponent(self, field_a_half):
        for corner in an.switch_points(ModelKind.A, Geometry.from_lambda(0.5)):
            expo, r2 = an.corner_exponent(field_a_half, corner)
            assert abs(expo - 0.5) < 0.05
            assert r2 > 0.98


class TestMonotonicity:
    def test_model_a_first_branch(self, sweep_a):
        ok, violations = an.monotonicity_check(sweep_a)
        assert ok
        assert violations == []

    def test_model_b_first_branch(self, sweep_b):
        ok, violations = an.monotonicity_check(sweep_b)
        assert ok

    def test_needs_five_points(self, sweep_a):
        small = an.SweepResult(
            model=ModelKind.A,
            lambdas=sweep_a.lambdas[:3],
            spectra=sweep_a.spectra[:3],
            N=32,
        )
        with pytest.raises(ValueError):
            an.monotonicity_check(small)

    def test_perturbed_sweep_detected(self, sweep_a):
        from dataclasses import replace

        spectra = list(sweep_a.spectra)
        bad = spectra[2]
        raised = tuple(v + 0.1 for v in bad.eigenvalues)
        spectra[2] = replace(bad, eigenvalues=raised)
        perturbed = an.SweepResult(
            model=sweep_a.model,
            lambdas=sweep_a.lambdas,
            spectra=tuple(spectra),
            N=sweep_a.N,
        )
        ok, violations = an.monotonicity_check(perturbed)
        assert not ok
        assert any(v["index"] == 1 for v in violations)  # rise into point 2


def with_branch_value(sweep_result, index, branch, value):
    """The sweep with branch ``branch`` at grid point ``index`` set to ``value``."""
    from dataclasses import replace

    spectra = list(sweep_result.spectra)
    values = list(spectra[index].eigenvalues)
    values[branch - 1] = value
    spectra[index] = replace(spectra[index], eigenvalues=tuple(values))
    return replace(sweep_result, spectra=tuple(spectra))


class TestScaling:
    def test_model_a_rho_15(self, sweep_a):
        ok, worst = an.scaling_check(sweep_a, 1.5)
        assert ok
        assert worst > 0.0

    def test_model_b_rho_2(self, sweep_b):
        ok, worst = an.scaling_check(sweep_b, 2.0)
        assert ok

    def test_rho_validation(self, sweep_a):
        with pytest.raises(ValueError):
            an.scaling_check(sweep_a, 1.0)
        with pytest.raises(ValueError):
            an.scaling_check(sweep_a, 10.0)
        with pytest.raises(ValueError, match="rho must exceed 1"):
            an.scaling_check(sweep_a, math.nan)

    def test_close_pair_lambda2_e_drop_detected(self):
        """Branch 1 lowered at lambda = 5 halfway toward its value at 5.25
        stays nonincreasing, but lambda^2 E falls from an earlier grid point
        to lambda = 5.  The only pair exactly a factor 1.5 apart is (4, 6),
        so a check at the ratio rho alone passes this sweep."""
        grid = [4.0 + 0.25 * i for i in range(9)]
        sw = an.sweep(ModelKind.A, grid, N=32, check_stability=False)
        assert an.scaling_check(sw, 1.5)[0]
        e = dict(sw.branch(1))
        lowered = with_branch_value(sw, 4, 1, 0.5 * (e[5.0] + e[5.25]))
        assert an.monotonicity_check(lowered)[0]
        ok, worst = an.scaling_check(lowered, 1.5)
        assert not ok and worst < 0.0

    def test_raised_point_detected(self, sweep_a):
        """E(0.5) raised 0.01 above E(0.44) breaks the upper half there."""
        raised = with_branch_value(sweep_a, 2, 1, sweep_a.branch(1)[1][1] + 0.01)
        ok, worst = an.scaling_check(raised, 1.5)
        assert not ok
        assert worst == pytest.approx(an.BRANCH_TOL - 0.01, abs=1e-12)


class TestEmergence:
    def test_first_branch_model_a(self):
        lam0 = an.find_emergence(ModelKind.A, 1, tol=1e-3)
        assert 0.25 < lam0 < 0.27

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            an.find_emergence(ModelKind.A, 1, lo=0.4, hi=0.6)
        with pytest.raises(ValueError):
            an.find_emergence(ModelKind.A, 0)

    def test_short_bracket_raises_instead_of_widening(self):
        """The first branch emerges near 0.2643, above hi: no silent retry."""
        with pytest.raises(RuntimeError):
            an.find_emergence(ModelKind.A, 1, lo=0.2, hi=0.25)


class TestThresholdLaw:
    """A state that leaves the continuum at lambda_m binds with kappa_0 =
    sqrt(mu - E) vanishing linearly in lambda - lambda_m, the
    one-dimensional weak-coupling law (Simon, Ann. Phys. 97 (1976) 279)."""

    @pytest.mark.parametrize("model, m, first, bisected", [
        (ModelKind.A, 1, 0.264, 0.2632688),
        (ModelKind.B, 2, 1.208, 1.2075438),
        (ModelKind.A, 3, 2.208, 2.2072229),
    ], ids=["A-m1", "B-m2", "A-m3"])
    def test_kappa0_root_is_the_emergence_point(self, model, m, first, bisected):
        """At N = 64 the root of a quadratic fit of kappa_0 at four lambda
        just above lambda_m (steps of 1e-3) equals, within 1e-6, lambda_m
        bisected in lambda as the point where the count at mu, read from
        the junction levels, reaches m (7e-8 apart at most, measured)."""
        N = 64
        lams = first + 1e-3 * np.arange(4)
        kappa = [
            math.sqrt(MU * (1.0 - mm.scan_spectrum(
                model, Geometry.from_lambda(lam), N=N,
                check_stability=False).eigenvalues[m - 1]))
            for lam in lams
        ]
        root = min(np.roots(np.polyfit(lams, kappa, 2)), key=lambda r: abs(r - first))

        def count(lam: float) -> int:
            geometry = Geometry.from_lambda(lam)
            return sum(ref.phase_count(model, geometry, N, MU, s) for s in SECTORS)

        lo, hi = first - 0.01, first
        assert count(lo) < m <= count(hi)
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if count(mid) >= m else (mid, hi)
        assert abs(hi - bisected) < 1e-6
        assert np.isreal(root) and abs(root.real - hi) < 1e-6
