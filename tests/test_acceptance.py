"""Acceptance gate: the eleven headline claims of the toolkit.

Each test is one criterion, named and numbered; a verbose pytest run
therefore prints one pass/fail line per criterion:

    pytest tests/test_acceptance.py -v

Every test also prints a ``CRITERION n: PASS`` line with the measured
numbers (shown with ``-s`` or ``-rA``).  Heavy computations are shared
through module-scoped fixtures; the whole module is budgeted to run in
well under fifteen minutes on one laptop core, and the final test
asserts that budget.
"""

import math
import time

import numpy as np
import pytest

import window_reference as W
from wavebound import analysis as an
from wavebound import bounds as bd
from wavebound import fdm_oracle as fo
from wavebound import modematch as mm
from wavebound import variational as va
from wavebound.geometry import Geometry, ModelKind

MU = math.pi**2 / 4.0

_MODULE_T0 = time.perf_counter()

SWEEP_LAMBDAS = tuple(round(0.1 * k, 10) for k in range(1, 31))
SCALING_LAMBDAS = (0.2, 0.3, 0.4, 0.5, 0.75, 1.0)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lambda0():
    """Numeric emergence point of the first model-A state (N=32)."""
    return _timed(an.find_emergence, ModelKind.A, 1, N=32)


@pytest.fixture(scope="module")
def spectrum_a_half():
    """Production-truncation model-A spectrum at lambda = 0.5."""
    return mm.scan_spectrum(
        ModelKind.A, Geometry.from_lambda(0.5), N=64, check_stability=True
    )


@pytest.fixture(scope="module")
def oracle_a_half():
    """Extrapolated finite-difference eigenvalue, model A, lambda = 0.5."""
    return _timed(fo.extrapolate, ModelKind.A, Geometry.from_lambda(0.5))


@pytest.fixture(scope="module")
def sweep_a():
    return an.sweep(ModelKind.A, SWEEP_LAMBDAS, N=32, check_stability=False)


@pytest.fixture(scope="module")
def sweep_b():
    return an.sweep(ModelKind.B, SWEEP_LAMBDAS, N=32, check_stability=False)


@pytest.fixture(scope="module")
def scaling_sweeps():
    return {
        model: an.sweep(model, SCALING_LAMBDAS, N=32, check_stability=False)
        for model in (ModelKind.A, ModelKind.B)
    }


@pytest.fixture(scope="module")
def field_a_half():
    """Normalized model-A ground state at lambda = 0.5 (N=64)."""
    return mm.solve_field(ModelKind.A, Geometry.from_lambda(0.5), 1, N=64)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_lambda2_reproduction():
    value, elapsed = _timed(va.lambda2)
    assert 0.33 < value < 0.35
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS — lambda2 = {value:.6f} in (0.33, 0.35), "
          f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_lambda1_reproduction():
    (value, elapsed) = _timed(va.lambda1)
    kappa = va.kappa0()
    assert 0.075 < value < 0.085
    assert abs(value - kappa / math.pi) < 1e-12
    assert elapsed < 1.0
    print(f"CRITERION 2: PASS — lambda1 = kappa0/pi = {value:.6f} "
          f"in (0.075, 0.085), {elapsed * 1e3:.0f} ms")


def test_criterion_03_lambda0_reproduction(lambda0):
    value, elapsed = lambda0
    assert 0.25 < value < 0.27
    assert elapsed < 120.0
    print(f"CRITERION 3: PASS — lambda0 = {value:.6f} in (0.25, 0.27), "
          f"{elapsed:.1f} s")


def test_criterion_04_threshold_ordering(lambda0):
    l0 = lambda0[0]
    l1, l2 = va.lambda1(), va.lambda2()
    assert l1 < l0 < l2
    print(f"CRITERION 4: PASS — {l1:.4f} < {l0:.4f} < {l2:.4f}")


def test_criterion_05_single_state_matches_oracle(spectrum_a_half, oracle_a_half):
    (estimate, order), oracle_time = oracle_a_half
    assert len(spectrum_a_half.eigenvalues) == 1
    assert spectrum_a_half.stable == (True,)
    # no state between the scan window and mu is left unreported
    below_mu = mm.count_states(ModelKind.A, Geometry.from_lambda(0.5),
                               spectrum_a_half.N, (1.0 - 1e-9) * MU)
    assert below_mu == len(spectrum_a_half.eigenvalues)
    matched = spectrum_a_half.eigenvalues[0]
    diff = abs(matched - estimate / MU)
    assert diff < 1e-3
    assert oracle_time < 300.0
    print(f"CRITERION 5: PASS — one stable state, E/mu = {matched:.7f}, "
          f"oracle {estimate / MU:.7f} (order {order:.2f}), "
          f"diff {diff:.2e} < 1e-3, oracle {oracle_time:.0f} s")


def test_criterion_06_modelB_existence_and_certificate():
    counts = {}
    for lam in (0.1, 0.25, 0.5, 1.0):
        spectrum = mm.scan_spectrum(
            ModelKind.B, Geometry.from_lambda(lam), N=32, check_stability=False
        )
        counts[lam] = len(spectrum.eigenvalues)
        assert counts[lam] >= 1, f"model B has no state at lam={lam}"
    sigma, eps, value = va.find_negative_certificate(0.1)
    assert value < 0.0
    print(f"CRITERION 6: PASS — model B counts {counts}; certificate "
          f"q = {value:.3e} < 0 at sigma={sigma:.3g}, eps={eps:.3g}")


def test_criterion_07_bracketing_suite(sweep_a):
    for lam, spectrum in zip(sweep_a.lambdas, sweep_a.spectra):
        n_min, n_max = bd.state_count_bounds(lam)
        count = len(spectrum.eigenvalues)
        assert n_min <= count <= n_max, (
            f"count {count} outside [{n_min}, {n_max}] at lam={lam}"
        )
        violations = bd.check_spectrum(lam, spectrum.eigenvalues)
        assert not violations, f"lam={lam}: {violations}"
    emergences = {}
    for m in (2, 3):
        lam_m = an.find_emergence(ModelKind.A, m, N=32)
        emergences[m] = lam_m
        assert m - 1 < lam_m < m
    print(f"CRITERION 7: PASS — 30 spectra inside count and value brackets; "
          f"emergence lambda_2 = {emergences[2]:.4f}, "
          f"lambda_3 = {emergences[3]:.4f}")


def test_criterion_08_functional_oracle_equivalence():
    deltas = np.linspace(0.02, 0.95, 50)
    worst = 0.0
    for delta in deltas:
        worst = max(worst, abs(W.q2_quadrature(delta) - va.q2_closed(delta)))
    assert worst < 1e-8
    xs = np.linspace(-0.45, 0.45, 101)
    residuals = np.abs(
        W.euler_residuals(W.TrialProfiles(delta=0.5), xs)
    ).max()
    assert residuals < 1e-8
    print(f"CRITERION 8: PASS — quadrature vs closed form {worst:.2e} "
          f"on 50-point grid; Euler residuals {residuals:.2e}")


def test_criterion_09_monotonicity_and_scaling(sweep_a, sweep_b, scaling_sweeps):
    for name, sw in (("A", sweep_a), ("B", sweep_b)):
        ok, violations = an.monotonicity_check(sw)
        assert ok, f"model {name} monotonicity violations: {violations}"
    margins = {}
    for model, sw in scaling_sweeps.items():
        for rho, lam in ((1.5, 0.5), (2.0, 0.2)):
            assert lam in sw.lambdas and round(lam * rho, 10) in sw.lambdas
            ok, worst = an.scaling_check(sw, rho)
            assert ok, f"model {model.name} scaling fails at rho={rho}"
            margins[(model.name, rho)] = worst
    print(f"CRITERION 9: PASS — branches nonincreasing (both models); "
          f"scaling sandwich margins {margins}")


def test_criterion_10_corner_exponent(field_a_half):
    corners = an.switch_points(ModelKind.A, field_a_half.geometry)
    exponent, quality = an.corner_exponent(field_a_half, corners[0])
    assert abs(exponent - 0.5) < 0.05
    assert quality > 0.95

    def synthetic(x, y):
        return np.sqrt(np.hypot(np.asarray(x) - 0.5, 1.0 - np.asarray(y)))

    synth_exp, synth_q = an.corner_exponent(synthetic, (0.5, 1.0))
    assert abs(synth_exp - 0.5) < 1e-3
    assert synth_q > 1.0 - 1e-9
    print(f"CRITERION 10: PASS — fitted exponent {exponent:.4f} "
          f"(R^2 {quality:.4f}); synthetic {synth_exp:.6f}")


def test_criterion_11_qualitative_floor(sweep_a, sweep_b):
    # Branch counts step up by one at each emergence and never decrease;
    # model B always binds at least one state; bracketing windows hold for
    # model B as well; first branches decrease toward wide windows.
    for name, sw in (("A", sweep_a), ("B", sweep_b)):
        counts = [len(sp.eigenvalues) for sp in sw.spectra]
        assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:])), (
            f"model {name} counts not stepwise nondecreasing: {counts}"
        )
        first = sw.branch(1)
        values = [v for _, v in first]
        assert values[-1] < values[0]
        if name == "B":
            assert min(counts) >= 1
            for lam, sp in zip(sw.lambdas, sw.spectra):
                assert not bd.check_spectrum(lam, sp.eigenvalues)
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 900.0
    print(f"CRITERION 11: PASS — stepwise branch counts, model B never "
          f"empty, windows hold; acceptance module {elapsed:.0f} s < 900 s")
