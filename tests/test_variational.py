"""Tests for the variational threshold machinery.

Oracle structure: the quadrature functional of ``window_reference``
independently verifies the closed form; analytic derivatives are
verified against central finite differences; the Euler residuals
certify the profiles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import window_reference as W
from wavebound import variational as V


# ---------------------------------------------------------------------------
# Trial profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.1, 0.34, 0.5, 0.9])
def test_profile_boundary_conditions(delta):
    p = W.TrialProfiles(delta=delta)
    assert abs(p.phi(-delta) - 1.0) < 1e-10
    assert abs(p.phi(delta)) < 1e-10
    assert abs(p.psi(delta) - 1.0) < 1e-10
    assert abs(p.psi(-delta)) < 1e-10
    assert abs(p.chi(delta)) < 1e-10 and abs(p.chi(-delta)) < 1e-10
    assert abs(p.eta(delta)) < 1e-10 and abs(p.eta(-delta)) < 1e-10


@given(delta=st.floats(0.05, 0.95), frac=st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_profile_symmetries(delta, frac):
    """phi(x) = psi(-x), chi odd, eta even, pointwise within 1e-12."""
    p = W.TrialProfiles(delta=delta)
    x = frac * delta
    assert abs(p.phi(x) - p.psi(-x)) < 1e-12
    assert abs(p.chi(-x) + p.chi(x)) < 1e-12
    assert abs(p.eta(-x) - p.eta(x)) < 1e-12


@pytest.mark.parametrize("delta", [0.2, 0.34, 0.7])
def test_analytic_derivatives_vs_finite_differences(delta):
    """Hand-derived derivatives agree with central differences (h=1e-5)."""
    p = W.TrialProfiles(delta=delta)
    h = 1e-5
    x = np.linspace(-0.9 * delta, 0.9 * delta, 17)
    for f, df in [(p.chi, p.dchi), (p.phi, p.dphi), (p.psi, p.dpsi), (p.eta, p.deta)]:
        fd = (f(x + h) - f(x - h)) / (2 * h)
        assert np.max(np.abs(fd - df(x))) < 1e-7
    for df, d2f in [(p.dchi, p.d2chi), (p.dphi, p.d2phi), (p.dpsi, p.d2psi), (p.deta, p.d2eta)]:
        fd = (df(x + h) - df(x - h)) / (2 * h)
        assert np.max(np.abs(fd - d2f(x))) < 1e-6


@pytest.mark.parametrize("delta", [0.1, 0.34, 0.6, 0.9])
def test_euler_residuals_vanish(delta):
    """The four Euler equations hold pointwise to < 1e-8 on a grid."""
    p = W.TrialProfiles(delta=delta)
    x = np.linspace(-delta, delta, 101)
    res = W.euler_residuals(p, x)
    assert np.max(np.abs(res)) < 1e-8


def test_profiles_reject_bad_window():
    with pytest.raises(ValueError):
        W.TrialProfiles(delta=0.0)
    with pytest.raises(ValueError):
        W.TrialProfiles(delta=1.0)  # tan/cos singular at delta = d
    with pytest.raises(ValueError):
        W.TrialProfiles(delta=1.5)


# ---------------------------------------------------------------------------
# Window functional: closed form vs quadrature oracle
# ---------------------------------------------------------------------------


def test_q2_closed_matches_quadrature_on_grid():
    """|q2_quadrature - q2_closed| < 1e-8 on a 50-point window grid."""
    grid = np.linspace(0.05, 0.95, 50)
    for r in grid:
        assert abs(W.q2_quadrature(float(r)) - V.q2_closed(float(r))) < 1e-8


def test_q2_anchor_values():
    assert W.q2_quadrature(0.1) > 0.0
    assert W.q2_quadrature(0.9) < 0.0
    # small negative just above the root (the root sits just below 0.34)
    val = V.q2_closed(0.34)
    assert -0.02 < val < 0.0


def test_q2_divergence_directions():
    assert V.q2_closed(1e-4) > 1e2  # coth divergence at the left end
    assert V.q2_closed(1.0 - 1e-4) < -1e2  # tan divergence at the right end


def test_q2_rejects_out_of_range():
    with pytest.raises(ValueError):
        V.q2_closed(0.0)
    with pytest.raises(ValueError):
        V.q2_closed(1.0)


def test_lambda2_value_and_root_contract():
    lam2 = V.lambda2()
    assert 0.33 < lam2 < 0.35  # stated as approximately 0.34
    assert abs(V.q2_closed(lam2)) < 1e-9


def test_q2_sign_structure_and_monotonicity():
    """q2 > 0 below the root, < 0 above; strictly decreasing on a grid."""
    lam2 = V.lambda2()
    grid = np.linspace(0.05, 0.95, 1000)
    vals = np.array([V.q2_closed(float(r)) for r in grid])
    assert np.all(vals[grid < lam2 - 1e-9] > 0.0)
    assert np.all(vals[grid > lam2 + 1e-9] < 0.0)
    assert np.all(np.diff(vals) < 0.0)


# ---------------------------------------------------------------------------
# The kappa inequality and lambda1
# ---------------------------------------------------------------------------


def test_konec2_rhs_anchor_values():
    assert V.konec2_rhs(0.25) == pytest.approx(0.323, abs=5e-4)
    assert V.konec2_rhs(0.27) == pytest.approx(0.379, abs=5e-4)
    # these bracket the crossing of 1 - 2/pi
    assert V.konec2_rhs(0.25) < V.KONEC2_LHS < V.konec2_rhs(0.27)


def test_konec2_rhs_limits_and_domain():
    assert V.konec2_rhs(1e-8) < 1e-6  # goes to zero with kappa
    with pytest.raises(ValueError):
        V.konec2_rhs(0.0)
    with pytest.raises(ValueError):
        V.konec2_rhs(V.KAPPA_MAX)
    with pytest.raises(ValueError):
        V.konec2_rhs(0.95)
    assert V.KAPPA_MAX == pytest.approx(0.9156, abs=1e-4)


@given(kappa=st.floats(1e-4, V.KAPPA_MAX - 1e-4))
@settings(max_examples=100, deadline=None)
def test_konec2_rhs_positive(kappa):
    assert V.konec2_rhs(kappa) > 0.0


def test_kappa0_and_lambda1():
    k0 = V.kappa0()
    assert 0.25 < k0 < 0.27
    assert abs(V.konec2_rhs(k0) - V.KONEC2_LHS) < 1e-10
    lam1 = V.lambda1()
    assert 0.075 < lam1 < 0.085  # stated as approximately 0.08
    assert lam1 == pytest.approx(k0 / math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# Model-B certificate
# ---------------------------------------------------------------------------


def test_certificate_eps_zero_is_positive():
    """At eps = 0 only the plateau kinetic term survives."""
    A, _, _ = V.certificate_norms(0.1)
    val = V.modelB_certificate(0.1, sigma=0.5, epsilon=0.0)
    assert val == pytest.approx(0.5 * A, rel=1e-12)
    assert val > 0.0


def test_certificate_affine_in_sigma():
    """For fixed eps the certificate is affine in sigma with slope A."""
    A, _, _ = V.certificate_norms(0.2)
    q1 = V.modelB_certificate(0.2, 0.1, 0.05)
    q2 = V.modelB_certificate(0.2, 0.7, 0.05)
    assert (q2 - q1) / 0.6 == pytest.approx(A, rel=1e-10)


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_negative_certificate_exists_for_every_window(delta):
    sigma, eps, val = V.find_negative_certificate(delta)
    assert val < 0.0
    assert sigma > 0.0 and eps > 0.0
    assert V.modelB_certificate(delta, sigma, eps) == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.7, 2.0])
def test_certificate_norms_match_direct_quadrature(delta):
    """The window-scaled bump moments equal the norms of j(x) = g(x/delta)
    integrated over (-delta, delta), and A the plateau's ||phi'||^2."""
    from scipy.integrate import quad

    def j(x):
        return math.exp(-1.0 / (1.0 - (x / delta) ** 2))

    def jp(x):
        u = x / delta
        return j(x) * (-2.0 * u / delta) / (1.0 - u * u) ** 2

    def norm(f):
        return quad(f, -delta, delta, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    mu = math.pi**2 / 4.0
    plateau = 2.0 * quad(lambda t: (2.0 * t * math.exp(-t * t)) ** 2, 0.0, 12.0)[0]
    expected = (
        plateau,
        math.pi * math.sqrt(2.0) * norm(lambda x: j(x) ** 2),
        4.0 * norm(lambda x: (j(x) * jp(x)) ** 2) - mu * norm(lambda x: j(x) ** 4),
    )
    assert V.certificate_norms(delta) == pytest.approx(expected, rel=1e-10)


def test_bump_moments_match_quadrature():
    """The literal moments int g^2, int (g g')^2 and int g^4 of the bump
    g(u) = exp(-1/(1 - u^2)) over (-1, 1) equal adaptive quadratures that
    converged to 1e-12 of their values."""
    from scipy.integrate import quad

    def g(u):
        return math.exp(-1.0 / (1.0 - u * u))

    integrands = (
        lambda u: g(u) ** 2,
        lambda u: (g(u) ** 2 * 2.0 * u / (1.0 - u * u) ** 2) ** 2,
        lambda u: g(u) ** 4,
    )
    for integrand, moment in zip(integrands, V._BUMP_MOMENTS):
        val, err = quad(integrand, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err <= 1e-12 * val
        assert moment == pytest.approx(val, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("delta", [0.05, 0.5, 1.0])
def test_negative_certificate_is_the_minimum_in_epsilon(delta):
    """Where C > 0 the returned epsilon minimizes the parabola in epsilon."""
    sigma, eps, val = V.find_negative_certificate(delta)
    for factor in (0.99, 1.01):
        assert V.modelB_certificate(delta, sigma, factor * eps) > val


def test_certificate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        V.modelB_certificate(0.1, -1.0, 0.1)
    with pytest.raises(ValueError):
        V.modelB_certificate(-0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        V.find_negative_certificate(0.0)

