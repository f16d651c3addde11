"""Tests for the geometry layer: the models, transverse bases, overlap
integrals.

The closed-form overlaps are verified against adaptive quadrature (the
independent oracle, ``overlap_quadrature`` below) before anything else
relies on them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavebound.analysis import switch_points
from wavebound.fdm_oracle import FdmGrid, dirichlet_mask
from wavebound.geometry import (
    MU,
    Geometry,
    ModelKind,
    ProfileKind,
    _check_tail,
    overlap_matrix,
    profile_values,
)

FAMILIES = [ProfileKind.DN_SINE, ProfileKind.ND_COSINE, ProfileKind.NN_COSINE]


def overlap_quadrature(tail_profile: ProfileKind, k: int, m: int) -> float:
    """Overlap of tail mode k with center mode m by adaptive quadrature (the oracle)."""
    _check_tail(tail_profile)

    def integrand(y):
        tail = profile_values(tail_profile, k + 1, [y])[k, 0]
        center = profile_values(ProfileKind.NN_COSINE, m + 1, [y])[m, 0]
        return float(tail * center)

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-12:
        raise RuntimeError(f"overlap quadrature did not converge: err={err}")
    return val


# ---------------------------------------------------------------------------
# Geometry value type
# ---------------------------------------------------------------------------


def test_geometry_derived_quantities():
    """At d = 1 the half window is lam and the threshold is pi^2/4."""
    g = Geometry(0.5)
    assert g.lam == g.delta == 0.5
    assert g.mu == MU == math.pi**2 / 4.0


def test_geometry_rejects_nonpositive():
    for lam in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="half window delta must be positive"):
            Geometry(lam)


@given(lam=st.floats(0.01, 10.0))
@settings(max_examples=50, deadline=None)
def test_geometry_lambda_roundtrip(lam):
    g = Geometry.from_lambda(lam)
    assert g.lam == g.delta == lam
    assert g.mu == MU


def _model_definition(model, tails, parity, corners, rows):
    """What follows from a model's two Dirichlet walls at lam = 0.5: the
    tail families, the parities of six cosines, the switch points in
    their order (top wall first, then by x) and the mask's Dirichlet row
    left of -delta and right of +delta on the h = 1/8 window grid."""
    geometry = Geometry.from_lambda(0.5)
    assert model.tails == tails
    assert model.parity(6).tolist() == parity
    assert switch_points(model, geometry) == corners
    grid = FdmGrid.from_spacing(geometry, 1.0 / 8)
    mask = dirichlet_mask(model, geometry, grid)
    i_minus, i_plus = grid.column_of(-0.5), grid.column_of(0.5)
    assert i_minus == 1 and i_plus == grid.nx - 1
    for columns, row in zip((slice(0, i_minus), slice(i_plus + 1, None)), rows):
        expected = np.zeros_like(mask[columns])
        expected[:, row] = True
        assert np.array_equal(mask[columns], expected)
    assert not mask[i_minus : i_plus + 1].any()


def test_model_a_definition():
    """Model A: Dirichlet bottom on the left, Dirichlet top on the right."""
    _model_definition(ModelKind.A, (ProfileKind.DN_SINE, ProfileKind.ND_COSINE),
                      [1, -1, 1, -1, 1, -1], ((0.5, 1.0), (-0.5, 0.0)), (0, 8))


def test_model_b_definition():
    """Model B: Dirichlet top on both sides."""
    _model_definition(ModelKind.B, (ProfileKind.ND_COSINE, ProfileKind.ND_COSINE),
                      [1] * 6, ((-0.5, 1.0), (0.5, 1.0)), (8, 8))


# ---------------------------------------------------------------------------
# Mode families: orthonormality, symmetry, eigenvalues
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", FAMILIES)
@pytest.mark.parametrize("d", [1.0, 0.7])
def test_orthonormality_gram_matrix(profile, d):
    """Gram matrix of the first 8 modes equals identity within 1e-10; on
    a strip of width d the d = 1 profiles read u(y/d)/sqrt(d)."""
    def mode(k, y):
        return profile_values(profile, 8, [y / d])[k, 0] / math.sqrt(d)

    gram = np.empty((8, 8))
    for i in range(8):
        for j in range(i, 8):
            val, _ = quad(lambda y: mode(i, y) * mode(j, y), 0.0, d, limit=200)
            gram[i, j] = gram[j, i] = val
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


@pytest.mark.parametrize("k", range(6))
def test_reflection_symmetry_sine_vs_cosine(k):
    """u_k(1 - y) = (-1)^k v_k(y) pointwise within 1e-12 on a 101-point grid."""
    y = np.linspace(0.0, 1.0, 101)
    u = profile_values(ProfileKind.DN_SINE, 6, 1.0 - y)[k]
    v = profile_values(ProfileKind.ND_COSINE, 6, y)[k]
    assert np.max(np.abs(u - (-1.0) ** k * v)) < 1e-12


def test_transverse_eigenvalues():
    """-u'' = t u with t = (nu_k pi)^2 for the tail families and (m pi)^2
    for NN_COSINE, which the solver's rates carry: kappa_k^2 + E and
    E - gamma_0^2, gamma_m^2 + E (m >= 1)."""
    from wavebound.modematch import _gamma, _kappa

    y = np.linspace(0.1, 0.9, 9)
    h = 1e-4
    E = 0.5 * math.pi**2 / 4.0
    tail = _kappa(4, E) ** 2 + E
    center = _gamma(4, E) ** 2 + E
    center[0] = E - _gamma(4, E)[0] ** 2
    assert tail[0] == pytest.approx(math.pi**2 / 4, rel=1e-15)
    assert tail[1] == pytest.approx(9 * math.pi**2 / 4, rel=1e-15)
    assert center[0] == pytest.approx(0.0, abs=1e-14)
    assert center[3] == pytest.approx(9 * math.pi**2, rel=1e-15)
    for profile, t in ((ProfileKind.DN_SINE, tail), (ProfileKind.ND_COSINE, tail),
                       (ProfileKind.NN_COSINE, center)):
        u = profile_values(profile, 4, y)
        d2u = (profile_values(profile, 4, y + h) - 2.0 * u
               + profile_values(profile, 4, y - h)) / h**2
        assert np.max(np.abs(-d2u - t[:, None] * u)) < 1e-4 * max(t)


def test_boundary_conditions_of_profiles():
    u = profile_values(ProfileKind.DN_SINE, 3, [0.0, 1.0])[2]
    v = profile_values(ProfileKind.ND_COSINE, 3, [0.0, 1.0])[2]
    assert u[0] == 0.0  # Dirichlet at y=0
    assert abs(v[1]) < 1e-15  # Dirichlet at y=1


# ---------------------------------------------------------------------------
# overlap: closed forms vs quadrature oracle
# ---------------------------------------------------------------------------


def test_overlap_trivial_anchor_values():
    expected = 2 * math.sqrt(2) / math.pi  # 0.900316...
    assert overlap_matrix(ProfileKind.DN_SINE, 4)[0, 0] == pytest.approx(expected, rel=1e-15)
    assert overlap_matrix(ProfileKind.ND_COSINE, 4)[0, 0] == pytest.approx(expected, rel=1e-15)
    assert overlap_matrix(ProfileKind.DN_SINE, 4)[0, 0] == pytest.approx(0.900316, abs=1e-6)


@pytest.mark.parametrize("tail_profile", [ProfileKind.DN_SINE, ProfileKind.ND_COSINE])
def test_overlap_closed_form_matches_quadrature(tail_profile):
    """The build-time oracle: closed forms agree with quadrature to 1e-12,
    and a larger truncation keeps the leading block entry by entry."""
    O = overlap_matrix(tail_profile, 8)
    assert O.shape == (8, 8)
    for k in range(8):
        for m in range(8):
            assert abs(O[k, m] - overlap_quadrature(tail_profile, k, m)) < 1e-12, (k, m)
    assert np.array_equal(overlap_matrix(tail_profile, 32)[:8, :8], O)


def test_overlap_sign_relation():
    """D_km = (-1)^(k+m) C_km."""
    C = overlap_matrix(ProfileKind.DN_SINE, 6)
    D = overlap_matrix(ProfileKind.ND_COSINE, 6)
    idx = np.arange(6)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    np.testing.assert_allclose(D, sign * C, rtol=1e-14, atol=0.0)


def test_overlap_memoised_read_only():
    """Every call for one family and truncation shares one array, which
    no caller can change."""
    O = overlap_matrix(ProfileKind.DN_SINE, 8)
    assert overlap_matrix(ProfileKind.DN_SINE, 8) is O
    with pytest.raises(ValueError):
        O[0, 0] = 0.0


def test_overlap_rejects_bad_pairs():
    with pytest.raises(ValueError):
        overlap_matrix(ProfileKind.NN_COSINE, 4)  # center family is not a tail family
    with pytest.raises(ValueError):
        overlap_quadrature(ProfileKind.NN_COSINE, 0, 0)


def test_parseval_partial_sums():
    """sum_m C_km^2 is nondecreasing and reaches >= 0.999 at M=200 for k<=4."""
    rows = overlap_matrix(ProfileKind.DN_SINE, 201)[:5] ** 2
    for k, terms in enumerate(rows):
        partial = np.cumsum(terms)
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] >= 0.999
        if k == 0:
            # anchor: partial sum at M=1 is about 0.9907 and already > 0.99
            assert partial[1] == pytest.approx(0.9907, abs=5e-4)
        # completeness bound: partial sums never exceed 1 (Bessel)
        assert partial[-1] <= 1.0 + 1e-12
