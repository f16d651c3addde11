"""Tests for the geometry layer: bases, decay rates, overlap integrals.

The closed-form overlaps are verified against adaptive quadrature (the
independent oracle) before anything else relies on them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebound.geometry import (
    Geometry,
    ModelKind,
    ProfileKind,
    Region,
    TransverseMode,
    decay_rate,
    overlap,
    overlap_matrix,
    overlap_quadrature,
    region_profile,
)

FAMILIES = [ProfileKind.DN_SINE, ProfileKind.ND_COSINE, ProfileKind.NN_COSINE]


# ---------------------------------------------------------------------------
# Geometry value type
# ---------------------------------------------------------------------------


def test_geometry_derived_quantities():
    g = Geometry(d=2.0, delta=1.0)
    assert g.lam == 0.5
    assert g.mu == pytest.approx(math.pi**2 / 16.0, rel=1e-15)


def test_geometry_rejects_nonpositive():
    with pytest.raises(ValueError):
        Geometry(d=0.0, delta=0.5)
    with pytest.raises(ValueError):
        Geometry(d=1.0, delta=0.0)
    with pytest.raises(ValueError):
        Geometry(d=1.0, delta=-0.1)


@given(lam=st.floats(0.01, 10.0), d=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_geometry_lambda_roundtrip(lam, d):
    g = Geometry.from_lambda(lam, d=d)
    assert g.lam == pytest.approx(lam, rel=1e-12)
    assert g.mu == pytest.approx(math.pi**2 / (4 * d * d), rel=1e-14)


def test_region_profiles():
    assert region_profile(ModelKind.A, Region.I) is ProfileKind.DN_SINE
    assert region_profile(ModelKind.A, Region.II) is ProfileKind.NN_COSINE
    assert region_profile(ModelKind.A, Region.III) is ProfileKind.ND_COSINE
    assert region_profile(ModelKind.B, Region.I) is ProfileKind.ND_COSINE
    assert region_profile(ModelKind.B, Region.II) is ProfileKind.NN_COSINE
    assert region_profile(ModelKind.B, Region.III) is ProfileKind.ND_COSINE


# ---------------------------------------------------------------------------
# Mode families: orthonormality, symmetry, eigenvalues
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", FAMILIES)
@pytest.mark.parametrize("d", [1.0, 0.7])
def test_orthonormality_gram_matrix(profile, d):
    """Gram matrix of the first 8 modes equals identity within 1e-10."""
    from scipy.integrate import quad

    modes = [TransverseMode(profile, k, d=d) for k in range(8)]
    gram = np.empty((8, 8))
    for i in range(8):
        for j in range(i, 8):
            val, _ = quad(
                lambda y: float(modes[i](y) * modes[j](y)), 0.0, d, limit=200
            )
            gram[i, j] = gram[j, i] = val
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


@pytest.mark.parametrize("k", range(6))
def test_reflection_symmetry_sine_vs_cosine(k):
    """u_k(d - y) = (-1)^k v_k(y) pointwise within 1e-12 on a 101-point grid."""
    d = 1.0
    u = TransverseMode(ProfileKind.DN_SINE, k, d=d)
    v = TransverseMode(ProfileKind.ND_COSINE, k, d=d)
    y = np.linspace(0.0, d, 101)
    assert np.max(np.abs(u(d - y) - (-1.0) ** k * v(y))) < 1e-12


def test_transverse_eigenvalues():
    d = 1.0
    assert TransverseMode(ProfileKind.DN_SINE, 0, d=d).transverse_eigenvalue == pytest.approx(
        math.pi**2 / 4, rel=1e-15
    )
    assert TransverseMode(ProfileKind.ND_COSINE, 1, d=d).transverse_eigenvalue == pytest.approx(
        9 * math.pi**2 / 4, rel=1e-15
    )
    assert TransverseMode(ProfileKind.NN_COSINE, 0, d=d).transverse_eigenvalue == 0.0
    assert TransverseMode(ProfileKind.NN_COSINE, 3, d=d).transverse_eigenvalue == pytest.approx(
        9 * math.pi**2, rel=1e-15
    )


def test_boundary_conditions_of_profiles():
    d = 1.0
    u = TransverseMode(ProfileKind.DN_SINE, 2, d=d)
    v = TransverseMode(ProfileKind.ND_COSINE, 2, d=d)
    assert u(0.0) == 0.0  # Dirichlet at y=0
    assert abs(v(d)) < 1e-15  # Dirichlet at y=d


# ---------------------------------------------------------------------------
# decay_rate
# ---------------------------------------------------------------------------


def test_decay_rate_trivial_case():
    u0 = TransverseMode(ProfileKind.DN_SINE, 0, d=1.0)
    assert decay_rate(u0, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_decay_rate_rejects_threshold_and_propagating():
    g = Geometry(d=1.0, delta=0.5)
    u0 = TransverseMode(ProfileKind.DN_SINE, 0, d=1.0)
    with pytest.raises(ValueError):
        decay_rate(u0, g.mu)  # kappa = 0, degenerate tail
    with pytest.raises(ValueError):
        decay_rate(u0, 2 * g.mu)


def test_decay_rate_derived_example():
    """NN_cosine m=1, d=1, E = 0.5 mu -> gamma = sqrt(pi^2 - pi^2/8)."""
    w1 = TransverseMode(ProfileKind.NN_COSINE, 1, d=1.0)
    g = Geometry(d=1.0, delta=0.5)
    gamma = decay_rate(w1, 0.5 * g.mu)
    assert gamma == pytest.approx(math.sqrt(math.pi**2 - math.pi**2 / 8), rel=1e-12)
    assert gamma == pytest.approx(2.9386, abs=1e-4)


@given(
    k=st.integers(0, 20),
    frac=st.floats(1e-6, 1.0 - 1e-9),
    profile=st.sampled_from(FAMILIES),
)
@settings(max_examples=100, deadline=None)
def test_decay_rate_algebraic_identity(k, frac, profile):
    """decay_rate^2 + E equals the transverse eigenvalue to near machine."""
    if profile is ProfileKind.NN_COSINE and k == 0:
        k = 1  # the constant mode has eigenvalue 0: no evanescent window
    mode = TransverseMode(profile, k, d=1.0)
    ev = mode.transverse_eigenvalue
    E = frac * ev
    kappa = decay_rate(mode, E)
    assert abs(kappa * kappa + E - ev) <= 1e-14 * max(ev, 1.0)


# ---------------------------------------------------------------------------
# overlap: closed forms vs quadrature oracle
# ---------------------------------------------------------------------------


def test_overlap_trivial_anchor_values():
    u0 = TransverseMode(ProfileKind.DN_SINE, 0)
    v0 = TransverseMode(ProfileKind.ND_COSINE, 0)
    w0 = TransverseMode(ProfileKind.NN_COSINE, 0)
    expected = 2 * math.sqrt(2) / math.pi  # 0.900316...
    assert overlap(u0, w0) == pytest.approx(expected, rel=1e-15)
    assert overlap(v0, w0) == pytest.approx(expected, rel=1e-15)
    assert overlap(u0, w0) == pytest.approx(0.900316, abs=1e-6)


@pytest.mark.parametrize("tail_profile", [ProfileKind.DN_SINE, ProfileKind.ND_COSINE])
def test_overlap_closed_form_matches_quadrature(tail_profile):
    """The build-time oracle: closed forms agree with quadrature to 1e-12,
    and the matrix form holds the scalar values entry by entry."""
    O = overlap_matrix(tail_profile, 8)
    assert O.shape == (8, 8)
    for k in range(8):
        for m in range(8):
            t = TransverseMode(tail_profile, k)
            c = TransverseMode(ProfileKind.NN_COSINE, m)
            assert abs(overlap(t, c) - overlap_quadrature(t, c)) < 1e-12, (k, m)
            assert abs(O[k, m] - overlap_quadrature(t, c)) < 1e-12, (k, m)
            assert O[k, m] == overlap(t, c), (k, m)


def test_overlap_sign_relation():
    """D_km = (-1)^(k+m) C_km."""
    for k in range(6):
        for m in range(6):
            u = TransverseMode(ProfileKind.DN_SINE, k)
            v = TransverseMode(ProfileKind.ND_COSINE, k)
            w = TransverseMode(ProfileKind.NN_COSINE, m)
            assert overlap(v, w) == pytest.approx(
                (-1.0) ** (k + m) * overlap(u, w), rel=1e-14
            )


def test_overlap_rejects_bad_pairs():
    u = TransverseMode(ProfileKind.DN_SINE, 0)
    w = TransverseMode(ProfileKind.NN_COSINE, 0)
    with pytest.raises(ValueError):
        overlap(w, w)  # center family is not a tail family
    with pytest.raises(ValueError):
        overlap(u, u)  # tail family is not the center family
    with pytest.raises(ValueError):
        overlap(u, TransverseMode(ProfileKind.NN_COSINE, 0, d=2.0))  # width mismatch
    with pytest.raises(ValueError):
        overlap_matrix(ProfileKind.NN_COSINE, 4)


def test_parseval_partial_sums():
    """sum_m C_km^2 is nondecreasing and reaches >= 0.999 at M=200 for k<=4."""
    for k in range(5):
        u = TransverseMode(ProfileKind.DN_SINE, k)
        terms = np.array(
            [overlap(u, TransverseMode(ProfileKind.NN_COSINE, m)) ** 2 for m in range(201)]
        )
        partial = np.cumsum(terms)
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] >= 0.999
        if k == 0:
            # anchor: partial sum at M=1 is about 0.9907 and already > 0.99
            assert partial[1] == pytest.approx(0.9907, abs=5e-4)
    # completeness bound: partial sums never exceed 1 (Bessel)
    assert partial[-1] <= 1.0 + 1e-12
