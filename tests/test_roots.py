"""Tests for the root finder both solvers share.

Oracle: ``scipy.optimize.brentq``, the reference implementation of the
same algorithm.  ``roots.brent`` and the chain ``roots.level_steps``
must agree with it bit for bit: the same root and the same sequence of
evaluation points, on the solvers' real junction levels and on random
brackets, and the same exceptions.
"""

import math
from functools import partial
from itertools import islice

import numpy as np
import pytest
from scipy.optimize import brentq

import matching_reference as ref
from roots_reference import bordered_cholesky, level_roots
from wavebound import modematch as mm
from wavebound import roots
from wavebound.fdm_oracle import ROOT_FRAC, WINDOW_LO_FRAC, EndColumns, FdmGrid
from wavebound.geometry import SECTORS, Geometry, ModelKind


def recorded(f):
    """f and the list its evaluation points are appended to."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def both(f, a, b, xtol):
    """(root, evaluation points) from brent and from brentq."""
    out = []
    for solve in (roots.brent, lambda h, a, b, xtol: brentq(h, a, b, xtol=xtol)):
        g, points = recorded(f)
        out.append((solve(g, a, b, xtol), points))
    return out


def chain_roots(level, lo, hi, xtol):
    """(k, E) of each root of the chain ``roots.level_steps`` driven by level."""
    return roots.drive(roots.level_steps(lo, hi, xtol), level)


def reference_level_roots(level, lo, hi, xtol):
    """The chain's roots with brentq in place of brent."""
    for k in range(math.floor(level(lo)) + 1, math.floor(level(hi)) + 1):
        lo = brentq(lambda E: level(E) - k, lo, hi, xtol=xtol)
        yield k, lo


def assert_same_level_roots(level, lo, hi, xtol):
    runs = []
    for finder in (chain_roots, reference_level_roots):
        g, points = recorded(level)
        runs.append((list(finder(g, lo, hi, xtol)), points))
    (found, points), (expected, expected_points) = runs
    assert found == expected
    assert points == expected_points
    return len(found)


@pytest.mark.parametrize("model,lam", [
    (ModelKind.A, 0.5), (ModelKind.A, 20.2), (ModelKind.B, 2.5),
], ids=["A-0.5", "A-20.2", "B-2.5"])
def test_matches_brentq_on_the_mode_matching_levels(model, lam):
    geometry = Geometry.from_lambda(lam)
    mu = geometry.mu
    levels = [partial(ref.level, model, geometry, 64, sector=sector) for sector in SECTORS]
    assert sum(assert_same_level_roots(level, mm.SCAN_LO_FRAC * mu, mu, mm.REFINE_FRAC * mu)
               for level in levels) == len(mm.scan_spectrum(model, geometry).eigenvalues)


def test_matches_brentq_on_the_oracle_level():
    geometry = Geometry.from_lambda(0.5)
    ends = EndColumns.build(ModelKind.A, geometry, FdmGrid.from_spacing(geometry, 1 / 32))
    mu_h = ends.threshold

    def level(E):
        return ends.levels([E], [1])[0]

    assert assert_same_level_roots(level, WINDOW_LO_FRAC * mu_h, mu_h, ROOT_FRAC * mu_h) == 1


#: root r, steepness c
FAMILIES = (
    lambda r, c: lambda x: (x - r) * (1.0 + c * (x - r) ** 2),
    lambda r, c: lambda x: math.atan(c * (x - r)),
    lambda r, c: lambda x: math.exp(min(c * (x - r), 700.0)) - 1.0,
    lambda r, c: lambda x: math.tanh(c * (x - r)) + 0.1 * (x - r) ** 3,
    lambda r, c: lambda x: float((x > r) - (x < r)),
)


def test_matches_brentq_on_random_brackets():
    """12,000 brackets of smooth, steep, flat and discontinuous
    functions, either way round, with xtol from 1e-15 to 1e-2 and some
    ends on the root itself.  Values scaled by 1e-300 to 1e300 make the
    interpolation's products underflow to zero and overflow to inf."""
    rng = np.random.default_rng(20)
    for i in range(12_000):
        r = float(rng.uniform(-2.0, 2.0))
        c = float(10.0 ** rng.uniform(-1.0, 3.0))
        scale = float(10.0 ** rng.uniform(-300.0, 300.0))
        f = partial(lambda s, g, x: s * g(x), scale, FAMILIES[i % len(FAMILIES)](r, c))
        a = r - float(10.0 ** rng.uniform(-3.0, 1.0))
        b = r + float(10.0 ** rng.uniform(-3.0, 1.0))
        if i % 97 == 0:
            a = r
        if i % 2:
            a, b = b, a
        xtol = float(10.0 ** rng.uniform(-15.0, -2.0))
        (root, points), (expected, expected_points) = both(f, a, b, xtol)
        assert root == expected
        assert points == expected_points


def test_nonpositive_xtol_rejected():
    for xtol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="xtol too small"):
            roots.brent(math.sin, -1.0, 1.0, xtol)
        with pytest.raises(ValueError, match="xtol too small"):
            brentq(math.sin, -1.0, 1.0, xtol=xtol)


def test_nan_rejected():
    """A NaN at an end of the bracket or at a later step is an error."""
    def late(x):
        return x if abs(x) == 1.0 else math.nan

    for f in (lambda x: math.nan, late):
        g, points = recorded(f)
        with pytest.raises(ValueError, match="NaN"):
            roots.brent(g, -1.0, 1.0, 1e-12)
        h, expected_points = recorded(f)
        with pytest.raises(ValueError, match="NaN"):
            brentq(h, -1.0, 1.0, xtol=1e-12)
        assert points == expected_points


def test_same_signs_rejected():
    for a, b in ((1.0, 2.0), (-2.0, -1.0)):
        with pytest.raises(ValueError, match="different signs"):
            roots.brent(math.atan, a, b, 1e-12)
        with pytest.raises(ValueError, match="different signs"):
            brentq(math.atan, a, b, xtol=1e-12)


def test_no_convergence_in_100_steps():
    """A jump at 1e-300 needs about a thousand bisections at xtol 1e-300;
    both stop after 100 steps, 102 evaluations."""
    def step(x):
        return -1.0 if x < 1e-300 else 1.0

    g, points = recorded(step)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        roots.brent(g, -1.0, 1.0, 1e-300)
    h, expected_points = recorded(step)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        brentq(h, -1.0, 1.0, xtol=1e-300)
    assert len(points) == roots.BRENT_MAXITER + 2
    assert points == expected_points


def test_bordered_cholesky_gives_the_quadratic_form():
    """The last row z of the bordered factor has z.z = o^T R^-1 o, and a
    matrix R that is not positive definite raises LinAlgError."""
    rng = np.random.default_rng(3)
    for n in (1, 5, 33, 64):
        X = rng.standard_normal((n, n))
        R = X @ X.T + n * np.eye(n)
        o = rng.standard_normal(n)
        L = bordered_cholesky(R, o)
        assert L.shape == (n + 1, n + 1)
        z = L[n, :n]
        assert z @ z == pytest.approx(o @ np.linalg.solve(R, o), rel=1e-12)
        assert np.allclose(L[:n, :n] @ L[:n, :n].T, R, rtol=1e-13, atol=1e-12 * n)
    with pytest.raises(np.linalg.LinAlgError):
        bordered_cholesky(-np.eye(3), np.ones(3))


def test_lockstep_matches_the_scalar_drivers():
    """Chains of ``brent_steps`` and ``level_steps`` advanced together
    return what ``brent`` and the lazy root loop ``level_roots`` cut by
    islice at the chain's cap return, each chain asking for the same
    points in the same order; every round's points go to one call, and a
    point a chain asks for again is not evaluated again."""
    rng = np.random.default_rng(7)
    functions, chains, expected = [], [], []
    for i in range(40):
        f = FAMILIES[i % 4](float(rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-1.0, 2.0)))
        g, points = recorded(f)
        expected.append((roots.brent(g, -2.0, 2.0, 1e-12), points))
        functions.append(f)
        chains.append(roots.brent_steps(-2.0, 2.0, 1e-12))
    for shift in (0.0, 0.3, 2.5):
        for cap in (None, 1, 2, 4):
            level = partial(lambda s, x: 3.0 * x + math.sin(7.0 * x) / 8.0 + s, shift)
            g, points = recorded(level)
            found = list(islice(level_roots(g, 0.0, 2.0, 1e-12), cap))
            expected.append((found, points))
            functions.append(level)
            chains.append(roots.level_steps(0.0, 2.0, 1e-12, cap))
    asked = [[] for _ in chains]
    rounds = []

    def evaluate(indices, points):
        rounds.append(len(points))
        for i, x in zip(indices, points):
            asked[i].append(x)
        return [functions[i](x) for i, x in zip(indices, points)]

    results, values = roots.lockstep(chains, evaluate)
    for result, seen, points, (expected_result, expected_points) in zip(
            results, values, asked, expected):
        assert result == expected_result
        assert points == list(dict.fromkeys(expected_points))  # each point once
        assert list(seen) == points
    assert len(rounds) == max(map(len, asked))
    assert sum(rounds) == sum(map(len, asked))


def test_lockstep_raises_a_chain_error():
    """A chain that raises stops the lockstep with its error."""
    chains = [roots.brent_steps(-1.0, 1.0, 1e-12), roots.brent_steps(1.0, 2.0, 1e-12)]
    with pytest.raises(ValueError, match="different signs"):
        roots.lockstep(chains, lambda indices, points: [math.atan(x) for x in points])
