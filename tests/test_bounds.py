"""Tests for the closed-form bracketing module."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebound.bounds import (
    check_spectrum,
    critical_lambda_window,
    eigenvalue_window,
    state_count_bounds,
)


def test_state_count_anchor_values():
    assert state_count_bounds(0.5) == (0, 1)
    assert state_count_bounds(2.5) == (2, 3)
    assert state_count_bounds(1.0) == (0, 1)  # boundary integer case


def test_state_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        state_count_bounds(0.0)
    with pytest.raises(ValueError):
        state_count_bounds(-1.0)


@given(lam=st.floats(1e-3, 50.0))
@settings(max_examples=200, deadline=None)
def test_state_count_properties(lam):
    n_min, n_max = state_count_bounds(lam)
    assert n_max - n_min == 1
    assert n_min >= 0
    # n_max equals ceil(lam): bound states guaranteed only for lam > 1
    assert n_max == math.ceil(lam)
    assert (n_min >= 1) == (lam > 1.0)


def test_eigenvalue_window_anchor_values():
    assert eigenvalue_window(1, 0.7)[0] == 0.0
    assert eigenvalue_window(1, 0.5) == (0.0, 1.0)  # upper clamped, vacuous
    lower, upper = eigenvalue_window(2, 2.5)
    assert lower == pytest.approx(0.16, rel=1e-12)
    assert upper == pytest.approx(0.64, rel=1e-12)


def test_eigenvalue_window_rejects_bad_m():
    with pytest.raises(ValueError):
        eigenvalue_window(0, 0.5)


@given(m=st.integers(1, 10), lam=st.floats(1e-2, 20.0))
@settings(max_examples=200, deadline=None)
def test_eigenvalue_window_properties(m, lam):
    lower, upper = eigenvalue_window(m, lam)
    assert 0.0 <= lower
    assert upper <= 1.0
    # the window is consistent: lower below the unclamped upper
    assert lower <= (m / lam) ** 2


def test_critical_lambda_window():
    assert critical_lambda_window(1) == (0.0, 1.0)
    assert critical_lambda_window(2) == (1.0, 2.0)
    assert critical_lambda_window(3) == (2.0, 3.0)
    with pytest.raises(ValueError):
        critical_lambda_window(0)


def test_check_spectrum_accepts_consistent():
    # lam = 2.5: two or three states, eigenvalue windows per m
    assert check_spectrum(2.5, [0.1, 0.3]) == []
    assert check_spectrum(2.5, [0.1, 0.3, 0.9]) == []


def test_check_spectrum_flags_count_violation():
    msgs = check_spectrum(2.5, [0.1])  # only one state: below n_min=2
    assert any("state count" in m for m in msgs)
    # with unstable roots the count bracket is not binding
    assert check_spectrum(2.5, [0.1], all_stable=False) == []


def test_check_spectrum_flags_window_violation():
    msgs = check_spectrum(2.5, [0.1, 0.1])  # m=2 below lower bound 0.16
    assert any("m=2" in m for m in msgs)
