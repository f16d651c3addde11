"""Eigenvalues of a symmetric matrix family by count, then Brent.

The finite-difference oracle reduces its problem to a symmetric matrix
M(E) that decreases in E between poles.  The number of eigenvalues of
the problem below E is then the number of negative eigenvalues of M(E)
plus the number of poles below E (Wittrick & Williams, Q. J. Mech.
Appl. Math. 24 (1971) 263), and each eigenvalue is a zero of the one
eigenvalue of M(E) that crosses zero there.  (Mode matching counts and
refines its states on a scalar phase instead, ``modematch``.)
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh
from scipy.optimize import brentq

__all__ = ["count_roots"]


def count(matrix, poles, E: float) -> tuple[int, np.ndarray]:
    """Number of eigenvalues below E, neg(``matrix(E)``) + ``poles(E)``,
    with the eigenvalues of ``matrix(E)`` it was read from."""
    w = eigvalsh(matrix(E), check_finite=False)
    return int(np.count_nonzero(w < 0.0)) + poles(E), w


def count_roots(matrix, poles, lo: float, hi: float, xtol: float):
    """Yield, ascending, the eigenvalues in (lo, hi] of a problem whose
    count below E is neg(``matrix(E)``) + ``poles(E)``.

    The window is halved by count until each bracket holds one root and
    no pole.  ``matrix`` decreases there, so with count c and p poles at
    the lower end, its eigenvalue j = c - p falls from >= 0 to < 0 and
    brentq finds its zero to ``xtol``, taking the end values from the
    eigenvalues the counts there computed.  A bracket that reaches that
    width with several roots, or a root next to a pole, gives its
    midpoint per root.
    """

    def end(E: float) -> tuple:
        return E, *count(matrix, poles, E)

    def crossing(E: float, j: int, ends: tuple) -> float:
        for at, _, w in ends:
            if E == at:
                return w[j]
        return eigvalsh(matrix(E), subset_by_index=[j, j], check_finite=False)[0]

    brackets = [(end(lo), end(hi))]
    while brackets:
        ends = brackets.pop()
        (lo, c_lo, _), (hi, c_hi, _) = ends
        if c_hi == c_lo:
            continue
        p = poles(lo)
        if c_hi - c_lo == 1 and poles(hi) == p:
            yield brentq(crossing, lo, hi, args=(c_lo - p, ends), xtol=xtol)
        elif hi - lo <= xtol:
            yield from [0.5 * (lo + hi)] * (c_hi - c_lo)
        else:
            mid = end(0.5 * (lo + hi))
            brackets += [(mid, ends[1]), (ends[0], mid)]
