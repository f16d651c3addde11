"""The scalar root drivers the solvers ran before their chains advanced
in lockstep, kept as references: the bordered Cholesky factorization of
one matrix, and the lazy loop of a sector's roots, one level evaluation
at a time."""

from __future__ import annotations

import math

import numpy as np

from wavebound.roots import BORDER_CORNER, brent_steps, drive


def bordered_cholesky(R: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of [[R, o], [o^T, BORDER_CORNER]].

    Its last row is ((L_R^-1 o)^T, *), with L_R = L[:-1, :-1] the factor
    of R, so g = o^T R^-1 o is the squared norm of L[-1, :-1].  A matrix
    R that is not positive definite raises numpy.linalg.LinAlgError.
    """
    n = o.size
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = R
    bordered[:n, n] = bordered[n, :n] = o
    bordered[n, n] = BORDER_CORNER
    return np.linalg.cholesky(bordered)


def level_roots(level, lo: float, hi: float, xtol: float):
    """Yield (k, E), ascending: for each integer k in (level(lo),
    level(hi)], the Brent root E of level - k on [previous root, hi] to
    ``xtol``, starting from ``lo``, driven by level one root at a time,
    so a caller that stops early evaluates no further."""
    for k in range(math.floor(level(lo)) + 1, math.floor(level(hi)) + 1):
        lo = drive(brent_steps(lo, hi, xtol, k), level)
        yield k, lo
