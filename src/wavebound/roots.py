"""The states of a parity sector as the roots of its junction level.

Both solvers reduce a sector to one continuous, increasing scalar: the
junction phase over pi, less 1/2 in the odd sector (``modematch`` from
its matching matrix, ``fdm_oracle`` from its end columns).  State k
(0-based) sits where the level crosses k, so the count at or below E is
floor(level(E)) + 1 and k is each state's count certificate.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

__all__ = ["level_roots"]


def level_roots(level, lo: float, hi: float, xtol: float):
    """Yield (k, E), ascending: for each integer k in (level(lo),
    level(hi)], the Brent root E of level - k on [previous root, hi] to
    ``xtol``, starting from ``lo``."""
    for k in range(math.floor(level(lo)) + 1, math.floor(level(hi)) + 1):
        lo = brentq(lambda E: level(E) - k, lo, hi, xtol=xtol)
        yield k, lo
