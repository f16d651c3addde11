"""The states of a parity sector as the roots of its junction level.

Both solvers reduce a sector to one continuous, increasing scalar: the
junction phase over pi, less 1/2 in the odd sector (``modematch`` from
its matching matrix, ``fdm_oracle`` from its end columns).  State k
(0-based) sits where the level crosses k, so the count at or below E is
floor(level(E)) + 1 and k is each state's count certificate.

Both levels rest on g = o^T R^-1 o > 0 for a positive definite R, read
from the last row of the Cholesky factor of R bordered by o and
BORDER_CORNER, and both R have one form, U diag(w) U^T + diag(d) with
fixed terms U and per-lane weights w and diagonal d (mode matching's
O_1, the oracle's end-column coupling C_1).  ``bordered_factors`` is
the one stacked kernel that factors them: it writes many lanes' bordered
matrices into one stack with one matrix product, capped at
STACK_DOUBLES, factors the stack with one call, and takes numpy's 2-D
paths for a lone lane.  ``brent_steps`` is the bracketing root finder: Brent's
method (Algorithms for Minimization without Derivatives, 1973, ch. 4)
in the widely used C ``brentq`` form, step for step.  It is a coroutine
that yields each point it needs and is sent the value there, as is
``level_steps``, the chain of a sector's roots.  ``brent`` drives one
with a scalar function and ``drive`` any of them; ``lockstep`` advances
many chains together, so that the points of one round can be evaluated
in one stacked call (``modematch.sector_phase``,
``fdm_oracle.EndColumns.levels``).
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["bordered_factors", "brent", "brent_steps", "drive", "lane_rows", "lane_values",
           "level_steps", "lockstep"]

#: corner of the bordered matrix: any value above o^T R^-1 o keeps it
#: positive definite, and only the factor's corner entry depends on it
BORDER_CORNER = 1e300

#: doubles of bordered matrices that one stacked factorization of
#: ``bordered_factors`` holds, max(1, STACK_DOUBLES // (n + 1)^2) lanes of
#: order n + 1 (15 at n = 32, 3 at n = 64, 1 from n = 90 on).  In a loop a
#: mode-matching lane at N = 64 costs 49 us alone, 39 us in stacks of 5 to
#: 12 and 52 us in stacks of 16, but a whole scan of A at lambda = 20.2 runs
#: faster in stacks of 3 than of 7, whose operands push the rest of the
#: scan's data out of the cache.  Larger stacks also make temporaries above
#: the C allocator's default mmap threshold (128 KiB), paged in afresh on
#: every call: two oracle lanes at h = 1/160 took 1.55 ms stacked against
#: 1.10 ms one at a time, and 1.09 ms stacked with that threshold raised
STACK_DOUBLES = 16_384

#: relative part of brent's tolerance, 4 eps, and its iteration limit
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100


def brent_steps(a: float, b: float, xtol: float, target: float = 0.0):
    """Coroutine of Brent's method on the bracket [a, b]: yields each point
    x at which it needs f, is sent f(x), and returns the root of f -
    target to xtol + BRENT_RTOL |x|.

    Each step interpolates (secant, or inverse quadratic through three
    points) when that shrinks the bracket fast enough, else bisects.  A
    nonpositive xtol, a NaN value of f or a bracket whose ends have the
    same sign raise ValueError; no convergence in BRENT_MAXITER steps
    raises RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = _number(xpre, (yield xpre) - target)
    fcur = _number(xcur, (yield xcur) - target)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.inf  # bisect unless an interpolated step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an infinite or NaN step in IEEE arithmetic
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _number(xcur, (yield xcur) - target)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur}")


def _number(x: float, fx: float) -> float:
    """fx, the value at x, unless it is NaN (ValueError)."""
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def level_steps(lo: float, hi: float, xtol: float, cap: int | None = None):
    """Coroutine of a sector's roots: yields each E at which it needs the
    level, is sent level(E), and returns the list of (k, E), ascending:
    for each integer k in (level(lo), level(hi)], the lowest ``cap`` of
    them (all when cap is None), the Brent root E of level - k on
    [previous root, hi] to ``xtol``, starting from ``lo``."""
    roots = []
    for k in range(math.floor((yield lo)) + 1, math.floor((yield hi)) + 1)[:cap]:
        lo = yield from brent_steps(lo, hi, xtol, k)
        roots.append((k, lo))
    return roots


def drive(steps, f):
    """Return value of the coroutine ``steps`` sent f(x) at each x it yields."""
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def brent(f, a: float, b: float, xtol: float) -> float:
    """Root of f in the bracket [a, b]: ``brent_steps`` driven by f."""
    return drive(brent_steps(a, b, xtol), f)


def bordered_factors(terms, terms_t, last_row, lanes: int, operands):
    """Yield (g, L) of each of ``lanes`` lanes, in order: L the lower
    Cholesky factor of [[R, b], [b^T, BORDER_CORNER]], R = terms diag(w)
    terms_t + diag(d) and last_row = (b, BORDER_CORNER), and g = b^T R^-1 b,
    the squared norm of L's last row without its corner.

    operands(index) gives the lanes' term weights w and diagonal d: one row
    per lane for a slice of lanes, or the 1-D rows of lane ``index`` alone,
    whose one matrix keeps numpy on its 2-D fast paths (``lane_values`` and
    ``lane_rows`` read a lane's inputs the same way).  The lanes are
    stacked, at most STACK_DOUBLES of bordered matrices at a time: one
    matrix product writes every R into the stack, the diagonal is added to
    it, and one factorization factors it.  Every operation acts on each
    lane as on a lone matrix, so a lane's factor does not depend on the
    lanes stacked with it.
    """
    n = last_row.size - 1
    size = max(1, STACK_DOUBLES // (n + 1) ** 2)
    for start in range(0, lanes, size):
        stack = min(size, lanes - start)
        one = stack == 1
        w, d = operands(start if one else slice(start, start + stack))
        bordered = np.empty((n + 1, n + 1) if one else (stack, n + 1, n + 1))
        np.matmul(terms * (w if one else w[:, None]), terms_t, out=bordered[..., :n, :n])
        bordered.reshape(-1 if one else (stack, -1))[..., : n * (n + 2) : n + 2] += d
        bordered[..., n, :] = bordered[..., :, n] = last_row
        factors = np.linalg.cholesky(bordered)
        for L in (factors,) if one else factors:
            z = L[n, :n]
            yield float(z.dot(z)), L


def lane_values(values, index):
    """The lanes ``index`` of the per-lane sequence ``values``, as
    ``bordered_factors`` hands them to its operands: the float of one lane
    (an int index), else a column array with one row per lane."""
    if isinstance(index, int):
        return values[index]
    return np.array(values[index], dtype=float)[:, None]


def lane_rows(sectors, index):
    """The table rows of the lanes ``index`` of ``sectors``, as
    ``lane_values`` reads them: 0 for the even sector, 1 for the odd."""
    if isinstance(index, int):
        return (1 - sectors[index]) // 2
    return [(1 - sector) // 2 for sector in sectors[index]]


def lockstep(chains, evaluate) -> tuple[list, list]:
    """Advance the coroutines ``chains`` together, each as ``drive`` would.

    In every round each running chain has one pending point, and all of
    them go to one call evaluate(indices, points), which returns their
    values in order (index i names chains[i]).  A chain that asks again
    for a point it was sent a value at gets that value at once, so each
    point costs one evaluation per chain.  Returns each chain's return
    value and its dict of evaluated points and values.
    """
    values = [{} for _ in chains]
    results = [None] * len(chains)
    running = list(range(len(chains)))
    fx = [None] * len(chains)  # send(None) starts a chain
    while running:
        indices, points = [], []
        for i, value in zip(running, fx):
            send, seen = chains[i].send, values[i]
            try:
                x = send(value)
                while x in seen:
                    x = send(seen[x])
            except StopIteration as stop:
                results[i] = stop.value
                continue
            indices.append(i)
            points.append(x)
        if not indices:
            break
        fx = evaluate(indices, points)
        for i, x, value in zip(indices, points, fx):
            values[i][x] = value
        running = indices
    return results, values
