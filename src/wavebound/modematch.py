"""Interface-matching eigenvalue solver for the three-region strip.

At an energy E below the threshold mu, the field is expanded in the
exact transverse basis of each region:

* region I   (x < -delta):  sum_k a_k exp(+kappa_k (x + delta)) T^I_k(y)
* region II  (|x| < delta): sum_m [alpha_m c_m(x) + beta_m s_m(x)] w_m(y)
* region III (x > delta):   sum_k b_k exp(-kappa_k (x - delta)) T^III_k(y)

with kappa_k the tail decay rates.  The center longitudinal functions
are unit-scaled to keep matrix entries bounded: for m = 0 (the only
propagating center mode below mu) c_0 = cos(sqrt(E) x), s_0 =
sin(sqrt(E) x); for m >= 1 c_m = cosh(gamma_m x)/cosh(gamma_m delta)
and s_m = sinh(gamma_m x)/sinh(gamma_m delta).

Both models are symmetric under a reflection that swaps the tails:
(x, y) -> (-x, 1 - y) when their Dirichlet walls differ (model A), else
x -> -x (model B).  It maps center profile m to p_m times itself and
left tail profile k to p_k times the right one, p_m = (-1)^m or 1
(``ModelKind.parity``).  Every eigenfunction is even or odd under it
(its parity sector s), which fixes b = s p_k a and keeps one center
function f_m per mode: c_m where s p_m = +1, s_m where s p_m = -1.
Matching at x = -delta then suffices.  Value continuity projected on
the center modes gives the center amplitudes, (O^T a)_m = A_m
f_m(-delta), and derivative continuity projected on the tail-I modes
becomes the symmetric N x N system

    M_s(E) a = 0,    M_s(E) = diag(kappa_k) - O diag(Lambda_m) O^T,

with O the tail-I/center overlap matrix and Lambda_m =
f_m'(-delta)/f_m(-delta).  Only m = 0 propagates below mu, so with
o = O[:, 0] the matrix splits as M_s = R_s - Lambda_0 o o^T.  R_s keeps
the modes m >= 1, whose -Lambda_m (gamma_m tanh(gamma_m delta) or
gamma_m coth(gamma_m delta)) are positive and decrease in E, as kappa_k
does: R_s is positive definite on (0, mu], at mu (kappa_0 = 0) too, and
decreases in E, so g_s = o^T R_s^-1 o > 0 increases.  M_s a = 0 means
a ~ R_s^-1 o and Lambda_0 g_s = 1; with Lambda_0 = sqrt(E) tan(sqrt(E) delta)
(even, f_0 = cos) or -sqrt(E) cot(sqrt(E) delta) (odd, f_0 = sin) that is
the junction phase at state k = 0, 1, ... of the sector,

    phi_s(E) = sqrt(E) delta - arctan(1 / (sqrt(E) g_s)) = k pi (even), (k + 1/2) pi (odd).

phi_s rises from -pi/2 at E = 0 and is finite at mu, so k is the state's
count certificate and the count at or below E is a closed form in
phi_s(E).  The Cholesky factor of R_s bordered by o and
``roots.BORDER_CORNER`` gives g_s, and one solve in the same factor the
null vector.  ``sector_phase`` takes lanes (E, delta, sector) at one N
and factors them on ``roots.bordered_factors``, the stacked kernel it
shares with the oracle: R_s has that kernel's form, terms O_1 with lane
weights w and diagonal kappa, so a call costs little more than its
arithmetic.  The operands of R_s that do not depend on E
(O[:, 1:] and o, the squares (nu_k pi)^2 and (m pi)^2, and the sectors'
center masks) are memoised per tail family, N and mask.  Each
eigenvalue keeps the sector it was found in (``Spectrum.sectors``), and
its eigenfield is solved in that sector.

Wide windows share one phase.  For m >= 1 and E <= mu, gamma_m >=
gamma_1(mu) = pi sqrt(3)/2, and from the cut lambda >= WIDE_LAMBDA =
6.97995 on np.tanh(gamma_m delta) rounds to exactly 1.0.  Then w_m =
gamma_m bit for bit in both sectors, and the two tail families differ by
a diagonal sign similarity, so R_s(E) and g(E) are the same for both
sectors, both models and every such lambda: phi_s(E) = sqrt(E) delta -
theta(E) with one theta(E) = atan2(1, sqrt(E) g(E)) per N, and state j =
0, 1, ... solves sqrt(E) delta - theta(E) = j pi/2 (state j/2 of the even
sector for even j, (j - 1)/2 of the odd one for odd j).  ``_phase_table``
tabulates theta at THETA_INTERVALS + 1 Chebyshev-Lobatto nodes in t, E =
mu sin^2 t; ``scan_spectra`` then solves every state at once on its
barycentric interpolant and certifies each root with one exact
evaluation.  Below the cut R_s depends on lambda and the sector, and a
Brent chain per window and sector (``roots.level_steps``) solves the few
states there.  The chains are coroutines, and ``scan_spectra`` advances
those of all its windows in lockstep, so that each round costs one
stacked call.

Each root carries a stability flag: its sector at N' = N + STABILITY_BUMP
(N - STABILITY_BUMP above MAX_MODES) has a root within STABLE_DRIFT_FRAC *
mu of it.  The level phi_s/pi rises at least delta/pi^2 per unit E, so
below the cut one evaluation at N' and the root decides most flags
(``_stable_steps``), with one or two exact probes otherwise; from the cut
on theta_N' is theta_N's table plus a 5-node table of the difference
(``_wide_stable``).

Reported eigenvalues are the dimensionless ratios E/mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    MU,
    SECTORS,
    Geometry,
    ModelKind,
    ProfileKind,
    overlap_matrix,
    profile_values,
)
from .roots import BORDER_CORNER, bordered_factors, lane_rows, lane_values, level_steps, lockstep

__all__ = [
    "SECTORS",
    "Spectrum",
    "EigenField",
    "sector_phase",
    "count_states",
    "scan_spectrum",
    "scan_spectra",
    "solve_coefficients",
    "evaluate_field",
    "solve_field",
]

#: bottom of the scan window, in units of mu; its top is mu itself
SCAN_LO_FRAC = 1e-8

#: refinement width and stability drift tolerances
REFINE_FRAC = 1e-10
STABLE_DRIFT_FRAC = 1e-4

#: truncation bump used by the stability check
STABILITY_BUMP = 8

#: margin, in units of the level phi_s/pi, by which the slope bound of
#: ``_stable`` must clear an integer; far above the level's rounding (1e-13)
_LEVEL_SLACK = 1e-12

#: largest truncation N per region
MAX_MODES = 256

#: reach at which ``evaluate_field`` clips a tail point's distance |x| - delta
#: from its switch point.  Every kappa_k is 0 or at least 2e-8 (kappa_0^2 =
#: (pi/2)^2 - E is 0 or a multiple of the float spacing near mu), so
#: exp(-kappa_k * TAIL_REACH) underflows to 0 as at any point farther out,
#: and kappa_k * TAIL_REACH stays finite (kappa_k < 810 for N <= MAX_MODES)
TAIL_REACH = 1e300

#: Chebyshev-Lobatto intervals of the wide-window phase table (M + 1 nodes)
THETA_INTERVALS = 16

#: the stability check's difference table sits on every DIFFERENCE_STRIDE-th
#: node of the phase table (M / DIFFERENCE_STRIDE + 1 nodes)
DIFFERENCE_STRIDE = 4

#: radians: a phase interpolated with the difference table this close to a
#: count step is evaluated exactly (the table misses by at most 1.1e-6 rad)
DIFFERENCE_GUARD = 1e-5

#: most Illinois steps of the wide-window solve
WIDE_MAX_STEPS = 40

#: gamma_1(mu) = pi sqrt(3) / 2, as sector_phase computes it at E = mu
_GAMMA_1_MU = math.sqrt(math.pi * math.pi - MU)


def _wide_cut() -> float:
    """Smallest double delta at which np.tanh(gamma_1(mu) delta), taken
    on an array as in sector_phase, rounds to exactly 1.0, by bisection."""
    lo, hi = 1.0, 20.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        saturated = np.tanh(np.array([_GAMMA_1_MU * mid]))[0] == 1.0
        lo, hi = (lo, mid) if saturated else (mid, hi)
    return hi


#: the wide-window cut, 6.97995 at d = 1: from it on every tanh(gamma_m delta),
#: m >= 1 and E <= mu, rounds to 1.0, so R_s(E) depends on neither lambda,
#: the sector nor (up to a sign similarity) the model
WIDE_LAMBDA = _wide_cut()

#: the model of each tail-I family: the phase tables are computed with it
#: at the cut
_TAIL_MODEL = {model.tails[0]: model for model in ModelKind}


def _lobatto_weights(intervals: int) -> np.ndarray:
    """Barycentric weights of intervals + 1 Chebyshev-Lobatto nodes:
    (-1)^j, halved at the ends."""
    weights = (-1.0) ** np.arange(intervals + 1)
    weights[[0, -1]] *= 0.5
    return weights


_LOBATTO_WEIGHTS = _lobatto_weights(THETA_INTERVALS)
_DIFFERENCE_WEIGHTS = _lobatto_weights(THETA_INTERVALS // DIFFERENCE_STRIDE)


def _kappa(N: int, E: float) -> np.ndarray:
    """Tail decay rates kappa_k = sqrt((nu_k pi)^2 - E)."""
    nu = np.arange(N) + 0.5
    return np.sqrt((nu * math.pi) ** 2 - E)


def _gamma(N: int, E: float) -> np.ndarray:
    """Center rates: sqrt(E) for the propagating m = 0, else sqrt((m pi)^2 - E)."""
    return np.sqrt(np.abs((np.arange(N) * math.pi) ** 2 - E))


@lru_cache(maxsize=64)
def _center_is_cos(model: ModelKind, sector: int, N: int) -> np.ndarray:
    """Memoised read-only mask: True where f_m is c_m (s p_m = 1), False for s_m."""
    is_cos = sector * model.parity(N) > 0
    is_cos.setflags(write=False)
    return is_cos


def _center_at_interface(
    is_cos: np.ndarray, delta: float, E: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values f_m(-delta) and derivatives f_m'(-delta) of the sector's center functions."""
    g = _gamma(is_cos.size, E)
    f = np.where(is_cos, 1.0, -1.0)
    tanh = np.tanh(g[1:] * delta)
    df = np.empty(is_cos.size)
    df[1:] = np.where(is_cos[1:], -g[1:] * tanh, g[1:] / tanh)
    phase = g[0] * delta
    if is_cos[0]:
        f[0], df[0] = math.cos(phase), g[0] * math.sin(phase)
    else:
        f[0], df[0] = -math.sin(phase), g[0] * math.cos(phase)
    return f, df


@lru_cache(maxsize=64)
def _sector_operands(tail: ProfileKind, model: ModelKind, N: int) -> tuple:
    """Memoised, read-only operands of R_s(E) that do not depend on E, for
    the tail-I family (the model's, a key of its own so that the memo
    follows the family), the model's center masks and N: O_1 = O[:, 1:]
    (contiguous) and O_1^T (its transposed view: a contiguous copy of the
    transpose changes the product's last bits at some N, 33 and 100), the
    bordered matrix's last row (o, BORDER_CORNER) with o = O[:, 0], the
    squares under the rates, (nu_k pi)^2 for kappa_k and then (m pi)^2 for
    gamma_m, m >= 1, and the masks of the even and the odd sector as rows
    0 and 1, m >= 1."""
    O = overlap_matrix(tail, N)
    even = _center_is_cos(model, 1, N)[1:]
    O1 = np.ascontiguousarray(O[:, 1:])
    operands = (
        O1,
        O1.T,
        np.append(O[:, 0], BORDER_CORNER),
        np.concatenate([((np.arange(N) + 0.5) * math.pi) ** 2,
                        (np.arange(N) * math.pi)[1:] ** 2]),
        np.stack([even, ~even]),
    )
    for array in operands:
        array.setflags(write=False)
    return operands


def sector_phase(model: ModelKind, N: int, E, delta, sector):
    """Yield, lane by lane, the junction phase phi_s(E) of one parity
    sector and the lower Cholesky factor L of [[R_s(E), o], [o^T, *]],
    whose last row holds L_R^-1 o, for the lanes (E, delta, sector) of
    the equal-length sequences given, at one truncation N.  Every E (at
    d = 1) must lie in (0, mu], mu included.

    R_s(E) = (O_1 diag(w) O_1^T) + diag(kappa), with O_1 = O[:, 1:] and
    w_m = -Lambda_m = gamma_m tanh(gamma_m delta) (c_m) or
    gamma_m coth(gamma_m delta) (s_m), m >= 1, from the memoised operands,
    factored on the stacked kernel ``roots.bordered_factors``.
    """
    if not (4 <= N <= MAX_MODES):
        raise ValueError(f"truncation N must lie in [4, {MAX_MODES}], got {N}")
    for energy in E:
        if not (0.0 < energy <= MU):
            raise ValueError(f"energy must lie in (0, mu]=(0, {MU}], got {energy}")
    for s in sector:
        if s not in SECTORS:
            raise ValueError(f"sector must be one of {SECTORS}, got {s}")
    O1, O1T, last_row, squares, masks = _sector_operands(model.tails[0], model, N)
    def operands(index):  # w, then kappa for the diagonal
        rates = np.sqrt(squares - lane_values(E, index))  # kappa_k, then gamma_m for m >= 1
        g = rates[..., N:]
        tanh = np.tanh(g * lane_values(delta, index))
        w = g / tanh
        np.putmask(w, masks[lane_rows(sector, index)], g * tanh)
        return w, rates[..., :N]

    factors = bordered_factors(O1, O1T, last_row, len(E), operands)
    for (g, L), energy, half in zip(factors, E, delta):
        root_e = math.sqrt(energy)
        yield root_e * half - math.atan2(1.0, root_e * g), L


def _level_of(phase: float, sector: int) -> float:
    """phi_s/pi, less 1/2 in the odd sector: state k (0-based) sits at k."""
    return phase / math.pi - (1 - sector) / 4


def _levels(model: ModelKind, N: int, E, delta, sector) -> list:
    """The level ``_level_of`` of each lane of ``sector_phase``."""
    return [_level_of(phase, s)
            for (phase, _), s in zip(sector_phase(model, N, E, delta, sector), sector)]


def count_states(model: ModelKind, geometry: Geometry, N: int, E: float) -> int:
    """Number of eigenvalues at or below E of the N-truncated problem, both
    sectors' counts from one stacked call."""
    levels = _levels(model, N, [E] * len(SECTORS), [geometry.delta] * len(SECTORS), SECTORS)
    return sum(math.floor(level) + 1 for level in levels)


def _lockstep(model: ModelKind, N: int, lanes: list, chains: list) -> tuple:
    """``roots.lockstep`` of coroutines on levels at truncation N, chain i
    on the lane lanes[i] = (delta, sector): one stacked ``sector_phase``
    call per round."""
    deltas, sectors = [delta for delta, _ in lanes], [sector for _, sector in lanes]

    def evaluate(indices, points):
        return _levels(model, N, points, list(map(deltas.__getitem__, indices)),
                       list(map(sectors.__getitem__, indices)))

    return lockstep(chains, evaluate)


def _stable_steps(delta: float, E: float):
    """Coroutine of the stability flag of a root E below the cut: yields
    the energies at which it needs the level of the root's sector at N' =
    ``_bumped(N)``, is sent the level there, and returns True when that
    sector has a root within STABLE_DRIFT_FRAC * mu of E (inside the scan
    window).

    With lo and hi the ends of that interval and j = floor(level(E)) at
    N', the sector's count steps between lo and hi exactly when level(lo)
    < j or level(hi) >= j + 1.  The level rises at least delta/pi^2 per
    unit E (``_wide_states``), so the first evaluation, at E, decides most
    roots: level(E) - slope (E - lo) < j proves the first, level(E) +
    slope (hi - E) >= j + 1 the second, each by _LEVEL_SLACK to spare for
    rounding.  Otherwise the end nearer in level is evaluated exactly, hi
    when level(E) - j >= 1/2, and the other end only when it does not
    decide.
    """
    drift = STABLE_DRIFT_FRAC * MU
    lo = max(E - drift, SCAN_LO_FRAC * MU)
    hi = min(E + drift, MU)
    level = yield E
    j = math.floor(level)
    slope = delta / math.pi**2
    if (level - slope * (E - lo) < j - _LEVEL_SLACK
            or level + slope * (hi - E) >= j + 1 + _LEVEL_SLACK):
        return True
    if level - j >= 0.5:
        return (yield hi) >= j + 1 or (yield lo) < j
    return (yield lo) < j or (yield hi) >= j + 1


def _bumped(N: int) -> int:
    """Truncation of the stability check: N + STABILITY_BUMP, or
    N - STABILITY_BUMP above MAX_MODES."""
    return N + STABILITY_BUMP if N + STABILITY_BUMP <= MAX_MODES else N - STABILITY_BUMP


# ---------------------------------------------------------------------------
# Wide windows: one tabulated junction phase
# ---------------------------------------------------------------------------


def _angle(E):
    """t with E = mu sin^2 t, accurate at both ends: atan2(sqrt E, sqrt(mu - E))."""
    return np.arctan2(np.sqrt(E), np.sqrt(MU - E))


@lru_cache(maxsize=8)
def _phase_table(tail: ProfileKind, N: int) -> tuple:
    """Memoised, read-only nodes t_j, E_j and values theta(E_j) = atan2(1,
    sqrt(E_j) g(E_j)) of the phase that every window from WIDE_LAMBDA on
    shares, for the tail-I family and N: phi_s(E) = sqrt(E) delta - theta(E)
    in both sectors.

    The THETA_INTERVALS + 1 nodes are the Chebyshev-Lobatto points in t of
    [t(SCAN_LO_FRAC mu), pi/2], E_j = mu sin^2 t_j; the end nodes sit
    exactly at the window's ends.  theta comes from one ``_node_thetas``.
    """
    E = np.array([SCAN_LO_FRAC * MU, MU])
    t_lo, t_hi = _angle(E)
    t = 0.5 * (t_lo + t_hi) - 0.5 * (t_hi - t_lo) * np.cos(
        np.arange(THETA_INTERVALS + 1) * (math.pi / THETA_INTERVALS))
    t[[0, -1]] = t_lo, t_hi
    E = np.concatenate([E[:1], MU * np.sin(t[1:-1]) ** 2, E[1:]])
    theta = np.array(_node_thetas(tail, N, E.tolist()))
    for array in (t, E, theta):
        array.setflags(write=False)
    return t, E, theta


def _node_thetas(tail: ProfileKind, N: int, E: list) -> list:
    """theta(E) = atan2(1, sqrt(E) g(E)) of the tail-I family at truncation
    N at each energy, g = z.z read from the last row of each factor of one
    stacked ``sector_phase`` call at lambda = WIDE_LAMBDA."""
    lanes = sector_phase(_TAIL_MODEL[tail], N, E, [WIDE_LAMBDA] * len(E), [1] * len(E))
    return [math.atan2(1.0, math.sqrt(e) * (L[N, :N] @ L[N, :N]))
            for e, (_, L) in zip(E, lanes)]


@lru_cache(maxsize=8)
def _phase_difference(tail: ProfileKind, N: int) -> tuple:
    """Memoised, read-only nodes and values Delta = theta_N' - theta_N,
    N' = ``_bumped(N)``, at every DIFFERENCE_STRIDE-th node of
    ``_phase_table(tail, N)``: one ``_node_thetas`` at N'.

    Those nodes are the Chebyshev-Lobatto points of THETA_INTERVALS /
    DIFFERENCE_STRIDE intervals on the same window, so Delta interpolates
    barycentrically on them (weights ``_DIFFERENCE_WEIGHTS``).  Delta is
    smooth and small (at most 4.5e-3 rad at N = 8, 4.2e-5 at N = 64), and
    its interpolant misses it by at most 1.1e-6 rad at N = 8 and 2.3e-10
    at N = 64 between the phase table's nodes.
    """
    t, E, theta = _phase_table(tail, N)
    nodes = t[::DIFFERENCE_STRIDE]
    bumped = _bumped(N)
    difference = np.array(_node_thetas(tail, bumped, E[::DIFFERENCE_STRIDE].tolist()))
    difference -= theta[::DIFFERENCE_STRIDE]
    difference.setflags(write=False)
    return nodes, difference


def _barycentric(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
    """Barycentric interpolant at the angles t (1-D) of the values on the
    Chebyshev-Lobatto nodes whose weights are given."""
    d = t[:, None] - nodes
    on_node = d == 0.0
    d[on_node] = 1.0
    q = weights / d
    out = (q @ values) / q.sum(axis=1)
    rows, cols = np.nonzero(on_node)
    out[rows] = values[cols]
    return out


def _interpolate_theta(table: tuple, t: np.ndarray) -> np.ndarray:
    """Barycentric interpolant of the table's theta at the angles t (1-D)."""
    nodes, _, theta = table
    return _barycentric(nodes, _LOBATTO_WEIGHTS, theta, t)


def _wide_states(model: ModelKind, geometry: Geometry, N: int) -> list:
    """(E, sector, k) of each eigenvalue at lambda >= WIDE_LAMBDA, solved
    on the tabulated phase; ``scan_spectra`` certifies each.

    State k of sector s solves level_s = (sqrt(E) delta - theta(E))/pi
    - (1 - s)/4 = k.  The count per sector comes from the table's exact end
    nodes; all states are solved at once on the interpolated theta, by
    Illinois steps in t from the node brackets.  level_s rises at least
    delta/pi^2 per unit E, so a root whose exact level misses k by r/pi
    lies within r pi / delta of the true one.
    """
    delta = geometry.delta
    table = _phase_table(model.tails[0], N)
    nodes, E_nodes, theta_nodes = table
    base = (np.sqrt(E_nodes) * delta - theta_nodes) / math.pi
    states = [(sector, k) for sector in SECTORS
              for k in range(math.floor(base[0] - (1 - sector) / 4) + 1,
                             math.floor(base[-1] - (1 - sector) / 4) + 1)]
    if not states:
        return []
    offset = np.array([(1 - s) / 4 for s, _ in states])
    ks = np.array([k for _, k in states], dtype=float)

    def excess(t):  # interpolated level_s - k
        phase = math.sqrt(MU) * np.sin(t) * delta - _interpolate_theta(table, t)
        return phase / math.pi - offset - ks

    at_nodes = (base - offset[:, None]) - ks[:, None]
    upper = np.argmax(at_nodes >= 0.0, axis=1)  # first node at or above the root
    rows = np.arange(len(states))
    a, b = nodes[upper - 1], nodes[upper]
    fa, fb = at_nodes[rows, upper - 1], at_nodes[rows, upper]
    side = np.zeros(len(states))  # end replaced last: -1 lower, +1 upper
    tol = 8.0 * np.finfo(float).eps * (1.0 + ks)  # a few roundings of the level
    for _ in range(WIDE_MAX_STEPS):
        t = b - fb * (b - a) / (fb - fa)
        ft = excess(t)
        if np.all(np.abs(ft) <= tol):
            break
        below = ft < 0.0
        # Illinois: halve the value at the end kept for the second time running
        fb = np.where(below & (side < 0), 0.5 * fb, fb)
        fa = np.where(~below & (side > 0), 0.5 * fa, fa)
        a, fa = np.where(below, t, a), np.where(below, ft, fa)
        b, fb = np.where(below, b, t), np.where(below, fb, ft)
        side = np.where(below, -1.0, 1.0)
    return [(E, sector, k) for (sector, k), E in zip(states, (MU * np.sin(t) ** 2).tolist())]


def _wide_stable(model: ModelKind, geometry: Geometry, N: int,
                 E: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """The stability flags for lambda >= WIDE_LAMBDA: the counts at E -+ drift on the
    phase of the truncation N' = ``_bumped(N)``, with theta_N' interpolated
    as theta_N (the table the roots were solved on) plus the difference
    table ``_phase_difference``, so the check costs THETA_INTERVALS /
    DIFFERENCE_STRIDE + 1 evaluations at N' instead of a table there.  A
    level whose interpolated phase lies within DIFFERENCE_GUARD of a count
    step is evaluated exactly at N' instead, all such levels in one call."""
    mu, delta = geometry.mu, geometry.delta
    drift = STABLE_DRIFT_FRAC * mu
    table = _phase_table(model.tails[0], N)
    nodes, difference = _phase_difference(model.tails[0], N)
    bumped = _bumped(N)

    def count(x):  # floor of level_s, which is the sector count less one
        t = _angle(x)
        theta = (_interpolate_theta(table, t)
                 + _barycentric(nodes, _DIFFERENCE_WEIGHTS, difference, t))
        level = (np.sqrt(x) * delta - theta) / math.pi - (1 - sectors) / 4
        near = np.flatnonzero(np.abs(level - np.round(level)) * math.pi < DIFFERENCE_GUARD)
        if near.size:
            level[near] = _levels(model, bumped, x[near].tolist(), [delta] * near.size,
                                  sectors[near].tolist())
        return np.floor(level)

    lo = np.maximum(E - drift, SCAN_LO_FRAC * mu)
    return count(np.minimum(E + drift, mu)) > count(lo)


@dataclass(frozen=True)
class Spectrum:
    """Discrete eigenvalues (as E/mu) with their parity sectors, residuals
    and stability flags.

    Every root of the scan window (1e-8 mu, mu] is an eigenvalue, a
    state at the threshold included.  Each residual is exact: below
    WIDE_LAMBDA the Brent chain's value at its root; from WIDE_LAMBDA on
    one exact evaluation at the root solved on the tabulated phase, and
    r pi / delta bounds that root's distance to the true one.  A and B
    give the same spectrum from WIDE_LAMBDA on.

    A root is stable when its sector at N + STABILITY_BUMP (N -
    STABILITY_BUMP above MAX_MODES) has a root within STABLE_DRIFT_FRAC *
    mu of it (``_stable_steps``, ``_wide_stable``); every flag is True when the
    scan ran ungated.
    """

    model: ModelKind
    geometry: Geometry
    N: int
    eigenvalues: tuple  # E/mu, sorted, inside (0, 1]
    sectors: tuple  # per-eigenvalue parity sector, +1 even or -1 odd
    residuals: tuple  # |phi_s - target_k| in radians at each refined root
    stable: tuple  # per-eigenvalue bool


def scan_spectra(
    model: ModelKind,
    geometries,
    N: int = 64,
    check_stability: bool = True,
) -> list:
    """The Spectrum of each window, in order: all discrete eigenvalues in
    the scan window, from the sector phases, each with the parity sector
    it was found in.

    The window is (SCAN_LO_FRAC * mu, mu].  Below WIDE_LAMBDA each
    sector's roots are the Brent chain ``roots.level_steps``; the chains
    of every such window and sector advance in lockstep, and each round's
    evaluations take one stacked ``sector_phase`` call.  From WIDE_LAMBDA
    on the roots come from the tabulated phase (``_wide_states``), and
    one stacked call certifies all of them.  When ``check_stability`` is
    set, each root is flagged stable when its sector at truncation N +
    STABILITY_BUMP (N - STABILITY_BUMP above MAX_MODES) has a root within
    STABLE_DRIFT_FRAC * mu of it: below WIDE_LAMBDA the coroutines
    ``_stable_steps`` of all roots in lockstep, one evaluation at that
    truncation per root when the level's slope bound decides, two or
    three otherwise; from it on the counts are read from this
    truncation's table plus a difference table of THETA_INTERVALS /
    DIFFERENCE_STRIDE + 1 evaluations.
    """
    geometries = tuple(geometries)
    found = [[] for _ in geometries]  # (E, sector, residual) per window
    lanes = [(i, geometry.delta, sector) for i, geometry in enumerate(geometries)
             if geometry.delta < WIDE_LAMBDA for sector in SECTORS]
    chains = [level_steps(SCAN_LO_FRAC * MU, MU, REFINE_FRAC * MU) for _ in lanes]
    states, values = _lockstep(model, N, [lane[1:] for lane in lanes], chains)
    for (i, _, sector), chain, value in zip(lanes, states, values):
        found[i] += [(E, sector, math.pi * abs(value[E] - k)) for k, E in chain]

    wide = [(i, E, sector, k) for i, geometry in enumerate(geometries)
            if geometry.delta >= WIDE_LAMBDA
            for E, sector, k in _wide_states(model, geometry, N)]
    levels = _levels(model, N, [E for _, E, _, _ in wide],
                     [geometries[i].delta for i, _, _, _ in wide],
                     [s for _, _, s, _ in wide]) if wide else []
    for (i, E, sector, k), level in zip(wide, levels):
        residual = math.pi * abs(level - k)
        if residual * math.pi / geometries[i].delta > REFINE_FRAC * MU:
            raise RuntimeError(
                f"wide-window root E={E} of sector {sector} is not certified to "
                f"{REFINE_FRAC:g} mu: residual {residual:.3g} rad")
        found[i].append((E, sector, residual))

    roots = [sorted(window) for window in found]
    flags = [[True] * len(window) for window in roots]
    if check_stability:
        gated = [(i, r) for i, window in enumerate(roots)
                 if geometries[i].delta < WIDE_LAMBDA for r in range(len(window))]
        lanes = [(geometries[i].delta, roots[i][r][1]) for i, r in gated]
        chains = [_stable_steps(delta, roots[i][r][0])
                  for (i, r), (delta, _) in zip(gated, lanes)]
        for (i, r), flag in zip(gated, _lockstep(model, _bumped(N), lanes, chains)[0]):
            flags[i][r] = flag
        for i, geometry in enumerate(geometries):
            if geometry.delta >= WIDE_LAMBDA and roots[i]:
                E, sectors, _ = map(np.array, zip(*roots[i]))
                flags[i] = _wide_stable(model, geometry, N, E, sectors).tolist()
    return [
        Spectrum(
            model=model,
            geometry=geometry,
            N=N,
            eigenvalues=tuple(E / geometry.mu for E, _, _ in window),
            sectors=tuple(sector for _, sector, _ in window),
            residuals=tuple(residual for _, _, residual in window),
            stable=tuple(window_flags),
        )
        for geometry, window, window_flags in zip(geometries, roots, flags)
    ]


def scan_spectrum(
    model: ModelKind,
    geometry: Geometry,
    N: int = 64,
    check_stability: bool = True,
) -> Spectrum:
    """The Spectrum of one window: ``scan_spectra`` of it alone."""
    return scan_spectra(model, (geometry,), N, check_stability)[0]


# ---------------------------------------------------------------------------
# Eigenfields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenField:
    """Matched modal coefficients of one eigenfunction.

    Normalized to unit L^2 norm over the full strip, in closed form:
    the transverse bases are orthonormal, the tail factors are pure
    exponentials, and the center cross terms int c_m s_m vanish by
    parity.
    """

    model: ModelKind
    geometry: Geometry
    N: int
    E: float
    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def kappa(self) -> np.ndarray:
        return _kappa(self.N, self.E)

    @property
    def gamma(self) -> np.ndarray:
        """Center longitudinal rates; entry 0 is sqrt(E) (propagating)."""
        return _gamma(self.N, self.E)


def _center_factors(field: EigenField, x: np.ndarray) -> np.ndarray:
    """Longitudinal center functions c_m(x), s_m(x), shape (2, N, len(x)).

    Uses exponential scaling for the hyperbolic modes so that no
    intermediate overflows even at large gamma_m * delta.
    """
    delta = field.geometry.delta
    g = field.gamma
    x = np.asarray(x, dtype=float)
    out = np.empty((2, field.N, x.size))
    rootE = g[0]
    out[0, 0] = np.cos(rootE * x)
    out[1, 0] = np.sin(rootE * x)
    if field.N > 1:
        gx = g[1:, None] * x[None, :]
        gd = g[1:, None] * delta
        # cosh(gx)/cosh(gd) and sinh(gx)/sinh(gd) without overflow
        ep = np.exp(gx - gd)
        em = np.exp(-gx - gd)
        denom_c = 1.0 + np.exp(-2.0 * gd)
        denom_s = 1.0 - np.exp(-2.0 * gd)
        out[0, 1:] = (ep + em) / denom_c
        out[1, 1:] = (ep - em) / denom_s
    return out


def solve_coefficients(
    model: ModelKind, geometry: Geometry, N: int, E: float, sector: int
) -> EigenField:
    """Eigenfield at a root E of the given parity sector (+1 or -1, as
    recorded in ``Spectrum.sectors``) from the null vector of its matrix.

    E must be a root of that sector: its count steps within
    REFINE_FRAC * mu of E (the width the roots are refined to), else
    ValueError.  The null vector a = R_s^-1 o gives the tail amplitudes,
    b by reflection, and value continuity the center amplitudes
    (O^T a)_m / f_m(-delta); where f_0(-delta) is small (near a pole of
    Lambda_0) derivative continuity, R_s a = o, gives 1 / f_0'(-delta)
    instead.  The field is scaled to unit L^2(Omega) norm with the
    largest-magnitude coefficient positive.
    """
    delta, mu = geometry.delta, geometry.mu
    tol = REFINE_FRAC * mu
    above, below, (_, L) = sector_phase(model, N, [min(E + tol, mu), E - tol, E],
                                        [delta] * 3, [sector] * 3)
    if math.floor(_level_of(above[0], sector)) == math.floor(_level_of(below[0], sector)):
        raise ValueError(
            f"E={E} is not a root of sector {sector}: its count does not step "
            f"within {tol:.3g}"
        )
    # R_s^-1 o = L_R^-T (L_R^-1 o), by a general LU solve (LAPACK gesv) of the
    # triangular L_R^T: numpy has no triangular solver
    a = np.linalg.solve(L[:N, :N].T, L[N, :N])

    O = overlap_matrix(model.tails[0], N)
    is_cos = _center_is_cos(model, sector, N)
    f, df = _center_at_interface(is_cos, delta, E)
    amplitude = (O.T @ a) / f
    if abs(f[0]) * math.sqrt(E) < abs(df[0]):
        amplitude[0] = 1.0 / df[0]
    b = sector * model.parity(N) * a
    alpha = np.where(is_cos, amplitude, 0.0)
    beta = np.where(is_cos, 0.0, amplitude)

    v = np.concatenate([a, b, alpha, beta])
    scale = math.sqrt(_field_norm_sq(geometry, E, a, b, alpha, beta))
    if v[np.argmax(np.abs(v))] < 0.0:
        scale = -scale
    return EigenField(
        model=model,
        geometry=geometry,
        N=N,
        E=E,
        a=a / scale,
        b=b / scale,
        alpha=alpha / scale,
        beta=beta / scale,
    )


def _field_norm_sq(geometry: Geometry, E: float, a, b, alpha, beta) -> float:
    """L^2(Omega) norm squared: tails a_k^2 / (2 kappa_k), center
    alpha_m^2 int c_m^2 + beta_m^2 int s_m^2 over (-delta, delta)."""
    N = len(a)
    kappa = _kappa(N, E)
    delta = geometry.delta
    g = _gamma(N, E)
    cos_sq = np.empty(N)
    sin_sq = np.empty(N)
    half_sin = math.sin(2.0 * g[0] * delta) / (2.0 * g[0])
    cos_sq[0] = delta + half_sin
    sin_sq[0] = delta - half_sin
    t = np.tanh(g[1:] * delta)
    cos_sq[1:] = delta * (1.0 - t**2) + t / g[1:]  # delta sech^2 + tanh / gamma
    sin_sq[1:] = 1.0 / (g[1:] * t) - delta * (1.0 / t**2 - 1.0)  # coth / gamma - delta csch^2
    tails = np.sum((a**2 + b**2) / (2.0 * kappa))
    return float(tails + np.sum(alpha**2 * cos_sq + beta**2 * sin_sq))


def evaluate_field(field: EigenField, xs, ys) -> np.ndarray:
    """Eigenfunction on the tensor grid of the axes xs and ys (scalars or
    1-D arrays), shape (len(xs), len(ys)).

    Every y must lie in [0, 1] and no x may be NaN.  A point with
    |x| = delta belongs to the center.  In each region the block is one
    product of its longitudinal factors, one row per x, with its
    transverse profiles, one column per y.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("xs and ys must be scalars or 1-D axes")
    if not np.all((ys >= 0.0) & (ys <= 1.0)) or np.isnan(xs).any():
        raise ValueError("points outside the strip: y must lie in [0, 1] "
                         "and x must be a number")
    delta, kappa, N = field.geometry.delta, field.kappa, field.N
    left = xs < -delta
    right = xs > delta
    center = ~(left | right)
    out = np.empty((xs.size, ys.size))
    tails = np.exp(kappa * np.maximum(xs[left, None] + delta, -TAIL_REACH))  # decaying
    out[left] = (field.a * tails) @ profile_values(field.model.tails[0], N, ys)
    tails = np.exp(-kappa * np.minimum(xs[right, None] - delta, TAIL_REACH))
    out[right] = (field.b * tails) @ profile_values(field.model.tails[1], N, ys)
    f = _center_factors(field, xs[center])
    longi = field.alpha[:, None] * f[0] + field.beta[:, None] * f[1]
    out[center] = longi.T @ profile_values(ProfileKind.NN_COSINE, N, ys)
    return out


def solve_field(
    model: ModelKind,
    geometry: Geometry,
    branch: int,
    N: int = 64,
) -> EigenField:
    """Spectrum plus coefficient solve for the given branch (1-based)."""
    if branch < 1:
        raise ValueError("branch must be >= 1")
    spectrum = scan_spectrum(model, geometry, N=N, check_stability=False)
    if branch > len(spectrum.eigenvalues):
        raise LookupError(
            f"branch {branch} absent: spectrum has {len(spectrum.eigenvalues)} "
            f"eigenvalue(s) at lam={geometry.lam}"
        )
    E = spectrum.eigenvalues[branch - 1] * geometry.mu
    return solve_coefficients(model, geometry, N, E, spectrum.sectors[branch - 1])
