"""Arc lengths along phase-plane orbits and their gradients.

Two arc-length functions drive the whole ground-state construction, both
measured along orbits of w'' = w - w^2 with v = w' and v^2 = E + A(w):

    T(p, q)   from the section w = 1 (crossing with v = q_tilde < 0)
              down to the point (p, q), q <= 0:        int_p^1 du / v
    T0(p, q)  from the inner turning point (p0, 0)
              up to (p, q):                            int_{p0}^p du / v

T is the length a stem of boundary data (p, q) must have; T0 is the loop
half-length.  Both, and the gradient integrals below, are one integral

    int_lo^{lo+d} w(u) du / sqrt(c + A(u) - A(lo)),

(lo, d, c) = (p, 1 - p, q^2) for T and (p0, p - p0, 0) for T0, evaluated
by the one kernel ``_arc``.  In u = lo + d s^2 the turning-point endpoint
singularity is gone and A(u) - A(lo) = d s^2 g(u, lo) with
g(u, lo) = (u + lo) - (2/3)(u^2 + u lo + lo^2).  Since A(1 - a) = 1/3 - A(a),
g(u, lo) = g(1 - u, 1 - lo), so the kernel evaluates g on whichever side of
the well is small and nothing cancels: neither as p -> 1 (orbits shrinking
onto the center) nor when p or p0 is far below machine epsilon (deep in the
existence region, where 1 - p rounds to 1).  The quadrature is QUADPACK's
adaptive Gauss-Kronrod, qagse, on the analytic s-integrand: one call of
the package's own port (quadpack.qagse) at a budget of 1000 subintervals,
bit for bit with scipy.integrate.quad at limit=1000, to which the
integrand lists its values at a panel's 21 nodes per call.

The integrand runs at every QUADPACK node, so callers pass Python floats:
numpy.float64 scalars give the same bits at about twice the cost.

A Newton iterate of an N-loop flower needs T0, or the I2 of its gradient,
on all N loops at one point: loop_spans solves each loop's turning point
once, and loop_arcs takes the N spans.  The same call serves each round of
a seed's lockstep presolve (T0 at every loop's new turning-point iterate,
spans from turning_span) and the loop actions of the free energy.  From
PANEL_MIN_LOOPS = 10 spans on it runs one batched first panel, _panel:
every integrand at qk21's 21 nodes as one numpy array, in _arc's operation
order, then quadpack.qk21_columns, so a column is kept exactly where qagse
stops after that panel, with _arc's bits; any other column gets its own _arc.

Gradients use the renormalized closed forms

    (E + 1/3) dT/dp  = -p (1-p) I1 + q
    (E + 1/3) dT/dq  =  q I1 + (1-p)(1+2p) / (3p)
    (E + 1/3) dT0/dp = -p (1-p) I2 - q
    (E + 1/3) dT0/dq =  q I2 - (1-p)(1+2p) / (3p)

with I1 and I2 the kernel's integrals over the T and T0 ranges with weight
w(u) = (1-u^2)/(3 u^2).  These follow from differentiating under the
integral sign and integrating the boundary-singular parts exactly; they stay
finite and numerically benign up to the homoclinic.  The same kernel gives
the actions int v^2 dx = int sqrt(c + A(u) - A(lo)) du over both ranges,
which make up the ground state's free energy.

Useful sanity identities, exercised by the test suite:

    q dT/dp + p (1-p) dT/dq = 1                        (transport identity)
    T(p, q) -> -ln((p - q) / 12) - x0 + O(p)           (saddle asymptotics)
    T -> arcsin(1 / sqrt(1 + Q^2)) and T0 -> pi/2 - T  (center limits along
                                                        q = Q (1 - p))

where x0 = 2 arccosh(sqrt(3/2)) marks where the homoclinic profile
(3/2) sech^2((x + x0)/2) crosses 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDomain
from .phaseplane import PhasePoint, energy_above_center, turning_point_pair
from .quadpack import X21, qagse, qk21_columns

__all__ = [
    "HOMOCLINIC_OFFSET",
    "PeriodValue",
    "PeriodGradient",
    "period_T",
    "period_T0",
    "grad_T",
    "grad_T0",
    "interval_period_slope",
    "arclength_from_turning",
    "turning_span",
    "loop_spans",
    "loop_arcs",
    "loop_gradients",
    "action_T",
    "asymptotic_T",
    "center_limits",
]

# offset x0 = 2 arccosh(sqrt(3/2)): the homoclinic profile crosses w = 1
# at distance x0 before its peak
HOMOCLINIC_OFFSET = 2.0 * math.acosh(math.sqrt(1.5))

_EPSREL = 1.5e-14    # every period quadrature's; QUADPACK's floor is ~50 eps
_LIMIT = 1000        # every period quadrature's subinterval budget
_S = 0.5 + 0.5 * np.array(X21)[:, None]
_S2 = _S * _S
# Loop count from which loop_arcs runs one _panel for all loops: below it,
# numpy's fixed cost per panel outweighs the scalar quadratures it replaces
# (whole solves break even at 9-10 loops; see CHANGES.md)
PANEL_MIN_LOOPS = 10


@dataclass(frozen=True)
class PeriodValue:
    value: float
    estimated_quadrature_error: float


@dataclass(frozen=True)
class PeriodGradient:
    dT_dp: float
    dT_dq: float


def _quad(f, tol: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [0, 1] with an honest error estimate: one
    qagse call with a budget of _LIMIT subintervals.

    dqagse's result depends on its limit only once a call passes
    limit / 2 + 2 subintervals, and no period integrand comes near that.
    """
    out = qagse(f, 0.0, 1.0, 0.5 * tol, _EPSREL, _LIMIT)
    return out[0], out[1]


def _arc(lo: float, blo: float, d: float, c: float, tol: float,
         kind: str = "length") -> tuple[float, float]:
    """int_lo^{lo+d} w(u) du / sqrt(c + A(u) - A(lo)) and its error; blo = 1 - lo.

    ``kind`` "length" takes w = 1 and "weighted" w = (1 - u^2) / (3 u^2);
    "action" is int_lo^{lo+d} sqrt(c + A(u) - A(lo)) du instead.  The
    quadrature runs in s, u = lo + d s^2, on _integrand's panels.
    """
    if d <= 0.0:
        return 0.0, 0.0
    return _quad(_integrand(lo, blo, d, c, kind), tol)


def _well(x0, dx):
    """(g0, g1, g2) with g(x0 + dx t, x0) = g0 + t (g1 + g2 t); see _integrand."""
    return 2.0 * x0 * (1.0 - x0), dx * (1.0 - 2.0 * x0), -(2.0 / 3.0) * dx * dx


def _integrand(lo: float, blo: float, d: float, c: float, kind: str):
    """_arc's integrand in s on [0, 1], as qagse reads it: f(centr, hlgth)
    lists its values at the 21 nodes s = centr + hlgth x, x in X21.

    g is taken in (u, lo) when lo <= 1/2, else in (1 - u, 1 - lo); side and
    integrand are chosen once per call, never per node.  On that side
    g(x0 + dx t, x0) = g0 + t (g1 + g2 t) in t = s^2, with x0 <= 1/2,
    g0 = 2 x0 (1 - x0), g1 = dx (1 - 2 x0) and g2 = -(2/3) dx^2, so each
    node costs one quadratic.  No term cancels: where dx > 0 (the node runs
    from x0 up to at most 1), dx t <= 1 - x0 bounds the negative term by 2/3
    of g0 + g1 t; where dx < 0 (down to at most 0), |dx t| <= x0 bounds the
    two negative terms by 1/2 of g0.  g keeps at least a third of its
    positive part, so rounding grows by at most 3x: under two bits.
    """
    g0, g1, g2 = _well(*((lo, d) if lo <= 0.5 else (blo, -d)))
    k = 2.0 * math.sqrt(d) if c == 0.0 and kind != "action" else 2.0 * d
    sqrt = math.sqrt
    if kind == "action":
        def f(centr, hlgth):
            return [k * s * sqrt(c + d * s2 * (g0 + s2 * (g1 + g2 * s2)))
                    for x in X21 for s in [centr + hlgth * x] for s2 in [s * s]]
    elif c == 0.0 and kind == "length":
        def f(centr, hlgth):
            return [k / sqrt(g0 + s2 * (g1 + g2 * s2))
                    for x in X21 for s in [centr + hlgth * x] for s2 in [s * s]]
    elif c == 0.0:
        def f(centr, hlgth):
            return [(blo - ds2) * (1.0 + u) / (3.0 * u * u)
                    * k / sqrt(g0 + s2 * (g1 + g2 * s2))
                    for x in X21 for s in [centr + hlgth * x] for s2 in [s * s]
                    for ds2 in [d * s2] for u in [lo + ds2]]
    elif kind == "length":
        def f(centr, hlgth):
            return [k * s / sqrt(c + d * s2 * (g0 + s2 * (g1 + g2 * s2)))
                    for x in X21 for s in [centr + hlgth * x] for s2 in [s * s]]
    else:
        def f(centr, hlgth):
            return [(blo - ds2) * (1.0 + u) / (3.0 * u * u)
                    * k * s / sqrt(c + ds2 * (g0 + s2 * (g1 + g2 * s2)))
                    for x in X21 for s in [centr + hlgth * x] for s2 in [s * s]
                    for ds2 in [d * s2] for u in [lo + ds2]]
    return f


def _panel(spans, tol: float, kind: str):
    """qk21 on [0, 1] for every loop span's _arc integrand at once.

    ``spans`` are _arc's (lo, 1 - lo, d, 0); ``kind`` is "length",
    "weighted" or "action".  Returns (value, accepted) arrays, one column
    per span: qk21_columns on the integrands at qk21's nodes, in _arc's
    operation order, so a value is _arc's to the bit and is accepted where
    qagse stops after this first panel (never where d < 0; d = 0 gives 0).
    """
    lo, blo, d, c = np.fromiter(itertools.chain.from_iterable(spans), float,
                                4 * len(spans)).reshape(-1, 4).T
    g0, g1, g2 = _well(*np.where(lo <= 0.5, (lo, d), (blo, -d)))
    with np.errstate(all="ignore"):
        poly = g0 + _S2 * (g1 + g2 * _S2)
        if kind == "action":
            fv = 2.0 * d * _S * np.sqrt(c + d * _S2 * poly)
        elif kind == "length":
            fv = 2.0 * np.sqrt(d) / np.sqrt(poly)
        else:
            ds2 = d * _S2
            u = lo + ds2
            fv = (blo - ds2) * (1.0 + u) / (3.0 * u * u) * (2.0 * np.sqrt(d)) / np.sqrt(poly)
    value, _, accepted = qk21_columns(fv, 0.0, 1.0, 0.5 * tol, _EPSREL)
    return value, accepted & (d >= 0.0)


def _check_not_center(pt: PhasePoint) -> None:
    if pt.p == 1.0 and pt.q == 0.0:
        raise InvalidDomain("(p, q) = (1, 0) is the center; arc length is "
                            "undefined there (limits depend on the direction)")


def period_T(pt: PhasePoint, tol: float = 1e-10) -> PeriodValue:
    """Arc length from the section w = 1 down to (p, q); 0 at p = 1.

    estimated_quadrature_error is QUADPACK's at every point.
    """
    _check_not_center(pt)
    return PeriodValue(*_arc(*_stem_span(pt.p, pt.q), tol))


def _stem_span(p: float, q: float) -> tuple[float, float, float, float]:
    """_arc's (lo, 1 - lo, d, c) for period_T's arc: (p, 1 - p, 1 - p, q^2)."""
    bp = 1.0 - p
    return p, bp, bp, q * q


def _loop_span(pt: PhasePoint) -> tuple[float, float, float, float]:
    """_arc's (p0, 1 - p0, p - p0, 0) for the closed orbit through pt."""
    p0, b0 = turning_point_pair(pt)
    # p - p0 through whichever side is exact: 1-p is exact for p >= 1/2
    d = (pt.p - p0) if p0 <= 0.5 else (b0 - (1.0 - pt.p))
    return p0, b0, d, 0.0


def period_T0(pt: PhasePoint, tol: float = 1e-10) -> PeriodValue:
    """Arc length from the inner turning point up to (p, q).

    Raises OrbitNotClosed when the orbit energy is >= 0 (no turning point).
    estimated_quadrature_error is QUADPACK's at every point.
    """
    _check_not_center(pt)
    return PeriodValue(*_arc(*_loop_span(pt), tol))


def loop_spans(p: float, qs) -> list[tuple[float, float, float, float]]:
    """_arc's span of the closed orbit through (p, q_j), for every loop.

    One turning-point solve per loop; loop_arcs and loop_gradients take the
    spans, so T0 and its gradient at one point share them.
    """
    return [_loop_span(PhasePoint(p, q)) for q in qs]


def loop_arcs(spans, tol: float = 1e-10, kind: str = "length") -> list[float]:
    """_arc(*span, tol, kind)[0] for every loop span: T0 ("length"), I2
    ("weighted") or the action ("action").

    From PANEL_MIN_LOOPS spans on, one _panel evaluates them all, and each
    span it does not accept gets its own _arc; either way every value is
    the scalar _arc's, bit for bit.
    """
    if len(spans) < PANEL_MIN_LOOPS:
        return [_arc(*span, tol, kind)[0] for span in spans]
    values, accepted = _panel(spans, tol, kind)
    return [v if ok else _arc(*span, tol, kind)[0]
            for v, ok, span in zip(values.tolist(), accepted.tolist(), spans)]


def turning_span(p: float, p0: float) -> tuple[float, float, float, float]:
    """_arc's (p0, 1 - p0, p - p0, 0) for the loop arc from the turning point p0 up to p.

    Solvers that parameterize loop orbits by p0 use it to avoid the lossy
    round trip p0 -> q -> energy -> p0 when the orbit hugs the homoclinic
    loop and A(p) - A(p0) cancels catastrophically.
    """
    if not 0.0 < p0 <= p <= 1.0:
        raise InvalidDomain(f"need 0 < p0 <= p <= 1, got p0={p0}, p={p}")
    return p0, 1.0 - p0, p - p0, 0.0


def arclength_from_turning(p: float, p0: float, tol: float = 1e-10) -> float:
    """T0 with the turning point given directly instead of through (p, q)."""
    return _arc(*turning_span(p, p0), tol)[0]


def action_T(pt: PhasePoint) -> float:
    """int v^2 dx over period_T's arc.

    Absolute tolerance 0: next to the center the action is O((1-p)^2), and
    only QUADPACK's relative tolerance scales with it.
    """
    return _arc(*_stem_span(pt.p, pt.q), 0.0, "action")[0]


def _require_interior(pt: PhasePoint) -> None:
    if pt.q == 0.0:
        raise InvalidDomain("gradients need q < 0 strictly")
    if pt.p == 1.0:
        raise InvalidDomain("gradients need p < 1 strictly")


def _gradient(p: float, q, i, sign: float):
    """(dT/dp, dT/dq) from I1 (sign 1) or (dT0/dp, dT0/dq) from I2 (sign -1);
    smooth at q = 0.  q and i may be arrays, one entry per loop at the
    common p: each entry takes the scalar's operations, so its bits."""
    qt2 = energy_above_center(p, q)
    bp = 1.0 - p
    dp = (-p * bp * i + sign * q) / qt2    # sign flips the boundary terms, exactly
    dq = (q * i + sign * (bp * (1.0 + 2.0 * p) / (3.0 * p))) / qt2
    return dp, dq


def grad_T(pt: PhasePoint, tol: float = 1e-10) -> PeriodGradient:
    """Analytic gradient of period_T; requires q < 0 and p < 1.

    The q = 0 section is served by interval_period_slope instead.
    """
    _require_interior(pt)
    return PeriodGradient(
        *_gradient(pt.p, pt.q, _arc(*_stem_span(pt.p, pt.q), tol, "weighted")[0], 1.0))


def interval_period_slope(p: float, tol: float = 1e-10) -> float:
    """d/dp of T(p, 0), the slope driving the interval dichotomy."""
    if not 0.0 < p < 1.0:
        raise InvalidDomain(f"interval slope needs 0 < p < 1, got {p}")
    return _gradient(p, 0.0, _arc(*_stem_span(p, 0.0), tol, "weighted")[0], 1.0)[0]


def grad_T0(pt: PhasePoint, tol: float = 1e-10) -> PeriodGradient:
    """Analytic gradient of period_T0; requires q < 0 and a closed orbit."""
    _require_interior(pt)
    return PeriodGradient(
        *_gradient(pt.p, pt.q, _arc(*_loop_span(pt), tol, "weighted")[0], -1.0))


def loop_gradients(p: float, qs, spans, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """grad_T0 at every (p, q_j), given loop_spans(p, qs); q_j < 0 and p < 1.

    The loop rows of the period Jacobian as two arrays, dT0/dp and dT0/dq:
    entry j is grad_T0(PhasePoint(p, q_j), tol), bit for bit.
    """
    i2 = np.array(loop_arcs(spans, tol, "weighted"))
    return _gradient(p, np.asarray(qs, float), i2, -1.0)


def asymptotic_T(pt: PhasePoint) -> float:
    """Saddle-regime law -ln((p - q)/12) - x0; accurate to O(p) as p -> 0."""
    return -math.log((pt.p - pt.q) / 12.0) - HOMOCLINIC_OFFSET


def center_limits(Q: float) -> tuple[float, float]:
    """Limits of (T, T0) along the ray q = Q (1 - p) into the center, Q <= 0.

    They sum to pi/2 for every slope Q.
    """
    if Q > 0.0 or math.isnan(Q):
        raise InvalidDomain(f"ray slope must be <= 0, got {Q}")
    t = math.asin(1.0 / math.sqrt(1.0 + Q * Q))
    return t, math.pi / 2.0 - t
