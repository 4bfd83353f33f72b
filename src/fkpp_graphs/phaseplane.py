"""Phase plane of the stationary equation in the shifted unknown.

Writing a stationary state as u = 1 - w, the profile w solves

    w'' - w + w^2 = 0,

a conservative system with invariant

    E(w, v) = v^2 - w^2 + (2/3) w^3,      v = w'.

The origin is a saddle (E = 0 on its homoclinic loop), (1, 0) is a center
(E = -1/3).  Orbits with E in (-1/3, 0) close around the center; these are
the only orbits that can serve as loop profiles.  Ground-state construction
tracks orbits by the point (p, q) where they cross the stem end: p = w there,
q = w' <= 0.

Numerically everything is phrased through

    v^2 = E + A(w),      A(w) = w^2 - (2/3) w^3,

and differences of A are always evaluated in the factored form

    A(u) - A(p) = (u - p) [ (u + p) - (2/3)(u^2 + u p + p^2) ],

which has no cancellation even when both arguments approach 1 or each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDomain, OrbitNotClosed

__all__ = [
    "PhasePoint",
    "energy",
    "q_tilde",
    "turning_point_pair",
    "well",
    "energy_above_center",
]


def well(u: float) -> float:
    """A(u) = u^2 - (2/3) u^3, the potential term in v^2 = E + A(u)."""
    return u * u * (1.0 - 2.0 * u / 3.0)


def energy(u: float, v: float) -> float:
    """Orbit invariant E(u, v) = v^2 - u^2 + (2/3) u^3.

    Evaluated as (v - u)(v + u) + (2/3) u^3 so that the near-homoclinic
    cancellation between v^2 and u^2 happens in one exact subtraction.
    """
    return (v - u) * (v + u) + (2.0 / 3.0) * u**3


def energy_above_center(p: float, q: float) -> float:
    """E + 1/3 = q^2 + (1-p)^2 (1+2p)/3, positive to rounding."""
    return q * q + (1.0 - p) ** 2 * (1.0 + 2.0 * p) / 3.0


@dataclass(frozen=True)
class PhasePoint:
    """Crossing data (p, q) of an orbit at the stem end: p in (0, 1], q <= 0."""

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0) or math.isnan(self.p):
            raise InvalidDomain(f"p must lie in (0, 1], got {self.p}")
        if not (self.q <= 0.0) or math.isnan(self.q):
            raise InvalidDomain(f"q must be <= 0, got {self.q}")

    @property
    def energy(self) -> float:
        return energy(self.p, self.q)


def q_tilde(pt: PhasePoint) -> float:
    """Negative w' at the section w = 1 of the orbit through pt.

    The invariant gives q_tilde^2 = E + A(1) = energy_above_center.
    """
    return -math.sqrt(energy_above_center(pt.p, pt.q))


def _center_side_root(target: float) -> float:
    """Root b of A(b) = target in (0, 1), for target in (0, 1/3).

    A is strictly increasing on (0, 1) so the root is unique.  Newton from a
    stabilized fixed-point seed; relative accuracy follows the relative
    accuracy of ``target`` even for tiny targets since b ~ sqrt(target).

    A is convex on (0, 1/2], where every root for target <= 1/6 lies, so
    the exact Newton steps shrink monotonically.  A step that does not
    shrink is rounding noise, and the polish stops there.
    """
    b = math.sqrt(target)
    for _ in range(6):
        b = math.sqrt(target / (1.0 - 2.0 * b / 3.0))
    # Newton polish on A(b) - target
    last = math.inf
    for _ in range(40):
        f = well(b) - target
        df = 2.0 * b * (1.0 - b)
        if df == 0.0:
            break
        step = f / df
        if not abs(step) < last:
            break
        b -= step
        last = abs(step)
    return b


def turning_point_pair(pt: PhasePoint) -> tuple[float, float]:
    """Inner turning point of the closed orbit through pt, as (p0, 1 - p0).

    p0 in (0, p] solves A(p0) = -E, equivalently E + A(p0) = 0, and exists
    exactly when E in (-1/3, 0).  Closure is decided from E: for E >= 0 the
    orbit is not closed around the center and OrbitNotClosed is raised.

    The turning point is solved from E + 1/3 (``energy_above_center``), not
    from E, which cancels next to the center.  Both components are returned
    because downstream integrands need whichever of p0, 1 - p0 is small to
    full relative precision.  The root is solved on the side where it is
    below 1/2: mirrored through u -> 1 - u, where the well reappears as
    A(1 - p0) = E + 1/3, or directly from A(p0) = -E.  The center itself
    gives (1, 0).
    """
    e = pt.energy
    if e >= 0.0:
        raise OrbitNotClosed(
            f"orbit through (p={pt.p}, q={pt.q}) has energy {e:.3e} >= 0; "
            "it does not close around the positive equilibrium"
        )
    qt2 = energy_above_center(pt.p, pt.q)
    if qt2 < 1.0 / 6.0:
        b0 = _center_side_root(qt2)
        return 1.0 - b0, b0
    p0 = _center_side_root(-e)
    return p0, 1.0 - p0
