"""50-digit mpmath references for the arclength integrals.

Shared by the period and ground-state tests; the actions int v^2 dx also
give the free energy.  The integrals are taken in u = lo + (hi - lo) s^2
with the well difference in the exact factored form
A(u) - A(lo) = (u - lo) g(u, lo), so no digits cancel however small lo is,
and with breakpoints at sqrt(lo) 10^k, where the integrand turns from its
turning-point scale to its bulk scale.
"""

import mpmath


def well(u):
    return u * u * (1 - 2 * u / 3)


def _integral(lo, hi, q, f):
    """int_lo^hi f(sqrt(q^2 + A(u) - A(lo))) du at 50 digits, as an mpf.

    mpmath's error target is absolute, so the integrand is taken relative to
    its value at u = hi: deep actions are as small as lo^2.
    """
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        c = mpmath.mpf(q) ** 2
        d = hi - lo

        def integrand(s):
            u = lo + d * s * s
            g = (u + lo) - 2 * (u * u + u * lo + lo * lo) / 3
            return 2 * d * s * f(mpmath.sqrt(c + d * s * s * g))

        points = [mpmath.mpf(0)]
        b = mpmath.sqrt(lo)
        while b < 1:
            points.append(b)
            b *= 10
        top = integrand(mpmath.mpf(1))
        return top * mpmath.quad(lambda s: integrand(s) / top, points + [mpmath.mpf(1)])


def arc(lo, hi, q=0.0) -> float:
    """int_lo^hi du / sqrt(q^2 + A(u) - A(lo))."""
    return float(_integral(lo, hi, q, lambda v: 1 / v))


def action(lo, hi, q=0.0) -> float:
    """int_lo^hi sqrt(q^2 + A(u) - A(lo)) du, which is int v^2 dx along the orbit."""
    return float(_integral(lo, hi, q, lambda v: v))


def turning_point(p, q):
    """Inner turning point p0 < 1/2 of the orbit through (p, q), A(p0) = A(p) - q^2."""
    with mpmath.workdps(60):
        c = well(mpmath.mpf(p)) - mpmath.mpf(q) ** 2
        # Newton with a fixed count: A is convex on (0, 1/2], so after the
        # first step the iterates fall monotonically, to full relative
        # precision however small c is
        x = mpmath.sqrt(c)
        for _ in range(60):
            x -= (well(x) - c) / (2 * x * (1 - x))
        return x


def stem_length(p, q) -> float:
    """T(p, q) = int_p^1 du / sqrt(q^2 + A(u) - A(p))."""
    return arc(p, 1.0, q)


def loop_half_length(p, q) -> float:
    """T0(p, q) = int_{p0}^p du / sqrt(A(u) - A(p0)), p0 solved from the exact (p, q)."""
    return arc(turning_point(p, q), p)


def free_energy(p, q_stem, q_loops, stem, halves) -> float:
    """H of the flower state (p, q_j) at 50 digits, from the orbit invariant.

    Each edge adds its action int v^2 dx less (E + 1/3)/2 times its length;
    a loop is two halves from its turning point up to p.
    """
    with mpmath.workdps(50):
        p = mpmath.mpf(p)

        def above_center(q):
            return mpmath.mpf(q) ** 2 + (1 - p) ** 2 * (1 + 2 * p) / 3

        total = _integral(p, 1, q_stem, lambda v: v) - above_center(q_stem) * stem / 2
        for q, half in zip(q_loops, halves):
            total += 2 * _integral(turning_point(p, q), p, 0, lambda v: v) \
                - above_center(q) * half
        return float(total)
