#!/usr/bin/env python3
"""Regenerate the frozen reference constants used by the test suite.

Everything here is computed independently of the package: arclengths are
mpmath tanh-sinh quadratures of the orbit integrals after the standard
turning-point substitution, derivatives are Richardson-extrapolated central
differences at 40 digits, and the solved states come from mp.findroot on
the same integrals.  Run time is a couple of minutes at the default
precision; values are printed with 22 significant digits so they can be
pasted into the tests verbatim.

Usage: python3 scripts/compute_reference_values.py [--dps 30] [--section all]
"""

import argparse

import numpy as np
from mpmath import mp


def well(u):
    return u * u - mp.mpf(2) / 3 * u ** 3


def bracket(a, b):
    # (well(a) - well(b)) / (a - b), stable near a = b
    return a + b - mp.mpf(2) / 3 * (a * a + a * b + b * b)


def period_T(p, q):
    """Arclength from the section w = 1 to (p, q), q <= 0."""
    p, q = mp.mpf(p), mp.mpf(q)
    if q == 0:
        # turning point at w = p: substitute w = p + (1-p) s^2
        def f(s):
            w = p + (1 - p) * s * s
            return 2 * mp.sqrt(1 - p) / mp.sqrt(bracket(w, p))
        return mp.quad(f, [0, 1])
    e = q * q - well(p)

    def f(w):
        return 1 / mp.sqrt(e + well(w))
    return mp.quad(f, [p, 1])


def solve_increasing(f, lo, hi, bisections=60):
    """Root of an increasing f on (lo, hi): bisect, then secant polish.

    The secant step starts from the narrowed bracket so it cannot wander
    outside the domain of f.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(bisections):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return mp.findroot(f, (lo, hi))


def turning_point(p, q):
    """p0 < p with well(p0) = well(p) - q^2 (orbit inside the homoclinic)."""
    target = well(mp.mpf(p)) - mp.mpf(q) ** 2
    return solve_increasing(lambda w: well(w) - target,
                            mp.mpf("1e-12"), mp.mpf(p))


def period_T0(p, q):
    """Arclength from (p, q) back to the turning point (p0, 0)."""
    p, q = mp.mpf(p), mp.mpf(q)
    p0 = turning_point(p, q)

    def f(s):
        w = p0 + (p - p0) * s * s
        return 2 * mp.sqrt(p - p0) / mp.sqrt(bracket(w, p0))
    return mp.quad(f, [0, 1]), p0


def richardson(f, x, h):
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def interval_p(L):
    """p with period_T(p, 0) = L, the interval state parameter."""
    L = mp.mpf(L)
    lo = min(mp.mpf("0.5"), 6 * mp.e ** (-(L + x0())))
    # T decreases in p, so negate to hand solve_increasing an increasing f
    return solve_increasing(lambda p: L - period_T(p, 0),
                            lo / 4, 1 - mp.mpf("1e-18"))


def x0():
    return 2 * mp.acosh(mp.sqrt(mp.mpf(3) / 2))


def interval_energy(L):
    """H(u) of the interval state via the phase-plane parameterization."""
    p = interval_p(L)
    e = -well(p)

    def f(s):
        w = p + (1 - p) * s * s
        u = 1 - w
        v2 = e + well(w)
        val = (v2 - u * u) / 2 + u ** 3 / 3
        return 2 * mp.sqrt(1 - p) * val / mp.sqrt(bracket(w, p))
    return p, mp.quad(f, [0, 1])


def flower_state(stem, halves, seed):
    """(p, q_1..q_N) matching the edge lengths, via mp.findroot."""
    stem = mp.mpf(stem)
    halves = [mp.mpf(h) for h in halves]

    def system(*z):
        p, qs = z[0], z[1:]
        out = [period_T(p, 2 * mp.fsum(qs)) - stem]
        out += [period_T0(p, q)[0] - h for q, h in zip(qs, halves)]
        return out

    return mp.findroot(system, [mp.mpf(s) for s in seed])


def lambda0(stem, halves):
    stem = mp.mpf(stem)
    halves = [mp.mpf(h) for h in halves]

    def mism(s):
        return 2 * mp.fsum(mp.tan(s * h) for h in halves) - 1 / mp.tan(s * stem)

    s_hi = min([mp.pi / (2 * stem)] + [mp.pi / (2 * h) for h in halves])
    s = solve_increasing(mism, mp.mpf("1e-3"), s_hi * (1 - mp.mpf("1e-9")))
    return s * s


def show(name, value, digits=22):
    print(f"{name} = {mp.nstr(value, digits)}")


def section_periods():
    # decimal strings keep the inputs exact; binary doubles would perturb
    # the printed tails at the 1e-17 level
    print("# orbit arclengths")
    show("x0", x0())
    for p, q in [("0.5", "0"), ("0.4", "0"), ("0.6", "0"), ("0.5", "-0.2"),
                 ("0.2", "-0.5"), ("0.5", "-0.5")]:
        show(f"T({p}, {q})", period_T(mp.mpf(p), mp.mpf(q)))
    for p in ("1e-2", "1e-3", "1e-4"):
        show(f"T({p}, -{p})", period_T(mp.mpf(p), -mp.mpf(p)))
    for p, q in [("0.9", "-0.05"), ("0.45", "-0.03"), ("0.3", "-0.1")]:
        t0, p0 = period_T0(mp.mpf(p), mp.mpf(q))
        show(f"T0({p}, {q})", t0)
        show(f"p0({p}, {q})", p0)


def section_gradients():
    print("# period gradients (Richardson central differences)")
    old = mp.dps
    mp.dps = max(old, 40)
    h = mp.mpf("1e-6")
    show("dT/dp(0.5,-0.5)",
         richardson(lambda x: period_T(x, mp.mpf("-0.5")), mp.mpf("0.5"), h))
    show("dT/dq(0.5,-0.5)",
         richardson(lambda y: period_T(mp.mpf("0.5"), y), mp.mpf("-0.5"), h))
    for p, q in [("0.9", "-0.05"), ("0.45", "-0.03")]:
        show(f"dT0/dp({p},{q})",
             richardson(lambda x: period_T0(x, mp.mpf(q))[0], mp.mpf(p), h))
        show(f"dT0/dq({p},{q})",
             richardson(lambda y: period_T0(mp.mpf(p), y)[0], mp.mpf(q), h))
    mp.dps = old


def section_spectral():
    print("# eigenvalues and the critical stem")
    show("lambda0(0.8, [0.75])", lambda0(0.8, [0.75]))
    show("lambda0(0.51, [0.8, 0.5])", lambda0(0.51, [0.8, 0.5]))
    # the test's loop halves are the binary doubles of numpy.linspace
    show("lambda0(12, linspace(0.1, 1.2, 80))",
         lambda0(12, [float(h) for h in np.linspace(0.1, 1.2, 80)]))
    show("critical stem for [0.8]", mp.pi / 2 - mp.atan(2 * mp.tan(mp.mpf("0.8"))))


def section_states():
    print("# solved states")
    show("interval p(L=2)", interval_p(2))
    show("interval p(L=10)", interval_p(10))
    show("interval p(L=pi/2+1e-6)", interval_p(mp.pi / 2 + mp.mpf("1e-6")))
    p, H = interval_energy(2)
    show("interval H(L=2)", H)
    z = flower_state("0.8", ["0.75"], ["0.66", "-0.177"])
    show("tadpole p", z[0])
    show("tadpole q1", z[1])
    show("tadpole stem E", (2 * z[1]) ** 2 - well(z[0]))
    show("tadpole loop p0", turning_point(z[0], z[1]))
    z = flower_state("0.51", ["0.8", "0.5"], ["0.67", "-0.188", "-0.113"])
    show("two-loop p", z[0])
    show("two-loop q1", z[1])
    show("two-loop q2", z[2])
    show("two-loop stem E", (2 * (z[1] + z[2])) ** 2 - well(z[0]))


SECTIONS = {
    "periods": section_periods,
    "gradients": section_gradients,
    "spectral": section_spectral,
    "states": section_states,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dps", type=int, default=30, help="working precision")
    ap.add_argument("--section", default="all", choices=["all", *SECTIONS])
    args = ap.parse_args()
    mp.dps = args.dps
    for name, fn in SECTIONS.items():
        if args.section in ("all", name):
            fn()


if __name__ == "__main__":
    main()
