"""The QUADPACK port against scipy.integrate's own dqagse, bit for bit.

Each check runs quadpack.qagse and scipy's _qagse (full output) on the same
integrand and compares the value, the error estimate, ier, the number of
subintervals and the first `last` places of the alist, blist, rlist and
elist lists.  scipy reads the integrand one node at a time, at
f(x, 0.0)[0]: the panel at centr = x of half-width 0.  The column form
qk21_columns is checked against the port's own qk21 and qagse, so those
cases run without scipy's private _quadpack module; only the comparisons
with scipy skip.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkpp_graphs import groundstate, period, quadpack
from fkpp_graphs.graph import FlowerSpec


@pytest.fixture(scope="module")
def scipy_quadpack():
    """Skips a test that compares with scipy when its _quadpack is missing."""
    pytest.importorskip("scipy.integrate._quadpack")


def scipy_qagse(f, epsabs: float, epsrel: float, limit: int):
    from scipy.integrate._quadpack import _qagse

    value, abserr, info, ier = _qagse(
        lambda x: f(x, 0.0)[0], 0.0, 1.0, (), 1, epsabs, epsrel, limit)
    last = info["last"]
    return (value, abserr, ier, last,
            *(info[name][:last].tolist() for name in ("alist", "blist", "rlist", "elist")))


def ported_qagse(f, epsabs: float, epsrel: float, limit: int):
    value, abserr, ier, last, *lists = quadpack.qagse(f, 0.0, 1.0, epsabs, epsrel, limit)
    return (value, abserr, ier, last, *(list(x[1:last + 1]) for x in lists))


def outcome(qagse, *args):
    """qagse(*args), or the class of the error it raised."""
    try:
        return qagse(*args)
    except ArithmeticError as exc:    # the integrand's own, e.g. 1 / u^2 at u = 1e-163
        return type(exc)


def assert_same_qagse(f, epsabs: float, epsrel: float = period._EPSREL,
                      limit: int = 200):
    want = outcome(scipy_qagse, f, epsabs, epsrel, limit)
    assert outcome(ported_qagse, f, epsabs, epsrel, limit) == want
    return want


def exponent(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def arc_spans(draw):
    """_arc's (lo, 1 - lo, d, c): a stem arc (p, 1 - p, 1 - p, q^2), or a
    loop arc from a turning point p0 <= 1/2 up to p, or one next to the
    center (1 - b0, b0, b0 - (1 - p), 0); p and p0 reach 1e-300."""
    shape = draw(st.sampled_from(["stem", "loop", "center"]))
    if shape == "stem":
        p = draw(st.one_of(exponent(-300.0, -0.31),
                           exponent(-12.0, -0.31).map(lambda b: 1.0 - b)))
        q = -draw(exponent(-12.0, 1.0))
        return period._stem_span(p, q)
    if shape == "loop":
        p0 = draw(exponent(-300.0, math.log10(0.5)))
        p = min(0.99, p0 * draw(exponent(1e-6, 3.0)))
        return p0, 1.0 - p0, p - p0, 0.0
    bp = draw(exponent(-12.0, -0.5))
    b0 = min(0.45, bp * draw(exponent(1e-6, 3.0)))
    return 1.0 - b0, b0, b0 - bp, 0.0


@pytest.mark.usefixtures("scipy_quadpack")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(span=arc_spans(), kind=st.sampled_from(["length", "weighted", "action"]),
       tol=st.sampled_from([1e-10, 1e-11, 1e-12, 0.0]))
def test_qagse_is_scipys_on_every_arc_integrand(span, kind, tol):
    if span[2] <= 0.0:    # _arc's 0, with no quadrature
        return
    assert_same_qagse(period._integrand(*span, kind), 0.5 * tol)


@pytest.mark.parametrize("integrand", [
    lambda s: math.cos(3000.0 * s),               # too many periods for 200
    lambda s: math.sin(1.0 / (s + 1e-4)),
    lambda s: abs(s - 1.0 / 3.0) ** -0.5 if s != 1.0 / 3.0 else 0.0,
], ids=["cos-3000", "sin-1/s", "inverse-sqrt"])
@pytest.mark.usefixtures("scipy_quadpack")
def test_qagse_is_scipys_where_the_limit_runs_out(integrand):
    def f(centr, hlgth):
        return [integrand(centr + hlgth * x) for x in quadpack.X21]

    for limit in (200, 1000):
        value, abserr, ier, last, *_ = assert_same_qagse(f, 5e-13, limit=limit)
        assert ier > 0 or last < limit


@pytest.mark.parametrize("solve", [
    lambda: groundstate.solve_flower(FlowerSpec(stem=0.8, loop_halves=(0.75,))),
    lambda: groundstate.solve_flower(FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5))),
    lambda: groundstate.solve_interval(2.0),
], ids=["tadpole", "two-loop", "interval-2"])
@pytest.mark.usefixtures("scipy_quadpack")
def test_every_quadrature_of_a_solve_is_scipys(monkeypatch, solve):
    calls = []
    qagse = period.qagse

    def checked(f, a, b, epsabs, epsrel, limit):
        calls.append(assert_same_qagse(f, epsabs, epsrel, limit))
        return qagse(f, a, b, epsabs, epsrel, limit)

    monkeypatch.setattr(period, "qagse", checked)
    sol = solve()
    groundstate.energy_of(sol)
    assert len(calls) > 10
    assert any(last > 1 for _, _, _, last, *_ in calls)


# ------------------------------------------------ qk21 and the first exit, by column

def seeded_columns(seed: int):
    """(21, N) node values: smooth, odd, constant and zero columns (at
    1e-305, resasc = 0 < abserr with no error floor); nearly constant ones;
    and ones of both signs over 600 decades, a tenth of their values 0, -0,
    +-inf or NaN."""
    rng = np.random.default_rng(seed)
    x = np.array(quadpack.X21)[:, None]
    shapes = [np.exp(-3.0 * x), np.exp(2.0 * x), 1.0 / (1.1 + x), x, x ** 3 - x,
              np.full_like(x, 3.0), np.full_like(x, -0.1), np.full_like(x, 1e-305),
              np.zeros_like(x)]
    near = 1.0 + 10.0 ** rng.uniform(-16.0, -8.0, (1, 40)) * rng.standard_normal((21, 40))
    wild = rng.choice([-1.0, 1.0], (21, 80)) * 10.0 ** rng.uniform(-300.0, 300.0, (21, 80))
    special = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], (21, 80))
    wild = np.where(rng.random((21, 80)) < 0.1, special, wild)
    return np.hstack(shapes + [near, wild])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("a, b, epsabs, epsrel", [
    (0.0, 1.0, 0.5e-10, period._EPSREL), (0.0, 1.0, 0.0, period._EPSREL),
    (-2.0, 3.0, 1e-300, 1e-3), (1.0, 0.25, 1e-8, 1e-8)])
def test_qk21_columns_are_qk21_and_qagses_first_exit(seed, a, b, epsabs, epsrel):
    outcomes = set()
    # a batch with no negative value takes the rule on |f| from f's own sum
    for fv in (seeded_columns(seed), np.abs(seeded_columns(seed))):
        result, abserr, exits = quadpack.qk21_columns(fv, a, b, epsabs, epsrel)
        for col, value, err, ends in zip(fv.T.tolist(), result.tolist(),
                                         abserr.tolist(), exits.tolist()):
            def f(centr, hlgth):
                return col

            want = quadpack.qk21(f, a, b)
            assert (value.hex(), err.hex()) == (want[0].hex(), want[1].hex())
            # limit 2: qagse bisects once, unless it returns after the first panel
            _, _, ier, last, *_ = quadpack.qagse(f, a, b, epsabs, epsrel, 2)
            assert ends == (last == 1)
            outcomes.add((ends, ier))
    assert {(True, 0), (True, 2), (False, 1)} <= outcomes
