"""Period functions: frozen anchors, gradients, identities, asymptotics.

Reference values were computed independently with mpmath (tanh-sinh
quadrature at 25-40 digits, Richardson-extrapolated central differences
for the gradient anchors).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import arclength_reference as ref
from fkpp_graphs import period, quadpack
from fkpp_graphs.errors import FisherKppError, InvalidDomain, OrbitNotClosed
from fkpp_graphs.period import (
    HOMOCLINIC_OFFSET,
    action_T,
    arclength_from_turning,
    asymptotic_T,
    center_limits,
    grad_T,
    grad_T0,
    interval_period_slope,
    loop_arcs,
    loop_spans,
    period_T,
    period_T0,
)
from fkpp_graphs.phaseplane import PhasePoint, turning_point_pair, well

X0 = 1.316957896924816708625046

T_ANCHORS = {
    (0.5, 0.0): 2.078234042903682630247,
    (0.4, 0.0): 2.25916661787249385014,
    (0.6, 0.0): 1.936358574381786014084,
    (0.5, -0.2): 1.409035407387309398263,
    (0.2, -0.5): 1.260913645739494672919,  # orbit outside the homoclinic
    (0.5, -0.5): 0.8473873092093306205944,
}

T0_ANCHORS = {
    (0.9, -0.05): 0.5160640044065570742384,
    (0.45, -0.03): 0.1212724020370825351639,
    (0.3, -0.1): 0.4922137824226527345865,
}

# along q = -p, three decades toward the saddle
T_NEAR_SADDLE = {
    1e-2: 5.074933139535659497022,
    1e-3: 7.382056474524024963917,
    1e-4: 9.68509194052701977526,
}

GRAD_T_ANCHOR = (0.5, -0.5, -1.380244653295141903395, 1.23951069340971619321)
GRAD_T0_ANCHORS = [
    (0.9, -0.05, 3.886591338339682445382, -8.951893700922398641456),
    (0.45, -0.03, -0.05023745138729287708027, -4.046493428450984995202),
]


def test_homoclinic_offset_value():
    assert math.isclose(HOMOCLINIC_OFFSET, X0, rel_tol=1e-15)
    assert math.isclose(HOMOCLINIC_OFFSET, 2.0 * math.acosh(math.sqrt(1.5)),
                        rel_tol=1e-15)


@pytest.mark.parametrize("pq,want", sorted(T_ANCHORS.items()))
def test_period_anchors(pq, want):
    res = period_T(PhasePoint(*pq))
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert res.estimated_quadrature_error <= 1e-8


@pytest.mark.parametrize("pq,want", sorted(T0_ANCHORS.items()))
def test_lift_anchors(pq, want):
    res = period_T0(PhasePoint(*pq))
    assert math.isclose(res.value, want, rel_tol=1e-12)
    assert res.estimated_quadrature_error <= 1e-8


@pytest.mark.parametrize("p,want", sorted(T_NEAR_SADDLE.items()))
def test_near_saddle_anchors(p, want):
    assert math.isclose(period_T(PhasePoint(p, -p)).value, want, rel_tol=1e-12)


def test_lift_matches_independent_shooting():
    # integrate w'' = w - w^2 from the turning point until w reaches 0.9;
    # the crossing position is T0 by definition
    p, q = 0.9, -0.05
    p0 = turning_point_pair(PhasePoint(p, q))[0]

    def rhs(x, y):
        return [y[1], y[0] - y[0] * y[0]]

    def hit(x, y):
        return y[0] - p

    hit.terminal = True
    hit.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 5.0), [p0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=hit)
    assert sol.t_events[0].size == 1
    assert abs(period_T0(PhasePoint(p, q)).value - sol.t_events[0][0]) <= 1e-8


def test_period_at_section_start_is_zero():
    assert period_T(PhasePoint(1.0, -0.3)).value == 0.0


def test_center_is_rejected():
    with pytest.raises(InvalidDomain):
        period_T(PhasePoint(1.0, 0.0))
    with pytest.raises(InvalidDomain):
        period_T0(PhasePoint(1.0, 0.0))


@pytest.mark.parametrize("p,q", [(0.2, -0.5), (1.0, -1.0 / math.sqrt(3.0))])
def test_lift_requires_closed_orbit(p, q):
    with pytest.raises(OrbitNotClosed):
        period_T0(PhasePoint(p, q))


def test_gradient_anchor_T():
    p, q, want_dp, want_dq = GRAD_T_ANCHOR
    g = grad_T(PhasePoint(p, q))
    assert math.isclose(g.dT_dp, want_dp, rel_tol=1e-11)
    assert math.isclose(g.dT_dq, want_dq, rel_tol=1e-11)


@pytest.mark.parametrize("p,q,want_dp,want_dq", GRAD_T0_ANCHORS)
def test_gradient_anchors_T0(p, q, want_dp, want_dq):
    g = grad_T0(PhasePoint(p, q))
    assert math.isclose(g.dT_dp, want_dp, rel_tol=1e-10)
    assert math.isclose(g.dT_dq, want_dq, rel_tol=1e-10)


def test_gradient_T_matches_finite_differences():
    p, q, h = 0.5, -0.5, 1e-5
    g = grad_T(PhasePoint(p, q))
    fd_p = (period_T(PhasePoint(p + h, q)).value
            - period_T(PhasePoint(p - h, q)).value) / (2.0 * h)
    fd_q = (period_T(PhasePoint(p, q + h)).value
            - period_T(PhasePoint(p, q - h)).value) / (2.0 * h)
    assert abs(g.dT_dp - fd_p) / abs(fd_p) <= 1e-5
    assert abs(g.dT_dq - fd_q) / abs(fd_q) <= 1e-5


def test_gradient_T0_matches_finite_differences():
    p, q, h = 0.45, -0.03, 1e-6
    g = grad_T0(PhasePoint(p, q))
    fd_p = (period_T0(PhasePoint(p + h, q)).value
            - period_T0(PhasePoint(p - h, q)).value) / (2.0 * h)
    fd_q = (period_T0(PhasePoint(p, q + h)).value
            - period_T0(PhasePoint(p, q - h)).value) / (2.0 * h)
    assert abs(g.dT_dp - fd_p) / abs(fd_p) <= 1e-4
    assert abs(g.dT_dq - fd_q) / abs(fd_q) <= 1e-4


def test_gradients_need_interior_points():
    with pytest.raises(InvalidDomain):
        grad_T(PhasePoint(0.5, 0.0))
    with pytest.raises(InvalidDomain):
        grad_T0(PhasePoint(0.5, 0.0))
    with pytest.raises(InvalidDomain):
        grad_T(PhasePoint(1.0, -0.5))


def test_interval_slope_matches_finite_differences():
    p, h = 0.5523884970850482, 1e-6
    fd = (period_T(PhasePoint(p + h, 0.0)).value
          - period_T(PhasePoint(p - h, 0.0)).value) / (2.0 * h)
    assert abs(interval_period_slope(p) - fd) / abs(fd) <= 1e-8


def test_arclength_from_turning_consistent_with_lift():
    pt = PhasePoint(0.9, -0.05)
    p0 = turning_point_pair(pt)[0]
    direct = arclength_from_turning(pt.p, p0)
    assert math.isclose(direct, period_T0(pt).value, rel_tol=1e-11)
    with pytest.raises(InvalidDomain):
        arclength_from_turning(0.5, 0.7)


def test_asymptotic_T_closed_form():
    # p - q = 12 e^{-x0} zeroes the logarithm
    gap = 12.0 * math.exp(-X0)
    assert abs(asymptotic_T(PhasePoint(0.5, 0.5 - gap))) <= 1e-14
    want = math.log(12.0 / 2e-4) - X0
    assert math.isclose(asymptotic_T(PhasePoint(1e-4, -1e-4)), want,
                        rel_tol=1e-14)
    # the saddle-trace parameterization recovers the length exactly
    L = 10.0
    pl = 6.0 * math.exp(-L - X0)
    assert math.isclose(asymptotic_T(PhasePoint(pl, -pl)), L, rel_tol=1e-13)


def test_near_saddle_residual_is_linear_in_p():
    assert abs(period_T(PhasePoint(1e-3, -1e-3)).value
               - asymptotic_T(PhasePoint(1e-3, -1e-3))) <= 2e-2
    devs = [abs(period_T(PhasePoint(p, -p)).value
                - asymptotic_T(PhasePoint(p, -p))) / p
            for p in (1e-2, 1e-3, 1e-4)]
    assert max(devs) / min(devs) <= 1.05  # empirically ~0.50 each


@pytest.mark.parametrize("L", [6.0, 8.0, 10.0])
def test_homoclinic_trace_law(L):
    p = 6.0 * math.exp(-L - X0)
    q = -math.sqrt(well(p))
    assert abs(period_T(PhasePoint(p, q)).value - L) <= 10.0 * math.exp(-L)


def test_center_limit_values():
    t, t0 = center_limits(-1.0)
    assert math.isclose(t, math.pi / 4.0, rel_tol=1e-15)
    assert math.isclose(t0, math.pi / 4.0, rel_tol=1e-15)
    t, t0 = center_limits(-2.0)
    assert math.isclose(t, math.asin(1.0 / math.sqrt(5.0)), rel_tol=1e-15)
    t, t0 = center_limits(-1e-9)
    assert math.isclose(t, math.pi / 2.0, rel_tol=1e-9)
    assert t0 <= 2e-9


@pytest.mark.parametrize("Q", [-0.5, -1.0, -2.0])
def test_periods_approach_center_limits(Q):
    bp = 1e-3
    pt = PhasePoint(1.0 - bp, Q * bp)
    lim_t, lim_t0 = center_limits(Q)
    assert abs(period_T(pt).value - lim_t) <= 5e-3
    assert abs(period_T0(pt).value - lim_t0) <= 5e-3
    assert abs(period_T(pt).value + period_T0(pt).value - math.pi / 2.0) <= 5e-3


def test_very_near_center_matches_reference():
    # T + T0 = pi/2 holds only in the limit: here it is off by 1.49e-7
    pt = PhasePoint(1.0 - 1e-7, -2e-7)
    assert math.isclose(period_T(pt).value, math.asin(1.0 / math.sqrt(5.0)),
                        rel_tol=1e-6)
    assert math.isclose(period_T(pt).value, ref.stem_length(pt.p, pt.q),
                        rel_tol=1e-14)
    assert math.isclose(period_T0(pt).value, ref.loop_half_length(pt.p, pt.q),
                        rel_tol=1e-14)


@pytest.mark.parametrize("p,q", [(1.0 - 10.0 ** -k, -Q * 10.0 ** -k)
                                 for k in range(7, 16) for Q in (0.5, 2.0)]
                         + [(1.0 - 1e-7, -0.5)])
def test_turning_points_and_loops_next_to_the_center(p, q):
    # E cancels next to the center; E + 1/3 does not
    pt = PhasePoint(p, q)
    assert turning_point_pair(pt)[0] <= pt.p
    assert math.isclose(period_T0(pt).value, ref.loop_half_length(pt.p, pt.q),
                        rel_tol=1e-14)


def test_interval_boundary_period():
    assert abs(period_T(PhasePoint(1.0 - 1e-4, 0.0)).value - math.pi / 2.0) <= 5e-3


@settings(max_examples=80, deadline=None)
@given(p=st.floats(0.02, 0.98), q=st.floats(-2.5, -0.01))
def test_flow_translation_identity_T(p, q):
    # moving the base point along the flow changes T by exactly the
    # traversed arclength: q dT/dp + p(1-p) dT/dq = 1
    g = grad_T(PhasePoint(p, q))
    assert abs(q * g.dT_dp + p * (1.0 - p) * g.dT_dq - 1.0) <= 1e-8
    assert g.dT_dp < 0.0
    assert g.dT_dq > 0.0


@settings(max_examples=80, deadline=None)
@given(p=st.floats(0.02, 0.98), frac=st.floats(0.05, 0.95))
def test_flow_translation_identity_T0(p, frac):
    # the turning point is invariant along the orbit, so the same flow
    # derivative gives -1 for the arclength measured from it
    q = -math.sqrt(well(p)) * frac
    g = grad_T0(PhasePoint(p, q))
    assert abs(q * g.dT_dp + p * (1.0 - p) * g.dT_dq + 1.0) <= 1e-8
    assert g.dT_dq < 0.0
    if p <= 0.5:
        assert g.dT_dp < 0.0


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.02, 0.98), frac=st.floats(0.05, 0.95))
def test_periods_are_positive_and_finite(p, frac):
    q = -math.sqrt(well(p)) * frac
    t = period_T(PhasePoint(p, q)).value
    t0 = period_T0(PhasePoint(p, q)).value
    assert 0.0 < t < 30.0
    assert 0.0 <= t0 < 30.0


# ------------------------------------------------------------- deep region
# p and p0 log-uniform down to 1e-100, far below where 1 - p rounds to 1.

deep = st.floats(-100.0, math.log10(0.5)).map(lambda e: 10.0 ** e)


def _loop_point(p0: float) -> PhasePoint:
    """A closed orbit with turning point p0, at p = 1.9 p0 (well conditioned)."""
    p = 1.9 * p0
    # A(p) - A(p0) in factored form, exact to rounding
    chord = p + p0 - (2.0 / 3.0) * (p * p + p * p0 + p0 * p0)
    return PhasePoint(p, -math.sqrt((p - p0) * chord))


@settings(max_examples=8, deadline=None)
@given(p=deep)
def test_period_T_deep_matches_mpmath(p):
    for q in (0.0, -p):
        want = ref.stem_length(p, q)
        assert abs(period_T(PhasePoint(p, q)).value - want) <= 1e-14 * want


@settings(max_examples=8, deadline=None)
@given(p0=deep, frac=st.floats(1e-3, 1.0))
def test_loop_arclength_deep_matches_mpmath(p0, frac):
    p = min(p0 + frac * (1.0 - p0), 1.0)
    want = ref.arc(p0, p)
    assert abs(arclength_from_turning(p, p0) - want) <= 1e-14 * want
    pt = _loop_point(p0)
    want = ref.loop_half_length(pt.p, pt.q)
    assert abs(period_T0(pt).value - want) <= 1e-14 * want


@settings(max_examples=60, deadline=None)
@given(p=deep)
def test_deep_region_values_are_finite_or_typed(p):
    pt = _loop_point(p)
    calls = [
        lambda: [period_T(PhasePoint(p, 0.0)).value],
        lambda: [period_T(PhasePoint(p, -p)).value],
        lambda: [period_T0(pt).value],
        lambda: [arclength_from_turning(0.3, min(p, 0.3))],
        lambda: [interval_period_slope(p)],
        lambda: list(vars(grad_T(PhasePoint(p, -p))).values()),
        lambda: list(vars(grad_T0(pt)).values()),
    ]
    for call in calls:
        try:
            values = call()
        except FisherKppError:
            continue
        assert all(math.isfinite(v) for v in values)


# ------------------------------------------------------------------ actions
# int v^2 dx, the free energy's quadratures: O((1-p)^2) next to the center
# and O(p^2) on deep loops, so only a relative tolerance resolves them.

@pytest.mark.parametrize("p,q", [(0.5, 0.0), (0.3, -0.1), (0.9, -1.0),
                                 (1e-30, -1e-30), (1e-300, 0.0),
                                 (1.0 - 1e-7, -2e-7), (1.0 - 1e-12, -2e-12)])
def test_stem_action_matches_reference(p, q):
    assert math.isclose(action_T(PhasePoint(p, q)), ref.action(p, 1.0, q),
                        rel_tol=1e-14)


@pytest.mark.parametrize("pt", [
    PhasePoint(0.3, -0.1), PhasePoint(0.9, -0.05), PhasePoint(1.0 - 1e-7, -0.5),
    PhasePoint(1.0 - 1e-12, -2e-12), _loop_point(0.2), _loop_point(1e-30),
    _loop_point(1e-100),
], ids=str)
def test_loop_action_matches_reference(pt):
    want = ref.action(ref.turning_point(pt.p, pt.q), pt.p)
    got = loop_arcs(loop_spans(pt.p, [pt.q]), 0.0, "action")[0]
    assert math.isclose(got, want, rel_tol=1e-14)


def test_quad_retries_only_a_call_that_used_up_its_subintervals(monkeypatch):
    limits = []
    qagse = period.qagse

    def recorded(f, a, b, epsabs, epsrel, limit):
        out = qagse(f, a, b, epsabs, epsrel, limit)
        limits.append((limit, out[3]))
        return out

    monkeypatch.setattr(period, "qagse", recorded)
    # about 480 periods on [0, 1]: 200 subintervals cannot resolve them
    value, err = period._quad(
        lambda centr, hlgth: [math.cos(3000.0 * (centr + hlgth * x)) for x in quadpack.X21],
        1e-12)
    assert limits[0] == (200, 200)
    assert [lim for lim, _ in limits] == [200, 1000]
    assert limits[1][1] < 1000
    assert abs(value - math.sin(3000.0) / 3000.0) <= 1e-14
    assert err <= 1e-12


# ------------------------------------------------- one qk21 panel for all loops

def test_panel_rule_is_quadpacks_qk21():
    x, w = np.polynomial.legendre.leggauss(10)
    gauss = x > 0.0
    assert np.allclose(np.sort(x[gauss])[::-1], quadpack.XGK[1::2], rtol=0.0, atol=1e-15)
    assert np.allclose(w[gauss][::-1], quadpack.WG, rtol=0.0, atol=1e-15)
    assert 2.0 * sum(quadpack.WG) == 2.0
    # the 21-point Kronrod rule integrates x^k exactly on [-1, 1] up to k = 31
    for k in range(0, 32, 2):
        rule = quadpack.WGK[10] * (k == 0) + 2.0 * sum(
            wk * xk ** k for wk, xk in zip(quadpack.WGK, quadpack.XGK))
        assert math.isclose(rule, 2.0 / (k + 1), rel_tol=0.0, abs_tol=1e-15)


def _first_panel_arcs(monkeypatch, spans, tol, kind):
    """[(value, QUADPACK's subinterval count)] of the scalar _arc per span."""
    lasts = []
    qagse = period.qagse

    def recorded(f, a, b, epsabs, epsrel, limit):
        out = qagse(f, a, b, epsabs, epsrel, limit)
        lasts.append(out[3])
        return out

    monkeypatch.setattr(period, "qagse", recorded)
    out = []
    for span in spans:
        lasts.clear()
        out.append((period._arc(*span, tol, kind)[0], lasts[0] if lasts else 0))
    monkeypatch.undo()
    return out


def _seeded_loop_spans(seed: int) -> list:
    """_loop_span's spans with turning points from 1e-15 up to next to the center."""
    rng = np.random.default_rng(seed)
    spans = []
    for _ in range(int(rng.integers(1, 81))):
        if seed % 2:    # turning point p0 <= 1/2, loop up to p
            p0 = float(10.0 ** rng.uniform(-15.0, math.log10(0.5)))
            p = min(0.99, p0 * float(10.0 ** rng.uniform(1e-3, 1.5)))
            spans.append((p0, 1.0 - p0, p - p0, 0.0))
        else:           # next to the center: b0 = 1 - p0 > 1 - p
            bp = float(10.0 ** rng.uniform(-9.0, -0.5))
            b0 = min(0.45, bp * float(10.0 ** rng.uniform(1e-3, 3.0)))
            spans.append((1.0 - b0, b0, b0 - bp, 0.0))
    return spans


@pytest.mark.parametrize("seed", range(6))
def test_panel_accepts_only_what_quadpack_ends_on_its_first_panel(monkeypatch, seed):
    spans = _seeded_loop_spans(seed)
    # the actions of energy_of take absolute tolerance 0
    for kind, tol in [("length", 1e-12), ("length", 1e-10), ("weighted", 1e-12),
                      ("weighted", 1e-10), ("action", 0.0)]:
        values, accepted = period._panel(spans, tol, kind)
        scalar = _first_panel_arcs(monkeypatch, spans, tol, kind)
        for v, ok, (want, last) in zip(values.tolist(), accepted.tolist(), scalar):
            if ok:
                assert last == 1
                assert v == want
        first_panel = sum(last == 1 for _, last in scalar)
        assert int(accepted.sum()) == first_panel > 0
        assert period.loop_arcs(spans, tol, kind) == [w for w, _ in scalar]


def test_deep_weighted_span_goes_to_the_scalar_quadrature():
    p0 = 1e-20
    spans = [(p0, 1.0 - p0, 0.3 - p0, 0.0)] * period.PANEL_MIN_LOOPS
    values, accepted = period._panel(spans, 1e-12, "weighted")
    assert not accepted.any()
    want = period._arc(*spans[0], 1e-12, "weighted")[0]
    assert period.loop_arcs(spans, 1e-12, "weighted") == [want] * len(spans)


def test_loop_rows_equal_the_scalar_period_functions():
    rng = np.random.default_rng(3)
    p = 0.3
    qs = [-math.sqrt(well(p)) * float(rng.uniform(0.05, 0.95)) for _ in range(40)]
    spans = period.loop_spans(p, qs)
    assert period.loop_arcs(spans, 1e-12) == \
        [period_T0(PhasePoint(p, q), 1e-12).value for q in qs]
    # the loop rows are two arrays; each entry is grad_T0's, to the bit
    dp, dq = period.loop_gradients(p, qs, spans, 1e-12)
    scalar = [grad_T0(PhasePoint(p, q), 1e-12) for q in qs]
    assert [x.hex() for x in dp.tolist()] == [g.dT_dp.hex() for g in scalar]
    assert [x.hex() for x in dq.tolist()] == [g.dT_dq.hex() for g in scalar]
