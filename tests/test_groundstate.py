"""Ground-state solver: anchors, uniqueness, Jacobian, profiles, energy."""

import dataclasses
import importlib.util
import itertools
import json
import math
import pathlib
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scipy.optimize import brentq

import arclength_reference as ref
from test_mesh import peak_bytes
from test_spectral import checked_brentq

from fkpp_graphs import groundstate, period, phaseplane, spectral
from fkpp_graphs.errors import (
    FisherKppError,
    InvalidDomain,
    NewtonStalled,
    OrbitNotClosed,
    OutsideRegion,
    StepTooLarge,
)
from fkpp_graphs.graph import FlowerSpec
from fkpp_graphs.groundstate import (
    energy_of,
    jacobian_report,
    reconstruct_profile,
    solve_flower,
    solve_interval,
)
from fkpp_graphs.period import period_T, period_T0
from fkpp_graphs.phaseplane import PhasePoint, energy, well
from fkpp_graphs.spectral import Region, lower_boundary, region_membership

P_STAR_L2 = 0.5523884970850482263588
P_STAR_L10 = 0.0001459856087904762218561
P_STAR_NEAR = 0.9999985000014589311001    # L = pi/2 + 1e-6
H_STAR_L2 = -0.01313016367158059999645

TADPOLE = FlowerSpec(stem=0.8, loop_halves=(0.75,))
TAD_P = 0.6615687833661180730531
TAD_Q1 = -0.1769463453725014158481
TAD_STEM_E = -0.1193992432920400879207
TAD_LOOP_P0 = 0.5944485839616512770411

TWO_LOOP = FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5))
TWO_P = 0.6707189896999501773493
TWO_Q1 = -0.1880619127350793370428
TWO_Q2 = -0.1134554964522166567622
TWO_STEM_E = 0.1149418976029159702778

EIGHTY_LOOPS = FlowerSpec(12.0, tuple(np.linspace(0.1, 1.2, 80)))


@pytest.mark.parametrize("L", [0.5, 1.0, math.pi / 2.0])
def test_interval_below_threshold(L):
    with pytest.raises(OutsideRegion):
        solve_interval(L)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan], ids=str)
def test_solvers_reject_a_bad_tolerance(tol):
    for solve in (lambda: solve_interval(2.0, tol), lambda: solve_flower(TWO_LOOP, tol)):
        with pytest.raises(InvalidDomain, match="tolerance must be positive and finite"):
            solve()


def test_a_loose_tolerance_still_solves_to_the_profile_tolerance():
    spec = FlowerSpec(2.0, (0.5,))
    sol = solve_flower(spec, tol=1e300)
    assert abs(ref.stem_length(sol.p, sol.q_stem) - spec.stem) <= 1e-8
    assert abs(ref.loop_half_length(sol.p, sol.q_loops[0]) - 0.5) <= 1e-8


def test_interval_anchor_L2():
    sol = solve_interval(2.0)
    assert math.isclose(sol.p, P_STAR_L2, rel_tol=1e-14)
    assert sol.q_loops == ()
    assert abs(period_T(PhasePoint(sol.p, 0.0)).value - 2.0) <= 1e-10
    assert sol.residuals["period_residuals"]["stem"] <= 1e-10


def test_interval_anchor_long_and_near_threshold():
    assert math.isclose(solve_interval(10.0).p, P_STAR_L10, rel_tol=1e-12)
    sol = solve_interval(math.pi / 2.0 + 1e-6)
    assert math.isclose(sol.p, P_STAR_NEAR, rel_tol=1e-12)
    assert math.isclose(1.0 - sol.p, 1.4999985410689e-06, rel_tol=1e-6)


@settings(max_examples=30, deadline=None)
@given(L=st.floats(min_value=math.pi / 2.0, max_value=60.0, exclude_min=True))
def test_interval_meets_its_floor_or_fails_typed(L):
    try:
        sol = solve_interval(L)
    except FisherKppError:
        return
    assert sol.residuals["period_residuals"]["stem"] <= max(1e-10, sol.convergence_floor)


@pytest.mark.parametrize("L", [30.0, 40.0])
def test_long_intervals_fail_typed(L):
    with pytest.raises(FisherKppError):
        solve_interval(L)


@pytest.mark.parametrize("L", [math.nextafter(math.pi / 2.0, 2.0)]
                         + [math.pi / 2.0 + 10.0 ** -k for k in range(1, 16)])
def test_interval_next_to_the_threshold_matches_reference(L):
    sol = solve_interval(L)
    assert abs(ref.stem_length(sol.p, 0.0) - L) <= 4.5e-16


@pytest.mark.parametrize("L", [800.0, 1e4])
def test_underflowing_interval_bracket_stalls(L):
    with pytest.raises(NewtonStalled, match="underflows"):
        solve_interval(L)


def test_interval_energy_anchor():
    sol = solve_interval(2.0)
    assert abs(energy_of(sol) - H_STAR_L2) <= 1e-10
    assert energy_of(sol) < 0.0


def test_interval_profile_contracts():
    sol = solve_interval(2.0)
    x, u = reconstruct_profile(sol)["stem"]
    assert u[0] == 0.0
    # for the interval this is |u'| at the Neumann end
    assert sol.residuals["kirchhoff_flux"] <= 1e-8
    assert np.max(u) < 1.0
    assert np.min(u) >= 0.0
    assert np.all(np.diff(u) > 0.0)  # monotone up to the Neumann end
    assert sol.residuals["dirichlet"] == 0.0
    assert sol.residuals["continuity"] <= 1e-8
    assert math.isclose(np.max(u), 1.0 - sol.p, rel_tol=1e-8)


def test_tadpole_anchor():
    sol = solve_flower(TADPOLE)
    assert math.isclose(sol.p, TAD_P, rel_tol=1e-12)
    assert math.isclose(sol.q_loops[0], TAD_Q1, rel_tol=1e-12)
    assert sol.q_stem == 2.0 * sol.q_loops[0]
    stem_energy = energy(sol.p, sol.q_stem)
    assert math.isclose(stem_energy, TAD_STEM_E, rel_tol=1e-12)
    assert math.isclose(sol.loop_turning_points()[0], TAD_LOOP_P0, rel_tol=1e-12)
    assert stem_energy < 0.0  # stem orbit inside the homoclinic here
    assert max(sol.residuals["period_residuals"].values()) <= 1e-9
    assert sol.newton_iterations <= 60


def test_two_loop_anchor():
    sol = solve_flower(TWO_LOOP, tol=1e-13)
    assert math.isclose(sol.p, TWO_P, rel_tol=1e-12)
    assert math.isclose(sol.q_loops[0], TWO_Q1, rel_tol=1e-12)
    assert math.isclose(sol.q_loops[1], TWO_Q2, rel_tol=1e-12)
    # this geometry pushes the stem orbit outside the homoclinic loop
    stem_energy = energy(sol.p, sol.q_stem)
    assert math.isclose(stem_energy, TWO_STEM_E, rel_tol=1e-12)
    assert stem_energy > 0.0
    assert all(energy(sol.p, q) < 0.0 for q in sol.q_loops)


def test_solved_periods_match_edge_lengths():
    sol = solve_flower(TWO_LOOP)
    assert abs(period_T(PhasePoint(sol.p, sol.q_stem)).value - 0.51) <= 1e-9
    for q, half in zip(sol.q_loops, TWO_LOOP.loop_halves):
        assert abs(period_T0(PhasePoint(sol.p, q)).value - half) <= 1e-9


def test_equal_loops_get_equal_slopes():
    sol = solve_flower(FlowerSpec(stem=0.8, loop_halves=(0.6, 0.6)))
    assert math.isclose(sol.q_loops[0], sol.q_loops[1], rel_tol=1e-12)


def test_loopless_spec_routes_to_interval():
    sol = solve_flower(FlowerSpec(stem=2.0))
    assert math.isclose(sol.p, P_STAR_L2, rel_tol=1e-14)
    with pytest.raises(OutsideRegion):
        solve_flower(FlowerSpec(stem=1.0))


@settings(max_examples=300, deadline=None)
@given(stem=st.floats(0.0, 6.0, exclude_min=True),
       halves=st.lists(st.floats(0.0, 3.0, exclude_min=True) | st.just(math.pi / 2.0),
                       max_size=4))
# lambda0 = s^2 overflows a double: every pi / (2 l) is inf, and so are the
# secular bracket's ends; s is finite but s^2 is not; the interval
@example(stem=2.225073858507203e-309, halves=[2.225073858507203e-309] * 3)
@example(stem=1.1125369292536007e-308, halves=[1.1125369292536007e-308])
@example(stem=5e-324, halves=[])
def test_one_existence_rule_on_every_flower(stem, halves):
    # the interval is the loop-free flower, and a half at or past pi/2
    # closes the critical stem to 0: lambda0 < 1 exactly above it
    spec = FlowerSpec(stem, tuple(halves))
    crit = lower_boundary(halves)
    assume(abs(stem - crit) > 1e-9 * (1.0 + crit))
    try:
        nontrivial = region_membership(spec).region is Region.NONTRIVIAL
    except InvalidDomain:
        # lambda0 overflows a double only when every length is below about
        # 1e-154, far below the critical stem; the solve refuses it as well
        assert max([stem, *halves]) < 1e-150 and stem < crit
        with pytest.raises(InvalidDomain, match="overflows a double"):
            solve_flower(spec)
        return
    assert nontrivial == (stem > crit)
    if not nontrivial:
        with pytest.raises(OutsideRegion):
            solve_flower(spec)


def test_outside_region_is_rejected():
    crit = lower_boundary([0.8])
    with pytest.raises(OutsideRegion):
        solve_flower(FlowerSpec(stem=0.6 * crit, loop_halves=(0.8,)))


def test_near_boundary_degeneration():
    # approaching the lower boundary, the state collapses to the center:
    # p -> 1 and q_j -> 0, linearly in the offset
    crit = lower_boundary([0.8])
    gaps = []
    qs = []
    for eps in (1e-2, 1e-4):
        sol = solve_flower(FlowerSpec(stem=crit + eps, loop_halves=(0.8,)))
        gaps.append(1.0 - sol.p)
        qs.append(abs(sol.q_loops[0]))
    assert 80.0 <= gaps[0] / gaps[1] <= 120.0
    assert 80.0 <= qs[0] / qs[1] <= 120.0
    assert gaps[1] < 2e-4


def test_uniqueness_from_random_initializations():
    rng = np.random.default_rng(42)
    converged = 0
    tol, quad_tol = 1e-10, 1e-12    # solve_flower's defaults
    for _ in range(20):
        p0 = rng.uniform(0.05, 0.95)
        q0 = -math.sqrt(well(p0)) * rng.uniform(0.1, 0.9)
        assert groundstate._admissible(p0, [q0])
        z0 = np.array([p0, q0])
        F0, spans0 = groundstate._system(TADPOLE, z0, quad_tol)
        z, F, J, _, _, _ = groundstate._newton(TADPOLE, z0, F0, spans0, tol, quad_tol)
        if not groundstate._converged(F, tol, groundstate._floors(TADPOLE, J, z)):
            continue
        converged += 1
        assert abs(z[0] - TAD_P) <= 1e-8
        assert abs(z[1] - TAD_Q1) <= 1e-8
    assert converged >= 10


def dense_jacobian(arrow: groundstate.Arrow) -> np.ndarray:
    """The (N+1) x (N+1) period Jacobian that ``arrow`` keeps as its arrowhead."""
    J = np.diag(np.concatenate(([arrow.corner], arrow.diagonal)))
    J[0, 1:] = arrow.row
    J[1:, 0] = arrow.column
    return J


def test_jacobian_matches_finite_differences():
    h = 1e-6
    rep = jacobian_report(TAD_P, [TAD_Q1])
    qstem = 2.0 * TAD_Q1

    def t(p, q):
        return period_T(PhasePoint(p, q)).value

    def t0(p, q):
        return period_T0(PhasePoint(p, q)).value

    fd = np.array([
        [(t(TAD_P + h, qstem) - t(TAD_P - h, qstem)) / (2 * h),
         2.0 * (t(TAD_P, qstem + h) - t(TAD_P, qstem - h)) / (2 * h)],
        [(t0(TAD_P + h, TAD_Q1) - t0(TAD_P - h, TAD_Q1)) / (2 * h),
         (t0(TAD_P, TAD_Q1 + h) - t0(TAD_P, TAD_Q1 - h)) / (2 * h)],
    ])
    assert np.max(np.abs(dense_jacobian(rep) - fd) / np.abs(fd)) <= 1e-4


def test_jacobian_sign_pattern():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for _ in range(10):
            p = rng.uniform(0.05, 0.95)
            qs = [-math.sqrt(well(p)) * rng.uniform(0.05, 0.95)
                  for _ in range(n)]
            rep = jacobian_report(p, qs)
            assert rep.expected_sign == (1 if n % 2 == 1 else -1)
            assert rep.sign_ok, (n, p, qs, rep.determinant)


@pytest.mark.parametrize("spec", [FlowerSpec(2.0), TADPOLE, TWO_LOOP, EIGHTY_LOOPS,
                                  FlowerSpec(3.0, (0.75, 0.5))],
                         ids=["interval-2", "tadpole", "two-loop", "12-80loops", "3-0.75-0.5"])
def test_jacobian_report_is_the_solves_jacobian_bit_for_bit(spec):
    sol = solve_flower(spec)
    rep, J = jacobian_report(sol.p, sol.q_loops), sol.jacobian
    assert (rep.corner, rep.row) == (J.corner, J.row)
    assert np.array_equal(rep.column, J.column) and np.array_equal(rep.diagonal, J.diagonal)
    assert rep.determinant == J.determinant
    assert rep.log_abs_determinant == J.log_abs_determinant
    assert rep.sign == J.sign == J.expected_sign


def test_jacobian_report_of_the_interval_is_its_one_by_one_arrow():
    rep = jacobian_report(P_STAR_L2, [])
    assert rep.corner == period.interval_period_slope(P_STAR_L2, groundstate._quad_tol())
    assert rep.row == 0.0 and rep.column.size == rep.diagonal.size == 0
    h = 1e-6
    fd = (period_T(PhasePoint(P_STAR_L2 + h, 0.0)).value
          - period_T(PhasePoint(P_STAR_L2 - h, 0.0)).value) / (2.0 * h)
    assert math.isclose(rep.corner, fd, rel_tol=1e-6)
    assert rep.determinant == rep.corner < 0.0
    assert rep.sign == rep.expected_sign == -1 and rep.sign_ok


def test_jacobian_rejects_inadmissible_points():
    with pytest.raises(InvalidDomain):
        jacobian_report(1.2, [])
    with pytest.raises(InvalidDomain):
        jacobian_report(1.2, [-0.1])
    with pytest.raises(InvalidDomain):
        jacobian_report(0.5, [0.1])
    with pytest.raises(InvalidDomain):
        jacobian_report(0.2, [-0.9])  # outside the homoclinic: E > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 300])
def test_arrow_determinant_is_slogdets(n):
    # seeded flowers, stem 3 and halves U(0.1, 1.2); at 300 loops the
    # determinant overflows a double and only its log and sign are left
    halves = tuple(np.random.default_rng(n).uniform(0.1, 1.2, n).tolist())
    rep = solve_flower(FlowerSpec(3.0, halves)).jacobian
    J = dense_jacobian(rep)
    sign, log_abs = np.linalg.slogdet(J)
    assert rep.sign == sign == rep.expected_sign == (-1) ** (n + 1)
    assert rep.sign_ok
    assert math.isclose(rep.log_abs_determinant, log_abs, rel_tol=1e-12)
    if n == 300:
        assert rep.determinant == -math.inf
    else:
        assert math.isclose(rep.determinant, np.linalg.det(J), rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_arrow_step_and_floors_are_the_dense_jacobians(n):
    # the Schur-complement step solves J x = r, and the floors take |J| |z|,
    # as LAPACK and the matrix product do on the dense J, to rounding
    rng = np.random.default_rng(n)
    p = float(rng.uniform(0.05, 0.95))
    qs = [-math.sqrt(well(p)) * float(rng.uniform(0.05, 0.95)) for _ in range(n)]
    arrow = jacobian_report(p, qs)
    J, z, r = dense_jacobian(arrow), np.array([p, *qs]), rng.standard_normal(n + 1)
    spec = FlowerSpec(1.0, tuple(rng.uniform(0.1, 1.2, n).tolist()))
    dense_floors = 8.0 * groundstate.EPMACH * (np.abs([spec.stem, *spec.loop_halves]) +
                                               np.abs(J) @ np.abs(z))
    np.testing.assert_allclose(groundstate._floors(spec, arrow, z), dense_floors, rtol=1e-14)
    np.testing.assert_allclose(arrow.solve(r), np.linalg.solve(J, r), rtol=1e-12)


def _singular(J: groundstate.Arrow, zero: str) -> groundstate.Arrow:
    """J with its first diagonal entry, or its Schur complement, exactly 0."""
    if zero == "diagonal":
        return dataclasses.replace(J, diagonal=np.concatenate(([0.0], J.diagonal[1:])))
    return dataclasses.replace(J, corner=J.row * float(np.sum(J.column / J.diagonal)))


@pytest.mark.parametrize("zero", ["diagonal", "schur"])
def test_a_singular_arrow_stalls_typed(monkeypatch, zero):
    jacobian = groundstate._jacobian
    monkeypatch.setattr(groundstate, "_jacobian",
                        lambda *args: _singular(jacobian(*args), zero))
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no division by 0, not even numpy's
        with pytest.raises(NewtonStalled) as info:
            solve_flower(TWO_LOOP)
        assert info.value.diagnostics["iterations"] == 1
        rep = _singular(jacobian_report(TWO_P, [TWO_Q1, TWO_Q2]), zero)
    assert rep.sign == 0.0 and not rep.sign_ok
    assert (rep.determinant == 0.0) if zero == "schur" else math.isnan(rep.determinant)


def test_a_flower_solve_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the flower path called LAPACK")

    for name in ("solve", "det", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for spec in (TADPOLE, TWO_LOOP, FlowerSpec(3.0, tuple(np.linspace(0.1, 1.2, 12)))):
        sol = solve_flower(spec)
        assert sol.jacobian.sign_ok and math.isfinite(sol.jacobian.log_abs_determinant)


def test_a_thousand_loop_solve_holds_no_dense_jacobian():
    # with the dense (N+1)^2 Jacobian, its LU and det, this solve peaked at
    # 17.6 MB under tracemalloc; on the arrow it peaks at about 1.6 MB
    spec = FlowerSpec(3.0, (0.75,) * 1000)
    peak, sol = peak_bytes(lambda: solve_flower(spec))
    assert peak < 4e6, peak
    assert sol.jacobian.sign_ok and sol.jacobian.determinant == -math.inf
    assert math.isfinite(sol.jacobian.log_abs_determinant)


def test_profile_step_guard():
    # interval 30: rounding in the stem's start grows like e^30, past any step,
    # so the message names the mismatch and gives no advice about dx
    with pytest.raises(StepTooLarge) as info:
        solve_interval(30.0)
    assert re.fullmatch(r"profile end-state mismatch \S+ exceeds 10\*tol = 1\.000e-07",
                        str(info.value))


def test_flower_profile_contracts():
    sol = solve_flower(TWO_LOOP)
    profiles = reconstruct_profile(sol)
    assert sol.residuals["kirchhoff_flux"] <= 1e-8
    assert sol.residuals["continuity"] <= 1e-8
    for j, half in ((1, 0.8), (2, 0.5)):
        x, u = profiles[f"loop{j}"]
        assert math.isclose(x[-1], 2.0 * half, rel_tol=1e-15)
        # even about the midpoint by construction
        assert np.max(np.abs(u - u[::-1])) <= 1e-10
        # vertex value agrees with the stem end
        assert math.isclose(u[0], 1.0 - sol.p, rel_tol=1e-9)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
    assert 0.0 < sol.sup_u < 1.0
    assert math.isclose(sol.sup_u,
                        float(max(np.max(u) for _, u in profiles.values())),
                        rel_tol=1e-8)


def test_proximity_on_loops():
    # max |u - 1| over a loop is p, at the shared vertex: each loop half runs
    # monotonically in w = 1 - u from its turning point p0_j up to p
    for spec in (TADPOLE, TWO_LOOP):
        sol = solve_flower(spec)
        profiles = reconstruct_profile(sol)
        for j in range(1, spec.n_loops + 1):
            _, u = profiles[f"loop{j}"]
            w = 1.0 - u
            assert np.argmax(w) in (0, w.size - 1)
            assert math.isclose(np.max(w), sol.p, rel_tol=1e-9)


def test_proximity_near_boundary_is_large():
    crit = lower_boundary([0.8])
    sol = solve_flower(FlowerSpec(stem=crit + 1e-3, loop_halves=(0.8,)))
    assert sol.p > 0.9    # max |u - 1| over the loop


def test_energy_negative_and_converges_under_refinement():
    # H comes from the orbit invariant, not from the samples: no grid moves it
    sol = solve_flower(TADPOLE)
    vals = []
    for dx in (0.005, 0.0025, 0.00125):
        reconstruct_profile(sol, dx=dx)
        vals.append(energy_of(sol))
    assert vals[0] < 0.0
    assert vals[0] == vals[1] == vals[2]
    assert abs(vals[0] - _reference_energy(sol)) <= 1e-13


def _reference_energy(sol) -> float:
    return ref.free_energy(sol.p, sol.q_stem, sol.q_loops, sol.spec.stem,
                           sol.spec.loop_halves)


def _random_flowers(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    flowers = []
    for _ in range(n):
        halves = tuple(rng.uniform(0.2, 1.4, size=rng.integers(1, 5)).tolist())
        flowers.append(FlowerSpec(lower_boundary(halves) + rng.uniform(0.05, 3.0),
                                  halves))
    return flowers


@pytest.mark.parametrize("spec", [
    FlowerSpec(2.0), TADPOLE, TWO_LOOP, EIGHTY_LOOPS, FlowerSpec(16.0, (16.0,)),
    *_random_flowers(20, seed=11),
], ids=["interval-2", "tadpole", "two-loop", "12-80loops", "16-16",
        *(f"random-{i}" for i in range(20))])
def test_energy_matches_reference(spec):
    sol = solve_flower(spec)
    h_ref = _reference_energy(sol)
    assert abs(energy_of(sol) - h_ref) <= 1e-13 * max(1.0, abs(h_ref))


@pytest.mark.parametrize("halves", [(), TADPOLE.loop_halves, TWO_LOOP.loop_halves],
                         ids=["interval", "tadpole", "two-loop"])
@pytest.mark.parametrize("k", range(2, 9))
def test_energy_next_to_the_threshold(halves, k):
    # H is a difference of two O((1 - p)^2) terms here; its sign must survive
    sol = solve_flower(FlowerSpec(lower_boundary(halves) + 10.0 ** -k, halves))
    h = energy_of(sol)
    h_ref = _reference_energy(sol)
    assert h < 0.0
    assert abs(h - h_ref) <= 1e-6 * abs(h_ref)


def test_each_edge_profile_takes_its_own_step():
    profiles = reconstruct_profile(solve_flower(EIGHTY_LOOPS))
    for j, half in enumerate(EIGHTY_LOOPS.loop_halves, start=1):
        n = groundstate._edge_steps(half, 1e-2)
        x, u = profiles[f"loop{j}"]
        assert len(x) == len(u) == 2 * n + 1


@pytest.mark.parametrize("solve", [
    lambda: solve_interval(20.0), lambda: solve_flower(FlowerSpec(16.0, (16.0,))),
], ids=["interval-20", "16-16"])
def test_a_solve_keeps_only_end_states(solve):
    # sampled, these long edges hold about 2 MB of profile arrays
    solve()    # imports and caches outside the measurement
    peak, sol = peak_bytes(solve)
    assert peak < 0.1e6
    # no field is an edge_id -> (x, u) mapping
    assert not any(isinstance(v, dict) and "stem" in v for v in vars(sol).values())


@pytest.mark.parametrize("spec", [FlowerSpec(20.0), TADPOLE, EIGHTY_LOOPS,
                                  FlowerSpec(16.0, (16.0,))],
                         ids=["interval-20", "tadpole", "12-80loops", "16-16"])
def test_reading_profiles_leaves_the_residuals_bit_for_bit(spec):
    sol = solve_flower(spec)
    before = json.dumps(sol.residuals)
    profiles = reconstruct_profile(sol)
    assert set(profiles) == {"stem", *(f"loop{j}" for j in range(1, spec.n_loops + 1))}
    assert json.dumps(sol.residuals) == before


def _unchanged(sol, before: dict) -> bool:
    """vars(sol) holds the very objects that ``before`` holds, and no more."""
    now = vars(sol)
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


def _points(profiles: dict) -> int:
    return sum(len(x) for x, _ in profiles.values())


def test_reconstruct_profile_returns_its_own_grid_and_leaves_the_solution():
    sol = solve_flower(EIGHTY_LOOPS)
    before, size, residuals = dict(vars(sol)), len(repr(sol)), json.dumps(sol.residuals)
    fine = reconstruct_profile(sol, 1e-3)
    coarse = reconstruct_profile(sol)
    assert _unchanged(sol, before)
    assert len(repr(sol)) == size and json.dumps(sol.residuals) == residuals
    for profiles, dx in ((fine, 1e-3), (coarse, groundstate.PROFILE_DX)):
        assert _points(profiles) == groundstate._edge_steps(EIGHTY_LOOPS.stem, dx) + 1 + sum(
            2 * groundstate._edge_steps(half, dx) + 1 for half in EIGHTY_LOOPS.loop_halves)
    assert (_points(fine), _points(coarse)) == (116_159, 16_969)
    again = reconstruct_profile(sol, 1e-3)
    assert all(np.array_equal(again[k][1], u) for k, (_, u) in fine.items())


def test_a_finer_profile_leaves_the_solve_residuals():
    # sampling at dx = 1e-3 integrates more accurately than the solve's end
    # check did; the solution's residuals are still the solve's own
    sol = solve_flower(TADPOLE)
    before = json.dumps(sol.residuals)
    reconstruct_profile(sol, dx=1e-3)
    assert json.dumps(sol.residuals) == before


@pytest.mark.parametrize("dx", [0.0, -0.0, -1e-3, -math.inf, math.nan], ids=repr)
def test_a_profile_step_that_is_not_positive_raises_invalid_domain(dx):
    sol = solve_flower(FlowerSpec(2.0, (0.5,)))
    with pytest.raises(InvalidDomain, match="dx must be > 0"):
        reconstruct_profile(sol, dx=dx)


@pytest.mark.parametrize("spec", [FlowerSpec(2.0, (0.5,) * 3), FlowerSpec(2.0)],
                         ids=["three-loop", "interval-2"])
def test_a_profile_step_below_the_step_cap_raises_before_any_step(monkeypatch, spec):
    """At dx = 1e-300 the cap, not dx, would set every edge's step, and the
    three-loop flower would keep 1,000,001 samples per loop."""
    sol = solve_flower(spec)
    before = dict(vars(sol))
    steps = []
    monkeypatch.setattr(groundstate, "_rk4", lambda *args: steps.append(args))
    start = time.perf_counter()
    with pytest.raises(InvalidDomain, match="cap of 500000 steps per edge"):
        reconstruct_profile(sol, dx=1e-300)
    assert time.perf_counter() - start < 0.5
    assert steps == [] and _unchanged(sol, before)


def test_an_infinite_profile_step_is_bounded_by_the_step_law():
    sol = solve_flower(FlowerSpec(2.0, (0.5,)))
    profiles = reconstruct_profile(sol, dx=math.inf)
    x, _ = profiles["stem"]
    assert x[-1] == 2.0 and 2 < x.size < 1000


def test_reported_stem_slope_is_the_one_newton_solved(monkeypatch):
    slopes = []
    grad = groundstate.grad_T

    def recorded(pt, tol):
        slopes.append(pt.q)
        return grad(pt, tol)

    monkeypatch.setattr(groundstate, "grad_T", recorded)
    sol = solve_flower(EIGHTY_LOOPS)
    assert sol.q_stem == 2.0 * float(np.sum(sol.q_loops))
    assert sol.q_stem == slopes[-1]    # the Jacobian at the accepted iterate


@pytest.mark.parametrize("spec", [TADPOLE, TWO_LOOP], ids=["tadpole", "two-loop"])
@pytest.mark.parametrize("k", range(2, 9))
def test_flowers_next_to_their_threshold_match_reference(spec, k):
    near = FlowerSpec(lower_boundary(spec.loop_halves) + 10.0 ** -k,
                      spec.loop_halves)
    sol = solve_flower(near)
    allowed = max(1e-10, sol.convergence_floor)
    assert abs(ref.stem_length(sol.p, sol.q_stem) - near.stem) <= allowed
    for q, half in zip(sol.q_loops, near.loop_halves):
        assert abs(ref.loop_half_length(sol.p, q) - half) <= allowed


# ------------------------------------------------------------ deep flowers

@pytest.mark.parametrize("spec", [
    FlowerSpec(16.0, (16.0,)),
    FlowerSpec(12.0, tuple(np.linspace(0.1, 1.2, 80))),
], ids=["16-16", "12-80loops"])
def test_deep_flowers_solve_to_their_floor(spec):
    sol = solve_flower(spec)
    allowed = 2.0 * sol.convergence_floor
    assert abs(ref.stem_length(sol.p, sol.q_stem) - spec.stem) <= allowed
    for q, half in zip(sol.q_loops, spec.loop_halves):
        assert abs(ref.loop_half_length(sol.p, q) - half) <= allowed


@pytest.mark.parametrize("spec", [
    FlowerSpec(20.0, (20.0,)),
    FlowerSpec(30.0, (5.0,)),
], ids=["20-20", "30-5"])
def test_deepest_flowers_fail_typed_and_fast(spec):
    start = time.perf_counter()
    with pytest.raises(FisherKppError):
        solve_flower(spec)
    assert time.perf_counter() - start < 20.0


def _count_newton_runs(monkeypatch) -> list:
    runs = []
    newton = groundstate._newton

    def counted(*args, **kwargs):
        runs.append(args[1])
        return newton(*args, **kwargs)

    monkeypatch.setattr(groundstate, "_newton", counted)
    return runs


@pytest.mark.parametrize("spec", [
    TADPOLE,
    TWO_LOOP,
    FlowerSpec(lower_boundary([0.8]) + 1e-4, (0.8,)),
    FlowerSpec(16.0, (16.0,)),
    FlowerSpec(12.0, tuple(np.linspace(0.1, 1.2, 80))),
], ids=["tadpole", "two-loop", "near-boundary", "16-16", "12-80loops"])
def test_one_newton_run_from_the_seed(monkeypatch, spec):
    runs = _count_newton_runs(monkeypatch)
    solve_flower(spec)
    assert len(runs) == 1


def test_stalled_newton_is_not_retried(monkeypatch):
    runs = _count_newton_runs(monkeypatch)
    with pytest.raises(NewtonStalled):
        solve_flower(FlowerSpec(20.0, (20.0,)))
    assert len(runs) == 1


# ------------------------------------------------------ work on the exact path

def _record_quads(monkeypatch) -> list:
    """Record (type of the integrand's value at 0.5, limit) for every period
    quadrature."""
    calls = []
    qagse = period.qagse

    def recorded(f, a, b, epsabs, epsrel, limit):
        calls.append((type(f(0.5, 0.0)[0]), limit))
        return qagse(f, a, b, epsabs, epsrel, limit)

    monkeypatch.setattr(period, "qagse", recorded)
    return calls


@pytest.mark.parametrize("solve", [
    lambda: solve_flower(TWO_LOOP),
    lambda: solve_interval(2.0),
], ids=["two-loop", "interval-2"])
def test_period_integrands_run_on_python_floats(monkeypatch, solve):
    calls = _record_quads(monkeypatch)
    solve()
    assert calls
    assert {kind for kind, _ in calls} == {float}


def _record_turning_points(monkeypatch) -> list:
    """Record the log turning points of every presolve evaluation."""
    ys = []
    arclengths = groundstate._turning_arclengths

    def counted(p, round_ys, quad_tol):
        ys.extend(round_ys)
        return arclengths(p, round_ys, quad_tol)

    monkeypatch.setattr(groundstate, "_turning_arclengths", counted)
    return ys


def test_loop_presolve_evaluates_no_turning_point_twice(monkeypatch):
    ys = _record_turning_points(monkeypatch)
    y, = groundstate._loop_turning_points(TWO_P, TWO_LOOP.loop_halves[:1], 1e-12)
    q = -math.sqrt(well(TWO_P) - well(math.exp(y)))
    assert math.isclose(q, TWO_Q1, rel_tol=1e-6)
    assert len(ys) > 3
    assert len(set(ys)) == len(ys)


def _scalar_bracket(p: float, half: float, quad_tol: float):
    """One loop's presolve bracket, found alone: (mismatch, y_lo, y_hi,
    rungs), y_lo None where the root is y_hi, and rungs the ladder steps
    taken."""
    def mismatch(y):
        return period.arclength_from_turning(p, math.exp(y), quad_tol) - half

    y_hi = math.log(p) - 1e-12
    if mismatch(y_hi) > 0.0:
        return mismatch, None, y_hi, 0
    y_lo = math.log(p) - 5.0
    for rungs in range(1, 141):
        if mismatch(y_lo) > 0.0:
            return mismatch, y_lo, y_hi, rungs
        y_lo -= 5.0
    raise OrbitNotClosed(f"no loop orbit of half-length {half} through p = {p}")


def _reference_turning_point(p: float, half: float, quad_tol: float) -> float:
    """One loop's presolve as a scalar scipy brentq on the same bracket."""
    mismatch, y_lo, y_hi, _ = _scalar_bracket(p, half, quad_tol)
    if y_lo is None:
        return y_hi
    return brentq(mismatch, y_lo, y_hi, xtol=1e-13, rtol=4.0 * groundstate.EPMACH,
                  maxiter=300)


# n - 2 distinct halves step together from n = 3 on: 9, 10 and 11 of them
# straddle PANEL_MIN_LOOPS
@pytest.mark.parametrize("seed,n", [(1, 1), (2, 2), (3, 5), (4, 11), (5, 12),
                                    (6, 13), (7, 20), (8, 80)])
def test_lockstep_presolve_equals_scipy_brentq_per_loop(seed, n):
    """Each root is scalar scipy brentq's on the same bracket, bit for bit."""
    rng = np.random.default_rng(seed)
    for p in (1e-8, float(10.0 ** rng.uniform(-8.0, -1.0)), 0.3, 0.9):
        halves = [float(h) for h in rng.uniform(0.1, 1.2, n)]
        # repeated halves, and one so short that its root is the upper end
        halves[n // 2] = halves[0]
        halves[-1] = 1e-8
        ys = groundstate._loop_turning_points(p, halves, 1e-12)
        for y, half in zip(ys, halves):
            y_ref = _reference_turning_point(p, half, 1e-12)
            assert y == y_ref
        assert ys[-1] == math.log(p) - 1e-12


@pytest.mark.parametrize("p", [1e-8, 0.3])
@pytest.mark.parametrize("seed,n", [(9, 2), (10, 11), (11, 80)])
def test_lockstep_presolve_takes_the_rounds_of_its_slowest_brentq(monkeypatch, seed, n, p):
    """After the ladder, one round per scalar brentq iteration of the
    slowest distinct half, less the first, which reuses the two ends the
    ladder evaluated; every round evaluates only new points."""
    rng = np.random.default_rng(seed)
    halves = [float(h) for h in rng.uniform(0.1, 1.2, n)]
    halves[n // 2] = halves[0]    # a repeat, from n = 3 on
    halves[-1] = 1e-8
    rounds = []
    arclengths = groundstate._turning_arclengths

    def recorded(at, ys, quad_tol):
        rounds.append(list(ys))
        return arclengths(at, ys, quad_tol)

    monkeypatch.setattr(groundstate, "_turning_arclengths", recorded)
    groundstate._loop_turning_points(p, halves, 1e-12)
    ys = [y for ys in rounds for y in ys]
    assert all(rounds) and len(set(ys)) == len(ys)
    ladder, iterations = 1, []
    for half in set(halves):
        mismatch, y_lo, y_hi, rungs = _scalar_bracket(p, half, 1e-12)
        ladder = max(ladder, 1 + rungs)
        if y_lo is not None:
            _, info = spectral.brentq(mismatch, y_lo, y_hi, 1e-13, 4.0 * groundstate.EPMACH,
                                      groundstate.MAX_PRESOLVE_ROUNDS)
            iterations.append(info.iterations)
    assert len(rounds) - ladder == max(iterations) - 1


@pytest.mark.parametrize("p", [1e-8, 0.3])
def test_lockstep_presolve_fails_like_scipy_on_an_unreachable_half(p):
    halves = [0.5, 1e4, 0.7]
    with pytest.raises(OrbitNotClosed):
        _reference_turning_point(p, 1e4, 1e-12)
    with pytest.raises(OrbitNotClosed):
        groundstate._loop_turning_points(p, halves, 1e-12)


def test_a_nan_inside_the_presolve_is_a_stalled_solve(monkeypatch):
    """T0 turns NaN after the first two rounds: y_hi and the first rung,
    which brackets the tadpole's loop."""
    arclengths = groundstate._turning_arclengths
    rounds = []

    def spoiled(p, ys, quad_tol):
        rounds.append(ys)
        values = arclengths(p, ys, quad_tol)
        return values if len(rounds) <= 2 else [math.nan] * len(values)

    monkeypatch.setattr(groundstate, "_turning_arclengths", spoiled)
    with pytest.raises(NewtonStalled, match="no admissible Newton seed"):
        solve_flower(TADPOLE)
    assert len(rounds) == 3


def test_the_presolve_round_cap_is_a_stalled_solve(monkeypatch):
    monkeypatch.setattr(groundstate, "MAX_PRESOLVE_ROUNDS", 2)
    with pytest.raises(NewtonStalled, match="no admissible Newton seed"):
        solve_flower(TADPOLE)


def test_interval_root_is_scipys_brentq(monkeypatch):
    calls = checked_brentq(monkeypatch, groundstate)
    for L in np.linspace(1.6, 19.0, 15).tolist():
        solve_interval(L)
    assert len(calls) == 15


def test_interval_evaluates_no_residual_twice(monkeypatch):
    ps = []
    system = groundstate._system

    def counted(spec, z, quad_tol):
        ps.append(float(z[0]))
        return system(spec, z, quad_tol)

    monkeypatch.setattr(groundstate, "_system", counted)
    sol = solve_interval(2.0)
    assert math.isclose(sol.p, P_STAR_L2, rel_tol=1e-14)
    assert len(set(ps)) == len(ps)


def test_quadratures_are_single_calls_that_need_no_warnings_filter(monkeypatch):
    # two of these quads end with QUADPACK's ier = 5 after 13 subintervals;
    # each quadrature is one qagse call, at the one limit
    quads = []
    quad = period._quad

    def counted(f, tol):
        quads.append(tol)
        return quad(f, tol)

    monkeypatch.setattr(period, "_quad", counted)
    calls = _record_quads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonStalled):
            solve_flower(FlowerSpec(20.0, (20.0,)))
    assert len(calls) == len(quads) > 0
    assert {limit for _, limit in calls} == {period._LIMIT}


def test_loop_presolves_of_one_seed_evaluate_no_turning_point_twice(monkeypatch):
    ys = _record_turning_points(monkeypatch)
    # equal loops solve to the same root, from evaluations they share
    spec = FlowerSpec(8.0, (0.5, 0.9, 0.5, 1.1, 0.9))
    z = groundstate._asymptotic_seed(spec, 1e-12)
    assert z[1] == z[3] and z[2] == z[5]
    assert len(ys) > 3
    assert len(set(ys)) == len(ys)


@pytest.mark.parametrize("spec", [TADPOLE, TWO_LOOP, EIGHTY_LOOPS],
                         ids=["tadpole", "two-loop", "12-80loops"])
def test_no_turning_point_is_solved_after_newton(monkeypatch, spec):
    solves = []
    newton_done = []
    newton = groundstate._newton

    def recorded_newton(*args, **kwargs):
        out = newton(*args, **kwargs)
        newton_done.append(True)
        return out

    monkeypatch.setattr(groundstate, "_newton", recorded_newton)
    pair = phaseplane.turning_point_pair

    def recorded_pair(pt):
        solves.append(bool(newton_done))
        return pair(pt)

    for module in (phaseplane, period, groundstate):
        if hasattr(module, "turning_point_pair"):
            monkeypatch.setattr(module, "turning_point_pair", recorded_pair)
    sol = solve_flower(spec)
    energy_of(sol)
    reconstruct_profile(sol)
    assert len(sol.loop_turning_points()) == spec.n_loops
    assert 0.0 < sol.sup_u < 1.0
    assert newton_done and solves
    assert sum(solves) == 0


# ------------------------------------------------ the profile's step law

def _sweep_flowers(seed: int, n: int) -> list:
    """The first n flowers of perfbench's flower_exact sweep for seed."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [FlowerSpec(stem, halves) for stem, halves
            in itertools.islice(workloads.flower_cases(seed), n)]


def test_step_law_keeps_every_measured_flower_inside_the_profile_tol(monkeypatch):
    # the set RK4_END_ERROR_K was measured on
    cases = [*_sweep_flowers(1, 150), *_sweep_flowers(2, 150), TADPOLE, TWO_LOOP,
             *(FlowerSpec(L) for L in (1.6, 2.0, 5.0, 10.0)),
             FlowerSpec(16.0, (16.0,)), EIGHTY_LOOPS]
    mismatches = []
    check = groundstate._check_end_state

    def recorded(mismatch):
        mismatches.append(mismatch)
        check(mismatch)

    monkeypatch.setattr(groundstate, "_check_end_state", recorded)
    for spec in cases:
        solve_flower(spec)
    assert len(mismatches) == 2 * len(cases)
    assert max(mismatches) <= groundstate.PROFILE_TOL


@pytest.mark.parametrize("spec", [FlowerSpec(20.0), FlowerSpec(19.0, (0.8, 0.5))],
                         ids=["interval-20", "19-two-loop"])
def test_long_stems_return_and_meet_the_reference(spec):
    sol = solve_flower(spec)
    allowed = max(1e-10, 2.0 * sol.convergence_floor)
    assert abs(ref.stem_length(sol.p, sol.q_stem) - spec.stem) <= allowed
    for q, half in zip(sol.q_loops, spec.loop_halves):
        assert abs(ref.loop_half_length(sol.p, q) - half) <= allowed
    assert sol.residuals["continuity"] <= 10.0 * groundstate.PROFILE_TOL
    assert sol.residuals["kirchhoff_flux"] <= 10.0 * groundstate.PROFILE_TOL


@pytest.mark.parametrize("spec", [
    FlowerSpec(22.0), FlowerSpec(30.0), FlowerSpec(40.0), FlowerSpec(30.0, (5.0,)),
], ids=["interval-22", "interval-30", "interval-40", "30-5"])
def test_longer_stems_still_fail_their_end_check(spec):
    with pytest.raises(StepTooLarge):
        solve_flower(spec)
