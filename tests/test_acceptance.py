"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline; together they cover the interval
threshold, the phase-plane asymptotics and monotonicity structure, the
period-system Jacobian, the spectral lower boundary, the figure-parameter
solves, the PDE cross-validation, the energy Lyapunov property, the
exponential proximity law, and the eigenvalue identities.
"""

import math
import time

import numpy as np
import pytest

from slope_reference import length_slopes

from fkpp_graphs.errors import OutsideRegion
from fkpp_graphs.evolve import Terminal, comparison_monitor, run_to_attractor
from fkpp_graphs.graph import FlowerSpec, flower_graph
from fkpp_graphs.groundstate import (
    jacobian_report,
    reconstruct_profile,
    solve_flower,
    solve_interval,
)
from fkpp_graphs.mesh import GraphMesh, field_from_function, field_from_profiles
from fkpp_graphs.period import asymptotic_T, grad_T, grad_T0, period_T, period_T0
from fkpp_graphs.phaseplane import PhasePoint, energy, well
from fkpp_graphs.spectral import lambda0_discretized, lambda0_flower, lower_boundary

X0 = 2.0 * math.acosh(math.sqrt(1.5))


@pytest.fixture(scope="module")
def evolve_runs():
    """The two cross-validation integrations, shared with the energy check."""
    runs = {}
    for name, L in (("supercritical", 2.0), ("subcritical", 1.0)):
        mesh = GraphMesh(flower_graph(FlowerSpec(stem=L)), mesh_h=1e-3)
        u0 = field_from_function(
            mesh, lambda eid, x: 1e-3 * np.minimum(x, L - x) / (L / 2.0))
        start = time.perf_counter()
        trace = run_to_attractor(u0, dt=0.1, tol=1e-9)
        runs[name] = (L, trace, time.perf_counter() - start)
    return runs


def test_criterion_01_interval_threshold():
    start = time.perf_counter()
    sol = solve_interval(math.pi / 2.0 + 1e-3)
    assert 0.0 < sol.p < 1.0
    with pytest.raises(OutsideRegion):
        solve_interval(math.pi / 2.0 - 1e-3)
    lam = lambda0_flower(FlowerSpec(stem=math.pi / 2.0)).lambda0
    assert abs(lam - 1.0) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_homoclinic_asymptotics():
    start = time.perf_counter()
    scaled = []
    for p in (1e-2, 1e-3, 1e-4):
        pt = PhasePoint(p, -p)
        resid = abs(period_T(pt).value - (-math.log(2.0 * p / 12.0) - X0))
        scaled.append(resid / p)
    assert max(scaled) / min(scaled) <= 3.0  # one K serves all three points
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("Q", [-0.5, -1.0, -2.0])
def test_criterion_03_center_limits(Q):
    bp = 1e-3
    pt = PhasePoint(1.0 - bp, Q * bp)
    lim = math.asin(1.0 / math.sqrt(1.0 + Q * Q))
    t = period_T(pt).value
    t0 = period_T0(pt).value
    assert abs(t - lim) <= 5e-3
    assert abs(t0 - (math.pi / 2.0 - lim)) <= 5e-3
    assert abs(t + t0 - math.pi / 2.0) <= 5e-3


def test_criterion_04_monotonicity_grids():
    ps = np.geomspace(0.02, 0.98, 20)
    qs = -np.geomspace(0.005, 3.0, 20)
    h = 1e-5
    worst_fd = 0.0
    for p in ps:
        for q in qs:
            p, q = float(p), float(q)
            g = grad_T(PhasePoint(p, q))
            assert g.dT_dp < 0.0 and g.dT_dq > 0.0, (p, q)
            fd_p = (period_T(PhasePoint(p + h, q)).value
                    - period_T(PhasePoint(p - h, q)).value) / (2 * h)
            fd_q = (period_T(PhasePoint(p, q + h)).value
                    - period_T(PhasePoint(p, q - h)).value) / (2 * h)
            worst_fd = max(worst_fd,
                           abs(g.dT_dp - fd_p) / abs(fd_p),
                           abs(g.dT_dq - fd_q) / abs(fd_q))
    h0 = 1e-6
    fracs = np.linspace(0.05, 0.95, 20)
    for p in ps:
        for frac in fracs:
            p, q = float(p), -math.sqrt(well(float(p))) * float(frac)
            g0 = grad_T0(PhasePoint(p, q))
            assert g0.dT_dq < 0.0, (p, q)
            if p <= 0.5:
                assert g0.dT_dp < 0.0, (p, q)
            fd_p = (period_T0(PhasePoint(p + h0, q)).value
                    - period_T0(PhasePoint(p - h0, q)).value) / (2 * h0)
            fd_q = (period_T0(PhasePoint(p, q + h0)).value
                    - period_T0(PhasePoint(p, q - h0)).value) / (2 * h0)
            worst_fd = max(worst_fd,
                           abs(g0.dT_dp - fd_p) / max(abs(fd_p), 1e-9),
                           abs(g0.dT_dq - fd_q) / abs(fd_q))
    assert worst_fd <= 1e-4


def test_criterion_05_jacobian_sign():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            qs = [-math.sqrt(well(p)) * rng.uniform(0.05, 0.95)
                  for _ in range(n)]
            rep = jacobian_report(p, qs)
            assert rep.sign_ok, (n, p, qs, rep.determinant)


def test_criterion_06_lower_boundary_is_the_spectral_threshold():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        halves = tuple(float(rng.uniform(0.01, 1.4)) for _ in range(n))
        crit = lower_boundary(halves)
        lam = lambda0_flower(FlowerSpec(stem=crit, loop_halves=halves)).lambda0
        assert abs(lam - 1.0) <= 1e-8, (halves, crit, lam)


def test_criterion_07_figure_parameter_solves():
    tad = solve_flower(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    two = solve_flower(FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5)))
    for sol in (tad, two):
        worst = max(sol.residuals["period_residuals"].values())
        worst = max(worst, sol.residuals["continuity"],
                    sol.residuals["kirchhoff_flux"], sol.residuals["dirichlet"])
        assert worst <= 1e-9
    assert energy(two.p, two.q_stem) > 0.0  # stem orbit outside the homoclinic loop


def test_criterion_08_pde_cross_validation(evolve_runs):
    L, trace, elapsed = evolve_runs["supercritical"]
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    assert elapsed < 120.0
    sol = solve_interval(L)
    profiles = reconstruct_profile(sol, dx=5e-4)
    target = field_from_profiles(trace.final.mesh, profiles)
    gap = float(np.max(np.abs(trace.final.values - target.values)))
    assert gap <= 1e-3
    comparison_monitor(trace)

    _, trivial, elapsed = evolve_runs["subcritical"]
    assert trivial.terminal is Terminal.CONVERGED_TRIVIAL
    assert elapsed < 120.0


def test_criterion_09_energy_lyapunov(evolve_runs):
    for _, trace, _ in evolve_runs.values():
        assert np.all(np.diff(trace.energy) <= 1e-10)
        if trace.terminal is Terminal.CONVERGED_NONTRIVIAL:
            assert trace.energy[-1] < 0.0


def test_criterion_10_exponential_proximity():
    vals = []
    for L in (6.0, 8.0, 10.0):
        sol = solve_flower(FlowerSpec(stem=L, loop_halves=(L,)))
        vals.append(sol.p)    # max |u - 1| over the loops, at the vertex
    assert vals[0] / vals[1] >= math.e ** 2 / 2.0
    assert vals[1] / vals[2] >= math.e ** 2 / 2.0


def test_criterion_11_eigenvalue_identities():
    graph = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    for edge in ("stem", "loop1"):
        fd, ef = length_slopes(graph, edge, 2.001e-3)    # no cell count moves
        assert abs(fd - ef) / abs(fd) <= 1e-3, edge
    products = []
    for L in (0.5, 1.0, 2.0):
        spec = FlowerSpec(stem=0.8 * L, loop_halves=(0.75 * L,))
        lam = lambda0_discretized(flower_graph(spec), mesh_h=2e-3 * L).lambda0
        products.append(lam * L * L)
    spread = (max(products) - min(products)) / products[1]
    assert spread <= 1e-6
