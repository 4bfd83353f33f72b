"""Time integration: fixed points, comparison bounds, energy descent."""

import math
from functools import cached_property

import numpy as np
import pytest

from test_mesh import peak_bytes, seeded_tree

import fkpp_graphs.evolve as evolve
from fkpp_graphs.errors import (
    ComparisonViolated,
    InvalidDomain,
    NegativeInitialData,
)
from fkpp_graphs.evolve import (
    EvolutionTrace,
    Terminal,
    comparison_monitor,
    run_to_attractor,
    stable_dt,
)
from fkpp_graphs.graph import FlowerSpec, flower_graph
from fkpp_graphs.groundstate import reconstruct_profile, solve_interval
from fkpp_graphs.mesh import (
    Field,
    GraphMesh,
    constant_field,
    field_from_function,
    field_from_profiles,
    free_energy,
)
from fkpp_graphs.spectral import lambda0_flower

TADPOLE_GRAPH = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))


def hat_field(mesh, amp, L):
    return field_from_function(
        mesh, lambda eid, x: amp * np.minimum(x, L - x) / (L / 2.0))


def test_zero_field_is_a_fixed_point():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.05)
    trace = run_to_attractor(constant_field(mesh, 0.0))
    assert trace.terminal is Terminal.CONVERGED_TRIVIAL
    assert trace.steps == 1
    assert trace.final.sup_norm == 0.0
    assert trace.energy[0] == 0.0


def test_stable_dt_policy():
    assert stable_dt(0.5, 0.1) == 0.1
    assert stable_dt(1.0, 2.0) == 0.99
    assert math.isclose(stable_dt(3.0, 0.5), 0.99 / 5.0)
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.05)
    trace = run_to_attractor(constant_field(mesh, 3.0), dt=0.5, max_t=1.0)
    assert trace.dt_history[0] <= 0.99 / 5.0 + 1e-15


def test_step_rejects_bad_dt():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.1)
    f = constant_field(mesh, 0.5)
    # stable_dt clamps an infinite dt before it is checked
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidDomain):
            run_to_attractor(f, dt=dt, max_t=1.0)
    trace = run_to_attractor(f, dt=float("inf"), max_t=1.0)
    assert trace.dt_history[0] == stable_dt(0.5, float("inf")) == 0.99


def test_negative_or_nonfinite_initial_data():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.1)
    f = constant_field(mesh, 0.5)
    f.values[3] = -1e-3
    with pytest.raises(NegativeInitialData):
        run_to_attractor(f)
    f.values[3] = float("nan")
    with pytest.raises(InvalidDomain):
        run_to_attractor(f)


def test_ground_state_is_near_stationary_at_second_order():
    sol = solve_interval(2.0)
    reconstruct_profile(sol, dx=2e-4)  # dense reference, free of interp error
    g = flower_graph(FlowerSpec(stem=2.0))
    drifts = []
    for h in (0.08, 0.04, 0.02):
        f = field_from_profiles(GraphMesh(g, mesh_h=h), sol.profiles)
        moved = run_to_attractor(f, dt=0.1, max_t=0.1).final
        drifts.append(float(np.max(np.abs(moved.values - f.values))))
    assert drifts[2] <= 1e-6
    assert 3.4 <= drifts[0] / drifts[1] <= 4.6
    assert 3.4 <= drifts[1] / drifts[2] <= 4.6


def test_supercritical_interval_converges_to_ground_state():
    L = 2.0
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=L)), mesh_h=0.02)
    trace = run_to_attractor(hat_field(mesh, 1e-3, L), dt=0.1, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    sol = solve_interval(L)
    target = field_from_profiles(mesh, sol.profiles)
    err = float(np.max(np.abs(trace.final.values - target.values)))
    assert err <= 5.0 * 0.02 ** 2 + 1e-9
    # trajectory stays in [0, 1]
    assert trace.min_value.min() >= -1e-12
    assert trace.sup_norm.max() <= 1.0 + 1e-12
    comparison_monitor(trace)


def test_subcritical_interval_dies():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.02)
    trace = run_to_attractor(constant_field(mesh, 0.5), dt=0.1, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_TRIVIAL
    assert trace.final.sup_norm <= 1e-8
    assert np.all(np.diff(trace.energy) <= 1e-10)


def test_constant_two_relaxes_through_supersolutions():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.02)
    trace = run_to_attractor(constant_field(mesh, 2.0), dt=0.1, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    # logistic majorant decreases monotonically toward 1 from above
    supers = trace.supersolution
    assert np.all(np.diff(supers) <= 0.0)
    assert supers[-1] >= 1.0
    assert trace.sup_norm.max() <= supers[0] + 1e-9
    comparison_monitor(trace)
    assert trace.final.sup_norm < 1.0


def test_unit_data_decays_near_the_pinned_end():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.02)
    f = constant_field(mesh, 1.0)
    moved = run_to_attractor(f, dt=0.1, max_t=0.1).final
    x, u = moved.on_edge("stem")
    assert u[0] == 0.0
    assert u[1] < 1.0  # diffusion pulls the profile down near the vertex
    assert np.all(u <= 1.0 + 1e-12)
    assert np.all(u >= 0.0)


def test_energy_descends_and_ends_negative():
    mesh = GraphMesh(TADPOLE_GRAPH, mesh_h=0.02)
    trace = run_to_attractor(constant_field(mesh, 0.5), dt=0.1, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    assert np.all(np.diff(trace.energy) <= 1e-10)
    assert trace.energy[-1] < 0.0
    assert trace.times.size == trace.steps + 1


def test_attractor_is_independent_of_initial_data():
    # the documented convergence tolerance leaves each run a distance
    # about tol*(1+dt*mu)/mu from the fixed point (mu ~ 0.2 here), so two
    # terminal states agree to ~5*tol; driving tol an order below the
    # comparison target keeps the margin honest
    mesh = GraphMesh(TADPOLE_GRAPH, mesh_h=0.02)
    a = run_to_attractor(constant_field(mesh, 0.5), dt=0.1, tol=1e-10)
    b = run_to_attractor(constant_field(mesh, 2.0), dt=0.1, tol=1e-10)
    assert a.terminal is Terminal.CONVERGED_NONTRIVIAL
    assert b.terminal is Terminal.CONVERGED_NONTRIVIAL
    gap = float(np.max(np.abs(a.final.values - b.final.values)))
    assert gap <= 2e-9


@pytest.mark.parametrize("stem", [1.50, 1.52, 1.54])
def test_slow_decay_ends_on_the_spectral_side(stem):
    # lambda0 in (1, 1.1): the decay stalls below tol while sup u > 10 tol
    spec = FlowerSpec(stem)
    assert lambda0_flower(spec).lambda0 >= 1.0    # spectrum's region: Trivial
    mesh = GraphMesh(flower_graph(spec), mesh_h=0.05)
    trace = run_to_attractor(constant_field(mesh, 0.5))
    assert trace.terminal == Terminal.CONVERGED_TRIVIAL
    assert trace.sup_norm[-1] <= 10.0 * 1e-9


def test_time_budget_exhaustion():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.05)
    trace = run_to_attractor(constant_field(mesh, 0.5), dt=0.1, max_t=0.3)
    assert trace.terminal is Terminal.MAX_STEPS_REACHED
    assert trace.times[-1] >= 0.3


def test_comparison_monitor_flags_bad_traces():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.1)
    f = constant_field(mesh, 0.5)
    good = run_to_attractor(f, max_t=1.0)
    comparison_monitor(good)  # passes

    bad = EvolutionTrace(
        times=good.times.copy(),
        energy=good.energy.copy(),
        sup_norm=good.supersolution + 1e-3,  # above the logistic bound
        min_value=good.min_value.copy(),
        supersolution=good.supersolution.copy(),
        dt_history=good.dt_history.copy(),
        terminal=good.terminal,
        final=good.final,
    )
    with pytest.raises(ComparisonViolated):
        comparison_monitor(bad)

    bad2 = EvolutionTrace(
        times=good.times.copy(),
        energy=good.energy.copy(),
        sup_norm=good.sup_norm.copy(),
        min_value=good.min_value - 1e-3,  # dips below zero
        supersolution=good.supersolution.copy(),
        dt_history=good.dt_history.copy(),
        terminal=good.terminal,
        final=good.final,
    )
    with pytest.raises(ComparisonViolated):
        comparison_monitor(bad2)


def reference_run(field0, dt=0.1, max_t=500.0, tol=1e-9):
    """run_to_attractor on whole Fields: one Field copy and one
    full-stiffness free_energy per trial step."""
    mesh = field0.mesh
    field = Field(mesh, field0.values.copy())
    field.pin_dirichlet()
    free = slice(mesh.n_free)
    sup0 = field.sup_norm
    dt = evolve.stable_dt(sup0, dt)
    _, m = mesh.vertex_rows
    lu = evolve._factor(mesh, m, dt)
    t, c, h = 0.0, sup0, free_energy(field)
    times, energies, sups, mins, dts = [0.0], [h], [sup0], [field.min_value()], []
    terminal = Terminal.MAX_STEPS_REACHED
    while t < max_t:
        u_free = field.values[free]
        u_new = evolve._advance(lu, m, u_free, dt, np.empty(u_free.shape),
                                np.empty(u_free.shape))
        c_new = c + dt * c * (1.0 - c)
        slack = 1e-9 * max(1.0, c)
        ok = u_new.min() >= -slack and u_new.max() <= c_new + slack
        if ok:
            trial = Field(mesh, field.values.copy())
            trial.values[free] = u_new
            h_new = free_energy(trial)
            ok = h_new <= h + evolve.ENERGY_SLACK
        if not ok:
            dt *= 0.5
            lu = evolve._factor(mesh, m, dt)
            continue
        diff = float(np.max(np.abs(u_new - u_free)))
        field, t, c, h = trial, t + dt, c_new, h_new
        times.append(t)
        energies.append(h)
        sups.append(field.sup_norm)
        mins.append(field.min_value())
        dts.append(dt)
        if diff / dt <= tol:
            terminal = (Terminal.CONVERGED_TRIVIAL if field.sup_norm <= 10.0 * tol
                        else Terminal.CONVERGED_NONTRIVIAL)
            break
    return times, energies, sups, mins, dts, terminal, field


def assert_matches_reference(trace, ref):
    times, energies, sups, mins, dts, terminal, final = ref
    assert trace.terminal is terminal
    assert trace.steps == len(dts)
    assert np.array_equal(trace.dt_history, dts)
    assert np.array_equal(trace.times, times)
    for got, want in ((trace.energy, energies), (trace.sup_norm, sups),
                      (trace.min_value, mins)):
        want = np.asarray(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(trace.final.values, final.values)


@pytest.mark.parametrize("graph,mesh_h,value", [
    (TADPOLE_GRAPH, 0.02, 0.5),
    (seeded_tree(200, 7), 0.05, 0.5),
])
def test_free_node_loop_matches_the_field_loop(graph, mesh_h, value):
    f = constant_field(GraphMesh(graph, mesh_h=mesh_h), value)
    trace = run_to_attractor(f, dt=0.1, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    assert_matches_reference(trace, reference_run(f, dt=0.1, tol=1e-9))


def test_free_node_loop_matches_the_field_loop_when_dt_halves(monkeypatch):
    # stable_dt keeps every step order preserving, so no trial step is ever
    # rejected; without it dt = 8 runs for a while, then breaks a bound and
    # is halved down to 0.5 mid-run
    monkeypatch.setattr(evolve, "stable_dt", lambda sup_u0, dt: dt)
    f = constant_field(GraphMesh(TADPOLE_GRAPH, mesh_h=0.05), 0.5)
    trace = run_to_attractor(f, dt=8.0, tol=1e-9)
    assert trace.terminal is Terminal.CONVERGED_NONTRIVIAL
    assert trace.dt_history[0] == 8.0 and trace.dt_history[-1] == 0.5
    assert_matches_reference(trace, reference_run(f, dt=8.0, tol=1e-9))


def test_a_run_assembles_once_however_often_dt_halves(monkeypatch):
    # as above: dt = 8 is halved four times, and every factor reads the one
    # build of the mesh's vertex rows
    monkeypatch.setattr(evolve, "stable_dt", lambda sup_u0, dt: dt)
    calls = {"assemble": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rows = cached_property(counted("assemble", GraphMesh.vertex_rows.func))
    rows.__set_name__(GraphMesh, "vertex_rows")
    monkeypatch.setattr(GraphMesh, "vertex_rows", rows)
    monkeypatch.setattr(evolve, "_factor", counted("factor", evolve._factor))
    trace = run_to_attractor(constant_field(GraphMesh(TADPOLE_GRAPH, mesh_h=0.05), 0.5),
                             dt=8.0, tol=1e-9)
    assert trace.dt_history[-1] == 0.5
    assert calls == {"assemble": 1, "factor": 5}


@pytest.mark.parametrize("bad", [{"max_t": 0.0}, {"max_t": -1.0}, {"max_t": float("nan")},
                                 {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}],
                         ids=str)
def test_run_rejects_a_bad_horizon_or_tolerance(bad):
    f = constant_field(GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.1), 0.5)
    with pytest.raises(InvalidDomain, match="must be positive"):
        run_to_attractor(f, **{"max_t": 1.0, **bad})


# Peak bytes per free unknown of a short run, five steps of dt = 0.1, on
# test_mesh's seeded 2000-edge trees (about 21,000 unknowns), mesh and data
# built beforehand: about 140 while the condensed factor copied T's arrays
# and built G through a sentinel column, about 106 with neither, about 114
# once the mesh built its free-node index on first read, inside the run,
# 106.7 and 106.2 once the run gathered through the free-vertex index alone,
# and 98.7 and 98.2 since the mesh numbers the free nodes first and the run
# steps on a view of the field: a gather copy of the state fails the bound.
PEAK_BYTES_PER_UNKNOWN = 104


@pytest.mark.parametrize("seed", [5, 11])
def test_run_peak_memory_per_unknown(seed):
    assert run_bytes_per_unknown(seed) <= PEAK_BYTES_PER_UNKNOWN


def run_bytes_per_unknown(seed):
    """Peak bytes per free unknown of a five-step run_to_attractor on
    seeded_tree(2000, seed), mesh and data built beforehand."""
    mesh = GraphMesh(seeded_tree(2000, seed), mesh_h=0.05)
    field0 = constant_field(mesh, 0.5)
    peak, trace = peak_bytes(lambda: run_to_attractor(field0, dt=0.1, max_t=0.5))
    assert trace.steps == 5
    return peak / mesh.n_free


@pytest.mark.parametrize("max_t", [0.4, 0.5])
def test_a_run_steps_on_the_field_and_gathers_nothing(max_t, monkeypatch):
    # an even and an odd step count: the last state sits in the field's own
    # free-node view or in the other buffer
    mesh = GraphMesh(seeded_tree(200, 5), mesh_h=0.05)
    field0 = constant_field(mesh, 0.5)
    want = reference_run(field0, max_t=max_t)
    states = []
    advance = evolve._advance

    def recorded(lu, m, u, *args):
        states.append(u)
        return advance(lu, m, u, *args)

    monkeypatch.setattr(evolve, "_advance", recorded)
    trace = run_to_attractor(field0, dt=0.1, max_t=max_t)
    assert trace.steps == round(max_t / 0.1)
    # the first step advances a view of the field itself, not a copy
    assert np.shares_memory(states[0], trace.final.values)
    assert_matches_reference(trace, want)
