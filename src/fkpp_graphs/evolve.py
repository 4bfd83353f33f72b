"""Time integration of u_t = u'' + u(1-u) on a metric graph.

Semi-implicit scheme on the lumped P1 discretization: the Laplacian is
treated implicitly, the reaction explicitly,

    (M + dt A) u+ = M (u + dt u(1-u)).

With dt(2C - 1) <= 1, C = max(1, sup u0), the update map is order
preserving: g(u) = u + dt u(1-u) is nondecreasing on [0, C] and
(M + dt A) is an M-matrix, so its inverse is entrywise nonnegative.
Consequences used here and checked at runtime:

* nonnegativity is preserved,
* sup u_k stays below the explicit logistic iterate started at sup u0
  (constants are discrete supersolutions since the stiffness rows sum
  to >= 0 after Dirichlet elimination),
* [0, 1] is invariant.

The free energy H(u) = int (u'^2 - u^2)/2 + u^3/3 is monitored every
step; the step size is halved (and the step retried) whenever H fails
to decrease within a small slack, so accepted trajectories are honest
gradient-flow descents.  Its gradient term is the exact Dirichlet energy
of the P1 interpolant, the sum over cells of (du)^2 / h taken from node
differences (GraphMesh.energy), so no step multiplies by the stiffness.

M + dt A is symmetric positive definite (and an M-matrix).  A run builds
the mesh's vertex rows and m_f once (GraphMesh.vertex_rows), and
mesh.CondensedLU factors diag(m_f) + dt A_ff from them and the per-edge
stencil, once per step size, with no A_ff formed: a LAPACK factor of the
tridiagonal edge interiors plus a SuperLU factor of the small vertex
complement, so each step is one tridiagonal sweep and one vertex-sized
sparse solve.  The step loop runs on the free-node vector alone, in three
buffers that it swaps (state, trial state, scratch): the right-hand side
is formed in the trial buffer and solved in place.  The state starts as
a view of the Field's free nodes, which the mesh numbers first, and the
Field is copied into only if the run ends in the other buffer.  Dirichlet
values are 0, so H (from t = 0 on), sup u and min u follow from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ComparisonViolated,
    InvalidDomain,
    NegativeInitialData,
)
from .mesh import CondensedLU, Field

__all__ = [
    "Terminal",
    "EvolutionTrace",
    "run_to_attractor",
    "comparison_monitor",
    "stable_dt",
]

# slack for the per-step energy monotonicity test
ENERGY_SLACK = 1e-10
# relative slack of the positivity and comparison bounds, in each step and in
# comparison_monitor
COMPARISON_SLACK = 1e-9
MAX_STEPS = 200_000
# smallest admissible time step: a run whose step starts below it is refused,
# and one halved below it is declared stuck
DT_FLOOR = 1e-12
# loosest steady-state tolerance in force.  From const:0.5 and const:2 on 19
# graphs (12 flowers, three two-vertex and two-cell graphs, four 1000-1200
# edge trees), every terminal matched spectrum's side up to tol = 1e-2; at
# 3e-2 the stem-1.6 interval (lambda0 0.964, sup of its ground state 0.043)
# ended trivial, and at 0.1 every nontrivial case did, since sup <= 10 tol
# then holds for every state in [0, 1].  The cap keeps a decade of margin.
TOL_CAP = 1e-3


class Terminal(Enum):
    """How a time integration ended."""

    CONVERGED_TRIVIAL = "ConvergedTrivial"
    CONVERGED_NONTRIVIAL = "ConvergedNontrivial"
    MAX_STEPS_REACHED = "MaxStepsReached"


@dataclass
class EvolutionTrace:
    """Per-step history of a run plus the terminal state.

    times, energy, sup_norm and supersolution have one entry per accepted
    state (including t = 0); dt_history has one entry per accepted step.
    The supersolution column is the explicit logistic iterate dominating
    sup u, the quantity comparison_monitor checks.
    """

    times: np.ndarray
    energy: np.ndarray
    sup_norm: np.ndarray
    min_value: np.ndarray
    supersolution: np.ndarray
    dt_history: np.ndarray
    terminal: Terminal
    final: Field

    @property
    def steps(self) -> int:
        return len(self.dt_history)


def stable_dt(sup_u0: float, dt: float) -> float:
    """Largest step <= dt keeping the update monotone for data below sup_u0."""
    c = max(1.0, sup_u0)
    return min(dt, 0.99 / (2.0 * c - 1.0))


def _factor(mesh, m, dt: float) -> CondensedLU:
    """Factor M + dt A on the free nodes, m = m_f, for every step size."""
    if not 0.0 < dt < math.inf:    # NaN fails both comparisons
        raise InvalidDomain(f"time step must be positive and finite, got {dt}")
    return CondensedLU(mesh, m, dt, "implicit step")


def _advance(lu, m, u, dt: float, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """u+ of one step from the free-node state u, in ``out``.

    The right-hand side m (u + dt u (1 - u)) is formed in out, rounded as
    that expression reads (``work`` holds 1 - u), and solved in place.
    """
    np.multiply(u, dt, out=out)
    np.subtract(1.0, u, out=work)
    out *= work
    out += u
    out *= m
    return lu.solve(out, out=out)


def run_to_attractor(field0: Field, dt: float = 0.1, max_t: float = 500.0,
                     tol: float = 1e-9) -> EvolutionTrace:
    """Integrate until the discrete time derivative stalls below tol.

    Convergence means ||u+ - u||_inf / dt <= tol; a tol above TOL_CAP
    runs at TOL_CAP.  The terminal state is trivial when its sup norm is
    below 10 tol; above that it is nontrivial only once it is also
    stationary relative to its size, rate <= sqrt(tol) sup, since a trivial
    state decaying at rate lambda0 - 1 < 0.1 meets the first test while its
    sup norm is still above 10 tol.  A step that stable_dt sets below
    DT_FLOOR raises InvalidDomain before the first step: such steps barely
    move t.  The step size only shrinks: it is halved whenever a trial step
    breaks positivity, the logistic comparison bound, or energy
    monotonicity, and the step is retried from the same state.
    """
    if not (max_t > 0.0 and tol > 0.0):    # NaN fails both comparisons
        raise InvalidDomain(f"time horizon and tolerance must be positive, "
                            f"got max_t={max_t}, tol={tol}")
    tol = min(tol, TOL_CAP)
    u0 = np.asarray(field0.values, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise InvalidDomain("initial data contains non-finite values")
    if u0.min() < 0.0:
        raise NegativeInitialData(
            f"initial data attains {u0.min():.6g} < 0; comparison arguments "
            "require nonnegative data")

    mesh = field0.mesh
    field = Field(mesh, u0 + 0.0)    # + 0.0 reads -0.0 as 0.0
    field.pin_dirichlet()

    sup0 = field.sup_norm
    given, dt = dt, stable_dt(sup0, dt)
    # a given step of 0 or below, or NaN, is _factor's to refuse; the bound
    # for huge data may itself round to 0
    if given > 0.0 and dt < DT_FLOOR:
        raise InvalidDomain(
            f"time step {dt:.6g} is below the step floor {DT_FLOOR:g} (the step "
            f"after the monotone bound for initial data up to {sup0:.6g})")
    _, m = mesh.vertex_rows
    lu = _factor(mesh, m, dt)

    # the state (a view of the field), the trial state and scratch
    u = mesh.free_values(field.values)
    v = np.empty(u.shape)
    work = np.empty(u.shape)
    t = 0.0
    c = sup0
    with np.errstate(over="ignore", invalid="ignore"):
        h = mesh.energy(u, m, work)
    if not math.isfinite(h):
        raise InvalidDomain(f"the free energy of initial data up to {sup0:.6g} "
                            "overflows a double")
    times = [0.0]
    energies = [h]
    sups = [sup0]
    mins = [field.min_value()]
    supers = [c]
    dts: list[float] = []
    terminal = Terminal.MAX_STEPS_REACHED

    while len(dts) < MAX_STEPS and t < max_t:
        _advance(lu, m, u, dt, v, work)
        c_new = c + dt * c * (1.0 - c)
        slack = COMPARISON_SLACK * max(1.0, c)
        lo, hi = float(v.min()), float(v.max())
        ok = (lo >= -slack and hi <= c_new + slack)
        if ok:
            h_new = mesh.energy(v, m, work)
            ok = h_new <= h + ENERGY_SLACK
        if not ok:
            dt *= 0.5
            if dt < DT_FLOOR:
                raise ComparisonViolated(
                    "time step collapsed below the floor while enforcing "
                    f"positivity/comparison/energy bounds at t={t:.6g}")
            lu = _factor(mesh, m, dt)
            continue

        np.subtract(v, u, out=work)
        np.abs(work, out=work)
        diff = float(work.max())
        u, v = v, u
        t += dt
        c = c_new
        h = h_new
        times.append(t)
        energies.append(h)
        # every validated mesh has a Dirichlet node, which holds 0
        sup = max(hi, -lo)
        sups.append(sup)
        mins.append(min(lo, 0.0))
        supers.append(c)
        dts.append(dt)
        rate = diff / dt
        if rate <= tol:
            if sup <= 10.0 * tol:
                terminal = Terminal.CONVERGED_TRIVIAL
                break
            # a slow decay stalls below tol too, at sup ~ tol / (lambda0 - 1)
            if rate <= math.sqrt(tol) * sup:
                terminal = Terminal.CONVERGED_NONTRIVIAL
                break

    mesh.free_values(field.values)[...] = u    # numpy skips it when u is the view
    return EvolutionTrace(
        times=np.asarray(times),
        energy=np.asarray(energies),
        sup_norm=np.asarray(sups),
        min_value=np.asarray(mins),
        supersolution=np.asarray(supers),
        dt_history=np.asarray(dts),
        terminal=terminal,
        final=field,
    )


def comparison_monitor(trace: EvolutionTrace) -> None:
    """Raise unless 0 <= u <= logistic supersolution throughout the run.

    The upper bound implies u <= max(1, sup u0) at all times since the
    logistic iterates stay on their initial side of 1.
    """
    tol = COMPARISON_SLACK * max(1.0, float(trace.supersolution.max(initial=1.0)))
    excess = trace.sup_norm - trace.supersolution
    worst = int(np.argmax(excess))
    if excess[worst] > tol:
        raise ComparisonViolated(
            f"sup norm {trace.sup_norm[worst]:.12g} exceeds the logistic "
            f"bound {trace.supersolution[worst]:.12g} at t={trace.times[worst]:.6g}")
    low = int(np.argmin(trace.min_value))
    if trace.min_value[low] < -tol:
        raise ComparisonViolated(
            f"minimum value {trace.min_value[low]:.12g} drops below 0 "
            f"at t={trace.times[low]:.6g}")
