"""Ground states on interval and flower graphs via the period system.

A strictly positive steady state of u_t = u'' + u(1-u) on a flower graph is
determined by N+1 numbers: the common vertex value through p = 1 - u(c) and
one slope parameter q_j < 0 per loop.  Writing w = 1 - u, each edge carries
an orbit of w'' = w - w^2; matching arc lengths to edge lengths gives

    T(p, 2*sum q_j) = L        (stem, from the Dirichlet section w = 1)
    T0(p, q_j)      = L_j      (loop j, half-length from the turning point)

with the stem slope tied to the loop slopes by the Kirchhoff flux balance.
The system is solved by one damped Newton run with the analytic period
gradients; the Jacobian is nonsingular on the admissible set (its
determinant has sign (-1)^(N+1)), so damping alone is enough and a run
that stalls from the seed below is reported, not retried.  Loop row j
depends on (p, q_j) only, so the Jacobian is an arrowhead, kept as its
Arrow: each Newton step solves it through the Schur complement of its
diagonal block (Golub & Van Loan, Matrix Computations) in O(N), with no
BLAS or LAPACK call, and the same complement gives the determinant's sign
exactly and its log, which stays finite where the determinant overflows
(as on the 80-loop stem-12 flower).  Every flower runs one pipeline, a
seed and then Newton; the interval, the loop-free case N = 0, differs only
in its seed, spectral.brentq's root in p, and its newton_iterations is 0
when that root already meets its floor.  With period's own quadrature, the
whole solve runs on numpy and the standard library: no scipy module is
loaded.

Deep in the region (long edges) the loop equations become ill conditioned
in q_j: the orbit hugs the homoclinic loop and T0 moves by ~1e-8 per ulp of
q_j.  Two mitigations: the seed takes p from the saddle law
T = -log((p - q)/12) - x0 and each q_j from a presolve in the log of the
turning point (uniformly well conditioned; each loop's root is
spectral.brentq's, and the loops step in lockstep, with one
period.loop_arcs call per round), and convergence is declared against
per-row floors

    floor_i = 8 eps (|target_i| + sum_k |z_k J_ik|)

which measure the best residual representable at the working precision.
The presolve's turning points give each loop's own slope, which sets the
seed's p a second time (see _asymptotic_seed), so Newton starts in its
quadratic basin.  Newton runs until every residual is within max(quad_tol,
floor_i), as accurate as the quadratures that evaluate it; the solution is
accepted at max(tol, floor_i).
Newton hands its converged loop spans to the solution, so the profile, the
turning points and the loop actions of the free energy need no further
turning-point solve.  The solve integrates each edge only to its end
state, for the residuals; reconstruct_profile builds the samples when a
caller asks for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDomain,
    NewtonStalled,
    OrbitNotClosed,
    OutsideRegion,
    StepTooLarge,
)
from .graph import FlowerSpec
from .period import (
    HOMOCLINIC_OFFSET,
    action_T,
    grad_T,
    interval_period_slope,
    loop_arcs,
    loop_gradients,
    loop_spans,
    period_T,
    turning_span,
)
from .phaseplane import PhasePoint, energy, energy_above_center, q_tilde, well
from .quadpack import EPMACH
from .spectral import ROOT_XTOL, Region, brent_steps, brentq, lambda0_flower

__all__ = [
    "Arrow",
    "GroundStateSolution",
    "solve_interval",
    "solve_flower",
    "jacobian_report",
    "reconstruct_profile",
    "energy_of",
]

MAX_NEWTON_ITER = 60
MAX_PRESOLVE_ROUNDS = 100   # brentq's maxiter per presolve root
PROFILE_TOL = 1e-8          # reconstruct_profile's end-state tolerance
PROFILE_DX = 1e-2           # step bound of the end-state pass; reconstruct_profile default
MAX_STEPS_PER_EDGE = 500_000  # caps an edge's RK4 time before StepTooLarge
# K in the RK4 end error K h^4 e^L of an edge of length L, which sets the
# profile step.  Measured as |end(h) - end(h/2)| 16/15 / (h^4 e^L) at the step
# this K gives, on every edge of the first 150 perfbench sweep flowers of
# seeds 1 and 2, the tadpole and two-loop anchors, intervals 1.6, 2, 5 and
# 10, (16, (16,)) and the 80-loop stem-12 flower: about 2.2e-4 on stems
# longer than 5, up to 4.8e-3 on stems of 0.4, where the step dx binds
# instead.  The largest, rounded up:
RK4_END_ERROR_K = 5e-3


def _quad_tol(tol: float = 1e-10) -> float:
    """The period quadratures' tolerance in a solve to residual tol: its seed's
    and its Newton run's, and jacobian_report's at solve_flower's default tol."""
    return min(1e-11, 0.01 * tol)


def _stem_slope(q_loops) -> float:
    # numpy's pairwise sum, in the Newton system and in q_stem alike
    return 2.0 * float(np.sum(q_loops))


@dataclass
class GroundStateSolution:
    """Solved period-system parameters.  The solve keeps each edge's end
    state only; reconstruct_profile samples the profile."""

    spec: FlowerSpec
    p: float
    q_loops: tuple[float, ...]
    newton_iterations: int
    residuals: dict
    convergence_floor: float
    lambda0: float                 # lowest Laplacian eigenvalue of spec
    jacobian: Arrow                # the period-system Jacobian at the solution
    loop_spans: tuple              # period.loop_spans at the solution

    @property
    def q_stem(self) -> float:
        return _stem_slope(self.q_loops)

    def loop_turning_points(self) -> tuple[float, ...]:
        return tuple(span[0] for span in self.loop_spans)

    @property
    def sup_u(self) -> float:
        return 1.0 - min(self.loop_turning_points(), default=self.p)


def _admissible(p: float, qs) -> bool:
    qs = np.asarray(qs, float)
    return 0.0 < p < 1.0 and bool((qs < 0.0).all() and (energy(p, qs) < 0.0).all())


def _system(spec: FlowerSpec, z: np.ndarray, quad_tol: float):
    """Period residuals at z, and the loop spans they were taken over."""
    # Python floats for the period kernels (numpy scalars double their cost)
    p, *qs = z.tolist()
    spans = loop_spans(p, qs)
    out = np.empty(z.size)
    out[0] = period_T(PhasePoint(p, _stem_slope(z[1:])), quad_tol).value - spec.stem
    out[1:] = np.subtract(loop_arcs(spans, quad_tol), spec.loop_halves)
    return out, spans


@dataclass(frozen=True)
class Arrow:
    """The period-system Jacobian J, kept as its arrowhead.

    Loop row j depends on p and q_j only, so J is zero but for its first
    row, its first column and its diagonal: J[0, 0] = corner = dT/dp, every
    J[0, j] = row = 2 dT/dq_stem, J[j, 0] = column[j-1] = dT0_j/dp and
    J[j, j] = diagonal[j-1] = dT0_j/dq_j.  The interval's 1x1 Jacobian
    [[dT/dp]] is the arrow with no loops.  Every method and property is
    O(N), computed when called or read, and calls no BLAS or LAPACK routine.
    With s the Schur complement, det J = s prod_j diagonal_j; a 0 on the
    diagonal leaves s undefined, and J then has sign 0 and a NaN
    determinant and log.
    """

    corner: float
    row: float
    column: np.ndarray
    diagonal: np.ndarray

    def schur(self) -> float:
        """The Schur complement s = J00 - row sum_j column_j / diagonal_j of
        the diagonal block: det J = s prod_j diagonal_j.  Needs no 0 on the
        diagonal."""
        return self.corner - self.row * float((self.column / self.diagonal).sum())

    def solve(self, r: np.ndarray) -> np.ndarray | None:
        """x with J x = r by the Schur complement, or None when a diagonal
        entry or s is 0."""
        if not self.diagonal.all():
            return None
        s = self.schur()
        if s == 0.0:
            return None
        x = np.empty(r.size)
        x[0] = (r[0] - self.row * float((r[1:] / self.diagonal).sum())) / s
        x[1:] = (r[1:] - self.column * x[0]) / self.diagonal
        return x

    @property
    def expected_sign(self) -> int:
        """(-1)^(N+1) for N loops: the sign of det J on the admissible set."""
        return 1 if self.diagonal.size % 2 else -1

    @property
    def sign(self) -> float:
        """sign(s) prod_j sign(diagonal_j), exactly; 0 when J is singular."""
        if not self.diagonal.all():
            return 0.0
        return float(np.sign(self.schur()) * np.prod(np.sign(self.diagonal)))

    @property
    def sign_ok(self) -> bool:
        return self.sign == self.expected_sign

    @property
    def determinant(self) -> float:
        """s prod_j diagonal_j: +-inf once that product overflows."""
        if not self.diagonal.all():
            return math.nan
        with np.errstate(over="ignore"):
            return self.schur() * float(np.prod(self.diagonal))

    @property
    def log_abs_determinant(self) -> float:
        """log|s| + sum_j log|diagonal_j|, finite where the determinant overflows."""
        if not self.diagonal.all():
            return math.nan
        with np.errstate(divide="ignore"):    # s = 0: log -inf
            return float(np.log(abs(self.schur())) + np.sum(np.log(np.abs(self.diagonal))))


def _jacobian(z: np.ndarray, quad_tol: float, spans) -> Arrow:
    """Period-system Jacobian at z, as its arrow; ``spans`` are loop_spans at z.
    With no loops it is the interval's [[dT/dp]] at q = 0."""
    p, *qs = z.tolist()    # Python floats, as in _system
    if not qs:
        return Arrow(interval_period_slope(p, quad_tol), 0.0, np.empty(0), np.empty(0))
    g = grad_T(PhasePoint(p, _stem_slope(z[1:])), quad_tol)
    return Arrow(g.dT_dp, 2.0 * g.dT_dq, *loop_gradients(p, qs, spans, quad_tol))


def _floors(spec: FlowerSpec, J: Arrow, z: np.ndarray) -> np.ndarray:
    """8 eps (|target| + |J| |z|), |J| |z| taken row by row on the arrow."""
    az = np.abs(z)
    floors = np.abs(np.array([spec.stem, *spec.loop_halves], float))
    floors[0] += abs(J.corner) * az[0] + abs(J.row) * float(az[1:].sum())
    floors[1:] += np.abs(J.column) * az[0] + np.abs(J.diagonal) * az[1:]
    return 8.0 * EPMACH * floors


def _turning_arclengths(p: float, ys, quad_tol: float) -> list[float]:
    """T0 from the turning point e^y up to p, for every y, in one loop_arcs call."""
    return loop_arcs([turning_span(p, math.exp(y)) for y in ys], quad_tol)


def _loop_turning_points(p: float, halves, quad_tol: float) -> list[float]:
    """log p0 with T0 = half from the turning point p0 up to p, for every half.

    T0 falls strictly in p0 at fixed p (from 'infinity' on the homoclinic
    side to 0 at p0 = p), so log p0 is well conditioned even when q is pinned
    against -sqrt(A(p)) to the last ulp.  The halves share the upper end y_hi
    and the ladder y_lo = log p - 5k that brackets them.  Each half's root is
    spectral.brentq's on its bracket [y_lo, y_hi], xtol 1e-13 and rtol 4 eps:
    every half runs its own brent_steps, in lockstep, and each round
    evaluates the halves' new points in one loop_arcs call.  Equal halves
    are solved once, and no turning point is evaluated twice.
    """
    t0 = {}    # y -> T0 from the turning point e^y up to p

    def evaluate(ys):
        new = [y for y in dict.fromkeys(ys) if y not in t0]
        if new:
            t0.update(zip(new, _turning_arclengths(p, new, quad_tol)))

    y_hi = math.log(p) - 1e-12
    evaluate([y_hi])
    # halves shorter than even the shortest orbits: p is huge relative to
    # them, and the root sits essentially at p0 = p
    roots = {half: y_hi for half in halves if t0[y_hi] - half >= 0.0}
    unbracketed = [half for half in dict.fromkeys(halves) if half not in roots]
    runs = {}    # half -> its brent_steps; the ladder evaluated its first two points
    y_lo = math.log(p) - 5.0
    for _ in range(140):
        if not unbracketed:
            break
        evaluate([y_lo])
        for half in unbracketed:
            if t0[y_lo] - half > 0.0:
                runs[half] = brent_steps(y_lo, y_hi, 1e-13, 4.0 * EPMACH, MAX_PRESOLVE_ROUNDS)
        unbracketed = [half for half in unbracketed if half not in runs]
        y_lo -= 5.0
    if unbracketed:
        raise OrbitNotClosed(
            f"no loop orbit of half-length {unbracketed[0]} through p = {p}")

    steps = {half: next(run) for half, run in runs.items()}
    while steps:
        evaluate(steps.values())
        for half, y in list(steps.items()):
            try:
                steps[half] = runs[half].send(t0[y] - half)
            except StopIteration as done:
                roots[half] = done.value[0]
                del steps[half]
    return [roots[half] for half in halves]


def _converged(F: np.ndarray, tol: float, floors: np.ndarray) -> bool:
    return bool(np.all(np.abs(F) <= np.maximum(tol, floors)))


def _newton(spec: FlowerSpec, z: np.ndarray, F: np.ndarray, spans, quad_tol: float):
    """Damped Newton from z, given its residual F and loop spans; returns
    (z, F, J, iterations, spans, floors), each taken at the last z.

    The run stops at max(quad_tol, floors): the residual is then as accurate
    as the quadratures that evaluate it, whatever tol the caller accepts.
    """
    for it in range(MAX_NEWTON_ITER + 1):
        J = _jacobian(z, quad_tol, spans)
        floors = _floors(spec, J, z)
        if it == MAX_NEWTON_ITER or _converged(F, quad_tol, floors):
            return z, F, J, it, spans, floors
        step = J.solve(-F)
        if step is None:    # a singular J: the run stalls here
            return z, F, J, it + 1, spans, floors
        scale = 1.0
        best = np.max(np.abs(F))
        while scale >= 2.0 ** -30:
            zt = z + scale * step
            if _admissible(zt[0], zt[1:]):
                Ft, spans_t = _system(spec, zt, quad_tol)
                if np.max(np.abs(Ft)) <= (1.0 - 1e-4 * scale) * best or \
                        _converged(Ft, quad_tol, floors):
                    break
            scale *= 0.5
        else:
            return z, F, J, it + 1, spans, floors
        z, F, spans = zt, Ft, spans_t


def _asymptotic_seed(spec: FlowerSpec, quad_tol: float) -> np.ndarray:
    """Saddle-law p with per-loop presolved q_j; NewtonStalled if none.

    The stem's saddle law T = -log((p - q_stem)/12) - x0, with q_stem =
    2 sum q_j and q_j = -r_j sqrt(A(p)), gives p = 12 e^-(L + x0) /
    (1 + 2 sum r_j).  The presolve runs at r_j = 1, every loop on the
    homoclinic; its turning points give each loop's own r_j <= 1, and so a
    second p, no smaller than the first.  Near the saddle the orbits are
    self-similar, so each turning point moves with p in proportion.  The
    presolve's point stays when the moved one is not admissible, or when
    the second p passes 1/2, where the force w - w^2 peaks and the saddle
    law overshoots: on shallow one-loop flowers that p cost Newton an
    iteration and a backtrack.
    """
    scale = 12.0 * math.exp(-(spec.stem + HOMOCLINIC_OFFSET))
    p = min(max(scale / (1.0 + 2.0 * spec.n_loops), 1e-8), 0.9)
    try:
        ys = _loop_turning_points(p, spec.loop_halves, quad_tol)
        qs = [-math.sqrt(max(well(p) - well(math.exp(y)), 0.0)) for y in ys]
    except (OrbitNotClosed, ValueError, RuntimeError):
        qs = None
    if qs is None or not _admissible(p, qs):
        raise NewtonStalled(f"no admissible Newton seed at p = {p:.6g}")
    p2 = max(scale / (1.0 - 2.0 * sum(qs) / math.sqrt(well(p))), 1e-8)
    qs2 = [-math.sqrt(max(well(p2) - well(math.exp(y) * p2 / p), 0.0)) for y in ys]
    if p2 <= 0.5 and _admissible(p2, qs2):
        return np.array([p2, *qs2])
    return np.array([p, *qs])


def _package(spec: FlowerSpec, z: np.ndarray, F: np.ndarray, J: Arrow, iterations: int,
             spans, floors: np.ndarray, tol: float, lam: float) -> GroundStateSolution:
    """The solution at z, with its loop spans, or NewtonStalled when |F|
    exceeds max(tol, floors)."""
    if not _converged(F, tol, floors):
        raise NewtonStalled(
            f"period residual {np.max(np.abs(F)):.3e} is above tol {tol} and "
            f"its rounding floor after {iterations} iterations",
            best=(float(z[0]), tuple(float(q) for q in z[1:])),
            diagnostics={"residuals": np.abs(F).tolist(), "floors": floors.tolist(),
                         "iterations": iterations})
    names = ["stem"] + [f"loop{j}" for j in range(1, spec.n_loops + 1)]
    sol = GroundStateSolution(
        spec=spec,
        p=float(z[0]),
        q_loops=tuple(float(q) for q in z[1:]),
        newton_iterations=iterations,
        residuals={"period_residuals": dict(zip(names, np.abs(F).tolist()))},
        convergence_floor=float(np.max(floors)),
        lambda0=lam,
        jacobian=J,
        loop_spans=tuple(spans),
    )
    sol.residuals.update(_integrate_edges(sol, PROFILE_DX))
    return sol


def _check_tol(tol: float) -> float:
    if not 0.0 < tol < math.inf:    # NaN fails both comparisons
        raise InvalidDomain(f"period tolerance must be positive and finite, got {tol}")
    return min(tol, PROFILE_TOL)    # a looser residual fails the profile's end check


def solve_interval(L: float, tol: float = 1e-10) -> GroundStateSolution:
    """Positive steady state on [0, L], Dirichlet at 0 and Neumann at L: the
    loop-free flower, solve_flower(FlowerSpec(stem=L), tol)."""
    return solve_flower(FlowerSpec(stem=L), tol)


def _interval_seed(spec: FlowerSpec, quad_tol: float):
    """The interval's p by brentq, to rtol = 4 eps: (z, F, spans) for Newton.

    The Neumann end is the orbit's turning point, so the single unknown p
    solves T(p, 0) = L; T(., 0) decreases strictly from infinity to pi/2.
    """
    @functools.cache    # brentq re-evaluates lo and returns an evaluated point
    def mismatch(p):
        return _system(spec, np.array([p]), quad_tol)[0][0]

    lo = min(0.5, 6.0 * math.exp(-(spec.stem + HOMOCLINIC_OFFSET)))
    for _ in range(60):
        if lo == 0.0:
            raise NewtonStalled(f"the bracket for interval length {spec.stem} needs "
                                "p below the smallest double: p underflows to 0")
        if mismatch(lo) > 0.0:
            break
        lo *= 0.5
    p, _ = brentq(mismatch, lo, math.nextafter(1.0, 0.0), ROOT_XTOL, 4.0 * EPMACH, 200)
    return np.array([p]), np.array([mismatch(p)]), ()


def solve_flower(spec: FlowerSpec, tol: float = 1e-10) -> GroundStateSolution:
    """Positive ground state on a flower graph; OutsideRegion unless lambda0 < 1.

    One damped Newton run from a seed.  With loops, the saddle law seeds p
    and per-loop presolves seed q_j; the interval's seed is brentq's
    root in p, and newton_iterations is 0 when that root already meets its
    floor.  There is no retry: the ground state is unique and the Jacobian
    never vanishes, so a run that stalls from the seed raises NewtonStalled.
    """
    tol = _check_tol(tol)
    lam = lambda0_flower(spec).lambda0
    if Region.of(lam) is Region.TRIVIAL:
        raise OutsideRegion(
            f"lambda0 = {lam:.12g} >= 1 for stem {spec.stem}, loops "
            f"{tuple(2 * h for h in spec.loop_halves)}: only u = 0 exists")
    quad_tol = _quad_tol(tol)
    if spec.n_loops:
        z = _asymptotic_seed(spec, quad_tol)
        seed = (z, *_system(spec, z, quad_tol))
    else:
        seed = _interval_seed(spec, quad_tol)
    return _package(spec, *_newton(spec, *seed, quad_tol), tol, lam)


def jacobian_report(p: float, q_list) -> Arrow:
    """Period-system Jacobian at any admissible (p, q_1..q_N), N = 0 included,
    as solve_flower takes it at its default tol; the Arrow checks its sign."""
    qs = list(q_list)
    if not _admissible(p, qs):
        raise InvalidDomain(
            f"(p, q) = ({p}, {qs}) is not an admissible flower state")
    z = np.array([p, *qs], float)
    p, *qs = z.tolist()    # Python floats, as in _system
    return _jacobian(z, _quad_tol(), loop_spans(p, qs))


def _rk4(w0: float, v0: float, length: float, n: int, path=None):
    """End state (w, w') of w'' = w - w^2 after n fixed RK4 steps from (w0, v0).

    Given an array ``path`` of n + 1, w at every step is stored in it too.
    """
    h = length / n
    cw, cv = w0, v0
    if path is not None:
        path[0] = w0
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n):
        a1w = cv
        a1v = cw * (1.0 - cw)
        w2 = cw + half * a1w
        a2w = cv + half * a1v
        a2v = w2 * (1.0 - w2)
        w3 = cw + half * a2w
        a3w = cv + half * a2v
        a3v = w3 * (1.0 - w3)
        w4 = cw + h * a3w
        a4w = cv + h * a3v
        a4v = w4 * (1.0 - w4)
        cw += sixth * (a1w + 2.0 * a2w + 2.0 * a3w + a4w)
        cv += sixth * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        if path is not None:
            path[k + 1] = cw
    return cw, cv


def _edge_steps(length: float, dx: float) -> int:
    # near-saddle transits along this edge amplify local error by ~e^length:
    # the end error is RK4_END_ERROR_K h^4 e^length
    cap = (PROFILE_TOL * math.exp(-length) / RK4_END_ERROR_K) ** 0.25
    h = max(min(dx, cap), length / MAX_STEPS_PER_EDGE)
    return max(2, int(math.ceil(length / h)))


def _check_end_state(mismatch: float) -> None:
    if mismatch > 10.0 * PROFILE_TOL:
        raise StepTooLarge(
            f"profile end-state mismatch {mismatch:.3e} exceeds 10*tol = "
            f"{10.0 * PROFILE_TOL:.3e}")


def _integrate_edges(solution: GroundStateSolution, dx: float, profiles=None) -> dict:
    """RK4 over every edge at its own step, at most dx; the end-state residuals.

    Stem: from the Dirichlet end (w, w') = (1, q_tilde).  Loops: from the
    midpoint turning point (p0_j, 0) toward the vertex.  An end-state
    mismatch beyond 10 PROFILE_TOL raises StepTooLarge.  Given a dict
    ``profiles``, each edge's samples go into it, every loop mirrored to its
    full length.
    """
    p, spec = solution.p, solution.spec
    n = _edge_steps(spec.stem, dx)
    w = None if profiles is None else np.empty(n + 1)
    w_end, flux = _rk4(1.0, q_tilde(PhasePoint(p, solution.q_stem)), spec.stem, n, w)
    cont = abs(w_end - p)
    mismatch = max(cont, abs(flux - solution.q_stem))
    # the loops cannot lower the mismatch: a bad stem fails before they run
    _check_end_state(mismatch)
    if profiles is not None:
        profiles["stem"] = (np.linspace(0.0, spec.stem, n + 1), 1.0 - w)

    for j, (q, half, p0) in enumerate(zip(solution.q_loops, spec.loop_halves,
                                          solution.loop_turning_points()), start=1):
        nh = _edge_steps(half, dx)
        wh = None if profiles is None else np.empty(nh + 1)
        wh_end, vh_end = _rk4(p0, 0.0, half, nh, wh)
        if profiles is not None:
            # the first half runs from the vertex down to the turning point
            profiles[f"loop{j}"] = (np.linspace(0.0, 2.0 * half, 2 * nh + 1),
                                    1.0 - np.concatenate((wh[::-1], wh[1:])))
        cont = max(cont, abs(wh_end - p))
        mismatch = max(mismatch, abs(wh_end - p), abs(vh_end + q))
        flux += 2.0 * vh_end

    _check_end_state(mismatch)
    # u = 1 - w is exactly 0 at the Dirichlet end, where the stem starts
    return {"continuity": cont, "kirchhoff_flux": abs(flux), "dirichlet": 0.0}


def reconstruct_profile(solution: GroundStateSolution, dx: float = PROFILE_DX) -> dict:
    """Sample u on every edge by integrating the orbit ODE; edge_id -> (x, u).

    Loops are mirrored about their midpoint, so their evenness is exact.
    The samples are returned only: the solution, its residuals included,
    stays as the solve left it.
    A mismatch beyond 10 PROFILE_TOL at this dx raises StepTooLarge.  A dx
    that is not > 0 (NaN included), or below an edge's length /
    MAX_STEPS_PER_EDGE, where the cap and not dx would set the step, raises
    InvalidDomain; at dx = inf the step law alone bounds the step.
    """
    if not dx > 0.0:
        raise InvalidDomain(f"profile step dx must be > 0, got {dx}")
    floor = max((solution.spec.stem, *solution.spec.loop_halves)) / MAX_STEPS_PER_EDGE
    if dx < floor:
        raise InvalidDomain(f"profile step dx = {dx:g} is below {floor:g}, where the "
                            f"cap of {MAX_STEPS_PER_EDGE} steps per edge sets the step")
    profiles = {}
    _integrate_edges(solution, dx, profiles)    # may raise StepTooLarge
    return profiles


def energy_of(solution: GroundStateSolution) -> float:
    """Free energy H(u) = int (u'^2 - u^2)/2 + u^3/3 dx, from the orbit invariant.

    On an edge with v^2 = E + A(w) the density equals v^2 - (E + 1/3)/2, so
    the edge adds its action int v^2 dx less (E + 1/3)/2 times its length.
    No profile sample is read, so H does not depend on the profile grid.
    """
    p, spec, q = solution.p, solution.spec, solution.q_stem
    total = action_T(PhasePoint(p, q)) - 0.5 * energy_above_center(p, q) * spec.stem
    actions = loop_arcs(solution.loop_spans, 0.0, "action")
    for qj, half, action in zip(solution.q_loops, spec.loop_halves, actions):
        total += 2.0 * action - energy_above_center(p, qj) * half
    return total
