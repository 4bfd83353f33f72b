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
(as on the 80-loop stem-12 flower).  The interval is
the loop-free case N = 0, solved by spectral.brentq with the same residual
and floors.  With period's own quadrature, the whole solve runs on numpy
and the standard library: no scipy module is loaded.

Deep in the region (long edges) the loop equations become ill conditioned
in q_j: the orbit hugs the homoclinic loop and T0 moves by ~1e-8 per ulp of
q_j.  Two mitigations: the seed takes p from the trace asymptotics and each
q_j from a presolve in the log of the turning point (uniformly well
conditioned; every loop steps in lockstep by Chandrupatla's method, with one
period.loop_arcs call per round), and convergence is declared against
per-row floors

    floor_i = 8 eps (|target_i| + sum_k |z_k J_ik|)

which measure the best residual representable at the working precision.
Newton hands its converged loop spans to the solution, so the profile, the
turning points and the loop actions of the free energy need no further
turning-point solve.  The solve integrates each edge only to its end
state, for the residuals; profile samples are built when a caller reads
them.
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
from .spectral import ROOT_XTOL, Region, brentq, lambda0_flower

__all__ = [
    "Arrow",
    "GroundStateSolution",
    "JacobianReport",
    "solve_interval",
    "solve_flower",
    "jacobian_report",
    "reconstruct_profile",
    "energy_of",
]

MAX_NEWTON_ITER = 60
MAX_PRESOLVE_ROUNDS = 100   # Chandrupatla rounds after the bracket ladder
PROFILE_TOL = 1e-8          # reconstruct_profile's end-state tolerance
PROFILE_DX = 1e-2           # step bound of the end-state pass; reconstruct_profile default
MAX_STEPS_PER_EDGE = 500_000  # caps an edge's RK4 time before StepTooLarge
JACOBIAN_QUAD_TOL = 1e-10
# K in the RK4 end error K h^4 e^L of an edge of length L, which sets the
# profile step.  Measured as |end(h) - end(h/2)| 16/15 / (h^4 e^L) at the step
# this K gives, on every edge of the first 150 perfbench sweep flowers of
# seeds 1 and 2, the tadpole and two-loop anchors, intervals 1.6, 2, 5 and
# 10, (16, (16,)) and the 80-loop stem-12 flower: about 2.2e-4 on stems
# longer than 5, up to 4.8e-3 on stems of 0.4, where the step dx binds
# instead.  The largest, rounded up:
RK4_END_ERROR_K = 5e-3


def _stem_slope(q_loops) -> float:
    # numpy's pairwise sum, in the Newton system and in q_stem alike
    return 2.0 * float(np.sum(q_loops))


@dataclass
class GroundStateSolution:
    """Solved period-system parameters.  The solve keeps each edge's end
    state only; ``profiles`` is sampled on first read, by reconstruct_profile."""

    spec: FlowerSpec
    p: float
    q_loops: tuple[float, ...]
    newton_iterations: int
    residuals: dict
    convergence_floor: float
    lambda0: float                 # lowest Laplacian eigenvalue of spec
    jacobian: JacobianReport       # the period-system Jacobian at the solution
    loop_spans: tuple              # period.loop_spans at the solution
    _profiles: dict | None = None

    @property
    def profiles(self) -> dict:
        """edge_id -> (x, u) sample arrays from the last reconstruct_profile."""
        if self._profiles is None:
            reconstruct_profile(self)
        return self._profiles

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
    [[dT/dp]] is the arrow with no loops.  Every method is O(N) and calls
    no BLAS or LAPACK routine.
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


def _jacobian(z: np.ndarray, quad_tol: float, spans) -> Arrow:
    """Period-system Jacobian at z, as its arrow; ``spans`` are loop_spans at z."""
    p, *qs = z.tolist()    # Python floats, as in _system
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
    and the ladder y_lo = log p - 5k that brackets them; then each round takes
    one Chandrupatla step per unconverged half and evaluates the round's new
    points in one loop_arcs call.  Equal halves are solved once, and no
    turning point is evaluated twice.
    """
    t0 = {}    # y -> T0 from the turning point e^y up to p

    def evaluate(ys):
        new = [y for y in dict.fromkeys(ys) if y not in t0]
        t0.update(zip(new, _turning_arclengths(p, new, quad_tol)))

    y_hi = math.log(p) - 1e-12
    evaluate([y_hi])
    # halves shorter than even the shortest orbits: p is huge relative to
    # them, and the root sits essentially at p0 = p
    roots = {half: y_hi for half in halves if t0[y_hi] - half >= 0.0}
    unbracketed = [half for half in dict.fromkeys(halves) if half not in roots]
    # per half, with f = T0 - half: the newest point (y1, f1), the bracket's
    # other end (y2, f2), and the fraction t of the way to y2 of the next
    # point, which starts as the bracket's secant
    brackets = {}
    y_lo = math.log(p) - 5.0
    for _ in range(140):
        if not unbracketed:
            break
        evaluate([y_lo])
        for half in unbracketed:
            f1, f2 = t0[y_lo] - half, t0[y_hi] - half
            if f1 > 0.0:
                brackets[half] = (y_lo, f1, y_hi, f2, f1 / (f1 - f2))
        unbracketed = [half for half in unbracketed if half not in brackets]
        y_lo -= 5.0
    if unbracketed:
        raise OrbitNotClosed(
            f"no loop orbit of half-length {unbracketed[0]} through p = {p}")

    for _ in range(MAX_PRESOLVE_ROUNDS):
        steps = {}
        for half, (y1, f1, y2, f2, t) in list(brackets.items()):
            y_min = y1 if abs(f1) < abs(f2) else y2
            tol = 1e-13 + 4.0 * EPMACH * abs(y_min)
            if f1 == 0.0 or abs(y2 - y1) < tol:    # brentq's stopping rule
                roots[half] = y_min
                del brackets[half]
            else:    # at least tol / 2 inside the bracket
                margin = 0.5 * tol / abs(y2 - y1)
                steps[half] = y1 + min(max(t, margin), 1.0 - margin) * (y2 - y1)
        if not steps:
            return [roots[half] for half in halves]
        evaluate(steps.values())
        for half, y1 in steps.items():
            f1 = t0[y1] - half
            if math.isnan(f1):
                raise ValueError(f"T0 at log p0 = {y1} is NaN")
            y3, f3, y2, f2, _ = brackets[half]    # (y3, f3) is dropped
            if (f1 > 0.0) != (f3 > 0.0):
                y3, f3, y2, f2 = y2, f2, y3, f3
            # inverse quadratic interpolation where it is safe, else bisection
            xi, phi = (y1 - y2) / (y3 - y2), (f1 - f2) / (f3 - f2)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - (y3 - y1) / (y2 - y1) * \
                f1 / (f3 - f1) * f2 / (f2 - f3) \
                if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi else 0.5
            brackets[half] = (y1, f1, y2, f2, t)
    raise ValueError(f"the presolve needs more than {MAX_PRESOLVE_ROUNDS} rounds")


def _converged(F: np.ndarray, tol: float, floors: np.ndarray) -> bool:
    return bool(np.all(np.abs(F) <= np.maximum(tol, floors)))


def _newton(spec: FlowerSpec, z0: np.ndarray, tol: float, quad_tol: float):
    """Damped Newton; returns (z, F, J, iterations, spans), J the Jacobian
    and spans the loop spans at z."""
    z = np.asarray(z0, dtype=float).copy()
    F, spans = _system(spec, z, quad_tol)
    for it in range(MAX_NEWTON_ITER + 1):
        J = _jacobian(z, quad_tol, spans)
        floors = _floors(spec, J, z)
        if it == MAX_NEWTON_ITER or _converged(F, tol, floors):
            return z, F, J, it, spans
        step = J.solve(-F)
        if step is None:    # a singular J: the run stalls here
            return z, F, J, it + 1, spans
        scale = 1.0
        best = np.max(np.abs(F))
        while scale >= 2.0 ** -30:
            zt = z + scale * step
            if _admissible(zt[0], zt[1:]):
                Ft, spans_t = _system(spec, zt, quad_tol)
                if np.max(np.abs(Ft)) <= (1.0 - 1e-4 * scale) * best or \
                        _converged(Ft, tol, floors):
                    break
            scale *= 0.5
        else:
            return z, F, J, it + 1, spans
        z, F, spans = zt, Ft, spans_t


def _asymptotic_seed(spec: FlowerSpec, quad_tol: float) -> np.ndarray:
    """Trace-asymptotics p with per-loop presolved q_j; NewtonStalled if none."""
    p = 12.0 / (1.0 + 2.0 * spec.n_loops) * \
        math.exp(-(spec.stem + HOMOCLINIC_OFFSET))
    p = min(max(p, 1e-8), 0.9)
    try:
        qs = [-math.sqrt(max(well(p) - well(math.exp(y)), 0.0))
              for y in _loop_turning_points(p, spec.loop_halves, quad_tol)]
    except (OrbitNotClosed, ValueError):
        qs = None
    if qs is None or not _admissible(p, qs):
        raise NewtonStalled(f"no admissible Newton seed at p = {p:.6g}")
    return np.array([p, *qs])


def _package(spec: FlowerSpec, z: np.ndarray, F: np.ndarray, J: Arrow,
             iterations: int, spans, tol: float, lam: float) -> GroundStateSolution:
    """The solution at z, with its loop spans, or NewtonStalled when |F|
    exceeds max(tol, floors)."""
    floors = _floors(spec, J, z)
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
        jacobian=JacobianReport.of(J),
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


def _solve_loop_free(spec: FlowerSpec, tol: float, lam: float) -> GroundStateSolution:
    """The interval's p by brentq, to rtol = 4 eps, unpolished.

    The Neumann end is the orbit's turning point, so the single unknown p
    solves T(p, 0) = L; T(., 0) decreases strictly from infinity to pi/2.
    The residual must meet max(tol, floor), the floor from the 1x1 Jacobian
    [[dT/dp]] (the arrow with no loops), or NewtonStalled is raised.
    """
    L = spec.stem
    quad_tol = min(1e-11, 0.1 * tol)

    @functools.cache    # brentq re-evaluates lo and returns an evaluated point
    def mismatch(p):
        return _system(spec, np.array([p]), quad_tol)[0][0]

    lo = min(0.5, 6.0 * math.exp(-(L + HOMOCLINIC_OFFSET)))
    for _ in range(60):
        if lo == 0.0:
            raise NewtonStalled(f"the bracket for interval length {L} needs "
                                "p below the smallest double: p underflows to 0")
        if mismatch(lo) > 0.0:
            break
        lo *= 0.5
    p, info = brentq(mismatch, lo, math.nextafter(1.0, 0.0), ROOT_XTOL, 4.0 * EPMACH, 200)
    return _package(spec, np.array([p]), np.array([mismatch(p)]),
                    Arrow(interval_period_slope(p, quad_tol), 0.0, np.empty(0), np.empty(0)),
                    info.iterations, (), tol, lam)


def solve_flower(spec: FlowerSpec, tol: float = 1e-10) -> GroundStateSolution:
    """Positive ground state on a flower graph; OutsideRegion unless lambda0 < 1.

    The loop-free flower, the interval, is solved by brentq in p.  With
    loops, one damped Newton run from a seed: the trace asymptotics seed p
    and per-loop presolves seed q_j.  There is no retry: the ground state is
    unique and the Jacobian never vanishes, so a run that stalls from the
    seed raises NewtonStalled.
    """
    tol = _check_tol(tol)
    lam = lambda0_flower(spec).lambda0
    if Region.of(lam) is Region.TRIVIAL:
        raise OutsideRegion(
            f"lambda0 = {lam:.12g} >= 1 for stem {spec.stem}, loops "
            f"{tuple(2 * h for h in spec.loop_halves)}: only u = 0 exists")
    if spec.n_loops == 0:
        return _solve_loop_free(spec, tol, lam)
    quad_tol = min(1e-11, 0.01 * tol)
    z0 = _asymptotic_seed(spec, quad_tol)
    return _package(spec, *_newton(spec, z0, tol, quad_tol), tol, lam)


@dataclass
class JacobianReport:
    """The period-system Jacobian's arrow and its determinant.

    sign = sign(s) prod_j sign(diagonal_j), exactly, with s the arrow's
    Schur complement; log_abs_determinant = log|s| + sum_j log|diagonal_j|,
    finite where the determinant itself overflows a double.  determinant is
    s prod_j diagonal_j: +-inf once that product overflows.  A 0 on the
    diagonal leaves the Schur form undefined: the report then has sign 0 and
    a NaN determinant.
    """

    arrow: Arrow
    determinant: float
    log_abs_determinant: float
    sign: float                # +1, -1, or 0 when J is singular
    expected_sign: int
    sign_ok: bool

    @classmethod
    def of(cls, J: Arrow) -> JacobianReport:
        expected = 1 if J.diagonal.size % 2 else -1    # (-1)^(N+1) for N loops
        if not J.diagonal.all():
            return cls(J, math.nan, math.nan, 0.0, expected, False)
        s = J.schur()
        sign = float(np.sign(s) * np.prod(np.sign(J.diagonal)))
        with np.errstate(divide="ignore", over="ignore"):    # s = 0: log -inf
            det = s * float(np.prod(J.diagonal))
            log_abs = float(np.log(abs(s)) + np.sum(np.log(np.abs(J.diagonal))))
        return cls(J, det, log_abs, sign, expected, sign == expected)


def jacobian_report(p: float, q_list) -> JacobianReport:
    """Period-system Jacobian at any admissible (p, q_1..q_N), with its sign check."""
    qs = list(q_list)
    if not _admissible(p, qs):
        raise InvalidDomain(
            f"(p, q) = ({p}, {qs}) is not an admissible flower state")
    z = np.array([p, *qs], float)
    p, *qs = z.tolist()    # Python floats, as in _system
    return JacobianReport.of(_jacobian(z, JACOBIAN_QUAD_TOL, loop_spans(p, qs)))


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
    The samples become solution.profiles; the residuals stay the solve's.
    A mismatch beyond 10 PROFILE_TOL at this dx raises StepTooLarge.
    """
    profiles = {}
    _integrate_edges(solution, dx, profiles)    # may raise StepTooLarge
    solution._profiles = profiles
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
