"""Output checks that do not reuse the package's own numerics.

* flower lambda0: the secular equation 2 sum tan(s l_j) = cot(s L) solved
  here by bisection.
* flower ground states: the stem and loop arclength integrals evaluated at
  the returned (p, q_j) by mpmath tanh-sinh quadrature and compared with the
  edge lengths.  Stems are integrated in the variable ln(u/p), which
  resolves the near-saddle transit of deep stems; loops in the variable
  u = p0 + (p - p0) sin^2(phi), with the turning point p0 from the
  closed-form cubic root at 40 digits.  The quadratures run in mpmath's
  double-precision context: at 20 digits a stem costs ~30 ms, which over
  the ~10^3 ops of a run would take longer than the run itself, while the
  two agree to 5e-13 on the sweep.
* discretized lambda0: scipy eigsh(A, M=diag(m), sigma=0) on P1 operators
  assembled here from the graph JSON.
* evolve: the terminal state lies on the side of the dichotomy given by
  that eigenvalue.

Exit codes are checked where each op runs (workloads.InProcessRunner).

Each check returns None when it passes, else a short reason.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

# Agreement demanded of a flower ground state: the package's own accuracy
# claim (period residual below max(tol, floor), tol = 1e-10 by default) plus
# room for the error of both quadratures.
PERIOD_ABS_TOL = 1e-9
LAMBDA_REL_TOL = 1e-10
DISC_LAMBDA_REL_TOL = 1e-8

# ------------------------------------------------------------------ flowers

def secular_lambda0(stem: float, halves) -> float:
    """Smallest s^2 with 2 sum tan(s l_j) = cot(s L), by bisection."""
    h = np.asarray(halves, dtype=float)
    lo, hi = 0.0, math.pi / (2.0 * max(stem, float(h.max(initial=0.0))))
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid * mid
        if 2.0 * float(np.tan(mid * h).sum()) < 1.0 / math.tan(mid * stem):
            lo = mid
        else:
            hi = mid


def _turning_point(p: float, q: float) -> tuple[float, float]:
    """(b0, d) = (1 - p0, p - p0), p0 the inner turning point through (p, q).

    p0 solves u^2 - (2/3) u^3 = c with c = A(p) - q^2; with u = 1/2 + x this
    is x^3 - (3/4) x + (3/2)(c - 1/6) = 0, whose root in (-1/2, 1/2) is
    x = cos(2 pi / 3 - arccos(1 - 6 c) / 3).
    """
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        c = P * P * (1 - 2 * P / 3) - mpmath.mpf(q) ** 2
        theta = mpmath.acos(1 - 6 * c) / 3
        p0 = mpmath.mpf(0.5) + mpmath.cos(2 * mpmath.pi / 3 - theta)
        return float(1 - p0), float(P - p0)


def _bracket(a: float, b: float) -> float:
    """(u + v) - (2/3)(u^2 + u v + v^2) written through a = 1 - u, b = 1 - v."""
    return a + b - (2.0 / 3.0) * (a * a + a * b + b * b)


def loop_length(p: float, q: float) -> float:
    """Half-length T0(p, q) = int_{p0}^{p} du / sqrt(A(u) - A(p0))."""
    b0, d = _turning_point(p, q)
    root_d = math.sqrt(d)

    def f(phi):
        a = b0 - d * math.sin(phi) ** 2               # 1 - u
        return 2.0 * root_d * math.cos(phi) / math.sqrt(_bracket(a, b0))

    return mpmath.fp.quad(f, [0.0, 0.5 * math.pi])


def stem_length(p: float, q: float) -> float:
    """Stem length T(p, q) = int_p^1 du / sqrt(q^2 + A(u) - A(p))."""
    bp = 1.0 - p
    q2 = q * q

    def f(s):
        a = bp - p * math.expm1(s)                    # 1 - u, no cancellation
        return p * math.exp(s) / math.sqrt(q2 + (bp - a) * _bracket(a, bp))

    return mpmath.fp.quad(f, [0.0, -math.log(p)])


def check_groundstate(case, out: dict):
    stem, halves = case
    if out.get("schema") != 1:
        return "check:schema"
    p, qs = out["p"], out["q"]
    if len(qs) != len(halves) or not 0.0 < p < 1.0 or not all(q < 0.0 for q in qs):
        return "check:shape"
    lam = secular_lambda0(stem, halves)
    if abs(out["lambda0"] - lam) > LAMBDA_REL_TOL * max(1.0, lam):
        return "check:lambda0"
    if not out.get("jacobian_sign_ok", True):
        return "check:jacobian_sign"
    q_stem = 2.0 * math.fsum(qs)
    allowed = PERIOD_ABS_TOL + 2.0 * out["convergence_floor"]
    if abs(stem_length(p, q_stem) - stem) > allowed:
        return "check:stem_length"
    if any(abs(loop_length(p, q) - h) > allowed for q, h in zip(qs, halves)):
        return "check:loop_length"
    return None


# ------------------------------------------------------------------- graphs

def p1_operators(graph: dict, h: float):
    """Reduced P1 stiffness (CSC) and lumped mass on the non-Dirichlet nodes.

    Edge e gets max(2, ceil(len/h)) uniform cells; vertices are shared nodes,
    so the assembled rows are the Kirchhoff conditions.
    """
    vid: dict[str, int] = {}
    for e in graph["edges"]:
        vid.setdefault(e["from"], len(vid))
        vid.setdefault(e["to"], len(vid))
    counts = [max(2, math.ceil(e["length"] / h)) for e in graph["edges"]]
    n_nodes = len(vid) + sum(c - 1 for c in counts)
    rows, cols, vals = [], [], []
    mass = np.zeros(n_nodes)
    nxt = len(vid)
    for e, n in zip(graph["edges"], counts):
        idx = np.empty(n + 1, dtype=np.int64)
        idx[0], idx[-1] = vid[e["from"]], vid[e["to"]]
        idx[1:-1] = np.arange(nxt, nxt + n - 1)
        nxt += n - 1
        cell = e["length"] / n
        a, b = idx[:-1], idx[1:]
        w = np.full(n, 1.0 / cell)
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [w, w, -w, -w]
        np.add.at(mass, a, 0.5 * cell)
        np.add.at(mass, b, 0.5 * cell)
    stiff = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_nodes, n_nodes)).tocsr()
    free = np.ones(n_nodes, dtype=bool)
    for v, c in graph.get("conditions", {}).items():
        if c.lower() == "dirichlet":
            free[vid[v]] = False
    keep = np.nonzero(free)[0]
    return stiff[keep][:, keep].tocsc(), mass[keep]


def discrete_lambda0(graph: dict, h: float) -> float:
    a, m = p1_operators(graph, h)
    vals = eigsh(a, k=1, M=sp.diags(m).tocsc(), sigma=0.0, which="LM",
                 return_eigenvectors=False)
    return float(vals[0])


def check_spectrum(out: dict, lam: float):
    if out.get("schema") != 1:
        return "check:schema"
    if abs(out["lambda0"] - lam) > DISC_LAMBDA_REL_TOL * max(lam, 1e-300):
        return "check:lambda0"
    return None


def check_evolve(out: dict, lam: float):
    if out.get("schema") != 1:
        return "check:schema"
    want = "ConvergedNontrivial" if lam < 1.0 else "ConvergedTrivial"
    if out.get("terminal") != want:
        return "check:terminal_side"
    return None

