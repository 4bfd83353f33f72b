"""Lowest eigenvalue of the graph Laplacian with Dirichlet pendants.

Flower graphs admit a closed secular equation: with s = sqrt(lambda),

    2 * sum_j tan(s * l_j) = cot(s * L)

where L is the stem length and l_j the loop half-lengths.  The left side
increases and the right side decreases on s in (0, s_max) with
s_max = min(pi/(2L), min_j pi/(2 l_j)), so the smallest eigenvalue is the
unique root there.  General graphs go through the P1 discretization of
mesh.GraphMesh and a two-pass Lanczos run on the generalized problem
A x = lambda M x: the three-term recurrence for A_ff^-1 M in the M inner
product, applied through one mesh.CondensedLU factor of A_ff, keeps only
its coefficients, and a second pass regenerates the same vectors to sum the
Ritz vector (Paige, J. Inst. Math. Appl. 18, 1976).  So the eigen-solve
holds four n-vectors and no basis.  The lumped M is a vector, A_ff is never
formed, and the residual reads A_ff y from the mesh's stencil product.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import count

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .errors import (
    InvalidDomain,
    LinearSolveFailure,
    MeshTooCoarse,
)
from .graph import FlowerSpec, MetricGraph
from .mesh import CondensedLU, Field, GraphMesh

__all__ = [
    "SpectralResult",
    "Region",
    "RegionReport",
    "lambda0_flower",
    "lambda0_discretized",
    "region_membership",
    "lower_boundary",
    "secular_mismatch",
]

BOUNDARY_TOL = 1e-10
EPS = np.finfo(float).eps
# brentq's xtol, the smallest normal double: far below every root on the exact
# path, so rtol = 4 eps, brentq's floor, alone decides when a root is done
ROOT_XTOL = 2.0 ** -1022
# Lanczos steps before lambda0_discretized gives up.  At --mesh 0.05, trees
# and grids of 1e3-4e3 edges stop at its 4 eps Ritz residual in 8-11 steps,
# trees of 1e3-1e4 edges with every leaf Dirichlet (lambda0/lambda1 near 1)
# in 29-58.
MAX_LANCZOS_STEPS = 300


@dataclass
class SpectralResult:
    """lambda0 and how it was found; a discretized result samples its P1
    eigenfunction on first read, a transcendental one has none (None)."""

    lambda0: float
    method: str              # "transcendental" | "discretized"
    residual: float
    iterations: int
    sample: Callable[[], Field] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def eigenfunction(self) -> Field | None:
        return None if self.sample is None else self.sample()


def secular_mismatch(spec: FlowerSpec, s: float) -> float:
    """2*sum tan(s*l_j) - cot(s*L); increasing in s on the root bracket.

    Where s*L underflows to 0 (a stem tiny next to a loop), cot is +inf.
    """
    t = 2.0 * sum(math.tan(s * h) for h in spec.loop_halves)
    x = s * spec.stem
    return t - (1.0 / math.tan(x) if x > 0.0 else math.inf)


def lambda0_flower(spec: FlowerSpec) -> SpectralResult:
    """Smallest eigenvalue of a flower graph from the secular equation.

    s is brentq's root to its own relative precision, rtol = 4 eps, unpolished.
    The bracket ends one ulp below the pole s_max, where the mismatch is
    positive unless the root lies within that ulp (a loop tiny next to the
    stem, or huge lengths); then s is that end.
    """
    L = spec.stem
    if spec.n_loops == 0:
        s = math.pi / (2.0 * L)
        return SpectralResult(s * s, "transcendental", 0.0, 0)
    s_max = min([math.pi / (2.0 * L)] +
                [math.pi / (2.0 * h) for h in spec.loop_halves])
    mismatch = partial(secular_mismatch, spec)
    s, iterations = math.nextafter(s_max, 0.0), 0
    if mismatch(s) > 0.0:
        s, info = brentq(mismatch, s_max * 1e-12, s, xtol=ROOT_XTOL,
                         rtol=4.0 * EPS, maxiter=200, full_output=True)
        iterations = info.iterations
    return SpectralResult(s * s, "transcendental", abs(mismatch(s)), iterations)


def _mesh_eigenfunction(mesh: GraphMesh, y: np.ndarray) -> Field:
    """The Ritz vector on the free nodes as a full-node field, 0 where
    pinned, with its sign chosen so its values sum to >= 0."""
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.free_nodes] = y if y.sum() >= 0 else -y
    return Field(mesh, vals)


def _lanczos(solve: Callable, m: np.ndarray, coeffs: list):
    """Yield v_1, v_2, ...: the Lanczos vectors of A^-1 M in the M inner
    product, from v_1 = ones scaled to v_1.M.v_1 = 1.

    Forming v_{j+1} takes one solve and the pair coeffs[j] = (alpha_j,
    beta_j); a pair not yet listed is computed and appended.  So a first
    pass fills ``coeffs``, and a second pass over the same list regenerates
    the same vectors bit for bit, with no inner product.  beta_j = 0 (an
    invariant subspace) leaves v_{j+1} = 0.  Four n-vectors are held; a
    yielded vector holds until the second resumption after it.
    """
    v = np.full(m.size, 1.0 / math.sqrt(float(m.sum())))
    prev, w, mv = np.zeros(m.size), np.empty(m.size), np.empty(m.size)
    beta = 0.0
    for j in count():
        yield v
        solve(np.multiply(m, v, out=mv), out=w)
        prev *= beta
        w -= prev                       # A^-1 M v_j - beta_{j-1} v_{j-1}
        new = j == len(coeffs)
        if new:
            alpha = float(mv @ w)
        else:
            alpha, beta = coeffs[j]
        w -= np.multiply(v, alpha, out=prev)
        if new:
            beta = math.sqrt(float(np.multiply(m, w, out=mv) @ w))
            coeffs.append((alpha, beta))
        if beta > 0.0:
            w /= beta
        prev, v, w = v, w, prev


def _largest_ritz(coeffs: list) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Lanczos tridiagonal T_j and its unit eigenvector."""
    alpha, beta = np.array(coeffs).T
    j = len(coeffs) - 1
    theta, s = eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(j, j))
    return float(theta[0]), s[:, 0]


def _largest_pair(solve: Callable, m: np.ndarray) -> tuple[float, np.ndarray, int]:
    """(theta, y, j): the largest eigenvalue of A^-1 M and its Ritz vector,
    y.M.y = 1, from two passes of _lanczos that stop at step j.  Their
    vectors are freed on return, before the caller's residual check
    allocates its own."""
    coeffs = []
    for _ in _lanczos(solve, m, coeffs):
        if coeffs:
            theta, s = _largest_ritz(coeffs)
            if coeffs[-1][1] * abs(s[-1]) <= 4.0 * EPS * theta:
                break
            if len(coeffs) == MAX_LANCZOS_STEPS:
                raise LinearSolveFailure(
                    f"Lanczos did not converge in {MAX_LANCZOS_STEPS} steps")
    y = np.zeros(m.size)
    for sj, v in zip(s, _lanczos(solve, m, coeffs)):
        y += sj * v
    y /= math.sqrt(float((m * y) @ y))
    return theta, y, len(coeffs)


def lambda0_discretized(graph: MetricGraph, mesh_h: float) -> SpectralResult:
    """Smallest eigenvalue of the P1-discretized Laplacian on any graph.

    rho = 1/theta, theta the largest eigenvalue of A^-1 M, by Lanczos in
    the M inner product from v_1 = ones.  Each step applies the
    mesh.CondensedLU factor of A once (a tridiagonal sweep over the edge
    interiors and one SuperLU solve on the vertex complement).  The first
    pass keeps only the recurrence's coefficients and stops at step j when
    the largest Ritz value theta of T_j has beta_j |s_j| <= 4 eps theta;
    MAX_LANCZOS_STEPS without that raises.  The second pass regenerates
    v_1..v_j from the coefficients and sums y = sum s_i v_i, scaled to
    y.M.y = 1.  ``iterations`` counts the solves of both passes, 2j - 1.
    The pair must meet a relative residual of 1e-10 or its own rounding
    floor, 2 eps |(|A| |y| + rho M |y|)| over the same scale, as
    groundstate._floors does; that floor grows like 1/lambda0, so large
    graphs with a small lambda0 sit above 1e-10.  A y and |A| |y| are
    mesh stencil products, the latter as 2 diag(A) |y| - A |y|, since A's
    off-diagonal entries are all negative.
    """
    mesh = GraphMesh(graph, mesh_h)
    if mesh.min_intervals() < 5:
        raise MeshTooCoarse(
            f"coarsest edge has {mesh.min_intervals()} cells; need >= 5 "
            "(four interior nodes) for the eigenvalue stencil")
    _, m = mesh.vertex_rows
    lu = CondensedLU(mesh, 0.0, 1.0, "stiffness")
    theta, y, j = _largest_pair(lu.solve, m)
    rho = 1.0 / theta
    ay = mesh.stiffness_product(y)
    r = ay - rho * (m * y)
    scale = math.sqrt(float(ay @ ay)) + rho
    rel = math.sqrt(float(r @ r)) / scale
    if rel > 1e-10:    # a pair within 1e-10 passes whatever its floor
        ya = np.abs(y)
        bound = (2.0 * mesh.stiffness_diagonal() * ya - mesh.stiffness_product(ya)
                 + rho * (m * ya))
        if rel > 2.0 * EPS * math.sqrt(float(bound @ bound)) / scale:
            raise LinearSolveFailure(f"eigenpair residual {rel:.3e} is above its floor")
    return SpectralResult(rho, "discretized", rel, 2 * j - 1,
                          partial(_mesh_eigenfunction, mesh, y))


class Region(Enum):
    TRIVIAL = "Trivial"
    NONTRIVIAL = "Nontrivial"

    @classmethod
    def of(cls, lambda0: float) -> Region:
        """The paper's sharp criterion: Nontrivial iff lambda0 < 1 strictly."""
        return cls.NONTRIVIAL if lambda0 < 1.0 else cls.TRIVIAL


@dataclass(frozen=True)
class RegionReport:
    region: Region
    lambda0: float
    boundary: bool    # |lambda0 - 1| <= 1e-10: too close to classify firmly


def region_membership(spec: FlowerSpec) -> RegionReport:
    """Region.of(lambda0); flags near-threshold ties."""
    lam = lambda0_flower(spec).lambda0
    return RegionReport(Region.of(lam), lam, abs(lam - 1.0) <= BOUNDARY_TOL)


def lower_boundary(loop_halves) -> float:
    """Critical stem length: lambda0 = 1 at L = arccot(2 sum tan l_j), and 0
    once a half reaches pi/2."""
    total = 0.0
    for h in loop_halves:
        if h < 0.0 or h != h:
            raise InvalidDomain(f"loop half-length must be >= 0, got {h}")
        total += loop_tan(h)
    return critical_stem(total)


def loop_tan(h: float) -> float:
    """tan h below pi/2, inf from pi/2 on: the continuous extension where
    the critical stem closes to 0."""
    return math.tan(h) if h < math.pi / 2.0 else math.inf


def critical_stem(tan_sum: float) -> float:
    """arccot(2 tan_sum), the critical stem for sum_j tan(l_j) = tan_sum; 0 at inf."""
    return math.pi / 2.0 - math.atan(2.0 * tan_sum)
