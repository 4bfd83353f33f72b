"""Lowest eigenvalue of the graph Laplacian with Dirichlet pendants.

Flower graphs admit a closed secular equation: with s = sqrt(lambda),

    2 * sum_j tan(s * l_j) = cot(s * L)

where L is the stem length and l_j the loop half-lengths.  The left side
increases and the right side decreases on s in (0, s_max) with
s_max = min(pi/(2L), min_j pi/(2 l_j)), so the smallest eigenvalue is the
unique root there.  General graphs go through the P1 discretization of
mesh.GraphMesh and one shift-invert Lanczos solve (ARPACK) at 0 on the
generalized problem A x = lambda M x, with A_ff from the mesh's one
assembly (no full-node matrix), the lumped M applied as a diagonal
operator, and A's own CSR arrays shared by the residual floor's |A|.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import (
    InvalidDomain,
    LinearSolveFailure,
    LoopTooLong,
    MeshTooCoarse,
)
from .graph import FlowerSpec, MetricGraph, flower_graph
from .mesh import CondensedLU, Field, GraphMesh, field_from_function

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
# Lanczos basis size (eigsh caps it at the number of free nodes).  Trees and
# grids of 1e3-4e3 edges converge in one pass of NCV + 1 solves (20 would
# double that); below 10, trees with all leaves Dirichlet (lambda0/lambda1
# near 1) restart more: at most 97 solves over 20 seeded 1000-edge trees at
# 8 and 118 at 6, against 81 at 10.
NCV = 10


@dataclass
class SpectralResult:
    """lambda0 and how it was found; the eigenfunction is sampled on first read."""

    lambda0: float
    method: str              # "transcendental" | "discretized"
    residual: float
    iterations: int
    sample: Callable[[], Field] = field(repr=False, compare=False)

    @cached_property
    def eigenfunction(self) -> Field:
        return self.sample()


def secular_mismatch(spec: FlowerSpec, s: float) -> float:
    """2*sum tan(s*l_j) - cot(s*L); increasing in s on the root bracket.

    Where s*L underflows to 0 (a stem tiny next to a loop), cot is +inf.
    """
    t = 2.0 * sum(math.tan(s * h) for h in spec.loop_halves)
    x = s * spec.stem
    return t - (1.0 / math.tan(x) if x > 0.0 else math.inf)


def _flower_eigenfunction(spec: FlowerSpec, s: float) -> Field:
    """Sample the sin/cos eigenfunction branches, L2-normalized."""
    L = spec.stem
    # stem: sin(s x); loop j: (sin(sL)/cos(s l_j)) * cos(s (x - l_j))
    stem_sq = L / 2.0 - math.sin(2.0 * s * L) / (4.0 * s)
    total = stem_sq
    amp = {}
    for j, h in enumerate(spec.loop_halves, start=1):
        d = math.sin(s * L) / math.cos(s * h)
        amp[f"loop{j}"] = d
        total += d * d * (h + math.sin(2.0 * s * h) / (2.0 * s))
    c = 1.0 / math.sqrt(total)

    graph = flower_graph(spec)
    mesh_h = max(min(0.02, min(e.length for e in graph.edges) / 8.0), 1e-4)
    mesh = GraphMesh(graph, mesh_h)

    def fn(edge_id, x):
        if edge_id == "stem":
            return c * np.sin(s * x)
        half = 0.5 * (x[-1] if len(x) else 0.0)
        return c * amp[edge_id] * np.cos(s * (x - half))

    return field_from_function(mesh, fn)


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
        return SpectralResult(s * s, "transcendental", 0.0, 0,
                              partial(_flower_eigenfunction, spec, s))
    s_max = min([math.pi / (2.0 * L)] +
                [math.pi / (2.0 * h) for h in spec.loop_halves])
    mismatch = partial(secular_mismatch, spec)
    s, iterations = math.nextafter(s_max, 0.0), 0
    if mismatch(s) > 0.0:
        s, info = brentq(mismatch, s_max * 1e-12, s, xtol=ROOT_XTOL,
                         rtol=4.0 * EPS, maxiter=200, full_output=True)
        iterations = info.iterations
    return SpectralResult(s * s, "transcendental", abs(mismatch(s)),
                          iterations, partial(_flower_eigenfunction, spec, s))


def _mesh_eigenfunction(mesh: GraphMesh, y: np.ndarray) -> Field:
    """The Lanczos vector on the free nodes as a full-node field, 0 where
    pinned, with its sign chosen so its values sum to >= 0."""
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.free_nodes] = y if y.sum() >= 0 else -y
    return Field(mesh, vals)


def lambda0_discretized(graph: MetricGraph, mesh_h: float) -> SpectralResult:
    """Smallest eigenvalue of the P1-discretized Laplacian on any graph.

    One shift-invert Lanczos call at 0 on A x = rho M x applies the
    mesh.CondensedLU factor of A once per step (a tridiagonal sweep over
    the edge interiors and one SuperLU solve on the vertex complement);
    ``iterations`` counts those solves.
    The pair must meet a relative residual of 1e-10 or its own rounding
    floor, 2 eps |(|A| |y| + rho M |y|)| over the same scale, as
    groundstate._floors does; that floor grows like 1/lambda0, so large
    graphs with a small lambda0 sit above 1e-10.
    """
    mesh = GraphMesh(graph, mesh_h)
    if mesh.min_intervals() < 5:
        raise MeshTooCoarse(
            f"coarsest edge has {mesh.min_intervals()} cells; need >= 5 "
            "(four interior nodes) for the eigenvalue stencil")
    a, m = mesh.reduced_operators()
    lu = CondensedLU(mesh, a, 0.0, 1.0, "stiffness")
    n = a.shape[0]
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    mass = LinearOperator((n, n), matvec=m.__mul__, dtype=float)    # diagonal, not copied
    try:
        vals, vecs = eigsh(a, k=1, M=mass, sigma=0, which="LM",
                           OPinv=LinearOperator((n, n), matvec=solve, dtype=float),
                           v0=np.ones(n), ncv=NCV)
    except ArpackNoConvergence as exc:
        raise LinearSolveFailure(f"shift-invert Lanczos did not converge: {exc}") from exc
    rho, y = float(vals[0]), vecs[:, 0]    # ARPACK returns y with y.M.y = 1
    ay = a @ y
    r = ay - rho * (m * y)
    scale = math.sqrt(float(ay @ ay)) + rho
    rel = math.sqrt(float(r @ r)) / scale
    if rel > 1e-10:    # a pair within 1e-10 passes whatever its floor
        abs_a = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
        bound = abs_a @ np.abs(y) + rho * (m * np.abs(y))
        if rel > 2.0 * EPS * math.sqrt(float(bound @ bound)) / scale:
            raise LinearSolveFailure(f"eigenpair residual {rel:.3e} is above its floor")
    return SpectralResult(rho, "discretized", rel, solves,
                          partial(_mesh_eigenfunction, mesh, y))


class Region(Enum):
    TRIVIAL = "Trivial"
    NONTRIVIAL = "Nontrivial"


@dataclass(frozen=True)
class RegionReport:
    region: Region
    lambda0: float
    boundary: bool    # |lambda0 - 1| <= 1e-10: too close to classify firmly

    def __str__(self):
        tag = " (boundary)" if self.boundary else ""
        return f"{self.region.value}{tag}, lambda0={self.lambda0:.12g}"


def region_membership(spec: FlowerSpec) -> RegionReport:
    """Nontrivial iff lambda0 < 1 strictly; flags near-threshold ties."""
    lam = lambda0_flower(spec).lambda0
    region = Region.NONTRIVIAL if lam < 1.0 else Region.TRIVIAL
    return RegionReport(region, lam, abs(lam - 1.0) <= BOUNDARY_TOL)


def lower_boundary(loop_halves) -> float:
    """Critical stem length: lambda0 = 1 at L = arccot(2 sum tan l_j)."""
    total = 0.0
    for h in loop_halves:
        if h < 0.0 or h != h:
            raise InvalidDomain(f"loop half-length must be >= 0, got {h}")
        if h >= math.pi / 2.0:
            raise LoopTooLong(
                f"loop half-length {h} >= pi/2; tan diverges and the "
                "critical stem length is 0 already")
        total += math.tan(h)
    return math.pi / 2.0 - math.atan(2.0 * total)
