"""P1 discretization of functions and operators on a metric graph.

Each edge carries a uniform grid; vertices are shared nodes, so a self-loop
contributes a closed chain whose two ends are the same node.  Sharing makes
continuity structural, and assembling the standard stiffness matrix then
yields exactly the ghost-eliminated second-order Kirchhoff rows at interior
vertices: the vertex row is the sum of one-sided differences over incident
edge ends.  The mass matrix is lumped, so it stays diagonal and the scheme
matrix M + dt*A is an M-matrix for any dt > 0.

Dirichlet vertices are pinned by row/column elimination; the reduced
stiffness is symmetric positive definite whenever the graph is connected
and has at least one Dirichlet vertex.  A reduced operator is solved with
its edge interiors condensed out (CondensedLU): every edge's interior
block is tridiagonal and touches the rest only through its two end
vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidDomain, LinearSolveFailure, MeshTooCoarse
from .graph import DIRICHLET, MetricGraph

__all__ = ["GraphMesh", "Field", "field_from_function", "field_from_profiles",
           "constant_field", "free_energy", "factor_spd", "CondensedLU"]


class GraphMesh:
    """Shared-vertex uniform grids on every edge of a metric graph.

    ``intervals[edge_id]`` cells on each edge; ``edge_nodes[edge_id]`` lists
    the global node index of each grid point along the edge, endpoints being
    the vertex nodes.  ``edge_nodes`` and ``edge_x`` hold read-only views of
    one flat array each.
    """

    def __init__(self, graph: MetricGraph, mesh_h: float | None = None,
                 intervals: dict[str, int] | None = None):
        graph.validation    # raises on an invalid graph
        self.graph = graph
        if intervals is None:
            if mesh_h is None or not mesh_h > 0:
                raise MeshTooCoarse("need a positive mesh_h or explicit interval counts")
            # a ratio past 2**63 (or inf) cannot be counted by an int64 index
            intervals = {e.id: max(2, math.ceil(min(e.length / mesh_h, 2.0 ** 63)))
                         for e in graph.edges}
        self.intervals = dict(intervals)
        for e in graph.edges:
            n = self.intervals.get(e.id, 0)
            if n < 2:
                raise MeshTooCoarse(f"edge {e.id!r} has {n} cells; need at least 2")

        verts = graph.vertices
        self.vertex_node = {v: k for k, v in enumerate(verts)}
        edges = graph.edges
        ids = [e.id for e in edges]
        counts = [self.intervals[i] for i in ids]
        # grid points summed as Python ints, before any array is built
        if sum(counts) + len(counts) > np.iinfo(np.int64).max:
            raise InvalidDomain("the mesh has more grid points than an int64 index "
                                "can count; the edges are too long for the mesh width")
        n = np.array(counts, dtype=np.int64)
        length = np.array([e.length for e in edges])
        h = length / n
        # Flat layout of the grid points, edge by edge from tail to head:
        # edge k owns points ptr[k] .. ptr[k + 1] - 1.  Interior nodes are
        # numbered after the vertex nodes in that same order.
        ptr = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(n + 1, out=ptr[1:])
        first, last = ptr[:-1], ptr[1:] - 1
        self.n_nodes = len(verts) + int(n.sum()) - len(edges)
        inner = np.ones(ptr[-1], dtype=bool)
        inner[first] = inner[last] = False
        point_node = np.empty(ptr[-1], dtype=np.int64)
        point_node[inner] = np.arange(len(verts), self.n_nodes)
        point_node[first] = [self.vertex_node[e.tail] for e in edges]
        point_node[last] = [self.vertex_node[e.head] for e in edges]
        # j * h with the end pinned to the length: what np.linspace computes
        x = (np.arange(ptr[-1]) - np.repeat(first, n + 1)) * np.repeat(h, n + 1)
        x[last] = length
        point_node.flags.writeable = x.flags.writeable = False
        self._point_node = point_node
        self._ptr = ptr.tolist()
        spans = list(zip(ids, self._ptr, self._ptr[1:]))
        self.edge_nodes: dict[str, np.ndarray] = {
            i: point_node[lo:hi] for i, lo, hi in spans}
        self.edge_x: dict[str, np.ndarray] = {i: x[lo:hi] for i, lo, hi in spans}
        self.edge_h: dict[str, float] = dict(zip(ids, h.tolist()))

        # one entry per cell (start node, end node, width): a cell joins each
        # point to the next one on the same edge
        joins = np.ones(ptr[-1] - 1, dtype=bool)
        joins[last[:-1]] = False
        self._cell_start = point_node[:-1][joins]
        self._cell_end = point_node[1:][joins]
        self._cell_h = np.repeat(h, n)

        self.dirichlet_nodes = np.array(
            sorted(self.vertex_node[v] for v in verts
                   if graph.condition(v) == DIRICHLET), dtype=np.int64)
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.dirichlet_nodes] = False
        self.free_nodes = np.nonzero(mask)[0]
        # Dirichlet nodes are vertices, so the free-node vector lists the free
        # vertices first, then every edge's interior nodes in edge order.
        self.free_vertices = len(verts) - self.dirichlet_nodes.size
        self._stiffness = None
        self._lumped_mass = None

    @property
    def stiffness(self) -> sp.csr_matrix:
        """Full P1 stiffness matrix (Dirichlet rows not yet eliminated)."""
        if self._stiffness is None:
            a, b = self._cell_start, self._cell_end
            w = 1.0 / self._cell_h
            self._stiffness = sp.coo_matrix(
                (np.concatenate([w, w, -w, -w]),
                 (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                shape=(self.n_nodes, self.n_nodes)).tocsr()
        return self._stiffness

    @property
    def lumped_mass(self) -> np.ndarray:
        """Diagonal of the lumped mass matrix (trapezoid weights per edge)."""
        if self._lumped_mass is None:
            # each cell adds half its width to its two ends in turn, so every
            # node sums its weights in edge order
            ends = np.column_stack((self._cell_start, self._cell_end)).ravel()
            self._lumped_mass = np.bincount(
                ends, weights=np.repeat(0.5 * self._cell_h, 2), minlength=self.n_nodes)
        return self._lumped_mass

    def reduced_operators(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """(stiffness, lumped mass) restricted to non-Dirichlet nodes."""
        f = self.free_nodes
        return self.stiffness[f][:, f], self.lumped_mass[f]

    @cached_property
    def _couplings(self):
        """Where the interior block of a reduced operator meets the vertices.

        Returns (rows, cols, slot, ends): each free edge end's coupling entry
        sits at interior row ``rows`` (counted from the first interior node)
        and free vertex ``cols``; ``slot`` is 0 at a tail and 1 at a head.
        ``ends[i]`` holds the free tail and head of interior row i's edge,
        ``free_vertices`` where the end is pinned.  A 2-cell self-loop's one
        interior node couples to its vertex through a single entry, kept as
        the tail's.
        """
        nv = self.free_vertices
        free_vertex = np.full(len(self.vertex_node), nv)
        free_vertex[self.free_nodes[:nv]] = np.arange(nv)
        ptr = np.array(self._ptr)
        ends = free_vertex[self._point_node[np.column_stack((ptr[:-1], ptr[1:] - 1))]]
        tail, head = ends.T
        n = np.diff(ptr) - 2    # interior nodes per edge
        lo = np.cumsum(n) - n
        hi = lo + n - 1
        t = tail < nv
        h = (head < nv) & ~((lo == hi) & (head == tail))
        rows = np.concatenate((lo[t], hi[h]))
        cols = np.concatenate((tail[t], head[h]))
        slot = np.repeat([0, 1], [np.count_nonzero(t), np.count_nonzero(h)])
        return rows, cols, slot, np.repeat(ends, n, axis=0)

    def min_intervals(self) -> int:
        return min(self.intervals.values())


def factor_spd(b: sp.spmatrix, what: str):
    """Sparse LU of a symmetric positive definite matrix, diagonal pivots only.

    CondensedLU calls it on the vertex complement S of a reduced operator,
    which is SPD (and an M-matrix) whenever the operator is.  Gaussian
    elimination on an SPD matrix in any symmetric order needs no pivoting:
    every Schur complement is SPD again, so each diagonal pivot is positive
    and no entry grows beyond the largest of ``b`` (growth factor at most 1),
    which makes the elimination backward stable.  So the ordering is a
    symmetric minimum degree on the pattern of ``b``, with the column order
    applied to the rows as well and the diagonal always taken as the pivot.
    """
    try:
        return spla.splu(b.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise LinearSolveFailure(f"{what} factorization failed: {exc}") from exc


class CondensedLU:
    """Factor of a reduced operator B with the edge interiors condensed out.

    B is ``A_ff``, ``M_ff + dt A_ff`` or any matrix of their pattern that is
    symmetric positive definite; every entry is read from B.  In the free
    numbering of GraphMesh, B = [[B_VV, C^T], [C, T]] with T the interior
    block: tridiagonal, with no entry between consecutive edges, and C the
    interior-vertex coupling, one entry per free edge end.  T is factored by
    LAPACK's dpttrf (T = L D L^T), G = T^-1 C takes one dpttrs with two
    right-hand sides (every edge's tail coupling in one, its head coupling
    in the other, since the edge blocks are independent), and the vertex
    complement S = B_VV - C^T G, SPD and small, goes to factor_spd.  A
    solve is one dpttrs and one SuperLU solve: y = T^-1 r_I, then
    x_V = S^-1 (r_V - C^T y) and x_I = y - G x_V.
    """

    def __init__(self, mesh: GraphMesh, b: sp.spmatrix, what: str):
        b = b.tocsr()
        nv = mesh.free_vertices
        d = b.diagonal()[nv:]
        # f2py asks for one superdiagonal entry even when T is 1 x 1
        e = b.diagonal(1)[nv:] if d.size > 1 else np.zeros(1)
        self._d, self._e, info = dpttrf(d, e)
        if info != 0:
            raise LinearSolveFailure(
                f"{what} factorization failed: LAPACK dpttrf info {info}")
        self._nv = nv
        self.schur = None
        if nv == 0:
            return
        rows, cols, slot, ends = mesh._couplings
        c = np.asarray(b[rows + nv, cols]).ravel()
        couple = np.zeros((d.size, 2))
        couple[rows, slot] = c
        g, _ = dpttrs(self._d, self._e, couple)
        keep = ends < nv
        self._g = sp.csr_matrix((g[keep], (np.nonzero(keep)[0], ends[keep])),
                                shape=(d.size, nv))
        self._ct = sp.csr_matrix((c, (cols, rows)), shape=(nv, d.size))
        self.schur = factor_spd(b[:nv, :nv] - self._ct @ self._g, what)

    def solve(self, r: np.ndarray) -> np.ndarray:
        nv = self._nv
        y, _ = dpttrs(self._d, self._e, r[nv:])
        if self.schur is None:
            return y
        xv = self.schur.solve(r[:nv] - self._ct @ y)
        return np.concatenate((xv, y - self._g @ xv))


@dataclass
class Field:
    """A sampled function on a GraphMesh, one value per shared node."""

    mesh: GraphMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} nodal values, got {self.values.shape}")

    def on_edge(self, edge_id: str) -> tuple[np.ndarray, np.ndarray]:
        return self.mesh.edge_x[edge_id], self.values[self.mesh.edge_nodes[edge_id]]

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min_value(self) -> float:
        return float(np.min(self.values))

    def copy(self) -> "Field":
        return Field(self.mesh, self.values.copy())

    def pin_dirichlet(self) -> None:
        self.values[self.mesh.dirichlet_nodes] = 0.0


def constant_field(mesh: GraphMesh, value: float) -> Field:
    f = Field(mesh, np.full(mesh.n_nodes, float(value)))
    f.pin_dirichlet()
    return f


def field_from_function(mesh: GraphMesh, fn) -> Field:
    """Sample ``fn(edge_id, x_array) -> u_array`` on every edge.

    Vertex nodes receive the average of the incident edge-end samples.
    """
    u = np.empty(mesh._point_node.size)
    for e, lo, hi in zip(mesh.graph.edges, mesh._ptr, mesh._ptr[1:]):
        u[lo:hi] = fn(e.id, mesh.edge_x[e.id])
    acc = np.bincount(mesh._point_node, weights=u, minlength=mesh.n_nodes)
    cnt = np.bincount(mesh._point_node, minlength=mesh.n_nodes)
    f = Field(mesh, acc / np.maximum(cnt, 1.0))
    f.pin_dirichlet()
    return f


def field_from_profiles(mesh: GraphMesh, profiles: dict) -> Field:
    """Interpolate per-edge (x, u) sample arrays onto the mesh nodes."""
    def fn(edge_id, x):
        if edge_id not in profiles:
            raise InvalidDomain(f"the profile has no samples for edge {edge_id!r}")
        xp, up = profiles[edge_id]
        return np.interp(x, xp, up)
    return field_from_function(mesh, fn)


def free_energy(field: Field) -> float:
    """Discrete H(u) = 1/2 int (u')^2 - u^2 + 1/3 int u^3.

    The gradient term is the exact Dirichlet energy of the piecewise-linear
    interpolant (equivalently, one-sided differences per cell); the bulk
    terms use the lumped mass weights.
    """
    u = field.values
    m = field.mesh.lumped_mass
    grad2 = float(u @ (field.mesh.stiffness @ u))
    return 0.5 * grad2 - 0.5 * float(m @ (u * u)) + float(m @ (u ** 3)) / 3.0
