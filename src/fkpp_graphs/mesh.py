"""P1 discretization of functions and operators on a metric graph.

Each edge carries a uniform grid; vertices are shared nodes, so a self-loop
contributes a closed chain whose two ends are the same node.  Sharing makes
continuity structural, and assembling the standard stiffness matrix then
yields exactly the ghost-eliminated second-order Kirchhoff rows at interior
vertices: the vertex row is the sum of one-sided differences over incident
edge ends.  The mass matrix is lumped, so it stays diagonal and the scheme
matrix M + dt*A is an M-matrix for any dt > 0.

Nodes are numbered from the integer edge table validation leaves on the
graph (ValidationReport), with no per-edge Python loop, in three blocks:
the free vertices in vertex-table order, every edge's interior nodes in
edge order, then the Dirichlet vertices.  The first two blocks are the
free nodes, so a field's free-node vector is a view of its first
``n_free`` values (GraphMesh.free_values).  Dirichlet vertices are pinned
by row/column elimination; the reduced stiffness A_ff is symmetric
positive definite whenever the graph is connected and has at least one
Dirichlet vertex.  No solve forms A_ff: an edge interior's row is the
stencil [-w, 2w, -w] (w = 1/h) of the per-edge arrays, and
GraphMesh.vertex_rows holds the free-vertex rows, one small CSR, with the
lumped mass m_f.  The full-node ``stiffness`` and ``lumped_mass``, and
reduced_operators sliced from them, are built only when read (tests;
free_energy reads the mass), and so is ``_chain``, the w of each cell
between two interior nodes (only GraphMesh.energy reads it).  CondensedLU
factors B = diag(shift) + scale A_ff with its edge interiors condensed
out: every edge's interior block is tridiagonal and touches the rest only
through its two end vertices.  GraphMesh refuses cells too narrow for
their stiffness 2/h to be a double, and vertex_rows refuses cells more
uneven than CELL_RATIO_CAP, since the condensed solves lose about that
ratio times eps.  The free energy (GraphMesh.energy) takes its gradient
term cell by cell, the sum of (du)^2 / h: the exact Dirichlet energy of the
P1 interpolant, u^T A u without a stiffness product's cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidDomain, LinearSolveFailure, MeshTooCoarse
from .graph import MetricGraph

__all__ = ["GraphMesh", "Field", "field_from_function", "field_from_profiles",
           "constant_field", "free_energy", "factor_spd", "CondensedLU"]

# widest cell over narrowest accepted in one mesh: the condensed solves lose
# about ratio * eps.  From const:0.5 at mesh 0.1 and 0.02, a stem-2 flower
# with one tiny loop and a 3-edge tree with a tiny Kirchhoff pendant ended
# evolve off their short-edge-free limits by a rounding part of at most 6e-9
# at ratio 1e6, 4e-7 at 1e8, 2e-5 at 1e9 and 4e-4 at 1e10; at 2e13 the flower
# ran out of steps, at 2e15 it ended trivial on a nontrivial graph, and from
# 2e16 both factors were singular.  The cap keeps seven decades of margin.
CELL_RATIO_CAP = 1e6
# how far, relative to the edge length, a profile's first and last x may sit
# from 0 and the length: room for x printed to fewer digits, no more
PROFILE_SPAN_RTOL = 1e-9


class GraphMesh:
    """Shared-vertex uniform grids on every edge of a metric graph.

    Each edge has max(2, ceil(length / mesh_h)) cells.  The constructor
    keeps only per-edge and per-vertex numbers; every per-node array is
    built on first use.  ``edge_nodes[edge_id]`` lists the global
    node index of each grid point along the edge, endpoints being the vertex
    nodes; ``edge_nodes`` and ``edge_x`` hold read-only views of one flat
    array each.
    """

    def __init__(self, graph: MetricGraph, mesh_h: float):
        report = graph.validation    # raises on an invalid graph
        self.graph = graph
        edges = graph.edges
        if not mesh_h > 0:
            raise MeshTooCoarse("need a positive mesh_h")
        # a ratio past 2**63 (or inf) cannot be counted by an int64 index
        with np.errstate(over="ignore"):
            ratio = report.lengths / mesh_h
        counts = np.maximum(2.0, np.ceil(np.minimum(ratio, 2.0 ** 63))).tolist()
        # grid points summed as Python ints, before any array is built
        points = sum(map(int, counts)) + len(counts)
        if points > np.iinfo(np.int64).max:
            raise InvalidDomain("the mesh has more grid points than an int64 index "
                                "can count; the edges are too long for the mesh width")
        self._cells = np.array(counts, dtype=np.int64)
        self._h = report.lengths / self._cells
        narrow = self._h.argmin()
        with np.errstate(divide="ignore", over="ignore"):    # h may underflow to 0
            if np.isinf(2.0 / self._h[narrow]):
                raise InvalidDomain(f"edge {edges[narrow].id!r} has cells of width "
                                    f"{self._h[narrow]:.3g}, too narrow for their "
                                    "stiffness 2/h to be held as a double")
        nverts = len(report.vertices)
        self.n_nodes = nverts + points - 2 * len(counts)

        nv = self.free_vertices = nverts - report.dirichlet.size
        self.n_free = self.n_nodes - report.dirichlet.size
        # every field and every solve holds a double per node; past 2**60 nodes
        # their byte count overflows numpy's, which raises ValueError instead
        try:
            np.empty(self.n_nodes)
        except (MemoryError, ValueError) as exc:
            raise InvalidDomain(f"the mesh has {self.n_nodes} nodes, more than "
                                "memory holds; the edges are too long for the mesh "
                                "width") from exc
        self.dirichlet_nodes = np.arange(self.n_free, self.n_nodes)
        # each vertex's node: a free vertex counts the free ones before it,
        # and the Dirichlet ones follow every free node
        free = np.ones(nverts, dtype=np.int64)
        free[report.dirichlet] = 0
        self._vertex_node = np.cumsum(free) - 1
        self._vertex_node[report.dirichlet] = self.dirichlet_nodes
        # each edge's tail and head among the free vertices, nv where pinned
        self._ends = np.minimum(self._vertex_node[report.ends], nv)
        self._stiffness = None
        self._lumped_mass = None

    def free_values(self, values: np.ndarray) -> np.ndarray:
        """A full-node array's free-node vector: a view of its first n_free."""
        return values[:self.n_free]

    @cached_property
    def _interiors(self):
        """(count, first, last, w): per edge, its number of interior nodes,
        the indices of its first and last one among all interior nodes (edge
        order) and w = 1/h.  Edge k's end cells join its tail to node
        first[k] and node last[k] to its head."""
        count = self._cells - 1
        last = np.cumsum(count) - 1
        first = last - count + 1
        return count, first, last, 1.0 / self._h

    def _chained(self, per_edge: np.ndarray) -> np.ndarray:
        """Per cell between interior nodes j and j + 1: its edge's entry of
        ``per_edge``, and 0.0 where one edge ends and the next begins."""
        count, first, _, _ = self._interiors
        out = np.repeat(per_edge, count)[1:]
        out[first[1:] - 1] = 0.0
        return out

    @cached_property
    def _chain(self) -> np.ndarray:
        """w of every cell between interior nodes (``_chained``)."""
        return self._chained(self._interiors[3])

    @cached_property
    def _ptr(self) -> np.ndarray:
        """Edge k owns grid points _ptr[k] .. _ptr[k + 1] - 1, tail to head;
        interior nodes are numbered after the free vertices in that order."""
        ptr = np.zeros(self._cells.size + 1, dtype=np.int64)
        np.cumsum(self._cells + 1, out=ptr[1:])
        return ptr

    @cached_property
    def _point_node(self) -> np.ndarray:
        """Global node of every grid point in the flat layout (read-only)."""
        ptr = self._ptr
        first, last = ptr[:-1], ptr[1:] - 1
        point_node = np.empty(ptr[-1], dtype=np.int64)
        inner = np.ones(ptr[-1], dtype=bool)
        inner[first] = inner[last] = False
        point_node[inner] = np.arange(self.free_vertices, self.n_free)
        point_node[first], point_node[last] = self._vertex_node[self.graph.validation.ends].T
        point_node.flags.writeable = False
        return point_node

    def _spans(self):
        return zip((e.id for e in self.graph.edges), self._ptr, self._ptr[1:])

    @cached_property
    def edge_nodes(self) -> dict[str, np.ndarray]:
        return {i: self._point_node[lo:hi] for i, lo, hi in self._spans()}

    @cached_property
    def edge_x(self) -> dict[str, np.ndarray]:
        ptr = self._ptr
        n = self._cells
        # j * h with the end pinned to the length: what np.linspace computes
        x = (np.arange(ptr[-1]) - np.repeat(ptr[:-1], n + 1)) * np.repeat(self._h, n + 1)
        x[ptr[1:] - 1] = self.graph.validation.lengths
        x.flags.writeable = False
        return {i: x[lo:hi] for i, lo, hi in self._spans()}

    def _cell_list(self):
        """(start node, end node, width) of every cell, edge by edge."""
        point_node = self._point_node
        # a cell joins each point to the next one on the same edge
        joins = np.ones(point_node.size - 1, dtype=bool)
        joins[self._ptr[1:-1] - 1] = False
        return (point_node[:-1][joins], point_node[1:][joins],
                np.repeat(self._h, self._cells))

    @property
    def stiffness(self) -> sp.csr_matrix:
        """Full P1 stiffness matrix (Dirichlet rows not yet eliminated)."""
        if self._stiffness is None:
            a, b, h = self._cell_list()
            w = 1.0 / h
            self._stiffness = sp.coo_matrix(
                (np.concatenate([w, w, -w, -w]),
                 (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                shape=(self.n_nodes, self.n_nodes)).tocsr()
        return self._stiffness

    @property
    def lumped_mass(self) -> np.ndarray:
        """Diagonal of the lumped mass matrix (trapezoid weights per edge)."""
        if self._lumped_mass is None:
            a, b, h = self._cell_list()
            # each cell adds half its width to its two ends in turn, so every
            # node sums its weights in edge order
            self._lumped_mass = np.bincount(
                np.column_stack((a, b)).ravel(), weights=np.repeat(0.5 * h, 2),
                minlength=self.n_nodes)
        return self._lumped_mass

    def reduced_operators(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """(A_ff, m_f): the free-node block of ``stiffness`` and
        ``lumped_mass``, their first n_free rows and columns.  An oracle for
        tests; no solve reads it."""
        n = self.n_free
        return self.stiffness[:n, :n], self.lumped_mass[:n]

    @cached_property
    def vertex_rows(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """(V, m_f): A_ff's free-vertex rows, an nv x n CSR, and the lumped
        mass on the free nodes, bit for bit ``reduced_operators()[0][:nv]``
        and ``reduced_operators()[1]``.  A vertex row sums w over its
        incident cells through scipy's COO summation, as in ``stiffness``,
        so each vertex adds its terms in the same order.  Every solve starts here, so
        MeshTooCoarse is raised here when the widest cell exceeds the
        narrowest by more than CELL_RATIO_CAP.
        """
        width, edges = self._h, self.graph.edges
        wide, narrow = width.argmax(), width.argmin()
        if width[wide] > CELL_RATIO_CAP * width[narrow]:
            with np.errstate(divide="ignore", over="ignore"):    # the ratio may be inf
                raise MeshTooCoarse(
                    f"edge {edges[narrow].id!r} has cells {width[wide] / width[narrow]:.3g} times "
                    f"narrower than edge {edges[wide].id!r}; above {CELL_RATIO_CAP:g} the "
                    "implicit solves lose their accuracy (refine the mesh or drop the short edge)")
        nv = self.free_vertices
        tail, head = self._ends.T
        c, first, last, w = self._interiors
        size = nv + int(c.sum())
        t, h = tail < nv, head < nv
        row = np.concatenate((tail[t], head[h], tail[t], head[h]))
        # each row in input order, as scipy's COO to CSR conversion leaves it
        order = np.argsort(row, kind="stable")
        rows = sp.csr_matrix(
            (np.concatenate((w[t], w[h], -w[t], -w[h]))[order],
             np.concatenate((tail[t], head[h], nv + first[t], nv + last[h]))[order],
             np.searchsorted(row[order], np.arange(nv + 1))),
            shape=(nv, size))
        # ``stiffness`` always has unsorted (interior) rows, so scipy sorts
        # every row of it before summing, and past 16 entries that sort may
        # reorder a row's equal columns; sort every vertex row likewise, even
        # when they all come sorted
        rows.has_sorted_indices = False
        rows.sum_duplicates()
        half = 0.5 * self._h
        m = np.empty(size)
        # each edge adds half a cell to its tail, then to its head
        m[:nv] = np.bincount(self._ends.ravel(), weights=np.repeat(half, 2),
                             minlength=nv + 1)[:nv]
        m[nv:] = np.repeat(half + half, c)
        return rows, m

    def stiffness_diagonal(self) -> np.ndarray:
        """diag(A_ff): the vertex rows' diagonal, then 2w on each interior node."""
        c, _, _, w = self._interiors
        return np.concatenate((self.vertex_rows[0].diagonal(), np.repeat(w + w, c)))

    def stiffness_product(self, y: np.ndarray) -> np.ndarray:
        """A_ff y: the vertex rows' product, then 2w y_j - w y_left - w y_right
        on each interior node, its edge's end values (0 where pinned) beyond
        its first and last one; rounded as a CSR product of A_ff rounds, but
        on an edge's last row, whose CSR sums its head first."""
        nv = self.free_vertices
        c, first, last, w = self._interiors
        yi = y[nv:]
        ends = np.append(y[:nv], 0.0)[self._ends]
        left = np.concatenate(([0.0], yi[:-1]))
        left[first] = ends[:, 0]
        right = np.concatenate((yi[1:], [0.0]))
        right[last] = ends[:, 1]
        w = np.repeat(w, c)
        return np.concatenate((self.vertex_rows[0] @ y, (w + w) * yi - w * left - w * right))

    def energy(self, u: np.ndarray, m: np.ndarray, work: np.ndarray) -> float:
        """H = 1/2 int (u')^2 - u^2 + 1/3 int u^3 of the P1 field that is u on
        the free nodes and 0 at the pinned ones; m is their lumped mass and
        ``work`` scratch of u's size.

        The gradient term is the exact Dirichlet energy of the interpolant,
        the sum over cells of (du)^2 / h from node differences: the
        stiffness matrix is never read.
        """
        _, first, last, w = self._interiors
        nv = self.free_vertices
        ui = u[nv:]
        d = work[:ui.size - 1]
        np.subtract(ui[1:], ui[:-1], out=d)
        d *= d
        uv = np.append(u[:nv], 0.0)     # pinned ends (index nv) read 0
        tail, head = self._ends.T
        d_tail, d_head = ui[first] - uv[tail], uv[head] - ui[last]
        grad2 = float(self._chain @ d) + float(w @ (d_tail * d_tail + d_head * d_head))
        np.multiply(u, u, out=work)
        mass2 = float(m @ work)
        work *= u
        return 0.5 * grad2 - 0.5 * mass2 + float(m @ work) / 3.0

    def min_intervals(self) -> int:
        return int(self._cells.min())


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
    """Factor of B = diag(shift) + scale A_ff with the edge interiors condensed out.

    A_ff is read from the mesh, never formed: its diagonal and interior
    stencil from the per-edge arrays, its vertex rows from
    GraphMesh.vertex_rows.  ``shift`` is a free-node vector or a scalar:
    (0, 1) gives A_ff, (m_f, dt) the implicit step's M_ff + dt A_ff.  B must
    be symmetric positive definite.  In the free numbering of GraphMesh,
    B = [[B_VV, C^T], [C, T]] with T the interior block: tridiagonal, with
    no entry between consecutive edges, and C the interior-vertex coupling,
    -scale w at each edge's first interior row (its tail) and last (its
    head).  B_VV is diagonal, since every edge has an interior node.  The
    factor and the solve work in place: LAPACK's dpttrf factors
    T = L D L^T in the buffers that hold its diagonal and off-diagonal, and
    one dpttrs overwrites its two right-hand sides with G = T^-1 C (every
    edge's coupling to its lower end column in one, to its higher in the
    other, since the edge blocks are independent).  C^T is the vertex rows'
    interior block, scaled.  G's CSR takes only the entries at free
    vertices, each row's lower column first and a self-loop's two summed,
    and the dense solve is freed before the vertex complement
    S = B_VV - C^T G, SPD and small, goes to factor_spd.
    A solve is one dpttrs and one SuperLU solve: y = T^-1 r_I, then
    x_V = S^-1 (r_V - C^T y) and x_I = y - G x_V.
    """

    def __init__(self, mesh: GraphMesh, shift, scale: float, what: str):
        nv = mesh.free_vertices
        rows = mesh.vertex_rows[0]    # raises MeshTooCoarse
        n, first, last, w = mesh._interiors
        # T's diagonal, scale 2w + shift, and -scale chain, but +0.0 between
        # consecutive edges: -0.0 there would flip the sign of some zeros that
        # a solve returns.  f2py asks for one superdiagonal entry even when T
        # is 1 x 1.  dpttrf factors both in place.
        d = np.repeat(w + w, n)
        size = d.size
        shift = np.broadcast_to(shift, (nv + size,))
        d *= scale
        d += shift[nv:]
        e = mesh._chained(w * scale) if size > 1 else np.zeros(1)
        np.subtract(0.0, e, out=e)
        self._d, self._e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
        if info != 0:
            raise LinearSolveFailure(
                f"{what} factorization failed: LAPACK dpttrf info {info}")
        self._nv = nv
        self.schur = None
        if nv == 0:
            return
        self._ct = scale * rows[:, nv:]
        # Row by row, G holds its edge's lower end column, then its higher
        # one; a pinned end (numbered nv, above every free one) is left out
        # and a self-loop's two entries are summed.  So right-hand side 0
        # holds each edge's coupling to its lower end and 1 to its higher:
        # the edge blocks of T are independent, so an edge solves alike in
        # either column.
        tail, head = mesh._ends.T
        ends = np.sort(mesh._ends, axis=1)
        swap = (tail > head).astype(np.intp)
        g = np.zeros((size, 2), order="F")
        g[first, swap] = g[last, 1 - swap] = w * -scale
        g, _ = dpttrs(self._d, self._e, g, overwrite_b=True)
        loop = (tail == head) & (tail < nv)
        np.add(g[:, 0], g[:, 1], out=g[:, 0], where=np.repeat(loop, n))
        # an edge's rows keep its lower end if free, and its higher end if
        # free and not the lower one
        kept = np.column_stack((ends[:, 0] < nv, (ends[:, 1] < nv) & ~loop))
        keep = np.repeat(kept, n, axis=0)
        # a row-major copy, since masking the column-major solve is several
        # times slower; the solve is freed before the mask copies again
        data = np.ascontiguousarray(g)
        del g
        data = data[keep]
        idx = np.int32 if 2 * size <= np.iinfo(np.int32).max else np.int64
        indices = np.repeat(ends.astype(idx), n, axis=0)[keep]
        del keep
        indptr = np.zeros(size + 1, dtype=idx)
        np.cumsum(np.repeat(kept.sum(axis=1, dtype=idx), n), out=indptr[1:])
        self._g = sp.csr_matrix((data, indices, indptr), shape=(size, nv))
        b_vv = sp.diags(rows.diagonal() * scale + shift[:nv], format="csr")
        self.schur = factor_spd(b_vv - self._ct @ self._g, what)

    def solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x with B x = r, written into ``out`` when given (``out`` may be r)."""
        nv = self._nv
        if out is None:
            out = np.empty(r.shape)
        y = out[nv:]
        if out is not r:
            y[...] = r[nv:]
        x, _ = dpttrs(self._d, self._e, y, overwrite_b=True)
        if x is not y:      # a strided out: dpttrs solved a copy
            y[...] = x
        if self.schur is not None:
            xv = self.schur.solve(r[:nv] - self._ct @ y)
            out[:nv] = xv
            y -= self._g @ xv
        return out


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

    def pin_dirichlet(self) -> None:
        self.values[self.mesh.n_free:] = 0.0


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
    """Interpolate per-edge (x, u) sample arrays onto the mesh nodes.

    Each edge's x must be nondecreasing numbers, as np.interp needs, and
    span the edge: start at 0 and end at its length, to a relative
    PROFILE_SPAN_RTOL of that length.  Every profile this package writes
    pins both ends exactly.
    """
    def fn(edge_id, x):
        if edge_id not in profiles:
            raise InvalidDomain(f"the profile has no samples for edge {edge_id!r}")
        xp, up = profiles[edge_id]
        xp = np.asarray(xp)
        if np.isnan(xp).any() or (xp[1:] < xp[:-1]).any():
            raise InvalidDomain(f"the profile's x samples on edge {edge_id!r} decrease "
                                "or are NaN; x must run from the edge's tail to its head")
        length = float(x[-1])    # edge_x ends at the edge length exactly
        x0, x1 = float(xp[0]), float(xp[-1])
        slack = PROFILE_SPAN_RTOL * length
        if not (abs(x0) <= slack and abs(x1 - length) <= slack):
            raise InvalidDomain(f"the profile's x samples on edge {edge_id!r} run from "
                                f"{x0!r} to {x1!r}; they must span the edge, 0 to {length!r}")
        return np.interp(x, xp, up)
    return field_from_function(mesh, fn)


def free_energy(field: Field) -> float:
    """Discrete H(u) = 1/2 int (u')^2 - u^2 + 1/3 int u^3 (GraphMesh.energy).

    The gradient term is the exact Dirichlet energy of the piecewise-linear
    interpolant, a sum over cells of (du)^2 / h; the bulk terms use the
    lumped mass weights.  Dirichlet nodes count as 0, the value every
    field holds there once pinned.
    """
    mesh = field.mesh
    u = mesh.free_values(field.values)
    return mesh.energy(u, mesh.free_values(mesh.lumped_mass), np.empty(u.size))
