"""Discretization: shared-node grids, operators, fields, discrete energy."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf, dpttrs

from fkpp_graphs.errors import InvalidDomain, LinearSolveFailure, MeshTooCoarse
from fkpp_graphs.graph import (
    Edge,
    FlowerSpec,
    MetricGraph,
    flower_graph,
    validate,
)
from fkpp_graphs.mesh import (
    PROFILE_SPAN_RTOL,
    CondensedLU,
    Field,
    GraphMesh,
    constant_field,
    factor_spd,
    field_from_function,
    field_from_profiles,
    free_energy,
)
from fkpp_graphs.evolve import run_to_attractor


def test_interval_counts_follow_mesh_h():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.5)
    assert len(mesh.edge_nodes["stem"]) - 1 == 4
    assert mesh.n_nodes == 5
    assert np.all(np.diff(mesh.edge_x["stem"]) == 0.5)
    assert np.allclose(mesh.edge_x["stem"], [0.0, 0.5, 1.0, 1.5, 2.0])


def test_node_sharing_on_a_tadpole():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    mesh = GraphMesh(g, mesh_h=0.25)
    assert {e: len(n) - 1 for e, n in mesh.edge_nodes.items()} == {"stem": 4, "loop1": 6}
    # 2 vertices + 3 + 5 interior nodes
    assert mesh.n_nodes == 10
    stem = mesh.edge_nodes["stem"]
    loop = mesh.edge_nodes["loop1"]
    # the free vertex c is node 0, the interior nodes follow in edge order
    # and the Dirichlet vertex b is last; the stem head and both loop ends
    # are the same shared center node
    assert stem.tolist() == [9, 1, 2, 3, 0]
    assert loop.tolist() == [0, 4, 5, 6, 7, 8, 0]
    assert mesh.dirichlet_nodes.tolist() == [9]
    assert mesh.free_vertices == 1 and mesh.n_free == mesh.n_nodes - 1


def test_mesh_too_coarse():
    with pytest.raises(MeshTooCoarse):
        GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=-0.1)


# Only counts past int64 here: a mesh that could be allocated might not fit
# in memory.
@pytest.mark.parametrize("graph,mesh_h", [
    (flower_graph(FlowerSpec(1e200, (0.5,))), 0.1),
    (flower_graph(FlowerSpec(1e-300, (5e299,))), 2e-3),
    (flower_graph(FlowerSpec(1e306, (0.5,))), 1e-3),      # the ratio is inf
    (flower_graph(FlowerSpec(1.0, (0.5,))), 2.0 ** -63),  # the stem has 2**63 cells
    # each loop's 2**62 cells fit; only the sum overflows
    (flower_graph(FlowerSpec(1e-10, (0.5, 0.5))), 2.0 ** -62),
], ids=["stem-1e200", "loop-1e300", "ratio-inf", "count-2^63", "sum-past-2^63"])
def test_mesh_counts_past_int64_are_invalid(graph, mesh_h):
    with pytest.raises(InvalidDomain, match="int64"):
        GraphMesh(graph, mesh_h)


def test_stiffness_is_symmetric_with_zero_row_sums():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75, 0.5)))
    mesh = GraphMesh(g, mesh_h=0.1)
    a = mesh.stiffness
    assert abs(a - a.T).max() == 0.0
    ones = np.ones(mesh.n_nodes)
    assert np.max(np.abs(a @ ones)) <= 1e-12


def test_lumped_mass_total_is_graph_length():
    g = flower_graph(FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5)))
    mesh = GraphMesh(g, mesh_h=0.03)
    assert math.isclose(mesh.lumped_mass.sum(), g.total_length(), rel_tol=1e-13)
    assert np.all(mesh.lumped_mass > 0.0)


def test_reduced_stiffness_is_positive_definite():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    a, m = GraphMesh(g, mesh_h=0.05).reduced_operators()
    assert abs(a - a.T).max() <= 1e-14
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(a.shape[0])
        assert x @ (a @ x) > 0.0
    assert m.shape == (a.shape[0],)


def test_field_shape_is_checked():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.25)
    with pytest.raises(ValueError):
        Field(mesh, np.zeros(3))


def test_constant_field_pins_dirichlet():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.25)
    f = constant_field(mesh, 0.7)
    # the Dirichlet vertex b, the stem's tail, is the last node
    b = mesh.edge_nodes["stem"][0]
    assert b == mesh.n_nodes - 1 and f.values[b] == 0.0
    assert f.sup_norm == 0.7
    assert f.min_value() == 0.0
    c = Field(mesh, f.values.copy())
    c.values[:] = 0.0
    assert f.sup_norm == 0.7


def test_field_from_function_averages_vertex_samples():
    g = flower_graph(FlowerSpec(stem=1.0, loop_halves=(0.5,)))
    mesh = GraphMesh(g, mesh_h=0.25)

    def fn(edge_id, x):
        return np.full_like(x, 1.0 if edge_id == "stem" else 4.0)

    f = field_from_function(mesh, fn)
    # center collects one stem sample and the two loop ends; the free
    # vertex c is node 0 and the Dirichlet vertex b the last node
    b, c = mesh.edge_nodes["stem"][[0, -1]]
    assert (b, c) == (mesh.n_nodes - 1, 0)
    assert math.isclose(f.values[c], 3.0)
    assert f.values[b] == 0.0


def test_field_from_profiles_exact_on_linear_data():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.1)
    xs = np.linspace(0.0, 2.0, 7)
    f = field_from_profiles(mesh, {"stem": (xs, 0.25 * xs)})
    x, u = f.on_edge("stem")
    assert np.max(np.abs(u - 0.25 * x)) <= 1e-15


def test_field_from_profiles_needs_x_to_span_the_edge():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.1)
    # x may miss either end by PROFILE_SPAN_RTOL of the length, and no more
    for rtol, ok in ((0.5 * PROFILE_SPAN_RTOL, True), (2.0 * PROFILE_SPAN_RTOL, False)):
        for x0, x1 in ((2.0 * rtol, 2.0), (0.0, 2.0 * (1.0 - rtol)), (0.0, 2.0 * (1.0 + rtol))):
            profile = {"stem": (np.array([x0, x1]), np.zeros(2))}
            if ok:
                field_from_profiles(mesh, profile)
            else:
                with pytest.raises(InvalidDomain, match="'stem'.*span the edge"):
                    field_from_profiles(mesh, profile)


def test_free_energy_of_zero_field():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=2.0)), mesh_h=0.1)
    assert free_energy(constant_field(mesh, 0.0)) == 0.0


def test_free_energy_second_order_against_closed_form():
    # u = sin(pi x / (2L)) on [0, L]:
    #   int (u')^2 = pi^2/(8L), int u^2 = L/2, int u^3 = 4L/(3 pi)
    L = 2.0
    exact = math.pi ** 2 / (16.0 * L) - L / 4.0 + 4.0 * L / (9.0 * math.pi)
    g = flower_graph(FlowerSpec(stem=L))

    def sample(h):
        mesh = GraphMesh(g, mesh_h=h)
        f = field_from_function(
            mesh, lambda eid, x: np.sin(math.pi * x / (2.0 * L)))
        return abs(free_energy(f) - exact)

    e1, e2 = sample(0.02), sample(0.01)
    assert e1 <= 1e-3
    assert 3.4 <= e1 / e2 <= 4.6


def per_edge_reference(graph, mesh_h):
    """The edge-by-edge assembly GraphMesh replaced, kept as an oracle.

    Returns (vertex_node, edge_nodes, edge_x, edge_h, stiffness, lumped
    mass, and the node values field_from_function gives cos(x + length)),
    built one edge at a time with np.add.at.  Vertices are numbered from a
    dict in order of first appearance: the free ones from 0, then every
    edge's interior nodes in edge order, then the Dirichlet ones.
    """
    seen = dict.fromkeys([*(v for e in graph.edges for v in (e.tail, e.head)),
                          *graph.conditions])
    free = [v for v in seen if graph.condition(v) != "dirichlet"]
    pinned = [v for v in seen if graph.condition(v) == "dirichlet"]
    cells = {e.id: max(2, int(np.ceil(e.length / mesh_h))) for e in graph.edges}
    n_free = len(free) + sum(n - 1 for n in cells.values())
    vertex_node = {v: k for k, v in enumerate(free)}
    vertex_node.update((v, n_free + k) for k, v in enumerate(pinned))
    nxt = len(free)
    edge_nodes, edge_x, edge_h = {}, {}, {}
    for e in graph.edges:
        n = cells[e.id]
        idx = np.empty(n + 1, dtype=np.int64)
        idx[0] = vertex_node[e.tail]
        idx[-1] = vertex_node[e.head]
        idx[1:-1] = np.arange(nxt, nxt + n - 1)
        nxt += n - 1
        edge_nodes[e.id] = idx
        edge_x[e.id] = np.linspace(0.0, e.length, n + 1)
        edge_h[e.id] = e.length / n
    rows, cols, vals = [], [], []
    size = n_free + len(pinned)
    m = np.zeros(size)
    acc = np.zeros(size)
    cnt = np.zeros(size)
    for e in graph.edges:
        idx = edge_nodes[e.id]
        w = 1.0 / edge_h[e.id]
        a, b = idx[:-1], idx[1:]
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [np.full(a.size, w), np.full(a.size, w),
                 np.full(a.size, -w), np.full(a.size, -w)]
        half = 0.5 * edge_h[e.id]
        np.add.at(m, a, half)
        np.add.at(m, b, half)
        np.add.at(acc, idx, np.cos(edge_x[e.id] + e.length))
        np.add.at(cnt, idx, 1.0)
    stiffness = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size)).tocsr()
    return vertex_node, edge_nodes, edge_x, edge_h, stiffness, m, acc / cnt


@st.composite
def multigraphs(draw):
    """Connected multigraphs with self-loops, parallel edges and a pendant."""
    n = draw(st.integers(1, 7))
    length = st.one_of(st.floats(0.05, 0.3), st.floats(0.3, 4.0))
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=8))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    edges = []
    for k, (i, j) in enumerate(pairs):
        if draw(st.booleans()):
            i, j = j, i
        edges.append(Edge(f"e{k}", f"v{i}", f"v{j}", draw(length)))
    pinned = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    for k, i in enumerate(pinned):
        edges.append(Edge(f"p{k}", f"d{k}", f"v{i}", draw(length)))
    conditions = {f"d{k}": "dirichlet" for k in range(len(pinned))}
    return MetricGraph(tuple(draw(st.permutations(edges))), conditions)


@settings(max_examples=150, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]))
def test_array_assembly_matches_per_edge_reference(graph, mesh_h):
    mesh = GraphMesh(graph, mesh_h=mesh_h)
    _, nodes, xs, hs, stiffness, mass, avg = per_edge_reference(graph, mesh_h)
    assert mesh.n_nodes == mass.size
    for e in graph.edges:
        assert np.array_equal(mesh.edge_nodes[e.id], nodes[e.id])
        assert np.array_equal(mesh.edge_x[e.id], xs[e.id])
        assert mesh.edge_x[e.id][1] == hs[e.id]
    assert abs(mesh.stiffness - stiffness).max() <= 1e-14 * abs(stiffness).max()
    assert np.max(np.abs(mesh.lumped_mass - mass)) <= 1e-14 * np.max(mass)
    lengths = {e.id: e.length for e in graph.edges}
    f = field_from_function(mesh, lambda eid, x: np.cos(x + lengths[eid]))
    avg[mesh.dirichlet_nodes] = 0.0
    assert np.max(np.abs(f.values - avg)) <= 1e-14


def reference_ingest(graph, mesh_h):
    """The dict-per-vertex numbering GraphMesh replaced, kept as an oracle.

    Returns (vertices, degrees, vertex_node, intervals, free, A_ff,
    m_f): vertices in order of first appearance, per_edge_reference's
    vertex nodes, counts from max(2, ceil(min(length / h, 2**63))) per
    edge, the nodes that are not Dirichlet vertices, and the reduced
    operators sliced at those nodes from a full COO assembly in the order
    the full-node stiffness has always used (every cell's w, w, -w, -w in
    edge order).
    """
    seen = {}
    for e in graph.edges:
        seen.setdefault(e.tail)
        seen.setdefault(e.head)
    for v in graph.conditions:
        seen.setdefault(v)
    vertices = list(seen)
    degrees = {v: sum((e.tail == v) + (e.head == v) for e in graph.edges) for v in vertices}
    intervals = {e.id: max(2, math.ceil(min(e.length / mesh_h, 2.0 ** 63)))
                 for e in graph.edges}
    vertex_node, nodes, _, hs, _, mass, _ = per_edge_reference(graph, mesh_h)
    pinned = {vertex_node[v] for v in vertices if graph.condition(v) == "dirichlet"}
    free = np.array([k for k in range(mass.size) if k not in pinned])
    a = np.concatenate([nodes[e.id][:-1] for e in graph.edges])
    b = np.concatenate([nodes[e.id][1:] for e in graph.edges])
    w = np.concatenate([np.full(intervals[e.id], 1.0 / hs[e.id]) for e in graph.edges])
    full = sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                          (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                         shape=(mass.size, mass.size)).tocsr()
    return vertices, degrees, vertex_node, intervals, free, full[free][:, free], mass[free]


@settings(max_examples=150, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]))
def test_edge_table_numbers_the_mesh_as_the_vertex_dicts_did(graph, mesh_h):
    vertices, degrees, vertex_node, intervals, free, a_ref, m_ref = reference_ingest(graph, mesh_h)
    report = validate(graph)
    assert list(report.vertices) == vertices
    degree = np.bincount(report.ends.ravel(), minlength=len(vertices))
    assert dict(zip(vertices, degree.tolist())) == degrees
    mesh = GraphMesh(graph, mesh_h=mesh_h)
    # vertex v is node vertex_node[v]: at every edge end, and where pinned
    for e in graph.edges:
        assert mesh.edge_nodes[e.id][[0, -1]].tolist() == [vertex_node[e.tail],
                                                           vertex_node[e.head]]
    assert mesh.dirichlet_nodes.tolist() == sorted(
        vertex_node[v] for v in vertices if graph.condition(v) == "dirichlet")
    assert {e.id: len(mesh.edge_nodes[e.id]) - 1 for e in graph.edges} == intervals
    # the free nodes are the first n_free
    assert free.tolist() == list(range(mesh.n_free))
    a, m = mesh.reduced_operators()
    assert np.array_equal(a.indptr, a_ref.indptr) and np.array_equal(a.indices, a_ref.indices)
    assert same_bits(a.data, a_ref.data) and same_bits(m, m_ref)


@settings(max_examples=150, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]))
def test_free_nodes_come_first(graph, mesh_h):
    mesh = GraphMesh(graph, mesh_h=mesh_h)
    nv, n = mesh.free_vertices, mesh.n_free
    for e in graph.edges:
        nodes = mesh.edge_nodes[e.id]
        for v, node in ((e.tail, nodes[0]), (e.head, nodes[-1])):
            if graph.condition(v) == "dirichlet":
                assert node >= n
            else:
                assert node < nv
        assert np.all((nv <= nodes[1:-1]) & (nodes[1:-1] < n))
    assert np.all(mesh.dirichlet_nodes >= n)
    # every node is some grid point's
    assert np.array_equal(np.unique(np.concatenate(list(mesh.edge_nodes.values()))),
                          np.arange(mesh.n_nodes))
    v = np.zeros(mesh.n_nodes)
    assert np.shares_memory(mesh.free_values(v), v)
    assert mesh.free_values(v).size == n


@st.composite
def energy_meshes(draw):
    """multigraphs() meshes, or one edge between two Dirichlet vertices (no
    free vertex); mesh width 0.35 gives the short edges 2 cells."""
    mesh_h = draw(st.sampled_from([0.04, 0.1, 0.35]))
    if draw(st.integers(0, 4)):
        return GraphMesh(draw(multigraphs()), mesh_h=mesh_h)
    edge = Edge("e0", "a", "b", draw(st.floats(0.05, 4.0)))
    return GraphMesh(MetricGraph((edge,), {"a": "dirichlet", "b": "dirichlet"}), mesh_h=mesh_h)


@settings(max_examples=150, deadline=None)
@given(mesh=energy_meshes(), seed=st.integers(0, 2**32 - 1), smooth=st.booleans())
def test_cell_energy_is_the_stiffness_quadratic_form(mesh, seed, smooth):
    rng = np.random.default_rng(seed)
    if smooth:    # neighbouring values nearly cancel in the stiffness rows
        k = rng.uniform(0.1, 2.0)
        u = field_from_function(mesh, lambda eid, x: 1.0 + np.cos(k * x)).values
    else:
        u = rng.uniform(0.0, 2.0, mesh.n_nodes)
        u[mesh.dirichlet_nodes] = 0.0
    uf, n = mesh.free_values(u), mesh.n_free
    # with zero mass, energy() is half the per-cell Dirichlet energy exactly
    got = 2.0 * mesh.energy(uf, np.zeros(n), np.empty(n))
    a = mesh.stiffness
    ref = float(u @ (a @ u))
    # both sums carry at most about n_nodes roundings of |u|^T |A| |u|
    scale = float(np.abs(u) @ (abs(a) @ np.abs(u)))
    assert abs(got - ref) <= 4.0 * mesh.n_nodes * np.finfo(float).eps * scale
    assert free_energy(Field(mesh, u)) == mesh.energy(uf, mesh.lumped_mass[:n], np.empty(n))

    _, m_ff = mesh.vertex_rows
    lu = CondensedLU(mesh, m_ff, 0.1, "test")
    r = rng.uniform(-1.0, 1.0, n)
    want = lu.solve(r)
    buf = np.full(n, np.nan)
    assert lu.solve(r, out=buf) is buf and same_bits(buf, want)
    strided = np.full((n, 2), np.nan)
    assert same_bits(lu.solve(r, out=strided[:, 0]), want)
    assert lu.solve(r, out=r) is r and same_bits(r, want)


@settings(max_examples=150, deadline=None)
@given(mesh=energy_meshes(), seed=st.integers(0, 2**32 - 1), smooth=st.booleans())
def test_stencil_product_matches_the_sliced_stiffness(mesh, seed, smooth):
    rng = np.random.default_rng(seed)
    if smooth:    # neighbouring values nearly cancel in the stencil
        k = rng.uniform(0.1, 2.0)
        y = mesh.free_values(field_from_function(mesh, lambda eid, x: 1.0 + np.cos(k * x)).values)
    else:
        y = rng.uniform(-1.0, 1.0, mesh.n_free)
    a, _ = mesh.reduced_operators()
    diag = mesh.stiffness_diagonal()
    assert same_bits(diag, a.diagonal())
    ya = np.abs(y)
    abs_ay = abs(a) @ ya
    # either side of a row rounds about once per entry of the row, plus twice
    tol = 2.0 * (np.diff(a.indptr) + 2) * np.finfo(float).eps * abs_ay
    assert np.all(np.abs(mesh.stiffness_product(y) - a @ y) <= tol)
    # |A| |y| = 2 diag(A) |y| - A |y|, since every off-diagonal entry is negative
    assert np.all(np.abs(2.0 * diag * ya - mesh.stiffness_product(ya) - abs_ay) <= tol)


def shifted_operators(a, m, dt):
    """(shift, scale, B) for A_ff and M_ff + dt A_ff, B built by scipy."""
    return ((0.0, 1.0, a), (m, dt, sp.diags(m) + dt * a))


def assert_backward_stable(mesh, shift, scale, op, rhs):
    """CondensedLU(shift, scale) solves op x = rhs to a 1e-12 backward error."""
    lu = CondensedLU(mesh, shift, scale, "test")
    if mesh.free_vertices:
        # the vertex complement: symmetric ordering with diagonal pivots
        assert np.array_equal(lu.schur.perm_r, lu.schur.perm_c)
    else:
        assert lu.schur is None
    x = lu.solve(rhs)
    # normwise relative residual (backward error) in the inf-norm
    norm = abs(op).sum(axis=1).max()
    res = np.max(np.abs(op @ x - rhs))
    assert res <= 1e-12 * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def assert_condensed_solves(mesh, dt, seed):
    """CondensedLU solves A_ff and M_ff + dt A_ff to a 1e-12 backward error."""
    a, m = mesh.reduced_operators()
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, m.size)
    for shift, scale, op in shifted_operators(a, m, dt):
        assert_backward_stable(mesh, shift, scale, op, rhs)


@settings(max_examples=100, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]),
       dt=st.sampled_from([1e-3, 0.1, 0.99]), seed=st.integers(0, 2**32 - 1))
def test_spd_factor_solves_the_reduced_operators(graph, mesh_h, dt, seed):
    assert_condensed_solves(GraphMesh(graph, mesh_h=mesh_h), dt, seed)


def coo_condensed_solve(mesh, b, r):
    """CondensedLU as it was first written, kept as an oracle: G and C^T
    built through COO from an n x 2 table of each interior row's free edge
    ends, then the same tridiagonal and vertex-complement solves."""
    b = b.tocsr()
    nv = mesh.free_vertices
    d, e, _ = dpttrf(b.diagonal()[nv:], b.diagonal(1)[nv:] if b.shape[0] > nv + 1
                     else np.zeros(1))
    y, _ = dpttrs(d, e, r[nv:])
    if nv == 0:
        return y
    # free vertex k is node k; a pinned end reads nv
    blocks = [np.tile([min(int(nodes[0]), nv), min(int(nodes[-1]), nv)], (nodes.size - 2, 1))
              for nodes in (mesh.edge_nodes[edge.id] for edge in mesh.graph.edges)]
    ends = np.concatenate(blocks)
    # each edge's tail couples to its first row (slot 0) and its head to its
    # last (slot 1); a 2-cell self-loop's one entry is the tail's
    rows, cols, slot = [], [], []
    lo = 0
    for block in blocks:
        hi = lo + len(block)
        tail, head = block[0]
        for row, v, s in ((lo, tail, 0), (hi - 1, head, 1)):
            if v < nv and not (s == 1 and hi - lo == 1 and head == tail):
                rows.append(row)
                cols.append(v)
                slot.append(s)
        lo = hi
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    c = np.asarray(b[rows + nv, cols]).ravel()
    couple = np.zeros((d.size, 2))
    couple[rows, slot] = c
    g, _ = dpttrs(d, e, couple)
    keep = ends < nv
    gm = sp.csr_matrix((g[keep], (np.nonzero(keep)[0], ends[keep])), shape=(d.size, nv))
    ct = sp.csr_matrix((c, (cols, rows)), shape=(nv, d.size))
    xv = factor_spd(b[:nv, :nv] - ct @ gm, "reference").solve(r[:nv] - ct @ y)
    return np.concatenate((xv, y - gm @ xv))


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_assembly_is_exact(mesh, dt, seed):
    """The vertex rows, the mass, the diagonal and the condensed solves against
    the sliced full-node assembly, bit for bit."""
    rows, m = mesh.vertex_rows
    a, m_ref = mesh.reduced_operators()
    ref = a[:mesh.free_vertices]
    for got, want in ((rows.indptr, ref.indptr), (rows.indices, ref.indices),
                      (rows.data, ref.data), (m, m_ref),
                      (mesh.stiffness_diagonal(), a.diagonal())):
        assert same_bits(got, want)
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, m.size)
    for shift, scale, op in shifted_operators(a, m, dt):
        assert same_bits(CondensedLU(mesh, shift, scale, "test").solve(rhs),
                         coo_condensed_solve(mesh, op, rhs))


@settings(max_examples=100, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]),
       dt=st.sampled_from([1e-3, 0.1, 0.99]), seed=st.integers(0, 2**32 - 1))
def test_reduced_assembly_is_the_sliced_full_assembly_bit_for_bit(graph, mesh_h, dt, seed):
    assert_assembly_is_exact(GraphMesh(graph, mesh_h=mesh_h), dt, seed)


def test_reduced_assembly_is_exact_at_a_vertex_of_high_degree():
    # past 16 entries a vertex row is sorted by introsort, not insertion sort,
    # so the order in which its diagonal sums its cells is scipy's own
    rng = np.random.default_rng(0)
    edges = [Edge(f"e{k}", "c", f"l{k}", float(rng.uniform(0.1, 2.0))) for k in range(40)]
    edges += [Edge(f"s{k}", "c", "c", float(rng.uniform(0.1, 2.0))) for k in range(12)]
    edges += [Edge(f"x{k}", f"l{k}", "c", float(rng.uniform(0.1, 2.0))) for k in range(20)]
    edges += [Edge("p0", "d0", "c", 0.7), Edge("p1", "l3", "d1", 0.4)]
    graph = MetricGraph(tuple(edges), {"d0": "dirichlet", "d1": "dirichlet"})
    for mesh_h in (0.013, 0.3):
        assert_assembly_is_exact(GraphMesh(graph, mesh_h=mesh_h), 0.1, 1)


def test_reduced_assembly_is_exact_when_every_vertex_row_comes_sorted():
    # both vertex rows come in column order, 18 and 20 entries long; scipy
    # still sorts them in the full stiffness, and introsort moves b's 26.67
    # cell after its 28s, which changes the rounding of b's diagonal
    edges = [Edge("e0", "a", "b", 0.1875)] + [Edge(f"e{k}", "a", "b", 0.25) for k in range(1, 9)]
    graph = MetricGraph(tuple(edges) + (Edge("p", "d", "a", 0.25),), {"d": "dirichlet"})
    assert_assembly_is_exact(GraphMesh(graph, mesh_h=0.04), 1e-3, 0)


def seeded_tree(n_edges, seed):
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, np.arange(1, n_edges + 1))
    lengths = rng.uniform(0.25, 0.75, n_edges)
    edges = tuple(Edge(f"e{k}", f"v{parents[k - 1]}", f"v{k}", float(lengths[k - 1]))
                  for k in range(1, n_edges + 1))
    return MetricGraph(edges, {f"v{n_edges}": "dirichlet"})


def peak_bytes(run):
    """(peak, result): tracemalloc's peak in bytes while run() runs, and what
    run() returns.  Every peak-memory test measures through this."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def mesh_and_factor(graph):
    mesh = GraphMesh(graph, mesh_h=0.05)
    _, m = mesh.vertex_rows
    return m.size, CondensedLU(mesh, 0.0, 1.0, "test")


# Peak bytes per free unknown of GraphMesh + vertex_rows + CondensedLU, the
# commands' path, on a 2000-edge tree (about 21,000 unknowns): about 385 when
# the full-node stiffness was built, sliced and cached, about 195 with A_ff
# assembled straight into CSR, about 136 (later 143) with no A_ff formed,
# about 91 with T factored in place and G built from its unpinned entries
# alone, and about 75 with the free-node index and the interior weights'
# chain built only when read: either of them back fails the bound.
PEAK_BYTES_PER_UNKNOWN = 82


def test_mesh_and_factor_peak_memory_per_unknown():
    graph = seeded_tree(2000, 5)
    graph.validation
    peak, (n, lu) = peak_bytes(lambda: mesh_and_factor(graph))
    assert lu.schur is not None
    assert peak / n <= PEAK_BYTES_PER_UNKNOWN


# shapes multigraphs() never draws: no free vertex at all, and edges of two
# cells (one interior node, a 1 x 1 tridiagonal block)
@pytest.mark.parametrize("edges,conditions,mesh_h,cells", [
    ([("e0", "a", "b", 2.0)], ("a", "b"), 0.05, [40]),
    ([("e0", "a", "b", 0.1)], ("a", "b"), 0.05, [2]),
    ([("e0", "a", "v", 1.0), ("e1", "v", "w", 0.3)], ("a",), 0.2, [5, 2]),
    ([("e0", "a", "v", 1.0), ("e1", "v", "v", 0.4)], ("a",), 0.2, [5, 2]),
    ([("e0", "a", "v", 1.0), ("e1", "v", "w", 0.3), ("e2", "w", "w", 0.4),
      ("e3", "w", "b", 0.2)], ("a", "b"), 0.5, [2, 2, 2, 2]),
], ids=["two-dirichlet", "two-dirichlet-2-cells", "2-cell-pendant",
        "2-cell-self-loop", "all-2-cells"])
@pytest.mark.parametrize("dt", [1e-3, 0.99])
def test_condensed_factor_on_edge_cases(edges, conditions, mesh_h, cells, dt):
    graph = MetricGraph(tuple(Edge(*e) for e in edges),
                        {v: "dirichlet" for v in conditions})
    mesh = GraphMesh(graph, mesh_h)
    assert [len(mesh.edge_nodes[e.id]) - 1 for e in graph.edges] == cells
    assert_condensed_solves(mesh, dt, 3)
    assert_factor_is_the_sentinel_construction(mesh, dt)


def sentinel_factor(mesh, shift, scale):
    """(d, e, G) of CondensedLU as it once built them: T's diagonal sliced
    from the full diagonal and factored by a copying dpttrf; G from one
    C-ordered two-column solve, every interior row's tail entry (column 0)
    and head entry (column 1), a pinned end in the sentinel column nv,
    duplicates summed by scipy, and column nv sliced off."""
    nv = mesh.free_vertices
    n, first, last, w = mesh._interiors
    e = 0.0 - scale * mesh._chain
    d, e, _ = dpttrf((mesh.stiffness_diagonal() * scale + shift)[nv:],
                     e if e.size else np.zeros(1))
    couple = np.zeros((d.size, 2))
    couple[first, 0] = couple[last, 1] = w * -scale
    g, _ = dpttrs(d, e, couple)
    g = sp.csr_matrix((g.ravel(), np.repeat(mesh._ends, n, axis=0).ravel(),
                       np.arange(0, 2 * d.size + 1, 2)), shape=(d.size, nv + 1))
    g.sum_duplicates()
    return d, e, g[:, :nv]


def assert_factor_is_the_sentinel_construction(mesh, dt):
    """T's factor and G of both operators equal sentinel_factor's exactly."""
    _, m = mesh.vertex_rows
    for shift, scale in ((0.0, 1.0), (m, dt)):
        lu = CondensedLU(mesh, shift, scale, "test")
        d, e, g = sentinel_factor(mesh, shift, scale)
        assert same_bits(lu._d, d) and same_bits(lu._e, e)
        if mesh.free_vertices == 0:
            assert lu.schur is None
            continue
        assert lu._g.shape == g.shape
        assert same_bits(lu._g.data, g.data)
        for got, want in ((lu._g.indices, g.indices), (lu._g.indptr, g.indptr)):
            assert np.array_equal(got.astype(np.int64), want.astype(np.int64))


@settings(max_examples=100, deadline=None)
@given(graph=multigraphs(), mesh_h=st.sampled_from([0.04, 0.1, 0.35]),
       dt=st.sampled_from([1e-3, 0.1, 0.99]))
def test_g_is_the_sentinel_construction(graph, mesh_h, dt):
    assert_factor_is_the_sentinel_construction(GraphMesh(graph, mesh_h=mesh_h), dt)


def test_condensed_factor_rejects_an_indefinite_interior():
    mesh = GraphMesh(flower_graph(FlowerSpec(stem=1.0)), mesh_h=0.25)
    with pytest.raises(LinearSolveFailure, match="dpttrf"):
        CondensedLU(mesh, 0.0, -1.0, "test")


def test_a_mixed_sign_shift_solves_the_newton_jacobian():
    # A - diag(m (1 - 2u*)) at the positive state evolve reaches: the shift is
    # negative where u* < 1/2 and positive where u* > 1/2
    graph = MetricGraph((Edge("e0", "d", "a", 2.0), Edge("e1", "a", "b", 1.5),
                         Edge("e2", "a", "a", 0.7)), {"d": "dirichlet"})
    mesh = GraphMesh(graph, mesh_h=0.05)
    u = mesh.free_values(run_to_attractor(constant_field(mesh, 0.5)).final.values)
    a, m = mesh.reduced_operators()
    shift = -m * (1.0 - 2.0 * u)
    assert shift.min() < 0.0 < shift.max()
    rhs = np.random.default_rng(11).uniform(-1.0, 1.0, m.size)
    assert_backward_stable(mesh, shift, 1.0, a + sp.diags(shift), rhs)


@pytest.mark.parametrize("graph,mesh_h,narrow", [
    (flower_graph(FlowerSpec(2.0, (1e-8 / 2,))), 0.1, "loop1"),
    (flower_graph(FlowerSpec(1e-300, (0.5,))), 0.1, "stem"),
    (MetricGraph((Edge("e0", "d", "a", 2.0), Edge("e1", "a", "b", 1.5),
                  Edge("e2", "a", "p", 1e-15)), {"d": "dirichlet"}), 0.1, "e2"),
    (MetricGraph((Edge("e0", "d", "a", 2.0), Edge("e1", "a", "a", 1.0),
                  Edge("e2", "a", "b", 1e-9), Edge("e3", "b", "b", 1.0)),
                 {"d": "dirichlet"}), 0.1, "e2"),
    # wide cells, not a tiny edge: 4 cells of 1e6 on the stem, 2 of 0.5 on the loop
    (flower_graph(FlowerSpec(4e6, (0.5,))), 1e6, "loop1"),
], ids=["tiny-loop", "tiny-stem", "tiny-pendant", "tiny-bridge", "coarse-stem"])
def test_cells_too_uneven_are_refused(graph, mesh_h, narrow):
    mesh = GraphMesh(graph, mesh_h)    # sampling needs no solve
    with pytest.raises(MeshTooCoarse, match=f"edge {narrow!r} has cells"):
        mesh.vertex_rows
    with pytest.raises(MeshTooCoarse, match=f"edge {narrow!r} has cells"):
        CondensedLU(mesh, 0.0, 1.0, "test")
