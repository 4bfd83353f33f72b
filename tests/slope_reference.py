"""The Hadamard identity for the discretized lambda0, computed on the test side.

For a simple eigenvalue, d lambda / d length of one edge equals
-(psi'^2 + lambda psi^2) on that edge, with psi L2-normalized.  The quantity
is constant along the edge because psi'' = -lambda psi, so it is read at the
edge's middle cell, which is second order.
"""

from fkpp_graphs.graph import Edge, MetricGraph
from fkpp_graphs.mesh import GraphMesh
from fkpp_graphs.spectral import lambda0_discretized


def length_slopes(graph: MetricGraph, edge_id: str, mesh_h: float) -> tuple[float, float]:
    """(central difference, eigenfunction) values of d lambda0 / d length.

    The central difference moves the named edge by +-1e-4 of its length.
    mesh_h must keep every edge's cell count through that move, so that the
    difference is smooth; the counts are asserted equal.
    """
    def cells(g):
        mesh = GraphMesh(g, mesh_h)
        return {e.id: len(mesh.edge_nodes[e.id]) - 1 for e in g.edges}

    def with_length(val):
        return MetricGraph(tuple(Edge(e.id, e.tail, e.head, val if e.id == edge_id else e.length)
                                 for e in graph.edges), dict(graph.conditions))

    length = next(e.length for e in graph.edges if e.id == edge_id)
    delta = 1e-4 * length
    plus, minus = with_length(length + delta), with_length(length - delta)
    assert cells(plus) == cells(graph) == cells(minus)
    fd = (lambda0_discretized(plus, mesh_h).lambda0
          - lambda0_discretized(minus, mesh_h).lambda0) / (2.0 * delta)

    base = lambda0_discretized(graph, mesh_h)
    mesh, psi = base.eigenfunction.mesh, base.eigenfunction.values
    idx, x = mesh.edge_nodes[edge_id], mesh.edge_x[edge_id]
    k = (len(idx) - 1) // 2
    dpsi = (psi[idx[k + 1]] - psi[idx[k]]) / (x[k + 1] - x[k])
    pmid = 0.5 * (psi[idx[k + 1]] + psi[idx[k]])
    return fd, -(dpsi * dpsi + base.lambda0 * pmid * pmid)
