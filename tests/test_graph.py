"""Graph construction, validation and flower recognition."""

import math
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkpp_graphs.graph as graph_module
from fkpp_graphs.errors import (
    DisconnectedGraph,
    InvalidDomain,
    NonpositiveLength,
    NoPendant,
)
from fkpp_graphs.graph import (
    Edge,
    FlowerSpec,
    MetricGraph,
    as_flower,
    flower_from_totals,
    flower_graph,
    graph_from_dict,
    graph_from_json,
    validate,
)


def theta_graph():
    # two vertices joined by three parallel edges plus a Dirichlet pendant
    return MetricGraph(
        edges=(
            Edge("e0", "a", "v", 0.3),
            Edge("e1", "v", "w", 1.0),
            Edge("e2", "v", "w", 1.2),
            Edge("e3", "v", "w", 0.7),
        ),
        conditions={"a": "dirichlet"},
    )


def test_flower_spec_basics():
    spec = FlowerSpec(stem=0.8, loop_halves=(0.75, 0.5))
    assert spec.n_loops == 2
    assert spec.loop_halves == (0.75, 0.5)
    assert FlowerSpec(stem=1.0).n_loops == 0


@pytest.mark.parametrize("stem,halves", [
    (0.0, ()),
    (-1.0, ()),
    (1.0, (0.0,)),
    (1.0, (0.5, -0.1)),
])
def test_flower_spec_rejects_nonpositive_lengths(stem, halves):
    with pytest.raises(NonpositiveLength):
        FlowerSpec(stem=stem, loop_halves=halves)


def test_flower_graph_structure():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75, 0.5)))
    ids = [e.id for e in g.edges]
    assert ids == ["stem", "loop1", "loop2"]
    assert g.edges[1].length == 1.5  # stored as total length
    assert g.edges[1].tail == g.edges[1].head == "c"
    assert g.condition("b") == "dirichlet"
    assert g.condition("c") == "kirchhoff"
    # self-loops count twice toward the degree
    report = validate(g)
    assert report.vertices == ("b", "c")
    assert np.bincount(report.ends.ravel()).tolist() == [1, 5]
    assert math.isclose(g.total_length(), 0.8 + 1.5 + 1.0)


def test_interval_graph_is_a_loopless_flower():
    g = flower_graph(FlowerSpec(stem=2.0))
    assert len(g.edges) == 1
    report = validate(g)
    assert [report.vertices[k] for k in report.dirichlet.tolist()] == ["b"]
    assert as_flower(g) == FlowerSpec(stem=2.0)


def test_as_flower_round_trip():
    spec = FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5, 0.3))
    assert as_flower(flower_graph(spec)) == spec


def test_as_flower_ignores_labels():
    g = MetricGraph(
        edges=(
            Edge("x", "root", "hub", 0.8),
            Edge("y", "hub", "hub", 1.5),
        ),
        conditions={"root": "dirichlet"},
    )
    spec = as_flower(g)
    assert spec is not None
    assert spec.stem == 0.8
    assert spec.loop_halves == (0.75,)


def test_as_flower_rejects_other_shapes():
    assert as_flower(theta_graph()) is None
    # a path pinned at both ends has two Dirichlet pendants
    path = MetricGraph(
        edges=(Edge("e0", "a", "m", 1.0), Edge("e1", "m", "z", 1.0)),
        conditions={"a": "dirichlet", "z": "dirichlet"},
    )
    assert as_flower(path) is None
    # invalid graphs are not flowers either
    assert as_flower(MetricGraph(edges=())) is None


def test_validate_theta_graph():
    report = validate(theta_graph())
    assert report.vertices == ("a", "v", "w")
    assert report.dirichlet.tolist() == [0]
    assert np.bincount(report.ends.ravel()).tolist() == [1, 4, 3]


def test_validate_rejects_empty_graph():
    with pytest.raises(DisconnectedGraph):
        validate(MetricGraph(edges=()))


@pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
def test_validate_rejects_bad_lengths(bad):
    # one rule for graph edges, FlowerSpec and the flower shorthand alike
    g = MetricGraph(edges=(Edge("e0", "a", "v", bad),),
                    conditions={"a": "dirichlet"})
    with pytest.raises(NonpositiveLength, match="^edge 'e0' has length"):
        validate(g)
    for make in (lambda: FlowerSpec(bad), lambda: FlowerSpec(1.0, (0.5, bad)),
                 lambda: flower_from_totals(bad), lambda: flower_from_totals(1.0, [bad])):
        with pytest.raises(NonpositiveLength, match="must be positive and finite"):
            make()


def test_validate_rejects_unknown_condition():
    g = MetricGraph(edges=(Edge("e0", "a", "v", 1.0),),
                    conditions={"a": "robin"})
    with pytest.raises(InvalidDomain):
        validate(g)


def test_validate_rejects_duplicate_edge_ids():
    g = MetricGraph(edges=(Edge("e", "a", "v", 1.0), Edge("e", "v", "w", 1.0)),
                    conditions={"a": "dirichlet"})
    with pytest.raises(InvalidDomain, match="duplicate edge id 'e'"):
        validate(g)
    # a default id e{k} can collide with an explicit one
    g = graph_from_dict({
        "edges": [{"from": "a", "to": "v", "length": 1.0},
                  {"id": "e0", "from": "v", "to": "w", "length": 1.0}],
        "conditions": {"a": "dirichlet"},
    })
    with pytest.raises(InvalidDomain, match="duplicate edge id 'e0'"):
        validate(g)


def test_validate_rejects_disconnected_graph():
    g = MetricGraph(
        edges=(Edge("e0", "a", "v", 1.0), Edge("e1", "x", "y", 1.0)),
        conditions={"a": "dirichlet"},
    )
    with pytest.raises(DisconnectedGraph):
        validate(g)


def test_validate_requires_a_dirichlet_pendant():
    g = MetricGraph(edges=(Edge("e0", "a", "v", 1.0),))
    with pytest.raises(NoPendant):
        validate(g)
    # Dirichlet at an interior vertex is rejected
    g = MetricGraph(
        edges=(Edge("e0", "a", "v", 1.0), Edge("e1", "v", "w", 1.0)),
        conditions={"v": "dirichlet"},
    )
    with pytest.raises(NoPendant):
        validate(g)


def test_graph_from_dict_flower_form_halves_totals():
    g = graph_from_dict({"flower": {"stem": 0.8, "loops": [1.5, 1.0]}})
    spec = as_flower(g)
    assert spec == FlowerSpec(stem=0.8, loop_halves=(0.75, 0.5))


def test_graph_from_dict_edge_form():
    g = graph_from_dict({
        "edges": [
            {"id": "stem", "from": "b", "to": "c", "length": 0.8},
            {"from": "c", "to": "c", "length": 1.5},
        ],
        "conditions": {"b": "Dirichlet"},
    })
    assert g.edges[1].id == "e1"  # auto-assigned
    assert g.condition("b") == "dirichlet"  # case-insensitive
    assert as_flower(g) == FlowerSpec(stem=0.8, loop_halves=(0.75,))


@pytest.mark.parametrize("data", [
    [],
    {"flower": {"loops": [1.0]}},
    {"flower": {"stem": 1.0, "loops": 2.0}},
    {"nodes": []},
    {"edges": [{"from": "a", "length": 1.0}]},
    {"edges": [{"from": "a", "to": "b", "length": "long"}]},
    # JSON integers past a double's range
    {"edges": [{"from": "a", "to": "b", "length": 10 ** 400}]},
    {"flower": {"stem": 10 ** 400}},
])
def test_graph_from_dict_rejects_malformed_input(data):
    with pytest.raises(InvalidDomain):
        graph_from_dict(data)


def test_graph_from_json():
    g = graph_from_json('{"flower": {"stem": 2.0, "loops": []}}')
    assert as_flower(g) == FlowerSpec(stem=2.0)
    with pytest.raises(InvalidDomain):
        graph_from_json("{not json")
    with pytest.raises(InvalidDomain):
        graph_from_json('"just a string"')


def test_as_flower_does_not_hide_internal_errors(monkeypatch):
    def broken(graph):
        raise KeyError("v")

    monkeypatch.setattr(graph_module, "validate", broken)
    with pytest.raises(KeyError):
        as_flower(flower_graph(FlowerSpec(stem=1.0)))


def test_as_flower_still_rejects_invalid_graphs():
    assert as_flower(MetricGraph((Edge("e", "a", "b", 1.0),))) is None


def test_validate_is_linear_in_graph_size():
    # a path of 2e4 edges: the degree table used to cost O(V*E), about 20 s
    n = 20_000
    g = MetricGraph(tuple(Edge(f"e{k}", f"v{k}", f"v{k + 1}", 1.0) for k in range(n)),
                    {"v0": "dirichlet"})
    start = time.perf_counter()
    report = validate(g)
    assert time.perf_counter() - start < 5.0
    degree = dict(zip(report.vertices, np.bincount(report.ends.ravel()).tolist()))
    assert degree["v0"] == degree[f"v{n}"] == 1
    assert degree["v1"] == 2


def test_validate_of_a_disconnected_graph_is_linear_in_graph_size():
    # two paths of 1e4 edges each
    n = 10_000
    g = MetricGraph(tuple(Edge(f"{c}{k}", f"{c}{k}", f"{c}{k + 1}", 1.0)
                          for c in "vw" for k in range(n)), {"v0": "dirichlet"})
    start = time.perf_counter()
    with pytest.raises(DisconnectedGraph) as info:
        validate(g)
    assert time.perf_counter() - start < 5.0
    assert str(info.value).startswith("vertices unreachable from 'v0': ['w0', 'w1', 'w10', ")


@st.composite
def split_multigraphs(draw):
    """Multigraphs of 1-3 components with self-loops, parallel edges, and
    vertices that only a condition names (components of their own)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    names = [f"v{k}" for k in draw(st.permutations(range(sum(sizes))))]
    length = st.floats(0.1, 2.0)
    pairs, conditions, first = [], {}, 0
    for c, size in enumerate(sizes):
        part = names[first:first + size]
        first += size
        if size == 1 and c and draw(st.booleans()):
            conditions[part[0]] = draw(st.sampled_from(["dirichlet", "kirchhoff"]))
            continue
        # a spanning tree, then self-loops and parallel edges inside the part
        pairs += [(part[draw(st.integers(0, k - 1))], part[k]) for k in range(1, size)]
        pairs += draw(st.lists(st.tuples(st.sampled_from(part), st.sampled_from(part)),
                               min_size=1 if size == 1 else 0, max_size=4))
    pairs = draw(st.permutations(pairs))
    edges = tuple(Edge(f"e{k}", *(ab[::-1] if draw(st.booleans()) else ab), draw(length))
                  for k, ab in enumerate(pairs))
    for v in draw(st.lists(st.sampled_from(names), max_size=3)):
        conditions[v] = draw(st.sampled_from(["dirichlet", "kirchhoff"]))
    return MetricGraph(edges, conditions)


def _unreachable(graph):
    """The vertices a breadth-first search from the first edge's tail misses."""
    neighbours = {v: set() for v in graph.conditions}
    for e in graph.edges:
        neighbours.setdefault(e.tail, set()).add(e.head)
        neighbours.setdefault(e.head, set()).add(e.tail)
    seen = {graph.edges[0].tail}
    queue = deque(seen)
    while queue:
        for w in neighbours[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    return sorted(set(neighbours) - seen)


@settings(max_examples=300, deadline=None)
@given(graph=split_multigraphs())
def test_validate_finds_the_components_a_search_finds(graph):
    missing = _unreachable(graph)
    if missing:
        with pytest.raises(DisconnectedGraph) as info:
            validate(graph)
        assert str(info.value) == \
            f"vertices unreachable from {graph.edges[0].tail!r}: {missing}"
    else:
        try:
            validate(graph)
        except NoPendant:    # connected, but its Dirichlet vertices are not pendant
            pass


def _edges(*ends, ids=None):
    return [{"id": f"e{k}" if ids is None else ids[k], "from": a, "to": b, "length": ell}
            for k, (a, b, ell) in enumerate(ends)]


# Each bad graph with the class and message it has always raised: the array
# checks keep the per-edge checks' order and wording.
@pytest.mark.parametrize("data,error,message", [
    ({"edges": []}, DisconnectedGraph, "graph has no edges"),
    ({"edges": _edges(("a", "v", 1.0), ("v", "w", 0.0)), "conditions": {"a": "dirichlet"}},
     NonpositiveLength, "edge 'e1' has length 0.0; lengths must be positive and finite"),
    ({"edges": _edges(("a", "v", -1.0), ("v", "w", math.nan))},
     NonpositiveLength, "edge 'e0' has length -1.0; lengths must be positive and finite"),
    ({"edges": _edges(("a", "v", 1.0), ("v", "w", math.inf))},
     NonpositiveLength, "edge 'e1' has length inf; lengths must be positive and finite"),
    ({"edges": _edges(("a", "v", 1.0), ("v", "w", 0.0), ids=["e0", "e0"])},
     NonpositiveLength, "edge 'e0' has length 0.0; lengths must be positive and finite"),
    ({"edges": _edges(("a", "v", 1.0), ("v", "w", 1.0), ("w", "x", 1.0), ids=["e0", "e1", "e1"]),
      "conditions": {"a": "robin"}},
     InvalidDomain, "duplicate edge id 'e1'; edge ids must be unique"),
    ({"edges": _edges(("a", "v", 1.0)), "conditions": {"a": "dirichlet", "q": "robin"}},
     InvalidDomain, "unknown condition 'robin' at vertex 'q'"),
    ({"edges": _edges(("a", "v", 1.0), ("x", "y", 1.0), ("y", "b", 1.0)),
      "conditions": {"a": "dirichlet"}},
     DisconnectedGraph, "vertices unreachable from 'a': ['b', 'x', 'y']"),
    ({"edges": _edges(("a", "v", 1.0)),
      "conditions": {"a": "dirichlet", "z": "kirchhoff", "c": "dirichlet"}},
     DisconnectedGraph, "vertices unreachable from 'a': ['c', 'z']"),
    ({"edges": _edges(("a", "v", 1.0), ("x", "x", 1.0))},
     DisconnectedGraph, "vertices unreachable from 'a': ['x']"),
    ({"edges": _edges(("a", "v", 1.0))},
     NoPendant, "no Dirichlet vertex; the zero boundary set is empty"),
    ({"edges": _edges(("a", "v", 1.0), ("v", "v", 1.0), ("w", "v", 1.0)),
      "conditions": {"w": "Dirichlet", "v": "dirichlet"}},
     NoPendant, "Dirichlet vertex 'v' has degree 4; Dirichlet vertices must be pendant"),
    ({"edges": _edges(("a", "v", 1.0), ("b", "v", 1.0), ("b", "w", 1.0)),
      "conditions": {"b": "dirichlet", "a": "dirichlet"}},
     NoPendant, "Dirichlet vertex 'b' has degree 2; Dirichlet vertices must be pendant"),
    ({"edges": 5, "conditions": {"a": "dirichlet"}},
     InvalidDomain, '"edges" must be a list of edge objects'),
    ({"edges": [5], "conditions": {"a": "dirichlet"}},
     InvalidDomain, "bad edge entry 5: not an object"),
    ({"edges": _edges(("a", "v", 1.0)), "conditions": ["a"]},
     InvalidDomain, '"conditions" must map vertices to conditions'),
    ({"edges": [{"id": "e0", "to": "v", "length": 1.0}]},
     InvalidDomain, "bad edge entry {'id': 'e0', 'to': 'v', 'length': 1.0}: 'from'"),
    ({"edges": [{"from": "a", "to": "b", "length": "long"}]},
     InvalidDomain, "bad edge entry {'from': 'a', 'to': 'b', 'length': 'long'}: could not "
                    "convert string to float: 'long'"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_bad_graphs_keep_their_error_and_message(data, error, message):
    with pytest.raises(error) as info:
        validate(graph_from_dict(data))
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_validation_report_carries_the_edge_table():
    g = theta_graph()
    report = validate(g)
    # first appearance as a tail or head, then as a condition key
    assert report.vertices == ("a", "v", "w")
    index = {v: k for k, v in enumerate(report.vertices)}
    assert report.ends.tolist() == [[index[e.tail], index[e.head]] for e in g.edges]
    assert report.lengths.tolist() == [e.length for e in g.edges]
    assert report.dirichlet.tolist() == [index["a"]]
    assert not report.ends.flags.writeable
