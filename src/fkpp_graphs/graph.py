"""Compact metric graphs and the flower subclass.

A metric graph is a combinatorial graph whose edges carry positive lengths;
self-loops and parallel edges are allowed.  Vertices are either ``dirichlet``
(the state is pinned to zero there; must be pendant, i.e. degree one) or
``kirchhoff`` (continuity plus zero total outward flux; a degree-one
kirchhoff vertex is a plain Neumann end).

A *flower* is the one-pendant special case the exact machinery handles: a
stem from the Dirichlet vertex to a center, plus N >= 0 loops attached at the
center.  ``FlowerSpec`` stores the stem length and the loop *half*-lengths;
every user-facing format (JSON shorthand, CLI) takes total loop lengths and
halves them on ingestion.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DisconnectedGraph,
    FisherKppError,
    InvalidDomain,
    NonpositiveLength,
    NoPendant,
)

__all__ = [
    "Edge",
    "MetricGraph",
    "FlowerSpec",
    "ValidationReport",
    "parse_number",
    "flower_from_totals",
    "validate",
    "as_flower",
    "flower_graph",
    "graph_from_dict",
    "graph_from_json",
]

DIRICHLET = "dirichlet"
KIRCHHOFF = "kirchhoff"


class Edge(NamedTuple):
    id: str
    tail: str
    head: str
    length: float


@dataclass(frozen=True)
class MetricGraph:
    """Edges with lengths between named vertices, and a boundary condition
    per vertex.

    Construction is permissive; ``validate`` checks the invariants and
    returns the vertex table.
    """

    edges: tuple[Edge, ...]
    conditions: dict[str, str] = field(default_factory=dict)

    @functools.cached_property
    def validation(self) -> ValidationReport:
        """validate(self), run once per graph: the loader and the mesh share it."""
        return validate(self)

    def condition(self, v: str) -> str:
        return self.conditions.get(v, KIRCHHOFF)

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)


@dataclass(frozen=True, eq=False)    # arrays have no single truth value
class ValidationReport:
    """The graph's vertex table, the one GraphMesh numbers its nodes by.

    ``vertices`` names each vertex in order of first appearance as an edge's
    tail or head, then as a key of ``conditions``; ``ends[k]`` holds edge k's
    (tail, head) as indices into it, ``lengths[k]`` its length and
    ``dirichlet`` the sorted indices of the Dirichlet vertices.  A vertex's
    degree is its count in ``ends``.  The arrays are read-only.
    """

    vertices: tuple[str, ...]
    ends: np.ndarray
    lengths: np.ndarray
    dirichlet: np.ndarray


def _check_length(length: float, what: str, *args) -> None:
    """NonpositiveLength unless 0 < length < inf; ``what % args`` formats on failure."""
    if not 0.0 < length < math.inf:    # NaN fails both comparisons
        raise NonpositiveLength(f"{what % args} has length {length!r}; lengths "
                                "must be positive and finite")


def validate(graph: MetricGraph) -> ValidationReport:
    """Check the structural invariants, raising on the first violation.

    Raises NonpositiveLength, InvalidDomain (a duplicate edge id or an
    unknown condition), DisconnectedGraph or NoPendant; returns the graph's
    vertex table (see ValidationReport).  Edge ids must be unique
    because meshes, fields and profile CSVs are keyed by them.  Apart from
    numbering the vertices, it works on numpy arrays, and scipy's
    connected_components finds the vertices cut off from the first one.
    """
    edges = graph.edges
    if not edges:
        raise DisconnectedGraph("graph has no edges")
    ids, _, _, lengths = zip(*edges)
    lengths = np.array(lengths, dtype=float)
    if not np.all((lengths > 0.0) & (lengths < math.inf)):
        for e in edges:
            _check_length(e.length, "edge %r", e.id)
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                raise InvalidDomain(f"duplicate edge id {i!r}; edge ids must be unique")
            seen.add(i)
    for v, c in graph.conditions.items():
        if c not in (DIRICHLET, KIRCHHOFF):
            raise InvalidDomain(f"unknown condition {c!r} at vertex {v!r}")

    index: dict[str, int] = {}
    number = index.setdefault
    ends = np.array([number(v, len(index)) for e in edges for v in (e.tail, e.head)],
                    dtype=np.int64).reshape(-1, 2)
    for v in graph.conditions:
        number(v, len(index))
    verts = tuple(index)
    n = len(verts)
    degree = np.bincount(ends.ravel(), minlength=n)

    # imported here, so that importing the CLI loads no scipy
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    # the weak components of the tail -> head graph are the graph's components
    parts, label = connected_components(coo_matrix((np.ones(len(ends)), ends.T), shape=(n, n)))
    if parts > 1:
        missing = sorted(verts[k] for k in np.flatnonzero(label != label[0]).tolist())
        raise DisconnectedGraph(f"vertices unreachable from {verts[0]!r}: {missing}")

    dirichlet = np.array(sorted(index[v] for v, c in graph.conditions.items()
                                if c == DIRICHLET), dtype=np.int64)
    if not dirichlet.size:
        raise NoPendant("no Dirichlet vertex; the zero boundary set is empty")
    for k in dirichlet.tolist():
        if degree[k] != 1:
            raise NoPendant(
                f"Dirichlet vertex {verts[k]!r} has degree {degree[k]}; Dirichlet "
                "vertices must be pendant (degree one)")

    for a in (ends, lengths, dirichlet):
        a.flags.writeable = False
    return ValidationReport(verts, ends, lengths, dirichlet)


@dataclass(frozen=True)
class FlowerSpec:
    """Stem length plus loop half-lengths of a one-pendant flower."""

    stem: float
    loop_halves: tuple[float, ...] = ()

    def __post_init__(self):
        _check_length(self.stem, "the stem")
        for j, h in enumerate(self.loop_halves, start=1):
            _check_length(h, "the half of loop %d", j)
        object.__setattr__(self, "loop_halves", tuple(float(h) for h in self.loop_halves))

    @property
    def n_loops(self) -> int:
        return len(self.loop_halves)


def _float(value) -> float:
    """float(value), but a TypeError on a bool: JSON's true is not the length 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def parse_number(value, what: str) -> float:
    """float(value), raising InvalidDomain when value is not a number."""
    try:
        return _float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidDomain(f"{what} must be a number, got {value!r}") from None


def flower_from_totals(stem, loop_totals=()) -> FlowerSpec:
    """FlowerSpec from the shorthand's stem length and total loop lengths."""
    return FlowerSpec(parse_number(stem, "stem"),
                      tuple(parse_number(t, "loop length") / 2.0 for t in loop_totals))


def flower_graph(spec: FlowerSpec) -> MetricGraph:
    """Expand a FlowerSpec into an explicit MetricGraph.

    Edge ids: "stem" from the Dirichlet vertex "b" to the center "c", then
    "loop1".. as self-loops at "c" with length twice the half-length.
    """
    edges = [Edge("stem", "b", "c", float(spec.stem))]
    for j, h in enumerate(spec.loop_halves, start=1):
        edges.append(Edge(f"loop{j}", "c", "c", 2.0 * h))
    return MetricGraph(tuple(edges), {"b": DIRICHLET, "c": KIRCHHOFF})


def as_flower(graph: MetricGraph) -> FlowerSpec | None:
    """Recognize a flower up to relabeling; None when the shape is different.

    A valid graph is a flower exactly when it has two vertices, one of them
    Dirichlet: that vertex is pendant, so its one edge is the stem, and
    every other edge is a loop at the other vertex.
    """
    try:
        report = graph.validation
    except FisherKppError:
        return None
    if len(report.vertices) != 2 or report.dirichlet.size != 1:
        return None
    lengths = [e.length for e in graph.edges]
    stem = lengths.pop(int(np.flatnonzero(report.ends == report.dirichlet[0])[0]) // 2)
    return FlowerSpec(stem=stem, loop_halves=tuple(x / 2.0 for x in lengths))


def graph_from_dict(data: dict) -> MetricGraph:
    """Build a graph from the JSON object form.

    Two shapes are accepted:

      {"edges": [{"id": "e1", "from": "v0", "to": "v1", "length": 2.0}, ...],
       "conditions": {"v0": "dirichlet", "v1": "kirchhoff"}}

      {"flower": {"stem": 0.8, "loops": [1.5]}}     (loops = total lengths)
    """
    if not isinstance(data, dict):
        raise InvalidDomain("graph JSON must be an object")
    if "flower" in data:
        fl = data["flower"]
        if not isinstance(fl, dict) or "stem" not in fl:
            raise InvalidDomain('"flower" needs a "stem" and optional "loops"')
        loops = fl.get("loops", [])
        if not isinstance(loops, (list, tuple)):
            raise InvalidDomain('"loops" must be a list of total loop lengths')
        return flower_graph(flower_from_totals(fl["stem"], loops))
    if "edges" not in data:
        raise InvalidDomain('graph JSON needs "edges" or "flower"')
    conditions = data.get("conditions", {})
    if not isinstance(data["edges"], list):
        raise InvalidDomain('"edges" must be a list of edge objects')
    if not isinstance(conditions, dict):
        raise InvalidDomain('"conditions" must map vertices to conditions')
    edges = []
    for k, ed in enumerate(data["edges"]):
        if not isinstance(ed, dict):
            raise InvalidDomain(f"bad edge entry {ed!r}: not an object")
        try:
            edges.append(Edge(str(ed["id"]) if "id" in ed else f"e{k}", str(ed["from"]),
                              str(ed["to"]), _float(ed["length"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidDomain(f"bad edge entry {ed!r}: {exc}") from exc
    return MetricGraph(tuple(edges), {str(v): str(c).lower()
                                      for v, c in conditions.items()})


def graph_from_json(text: str) -> MetricGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDomain(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:    # arrays or objects nested past the recursion limit
        raise InvalidDomain(f"JSON nested too deeply: {exc}") from exc
    return graph_from_dict(data)
