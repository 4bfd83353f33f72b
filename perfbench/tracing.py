"""Spans around the package's layers, installed from outside the package.

Tracer.install replaces each traced function at every module attribute that
binds it (so ``fkpp_graphs.cli.solve_flower`` and
``fkpp_graphs.groundstate.solve_flower`` both record), plus
``scipy.integrate.quad``, ``scipy.sparse.linalg.splu``, the ``brentq``
names bound in groundstate and spectral, and the GraphMesh members.
Tracer.remove puts every original back.  No source file is touched.

A span is [name, start, end, parent index, op id, note, raised]; spans stay
in memory until the run reports.  Self time is a span's duration minus the
durations of its direct children (single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, NOTE, RAISED = range(7)

# (span name, module, attribute, note kind)
_FUNCTIONS = [
    ("cli.main", "cli", "main", None),
    ("graph.validate", "graph", "validate", None),
    ("graph.from_json", "graph", "graph_from_json", None),
    ("mesh.field_from_function", "mesh", "field_from_function", None),
    ("mesh.free_energy", "mesh", "free_energy", None),
    ("spectral.lambda0_flower", "spectral", "lambda0_flower", "iterations"),
    ("spectral.lambda0_discretized", "spectral", "lambda0_discretized", None),
    ("period.period_T", "period", "period_T", None),
    ("period.period_T0", "period", "period_T0", None),
    ("period.grad_T", "period", "grad_T", None),
    ("period.grad_T0", "period", "grad_T0", None),
    ("period.arclength_from_turning", "period", "arclength_from_turning", None),
    ("period.interval_period_slope", "period", "interval_period_slope", None),
    ("phaseplane.turning_point_pair", "phaseplane", "turning_point_pair", None),
    ("groundstate.solve_flower", "groundstate", "solve_flower", None),
    ("groundstate.solve_interval", "groundstate", "solve_interval", None),
    ("groundstate.newton", "groundstate", "_newton", "newton"),
    ("groundstate.reconstruct_profile", "groundstate", "reconstruct_profile",
     "points"),
    ("groundstate.jacobian_report", "groundstate", "jacobian_report", None),
    ("groundstate.energy_of", "groundstate", "energy_of", None),
    ("evolve.run", "evolve", "run_to_attractor", "steps"),
    ("evolve.factor", "evolve", "_factor", None),
]

PERIOD_SPANS = tuple(n for n, mod, _, _ in _FUNCTIONS if mod == "period")
SOLVE_SPANS = ("groundstate.solve_flower", "groundstate.solve_interval",
               "groundstate.newton")
ASSEMBLE_SPANS = ("mesh.stiffness", "mesh.lumped_mass",
                  "mesh.reduced_operators")


class _CountingLU:
    """SuperLU stand-in that counts solves into its splu span's note."""

    __slots__ = ("_lu", "_rec")

    def __init__(self, lu, rec):
        self._lu = lu
        self._rec = rec
        rec[NOTE] = 0

    def solve(self, *args, **kwargs):
        self._rec[NOTE] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _note(kind, rec, args, kwargs, result):
    """Record what a span's result says about the work done; may wrap it."""
    if kind == "iterations":
        rec[NOTE] = result.iterations
    elif kind == "newton":
        rec[NOTE] = result[3]
    elif kind == "points":
        rec[NOTE] = sum(len(x) for x, _ in result.values())
    elif kind == "steps":
        rec[NOTE] = result.steps
    elif kind == "nodes":
        rec[NOTE] = args[0].n_nodes
    elif kind == "quad":
        rec[NOTE] = (result[1], kwargs.get("limit") == 1000)
    elif kind == "splu":
        return _CountingLU(result, rec)
    return result


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple] = []

    def reset(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[RAISED] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                result = _note(note, rec, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.integrate
        import scipy.sparse.linalg

        import fkpp_graphs.cli  # noqa: F401  (loads every package module)

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "fkpp_graphs" or k.startswith("fkpp_graphs.")]
        for name, mod, attr, note in _FUNCTIONS:
            original = getattr(sys.modules[f"fkpp_graphs.{mod}"], attr)
            traced = self.wrap(name, original, note)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._set(module, key, traced)
        for mod in ("groundstate", "spectral"):
            module = sys.modules[f"fkpp_graphs.{mod}"]
            self._set(module, "brentq", self.wrap(f"{mod}.brentq", module.brentq))
        self._set(scipy.integrate, "quad",
                  self.wrap("period.quad", scipy.integrate.quad, "quad"))
        self._set(scipy.sparse.linalg, "splu",
                  self.wrap("factor.splu", scipy.sparse.linalg.splu, "splu"))

        mesh_cls = sys.modules["fkpp_graphs.mesh"].GraphMesh
        self._set(mesh_cls, "__init__",
                  self.wrap("mesh.build", mesh_cls.__init__, "nodes"))
        for prop in ("stiffness", "lumped_mass"):
            fget = mesh_cls.__dict__[prop].fget
            self._set(mesh_cls, prop, property(self.wrap(f"mesh.{prop}", fget),
                                               doc=fget.__doc__))
        self._set(mesh_cls, "reduced_operators",
                  self.wrap("mesh.reduced_operators", mesh_cls.reduced_operators))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ------------------------------------------------------------------ report

def span_table(spans, skip_ops=frozenset()):
    """name -> {calls, total_s, self_s} over spans of ops not in skip_ops.

    total_s counts only the outermost span of a name, so recursion through
    a traced name is not double counted.
    """
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, rec in enumerate(spans):
        if rec[OP] in skip_ops:
            continue
        dur = rec[END] - rec[START]
        row = table[rec[NAME]]
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        j = rec[PARENT]
        while j >= 0 and spans[j][NAME] != rec[NAME]:
            j = spans[j][PARENT]
        if j < 0:
            row["total_s"] += dur
    return dict(table)


def layer_metrics(spans, n_ops: int, skip_ops=frozenset()) -> dict:
    """Per-layer numbers named after the package modules (see BENCHMARK.json)."""
    tab = span_table(spans, skip_ops)

    def calls(*names):
        return sum(tab[k]["calls"] for k in names if k in tab)

    def total(*names):
        return sum(tab[k]["total_s"] for k in names if k in tab)

    def self_s(*names):
        return sum(tab[k]["self_s"] for k in names if k in tab)

    kept = [(i, r) for i, r in enumerate(spans) if r[OP] not in skip_ops]

    def notes(name):
        return [r[NOTE] for _, r in kept if r[NAME] == name and r[NOTE] is not None]

    def has_ancestor(i, name):
        j = spans[i][PARENT]
        while j >= 0:
            if spans[j][NAME] == name:
                return True
            j = spans[j][PARENT]
        return False

    quads = notes("period.quad")
    quad_calls = calls("period.quad")
    retries = sum(1 for _, retry in quads if retry)
    inverse = sum(r[NOTE] or 0 for i, r in kept if r[NAME] == "factor.splu"
                  and has_ancestor(i, "spectral.lambda0_discretized"))
    factors_per_run = defaultdict(int)
    for _, r in kept:
        if r[NAME] == "evolve.factor" and r[PARENT] >= 0 \
                and spans[r[PARENT]][NAME] == "evolve.run":
            factors_per_run[r[PARENT]] += 1
    rejections = sum(max(0, c - 1) for c in factors_per_run.values())
    steps = sum(notes("evolve.run"))
    run_self = self_s("evolve.run")
    flower_calls = calls("spectral.lambda0_flower")
    validate_calls = calls("graph.validate")
    ops = max(n_ops, 1)
    return {
        "cli.main_self_s": (self_s("cli.main"), "s"),
        "graph.validate_s": (total("graph.validate"), "s"),
        "graph.validate_calls": (validate_calls, "count"),
        "graph.validate_calls_per_op": (validate_calls / ops, "count/op"),
        "graph.from_json_s": (total("graph.from_json"), "s"),
        "mesh.build_s": (self_s("mesh.build"), "s"),
        "mesh.assemble_s": (self_s(*ASSEMBLE_SPANS), "s"),
        "mesh.nodes": (sum(notes("mesh.build")), "count"),
        "mesh.field_from_function_s": (total("mesh.field_from_function"), "s"),
        "mesh.free_energy_calls": (calls("mesh.free_energy"), "count"),
        "mesh.free_energy_s": (total("mesh.free_energy"), "s"),
        "spectral.lambda0_flower_calls": (flower_calls, "count"),
        "spectral.lambda0_flower_calls_per_op": (flower_calls / ops, "count/op"),
        "spectral.lambda0_flower_s": (total("spectral.lambda0_flower"), "s"),
        "spectral.secular_iterations": (sum(notes("spectral.lambda0_flower")),
                                        "count"),
        "spectral.lambda0_discretized_s": (total("spectral.lambda0_discretized"),
                                           "s"),
        "spectral.inverse_iterations": (inverse, "count"),
        "spectral.failures": (sum(1 for _, r in kept
                                  if r[NAME] == "spectral.lambda0_discretized"
                                  and r[RAISED] == "LinearSolveFailure"), "count"),
        "factor.splu_calls": (calls("factor.splu"), "count"),
        "factor.splu_s": (total("factor.splu"), "s"),
        "period.calls": (calls(*PERIOD_SPANS), "count"),
        "period.self_s": (self_s(*PERIOD_SPANS), "s"),
        "period.quad_calls": (quad_calls, "count"),
        "period.quad_retries": (retries, "count"),
        "period.quad_retry_ratio": (retries / max(quad_calls, 1), "ratio"),
        "period.quad_s": (total("period.quad"), "s"),
        "period.worst_quad_err": (max((e for e, _ in quads), default=0.0), "abs"),
        "phaseplane.turning_point_calls": (calls("phaseplane.turning_point_pair"),
                                           "count"),
        "groundstate.solve_self_s": (self_s(*SOLVE_SPANS), "s"),
        "groundstate.newton_iterations": (sum(notes("groundstate.newton")),
                                          "count"),
        "groundstate.brentq_calls": (calls("groundstate.brentq"), "count"),
        "groundstate.brentq_s": (total("groundstate.brentq"), "s"),
        "groundstate.reconstruct_s": (total("groundstate.reconstruct_profile"), "s"),
        "groundstate.profile_points": (sum(notes("groundstate.reconstruct_profile")),
                                       "count"),
        "groundstate.jacobian_report_s": (total("groundstate.jacobian_report"), "s"),
        "groundstate.energy_of_s": (total("groundstate.energy_of"), "s"),
        "evolve.run_self_s": (run_self, "s"),
        "evolve.steps": (steps, "count"),
        "evolve.rejections": (rejections, "count"),
        "evolve.rejection_ratio": (rejections / max(steps, 1), "ratio"),
        "evolve.s_per_step": (run_self / max(steps, 1), "s/step"),
    }


# Counters that must repeat exactly between two runs of the same ops.
DETERMINISTIC = (
    "period.quad_calls", "period.quad_retries", "groundstate.newton_iterations",
    "spectral.inverse_iterations", "evolve.steps", "evolve.rejections",
    "factor.splu_calls", "graph.validate_calls",
)
