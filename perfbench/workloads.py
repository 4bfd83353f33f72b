"""Inputs and ops of the two workloads.

Every input is drawn from a numpy Generator seeded by ``--seed``; the
program under test only ever sees the argv and graph JSON files built here.
An op is one in-process call of the ``fkpp`` CLI through
``fkpp_graphs.cli.main``.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import time

import numpy as np

# Per-op wall caps.  Each sits well above the slowest passing op of its
# workload on a 2-vCPU Xeon VM (flower_exact about 0.3 s, graph_pde about
# 1.5 s), so no op changes outcome between runs; only the deep flowers of
# ROADMAP item B reach the flower_exact cap.
CAP_S = {"flower_exact": 2.0, "graph_pde": 60.0}

MESH_H = 0.05

# Every regular op runs in several rounds of an end-to-end run; its time is
# the fastest of them (see run.end_to_end).  flower_exact makes FLOWER_ROUNDS
# rounds over a case list that grows with --seconds; graph_pde makes one
# round of GRAPH_ROUND per GRAPH_ROUND_S seconds (about what a round takes on
# the reference machine), and at least two.
FLOWER_ROUNDS = 4
GRAPH_ROUND_S = 15


def rounds(workload: str, seconds: int) -> int:
    if workload == "flower_exact":
        return FLOWER_ROUNDS
    return max(2, seconds // GRAPH_ROUND_S)

# Known deep flowers (stem, loop half-lengths).  Seed-independent, so the
# ROADMAP B defects show as the same failures in every run.
DEEP_FLOWERS = (
    (20.0, (20.0,)),                                  # ZeroDivisionError at once
    (16.0, (16.0,)),                                  # runs for ~47 s
    (30.0, (5.0,)),                                   # runs for ~62 s
    (12.0, tuple(np.linspace(0.1, 1.2, 80).tolist())),  # runs for ~84 s
)
# The traced run keeps only the deep flowers that end by themselves: where
# the cap interrupts an op, its layer counts depend on timing.
DEEP_TRACED = DEEP_FLOWERS[:1]

# Regular flower ops in the traced run (fixed count, so counters repeat).
FLOWER_TRACED_OPS = 120

# Distinct sweep cases of an end-to-end run: this many per --seconds, and no
# fewer than FLOWER_MIN_OPS, so op_tail_s always has ten ops beyond a p75.
# At --seconds 30 there are 150, plus the deep slice: ten beyond a p90.
FLOWER_OPS_PER_S = 5
FLOWER_MIN_OPS = 40


class Capped(BaseException):
    """Raised by the SIGALRM handler when an in-process op hits its cap.

    A BaseException so no ``except Exception`` inside the program absorbs it.
    """


def _on_alarm(signum, frame):
    raise Capped()


# ------------------------------------------------------------ flower_exact

def lower_boundary(halves) -> float:
    """Critical stem length pi/2 - atan(2 sum tan l_j) (paper's closed form)."""
    return math.pi / 2.0 - math.atan(2.0 * sum(math.tan(h) for h in halves))


def stem_ceiling(n_loops: int) -> float:
    """Deepest stem of the regular sweep for n_loops loops.

    Solve time grows steeply with stem length once N is large (N = 80 at
    stem 8 takes ~0.5 s, at stem 11 it exceeds the cap).  The regular sweep
    stops where every op still ends far below the cap; the region beyond is
    represented by DEEP_FLOWERS.
    """
    if n_loops <= 5:
        return 12.0
    return 12.0 - 1.5 * math.log2(n_loops / 5.0)


FLOWER_BLOCK = 64


def flower_cases(seed: int, block: int = FLOWER_BLOCK):
    """Endless seeded sweep of flowers inside the existence region.

    Loop count (log-uniform over 1..80) and stem position (uniform from just
    above lower_boundary to stem_ceiling) are stratified in blocks of
    `block` cases.  Within a block the strata are paired on a fixed rank-1
    lattice (stratum i of N with stratum i*g mod block of the stem, g near
    block/golden ratio), so every run sees the same mix of easy and hard
    flowers; the seed draws only the point inside each stratum and the loop
    half-lengths.
    """
    rng = np.random.default_rng([seed, 1])
    g = round(block / 1.618033988749895)
    while math.gcd(g, block) != 1:
        g += 1
    strata = np.arange(block)
    while True:
        u_n = (strata + rng.uniform(size=block)) / block
        u_stem = ((strata * g) % block + rng.uniform(size=block)) / block
        for a, b in zip(u_n, u_stem):
            n = min(80, int(math.exp(a * math.log(81.0))))
            halves = tuple(float(h) for h in rng.uniform(0.1, 1.2, n))
            lb = lower_boundary(halves)
            stem = float(lb + (stem_ceiling(n) - lb) * (0.01 + 0.99 * b))
            yield stem, halves


def flower_argv(case, out: str) -> list[str]:
    stem, halves = case
    # the CLI takes total loop lengths and halves them; 2*h/2 == h exactly
    loops = ",".join(repr(2.0 * h) for h in halves)
    return ["groundstate", "--flower", f"stem={stem!r}", f"loops={loops}",
            "--out", out]


# --------------------------------------------------------------- graph_pde

def random_tree(rng, n_edges: int, lo: float, hi: float,
                all_leaves_dirichlet: bool = False) -> dict:
    """Random recursive tree: vertex k attaches to a uniform earlier vertex."""
    parents = rng.integers(0, np.arange(1, n_edges + 1))
    lengths = rng.uniform(lo, hi, n_edges)
    edges = [{"id": f"e{k}", "from": f"v{int(parents[k - 1])}", "to": f"v{k}",
              "length": float(lengths[k - 1])} for k in range(1, n_edges + 1)]
    degree = np.bincount(parents, minlength=n_edges + 1)
    degree[1:] += 1
    if all_leaves_dirichlet:
        pinned = [v for v in range(n_edges + 1) if degree[v] == 1]
    else:
        pinned = [n_edges]  # the newest vertex is always a leaf
    return {"edges": edges,
            "conditions": {f"v{v}": "dirichlet" for v in pinned}}


def square_grid(rng, k: int, lo: float, hi: float) -> dict:
    """k x k lattice plus one Dirichlet pendant at a corner."""
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < k and j + dj < k:
                    edges.append({"id": f"e{len(edges)}", "from": f"g{i}_{j}",
                                  "to": f"g{i + di}_{j + dj}",
                                  "length": float(rng.uniform(lo, hi))})
    edges.append({"id": "pendant", "from": "d", "to": "g0_0",
                  "length": float(rng.uniform(lo, hi))})
    return {"edges": edges, "conditions": {"d": "dirichlet"}}


# Edge lengths keep at least five cells per edge at MESH_H, the minimum
# lambda0_discretized accepts.
def build_graph(rng, family: str, size: int) -> dict:
    if family == "tree":
        return random_tree(rng, size, 0.25, 0.75)
    if family == "long":
        return random_tree(rng, size, 0.5, 1.5)
    if family == "leaves":
        return random_tree(rng, size, 0.25, 0.45, all_leaves_dirichlet=True)
    if family == "grid":
        return square_grid(rng, size, 0.25, 0.75)
    raise ValueError(family)


# One round of graph_pde: (family, size, ops) with s = spectrum, e = evolve.
# Sizes run from 1e3 to 4e3 edges.  Spectrum ops run only where the outcome
# does not depend on the draw: trees up to 1.5e3 edges and grids up to 2e3
# edges pass inverse iteration with a margin of 1.5x or more on its 1e-10
# residual target, while the 4e3-edge long tree stalls on a rounding plateau
# 2.8x or more above it (LinearSolveFailure, ROADMAP C).  Long trees of
# 1e3-2e3 edges and Dirichlet-leaf trees (13 of 40 draws exceed the 300
# iteration limit) fail or pass by draw, so they only run evolve.
GRAPH_ROUND = (
    [("tree", n, "se")
     for n in (1000, 1000, 1000, 1050, 1050, 1100, 1100, 1150, 1200)]
    + [("grid", k, "se") for k in (23, 23, 23, 23, 24, 24, 24, 25, 25)]
    + [("leaves", 1000, "e"), ("leaves", 1200, "e")]
    + [("long", 1000, "e")]
)
# Run once per end-to-end run, before the rounds: it fails on every draw, so
# repeating it would only time the failure path again.
GRAPH_ONCE = [("long", 4000, "s")]
GRAPH_TRACED = (("tree", 1200, "se"), ("grid", 27, "se"), ("leaves", 1000, "e"),
                ("long", 4000, "se"), ("long", 1000, "e"))


def graph_schedule(seed: int, rounds: int, plan=GRAPH_ROUND):
    """[(graph_dict, ops)] drawn in a fixed order from one seeded stream."""
    rng = np.random.default_rng([seed, 2])
    return [(build_graph(rng, fam, size), ops)
            for _ in range(rounds) for fam, size, ops in plan]


def graph_argvs(path: str, ops: str, out: str) -> list[tuple[str, list[str]]]:
    argvs = []
    for kind in ops:
        if kind == "s":
            argvs.append(("spectrum", ["spectrum", "--graph", path,
                                       "--mesh", repr(MESH_H), "--out", out]))
        else:
            argvs.append(("evolve", ["evolve", "--graph", path,
                                     "--mesh", repr(MESH_H),
                                     "--initial", "const:0.5", "--out", out]))
    return argvs


# ------------------------------------------------------------- running ops

class ExceptionRecorder:
    """Wraps the cli.cmd_* functions to see which exception main() absorbed.

    main() maps every FisherKppError to an exit code, so the class of a
    typed failure is only visible on its way out of the subcommand.
    """

    NAMES = ("cmd_spectrum", "cmd_groundstate", "cmd_evolve", "cmd_region",
             "cmd_validate")

    def __init__(self, cli):
        self.cli = cli
        self.last = None
        self._saved = {}

    def _wrap(self, fn):
        def recorded(args):
            try:
                return fn(args)
            except BaseException as exc:
                self.last = exc
                raise
        return recorded

    def install(self):
        for name in self.NAMES:
            fn = getattr(self.cli, name)
            self._saved[name] = fn
            setattr(self.cli, name, self._wrap(fn))

    def remove(self):
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)
        self._saved.clear()


class InProcessRunner:
    """Runs cli.main(argv) one op at a time under a SIGALRM wall cap."""

    def __init__(self, cli, errors_module, cap: float):
        self.cli = cli
        self.fisher = errors_module.FisherKppError
        self.cap = cap
        self.recorder = ExceptionRecorder(cli)
        self.sink = open(os.devnull, "w")

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, _on_alarm)
        self.recorder.install()
        return self

    def __exit__(self, *exc):
        self.recorder.remove()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.sink.close()

    def run(self, argv, expected: int = 0) -> tuple[float, str]:
        """(wall seconds, outcome) with outcome 'ok' or a failure reason."""
        self.recorder.last = None
        reason = None
        code = None
        with contextlib.redirect_stdout(self.sink), \
                contextlib.redirect_stderr(self.sink):
            signal.setitimer(signal.ITIMER_REAL, self.cap)
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Capped:
                reason = "capped"
            except Exception as exc:  # the program let an untyped error out
                reason = f"untyped:{type(exc).__name__}"
            finally:
                wall = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        if reason is None and code != expected:
            last = self.recorder.last
            if isinstance(last, self.fisher):
                reason = f"typed:{type(last).__name__}"
            else:
                reason = f"exit:{code}"
        return wall, reason or "ok"

