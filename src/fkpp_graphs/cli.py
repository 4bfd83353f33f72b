"""Command line front end: spectrum, groundstate, evolve, region, validate.

Exit codes: 0 success; 2 bad input: arguments, files that cannot be read
or decoded, outputs that fail while opened or written, JSON, domains,
graphs that fail validation (disconnected, no Dirichlet pendant, a length
outside (0, inf)) and meshes too coarse for an edge; 3 lambda0 >= 1,
outside the existence region; 4 groundstate on a graph that is not
flower-representable; 1 any other failure, including a solve that stalls
and failed validation suites.  Errors print one `error:` line on stderr.

File formats are stable: JSON summaries carry a "schema": 1 field; CSV
files always start with a header row.  Profile CSVs are `edge_id,x,u`,
evolution traces `t,H,sup_norm`, boundary curves `loop_half,critical_stem`
(one extra loop_half column per loop for grids).  Profile x runs from each
edge's tail; on a flower-shaped --graph file groundstate keeps the file's
edge ids and orientation, so its profile reads back into evolve --graph.
Set FKPP_LOG=INFO or DEBUG for progress output on stderr; a value that is
not a level name logs at WARNING.

Each subcommand and validate suite imports its layer (period functions,
spectral, mesh, groundstate, evolve) on first use, so a call pays only for
the scipy modules it needs: `fkpp --help` and `import fkpp_graphs.cli`
load no scipy at all.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import logging
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DisconnectedGraph,
    FisherKppError,
    InvalidDomain,
    MeshTooCoarse,
    NegativeInitialData,
    NonpositiveLength,
    NoPendant,
    OutsideRegion,
)
from .graph import (
    DIRICHLET,
    FlowerSpec,
    MetricGraph,
    as_flower,
    flower_from_totals,
    flower_graph,
    graph_from_json,
    parse_number,
)

if TYPE_CHECKING:
    from .mesh import Field, GraphMesh

logger = logging.getLogger("fkpp")

__all__ = ["main"]


# ---------------------------------------------------------------- plumbing

def _parse_flower(tokens: list[str]) -> FlowerSpec:
    """stem=0.8 loops=1.5,0.6 -> FlowerSpec; loop entries are total lengths."""
    stem = None
    totals: list[str] = []
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep:
            raise InvalidDomain(f"expected KEY=VALUE, got {tok!r}")
        if key == "stem":
            stem = val
        elif key == "loops":
            totals = [v for v in val.split(",") if v]
        else:
            raise InvalidDomain(f"unknown flower key {key!r} (stem, loops)")
    if stem is None:
        raise InvalidDomain("flower shorthand needs stem=LENGTH")
    return flower_from_totals(stem, totals)


def _load_graph(args) -> tuple[FlowerSpec | None, MetricGraph]:
    if getattr(args, "flower", None):
        spec = _parse_flower(args.flower)
        return spec, flower_graph(spec)
    path = args.graph
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidDomain(f"cannot read graph file {path}: {exc}") from exc
    graph = graph_from_json(text)
    graph.validation    # invalid graphs exit 2 here; as_flower reads the cached report
    logger.info("loaded graph with %d edges, total length %.6g",
                len(graph.edges), graph.total_length())
    return as_flower(graph), graph


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream an output is written to: the file at path, else stdout.

    An OSError while it is opened, written, flushed or closed becomes
    InvalidDomain.  A failed stdout (a closed pipe) is pointed at os.devnull,
    so the interpreter's flush at exit writes nothing more.
    """
    try:
        fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
        try:
            yield fh
            fh.flush()
        finally:
            if path:
                fh.close()
    except OSError as exc:
        if not path:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InvalidDomain(f"cannot write {path or 'stdout'}: {exc}") from exc


def _emit_json(obj: dict, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str | None, header: list[str], rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_profile(path: str, profiles: dict) -> None:
    """Profile CSV `edge_id,x,u` from an edge_id -> (x, u) mapping."""
    _write_csv(path, ["edge_id", "x", "u"],
               ((eid, repr(float(xi)), repr(float(ui)))
                for eid, (x, u) in profiles.items() for xi, ui in zip(x, u)))


def _graph_profiles(graph: MetricGraph, profiles: dict) -> dict:
    """A flower solution's stem and loop profiles under the graph's own edge ids.

    Loops match in edge order, as as_flower reads them; the stem's samples
    are mirrored when its edge runs from the center to the Dirichlet vertex.
    """
    loops = (xu for eid, xu in profiles.items() if eid != "stem")
    x, u = profiles["stem"]
    out = {}
    for e in graph.edges:
        if e.tail == e.head:
            out[e.id] = next(loops)
        elif graph.condition(e.tail) == DIRICHLET:
            out[e.id] = (x, u)
        else:
            out[e.id] = (e.length - x[::-1], u[::-1])
    return out


def _read_profile_csv(path: str) -> dict:
    profiles: dict[str, tuple[list, list]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["edge_id", "x", "u"]:
                raise InvalidDomain(
                    f"{path}: expected header edge_id,x,u, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) < 3:
                    raise InvalidDomain(
                        f"{path}: line {reader.line_num} needs edge_id,x,u, got {row}")
                xs, us = profiles.setdefault(row[0], ([], []))
                xs.append(parse_number(row[1], f"{path}: line {reader.line_num}: x"))
                us.append(parse_number(row[2], f"{path}: line {reader.line_num}: u"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidDomain(f"cannot read profile CSV {path}: {exc}") from exc
    if not profiles:
        raise InvalidDomain(f"{path}: no profile rows")
    return {k: (np.asarray(xs), np.asarray(us)) for k, (xs, us) in profiles.items()}


def _initial_field(mesh: GraphMesh, text: str, spec: FlowerSpec | None) -> Field:
    from .mesh import constant_field, field_from_function, field_from_profiles

    kind, _, arg = text.partition(":")
    if kind == "const":
        return constant_field(mesh, parse_number(arg, "const value"))
    if kind == "hat":
        amp = parse_number(arg, "hat amplitude")

        def tent(edge_id, x):
            ell = x[-1]
            # a peak past a double (or amp inf) samples as inf or nan, which
            # evolve refuses as non-finite initial data
            with np.errstate(over="ignore", invalid="ignore"):
                return amp * np.minimum(x, ell - x) / (ell / 2.0)

        return field_from_function(mesh, tent)
    if kind == "csv":
        return field_from_profiles(mesh, _read_profile_csv(arg))
    if kind == "groundstate":
        if spec is None:
            raise InvalidDomain(
                "initial groundstate needs a flower-representable graph")
        from .groundstate import solve_flower

        sol = solve_flower(spec)
        return field_from_profiles(mesh, _graph_profiles(mesh.graph, sol.profiles))
    raise InvalidDomain(
        f"unknown initial data {text!r} (const:V, hat:V, csv:FILE, groundstate)")


# ------------------------------------------------------------- subcommands

def cmd_spectrum(args) -> int:
    from .spectral import Region, lambda0_discretized, lambda0_flower

    spec, graph = _load_graph(args)
    if spec is not None:
        res = lambda0_flower(spec)
        out = {
            "schema": 1,
            "lambda0": res.lambda0,
            "method": res.method,
            "residual": res.residual,
        }
        mesh_h = args.mesh or 2e-3
        disc = lambda0_discretized(graph, mesh_h=mesh_h)
        out["discretized"] = {
            "lambda0": disc.lambda0,
            "mesh_h": mesh_h,
            "iterations": disc.iterations,
            "gap": abs(disc.lambda0 - res.lambda0),
        }
    else:
        mesh_h = args.mesh or 1e-3
        disc = lambda0_discretized(graph, mesh_h=mesh_h)
        out = {
            "schema": 1,
            "lambda0": disc.lambda0,
            "method": disc.method,
            "residual": disc.residual,
            "mesh_h": mesh_h,
        }
    out["region"] = Region.of(out["lambda0"]).value
    logger.info("lambda0 = %.12g", out["lambda0"])
    _emit_json(out, args.out)
    return 0


def cmd_groundstate(args) -> int:
    from .groundstate import energy_of, solve_flower

    spec, graph = _load_graph(args)
    if spec is None:
        print("error: graph is not flower-representable; the period method "
              "does not apply. Use the evolve subcommand instead.",
              file=sys.stderr)
        return 4
    sol = solve_flower(spec, tol=args.tol)
    out = {
        "schema": 1,
        "p": sol.p,
        "q": list(sol.q_loops),
        "q_stem": sol.q_stem,
        "lambda0": sol.lambda0,
        "H": energy_of(sol),
        "sup_u": sol.sup_u,
        "residuals": sol.residuals,
        "newton_iterations": sol.newton_iterations,
        "convergence_floor": sol.convergence_floor,
    }
    if spec.n_loops:
        det = sol.jacobian.determinant    # null, not +-Infinity, when it overflows
        out["jacobian_determinant"] = det if math.isfinite(det) else None
        out["jacobian_sign_ok"] = bool(sol.jacobian.sign_ok)
    if args.profile:
        _write_profile(args.profile, _graph_profiles(graph, sol.profiles))
        logger.info("profile written to %s", args.profile)
    _emit_json(out, args.out)
    return 0


def cmd_evolve(args) -> int:
    from .evolve import comparison_monitor, run_to_attractor
    from .mesh import GraphMesh

    spec, graph = _load_graph(args)
    mesh = GraphMesh(graph, mesh_h=args.mesh)
    u0 = _initial_field(mesh, args.initial, spec)
    logger.info("evolving %d nodes, dt=%g, tol=%g", mesh.n_nodes, args.dt, args.tol)
    trace = run_to_attractor(u0, dt=args.dt, max_t=args.max_t, tol=args.tol)
    comparison_monitor(trace)
    if args.trace:
        _write_csv(args.trace, ["t", "H", "sup_norm"],
                   zip(map(repr, trace.times.tolist()),
                       map(repr, trace.energy.tolist()),
                       map(repr, trace.sup_norm.tolist())))
    if args.profile:
        _write_profile(args.profile,
                       {e.id: trace.final.on_edge(e.id) for e in graph.edges})
    out = {
        "schema": 1,
        "terminal": trace.terminal.value,
        "t_end": float(trace.times[-1]),
        "steps": trace.steps,
        "H_end": float(trace.energy[-1]),
        "sup_end": float(trace.sup_norm[-1]),
    }
    _emit_json(out, args.out)
    return 0


def cmd_region(args) -> int:
    if args.flower or args.graph:
        spec, _ = _load_graph(args)
        if spec is None:
            raise InvalidDomain("region membership needs a flower graph")
        from .spectral import region_membership

        rep = region_membership(spec)
        _emit_json({
            "schema": 1,
            "region": rep.region.value,
            "lambda0": rep.lambda0,
            "boundary": rep.boundary,
        }, args.out)
        return 0

    from .spectral import critical_stem, loop_tan, lower_boundary

    ls = np.linspace(0.0, math.pi / 2.0, args.samples, endpoint=bool(args.grid)).tolist()
    if args.grid:
        tans = [loop_tan(h) for h in ls]    # once per axis sample
        header = ["loop_half_1", "loop_half_2", "critical_stem"]
        rows = ((l1, l2, critical_stem(t1 + t2))
                for l1, t1 in zip(ls, tans) for l2, t2 in zip(ls, tans))
    else:
        n = args.curve
        header = [f"loop_half_{j + 1}" for j in range(n)] + ["critical_stem"]
        rows = ((h,) * n + (lower_boundary((h,) * n),) for h in ls)
    _write_csv(args.out, header, (tuple(repr(v) for v in row) for row in rows))
    return 0


# --------------------------------------------------------- validate suites

def _admissible_loop_sample(rng) -> tuple[float, float]:
    from .phaseplane import well

    p = rng.uniform(0.05, 0.95)
    q = -math.sqrt(well(p)) * rng.uniform(0.05, 0.95)
    return p, q


def _suite_asymptotics(args) -> list[dict]:
    from .period import asymptotic_T, center_limits, period_T, period_T0
    from .phaseplane import PhasePoint, well

    checks = []
    resid = []
    for p in (1e-2, 1e-3, 1e-4):
        r = abs(period_T(PhasePoint(p, -p)).value - asymptotic_T(PhasePoint(p, -p)))
        resid.append(r / p)
    ratio = max(resid) / min(resid)
    checks.append({
        "name": "homoclinic residual scales linearly in p",
        "passed": ratio <= 3.0,
        "detail": f"residual/p over three decades: {resid} (spread x{ratio:.3f})",
    })
    for L in (6.0, 8.0, 10.0):
        p = 6.0 * math.exp(-L - 2.0 * math.acosh(math.sqrt(1.5)))
        q = -math.sqrt(well(p))
        err = abs(period_T(PhasePoint(p, q)).value - L)
        checks.append({
            "name": f"homoclinic trace law at L={L:g}",
            "passed": err <= 10.0 * math.exp(-L),
            "detail": f"|T - L| = {err:.3e} vs 10 e^-L = {10 * math.exp(-L):.3e}",
        })
    for Q in (-0.5, -1.0, -2.0):
        bp = 1e-3
        pt = PhasePoint(1.0 - bp, Q * bp)
        lim_t, lim_t0 = center_limits(Q)
        dev_t = abs(period_T(pt).value - lim_t)
        dev_t0 = abs(period_T0(pt).value - lim_t0)
        dev_sum = abs(period_T(pt).value + period_T0(pt).value - math.pi / 2.0)
        ok = max(dev_t, dev_t0, dev_sum) <= 5e-3
        checks.append({
            "name": f"center limits along q = {Q:g}(1-p)",
            "passed": ok,
            "detail": f"deviations T {dev_t:.2e}, T0 {dev_t0:.2e}, sum {dev_sum:.2e}",
        })
    return checks


def _suite_monotonicity(args) -> list[dict]:
    from .period import grad_T, grad_T0, period_T
    from .phaseplane import PhasePoint

    checks = []
    ps = np.geomspace(0.02, 0.98, 20)
    qs = -np.geomspace(0.005, 3.0, 20)
    bad = 0
    for p in ps:
        for q in qs:
            g = grad_T(PhasePoint(float(p), float(q)))
            if not (g.dT_dp < 0.0 and g.dT_dq > 0.0):
                bad += 1
    checks.append({
        "name": "dT/dp < 0 and dT/dq > 0 on the 20x20 grid",
        "passed": bad == 0,
        "detail": f"{bad} violations out of {ps.size * qs.size}",
    })
    rng = np.random.default_rng(args.seed)
    bad_q = bad_p = 0
    n_inside = 0
    for _ in range(args.samples or 200):
        p, q = _admissible_loop_sample(rng)
        g0 = grad_T0(PhasePoint(p, q))
        n_inside += 1
        if not g0.dT_dq < 0.0:
            bad_q += 1
        if p <= 0.5 and not g0.dT_dp < 0.0:
            bad_p += 1
    checks.append({
        "name": "dT0/dq < 0 on random closed orbits",
        "passed": bad_q == 0,
        "detail": f"{bad_q} violations out of {n_inside}",
    })
    checks.append({
        "name": "dT0/dp < 0 for p <= 1/2",
        "passed": bad_p == 0,
        "detail": f"{bad_p} violations",
    })
    worst = 0.0
    for _ in range(20):
        p, q = _admissible_loop_sample(rng)
        p = min(max(p, 0.1), 0.9)
        g = grad_T(PhasePoint(p, q))
        h = 1e-5
        fd_p = (period_T(PhasePoint(p + h, q)).value
                - period_T(PhasePoint(p - h, q)).value) / (2 * h)
        fd_q = (period_T(PhasePoint(p, q + h)).value
                - period_T(PhasePoint(p, q - h)).value) / (2 * h)
        worst = max(worst,
                    abs(g.dT_dp - fd_p) / max(abs(fd_p), 1e-12),
                    abs(g.dT_dq - fd_q) / max(abs(fd_q), 1e-12))
    checks.append({
        "name": "analytic gradient matches central differences",
        "passed": worst <= 1e-4,
        "detail": f"worst relative mismatch {worst:.2e}",
    })
    return checks


def _suite_jacobian(args) -> list[dict]:
    from .groundstate import jacobian_report
    from .phaseplane import well

    rng = np.random.default_rng(args.seed)
    checks = []
    samples = args.samples or 100
    for n in range(1, 6):
        bad = 0
        for _ in range(samples):
            p = rng.uniform(0.05, 0.95)
            qs = [-math.sqrt(well(p)) * rng.uniform(0.05, 0.95) for _ in range(n)]
            rep = jacobian_report(p, qs)
            if not rep.sign_ok:
                bad += 1
        checks.append({
            "name": f"sign(det) = (-1)^(N+1) for N={n}",
            "passed": bad == 0,
            "detail": f"{bad} violations out of {samples}",
        })
    return checks


def _dichotomy_case(stem: float, halves: tuple) -> dict:
    from .evolve import run_to_attractor
    from .mesh import GraphMesh, constant_field
    from .spectral import region_membership

    spec = FlowerSpec(stem, halves)
    expected = region_membership(spec).region.value
    mesh = GraphMesh(flower_graph(spec), mesh_h=0.02)
    u0 = constant_field(mesh, 0.5)
    trace = run_to_attractor(u0, dt=0.1, max_t=400.0, tol=1e-7)
    got = {"ConvergedTrivial": "Trivial",
           "ConvergedNontrivial": "Nontrivial"}.get(trace.terminal.value, "?")
    return {
        "name": f"dichotomy stem={stem:.4g} halves={list(halves)}",
        "passed": got == expected,
        "detail": f"spectral {expected}, evolve {trace.terminal.value} "
                  f"after {trace.steps} steps",
    }


def _suite_dichotomy(args) -> list[dict]:
    from .spectral import lower_boundary

    cases = []
    for halves in [(0.75,), (0.5,), (1.2,), (0.8, 0.5), (0.6, 0.6),
                   (0.5, 0.4, 0.3)]:
        crit = lower_boundary(halves)
        cases.append((max(0.05, 0.6 * crit), halves))
        cases.append((crit + 0.4, halves))
    return [_dichotomy_case(stem, halves) for stem, halves in cases]


_SUITES = {
    "asymptotics": _suite_asymptotics,
    "monotonicity": _suite_monotonicity,
    "jacobian": _suite_jacobian,
    "dichotomy": _suite_dichotomy,
}


def cmd_validate(args) -> int:
    checks = _SUITES[args.suite](args)
    passed = all(c["passed"] for c in checks)
    _emit_json({
        "schema": 1,
        "suite": args.suite,
        "seed": args.seed,
        "checks": checks,
        "passed": passed,
    }, args.out)
    return 0 if passed else 1


# ------------------------------------------------------------------ parser

def _positive_int(text: str) -> int:
    """argparse type for counts: an int >= 1 (a ValueError reads as invalid)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds: an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return n


def _positive_float(text: str) -> float:
    """argparse type for tolerances, horizons and mesh widths: finite and > 0."""
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return x


class _Parser(argparse.ArgumentParser):
    """Usage errors start with one `error:` line, as every other error does."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _add_graph_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--flower", nargs="+", metavar="KEY=VAL",
                       help="flower shorthand: stem=L loops=T1,T2,... "
                            "(loop entries are total lengths)")
    group.add_argument("--graph", metavar="FILE", help="metric graph JSON file")
    return group


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Subcommands dispatch by name through the module globals in main(), not
    through stored function references, so rebinding a cmd_* function
    (as a test or tracer may) takes effect on the next call.
    """
    parser = _Parser(
        prog="fkpp",
        description="Ground states and dynamics of u_t = u'' + u(1-u) "
                    "on metric graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="lowest Laplacian eigenvalue")
    _add_graph_source(sp)
    sp.add_argument("--mesh", type=_positive_float, default=None,
                    help="mesh width for the discretized eigenvalue")
    sp.add_argument("--out", metavar="FILE", help="write the JSON summary here")

    gs = subs.add_parser("groundstate", help="positive steady state on a flower")
    _add_graph_source(gs)
    gs.add_argument("--tol", type=_positive_float, default=1e-10,
                    help="period residual tolerance (1e-8 when looser)")
    gs.add_argument("--out", metavar="FILE", help="write the JSON summary here")
    gs.add_argument("--profile", metavar="FILE",
                    help="write the reconstructed profile CSV here")

    ev = subs.add_parser("evolve", help="time integration to the attractor")
    _add_graph_source(ev)
    ev.add_argument("--mesh", type=_positive_float, default=1e-2, help="mesh width")
    ev.add_argument("--dt", type=float, default=0.1, help="initial time step")
    ev.add_argument("--max-t", type=_positive_float, default=500.0, help="time horizon")
    ev.add_argument("--tol", type=_positive_float, default=1e-9,
                    help="steady-state tolerance on |du/dt| (1e-3 when looser)")
    ev.add_argument("--initial", default="hat:0.1",
                    help="const:V | hat:V | csv:FILE | groundstate")
    ev.add_argument("--trace", metavar="FILE", help="write t,H,sup_norm CSV here")
    ev.add_argument("--profile", metavar="FILE",
                    help="write the terminal profile CSV here")
    ev.add_argument("--out", metavar="FILE", help="write the JSON summary here")

    rg = subs.add_parser("region", help="existence region and its lower boundary")
    mode = _add_graph_source(rg)
    mode.add_argument("--curve", type=_positive_int, metavar="N",
                      help="sample the symmetric N-loop boundary curve")
    mode.add_argument("--grid", action="store_true",
                      help="sample the two-loop boundary surface")
    rg.add_argument("--samples", type=_positive_int, default=50,
                    help="points per axis")
    rg.add_argument("--out", metavar="FILE", help="write the CSV/JSON here")

    va = subs.add_parser("validate", help="property suites")
    va.add_argument("--suite", required=True, choices=sorted(_SUITES),
                    help="which suite to run")
    va.add_argument("--seed", type=_nonnegative_int, default=0, help="RNG seed")
    va.add_argument("--samples", type=_positive_int, default=None,
                    help="override the per-check sample count")
    va.add_argument("--out", metavar="FILE", help="write the JSON report here")

    return parser


# exit code per error class; every other FisherKppError exits 1
_EXIT_CODES = {
    OutsideRegion: 3,
    InvalidDomain: 2, NegativeInitialData: 2, DisconnectedGraph: 2,
    NoPendant: 2, NonpositiveLength: 2, MeshTooCoarse: 2,
}


def main(argv=None) -> int:
    # a name that is not a level (getLevelName returns a str) logs at WARNING
    level = logging.getLevelName(os.environ.get("FKPP_LOG", "WARNING").upper())
    logging.basicConfig(stream=sys.stderr,
                        level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except FisherKppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 1)
    except MemoryError:    # past the mesh's guarded first allocation
        print("error: out of memory; a coarser --mesh needs less", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
