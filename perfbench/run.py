"""Benchmark of the fkpp CLI and library, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload flower_exact --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for the rationale of each):

  flower_exact  in-process `fkpp groundstate --flower ...` over a seeded sweep
  graph_pde     in-process `fkpp spectrum|evolve --graph F --mesh 0.05`

Every workload is a closed loop: one caller issues one op at a time.  With
--trace 0 every op runs in several rounds, and the last stdout line carries
the end-to-end metrics, their times rescaled to a fixed host speed (see
HostSpeed); with
--trace 1 a separate pass over a fixed op list runs untraced, then traced
twice, and the last line carries the per-layer metrics.  The line before
it is a report with failure reasons, the environment and the span table.
Outputs are checked against independent oracles outside the timed region.
"""

from __future__ import annotations

import os

# One thread per process: BLAS and OpenMP pools must not add load of their
# own.  Set before numpy is imported here or in any child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FKPP_LOG", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# `oracles` (mpmath, eigsh) is imported only after the measured phase, so it
# adds neither to set-up time nor to the peak memory of the program's ops.

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flower_exact", "graph_pde")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TAIL_PERCENTILES = ((0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.75, "p75"))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------------- set-up

def build_inputs(workload: str, seed: int, seconds: int, work: str,
                 traced: bool):
    """Everything a run needs before its first op, files included.

    flower_exact: a list of sweep cases.  graph_pde: [(path, graph dict,
    ops)].  Every list has a fixed length for a given --seconds, so the
    attempted and failed counts do not depend on how fast the host runs.
    """
    os.makedirs(work, exist_ok=True)
    if workload == "flower_exact":
        if traced:
            return list(wl.DEEP_TRACED) + _take(wl.flower_cases(seed),
                                                wl.FLOWER_TRACED_OPS)
        n = max(wl.FLOWER_MIN_OPS, wl.FLOWER_OPS_PER_S * seconds)
        return _take(wl.flower_cases(seed, n), n)
    plan = wl.graph_schedule(seed, 1, wl.GRAPH_TRACED) if traced \
        else wl.graph_schedule(seed, 1, wl.GRAPH_ONCE + wl.GRAPH_ROUND)
    files = []
    for i, (graph, ops) in enumerate(plan):
        path = os.path.join(work, f"graph_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
        files.append((path, graph, ops))
    return files


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def setup_probe(workload: str, seed: int, seconds: int) -> None:
    """Body of one fresh-interpreter set-up sample."""
    sys.path.insert(0, SRC)
    import fkpp_graphs  # noqa: F401
    import fkpp_graphs.cli  # noqa: F401

    work = os.path.join(ROOT, ".perfbench_work", f"probe-{os.getpid()}")
    try:
        build_inputs(workload, seed, seconds, work, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fresh_interpreter_seconds(args: list[str], samples: int):
    """(raw, rescaled) wall times of `samples` fresh interpreters.

    Sample i runs pinned to CPU i mod nproc, calibrated there just before
    and just after it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    raw, scaled = [], []
    for i in range(samples):
        with pinned(cpus[i % len(cpus)]):
            before = calibration_s()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *args], env=_child_env(), check=True,
                           stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - t0
            cal = 0.5 * (before + calibration_s())
        raw.append(wall)
        scaled.append(wall * CAL_REF_S / cal)
    return raw, scaled


def import_seconds(samples: int) -> list[float]:
    """`import fkpp_graphs.cli` as timed inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import fkpp_graphs.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], env=_child_env(),
                                 check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(samples)]


# -------------------------------------------------------------- host speed

# The host is shared, and how fast it runs drifts by tens of percent over
# minutes, for this program and for any other code alike.  So every timing
# metric is a wall time rescaled to one fixed host speed: it is multiplied
# by CAL_REF_S / c, where c is what a fixed pure-Python loop took on the
# same CPU around the same moment.  CAL_REF_S is what that loop takes on the
# reference machine (a 2-vCPU Xeon VM) when its host is quiet, so the metrics
# read as seconds on that machine.  The raw wall times are in the report.
CAL_LOOP = 200_000
CAL_REF_S = 0.012
CAL_EVERY_S = 1.0
CAL_NEAREST = 5


def calibration_s(reps: int = 3) -> float:
    """Fastest of `reps` runs of the calibration loop, in seconds."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Calibration samples taken between ops, at most one per CAL_EVERY_S."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        self.samples.append((time.perf_counter(), calibration_s()))

    def tick(self):
        if time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """CAL_REF_S over the median of the CAL_NEAREST samples nearest t."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:CAL_NEAREST]
        return CAL_REF_S / statistics.median(c for _, c in near)


# ---------------------------------------------------------------- op loops

@contextlib.contextmanager
def pinned(cpu: int):
    """Run the block on one CPU; processes started inside inherit it."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Op:
    """One op: its wall time, rescaled by end_to_end; `raw` keeps the wall."""

    __slots__ = ("kind", "start", "wall", "raw", "outcome", "payload")

    def __init__(self, kind, start, wall, outcome, payload=None):
        self.kind = kind
        self.start = start
        self.wall = wall
        self.raw = wall
        self.outcome = outcome
        self.payload = payload


def run_flower(runner, cases, out_path, tracer=None, speed=None):
    ops = []
    for case in cases:
        if tracer is not None:
            tracer.op = len(ops)
        if speed is not None:
            speed.tick()
        if os.path.exists(out_path):
            os.remove(out_path)
        start = time.perf_counter()
        wall, outcome = runner.run(wl.flower_argv(case, out_path))
        payload = (case, read_json(out_path)) if outcome == "ok" else None
        ops.append(Op("groundstate", start, wall, outcome, payload))
    return ops


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_graphs(runner, files, out_path, tracer=None, speed=None, first=0):
    """Ops on files[first:]; each payload names its graph by index in files."""
    ops = []
    for gi in range(first, len(files)):
        path, _graph, kinds = files[gi]
        for kind, argv in wl.graph_argvs(path, kinds, out_path):
            if tracer is not None:
                tracer.op = len(ops)
            if speed is not None:
                speed.tick()
            if os.path.exists(out_path):
                os.remove(out_path)
            start = time.perf_counter()
            wall, outcome = runner.run(argv)
            payload = (gi, read_json(out_path)) if outcome == "ok" else None
            ops.append(Op(kind, start, wall, outcome, payload))
    return ops


def best_of_rounds(rounds):
    """One Op per distinct op: its fastest wall time over the rounds.

    The outcome is the first failure of any round, else ok.  Every round
    after the first must write the same output as the first; a repeated op
    that does not counts as failing its check.
    """
    merged = []
    for same in zip(*rounds):
        first = same[0]
        outcome = next((op.outcome for op in same if op.outcome != "ok"), "ok")
        if outcome == "ok" and any(op.payload != first.payload for op in same[1:]):
            outcome = "check:repeat_differs"
        merged.append(Op(first.kind, first.start, min(op.wall for op in same),
                         outcome, first.payload))
    return merged


def check_ops(workload, ops, inputs):
    """Run the output oracles on every op that reported success."""
    import oracles

    if workload == "flower_exact":
        for op in ops:
            if op.outcome != "ok":
                continue
            case, out = op.payload
            op.outcome = ("check:json_missing" if out is None
                          else oracles.check_groundstate(case, out) or "ok")
    else:
        lam = {}
        for op in ops:
            if op.outcome != "ok":
                continue
            gi, out = op.payload
            if out is None:
                op.outcome = "check:json_missing"
                continue
            if gi not in lam:
                lam[gi] = oracles.discrete_lambda0(inputs[gi][1], wl.MESH_H)
            check = oracles.check_spectrum if op.kind == "spectrum" \
                else oracles.check_evolve
            op.outcome = check(out, lam[gi]) or "ok"


# ----------------------------------------------------------------- metrics

def percentile(sorted_vals, q):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(q * n))
    return sorted_vals[rank - 1], n - rank


def tail(sorted_vals):
    for q, label in TAIL_PERCENTILES + ((0.5, "p50"),):
        value, beyond = percentile(sorted_vals, q)
        if beyond >= 10:
            return value, label, beyond
    return sorted_vals[-1], "max", 0


def reasons(ops):
    return dict(sorted(Counter(op.outcome for op in ops).items()))


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {k: os.environ[k] for k in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")},
    }


def emit(correct, attempted, failed, metrics, report):
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


# -------------------------------------------------------------------- modes

def end_to_end(args, inputs, work, cli, errors):
    """Run every op in several rounds and time it by its best rescaled wall.

    Round k runs pinned to CPU k mod nproc, with calibration samples taken
    on that CPU between its ops (see HostSpeed).  An op's time is its
    fastest rescaled wall time over the rounds: the rescaling removes the
    host's slow drift, the minimum over rounds and CPUs its fast jitter.
    The known failures run once, before the rounds: flower_exact's deep
    slice and graph_pde's GRAPH_ONCE.  They end at the cap or on the
    failure path, so repeating them would only time that again.
    """
    cap = wl.CAP_S[args.workload]
    rounds_n = wl.rounds(args.workload, args.seconds)
    cpus = sorted(os.sched_getaffinity(0))
    out_path = os.path.join(work, "out.json")
    flower = args.workload == "flower_exact"
    n_once = len(wl.DEEP_FLOWERS if flower else wl.GRAPH_ONCE)
    rounds = []
    with wl.InProcessRunner(cli, errors, cap) as runner:
        start = time.perf_counter()
        with pinned(cpus[0]):
            speed = HostSpeed()
            once = (run_flower(runner, list(wl.DEEP_FLOWERS), out_path, speed=speed)
                    if flower else
                    run_graphs(runner, inputs[:n_once], out_path, speed=speed))
        for k in range(rounds_n):
            with pinned(cpus[k % len(cpus)]):
                speed.sample()
                rounds.append(run_flower(runner, inputs, out_path, speed=speed)
                              if flower else
                              run_graphs(runner, inputs, out_path, speed=speed,
                                         first=n_once))
                speed.sample()
    measured = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    executions = [op for r in rounds for op in r]
    for op in once + executions:
        op.wall = op.raw * speed.scale(op.start)
    best = best_of_rounds(rounds)
    t0 = time.perf_counter()
    check_ops(args.workload, once + best, inputs)
    check_s = time.perf_counter() - t0

    setup_raw, setup = fresh_interpreter_seconds(
        [os.path.join(HERE, "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        SETUP_SAMPLES)

    # An op counts once per execution; a distinct op that fails fails in
    # every round it failed in, or in all of them if only its check failed.
    failed = sum(1 for op in once if op.outcome != "ok")
    for i, op in enumerate(best):
        if op.outcome.startswith("check:"):
            failed += rounds_n
        else:
            failed += sum(1 for r in rounds if r[i].outcome != "ok")
    attempted = len(once) + len(executions)

    walls = sorted(op.wall for op in once + best)
    tail_value, tail_label, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(best) / math.fsum(op.wall for op in best), "1/s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    raw_best = [min(op.raw for op in same) for same in zip(*rounds)]
    cal = [c for _, c in speed.samples]
    checks_failed = [op.outcome for op in once + best
                     if op.outcome.startswith("check:")]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "distinct_ops": len(once) + len(best), "rounds": rounds_n,
        "attempted": attempted, "reasons": reasons(once + executions),
        "failed_frac": failed / attempted,
        "slowest_ok_op_raw_s": max((op.raw for op in once + executions
                                    if op.outcome == "ok"), default=0.0),
        "op_tail": {"percentile": tail_label, "samples": len(walls),
                    "beyond": beyond},
        "raw": {"op_p50_s": statistics.median([op.raw for op in once] + raw_best),
                "ops_per_s": len(raw_best) / math.fsum(raw_best),
                "setup_samples_s": setup_raw,
                "wall_ops_per_s": len(executions) / measured},
        "calibration_s": {"ref": CAL_REF_S, "samples": len(cal), "min": min(cal),
                          "median": statistics.median(cal), "max": max(cal)},
        "measured_s": measured, "check_s": check_s,
        "env": environment(),
    }
    emit(not checks_failed, attempted, failed, metrics, report)


def traced(args, inputs, work, cli, errors):
    cap = wl.CAP_S[args.workload]
    out_path = os.path.join(work, "out.json")
    tracer = tracing.Tracer()

    def one_pass(trace_on):
        tr = tracer if trace_on else None
        with wl.InProcessRunner(cli, errors, cap) as runner:
            t0 = time.perf_counter()
            if args.workload == "flower_exact":
                ops = run_flower(runner, inputs, out_path, tracer=tr)
            else:
                ops = run_graphs(runner, inputs, out_path, tracer=tr)
            return ops, time.perf_counter() - t0

    _, plain_s = one_pass(False)
    tracer.install()
    try:
        ops, traced_s = one_pass(True)
        spans_b = tracer.spans
        tracer.reset()
        ops_c, _ = one_pass(True)
        spans_c = tracer.spans
    finally:
        tracer.remove()

    skip = frozenset(i for i, op in enumerate(ops) if op.outcome == "capped")
    layers = tracing.layer_metrics(spans_b, len(ops) - len(skip), skip)
    again = tracing.layer_metrics(spans_c, len(ops_c) - len(skip), skip)
    repeat = {k: (layers[k][0], again[k][0]) for k in layers
              if layers[k][1] not in ("s", "s/step")
              and layers[k][0] != again[k][0]}
    outcomes_repeat = [op.outcome for op in ops] == [op.outcome for op in ops_c]

    check_ops(args.workload, ops, inputs)
    imports = import_seconds(IMPORT_SAMPLES)

    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    metrics.update(layers)
    metrics.update({
        "trace.untraced_wall_s": (plain_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    table = tracing.span_table(spans_b, skip)
    checks_failed = [op.outcome for op in ops if op.outcome.startswith("check:")]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "ops": len(ops), "spans_recorded": len(spans_b), "reasons": reasons(ops),
        "counters_repeat": not repeat and outcomes_repeat,
        "counters_mismatch": repeat,
        "deterministic_counters": {k: layers[k][0] for k in tracing.DETERMINISTIC},
        "spans": {k: table[k] for k in sorted(table)},
        "import_samples_s": imports,
        "env": environment(),
    }
    emit(not checks_failed and not repeat and outcomes_repeat, len(ops),
         sum(1 for op in ops if op.outcome != "ok"), metrics, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fkpp_graphs", "__init__.py")):
        print("perfbench: src/fkpp_graphs not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0

    sys.path.insert(0, SRC)
    import fkpp_graphs.cli as cli
    import fkpp_graphs.errors as errors

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported fkpp_graphs from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        inputs = build_inputs(args.workload, args.seed, args.seconds, work,
                              traced=bool(args.trace))
        warm_up(args.workload, work, cli, errors)
        if args.trace:
            traced(args, inputs, work, cli, errors)
        else:
            end_to_end(args, inputs, work, cli, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    return 0


def warm_up(workload, work, cli, errors):
    """Untimed ops so lazy imports and first-call set-up are paid."""
    out = os.path.join(work, "warm.json")
    with wl.InProcessRunner(cli, errors, wl.CAP_S[workload]) as runner:
        runner.run(["groundstate", "--flower", "stem=2.0", "loops=1.5", "--out", out])
        runner.run(["evolve", "--flower", "stem=2.0", "loops=1.5", "--out", out])


if __name__ == "__main__":
    sys.exit(main())
