"""Command line surface: exit codes, JSON and CSV contracts, round trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_groundstate import dense_jacobian

from fkpp_graphs import cli, errors, graph, groundstate, mesh, period, spectral
from fkpp_graphs.cli import main

LAM_TADPOLE = 0.6309875424906724841546

THETA_JSON = json.dumps({
    "edges": [
        {"id": "e0", "from": "a", "to": "v", "length": 0.3},
        {"id": "e1", "from": "v", "to": "w", "length": 1.0},
        {"id": "e2", "from": "v", "to": "w", "length": 1.2},
        {"id": "e3", "from": "v", "to": "w", "length": 0.7},
    ],
    "conditions": {"a": "dirichlet"},
})

# the tadpole (stem 0.8, loop 1.5) with its own ids and the stem drawn from
# the center to the Dirichlet vertex
TADPOLE_REVERSED_JSON = json.dumps({
    "edges": [
        {"id": "e0", "from": "c", "to": "b", "length": 0.8},
        {"id": "e1", "from": "c", "to": "c", "length": 1.5},
    ],
    "conditions": {"b": "dirichlet"},
})


def edge_graph(*edges, conditions=(("a", "dirichlet"),)):
    return {"edges": [{"id": f"e{k}", "from": a, "to": b, "length": ell}
                      for k, (a, b, ell) in enumerate(edges)],
            "conditions": dict(conditions)}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every package module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cli, graph, groundstate, mesh, spectral):
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_spectrum_flower_emits_both_methods(tmp_path):
    out = tmp_path / "spec.json"
    rc = main(["spectrum", "--flower", "stem=0.8", "loops=1.5",
               "--out", str(out)])
    assert rc == 0
    data = read_json(out)
    assert data["schema"] == 1
    assert data["method"] == "transcendental"
    assert math.isclose(data["lambda0"], LAM_TADPOLE, rel_tol=1e-12)
    assert data["region"] == "Nontrivial"
    assert data["discretized"]["gap"] <= 1e-6
    assert data["discretized"]["lambda0"] < 1.0


def test_spectrum_writes_to_stdout(capsys):
    rc = main(["spectrum", "--flower", "stem=2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert math.isclose(data["lambda0"], (math.pi / 4.0) ** 2, rel_tol=1e-14)


def test_spectrum_on_general_graph(tmp_path):
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    out = tmp_path / "spec.json"
    rc = main(["spectrum", "--graph", str(g), "--mesh", "5e-3",
               "--out", str(out)])
    assert rc == 0
    data = read_json(out)
    assert data["method"] == "discretized"
    assert data["mesh_h"] == 5e-3
    assert data["lambda0"] > 0.0


def test_spectrum_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--graph", str(bad)]) == 2
    assert main(["spectrum", "--graph", str(tmp_path / "missing.json")]) == 2
    assert main(["spectrum", "--flower", "petals=3"]) == 2
    assert main(["spectrum"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--flower", "stem=abc"],
    ["spectrum", "--flower", "stem=0.8,loops=1.5"],
    ["spectrum", "--flower", "stem=0.8", "loops=1.5,x"],
    ["evolve", "--flower", "stem=1", "--mesh", "0.1", "--initial", "const:abc"],
    ["evolve", "--flower", "stem=1", "--mesh", "0.1", "--initial", "hat:"],
])
def test_non_numeric_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("flower", [
    {"stem": "abc"},
    {"stem": 0.8, "loops": ["x"]},
    {"stem": 0.8, "loops": [None]},
])
def test_non_numeric_flower_json_exit_2(tmp_path, capsys, flower):
    g = tmp_path / "flower.json"
    g.write_text(json.dumps({"flower": flower}))
    assert main(["spectrum", "--graph", str(g)]) == 2
    assert "must be a number" in capsys.readouterr().err


# a user value of thousands of characters: a message that quotes it whole
# still prints one error line of at most ERROR_LINE_CAP characters
LONG = "x" * 5000
PROFILE_HEADER = "edge_id,x,u\n"


@pytest.mark.parametrize("text", [
    PROFILE_HEADER + "stem,0.0,abc\n",      # non-numeric u
    PROFILE_HEADER + "stem,0.0\n",          # too few fields
    PROFILE_HEADER + "stem,1.0,0.5\nstem,0.5,0.4\nstem,0.0,0.0\n",    # x runs head to tail
    PROFILE_HEADER + "stem,0.0,0.0\nstem,0.5,0.4\n",                  # x ends short of the edge
    PROFILE_HEADER + "stem,0.0,0.0\nstem,1.5,0.4\n",                  # x runs past the edge
    PROFILE_HEADER + "stem,0.5,0.0\nstem,1.0,0.4\n",                  # x starts inside the edge
    PROFILE_HEADER + f"stem,0.0,{LONG}\n",
    PROFILE_HEADER + f"stem,{LONG}\n",
    f"{LONG}\nstem,0.0,0.0\n",
], ids=["non-numeric", "short-row", "decreasing x", "x short of the edge",
        "x past the edge", "x starts inside", "long u", "long short-row", "long header"])
def test_bad_profile_csv_exit_2(tmp_path, capsys, text):
    prof = tmp_path / "prof.csv"
    prof.write_text(text)
    assert main(["evolve", "--flower", "stem=1", "--mesh", "0.1",
                 "--initial", f"csv:{prof}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err.splitlines()[0]) <= ERROR_LINE_CAP


@pytest.mark.parametrize("kind,body", [
    ("graph", b'{"flower": {"stem": 1, "loops": ["\xe9"]}}'),
    ("graph", b"[" * 200_000),
    ("csv", b"edge_id,x,u\nstem,0.0,\xff\n"),
], ids=["graph not UTF-8", "graph nested past the recursion limit", "CSV not UTF-8"])
def test_undecodable_files_exit_2(tmp_path, capsys, kind, body):
    path = tmp_path / "input"
    path.write_bytes(body)
    argv = (["spectrum", "--graph", str(path)] if kind == "graph" else
            ["evolve", "--flower", "stem=1", "--mesh", "0.1", "--initial", f"csv:{path}"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_duplicate_edge_ids_exit_2(tmp_path):
    g = tmp_path / "dup.json"
    g.write_text(json.dumps({
        "edges": [{"id": "e", "from": "a", "to": "v", "length": 0.5},
                  {"id": "e", "from": "v", "to": "w", "length": 1.0}],
        "conditions": {"a": "dirichlet"},
    }))
    assert main(["spectrum", "--graph", str(g), "--mesh", "0.05"]) == 2


@pytest.mark.parametrize("graph,argv", [
    (edge_graph(("a", "v", 0.5), ("w", "x", 0.5)), ["spectrum"]),
    (edge_graph(("a", "v", 0.5), ("v", "w", 1.0), conditions=()), ["spectrum"]),
    (edge_graph(("a", "v", -1.0)), ["spectrum"]),
    (None, ["spectrum", "--flower", "stem=-1"]),
    (edge_graph(("a", "v", 0.5), ("v", "w", 0.003)), ["spectrum"]),
    (edge_graph(("a", "v", 0.5)), ["evolve", "--mesh", "0"]),
], ids=["disconnected", "no-pendant", "nonpositive-length", "nonpositive-stem",
        "mesh-too-coarse", "nonpositive-mesh"])
def test_invalid_graphs_and_meshes_exit_2(tmp_path, capsys, graph, argv):
    if graph is not None:
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        argv = argv + ["--graph", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_profile_missing_an_edge_exit_2(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    prof.write_text("edge_id,x,u\nstem,0.0,0.0\nstem,0.8,0.5\n")
    assert main(["evolve", "--flower", "stem=0.8", "loops=1.5", "--mesh", "0.1",
                 "--initial", f"csv:{prof}"]) == 2
    assert "'loop1'" in capsys.readouterr().err


def test_long_interval_fails_with_an_error_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "fkpp_graphs.cli", "groundstate", "--flower", "stem=30"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_underflowing_interval_exits_1(capsys):
    assert main(["groundstate", "--flower", "stem=800"]) == 1
    assert "underflows" in capsys.readouterr().err


# long values that argparse quotes, and a long edge id
LONG_ARG = "x" * 3000
LONG_ID = "e" * 3000
# loops tiny next to the stem, and huge lengths: the secular root lies above
# the old bracket end s_max (1 - 1e-13)
TINY_LOOPS = [["stem=2", "loops=1e-13"], ["stem=0.5", "loops=1e-14"]]
HUGE_LENGTHS = [["stem=1e200", "loops=1"], ["stem=1", "loops=1e300"],
                ["stem=1e-300", "loops=1e300"]]    # s * stem underflows to 0
# lengths so short that lambda0 = (pi / (2 l))^2 overflows a double: three
# loops (where pi / (2 l) itself is inf) and one loop
SUBNORMAL_LOOPS = [["stem=2.225073858507203e-309",
                    "loops=" + ",".join(["4.450147717014406e-309"] * n)] for n in (3, 1)]
QUICK_EVOLVE = ["--mesh", "0.1", "--max-t", "1"]
# an output path inside a file, which no directory can be
UNWRITABLE = os.path.join(os.devnull, "out")
# a file that opens but refuses every write
DEV_FULL = "/dev/full"


def pendant_tree(pendant, pendant_id="e2"):
    """Three edges at vertex a: to the Dirichlet end, a second edge, a Kirchhoff pendant."""
    return {"edges": [{"id": "e0", "from": "d", "to": "a", "length": 2.0},
                      {"id": "e1", "from": "a", "to": "b", "length": 1.5},
                      {"id": pendant_id, "from": "a", "to": "p", "length": pendant}],
            "conditions": {"d": "dirichlet"}}


# cells more uneven than mesh.CELL_RATIO_CAP: solved, these end off the
# answer (1e-11 to 1e-15), after all MAX_STEPS (loop 1e-14), on the wrong
# side (loop 1e-16), with a collapsed step (pendant 1e-16) or in a singular
# factor (1e-17 and below)
UNEVEN_EVOLVE = ["--mesh", "0.1", "--initial", "const:0.5", "--max-t", "200"]
UNEVEN_LOOPS = ["1e-11", "1e-13", "1e-14", "1e-15", "1e-16", "1e-17", "1e-300"]
UNEVEN_PENDANTS = [1e-15, 1e-16, 1e-17]
# a step below evolve.DT_FLOOR, as given or after the monotone bound
# (const:1e300, whose free energy would overflow too, stops here first; at
# 1e308 the bound 0.99 / (2c - 1) rounds to 0)
BELOW_STEP_FLOOR = [
    ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, "--initial", "const:1e300"],
    ["evolve", "--flower", "stem=2", "--mesh", "0.1", "--dt", "1e-300", "--max-t", "1"],
    ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, "--initial", "const:1e15"],
    ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, "--initial", "const:1e308"],
    ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, "--initial", "hat:1e308"],
]
BAD_GRAPH_JSON = [
    {"edges": [{"id": "e0", "from": "a", "to": "v", "length": 1.0}], "conditions": ["a"]},
    {"edges": [5], "conditions": {"a": "dirichlet"}},
    {"edges": 5, "conditions": {"a": "dirichlet"}},
    # JSON's true is not the length 1
    {"flower": {"stem": True, "loops": [True]}},
    {"edges": [{"id": "e0", "from": "a", "to": "v", "length": True}],
     "conditions": {"a": "dirichlet"}},
    # an edge entry nested 900 deep: its message quotes an excerpt, not 1,800 brackets
    {"edges": [json.loads("[" * 900 + "]" * 900)], "conditions": {"a": "dirichlet"}},
    # ... and so do a condition nested as deep and 300 unreachable vertices
    {"edges": [{"id": "e0", "from": "a", "to": "v", "length": 1.0}],
     "conditions": {"a": json.loads("[" * 900 + "]" * 900)}},
    edge_graph(("a", "v", 1.0), *((f"x{k}", f"y{k}", 1.0) for k in range(300))),
]
BAD_INPUTS = [
    *((2, [cmd, "--flower", *flower, *(QUICK_EVOLVE if cmd == "evolve" else [])])
      for cmd in ("spectrum", "groundstate", "evolve", "region")
      for flower in (["stem=inf"], ["stem=1", "loops=inf"])),
    *((2, ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, "--dt", dt])
      for dt in ("-1", "0", "nan")),
    *((2, ["spectrum", "--flower", *flower]) for flower in TINY_LOOPS),   # MeshTooCoarse
    (3, ["groundstate", "--flower", *TINY_LOOPS[1]]),                     # lambda0 >= 1
    *((2, [cmd, "--flower", *flower]) for cmd in ("region", "spectrum", "groundstate")
      for flower in SUBNORMAL_LOOPS),
    (3, ["groundstate", "--flower", "stem=1"]),                           # ... on an interval
    *((1, ["groundstate", "--flower", *flower]) for flower in HUGE_LENGTHS),  # stalls
    # a graph that is not a flower where a flower is needed (NotAFlower)
    (4, ["groundstate", "--graph", json.loads(THETA_JSON)]),
    (4, ["region", "--graph", json.loads(THETA_JSON)]),
    (4, ["evolve", *QUICK_EVOLVE, "--initial", "groundstate", "--graph", json.loads(THETA_JSON)]),
    *((2, ["spectrum", "--graph", body]) for body in BAD_GRAPH_JSON),
    (2, ["region", "--curve", "2", "--samples", "-1"]),
    (2, ["region", "--curve", "-1"]),
    # region's modes exclude each other
    (2, ["region", "--flower", "stem=2", "loops=1.5", "--curve", "3", "--grid"]),
    (2, ["region", "--grid", "--curve", "2"]),
    (2, ["validate", "--suite", "jacobian", "--samples", "0"]),
    (2, ["validate", "--suite", "jacobian", "--seed", "-1"]),
    *((2, [*cmd, "--jobs", "2"]) for cmd in (["region", "--curve", "2"],
                                              ["validate", "--suite", "dichotomy"])),
    # --samples where the mode draws no samples
    *((2, ["validate", "--suite", suite, "--samples", "3"])
      for suite in ("asymptotics", "dichotomy")),
    (2, ["region", "--flower", "stem=2", "loops=1.5", "--samples", "3"]),
    (2, ["region", "--samples", "3", "--graph", {"flower": {"stem": 2.0, "loops": [1.5]}}]),
    *((2, ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, option, value])
      for option in ("--max-t", "--tol") for value in ("-1", "nan")),
    *((2, ["groundstate", "--flower", "stem=2", "--tol", tol]) for tol in ("nan", "inf")),
    *((2, [cmd, "--flower", "stem=2", "--mesh", "inf"]) for cmd in ("spectrum", "evolve")),
    # the P1 mesh of a huge length has more nodes than an int64 index counts
    *((2, ["spectrum", "--flower", *flower]) for flower in HUGE_LENGTHS[::2]),
    (2, ["evolve", "--flower", *HUGE_LENGTHS[0], *QUICK_EVOLVE]),
    # ... or than memory holds (6.9 EiB of doubles: the allocation is refused outright)
    (2, ["spectrum", "--flower", "stem=1e15", "loops=1", "--mesh", "1e-3"]),
    (2, ["evolve", "--flower", "stem=1e15", "loops=1", "--mesh", "1e-3", "--max-t", "1"]),
    # ... or than numpy's byte count holds as doubles (about 5e18 nodes)
    (2, ["spectrum", "--flower", "stem=5e15", "loops=1", "--mesh", "1e-3"]),
    (2, ["evolve", "--flower", "stem=5e15", "loops=1", "--mesh", "1e-3", "--max-t", "1"]),
    *((2, argv) for argv in BELOW_STEP_FLOOR),
    # cells too narrow for their stiffness 2/h to be a double: a stem of 0
    # cells (the hat's ell / 2 underflows) and of 5e-311
    (2, ["evolve", "--flower", "stem=5e-324", *QUICK_EVOLVE]),
    (2, ["evolve", "--flower", "stem=1e-310", *QUICK_EVOLVE, "--initial", "const:0.5"]),
    # a hat whose samples overflow: its peak past a double, or amp inf
    *((2, ["evolve", "--flower", "stem=4", *QUICK_EVOLVE, "--initial", hat])
      for hat in ("hat:1e308", "hat:inf")),
    # cells of 5e-301 next to 0.1: too uneven, before the energy of 1e5 overflows
    (2, ["evolve", "--flower", "stem=1e-300", "loops=1", *QUICK_EVOLVE,
         "--initial", "const:1e5"]),
    # an initial state whose free energy overflows a double: 1e5 over a mass of 1e299
    (2, ["evolve", "--flower", "stem=1e300", "--mesh", "1e299", "--max-t", "1",
         "--initial", "const:1e5"]),
    *((2, ["evolve", "--flower", "stem=2", f"loops={loop}", *UNEVEN_EVOLVE])
      for loop in UNEVEN_LOOPS),
    # ... and with the default hat, to a horizon of 1
    *((2, ["evolve", "--flower", "stem=2", f"loops={loop}", *QUICK_EVOLVE])
      for loop in ("1e-16", "1e-300")),
    *((2, ["evolve", *UNEVEN_EVOLVE, "--graph", pendant_tree(p)]) for p in UNEVEN_PENDANTS),
    # outputs that cannot be opened, or that fail while written
    *(entry for path in (UNWRITABLE, DEV_FULL) for entry in (
        (2, ["region", "--curve", "2", "--out", path]),
        (2, ["spectrum", "--flower", "stem=2", "--out", path]),
        (2, ["groundstate", "--flower", "stem=2", "--profile", path]),
        *((2, ["evolve", "--flower", "stem=2", *QUICK_EVOLVE, option, path])
          for option in ("--trace", "--profile", "--out")))),
    # long values on the command line, each quoted whole in its message ...
    (2, ["evolve", "--flower", "stem=1", *QUICK_EVOLVE, "--initial", f"const:{LONG}"]),
    (2, ["evolve", "--flower", "stem=1", *QUICK_EVOLVE, "--initial", LONG]),
    (2, ["spectrum", "--flower", LONG]),
    (2, ["spectrum", "--flower", f"{LONG}=1"]),
    (2, ["spectrum", "--flower", f"stem={LONG}"]),
    # ... by argparse too
    (2, ["region", "--curve", "2", "--samples", LONG_ARG]),
    (2, ["spectrum", "--flower", "stem=2", "--mesh", LONG_ARG]),
    (2, ["region", "--curve", "2", LONG_ARG]),
    # ... as a graph file or an output path, each past the longest file name
    (2, ["spectrum", "--graph", LONG_ARG]),
    (2, ["region", "--curve", "2", "--out", LONG_ARG]),
    # ... and in graph files: an edge id in the mesh's messages, a flower stem
    (2, ["evolve", *UNEVEN_EVOLVE, "--graph", pendant_tree(1e-15, LONG_ID)]),
    (2, ["evolve", *QUICK_EVOLVE, "--graph", {"edges": [{"id": LONG_ID, "from": "a", "to": "v",
                                                         "length": 1e-310}],
                                              "conditions": {"a": "dirichlet"}}]),
    (2, ["spectrum", "--graph", {"flower": {"stem": LONG}}]),
]


# the longest first error line a bad input may print: user values are quoted
# as excerpts
ERROR_LINE_CAP = 400


@pytest.mark.parametrize("code,argv", BAD_INPUTS,
                         ids=[" ".join((a if isinstance(a, str) else json.dumps(a))[:200]
                                       for a in argv) for _, argv in BAD_INPUTS])
def test_bad_inputs_exit_with_one_error_line(tmp_path, capsys, code, argv):
    if DEV_FULL in argv and not os.path.exists(DEV_FULL):
        pytest.skip(f"no {DEV_FULL} here")
    if isinstance(argv[-1], dict):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert len(err.splitlines()[0]) <= ERROR_LINE_CAP
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


def test_memory_that_runs_out_after_the_mesh_is_one_error_line(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mesh.CondensedLU, "__init__", refuse)
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    assert main(["evolve", "--graph", str(g), "--mesh", "0.05", "--max-t", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", BELOW_STEP_FLOOR, ids=map(" ".join, BELOW_STEP_FLOOR))
def test_a_step_below_the_floor_is_named_as_such(capsys, argv):
    assert main(argv) == 2
    assert "below the step floor" in capsys.readouterr().err


# Every numeric option of a drawn argv takes one of these; None is the
# option's valid value, and 1e15 is a length whose mesh cannot be allocated.
NUMBERS = (None, "0", "-1", "inf", "-inf", "nan", "1e-300", "1e300", "abc", "1e15")
# exit codes README documents for valid input, per subcommand (2: a mesh too
# coarse or too large for the lengths)
VALID_EXITS = {"spectrum": {0, 2}, "groundstate": {0, 1, 3}, "evolve": {0, 1, 2},
               "region": {0, 3}, "validate": {0}}


def _float_in(text, lo, hi):
    try:
        return lo < float(text) < hi
    except ValueError:
        return False


def _int_at_least(text, least):
    try:
        return int(text) >= least
    except ValueError:
        return False


def _positive(text):
    return _float_in(text, 0.0, math.inf)


@st.composite
def cli_calls(draw):
    """(argv, valid): one subcommand with every numeric option drawn from NUMBERS."""
    def number(valid):
        value = draw(st.sampled_from(NUMBERS))
        return valid if value is None else value

    def option(name, valid):
        """An optional positive option: (argv tail, whether it is valid)."""
        if not draw(st.booleans()):
            return [], True
        value = number(valid)
        return [name, value], _positive(value)

    cmd = draw(st.sampled_from(sorted(VALID_EXITS)))
    if cmd == "validate":
        seed, samples = number("0"), number("1")
        suite = draw(st.sampled_from(["asymptotics", "dichotomy", "jacobian", "monotonicity"]))
        # only the jacobian and monotonicity suites draw samples; the others
        # refuse --samples as a usage error
        return (["validate", "--suite", suite, "--seed", seed, "--samples", samples],
                _int_at_least(seed, 0) and _int_at_least(samples, 1)
                and suite in ("jacobian", "monotonicity"))
    if cmd == "region" and draw(st.booleans()):
        samples = number("3")
        if draw(st.booleans()):
            return ["region", "--grid", "--samples", samples], _int_at_least(samples, 1)
        curve = number("2")
        return (["region", "--curve", curve, "--samples", samples],
                _int_at_least(curve, 1) and _int_at_least(samples, 1))
    stem, loops = number("2"), number("1")
    argv = [cmd, "--flower", f"stem={stem}", f"loops={loops}"]
    # the commands that compute lambda0 raise InvalidDomain when it overflows a
    # double, as it does once every length is below about 1e-154
    valid = (_positive(stem) and _positive(loops)
             and (cmd == "evolve" or not all(_float_in(x, 0.0, 1e-150) for x in (stem, loops))))
    if cmd == "spectrum":
        extra, ok = option("--mesh", "0.1")
        argv, valid = argv + extra, valid and ok
    elif cmd == "groundstate":
        extra, ok = option("--tol", "1e-8")
        argv, valid = argv + extra, valid and ok
    elif cmd == "evolve":
        mesh_h, dt, max_t, tol = number("0.1"), number("0.1"), number("1"), number("1e-9")
        value = number("0.5")
        argv += ["--mesh", mesh_h, "--dt", dt, "--max-t", max_t, "--tol", tol,
                 "--initial", f"const:{value}"]
        # --dt inf is clamped to the monotone step; a state's energy must fit
        # a double
        valid = (valid and all(map(_positive, (mesh_h, max_t, tol)))
                 and (_positive(dt) or dt == "inf") and _float_in(value, -1e-300, 1e100))
    return argv, valid


@settings(max_examples=80, deadline=None)
@given(call=cli_calls())
@example(call=(["region", "--flower", "stem=1e-300", "loops=1e-300"], False))
def test_every_drawn_argv_ends_in_a_documented_exit(call):
    argv, valid = call
    err = io.StringIO()
    # --tol 1e-300 never converges, so with --max-t 1e300 a run takes all of
    # MAX_STEPS; a smaller cap ends it the same way sooner
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr("fkpp_graphs.evolve.MAX_STEPS", 2000)
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    text = err.getvalue()
    assert code in (VALID_EXITS[argv[0]] if valid else {2}), (argv, code, text)
    assert "Traceback" not in text
    if code:
        assert text.startswith("error: "), (argv, text)
        assert sum(line.startswith("error:") for line in text.splitlines()) == 1
    assert wall < 10.0, (argv, wall)


@pytest.mark.parametrize("flower", TINY_LOOPS + HUGE_LENGTHS)
def test_region_classifies_flowers_next_to_the_secular_pole(tmp_path, flower):
    out = tmp_path / "reg.json"
    assert main(["region", "--flower", *flower, "--out", str(out)]) == 0
    data = read_json(out)
    assert data["lambda0"] == spectral.lambda0_flower(cli._parse_flower(flower)).lambda0
    assert data["region"] == ("Trivial" if flower == TINY_LOOPS[1] else "Nontrivial")


def test_groundstate_on_a_tiny_loop(tmp_path):
    out = tmp_path / "gs.json"
    assert main(["groundstate", "--flower", *TINY_LOOPS[0], "--out", str(out)]) == 0
    assert read_json(out)["jacobian_sign_ok"] is True


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_overflowing_determinant_is_strict_json_null():
    # 80 loops: the Jacobian determinant overflows a double, its log does not
    loops = ",".join(repr(2.0 * float(h)) for h in np.linspace(0.1, 1.2, 80))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "fkpp_graphs.cli", "groundstate", "--flower",
         "stem=12", f"loops={loops}"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    data = json.loads(done.stdout, parse_constant=_reject_constant)
    assert data["jacobian_determinant"] is None
    assert data["jacobian_sign_ok"] is True
    sign, log_abs = np.linalg.slogdet(
        dense_jacobian(groundstate.jacobian_report(data["p"], data["q"])))
    assert sign == -1.0
    assert math.isclose(data["jacobian_log_abs_determinant"], log_abs, rel_tol=1e-12)


def test_80_loops_solve_to_the_same_bytes_on_the_scalar_path(monkeypatch, tmp_path):
    loops = ",".join(repr(2.0 * float(h)) for h in np.linspace(0.1, 1.2, 80))
    outputs = []
    for panel_min_loops in (period.PANEL_MIN_LOOPS, 81):    # 81: every loop scalar
        monkeypatch.setattr(period, "PANEL_MIN_LOOPS", panel_min_loops)
        out, prof = tmp_path / "gs.json", tmp_path / "profile.csv"
        assert main(["groundstate", "--flower", "stem=12", f"loops={loops}",
                     "--out", str(out), "--profile", str(prof)]) == 0
        outputs.append((out.read_bytes(), prof.read_bytes()))
        # sampling the profile on read leaves the JSON as the end-state pass wrote it
        assert main(["groundstate", "--flower", "stem=12", f"loops={loops}",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == outputs[-1][0]
    assert outputs[0] == outputs[1]


def test_groundstate_summary_and_profile(tmp_path):
    out = tmp_path / "gs.json"
    prof = tmp_path / "prof.csv"
    rc = main(["groundstate", "--flower", "stem=0.8", "loops=1.5",
               "--out", str(out), "--profile", str(prof)])
    assert rc == 0
    data = read_json(out)
    assert data["schema"] == 1
    assert math.isclose(data["p"], 0.6615687833661179, rel_tol=1e-10)
    assert len(data["q"]) == 1
    assert data["q_stem"] == 2.0 * data["q"][0]
    assert math.isclose(data["lambda0"], LAM_TADPOLE, rel_tol=1e-12)
    assert data["H"] < 0.0
    assert data["jacobian_sign_ok"] is True
    assert max(data["residuals"]["period_residuals"].values()) <= 1e-9

    header, rows = read_csv(prof)
    assert header == ["edge_id", "x", "u"]
    edges = {r[0] for r in rows}
    assert edges == {"stem", "loop1"}
    us = np.array([float(r[2]) for r in rows])
    assert us.min() >= 0.0 and us.max() < 1.0


@pytest.mark.parametrize("flower", [
    ["stem=0.8", "loops=1.5"],
    ["stem=0.51", "loops=1.6,1.0"],
    ["stem=12", "loops=" + ",".join(repr(2.0 * float(h))
                                    for h in np.linspace(0.1, 1.2, 80))],
], ids=["tadpole", "two-loop", "12-80loops"])
def test_groundstate_reports_the_jacobian_newton_converged_on(monkeypatch, tmp_path,
                                                              flower):
    calls = count_calls(monkeypatch, groundstate, "_jacobian")
    out = tmp_path / "gs.json"
    assert main(["groundstate", "--flower", *flower, "--out", str(out)]) == 0
    data = read_json(out)
    # one Jacobian per Newton iterate, the last one included, and none after
    assert len(calls) == data["newton_iterations"] + 1
    monkeypatch.undo()
    rep = groundstate.jacobian_report(data["p"], data["q"])
    det = rep.determinant
    assert data["jacobian_determinant"] == (det if math.isfinite(det) else None)
    assert data["jacobian_log_abs_determinant"] == rep.log_abs_determinant
    assert data["jacobian_sign_ok"] is rep.sign_ok is True


@pytest.mark.parametrize("flower", [
    ["stem=0.8", "loops=1.5"],
    ["stem=0.51", "loops=1.6,1.0"],
    ["stem=2"],
], ids=["tadpole", "two-loop", "stem-2"])
def test_groundstate_solves_the_secular_equation_once(monkeypatch, tmp_path, flower):
    calls = count_calls(monkeypatch, spectral, "lambda0_flower")
    out = tmp_path / "gs.json"
    assert main(["groundstate", "--flower", *flower, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert read_json(out)["lambda0"] < 1.0


@pytest.mark.parametrize("command", ["spectrum", "evolve"])
def test_graph_op_validates_once(monkeypatch, tmp_path, command):
    # the loader and the mesh share the graph's one validation
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    calls = count_calls(monkeypatch, graph, "validate")
    extra = ["--initial", "const:0.5", "--max-t", "1"] if command == "evolve" else []
    assert main([command, "--graph", str(g), "--mesh", "0.05", *extra,
                 "--out", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


def test_groundstate_below_threshold_exit(tmp_path):
    assert main(["groundstate", "--flower", "stem=1"]) == 3
    assert main(["groundstate", "--flower", "stem=0.2", "loops=1.6"]) == 3


def test_groundstate_non_flower_exit(tmp_path, capsys):
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    rc = main(["groundstate", "--graph", str(g)])
    assert rc == 4
    assert "evolve" in capsys.readouterr().err


# the exit code README documents for each error class
EXIT_CODES = {
    errors.FisherKppError: 1, errors.OrbitNotClosed: 1, errors.NewtonStalled: 1,
    errors.StepTooLarge: 1, errors.LinearSolveFailure: 1, errors.ComparisonViolated: 1,
    errors.InvalidDomain: 2, errors.DisconnectedGraph: 2, errors.NoPendant: 2,
    errors.NonpositiveLength: 2, errors.MeshTooCoarse: 2, errors.NegativeInitialData: 2,
    errors.OutsideRegion: 3, errors.NotAFlower: 4,
}


def test_every_error_class_is_documented():
    classes, todo = set(), [errors.FisherKppError]
    while todo:
        classes.add(todo[-1])
        todo.extend(todo.pop().__subclasses__())
    assert classes == set(EXIT_CODES)


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_region", fail)
    assert main(["region", "--curve", "1"]) == EXIT_CODES[cls]
    assert capsys.readouterr().err == "error: boom\n"


def test_evolve_trivial_run(tmp_path):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.csv"
    rc = main(["evolve", "--flower", "stem=1", "--mesh", "0.05",
               "--initial", "const:0.5", "--tol", "1e-7",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    data = read_json(out)
    assert data["terminal"] == "ConvergedTrivial"
    assert data["sup_end"] <= 1e-6
    assert data["steps"] > 0

    header, rows = read_csv(trace)
    assert header == ["t", "H", "sup_norm"]
    hs = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(hs) <= 1e-10)
    assert len(rows) == data["steps"] + 1


# stem 3 with a loop of 1 lies on the nontrivial side (lambda0 = 0.157); a
# tolerance above evolve.TOL_CAP once accepted any state in [0, 1] as trivial
@pytest.mark.parametrize("tol", ["1e300", "1", "1e-3"])
def test_a_loose_evolve_tolerance_ends_on_the_spectral_side(tmp_path, tol):
    flower = ["--flower", "stem=3", "loops=1", "--mesh", "0.05"]
    assert main(["spectrum", *flower, "--out", str(tmp_path / "s.json")]) == 0
    assert main(["evolve", *flower, "--initial", "const:0.5", "--tol", tol,
                 "--out", str(tmp_path / "e.json")]) == 0
    region = read_json(tmp_path / "s.json")["region"]
    assert region == "Nontrivial"
    assert read_json(tmp_path / "e.json")["terminal"] == f"Converged{region}"


# the shortest loop and pendant whose cells mesh.CELL_RATIO_CAP accepts at
# --mesh 0.1 (ratio 1e6 to rounding): evolve ends on the side spectrum gives
# the graph without the short edge, and next to that graph's run
@pytest.mark.parametrize("short", ["loop", "pendant"])
def test_the_most_uneven_accepted_cells_end_on_the_spectral_side(tmp_path, short):
    def graph(length):
        if short == "loop":
            return ["--flower", "stem=2", *([f"loops={length!r}"] if length else [])]
        tree = pendant_tree(length)
        tree["edges"] = tree["edges"][:3 if length else 2]
        path = tmp_path / f"tree_{length}.json"
        path.write_text(json.dumps(tree))
        return ["--graph", str(path)]

    def evolve(length):
        out = tmp_path / "e.json"
        code = main(["evolve", *graph(length), *UNEVEN_EVOLVE, "--out", str(out)])
        return read_json(out) if code == 0 else None

    length = 2.0 * 0.1 / mesh.CELL_RATIO_CAP
    for _ in range(4):    # the ratio at this length may round to just above the cap
        if (data := evolve(length)) is not None:
            break
        length = math.nextafter(length, math.inf)
    assert data is not None
    spec = tmp_path / "s.json"
    assert main(["spectrum", *graph(None), "--mesh", "0.1", "--out", str(spec)]) == 0
    region = read_json(spec)["region"]
    assert data["terminal"] == f"Converged{region}" == "ConvergedNontrivial"
    assert abs(data["sup_end"] - evolve(None)["sup_end"]) <= 1e-6


def test_evolve_on_general_graph(tmp_path):
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    out = tmp_path / "run.json"
    rc = main(["evolve", "--graph", str(g), "--mesh", "0.05",
               "--initial", "const:0.3", "--max-t", "1.0",
               "--out", str(out)])
    assert rc == 0
    assert read_json(out)["terminal"] == "MaxStepsReached"


# One edge between two Dirichlet vertices has no free vertex: the factor is
# its tridiagonal interior alone.  Values are those of the full-operator
# SuperLU solve this factor replaced.
@pytest.mark.parametrize("length,lam,steps,terminal", [
    (2.0, 2.466133013497611, 162, "ConvergedTrivial"),
    (4.0, 0.6167710074216547, 485, "ConvergedNontrivial"),
])
def test_edge_between_two_dirichlet_vertices(tmp_path, length, lam, steps, terminal):
    g = tmp_path / "edge.json"
    g.write_text(json.dumps(edge_graph(("a", "b", length),
                                       conditions=(("a", "dirichlet"), ("b", "dirichlet")))))
    spec, run = tmp_path / "spec.json", tmp_path / "run.json"
    assert main(["spectrum", "--graph", str(g), "--mesh", "0.05", "--out", str(spec)]) == 0
    assert math.isclose(read_json(spec)["lambda0"], lam, rel_tol=1e-12)
    assert main(["evolve", "--graph", str(g), "--mesh", "0.05", "--initial", "const:0.5",
                 "--out", str(run)]) == 0
    data = read_json(run)
    assert (data["steps"], data["terminal"]) == (steps, terminal)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--graph", "THETA", "--mesh", "0.05"],
    ["evolve", "--graph", "THETA", "--mesh", "0.05", "--initial", "const:0.5", "--max-t", "5"],
    ["evolve", "--flower", "stem=2", "loops=1.5", "--initial", "groundstate"],
], ids=["spectrum-graph", "evolve-graph", "evolve-flower-groundstate"])
def test_no_command_builds_the_reduced_or_full_node_operators(monkeypatch, tmp_path, argv):
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    argv = [str(g) if a == "THETA" else a for a in argv]

    def run(tag):
        outs = [tmp_path / f"{tag}.{kind}" for kind in ("json", "trace.csv", "profile.csv")]
        extra = ["--trace", str(outs[1]), "--profile", str(outs[2])] if argv[0] == "evolve" else []
        assert main([*argv, "--out", str(outs[0]), *extra]) == 0
        return [path.read_bytes() for path in outs if path.exists()]

    want = run("plain")

    def refuse(*args, **kwargs):
        raise AssertionError("a command built A_ff or a full-node operator")

    monkeypatch.setattr(mesh.GraphMesh, "reduced_operators", refuse)
    monkeypatch.setattr(mesh.GraphMesh, "stiffness", property(refuse))
    monkeypatch.setattr(mesh.GraphMesh, "lumped_mass", property(refuse))
    assert run("patched") == want


def test_evolve_bad_initial_data(tmp_path):
    assert main(["evolve", "--flower", "stem=1", "--mesh", "0.1",
                 "--initial", "const:-0.2"]) == 2
    assert main(["evolve", "--flower", "stem=1", "--mesh", "0.1",
                 "--initial", "blob:1"]) == 2


def test_negative_zero_initial_data_prints_no_negative_zero(tmp_path, capsys):
    # a Dirichlet pendant of 3 and a 2-cell pendant and self-loop at --mesh 0.05
    g = tmp_path / "two_cells.json"
    g.write_text(json.dumps({
        "edges": [{"id": "e0", "from": "a", "to": "v", "length": 3},
                  {"id": "e1", "from": "v", "to": "w", "length": 0.1},
                  {"id": "e2", "from": "v", "to": "v", "length": 0.1}],
        "conditions": {"a": "dirichlet"}}))
    prof, trace = tmp_path / "prof.csv", tmp_path / "trace.csv"
    assert main(["evolve", "--graph", str(g), "--mesh", "0.05", "--max-t", "1",
                 "--initial", "const:-0.0", "--profile", str(prof),
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["terminal"] == "ConvergedTrivial"
    for text in (out, prof.read_text(), trace.read_text()):
        assert "-0.0" not in text


def test_a_closed_stdout_pipe_is_one_error_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with subprocess.Popen(
            [sys.executable, "-m", "fkpp_graphs.cli", "region", "--grid", "--samples", "300"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()    # the 90,000 rows left outgrow any pipe buffer
        err = proc.stderr.read().decode()
    assert first == b"loop_half_1,loop_half_2,critical_stem\r\n"
    assert proc.returncode == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_evolve_from_the_groundstate_stays_nontrivial(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["evolve", "--flower", "stem=0.8", "loops=1.5", "--mesh", "0.05",
               "--initial", "groundstate", "--tol", "1e-7", "--out", str(out)])
    assert rc == 0
    assert read_json(out)["terminal"] == "ConvergedNontrivial"


def test_evolve_from_the_groundstate_needs_a_flower(tmp_path, capsys):
    g = tmp_path / "theta.json"
    g.write_text(THETA_JSON)
    assert main(["evolve", "--graph", str(g), "--mesh", "0.05",
                 "--initial", "groundstate"]) == 4
    assert "flower-representable" in capsys.readouterr().err


def test_evolve_default_initial_data(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["evolve", "--flower", "stem=2", "--mesh", "0.05", "--tol", "1e-7",
               "--out", str(out)])
    assert rc == 0
    data = read_json(out)
    assert data["terminal"] == "ConvergedNontrivial"
    assert 0.0 < data["sup_end"] < 1.0


def test_the_cached_parser_dispatches_rebound_subcommands(monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_region",
                        lambda args: seen.append(args.curve) or 0)
    assert main(["region", "--curve", "3"]) == 0
    assert seen == [3]


def test_profile_round_trips_as_near_stationary_data(tmp_path):
    prof = tmp_path / "prof.csv"
    assert main(["groundstate", "--flower", "stem=0.8", "loops=1.5",
                 "--out", str(tmp_path / "gs.json"),
                 "--profile", str(prof)]) == 0
    trace = tmp_path / "trace.csv"
    rc = main(["evolve", "--flower", "stem=0.8", "loops=1.5",
               "--mesh", "0.01", "--initial", f"csv:{prof}",
               "--max-t", "1.0", "--trace", str(trace),
               "--out", str(tmp_path / "run.json")])
    assert rc == 0
    header, rows = read_csv(trace)
    sups = np.array([float(r[2]) for r in rows])
    assert np.max(np.abs(sups - sups[0])) <= 1e-3


def test_flower_graph_file_keeps_its_edge_ids(tmp_path):
    g = tmp_path / "tadpole.json"
    g.write_text(TADPOLE_REVERSED_JSON)
    prof = tmp_path / "prof.csv"
    ref = tmp_path / "ref.csv"
    assert main(["groundstate", "--graph", str(g), "--out", str(tmp_path / "gs.json"),
                 "--profile", str(prof)]) == 0
    assert main(["groundstate", "--flower", "stem=0.8", "loops=1.5",
                 "--out", str(tmp_path / "ref.json"), "--profile", str(ref)]) == 0

    def samples(path, edge_id):
        _, rows = read_csv(path)
        return np.array([[float(r[1]), float(r[2])] for r in rows if r[0] == edge_id])

    assert {r[0] for r in read_csv(prof)[1]} == {"e0", "e1"}
    stem, e0 = samples(ref, "stem"), samples(prof, "e0")
    assert np.array_equal(e0[:, 1], stem[::-1, 1])   # u = 0 at the Dirichlet end
    assert np.allclose(e0[:, 0], 0.8 - stem[::-1, 0], rtol=0.0, atol=1e-15)
    assert np.array_equal(samples(prof, "e1"), samples(ref, "loop1"))

    trace = tmp_path / "trace.csv"
    assert main(["evolve", "--graph", str(g), "--mesh", "0.01",
                 "--initial", f"csv:{prof}", "--max-t", "1.0", "--trace", str(trace),
                 "--out", str(tmp_path / "run.json")]) == 0
    sups = np.array([float(r[2]) for r in read_csv(trace)[1]])
    assert np.max(np.abs(sups - sups[0])) <= 1e-3
    out = tmp_path / "gs_run.json"
    assert main(["evolve", "--graph", str(g), "--mesh", "0.05", "--initial",
                 "groundstate", "--tol", "1e-7", "--out", str(out)]) == 0
    assert read_json(out)["terminal"] == "ConvergedNontrivial"


def test_region_membership_json(tmp_path):
    out = tmp_path / "reg.json"
    assert main(["region", "--flower", "stem=2", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["region"] == "Nontrivial"
    assert data["boundary"] is False
    assert data["lambda0"] < 1.0


def test_region_needs_a_source():
    assert main(["region"]) == 2


def test_region_curves_order_by_loop_count(tmp_path):
    one = tmp_path / "n1.csv"
    five = tmp_path / "n5.csv"
    assert main(["region", "--curve", "1", "--samples", "20",
                 "--out", str(one)]) == 0
    assert main(["region", "--curve", "5", "--samples", "20",
                 "--out", str(five)]) == 0
    h1, r1 = read_csv(one)
    h5, r5 = read_csv(five)
    assert h1 == ["loop_half_1", "critical_stem"]
    assert h5 == [f"loop_half_{j}" for j in range(1, 6)] + ["critical_stem"]
    # both start from the loopless limit L = pi/2
    assert math.isclose(float(r1[0][1]), math.pi / 2.0, rel_tol=1e-12)
    assert float(r1[0][0]) == 0.0
    crit1 = [float(r[-1]) for r in r1]
    crit5 = [float(r[-1]) for r in r5]
    assert all(b < a for a, b in zip(crit1, crit1[1:]))  # decreasing curve
    # more loops push the boundary toward the axes
    assert all(c5 < c1 for c1, c5 in zip(crit1[1:], crit5[1:]))


def test_region_grid_has_the_corner_rows(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["region", "--grid", "--samples", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["loop_half_1", "loop_half_2", "critical_stem"]
    assert len(rows) == 25
    table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    lim = math.pi / 2.0
    assert math.isclose(table[(0.0, 0.0)], lim, rel_tol=1e-12)
    # tan diverges on the far edges; the boundary closes continuously to 0
    assert table[(lim, 0.0)] == 0.0
    assert table[(0.0, lim)] == 0.0
    assert table[(lim, lim)] == 0.0


def test_emissions_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["groundstate", "--flower", "stem=0.51", "loops=1.6,1.0"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("suite,extra", [
    ("asymptotics", []),
    ("monotonicity", ["--samples", "40"]),
    ("jacobian", ["--samples", "10"]),
    ("dichotomy", []),
])
def test_validate_suites_pass(tmp_path, suite, extra):
    out = tmp_path / "report.json"
    rc = main(["validate", "--suite", suite, "--seed", "1",
               "--out", str(out)] + extra)
    report = read_json(out)
    assert rc == 0, report
    assert report["passed"] is True
    assert report["suite"] == suite
    assert all(c["passed"] for c in report["checks"])


def test_validate_seeded_runs_repeat(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["validate", "--suite", "jacobian", "--seed", "7",
                     "--samples", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_failed_suite_writes_its_report_then_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli._SUITES, "jacobian", lambda args: [
        {"name": "holds", "passed": True, "detail": ""},
        {"name": "breaks", "passed": False, "detail": "forced"}])
    out = tmp_path / "report.json"
    assert main(["validate", "--suite", "jacobian", "--out", str(out)]) == 1
    assert read_json(out)["passed"] is False
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "breaks" in err


def test_a_log_value_that_is_not_a_level_logs_at_warning(monkeypatch):
    # logging.BASIC_FORMAT is a str attribute of logging, not a level
    monkeypatch.setenv("FKPP_LOG", "basic_format")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "fkpp_graphs.cli", "region", "--curve", "1",
         "--samples", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_logging_env_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FKPP_LOG", "INFO")
    g = tmp_path / "tad.json"
    g.write_text(json.dumps({"flower": {"stem": 0.8, "loops": [1.5]}}))
    assert main(["spectrum", "--graph", str(g),
                 "--out", str(tmp_path / "s.json")]) == 0
