"""Lazy loading, and each submodule's ``__all__`` as its list of public names."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import fkpp_graphs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

TREE_JSON = json.dumps({
    "edges": [
        {"id": "e0", "from": "a", "to": "v", "length": 0.6},
        {"id": "e1", "from": "v", "to": "b", "length": 0.9},
        {"id": "e2", "from": "v", "to": "c", "length": 0.4},
    ],
    "conditions": {"a": "dirichlet"},
})


SUBMODULES = sorted(name[:-3] for name in os.listdir(os.path.join(SRC, "fkpp_graphs"))
                    if name.endswith(".py") and name != "__init__.py")


def fresh_modules(code: str) -> list[str]:
    """Run `code` in a fresh interpreter; the loaded module names it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def fresh_command(argv: list[str]) -> list[str]:
    """Run `fkpp argv` through cli.main in a fresh interpreter, which must
    exit 0; the module names loaded by its end."""
    return fresh_modules(f"from fkpp_graphs.cli import main\nassert main({argv!r}) == 0")


def test_package_and_cli_import_no_scipy():
    loaded = fresh_modules("import fkpp_graphs, fkpp_graphs.cli")
    assert scipy_modules(loaded) == []
    assert "fkpp_graphs.mesh" not in loaded


@pytest.mark.parametrize("argv", [
    ["region", "--curve", "1", "--samples", "10"],
    ["region", "--grid", "--samples", "5"],
    ["region", "--flower", "stem=3", "loops=3"],
    ["groundstate", "--flower", "stem=3", "loops=3"],
    ["groundstate", "--flower", "stem=2"],
], ids=" ".join)
def test_region_and_groundstate_load_no_scipy(tmp_path, argv):
    # the secular root and the period quadratures are the package's own
    loaded = fresh_command(argv + ["--out", str(tmp_path / "out")])
    assert "fkpp_graphs.spectral" in loaded
    assert scipy_modules(loaded) == []


def optimize_or_integrate(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m.startswith(("scipy.optimize", "scipy.integrate"))]


@pytest.mark.parametrize("source", [["--flower", "stem=3", "loops=3"], ["--graph", "TREE"]],
                         ids=lambda source: source[0])
def test_spectrum_loads_neither_optimize_nor_integrate(tmp_path, source):
    g = tmp_path / "tree.json"
    g.write_text(TREE_JSON)
    loaded = fresh_command(["spectrum", *[str(g) if a == "TREE" else a for a in source],
                            "--out", str(tmp_path / "out.json")])
    assert "scipy.sparse" in loaded
    assert optimize_or_integrate(loaded) == []


def test_evolve_on_a_graph_loads_no_period_layer(tmp_path):
    g = tmp_path / "tree.json"
    g.write_text(TREE_JSON)
    loaded = fresh_modules(
        "from fkpp_graphs.cli import main\n"
        f"assert main(['evolve', '--graph', {str(g)!r}, '--mesh', '0.1', "
        "'--initial', 'const:0.5', '--max-t', '1.0', "
        f"'--out', {str(tmp_path / 'run.json')!r}]) == 0")
    assert "fkpp_graphs.evolve" in loaded
    assert "fkpp_graphs.period" not in loaded
    assert "fkpp_graphs.groundstate" not in loaded
    assert optimize_or_integrate(loaded) == []


def test_each_submodule_all_resolves_and_star_imports():
    for submodule in SUBMODULES:
        module = importlib.import_module(f"fkpp_graphs.{submodule}")
        namespace = {}
        exec(f"from fkpp_graphs.{submodule} import *", namespace)
        for name in getattr(module, "__all__", ()):    # errors.py has no list
            assert namespace[name] is getattr(module, name), (submodule, name)
    assert fkpp_graphs.__version__ == "0.1.0"


def _attribute(owner, attr):
    """What the benchmark tracer saves and puts back: a class's own entry."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_the_benchmark_tracer_finds_every_traced_name_and_restores_it():
    for submodule in SUBMODULES:    # install looks each traced module up loaded
        importlib.import_module(f"fkpp_graphs.{submodule}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()    # a renamed or deleted traced name raises here
        patched = list(tracer._undo)
        assert all(_attribute(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.remove()
    traced = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {(f"fkpp_graphs.{mod}", attr) for _, mod, attr, _ in tracing._FUNCTIONS} <= traced
    for owner, attr, original in patched:
        assert _attribute(owner, attr) is original, (owner, attr)
