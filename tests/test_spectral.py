"""Lowest eigenvalue: secular equation, discretization, threshold region."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lanczos_reference import four_vector_lanczos
from slope_reference import length_slopes
from test_mesh import peak_bytes, same_bits, seeded_tree

from fkpp_graphs import spectral
from fkpp_graphs.errors import (
    InvalidDomain,
    LinearSolveFailure,
    MeshTooCoarse,
)
from fkpp_graphs.graph import (
    Edge,
    FlowerSpec,
    MetricGraph,
    flower_from_totals,
    flower_graph,
)
from fkpp_graphs.mesh import CondensedLU, GraphMesh
from fkpp_graphs.spectral import (
    Region,
    lambda0_discretized,
    lambda0_flower,
    lower_boundary,
    region_membership,
    secular_mismatch,
)

LAM_TADPOLE = 0.6309875424906724841546      # stem 0.8, loop half 0.75
LAM_TWO_LOOP = 0.6350955139216552582931     # stem 0.51, halves (0.8, 0.5)
CRIT_STEM_08 = 0.4520672951709804575872     # lower_boundary([0.8])
LAM_80_LOOPS = 0.0007712512512929942116173  # stem 12, halves linspace(0.1, 1.2, 80)


def test_interval_eigenvalue_closed_form():
    res = lambda0_flower(FlowerSpec(stem=2.0))
    assert math.isclose(res.lambda0, (math.pi / 4.0) ** 2, rel_tol=1e-15)
    assert res.method == "transcendental"
    assert res.residual == 0.0


def test_flower_eigenvalue_anchors():
    res = lambda0_flower(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    assert math.isclose(res.lambda0, LAM_TADPOLE, rel_tol=1e-13)
    assert abs(secular_mismatch(FlowerSpec(0.8, (0.75,)),
                                math.sqrt(res.lambda0))) <= 1e-12
    res = lambda0_flower(FlowerSpec(stem=0.51, loop_halves=(0.8, 0.5)))
    assert math.isclose(res.lambda0, LAM_TWO_LOOP, rel_tol=1e-13)


def test_symmetric_single_loop_closed_form():
    # 2 tan(s) = cot(s) at stem = loop half = 1 gives s = atan(1/sqrt(2))
    res = lambda0_flower(FlowerSpec(stem=1.0, loop_halves=(1.0,)))
    want = math.atan(1.0 / math.sqrt(2.0)) ** 2
    assert math.isclose(res.lambda0, want, rel_tol=1e-13)


def test_secular_mismatch_is_increasing():
    spec = FlowerSpec(stem=0.8, loop_halves=(0.75, 0.5))
    s_max = min(math.pi / (2.0 * 0.8), math.pi / (2.0 * 0.75))
    grid = np.linspace(0.05 * s_max, 0.95 * s_max, 60)
    vals = [secular_mismatch(spec, s) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec, want", [
    (FlowerSpec(stem=0.8, loop_halves=(0.75,)), LAM_TADPOLE),
    (FlowerSpec(12.0, tuple(np.linspace(0.1, 1.2, 80))), LAM_80_LOOPS),
], ids=["tadpole", "12-80loops"])
def test_secular_root_builds_no_mesh(monkeypatch, spec, want):
    def no_mesh(*args, **kwargs):
        raise AssertionError("lambda0_flower built a GraphMesh")

    monkeypatch.setattr("fkpp_graphs.mesh.GraphMesh", no_mesh)
    res = lambda0_flower(spec)
    assert math.isclose(res.lambda0, want, rel_tol=1e-13)
    assert res.eigenfunction is None


def _bisected_lambda0(spec: FlowerSpec) -> float:
    """lambda0 by 60-digit bisection of the secular equation on (0, s_max)."""
    with mpmath.workdps(60):
        stem = mpmath.mpf(spec.stem)
        halves = [mpmath.mpf(h) for h in spec.loop_halves]
        lo, hi = mpmath.mpf(0), min(mpmath.pi / (2 * ell) for ell in [stem, *halves])
        for _ in range(220):
            mid = (lo + hi) / 2
            if 2 * sum(mpmath.tan(mid * h) for h in halves) > mpmath.cot(mid * stem):
                hi = mid
            else:
                lo = mid
        return float(lo * lo)


@pytest.mark.parametrize("stem,loop", [(2.0, 1e-13), (0.5, 1e-14), (1e200, 1.0),
                                       (1.0, 1e300), (0.8, 1.5), (0.51, 1.6)])
def test_secular_root_matches_bisection(stem, loop):
    # a loop tiny next to the stem, or huge lengths, put the root above
    # s_max (1 - 1e-13); for the huge ones lambda0 underflows to 0 < 1
    spec = flower_from_totals(stem, [loop])
    want = _bisected_lambda0(spec)
    assert math.isclose(lambda0_flower(spec).lambda0, want, rel_tol=4 * spectral.EPMACH)


def checked_brentq(monkeypatch, module) -> list:
    """Make module.brentq check each call against scipy.optimize.brentq:
    the same root, iterations and function calls; returns the calls' results."""
    from scipy.optimize import brentq as scipy_brentq

    calls = []
    port = module.brentq

    def checked(f, xa, xb, xtol, rtol, maxiter):
        root, info = scipy_brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter,
                                  full_output=True)
        got = port(f, xa, xb, xtol, rtol, maxiter)
        assert got == (root, spectral.RootInfo(info.iterations, info.function_calls))
        calls.append(got)
        return got

    monkeypatch.setattr(module, "brentq", checked)
    return calls


def sweep_flowers(seed: int, n: int) -> list:
    """Flowers as the benchmark's sweep draws them: 1-80 loops (log-uniform),
    halves in [0.1, 1.2], the stem from the critical stem up to three times
    past it."""
    rng = np.random.default_rng(seed)
    flowers = []
    for _ in range(n):
        k = min(80, int(math.exp(rng.uniform() * math.log(81.0))))
        halves = tuple(rng.uniform(0.1, 1.2, k).tolist())
        flowers.append(FlowerSpec(lower_boundary(halves) + float(rng.uniform(0.01, 3.0)),
                                  halves))
    return flowers


def test_secular_root_is_scipys_brentq(monkeypatch):
    calls = checked_brentq(monkeypatch, spectral)
    specs = sweep_flowers(1, 300) + [
        FlowerSpec(*args) for args in [(0.8, (0.75,)), (0.51, (0.8, 0.5)), (2.0, (1e-13,)),
                                       (0.5, (1e-14,)), (1e200, (1.0,)), (1.0, (1e300,)),
                                       (1e-300, (1e300,))]]
    for spec in specs:
        lambda0_flower(spec)
    # the root s is found, but lambda0 = s^2 overflows a double
    with pytest.raises(InvalidDomain, match="overflows a double"):
        lambda0_flower(FlowerSpec(2.0 ** -1023, (2.0 ** -1023,)))
    assert len(calls) > 290


def test_brentq_fails_as_scipys_does():
    from scipy.optimize import brentq as scipy_brentq

    def failure(solve):
        with pytest.raises((ValueError, RuntimeError)) as info:
            solve()
        return info.type, str(info.value)

    for f, xa, xb, xtol, rtol, maxiter in [
            (math.cos, 0.0, 1.0, 1e-12, 1e-15, 100),           # ends of one sign
            (lambda x: x - 0.3, 0.0, 1.0, 0.0, 1e-15, 100),    # xtol <= 0
            (lambda x: x - 0.3, 0.0, 1.0, 1e-12, 1e-16, 100),  # rtol below 4 eps
            (lambda x: math.nan, 0.0, 1.0, 1e-12, 1e-15, 100),
            (lambda x: x - 0.3 if x < 0.9 else math.nan, 0.0, 1.0, 1e-12, 1e-15, 100),
            (math.tan, -1.0, 1.5, 1e-300, 1e-15, 3)]:           # out of iterations
        assert failure(lambda: spectral.brentq(f, xa, xb, xtol, rtol, maxiter)) == \
            failure(lambda: scipy_brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter))


def test_lower_boundary_values():
    assert math.isclose(lower_boundary([0.8]), CRIT_STEM_08, rel_tol=1e-15)
    assert lower_boundary([]) == math.pi / 2.0
    assert lower_boundary([0.0]) == math.pi / 2.0
    # longer loops push the critical stem down
    assert lower_boundary([0.8, 0.5]) < lower_boundary([0.8]) < math.pi / 2.0


def test_lower_boundary_rejects_bad_halves():
    # a half at or past pi/2 is not bad: the critical stem has closed to 0
    assert lower_boundary([math.pi / 2.0]) == 0.0
    with pytest.raises(InvalidDomain):
        lower_boundary([-0.1])
    with pytest.raises(InvalidDomain):
        lower_boundary([float("nan")])


def test_eigenvalue_is_one_on_the_boundary_curve():
    for halves in [(0.8,), (0.5, 0.4), (1.2, 0.3, 0.3)]:
        crit = lower_boundary(halves)
        res = lambda0_flower(FlowerSpec(stem=crit, loop_halves=halves))
        assert abs(res.lambda0 - 1.0) <= 1e-12


def test_symmetric_boundary_round_trip():
    # n equal loops of half-length ell are critical on stem L when
    # 2 n tan(ell) = cot(L)
    for L, n in [(0.3, 1), (0.7, 2), (1.1, 5)]:
        ell = math.atan(1.0 / (math.tan(L) * 2.0 * n))
        assert math.isclose(lower_boundary([ell] * n), L, rel_tol=1e-13)


def test_region_membership_interval_threshold():
    assert region_membership(FlowerSpec(stem=1.0)).region is Region.TRIVIAL
    assert region_membership(FlowerSpec(stem=2.0)).region is Region.NONTRIVIAL
    at = region_membership(FlowerSpec(stem=math.pi / 2.0))
    assert at.boundary
    assert abs(at.lambda0 - 1.0) <= 1e-14


def test_region_membership_with_loops():
    below = region_membership(FlowerSpec(stem=0.6 * CRIT_STEM_08,
                                         loop_halves=(0.8,)))
    above = region_membership(FlowerSpec(stem=CRIT_STEM_08 + 0.4,
                                         loop_halves=(0.8,)))
    assert below.region is Region.TRIVIAL
    assert above.region is Region.NONTRIVIAL
    assert region_membership(FlowerSpec(stem=CRIT_STEM_08,
                                        loop_halves=(0.8,))).boundary


def test_discretized_interval_matches_closed_form():
    res = lambda0_discretized(flower_graph(FlowerSpec(stem=2.0)), 1e-3)
    assert res.method == "discretized"
    assert abs(res.lambda0 - (math.pi / 4.0) ** 2) <= 1e-6
    f = res.eigenfunction
    y = f.mesh.free_values(f.values)
    assert np.all(y > 0.0)
    mass = float(f.mesh.free_values(f.mesh.lumped_mass) @ (y ** 2))
    assert abs(mass - 1.0) <= 1e-12


def test_discretized_refinement_is_second_order():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    lams = [lambda0_discretized(g, h).lambda0 for h in (0.02, 0.01, 0.005)]
    errs = [abs(lam - LAM_TADPOLE) for lam in lams]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5
    # Richardson extrapolation from the two finest levels
    extr = (4.0 * lams[2] - lams[1]) / 3.0
    assert abs(extr - LAM_TADPOLE) <= 1e-9


def test_discretized_theta_graph_converges():
    g = MetricGraph(
        edges=(
            Edge("e0", "a", "v", 0.3),
            Edge("e1", "v", "w", 1.0),
            Edge("e2", "v", "w", 1.2),
            Edge("e3", "v", "w", 0.7),
        ),
        conditions={"a": "dirichlet"},
    )
    lam1 = lambda0_discretized(g, 0.02).lambda0
    lam2 = lambda0_discretized(g, 0.01).lambda0
    assert lam1 > 0.0
    assert abs(lam1 - lam2) <= 1e-3 * lam2


def long_tree(n_edges: int, seed: int) -> MetricGraph:
    """Random recursive tree, lengths U(0.5, 1.5), its newest leaf Dirichlet."""
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, np.arange(1, n_edges + 1))
    lengths = rng.uniform(0.5, 1.5, n_edges)
    edges = tuple(Edge(f"e{k}", f"v{parents[k - 1]}", f"v{k}", float(lengths[k - 1]))
                  for k in range(1, n_edges + 1))
    return MetricGraph(edges, {f"v{n_edges}": "dirichlet"})


def test_discretized_long_tree_stops_at_the_rounding_floor():
    # lambda0 ~ 8.6e-5 on about 2e4 nodes: the relative residual stalls near
    # 2e-10, twice a fixed 1e-10 target, although rho has long converged
    g = long_tree(1000, 0)
    res = lambda0_discretized(g, 0.05)
    a, m = res.eigenfunction.mesh.reduced_operators()
    lam = spla.eigsh(a, k=1, M=sp.diags(m), sigma=0, which="LM")[0][0]
    assert res.lambda0 < 1e-4
    assert abs(res.lambda0 - lam) <= 1e-8 * lam
    assert res.iterations < 50


def leaf_tree(n_edges: int, seed: int) -> MetricGraph:
    """Random recursive tree, lengths U(0.25, 0.45), every leaf Dirichlet."""
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, np.arange(1, n_edges + 1))
    lengths = rng.uniform(0.25, 0.45, n_edges)
    edges = tuple(Edge(f"e{k}", f"v{parents[k - 1]}", f"v{k}", float(lengths[k - 1]))
                  for k in range(1, n_edges + 1))
    degree = np.bincount(parents, minlength=n_edges + 1)
    degree[1:] += 1
    return MetricGraph(edges, {f"v{v}": "dirichlet" for v in np.flatnonzero(degree == 1)})


# one edge between two Dirichlet vertices: no free vertex, so the condensed
# factor has no vertex complement
TWO_DIRICHLET_EDGE = MetricGraph((Edge("e0", "a", "b", 2.0),),
                                 {"a": "dirichlet", "b": "dirichlet"})


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: leaf_tree(150, 101), id="101"),
    pytest.param(lambda: leaf_tree(150, 109), id="109"),
    pytest.param(lambda: leaf_tree(150, 112), id="112"),
    pytest.param(lambda: TWO_DIRICHLET_EDGE, id="two-dirichlet-edge"),
])
def test_discretized_small_gap_trees(graph):
    # with every leaf Dirichlet, lambda0/lambda1 is close to 1: a solver whose
    # rate is that ratio needs hundreds of steps here
    res = lambda0_discretized(graph(), 0.05)
    mesh = res.eigenfunction.mesh
    a, m = mesh.reduced_operators()
    lam = sla.eigh(a.toarray(), np.diag(m), eigvals_only=True, subset_by_index=[0, 0])[0]
    assert abs(res.lambda0 - lam) <= 1e-10 * lam
    y = mesh.free_values(res.eigenfunction.values)
    assert abs(float(m @ (y * y)) - 1.0) <= 1e-12


def test_discretized_smallest_mesh():
    # 5 cells, 5 free nodes: the Krylov space is all of them after 5 steps
    res = lambda0_discretized(flower_graph(FlowerSpec(stem=1.0)), 0.2)
    want = (4.0 / 0.2 ** 2) * math.sin(math.pi / 20.0) ** 2
    assert math.isclose(res.lambda0, want, rel_tol=1e-13)
    assert math.isclose(want, 2.4471741852423, rel_tol=1e-13)


def no_convergence(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_LANCZOS_STEPS", 2)


def shifted_pair(monkeypatch):
    ritz = spectral._largest_ritz

    def shifted(coeffs):
        theta, s = ritz(coeffs)
        return 1.001 * theta, s

    monkeypatch.setattr(spectral, "_largest_ritz", shifted)


@pytest.mark.parametrize("fake", [no_convergence, shifted_pair])
def test_discretized_failures_are_typed(monkeypatch, fake):
    # no Ritz residual at 4 eps within the step cap, or a pair whose
    # residual is above its floor
    fake(monkeypatch)
    with pytest.raises(LinearSolveFailure):
        lambda0_discretized(flower_graph(FlowerSpec(stem=1.0)), 0.05)


def seeded_grid(k, seed):
    """A k x k lattice of edges drawn from U(0.25, 0.75), one Dirichlet
    pendant at a corner: the grids of perfbench's graph_pde."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < k and j + dj < k:
                    edges.append(Edge(f"e{len(edges)}", f"g{i}_{j}", f"g{i + di}_{j + dj}",
                                      float(rng.uniform(0.25, 0.75))))
    edges.append(Edge("pendant", "d", "g0_0", float(rng.uniform(0.25, 0.75))))
    return MetricGraph(tuple(edges), {"d": "dirichlet"})


def lanczos_run(monkeypatch, lanczos, solve, m):
    """(coeffs, theta, y, j) of _largest_pair with ``lanczos`` as its recurrence."""
    lists = []

    def recorded(solve, m, coeffs):
        lists.append(coeffs)
        return lanczos(solve, m, coeffs)

    monkeypatch.setattr(spectral, "_lanczos", recorded)
    theta, y, j = spectral._largest_pair(solve, m)
    assert len(lists) == 2 and lists[0] is lists[1]    # both passes read one list
    return lists[0], theta, y, j


@pytest.mark.parametrize("graph,mesh_h", [
    pytest.param(lambda: seeded_tree(2000, 5), 0.05, id="tree-2000"),
    pytest.param(lambda: seeded_grid(23, 1), 0.05, id="grid-23"),
    # no free vertex, so no Schur solve
    pytest.param(lambda: MetricGraph((Edge("e0", "a", "b", 1.0),),
                                     {"a": "dirichlet", "b": "dirichlet"}), 0.2,
                 id="5-cell-dirichlet-edge"),
])
def test_three_vector_lanczos_is_the_four_vector_recurrence(monkeypatch, graph, mesh_h):
    mesh = GraphMesh(graph(), mesh_h)
    assert mesh.min_intervals() >= 5
    _, m = mesh.vertex_rows
    lu = CondensedLU(mesh, 0.0, 1.0, "stiffness")
    assert (lu.schur is None) == (mesh.free_vertices == 0)
    got = lanczos_run(monkeypatch, spectral._lanczos, lu.solve, m)
    want = lanczos_run(monkeypatch, four_vector_lanczos, lu.solve, m)
    assert same_bits(np.array(got[0]), np.array(want[0]))
    assert got[3] == want[3] == len(got[0])
    assert same_bits(np.float64(got[1]), np.float64(want[1]))
    assert same_bits(got[2], want[2])


# Peak bytes per free unknown of lambda0_discretized on test_mesh's seeded
# 2000-edge trees (about 21,000 unknowns): about 313 when ARPACK held its
# n x 10 Lanczos basis and a second n x 10 block, about 178 with the two-pass
# Lanczos (about 164 later), about 134 with the condensed factor built
# without copies and freed before the residual check, and about 111 with
# three Lanczos vectors, the free-node index and the interior weights' chain
# built only when read (the mesh now numbers the free nodes first and keeps
# no free-node index).  A fourth Lanczos vector or an eagerly built chain
# fails the bound.
PEAK_BYTES_PER_UNKNOWN = 118


@pytest.mark.parametrize("seed", [5, 11])
def test_discretized_peak_memory_per_unknown(seed):
    assert discretized_bytes_per_unknown(seed) <= PEAK_BYTES_PER_UNKNOWN


def discretized_bytes_per_unknown(seed):
    """Peak bytes per free unknown of lambda0_discretized on seeded_tree(2000, seed)."""
    graph = seeded_tree(2000, seed)
    graph.validation
    peak, res = peak_bytes(lambda: lambda0_discretized(graph, 0.05))
    return peak / res.eigenfunction.mesh.n_free


def test_discretized_needs_resolved_edges():
    with pytest.raises(MeshTooCoarse):
        lambda0_discretized(flower_graph(FlowerSpec(stem=1.0)), 0.5)


def test_eigenvalue_length_slope_identity():
    g = flower_graph(FlowerSpec(stem=0.8, loop_halves=(0.75,)))
    fd, ef = length_slopes(g, "stem", 2.001e-3)    # no cell count moves
    assert fd < 0.0 and ef < 0.0
    assert abs(fd - ef) / abs(fd) <= 1e-3


def test_eigenvalue_scaling_law():
    # lambda0(c * graph) = lambda0(graph) / c^2; check via the interval
    for L in (0.5, 1.0, 2.0):
        lam = lambda0_flower(FlowerSpec(stem=L)).lambda0
        assert math.isclose(lam * L * L, (math.pi / 2.0) ** 2, rel_tol=1e-15)


def test_longer_edges_lower_the_eigenvalue():
    lams = [lambda0_flower(FlowerSpec(stem=s, loop_halves=(0.75,))).lambda0
            for s in (0.4, 0.8, 1.2)]
    assert lams[0] > lams[1] > lams[2]
    lams = [lambda0_flower(FlowerSpec(stem=0.8, loop_halves=(h,))).lambda0
            for h in (0.4, 0.75, 1.1)]
    assert lams[0] > lams[1] > lams[2]
