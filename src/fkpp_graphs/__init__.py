"""Ground states and dynamics of u_t = u'' + u(1-u) on compact metric graphs.

Flower graphs (one Dirichlet pendant plus self-loops at a single vertex)
get exact treatment through the phase-plane period functions; arbitrary
graphs are served by the discretized Laplacian and the gradient-flow
integrator.  Start with solve_flower / solve_interval for steady states,
lambda0_flower / lambda0_discretized for the trivial-vs-nontrivial
threshold, and run_to_attractor for time integration.

The package's names are loaded on first use (PEP 562): `import fkpp_graphs`
imports no scipy, and each submodule is imported the first time one of its
names is read.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys([
        "BelowThreshold", "ComparisonViolated", "DisconnectedGraph",
        "FisherKppError", "InvalidDomain", "LinearSolveFailure",
        "LoopTooLong", "MeshTooCoarse", "NegativeInitialData",
        "NewtonStalled", "NonpositiveLength", "NoPendant", "OrbitNotClosed",
        "OutsideRegion", "StepTooLarge",
    ], "errors"),
    **dict.fromkeys([
        "Edge", "FlowerSpec", "MetricGraph", "ValidationReport", "as_flower",
        "flower_graph", "graph_from_dict", "graph_from_json", "interval_graph",
        "validate",
    ], "graph"),
    **dict.fromkeys([
        "PhasePoint", "energy", "q_tilde", "turning_point_pair", "well",
    ], "phaseplane"),
    **dict.fromkeys([
        "HOMOCLINIC_OFFSET", "PeriodGradient", "PeriodValue",
        "arclength_from_turning", "asymptotic_T", "center_limits", "grad_T",
        "grad_T0", "interval_period_slope", "period_T", "period_T0",
    ], "period"),
    **dict.fromkeys([
        "Field", "GraphMesh", "constant_field", "field_from_function",
        "field_from_profiles", "free_energy",
    ], "mesh"),
    **dict.fromkeys([
        "Region", "RegionReport", "SpectralResult", "lambda0_discretized",
        "lambda0_flower", "lower_boundary", "region_membership",
        "secular_mismatch",
    ], "spectral"),
    **dict.fromkeys([
        "GroundStateSolution", "JacobianReport", "energy_of",
        "jacobian_report", "reconstruct_profile", "solve_flower",
        "solve_interval",
    ], "groundstate"),
    **dict.fromkeys([
        "EvolutionTrace", "Terminal", "comparison_monitor", "run_to_attractor",
        "stable_dt", "step",
    ], "evolve"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
