"""Ground states and dynamics of u_t = u'' + u(1-u) on compact metric graphs.

Flower graphs (one Dirichlet pendant plus self-loops at a single vertex)
get exact treatment through the phase-plane period functions; arbitrary
graphs are served by the discretized Laplacian and the gradient-flow
integrator.  The `fkpp` command (fkpp_graphs.cli) runs both.

Each submodule's ``__all__`` lists its public names; import them from the
submodule (``from fkpp_graphs.groundstate import solve_flower``).  Start
with groundstate.solve_flower, spectral.lambda0_flower and
lambda0_discretized, and evolve.run_to_attractor.  `import fkpp_graphs`
imports no scipy.
"""

__version__ = "0.1.0"
