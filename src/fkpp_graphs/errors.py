"""Exception types shared across the package."""

from __future__ import annotations


class FisherKppError(Exception):
    """Base class for all package-specific errors; ``exit_code`` is the
    command line's exit status for one."""

    exit_code = 1


class InvalidDomain(FisherKppError):
    """Arguments outside the domain of a phase-plane or period operation."""

    exit_code = 2


class OrbitNotClosed(FisherKppError):
    """The requested orbit does not close around the positive equilibrium."""


class DisconnectedGraph(InvalidDomain):
    """The metric graph is not connected."""


class NoPendant(InvalidDomain):
    """No Dirichlet pendant vertex, or a Dirichlet vertex that is not one."""


class NonpositiveLength(InvalidDomain):
    """An edge length is zero, negative, or not finite."""


class MeshTooCoarse(InvalidDomain):
    """Mesh spacing leaves an edge with fewer than four interior nodes."""


class OutsideRegion(FisherKppError):
    """The geometry lies outside the existence region (eigenvalue >= 1)."""

    exit_code = 3


class NotAFlower(FisherKppError):
    """The graph is not flower-representable; the period method does not apply."""

    exit_code = 4


class NewtonStalled(FisherKppError):
    """Damped Newton could not reduce the residual further.

    Carries the best iterate and diagnostics in ``best`` and ``diagnostics``.
    """

    def __init__(self, message: str, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class StepTooLarge(FisherKppError):
    """Profile integration step too coarse for the requested tolerance."""


class LinearSolveFailure(FisherKppError):
    """Sparse factorization, solve or eigen-solve failed on a discretized operator."""


class NegativeInitialData(InvalidDomain):
    """Initial data for the evolution has a negative sample."""


class ComparisonViolated(FisherKppError):
    """The discrete evolution left the comparison envelope."""
