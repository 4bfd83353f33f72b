"""Exception types shared across the package."""

from __future__ import annotations


class FisherKppError(Exception):
    """Base class for all package-specific errors."""


class InvalidDomain(FisherKppError):
    """Arguments outside the domain of a phase-plane or period operation."""


class OrbitNotClosed(FisherKppError):
    """The requested orbit does not close around the positive equilibrium."""


class DisconnectedGraph(FisherKppError):
    """The metric graph is not connected."""


class NoPendant(FisherKppError):
    """No Dirichlet pendant vertex, or a Dirichlet vertex that is not one."""


class NonpositiveLength(FisherKppError):
    """An edge length is zero, negative, or not finite."""


class MeshTooCoarse(FisherKppError):
    """Mesh spacing leaves an edge with fewer than four interior nodes."""


class OutsideRegion(FisherKppError):
    """The geometry lies outside the existence region (eigenvalue >= 1)."""


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


class NegativeInitialData(FisherKppError):
    """Initial data for the evolution has a negative sample."""


class ComparisonViolated(FisherKppError):
    """The discrete evolution left the comparison envelope."""
