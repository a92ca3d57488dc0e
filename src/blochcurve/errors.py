"""Exception types raised by blochcurve.

Every failure mode surfaced by the library maps to one of these classes so
callers (and the CLI exit-code logic) can distinguish bad input from broken
numerics.
"""


class BlochCurveError(Exception):
    """Base class for all blochcurve errors."""


class InvalidArgumentError(BlochCurveError, ValueError):
    """An argument is outside the documented domain (non-finite, wrong sign, ...)."""


class DomainError(BlochCurveError, ValueError):
    """A mathematical function was evaluated outside its domain."""


class ContractViolationError(BlochCurveError):
    """A documented precondition on structured input was violated
    (unnormalized state, non-Hermitian matrix, broken transport gauge)."""


class SingularityError(BlochCurveError):
    """The evaluation point is a genuine singularity of the formula
    (instantaneous eigenstate: zero speed, undefined curvature)."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class IntegrationInstabilityError(BlochCurveError):
    """A step's error estimate exceeded the resolution threshold; reduce dt."""


class UndefinedEfficiencyError(BlochCurveError):
    """An efficiency ratio is undefined for the given input (zero Hamiltonian
    or zero path length)."""
