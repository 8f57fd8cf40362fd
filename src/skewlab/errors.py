"""Semantic exception hierarchy.

Library code never raises bare ValueError/RuntimeError for contract
violations; callers can catch SkewlabError to intercept everything.
"""

__all__ = ["SkewlabError", "DomainError", "ParameterError", "BracketingError",
           "ConvergenceError", "PreconditionError"]


class SkewlabError(Exception):
    """Base error for this package."""


class DomainError(SkewlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(SkewlabError, ValueError):
    """A mechanism or distribution was constructed with invalid parameters."""


class BracketingError(SkewlabError):
    """A root-finding bracket does not enclose a sign change."""


class ConvergenceError(SkewlabError):
    """An iterative routine failed to converge within its budget.

    ``partial`` carries the best estimate available when the failure
    was raised, or None.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


class PreconditionError(SkewlabError):
    """A documented precondition of an operation does not hold."""
