"""Exception types shared across the package.

Each class maps to one failure mode the command-line driver reports with a
distinct exit status, so library code should raise these rather than bare
ValueError/RuntimeError where the cause is known.
"""

__all__ = ["DefoscError", "DomainError", "SizeMismatchError", "TruncationError",
           "QuadratureError", "ConfigError"]


class DefoscError(Exception):
    """Base class for all package errors."""


class DomainError(DefoscError, ValueError):
    """An input violates a mathematical precondition (range, sign, model)."""


class SizeMismatchError(DefoscError, ValueError):
    """Operands live on different truncations or incompatible grids."""


class TruncationError(DefoscError, RuntimeError):
    """A basis cutoff cannot represent the requested state to tolerance."""


class QuadratureError(DefoscError, RuntimeError):
    """A quadrature or fitting procedure failed to reach its tolerance."""


class ConfigError(DefoscError, ValueError):
    """A run configuration is malformed or inconsistent."""
