"""Exception types shared across the package, and the argument rules
that several modules check: a count is an integer with a lower bound
(_check_int), and a rate or interval is finite and positive
(_check_positive)."""

import math
import numbers


class KoopnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KoopnetError, ValueError):
    """A parameter set violates a model invariant."""


class DomainError(KoopnetError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateDataError(KoopnetError, ValueError):
    """Input data carries no usable signal (e.g. all singular values ~ 0)."""


class InsufficientDataError(KoopnetError, ValueError):
    """Not enough data rows/windows to run the requested analysis."""


class NotFoundError(KoopnetError, LookupError):
    """A requested spectral feature is absent from the decomposition."""


def _check_int(name: str, value, minimum: int) -> None:
    """ConfigError unless `value` is an integer (numpy's too) >= minimum."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _check_positive(name: str, value, error: type[KoopnetError] = ConfigError) -> None:
    """`error` unless `value` is finite and > 0; the chained comparison
    is False for NaN, so it rejects that too."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value}")
