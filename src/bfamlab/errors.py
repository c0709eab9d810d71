"""Exception taxonomy shared across the package.

The CLI exit code of each exception comes from scenarios.exit_code_for.
"""

import math


class ConfigurationError(ValueError):
    """Invalid parameters, config files, or preconditions."""


class NumericalError(ArithmeticError):
    """Non-finite field values or other floating-point breakdown."""


class BlowupError(NumericalError):
    """Time integration exceeded the blow-up threshold or went non-finite.

    Carries the abort time and the partial trajectory accumulated so far,
    when available.
    """

    def __init__(self, message, time=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class TruncationError(ArithmeticError):
    """A factorially weighted sum failed to converge within its term budget."""


class InsufficientBandError(ValueError):
    """Too few usable Fourier modes to fit a spectral decay rate."""


class SnapshotError(IOError):
    """Malformed, truncated, or version-mismatched snapshot file."""


def require_finite(name, *values):
    """Raise ConfigurationError unless every value that is not None is finite."""
    for value in values:
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
