"""Exception taxonomy shared across the package, and its exit codes.

`EXIT_CODES` maps an exception to its exit code, `exit_code` applies it,
`PREFIXES` gives the CLI's message prefix of each code and `REPORTED` the
classes the CLI reports as one line; the manifest of a run records
`exit_code` of whatever ended it. An interrupt is not reported: the CLI
lets it end the process by SIGINT, which a shell shows as 130.
"""

import math
import numbers


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


def require_integer(name, value, least):
    """Raise ConfigurationError unless value is an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


# the first matching class gives the code; anything else is 1
EXIT_CODES = {NumericalError: 2, OSError: 3, KeyboardInterrupt: 130}
PREFIXES = {1: "configuration error", 2: "numerical error", 3: "io error"}
REPORTED = (ConfigurationError, InsufficientBandError, NumericalError, OSError)


def exit_code(err: BaseException) -> int:
    """The exit code of err: 2 for NumericalError (BlowupError among it), 3 for
    OSError (SnapshotError among it), 130 for KeyboardInterrupt, else 1."""
    return next((code for cls, code in EXIT_CODES.items() if isinstance(err, cls)), 1)
