"""Exception types shared across the toolkit, and the one scalar rule."""

import sys


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ToolkitError, ValueError):
    """Matrix or signal dimensions are inconsistent with the operation."""


class ParameterError(ToolkitError, ValueError):
    """A scalar parameter violates its contract (sign, range, ordering)."""


# The scalar rule: each check takes its values by name, fails NaN and both
# infinities, and raises ``<name> must be <kind>, got <value>`` for the first
# value that fails.
def _positive(**values):
    for name, value in values.items():
        if not 0 < value <= sys.float_info.max:
            raise ParameterError(f"{name} must be positive and finite, got {value}")


def _nonnegative(**values):
    for name, value in values.items():
        if not 0 <= value <= sys.float_info.max:
            raise ParameterError(f"{name} must be nonnegative and finite, got {value}")


def _finite(**values):
    for name, value in values.items():
        if not abs(value) <= sys.float_info.max:
            raise ParameterError(f"{name} must be finite, got {value}")


class CertificateError(ToolkitError):
    """A requested certificate does not exist or a candidate fails.

    Diagnostic values (offending eigenvalue, rank, margin, ...) are kept in
    the ``info`` dict so callers can report them.
    """

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)


class NotDetectableError(CertificateError):
    """The observability stack is rank deficient at the requested window."""


class DivergenceError(ToolkitError):
    """A simulated state became non-finite; ``step`` records where."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class WellPosednessError(ToolkitError):
    """The feedback loop has an unsolvable algebraic loop."""


class ContractViolationError(ToolkitError):
    """An input violated a caller-side contract (e.g. off-grid input)."""


class ConfigError(ToolkitError, ValueError):
    """An analysis configuration failed validation; message carries the path."""
