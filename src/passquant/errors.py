"""Exception types shared across the toolkit, and the one scalar, array and type rule."""

import contextlib
import numbers
import sys

import numpy as np


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ToolkitError, ValueError):
    """Matrix or signal dimensions are inconsistent with the operation."""


class ParameterError(ToolkitError, ValueError):
    """A parameter violates its contract (sign, range, ordering, finiteness)."""


# The scalar rule: each check takes its values by name, fails NaN and both
# infinities, and raises ``<name> must be <kind>, got <value>`` for the first
# value that fails.  Integer rules take ints and numpy integers, never bools or floats.
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


def _count(**values):
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ParameterError(f"{name} must be a positive integer, got {value}")


def _nonnegative_integer(**values):
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ParameterError(f"{name} must be a nonnegative integer, got {value}")


# The array rule: ``value`` as a float array whose shape matches ``shape``,
# where ``None`` matches any size, and whose entries are all finite.
def _array(value, name, shape):
    a = np.asarray(value, dtype=float)
    if a.shape != shape and (
        len(a.shape) != len(shape) or any(w not in (None, h) for w, h in zip(shape, a.shape))
    ):
        raise DimensionError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} must be finite")
    return a


# The type rule: ``value`` itself when it is an instance of one of ``types``,
# which the caller passes, so this module imports no model module.
def _instance(value, name, *types):
    if not isinstance(value, types):
        kinds = " or ".join(t.__name__ for t in types)
        raise ParameterError(f"{name} must be {kinds}, got {type(value).__name__}")
    return value


# The overflow rule: a float ``**`` raises OverflowError where ``*`` returns
# inf.  Inside ``with _overflow(name) as finite:`` the first fails as a
# ParameterError naming the quantity the formula computes, and so does an
# infinite result passed through ``finite``.
@contextlib.contextmanager
def _overflow(name):
    def finite(value):
        if not abs(value) <= sys.float_info.max:
            raise ParameterError(f"{name} overflows the float range")
        return value

    try:
        yield finite
    except OverflowError as exc:
        raise ParameterError(f"{name} overflows the float range") from exc


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
