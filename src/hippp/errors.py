"""Exception types shared across the package, its one rule for each kind of input value, and its record base."""

from __future__ import annotations

import math

import numpy as np


class HipppError(Exception):
    """Base class for all package errors."""


class ParameterError(HipppError, ValueError):
    """An argument violates a documented precondition."""


def whole(value, name: str, low: int = 0, high: int | None = None) -> int:
    """`value` as an int when it is a whole number in low..high, an integer-valued float included.

    Anything else (NaN, an infinity, None, a string, a fraction, a number out
    of range) raises ParameterError naming `name`. Every count, index and
    seed of the package goes through this one rule.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < low or (high is not None and number > high):
        if high is not None:
            kind = f"an integer in {low}..{high}"
        else:
            kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer of at least {low}")
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return number


def grid(values, name: str) -> tuple[float, ...]:
    """`values` as a tuple of floats when they are non-empty, non-negative, finite and strictly increasing.

    Anything else raises ParameterError naming `name`, one message per
    failure; NaN fails the finite test. Every grid of the package (rating
    and sigma grids, layer-2 trial ratings) goes through this one rule.
    """
    values = tuple(float(v) for v in values)
    if not values:
        raise ParameterError(f"{name} must not be empty")
    nonnegative_finite(values, f"{name} values")
    if not all(b > a for a, b in zip(values, values[1:])):
        raise ParameterError(f"{name} must be strictly increasing")
    return values


def _numbers(values) -> np.ndarray:
    """`values` as an array, all NaN unless it holds numbers: so None or a string fails each rule, never converted."""
    array = np.asarray(values)
    return array if array.dtype.kind in "biuf" else np.full(array.shape, math.nan)


def nonnegative(values, name: str) -> None:
    """The rule of every rating and power: refuse NaN or a value below 0 in number or array `values`; inf passes."""
    if not (_numbers(values) >= 0.0).all():
        raise ParameterError(f"{name} must be non-negative, not NaN")


def positive(values, name: str) -> None:
    """The rule of every capability and mean power: refuse a value of number or array `values` not in (0, inf)."""
    values = _numbers(values)
    if not ((values > 0.0) & (values < math.inf)).all():
        raise ParameterError(f"{name} must be positive and finite")


def nonnegative_finite(values, name: str) -> None:
    """The rule of every budget, spread and grid: refuse a value of number or array `values` not in [0, inf)."""
    # a few values a call: a Python loop costs less than numpy's per-call overhead
    if not all(0.0 <= value < math.inf for value in _numbers(values).flat):
        raise ParameterError(f"{name} must be non-negative and finite")


class Checked:
    """First base of a checked NamedTuple: ``_make``, so ``_replace``, builds through the checking ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class StructuralError(HipppError, ValueError):
    """A composite object is missing fields for its kind or wires indices out of range."""


class UndefinedMetricError(HipppError, ValueError):
    """A metric was requested at a point where its denominator vanishes."""


class EnumerationCapError(HipppError, RuntimeError):
    """A combinatorial space exceeds its cap: layer-1 placements, or cut-form endpoint patterns."""


class InternalCheckError(HipppError, RuntimeError):
    """A solver or sampler produced a result that fails post-hoc verification.

    These checks run inline on every solve; a failure indicates a bug, not
    bad user input, so it aborts instead of degrading silently.
    """


class ConfigError(HipppError, ValueError):
    """An experiment config file is malformed; the message names the offending key."""
