"""Exception types shared across the package, its one rule for each kind of input value, and its record base.
Each value rule returns the floats it checked: a float for one number, a float array for an array."""

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
    """`values` as a tuple of floats when they are a non-empty sequence of strictly increasing numbers in [0, inf).

    Anything else raises ParameterError naming `name`, one message per
    failure; NaN fails the finite test. Every grid of the package (rating
    and sigma grids, layer-2 trial ratings) goes through this one rule.
    """
    numbers = _numbers(values)
    if numbers.ndim != 1 or not numbers.size:
        raise ParameterError(f"{name} must be a non-empty sequence of numbers")
    values = tuple(nonnegative_finite(numbers, f"{name} values").tolist())
    if not all(b > a for a, b in zip(values, values[1:])):
        raise ParameterError(f"{name} must be strictly increasing")
    return values


def _numbers(values) -> np.ndarray:
    """`values` read once as the floats of dtype=float, or all NaN unless bool, int or float: refused, not converted.

    A ragged nest of sequences reads as NaN over the regular part of its shape.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # numpy gives a ragged nest no numeric shape
        array = np.array(values, dtype=object)
    return array.astype(float, copy=False) if array.dtype.kind in "biuf" else np.full(array.shape, math.nan)


def single(rule, value, name: str) -> float:
    """`value` as the float `rule` returned for it: the reading of every single-number field.

    An array, even of one number, raises ParameterError naming `name`.
    """
    number = rule(value, name)
    if np.ndim(number):
        raise ParameterError(f"{name} must be one number, got {value!r}")
    return number


def nonnegative(values, name: str) -> float | np.ndarray:
    """The rule of every rating and power: refuse NaN or a value below 0 in number or array `values`; inf passes."""
    numbers = _numbers(values)
    if not (numbers >= 0.0).all():
        raise ParameterError(f"{name} must be non-negative, not NaN")
    return numbers if numbers.ndim else numbers.item()


def positive(values, name: str) -> float | np.ndarray:
    """The rule of every capability and mean power: refuse a value of number or array `values` not in (0, inf)."""
    numbers = _numbers(values)
    if not ((numbers > 0.0) & (numbers < math.inf)).all():
        raise ParameterError(f"{name} must be positive and finite")
    return numbers if numbers.ndim else numbers.item()


def nonnegative_finite(values, name: str) -> float | np.ndarray:
    """The rule of every budget, spread and grid: refuse a value of number or array `values` not in [0, inf)."""
    numbers = _numbers(values)
    # a few values a call: a Python loop costs less than numpy's per-call overhead
    if not all(0.0 <= value < math.inf for value in numbers.flat):
        raise ParameterError(f"{name} must be non-negative and finite")
    return numbers if numbers.ndim else numbers.item()


def efficiency(value) -> float:
    """The rule of every converter efficiency: refuse `value` unless it is one number in (0, 1]."""
    number = _numbers(value)
    if number.ndim or not 0.0 < number.item() <= 1.0:
        raise ParameterError("converter efficiency must lie in (0, 1]")
    return number.item()


class Checked:
    """First base of a checked NamedTuple: every way in builds through the checking ``__new__``.

    ``_make``, so ``_replace``, calls the class, and ``__reduce__`` has pickle
    and ``copy`` call it at every protocol; protocols 0 and 1 would otherwise
    rebuild the tuple with ``tuple.__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


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
