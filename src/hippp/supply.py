"""Battery supply statistics: the Gaussian population, its flattening, seeded sampling.

Second-use batteries arrive with scattered power capabilities. We model the
population as Gaussian with mean `mean_power` and spread `std_power` (both in
per-unit, normalized so a typical healthy battery is 1.0). Flattening maps
that continuous distribution onto a string of `count` slots: the distribution
is cut into `count` equal-probability intervals and each slot is assigned the
conditional mean of its interval. A procured batch, sorted ascending, then
lines up slot-for-slot with the flattened expected set, and per-slot
deviations drive the Monte Carlo stages downstream.

The normal CDF and quantile are a port of `ndtr` and `ndtri` from S. L.
Moshier's Cephes Mathematical Library (see `_normal`), equal to
scipy.special's bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# numpy loads numpy.random lazily; import it with hippp so that the first
# default_rng of a call does not import it
import numpy.random  # noqa: F401

from ._normal import ndtr, ndtri
from .errors import Checked, InternalCheckError, ParameterError, _numbers, nonnegative_finite, positive, single, whole

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# equal-probability intervals must carry mass 1/count to this accuracy
MASS_TOL = 1e-12

# the least positive std_power, as a share of mean_power. Flattening places
# the interval bounds at mean + std * z, so a spread far below the mean keeps
# few digits of z and the intervals miss MASS_TOL: below about 1e-4 of the
# mean they fail at many counts, and at 1e-5 at nearly every count to 64.
# The floor keeps a tenfold margin above that, and a supply whose spread is
# under a thousandth of its mean is homogeneous for any purpose here.
MIN_RELATIVE_STD = 1e-3


def _phi(z: float) -> float:
    # standard normal pdf; exp(-inf) underflows to exactly 0 for infinite z
    return math.exp(-0.5 * z * z) / _SQRT_2PI


class BatterySupply(Checked, NamedTuple("BatterySupply", [
    ("mean_power", float), ("std_power", float), ("count", int),
])):
    """Gaussian battery population feeding one series string of `count` units.

    std_power is 0, a homogeneous supply, or between MIN_RELATIVE_STD *
    mean_power and mean_power, and small enough that the weakest of the
    `count` flattened slots keeps a positive mean.
    """

    __slots__ = ()

    def __new__(cls, mean_power, std_power, count):
        mean_power = single(positive, mean_power, "mean_power")
        std_power = single(nonnegative_finite, std_power, "std_power")
        if 0.0 < std_power < MIN_RELATIVE_STD * mean_power:
            raise ParameterError(
                f"std_power must be 0 or at least {MIN_RELATIVE_STD} * mean_power, "
                f"got {std_power!r}: a smaller spread cannot be flattened"
            )
        if std_power >= mean_power:
            # keeps the negative-capability tail negligible
            raise ParameterError("std_power must be below mean_power")
        self = super().__new__(cls, mean_power, std_power, whole(count, "count", 1))
        if std_power > 0.0 and _slot_means(self, 1)[0] <= 0.0:
            raise ParameterError("std_power too large for this count: weakest slot mean is not positive")
        return self


def _ascending(values: np.ndarray) -> bool:
    return bool(np.all(np.diff(values) >= 0.0))


def _frozen(values) -> np.ndarray:
    """A read-only float copy of `values`."""
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


class ExpectedSet(Checked, NamedTuple("ExpectedSet", [("capabilities", np.ndarray), ("supply", BatterySupply)])):
    """Flattened per-slot expected capabilities, ascending, one per battery."""

    __slots__ = ()

    def __new__(cls, capabilities, supply):
        caps = _frozen(positive(capabilities, "expected capabilities"))
        if caps.shape != (supply.count,):
            raise ParameterError("expected set length must equal supply count")
        if not _ascending(caps):
            raise ParameterError("expected capabilities must be sorted ascending")
        return super().__new__(cls, caps, supply)

    @property
    def count(self) -> int:
        return self.capabilities.size

    @property
    def total_power(self) -> float:
        """Aggregate intrinsic power of the string; rating budgets normalize to it."""
        return float(self.capabilities.sum())


class BatterySample(Checked, NamedTuple("BatterySample", [
    ("capabilities", np.ndarray), ("deviations", np.ndarray), ("seed", int),
])):
    """One Monte Carlo draw of a procured batch, sorted onto string slots."""

    __slots__ = ()

    def __new__(cls, capabilities, deviations, seed):
        caps, dev = _frozen(positive(capabilities, "sampled capabilities")), _frozen(_numbers(deviations))
        if caps.shape != dev.shape or not np.isfinite(dev).all():
            raise ParameterError("sampled deviations must be finite, one per capability")
        if not _ascending(caps):
            raise ParameterError("sampled capabilities must be sorted ascending")
        return super().__new__(cls, caps, dev, whole(seed, "seed"))

    @property
    def total_power(self) -> float:
        return float(self.capabilities.sum())


def flatten(supply: BatterySupply) -> ExpectedSet:
    """Flatten the supply distribution onto the string's slots.

    Slot k takes the mean of the Gaussian over its probability interval
    [k / count, (k + 1) / count]: mean + std * (phi(a) - phi(b)) / mass, with
    a and b the standard scores of the interval's bounds and mass =
    ndtr(b) - ndtr(a), which must be 1 / count to MASS_TOL. A bound's score
    is taken from the bound itself, mean + std * ndtri(k / count), so it
    carries the rounding of the bound. The flattened set is symmetric about
    the supply mean, sums to count * mean_power exactly, and is strictly
    increasing for any positive spread.
    """
    if supply.std_power == 0.0:
        return ExpectedSet(np.full(supply.count, supply.mean_power), supply)
    return ExpectedSet(_slot_means(supply, supply.count), supply)


def _slot_means(supply: BatterySupply, slots: int) -> list[float]:
    """The means of the first `slots` of the intervals that flatten places, for a positive spread."""
    mean, std, count = supply.mean_power, supply.std_power, supply.count
    scores = [((mean + std * ndtri(k / count)) - mean) / std for k in range(slots + 1)]
    below = [ndtr(z) for z in scores]
    means = []
    for k in range(slots):
        mass = below[k + 1] - below[k]
        if abs(mass - 1.0 / count) > MASS_TOL:
            raise InternalCheckError(f"interval {k} carries probability {mass!r}, expected {1.0 / count!r}")
        means.append(mean + std * (_phi(scores[k]) - _phi(scores[k + 1])) / mass)
    return means


def draw_capabilities(supply: BatterySupply, seed: int) -> np.ndarray:
    """Draw one batch of `count` capabilities, sorted ascending onto the string.

    Draws are independent Gaussians from numpy's seeded default generator;
    non-positive draws are rejected and redrawn from the same stream, so a
    given (supply, seed) pair always yields the same batch.
    """
    rng = np.random.default_rng(whole(seed, "seed"))
    caps = rng.normal(supply.mean_power, supply.std_power, size=supply.count)
    while True:
        bad = caps <= 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        caps[bad] = rng.normal(supply.mean_power, supply.std_power, size=n_bad)
    return np.sort(caps)


def _draw_block(supply: BatterySupply, seed: int, trials: int) -> np.ndarray:
    """The (trials, count) draws of a Monte Carlo run: trial t draws with seed + t."""
    return np.array([draw_capabilities(supply, seed + t) for t in range(trials)])


def sample_battery_set(supply: BatterySupply, seed: int) -> BatterySample:
    """The batch of `draw_capabilities` with its slot-by-slot deviations.

    Deviations are taken against the flattened expected set.
    """
    caps = draw_capabilities(supply, seed)
    expected = flatten(supply)
    return BatterySample(caps, caps - expected.capabilities, seed)
