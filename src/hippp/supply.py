"""Battery supply statistics: capability distribution, flattening, seeded sampling.

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

import abc
import math
from dataclasses import dataclass

import numpy as np

# numpy loads numpy.random lazily; import it with hippp so that the first
# default_rng of a call does not import it
import numpy.random  # noqa: F401

from ._normal import ndtr, ndtri
from .errors import InternalCheckError, ParameterError, whole

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


class CapabilityDistribution(abc.ABC):
    """Extension point for non-Gaussian supplies.

    `flatten_distribution` only needs the CDF, the quantile function, and the
    conditional first moment over an interval, so any distribution exposing
    these three can be flattened. Only the Gaussian model ships here.
    """

    @abc.abstractmethod
    def cdf(self, x: float) -> float: ...

    @abc.abstractmethod
    def quantile(self, q: float) -> float: ...

    @abc.abstractmethod
    def interval_mean(self, low: float, high: float) -> float:
        """Conditional mean of the distribution restricted to [low, high]."""


@dataclass(frozen=True)
class GaussianCapability(CapabilityDistribution):
    mean: float
    std: float

    def cdf(self, x: float) -> float:
        if self.std == 0.0:
            return 1.0 if x >= self.mean else 0.0
        return ndtr((x - self.mean) / self.std)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile level {q} outside [0, 1]")
        if self.std == 0.0:
            return self.mean
        return self.mean + self.std * ndtri(q)

    def interval_mean(self, low: float, high: float) -> float:
        if not low < high:
            raise ParameterError("interval_mean needs low < high")
        if self.std == 0.0:
            return self.mean
        a = (low - self.mean) / self.std
        b = (high - self.mean) / self.std
        mass = ndtr(b) - ndtr(a)
        if mass <= 0.0:
            raise ParameterError("interval carries no probability mass")
        return self.mean + self.std * (_phi(a) - _phi(b)) / mass


@dataclass(frozen=True)
class BatterySupply:
    """Gaussian battery population feeding one series string of `count` units.

    std_power is 0, a homogeneous supply, or between MIN_RELATIVE_STD *
    mean_power and mean_power.
    """

    mean_power: float
    std_power: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.mean_power) and self.mean_power > 0.0):
            raise ParameterError("mean_power must be positive and finite")
        if not (math.isfinite(self.std_power) and self.std_power >= 0.0):
            raise ParameterError("std_power must be non-negative and finite")
        if 0.0 < self.std_power < MIN_RELATIVE_STD * self.mean_power:
            raise ParameterError(
                f"std_power must be 0 or at least {MIN_RELATIVE_STD} * mean_power, "
                f"got {self.std_power!r}: a smaller spread cannot be flattened"
            )
        if self.std_power >= self.mean_power:
            # keeps the negative-capability tail negligible
            raise ParameterError("std_power must be below mean_power")
        object.__setattr__(self, "count", whole(self.count, "count", 1))

    def distribution(self) -> GaussianCapability:
        return GaussianCapability(self.mean_power, self.std_power)


def _ascending(values: np.ndarray) -> bool:
    return bool(np.all(np.diff(values) >= 0.0))


@dataclass(frozen=True)
class ExpectedSet:
    """Flattened per-slot expected capabilities, ascending, one per battery."""

    capabilities: np.ndarray
    supply: BatterySupply

    def __post_init__(self):
        caps = np.array(self.capabilities, dtype=float)
        caps.setflags(write=False)
        object.__setattr__(self, "capabilities", caps)
        if caps.shape != (self.supply.count,):
            raise ParameterError("expected set length must equal supply count")
        if not np.all(caps > 0.0):
            raise ParameterError("expected capabilities must be positive")
        if not _ascending(caps):
            raise ParameterError("expected capabilities must be sorted ascending")

    @property
    def count(self) -> int:
        return self.capabilities.size

    @property
    def total_power(self) -> float:
        """Aggregate intrinsic power of the string; rating budgets normalize to it."""
        return float(self.capabilities.sum())


@dataclass(frozen=True)
class BatterySample:
    """One Monte Carlo draw of a procured batch, sorted onto string slots."""

    capabilities: np.ndarray
    deviations: np.ndarray
    seed: int

    def __post_init__(self):
        caps = np.array(self.capabilities, dtype=float)
        dev = np.array(self.deviations, dtype=float)
        caps.setflags(write=False)
        dev.setflags(write=False)
        object.__setattr__(self, "capabilities", caps)
        object.__setattr__(self, "deviations", dev)
        if caps.shape != dev.shape:
            raise ParameterError("capabilities and deviations must align")
        if not np.all(caps > 0.0):
            raise ParameterError("sampled capabilities must be positive")
        if not _ascending(caps):
            raise ParameterError("sampled capabilities must be sorted ascending")

    @property
    def total_power(self) -> float:
        return float(self.capabilities.sum())


def flatten_distribution(dist: CapabilityDistribution, count: int) -> np.ndarray:
    """Cut `dist` into `count` equal-probability intervals; return their means."""
    count = whole(count, "count", 1)
    bounds = [dist.quantile(k / count) for k in range(count + 1)]
    means = np.empty(count)
    for k in range(count):
        mass = dist.cdf(bounds[k + 1]) - dist.cdf(bounds[k])
        if abs(mass - 1.0 / count) > MASS_TOL:
            raise InternalCheckError(
                f"interval {k} carries probability {mass!r}, expected {1.0 / count!r}"
            )
        means[k] = dist.interval_mean(bounds[k], bounds[k + 1])
    return means


def flatten(supply: BatterySupply) -> ExpectedSet:
    """Flatten the supply distribution onto the string's slots.

    The flattened set is symmetric about the supply mean, sums to
    count * mean_power exactly, and is strictly increasing for any
    positive spread.
    """
    if supply.std_power == 0.0:
        return ExpectedSet(np.full(supply.count, supply.mean_power), supply)
    means = flatten_distribution(supply.distribution(), supply.count)
    if means[0] <= 0.0:
        raise ParameterError(
            "std_power too large for this count: weakest slot mean is not positive"
        )
    return ExpectedSet(means, supply)


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
    return BatterySample(caps, caps - expected.capabilities, int(seed))
