"""Converter architectures for a series battery string.

Three ways to wire power converters around N series batteries:

* full processing (``fpp``): one converter per battery carries that battery's
  entire output, so delivered power is clipped at the converter rating.
* conventional partial processing (``cppp``): a ladder of N-1 identical
  converters between adjacent batteries shuttles mismatch up and down the
  string while the string bus carries the bulk power.
* lite-sparse hierarchical (``lshippp``): a handful of individually rated
  pair converters placed by the design search (layer 1) on top of a cheap
  identical-rating adjacent ladder (layer 2).

Each kind spends its budget on one set of identical converters, and
``Architecture.rating`` is their one rating: per battery for full
processing, per ladder rung for the ladder and for layer 2 of the
hierarchy. Only the hierarchy adds ``layer1``.

Aggregate converter rating is reported normalized by the expected total
string power fixed at design time, so architectures of equal normalized
rating cost the same converter capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError, StructuralError, whole
from .supply import ExpectedSet


class ArchitectureKind(str, Enum):
    FPP = "fpp"
    CPPP = "cppp"
    LSHIPPP = "lshippp"


@dataclass(frozen=True)
class ConverterEdge:
    """Directed converter between two batteries; flow is signed along from->to."""

    from_battery: int
    to_battery: int
    rating: float

    def __post_init__(self):
        object.__setattr__(self, "from_battery", whole(self.from_battery, "from_battery"))
        object.__setattr__(self, "to_battery", whole(self.to_battery, "to_battery"))
        if self.from_battery == self.to_battery:
            raise ParameterError("converter endpoints must differ")
        if not self.rating >= 0.0:
            raise ParameterError("rating must be non-negative")


@dataclass(frozen=True)
class Layer1Design:
    """Sparse pair converters chosen on the expected set.

    `processed_at_design` keeps each edge's optimal processed power from the
    design solve; ratings come from partitioning those values into
    `rating_partitions` identical-converter groups.
    """

    edges: tuple[ConverterEdge, ...]
    rating_partitions: int
    processed_at_design: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "processed_at_design", tuple(float(p) for p in self.processed_at_design))
        if len(self.edges) == 0:
            raise StructuralError("layer 1 needs at least one converter")
        if len(self.processed_at_design) != len(self.edges):
            raise StructuralError("one design processed power per edge required")
        if not all(0.0 <= p < math.inf for p in self.processed_at_design):
            raise ParameterError("processed_at_design must be non-negative and finite")
        k = whole(self.rating_partitions, "rating_partitions", 1, len(self.edges))
        object.__setattr__(self, "rating_partitions", k)
        distinct = len(set(edge.rating for edge in self.edges))
        if distinct > k:
            raise StructuralError(f"{distinct} distinct ratings exceed {k} partitions")

    @property
    def total_rating(self) -> float:
        return float(sum(edge.rating for edge in self.edges))


@dataclass(frozen=True)
class Architecture:
    """The converters of one string: `rating` per battery (fpp) or per ladder rung, plus lshippp's layer 1."""

    kind: ArchitectureKind
    num_batteries: int
    total_expected_power: float
    rating: float
    layer1: Layer1Design | None = None

    def __post_init__(self):
        n = whole(self.num_batteries, "num_batteries", 1)
        object.__setattr__(self, "num_batteries", n)
        if not self.total_expected_power > 0.0:
            raise ParameterError("total_expected_power must be positive")
        if self.kind not in tuple(ArchitectureKind):
            raise StructuralError(f"unknown architecture kind {self.kind!r}")
        if not self.rating >= 0.0:
            raise StructuralError("rating must be non-negative")
        hierarchical = self.kind == ArchitectureKind.LSHIPPP
        if (self.layer1 is not None) != hierarchical:
            raise StructuralError("layer1 is set for the lshippp architecture and only for it")
        if self.kind != ArchitectureKind.FPP and n < 2:
            raise StructuralError("a converter ladder needs at least two batteries")
        if hierarchical:
            if len(self.layer1.edges) > n - 1:
                raise StructuralError("layer 1 must stay sparse: at most N-1 converters")
            for edge in self.layer1.edges:
                if edge.from_battery >= n or edge.to_battery >= n:
                    raise StructuralError(f"edge {edge.from_battery}->{edge.to_battery} leaves the string")


def aggregate_rating(arch: Architecture) -> float:
    """Total installed converter rating over the design-time expected string power."""
    count = arch.num_batteries if arch.kind == ArchitectureKind.FPP else arch.num_batteries - 1
    installed = count * arch.rating
    if arch.layer1 is not None:
        installed = arch.layer1.total_rating + installed
    return installed / arch.total_expected_power


def _check_budget(budget: float) -> None:
    """The rating-budget rule: a normalized budget is non-negative and finite, not NaN."""
    if not 0.0 <= budget < math.inf:
        raise ParameterError("rating budget must be non-negative and finite")


def fpp_from_budget(budget: float, expected: ExpectedSet) -> Architecture:
    """Spend a normalized rating budget evenly across N per-battery converters."""
    _check_budget(budget)
    n = expected.count
    rating = budget * expected.total_power / n
    return Architecture(
        ArchitectureKind.FPP,
        num_batteries=n,
        total_expected_power=expected.total_power,
        rating=rating,
    )


def cppp_from_budget(budget: float, expected: ExpectedSet) -> Architecture:
    """Spend a normalized rating budget evenly across the N-1 ladder converters."""
    _check_budget(budget)
    n = expected.count
    if n < 2:
        raise ParameterError("a converter ladder needs at least two batteries")
    rating = budget * expected.total_power / (n - 1)
    return Architecture(
        ArchitectureKind.CPPP,
        num_batteries=n,
        total_expected_power=expected.total_power,
        rating=rating,
    )
