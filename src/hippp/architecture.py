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

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import Checked, ParameterError, StructuralError, nonnegative, nonnegative_finite, positive, single, whole
from .supply import ExpectedSet


class ArchitectureKind(str, Enum):
    FPP = "fpp"
    CPPP = "cppp"
    LSHIPPP = "lshippp"


class ConverterEdge(Checked, NamedTuple("ConverterEdge", [
    ("from_battery", int), ("to_battery", int), ("rating", float),
])):
    """Directed converter between two batteries; flow is signed along from->to."""

    __slots__ = ()

    def __new__(cls, from_battery, to_battery, rating):
        src, dst = whole(from_battery, "from_battery"), whole(to_battery, "to_battery")
        if src == dst:
            raise ParameterError("converter endpoints must differ")
        return super().__new__(cls, src, dst, single(nonnegative, rating, "rating"))


class Layer1Design(Checked, NamedTuple("Layer1Design", [
    ("edges", tuple[ConverterEdge, ...]), ("rating_partitions", int), ("processed_at_design", tuple[float, ...]),
])):
    """Sparse pair converters chosen on the expected set.

    `processed_at_design` keeps each edge's optimal processed power from the
    design solve; ratings come from partitioning those values into
    `rating_partitions` identical-converter groups.
    """

    __slots__ = ()

    def __new__(cls, edges, rating_partitions, processed_at_design):
        edges = tuple(edges)
        if len(edges) == 0:
            raise StructuralError("layer 1 needs at least one converter")
        processed_at_design = nonnegative_finite(processed_at_design, "processed_at_design")
        if np.shape(processed_at_design) != (len(edges),):
            raise StructuralError("one design processed power per edge required")
        k = whole(rating_partitions, "rating_partitions", 1, len(edges))
        distinct = len(set(edge.rating for edge in edges))
        if distinct > k:
            raise StructuralError(f"{distinct} distinct ratings exceed {k} partitions")
        return super().__new__(cls, edges, k, tuple(processed_at_design.tolist()))

    @property
    def total_rating(self) -> float:
        return float(sum(edge.rating for edge in self.edges))


class Architecture(Checked, NamedTuple("Architecture", [
    ("kind", ArchitectureKind), ("num_batteries", int), ("total_expected_power", float), ("rating", float),
    ("layer1", Layer1Design | None),
])):
    """The converters of one string: `rating` per battery (fpp) or per ladder rung, plus lshippp's layer 1."""

    __slots__ = ()

    def __new__(cls, kind, num_batteries, total_expected_power, rating, layer1=None):
        n = whole(num_batteries, "num_batteries", 1)
        total_expected_power = single(positive, total_expected_power, "total_expected_power")
        try:
            kind = ArchitectureKind(kind)
        except ValueError:
            raise StructuralError(f"unknown architecture kind {kind!r}") from None
        rating = single(nonnegative, rating, "rating")
        hierarchical = kind == ArchitectureKind.LSHIPPP
        if (layer1 is not None) != hierarchical:
            raise StructuralError("layer1 is set for the lshippp architecture and only for it")
        _check_ladder(kind, n)
        if hierarchical:
            _check_sparse(len(layer1.edges), n)
            for edge in layer1.edges:
                if edge.from_battery >= n or edge.to_battery >= n:
                    raise StructuralError(f"edge {edge.from_battery}->{edge.to_battery} leaves the string")
        return super().__new__(cls, kind, n, total_expected_power, rating, layer1)


def _check_ladder(kind: ArchitectureKind, n: int) -> None:
    """The ladder rule: the rungs of cppp, and of lshippp's layer 2, need a string of at least two batteries."""
    if kind != ArchitectureKind.FPP and n < 2:
        raise StructuralError("a converter ladder needs at least two batteries")


def _check_sparse(m: int, n: int) -> None:
    """The sparsity rule: layer 1 places at most n - 1 pair converters on a string of n batteries."""
    if m > n - 1:
        raise StructuralError(f"layer 1 must stay sparse: at most count - 1 = {n - 1} pair converters, got {m}")


def _converters(kind: ArchitectureKind, n: int) -> int:
    """How many identical converters share the rating: one per battery, or one per ladder rung."""
    return n if kind == ArchitectureKind.FPP else n - 1


def aggregate_rating(arch: Architecture) -> float:
    """Total installed converter rating over the design-time expected string power."""
    installed = _converters(arch.kind, arch.num_batteries) * arch.rating
    if arch.layer1 is not None:
        installed = arch.layer1.total_rating + installed
    return installed / arch.total_expected_power


def _spend(kind: ArchitectureKind, budget: float, expected: ExpectedSet,
           layer1: Layer1Design | None = None) -> Architecture:
    """The `kind` architecture that spends a normalized rating budget on its identical converters.

    Layer 1, when given, is bought first, and what it leaves is floored at
    zero; the rest spreads evenly over the N per-battery converters of full
    processing or the N-1 rungs of a ladder.
    """
    budget = single(nonnegative_finite, budget, "rating budget")
    n = expected.count
    _check_ladder(kind, n)  # before the division by the rung count
    spent = budget * expected.total_power
    if layer1 is not None:
        spent = max(0.0, spent - layer1.total_rating)
    return Architecture(kind, n, expected.total_power, spent / _converters(kind, n), layer1)


def fpp_from_budget(budget: float, expected: ExpectedSet) -> Architecture:
    """Spend a normalized rating budget evenly across N per-battery converters."""
    return _spend(ArchitectureKind.FPP, budget, expected)


def cppp_from_budget(budget: float, expected: ExpectedSet) -> Architecture:
    """Spend a normalized rating budget evenly across the N-1 ladder converters."""
    return _spend(ArchitectureKind.CPPP, budget, expected)
