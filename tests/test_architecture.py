"""Architecture data model: rating arithmetic and structural validation."""

import math
import re

import pytest
from oracles import cppp_budget_rating, fpp_budget_rating, layer2_budget_rating

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    Layer1Design,
    ParameterError,
    StructuralError,
    SweepCell,
    aggregate_rating,
    architecture_edges,
    cppp_from_budget,
    design_layer1,
    evaluate_cells,
    flatten,
    fpp_from_budget,
    lshippp_for_budget,
)


@pytest.fixture(scope="module")
def expected9():
    return flatten(BatterySupply(1.0, 0.2, 9))


def make_lshippp(n=9, total=9.0, layer1_ratings=(0.9, 0.45, 0.45), layer2_rating=0.0, k=2):
    edges = tuple(
        ConverterEdge(i, n - 1 - i, r) for i, r in enumerate(layer1_ratings)
    )
    layer1 = Layer1Design(edges, rating_partitions=k, processed_at_design=layer1_ratings)
    return Architecture(
        ArchitectureKind.LSHIPPP,
        num_batteries=n,
        total_expected_power=total,
        rating=layer2_rating,
        layer1=layer1,
    )


class TestAggregateRating:
    def test_fpp_budget_roundtrip(self, expected9):
        arch = fpp_from_budget(0.15, expected9)
        assert arch.rating == pytest.approx(0.15)
        assert aggregate_rating(arch) == pytest.approx(0.15)

    def test_cppp_reference_rating(self, expected9):
        # a 0.15 budget split over 8 ladder converters of a 9-unit string
        arch = cppp_from_budget(0.15, expected9)
        assert arch.rating == pytest.approx(0.16875)
        assert aggregate_rating(arch) == pytest.approx(0.15)

    def test_lshippp_layer1_only(self):
        arch = make_lshippp(layer1_ratings=(0.9, 0.45, 0.45), layer2_rating=0.0)
        assert aggregate_rating(arch) == pytest.approx(0.2)

    def test_lshippp_both_layers(self):
        arch = make_lshippp(layer1_ratings=(0.9, 0.45, 0.45), layer2_rating=0.1)
        assert aggregate_rating(arch) == pytest.approx((1.8 + 0.8) / 9.0)

    def test_zero_budget(self, expected9):
        assert aggregate_rating(fpp_from_budget(0.0, expected9)) == 0.0
        assert aggregate_rating(cppp_from_budget(0.0, expected9)) == 0.0

    def test_negative_budget_rejected(self, expected9):
        with pytest.raises(ParameterError):
            fpp_from_budget(-0.1, expected9)
        with pytest.raises(ParameterError):
            cppp_from_budget(-0.1, expected9)

    def test_ladder_needs_two_batteries(self):
        # the one ladder rule of architecture.py, refused before the split divides by zero rungs
        with pytest.raises(StructuralError, match="a converter ladder needs at least two batteries"):
            cppp_from_budget(0.1, flatten(BatterySupply(1.0, 0.1, 1)))

    @pytest.mark.parametrize("budget", [float("inf"), float("nan"), 5e307])
    def test_an_infinite_or_nan_budget_is_refused(self, expected9, budget):
        # the one budget rule of every budget check: non-negative and finite; 5e307 is finite, but its spend on
        # a 9-unit string is not, and it used to build unbounded converters
        for from_budget in (fpp_from_budget, cppp_from_budget):
            with pytest.raises(ParameterError, match="rating budget"):
                from_budget(budget, expected9)

    def test_a_budget_whose_rung_breaks_the_string_bound_is_refused(self, expected9):
        # 1.9e307 of a 9-unit string spends a finite 1.71e308: per battery that fits the bound, per rung
        # (9 / 8 of the budget) 9 rungs would not
        assert math.isfinite(9 * fpp_from_budget(1.9e307, expected9).rating)
        with pytest.raises(ParameterError, match="rating too large: 9 times the largest is not a finite float"):
            cppp_from_budget(1.9e307, expected9)


class TestBudgetSplit:
    """Every kind's budget rating keeps the bits of the split its builder wrote out alone, signed zeros included."""

    @pytest.fixture(scope="class", params=[(9, 3), (16, 2)], ids=["N9", "N16"])
    def design(self, request):
        n, m = request.param
        expected = flatten(BatterySupply(1.0, 0.2, n))
        return expected, design_layer1(expected, DesignConfig(num_layer1=m, num_rating_sets=min(m, 2)))

    @pytest.mark.parametrize("budget", [0.0, -0.0, "below layer 1", 0.15, 0.5])
    def test_each_kind_spends_a_budget_as_its_own_split_did(self, design, budget):
        expected, layer1 = design
        if budget == "below layer 1":  # the largest budget whose spend falls short of layer 1's total
            budget = math.nextafter(layer1.total_rating / expected.total_power, 0.0)
            assert budget * expected.total_power < layer1.total_rating
        pairs = [
            (fpp_from_budget(budget, expected).rating, fpp_budget_rating(budget, expected)),
            (cppp_from_budget(budget, expected).rating, cppp_budget_rating(budget, expected)),
            (lshippp_for_budget(layer1, expected, budget).rating, layer2_budget_rating(layer1, expected, budget)),
        ]
        for got, want in pairs:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestConverterEdge:
    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            ConverterEdge(2, 2, 0.1)

    def test_rejects_negative_rating(self):
        for rating in (-0.5, float("nan")):
            with pytest.raises(ParameterError):
                ConverterEdge(0, 1, rating)

    def test_rejects_negative_index(self):
        with pytest.raises(ParameterError):
            ConverterEdge(-1, 1, 0.5)


class TestStructure:
    def test_kind_field_exclusivity(self):
        # layer 1 is set for the hierarchy and only for it
        layer1 = Layer1Design((ConverterEdge(0, 2, 0.5),), 1, (0.5,))
        with pytest.raises(StructuralError):
            Architecture(ArchitectureKind.LSHIPPP, 3, 3.0, 0.1)
        for kind in (ArchitectureKind.FPP, ArchitectureKind.CPPP):
            with pytest.raises(StructuralError):
                Architecture(kind, 3, 3.0, 0.1, layer1)
            assert Architecture(kind, 3, 3.0, 0.1).layer1 is None
        assert Architecture(ArchitectureKind.LSHIPPP, 3, 3.0, 0.1, layer1).layer1 is layer1

    @pytest.mark.parametrize("kind", list(ArchitectureKind))
    def test_a_kind_given_as_its_value_is_stored_as_the_enum(self, kind):
        layer1 = Layer1Design((ConverterEdge(0, 2, 0.5),), 1, (0.5,)) if kind == ArchitectureKind.LSHIPPP else None
        arch = Architecture(kind.value, 3, 3.0, 0.1, layer1)
        assert arch.kind is kind
        (record,) = evaluate_cells([SweepCell(arch, BatterySupply(1.0, 0.2, 3), trials=2, seed=0)])
        assert record.architecture_kind == kind.value

    @pytest.mark.parametrize("kind", ["FPP", "ladder", None, 3, ["fpp"]], ids=repr)
    def test_an_unknown_kind_is_a_structural_error(self, kind):
        with pytest.raises(StructuralError, match=f"^unknown architecture kind {re.escape(repr(kind))}$"):
            Architecture(kind, 3, 3.0, 0.1)

    @pytest.mark.parametrize("kind", list(ArchitectureKind))
    @pytest.mark.parametrize("rating", [-0.1, float("nan")])
    def test_rating_must_be_non_negative(self, kind, rating):
        # the one rating rule, as for a ConverterEdge
        layer1 = Layer1Design((ConverterEdge(0, 2, 0.5),), 1, (0.5,)) if kind == ArchitectureKind.LSHIPPP else None
        with pytest.raises(ParameterError, match="rating must be non-negative, not NaN"):
            Architecture(kind, 3, 3.0, rating, layer1)

    def test_ladder_kinds_need_two_batteries(self):
        layer1 = Layer1Design((ConverterEdge(0, 1, 0.5),), 1, (0.5,))
        assert aggregate_rating(Architecture(ArchitectureKind.FPP, 1, 1.0, 0.5)) == 0.5
        with pytest.raises(StructuralError):
            Architecture(ArchitectureKind.CPPP, 1, 1.0, 0.1)
        with pytest.raises(StructuralError):
            Architecture(ArchitectureKind.LSHIPPP, 1, 1.0, 0.1, layer1)

    def test_layer1_sparsity_cap(self):
        edges = (ConverterEdge(0, 1, 0.1), ConverterEdge(0, 2, 0.1), ConverterEdge(1, 2, 0.1))
        layer1 = Layer1Design(edges, 1, (0.1, 0.1, 0.1))
        with pytest.raises(StructuralError):  # 3 edges > N-1
            Architecture(
                ArchitectureKind.LSHIPPP,
                num_batteries=3,
                total_expected_power=3.0,
                rating=0.1,
                layer1=layer1,
            )

    def test_layer1_edges_stay_in_string(self):
        edges = (ConverterEdge(0, 9, 0.5),)
        layer1 = Layer1Design(edges, 1, (0.5,))
        with pytest.raises(StructuralError):
            Architecture(
                ArchitectureKind.LSHIPPP,
                num_batteries=3,
                total_expected_power=3.0,
                rating=0.1,
                layer1=layer1,
            )

    def test_partition_count_limits_distinct_ratings(self):
        edges = (
            ConverterEdge(0, 5, 0.3),
            ConverterEdge(1, 4, 0.2),
            ConverterEdge(2, 3, 0.1),
        )
        with pytest.raises(StructuralError):
            Layer1Design(edges, rating_partitions=2, processed_at_design=(0.3, 0.2, 0.1))
        # same ratings collapsed into two groups is fine
        ok = (
            ConverterEdge(0, 5, 0.3),
            ConverterEdge(1, 4, 0.2),
            ConverterEdge(2, 3, 0.2),
        )
        design = Layer1Design(ok, rating_partitions=2, processed_at_design=(0.3, 0.2, 0.1))
        assert design.total_rating == pytest.approx(0.7)

    def test_layer1_needs_an_edge(self):
        with pytest.raises(StructuralError):
            Layer1Design((), 1, ())

    @pytest.mark.parametrize("processed", [float("nan"), float("inf"), -0.1])
    def test_processed_must_be_non_negative_and_finite(self, processed):
        with pytest.raises(ParameterError, match="processed_at_design"):
            Layer1Design((ConverterEdge(0, 1, 0.1), ConverterEdge(1, 2, 0.1)), 1, (0.1, processed))
        assert Layer1Design((ConverterEdge(0, 1, 0.1),), 1, (0.0,)).processed_at_design == (0.0,)

    def test_processed_must_align_with_edges(self):
        with pytest.raises(StructuralError):
            Layer1Design((ConverterEdge(0, 1, 0.1),), 1, (0.1, 0.2))

    def test_an_integer_valued_float_battery_count_is_an_integer(self):
        whole = Architecture(ArchitectureKind.CPPP, 3, 3.0, 0.1)
        arch = Architecture(ArchitectureKind.CPPP, 3.0, 3.0, 0.1)
        assert type(arch.num_batteries) is int
        assert architecture_edges(arch) == architecture_edges(whole)
        with pytest.raises(ParameterError):
            Architecture(ArchitectureKind.CPPP, 2.5, 3.0, 0.1)

    def test_kind_is_string_valued(self):
        # CSV writers and config parsing rely on the enum value being the name
        assert ArchitectureKind("fpp") is ArchitectureKind.FPP
        assert ArchitectureKind.LSHIPPP.value == "lshippp"
