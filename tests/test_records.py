"""Records are immutable named tuples: their checks run on every way in, and they keep their repr.

A checked record normalizes and checks its fields in ``__new__``, so the
constructor, ``_make``, ``_replace``, a pickle round trip and ``copy`` all
give a record that passed the same checks, or raise the same error.
"""

import copy
import math
import pickle
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySample,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    ExpectedSet,
    HipppError,
    Layer1Design,
    Layer2Curve,
    MetricsRecord,
    ParameterError,
    PowerFlowSolution,
    SweepCell,
    aggregate_rating,
    cppp_from_budget,
    flatten,
    flow_powers,
    max_string_outputs,
    optimal_flow,
    partition_ratings,
    sample_battery_set,
    sweep_figures,
    sweep_heterogeneity,
    sweep_rating,
)
from hippp.cli import ExperimentConfig
from hippp.errors import efficiency, grid, nonnegative, nonnegative_finite, positive
from hippp.evaluate import system_efficiency

SUPPLY = BatterySupply(1.0, 0.2, 3)
EXPECTED = flatten(SUPPLY)
SAMPLE = sample_battery_set(SUPPLY, 0)
EDGE = ConverterEdge(0, 2, 0.5)
LAYER1 = Layer1Design((EDGE,), 1, (0.5,))
LSHIPPP = Architecture(ArchitectureKind.LSHIPPP, 3, 3.0, 0.1, LAYER1)
CURVE = Layer2Curve(((0.0, 0.5), (0.1, 0.9)))
LADDER3 = cppp_from_budget(0.2, EXPECTED)
SOLUTION = optimal_flow([0.8, 1.0, 1.2], LADDER3)
METRICS = MetricsRecord("cppp", 0.2, 0.2, 2, 0, 0.9, 0.01, 0.98, 0.1, 0.9)
SUPPLY9 = BatterySupply(1.0, 0.2, 9)
CELL = SweepCell(cppp_from_budget(0.2, flatten(SUPPLY9)), SUPPLY9, 2, 0)

RECORDS = {
    "BatterySupply": SUPPLY,
    "ExpectedSet": EXPECTED,
    "BatterySample": SAMPLE,
    "ConverterEdge": EDGE,
    "Layer1Design": LAYER1,
    "Architecture": LSHIPPP,
    "DesignConfig": DesignConfig(),
    "Layer2Curve": CURVE,
    "PowerFlowSolution": SOLUTION,
    "MetricsRecord": METRICS,
    "SweepCell": CELL,
    "ExperimentConfig": ExperimentConfig(),
}

# a field change per check that each checked record makes
INVALID = {
    "BatterySupply mean_power": (SUPPLY, {"mean_power": -1.0}),
    "BatterySupply std_power": (SUPPLY, {"std_power": 1.5}),
    "BatterySupply count": (SUPPLY, {"count": 2.5}),
    "ExpectedSet capabilities": (EXPECTED, {"capabilities": EXPECTED.capabilities[::-1]}),
    "ExpectedSet supply": (EXPECTED, {"supply": BatterySupply(1.0, 0.2, 4)}),
    "BatterySample capabilities": (SAMPLE, {"capabilities": -SAMPLE.capabilities}),
    "BatterySample deviations": (SAMPLE, {"deviations": SAMPLE.deviations[:1]}),
    "ConverterEdge to_battery": (EDGE, {"to_battery": 0}),
    "ConverterEdge rating": (EDGE, {"rating": -1.0}),
    "Layer1Design edges": (LAYER1, {"edges": ()}),
    "Layer1Design rating_partitions": (LAYER1, {"rating_partitions": 2}),
    "Layer1Design processed_at_design": (LAYER1, {"processed_at_design": (math.inf,)}),
    "Architecture kind": (LSHIPPP, {"kind": "ladder"}),
    "Architecture num_batteries": (LSHIPPP, {"num_batteries": 2}),
    "Architecture total_expected_power": (LSHIPPP, {"total_expected_power": 0.0}),
    "Architecture rating": (LSHIPPP, {"rating": -1.0}),
    "Architecture layer1": (LSHIPPP, {"layer1": None}),
    "DesignConfig num_rating_sets": (DesignConfig(), {"num_rating_sets": 4}),
    "DesignConfig layer2_trial_ratings": (DesignConfig(), {"layer2_trial_ratings": (0.2, 0.1)}),
    "DesignConfig base_seed": (DesignConfig(), {"base_seed": -1}),
    "Layer2Curve points": (CURVE, {"points": ((0.0, 0.9), (0.1, 0.5))}),
    "Layer2Curve points shape": (CURVE, {"points": ((0.0,),)}),
    "PowerFlowSolution converter_flows": (SOLUTION, {"converter_flows": ["a flow"]}),
    "PowerFlowSolution battery_powers": (SOLUTION, {"battery_powers": ["0.8", "1.0", "1.2"]}),
    "SweepCell trials": (CELL, {"trials": 0}),
    "SweepCell seed": (CELL, {"seed": -1}),
    "SweepCell supply": (CELL, {"supply": BatterySupply(1.0, 0.2, 5)}),
    "SweepCell converter_efficiency": (CELL, {"converter_efficiency": 0.0}),
}


def _same(got, want) -> bool:
    """Same type and fields, arrays by value, dtype and shape."""
    if type(got) is not type(want):
        return False
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    if hasattr(want, "_fields"):
        return all(_same(getattr(got, field), getattr(want, field)) for field in want._fields)
    return got == want


@pytest.mark.parametrize("case", INVALID)
def test_replace_and_make_raise_the_constructors_error(case):
    record, change = INVALID[case]
    with pytest.raises((HipppError, ValueError)) as built:
        type(record)(**{**record._asdict(), **change})
    exact = f"^{re.escape(str(built.value))}$"
    with pytest.raises(type(built.value), match=exact):
        record._replace(**change)
    with pytest.raises(type(built.value), match=exact):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_normalizes_as_the_constructor_does():
    assert repr(SUPPLY._replace(count=4.0)) == repr(BatterySupply(1.0, 0.2, 4))
    assert LSHIPPP._replace(kind="lshippp").kind is ArchitectureKind.LSHIPPP
    moved = EXPECTED._replace(capabilities=[0.5, 1.0, 1.5])
    assert moved.capabilities.dtype == float and not moved.capabilities.flags.writeable
    assert LAYER1._replace(processed_at_design=[1]).processed_at_design == (1.0,)


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", RECORDS)
def test_a_pickle_round_trip_returns_an_equal_record(name, protocol):
    record = RECORDS[name]
    assert _same(pickle.loads(pickle.dumps(record, protocol)), record)
    assert _same(copy.deepcopy(record), record)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("record", [EXPECTED, SAMPLE, SOLUTION], ids=lambda r: type(r).__name__)
def test_unpickling_runs_the_constructor(record, protocol):
    # numpy unpickles an array writeable; the record's own __new__ makes it read-only again
    for value in pickle.loads(pickle.dumps(record, protocol)):
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_edited_pickle_raises_the_constructors_error(protocol):
    # a pickle is a way in too: the edge's rating edited to -1.0 in the stream is refused on load
    def opcode(value):  # pickle's float opcode: text at protocol 0, a big-endian double after it
        return f"F{value!r}\n".encode() if protocol == 0 else b"G" + struct.pack(">d", value)

    data = pickle.dumps(EDGE, protocol)
    assert data.count(opcode(0.5)) == 1
    data = data.replace(opcode(0.5), opcode(-1.0))
    with pytest.raises(ParameterError, match="^rating must be non-negative, not NaN$"):
        pickle.loads(data)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_record_and_each_field(name):
    # the form of the debug log lines, which print records with %s
    record = RECORDS[name]
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
    assert repr(record) == str(record) == f"{name}({fields})"


def test_repr_of_a_supply_and_a_metrics_record():
    assert repr(SUPPLY) == "BatterySupply(mean_power=1.0, std_power=0.2, count=3)"
    assert repr(METRICS) == (
        "MetricsRecord(architecture_kind='cppp', rating_norm=0.2, heterogeneity=0.2, trials=2, seed=0, "
        "utilization=0.9, utilization_std=0.01, system_efficiency=0.98, processed_norm=0.1, output_norm=0.9)"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_a_field_cannot_be_set(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_a_record_equals_the_plain_tuple_of_its_values():
    assert SUPPLY == (1.0, 0.2, 3) and hash(EDGE) == hash((0, 2, 0.5))


class TestValueRules:
    # a value the rule cannot compare is refused with the rule's own error, never converted
    NOT_NUMBERS = [None, "1", "abc", [1.0, None], ["1.0", "2.0"], Fraction(1, 2), Decimal("0.5"),
                   np.array([0.5], dtype=object), [[0.1], [0.2, 0.3]]]

    @pytest.mark.parametrize("rule, message", [
        (nonnegative, "must be non-negative, not NaN"),
        (positive, "must be positive and finite"),
        (nonnegative_finite, "must be non-negative and finite"),
    ])
    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    def test_a_value_that_is_not_a_number_is_a_parameter_error(self, rule, message, value):
        with pytest.raises(ParameterError, match=f"^x {message}$"):
            rule(value, "x")

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    def test_a_grid_that_is_not_a_sequence_of_numbers_is_a_parameter_error(self, value):
        not_numbers = "(must be a non-empty sequence of numbers|values must be non-negative and finite)"
        with pytest.raises(ParameterError, match=f"^x {not_numbers}$"):
            grid(value, "x")

    @pytest.mark.parametrize("value", [*NOT_NUMBERS, 0.0, 1.5, math.nan, [0.9]], ids=repr)
    def test_an_efficiency_that_is_not_one_number_in_the_unit_interval_is_a_parameter_error(self, value):
        with pytest.raises(ParameterError, match=r"^converter efficiency must lie in \(0, 1\]$"):
            efficiency(value)

    @pytest.mark.parametrize("build, message", [
        (lambda v: ConverterEdge(0, 1, v), "rating must be non-negative, not NaN"),
        (lambda v: Architecture(ArchitectureKind.FPP, 3, 3.0, v), "rating must be non-negative, not NaN"),
        (lambda v: BatterySupply(v, 0.2, 9), "mean_power must be positive and finite"),
        (lambda v: BatterySupply(1.0, v, 9), "std_power must be non-negative and finite"),
        (lambda v: Architecture(ArchitectureKind.FPP, 3, v, 0.1), "total_expected_power must be positive and finite"),
        (lambda v: optimal_flow([v, 1.0, 1.2], LADDER3), "capabilities must be positive and finite"),
        (lambda v: flow_powers([[v, 1.0, 1.2]], LADDER3, [0.1]), "capabilities must be positive and finite"),
        (lambda v: flow_powers([[0.8, 1.0, 1.2]], LADDER3, [v]), "ratings must be non-negative, not NaN"),
        (lambda v: max_string_outputs([[v, 1.0, 1.2]], LADDER3, [0.1]), "capabilities must be positive and finite"),
        (lambda v: max_string_outputs([[0.8, 1.0, 1.2]], LADDER3, [v]), "ratings must be non-negative, not NaN"),
        (lambda v: ExpectedSet([v, 1.0, 1.2], SUPPLY), "expected capabilities must be positive and finite"),
        (lambda v: BatterySample([v, 1.0, 1.2], [0.0, 0.0, 0.0], 0),
         "sampled capabilities must be positive and finite"),
        (lambda v: BatterySample([0.8, 1.0, 1.2], [v, 0.0, 0.0], 0),
         "sampled deviations must be finite, one per capability"),
        (lambda v: Layer1Design((EDGE,), 1, (v,)), "processed_at_design must be non-negative and finite"),
        (lambda v: partition_ratings([0.3, v], 1), "processed powers must be non-negative, not NaN"),
        (lambda v: DesignConfig(layer2_trial_ratings=[0.0, v]),
         "layer2_trial_ratings values must be non-negative and finite"),
        (lambda v: Layer2Curve([(0.0, 0.5), (v, 0.9)]), "curve rating grid values must be non-negative and finite"),
        (lambda v: Layer2Curve([(0.0, v)]), "curve utilizations must be in [0, 1]"),
        (lambda v: system_efficiency(v, 1.0, 0.9), "processed powers must be non-negative, not NaN"),
        (lambda v: system_efficiency([0.1], [v], 0.9), "output powers must be non-negative, not NaN"),
        (lambda v: system_efficiency(0.1, 1.0, v), "converter efficiency must lie in (0, 1]"),
        (lambda v: SweepCell(LADDER3, SUPPLY, 2, 0, v), "converter efficiency must lie in (0, 1]"),
        (lambda v: sweep_rating(["cppp"], SUPPLY, [0.1, v], 2, 0),
         "rating grid values must be non-negative and finite"),
        (lambda v: sweep_rating(["cppp"], SUPPLY, [0.1], 2, 0, converter_efficiency=v),
         "converter efficiency must lie in (0, 1]"),
        (lambda v: sweep_heterogeneity(["cppp"], 1.0, [v], 0.15, 2, 0, count=3),
         "sigma grid values must be non-negative and finite"),
        (lambda v: sweep_heterogeneity(["cppp"], 1.0, [0.2], v, 2, 0, count=3),
         "rating budget must be non-negative and finite"),
        (lambda v: sweep_figures(["cppp"], SUPPLY, [0.1], [0.2], 0.15, 2, 0, converter_efficiency=v),
         "converter efficiency must lie in (0, 1]"),
    ], ids=["edge rating", "architecture rating", "mean_power", "std_power", "total_expected_power",
            "optimal_flow capabilities", "flow_powers capabilities", "flow_powers ratings",
            "max_string_outputs capabilities", "max_string_outputs rungs", "ExpectedSet capabilities",
            "BatterySample capabilities", "BatterySample deviations", "Layer1Design processed_at_design",
            "partition_ratings processed", "DesignConfig layer2_trial_ratings", "Layer2Curve rating",
            "Layer2Curve utilization", "system_efficiency processed", "system_efficiency output",
            "system_efficiency converter_efficiency", "SweepCell converter_efficiency", "sweep_rating rating_grid",
            "sweep_rating converter_efficiency", "sweep_heterogeneity sigma_grid",
            "sweep_heterogeneity fixed_budget", "sweep_figures converter_efficiency"])
    @pytest.mark.parametrize("value", [None, "1", "abc"], ids=repr)
    def test_a_record_refuses_a_field_that_is_not_a_number(self, build, message, value):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build(value)

    def test_numbers_still_pass(self):
        nonnegative(np.array([0.0, math.inf]), "x")
        positive([1, 2.5], "x")
        nonnegative_finite((0.0, 3), "x")

    @pytest.mark.parametrize("values", [
        np.array([0.1, 0.7, 3.0]), np.array([1, 2, 3]), np.array([True, False]), np.float32([0.1, 0.3]),
        np.arange(6, dtype=np.uint8).reshape(2, 3), [0.25, 1, True],
    ], ids=repr)
    def test_each_rule_returns_the_floats_of_dtype_float(self, values):
        want = np.asarray(values, dtype=float)
        rules = (nonnegative, nonnegative_finite, positive) if (want > 0.0).all() else (nonnegative, nonnegative_finite)
        for rule in rules:
            got = rule(values, "x")
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_single_number_comes_back_a_float(self):
        assert [type(rule(np.float32(0.5), "x")) for rule in (nonnegative, positive, nonnegative_finite)] == [float] * 3
        assert type(efficiency(np.float32(0.5))) is float
        assert grid(np.array([0, 1]), "x") == (0.0, 1.0) and type(grid([0, 1], "x")[0]) is float


class TestSingleNumberFields:
    def test_a_record_keeps_the_float_its_rule_returned(self):
        # a float32 mean flattened in float32 and missed the mass check; True was kept as True
        assert _same(BatterySupply(np.float32(1.0), 0.2, 9), BatterySupply(1.0, 0.2, 9))
        assert _same(BatterySupply(True, np.float32(0.25), 9), BatterySupply(1.0, 0.25, 9))
        assert _same(ConverterEdge(0, 1, np.float32(0.5)), ConverterEdge(0, 1, 0.5))
        rung = float(np.float32(0.1))
        assert _same(Architecture("cppp", 9, np.int64(9), np.float32(0.1)), Architecture("cppp", 9, 9.0, rung))
        assert type(aggregate_rating(Architecture("cppp", 9, 9.0, np.float32(0.1)))) is float

    @pytest.mark.parametrize("build, name", [
        (lambda: ConverterEdge(0, 1, [0.5]), "rating"),
        (lambda: Architecture("cppp", 9, [9.0], 0.1), "total_expected_power"),
        (lambda: Architecture("cppp", 9, 9.0, np.array([0.1])), "rating"),
        (lambda: BatterySupply(np.array([1.0]), 0.2, 3), "mean_power"),
        (lambda: BatterySupply(1.0, [0.2], 3), "std_power"),
        (lambda: cppp_from_budget([0.2], flatten(SUPPLY9)), "rating budget"),
        (lambda: sweep_heterogeneity(["cppp"], 1.0, [0.2], [0.15], 2, 0, count=3), "rating budget"),
    ], ids=["edge rating", "total_expected_power", "architecture rating", "mean_power", "std_power",
            "cppp_from_budget", "sweep_heterogeneity fixed_budget"])
    def test_an_array_is_refused(self, build, name):
        with pytest.raises(ParameterError, match=f"^{name} must be one number, got "):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: optimal_flow([[0.9], [1.0, 1.1]], LADDER3), "capabilities must be positive and finite"),
        (lambda: DesignConfig(layer2_trial_ratings=[[0.1], [0.2, 0.3]]),
         "layer2_trial_ratings values must be non-negative and finite"),
        (lambda: Layer2Curve(None), "curve points must be (rating, utilization) pairs"),
        (lambda: Layer2Curve([(0.0,)]), "curve points must be (rating, utilization) pairs"),
        (lambda: Layer2Curve([(0.0, 0.5), (0.1, 0.9, 1.0)]), "curve points must be (rating, utilization) pairs"),
        (lambda: Layer2Curve([(0.0, 0.5), (0.1, [0.9, 1.0])]), "curve utilizations must be in [0, 1]"),
        (lambda: PowerFlowSolution(1.0, ["0.5"], [1.0, 1.0], 2.0, 0.5),
         "converter flows and battery powers must be finite numbers"),
        (lambda: PowerFlowSolution(1.0, [0.5], [[1.0], [1.0, 1.0]], 2.0, 0.5),
         "converter flows and battery powers must be finite numbers"),
    ], ids=["optimal_flow", "DesignConfig", "Layer2Curve None", "Layer2Curve single", "Layer2Curve triple",
            "Layer2Curve nested utilization", "PowerFlowSolution string", "PowerFlowSolution ragged"])
    def test_a_malformed_shape_or_string_is_refused(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()
