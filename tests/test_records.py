"""Records are immutable named tuples: their checks run on every way in, and they keep their repr.

A checked record normalizes and checks its fields in ``__new__``, so the
constructor, ``_make``, ``_replace``, a pickle round trip and ``copy`` all
give a record that passed the same checks, or raise the same error.
"""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    HipppError,
    Layer1Design,
    Layer2Curve,
    MetricsRecord,
    ParameterError,
    cppp_from_budget,
    flatten,
    optimal_flow,
    sample_battery_set,
)
from hippp.cli import ExperimentConfig
from hippp.errors import nonnegative, nonnegative_finite, positive

SUPPLY = BatterySupply(1.0, 0.2, 3)
EXPECTED = flatten(SUPPLY)
SAMPLE = sample_battery_set(SUPPLY, 0)
EDGE = ConverterEdge(0, 2, 0.5)
LAYER1 = Layer1Design((EDGE,), 1, (0.5,))
LSHIPPP = Architecture(ArchitectureKind.LSHIPPP, 3, 3.0, 0.1, LAYER1)
CURVE = Layer2Curve(((0.0, 0.5), (0.1, 0.9)))
SOLUTION = optimal_flow([0.8, 1.0, 1.2], cppp_from_budget(0.2, EXPECTED))
METRICS = MetricsRecord("cppp", 0.2, 0.2, 2, 0, 0.9, 0.01, 0.98, 0.1, 0.9)

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
    "PowerFlowSolution converter_flows": (SOLUTION, {"converter_flows": ["a flow"]}),
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


@pytest.mark.parametrize("name", RECORDS)
def test_a_pickle_round_trip_returns_an_equal_record(name):
    record = RECORDS[name]
    assert _same(pickle.loads(pickle.dumps(record)), record)
    assert _same(copy.deepcopy(record), record)


@pytest.mark.parametrize("record", [EXPECTED, SAMPLE, SOLUTION], ids=lambda r: type(r).__name__)
def test_unpickling_runs_the_constructor(record):
    # numpy unpickles an array writeable; the record's own __new__ makes it read-only again
    for value in pickle.loads(pickle.dumps(record)):
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable


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
    NOT_NUMBERS = [None, "1", "abc", [1.0, None], ["1.0", "2.0"]]

    @pytest.mark.parametrize("rule, message", [
        (nonnegative, "must be non-negative, not NaN"),
        (positive, "must be positive and finite"),
        (nonnegative_finite, "must be non-negative and finite"),
    ])
    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    def test_a_value_that_is_not_a_number_is_a_parameter_error(self, rule, message, value):
        with pytest.raises(ParameterError, match=f"^x {message}$"):
            rule(value, "x")

    @pytest.mark.parametrize("build, message", [
        (lambda v: ConverterEdge(0, 1, v), "rating must be non-negative, not NaN"),
        (lambda v: Architecture(ArchitectureKind.FPP, 3, 3.0, v), "rating must be non-negative, not NaN"),
        (lambda v: BatterySupply(v, 0.2, 9), "mean_power must be positive and finite"),
        (lambda v: BatterySupply(1.0, v, 9), "std_power must be non-negative and finite"),
        (lambda v: Architecture(ArchitectureKind.FPP, 3, v, 0.1), "total_expected_power must be positive and finite"),
    ], ids=["edge rating", "architecture rating", "mean_power", "std_power", "total_expected_power"])
    @pytest.mark.parametrize("value", [None, "1"], ids=repr)
    def test_a_record_refuses_a_field_that_is_not_a_number(self, build, message, value):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build(value)

    def test_numbers_still_pass(self):
        nonnegative(np.array([0.0, math.inf]), "x")
        positive([1, 2.5], "x")
        nonnegative_finite((0.0, 3), "x")
