"""The one whole-number rule (hippp.errors.whole) at every count, index and seed that uses it."""

import re

import pytest

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySample,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    Layer1Design,
    ParameterError,
    SweepCell,
    cppp_from_budget,
    draw_capabilities,
    evaluate_cells,
    flatten,
    interconnection_count,
    partition_ratings,
)
from hippp.design import _check_enumeration
from hippp.errors import whole

SUPPLY3 = BatterySupply(1.0, 0.2, 3)
LADDER3 = cppp_from_budget(0.2, flatten(SUPPLY3))
EDGE = ConverterEdge(0, 2, 0.5)

# field as its error names it, what a value builds (the stored value, or the
# call's result), an integer-valued float in range, and the nearest integer below range
FIELDS = {
    "from_battery": ("from_battery", lambda v: ConverterEdge(v, 1, 0.1).from_battery, 2.0, -1),
    "to_battery": ("to_battery", lambda v: ConverterEdge(0, v, 0.1).to_battery, 2.0, -1),
    "rating_partitions": ("rating_partitions", lambda v: Layer1Design((EDGE,), v, (0.5,)).rating_partitions, 1.0, 0),
    "num_batteries": ("num_batteries", lambda v: Architecture(ArchitectureKind.FPP, v, 3.0, 0.1).num_batteries,
                      3.0, 0),
    "num_layer1": ("num_layer1", lambda v: DesignConfig(num_layer1=v, num_rating_sets=1).num_layer1, 3.0, 0),
    "num_rating_sets": ("num_rating_sets", lambda v: DesignConfig(num_rating_sets=v).num_rating_sets, 3.0, 0),
    "monte_carlo_trials": ("monte_carlo_trials", lambda v: DesignConfig(monte_carlo_trials=v).monte_carlo_trials,
                           3.0, 0),
    "base_seed": ("base_seed", lambda v: DesignConfig(base_seed=v).base_seed, 3.0, -1),
    "enumeration n": ("battery count", lambda v: _check_enumeration(v, 1), 3.0, 1),
    "enumeration m": ("converter count", lambda v: _check_enumeration(4, v), 3.0, 0),
    "interconnection_count n": ("battery count", lambda v: interconnection_count(v, 1), 3.0, -1),
    "interconnection_count m": ("converter count", lambda v: interconnection_count(4, v), 3.0, -1),
    "partition_ratings k": ("number of rating groups", lambda v: partition_ratings([0.3, 0.2, 0.1], v), 2.0, 0),
    "evaluate_cells trials": ("trials", lambda v: evaluate_cells([SweepCell(LADDER3, SUPPLY3, v, 0)])[0].trials,
                              3.0, 0),
    "evaluate_cells seed": ("seed", lambda v: evaluate_cells([SweepCell(LADDER3, SUPPLY3, 2, v)])[0].seed, 3.0, -1),
    "BatterySupply count": ("count", lambda v: BatterySupply(1.0, 0.2, v).count, 3.0, 0),
    "draw_capabilities seed": ("seed", lambda v: draw_capabilities(SUPPLY3, v).tolist(), 3.0, -1),
    "BatterySample seed": ("seed", lambda v: BatterySample([0.9, 1.0, 1.1], [0.0, 0.0, 0.0], v).seed, 3.0, -1),
}

BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "None": None, "'3'": "3", "2.5": 2.5}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("bad", [*BAD, "below range"])
def test_every_count_index_and_seed_refuses_what_is_not_a_whole_number_in_range(field, bad):
    name, build, _, below = FIELDS[field]
    value = below if bad == "below range" else BAD[bad]
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be "):
        build(value)


@pytest.mark.parametrize("field", FIELDS)
def test_an_integer_valued_float_is_stored_as_the_int(field):
    _, build, value, _ = FIELDS[field]
    # repr tells 3 from 3.0, inside a tuple or list too
    assert repr(build(value)) == repr(build(int(value)))


class TestWhole:
    def test_returns_an_int_for_an_integer_valued_real_in_range(self):
        assert whole(3, "n") == 3 and type(whole(3.0, "n")) is int
        assert whole(0, "n") == 0 and whole(2, "n", 1, 2) == 2

    @pytest.mark.parametrize("low, high, value, text", [
        (0, None, -1, "n must be a non-negative integer, got -1"),
        (1, None, 0, "n must be a positive integer, got 0"),
        (2, None, 1, "n must be an integer of at least 2, got 1"),
        (1, 3, 4, "n must be an integer in 1..3, got 4"),
        (0, None, "3", "n must be a non-negative integer, got '3'"),
    ])
    def test_the_message_names_the_field_its_range_and_the_value(self, low, high, value, text):
        with pytest.raises(ParameterError) as caught:
            whole(value, "n", low, high)
        assert str(caught.value) == text
