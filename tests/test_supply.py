"""Distribution flattening and batch sampling.

The flattening oracle is direct numeric quadrature of x * pdf(x) over each
equal-probability interval, done with scipy and sharing nothing with the
implementation. Flattening also keeps the bits of flattening through a
distribution object's quantile, CDF and interval mean (oracles). The port of
the Cephes normal CDF and quantile is compared with scipy.special, the C
code it was transcribed from, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flatten_distribution
from scipy import integrate, special, stats

import hippp.supply
from hippp import BatterySupply, InternalCheckError, ParameterError, flatten, sample_battery_set
from hippp._normal import _EXP_M2, _MAXLOG, _SQRT1_2, ndtr, ndtri
from hippp.supply import MIN_RELATIVE_STD

SQRT_2_OVER_PI = 0.7978845608028654

# frozen expected set for the nine-slot, 20 % spread reference string,
# digits from a 30-digit quadrature of x phi(x) over each probability slice
EXPECTED_N9 = [
    0.6590888179834477,
    0.8048689397906807,
    0.8815626478102996,
    0.9433576495428530,
    1.0,
    1.0566423504571470,
    1.1184373521897004,
    1.1951310602093193,
    1.3409111820165523,
]


def quad_interval_means(mean, std, count):
    """Quadrature oracle: N * integral of x phi(x) over each probability slice."""
    dist = stats.norm(mean, std)
    bounds = dist.ppf(np.linspace(0.0, 1.0, count + 1))
    # clip the infinite tails; beyond 13 sigma the lost mass is ~1e-38
    bounds[0] = mean - 13.0 * std
    bounds[-1] = mean + 13.0 * std
    means = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        value, err = integrate.quad(
            lambda x: x * dist.pdf(x), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        assert err < 1e-10
        means.append(count * value)
    return np.array(means)


class TestFlattenAnchors:
    def test_two_slot_standard_normal(self):
        # the two half-normal means, mean +- std * sqrt(2 / pi)
        means = flatten(BatterySupply(1.0, 0.5, 2)).capabilities
        assert (means - 1.0) / 0.5 == pytest.approx([-SQRT_2_OVER_PI, SQRT_2_OVER_PI], abs=1e-12)

    def test_three_slot_reference(self):
        es = flatten(BatterySupply(1.0, 0.2, 3))
        assert es.capabilities == pytest.approx([0.7818401351948094, 1.0, 1.2181598648051906], abs=1e-12)

    def test_nine_slot_reference(self):
        es = flatten(BatterySupply(1.0, 0.2, 9))
        assert es.capabilities == pytest.approx(EXPECTED_N9, abs=1e-9)
        assert es.total_power == pytest.approx(9.0, abs=1e-12)

    def test_matches_quadrature(self):
        for mean, std, count in [(1.0, 0.2, 9), (1.0, 0.05, 4), (3.0, 0.9, 7), (1.0, 0.2, 1)]:
            got = flatten(BatterySupply(mean, std, count)).capabilities
            assert got == pytest.approx(quad_interval_means(mean, std, count), abs=1e-9)

    def test_single_slot_is_the_mean(self):
        es = flatten(BatterySupply(2.5, 0.3, 1))
        assert es.capabilities == pytest.approx([2.5], abs=1e-12)

    def test_zero_spread_is_flat(self):
        es = flatten(BatterySupply(1.0, 0.0, 5))
        assert np.array_equal(es.capabilities, np.full(5, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(0.5, 10.0),
    rel_std=st.floats(0.01, 0.35),
    count=st.integers(1, 24),
)
def test_flatten_properties(mean, rel_std, count):
    """Sum preservation, symmetry about the mean, strict ascent."""
    es = flatten(BatterySupply(mean, rel_std * mean, count))
    caps = es.capabilities
    assert caps.sum() == pytest.approx(count * mean, rel=1e-12)
    assert caps + caps[::-1] == pytest.approx(np.full(count, 2 * mean), rel=1e-12)
    if count > 1:
        assert np.all(np.diff(caps) > 0.0)
    assert np.all(caps > 0.0)


class TestFlattenArithmetic:
    # means 0.5-7.3, spreads from the least BatterySupply takes to near the mean, counts 1-64;
    # wide spreads at high counts are refused for their weakest slot
    GRID = [(mean, rel, count) for mean in (0.5, 1.0, 2.9, 7.3)
            for rel in (MIN_RELATIVE_STD, 0.01, 0.1, 0.2, 0.35, 0.5, 0.62, 0.9) for count in range(1, 65)]

    def test_bytes_and_refusals_match_flattening_through_a_distribution(self):
        # the supply refuses what the oracle refuses, so flattening a supply never fails
        refused = 0
        for mean, rel, count in self.GRID:
            want = flatten_distribution(mean, rel * mean, count)
            if isinstance(want, np.ndarray):
                assert flatten(BatterySupply(mean, rel * mean, count)).capabilities.tobytes() == want.tobytes(), (
                    mean, rel, count)
            else:
                with pytest.raises(want):
                    BatterySupply(mean, rel * mean, count)
                refused += 1
        assert 0 < refused < len(self.GRID)

    def test_mass_check_catches_inconsistent_quantiles(self, monkeypatch):
        # a quantile skewed off the CDF leaves the intervals unequal in probability
        monkeypatch.setattr(hippp.supply, "ndtri", lambda q: ndtri(q * q))
        with pytest.raises(InternalCheckError, match="carries probability"):
            flatten(BatterySupply(1.0, 0.2, 4))


class TestValidation:
    def test_rejects_negative_std(self):
        with pytest.raises(ParameterError):
            BatterySupply(1.0, -0.1, 9)

    def test_rejects_spread_at_or_above_mean(self):
        with pytest.raises(ParameterError):
            BatterySupply(1.0, 1.0, 9)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ParameterError):
            BatterySupply(1.0, 0.2, 0)

    def test_an_integer_valued_float_count_is_an_integer(self):
        supply = BatterySupply(1.0, 0.2, 9.0)
        assert type(supply.count) is int
        assert np.array_equal(flatten(supply).capabilities, flatten(BatterySupply(1.0, 0.2, 9)).capabilities)
        with pytest.raises(ParameterError):
            BatterySupply(1.0, 0.2, 2.5)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ParameterError):
            BatterySupply(0.0, 0.0, 3)

    @pytest.mark.parametrize("mean, sigma", [
        (1.0, 1e-17), (1.0, 5.8e-233), (1.0, 1e-6), (1.0, 0.999 * MIN_RELATIVE_STD),
        (2.0, 1.5 * MIN_RELATIVE_STD),  # the floor scales with the mean
    ])
    def test_rejects_spread_too_small_to_flatten(self, mean, sigma):
        # such spreads used to fail flatten's interval-mass check with InternalCheckError
        with pytest.raises(ParameterError, match="std_power"):
            BatterySupply(mean, sigma, 9)

    @pytest.mark.parametrize("mean", [0.3, 1.0, 1.9999, 2.0001, 50.0])
    def test_the_least_spread_flattens_at_every_count(self, mean):
        for count in range(1, 65):
            caps = flatten(BatterySupply(mean, MIN_RELATIVE_STD * mean, count)).capabilities
            assert caps.sum() == pytest.approx(count * mean, rel=1e-12)
            assert count == 1 or np.all(np.diff(caps) > 0.0)

    def test_rejects_spread_that_drowns_the_weak_slot(self):
        # wide spread and many slots push the weakest interval mean negative; the supply refuses it unflattened
        for count in (9, 40):
            with pytest.raises(ParameterError, match="weakest slot mean is not positive"):
                BatterySupply(1.0, 0.6, count)
        assert flatten(BatterySupply(1.0, 0.6, 8)).capabilities[0] > 0.0  # the most slots this spread fills


class TestSampling:
    def test_same_seed_same_batch(self):
        supply = BatterySupply(1.0, 0.2, 9)
        a = sample_battery_set(supply, 42)
        b = sample_battery_set(supply, 42)
        assert np.array_equal(a.capabilities, b.capabilities)
        assert np.array_equal(a.deviations, b.deviations)

    def test_different_seeds_differ(self):
        supply = BatterySupply(1.0, 0.2, 9)
        a = sample_battery_set(supply, 1)
        b = sample_battery_set(supply, 2)
        assert not np.array_equal(a.capabilities, b.capabilities)

    def test_sorted_positive_and_anchored(self):
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply).capabilities
        for seed in range(25):
            s = sample_battery_set(supply, seed)
            assert np.all(np.diff(s.capabilities) >= 0.0)
            assert np.all(s.capabilities > 0.0)
            assert s.capabilities - s.deviations == pytest.approx(expected, abs=1e-12)

    def test_law_of_large_numbers(self):
        supply = BatterySupply(1.0, 0.2, 9)
        draws = np.concatenate([sample_battery_set(supply, seed).capabilities for seed in range(400)])
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.std(ddof=1) == pytest.approx(0.2, abs=0.01)

    def test_rejection_keeps_batch_positive(self):
        # spread close to the mean makes non-positive draws likely enough to hit
        supply = BatterySupply(1.0, 0.9, 3)
        raw_had_nonpositive = False
        for seed in range(60):
            raw = np.random.default_rng(seed).normal(1.0, 0.9, 3)
            raw_had_nonpositive = raw_had_nonpositive or bool(np.any(raw <= 0.0))
            s = sample_battery_set(supply, seed)
            assert np.all(s.capabilities > 0.0)
        assert raw_had_nonpositive  # the resample path was actually exercised


def _ulp_window(value, steps=4):
    """`value` and its `steps` nearest doubles on either side."""
    out = [value]
    low = high = value
    for _ in range(steps):
        low = math.nextafter(low, -math.inf)
        high = math.nextafter(high, math.inf)
        out += [low, high]
    return out


def _assert_matches_scipy(port, reference, inputs):
    inputs = np.asarray(inputs, dtype=float)
    got = np.array([port(float(v)) for v in inputs])
    want = reference(inputs)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    if not same.all():
        i = int(np.flatnonzero(~same)[0])
        pytest.fail(
            f"{(~same).sum()} of {inputs.size} differ; first at {inputs[i]!r}: "
            f"port {got[i]!r}, scipy {want[i]!r}"
        )


class TestNormalPort:
    """The Cephes port equals scipy.special.ndtr/ndtri by ==, edges included."""

    RNG_SEED = 20240611

    def test_quantile_at_every_slot_bound(self):
        levels = [k / n for n in range(1, 129) for k in range(n + 1)]
        _assert_matches_scipy(ndtri, special.ndtri, levels)

    def test_quantile_at_random_levels(self):
        rng = np.random.default_rng(self.RNG_SEED)
        levels = np.concatenate([
            rng.random(20_000),
            10.0 ** rng.uniform(-300.0, 0.0, 20_000),
            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),
        ])
        _assert_matches_scipy(ndtri, special.ndtri, levels)

    def test_quantile_branch_edges(self):
        levels = [0.0, -0.0, 1.0, 0.5, 5e-324, 1e-300, -1e-300, -1.0, 1.5,
                  math.inf, -math.inf, math.nan]
        # central fit vs tails at exp(-2) on both sides; tail fits split at z = 8
        for edge in (_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0)):
            levels += _ulp_window(edge)
        levels += _ulp_window(1.0, 8)
        _assert_matches_scipy(ndtri, special.ndtri, levels)

    def test_cdf_on_a_grid_and_random_points(self):
        rng = np.random.default_rng(self.RNG_SEED)
        points = np.concatenate([np.linspace(-40.0, 40.0, 80_001), rng.uniform(-40.0, 40.0, 20_000)])
        _assert_matches_scipy(ndtr, special.ndtr, points)

    def test_cdf_branch_edges(self):
        points = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]
        # erf vs erfc at |x| = 1/sqrt(2), erfc's own erf branch at 1, its two
        # fits at 8, and its MAXLOG underflow, with x = a / sqrt(2)
        for edge in (_SQRT1_2, 1.0, 8.0, math.sqrt(_MAXLOG)):
            for sign in (1.0, -1.0):
                points += _ulp_window(sign * edge / _SQRT1_2)
        _assert_matches_scipy(ndtr, special.ndtr, points)
