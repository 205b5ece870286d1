"""Flow solutions against a brute-force grid oracle and frozen references.

The oracle sweeps every converter flow over a dense grid; for each flow
vector the best feasible string current follows in closed form, so the
maximum over the grid bounds the LP answer to grid resolution.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    build_flow_lp,
    cut_pass,
    free_flow_output,
    grid_best_output,
    hierarchical_lp_output,
    incidence,
    ladder_interval_currents,
    ladder_lp_flow,
    least_processing_lp,
    solve,
    ssp_pass,
)
from scipy.optimize import linprog

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    EnumerationCapError,
    Layer1Design,
    InternalCheckError,
    ParameterError,
    StructuralError,
    architecture_edges,
    cppp_from_budget,
    flatten,
    fpp_from_budget,
    max_string_outputs,
    optimal_flow,
)
import hippp.powerflow
from hippp.powerflow import (
    _certify,
    _hierarchical_currents,
    _ladder_flow,
    _least_processing_flows,
    flow_powers,
    free_flow_outputs,
)
from hippp.supply import _draw_block

GRID_TOL = 2e-3

# nine-slot expected set, frozen in test_supply
E9 = np.array([
    0.6590888179834477, 0.8048689397906807, 0.8815626478102996,
    0.9433576495428530, 1.0, 1.0566423504571470, 1.1184373521897004,
    1.1951310602093193, 1.3409111820165523,
])


def cppp_arch(caps_total, n, rating):
    return Architecture(
        ArchitectureKind.CPPP,
        num_batteries=n,
        total_expected_power=caps_total,
        rating=rating,
    )


def ls_arch(n, total, layer1_edges, layer2_rating, k=None):
    ratings = [r for (_, _, r) in layer1_edges]
    edges = tuple(ConverterEdge(a, b, r) for (a, b, r) in layer1_edges)
    k = k if k is not None else len(set(ratings))
    layer1 = Layer1Design(edges, k, (0.0,) * len(edges))  # the design record; the flow kernels read only ratings
    return Architecture(
        ArchitectureKind.LSHIPPP,
        num_batteries=n,
        total_expected_power=total,
        rating=layer2_rating,
        layer1=layer1,
    )


def rows_at(block, rating):
    """One rating per row of `block`, the same on every row, as the float array the kernels take."""
    return np.full(len(block), rating, dtype=float)


def ladder_point(block, rungs):
    """The conventional ladder's (currents, rung flows, battery powers) on every row of a block, as
    _operating_points runs it: the chordless cut form's currents, then the ladder dispatch at them."""
    n = block.shape[1]
    current = _hierarchical_currents(block, cppp_arch(float(n), n, 0.0), rungs)
    return (current, *_ladder_flow(block, rungs, current))


class TestFrozenExamples:
    def test_homogeneous_string_needs_no_processing(self):
        caps = [1.0, 1.0, 1.0]
        for arch in (
            cppp_arch(3.0, 3, 0.0),
            fpp_from_budget(0.0, flatten(BatterySupply(1.0, 0.0, 3))),
            ls_arch(3, 3.0, [(0, 2, 0.0)], 0.0),
        ):
            sol = optimal_flow(caps, arch)
            assert sol.output_power == pytest.approx(3.0, abs=1e-9)
            assert sol.processed_power == pytest.approx(0.0, abs=1e-9)

    def test_ladder_reference_point(self):
        # {0.8, 1.0, 1.2} with 0.2 converters balances exactly to the mean
        sol = optimal_flow([0.8, 1.0, 1.2], cppp_arch(3.0, 3, 0.2))
        assert sol.string_current == pytest.approx(1.0, abs=1e-9)
        assert sol.output_power == pytest.approx(3.0, abs=1e-9)
        # 0.2 flows toward the weak end on both rungs
        assert sol.converter_flows == pytest.approx([-0.2, -0.2], abs=1e-9)
        assert sol.processed_power == pytest.approx(0.4, abs=1e-9)
        assert sol.battery_powers == pytest.approx([0.8, 1.0, 1.2], abs=1e-9)

    def test_ladder_cascade_dispatch_nine_slots(self):
        # decentralized ladder dispatch at the expected point: the two weak
        # slots bind, the middle rungs saturate, the strong end curtails
        rating = 0.16875
        sol = optimal_flow(E9, cppp_arch(9.0, 9, rating))
        current = (E9[0] + E9[1] + rating) / 2.0
        assert sol.string_current == pytest.approx(current, abs=1e-9)
        f0 = E9[0] - current
        f2 = -rating + E9[2] - current
        f3 = f2 + E9[3] - current
        expect = [f0, -rating, f2, f3, rating, rating, rating, rating]
        assert sol.converter_flows == pytest.approx(expect, abs=1e-9)
        assert sol.processed_power == pytest.approx(
            abs(f0) + rating + abs(f2) + abs(f3) + 4 * rating, abs=1e-9
        )

    def test_fpp_clips_every_battery(self):
        arch = Architecture(ArchitectureKind.FPP, 3, 3.0, rating=0.9)
        sol = optimal_flow([0.8, 1.0, 1.2], arch)
        assert sol.output_power == pytest.approx(2.6)
        assert sol.processed_power == pytest.approx(2.6)
        assert sol.battery_powers == pytest.approx([0.8, 0.9, 0.9])

    def test_fpp_zero_rating_is_the_bare_string(self):
        arch = Architecture(ArchitectureKind.FPP, 3, 3.0, rating=0.0)
        sol = optimal_flow([0.8, 1.0, 1.2], arch)
        assert sol.output_power == pytest.approx(2.4)
        assert sol.processed_power == 0.0
        assert sol.converter_flows.size == 0


class TestGridOracle:
    def test_ladder_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            caps = np.sort(rng.uniform(0.4, 1.6, 3))
            rating = float(rng.uniform(0.05, 0.4))
            sol = optimal_flow(caps, cppp_arch(float(caps.sum()), 3, rating))
            oracle = grid_best_output(caps, [(0, 1), (1, 2)], [rating, rating])
            assert sol.output_power == pytest.approx(oracle, abs=GRID_TOL)

    def test_hierarchical_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            caps = np.sort(rng.uniform(0.4, 1.6, 3))
            r1 = float(rng.uniform(0.02, 0.15))
            r2 = float(rng.uniform(0.0, 0.1))
            arch = ls_arch(3, float(caps.sum()), [(0, 2, r1)], r2)
            sol = optimal_flow(caps, arch)
            pairs = [(0, 2), (0, 1), (1, 2)]
            oracle = grid_best_output(caps, pairs, [r1, r2, r2])
            assert sol.output_power == pytest.approx(oracle, abs=GRID_TOL)

    def test_two_battery_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            caps = np.sort(rng.uniform(0.3, 1.7, 2))
            rating = float(rng.uniform(0.02, 0.6))
            sol = optimal_flow(caps, cppp_arch(float(caps.sum()), 2, rating))
            oracle = grid_best_output(caps, [(0, 1)], [rating])
            assert sol.output_power == pytest.approx(oracle, abs=GRID_TOL)


class TestSolutionInvariants:
    def check(self, caps, arch):
        sol = optimal_flow(caps, arch)
        edges = architecture_edges(arch)
        pairs = [(e.from_battery, e.to_battery) for e in edges]
        ratings = np.array([e.rating for e in edges])
        residual = sol.battery_powers - sol.string_current - incidence(pairs, len(caps)) @ sol.converter_flows
        assert np.abs(residual).max(initial=0.0) <= 1e-8
        assert np.all(np.abs(sol.converter_flows) <= ratings + 1e-8)
        assert np.all(np.abs(sol.battery_powers) <= np.asarray(caps) + 1e-8)
        assert sol.processed_power <= ratings.sum() + 1e-8
        assert sol.output_power == pytest.approx(len(caps) * sol.string_current, abs=1e-9)
        return sol

    def test_random_ladders(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            caps = np.sort(rng.uniform(0.3, 1.8, n))
            self.check(caps, cppp_arch(float(caps.sum()), n, float(rng.uniform(0.0, 0.5))))

    def test_random_hierarchies(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            caps = np.sort(rng.uniform(0.3, 1.8, n))
            a, b = sorted(rng.choice(n, size=2, replace=False))
            arch = ls_arch(
                n, float(caps.sum()), [(int(a), int(b), float(rng.uniform(0.05, 0.6)))],
                float(rng.uniform(0.0, 0.3)),
            )
            self.check(caps, arch)

    def test_mirror_symmetry(self):
        # relabeling the string end-for-end must not change the deliverable power
        rng = np.random.default_rng(10)
        for _ in range(6):
            n = int(rng.integers(3, 7))
            caps = np.sort(rng.uniform(0.4, 1.6, n))
            rating = float(rng.uniform(0.05, 0.4))
            total = float(caps.sum())
            fwd = optimal_flow(caps, cppp_arch(total, n, rating))
            rev = optimal_flow(caps[::-1].copy(), cppp_arch(total, n, rating))
            assert fwd.output_power == pytest.approx(rev.output_power, abs=1e-8)
            # the hierarchical dispatch also keeps the processing level
            a, b = sorted(rng.choice(n, size=2, replace=False))
            arch_f = ls_arch(n, total, [(int(a), int(b), 0.3)], rating)
            arch_r = ls_arch(n, total, [(n - 1 - int(b), n - 1 - int(a), 0.3)], rating)
            fwd = optimal_flow(caps, arch_f)
            rev = optimal_flow(caps[::-1].copy(), arch_r)
            assert fwd.output_power == pytest.approx(rev.output_power, abs=1e-8)
            assert fwd.processed_power == pytest.approx(rev.processed_power, abs=1e-7)

    def test_rating_monotonicity(self):
        caps = np.array([0.6, 0.9, 1.1, 1.4])
        previous = -1.0
        for rating in np.linspace(0.0, 0.6, 13):
            sol = optimal_flow(caps, cppp_arch(4.0, 4, float(rating)))
            assert sol.output_power >= previous - 1e-9
            previous = sol.output_power

    def test_minimal_processing_for_hierarchical_kind(self):
        # one big converter can serve the deficit directly; the dispatch must
        # not also circulate power through the ladder
        caps = np.array([0.5, 1.0, 1.5])
        arch = ls_arch(3, 3.0, [(0, 2, 0.5)], 0.5)
        sol = optimal_flow(caps, arch)
        assert sol.output_power == pytest.approx(3.0, abs=1e-9)
        assert sol.processed_power == pytest.approx(0.5, abs=1e-9)

    def test_capability_count_checked(self):
        with pytest.raises(ParameterError):
            optimal_flow([1.0, 1.0], cppp_arch(3.0, 3, 0.1))

    def test_rejects_nonpositive_capability(self):
        with pytest.raises(ParameterError):
            optimal_flow([1.0, 0.0, 1.0], cppp_arch(3.0, 3, 0.1))


class TestFreeFlowDesignSolve:
    def test_connected_graph_reaches_the_mean(self):
        caps = np.array([0.7, 1.0, 1.3])
        out = free_flow_output(caps, [(0, 1), (1, 2)])
        assert out == pytest.approx(3.0, abs=1e-9)

    def test_disconnected_graph_is_bottlenecked(self):
        # components balance internally; the string current is set by the
        # poorest component mean
        caps = np.array([0.6, 0.8, 1.2, 1.4])
        out = free_flow_output(caps, [(0, 1), (2, 3)])
        assert out == pytest.approx(4 * 0.7, abs=1e-9)

    def test_no_edges_is_the_bare_string(self):
        caps = np.array([0.6, 0.8, 1.2])
        assert free_flow_output(caps, []) == pytest.approx(3 * 0.6, abs=1e-9)


@st.composite
def free_flow_instances(draw):
    """Capabilities and an unrated edge list, in any orientation, repeats allowed."""
    n = draw(st.integers(2, 12))
    caps = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=n + 2))
    return caps, edges


def scipy_free_flow_output(caps, edges):
    """HiGHS on the unrated flow LP: maximize N*I over I >= 0, free f, |p| <= P."""
    n, e = len(caps), len(edges)
    a_eq = np.hstack([np.ones((n, 1)), incidence(edges, n), -np.eye(n)])
    bounds = [(0, None)] + [(None, None)] * e + [(-c, c) for c in caps]
    c = np.zeros(1 + e + n)
    c[0] = -float(n)
    res = linprog(c, A_eq=a_eq, b_eq=np.zeros(n), bounds=bounds, method="highs")
    assert res.status == 0
    return -float(res.fun)


class TestClosedFormAgainstLP:
    @settings(max_examples=150, deadline=None)
    @given(free_flow_instances())
    @example(([0.6, 0.8, 1.2], []))                                  # no edges
    @example(([0.6, 0.8, 1.2, 1.4], [(0, 1), (1, 0), (0, 1)]))       # repeats, both ways
    @example(([0.6, 0.8, 1.2, 1.4, 2.0], [(3, 1), (1, 3), (4, 0)]))  # battery 2 isolated
    def test_component_mean_matches_both_lps(self, instance):
        caps, edges = instance
        closed = free_flow_output(caps, edges)
        in_repo = solve(build_flow_lp(caps, [ConverterEdge(src, dst, np.inf) for src, dst in edges])).objective_value
        assert closed == pytest.approx(in_repo, abs=1e-9)
        assert closed == pytest.approx(scipy_free_flow_output(caps, edges), abs=1e-9)


@st.composite
def ladder_blocks(draw):
    """A (T, N) capability block, sorted or not, and a rung rating (0 included)."""
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 3))
    row = st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)
    block = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        block = np.sort(block, axis=1)
    rating = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.6)))
    return block, rating


class TestLadderKernel:
    @settings(max_examples=100, deadline=None)
    @given(ladder_blocks())
    @example((np.array([[0.8, 1.0, 1.2]]), 0.0))                     # bare string
    @example((np.array([[1.2, 0.8, 1.0], [0.8, 1.0, 1.2]]), 0.2))    # unsorted row
    @example((np.sort(np.random.default_rng(1).uniform(0.3, 1.7, (2, 16))), 0.6))
    @example((np.array([[0.05, 0.05, 3.0, 0.2]]), 0.6))   # only the backward pass keeps p_3 >= -P_3
    def test_kernel_matches_the_two_stage_lp(self, instance):
        block, rating = instance
        current, flows, battery = ladder_point(block, rows_at(block, rating))
        assert current.shape == (len(block),)
        assert flows.shape == (len(block), block.shape[1] - 1)
        assert battery.shape == block.shape
        for t, row in enumerate(block):
            ref_current, ref_flows, ref_battery = ladder_lp_flow(row, rating)
            assert current[t] == pytest.approx(ref_current, abs=1e-9)
            assert flows[t] == pytest.approx(ref_flows, abs=1e-9)
            assert battery[t] == pytest.approx(ref_battery, abs=1e-9)
            assert np.abs(flows[t]).sum() == pytest.approx(np.abs(ref_flows).sum(), abs=1e-9)
            # a block row and a one-row call give the same bits
            one = ladder_point(row[None, :], np.array([rating]))
            for got, alone in zip((current, flows, battery), one):
                assert np.array_equal(got[t], alone[0])

    def test_optimal_flow_is_the_kernel_on_one_row(self):
        rng = np.random.default_rng(11)
        caps = np.sort(rng.uniform(0.4, 1.6, 9))
        sol = optimal_flow(caps, cppp_arch(9.0, 9, 0.1))
        current, flows, battery = ladder_point(caps[None, :], np.array([0.1]))
        assert sol.string_current == current[0]
        assert np.array_equal(sol.converter_flows, flows[0])
        assert np.array_equal(sol.battery_powers, battery[0])

    def test_zero_rating_processes_nothing(self):
        block = np.array([[0.7, 1.3, 0.9, 1.1], [1.0, 1.0, 1.0, 1.0]])
        current, flows, battery = ladder_point(block, rows_at(block, 0.0))
        assert np.array_equal(current, block.min(axis=1))
        assert np.all(flows == 0.0)
        assert np.array_equal(battery, np.repeat(current[:, None], 4, axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1e308])
    def test_invalid_capabilities_are_parameter_errors(self, bad):
        # refused once, where they enter: by every public call, of every kind; three capabilities
        # of 1e308 sum past the largest float, and a row of 5e307 is let in
        caps = np.array([0.8, bad, 1.2])
        block = np.array([[0.9, 1.0, 1.1], caps])
        refused = ("capabilities too large: 3 times the largest is not a finite float" if bad == 1e308
                   else "capabilities must be positive and finite")
        for arch in (
            cppp_arch(3.0, 3, 0.1),
            ls_arch(3, 3.0, [(0, 2, 0.1)], 0.1),
            Architecture(ArchitectureKind.FPP, 3, 3.0, rating=0.5),
        ):
            with pytest.raises(ParameterError, match=refused):
                optimal_flow(caps, arch)
            with pytest.raises(ParameterError, match=refused):
                flow_powers(block, arch, rows_at(block, 0.1))
            if arch.kind != ArchitectureKind.FPP:
                with pytest.raises(ParameterError, match=refused):
                    max_string_outputs(block, arch, rows_at(block, 0.1))
            assert np.isfinite(optimal_flow([5e307] * 3, arch).output_power)

    def test_rejects_a_bad_block_or_rating(self):
        arch = cppp_arch(3.0, 3, 0.1)
        with pytest.raises(ParameterError, match="non-empty"):
            flow_powers([0.8, 1.0, 1.2], arch, [0.1])      # a vector, not a block
        for rating in (-0.1, np.nan):
            with pytest.raises(ParameterError, match="ratings must be non-negative, not NaN"):
                flow_powers([[0.8, 1.0, 1.2]], arch, [rating])
        # a rating keeps its string's bound: three rungs of 1e308 sum past the largest float
        for call in (flow_powers, max_string_outputs):
            with pytest.raises(ParameterError, match="ratings too large: 3 times the largest is not a finite float"):
                call([[0.8, 1.0, 1.2]], arch, [1e308])
        with pytest.raises(ParameterError, match="rating too large: 5 times the largest is not a finite float"):
            Architecture(ArchitectureKind.CPPP, 5, 5.0, 1e308)
        with pytest.raises(ParameterError, match="layer-1 ratings too large: 3 times"):
            ls_arch(3, 3.0, [(0, 2, 1e308)], 0.1)
        # the stage-1 LP takes an infinite rung as unbounded
        assert max_string_outputs([[0.8, 1.0, 1.2]], arch, [np.inf])[0] == pytest.approx(3.0, abs=1e-12)

    def test_an_unbounded_ladder_runs_at_the_row_mean(self):
        # inf is an unbounded converter for the ladder too: every battery runs
        # at its capability and the string at the row mean, through both calls
        caps = np.array([0.7, 0.9, 1.0, 1.3, 1.6])
        arch = cppp_arch(5.5, 5, np.inf)
        sol = optimal_flow(caps, arch)
        assert sol.string_current == pytest.approx(1.1, abs=1e-12)
        assert sol.battery_powers == pytest.approx(caps, abs=1e-12)
        assert sol.output_power == pytest.approx(5.5, abs=1e-12)
        _certify(caps, [(j, j + 1) for j in range(4)], np.full(4, np.inf), sol.string_current,
                 sol.converter_flows, sol.battery_powers)
        block = np.array([caps, [0.8, 1.0, 1.2, 1.3, 1.4]])
        outputs, processed = flow_powers(block, arch, [np.inf, np.inf])
        assert outputs == pytest.approx(block.sum(axis=1), abs=1e-12)
        assert outputs[0] == sol.output_power and processed[0] == sol.processed_power
        current, flows, battery = ladder_point(block, rows_at(block, np.inf))  # certified inside
        assert current == pytest.approx(block.mean(axis=1), abs=1e-12)
        assert battery == pytest.approx(block, abs=1e-12)


@st.composite
def ladder_cut_blocks(draw):
    """A (T, N) block of capabilities, rows ascending or not, and one rung rating per row.

    Rows are supply draws at a spread of 0.05-0.45, as the CLI evaluates
    them, or uniform draws; rung ratings come from a small pool of 0.0,
    1e-12, whole hundredths and large values.
    """
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        block = _draw_block(BatterySupply(1.0, draw(st.floats(0.05, 0.45)), n), seed, rows)
    else:
        block = np.sort(rng.uniform(0.05, 3.0, (rows, n)), axis=1)
    if not draw(st.booleans()):
        block = rng.permuted(block, axis=1)
    rating = st.one_of(st.sampled_from([0.0, 1e-12]), st.integers(0, 60).map(lambda k: k / 100), st.floats(1.0, 1e6))
    rungs = rng.choice(draw(st.lists(rating, min_size=1, max_size=4)), size=rows)
    return block, rungs


class TestLadderCutForm:
    """The chordless cut form gives the ladder's current: the interval scan it replaced (tests/oracles.py)
    bit for bit on ascending rows, and to rounding on unordered ones.

    Both add the same k capabilities and at most two rungs, all non-negative,
    in a different order, so each sum is off by at most k + 1 roundings of
    its total and the two currents by at most (N + 1) * eps relative. Rungs
    near 1.0 on uniform rows reach 4 ulps, about 5.4e-16 relative.
    """

    @settings(max_examples=200, deadline=None)
    @given(ladder_cut_blocks())
    @example((np.array([[0.8, 1.0, 1.2], [1.0, 1.0, 1.0]]), np.array([0.0, 1e-12])))
    @example((np.array([[1.2, 0.8, 1.0]]), np.array([0.2])))
    def test_equals_the_interval_scan(self, instance):
        block, rungs = instance
        n = block.shape[1]
        currents = _hierarchical_currents(block, cppp_arch(float(n), n, 0.0), rungs)
        scan = ladder_interval_currents(block, rungs)
        ascending = np.all(np.diff(block, axis=1) >= 0.0, axis=1)
        assert np.array_equal(currents[ascending], scan[ascending])
        assert np.all(np.abs(currents - scan) <= (n + 1) * np.finfo(float).eps * scan)


@st.composite
def hierarchical_blocks(draw):
    """A (T, N) block and a hierarchy on it.

    Up to three chords in any orientation, repeats and chords parallel to a
    rung allowed; ratings include exact zeros. No chords at all is drawn as
    one zero-rated chord, which is the same string.
    """
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 3))
    row = st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)
    block = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        block = np.sort(block, axis=1)
    rating = st.one_of(st.just(0.0), st.floats(0.0, 0.6))
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    chords = draw(st.lists(st.tuples(pair, rating), max_size=min(3, n - 1)))
    layer1 = [(a, b, r) for (a, b), r in chords] or [(0, 1, 0.0)]
    return block, ls_arch(n, float(n), layer1, draw(rating), k=len(layer1))


class TestHierarchicalKernel:
    @settings(max_examples=150, deadline=None)
    @given(hierarchical_blocks())
    @example((np.array([[0.8, 1.0, 1.2]]), ls_arch(3, 3.0, [(0, 1, 0.0)], 0.0, k=1)))  # bare string
    @example((np.array([[0.6, 1.4, 0.9, 1.1]]), ls_arch(4, 4.0, [(1, 2, 0.3), (2, 1, 0.1)], 0.05, k=2)))
    @example((np.array([[0.5, 1.5, 1.0], [1.5, 0.5, 1.0]]), ls_arch(3, 3.0, [(0, 2, 0.2), (0, 2, 0.2)], 0.1, k=1)))
    @example((np.sort(np.random.default_rng(2).uniform(0.3, 1.7, (2, 16))),
              ls_arch(16, 16.0, [(0, 15, 0.4), (1, 9, 0.2), (3, 12, 0.1)], 0.05, k=3)))
    def test_kernel_matches_the_stage_one_lp(self, instance):
        block, arch = instance
        n = block.shape[1]
        current = _hierarchical_currents(block, arch, rows_at(block, arch.rating))
        assert current.shape == (len(block),)
        for t, row in enumerate(block):
            assert n * current[t] == pytest.approx(hierarchical_lp_output(row, arch), abs=1e-12)
            # a block row and a one-row call give the same bits
            assert current[t] == _hierarchical_currents(row[None, :], arch, np.array([arch.rating]))[0]
        if all(edge.rating == 0.0 for edge in arch.layer1.edges):
            ladder = cppp_arch(float(n), n, arch.rating)
            assert np.array_equal(current, _hierarchical_currents(block, ladder, rows_at(block, arch.rating)))

    def test_passes_cut_a_large_block_without_changing_bits(self):
        # 64 endpoint patterns by 17 sizes at N = 16 fit 60 rows in one pass
        rng = np.random.default_rng(13)
        block = np.sort(rng.uniform(0.3, 1.7, (300, 16)), axis=1)
        arch = ls_arch(16, 16.0, [(0, 15, 0.4), (1, 9, 0.2), (3, 12, 0.1)], 0.05, k=3)
        whole = _hierarchical_currents(block, arch, rows_at(block, 0.05))
        assert np.array_equal(whole, [_hierarchical_currents(row[None, :], arch, np.array([0.05]))[0] for row in block])

    def test_zero_ratings_give_the_weakest_capability(self):
        block = np.array([[0.7, 1.3, 0.9, 1.1], [1.0, 1.0, 1.0, 1.0]])
        arch = ls_arch(4, 4.0, [(0, 3, 0.0)], 0.0)
        assert np.array_equal(_hierarchical_currents(block, arch, rows_at(block, 0.0)), block.min(axis=1))

    def test_unbounded_chord_pools_its_endpoints(self):
        # an infinite rating never crosses a finite cut: batteries 0 and 2 share power freely
        caps = np.array([[0.6, 1.1, 1.0], [0.9, 0.7, 1.3]])
        arch = ls_arch(3, 3.0, [(0, 2, np.inf)], 0.0)
        expected = [free_flow_output(row, [(0, 2)]) / 3 for row in caps]
        assert _hierarchical_currents(caps, arch, rows_at(caps, 0.0)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("rungs", [[-0.1], [np.nan], [-np.inf], 0.1])
    def test_invalid_ratings_are_parameter_errors(self, rungs):
        # the chords come from the architecture, whose ConverterEdges refuse such ratings
        arch = ls_arch(3, 3.0, [(0, 2, 0.1)], 0.1)
        for call in (flow_powers, max_string_outputs):
            with pytest.raises(ParameterError):
                call(np.array([[0.8, 1.0, 1.2]]), arch, rungs)

    def test_rejects_other_kinds_and_shapes(self):
        with pytest.raises(StructuralError):  # full processing has no string stage
            max_string_outputs(np.array([[0.8, 1.0, 1.2]]), Architecture(ArchitectureKind.FPP, 3, 3.0, 0.1), [0.1])
        arch = ls_arch(3, 3.0, [(0, 2, 0.1)], 0.1)
        for call in (flow_powers, max_string_outputs):
            with pytest.raises(ParameterError, match="non-empty"):
                call([0.8, 1.0, 1.2], arch, [0.1])      # a vector, not a block
            with pytest.raises(ParameterError, match="got 4 capabilities for 3 batteries"):
                call(np.ones((2, 4)), arch, [0.1, 0.1])

    def test_too_many_endpoints_are_refused_before_any_work(self):
        # 20 distinct endpoints would need 2^20 patterns per draw
        arch = ls_arch(20, 20.0, [(j, j + 10, 0.1) for j in range(10)], 0.1, k=1)
        with pytest.raises(EnumerationCapError):
            flow_powers(np.ones((1, 20)), arch, [0.1])


@st.composite
def dispatch_blocks(draw):
    """A (T, N) block, a ladder with 0-3 chords, and per-row currents at or below I*.

    Chords go in any orientation, repeats and chords parallel to a rung
    allowed; chord ratings include exact zeros and inf, the rung rating exact
    zeros. I* comes from the cut form (_hierarchical_currents, with or
    without chords); each row runs at I* or at a sixteenth-step fraction of
    it. Capabilities and ratings are whole hundredths, so every deficit is
    zero or well above the LP oracle's 1e-8 tolerances, below which its
    vertex stops being exact (see test_tiny_ratings_are_served_in_full).
    """
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 3))
    hundredths = st.integers(0, 60).map(lambda k: k / 100)
    row = st.lists(st.integers(5, 300).map(lambda k: k / 100), min_size=n, max_size=n)
    block = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        block = np.sort(block, axis=1)
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    chord_rating = st.one_of(st.just(0.0), st.just(np.inf), hundredths)
    chords = draw(st.lists(st.tuples(pair, chord_rating), max_size=min(3, n - 1)))
    rung = draw(st.one_of(st.just(0.0), hundredths))
    if chords:
        arch = ls_arch(n, float(n), [(a, b, r) for (a, b), r in chords], rung, k=len(chords))
    else:
        arch = cppp_arch(float(n), n, rung)
    best = _hierarchical_currents(block, arch, rows_at(block, rung))
    scale = st.one_of(st.just(1.0), st.integers(0, 16).map(lambda k: k / 16))
    currents = best * np.array([draw(scale) for _ in range(rows)])
    pairs = [p for p, _ in chords] + [(j, j + 1) for j in range(n - 1)]
    ratings = np.tile([r for _, r in chords] + [rung] * (n - 1), (rows, 1))
    return block, pairs, ratings, currents


class TestLeastProcessingKernel:
    @settings(max_examples=150, deadline=None)
    @given(dispatch_blocks())
    @example((np.array([[0.5, 1.0, 1.5]]), [(0, 2), (0, 1), (1, 2)], np.array([[0.5, 0.5, 0.5]]),
              np.array([1.0])))                                        # the chord serves the deficit alone
    @example((np.array([[0.95, 0.6, 1.4, 0.9]]), [(1, 2), (2, 1), (0, 1), (1, 2), (2, 3)],
              np.array([[0.3, np.inf, 0.05, 0.05, 0.05]]), np.array([0.9])))  # repeats, parallel to a rung
    @example((np.array([[0.8, 1.0, 1.2]]), [(0, 1), (1, 2)], np.zeros((1, 2)), np.array([0.8])))  # bare string
    # the least-processing flow must reroute an earlier path (undo arcs) in these two
    @example((np.array([[1.98, 0.17, 1.47, 0.6]]), [(2, 1), (1, 3), (3, 2), (0, 1), (1, 2), (2, 3)],
              np.array([[np.inf, 0.41, np.inf, 0.58, 0.58, 0.58]]), np.array([0.94])))
    @example((np.array([[1.29, 0.91, 0.51, 1.56, 0.73, 0.74]]), [(j, j + 1) for j in range(5)],
              np.full((1, 5), 0.53), np.array([0.95666])))
    def test_kernel_matches_the_least_processing_lp(self, instance):
        block, pairs, ratings, currents = instance
        n = block.shape[1]
        flows, battery = _least_processing_flows(block, pairs, ratings, currents)
        assert flows.shape == (len(block), len(pairs))
        assert battery.shape == block.shape
        for t, row in enumerate(block):
            ref, _, _ = least_processing_lp(row, pairs, ratings[t], currents[t])
            assert np.abs(flows[t]).sum() == pytest.approx(ref, abs=1e-12)
            residual = battery[t] - currents[t] - incidence(pairs, n) @ flows[t]
            assert np.abs(residual).max() <= 1e-8
            assert np.all(np.abs(battery[t]) <= row + 1e-8)
            assert np.all(np.abs(flows[t]) <= ratings[t] + 1e-8)
            # a block row and a one-row call give the same bits
            one = _least_processing_flows(row[None, :], pairs, ratings[t:t + 1], currents[t:t + 1])
            assert np.array_equal(flows[t], one[0][0])
            assert np.array_equal(battery[t], one[1][0])

    def test_tiny_ratings_are_served_in_full(self):
        # rungs of 1e-12 lift I* by 2.5e-13 over the four weak batteries; each
        # deficit crosses every rung between it and the strong end, so
        # sum |f| = 2.5e-13 * (1 + 2 + 3 + 4). The LP oracle's tolerances blur this.
        block = np.array([[1.0, 1.0, 1.0, 1.0, 2.0]])
        current = ladder_point(block, np.array([1e-12]))[0]
        flows, _ = _least_processing_flows(block, [(j, j + 1) for j in range(4)], np.full((1, 4), 1e-12), current)
        assert np.abs(flows).sum() == pytest.approx(2.5e-12, rel=1e-3)

    def test_passes_cut_a_block_without_changing_bits(self, monkeypatch):
        rng = np.random.default_rng(14)
        block = np.sort(rng.uniform(0.3, 1.7, (50, 9)), axis=1)
        arch = ls_arch(9, 9.0, [(0, 8, 0.3), (1, 6, np.inf), (2, 5, 0.0)], 0.05, k=3)
        currents = _hierarchical_currents(block, arch, rows_at(block, arch.rating))
        pairs = [(e.from_battery, e.to_battery) for e in architecture_edges(arch)]
        ratings = np.tile([e.rating for e in architecture_edges(arch)], (len(block), 1))
        whole = _least_processing_flows(block, pairs, ratings, currents)
        # passes of 7 rows of 10 * (3 * 3 + 9) + 10 * 11 = 290 cells: 10 nodes with
        # the sentinel, 3 incoming arcs at most, 11 edges
        monkeypatch.setattr(hippp.powerflow, "_CUT_CELLS", 7 * 290)
        ssp_pass, rows = hippp.powerflow._ssp_pass, []

        def counted_ssp_pass(caps, *args):
            rows.append(len(caps))
            return ssp_pass(caps, *args)

        monkeypatch.setattr(hippp.powerflow, "_ssp_pass", counted_ssp_pass)
        split = _least_processing_flows(block, pairs, ratings, currents)
        assert rows == [7] * 7 + [1]
        assert all(np.array_equal(a, b) for a, b in zip(whole, split))

    def test_optimal_flow_is_the_kernel_at_the_cut_form_current(self):
        caps = np.sort(np.random.default_rng(15).uniform(0.4, 1.6, 9))
        arch = ls_arch(9, 9.0, [(0, 8, 0.3), (1, 6, 0.1)], 0.05, k=2)
        sol = optimal_flow(caps, arch)
        edges = architecture_edges(arch)
        flows, battery = _least_processing_flows(
            caps[None, :], [(e.from_battery, e.to_battery) for e in edges],
            np.array([[e.rating for e in edges]]), _hierarchical_currents(caps[None, :], arch, np.array([arch.rating])),
        )
        assert np.array_equal(sol.converter_flows, flows[0])
        assert np.array_equal(sol.battery_powers, battery[0])
        assert sol.processed_power == np.abs(flows[0]).sum()

    def test_current_above_the_maximum_is_an_internal_error(self):
        block = np.array([[0.6, 1.0, 1.4]])
        arch = ls_arch(3, 3.0, [(0, 2, 0.1)], 0.05)
        current = _hierarchical_currents(block, arch, np.array([0.05])) + 1e-6
        with pytest.raises(InternalCheckError):
            _least_processing_flows(block, [(0, 2), (0, 1), (1, 2)], np.array([[0.1, 0.05, 0.05]]), current)


def scipy_string_output(caps, pairs, ratings):
    """HiGHS on the rated stage-1 LP: maximize N*I over I >= 0, |f_e| <= rating_e (inf unbounded), |p| <= P."""
    n, e = len(caps), len(pairs)
    a_eq = np.hstack([np.ones((n, 1)), incidence(pairs, n), -np.eye(n)])
    bounds = [(0, None)] + [(-r, r) if np.isfinite(r) else (None, None) for r in ratings] + [(-c, c) for c in caps]
    c = np.zeros(1 + e + n)
    c[0] = -float(n)
    res = linprog(c, A_eq=a_eq, b_eq=np.zeros(n), bounds=bounds, method="highs")
    assert res.status == 0
    return -float(res.fun)


def scipy_least_processing(caps, pairs, ratings, current):
    """HiGHS on the least-processing LP at a fixed current: minimize sum f+ + f- with f = f+ - f-."""
    n, e = len(caps), len(pairs)
    inc = incidence(pairs, n)
    a_eq = np.hstack([inc, -inc, -np.eye(n)])
    flow = [(0, r if np.isfinite(r) else None) for r in ratings]
    bounds = flow + flow + [(-c, c) for c in caps]
    c = np.concatenate([np.ones(2 * e), np.zeros(n)])
    res = linprog(c, A_eq=a_eq, b_eq=np.full(n, -current), bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


@st.composite
def long_strings(draw):
    """A row of whole hundredths at N = 17-32, a ladder with one to four chords on it, and a scale.

    Chords go in any orientation, repeats and chords parallel to a rung
    allowed, rated 0, inf or whole hundredths; the rung rating 0 or whole
    hundredths. The least-processing flow runs at the cut form's I* times
    the scale, 1 or a sixteenth step.
    """
    n = draw(st.integers(17, 32))
    caps = np.array(draw(st.lists(st.integers(5, 300), min_size=n, max_size=n))) / 100
    hundredths = st.integers(0, 60).map(lambda k: k / 100)
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    chord_rating = st.one_of(st.just(0.0), st.just(np.inf), hundredths)
    chords = draw(st.lists(st.tuples(pair, chord_rating), min_size=1, max_size=4))
    arch = ls_arch(n, float(n), [(a, b, r) for (a, b), r in chords], draw(hundredths), k=len(chords))
    scale = draw(st.one_of(st.just(1.0), st.integers(0, 16).map(lambda k: k / 16)))
    return caps, arch, scale


class TestLongStrings:
    """Both LS-HiPPP kernels past N = 16, against the in-repo simplex and HiGHS."""

    @settings(max_examples=12, deadline=None)
    @given(long_strings())
    @example((np.arange(32) % 7 / 10 + 0.4, ls_arch(32, 32.0, [(0, 31, 0.4), (1, 20, np.inf), (5, 12, 0.0),
                                                                (25, 30, 0.1)], 0.05, k=4), 1.0))
    def test_kernels_match_the_lps(self, instance):
        caps, arch, scale = instance
        n = caps.size
        edges = architecture_edges(arch)
        pairs = [(e.from_battery, e.to_battery) for e in edges]
        ratings = np.array([e.rating for e in edges])
        current = _hierarchical_currents(caps[None, :], arch, np.array([arch.rating]))
        assert n * current[0] == pytest.approx(hierarchical_lp_output(caps, arch), abs=1e-12)
        assert n * current[0] == pytest.approx(scipy_string_output(caps, pairs, ratings), abs=1e-9)
        flows, _ = _least_processing_flows(caps[None, :], pairs, ratings[None, :], current * scale)
        processed = np.abs(flows[0]).sum()
        assert processed == pytest.approx(least_processing_lp(caps, pairs, ratings, current[0] * scale)[0], abs=1e-12)
        assert processed == pytest.approx(scipy_least_processing(caps, pairs, ratings, current[0] * scale), abs=1e-9)


@st.composite
def raised_strings(draw):
    """A (T, N) block at N = 2-32 and a hierarchy on it, and the same with one input raised, as
    (block, arch, raised block, raised arch).

    The raise lifts one capability, the rung rating or one chord rating (to
    inf included), or adds a chord anywhere in the chord list. Chords as in
    hierarchical_blocks, at most four and, as layer 1 must, at most N - 1.
    """
    n = draw(st.integers(2, 32))
    rows = draw(st.integers(1, 3))
    block = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.05, 3.0, (rows, n))
    if draw(st.booleans()):
        block = np.sort(block, axis=1)
    rating = st.one_of(st.just(0.0), st.floats(0.0, 0.6))
    lift = st.one_of(st.just(np.inf), st.floats(0.0, 1.0))
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    chords = [(a, b, r) for (a, b), r in draw(st.lists(st.tuples(pair, rating), min_size=1, max_size=min(4, n - 1)))]
    rung = draw(rating)
    raised_block, raised_chords, raised_rung = block.copy(), list(chords), rung
    what = draw(st.sampled_from(["capability", "rung", "chord rating", "new chord"][:4 if len(chords) < n - 1 else 3]))
    if what == "capability":
        raised_block[:, draw(battery)] += draw(st.floats(0.0, 3.0))
    elif what == "rung":
        raised_rung += draw(lift)
    elif what == "chord rating":
        i = draw(st.integers(0, len(chords) - 1))
        a, b, r = chords[i]
        raised_chords[i] = (a, b, r + draw(lift))
    else:
        (a, b), r = draw(pair), draw(rating)
        raised_chords.insert(draw(st.integers(0, len(chords))), (a, b, r))
    return (block, ls_arch(n, float(n), chords, rung, k=len(chords)),
            raised_block, ls_arch(n, float(n), raised_chords, raised_rung, k=len(raised_chords)))


class TestCutFormMonotone:
    @settings(max_examples=200, deadline=None)
    @given(raised_strings())
    def test_no_raise_lowers_the_current(self, instance):
        # every state is a min of sums of non-negative terms, and rounding to nearest keeps order,
        # so the kernel's floats never fall, with no tolerance; a new chord adds its rating to the
        # chord costs in the middle of the sums, which keeps order too
        block, arch, raised_block, raised = instance
        current = _hierarchical_currents(block, arch, rows_at(block, arch.rating))
        assert np.all(_hierarchical_currents(raised_block, raised, rows_at(block, raised.rating)) >= current)


@st.composite
def mixed_rating_blocks(draw):
    """A (T, N) block, a hierarchy on it, and one rung rating per row.

    Rung ratings come from a small pool with exact zeros, so rows share and
    differ in ratings within one block; chords as in hierarchical_blocks.
    """
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(5, 301, (rows, n)) / 100
    if draw(st.booleans()):
        block = np.sort(block, axis=1)
    hundredths = st.integers(0, 60).map(lambda k: k / 100)
    battery = st.integers(0, n - 1)
    pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
    chords = draw(st.lists(st.tuples(pair, st.one_of(st.just(0.0), hundredths)), max_size=min(3, n - 1)))
    layer1 = [(a, b, r) for (a, b), r in chords] or [(0, 1, 0.0)]
    pool = draw(st.lists(st.one_of(st.just(0.0), hundredths), min_size=1, max_size=4))
    rungs = rng.choice(pool, size=rows)
    return block, ls_arch(n, float(n), layer1, 0.0, k=len(layer1)), rungs


@st.composite
def union_edge_blocks(draw):
    """(rows, N) sorted capabilities with 1-4 lexicographic edges per row."""
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    block = np.sort(np.random.default_rng(seed).uniform(0.3, 1.7, (rows, n)), axis=1)
    pairs = list(itertools.combinations(range(n), 2))
    placement = st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True).map(sorted)
    return block, draw(st.lists(placement, min_size=rows, max_size=rows))


def union_edge_table(block, placements):
    """The layer-1 tie-break's stacked call: each row at its placement's free-flow
    current, over the sorted union of the edges, its own edges rated inf and the rest 0.

    Returns (currents, union, table).
    """
    n = block.shape[1]
    currents = np.array([
        free_flow_outputs(row, np.array([edges]))[0] / n for row, edges in zip(block, placements)
    ])
    union = sorted(set().union(*placements))
    table = np.zeros((len(block), len(union)))
    for t, edges in enumerate(placements):
        table[t, [union.index(edge) for edge in edges]] = np.inf
    return currents, union, table


class TestPerRowRatings:
    """Every kernel takes one rating per row; a block row equals a one-row call bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(mixed_rating_blocks())
    def test_cut_form_rows_equal_one_row_calls(self, instance):
        block, arch, rungs = instance
        currents = _hierarchical_currents(block, arch, rungs)
        for t, row in enumerate(block):
            assert currents[t] == _hierarchical_currents(row[None, :], arch, rungs[t:t + 1])[0]

    @settings(max_examples=40, deadline=None)
    @given(mixed_rating_blocks())
    def test_ladder_rows_equal_one_row_calls(self, instance):
        block, _, rungs = instance
        stacked = ladder_point(block, rungs)
        for t, row in enumerate(block):
            for got, alone in zip(stacked, ladder_point(row[None, :], rungs[t:t + 1])):
                assert np.array_equal(got[t], alone[0])

    @settings(max_examples=40, deadline=None)
    @given(mixed_rating_blocks(), st.integers(0, 2**32 - 1))
    def test_least_processing_rows_equal_one_row_calls(self, instance, seed):
        # rows run at I* or a fraction of it, so they finish after different
        # numbers of rounds and leave the pass at different times
        block, arch, rungs = instance
        scale = np.random.default_rng(seed).choice([0.0, 0.5, 0.9, 1.0], size=len(block))
        currents = _hierarchical_currents(block, arch, rungs) * scale
        edges = architecture_edges(arch)
        pairs = [(e.from_battery, e.to_battery) for e in edges]
        chords = [e.rating for e in arch.layer1.edges]
        table = np.array([chords + [rung] * (block.shape[1] - 1) for rung in rungs])
        flows, battery = _least_processing_flows(block, pairs, table, currents)
        for t, row in enumerate(block):
            one = _least_processing_flows(row[None, :], pairs, table[t:t + 1], currents[t:t + 1])
            assert np.array_equal(flows[t], one[0][0])
            assert np.array_equal(battery[t], one[1][0])

    @settings(max_examples=40, deadline=None)
    @given(union_edge_blocks())
    def test_union_edge_rows_equal_own_edge_calls(self, instance):
        # the layer-1 tie-break's stacked call: each row rates its own edges
        # inf and every other edge of the sorted union 0, and must get the
        # flows of a one-row call over its own edges alone
        block, placements = instance
        currents, union, table = union_edge_table(block, placements)
        flows, _ = _least_processing_flows(block, union, table, currents)
        for t, (row, edges) in enumerate(zip(block, placements)):
            own = [union.index(edge) for edge in edges]
            one, _ = _least_processing_flows(row[None, :], edges, np.full((1, len(edges)), np.inf), currents[t:t + 1])
            assert flows[t, own].tobytes() == one[0].tobytes()
            assert np.abs(flows[t, own]).sum().hex() == np.abs(one).sum().hex()
            assert not np.delete(flows[t], own).any()

    @settings(max_examples=25, deadline=None)
    @given(mixed_rating_blocks())
    def test_flow_powers_rows_equal_optimal_flow(self, instance):
        block, arch, rungs = instance
        n = block.shape[1]
        for kind_arch in (arch, cppp_arch(float(n), n, 0.0),
                          Architecture(ArchitectureKind.FPP, n, float(n), rating=0.0)):
            output, processed = flow_powers(block, kind_arch, rungs)
            for t, row in enumerate(block):
                alone = optimal_flow(row, kind_arch._replace(rating=float(rungs[t])))
                assert output[t] == alone.output_power
                assert processed[t] == alone.processed_power

    def test_a_large_block_of_mixed_ratings(self):
        # 400 rows over 8 rung ratings and two kinds of pass: the SSP pass drops
        # rows round by round, and the cut form runs in several passes
        rng = np.random.default_rng(21)
        block = np.sort(rng.uniform(0.3, 1.7, (400, 16)), axis=1)
        arch = ls_arch(16, 16.0, [(0, 15, 0.4), (1, 9, 0.2), (3, 12, 0.1)], 0.0, k=3)
        rungs = rng.choice([0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 1.0], size=len(block))
        output, processed = flow_powers(block, arch, rungs)
        for t in range(0, len(block), 7):
            alone = optimal_flow(block[t], arch._replace(rating=float(rungs[t])))
            assert output[t] == alone.output_power
            assert processed[t] == alone.processed_power

    def test_rejects_bad_per_row_ratings(self):
        # the same refusals in every public block call of every kind: a scalar, a wrong length or a
        # 2-D array by the shape rule, NaN or a negative rating by the one rating rule
        block = np.array([[0.6, 1.0, 1.4], [0.7, 1.0, 1.3]])
        arch = ls_arch(3, 3.0, [(0, 2, 0.1)], 0.05)
        shape = r"ratings must be one per row, an array of shape \(2,\)"
        value = "ratings must be non-negative, not NaN"
        fpp = fpp_from_budget(0.1, flatten(BatterySupply(1.0, 0.2, 3)))
        calls = (
            lambda rungs: max_string_outputs(block, arch, rungs),
            lambda rungs: max_string_outputs(block, cppp_arch(3.0, 3, 0.1), rungs),
            lambda rungs: flow_powers(block, cppp_arch(3.0, 3, 0.1), rungs),
            lambda rungs: flow_powers(block, fpp, rungs),
            lambda rungs: flow_powers(block, arch, rungs),
        )
        for call in calls:
            for rungs, refused in ((0.1, shape), ([0.1], shape), ([0.1, 0.1, 0.1], shape), ([[0.1, 0.1]], shape),
                                   ([0.1, -0.1], value), ([0.1, np.nan], value)):
                with pytest.raises(ParameterError, match=refused):
                    call(rungs)
            call(np.array([0.1, 0.05]))  # one per row is accepted


@contextlib.contextmanager
def first_kernels_alongside(cut_cells=None, ssp_cells=None):
    """Run every _cut_pass and _ssp_pass next to its first version and demand equal bytes.

    The first versions are kept verbatim in tests/oracles.py. Yields the
    number of passes compared, per kernel. `cut_cells` and `ssp_cells`, when
    given, replace the pass budgets, so blocks are cut into more passes.
    """
    compared = {"cut": 0, "ssp": 0}
    cut, ssp = hippp.powerflow._cut_pass, hippp.powerflow._ssp_pass

    def cut_checked(caps, rung, ends, chord_cost):
        got = cut(caps, rung, ends, chord_cost)
        # the first version's bans, added to battery j's states: 0 where pattern p allows its side, inf where not
        inside = np.arange(chord_cost.size) >> np.arange(len(ends))[:, None] & 1 == 1  # (endpoint s, p)
        ban_in = np.zeros((caps.shape[1], chord_cost.size))
        ban_out = np.zeros_like(ban_in)
        for s, battery in enumerate(sorted(ends)):
            ban_in[battery, ~inside[s]] = np.inf
            ban_out[battery, inside[s]] = np.inf
        assert got.tobytes() == cut_pass(caps, rung, ban_in, ban_out, chord_cost).tobytes()
        compared["cut"] += 1
        return got

    def ssp_checked(caps, currents, ratings, tails, in_arcs):
        got = ssp(caps, currents, ratings, tails, in_arcs)
        # the first version gathers the padding arc's tail as a battery, and needs it in range
        first = ssp_pass(caps, currents, ratings, np.minimum(tails, caps.shape[1] - 1), in_arcs)
        assert got.tobytes() == first.tobytes()
        compared["ssp"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hippp.powerflow, "_cut_pass", cut_checked)
        mp.setattr(hippp.powerflow, "_ssp_pass", ssp_checked)
        if cut_cells is not None:
            mp.setattr(hippp.powerflow, "_CUT_PASS_CELLS", cut_cells)
        if ssp_cells is not None:
            mp.setattr(hippp.powerflow, "_CUT_CELLS", ssp_cells)
        yield compared


class TestKernelsAgainstTheirFirstVersions:
    """The cut and SSP passes return the bytes of their first versions (tests/oracles.py)."""

    @settings(max_examples=100, deadline=None)
    @given(hierarchical_blocks())
    # four chords with eight distinct endpoints at N = 32, the string's ends among them
    @example((np.sort(np.random.default_rng(3).uniform(0.3, 1.7, (3, 32)), axis=1),
              ls_arch(32, 32.0, [(0, 31, 0.4), (1, 20, 0.2), (5, 12, 0.0), (25, 30, 0.1)], 0.05, k=4)))
    @example((np.random.default_rng(4).integers(5, 301, (2, 32)) / 100,
              ls_arch(32, 32.0, [(31, 0, np.inf), (16, 17, 0.3), (2, 9, 0.05), (28, 4, 0.0)], 0.0, k=4)))
    def test_cut_pass(self, instance):
        block, arch = instance
        with first_kernels_alongside() as compared:
            _hierarchical_currents(block, arch, rows_at(block, arch.rating))
        assert compared["cut"] == 1

    @settings(max_examples=100, deadline=None)
    @given(dispatch_blocks())
    @example((np.array([[1.98, 0.17, 1.47, 0.6]]), [(2, 1), (1, 3), (3, 2), (0, 1), (1, 2), (2, 3)],
              np.array([[np.inf, 0.41, np.inf, 0.58, 0.58, 0.58]]), np.array([0.94])))
    @example((np.array([[1.29, 0.91, 0.51, 1.56, 0.73, 0.74]]), [(j, j + 1) for j in range(5)],
              np.full((1, 5), 0.53), np.array([0.95666])))
    def test_ssp_pass(self, instance):
        block, pairs, ratings, currents = instance
        with first_kernels_alongside() as compared:
            _least_processing_flows(block, pairs, ratings, currents)
        assert compared["ssp"] == 1

    @settings(max_examples=60, deadline=None)
    @given(mixed_rating_blocks(), st.integers(0, 2**32 - 1), st.booleans())
    def test_per_row_ratings_and_rounds(self, instance, seed, in_passes):
        # rows run at I* or a fraction of it, so they finish after different
        # numbers of rounds; with in_passes the cut form runs one row per pass
        # and the SSP pass a few rows, and the cut state cap stays above the
        # 1088 cells of 6 endpoints at N = 16
        block, arch, rungs = instance
        scale = np.random.default_rng(seed).choice([0.0, 0.5, 0.9, 1.0], size=len(block))
        edges = architecture_edges(arch)
        pairs = [(e.from_battery, e.to_battery) for e in edges]
        table = np.array([[e.rating for e in arch.layer1.edges] + [rung] * (block.shape[1] - 1) for rung in rungs])
        budgets = (1, 2048) if in_passes else (None, None)
        with first_kernels_alongside(*budgets) as compared:
            currents = _hierarchical_currents(block, arch, rungs)
            _least_processing_flows(block, pairs, table, currents * scale)
            flow_powers(block, arch, rungs)
        assert compared["cut"] >= 2 and compared["ssp"] >= 2
        if in_passes:
            assert compared["cut"] == 2 * len(block)

    @settings(max_examples=60, deadline=None)
    @given(union_edge_blocks())
    def test_union_edge_tie_break(self, instance):
        block, placements = instance
        currents, union, table = union_edge_table(block, placements)
        with first_kernels_alongside() as compared:
            _least_processing_flows(block, union, table, currents)
        assert compared["ssp"] == 1

    def test_large_blocks_in_passes(self):
        # a 1000-row block at N = 12 with four chords: the cut form at its
        # default pass budget (256 patterns by 13 sizes, 19 rows a pass), and
        # the SSP pass dropping rows round by round over its passes
        rng = np.random.default_rng(22)
        block = np.sort(rng.normal(1.0, 0.2, (1000, 12)), axis=1)
        arch = ls_arch(12, 12.0, [(0, 11, 0.2), (1, 8, 0.1), (2, 7, 0.05), (3, 6, 0.05)], 0.0, k=3)
        rungs = rng.choice([0.0, 0.01, 0.03, 0.1], size=len(block))
        with first_kernels_alongside(ssp_cells=1 << 14) as compared:
            flow_powers(block, arch, rungs)
        assert compared["cut"] > 1 and compared["ssp"] > 1


class TestBlockCertification:
    """The vectorized flow check catches one bad entry anywhere in a block."""

    RATING = 0.2

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.caps = np.sort(rng.uniform(0.3, 1.7, (6, 5)), axis=1)
        self.current, self.flows, self.battery = ladder_point(self.caps, rows_at(self.caps, self.RATING))
        self.pairs = [(j, j + 1) for j in range(4)]
        self.ratings = np.full(4, self.RATING)

    def certify(self, caps=None, ratings=None, current=None, flows=None, battery=None):
        _certify(
            self.caps if caps is None else caps, self.pairs,
            self.ratings if ratings is None else ratings,
            self.current if current is None else current,
            self.flows if flows is None else flows,
            self.battery if battery is None else battery,
        )

    def test_clean_block_passes(self):
        self.certify()

    def test_corrupted_flow_breaks_conservation(self):
        flows = self.flows.copy()
        flows[3, 2] += 1e-6
        with pytest.raises(InternalCheckError, match="conservation"):
            self.certify(flows=flows)

    def test_nan_flow_is_caught(self):
        flows = self.flows.copy()
        flows[5, 0] = np.nan
        with pytest.raises(InternalCheckError):
            self.certify(flows=flows)

    def test_capability_and_rating_limits(self):
        assert np.abs(self.flows).max() == pytest.approx(self.RATING, abs=1e-12)  # rungs saturate
        with pytest.raises(InternalCheckError, match="capability"):
            self.certify(caps=self.caps * 0.9)
        with pytest.raises(InternalCheckError, match="rating"):
            self.certify(ratings=self.ratings / 2)

    def test_negative_current(self):
        current = self.current.copy()
        current[1] = -1e-6
        battery = self.battery.copy()
        battery[1] += current[1] - self.current[1]
        with pytest.raises(InternalCheckError, match="negative"):
            self.certify(current=current, battery=battery)


class TestArchitectureEdges:
    def test_ladder_layout(self):
        edges = architecture_edges(cppp_arch(9.0, 9, 0.2))
        assert [(e.from_battery, e.to_battery) for e in edges] == [(j, j + 1) for j in range(8)]
        assert all(e.rating == 0.2 for e in edges)

    def test_hierarchical_layout(self):
        arch = ls_arch(5, 5.0, [(0, 4, 0.3), (1, 3, 0.2)], 0.1)
        edges = architecture_edges(arch)
        assert [(e.from_battery, e.to_battery) for e in edges[:2]] == [(0, 4), (1, 3)]
        assert [(e.from_battery, e.to_battery) for e in edges[2:]] == [(j, j + 1) for j in range(4)]

    def test_fpp_has_no_string_edges(self):
        with pytest.raises(StructuralError):
            architecture_edges(Architecture(ArchitectureKind.FPP, 3, 3.0, rating=0.1))
