"""Placement search, rating partition and ladder curve against frozen values
and an independent scipy-based search oracle."""

import itertools
import logging
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    LPStatus,
    build_flow_lp,
    exhaustive_tie_band,
    free_flow_output,
    hierarchical_lp_output,
    placement_blocks,
    solve,
    two_lp_design_solve,
)
from scipy.optimize import linprog

import hippp.design
import hippp.lp
import hippp.powerflow
from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    InternalCheckError,
    EnumerationCapError,
    ExpectedSet,
    Layer1Design,
    Layer2Curve,
    ParameterError,
    StructuralError,
    architecture_edges,
    design_layer1,
    design_layer2,
    draw_capabilities,
    flatten,
    interconnection_count,
    lshippp_for_budget,
    max_string_outputs,
    optimal_flow,
    partition_ratings,
    sample_battery_set,
)
from hippp.cli import ExperimentConfig, cmd_design
from hippp.powerflow import (
    _hierarchical_currents,
    _least_processing_flows,
    _processing_totals,
    free_flow_outputs,
    layer1_design_lp,
)
from hippp.supply import MIN_RELATIVE_STD

# frozen result of the nine-slot, three-converter, two-rating-group design
N9_EDGES = [(0, 8), (1, 6), (2, 5)]
N9_PROCESSED = (0.2842688315594054, 0.1384887097521722, 0.06179500173255337)
N9_RATINGS = [0.2842688315594054, 0.1384887097521722, 0.1384887097521722]
N9_OUTPUT = 8.490218845885677


def scipy_two_stage(caps, edge_set):
    """Best output then least processed power, via scipy on the split form."""
    caps = np.asarray(caps, dtype=float)
    n, e = caps.size, len(edge_set)
    inc = np.zeros((n, e))
    for idx, (src, dst) in enumerate(edge_set):
        inc[src, idx] = 1.0
        inc[dst, idx] = -1.0
    # columns: I, f+, f-, p
    a_eq = np.hstack([np.ones((n, 1)), inc, -inc, -np.eye(n)])
    b_eq = np.zeros(n)
    bounds = [(0, None)] + [(0, None)] * (2 * e) + [(-c, c) for c in caps]
    c1 = np.zeros(1 + 2 * e + n)
    c1[0] = -1.0
    first = linprog(c1, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert first.status == 0
    best_current = first.x[0]
    c2 = np.zeros_like(c1)
    c2[1:1 + 2 * e] = 1.0
    bounds[0] = (best_current, best_current)
    second = linprog(c2, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert second.status == 0
    return n * best_current, float(second.fun)


def design_output(expected, edges):
    """N * I at the current that layer1_design_lp fixes: its stage-1 LP, with unbounded pair flows."""
    unbounded = np.full((1, len(edges)), np.inf)
    return expected.count * float(hippp.powerflow._stage_one(expected.capabilities[None], edges, unbounded)[0, 0])


def placements_in_order(n, m):
    """Every m-subset of the pairs of n batteries, in lexicographic order."""
    return list(itertools.combinations(itertools.combinations(range(n), 2), m))


def full_tie_scan(expected, m, k):
    """Layer-1 design that runs the design LP on every tied placement, no early stop.

    Returns (edges, ratings, processed) as the search would build them.
    """
    caps = expected.capabilities
    placements = placements_in_order(expected.count, m)
    outputs = free_flow_outputs(caps, np.array(placements, dtype=np.intp))
    best = outputs.max()
    chosen = (None, None, np.inf)
    for edges, output in zip(placements, outputs):
        if output < best - 1e-9:
            continue
        processed = layer1_design_lp(expected, edges)
        if processed.sum() < chosen[2] - 1e-9:
            chosen = (edges, processed, float(processed.sum()))
    edges, processed, _ = chosen
    return list(edges), partition_ratings(processed, k), [float(p) for p in processed]


class TestEnumeration:
    def test_counts(self):
        assert interconnection_count(9, 3) == 7140
        assert interconnection_count(3, 3) == 1
        assert interconnection_count(10, 6) == 8145060

    def test_integer_valued_floats_count_and_other_values_are_refused(self):
        assert interconnection_count(9, 3.0) == interconnection_count(9.0, 3) == 7140
        for n, m in ((9, 2.5), (9, "3"), (9, None), (9, float("nan")), (float("inf"), 3), (-1, 2), (9, -1)):
            with pytest.raises(ParameterError, match="must be a non-negative integer"):
                interconnection_count(n, m)

    def test_yields_all_pair_sets_in_order(self):
        # on a uniform supply every placement ties, so the search's band is all of them
        oracle = np.concatenate(list(placement_blocks(4, 2)))
        for endpoints in (oracle, hippp.design._tie_band(np.ones(4), 2)[3]):
            sets = [tuple(map(tuple, placement)) for placement in endpoints.tolist()]
            assert len(sets) == interconnection_count(4, 2) == 15
            assert sets == sorted(sets)
            assert sets[0] == ((0, 1), (0, 2))
            assert all(src < dst for s in sets for (src, dst) in s)

    def test_cap_refuses_blowups(self):
        # 8,145,060 placements at N=10, M=6: the search refuses before scoring any
        expected = flatten(BatterySupply(1.0, 0.2, 10))
        with pytest.raises(EnumerationCapError):
            design_layer1(expected, DesignConfig(num_layer1=6, num_rating_sets=2))

    @staticmethod
    def scored_rows(monkeypatch):
        """Record the rows of every free_flow_outputs call the search makes."""
        rows = []

        def counting(caps, endpoints):
            rows.append(len(endpoints))
            return free_flow_outputs(caps, endpoints)

        monkeypatch.setattr(hippp.design, "free_flow_outputs", counting)
        return rows

    @pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (9, 3), (16, 2)])
    def test_placement_blocks_keep_the_enumeration_order(self, monkeypatch, n, m):
        placements = np.array(placements_in_order(n, m), dtype=np.intp)
        blocks = list(placement_blocks(n, m))
        assert all(len(block) <= hippp.design._PLACEMENT_BLOCK for block in blocks)
        assert np.array_equal(np.concatenate(blocks), placements)
        # nothing prunes on a uniform supply: the search scores every placement,
        # in kernel calls of at most _PLACEMENT_BLOCK rows, and keeps their order
        rows = self.scored_rows(monkeypatch)
        _, scored, _, band = hippp.design._tie_band(np.ones(n), m)
        assert max(rows) <= hippp.design._PLACEMENT_BLOCK
        assert scored == len(placements)
        assert np.array_equal(band, placements)

    def test_placement_blocks_keep_the_cap(self, monkeypatch):
        with pytest.raises(EnumerationCapError):
            next(placement_blocks(10, 6))
        rows = self.scored_rows(monkeypatch)
        with pytest.raises(EnumerationCapError):
            hippp.design._tie_band(np.ones(10), 6)
        assert rows == []

    def test_argument_validation(self):
        for n, m in ((1, 1), (4, 0), (4, 7)):
            with pytest.raises(ParameterError):
                next(placement_blocks(n, m))
            with pytest.raises(ParameterError):
                hippp.design._tie_band(np.ones(n), m)
        with pytest.raises(StructuralError, match="must stay sparse"):  # one battery: the sparsity rule refuses first
            design_layer1(flatten(BatterySupply(1.0, 0.2, 1)), DesignConfig(num_layer1=1, num_rating_sets=1))


class TestPrunedSearch:
    """The branch and bound against the exhaustive block scan it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 4),
           st.sampled_from(["drawn", "coarse", "edge", 0.0, MIN_RELATIVE_STD, 0.3]), st.integers(0, 2**32 - 1))
    @example(9, 3, 0.3, 0)
    @example(12, 4, MIN_RELATIVE_STD, 0)
    @example(8, 4, "coarse", 1)
    @example(7, 4, "edge", 0)  # a bound off by 1e-12 at the band edge drops a member here
    def test_band_equals_the_exhaustive_scan(self, n, m, source, seed):
        # random sorted capabilities, coarse ones with many exact ties, coarse
        # ones moved by multiples of the tie tolerance / N so that scores sit
        # on the band's edge, and flattened supplies; by float.hex and in
        # lexicographic order
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        if source == "drawn":
            caps = np.sort(rng.uniform(0.3, 1.7, n))
        elif source == "coarse":
            caps = np.sort(rng.integers(2, 6, n)) / 4.0
        elif source == "edge":
            shift = rng.integers(-2, 3, n) * (hippp.design._VALUE_TIE_TOL / n)
            caps = np.sort(rng.integers(2, 6, n) / 4.0 + shift)
        else:
            caps = flatten(BatterySupply(1.0, source, n)).capabilities
        best, outputs, tied = exhaustive_tie_band(caps, m)
        found, scored, band_outputs, band = hippp.design._tie_band(caps, m)
        assert found.hex() == best.hex()
        assert [v.hex() for v in band_outputs.tolist()] == [v.hex() for v in outputs.tolist()]
        assert band.tolist() == tied.tolist()
        assert len(tied) <= scored <= interconnection_count(n, m)

    def test_readme_default_scores_a_fraction_of_the_placements(self, monkeypatch, caplog):
        rows = TestEnumeration.scored_rows(monkeypatch)
        expected = flatten(BatterySupply(1.0, 0.2, 9))
        with caplog.at_level("DEBUG", logger="hippp.design"):
            design = design_layer1(expected, DesignConfig(num_layer1=3, num_rating_sets=2))
        assert [(e.from_battery, e.to_battery) for e in design.edges] == N9_EDGES
        scored = sum(rows) - 1  # the first call scores the weak-to-strong incumbent
        assert scored < interconnection_count(9, 3) == 7140
        assert f"7140 placements enumerable, {scored} scored, {7140 - scored} pruned" in caplog.text

    def test_search_memory_stays_within_the_block_scan(self):
        # on a uniform supply nothing prunes and every one of the 58,905
        # placements is in the band; the search must not hold more than the scan
        caps = flatten(BatterySupply(1.0, 0.0, 9)).capabilities
        peaks = []
        for search in (exhaustive_tie_band, hippp.design._tie_band):
            tracemalloc.start()
            try:
                search(caps, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestPartitionRatings:
    def test_two_groups_keep_top_and_pool_the_rest(self):
        assert partition_ratings(N9_PROCESSED, 2) == pytest.approx(N9_RATINGS, abs=0)

    def test_single_group_pools_everything_at_the_max(self):
        assert partition_ratings([0.1, 0.5, 0.3], 1) == [0.5, 0.5, 0.5]

    def test_full_split_keeps_every_value(self):
        assert partition_ratings([0.1, 0.5, 0.3], 3) == [0.1, 0.5, 0.3]

    def test_original_order_is_preserved(self):
        assert partition_ratings([0.1, 0.5, 0.3], 2) == [0.3, 0.5, 0.3]

    def test_ratings_cover_processed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            processed = rng.uniform(0.0, 1.0, int(rng.integers(1, 8)))
            for k in range(1, processed.size + 1):
                ratings = partition_ratings(processed, k)
                assert len(set(ratings)) <= k
                assert all(r >= p for r, p in zip(ratings, processed))

    def test_an_integer_valued_float_group_count_is_an_integer(self):
        assert partition_ratings(N9_PROCESSED, 2.0) == partition_ratings(N9_PROCESSED, 2)
        with pytest.raises(ParameterError):
            partition_ratings(N9_PROCESSED, 1.5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            partition_ratings([], 1)
        with pytest.raises(ParameterError):
            partition_ratings([0.2, -0.1], 1)
        with pytest.raises(ParameterError):
            partition_ratings([0.2, 0.3], 3)
        with pytest.raises(ParameterError):
            partition_ratings([0.2, 0.3], 0)

    def test_a_nan_processed_power_is_refused(self):
        with pytest.raises(ParameterError, match="processed powers"):
            partition_ratings([float("nan"), 1.0], 1)


class TestDesignConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ParameterError):
            DesignConfig(num_layer1=0)
        with pytest.raises(ParameterError):
            DesignConfig(num_rating_sets=4, num_layer1=3)
        with pytest.raises(ParameterError):
            DesignConfig(layer2_trial_ratings=())
        with pytest.raises(ParameterError):
            DesignConfig(layer2_trial_ratings=(0.1, 0.1))
        with pytest.raises(ParameterError):
            DesignConfig(layer2_trial_ratings=(-0.1, 0.2))
        with pytest.raises(ParameterError, match="layer2_trial_ratings"):
            DesignConfig(layer2_trial_ratings=(0.0, float("nan")))
        with pytest.raises(ParameterError, match="layer2_trial_ratings values must be non-negative and finite"):
            DesignConfig(layer2_trial_ratings=(0.0, float("inf")))
        with pytest.raises(ParameterError):
            DesignConfig(monte_carlo_trials=0)

    def test_integer_valued_floats_are_integers(self):
        knobs = dict(num_layer1=2, num_rating_sets=1, layer2_trial_ratings=(0.0, 0.1), monte_carlo_trials=4,
                     base_seed=3)
        whole = DesignConfig(**knobs)
        cfg = DesignConfig(**{key: float(v) if key != "layer2_trial_ratings" else v for key, v in knobs.items()})
        assert cfg == whole and all(type(getattr(cfg, key)) is int for key in knobs if key != "layer2_trial_ratings")
        supply = BatterySupply(1.0, 0.2, 9)
        layer1 = design_layer1(flatten(supply), cfg)
        assert layer1 == design_layer1(flatten(supply), whole)
        assert design_layer2(layer1, supply, cfg) == design_layer2(layer1, supply, whole)
        for key in ("num_layer1", "num_rating_sets", "monte_carlo_trials", "base_seed"):
            with pytest.raises(ParameterError, match=key):
                DesignConfig(**{**knobs, key: 2.5})

    @pytest.mark.parametrize("seed", [-1, -(2**40), 0.5])
    def test_rejects_a_base_seed_the_generator_cannot_take(self, seed):
        with pytest.raises(ParameterError, match="base_seed"):
            DesignConfig(base_seed=seed)


class TestLayer1Search:
    def test_nine_slot_design_is_frozen(self):
        expected = flatten(BatterySupply(1.0, 0.2, 9))
        design = design_layer1(expected, DesignConfig(num_layer1=3, num_rating_sets=2))
        assert [(e.from_battery, e.to_battery) for e in design.edges] == N9_EDGES
        assert [e.rating for e in design.edges] == pytest.approx(N9_RATINGS, abs=1e-12)
        assert design.processed_at_design == pytest.approx(N9_PROCESSED, abs=1e-12)
        assert free_flow_output(expected.capabilities, N9_EDGES) == pytest.approx(N9_OUTPUT, abs=1e-9)

    @pytest.mark.parametrize("n, m, sigma", [(5, 2, 0.2), (4, 3, 0.2), (6, 3, 0.1), (7, 2, 0.3)])
    def test_search_matches_scipy_full_scan(self, n, m, sigma):
        # independent full enumeration of every m-converter placement
        expected = flatten(BatterySupply(1.0, sigma, n))
        caps = expected.capabilities
        best = (-np.inf, np.inf, None)
        for edge_set in itertools.combinations(itertools.combinations(range(n), 2), m):
            output, processed = scipy_two_stage(caps, edge_set)
            candidate = (output, processed, edge_set)
            if output > best[0] + 1e-9 or (
                abs(output - best[0]) <= 1e-9 and processed < best[1] - 1e-9
            ):
                best = candidate
        design = design_layer1(expected, DesignConfig(num_layer1=m, num_rating_sets=2))
        assert tuple((e.from_battery, e.to_battery) for e in design.edges) == best[2]
        assert sum(design.processed_at_design) == pytest.approx(best[1], abs=1e-7)
        assert free_flow_output(caps, best[2]) == pytest.approx(best[0], abs=1e-9)

    @staticmethod
    def count_solves(monkeypatch):
        """Record the placements of each tie-break run, one kernel call each, and the design LPs it solves."""
        scored, solved = [], []

        def counting_totals(caps, endpoints, currents):
            scored.append(len(endpoints))
            return _processing_totals(caps, endpoints, currents)

        def counting_design_lp(expected, edges):
            solved.append(edges)
            return layer1_design_lp(expected, edges)

        monkeypatch.setattr(hippp.design, "_processing_totals", counting_totals)
        monkeypatch.setattr(hippp.design, "layer1_design_lp", counting_design_lp)
        return scored, solved

    def test_uniform_supply_stops_at_the_first_lossless_placement(self, monkeypatch):
        # every placement ties on output and the first one already processes
        # nothing, so the tie-break stops in its first run
        scored, solved = self.count_solves(monkeypatch)
        expected = flatten(BatterySupply(1.0, 0.0, 9))
        design = design_layer1(expected, DesignConfig(num_layer1=3, num_rating_sets=2))
        assert [(e.from_battery, e.to_battery) for e in design.edges] == [(0, 1), (0, 2), (0, 3)]
        assert [e.rating for e in design.edges] == [0.0, 0.0, 0.0]
        assert len(scored) <= 1
        assert solved == [((0, 1), (0, 2), (0, 3))]

    @pytest.mark.parametrize("n, m, sigma, rows, edges", [
        (16, 2, 0.2, 16, [(0, 8), (1, 4)]),
        (9, 3, 0.2, 13, N9_EDGES),
        (9, 2, 0.1, 16, [(0, 6), (1, 4)]),
    ])
    def test_tie_break_stops_at_the_processing_floor(self, monkeypatch, n, m, sigma, rows, edges):
        # every tied placement processes at least sum_j max(0, I - P_j), so
        # the scan ends at the first placement that reaches it; here that is
        # inside the first run (13 placements tie at N=9, M=3), so one kernel
        # call scores the run, and only the winner gets the design LP
        scored, solved = self.count_solves(monkeypatch)
        expected = flatten(BatterySupply(1.0, sigma, n))
        design = design_layer1(expected, DesignConfig(num_layer1=m, num_rating_sets=2))
        assert scored == [rows]
        assert solved == [tuple(edges)]
        assert [(e.from_battery, e.to_battery) for e in design.edges] == edges

        ref_edges, ref_ratings, ref_processed = full_tie_scan(expected, m, 2)
        assert ref_edges == edges
        assert [e.rating.hex() for e in design.edges] == [r.hex() for r in ref_ratings]
        assert [p.hex() for p in design.processed_at_design] == [p.hex() for p in ref_processed]
        current = free_flow_output(expected.capabilities, edges) / n
        floor = np.maximum(current - expected.capabilities, 0.0).sum()
        assert sum(design.processed_at_design) == pytest.approx(floor, abs=1e-12)

    @pytest.mark.parametrize("n, m, sigma, k, runs", [
        # 166 placements tie and the stop is the 52nd: runs of 16, 32 and 64
        (12, 3, 0.3, 2, [16, 32, 64]),
        # every placement ties and the first processes nothing
        (7, 2, 0.0, 2, [16]),
    ])
    def test_runs_equal_the_full_tie_scan(self, monkeypatch, n, m, sigma, k, runs):
        scored, _ = self.count_solves(monkeypatch)
        expected = flatten(BatterySupply(1.0, sigma, n))
        design = design_layer1(expected, DesignConfig(num_layer1=m, num_rating_sets=k))
        assert scored == runs
        ref_edges, ref_ratings, ref_processed = full_tie_scan(expected, m, k)
        assert [(e.from_battery, e.to_battery) for e in design.edges] == ref_edges
        assert [e.rating.hex() for e in design.edges] == [r.hex() for r in ref_ratings]
        assert [p.hex() for p in design.processed_at_design] == [p.hex() for p in ref_processed]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_run_totals_equal_one_placement_calls(self, n, m, seed):
        # a stacked run against the one-row calls of the serial scan it replaced
        rng = np.random.default_rng(seed)
        caps = np.sort(rng.uniform(0.3, 1.7, n))
        placements = placements_in_order(n, m)
        picked = np.sort(rng.choice(len(placements), size=min(len(placements), 40), replace=False))
        endpoints = np.array([placements[i] for i in picked], dtype=np.intp)
        currents = free_flow_outputs(caps, endpoints) / n
        totals = _processing_totals(caps, endpoints, currents)
        for edges, current, total in zip(endpoints.tolist(), currents, totals):
            flows, _ = _least_processing_flows(caps[None, :], edges, np.full((1, m), np.inf), np.array([current]))
            assert total.hex() == float(np.abs(flows).sum()).hex()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 10), st.integers(1, 3), st.one_of(st.just(0.0), st.floats(MIN_RELATIVE_STD, 0.3)),
           st.booleans(), st.integers(0, 2**32 - 1))
    @example(9, 3, MIN_RELATIVE_STD, False, 0)  # the least spread a supply may have
    def test_design_lp_equals_the_two_lp_solve(self, n, m, sigma, drawn, seed):
        # the array stacks of one against the two LinearPrograms through solve, by
        # float.hex, over every spread a supply accepts
        rng = np.random.default_rng(seed)
        supply = BatterySupply(1.0, sigma, n)
        expected = ExpectedSet(np.sort(rng.uniform(0.3, 1.7, n)), supply) if drawn else flatten(supply)
        placements = placements_in_order(n, m)
        edges = placements[rng.integers(len(placements))]
        processed, output = layer1_design_lp(expected, edges), design_output(expected, edges)
        ref_processed, ref_output = two_lp_design_solve(expected.capabilities, edges)
        assert output.hex() == ref_output.hex()
        assert [p.hex() for p in processed.tolist()] == [p.hex() for p in ref_processed.tolist()]

    def test_power_circulating_both_ways_is_an_internal_error(self, monkeypatch):
        # stage 2 splits each flow into f+ and f- (columns 1..E and E+1..2E); 0.1 more on both halves of
        # edge 1 keeps every equality and bound, and only the split check refuses it
        expected = flatten(BatterySupply(1.0, 0.2, 4))
        edges = [(0, 2), (1, 3)]
        layer1_design_lp(expected, edges)
        solve_stack = hippp.powerflow.solve_stack

        def circulating(objective, a_eq, b_eq, lower, upper):
            values = solve_stack(objective, a_eq, b_eq, lower, upper)
            if objective.size == 1 + 2 * len(edges) + 4:  # stage 2; stage 1 has one column per edge
                values = values.copy()
                values[:, [2, 2 + len(edges)]] += 0.1
            return values

        monkeypatch.setattr(hippp.powerflow, "solve_stack", circulating)
        with pytest.raises(InternalCheckError, match="^flow split left circulating power in both directions$"):
            layer1_design_lp(expected, edges)

    def test_design_lp_agrees_with_scipy_on_the_chosen_edges(self):
        expected = flatten(BatterySupply(1.0, 0.2, 9))
        flows, output = layer1_design_lp(expected, N9_EDGES), design_output(expected, N9_EDGES)
        ref_output, ref_processed = scipy_two_stage(expected.capabilities, N9_EDGES)
        assert output == pytest.approx(ref_output, abs=1e-8)
        assert flows.sum() == pytest.approx(ref_processed, abs=1e-8)

    def test_a_design_whose_lp_drives_out_an_artificial_agrees_with_scipy(self, monkeypatch):
        # product input, not an error path: this design's phase 1 ends with an artificial in the basis
        drives = []
        drive_out = hippp.lp._drive_out_artificials

        def counting_drive_out(*args):
            drives.append(args)
            return drive_out(*args)

        monkeypatch.setattr(hippp.lp, "_drive_out_artificials", counting_drive_out)
        expected = flatten(BatterySupply(1.0, 0.1, 9))
        design = design_layer1(expected, DesignConfig(num_layer1=2))
        assert drives
        edges = [(e.from_battery, e.to_battery) for e in design.edges]
        ref_output, ref_processed = scipy_two_stage(expected.capabilities, edges)
        assert design_output(expected, edges) == pytest.approx(ref_output, abs=1e-9)
        assert sum(design.processed_at_design) == pytest.approx(ref_processed, abs=1e-9)

    def test_spanning_layer1_balances_the_expected_set(self):
        # with one converter per rung, the expected set delivers in full
        for n in (3, 4):
            expected = flatten(BatterySupply(1.0, 0.2, n))
            cfg = DesignConfig(num_layer1=n - 1, num_rating_sets=n - 1)
            design = design_layer1(expected, cfg)
            pairs = [(e.from_battery, e.to_battery) for e in design.edges]
            out = free_flow_output(expected.capabilities, pairs)
            assert out == pytest.approx(expected.total_power, abs=1e-9)

    def test_sparsity_guard(self):
        # the one sparsity rule of architecture.py, which Architecture also applies
        expected = flatten(BatterySupply(1.0, 0.2, 4))
        with pytest.raises(StructuralError, match="layer 1 must stay sparse"):
            design_layer1(expected, DesignConfig(num_layer1=4, num_rating_sets=2))

    def test_repeat_call_is_identical(self):
        expected = flatten(BatterySupply(1.0, 0.2, 9))
        cfg = DesignConfig(num_layer1=3, num_rating_sets=2)
        first = design_layer1(expected, cfg)
        second = design_layer1(expected, cfg)
        assert first == second


class TestLayer2Curve:
    def test_properties(self):
        curve = Layer2Curve(((0.0, 0.5), (0.1, 0.8), (0.2, 0.8)))
        assert curve.ratings == (0.0, 0.1, 0.2)
        assert curve.utilizations == (0.5, 0.8, 0.8)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Layer2Curve(())
        with pytest.raises(ParameterError):
            Layer2Curve(((0.1, 0.5), (0.1, 0.6)))
        with pytest.raises(ParameterError):
            Layer2Curve(((0.0, 0.8), (0.1, 0.5)))
        with pytest.raises(ParameterError):
            Layer2Curve(((0.0, 1.5),))
        with pytest.raises(ParameterError):
            Layer2Curve(((-0.1, 0.5),))
        # the ratings are a grid: finite, where a converter's infinite rating is an unbounded edge
        with pytest.raises(ParameterError, match="curve rating grid values must be non-negative and finite"):
            Layer2Curve(((0.0, 0.5), (float("inf"), 0.9)))

    def test_a_nan_rating_is_refused(self):
        with pytest.raises(ParameterError):
            Layer2Curve(((float("nan"), 0.5),))


class TestLayer2Rating:
    def setup_method(self):
        self.expected = flatten(BatterySupply(1.0, 0.2, 9))
        self.layer1 = design_layer1(self.expected, DesignConfig(num_layer1=3, num_rating_sets=2))

    def test_budget_split_arithmetic(self):
        rating = lshippp_for_budget(self.layer1, self.expected, 0.15).rating
        leftover = 0.15 * self.expected.total_power - self.layer1.total_rating
        assert rating == pytest.approx(leftover / 8, abs=1e-15)
        assert rating == pytest.approx(0.0985942186170313, abs=1e-12)

    def test_budget_below_layer1_cost_floors_at_zero(self):
        assert lshippp_for_budget(self.layer1, self.expected, 0.01).rating == 0.0
        with pytest.raises(ParameterError):
            lshippp_for_budget(self.layer1, self.expected, -0.1)

    @pytest.mark.parametrize("budget", [np.inf, np.nan, -np.inf])
    def test_a_budget_that_is_not_finite_is_refused_before_the_curve(self, budget, monkeypatch, tmp_path):
        with pytest.raises(ParameterError):
            lshippp_for_budget(self.layer1, self.expected, budget)

        def no_curve(*args):
            raise AssertionError("the layer-2 curve ran before the budget was checked")

        # a design spends its budget before the curve runs
        monkeypatch.setattr(hippp.design, "max_string_outputs", no_curve)
        design = DesignConfig(num_layer1=3, num_rating_sets=2, monte_carlo_trials=2)
        cfg = ExperimentConfig(BatterySupply(1.0, 0.2, 9), design, rating_budget=budget)
        with pytest.raises(ParameterError):
            cmd_design(cfg, str(tmp_path))
        assert not (tmp_path / "design.txt").exists()

    def test_assembled_architecture_spends_the_budget(self):
        from hippp import aggregate_rating

        arch = lshippp_for_budget(self.layer1, self.expected, 0.15)
        assert aggregate_rating(arch) == pytest.approx(0.15, abs=1e-12)
        # the floor makes small budgets overspent by layer 1 alone
        starved = lshippp_for_budget(self.layer1, self.expected, 0.05)
        assert starved.rating == 0.0
        assert aggregate_rating(starved) == pytest.approx(
            self.layer1.total_rating / self.expected.total_power, abs=1e-12
        )


class TestLayer2Design:
    CFG = DesignConfig(
        num_layer1=3, num_rating_sets=2,
        layer2_trial_ratings=(0.0, 0.05, 0.10), monte_carlo_trials=40,
    )

    def test_curve_rises_at_the_trial_ratings(self):
        supply = BatterySupply(1.0, 0.2, 9)
        layer1 = design_layer1(flatten(supply), self.CFG)
        _, curve = design_layer2(layer1, supply, self.CFG)
        assert curve.ratings == (0.0, 0.05, 0.10)
        assert all(u1 <= u2 + 1e-12 for u1, u2 in zip(curve.utilizations, curve.utilizations[1:]))

    def test_without_budget_takes_the_cheapest_top_rating(self):
        supply = BatterySupply(1.0, 0.2, 9)
        layer1 = design_layer1(flatten(supply), self.CFG)
        rung, curve = design_layer2(layer1, supply, self.CFG)
        top = max(curve.utilizations)
        assert rung == min(r for r, u in curve.points if u >= top - 1e-9)

    def test_uniform_supply_needs_no_ladder(self):
        supply = BatterySupply(1.0, 0.0, 5)
        cfg = DesignConfig(
            num_layer1=2, num_rating_sets=1,
            layer2_trial_ratings=(0.0, 0.05), monte_carlo_trials=10,
        )
        layer1 = design_layer1(flatten(supply), cfg)
        rung, curve = design_layer2(layer1, supply, cfg)
        assert curve.utilizations == pytest.approx([1.0, 1.0], abs=1e-9)
        assert rung == 0.0

    def test_curve_points_equal_a_stage_one_lp_reference(self):
        # the curve is printed with repr, so it stays on the stage-1 LP bit for bit
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply)
        layer1 = design_layer1(expected, self.CFG)
        _, curve = design_layer2(layer1, supply, self.CFG)
        samples = [sample_battery_set(supply, self.CFG.base_seed + t) for t in range(40)]
        reference = []
        for rating in self.CFG.layer2_trial_ratings:
            arch = Architecture(
                ArchitectureKind.LSHIPPP, 9, expected.total_power, rating, layer1,
            )
            utilizations = [hierarchical_lp_output(s.capabilities, arch) / s.total_power for s in samples]
            reference.append((rating, float(np.mean(utilizations))))
        assert curve.points == tuple(reference)

    def test_repeat_run_is_bit_identical(self):
        supply = BatterySupply(1.0, 0.2, 9)
        layer1 = design_layer1(flatten(supply), self.CFG)
        d1, c1 = design_layer2(layer1, supply, self.CFG)
        d2, c2 = design_layer2(layer1, supply, self.CFG)
        assert d1 == d2
        assert c1.points == c2.points


def one_lp_curve(layer1, supply, cfg):
    """The layer-2 curve as it was computed before the batch: one solve per (rating, draw)."""
    expected = flatten(supply)
    n = expected.count
    draws = [draw_capabilities(supply, cfg.base_seed + t) for t in range(cfg.monte_carlo_trials)]
    points = []
    for rating in cfg.layer2_trial_ratings:
        arch = Architecture(
            ArchitectureKind.LSHIPPP, n, expected.total_power, rating, layer1,
        )
        utilizations = []
        for caps in draws:
            sol = solve(build_flow_lp(caps, architecture_edges(arch)))
            assert sol.status is LPStatus.OPTIMAL
            utilizations.append(caps.size * float(sol.values[0]) / float(caps.sum()))
        points.append((rating, float(np.mean(utilizations))))
    return tuple(points)


class TestBatchedCurve:
    """design_layer2 solves every (rating, draw) LP in one batch; its curve
    must equal the one-LP-at-a-time curve by ==."""

    RATINGS = (0.0, 0.03, 0.1, 10.0)  # the last rung is far above every flow

    @staticmethod
    def layer1(n, m, seed):
        rng = np.random.default_rng(seed)
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [pairs[i] for i in rng.choice(len(pairs), m, replace=False)]
        ratings = [0.05 * (1 + i % 2) for i in range(m)]
        return Layer1Design(
            tuple(ConverterEdge(a, b, r) for (a, b), r in zip(chosen, ratings)),
            len(set(ratings)), tuple(ratings),
        )

    @pytest.mark.parametrize("n", [5, 9, 16])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_the_one_lp_curve(self, n, m):
        supply = BatterySupply(1.0, 0.25, n)
        layer1 = self.layer1(n, m, seed=10 * n + m)
        cfg = DesignConfig(num_layer1=m, num_rating_sets=1, layer2_trial_ratings=self.RATINGS,
                           monte_carlo_trials=6, base_seed=n)
        _, curve = design_layer2(layer1, supply, cfg)
        assert curve.points == one_lp_curve(layer1, supply, cfg)

    @staticmethod
    def logged_passes(caplog, run):
        """run()'s result and the LPs of each pass that lp.solve_stack logs, in order."""
        with caplog.at_level(logging.DEBUG, logger="hippp.lp"):
            caplog.clear()
            result = run()
        return result, [r.args[0] for r in caplog.records if r.name == "hippp.lp" and r.msg.startswith("LP stack")]

    def test_small_passes_give_the_same_bits(self, monkeypatch, caplog):
        # the curve's 4 x 7 LPs reach lp.solve_stack as one stack, which runs them in passes of its own size
        supply = BatterySupply(1.0, 0.2, 9)
        layer1 = self.layer1(9, 3, seed=4)
        cfg = DesignConfig(num_layer1=3, num_rating_sets=1, layer2_trial_ratings=self.RATINGS,
                           monte_carlo_trials=7)
        whole = self.logged_passes(caplog, lambda: design_layer2(layer1, supply, cfg))
        assert whole[1] == [28]
        for lps_per_pass, passes in ((3, [3] * 9 + [1]), (1, [1] * 28)):
            monkeypatch.setattr(hippp.lp, "_PASS_LPS", lps_per_pass)
            assert self.logged_passes(caplog, lambda: design_layer2(layer1, supply, cfg)) == (whole[0], passes)

    def test_passes_cut_by_basis_cells_give_the_same_bytes(self, monkeypatch, caplog):
        # an N = 32 curve: 4 x 4 LPs of 32 rows; room for five 32 x 32 basis matrices cuts it into four passes
        supply = BatterySupply(1.0, 0.2, 32)
        layer1 = self.layer1(32, 2, seed=5)
        cfg = DesignConfig(num_layer1=2, num_rating_sets=1, layer2_trial_ratings=self.RATINGS,
                           monte_carlo_trials=4)

        def curve_bytes():
            rating, curve = design_layer2(layer1, supply, cfg)
            return [rating.hex()] + [value.hex() for point in curve.points for value in point]

        whole = self.logged_passes(caplog, curve_bytes)
        assert whole[1] == [16]
        monkeypatch.setattr(hippp.lp, "_PASS_CELLS", 5 * 32 * 32)
        assert self.logged_passes(caplog, curve_bytes) == (whole[0], [5, 5, 5, 1])

    def test_block_rows_equal_one_row_calls(self):
        # rows with mixed rungs, an infinite one included, against one-row calls
        # and against the serial LP of an architecture with the rung built in
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply)
        layer1 = self.layer1(9, 2, seed=8)
        arch = Architecture(ArchitectureKind.LSHIPPP, 9, expected.total_power, 0.1, layer1)
        block = np.stack([draw_capabilities(supply, seed) for seed in range(15)])
        rungs = np.array([0.0, 0.2, np.inf])[np.arange(15) % 3]
        outputs = max_string_outputs(block, arch, rungs)
        assert outputs.shape == (15,)
        for caps, rung, output in zip(block, rungs, outputs):
            built_in = Architecture(ArchitectureKind.LSHIPPP, 9, expected.total_power, rung, layer1)
            assert output == max_string_outputs(caps[None, :], arch, [rung])[0] == hierarchical_lp_output(caps, built_in)

    def test_the_default_design_lp_traffic(self, monkeypatch):
        # the README default design, layer 1 and the 10 x 1000 layer-2 curve:
        # the design solve is two stacks of one LP, and the curve is one
        # stack of its 10 x 1000 LPs
        stacks = []
        solve_stack = hippp.lp.solve_stack

        def counted_solve_stack(objective, a_eq, b_eq, lower, upper):
            stacks.append(len(lower))
            return solve_stack(objective, a_eq, b_eq, lower, upper)

        for name, module in list(sys.modules.items()):  # wherever a module holds lp.solve_stack
            if name.partition(".")[0] == "hippp":
                for key, value in list(vars(module).items()):
                    if value is solve_stack:
                        monkeypatch.setattr(module, key, counted_solve_stack)
        supply = BatterySupply(1.0, 0.2, 9)
        cfg = DesignConfig(num_layer1=3, num_rating_sets=2)
        layer1 = design_layer1(flatten(supply), cfg)
        assert stacks == [1, 1]
        _, curve = design_layer2(layer1, supply, cfg)
        assert [(e.from_battery, e.to_battery) for e in layer1.edges] == N9_EDGES
        assert [p.hex() for p in layer1.processed_at_design] == [p.hex() for p in N9_PROCESSED]
        assert len(curve.points) == 10
        assert stacks[2:] == [10 * 1000]

    def test_rejects_bad_rungs(self):
        block = np.stack([draw_capabilities(BatterySupply(1.0, 0.2, 9), seed) for seed in range(2)])
        ladder = Architecture(ArchitectureKind.CPPP, 9, 9.0, rating=0.1)
        hierarchy = Architecture(ArchitectureKind.LSHIPPP, 9, 9.0, 0.1, self.layer1(9, 2, seed=8))
        for arch in (ladder, hierarchy):
            for rungs in ([0.1, np.nan], [0.1, -0.1], [0.1, -np.inf], [0.1], [0.1, 0.1, 0.1], [[0.1, 0.1]]):
                with pytest.raises(ParameterError):
                    max_string_outputs(block, arch, rungs)
            assert max_string_outputs(block, arch, [0.1, np.inf]).shape == (2,)


class TestStageOneOutput:
    def test_equals_the_stage_one_lp_bit_for_bit(self):
        # the full solve takes its current from the cut form, which agrees
        # with the LP to rounding only
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply)
        layer1 = design_layer1(expected, DesignConfig(num_layer1=3, num_rating_sets=2))
        for rating in (0.0, 0.05, 0.3):
            arch = Architecture(
                ArchitectureKind.LSHIPPP, 9, expected.total_power, rating, layer1,
            )
            block = np.stack([draw_capabilities(supply, seed) for seed in range(200)])
            for caps, output in zip(block, max_string_outputs(block, arch, np.full(len(block), rating))):
                assert output == hierarchical_lp_output(caps, arch)
                assert output == pytest.approx(optimal_flow(caps, arch).output_power, abs=1e-12)

    def test_ladder_output_agrees_with_the_closed_form(self):
        expected = flatten(BatterySupply(1.0, 0.2, 9))
        arch = Architecture(ArchitectureKind.CPPP, 9, expected.total_power, rating=0.1)
        caps = draw_capabilities(BatterySupply(1.0, 0.2, 9), 3)
        output = max_string_outputs(caps[None, :], arch, [arch.rating])[0]
        assert output == pytest.approx(optimal_flow(caps, arch).output_power, abs=1e-12)
        # and row by row at each row's own rung
        block = np.stack([draw_capabilities(BatterySupply(1.0, 0.2, 9), seed) for seed in range(6)])
        rungs = np.array([0.0, 0.05, 0.1, 0.2, 0.3, 0.5])
        currents = _hierarchical_currents(block, arch, rungs)
        assert max_string_outputs(block, arch, rungs) == pytest.approx(9 * currents, abs=1e-12)

    def test_full_processing_has_no_string_stage(self):
        arch = Architecture(ArchitectureKind.FPP, 3, 3.0, rating=0.5)
        with pytest.raises(StructuralError):
            max_string_outputs([[0.8, 1.0, 1.2]], arch, [0.5])
