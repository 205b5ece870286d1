"""Monte Carlo metrics: exact efficiency anchors, paired sweeps, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hippp.evaluate
from hippp import (
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    InternalCheckError,
    Layer1Design,
    MetricsRecord,
    ParameterError,
    SweepCell,
    UndefinedMetricError,
    cppp_from_budget,
    design_layer1,
    design_layer2,
    draw_capabilities,
    evaluate_cells,
    flatten,
    flow_powers,
    fpp_from_budget,
    lshippp_for_budget,
    optimal_flow,
    sample_battery_set,
    sweep_figures,
    sweep_heterogeneity,
    sweep_rating,
    system_efficiency,
)

SUPPLY9 = BatterySupply(1.0, 0.2, 9)
FAST_CFG = DesignConfig(num_layer1=3, num_rating_sets=2, monte_carlo_trials=10)


def evaluate_one(*cell, **fields):
    """The record of the one cell SweepCell(*cell, **fields), evaluated alone."""
    (record,) = evaluate_cells([SweepCell(*cell, **fields)])
    return record


class TestSystemEfficiency:
    def test_full_processing_degenerates_to_the_converter(self):
        assert system_efficiency(1.0, 1.0, 0.85) == 0.85

    def test_partial_processing_point(self):
        assert system_efficiency(0.08, 1.0, 0.85) == pytest.approx(0.988, abs=1e-12)

    def test_no_processing_is_lossless(self):
        assert system_efficiency(0.0, 2.7, 0.85) == 1.0
        assert system_efficiency(0.0, 1.0, 0.1) == 1.0

    def test_zero_output_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            system_efficiency(0.0, 0.0, 0.85)

    def test_per_trial_arrays(self):
        effs = system_efficiency(np.array([1.0, 0.08, 0.0]), np.array([1.0, 1.0, 2.7]), 0.85)
        assert list(effs) == [system_efficiency(1.0, 1.0, 0.85),
                              system_efficiency(0.08, 1.0, 0.85), 1.0]
        with pytest.raises(UndefinedMetricError):
            system_efficiency(np.array([0.1, 0.0]), np.array([1.0, 0.0]), 0.85)
        with pytest.raises(ParameterError):
            system_efficiency(np.array([0.1, -0.1]), np.array([1.0, 1.0]), 0.85)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            system_efficiency(0.1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            system_efficiency(0.1, 1.0, 1.2)
        with pytest.raises(ParameterError):
            system_efficiency(-0.1, 1.0, 0.85)

    def test_a_nan_power_is_refused(self):
        for processed, output in ((np.nan, 1.0), (0.1, np.nan), ([0.1, np.nan], [1.0, 1.0])):
            with pytest.raises(ParameterError, match="powers"):
                system_efficiency(processed, output, 0.85)


class TestEvaluateArchitecture:
    def test_record_shape_and_ranges(self):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        record = evaluate_one(arch, SUPPLY9, trials=50, seed=7)
        assert isinstance(record, MetricsRecord)
        assert record.architecture_kind == "cppp"
        assert record.trials == 50 and record.seed == 7
        assert record.rating_norm == pytest.approx(0.15, abs=1e-12)
        assert record.heterogeneity == 0.2
        assert 0.0 < record.utilization <= 1.0
        assert record.utilization_std > 0.0
        assert 0.0 < record.system_efficiency <= 1.0
        assert record.processed_norm <= record.rating_norm + 1e-8
        assert record.output_norm > 0.0

    def test_full_processing_architecture_matches_the_converter_efficiency(self):
        # dedicated converters process everything they deliver
        arch = fpp_from_budget(0.15, flatten(SUPPLY9))
        record = evaluate_one(arch, SUPPLY9, trials=40, seed=3, converter_efficiency=0.85)
        assert record.system_efficiency == pytest.approx(0.85, abs=1e-12)
        # and utilization tracks the installed rating
        assert record.utilization == pytest.approx(0.15, abs=0.01)

    def test_zero_budget_strings_fall_back_to_the_bare_series(self):
        expected = flatten(SUPPLY9)
        records = [
            evaluate_one(cppp_from_budget(0.0, expected), SUPPLY9, 30, 11),
            evaluate_one(fpp_from_budget(0.0, expected), SUPPLY9, 30, 11),
        ]
        assert records[0].utilization == pytest.approx(records[1].utilization, abs=1e-12)
        assert records[0].system_efficiency == 1.0
        assert records[0].processed_norm == 0.0

    def test_repeat_evaluation_is_bit_identical(self):
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        a = evaluate_one(arch, SUPPLY9, trials=25, seed=5)
        b = evaluate_one(arch, SUPPLY9, trials=25, seed=5)
        assert a == b

    def test_seed_changes_the_draws(self):
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        a = evaluate_one(arch, SUPPLY9, trials=25, seed=5)
        b = evaluate_one(arch, SUPPLY9, trials=25, seed=6)
        assert a.utilization != b.utilization

    def test_validation(self):
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        with pytest.raises(ParameterError):
            evaluate_one(arch, BatterySupply(1.0, 0.2, 5), trials=5, seed=0)
        with pytest.raises(ParameterError):
            evaluate_one(arch, SUPPLY9, trials=0, seed=0)


class TestInlineInvariants:
    """A cell's rows pass three checks before its record is built. flow_powers, patched to spoil trial 2
    alone, trips each one, and the error names that trial."""

    @staticmethod
    def evaluate_spoiled(monkeypatch, arch, spoil):
        """The record of `arch` on 5 trials, with trial 2's (output, processed) replaced by
        spoil(capabilities, output, processed)."""
        real = hippp.evaluate.flow_powers

        def spoiled(caps, arch, ratings):
            output, processed = (values.copy() for values in real(caps, arch, ratings))
            output[2], processed[2] = spoil(caps[2], output[2], processed[2])
            return output, processed

        monkeypatch.setattr(hippp.evaluate, "flow_powers", spoiled)
        return evaluate_one(arch, SUPPLY9, trials=5, seed=0)

    def test_utilization_above_one(self, monkeypatch):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        with pytest.raises(InternalCheckError, match=r"^utilization 1\.01\d* above 1 on trial 2$"):
            self.evaluate_spoiled(monkeypatch, arch, lambda caps, output, processed: (1.01 * caps.sum(), processed))

    def test_utilization_below_the_bare_string_floor(self, monkeypatch):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        with pytest.raises(InternalCheckError, match=r"below the bare-string floor on trial 2$"):
            self.evaluate_spoiled(monkeypatch, arch, lambda caps, output, processed: (4.5 * caps.min(), processed))
        # full processing can deliver less than the bare string, so it has no floor
        fpp = fpp_from_budget(0.05, flatten(SUPPLY9))
        self.evaluate_spoiled(monkeypatch, fpp, lambda caps, output, processed: (4.5 * caps.min(), 0.0))

    def test_processed_power_above_the_installed_rating(self, monkeypatch):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        above = 0.151 * arch.total_expected_power
        with pytest.raises(InternalCheckError, match=r"^processed power above installed rating on trial 2$"):
            self.evaluate_spoiled(monkeypatch, arch, lambda caps, output, processed: (output, above))


class TestTrialBlock:
    """A cell's block path gives, trial for trial, the bits of the one-draw path."""

    def test_draws_match_the_samples(self):
        for seed in range(20):
            caps = draw_capabilities(SUPPLY9, seed)
            sample = sample_battery_set(SUPPLY9, seed)
            assert np.array_equal(caps, sample.capabilities)
            assert float(caps.sum()) == sample.total_power

    @pytest.mark.parametrize("kind, budget", [
        ("cppp", 0.0), ("cppp", 0.15), ("fpp", 0.0), ("fpp", 0.15), ("lshippp", 0.15),
    ])
    def test_flow_powers_rows_equal_optimal_flow(self, kind, budget):
        expected = flatten(SUPPLY9)
        if kind == "cppp":
            arch = cppp_from_budget(budget, expected)
        elif kind == "fpp":
            arch = fpp_from_budget(budget, expected)
        else:
            arch = lshippp_for_budget(design_layer1(expected, FAST_CFG), expected, budget)
        block = np.array([draw_capabilities(SUPPLY9, seed) for seed in range(12)])
        output, processed = flow_powers(block, arch, np.full(len(block), arch.rating))
        for t, caps in enumerate(block):
            sol = optimal_flow(caps, arch)
            assert output[t] == sol.output_power
            assert processed[t] == sol.processed_power
        assert np.array_equal(block.sum(axis=1), [float(caps.sum()) for caps in block])

    def test_block_shape_is_checked(self):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        with pytest.raises(ParameterError):
            flow_powers(draw_capabilities(SUPPLY9, 0), arch, [arch.rating])
        with pytest.raises(ParameterError):
            flow_powers(np.ones((3, 5)), arch, np.full(3, arch.rating))


@st.composite
def cell_lists(draw):
    """Random cells over one or two battery counts, with shared and unshared blocks.

    Supplies, trial counts, seeds and layer-1 designs come from small pools,
    so some cells share a (supply, trials, seed) block or a layer-1 design
    and some do not. Layer-1 designs are random chords with random ratings;
    budgets and spreads include 0.
    """
    counts = draw(st.lists(st.integers(2, 16), min_size=1, max_size=2, unique=True))
    trial_pool = draw(st.lists(st.integers(1, 30), min_size=1, max_size=2))
    seed_pool = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=2))
    layer1s = {}
    for n in counts:
        battery = st.integers(0, n - 1)
        pair = st.tuples(battery, battery).filter(lambda p: p[0] != p[1])
        designs = []
        for _ in range(draw(st.integers(1, 2))):
            chords = draw(st.lists(st.tuples(pair, st.sampled_from([0.0, 0.02, 0.1, 0.3])),
                                   min_size=1, max_size=min(3, n - 1)))
            designs.append(Layer1Design(
                tuple(ConverterEdge(a, b, r) for (a, b), r in chords), len(chords), tuple(r for _, r in chords),
            ))
        layer1s[n] = designs
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from(counts))
        supply = BatterySupply(1.0, draw(st.sampled_from([0.0, 0.1, 0.25])), n)
        expected = flatten(supply)
        budget = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
        kind = draw(st.sampled_from(list(ArchitectureKind)))
        if kind == ArchitectureKind.FPP:
            arch = fpp_from_budget(budget, expected)
        elif kind == ArchitectureKind.CPPP:
            arch = cppp_from_budget(budget, expected)
        else:
            arch = lshippp_for_budget(draw(st.sampled_from(layer1s[n])), expected, budget)
        cells.append(SweepCell(arch, supply, draw(st.sampled_from(trial_pool)), draw(st.sampled_from(seed_pool)),
                               draw(st.sampled_from([0.85, 0.9]))))
    return cells


class TestGroupedEvaluation:
    """One grouped evaluation gives every cell the record it gets alone, by ==."""

    @settings(max_examples=60, deadline=None)
    @given(cell_lists())
    def test_equals_one_cell_at_a_time(self, cells):
        assert evaluate_cells(cells) == [evaluate_one(*cell) for cell in cells]

    def test_cells_sharing_a_block_and_a_design(self):
        # a rating sweep stacks every budget of one layer-1 design into one
        # kernel call; each cell still gets the record it gets alone
        expected = flatten(SUPPLY9)
        layer1 = design_layer1(expected, FAST_CFG)
        cells = [
            SweepCell(make(budget), SUPPLY9, 20, 3)
            for budget in (0.0, 0.1, 0.2, 0.5)
            for make in (lambda b: lshippp_for_budget(layer1, expected, b),
                         lambda b: cppp_from_budget(b, expected),
                         lambda b: fpp_from_budget(b, expected))
        ]
        records = evaluate_cells(cells)
        assert records == [evaluate_one(*cell) for cell in cells]
        assert len(set(records)) == len(records)

    @settings(max_examples=30, deadline=None)
    @given(cell_lists(), st.data())
    def test_a_repeated_cell_is_evaluated_once(self, cells, data):
        # every copy gets the record of the cell alone, and a copy stacks no rows
        copies = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
        stacked = []

        def counting_flow_powers(caps, arch, ratings):
            stacked.append(len(caps))
            return flow_powers(caps, arch, ratings)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hippp.evaluate, "flow_powers", counting_flow_powers)
            records = evaluate_cells(cells + copies)
            alone_rows = sum(stacked)
            stacked.clear()
            evaluate_cells(list(dict.fromkeys(cells)))
        assert records == [evaluate_one(*cell) for cell in cells + copies]
        assert alone_rows == sum(stacked)

    def test_validation_covers_every_cell(self):
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        good = SweepCell(arch, SUPPLY9, 5, 0)
        with pytest.raises(ParameterError):
            evaluate_cells([good, SweepCell(arch, BatterySupply(1.0, 0.2, 5), 5, 0)])
        with pytest.raises(ParameterError):
            evaluate_cells([good, SweepCell(arch, SUPPLY9, 0, 0)])
        assert evaluate_cells([]) == []

    def test_a_negative_seed_is_refused(self):
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        with pytest.raises(ParameterError, match="seed"):
            evaluate_cells([SweepCell(arch, SUPPLY9, 5, 0), SweepCell(arch, SUPPLY9, 5, -1)])
        with pytest.raises(ParameterError, match="seed"):
            evaluate_one(arch, SUPPLY9, trials=5, seed=-2)

    def test_sweep_figures_equals_the_two_sweeps(self):
        kinds = ["lshippp", "cppp", "fpp"]
        rating, sigma = sweep_figures(kinds, SUPPLY9, [0.05, 0.3], [0.1, 0.2], 0.15, 12, 4, design_cfg=FAST_CFG)
        assert rating == sweep_rating(kinds, SUPPLY9, [0.05, 0.3], 12, 4, design_cfg=FAST_CFG)
        assert sigma == sweep_heterogeneity(kinds, 1.0, [0.1, 0.2], 0.15, 12, 4, count=9, design_cfg=FAST_CFG)

    def test_one_layer1_design_per_flattened_supply(self, monkeypatch):
        # the supply's own spread is in the sigma grid: both sweeps share its design
        designed = []

        def counting_design(expected, cfg):
            designed.append(expected.supply.std_power)
            return design_layer1(expected, cfg)

        monkeypatch.setattr(hippp.evaluate, "design_layer1", counting_design)
        sweep_figures(["lshippp"], SUPPLY9, [0.05, 0.3], [0.1, 0.2, 0.3], 0.15, 3, 0, design_cfg=FAST_CFG)
        assert designed == [0.2, 0.1, 0.3]

    def test_one_flatten_and_one_evaluation_per_distinct_supply_and_cell(self, monkeypatch):
        # the supply's own spread and the rating budget 0.15 recur in the
        # heterogeneity sweep: its supply is flattened and its cells evaluated once
        flattened, stacked = [], []

        def counting_flatten(supply):
            flattened.append(supply.std_power)
            return flatten(supply)

        def counting_flow_powers(caps, arch, ratings):
            stacked.append(len(caps))
            return flow_powers(caps, arch, ratings)

        monkeypatch.setattr(hippp.evaluate, "flatten", counting_flatten)
        monkeypatch.setattr(hippp.evaluate, "flow_powers", counting_flow_powers)
        kinds = ["lshippp", "cppp", "fpp"]
        rating, sigma = sweep_figures(kinds, SUPPLY9, [0.05, 0.15], [0.1, 0.2], 0.15, 4, 0, design_cfg=FAST_CFG)
        assert flattened == [0.2, 0.1]
        assert sum(stacked) == 4 * 3 * 3  # three distinct cells per kind, of four trials each
        assert sigma[3:] == rating[3:]


class TestSweeps:
    def test_integer_valued_float_seeds_and_counts_are_integers(self):
        arch = cppp_from_budget(0.15, flatten(SUPPLY9))
        assert evaluate_cells([(arch, SUPPLY9, 5.0, 3.0)]) == evaluate_cells([(arch, SUPPLY9, 5, 3)])
        kinds = ["lshippp", "cppp", "fpp"]
        assert (sweep_rating(kinds, SUPPLY9, [0.1], trials=4, seed=2.0, design_cfg=FAST_CFG)
                == sweep_rating(kinds, SUPPLY9, [0.1], trials=4, seed=2, design_cfg=FAST_CFG))
        assert (sweep_heterogeneity(kinds, 1.0, [0.1], 0.15, trials=4, seed=2.0, count=5.0, design_cfg=FAST_CFG)
                == sweep_heterogeneity(kinds, 1.0, [0.1], 0.15, trials=4, seed=2, count=5, design_cfg=FAST_CFG))
        assert (sweep_figures(kinds, SUPPLY9, [0.1], [0.1], 0.15, trials=4, seed=2.0, design_cfg=FAST_CFG)
                == sweep_figures(kinds, SUPPLY9, [0.1], [0.1], 0.15, trials=4, seed=2, design_cfg=FAST_CFG))
        for trials, seed in ((4, 2.5), (2.5, 2)):
            with pytest.raises(ParameterError):
                evaluate_cells([(arch, SUPPLY9, trials, seed)])
            with pytest.raises(ParameterError):
                sweep_rating(kinds, SUPPLY9, [0.1], trials=trials, seed=seed, design_cfg=FAST_CFG)

    def test_rating_sweep_is_paired_and_ordered(self):
        grid = [0.1, 0.2]
        records = sweep_rating(
            ["lshippp", "cppp", "fpp"], SUPPLY9, grid, trials=15, seed=2, design_cfg=FAST_CFG,
        )
        assert len(records) == 6
        assert [r.architecture_kind for r in records] == ["lshippp", "cppp", "fpp"] * 2
        assert [r.rating_norm for r in records[:3]] == pytest.approx([0.1] * 3, abs=1e-9)
        assert [r.rating_norm for r in records[3:]] == pytest.approx([0.2] * 3, abs=1e-9)
        # every cell replays the same draw schedule
        assert len({(r.trials, r.seed) for r in records}) == 1

    def test_worker_count_does_not_change_results(self):
        records1 = sweep_rating(
            ["cppp", "fpp"], SUPPLY9, [0.1, 0.3], trials=12, seed=4, workers=1,
        )
        records2 = sweep_rating(
            ["cppp", "fpp"], SUPPLY9, [0.1, 0.3], trials=12, seed=4, workers=2,
        )
        assert records1 == records2

    @pytest.mark.parametrize("sweep", [
        lambda: sweep_rating(["lshippp"], SUPPLY9, [0.1, np.inf], trials=4, seed=0),
        lambda: sweep_heterogeneity(["lshippp"], 1.0, [0.1, np.inf], fixed_budget=0.15, trials=4, seed=0),
        lambda: sweep_heterogeneity(["lshippp"], 1.0, [0.1], fixed_budget=np.inf, trials=4, seed=0),
        lambda: sweep_figures(["lshippp"], SUPPLY9, [np.inf], [0.1], fixed_budget=0.15, trials=4, seed=0),
    ], ids=["rating_grid", "sigma_grid", "fixed_budget", "figures_rating_grid"])
    def test_infinite_budgets_and_spreads_are_refused_before_the_search(self, sweep, monkeypatch):
        def no_search(expected, cfg):
            raise AssertionError("the layer-1 search ran before the grids were checked")

        monkeypatch.setattr(hippp.evaluate, "design_layer1", no_search)
        with pytest.raises(ParameterError):
            sweep()

    @pytest.mark.parametrize("efficiency", [float("nan"), 0.0, -0.2, 1.5])
    def test_a_bad_converter_efficiency_is_refused_before_any_work(self, efficiency, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("work ran before the converter efficiency was checked")

        for name in ("design_layer1", "_draw_block", "flow_powers"):
            monkeypatch.setattr(hippp.evaluate, name, unreachable)
        arch = cppp_from_budget(0.2, flatten(SUPPLY9))
        kinds = ["lshippp", "cppp", "fpp"]
        for run in (
            lambda: evaluate_cells([SweepCell(arch, SUPPLY9, 5, 0), SweepCell(arch, SUPPLY9, 5, 0, efficiency)]),
            lambda: evaluate_one(arch, SUPPLY9, trials=5, seed=0, converter_efficiency=efficiency),
            lambda: sweep_rating(kinds, SUPPLY9, [0.1], trials=5, seed=0, converter_efficiency=efficiency),
            lambda: sweep_heterogeneity(kinds, 1.0, [0.1], fixed_budget=0.15, trials=5, seed=0,
                                        converter_efficiency=efficiency),
            lambda: sweep_figures(kinds, SUPPLY9, [0.1], [0.2], 0.15, 5, 0, converter_efficiency=efficiency),
        ):
            with pytest.raises(ParameterError, match="converter efficiency"):
                run()

    def test_heterogeneity_sweep_shapes(self):
        records = sweep_heterogeneity(
            ["cppp"], 1.0, [0.1, 0.2], fixed_budget=0.15, trials=10, seed=1,
        )
        assert [r.heterogeneity for r in records] == [0.1, 0.2]
        assert all(r.rating_norm == pytest.approx(0.15, abs=1e-9) for r in records)
        # more spread in the supply costs utilization
        assert records[0].utilization > records[1].utilization

    def test_two_battery_hierarchy_end_to_end(self):
        # at N = 2 the one chord runs parallel to the one rung, so the
        # hierarchy is a ladder with the same total rating
        supply = BatterySupply(1.0, 0.2, 2)
        cfg = DesignConfig(num_layer1=1, num_rating_sets=1, layer2_trial_ratings=(0.0, 0.05), monte_carlo_trials=8)
        layer1 = design_layer1(flatten(supply), cfg)
        assert [(e.from_battery, e.to_battery) for e in layer1.edges] == [(0, 1)]
        _, curve = design_layer2(layer1, supply, cfg)
        assert len(curve.points) == 2
        records = sweep_rating(["lshippp", "cppp"], supply, [0.1, 0.2], trials=12, seed=3, design_cfg=cfg)
        for hier, ladder in zip(records[::2], records[1::2]):
            assert hier.architecture_kind == "lshippp" and ladder.architecture_kind == "cppp"
            assert hier.utilization == pytest.approx(ladder.utilization, abs=1e-12)
            assert hier.processed_norm == pytest.approx(ladder.processed_norm, abs=1e-12)

    def test_zero_spread_supply_needs_no_processing(self):
        supply = BatterySupply(1.0, 0.0, 9)
        records = sweep_rating(["lshippp", "cppp"], supply, [0.0, 0.15], trials=6, seed=0, design_cfg=FAST_CFG)
        assert len(records) == 4
        for record in records:
            assert record.utilization == pytest.approx(1.0, abs=1e-12)
            assert record.utilization_std == pytest.approx(0.0, abs=1e-12)
            assert record.processed_norm == pytest.approx(0.0, abs=1e-12)
            assert record.system_efficiency == pytest.approx(1.0, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            sweep_rating(["cppp"], SUPPLY9, [], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_rating(["cppp"], SUPPLY9, [0.2, 0.1], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_rating(["cppp"], SUPPLY9, [-0.1, 0.2], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_rating([], SUPPLY9, [0.1], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_rating(["cppp", "cppp"], SUPPLY9, [0.1], trials=5, seed=0)
        with pytest.raises(ValueError):
            sweep_rating(["nope"], SUPPLY9, [0.1], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_heterogeneity(["cppp"], 1.0, [0.2, 0.1], fixed_budget=0.1, trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_heterogeneity(["cppp"], 1.0, [0.1], fixed_budget=-0.1, trials=5, seed=0)

    def test_nan_grids_fail_before_any_search(self, monkeypatch):
        # NaN passes every ordered comparison as False, so each check is
        # written to fail on it; no layer-1 search may run first
        def no_search(expected, cfg):
            raise AssertionError("the layer-1 search ran before the grid was checked")

        monkeypatch.setattr(hippp.evaluate, "design_layer1", no_search)
        nan = float("nan")
        with pytest.raises(ParameterError):
            sweep_rating(["lshippp"], SUPPLY9, [0.05, nan], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_rating(["lshippp"], SUPPLY9, [nan, 0.05], trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_heterogeneity(["lshippp"], 1.0, [0.1, nan], fixed_budget=0.1, trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_heterogeneity(["lshippp"], 1.0, [0.1], fixed_budget=nan, trials=5, seed=0)
        with pytest.raises(ParameterError):
            sweep_figures(["lshippp"], SUPPLY9, [0.05, nan], [0.2], 0.15, 5, 0)

    def test_architecture_kind_accepts_enum_or_string(self):
        a = sweep_rating([ArchitectureKind.FPP], SUPPLY9, [0.1], trials=5, seed=0)
        b = sweep_rating(["fpp"], SUPPLY9, [0.1], trials=5, seed=0)
        assert a == b
