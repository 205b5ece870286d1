"""Release gates for the whole package, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the gate lines as
they complete. Every gate re-derives its numbers from the public API at the
tolerances stated inline; the Monte Carlo gates share two session-scoped
sweeps so the suite stays inside a few minutes on one core.
"""

import time

import numpy as np
import pytest
from oracles import grid_best_output, incidence

from hippp import (
    Architecture,
    ArchitectureKind,
    BatterySupply,
    ConverterEdge,
    DesignConfig,
    Layer1Design,
    architecture_edges,
    cppp_from_budget,
    design_layer1,
    design_layer2,
    flatten,
    lshippp_for_budget,
    optimal_flow,
    sample_battery_set,
    sweep_heterogeneity,
    sweep_rating,
    system_efficiency,
)

SUPPLY = BatterySupply(mean_power=1.0, std_power=0.2, count=9)
KINDS = ("lshippp", "cppp", "fpp")
RATING_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
SIGMA_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
DESIGN_BUDGET = 0.15
TRIALS = 1000
SEED = 0
CFG = DesignConfig(num_layer1=3, num_rating_sets=2)


def gate(label, checks):
    """Print one PASS/FAIL line for a gate and assert its sub-checks."""
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL: " + "; ".join(failed)
    print(f"{label}: {verdict}")
    assert not failed, f"{label} failed on: {failed}"


def pick(records, kind, **wanted):
    out = [r for r in records if r.architecture_kind == kind]
    for field, value in wanted.items():
        out = [r for r in out if abs(getattr(r, field) - value) < 1e-9]
    assert len(out) == 1, f"expected one record for {kind} with {wanted}, got {len(out)}"
    return out[0]


@pytest.fixture(scope="session")
def rating_records():
    return sweep_rating(KINDS, SUPPLY, RATING_GRID, TRIALS, SEED, design_cfg=CFG)


@pytest.fixture(scope="session")
def sigma_records():
    return {
        budget: sweep_heterogeneity(
            ("lshippp", "cppp"), SUPPLY.mean_power, SIGMA_GRID, budget,
            TRIALS, SEED, count=SUPPLY.count, design_cfg=CFG,
        )
        for budget in (0.15, 0.20)
    }


def test_utilization_at_the_design_budget():
    # fresh end-to-end run: design plus a 1000-trial evaluation of all three
    # architectures at the design budget, timed as a whole
    start = time.perf_counter()
    records = sweep_rating(KINDS, SUPPLY, [DESIGN_BUDGET], TRIALS, SEED, design_cfg=CFG)
    elapsed = time.perf_counter() - start
    ls = pick(records, "lshippp")
    ladder = pick(records, "cppp")
    dedicated = pick(records, "fpp")
    gate(
        f"utilization at the design budget "
        f"(sparse {ls.utilization:.4f}, ladder {ladder.utilization:.4f}, "
        f"dedicated {dedicated.utilization:.4f}, {elapsed:.0f}s)",
        [
            ("sparse hierarchy >= 0.92", ls.utilization >= 0.92),
            ("ladder in [0.78, 0.84]", 0.78 <= ladder.utilization <= 0.84),
            ("dedicated in [0.14, 0.16]", 0.14 <= dedicated.utilization <= 0.16),
            ("under five minutes", elapsed < 300.0),
        ],
    )


@pytest.mark.slow
def test_system_efficiency_at_the_design_budget(rating_records):
    ls = pick(rating_records, "lshippp", rating_norm=DESIGN_BUDGET)
    ladder = pick(rating_records, "cppp", rating_norm=DESIGN_BUDGET)
    dedicated = pick(rating_records, "fpp", rating_norm=DESIGN_BUDGET)
    gate(
        f"system efficiency at the design budget "
        f"(sparse {ls.system_efficiency:.4f}, ladder {ladder.system_efficiency:.4f}, "
        f"dedicated {dedicated.system_efficiency:.4f})",
        [
            ("sparse hierarchy >= 0.985", ls.system_efficiency >= 0.985),
            ("ladder in [0.972, 0.984]", 0.972 <= ladder.system_efficiency <= 0.984),
            ("dedicated exactly 0.85", abs(dedicated.system_efficiency - 0.85) <= 1e-12),
        ],
    )


@pytest.mark.slow
def test_processing_share_where_utilization_saturates(rating_records):
    ls = [r for r in rating_records if r.architecture_kind == "lshippp"]
    saturated = [r for r in ls if r.utilization >= 0.99]
    cheapest = min(saturated, key=lambda r: r.rating_norm) if saturated else None
    processed = cheapest.processed_norm if cheapest else float("nan")
    gate(
        f"processing share at the cheapest saturating budget "
        f"(budget {cheapest.rating_norm if cheapest else float('nan'):.4g}, "
        f"processed {processed:.4g})",
        [
            ("some budget reaches 0.99 utilization", cheapest is not None),
            ("processed share <= 0.15 there", cheapest is not None and processed <= 0.15),
        ],
    )


@pytest.mark.slow
def test_dedicated_converters_track_their_rating(rating_records):
    dedicated = [r for r in rating_records if r.architecture_kind == "fpp"]
    worst = max(abs(r.utilization - r.rating_norm) for r in dedicated)
    gate(
        f"dedicated utilization tracks installed rating (worst gap {worst:.4g})",
        [
            ("all ten budgets present", len(dedicated) == len(RATING_GRID)),
            ("|utilization - rating| <= 0.01 everywhere", worst <= 0.01),
        ],
    )


@pytest.mark.slow
def test_sparse_hierarchy_dominates_the_ladder(rating_records, sigma_records):
    checks = []
    # records arrive budget-major; the sparse hierarchy can exceed a small
    # budget (layer 1 is indivisible), so pair the cells by grid position
    for i, budget in enumerate(RATING_GRID):
        row = {r.architecture_kind: r for r in rating_records[i * len(KINDS):(i + 1) * len(KINDS)]}
        ls, ladder = row["lshippp"], row["cppp"]
        checks.append((
            f"budget {budget:.2f}",
            ls.utilization >= ladder.utilization - 1e-9
            and ls.system_efficiency >= ladder.system_efficiency - 1e-9,
        ))
    for budget, records in sigma_records.items():
        for sigma in SIGMA_GRID:
            ls = pick(records, "lshippp", heterogeneity=sigma)
            ladder = pick(records, "cppp", heterogeneity=sigma)
            checks.append((
                f"budget {budget:.2f} sigma {sigma:.2f}",
                ls.utilization >= ladder.utilization - 1e-9
                and ls.system_efficiency >= ladder.system_efficiency - 1e-9,
            ))
    gate(
        f"sparse hierarchy never loses to the ladder ({len(checks)} paired cells)",
        checks,
    )


def test_flow_solver_matches_exhaustive_grid_search():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    checks = []
    while cases < 54:
        style = cases % 3
        if style == 0:                       # two batteries, one converter
            caps = np.sort(rng.uniform(0.3, 1.7, 2))
            rating = float(rng.uniform(0.02, 0.6))
            arch = Architecture(
                ArchitectureKind.CPPP, 2, float(caps.sum()), rating=rating,
            )
            pairs, ratings = [(0, 1)], [rating]
        elif style == 1:                     # three batteries on a ladder
            caps = np.sort(rng.uniform(0.4, 1.6, 3))
            rating = float(rng.uniform(0.02, 0.4))
            arch = Architecture(
                ArchitectureKind.CPPP, 3, float(caps.sum()), rating=rating,
            )
            pairs, ratings = [(0, 1), (1, 2)], [rating, rating]
        else:                                # three batteries, hierarchy
            caps = np.sort(rng.uniform(0.4, 1.6, 3))
            r1 = float(rng.uniform(0.02, 0.15))
            r2 = float(rng.uniform(0.0, 0.10))
            layer1 = Layer1Design((ConverterEdge(0, 2, r1),), 1, (r1,))
            arch = Architecture(
                ArchitectureKind.LSHIPPP, 3, float(caps.sum()),
                rating=r2, layer1=layer1,
            )
            pairs, ratings = [(0, 2), (0, 1), (1, 2)], [r1, r2, r2]
        solved = optimal_flow(caps, arch).output_power
        reference = grid_best_output(caps, pairs, ratings, step=1e-3)
        worst = max(worst, abs(solved - reference))
        cases += 1
    elapsed = time.perf_counter() - start
    checks.append(("54 randomized cases", cases == 54))
    checks.append(("worst gap <= 2e-3", worst <= 2e-3))
    checks.append(("under one minute", elapsed < 60.0))
    gate(
        f"flow solver matches grid search (worst gap {worst:.2e}, {elapsed:.0f}s)",
        checks,
    )


def test_invariant_suite():
    checks = []

    # conservation and bound residuals on fresh draws, both string kinds
    expected = flatten(SUPPLY)
    layer1 = design_layer1(expected, CFG)
    archs = [lshippp_for_budget(layer1, expected, DESIGN_BUDGET),
             cppp_from_budget(DESIGN_BUDGET, expected)]
    worst_conservation = 0.0
    worst_bound = 0.0
    for arch in archs:
        edges = architecture_edges(arch)
        pairs = [(e.from_battery, e.to_battery) for e in edges]
        ratings = np.array([e.rating for e in edges])
        inc = incidence(pairs, SUPPLY.count)
        for t in range(25):
            sample = sample_battery_set(SUPPLY, 5000 + t)
            sol = optimal_flow(sample.capabilities, arch)
            residual = sol.battery_powers - sol.string_current - inc @ sol.converter_flows
            worst_conservation = max(worst_conservation, float(np.abs(residual).max()))
            worst_bound = max(
                worst_bound,
                float((np.abs(sol.converter_flows) - ratings).max(initial=-np.inf)),
                float((np.abs(sol.battery_powers) - sample.capabilities).max()),
            )
    checks.append(("power conservation <= 1e-8", worst_conservation <= 1e-8))
    checks.append(("flow and battery bounds <= 1e-8", worst_bound <= 1e-8))

    # the ladder rating curve never goes down under shared draws
    curve_cfg = DesignConfig(num_layer1=3, num_rating_sets=2, monte_carlo_trials=150)
    _, curve = design_layer2(layer1, SUPPLY, curve_cfg)
    utils = curve.utilizations
    checks.append(
        ("rating curve is non-decreasing", all(a <= b + 1e-12 for a, b in zip(utils, utils[1:])))
    )

    # flattening preserves total power exactly
    worst_mass = max(
        abs(float(flatten(s).capabilities.sum()) - s.mean_power * s.count)
        for s in (SUPPLY, BatterySupply(1.0, 0.05, 9), BatterySupply(1.0, 0.3, 9),
                  BatterySupply(2.0, 0.5, 7), BatterySupply(1.0, 0.2, 40))
    )
    checks.append(("flattening preserves mass <= 1e-12", worst_mass <= 1e-12))

    # seeded sampling is bit-reproducible
    draws = [sample_battery_set(SUPPLY, 123).capabilities for _ in range(2)]
    checks.append(("seeded draws are bit-identical", np.array_equal(draws[0], draws[1])))

    gate(
        f"invariants (conservation {worst_conservation:.1e}, bounds {worst_bound:.1e}, "
        f"mass {worst_mass:.1e})",
        checks,
    )


def test_efficiency_point_values():
    full = system_efficiency(1.0, 1.0, 0.85)
    partial = system_efficiency(0.08, 1.0, 0.85)
    lossless = (system_efficiency(0.0, 1.0, 0.85), system_efficiency(0.0, 3.0, 0.25))
    gate(
        f"efficiency point values ({full:.6g}, {partial:.6g}, {lossless[0]:.6g})",
        [
            ("all-processed gives 0.85", abs(full - 0.85) <= 1e-12),
            ("8 percent processed gives 0.988", abs(partial - 0.988) <= 1e-12),
            ("no processing is lossless", all(abs(v - 1.0) <= 1e-12 for v in lossless)),
        ],
    )
