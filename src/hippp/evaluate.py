"""Monte Carlo evaluation of converter architectures and sweep drivers.

Every evaluation replays seeded capability batches (trial t draws with
seed + t), so two architectures evaluated with the same supply, trial count
and seed see identical batches. That common-random-numbers discipline makes
sweep comparisons paired and bit-reproducible regardless of worker count.

A sweep is one grouped evaluation of its cells (evaluate_cells). Each
distinct cell is evaluated once, and each distinct (supply, trials, seed)
block is drawn once. Cells that share a kind, a battery count and a
layer-1 design form a group, whose cells' rows are stacked and run through
one powerflow call (flow_powers) with each row's own budget rating: closed
form for full processing; for both ladder kinds, every row's current from
one cut form, then the ladder's closed-form dispatch or the hierarchical
design's least-processing flow from one min-cost flow kernel, with no LP.
Every kernel step is elementwise per row, so a cell's rows carry the same
bits as when the cell runs alone.
Each cell's invariants and metric means are then computed in the calling
process, on its own rows. `hippp sweep` evaluates the rating and
heterogeneity sweeps together (sweep_figures), with each distinct supply
flattened once and layer 1 designed once per distinct flattened supply. Under several workers the
unit of work is one group's flow_powers call.

Reported metrics per architecture:

* utilization: delivered power over the batch's total capability, averaged.
* system efficiency: 1 - (processed / delivered) * (1 - converter
  efficiency); only converter-routed power pays the conversion loss.
* processed and delivered power, normalized by the expected string power.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Sequence

import numpy as np

from .architecture import Architecture, ArchitectureKind, Layer1Design, _spend, aggregate_rating
from .design import _UTIL_SLACK, DesignConfig, design_layer1
from .errors import Checked, InternalCheckError, ParameterError, UndefinedMetricError
from .errors import efficiency, grid, nonnegative, nonnegative_finite, single, whole
from .powerflow import flow_powers
from .supply import BatterySupply, ExpectedSet, _draw_block, flatten

log = logging.getLogger(__name__)

DEFAULT_CONVERTER_EFFICIENCY = 0.85


class MetricsRecord(NamedTuple):
    """Mean Monte Carlo metrics for one architecture at one operating point."""

    architecture_kind: str
    rating_norm: float
    heterogeneity: float
    trials: int
    seed: int
    utilization: float
    utilization_std: float
    system_efficiency: float
    processed_norm: float
    output_norm: float


def system_efficiency(processed, output, converter_efficiency: float):
    """Share of delivered power that survives conversion losses.

    Only the processed fraction pays the converter loss, so efficiency is
    affine in processed/output: no processing means lossless delivery, full
    processing degenerates to the bare converter efficiency. Scalar powers
    give a float; equal-shape arrays of per-trial powers give an array.
    """
    loss = 1.0 - efficiency(converter_efficiency)
    processed = nonnegative(processed, "processed powers")
    output = nonnegative(output, "output powers")
    if np.any(output == 0.0):
        raise UndefinedMetricError("system efficiency is undefined at zero output")
    return 1.0 - (processed / output) * loss


def _first_trial(violations: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(violations)
    return int(hits[0]) if hits.size else None


class SweepCell(Checked, NamedTuple("SweepCell", [
    ("arch", Architecture), ("supply", BatterySupply), ("trials", int), ("seed", int),
    ("converter_efficiency", float),
])):
    """One evaluation: `arch` against `trials` seeded draws of `supply` from `seed`."""

    __slots__ = ()

    def __new__(cls, arch, supply, trials, seed, converter_efficiency=DEFAULT_CONVERTER_EFFICIENCY):
        trials = whole(trials, "trials", 1)
        seed = whole(seed, "seed")
        if supply.count != arch.num_batteries:
            raise ParameterError(f"supply count {supply.count} does not match architecture {arch.num_batteries}")
        return super().__new__(cls, arch, supply, trials, seed, efficiency(converter_efficiency))


def evaluate_cells(cells: Sequence[SweepCell], workers: int = 1) -> list[MetricsRecord]:
    """Evaluate every cell as one grouped evaluation; records in cell order.

    Each distinct cell is evaluated once, and every copy of it gets its
    record. Each distinct (supply, trials, seed) block is drawn once. Cells
    sharing a kind, a battery count and a layer-1 design are stacked into
    one flow_powers call, each row at its own cell's budget rating. With
    workers > 1 the calls are spread over a process pool of at most one
    worker per call. Every record is built here, from its own cell's rows,
    and equals, by ==, the record of the cell evaluated alone.
    """
    cells = [SweepCell(*cell) for cell in cells]
    blocks: dict[tuple, np.ndarray] = {}
    groups: dict[tuple, list[tuple[SweepCell, np.ndarray]]] = {}
    for cell in dict.fromkeys(cells):
        arch, supply, trials, seed, _ = cell
        key = (supply, trials, seed)
        if key not in blocks:
            blocks[key] = _draw_block(supply, seed, trials)
        groups.setdefault((arch.kind, arch.num_batteries, arch.layer1), []).append((cell, blocks[key]))

    # generators: a one-process run stacks one group at a time
    caps = (np.concatenate([block for _, block in group]) for group in groups.values())
    archs = (group[0][0].arch for group in groups.values())
    ratings = (np.concatenate([np.full(cell.trials, cell.arch.rating) for cell, _ in group])
               for group in groups.values())
    records: dict[SweepCell, MetricsRecord] = {}
    for group, (output, processed) in zip(groups.values(), _flows(workers, len(groups), caps, archs, ratings)):
        start = 0
        for cell, block in group:
            stop = start + cell.trials
            records[cell] = _cell_record(cell, block, output[start:stop], processed[start:stop])
            start = stop
    return [records[cell] for cell in cells]


def _flows(workers: int, calls: int, *args):
    """flow_powers over each call's (caps, arch, ratings), in order."""
    workers = min(workers, calls)  # a forked pool starts every worker up front
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(flow_powers, *args))
    return map(flow_powers, *args)


def _cell_record(cell: SweepCell, caps: np.ndarray, output: np.ndarray, processed: np.ndarray) -> MetricsRecord:
    """A cell's metric means from its own rows, after its inline invariants.

    Conservation comes certified from the flow kernels; the checks here abort
    on violation rather than skewing the statistics. Every trial delivers
    power (the bare string is always available), so efficiency is defined on
    each.
    """
    arch, supply, trials, seed, converter_efficiency = cell
    rating_norm = aggregate_rating(arch)
    total_expected = arch.total_expected_power
    batch_power = caps.sum(axis=1)
    utils = output / batch_power
    procs = processed / total_expected

    t = _first_trial(utils > 1.0 + _UTIL_SLACK)
    if t is not None:
        raise InternalCheckError(f"utilization {utils[t]} above 1 on trial {t}")
    if arch.kind != ArchitectureKind.FPP:
        # the bare series string is always available as a fallback
        floor = arch.num_batteries * caps.min(axis=1) / batch_power
        t = _first_trial(utils < floor - _UTIL_SLACK)
        if t is not None:
            raise InternalCheckError(f"utilization {utils[t]} below the bare-string floor on trial {t}")
    t = _first_trial(procs > rating_norm + 1e-8)
    if t is not None:
        raise InternalCheckError(f"processed power above installed rating on trial {t}")

    effs = system_efficiency(processed, output, converter_efficiency)
    return MetricsRecord(
        architecture_kind=arch.kind.value,
        rating_norm=rating_norm,
        heterogeneity=supply.std_power,
        trials=trials,
        seed=seed,
        utilization=float(utils.mean()),
        utilization_std=float(utils.std(ddof=1)) if trials > 1 else 0.0,
        system_efficiency=float(effs.mean()),
        processed_norm=float(procs.mean()),
        output_norm=float((output / total_expected).mean()),
    )


def _normalize_kinds(kinds) -> list[ArchitectureKind]:
    try:
        out = [ArchitectureKind(k) for k in kinds]
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    if not out:
        raise ParameterError("at least one architecture kind is required")
    if len(set(out)) != len(out):
        raise ParameterError("architecture kinds must not repeat")
    return out


def _sigma_points(supply_mean: float, sigma_grid, fixed_budget: float, count: int):
    """One supply per spread, each at the fixed budget; BatterySupply refuses a spread it cannot flatten."""
    budget = single(nonnegative_finite, fixed_budget, "rating budget")
    sigmas = grid(sigma_grid, "sigma grid")
    return [(BatterySupply(supply_mean, sigma, count), [budget]) for sigma in sigmas]


def _sweep(kinds, points, trials, seed, design_cfg, converter_efficiency, workers) -> list[MetricsRecord]:
    """Cells point by point, budget by budget, kind by kind, as one grouped evaluation.

    `points` pairs each supply with its budgets. Each distinct supply is
    flattened and given its layer-1 design once, reused for every budget of
    every point with that supply; each budget only re-splits what is left for
    the ladder.
    """
    converter_efficiency = efficiency(converter_efficiency)
    designs: dict[BatterySupply, tuple[ExpectedSet, Layer1Design | None]] = {}
    lshippp = ArchitectureKind.LSHIPPP in kinds
    cells = []
    for supply, budgets in points:
        if supply not in designs:
            expected = flatten(supply)
            designs[supply] = expected, (design_layer1(expected, design_cfg or DesignConfig()) if lshippp else None)
        expected, layer1 = designs[supply]
        cells += [
            SweepCell(_spend(kind, budget, expected, layer1 if kind == ArchitectureKind.LSHIPPP else None),
                      supply, trials, seed, converter_efficiency)
            for budget in budgets
            for kind in kinds
        ]
    records = evaluate_cells(cells, workers)
    for record in records:
        log.debug("sweep cell %s", record)
    return records


def sweep_rating(
    kinds: Sequence[ArchitectureKind | str],
    supply: BatterySupply,
    rating_grid: Sequence[float],
    trials: int,
    seed: int,
    design_cfg: DesignConfig | None = None,
    converter_efficiency: float = DEFAULT_CONVERTER_EFFICIENCY,
    workers: int = 1,
) -> list[MetricsRecord]:
    """Evaluate each kind across a grid of normalized rating budgets.

    The hierarchical design is solved once on the expected set and reused for
    every budget; each budget only re-splits what is left for the ladder.
    """
    kinds = _normalize_kinds(kinds)
    points = [(supply, grid(rating_grid, "rating grid"))]
    return _sweep(kinds, points, trials, seed, design_cfg, converter_efficiency, workers)


def sweep_heterogeneity(
    kinds: Sequence[ArchitectureKind | str],
    supply_mean: float,
    sigma_grid: Sequence[float],
    fixed_budget: float,
    trials: int,
    seed: int,
    count: int = 9,
    design_cfg: DesignConfig | None = None,
    converter_efficiency: float = DEFAULT_CONVERTER_EFFICIENCY,
    workers: int = 1,
) -> list[MetricsRecord]:
    """Evaluate each kind across supply spreads at one fixed rating budget.

    Each spread gets its own flattening and hierarchical design; the budget
    and the draw schedule stay fixed so curves are comparable point-by-point.
    """
    kinds = _normalize_kinds(kinds)
    points = _sigma_points(supply_mean, sigma_grid, fixed_budget, count)
    return _sweep(kinds, points, trials, seed, design_cfg, converter_efficiency, workers)


def sweep_figures(
    kinds: Sequence[ArchitectureKind | str],
    supply: BatterySupply,
    rating_grid: Sequence[float],
    sigma_grid: Sequence[float],
    fixed_budget: float,
    trials: int,
    seed: int,
    design_cfg: DesignConfig | None = None,
    converter_efficiency: float = DEFAULT_CONVERTER_EFFICIENCY,
    workers: int = 1,
) -> tuple[list[MetricsRecord], list[MetricsRecord]]:
    """The rating sweep of `supply` and the heterogeneity sweep around it, evaluated together.

    Returns the records of sweep_rating(kinds, supply, rating_grid, ...) and
    of sweep_heterogeneity(kinds, supply.mean_power, sigma_grid,
    fixed_budget, ..., count=supply.count), equal to them by ==. The spread
    of `supply` shares its block draws and its layer-1 design between the two.
    """
    kinds = _normalize_kinds(kinds)
    ratings = grid(rating_grid, "rating grid")
    points = [(supply, ratings)] + _sigma_points(supply.mean_power, sigma_grid, fixed_budget, supply.count)
    records = _sweep(kinds, points, trials, seed, design_cfg, converter_efficiency, workers)
    split = len(kinds) * len(ratings)
    return records[:split], records[split:]
