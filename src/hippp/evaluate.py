"""Monte Carlo evaluation of converter architectures and sweep drivers.

Every evaluation replays seeded capability batches (trial t draws with
seed + t), so two architectures evaluated with the same supply, trial count
and seed see identical batches. That common-random-numbers discipline makes
sweep comparisons paired and bit-reproducible regardless of worker count.
A cell draws its (trials, N) block once, takes every trial's output and
processed power from one powerflow call (closed form over the whole block
for the ladder and full processing; for the hierarchical design, every
trial's current from the cut form and its least-processing flow from one
min-cost flow kernel, both over the whole block, with no LP) and checks its
invariants over all trials at once.

Reported metrics per architecture:

* utilization: delivered power over the batch's total capability, averaged.
* system efficiency: 1 - (processed / delivered) * (1 - converter
  efficiency); only converter-routed power pays the conversion loss.
* processed and delivered power, normalized by the expected string power.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .architecture import Architecture, ArchitectureKind, aggregate_rating, cppp_from_budget, fpp_from_budget
from .design import DesignConfig, design_layer1, lshippp_for_budget
from .errors import InternalCheckError, ParameterError, UndefinedMetricError
from .powerflow import flow_powers
from .supply import BatterySupply, draw_capabilities, flatten

log = logging.getLogger(__name__)

DEFAULT_CONVERTER_EFFICIENCY = 0.85

_UTIL_SLACK = 1e-7


@dataclass(frozen=True)
class MetricsRecord:
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
    if not 0.0 < converter_efficiency <= 1.0:
        raise ParameterError("converter efficiency must lie in (0, 1]")
    processed = np.asarray(processed, dtype=float)
    output = np.asarray(output, dtype=float)
    if np.any(processed < 0.0) or np.any(output < 0.0):
        raise ParameterError("powers must be non-negative")
    if np.any(output == 0.0):
        raise UndefinedMetricError("system efficiency is undefined at zero output")
    efficiency = 1.0 - (processed / output) * (1.0 - converter_efficiency)
    return float(efficiency) if efficiency.ndim == 0 else efficiency


def _first_trial(violations: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(violations)
    return int(hits[0]) if hits.size else None


def evaluate_architecture(
    arch: Architecture,
    supply: BatterySupply,
    trials: int,
    seed: int,
    converter_efficiency: float = DEFAULT_CONVERTER_EFFICIENCY,
) -> MetricsRecord:
    """Replay `trials` seeded batches against `arch` and average the metrics.

    Inline invariants (conservation comes certified from the flow solver) are
    checked on every trial and abort on violation rather than skewing the
    statistics. Every trial delivers power (the bare string is always
    available), so efficiency is defined on each.
    """
    if supply.count != arch.num_batteries:
        raise ParameterError(f"supply count {supply.count} does not match architecture {arch.num_batteries}")
    if int(trials) != trials or trials < 1:
        raise ParameterError("trials must be a positive integer")
    rating_norm = aggregate_rating(arch)
    total_expected = arch.total_expected_power

    caps = np.array([draw_capabilities(supply, seed + t) for t in range(trials)])
    output, processed = flow_powers(caps, arch)
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
        trials=int(trials),
        seed=int(seed),
        utilization=float(utils.mean()),
        utilization_std=float(utils.std(ddof=1)) if trials > 1 else 0.0,
        system_efficiency=float(effs.mean()),
        processed_norm=float(procs.mean()),
        output_norm=float((output / total_expected).mean()),
    )


def _architecture_for(kind: ArchitectureKind, budget: float, expected, layer1) -> Architecture:
    if kind == ArchitectureKind.FPP:
        return fpp_from_budget(budget, expected)
    if kind == ArchitectureKind.CPPP:
        return cppp_from_budget(budget, expected)
    return lshippp_for_budget(layer1, expected, budget)


def _evaluate_cell(cell):
    arch, supply, trials, seed, converter_efficiency = cell
    return evaluate_architecture(arch, supply, trials, seed, converter_efficiency)


def _run_cells(cells, workers: int):
    workers = min(workers, len(cells))  # a forked pool starts every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_evaluate_cell, cells))
    return [_evaluate_cell(cell) for cell in cells]


def _normalize_kinds(kinds) -> list[ArchitectureKind]:
    out = [ArchitectureKind(k) for k in kinds]
    if not out:
        raise ParameterError("at least one architecture kind is required")
    if len(set(out)) != len(out):
        raise ParameterError("architecture kinds must not repeat")
    return out


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
    grid = [float(b) for b in rating_grid]
    if not grid:
        raise ParameterError("rating grid must not be empty")
    if any(b < 0.0 for b in grid):
        raise ParameterError("rating budgets must be non-negative")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ParameterError("rating grid must be strictly increasing")

    expected = flatten(supply)
    layer1 = None
    if ArchitectureKind.LSHIPPP in kinds:
        layer1 = design_layer1(expected, design_cfg or DesignConfig())

    cells = [
        (_architecture_for(kind, budget, expected, layer1), supply, trials, seed, converter_efficiency)
        for budget in grid
        for kind in kinds
    ]
    records = _run_cells(cells, workers)
    for record in records:
        log.debug("sweep cell %s", record)
    return records


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
    sigmas = [float(s) for s in sigma_grid]
    if not sigmas:
        raise ParameterError("sigma grid must not be empty")
    if any(s < 0.0 for s in sigmas):
        raise ParameterError("supply spreads must be non-negative")
    if any(s2 <= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ParameterError("sigma grid must be strictly increasing")
    if not fixed_budget >= 0.0:
        raise ParameterError("rating budget must be non-negative")

    cells = []
    for sigma in sigmas:
        supply = BatterySupply(supply_mean, sigma, count)
        expected = flatten(supply)
        layer1 = None
        if ArchitectureKind.LSHIPPP in kinds:
            layer1 = design_layer1(expected, design_cfg or DesignConfig())
        for kind in kinds:
            cells.append(
                (_architecture_for(kind, fixed_budget, expected, layer1), supply, trials, seed, converter_efficiency)
            )
    return _run_cells(cells, workers)

