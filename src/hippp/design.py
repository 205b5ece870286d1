"""Two-stage converter placement and rating for the hierarchical architecture.

Layer 1 is designed on the flattened expected set. A placement of M pair
converters scores its output with unbounded pair flows (free_flow_outputs),
and a pruned search scores only the placements that can reach the tie band
of the best score. Ties go to less processed power, then to the
lexicographically smallest edge list. The winner's design LP
(powerflow.layer1_design_lp) gives processed powers that are collapsed into
K identical-rating groups.

Layer 2 is rated by Monte Carlo: with layer 1 frozen, shared seeded draws
are replayed against a grid of trial ladder ratings, and the mean
utilization per rating forms a curve. The draws are tiled once per trial
rating, and their stage-1 LPs go through one max_string_outputs call with
one rung per row, solved in lockstep (lp.solve_stack) with the bits of
one-at-a-time solves. The curve reports what each rung rating buys; a
design's rung spends what layer 1 left of the budget (lshippp_for_budget).
"""

from __future__ import annotations

import logging
from math import comb
from typing import NamedTuple

import numpy as np

from .architecture import Architecture, ArchitectureKind, ConverterEdge, Layer1Design, _check_sparse, _spend
from .errors import Checked, EnumerationCapError, ParameterError, _numbers, grid, nonnegative, whole
from .powerflow import _processing_totals, free_flow_outputs, layer1_design_lp, max_string_outputs
from .supply import BatterySupply, ExpectedSet, _draw_block, flatten

log = logging.getLogger(__name__)

DEFAULT_ENUMERATION_CAP = 1_000_000

_VALUE_TIE_TOL = 1e-9
_UTIL_SLACK = 1e-7  # the rounding a utilization may carry past 1, below a floor or down a non-decreasing curve

_DEFAULT_TRIAL_RATINGS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.30, 0.50)


class DesignConfig(Checked, NamedTuple("DesignConfig", [
    ("num_layer1", int), ("num_rating_sets", int), ("layer2_trial_ratings", tuple[float, ...]),
    ("monte_carlo_trials", int), ("base_seed", int),
])):
    """Knobs for the two-stage design.

    num_layer1: pair converters placed by the search (M).
    num_rating_sets: identical-rating groups layer 1 is collapsed into (K).
    layer2_trial_ratings: ladder ratings evaluated for the layer-2 curve.
    monte_carlo_trials / base_seed: shared draw schedule; trial t uses
    base_seed + t so every trial rating sees identical batches.
    """

    __slots__ = ()

    def __new__(cls, num_layer1=3, num_rating_sets=2, layer2_trial_ratings=_DEFAULT_TRIAL_RATINGS,
                monte_carlo_trials=1000, base_seed=0):
        m = whole(num_layer1, "num_layer1", 1)
        k = whole(num_rating_sets, "num_rating_sets", 1, m)
        trials, seed = whole(monte_carlo_trials, "monte_carlo_trials", 1), whole(base_seed, "base_seed")
        return super().__new__(cls, m, k, grid(layer2_trial_ratings, "layer2_trial_ratings"), trials, seed)


class Layer2Curve(Checked, NamedTuple("Layer2Curve", [("points", tuple[tuple[float, float], ...])])):
    """Mean utilization vs trial ladder rating, non-decreasing by construction; its ratings are a grid."""

    __slots__ = ()

    def __new__(cls, points):
        # object dtype: numpy converts no entry, the rules below read them
        table = np.array(list(points) if np.iterable(points) else points, dtype=object)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ParameterError("curve points must be (rating, utilization) pairs")
        ratings = grid(table[:, 0].tolist(), "curve rating grid")
        utilizations = _numbers(table[:, 1].tolist())
        if utilizations.ndim != 1 or not all(-_UTIL_SLACK <= u <= 1.0 + _UTIL_SLACK for u in utilizations.tolist()):
            raise ParameterError("curve utilizations must be in [0, 1]")
        self = super().__new__(cls, tuple(zip(ratings, utilizations.tolist())))
        if any(u1 < u0 - _UTIL_SLACK for u0, u1 in zip(self.utilizations, self.utilizations[1:])):
            raise ParameterError("utilization curve must be non-decreasing")
        return self

    @property
    def ratings(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.points)

    @property
    def utilizations(self) -> tuple[float, ...]:
        return tuple(u for _, u in self.points)


def interconnection_count(n: int, m: int) -> int:
    """Number of ways to place m pair converters on an n-battery string."""
    return comb(comb(whole(n, "battery count"), 2), whole(m, "converter count"))


def _check_enumeration(n: int, m: int) -> tuple[int, int]:
    """(n, m) as ints once m pair converters fit on n batteries within the enumeration cap."""
    n = whole(n, "battery count", 2)
    m = whole(m, "converter count", 1, comb(n, 2))
    total = interconnection_count(n, m)
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{total} candidate interconnections exceed the cap of {DEFAULT_ENUMERATION_CAP}; "
            "reduce num_layer1 or the battery count"
        )
    return n, m


def partition_ratings(processed, k: int) -> list[float]:
    """Collapse per-converter processed powers into k identical-rating groups.

    Sorted descending, the top k-1 converters keep their own processed power
    as their rating; everything else is rated at the k-th highest value.
    Ratings come back in the original converter order and never fall below
    the converter's own processed power.
    """
    values = nonnegative(processed, "processed powers")
    if np.ndim(values) != 1 or len(values) == 0:
        raise ParameterError("no processed powers to partition")
    values = values.tolist()
    k = whole(k, "number of rating groups", 1, len(values))
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    kth_value = values[order[k - 1]]
    ratings = [0.0] * len(values)
    for rank, idx in enumerate(order):
        ratings[idx] = values[idx] if rank < k - 1 else kth_value
    return ratings


# placements per kernel call; bounds the search's working memory
_PLACEMENT_BLOCK = 1024
_FIRST_TIE_RUN = 16


def _tie_band(caps: np.ndarray, m: int):
    """(best output, placements scored, band outputs, band endpoints as (P, M, 2)).

    The band: every placement within _VALUE_TIE_TOL of the best, in
    lexicographic order (bounds: design_layer1). Prefixes, pair-table
    indices plus a covered-battery mask, grow by levels, parent-major.
    """
    n, m = _check_enumeration(caps.size, m)
    battery = np.arange(n)
    pairs = np.argwhere(battery[:, None] < battery)
    ends_at = np.searchsorted(pairs[:, 0], battery, side="right")  # first pair past battery b
    reach = n * caps  # bounds any placement that leaves battery b alone
    best = -np.inf  # the incumbent; ends as the best score, as the pairing is scored unless beaten
    if 2 * m <= n:
        pairing = np.stack([battery[:m], n - 1 - battery[:m]], axis=1)
        best = float(free_flow_outputs(caps, pairing[None])[0])
    picks, covered = np.zeros((1, 0), dtype=np.intp), np.zeros((1, n), dtype=bool)
    scored, contenders = 0, []
    for left in range(m - 1, -1, -1):  # edges to place after this level's
        open_ = (reach < best - _VALUE_TIE_TOL) & ~covered
        first_open = np.where(open_.any(axis=1), open_.argmax(axis=1), n - 1)
        hi = np.minimum(ends_at[first_open], len(pairs) - left)
        ends = np.cumsum(np.maximum(hi - (picks[:, -1] + 1 if picks.shape[1] else 0), 0))
        grown = []
        for start in range(0, ends[-1], _PLACEMENT_BLOCK):
            slot = np.arange(start, min(start + _PLACEMENT_BLOCK, ends[-1]))
            parent = np.searchsorted(ends, slot, side="right")
            pick = hi[parent] - ends[parent] + slot
            src, dst = pairs.take(pick, axis=0).T  # take beats fancy indexing
            mask = covered.take(parent, axis=0)
            mask[slot - start, src] = mask[slot - start, dst] = True
            need = reach < best - _VALUE_TIE_TOL  # tau may have risen since the level began
            if need.any():
                open_ = need & ~mask
                keep = ~(open_ & (battery < src[:, None])).any(axis=1) & (open_.sum(axis=1) <= 2 * left)
                parent, pick, mask = parent[keep], pick[keep], mask[keep]
            child = np.concatenate([picks.take(parent, axis=0), pick[:, None]], axis=1)
            if left:
                grown.append((child, mask))
            elif pick.size:
                outputs = free_flow_outputs(caps, pairs.take(child, axis=0))
                scored += outputs.size
                top = float(outputs.max())
                if top > best + _VALUE_TIE_TOL:
                    contenders.clear()
                best = max(best, top)
                in_band = outputs >= best - _VALUE_TIE_TOL
                contenders.append((outputs[in_band], child[in_band]))
        if left:
            picks, covered = (np.concatenate(parts) for parts in zip(*grown))

    outputs = np.concatenate([kept for kept, _ in contenders])
    tied = np.concatenate([child for _, child in contenders])
    in_band = outputs >= best - _VALUE_TIE_TOL
    return best, scored, outputs[in_band], pairs[tied[in_band]]


def design_layer1(expected: ExpectedSet, cfg: DesignConfig) -> Layer1Design:
    """Pruned search for the best M-converter placement on the expected set.

    _tie_band finds the placements whose closed-form output is within
    _VALUE_TIE_TOL of the best, as scoring all would. It drops a
    lexicographic prefix when no completion can reach tau = incumbent -
    _VALUE_TIE_TOL, the incumbent being the pairing (k, N-1-k), k < M, if
    2M <= N, then the best score seen. A battery no edge covers is a
    component of mean P_b, so its placement scores at most fl(N * P_b),
    exactly. Later pairs start at or after battery i, the last pair's first,
    so an uncovered b < i with fl(N * P_b) < tau drops the prefix, as do
    more such batteries than twice the edges left.

    The least total processed power in the band wins, scored in
    lexicographic runs of one least-processing kernel call
    (powerflow._processing_totals), _FIRST_TIE_RUN long, doubling up to
    _PLACEMENT_BLOCK. At current I battery j takes in at least
    max(0, I - P_j) and each |f_e| lands on one battery, so every tied
    placement processes at least floor = sum_j max(0, I - P_j), I the least
    tied output / N. Runs stop once the chosen total is within half the
    tolerance of it (half is rounding margin). The winner's design LP
    (layer1_design_lp) sets the ratings.
    """
    n = expected.count
    m = cfg.num_layer1
    _check_sparse(m, n)
    caps = expected.capabilities
    best_output, scored, outputs, tied = _tie_band(caps, m)
    floor = float(np.maximum(float(outputs.min()) / n - caps, 0.0).sum())
    chosen = 0
    chosen_sum = np.inf
    start, run = 0, _FIRST_TIE_RUN
    while start < len(tied) and chosen_sum > floor + _VALUE_TIE_TOL / 2:
        totals = _processing_totals(caps, tied[start:start + run], outputs[start:start + run] / n)
        for offset, total in enumerate(totals.tolist()):
            # contenders arrive in lexicographic order, so strict improvement only
            if total < chosen_sum - _VALUE_TIE_TOL:
                chosen_sum = total
                chosen = start + offset
            if chosen_sum <= floor + _VALUE_TIE_TOL / 2:
                break  # no later placement can process less (see the docstring)
        start += run
        run = min(2 * run, _PLACEMENT_BLOCK)
    chosen_edges = tuple(map(tuple, tied[chosen].tolist()))
    chosen_processed = layer1_design_lp(expected, chosen_edges)

    total = interconnection_count(n, m)
    log.debug(
        "layer-1 search: %d placements enumerable, %d scored, %d pruned, best output %.6f, edges %s",
        total, scored, total - scored, best_output, chosen_edges,
    )
    ratings = partition_ratings(chosen_processed, cfg.num_rating_sets)
    return Layer1Design(
        edges=tuple(ConverterEdge(src, dst, r) for (src, dst), r in zip(chosen_edges, ratings)),
        rating_partitions=cfg.num_rating_sets,
        processed_at_design=chosen_processed,
    )


def lshippp_for_budget(layer1: Layer1Design, expected: ExpectedSet, budget: float) -> Architecture:
    """Assemble the hierarchical architecture for a normalized rating budget.

    The layer-1 ratings are already bought; the remaining normalized budget
    spreads evenly over the N-1 ladder converters, floored at zero when layer
    1 alone exceeds the budget.
    """
    return _spend(ArchitectureKind.LSHIPPP, budget, expected, layer1)


def design_layer2(layer1: Layer1Design, supply: BatterySupply, cfg: DesignConfig) -> tuple[float, Layer2Curve]:
    """Monte Carlo rating curve for the ladder under a frozen layer 1.

    Every trial rating replays the same seeded batches (common random
    numbers), which also forces the curve to be non-decreasing. Returns the
    cheapest trial rating whose mean utilization already matches the top of
    the curve, and the curve. A design's own rung spends its budget instead
    (lshippp_for_budget).
    """
    arch = lshippp_for_budget(layer1, flatten(supply), 0.0)  # the wiring; every row gets its own rung
    draws = _draw_block(supply, cfg.base_seed, cfg.monte_carlo_trials)
    ratings = cfg.layer2_trial_ratings
    rungs = np.repeat(ratings, len(draws))  # every draw once per trial rating, rating-major
    outputs = max_string_outputs(np.tile(draws, (len(ratings), 1)), arch, rungs)
    utilizations = (outputs.reshape(len(ratings), len(draws)) / draws.sum(axis=1)).mean(axis=1)
    curve = Layer2Curve(zip(ratings, utilizations))
    top = max(curve.utilizations)
    return next(r for r, u in curve.points if u >= top - 1e-9), curve
