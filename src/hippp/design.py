"""Two-stage converter placement and rating for the hierarchical architecture.

Layer 1 is designed against the flattened expected set: every way to place M
pair converters on the string is enumerated, and each placement is scored by
its deliverable power with unbounded pair flows. Power moves freely inside a
connected component of the placement, so that score is N times the smallest
component mean capability (a battery with no converter is its own component),
computed in closed form for blocks of placements at once. Ties are settled
first by less total processed power, from the least-processing min-cost flow
(powerflow.least_processing_flows), then by lexicographically smallest edge
list, so the result is independent of enumeration order. The tied placements
are scored in lexicographic runs, one stacked min-cost flow call per run over
the union of the run's edges, with the bits of one call per placement; the
tie-break stops as soon as a placement reaches a lower bound that every
placement's processing must meet. Only the winner goes through the design
LP (powerflow.layer1_design_lp, two array LPs through lp.solve_stack),
whose optimal processed powers are then collapsed into K identical-rating
groups to cut part count.

Layer 2 is rated by Monte Carlo: with layer 1 frozen, a shared set of seeded
capability draws is replayed against a grid of trial ladder ratings and the
mean utilization of each trial rating forms a curve. Utilization needs only
the maximum output, so the curve is one batched stage-1 solve: every (trial
rating, draw) stage-1 LP goes through one max_string_outputs call, which
writes them as one stack of arrays and solves them in lockstep
(lp.solve_stack) with the bits of one-at-a-time solves. Callers pick the
ladder rating off that curve, usually by spending whatever rating budget
layer 1 left over. Neither layer builds a LinearProgram.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from math import comb

import numpy as np

from .architecture import Architecture, ArchitectureKind, ConverterEdge, Layer1Design, Layer2Design
from .errors import EnumerationCapError, ParameterError
from .powerflow import free_flow_outputs, layer1_design_lp, least_processing_flows, max_string_outputs
from .supply import BatterySupply, ExpectedSet, draw_capabilities, flatten

log = logging.getLogger(__name__)

DEFAULT_ENUMERATION_CAP = 1_000_000

_VALUE_TIE_TOL = 1e-9

_DEFAULT_TRIAL_RATINGS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.30, 0.50)


@dataclass(frozen=True)
class DesignConfig:
    """Knobs for the two-stage design.

    num_layer1: pair converters placed by the search (M).
    num_rating_sets: identical-rating groups layer 1 is collapsed into (K).
    layer2_trial_ratings: ladder ratings evaluated for the layer-2 curve.
    monte_carlo_trials / base_seed: shared draw schedule; trial t uses
    base_seed + t so every trial rating sees identical batches.
    """

    num_layer1: int = 3
    num_rating_sets: int = 2
    layer2_trial_ratings: tuple[float, ...] = _DEFAULT_TRIAL_RATINGS
    monte_carlo_trials: int = 1000
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer2_trial_ratings", tuple(float(r) for r in self.layer2_trial_ratings))
        if int(self.num_layer1) != self.num_layer1 or self.num_layer1 < 1:
            raise ParameterError("num_layer1 must be a positive integer")
        k = self.num_rating_sets
        if int(k) != k or not 1 <= k <= self.num_layer1:
            raise ParameterError("num_rating_sets must lie in 1..num_layer1")
        ratings = self.layer2_trial_ratings
        if len(ratings) == 0:
            raise ParameterError("layer2_trial_ratings must not be empty")
        if any(not r >= 0.0 for r in ratings):
            raise ParameterError("layer2_trial_ratings must be non-negative numbers, not NaN")
        if any(b <= a for a, b in zip(ratings, ratings[1:])):
            raise ParameterError("layer2_trial_ratings must be strictly increasing")
        if int(self.monte_carlo_trials) != self.monte_carlo_trials or self.monte_carlo_trials < 1:
            raise ParameterError("monte_carlo_trials must be a positive integer")
        if int(self.base_seed) != self.base_seed or self.base_seed < 0:
            raise ParameterError("base_seed must be a non-negative integer")


@dataclass(frozen=True)
class Layer2Curve:
    """Mean utilization vs trial ladder rating, non-decreasing by construction."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(r), float(u)) for r, u in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ParameterError("curve needs at least one point")
        for rating, util in pts:
            if rating < 0.0 or not -1e-7 <= util <= 1.0 + 1e-7:
                raise ParameterError("curve points must have rating >= 0 and utilization in [0, 1]")
        for (r0, u0), (r1, u1) in zip(pts, pts[1:]):
            if r1 <= r0:
                raise ParameterError("curve ratings must be strictly increasing")
            if u1 < u0 - 1e-7:
                raise ParameterError("utilization curve must be non-decreasing")

    @property
    def ratings(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.points)

    @property
    def utilizations(self) -> tuple[float, ...]:
        return tuple(u for _, u in self.points)


def interconnection_count(n: int, m: int) -> int:
    """Number of ways to place m pair converters on an n-battery string."""
    return comb(comb(n, 2), m)


def _check_enumeration(n: int, m: int) -> None:
    if int(n) != n or n < 2:
        raise ParameterError("need at least two batteries to place pair converters")
    if int(m) != m or not 1 <= m <= comb(n, 2):
        raise ParameterError("number of converters must lie in 1..C(n,2)")
    total = interconnection_count(n, m)
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{total} candidate interconnections exceed the cap of {DEFAULT_ENUMERATION_CAP}; "
            "reduce num_layer1 or raise the cap deliberately"
        )


def partition_ratings(processed, k: int) -> list[float]:
    """Collapse per-converter processed powers into k identical-rating groups.

    Sorted descending, the top k-1 converters keep their own processed power
    as their rating; everything else is rated at the k-th highest value.
    Ratings come back in the original converter order and never fall below
    the converter's own processed power.
    """
    values = [float(p) for p in processed]
    if len(values) == 0:
        raise ParameterError("no processed powers to partition")
    if any(v < 0.0 for v in values):
        raise ParameterError("processed powers must be non-negative")
    if int(k) != k or not 1 <= k <= len(values):
        raise ParameterError("number of rating groups must lie in 1..number of converters")
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    kth_value = values[order[k - 1]]
    ratings = [0.0] * len(values)
    for rank, idx in enumerate(order):
        ratings[idx] = values[idx] if rank < k - 1 else kth_value
    return ratings


# placements scored per kernel call; bounds the search's working memory
_PLACEMENT_BLOCK = 1024
# tied placements in the tie-break's first kernel call; each later run doubles, up to _PLACEMENT_BLOCK
_FIRST_TIE_RUN = 16


def _placement_blocks(n: int, m: int):
    """Every m-subset of unordered battery pairs, lexicographically, as (P, M, 2) endpoint arrays.

    Pairs are canonically oriented low index -> high index; flows are signed,
    so orientation costs no generality. A placement is an m-combination of
    indices into the lexicographic pair table, and those combinations come
    out in the placements' own lexicographic order. Refuses combinatorial
    blowups past DEFAULT_ENUMERATION_CAP placements.
    """
    _check_enumeration(n, m)
    pair_table = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp)
    picks = itertools.combinations(range(len(pair_table)), m)
    while True:
        block = itertools.islice(picks, _PLACEMENT_BLOCK)
        index = np.fromiter(itertools.chain.from_iterable(block), dtype=np.intp)
        if index.size == 0:
            return
        yield pair_table[index.reshape(-1, m)]


def _processing_totals(caps: np.ndarray, endpoints: np.ndarray, currents: np.ndarray) -> np.ndarray:
    """Least total processed power of each placement of a (P, M, 2) run, unbounded flows.

    One least_processing_flows call scores the whole run, over the sorted
    union of its edges, with each row's own edges unbounded and every other
    edge rated 0. A zero-rated arc has no room, so it costs inf and never
    relaxes. Each placement's edges are a lexicographic subsequence of the
    union, so every battery's incoming arcs list the row's own arcs in their
    own relative order and the kernel picks the same predecessors as on the
    placement alone. Each row's flows, and the sum of their magnitudes over
    its own edges in its own order, are those of a one-row call over the
    placement's own edges, bit for bit.
    """
    n = caps.size
    rows = np.arange(len(endpoints))[:, None]
    codes = endpoints[:, :, 0] * n + endpoints[:, :, 1]
    present = np.zeros(n * n, dtype=bool)
    present[codes] = True
    union = np.flatnonzero(present)
    cols = (np.cumsum(present) - 1)[codes]  # each edge's column in the union
    table = np.zeros((rows.size, union.size))
    table[rows, cols] = np.inf
    pairs = [divmod(code, n) for code in union.tolist()]
    flows, _ = least_processing_flows(np.broadcast_to(caps, (rows.size, n)), pairs, table, currents)
    return np.abs(flows[rows, cols]).sum(axis=1)


def design_layer1(expected: ExpectedSet, cfg: DesignConfig) -> Layer1Design:
    """Exhaustive search for the best M-converter placement on the expected set.

    Every placement is scored by its closed-form maximum output. Those within
    _VALUE_TIE_TOL of the best are scored, in lexicographic order, by their
    least total processed power at their own output, and the least total
    wins. The tied placements go through least_processing_flows in runs, one
    stacked call per run (_processing_totals): the first run holds
    _FIRST_TIE_RUN placements and each later one twice as many, up to
    _PLACEMENT_BLOCK. The scan stops early on a lower bound, and no later run
    is scored once it has. At string current I, battery j must take in at
    least max(0, I - P_j) over its own converters, and each converter's |f_e|
    lands on at most one battery, so every placement delivering N * I
    processes at least floor = sum_j max(0, I - P_j). With I the smallest
    tied output / N, the floor holds for every tied placement, and once the
    chosen total is within half the tolerance of it no later placement can
    undercut it by the full tolerance. The other half is margin against
    rounding. The winner alone then goes through the design LP
    (layer1_design_lp), whose per-edge processed powers set the ratings.
    """
    n = expected.count
    m = cfg.num_layer1
    if m > n - 1:
        raise ParameterError("layer 1 must stay sparse: num_layer1 at most count - 1")
    caps = expected.capabilities
    best_output = -np.inf
    contenders: list[tuple[np.ndarray, np.ndarray]] = []  # (outputs, endpoints) per block
    for endpoints in _placement_blocks(n, m):
        outputs = free_flow_outputs(caps, endpoints)
        top = float(outputs.max())
        if top > best_output + _VALUE_TIE_TOL:
            contenders.clear()  # everything kept so far is now out of the tie band
        best_output = max(best_output, top)
        keep = outputs >= best_output - _VALUE_TIE_TOL
        contenders.append((outputs[keep], endpoints[keep]))

    outputs = np.concatenate([kept for kept, _ in contenders])
    tied = np.concatenate([edges for _, edges in contenders])
    in_band = outputs >= best_output - _VALUE_TIE_TOL
    outputs, tied = outputs[in_band], tied[in_band]
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
    chosen_processed, _ = layer1_design_lp(expected, chosen_edges)

    log.debug(
        "layer-1 search: %d placements scanned, best output %.6f, edges %s",
        interconnection_count(n, m), best_output, chosen_edges,
    )
    ratings = partition_ratings(chosen_processed, cfg.num_rating_sets)
    return Layer1Design(
        edges=tuple(ConverterEdge(src, dst, r) for (src, dst), r in zip(chosen_edges, ratings)),
        rating_partitions=cfg.num_rating_sets,
        processed_at_design=tuple(float(p) for p in chosen_processed),
    )


def layer2_rating_for_budget(layer1: Layer1Design, expected: ExpectedSet, budget: float) -> float:
    """Per-converter ladder rating that spends what layer 1 left of the budget.

    The layer-1 ratings are already bought; the remaining normalized budget
    spreads evenly over the N-1 ladder converters, floored at zero when layer
    1 alone exceeds the budget.
    """
    if not 0.0 <= budget < np.inf:
        raise ParameterError("rating budget must be non-negative and finite")
    n = expected.count
    if n < 2:
        raise ParameterError("a converter ladder needs at least two batteries")
    leftover = budget * expected.total_power - layer1.total_rating
    return max(0.0, leftover / (n - 1))


def lshippp_for_budget(layer1: Layer1Design, expected: ExpectedSet, budget: float) -> Architecture:
    """Assemble the hierarchical architecture for a normalized rating budget."""
    n = expected.count
    rating = layer2_rating_for_budget(layer1, expected, budget)
    return Architecture(
        ArchitectureKind.LSHIPPP,
        num_batteries=n,
        total_expected_power=expected.total_power,
        layer1=layer1,
        layer2=Layer2Design(rating, n - 1),
    )


def design_layer2(
    layer1: Layer1Design,
    supply: BatterySupply,
    cfg: DesignConfig,
    budget: float | None = None,
) -> tuple[Layer2Design, Layer2Curve]:
    """Monte Carlo rating curve for the ladder under a frozen layer 1.

    Every trial rating replays the same seeded batches (common random
    numbers), which also forces the curve to be non-decreasing. The returned
    design spends `budget` when given; otherwise it takes the cheapest trial
    rating whose mean utilization already matches the top of the curve.
    """
    expected = flatten(supply)
    n = expected.count
    spent = None if budget is None else layer2_rating_for_budget(layer1, expected, budget)
    draws = [draw_capabilities(supply, cfg.base_seed + t) for t in range(cfg.monte_carlo_trials)]
    batch_powers = [float(caps.sum()) for caps in draws]

    archs = [
        Architecture(
            ArchitectureKind.LSHIPPP,
            num_batteries=n,
            total_expected_power=expected.total_power,
            layer1=layer1,
            layer2=Layer2Design(rating, n - 1),
        )
        for rating in cfg.layer2_trial_ratings
    ]
    outputs = max_string_outputs(np.stack(draws), archs)
    points = []
    for rating, row in zip(cfg.layer2_trial_ratings, outputs):
        utilizations = [output / total for output, total in zip(row, batch_powers)]
        points.append((rating, float(np.mean(utilizations))))
    curve = Layer2Curve(tuple(points))

    if spent is not None:
        return Layer2Design(spent, n - 1), curve
    top = max(curve.utilizations)
    rating = next(r for r, u in curve.points if u >= top - 1e-9)
    return Layer2Design(rating, n - 1), curve
