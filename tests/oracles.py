"""References shared by the tests: brute-force solves for the flow and acceptance tests, and earlier
formulas that the budget split, flattening and the serial simplex loop must keep, bit for bit."""

import itertools
import math
import re
from enum import Enum
from typing import NamedTuple

import numpy as np

from hippp import ConverterEdge, InternalCheckError, ParameterError, architecture_edges
from hippp._normal import ndtr, ndtri
from hippp.design import _PLACEMENT_BLOCK, _VALUE_TIE_TOL, _check_enumeration
import hippp.lp
from hippp.lp import FEASIBILITY_TOL, solve_stack
from hippp.powerflow import free_flow_outputs
from hippp.supply import MASS_TOL


class LinearProgram(NamedTuple):
    """maximize objective . x  s.t.  a_eq x = b_eq  and  lower <= x <= upper, as float arrays."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def linear_program(objective, a_eq, b_eq, lower, upper) -> LinearProgram:
    """A LinearProgram of whatever array-likes it is given, as float arrays."""
    return LinearProgram(*(np.asarray(values, dtype=float) for values in (objective, a_eq, b_eq, lower, upper)))


class LPStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Solution(NamedTuple):
    status: LPStatus
    values: np.ndarray
    objective_value: float


def failed_lp(exc: InternalCheckError) -> tuple[int, LPStatus]:
    """The index and verdict of the LP that solve_stack's error names; any other fault is re-raised."""
    named = re.fullmatch(r"LP (\d+) of the stack is (infeasible|unbounded)", str(exc))
    if named is None:
        raise exc
    return int(named[1]), LPStatus(named[2])


def solve(lp: LinearProgram) -> Solution:
    """One LP through lp.solve_stack as a stack of one, with its verdict; NaN values and objective unless optimal."""
    try:
        values = solve_stack(lp.objective, lp.a_eq, lp.b_eq, np.asarray(lp.lower)[None], np.asarray(lp.upper)[None])[0]
    except InternalCheckError as exc:
        return Solution(failed_lp(exc)[1], np.full(len(lp.objective), np.nan), np.nan)
    return Solution(LPStatus.OPTIMAL, values, float(lp.objective @ values))


def incidence(pairs, n):
    inc = np.zeros((n, len(pairs)))
    for idx, (src, dst) in enumerate(pairs):
        inc[src, idx] += 1.0
        inc[dst, idx] -= 1.0
    return inc


def build_flow_lp(caps, edges):
    """Maximum-output LP as a LinearProgram: variables [I, f_0..f_{E-1}, p_0..p_{N-1}].

    Row j ties battery j's sourced power to the string current and its
    incident flows, I + (signed flows at j) - p_j = 0; I >= 0, and the
    converter ratings (inf for a free flow) and battery capabilities enter
    as variable bounds. `edges` are ConverterEdges.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    pairs = [(edge.from_battery, edge.to_battery) for edge in edges]
    ratings = np.array([edge.rating for edge in edges], dtype=float)
    a = np.hstack([np.ones((n, 1)), incidence(pairs, n), -np.eye(n)])
    objective = np.zeros(a.shape[1])
    objective[0] = float(n)
    lower = np.concatenate([[0.0], -ratings, -caps])
    upper = np.concatenate([[np.inf], ratings, caps])
    return LinearProgram(objective, a, np.zeros(n), lower, upper)


def free_flow_output(caps, pairs):
    """free_flow_outputs on one placement: N * the smallest component mean."""
    endpoints = np.array(pairs, dtype=np.intp).reshape(1, len(pairs), 2)
    return float(free_flow_outputs(np.asarray(caps, dtype=float), endpoints)[0])


def placement_blocks(n: int, m: int):
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


def exhaustive_tie_band(caps, m):
    """The layer-1 tie band by scoring every placement, block by block.

    The scan design_layer1 ran before its pruned search. Returns (best
    output, band outputs, band endpoints as (P, M, 2)), the band being every
    placement within _VALUE_TIE_TOL of the best, in lexicographic order.
    """
    caps = np.asarray(caps, dtype=float)
    best_output = -np.inf
    contenders = []  # (outputs, endpoints) per block
    for endpoints in placement_blocks(caps.size, m):
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
    return best_output, outputs[in_band], tied[in_band]


def two_lp_design_solve(caps, pairs):
    """The layer-1 design solve as two LinearPrograms through the serial solve.

    Stage 1 is the maximum-output LP of build_flow_lp with unbounded pair
    flows; stage 2 fixes its current and takes the least processed power
    from least_processing_lp with infinite ratings. Returns (|f_e| per edge,
    N * I): powerflow.layer1_design_lp returns the first, and its stage-1
    LP gives the second.
    """
    caps = np.asarray(caps, dtype=float)
    first = solve(build_flow_lp(caps, [ConverterEdge(src, dst, np.inf) for src, dst in pairs]))
    assert first.status is LPStatus.OPTIMAL
    current = float(first.values[0])
    _, flows, _ = least_processing_lp(caps, pairs, np.full(len(pairs), np.inf), current)
    return np.abs(flows), caps.size * current


def _best_current(caps, inc, flows):
    shuttled = inc @ flows                                 # (N, points)
    hi = (caps[:, None] - shuttled).min(axis=0)            # I <= P_j - (Sf)_j
    lo = (-caps[:, None] - shuttled).max(axis=0)           # I >= -P_j - (Sf)_j
    feasible = hi >= np.maximum(lo, 0.0)
    return float(hi[feasible].max()) if feasible.any() else -np.inf


def grid_best_output(caps, pairs, ratings, step=1e-3):
    """Maximum N*I over a dense flow grid; exact up to grid resolution.

    The grid is swept one leading-axis slice at a time to bound memory.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    if not pairs:
        return n * caps.min()
    inc = incidence(pairs, n)
    axes = [np.arange(-r, r + step / 2, step) for r in ratings]
    best = -np.inf
    if len(axes) == 1:
        best = _best_current(caps, inc, axes[0][None, :])
    else:
        tail = np.meshgrid(*axes[1:], indexing="ij")
        tail = np.stack([m.ravel() for m in tail])         # (E-1, points)
        flows = np.empty((len(axes), tail.shape[1]))
        flows[1:] = tail
        for head in axes[0]:
            flows[0] = head
            best = max(best, _best_current(caps, inc, flows))
    return n * best if np.isfinite(best) else 0.0


def ladder_lp_flow(caps, rating):
    """The conventional ladder as two dense LPs, for one capability row.

    Stage 1 maximizes the string current over the adjacent-rung ladder.
    Stage 2 fixes that current and maximizes battery power weighted by string
    position (slot j weighs N - j), which reproduces the decentralized
    dispatch: each battery runs at full capability until the rung chain
    carrying its neighbours' accumulated mismatch saturates, and the strong
    end curtails. Returns (current, rung flows, battery powers).
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    base = build_flow_lp(caps, [ConverterEdge(j, j + 1, rating) for j in range(n - 1)])
    first = solve(base)
    assert first.status is LPStatus.OPTIMAL
    current = float(first.values[0])

    objective = np.zeros_like(base.objective)
    objective[n:] = np.arange(n, 0, -1, dtype=float)   # columns: I, n-1 rungs, n batteries
    lower, upper = base.lower.copy(), base.upper.copy()
    lower[0] = upper[0] = current
    second = solve(LinearProgram(objective, base.a_eq, base.b_eq, lower, upper))
    assert second.status is LPStatus.OPTIMAL
    return current, np.asarray(second.values[1:n]), np.asarray(second.values[n:])


def ladder_interval_currents(caps: np.ndarray, rating: np.ndarray) -> np.ndarray:
    """Maximum string current of the conventional ladder on every row of a (T, N) block, by intervals.

    The interval scan that gave the ladder's current before the chordless cut
    form of powerflow._hierarchical_currents replaced it; `rating` is a (T,)
    array of finite rung ratings. The batteries of an interval [a, b] source
    (b-a+1) * I plus what leaves over its boundary rungs, so I* is the
    smallest (sum of P over [a, b] + rating * boundary rungs) / (b-a+1) over
    the N(N+1)/2 intervals; on a path a union of non-adjacent intervals is
    never tighter than its tightest interval. Sums are accumulated length by
    length, so a one-battery interval is exactly its capability and a zero
    rating gives exactly the weakest one.
    """
    trials, n = caps.shape
    current = np.full(trials, np.inf)
    sums = np.zeros((trials, n))
    for length in range(1, n + 1):
        sums = sums[:, :n - length + 1] + caps[:, length - 1:]
        starts = np.arange(n - length + 1)
        boundary = (starts > 0).astype(float) + (starts + length < n)
        current = np.minimum(current, ((sums + rating[:, None] * boundary) / length).min(axis=1))
    return current


def hierarchical_lp_output(caps, arch):
    """Best output N * I of a string architecture from its stage-1 LP, certified.

    Solves the maximum-output LP over every converter edge of `arch` with the
    in-repo simplex, checks the flow it returns (conservation, capabilities,
    ratings) and gives N times its current.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    edges = architecture_edges(arch)
    pairs = [(e.from_battery, e.to_battery) for e in edges]
    ratings = np.array([e.rating for e in edges])
    sol = solve(build_flow_lp(caps, edges))
    assert sol.status is LPStatus.OPTIMAL
    current = float(sol.values[0])
    flows = np.asarray(sol.values[1:1 + len(edges)])
    battery = np.asarray(sol.values[1 + len(edges):])
    assert np.abs(battery - current - incidence(pairs, n) @ flows).max() <= 1e-8
    assert np.all(np.abs(battery) <= caps + 1e-8)
    assert np.all(np.abs(flows) <= ratings + 1e-8)
    assert current >= -1e-8
    return n * current


def least_processing_lp(caps, pairs, ratings, current):
    """Least processed power sum |f| at a fixed string current, as one dense LP.

    Variables [I, f+, f-, p] with f = f+ - f-: row j ties battery j's power to
    the current and its incident flows (the rows of build_flow_lp with each
    flow split in two), I is fixed, |p_j| <= P_j and f+, f- <= the edge's
    rating, which may be inf. Solved with the in-repo simplex; the flow it
    returns is checked (conservation, capabilities, ratings). Returns
    (sum |f|, flows, battery powers).
    """
    caps = np.asarray(caps, dtype=float)
    ratings = np.asarray(ratings, dtype=float)
    n, e = caps.size, len(pairs)
    inc = incidence(pairs, n)
    a_eq = np.hstack([np.ones((n, 1)), inc, -inc, -np.eye(n)])
    objective = np.zeros(1 + 2 * e + n)
    objective[1:1 + 2 * e] = -1.0
    lower = np.concatenate([[current], np.zeros(2 * e), -caps])
    upper = np.concatenate([[current], ratings, ratings, caps])
    sol = solve(LinearProgram(objective, a_eq, np.zeros(n), lower, upper))
    assert sol.status is LPStatus.OPTIMAL
    values = np.asarray(sol.values)
    flows = values[1:1 + e] - values[1 + e:1 + 2 * e]
    battery = values[1 + 2 * e:]
    assert np.abs(battery - current - inc @ flows).max(initial=0.0) <= 1e-8
    assert np.all(np.abs(battery) <= caps + 1e-8)
    assert np.all(np.abs(flows) <= ratings + 1e-8)
    return -sol.objective_value, flows, battery


# The two LS-HiPPP evaluation kernels as they were first written, kept as byte
# oracles for hippp.powerflow._cut_pass and _ssp_pass: same arguments, same
# results bit for bit. ssp_pass needs the padding arc's tail inside 0..N-1.


def cut_pass(caps: np.ndarray, rung: np.ndarray, ban_in, ban_out, chord_cost) -> np.ndarray:
    """The subset dynamic program of powerflow._hierarchical_currents on one block of rows, one rung rating each."""
    trials, n = caps.shape
    rung = rung[:, None, None]
    shape = (trials, chord_cost.size, n + 1)  # last axis: subset size k
    inside = np.full(shape, np.inf)  # least cost with the current battery in U
    outside = np.full(shape, np.inf)
    inside[:, :, 1] = caps[:, 0, None]
    outside[:, :, 0] = 0.0
    inside += ban_in[0][:, None]
    outside += ban_out[0][:, None]
    for j in range(1, n):
        entered = np.full(shape, np.inf)
        entered[:, :, 1:] = np.minimum(inside[:, :, :-1], outside[:, :, :-1] + rung) + caps[:, j, None, None]
        outside = np.minimum(outside, inside + rung) + ban_out[j][:, None]
        inside = entered + ban_in[j][:, None]
    best = np.minimum(inside, outside)[:, :, 1:] + chord_cost[:, None]
    return (best / np.arange(1, n + 1)).min(axis=(1, 2))


def ssp_pass(caps, currents, ratings, tails, in_arcs) -> np.ndarray:
    """Successive shortest paths of powerflow._least_processing_flows on one block of rows.

    Works on the rows still augmenting: `keep` maps them to the block's rows.
    A round that finds a row with no deficit in reach writes the row back to
    `out` and drops it, since no later round would change it.
    """
    trials, n = caps.shape
    e = ratings.shape[1]
    nodes = np.arange(n)
    in_tails = tails[in_arcs]
    out = np.zeros((trials, e))
    left = np.zeros(trials)  # deficit each row ends with
    keep = np.arange(trials)
    flows = np.zeros((trials, e))
    surplus = caps - currents[:, None]
    supply = np.maximum(surplus, 0.0)
    demand = np.maximum(-surplus, 0.0)
    for _ in range(4 * n * (n + e)):
        rows = np.arange(keep.size)
        # where each arc's flow ends up when saturated, how far off that is, and its cost
        undo_fwd, undo_bwd = flows < 0.0, flows > 0.0
        limit = np.concatenate([np.where(undo_fwd, 0.0, ratings), np.where(undo_bwd, 0.0, -ratings)], axis=1)
        room = np.concatenate([limit[:, :e] - flows, flows - limit[:, e:]], axis=1)
        cost = np.where(np.concatenate([undo_fwd, undo_bwd], axis=1), -1.0, 1.0)
        pad = np.full((keep.size, 1), np.inf)
        in_cost = np.concatenate([np.where(room > 0.0, cost, np.inf), pad], axis=1)[:, in_arcs]

        dist = np.where(supply > 0.0, 0.0, np.inf)
        pred = np.full((keep.size, n), -1, dtype=np.intp)
        for _ in range(n + 1):
            cand = dist[:, in_tails] + in_cost
            best = cand.min(axis=2)
            better = best < dist
            if not better.any():
                break
            dist = np.where(better, best, dist)
            pred = np.where(better, in_arcs[nodes, cand.argmin(axis=2)], pred)
        else:
            raise InternalCheckError("least-processing residual graph has a negative cycle")

        reach = np.where(demand > 0.0, dist, np.inf)
        sink = reach.argmin(axis=1)
        live = np.isfinite(reach[rows, sink])
        if not live.all():
            out[keep[~live]] = flows[~live]
            left[keep[~live]] = demand[~live].sum(axis=1)
            if not live.any():
                break
            keep, flows, supply, demand, ratings = keep[live], flows[live], supply[live], demand[live], ratings[live]
            limit, room, pred, sink = limit[live], room[live], pred[live], sink[live]
            rows = np.arange(keep.size)

        # walk each row's path back to its source, then augment by the bottleneck
        delta = demand[rows, sink]
        node, on, path = sink, np.ones(keep.size, dtype=bool), []
        for _ in range(n):
            arc = pred[rows, node]
            on = on & (arc >= 0)
            if not on.any():
                break
            path.append((on, arc))
            delta = np.where(on, np.minimum(delta, room[rows, arc]), delta)
            node = np.where(on, tails[arc], node)
        if (on & (pred[rows, node] >= 0)).any():
            raise InternalCheckError("least-processing path does not end at a source")
        delta = np.minimum(delta, supply[rows, node])
        for on, arc in path:
            edge = arc % e
            moved = flows[rows, edge] + np.where(arc < e, delta, -delta)
            moved = np.where(delta >= room[rows, arc], limit[rows, arc], moved)
            flows[rows[on], edge[on]] = moved[on]
        supply[rows, node] = np.where(delta >= supply[rows, node], 0.0, supply[rows, node] - delta)
        demand[rows, sink] = np.where(delta >= demand[rows, sink], 0.0, demand[rows, sink] - delta)
    else:
        raise InternalCheckError("least-processing flow did not finish within its augmentation cap")

    if not float(left.max(initial=0.0)) <= FEASIBILITY_TOL:
        raise InternalCheckError("the string current is above what the converter edges can carry")
    return out


def serial_iterate(c, a, b, lower, upper, basis, stat, x, counts) -> None:
    """hippp.lp._iterate as it was written on numpy arrays: pricing, the ratio test
    and the updates as array operations, each solve through np.linalg.solve.
    It reads the solver's constants from hippp.lp, so a patched _STALL_LIMIT
    reaches it too.

    Run simplex iterations in place on one LP with at least one row until
    it is optimal. It runs only stacks of one, so an unbounded LP raises
    InternalCheckError naming LP 0. counts gains what _iterate_many's would
    with no x_B gather: per iteration one iteration, LP iteration and y
    solve, and per step one w solve and w row."""
    bland = False
    stall = 0
    for _ in range(hippp.lp._MAX_ITERATIONS):
        basis_cols = a[:, basis]
        x_nb = x.copy()
        x_nb[basis] = 0.0
        try:
            x[basis] = np.linalg.solve(basis_cols, b - a @ x_nb)
            y = np.linalg.solve(basis_cols.T, c[basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
            raise InternalCheckError(f"singular simplex basis: {exc}") from exc
        reduced = c - y @ a
        reduced[basis] = 0.0
        counts[0] += 1
        counts[1] += 1
        counts[2] += 1

        can_increase = (stat == hippp.lp._NB_LOWER) | (stat == hippp.lp._NB_FREE)
        can_decrease = (stat == hippp.lp._NB_UPPER) | (stat == hippp.lp._NB_FREE)
        movable = upper > lower
        candidates = movable & (
            (can_increase & (reduced > hippp.lp.REDUCED_COST_TOL))
            | (can_decrease & (reduced < -hippp.lp.REDUCED_COST_TOL))
        )
        candidates[basis] = False
        idxs = np.flatnonzero(candidates)
        if idxs.size == 0:
            return
        if bland:
            enter = int(idxs[0])
        else:
            # Dantzig pricing; np.argmax takes the first maximum, i.e. lowest index
            enter = int(idxs[np.argmax(np.abs(reduced[idxs]))])
        direction = 1.0 if (stat[enter] == hippp.lp._NB_LOWER or reduced[enter] > 0.0) else -1.0

        w = np.linalg.solve(basis_cols, a[:, enter])
        counts[3] += 1
        counts[4] += 1
        g = -direction * w  # per-unit change of each basic variable
        xb = x[basis]
        caps = np.full(basis.size, np.inf)
        hits_upper = g > hippp.lp._PIVOT_TOL
        hits_lower = g < -hippp.lp._PIVOT_TOL
        caps[hits_upper] = (upper[basis[hits_upper]] - xb[hits_upper]) / g[hits_upper]
        caps[hits_lower] = (lower[basis[hits_lower]] - xb[hits_lower]) / g[hits_lower]
        np.maximum(caps, 0.0, out=caps)
        step_basic = float(caps.min())
        step_self = upper[enter] - lower[enter]  # bound-to-bound flip distance
        step = min(step_basic, step_self)
        if not np.isfinite(step):
            raise InternalCheckError("LP 0 of the stack is unbounded")

        x[basis] = xb + g * step
        if step_self < step_basic:
            # entering variable flips to its opposite bound; basis unchanged
            x[enter] = upper[enter] if direction > 0 else lower[enter]
            stat[enter] = hippp.lp._NB_UPPER if direction > 0 else hippp.lp._NB_LOWER
        else:
            tied = np.flatnonzero(caps <= step + 1e-12)
            leave_pos = int(tied[np.argmin(basis[tied])])  # lowest variable index wins
            leaving = int(basis[leave_pos])
            x[enter] += direction * step
            if g[leave_pos] > 0:
                x[leaving] = upper[leaving]
                stat[leaving] = hippp.lp._NB_UPPER
            else:
                x[leaving] = lower[leaving]
                stat[leaving] = hippp.lp._NB_LOWER
            stat[enter] = hippp.lp._BASIC
            basis[leave_pos] = enter

        stall = stall + 1 if step <= hippp.lp._DEGENERATE_STEP else 0
        if stall >= hippp.lp._STALL_LIMIT:
            bland = True
    raise InternalCheckError("simplex iteration cap exceeded")


# the budget splits as each builder wrote its own: divide, then floor at zero where layer 1 comes first
def fpp_budget_rating(budget, expected):
    return budget * expected.total_power / expected.count


def cppp_budget_rating(budget, expected):
    return budget * expected.total_power / (expected.count - 1)


def layer2_budget_rating(layer1, expected, budget):
    leftover = budget * expected.total_power - layer1.total_rating
    return max(0.0, leftover / (expected.count - 1))


# flattening through a distribution object: quantile, CDF and interval mean, each on its own
def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


class GaussianCapability(NamedTuple):
    mean: float
    std: float

    def cdf(self, x):
        return ndtr((x - self.mean) / self.std)

    def quantile(self, q):
        return self.mean + self.std * ndtri(q)

    def interval_mean(self, low, high):
        a = (low - self.mean) / self.std
        b = (high - self.mean) / self.std
        mass = ndtr(b) - ndtr(a)
        return self.mean + self.std * (_phi(a) - _phi(b)) / mass


def flatten_distribution(mean, std, count):
    """The expected capabilities of a supply of `count` batteries, or the error class that refuses it."""
    if std == 0.0:
        return np.full(count, mean)
    dist = GaussianCapability(mean, std)
    bounds = [dist.quantile(k / count) for k in range(count + 1)]
    means = np.empty(count)
    for k in range(count):
        if abs(dist.cdf(bounds[k + 1]) - dist.cdf(bounds[k]) - 1.0 / count) > MASS_TOL:
            return InternalCheckError
        means[k] = dist.interval_mean(bounds[k], bounds[k + 1])
    return ParameterError if means[0] <= 0.0 else means
