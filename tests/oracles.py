"""Brute-force references shared by the flow and acceptance tests."""

import itertools
from typing import NamedTuple

import numpy as np

from hippp import ConverterEdge, InternalCheckError, LPStatus, architecture_edges
from hippp.design import _PLACEMENT_BLOCK, _VALUE_TIE_TOL, _check_enumeration
from hippp.lp import FEASIBILITY_TOL, solve_stack
from hippp.powerflow import free_flow_outputs


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


class Solution(NamedTuple):
    status: LPStatus
    values: np.ndarray
    objective_value: float


def solve(lp: LinearProgram) -> Solution:
    """One LP through lp.solve_stack as a stack of one; values and objective are NaN unless optimal."""
    stack = solve_stack(lp.objective, lp.a_eq, lp.b_eq, np.asarray(lp.lower)[None], np.asarray(lp.upper)[None])
    return Solution(stack.status[0], stack.values[0], float(stack.objective_value[0]))


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
    N * I), as powerflow.layer1_design_lp does.
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
    """The subset dynamic program of hierarchical_currents on one block of rows, one rung rating each."""
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
    """Successive shortest paths of least_processing_flows on one block of rows.

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
