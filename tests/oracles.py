"""Brute-force references shared by the flow and acceptance tests."""

import numpy as np

from hippp import ConverterEdge, LinearProgram, LPStatus, architecture_edges, solve
from hippp.powerflow import free_flow_outputs


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
