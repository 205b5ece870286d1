"""Optimal power flow on a converter-equipped series string.

All batteries share one string current I (bus voltages are taken as 1.0
per-unit, so each battery's bus contribution equals I). A converter edge
moves power directly between its two batteries: a positive flow leaves the
`from` battery and lands on the `to` battery. Battery j must then source

    p_j = I + sum_e s(j, e) * f_e      with s = +1 at `from`, -1 at `to`,

and |p_j| may not exceed the battery's capability. Delivered string power is
N * I; maximizing it is a small LP over {I, flows}.

Among all flow patterns delivering the maximum output there are usually many
that differ only in how much power circulates, so a second stage selects the
pattern each architecture would actually run. The hierarchical design owes
its layer-1 placement to a central optimizer and re-optimizes dispatch the
same way at operation time, so it takes the pattern with the least total
processed power sum |f_e|; converter ratings derived at design time use the
same convention. The conventional ladder has no central optimizer: every
battery regulates toward its full capability and each adjacent converter
passes the accumulated mismatch along until it saturates, so curtailment
lands on the strong end of the string and considerably more power is
processed for the same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .architecture import Architecture, ArchitectureKind, ConverterEdge
from .errors import InternalCheckError, ParameterError, StructuralError
from .lp import FEASIBILITY_TOL, LinearProgram, LPStatus, solve
from .supply import ExpectedSet

_Pair = tuple[int, int]


@dataclass(frozen=True)
class PowerFlowSolution:
    """One operating point: string current, per-edge flows, per-battery powers."""

    string_current: float
    converter_flows: np.ndarray
    battery_powers: np.ndarray
    output_power: float
    processed_power: float

    def __post_init__(self):
        flows = np.array(self.converter_flows, dtype=float)
        powers = np.array(self.battery_powers, dtype=float)
        flows.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "converter_flows", flows)
        object.__setattr__(self, "battery_powers", powers)


def _validate_capabilities(capabilities) -> np.ndarray:
    caps = np.asarray(capabilities, dtype=float)
    if caps.ndim != 1 or caps.size == 0:
        raise ParameterError("capabilities must be a non-empty vector")
    if not np.all(np.isfinite(caps)) or not np.all(caps > 0.0):
        raise ParameterError("capabilities must be positive and finite")
    return caps


def _edge_pairs(edges: Sequence[ConverterEdge] | Sequence[_Pair], n: int) -> list[_Pair]:
    pairs = []
    for edge in edges:
        if isinstance(edge, ConverterEdge):
            a, b = edge.from_battery, edge.to_battery
        else:
            a, b = edge
            if a == b:
                raise StructuralError("converter endpoints must differ")
        if not (0 <= a < n and 0 <= b < n):
            raise StructuralError(f"edge {a}->{b} references a battery outside 0..{n - 1}")
        pairs.append((int(a), int(b)))
    return pairs


def build_flow_lp(capabilities, edges: Sequence[ConverterEdge]) -> LinearProgram:
    """Maximum-output LP: variables [I, f_0..f_{E-1}, p_0..p_{N-1}].

    Row j ties battery j's sourced power to the string current and its
    incident flows; battery capability and converter ratings enter as
    variable bounds.
    """
    caps = _validate_capabilities(capabilities)
    n = caps.size
    pairs = _edge_pairs(edges, n)
    ratings = np.array([edge.rating for edge in edges], dtype=float)
    n_edges = len(pairs)
    n_var = 1 + n_edges + n

    a = np.zeros((n, n_var))
    a[:, 0] = 1.0
    for idx, (src, dst) in enumerate(pairs):
        a[src, 1 + idx] += 1.0
        a[dst, 1 + idx] -= 1.0
    a[:, 1 + n_edges:] = -np.eye(n)

    objective = np.zeros(n_var)
    objective[0] = float(n)
    lower = np.concatenate([[0.0], -ratings, -caps])
    upper = np.concatenate([[np.inf], ratings, caps])
    return LinearProgram(objective, a, np.zeros(n), lower, upper)


def _solve_or_die(lp: LinearProgram, context: str):
    sol = solve(lp)
    if sol.status is not LPStatus.OPTIMAL:
        # zero current with zero flows is always feasible, so this cannot happen
        raise InternalCheckError(f"{context}: solver returned {sol.status.value}")
    return sol


def _min_processed_lp(caps: np.ndarray, pairs: list[_Pair], flow_caps, current: float) -> LinearProgram:
    """Stage 2: fix I and minimize sum |f| via a positive/negative flow split."""
    n = caps.size
    n_edges = len(pairs)
    n_var = 1 + 2 * n_edges + n
    a = np.zeros((n, n_var))
    a[:, 0] = 1.0
    for idx, (src, dst) in enumerate(pairs):
        a[src, 1 + idx] += 1.0
        a[dst, 1 + idx] -= 1.0
        a[src, 1 + n_edges + idx] -= 1.0
        a[dst, 1 + n_edges + idx] += 1.0
    a[:, 1 + 2 * n_edges:] = -np.eye(n)

    objective = np.zeros(n_var)
    objective[1:1 + 2 * n_edges] = -1.0  # maximize the negated processed power
    if flow_caps is None:
        caps_vec = np.full(2 * n_edges, np.inf)
    else:
        caps_vec = np.concatenate([flow_caps, flow_caps])
    lower = np.concatenate([[current], np.zeros(2 * n_edges), -caps])
    upper = np.concatenate([[current], caps_vec, caps])
    return LinearProgram(objective, a, np.zeros(n), lower, upper)


def _cascade_delivery_lp(caps: np.ndarray, pairs: list[_Pair], flow_caps, current: float) -> LinearProgram:
    """Stage 2 for the ladder: fix I and prefer delivery from the weak end.

    Maximizing battery power weighted by string position (weakest slot
    heaviest) reproduces the decentralized dispatch: each battery runs at
    full capability until the converter chain carrying its neighbours'
    accumulated mismatch saturates, and the strong end curtails.
    """
    edges = [ConverterEdge(s, d, r) for (s, d), r in zip(pairs, flow_caps)]
    base = build_flow_lp(caps, edges)
    objective = np.zeros_like(base.objective)
    objective[1 + len(pairs):] = np.arange(caps.size, 0, -1, dtype=float)
    lower = base.lower.copy()
    upper = base.upper.copy()
    lower[0] = upper[0] = current
    return LinearProgram(objective, base.a_eq, base.b_eq, lower, upper)


def _conventional_ladder_flow(caps: np.ndarray, pairs: list[_Pair], flow_caps):
    """Maximize output, then emulate the decentralized ladder dispatch at it."""
    edges = [ConverterEdge(s, d, r) for (s, d), r in zip(pairs, flow_caps)]
    first = _solve_or_die(build_flow_lp(caps, edges), "maximum-output stage")
    current = float(first.values[0])

    second = _solve_or_die(
        _cascade_delivery_lp(caps, pairs, flow_caps, current), "ladder dispatch stage"
    )
    n_edges = len(pairs)
    flows = np.asarray(second.values[1:1 + n_edges])
    battery = np.asarray(second.values[1 + n_edges:])
    return current, flows, battery


def _free_flow_lp(caps: np.ndarray, pairs: list[_Pair]) -> LinearProgram:
    """Design-mode stage 1: the flow LP with unbounded pair flows."""
    rated = build_flow_lp(caps, [ConverterEdge(s, d, 0.0) for s, d in pairs])
    lower = rated.lower.copy()
    upper = rated.upper.copy()
    lower[1:1 + len(pairs)] = -np.inf
    upper[1:1 + len(pairs)] = np.inf
    return LinearProgram(rated.objective, rated.a_eq, rated.b_eq, lower, upper)


def _optimal_split_flow(caps: np.ndarray, pairs: list[_Pair], flow_caps):
    """Maximize output, then minimize processed power at that output."""
    if flow_caps is not None:
        edges = [ConverterEdge(s, d, r) for (s, d), r in zip(pairs, flow_caps)]
        stage1 = build_flow_lp(caps, edges)
    else:
        stage1 = _free_flow_lp(caps, pairs)

    first = _solve_or_die(stage1, "maximum-output stage")
    current = float(first.values[0])

    stage2 = _min_processed_lp(caps, pairs, flow_caps, current)
    second = _solve_or_die(stage2, "minimum-processing stage")
    n_edges = len(pairs)
    pos = second.values[1:1 + n_edges]
    neg = second.values[1 + n_edges:1 + 2 * n_edges]
    if n_edges and float(np.minimum(pos, neg).max(initial=0.0)) > 1e-7:
        raise InternalCheckError("flow split left circulating power in both directions")
    flows = np.asarray(pos - neg)
    battery = np.asarray(second.values[1 + 2 * n_edges:])
    return current, flows, battery


def _certify(caps, pairs, ratings, current, flows, battery):
    """Conservation and limit checks on a finished flow; violations abort."""
    n = caps.size
    mismatch = battery - current - _incidence(pairs, n) @ flows
    if float(np.abs(mismatch).max(initial=0.0)) > FEASIBILITY_TOL:
        raise InternalCheckError("flow solution violates power conservation")
    if float((np.abs(battery) - caps).max(initial=0.0)) > FEASIBILITY_TOL:
        raise InternalCheckError("flow solution exceeds a battery capability")
    if ratings is not None and flows.size:
        if float((np.abs(flows) - ratings).max(initial=0.0)) > FEASIBILITY_TOL:
            raise InternalCheckError("flow solution exceeds a converter rating")
    if current < -FEASIBILITY_TOL:
        raise InternalCheckError("string current went negative")


def _incidence(pairs: list[_Pair], n: int) -> np.ndarray:
    inc = np.zeros((n, len(pairs)))
    for idx, (src, dst) in enumerate(pairs):
        inc[src, idx] += 1.0
        inc[dst, idx] -= 1.0
    return inc


def _ladder(n: int, rating: float) -> list[ConverterEdge]:
    return [ConverterEdge(j, j + 1, rating) for j in range(n - 1)]


def architecture_edges(arch: Architecture) -> list[ConverterEdge]:
    """Converter edges the flow LP sees: layer 1 first, then the adjacent ladder."""
    if arch.kind == ArchitectureKind.CPPP:
        return _ladder(arch.num_batteries, arch.cppp_rating)
    if arch.kind == ArchitectureKind.LSHIPPP:
        return list(arch.layer1.edges) + _ladder(arch.num_batteries, arch.layer2.rating)
    raise StructuralError("full processing has no string-side converter edges")


def optimal_flow(capabilities, arch: Architecture) -> PowerFlowSolution:
    """Best achievable operating point of `arch` on one capability draw.

    Full processing bypasses the LP: every battery delivers through its own
    converter, so output is the sum of rating-clipped capabilities and all of
    it is processed. A zero rating means no converter was installed at all,
    which leaves the bare series string. The ladder and hierarchical kinds
    both maximize output with the flow LP but run different dispatch among
    the output-optimal patterns: the ladder emulates its decentralized
    controls, the hierarchical design re-optimizes for least processing.
    """
    caps = _validate_capabilities(capabilities)
    n = caps.size
    if n != arch.num_batteries:
        raise ParameterError(f"got {n} capabilities for {arch.num_batteries} batteries")

    if arch.kind == ArchitectureKind.FPP:
        if arch.fpp_rating == 0.0:
            current = float(caps.min())
            return PowerFlowSolution(
                string_current=current,
                converter_flows=np.zeros(0),
                battery_powers=np.full(n, current),
                output_power=n * current,
                processed_power=0.0,
            )
        clipped = np.minimum(caps, arch.fpp_rating)
        output = float(clipped.sum())
        return PowerFlowSolution(
            string_current=output / n,
            converter_flows=clipped.copy(),
            battery_powers=clipped,
            output_power=output,
            processed_power=output,
        )

    edges = architecture_edges(arch)
    pairs = _edge_pairs(edges, n)
    ratings = np.array([edge.rating for edge in edges], dtype=float)
    if arch.kind == ArchitectureKind.CPPP:
        current, flows, battery = _conventional_ladder_flow(caps, pairs, ratings)
    else:
        current, flows, battery = _optimal_split_flow(caps, pairs, ratings)
    _certify(caps, pairs, ratings, current, flows, battery)
    return PowerFlowSolution(
        string_current=current,
        converter_flows=flows,
        battery_powers=battery,
        output_power=n * current,
        processed_power=float(np.abs(flows).sum()),
    )


def free_flow_outputs(caps: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Design-mode maximum output of every placement in a block, in closed form.

    `endpoints` is an integer array (P, M, 2) holding the battery pair of each
    of the M edges of P placements. Labels start as battery indices and each
    pass over the edges lowers both endpoints to the smaller label; a component
    spans at most M edges, so M passes leave every battery labelled with the
    smallest index of its component. Capabilities and battery counts are then
    summed per (placement, label) with one bincount each, and the result is
    N * the smallest component mean of each placement (see max_output_power).
    """
    n = caps.size
    p, m = endpoints.shape[:2]
    rows = np.arange(p)
    labels = np.tile(np.arange(n), (p, 1))
    for _ in range(m):
        for e in range(m):
            src, dst = endpoints[:, e, 0], endpoints[:, e, 1]
            low = np.minimum(labels[rows, src], labels[rows, dst])
            labels[rows, src] = low
            labels[rows, dst] = low
    slots = (labels + n * rows[:, None]).ravel()
    sums = np.bincount(slots, weights=np.tile(caps, p), minlength=p * n).reshape(p, n)
    counts = np.bincount(slots, minlength=p * n).reshape(p, n)
    means = np.divide(sums, counts, out=np.full((p, n), np.inf), where=counts > 0)
    return n * means.min(axis=1)


def max_output_power(capabilities, edges: Sequence[_Pair]) -> float:
    """Stage-1 objective only: the best deliverable power for unrated pair edges.

    With unbounded pair flows, power moves freely inside each connected
    component C of the placement, so a string current I is reachable exactly
    when |C| * I <= sum of P_j over C for every component (the Gale/Hoffman
    condition: every cut inside a component is crossed by an unbounded edge).
    The best output is therefore N * the smallest component mean capability;
    a battery with no converter is a component of its own.
    """
    caps = _validate_capabilities(capabilities)
    pairs = _edge_pairs(edges, caps.size)
    endpoints = np.array(pairs, dtype=np.intp).reshape(1, len(pairs), 2)
    return float(free_flow_outputs(caps, endpoints)[0])


def layer1_design_lp(expected: ExpectedSet, edges: Sequence[_Pair]):
    """Design solve on the expected set with unbounded pair flows.

    Returns (processed, output): the canonical per-edge processed powers
    |f_e| at maximum output with minimum total processing, and that output.
    """
    caps = expected.capabilities
    pairs = _edge_pairs(edges, caps.size)
    current, flows, battery = _optimal_split_flow(caps, pairs, None)
    _certify(caps, pairs, None, current, flows, battery)
    return np.abs(flows), caps.size * current
