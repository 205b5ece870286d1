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
same convention. Its dispatch at the maximum current is a min-cost flow with
unit arc costs, solved by successive shortest paths (see
_least_processing_flows).
The conventional ladder has no central optimizer: every battery regulates
toward its full capability and each adjacent converter passes the accumulated
mismatch along until it saturates, so curtailment lands on the strong end of
the string and considerably more power is processed for the same output. On
a path graph that dispatch has an exact closed form (see _ladder_flow).
The hierarchical design is that ladder plus layer-1 chords, so one exact cut
form, a dynamic program over the string (see _hierarchical_currents), gives
the maximum output of both ladder kinds, the conventional one with no
chords. Every step runs on a whole block of draws at once, the cut form and
the min-cost flow with the draws on the last axis of every working array.
Full processing needs no flow model at all. One block path
(_operating_points) gives every kind's operating point on a block of draws;
flow_powers reads its outputs and processed powers, and optimal_flow is its
one-row block.

The flow API is optimal_flow, flow_powers and max_string_outputs (the
stage-1 LP output of every row). Each checks its inputs once, where they
enter (_checked_capabilities and _row_ratings); the wiring comes checked
from Architecture, and the private kernels take their float arrays as
given. Every kind keeps the one rating rule: inf is an unbounded converter,
and an unbounded ladder runs at the row mean. No other module calls a
kernel: the layer-1 search scores placements through free_flow_outputs and
_processing_totals. The architecture gives the wiring and a (T,) array of
one rating per row gives the sizes, and every step is elementwise per row,
so rows of architectures that differ only in their budget rating stack into
one call with the bits of one-row calls.

Layer-1 ratings come first in every edge-rating table, then the ladder's
rungs (_edge_table). The LPs stay for the layer-2 rating curve and the
layer-1 design solve of the chosen placement (layer1_design_lp), whose
printed values they pin bit for bit. Both write their LPs as arrays and take
their optimal points from lp.solve_stack, with the same pivots and bits as
one LP solved alone. Every flow LP here is feasible at zero current with
zero flows, and bounded, so the solver's InternalCheckError on an infeasible
or unbounded LP marks a fault. The maximum-output LP is built in one place
(_stage_one): one objective, constraint matrix and right-hand side for all
rows, and a (rows, variables) block of bounds that holds each row's ratings.
The curve's LPs, one per (trial rating, draw), form its stacks
(max_string_outputs); the design solve is two stacks of one LP each.

Capabilities are per string position, in any order: battery j is the j-th
battery of the string, and a reordered draw is a different string.

Every flow that leaves this module, LP or combinatorial, passes the same
certification: conservation, capabilities, ratings and a non-negative
current.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .architecture import Architecture, ArchitectureKind, ConverterEdge
from .errors import Checked, EnumerationCapError, InternalCheckError, ParameterError, StructuralError, _numbers
from .errors import nonnegative, positive
from .lp import FEASIBILITY_TOL, solve_stack
from .supply import ExpectedSet, _frozen

_Pair = tuple[int, int]


class PowerFlowSolution(Checked, NamedTuple("PowerFlowSolution", [
    ("string_current", float), ("converter_flows", np.ndarray), ("battery_powers", np.ndarray),
    ("output_power", float), ("processed_power", float),
])):
    """One operating point: string current, per-edge flows, per-battery powers."""

    __slots__ = ()

    def __new__(cls, string_current, converter_flows, battery_powers, output_power, processed_power):
        flows, battery = _frozen(_numbers(converter_flows)), _frozen(_numbers(battery_powers))
        if not (np.isfinite(flows).all() and np.isfinite(battery).all()):
            raise ParameterError("converter flows and battery powers must be finite numbers")
        return super().__new__(cls, string_current, flows, battery, output_power, processed_power)


def _flow_matrix(pairs: Sequence[_Pair], n: int) -> np.ndarray:
    """Equality rows of the maximum-output LP over [I, f, p]: row j reads
    I + (signed flows of the edges at battery j) - p_j = 0."""
    e = len(pairs)
    a = np.zeros((n, 1 + e + n))
    a[:, 0] = 1.0
    a[:, 1:1 + e] = _incidence(pairs, n)
    a[:, 1 + e:] = -np.eye(n)
    return a


def _certify(caps, pairs, ratings, current, flows, battery):
    """Conservation and limit checks on finished flows; violations abort.

    Takes one flow, or a block of T flows on the same edges: caps and battery
    (T, N), flows (T, E), current (T,). A NaN anywhere fails the checks.
    """
    current = np.asarray(current)
    mismatch = battery - current[..., None] - flows @ _incidence(pairs, caps.shape[-1]).T
    if not float(np.abs(mismatch).max(initial=0.0)) <= FEASIBILITY_TOL:
        raise InternalCheckError("flow solution violates power conservation")
    if not float((np.abs(battery) - caps).max(initial=0.0)) <= FEASIBILITY_TOL:
        raise InternalCheckError("flow solution exceeds a battery capability")
    if ratings is not None and flows.size:
        if not float((np.abs(flows) - ratings).max(initial=0.0)) <= FEASIBILITY_TOL:
            raise InternalCheckError("flow solution exceeds a converter rating")
    if not float(current.min(initial=0.0)) >= -FEASIBILITY_TOL:
        raise InternalCheckError("string current went negative")


def _incidence(pairs: Sequence[_Pair], n: int) -> np.ndarray:
    inc = np.zeros((n, len(pairs)))
    for idx, (src, dst) in enumerate(pairs):
        inc[src, idx] += 1.0
        inc[dst, idx] -= 1.0
    return inc


def _checked_capabilities(capabilities, arch: Architecture, ndim: int = 1) -> np.ndarray:
    """Capabilities as the floats the capability rule (errors.positive) read, checked once per public call: one
    non-empty vector (ndim 1) or a (T, N) block of them (ndim 2), with a last axis of `arch`'s battery count."""
    caps = positive(capabilities, "capabilities")
    if np.ndim(caps) != ndim or np.size(caps) == 0:
        shape = "vector" if ndim == 1 else "(trials, batteries) block"
        raise ParameterError(f"capabilities must be a non-empty {shape}")
    if caps.shape[-1] != arch.num_batteries:
        raise ParameterError(f"got {caps.shape[-1]} capabilities for {arch.num_batteries} batteries")
    return caps


def _row_ratings(ratings, trials: int) -> np.ndarray:
    """`ratings` as a (trials,) float array, one per row, checked once per public block call.

    Nothing is broadcast, and the values keep the one rating rule
    (errors.nonnegative: inf is unbounded).
    """
    ratings = nonnegative(ratings, "ratings")
    shape = np.shape(ratings)
    if shape != (trials,):
        raise ParameterError(f"ratings must be one per row, an array of shape {(trials,)}, got shape {shape}")
    return ratings


def architecture_edges(arch: Architecture) -> list[ConverterEdge]:
    """Converter edges the flow LP sees: layer 1 first, then the adjacent ladder."""
    if arch.kind == ArchitectureKind.FPP:
        raise StructuralError("full processing has no string-side converter edges")
    chords = arch.layer1.edges if arch.layer1 is not None else ()
    return list(chords) + [ConverterEdge(j, j + 1, arch.rating) for j in range(arch.num_batteries - 1)]


def _edge_table(arch: Architecture, rungs: np.ndarray) -> tuple[list[_Pair], np.ndarray]:
    """The edge pairs of a string `arch`, as architecture_edges lists them, and a (T, E) table of their
    ratings: row t keeps the layer-1 ratings and rates every ladder rung rungs[t]."""
    edges = architecture_edges(arch)
    table = np.empty((len(rungs), len(edges)))
    table[:] = [edge.rating for edge in edges]
    table[:, len(edges) - (arch.num_batteries - 1):] = rungs[:, None]
    return [(edge.from_battery, edge.to_battery) for edge in edges], table


def _ladder_flow(caps: np.ndarray, rating: np.ndarray, current: np.ndarray):
    """Conventional-ladder dispatch of every row of a (T, N) block, row t at string current current[t].

    Rung j joins batteries j and j+1 and carries f_j, at most rating[t]
    either way on row t (inf means unbounded); `rating` and `current` are
    (T,) arrays, the current at most the ladder's maximum (see
    _hierarchical_currents). Battery j sources p_j = I + f_j - f_{j-1}, with
    virtual rungs f_{-1} = f_{N-1} = 0 at the string ends. Returns the rung
    flows (T, N-1) and battery powers (T, N), all certified. Rows are
    independent: a block gives, row for row, the same bits as one-row calls.

    The dispatch weights slot j by N-j, and those weights telescope:
    sum_j (N-j) p_j = const + sum_j f_j. So the ladder maximizes the sum of
    rung flows under the difference constraints f_j - f_{j-1} <= P_j - I,
    f_{j-1} - f_j <= P_j + I and f_j <= rating. Its unique optimum is the
    greatest feasible flow: one forward pass f_j = min(rating, f_{j-1} + P_j
    - I), then one backward pass f_j = min(f_j, f_{j+1} + P_{j+1} + I).
    """
    trials, n = caps.shape
    padded = np.zeros((trials, n + 1))  # column j + 1 holds f_j
    surplus = caps - current[:, None]
    for j in range(n - 1):
        padded[:, j + 1] = np.minimum(rating, padded[:, j] + surplus[:, j])
    headroom = caps + current[:, None]
    for j in range(n - 2, -1, -1):
        padded[:, j + 1] = np.minimum(padded[:, j + 1], padded[:, j + 2] + headroom[:, j + 1])
    flows = padded[:, 1:n]
    battery = current[:, None] + padded[:, 1:] - padded[:, :-1]

    pairs = [(j, j + 1) for j in range(n - 1)]
    _certify(caps, pairs, np.broadcast_to(rating[:, None], flows.shape), current, flows, battery)
    return flows, battery


# cells per pass of the least-processing kernel, and the most cut-form state
# cells one row may need; bounds their working arrays the way the placement
# block bounds the search. It also caps the LPs per stage-1 stack of
# max_string_outputs at _CUT_CELLS // (N * (variables + N))
_CUT_CELLS = 1 << 18
# cut-form state cells per pass: small enough to stay in a core's cache, which
# halves the cut form's time on the default sweep against _CUT_CELLS
_CUT_PASS_CELLS = 1 << 16


def _hierarchical_currents(caps: np.ndarray, arch: Architecture, rung: np.ndarray) -> np.ndarray:
    """Maximum string current of a ladder or hierarchical `arch` on every row of a (T, N) block.

    `rung` is a (T,) array of ladder ratings, one per row (inf means
    unbounded); the layer-1 chords are those of `arch`, which Architecture
    has already checked, and the conventional ladder has none. So one cut
    form gives the current of both ladder kinds.

    By the Gale/Hoffman feasibility condition, current I is reachable exactly
    when every non-empty battery subset U can source |U| * I from its own
    capabilities plus the ratings of the converters crossing its boundary. So
    I* = min over U of (sum of P over U + r * ladder rungs crossed + ratings
    of the layer-1 chords crossed) / |U|, with r the ladder rating.

    The minimum is taken exactly without listing the 2^N subsets. Fix which
    of the d distinct chord endpoints lie in U (2^d patterns, at most 4^M for
    M chords, one with none): the chord term is then a constant of the
    pattern, and what is left is a path. One pass over the batteries keeps,
    per pattern, per subset size k and per membership of the current
    battery, the least sum of P over U plus r times the rungs crossed so
    far, with the membership of each chord endpoint forced by the pattern.
    I* is the least (that sum + chord term) / k. A one-battery subset with
    zero ratings costs exactly its capability, and an unbounded ladder
    leaves only the whole string, at its mean.

    Rows are independent and every step is elementwise, so a block gives, row
    for row, the same bits as one-row calls, whatever rung rating each row
    has. Rows go through in passes of at most _CUT_PASS_CELLS cells of their
    widest state (see _cut_pass); an architecture whose single row needs more
    than _CUT_CELLS is refused with EnumerationCapError.
    """
    trials, n = caps.shape
    chords = arch.layer1.edges if arch.layer1 is not None else ()

    ends = {battery for edge in chords for battery in (edge.from_battery, edge.to_battery)}
    # after battery j: the patterns of the endpoints up to j by sizes 0..j+1
    cells = max((1 << sum(end <= j for end in ends)) * (j + 2) for j in range(n))
    if cells > _CUT_CELLS:
        raise EnumerationCapError(
            f"{len(ends)} distinct layer-1 endpoints need {cells} cut states per draw, "
            f"over the cap of {_CUT_CELLS}"
        )
    # bit s of pattern p says whether the s-th endpoint along the string is in U
    slot = {battery: s for s, battery in enumerate(sorted(ends))}
    pattern = np.arange(1 << len(ends))
    chord_cost = np.zeros(pattern.size)
    for edge in chords:
        crossed = ((pattern >> slot[edge.from_battery]) ^ (pattern >> slot[edge.to_battery])) & 1
        chord_cost[crossed.astype(bool)] += edge.rating

    rows = max(1, _CUT_PASS_CELLS // cells)
    return np.concatenate([
        _cut_pass(caps[start:start + rows], rung[start:start + rows], ends, chord_cost)
        for start in range(0, trials, rows)
    ])


def _cut_pass(caps: np.ndarray, rung: np.ndarray, ends, chord_cost) -> np.ndarray:
    """The subset dynamic program of _hierarchical_currents on one block of rows, one rung rating each.

    States are (subset size k, pattern, row). Patterns that differ only in
    endpoints not reached yet are equal, so the pass starts with one and
    doubles them at each chord endpoint of `ends`: the first half has the
    endpoint outside U, so its states with it in U are inf, and the second
    half has it in U, so its states with it outside are inf. Pattern p + 2^s
    is thus p with endpoint s in U, as in chord_cost. Sizes stop at j + 1
    after battery j. Before battery 0 only the empty subset exists, at cost
    0 on either side, so battery 0 crosses no rung whichever side it takes.
    """
    trials, n = caps.shape
    caps = np.ascontiguousarray(caps.T)
    inside = outside = np.zeros((1, 1, trials))  # least cost with the current battery in U, and outside it
    for j in range(n):
        patterns = inside.shape[1]
        entered = np.empty((j + 2, 2 * patterns if j in ends else patterns, trials))
        stayed = np.empty_like(entered)
        entered[0] = stayed[-1] = np.inf
        if j in ends:
            entered[:, :patterns] = stayed[:, patterns:] = np.inf
        np.add(np.minimum(inside, outside + rung), caps[j], out=entered[1:, -patterns:])
        np.minimum(outside, inside + rung, out=stayed[:-1, :patterns])
        inside, outside = entered, stayed
    best = np.minimum(inside, outside)[1:] + chord_cost[:, None]
    return (best / np.arange(1, n + 1)[:, None, None]).min(axis=(0, 1))


def _least_processing_flows(caps: np.ndarray, pairs: Sequence[_Pair], ratings: np.ndarray, currents: np.ndarray):
    """Flows of least processed power sum |f_e| on every row of a (T, N) block.

    Row t runs at string current currents[t] over the converter edges `pairs`,
    edge e rated either way by ratings[t, e] of a (T, E) table (inf means
    unbounded). Returns the flows (T, E) and battery powers (T, N), all
    certified. Rows are independent and every step is elementwise, so a
    block gives, row for row, the same bits as one-row calls.

    At a fixed current this is a min-cost flow with unit arc costs. Battery j
    has a deficit max(0, I - P_j) that must flow in and a surplus
    max(0, P_j - I) that may flow out. No optimum absorbs more than a deficit
    or sends more than a surplus: decompose the flow into paths and cycles,
    and a path that ends past a deficit (or starts past a surplus) can be
    removed, which keeps every |p_j| <= P_j and lowers sum |f|. So the bounds
    |p_j| <= P_j reduce to these supplies and demands, and the optimum moves
    exactly the total deficit.

    It is solved by successive shortest paths (Ahuja, Magnanti and Orlin,
    Network Flows, 1993, ch. 9), starting from zero flow. Edge e gives one
    residual arc each way, whose marginal cost is -1 while it undoes the
    flow already on e and +1 beyond that, up to the rating. Each round runs
    Bellman-Ford from every battery with surplus left, over a padded table of
    incoming arcs, and augments along the path to the nearest battery with
    deficit left by its bottleneck; a saturated arc, supply or demand is set
    to its limit exactly, so every round saturates something. A row stops
    when no battery with deficit left is reachable; stopping earlier at a
    small deficit would leave sum |f| short by that deficit times a path
    length. A deficit above FEASIBILITY_TOL left at the end (the current is
    above what the edges can carry) or a row still augmenting after
    4 * N * (N + E) rounds raises InternalCheckError (rows of 300-trial
    default sweeps need at most 13 at N = 9 with M = 3 chords, 17 at N = 12,
    M = 3, 19 at N = 16, M = 2 and 22 at N = 16, M = 3; of lshippp-only
    ones, 20 at N = 24, M = 2 and 22 at N = 32, M = 2). A row with no
    deficit left in reach is finished for good, so it leaves the pass's
    working arrays with its flows written back. Rows go through in passes
    of at most _CUT_CELLS cells of a round's peak state.
    """
    trials, n = caps.shape
    # arc a < E runs src -> dst along edge a; arc E + a runs dst -> src; arc 2E is
    # padding, which leads from the sentinel node N
    e = len(pairs)
    tails = np.array([s for s, _ in pairs] + [d for _, d in pairs] + [n], dtype=np.intp)
    heads = [d for _, d in pairs] + [s for s, _ in pairs]
    incoming = [[a for a, head in enumerate(heads) if head == v] for v in range(n)]
    width = max(1, max(map(len, incoming)))
    in_arcs = np.array([arcs + [2 * e] * (width - len(arcs)) for arcs in incoming], dtype=np.intp)

    # a row's peak: per (node, incoming arc) its cost, candidate and flags; per node
    # its key and eight more; per edge ten arc and flow values
    rows = max(1, _CUT_CELLS // ((n + 1) * (3 * width + 9) + 10 * e))
    flows = np.concatenate([
        _ssp_pass(caps[start:start + rows], currents[start:start + rows], ratings[start:start + rows],
                  tails, in_arcs)
        for start in range(0, trials, rows)
    ])
    battery = np.repeat(currents[:, None], n, axis=1)
    for idx, (src, dst) in enumerate(pairs):
        battery[:, src] += flows[:, idx]
        battery[:, dst] -= flows[:, idx]
    _certify(caps, pairs, ratings, currents, flows, battery)
    return flows, battery


def _ssp_pass(caps, currents, ratings, tails, in_arcs) -> np.ndarray:
    """Successive shortest paths of _least_processing_flows on one block of rows.

    Works on the rows still augmenting, on the last axis of every working
    array: `keep` maps them to the block's rows. A row with no deficit in
    reach is written back to `out` and dropped.

    Bellman-Ford keeps one key per node, (N + 1, rows) with a sentinel node
    N at inf, and reduces the slot-major (W, N + 1, rows) arc costs over the
    leading slot axis. A walk of cost c over k arcs has key c * S + k with
    S = 2 * (N + 2): Bellman-Ford relaxes at most N + 1 arcs, so keys order
    walks by cost, then by arcs, and dist[v] = floor(key[v] / S). Costs are
    +-1, so keys are exact whole numbers, and a key falls exactly when its
    distance does. Ties: the k arcs in v's key are the iteration where
    dist[v] last fell, and an arc u -> v is tight on keys exactly when dist[u]
    was final by iteration k - 1 and attained dist[v] then. So the first
    slot whose candidate equals the key is the one a per-iteration argmin
    keeps. A node where none does gets the padding arc, which leads to N.
    Arc counts drop by one along a path, so a sink whose key holds k arcs is
    k arcs from its source. The bottleneck is the least of the sink's
    demand, the path's room and the source's supply (min is exact, so order
    does not matter), and the path is written with one scatter: a path of a
    predecessor tree repeats no edge.
    """
    trials, n = caps.shape
    e = ratings.shape[1]
    pad = 2 * e
    width = in_arcs.shape[1]
    slots = np.vstack([in_arcs, np.full((1, width), pad)]).T  # (W, N + 1): N has only the padding arc
    in_tails = tails[slots]
    pick = np.vstack([slots, np.full(n + 1, pad)])  # slot W: no incoming arc attains
    rank = np.arange(width)[:, None, None]
    nodes = np.arange(n + 1)[:, None]
    edge_of = np.arange(pad) % e
    sign = np.repeat([1.0, -1.0], e)  # what a unit along each arc adds to its edge's flow
    out = np.zeros((trials, e))
    left = np.zeros(trials)  # deficit each row ends with
    keep = np.arange(trials)
    flows = np.zeros((e, trials))
    signed = np.concatenate([ratings.T, -ratings.T])  # each arc's limit while it adds flow
    surplus = caps.T - currents
    supply = np.maximum(surplus, 0.0)
    demand = np.maximum(-surplus, 0.0)
    cols, inf_row = np.arange(trials), np.full((1, trials), np.inf)
    stride = 2.0 * (n + 2)  # S: more than the N + 1 arcs of any walk Bellman-Ford relaxes
    for _ in range(4 * n * (n + e)):
        # where each arc's flow ends up when saturated, how far off that is, and its cost in
        # key units; an arc that undoes flow always has room, and the padding arc leaves N, at inf
        undo = np.concatenate([flows < 0.0, flows > 0.0])
        limit = np.where(undo, 0.0, signed)
        room = np.concatenate([limit[:e] - flows, flows - limit[e:], inf_row])
        cost = np.where(room > 0.0, stride + 1.0, np.inf)
        cost[:pad][undo] = 1.0 - stride
        in_cost = cost[slots]

        key = np.concatenate([np.where(supply > 0.0, 0.0, np.inf), inf_row])
        cand = np.empty_like(in_cost)
        for _ in range(n + 1):
            np.take(key, in_tails, axis=0, out=cand, mode="clip")  # every index is in range
            cand += in_cost
            best = np.minimum.reduce(cand, axis=0)
            if not (best < key).any():
                break
            key = np.minimum(key, best)
        else:
            raise InternalCheckError("least-processing residual graph has a negative cycle")
        first = (cand != key).astype(np.intp)  # rank of the first slot tight on keys, W where none is
        first *= width
        first += rank
        pred = pick[np.minimum.reduce(first, axis=0), nodes]

        reach = np.where(demand > 0.0, np.floor(key[:n] / stride), np.inf)
        sink = reach.argmin(axis=0)
        live = np.isfinite(reach[sink, cols])
        sunk = key[sink, cols]
        if not live.all():
            out[keep[~live]] = flows[:, ~live].T
            left[keep[~live]] = demand[:, ~live].sum(axis=0)
            if not live.any():
                break
            keep, flows, signed = keep[live], flows[:, live], signed[:, live]
            supply, demand, sink, sunk = supply[:, live], demand[:, live], sink[live], sunk[live]
            limit, room, pred = limit[:, live], room[:, live], pred[:, live]
            cols, inf_row = np.arange(keep.size), inf_row[:, live]
        hops = np.mod(sunk, stride)  # the arcs of each sink's path

        # walk each row's path back to its source, then augment by the bottleneck
        node, path = sink, []
        for _ in range(int(hops.max())):
            arc = pred[node, cols]
            path.append(arc)
            node = tails[arc]
        if (pred[node, cols] != pad).any():
            raise InternalCheckError("least-processing path does not end at a source")
        path = np.array(path)
        on = path != pad
        source = tails[path[on.sum(axis=0) - 1, cols]]
        headroom = room[path, cols]
        want, have = demand[sink, cols], supply[source, cols]
        delta = np.minimum(np.minimum(want, headroom.min(axis=0)), have)
        arc, at = path[on], np.nonzero(on)[1]
        edge, step = edge_of[arc], delta[at]
        moved = flows[edge, at] + sign[arc] * step
        flows[edge, at] = np.where(step >= headroom[on], limit[arc, at], moved)
        supply[source, cols] = np.maximum(have - delta, 0.0)  # exactly 0 once delta reaches it
        demand[sink, cols] = np.maximum(want - delta, 0.0)
    else:
        raise InternalCheckError("least-processing flow did not finish within its augmentation cap")

    if not float(left.max(initial=0.0)) <= FEASIBILITY_TOL:
        raise InternalCheckError("the string current is above what the converter edges can carry")
    return out


def _operating_points(caps: np.ndarray, arch: Architecture, ratings: np.ndarray):
    """(currents, outputs, flows, battery powers) of `arch` on every row of a (T, N) block, row t at ratings[t].

    ratings[t] stands for `arch.rating` on row t: the per-battery rating of
    full processing, the rung rating of the ladder and of the hierarchical
    kind, whose layer-1 design stays that of `arch`. Full processing is
    closed form: every battery delivers through its own converter, so output
    is the sum of rating-clipped capabilities and all of it is processed,
    and a zero rating means no converter was installed, which leaves the
    bare series string. Its flows are one column per battery's converter,
    and none when no row installs one. Both ladder kinds take their
    currents from one cut form (_hierarchical_currents, with no chords for
    the conventional ladder). At those currents the ladder emulates its
    decentralized controls in closed form (_ladder_flow), and the
    hierarchical kind runs the flows of least processed power
    (_least_processing_flows).
    """
    n = caps.shape[1]
    if arch.kind == ArchitectureKind.FPP:
        clipped = np.minimum(caps, ratings[:, None])
        bare = ratings == 0.0
        weakest = caps.min(axis=1)
        outputs = np.where(bare, n * weakest, clipped.sum(axis=1))
        battery = np.where(bare[:, None], weakest[:, None], clipped)
        flows = clipped[:, :0] if bare.all() else clipped
        return np.where(bare, weakest, outputs / n), outputs, flows, battery
    currents = _hierarchical_currents(caps, arch, ratings)
    if arch.kind == ArchitectureKind.CPPP:
        flows, battery = _ladder_flow(caps, ratings, currents)
    else:
        flows, battery = _least_processing_flows(caps, *_edge_table(arch, ratings), currents)
    return currents, n * currents, flows, battery


def optimal_flow(capabilities, arch: Architecture) -> PowerFlowSolution:
    """Best achievable operating point of `arch` on one capability draw.

    The one-row block of _operating_points. The ladder and hierarchical kinds
    both maximize output but run different dispatch among the output-optimal
    patterns. The hierarchical output and processed power are unique; its
    per-edge flows are one least-processing optimum, which where several
    exist may differ from the vertex an LP would return. A bare full
    processing string has no converter flows. Capabilities are per string
    position, in any order: a reordered draw is a different string, whose
    answer may differ.
    """
    caps = _checked_capabilities(capabilities, arch)
    currents, outputs, flows, battery = _operating_points(caps[None, :], arch, np.array([arch.rating]))
    return PowerFlowSolution(
        string_current=float(currents[0]),
        converter_flows=flows[0],
        battery_powers=battery[0],
        output_power=float(outputs[0]),
        processed_power=float(np.abs(flows[0]).sum()),
    )


def _stage_one(caps: np.ndarray, pairs: Sequence[_Pair], table: np.ndarray) -> np.ndarray:
    """Optimal points (T, variables) of the maximum-output LP over [I, f, p] on every row of a (T, N) block.

    Row t maximizes N * I over the rows of _flow_matrix, with |f_e| at most
    table[t, e] (a (T, E) table, inf allowed), |p_j| at most caps[t, j] and
    I >= 0. All rows share one objective, constraint matrix and right-hand
    side, and each row's bounds are written straight into one (T, variables)
    block. The rows go through lp.solve_stack in passes of
    _CUT_CELLS // (N * (variables + N)) LPs, at least one: 970 at N = 9 with
    three layer-1 edges. The cap bounds one stack's working arrays: a
    lockstep step's (K, N, N) basis matrices to _CUT_CELLS cells, and each
    (K, variables + N) array of bounds, values, statuses, codes or reduced
    costs to _CUT_CELLS / N. A row's result does not depend on it, and no
    size beat it beyond noise on the 1000-trial README curve (10,000 LPs,
    four sets of 7-25 alternated rounds, 2-core Xeon): 485 and 15,534 LPs a
    pass at best tied it, 1,941 and 3,883 won some sets and lost others.
    Re-measured once the lockstep gathered on signed-permutation bases (two
    sets of 6 and 8 alternated rounds, median ratios): 485 LPs a pass took
    1.13x and the whole curve in one pass 1.12x; 1,941 took 0.98x in both
    sets and 3,883 1.00x and 1.05x, within the rounds' noise, so the size
    stayed. The rows are certified by one block _certify call.
    """
    trials, n = caps.shape
    e = len(pairs)
    width = 1 + e + n  # variables [I, f_0..f_{E-1}, p_0..p_{N-1}]
    objective = np.zeros(width)
    objective[0] = float(n)
    upper = np.empty((trials, width))
    upper[:, 0] = np.inf
    upper[:, 1:1 + e] = table
    upper[:, 1 + e:] = caps
    lower = -upper
    lower[:, 0] = 0.0
    a = _flow_matrix(pairs, n)
    per_pass = max(1, _CUT_CELLS // (n * (width + n)))
    values = np.empty_like(upper)
    for start in range(0, trials, per_pass):
        part = slice(start, start + per_pass)
        values[part] = solve_stack(objective, a, np.zeros(n), lower[part], upper[part])
    _certify(caps, pairs, table, values[:, 0], values[:, 1:1 + e], values[:, 1 + e:])
    return values


def max_string_outputs(capabilities, arch: Architecture, rungs) -> np.ndarray:
    """Stage 1 of the LP flow of a string `arch` on every row of a (T, N) block.

    `rungs` is a (T,) array of non-negative ladder ratings, inf allowed, one
    per row; a hierarchical design keeps the layer-1 edges of `arch`.
    Returns (T,): entry t is N * I of the maximum-output LP (_stage_one)
    with the edges of arch on row t, equal by == to what that LP gives
    solved alone. For both ladder kinds it agrees with the cut form of
    _hierarchical_currents to rounding, about 1e-16 in the current; the
    layer-2 curve is printed with repr, so it stays on this LP.
    Capabilities are per string position, in any order.
    """
    caps = _checked_capabilities(capabilities, arch, ndim=2)
    pairs, table = _edge_table(arch, _row_ratings(rungs, len(caps)))
    return caps.shape[1] * _stage_one(caps, pairs, table)[:, 0]


def flow_powers(capabilities, arch: Architecture, ratings) -> tuple[np.ndarray, np.ndarray]:
    """Output and processed power sum |f| of `arch` on every row of a (T, N) block.

    `ratings` is a (T,) array: row t runs `arch` at rating ratings[t] (see
    _operating_points). So one call evaluates rows of several architectures
    that differ only in the rating their budget sets. No LP is solved. Row t
    equals optimal_flow(capabilities[t], arch) bit for bit, with arch's
    rating replaced by ratings[t].
    """
    caps = _checked_capabilities(capabilities, arch, ndim=2)
    ratings = _row_ratings(ratings, len(caps))
    _, outputs, flows, _ = _operating_points(caps, arch, ratings)
    return outputs, np.abs(flows).sum(axis=1)


def free_flow_outputs(caps: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Design-mode maximum output of every placement in a block, in closed form.

    `endpoints` is an integer array (P, M, 2) holding the battery pair of each
    of the M edges of P placements. Labels start as battery indices and each
    pass over the edges lowers both endpoints to the smaller label; a component
    spans at most M edges, so M passes leave every battery labelled with the
    smallest index of its component. Capabilities and battery counts are then
    summed per (placement, label) with one bincount each, and the result is
    N * the smallest component mean of each placement.

    That is the optimum of the maximum-output LP with unbounded pair flows.
    Power moves freely inside each connected component C of the placement, so
    a string current I is reachable exactly when |C| * I <= sum of P_j over C
    for every component (the Gale/Hoffman condition: every cut inside a
    component is crossed by an unbounded edge). A battery with no converter
    is a component of its own.
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


def _processing_totals(caps: np.ndarray, endpoints: np.ndarray, currents: np.ndarray) -> np.ndarray:
    """Least total processed power of each placement of a (P, M, 2) run, unbounded flows.

    The design-mode twin of free_flow_outputs: row p runs at currents[p].
    One _least_processing_flows call over the sorted union of the run's
    edges, other rows' edges rated 0 (cost inf, never relaxed). A row's
    edges are a lexicographic subsequence of the union, so each row gets
    the bits of a one-row call on its own edges.
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
    flows, _ = _least_processing_flows(np.broadcast_to(caps, (rows.size, n)), pairs, table, currents)
    return np.abs(flows[rows, cols]).sum(axis=1)


def layer1_design_lp(expected: ExpectedSet, edges: Sequence[_Pair]):
    """Design solve on the expected set with unbounded pair flows, as two LPs.

    `edges` are (from, to) battery pairs of a placement the layer-1 search
    made, taken as given.
    Returns the canonical per-edge processed powers |f_e| at maximum output
    with minimum total processing. The design prints these values with
    repr, so they stay on the LP. Stage 1 is the maximum-output LP
    (_stage_one) with unbounded flows; stage 2 fixes its current and
    minimizes sum |f| over [I, f+, f-, p], with f = f+ - f- and both halves
    non-negative. Each goes through lp.solve_stack as a stack of one, whose
    inner loop is the solver's serial one. Both flows are certified, and a
    stage-2 flow that circulates power both ways along an edge raises
    InternalCheckError.
    """
    caps = expected.capabilities
    n = caps.size
    e = len(edges)
    current = float(_stage_one(caps[None], edges, np.full((1, e), np.inf))[0, 0])

    # f- is the flow of each edge reversed
    a = _flow_matrix(list(edges) + [(dst, src) for src, dst in edges], n)
    objective = np.zeros(1 + 2 * e + n)
    objective[1:1 + 2 * e] = -1.0  # maximize the negated processed power
    lower = np.concatenate([[current], np.zeros(2 * e), -caps])
    upper = np.concatenate([[current], np.full(2 * e, np.inf), caps])
    second = solve_stack(objective, a, np.zeros(n), lower[None], upper[None])[0]
    pos, neg = second[1:1 + e], second[1 + e:1 + 2 * e]
    if e and float(np.minimum(pos, neg).max(initial=0.0)) > 1e-7:
        raise InternalCheckError("flow split left circulating power in both directions")
    flows = pos - neg
    _certify(caps, edges, None, current, flows, second[1 + 2 * e:])
    return np.abs(flows)
