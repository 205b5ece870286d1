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
same convention. Its maximum output has an exact cut form, a dynamic program
over the string (see hierarchical_currents), and its dispatch at that current
is a min-cost flow with unit arc costs, solved by successive shortest paths
(see least_processing_flows); both run on a whole block of draws at once,
with the draws on the last axis of every working array.
The conventional ladder has no central optimizer: every battery regulates
toward its full capability and each adjacent converter passes the accumulated
mismatch along until it saturates, so curtailment lands on the strong end of
the string and considerably more power is processed for the same output. On
a path graph both of its stages have exact closed forms (see ladder_flow),
evaluated for a whole block of capability draws at once. Full processing
needs no flow model at all. Every block kernel takes one rating per row as
well as one for the whole block (flow_powers, hierarchical_currents,
ladder_flow, least_processing_flows), and every step is elementwise per
row, so rows of architectures that differ only in their budget rating stack
into one call with the bits of one-row calls. The LPs stay for the layer-2
rating curve and the layer-1 design solve of the chosen placement
(layer1_design_lp), whose printed values they pin bit for bit. Both write
their LPs as arrays and solve them with lp.solve_stack, with the same
pivots and bits as one LP solved alone. The curve's stage-1 LPs, one per
(trial rating, draw), form stacks (max_string_outputs): one objective,
constraint matrix and right-hand side for all rows, and a (rows,
variables) block of bounds that holds each row's rung. The design solve is two stacks of one LP
each.

Capabilities are per string position, in any order: battery j is the j-th
battery of the string, and a reordered draw is a different string.

Every flow that leaves this module, LP or combinatorial, passes the same
certification: conservation, capabilities, ratings and a non-negative
current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .architecture import Architecture, ArchitectureKind, ConverterEdge
from .errors import EnumerationCapError, InternalCheckError, ParameterError, StructuralError
from .lp import FEASIBILITY_TOL, LPStatus, solve_stack
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


def _validate_capabilities(capabilities, ndim: int = 1) -> np.ndarray:
    """Capabilities as floats: one non-empty vector, or a (T, N) block of them."""
    caps = np.asarray(capabilities, dtype=float)
    if caps.ndim != ndim or caps.size == 0:
        shape = "vector" if ndim == 1 else "(trials, batteries) block"
        raise ParameterError(f"capabilities must be a non-empty {shape}")
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


def _flow_matrix(pairs: Sequence[_Pair], n: int) -> np.ndarray:
    """Equality rows of the maximum-output LP over [I, f, p]: row j reads
    I + (signed flows of the edges at battery j) - p_j = 0."""
    e = len(pairs)
    a = np.zeros((n, 1 + e + n))
    a[:, 0] = 1.0
    a[:, 1:1 + e] = _incidence(pairs, n)
    a[:, 1 + e:] = -np.eye(n)
    return a


def _optimal_points(stage: str, objective, a, b, lower, upper) -> np.ndarray:
    """The (K, n) optimal points of a stack of flow LPs, from lp.solve_stack.

    Every flow LP here is feasible at zero current with zero flows, and its
    objective is bounded, so any other verdict is a solver fault and raises
    InternalCheckError, naming the stage.
    """
    stack = solve_stack(objective, a, b, lower, upper)
    failed = set(stack.status) - {LPStatus.OPTIMAL}
    if failed:
        raise InternalCheckError(f"{stage}: solver returned {failed.pop().value}")
    return stack.values


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


def _row_ratings(rating, trials: int) -> np.ndarray:
    """A rating given once for every row, or a (T,) array of one per row, as (T,) floats."""
    rating = np.asarray(rating, dtype=float)
    if rating.shape not in ((), (trials,)):
        raise ParameterError("need one rating, or one per row")
    return np.broadcast_to(rating, (trials,))


def _ladder(n: int, rating: float) -> list[ConverterEdge]:
    return [ConverterEdge(j, j + 1, rating) for j in range(n - 1)]


def architecture_edges(arch: Architecture) -> list[ConverterEdge]:
    """Converter edges the flow LP sees: layer 1 first, then the adjacent ladder."""
    if arch.kind == ArchitectureKind.FPP:
        raise StructuralError("full processing has no string-side converter edges")
    chords = arch.layer1.edges if arch.layer1 is not None else ()
    return list(chords) + _ladder(arch.num_batteries, arch.rating)


def ladder_flow(capabilities, rating):
    """Conventional-ladder operating point of every row of a (T, N) block.

    Rung j joins batteries j and j+1 and carries f_j, at most `rating` either
    way; `rating` is one value for every row or a (T,) array of one per row.
    Battery j sources p_j = I + f_j - f_{j-1}, with virtual rungs
    f_{-1} = f_{N-1} = 0 at the string ends. Returns the string currents (T,),
    rung flows (T, N-1) and battery powers (T, N), all certified. Rows are
    independent: a block gives, row for row, the same bits as one-row calls.

    Stage 1 is the cut form of the Gale/Hoffman feasibility condition. The
    batteries of an interval [a, b] source (b-a+1) * I plus what leaves over
    its boundary rungs, so I* is the smallest (sum of P over [a, b] + rating *
    boundary rungs) / (b-a+1) over the N(N+1)/2 intervals; on a path a union
    of non-adjacent intervals is never tighter than its tightest interval.
    Sums are accumulated length by length, so a one-battery interval is
    exactly its capability and a zero rating gives exactly the weakest one.

    The dispatch weights slot j by N-j, and those weights telescope:
    sum_j (N-j) p_j = const + sum_j f_j. So the ladder maximizes the sum of
    rung flows under the difference constraints f_j - f_{j-1} <= P_j - I,
    f_{j-1} - f_j <= P_j + I and f_j <= rating. Its unique optimum is the
    greatest feasible flow: one forward pass f_j = min(rating, f_{j-1} + P_j
    - I), then one backward pass f_j = min(f_j, f_{j+1} + P_{j+1} + I).
    """
    caps = _validate_capabilities(capabilities, ndim=2)
    trials, n = caps.shape
    rating = _row_ratings(rating, trials)
    if not np.all(np.isfinite(rating) & (rating >= 0.0)):
        raise ParameterError("ladder rating must be non-negative and finite")

    current = np.full(trials, np.inf)
    sums = np.zeros((trials, n))
    for length in range(1, n + 1):
        sums = sums[:, :n - length + 1] + caps[:, length - 1:]
        starts = np.arange(n - length + 1)
        boundary = (starts > 0).astype(float) + (starts + length < n)
        current = np.minimum(current, ((sums + rating[:, None] * boundary) / length).min(axis=1))

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
    return current, flows, battery


def _checked_capabilities(capabilities, arch: Architecture, ndim: int = 1) -> np.ndarray:
    """Validated capabilities whose last axis matches the battery count of `arch`."""
    caps = _validate_capabilities(capabilities, ndim)
    n = caps.shape[-1]
    if n != arch.num_batteries:
        raise ParameterError(f"got {n} capabilities for {arch.num_batteries} batteries")
    return caps


def _string_edges(arch: Architecture) -> tuple[list[_Pair], np.ndarray]:
    """Edge pairs and ratings of a string architecture."""
    edges = architecture_edges(arch)
    pairs = _edge_pairs(edges, arch.num_batteries)
    return pairs, np.array([edge.rating for edge in edges], dtype=float)


# cells per pass of the least-processing kernel and of the batched stage-1 LPs
# (LPs x rows x columns), and the most cut-form state cells one row may need;
# bounds their working arrays the way the placement block bounds the search
_CUT_CELLS = 1 << 18
# cut-form state cells per pass: small enough to stay in a core's cache, which
# halves the cut form's time on the default sweep against _CUT_CELLS
_CUT_PASS_CELLS = 1 << 16


def hierarchical_currents(capabilities, arch: Architecture, rungs=None) -> np.ndarray:
    """Maximum string current of a hierarchical `arch` on every row of a (T, N) block.

    `rungs`, when given, is a (T,) array of ladder ratings that replaces the
    ladder rating of `arch` row by row; the layer-1 design stays that of
    `arch`.

    By the Gale/Hoffman feasibility condition, current I is reachable exactly
    when every non-empty battery subset U can source |U| * I from its own
    capabilities plus the ratings of the converters crossing its boundary. So
    I* = min over U of (sum of P over U + r * ladder rungs crossed + ratings
    of the layer-1 chords crossed) / |U|, with r the ladder rating.

    The minimum is taken exactly without listing the 2^N subsets. Fix which
    of the d distinct chord endpoints lie in U (2^d patterns, at most 4^M for
    M chords): the chord term is then a constant of the pattern, and what is
    left is a path. One pass over the batteries keeps, per pattern, per
    subset size k and per membership of the current battery, the least sum
    of P over U plus r times the rungs crossed so far, with the membership
    of each chord endpoint forced by the pattern. I* is the least (that sum
    + chord term) / k. A one-battery subset with zero ratings costs exactly
    its capability.

    Rows are independent and every step is elementwise, so a block gives, row
    for row, the same bits as one-row calls, whatever rung rating each row
    has. Rows go through in passes of at most _CUT_PASS_CELLS cells of their
    widest state (see _cut_pass); an architecture whose single row needs more
    than _CUT_CELLS is refused with EnumerationCapError.
    """
    if arch.kind != ArchitectureKind.LSHIPPP:
        raise StructuralError("the cut-form current covers the hierarchical kind only")
    caps = _checked_capabilities(capabilities, arch, ndim=2)
    trials, n = caps.shape
    chords = _edge_pairs(arch.layer1.edges, n)
    chord_ratings = np.array([edge.rating for edge in arch.layer1.edges], dtype=float)
    rung = _row_ratings(arch.rating if rungs is None else rungs, trials)
    if not (np.all(rung >= 0.0) and np.all(chord_ratings >= 0.0)):
        raise ParameterError("converter ratings must be non-negative")

    ends = sorted({battery for pair in chords for battery in pair})
    patterns = 1 << len(ends)
    # after battery j: the patterns of the endpoints up to j by sizes 0..j+1
    cells = max((1 << sum(end <= j for end in ends)) * (j + 2) for j in range(n))
    if cells > _CUT_CELLS:
        raise EnumerationCapError(
            f"{len(ends)} distinct layer-1 endpoints need {cells} cut states per draw, "
            f"over the cap of {_CUT_CELLS}"
        )
    member = (np.arange(patterns)[:, None] >> np.arange(len(ends)) & 1).astype(bool)  # (Q, d)
    slot = {battery: i for i, battery in enumerate(ends)}
    chord_cost = np.zeros(patterns)
    for (a, b), rating in zip(chords, chord_ratings):
        crossed = member[:, slot[a]] != member[:, slot[b]]
        chord_cost[crossed] += rating
    # added to battery j's states: 0 where the pattern allows its side, inf where not
    ban_in = np.zeros((n, patterns))
    ban_out = np.zeros((n, patterns))
    for battery, i in slot.items():
        ban_in[battery, ~member[:, i]] = np.inf
        ban_out[battery, member[:, i]] = np.inf

    rows = max(1, _CUT_PASS_CELLS // cells)
    return np.concatenate([
        _cut_pass(caps[start:start + rows], rung[start:start + rows], ban_in, ban_out, chord_cost)
        for start in range(0, trials, rows)
    ])


def _cut_pass(caps: np.ndarray, rung: np.ndarray, ban_in, ban_out, chord_cost) -> np.ndarray:
    """The subset dynamic program of hierarchical_currents on one block of rows, one rung rating each.

    States are (subset size k, pattern, row). Patterns that differ only in
    endpoints not reached yet are equal, so the pass starts with one and, at
    each endpoint, appends the states to themselves before adding its bans:
    pattern p + 2^s is p with endpoint s in U, as in chord_cost. Sizes stop
    at j + 1 after battery j. Elsewhere the bans add 0.0, so they are skipped.
    """
    trials, n = caps.shape
    caps = np.ascontiguousarray(caps.T)
    inside = np.full((2, 1, trials), np.inf)  # least cost with the current battery in U
    outside = np.full((2, 1, trials), np.inf)
    inside[1] = caps[0]
    outside[0] = 0.0
    patterns = 1
    for j in range(n):
        if j:
            entered = np.empty((j + 2, patterns, trials))
            entered[0] = np.inf
            np.add(np.minimum(inside, outside + rung), caps[j], out=entered[1:])
            stayed = np.empty_like(entered)
            np.minimum(outside, inside + rung, out=stayed[:-1])
            stayed[-1] = np.inf
            inside, outside = entered, stayed
        if ban_in[j].any():  # a chord endpoint: its side of the cut splits every pattern
            patterns *= 2
            inside = np.concatenate([inside, inside], axis=1) + ban_in[j, :patterns, None]
            outside = np.concatenate([outside, outside], axis=1) + ban_out[j, :patterns, None]
    best = np.minimum(inside, outside)[1:] + chord_cost[:, None]
    return (best / np.arange(1, n + 1)[:, None, None]).min(axis=(0, 1))


def least_processing_flows(capabilities, pairs: Sequence[_Pair], ratings, currents):
    """Flows of least processed power sum |f_e| on every row of a (T, N) block.

    Row t runs at string current currents[t] over the converter edges `pairs`,
    each rated either way by `ratings`: an (E,) array for every row or a
    (T, E) table of one per row (inf means unbounded). Returns the flows
    (T, E) and battery powers (T, N), all certified. Rows are independent and
    every step is elementwise, so a block gives, row for row, the same bits
    as one-row calls.

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
    M = 3, 19 at N = 16, M = 2 and 22 at N = 16, M = 3). A row with no
    deficit left in reach is finished for good, so it leaves the pass's
    working arrays with its flows written back. Rows go through in passes
    of at most _CUT_CELLS cells of a round's peak state.
    """
    caps = _validate_capabilities(capabilities, ndim=2)
    trials, n = caps.shape
    pairs = _edge_pairs(pairs, n)
    ratings = np.asarray(ratings, dtype=float)
    currents = np.asarray(currents, dtype=float)
    if ratings.shape not in ((len(pairs),), (trials, len(pairs))) or not np.all(ratings >= 0.0):
        raise ParameterError("need one non-negative rating per converter edge, or one per row and edge")
    ratings = np.broadcast_to(ratings, (trials, len(pairs)))
    if currents.shape != (trials,) or not np.all(np.isfinite(currents) & (currents >= 0.0)):
        raise ParameterError("need one non-negative finite current per row")

    # arc a < E runs src -> dst along edge a; arc E + a runs dst -> src; arc 2E is
    # padding, which leads from the sentinel node N
    e = len(pairs)
    tails = np.array([s for s, _ in pairs] + [d for _, d in pairs] + [n], dtype=np.intp)
    heads = [d for _, d in pairs] + [s for s, _ in pairs]
    incoming = [[a for a, head in enumerate(heads) if head == v] for v in range(n)]
    width = max(1, max(map(len, incoming)))
    in_arcs = np.array([arcs + [2 * e] * (width - len(arcs)) for arcs in incoming], dtype=np.intp)

    # a row's peak: per (node, incoming arc) its cost, candidate and flags; per node
    # every iteration's distance and eight more; per edge ten arc and flow values
    rows = max(1, _CUT_CELLS // ((n + 1) * (3 * width + n + 2) + 10 * e + 8 * (n + 1)))
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
    """Successive shortest paths of least_processing_flows on one block of rows.

    Works on the rows still augmenting, on the last axis of every working
    array: `keep` maps them to the block's rows. A row with no deficit in
    reach is written back to `out` and dropped.

    Bellman-Ford keeps every iteration's distances, (N + 1, rows) with a
    sentinel node N at inf, and reduces the slot-major (W, N + 1, rows) arc
    costs over the leading slot axis. Costs are +-1, so distances are exact
    whole numbers that never rise: the first incoming arc that attained
    dist[v] when it last fell, the one a per-iteration argmin keeps, is the
    first that is tight now and whose tail last fell earlier. A node that
    never fell gets the padding arc, which leads to N. Iterations of last
    fall drop along a path, so a sink that last fell at k is at most k arcs
    from its source. The bottleneck is the least of the sink's demand, the
    path's room and the source's supply (min is exact, so order does not
    matter), and the path is written with one scatter: a path of a
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
    for _ in range(4 * n * (n + e)):
        # where each arc's flow ends up when saturated, how far off that is, and its cost;
        # an arc that undoes flow always has room, and the padding arc leaves N, at inf
        undo = np.concatenate([flows < 0.0, flows > 0.0])
        limit = np.where(undo, 0.0, signed)
        room = np.concatenate([limit[:e] - flows, flows - limit[e:], inf_row])
        cost = np.where(room > 0.0, 1.0, np.inf)
        cost[:pad][undo] = -1.0
        in_cost = cost[slots]

        hist = np.empty((n + 2, n + 1, keep.size))  # slot i: the distances after iteration i
        hist[0] = np.concatenate([np.where(supply > 0.0, 0.0, np.inf), inf_row])
        cand = np.empty_like(in_cost)
        for fell in range(n + 1):
            dist = hist[fell]
            np.take(dist, in_tails, axis=0, out=cand, mode="clip")  # every index is in range
            cand += in_cost
            best = np.minimum.reduce(cand, axis=0)
            if not (best < dist).any():
                break
            np.minimum(dist, best, out=hist[fell + 1])
        else:
            raise InternalCheckError("least-processing residual graph has a negative cycle")
        last = (hist[:fell] != dist).sum(axis=0)  # the iteration where dist[v] last fell
        # arc u -> v attained dist[v] at that fall exactly when it is tight now and dist[u]
        # was already final then: distances are whole numbers and never rise
        attains = (cand == dist) & (last[in_tails] < last)
        first = (~attains).astype(np.intp)  # rank of the first slot that attains, W where none does
        first *= width
        first += rank
        pred = pick[np.minimum.reduce(first, axis=0), nodes]

        reach = np.where(demand > 0.0, dist[:n], np.inf)
        sink = reach.argmin(axis=0)
        live = np.isfinite(reach[sink, cols])
        hops = last[sink, cols]  # last falls strictly along a path, so it has at most last[sink] arcs
        if not live.all():
            out[keep[~live]] = flows[:, ~live].T
            left[keep[~live]] = demand[:, ~live].sum(axis=0)
            if not live.any():
                break
            keep, flows, signed = keep[live], flows[:, live], signed[:, live]
            supply, demand, sink, hops = supply[:, live], demand[:, live], sink[live], hops[live]
            limit, room, pred = limit[:, live], room[:, live], pred[:, live]
            cols, inf_row = np.arange(keep.size), inf_row[:, live]

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


def optimal_flow(capabilities, arch: Architecture) -> PowerFlowSolution:
    """Best achievable operating point of `arch` on one capability draw.

    Full processing needs no flow model: every battery delivers through its
    own converter, so output is the sum of rating-clipped capabilities and all
    of it is processed. A zero rating means no converter was installed at
    all, which leaves the bare series string. The ladder and hierarchical
    kinds both maximize output but run different dispatch among the
    output-optimal patterns: the ladder emulates its decentralized controls
    in closed form (ladder_flow); the hierarchical design takes its current
    from the cut form (hierarchical_currents) and the flow of least processed
    power at that current from least_processing_flows. Its output and
    processed power are unique; its per-edge flows are one least-processing
    optimum, which where several exist may differ from the vertex an LP
    would return. Capabilities are per string position, in any order: a
    reordered draw is a different string, whose answer may differ.
    """
    caps = _checked_capabilities(capabilities, arch)
    n = caps.size
    if arch.kind == ArchitectureKind.FPP:
        if arch.rating == 0.0:
            current = float(caps.min())
            return PowerFlowSolution(
                string_current=current,
                converter_flows=np.zeros(0),
                battery_powers=np.full(n, current),
                output_power=n * current,
                processed_power=0.0,
            )
        clipped = np.minimum(caps, arch.rating)
        output = float(clipped.sum())
        return PowerFlowSolution(
            string_current=output / n,
            converter_flows=clipped.copy(),
            battery_powers=clipped,
            output_power=output,
            processed_power=output,
        )

    if arch.kind == ArchitectureKind.CPPP:
        currents, flows, battery = ladder_flow(caps[None, :], arch.rating)
        current, flows, battery = float(currents[0]), flows[0], battery[0]
    else:
        currents = hierarchical_currents(caps[None, :], arch)
        flows, battery = least_processing_flows(caps[None, :], *_string_edges(arch), currents)
        current, flows, battery = float(currents[0]), flows[0], battery[0]
    return PowerFlowSolution(
        string_current=current,
        converter_flows=flows,
        battery_powers=battery,
        output_power=n * current,
        processed_power=float(np.abs(flows).sum()),
    )


def max_string_outputs(capabilities, arch: Architecture, rungs=None) -> np.ndarray:
    """Stage 1 of the LP flow of a string `arch` on every row of a (T, N) block.

    `rungs`, when given, is a (T,) array of non-negative ladder ratings, inf
    allowed, that replaces the ladder rating of `arch` row by row; a
    hierarchical design keeps the layer-1 edges of `arch`. Returns (T,):
    entry t is N * I of the maximum-output LP over [I, f, p] with the edges
    of arch on row t (the rows of _flow_matrix, |f_e| at most the edge's
    rating, |p_j| at most P_j and I >= 0), equal by == to what that LP gives
    solved alone. For the hierarchical kind it agrees with the cut form of
    hierarchical_currents to rounding, about 1e-16 in the current, and for
    the ladder with the closed form of ladder_flow; the layer-2 curve is
    printed with repr, so it stays on this LP.

    All rows share one objective, constraint matrix and right-hand side.
    Each row's bounds are written straight into one (T, variables) block:
    the layer-1 ratings, the row's rung on every ladder edge, and the row's
    capabilities. The rows go through lp.solve_stack in passes of at most
    _CUT_CELLS phase-1 cells, rows x (columns + artificials) per LP, and are
    certified by one block _certify call. Capabilities are per string
    position, in any order.
    """
    caps = _checked_capabilities(capabilities, arch, ndim=2)
    trials, n = caps.shape
    pairs, ratings = _string_edges(arch)
    rung = _row_ratings(arch.rating if rungs is None else rungs, trials)
    if not np.all(rung >= 0.0):
        raise ParameterError("ladder ratings must be non-negative")
    e = len(pairs)
    chords = e - (n - 1)  # the layer-1 edges come first, the ladder's n - 1 rungs last
    width = 1 + e + n  # variables [I, f_0..f_{E-1}, p_0..p_{N-1}]
    objective = np.zeros(width)
    objective[0] = float(n)
    upper = np.empty((trials, width))
    upper[:, 0] = np.inf
    upper[:, 1:1 + chords] = ratings[:chords]
    upper[:, 1 + chords:1 + e] = rung[:, None]
    upper[:, 1 + e:] = caps
    lower = -upper
    lower[:, 0] = 0.0
    a = _flow_matrix(pairs, n)
    per_pass = max(1, _CUT_CELLS // (n * (width + n)))
    values = np.empty_like(upper)
    for start in range(0, trials, per_pass):
        part = slice(start, start + per_pass)
        values[part] = _optimal_points("maximum-output stage", objective, a, np.zeros(n), lower[part], upper[part])
    _certify(caps, pairs, upper[:, 1:1 + e], values[:, 0], values[:, 1:1 + e], values[:, 1 + e:])
    return n * values[:, 0]


def flow_powers(capabilities, arch: Architecture, ratings=None) -> tuple[np.ndarray, np.ndarray]:
    """Output and processed power of `arch` on every row of a (T, N) block.

    `ratings`, when given, is a (T,) array that replaces `arch.rating` row
    by row: the per-battery rating of full processing, the rung rating of
    the ladder and of the hierarchical kind (whose layer-1 design stays that
    of `arch`). So one call evaluates rows of several architectures that
    differ only in the rating their budget sets.

    Full processing and the ladder are closed form over the whole block. The
    hierarchical kind takes every row's current from the cut form in one
    call and its least-processing flows from one min-cost flow call at those
    currents; no LP is solved. Row t equals optimal_flow(capabilities[t],
    arch) bit for bit, with arch's rating replaced by ratings[t] if given.
    """
    caps = _checked_capabilities(capabilities, arch, ndim=2)
    trials, n = caps.shape
    ratings = _row_ratings(arch.rating if ratings is None else ratings, trials)
    if arch.kind == ArchitectureKind.FPP:
        if not np.all(ratings >= 0.0):
            raise ParameterError("converter ratings must be non-negative")
        clipped = np.minimum(caps, ratings[:, None]).sum(axis=1)
        bare = ratings == 0.0  # no converter installed: the bare series string
        return np.where(bare, n * caps.min(axis=1), clipped), np.where(bare, 0.0, clipped)
    if arch.kind == ArchitectureKind.CPPP:
        current, flows, _ = ladder_flow(caps, ratings)
        return n * current, np.abs(flows).sum(axis=1)
    currents = hierarchical_currents(caps, arch, ratings)
    chords = np.array([edge.rating for edge in arch.layer1.edges], dtype=float)
    table = np.concatenate([np.tile(chords, (trials, 1)), np.repeat(ratings[:, None], n - 1, axis=1)], axis=1)
    flows, _ = least_processing_flows(caps, _string_edges(arch)[0], table, currents)
    return n * currents, np.abs(flows).sum(axis=1)


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


def layer1_design_lp(expected: ExpectedSet, edges: Sequence[_Pair]):
    """Design solve on the expected set with unbounded pair flows, as two LPs.

    Returns (processed, output): the canonical per-edge processed powers
    |f_e| at maximum output with minimum total processing, and that output.
    The design prints these values with repr, so they stay on the LP. Stage
    1 is the maximum-output LP over [I, f, p] with free flows; stage 2 fixes
    its current and minimizes sum |f| over [I, f+, f-, p], with f = f+ - f-
    and both halves non-negative. Each goes through lp.solve_stack as a
    stack of one, which takes the solver's serial path. Both flows are
    certified, and a stage-2 flow that circulates power both ways along an
    edge raises InternalCheckError.
    """
    caps = expected.capabilities
    n = caps.size
    pairs = _edge_pairs(edges, n)
    e = len(pairs)
    b = np.zeros(n)

    objective = np.zeros(1 + e + n)
    objective[0] = float(n)
    lower = np.concatenate([[0.0], np.full(e, -np.inf), -caps])
    upper = np.concatenate([[np.inf], np.full(e, np.inf), caps])
    first = _optimal_points("maximum-output stage", objective, _flow_matrix(pairs, n), b, lower[None], upper[None])[0]
    current = float(first[0])
    _certify(caps, pairs, None, current, first[1:1 + e], first[1 + e:])

    inc = _incidence(pairs, n)
    a = np.zeros((n, 1 + 2 * e + n))
    a[:, 0] = 1.0
    a[:, 1:1 + e] = inc
    a[:, 1 + e:1 + 2 * e] -= inc  # written as 0 - inc: no negative zeros
    a[:, 1 + 2 * e:] = -np.eye(n)
    objective = np.zeros(1 + 2 * e + n)
    objective[1:1 + 2 * e] = -1.0  # maximize the negated processed power
    lower = np.concatenate([[current], np.zeros(2 * e), -caps])
    upper = np.concatenate([[current], np.full(2 * e, np.inf), caps])
    second = _optimal_points("minimum-processing stage", objective, a, b, lower[None], upper[None])[0]
    pos, neg = second[1:1 + e], second[1 + e:1 + 2 * e]
    if e and float(np.minimum(pos, neg).max(initial=0.0)) > 1e-7:
        raise InternalCheckError("flow split left circulating power in both directions")
    flows = pos - neg
    _certify(caps, pairs, None, current, flows, second[1 + 2 * e:])
    return np.abs(flows), n * current
