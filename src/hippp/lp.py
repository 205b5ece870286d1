"""Dense bounded-variable simplex solver.

Solves   maximize c . x   subject to   A x = b,   lower <= x <= upper,
where either bound may be infinite. Problems in this package are small
(tens of variables), so everything is dense and each iteration refactors
the basis with a fresh linear solve; accuracy is favored over speed.

Pivoting is deterministic: Dantzig pricing with ties broken by lowest
variable index, falling back to Bland's rule after a run of degenerate
steps. Identical inputs therefore produce bit-identical solutions, which
keeps Monte Carlo sweeps reproducible across runs and worker counts.

solve_stack is the one entry point. It runs a stack of K same-shape LPs
through the two phases in lockstep, over arrays: an objective, one
constraint matrix broadcast over the whole stack or one per LP, right-hand
sides, and (K, n) bounds. Validation, the phase-1 set-up, the phase-2
handover and the certification each run once over the stack; only an LP
that still holds a basic artificial after phase 1 has it exchanged on its
own. Each LP keeps its own basis, statuses, Bland flag, stall count and
verdict, and leaves the stack when it is done. Every step is a stacked
np.linalg.solve on (G, m, m) with a (G, m, 1) right-hand side, a stacked
matmul, or an elementwise op, each of which gives, slice for slice, the bits
of the serial call. The basic values take one slice per live LP. The duals
y (B^T y = c_B) and the entering column w (B w = a_enter) take one slice
per group of live LPs whose inputs hold the same bytes, and every LP of the
group takes that slice's result: equal inputs give equal bits. Each
iteration finds the groups from the LPs' basis rows, every column coded by
its bytes (_column_codes, once per stack), through a hash checked row by
row (_basis_groups). So every LP takes the same pivots and returns the same
bits as it does alone. A stack of one goes through the serial path
(_solve_one and _iterate), because the lockstep costs two to three times as
much per LP at K = 1; that path is also the lockstep's bitwise reference.
The phase-1 set-up, the phase-2 handover and the certification are written
once, for one LP or a stack, and both paths use them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalCheckError, ParameterError

log = logging.getLogger(__name__)

FEASIBILITY_TOL = 1e-8
REDUCED_COST_TOL = 1e-9

_PIVOT_TOL = 1e-10
_DEGENERATE_STEP = 1e-12
_STALL_LIMIT = 64        # degenerate iterations tolerated before switching to Bland's rule
_MAX_ITERATIONS = 20_000

_HASH_BASE = 0x9E3779B97F4A7C15  # the odd 64-bit golden-ratio constant; _iterate_many hashes with its powers

# nonbasic-at-lower / nonbasic-at-upper / nonbasic free (at zero) / basic
_NB_LOWER, _NB_UPPER, _NB_FREE, _BASIC = 0, 1, 2, 3
_NO_POSITION = np.iinfo(np.intp).max  # above every basis index in the leaving-variable choice


class LPStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _check_values(objective, a, b, lower, upper):
    """The checks on the values of a stack of LPs with (K, n) bounds, over the
    whole stack at once: finite objective and constraints, no NaN bound, no
    lower bound above its upper."""
    if not np.all(np.isfinite(objective)):
        raise ParameterError("objective coefficients must be finite")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("equality constraints must be finite")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
        raise ParameterError("bounds must not be NaN")
    crossed = lower > upper
    if np.any(crossed):
        k, j = np.argwhere(crossed)[0].tolist()
        raise ParameterError(f"LP {k}, variable {j}: lower bound exceeds upper bound")


@dataclass(frozen=True)
class StackSolution:
    """Verdicts of a stack of K LPs: one LPStatus per LP, and values (K, n)
    and objective values (K,) that are NaN where an LP is not optimal."""

    status: tuple[LPStatus, ...]
    values: np.ndarray
    objective_value: np.ndarray


def _initial_point(lower: np.ndarray, upper: np.ndarray):
    """Start each variable at its lower bound when finite, else upper, else
    zero; for one LP's bounds or a (K, n) stack of them."""
    fin_lo = np.isfinite(lower)
    only_up = ~fin_lo & np.isfinite(upper)
    x = np.where(fin_lo, lower, np.where(only_up, upper, 0.0))
    stat = np.where(fin_lo, _NB_LOWER, np.where(only_up, _NB_UPPER, _NB_FREE)).astype(np.int8)
    return x, stat


def _iterate(c, a, b, lower, upper, basis, stat, x) -> str:
    """Run simplex iterations in place on one LP with at least one row;
    returns 'optimal' or 'unbounded'."""
    bland = False
    stall = 0
    for _ in range(_MAX_ITERATIONS):
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

        can_increase = (stat == _NB_LOWER) | (stat == _NB_FREE)
        can_decrease = (stat == _NB_UPPER) | (stat == _NB_FREE)
        movable = upper > lower
        candidates = movable & (
            (can_increase & (reduced > REDUCED_COST_TOL))
            | (can_decrease & (reduced < -REDUCED_COST_TOL))
        )
        candidates[basis] = False
        idxs = np.flatnonzero(candidates)
        if idxs.size == 0:
            return "optimal"
        if bland:
            enter = int(idxs[0])
        else:
            # Dantzig pricing; np.argmax takes the first maximum, i.e. lowest index
            enter = int(idxs[np.argmax(np.abs(reduced[idxs]))])
        direction = 1.0 if (stat[enter] == _NB_LOWER or reduced[enter] > 0.0) else -1.0

        w = np.linalg.solve(basis_cols, a[:, enter])
        g = -direction * w  # per-unit change of each basic variable
        xb = x[basis]
        caps = np.full(basis.size, np.inf)
        hits_upper = g > _PIVOT_TOL
        hits_lower = g < -_PIVOT_TOL
        caps[hits_upper] = (upper[basis[hits_upper]] - xb[hits_upper]) / g[hits_upper]
        caps[hits_lower] = (lower[basis[hits_lower]] - xb[hits_lower]) / g[hits_lower]
        np.maximum(caps, 0.0, out=caps)
        step_basic = float(caps.min())
        step_self = upper[enter] - lower[enter]  # bound-to-bound flip distance
        step = min(step_basic, step_self)
        if not np.isfinite(step):
            return "unbounded"

        x[basis] = xb + g * step
        if step_self < step_basic:
            # entering variable flips to its opposite bound; basis unchanged
            x[enter] = upper[enter] if direction > 0 else lower[enter]
            stat[enter] = _NB_UPPER if direction > 0 else _NB_LOWER
        else:
            tied = np.flatnonzero(caps <= step + 1e-12)
            leave_pos = int(tied[np.argmin(basis[tied])])  # lowest variable index wins
            leaving = int(basis[leave_pos])
            x[enter] += direction * step
            if g[leave_pos] > 0:
                x[leaving] = upper[leaving]
                stat[leaving] = _NB_UPPER
            else:
                x[leaving] = lower[leaving]
                stat[leaving] = _NB_LOWER
            stat[enter] = _BASIC
            basis[leave_pos] = enter

        stall = stall + 1 if step <= _DEGENERATE_STEP else 0
        if stall >= _STALL_LIMIT:
            bland = True
    raise InternalCheckError("simplex iteration cap exceeded")


def _drive_out_artificials(a, lower, upper, basis, stat, x, n_real):
    """Swap zero-valued artificial variables out of the basis where possible.

    A row whose artificial cannot be exchanged for any real column is
    redundant; its artificial stays basic, pinned at zero.
    """
    m = basis.size
    for pos in range(m):
        if basis[pos] < n_real:
            continue
        basis_cols = a[:, basis]
        unit = np.zeros(m)
        unit[pos] = 1.0
        row = np.linalg.solve(basis_cols.T, unit) @ a[:, :n_real]
        pick = -1
        for j in range(n_real):
            if stat[j] != _BASIC and upper[j] > lower[j] and abs(row[j]) > 1e-7:
                pick = j
                break
        if pick < 0:
            for j in range(n_real):
                if stat[j] != _BASIC and abs(row[j]) > 1e-9:
                    pick = j
                    break
        if pick < 0:
            continue
        artificial = int(basis[pos])
        basis[pos] = pick
        stat[pick] = _BASIC
        stat[artificial] = _NB_LOWER
        x[artificial] = 0.0


def _phase_one(a, b, lower, upper):
    """Phase-1 problem of a constrained LP, or of a stack of K of them: one
    artificial per row, signed by the residual at the starting point and
    basic, with objective -sum of them.

    a is (m, n), or (K, m, n), and b (m,) or (K, m); one matrix and one
    right-hand side broadcast over a stack. lower and upper are (n,), or
    (K, n) for a stack. Returns (c, a, lower, upper, basis, stat, x), with a
    leading K axis for a stack; c is a read-only broadcast, the rest is
    freshly allocated.
    """
    m, n = a.shape[-2:]
    x0, stat0 = _initial_point(lower, upper)
    residual = b - (a @ x0[..., None])[..., 0]
    lead = residual.shape[:-1]
    diagonal = np.arange(m)
    a1 = np.zeros(lead + (m, n + m))
    a1[..., :n] = a
    a1[..., diagonal, n + diagonal] = np.where(residual >= 0.0, 1.0, -1.0)
    lo1 = np.concatenate([lower, np.zeros(lead + (m,))], axis=-1)
    up1 = np.concatenate([upper, np.full(lead + (m,), np.inf)], axis=-1)
    x = np.concatenate([x0, np.abs(residual)], axis=-1)
    stat = np.concatenate([stat0, np.full(lead + (m,), _BASIC, dtype=np.int8)], axis=-1)
    basis = np.broadcast_to(np.arange(n, n + m), lead + (m,)).copy()
    c_phase1 = np.broadcast_to(np.concatenate([np.zeros(n), -np.ones(m)]), lead + (n + m,))
    return c_phase1, a1, lo1, up1, basis, stat, x


def _phase_two(c, a1, lo1, up1, basis, stat, x):
    """Turn a finished phase 1 into phase 2 in place, for one LP or a stack.

    Returns (feasible, c2): whether each LP's artificials sum to at most
    FEASIBILITY_TOL, and the phase-2 objective (c padded with zeros). Each
    feasible LP that still holds a basic artificial has its zero artificials
    driven out of the basis, one LP at a time; then every artificial is
    pinned at zero.
    """
    n = c.shape[-1]
    feasible = ~(x[..., n:].sum(axis=-1) > FEASIBILITY_TOL)
    for k in map(tuple, np.argwhere(feasible & (basis >= n).any(axis=-1))):
        _drive_out_artificials(a1[k], lo1[k], up1[k], basis[k], stat[k], x[k], n)
    lo1[..., n:] = 0.0
    up1[..., n:] = 0.0  # artificials pinned; they can never re-enter
    return feasible, np.concatenate([np.broadcast_to(c, feasible.shape + (n,)), np.zeros(basis.shape)], axis=-1)


def _check_points(a, b, lower, upper, values, rows=...):
    """Re-verify optimal points against the constraints and bounds; a
    violation here is a solver bug. Takes one LP's point, or a (K, n) stack
    of points of which `rows` are checked."""
    eq_residual = float(np.abs((a @ values[..., None])[..., 0] - b)[rows].max(initial=0.0))
    if eq_residual > FEASIBILITY_TOL:
        raise InternalCheckError(f"optimal point violates equalities by {eq_residual:.3e}")
    below = (lower - values)[rows]
    above = (values - upper)[rows]
    bound_violation = max(
        float(below[np.isfinite(below)].max(initial=0.0)),
        float(above[np.isfinite(above)].max(initial=0.0)),
    )
    if bound_violation > FEASIBILITY_TOL:
        raise InternalCheckError(f"optimal point violates bounds by {bound_violation:.3e}")


def _solve_one(c, a, b, lower, upper) -> StackSolution:
    """solve_stack's serial path: the two phases on the arrays of one
    validated LP, given without the stack axis, as a stack of one."""
    c_phase1, a1, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    if _iterate(c_phase1, a1, b, lo1, up1, basis, stat, x) != "optimal":  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")
    feasible, c_phase2 = _phase_two(c, a1, lo1, up1, basis, stat, x)
    if not feasible:
        status = LPStatus.INFEASIBLE
    elif _iterate(c_phase2, a1, b, lo1, up1, basis, stat, x) == "unbounded":
        status = LPStatus.UNBOUNDED
    else:
        values = x[:c.size]
        _check_points(a, b, lower, upper, values)
        return StackSolution((LPStatus.OPTIMAL,), values[None, :], np.array([c @ values]))
    return StackSolution((status,), np.full((1, c.size), np.nan), np.array([np.nan]))


def _distinct(code):
    """Group the entries of a non-empty 1-D integer array by value: returns
    (first, group), first holding the index of one entry of each distinct
    value and group[i] the position of entry i's value in first."""
    order = code.argsort()
    ordered = code[order]
    ids = np.empty(code.size, dtype=np.intp)
    ids[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=ids[1:])
    np.add.accumulate(ids, out=ids)  # the rank of each sorted entry's value
    group = np.empty_like(ids)
    group[order] = ids
    first = np.empty(ids[-1] + 1, dtype=np.intp)
    first[ids] = order
    return first, group


def _basis_groups(key, weights):
    """_distinct over the rows of a 2-D non-negative integer key, each row
    hashed to one uint64 by its dot product with `weights` (uint64
    arithmetic wraps). A hash that joins two different rows is found by
    comparing every row with its group's first, and then each row is its
    own group."""
    first, group = _distinct(key.view(np.uint64) @ weights)
    if not np.array_equal(key[first[group]], key):
        first = group = np.arange(key.shape[0])
    return first, group


def _column_codes(a1, n, own):
    """A (K, n + m) code for every column of every LP of a phase-1 stack:
    two columns get one code when they are the same column of the problem,
    with the same artificial sign if artificial, in two LPs whose arrays in
    `own` (the stack's per-LP matrices or objectives, leading axis K) are
    equal byte for byte, so 0.0 and -0.0 differ. Equal codes therefore mean
    equal column bytes and equal costs in either phase."""
    k, m = a1.shape[:2]
    diagonal = np.arange(m)
    codes = np.broadcast_to(np.arange(n + m), (k, n + m)).copy()
    codes[:, n:] += m * (a1[:, diagonal, n + diagonal] < 0.0)
    if own:
        key = np.concatenate([arr.reshape(k, int(np.prod(arr.shape[1:]))) for arr in own], axis=1)
        cls = np.unique(key.view(np.uint8), axis=0, return_inverse=True)[1]
        codes += (n + 2 * m) * cls.reshape(k, 1)
    return codes


def _iterate_many(c, a, b, lower, upper, basis, stat, codes, x, counts) -> np.ndarray:
    """_iterate on a stack of K same-shape problems at once, in lockstep.

    Every argument but counts gains a leading axis of length K; basis, stat
    and x are updated in place. Each problem keeps its own basis, statuses,
    Bland flag, stall count and verdict, and takes exactly the steps _iterate
    would take on it alone: the stacked linear solves and matrix products
    give, slice for slice, the bits of the serial calls, and everything else
    is elementwise or a per-row selection with the same tie rules. A problem
    leaves the live stack as soon as it is optimal, before the ratio test and
    its solve, or unbounded. A step writes only the non-basic values it moves:
    the next iteration's solve overwrites every basic value.

    The duals y (B^T y = c_B) depend on nothing but the bytes of the basis
    columns and their costs, and the entering column w (B w = a_enter) on
    those of B and a_enter. codes (K, columns), from _column_codes, give two
    columns one code only when those bytes are equal. So each iteration
    groups the live problems by their basis row of codes and solves y once
    per group, and w once per (group, entering column); every problem takes
    its group's result, and since a stacked solve gives each slice the bits of
    that slice alone, that is the result of its own solve. The basic values
    x_B and the reduced costs stay per problem: x_B has a right-hand side of
    its own, and c - y A reads every column, where two problems of a group
    may differ in a non-basic artificial's sign. counts, a list of five
    ints, gains the iterations, the problem iterations (the y rows), the
    distinct y solves, the distinct w solves and the w rows. Returns the
    (K,) mask of unbounded problems.
    """
    unbounded = np.zeros(basis.shape[0], dtype=bool)
    live = np.arange(basis.shape[0])
    bland = np.zeros(live.size, dtype=bool)
    stall = np.zeros(live.size, dtype=int)
    weights = np.array([pow(_HASH_BASE, i + 1, 2**64) for i in range(basis.shape[1])], dtype=np.uint64)
    width = c.shape[1]
    # the live problems; the caller's arrays themselves until the first one leaves
    cc, aa, bb, lo, up, bas, st, co, xs = c, a, b, lower, upper, basis, stat, codes, x
    for _ in range(_MAX_ITERATIONS):
        if live.size == 0:
            return unbounded
        rows = np.arange(live.size)
        at = rows[:, None] * width + bas  # flat positions of the basic variables in the (live, width) arrays
        first, group = _basis_groups(co.take(at), weights)
        lead = aa[first[:, None], :, bas[first]].transpose(0, 2, 1)  # slice i holds a_k[:, bas_k], k = first[i]
        x_nb = xs.copy()
        x_nb.put(at, 0.0)
        try:
            xs.put(at, np.linalg.solve(lead[group], bb[:, :, None] - aa @ x_nb[:, :, None])[:, :, 0])
            y = np.linalg.solve(lead.transpose(0, 2, 1), cc[first[:, None], bas[first]][:, :, None])[group, :, 0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
            raise InternalCheckError(f"singular simplex basis: {exc}") from exc
        reduced = cc - (y[:, None, :] @ aa)[:, 0, :]  # read only where a candidate is, never on a basic column
        counts[0] += 1
        counts[1] += live.size
        counts[2] += first.size

        free = st == _NB_FREE
        candidates = (up > lo) & (  # a basic variable's status is _BASIC, so it is never one
            (((st == _NB_LOWER) | free) & (reduced > REDUCED_COST_TOL))
            | (((st == _NB_UPPER) | free) & (reduced < -REDUCED_COST_TOL))
        )
        going = np.logical_or.reduce(candidates, axis=1)
        if not going.all():  # the optimal ones leave before the ratio test and its solve
            done = ~going
            basis[live[done]], stat[live[done]], x[live[done]] = bas[done], st[done], xs[done]
            live = live[going]
            if live.size == 0:
                return unbounded
            rows = rows[:live.size]
            cc, aa, bb, lo, up, bas, st, xs, co, bland, stall, group, reduced, candidates = (
                arr[going] for arr in
                (cc, aa, bb, lo, up, bas, st, xs, co, bland, stall, group, reduced, candidates)
            )
            at = rows[:, None] * width + bas
        # Bland takes the first candidate; Dantzig the first of the largest |reduced cost|
        enter = np.where(
            bland,
            candidates.argmax(axis=1),
            np.where(candidates, np.abs(reduced), -np.inf).argmax(axis=1),
        )
        at_enter = rows * width + enter
        # a candidate at its lower bound has a positive reduced cost, at its upper a negative one
        direction = np.where(reduced.take(at_enter) > 0.0, 1.0, -1.0)

        # A group shares its basis codes, hence its class and y; so one entering index means one column's
        # bytes. Only an artificial's sign may differ, and an artificial enters only in phase 1, where its
        # reduced cost -1 - sign * y_r is positive for at most one sign.
        w_first, w_group = _distinct(group * width + enter)
        w = np.linalg.solve(lead[group[w_first]], aa[w_first, :, enter[w_first]][:, :, None])[w_group, :, 0]
        counts[3] += w_first.size
        counts[4] += live.size
        g = -direction[:, None] * w
        hits_upper = g > _PIVOT_TOL
        caps = np.full(g.shape, np.inf)
        np.divide(np.where(hits_upper, up.take(at), lo.take(at)) - xs.take(at), g, out=caps,
                  where=hits_upper | (g < -_PIVOT_TOL))
        np.maximum(caps, 0.0, out=caps)
        step_basic = np.minimum.reduce(caps, axis=1)
        step_self = up.take(at_enter) - lo.take(at_enter)
        step = np.minimum(step_basic, step_self)

        going = np.isfinite(step)
        unbounded[live] = ~going

        flip = going & (step_self < step_basic)
        if flip.any():
            fe, fd = at_enter[flip], direction[flip] > 0
            xs.put(fe, np.where(fd, up.take(fe), lo.take(fe)))
            st.put(fe, np.where(fd, _NB_UPPER, _NB_LOWER))
        pivot = going & ~flip
        leave_pos = np.where(caps <= (step + 1e-12)[:, None], bas, _NO_POSITION).argmin(axis=1)
        slot = (rows * bas.shape[1] + leave_pos)[pivot]  # flat position in bas of each pivot's leaving variable
        at_leave, leave_up = at.take(slot), g.take(slot) > 0
        xs.put(at_leave, np.where(leave_up, up.take(at_leave), lo.take(at_leave)))
        st.put(at_leave, np.where(leave_up, _NB_UPPER, _NB_LOWER))
        st.put(at_enter[pivot], _BASIC)
        bas.put(slot, enter[pivot])

        stall = np.where(step <= _DEGENERATE_STEP, stall + 1, 0)
        bland |= stall >= _STALL_LIMIT

        if not going.all():
            done = ~going
            basis[live[done]], stat[live[done]], x[live[done]] = bas[done], st[done], xs[done]
            live = live[going]
            cc, aa, bb, lo, up, bas, st, xs, co, bland, stall = (
                arr[going] for arr in (cc, aa, bb, lo, up, bas, st, xs, co, bland, stall)
            )
    raise InternalCheckError("simplex iteration cap exceeded")


def solve_stack(objective, a_eq, b_eq, lower, upper) -> StackSolution:
    """Two-phase simplex on a stack of K same-shape LPs with at least one row.

    lower and upper are (K, n) and set K. objective is (n,) or (K, n), b_eq
    (m,) or (K, m), and a_eq (m, n) or (K, m, n); a matrix the whole stack
    shares is broadcast, never copied per LP. The values are checked once
    over the whole stack, and any LP that fails the checks raises
    ParameterError. Infeasible and unbounded LPs are reported through their
    status, never raised, with NaN values and objective; every optimum is
    re-verified against the constraints and bounds. Row k of the result
    equals by == in status, values and objective what a stack of LP k alone
    returns: K >= 2 runs the same two phases, pivots and checks in lockstep
    (see _iterate_many), and a stack of one takes the serial path
    (_solve_one), which gives those bits for less work.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    c = np.asarray(objective, dtype=float)
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    if lower.ndim != 2 or upper.shape != lower.shape:
        raise ParameterError("bounds of a stack must be two (K, n) arrays of one shape")
    k_all, n = lower.shape
    m = a.shape[-2] if a.ndim in (2, 3) else 0
    if a.shape not in ((m, n), (k_all, m, n)) or c.shape not in ((n,), (k_all, n)) \
            or b.shape not in ((m,), (k_all, m)):
        raise ParameterError("objective, constraints and bounds of a stack do not match in shape")
    if m == 0:
        raise ParameterError("a stack of LPs needs at least one equality row")
    _check_values(c, a, b, lower, upper)
    own = [arr for arr, shared_ndim in ((a, 2), (c, 1)) if arr.ndim > shared_ndim]  # per-LP matrices, objectives
    c = np.broadcast_to(c, (k_all, n))
    b = np.broadcast_to(b, (k_all, m))
    if k_all == 1:
        return _solve_one(c[0], a.reshape(m, n), b[0], lower[0], upper[0])

    c_phase1, a1, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    codes = _column_codes(a1, n, own)
    counts = [0, 0, 0, 0, 0]
    if _iterate_many(c_phase1, a1, b, lo1, up1, basis, stat, codes, x, counts).any():  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")
    feasible, c_phase2 = _phase_two(c, a1, lo1, up1, basis, stat, x)
    live = np.flatnonzero(feasible)
    stacks = c_phase2, a1, b, lo1, up1, basis, stat, codes, x
    if live.size < k_all:  # otherwise phase 2 runs on the phase-1 stacks, uncopied
        stacks = tuple(arr[live] for arr in stacks)
    unbounded = _iterate_many(*stacks, counts)
    log.debug("lockstep stack: %d LPs, %d iterations, %d LP-iterations (y rows), %d y solves, "
              "%d w solves for %d rows", k_all, *counts)

    verdicts = (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED, LPStatus.OPTIMAL)
    verdict = np.zeros(k_all, dtype=int)
    verdict[live] = np.where(unbounded, 1, 2)
    optimal = live[~unbounded]
    values = np.full((k_all, n), np.nan)
    values[optimal] = stacks[-1][~unbounded, :n]
    _check_points(a, b, lower, upper, values, optimal)
    objective_value = (values[:, None, :] @ c[:, :, None])[:, 0, 0]  # per LP the dot product _solve_one takes
    return StackSolution(tuple(verdicts[i] for i in verdict.tolist()), values, objective_value)
