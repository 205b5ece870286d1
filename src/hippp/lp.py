"""Dense bounded-variable simplex solver.

Solves   maximize c . x   subject to   A x = b,   lower <= x <= upper,
where either bound may be infinite. Problems in this package are small
(tens of variables), so everything is dense and each iteration refactors
the basis with a fresh linear solve; accuracy is favored over speed.

Pivoting is deterministic: Dantzig pricing with ties broken by lowest
variable index, falling back to Bland's rule after a run of degenerate
steps. Identical inputs therefore produce bit-identical solutions, which
keeps Monte Carlo sweeps reproducible across runs and worker counts.

solve_stack is the one entry point. It runs a stack of K LPs in lockstep:
one problem (an objective, a constraint matrix and a right-hand side) under
K sets of bounds, given as (K, n) arrays. Validation, the phase-1 set-up,
the phase-2 handover and the certification each run once over the stack;
only an LP that still holds a basic artificial after phase 1 has it
exchanged on its own. The stack keeps one phase-1 matrix, the problem's
columns and both signs of every row's artificial, and each LP reads its own
columns from it through a row of column codes (_phase_one): the LPs differ
only in bounds, hence only in the signs of their artificials. Each LP keeps
its own basis, statuses, Bland flag, stall count and verdict, and leaves the
stack when it is done. Every step is a stacked np.linalg.solve on (G, m, m)
with a (G, m, 1) right-hand side, a stacked matmul, or an elementwise op,
each of which gives, slice for slice, the bits of the serial call. The basic
values take one slice per live LP. The duals y (B^T y = c_B) and the
entering column w (B w = a_enter) take one slice per group of live LPs whose
basis rows of codes are equal, that is whose basis columns are the same
columns of the one matrix (_basis_groups, through a hash checked row by
row), and every LP of the group takes that slice's result: equal inputs give
equal bits. So every LP takes the same pivots and returns the same bits as
it does alone. A stack of one goes through the serial path (_solve_one and
_iterate), because the lockstep costs two to three times as much per LP
at K = 1; that path is also the lockstep's bitwise reference. The phase-1
set-up, the phase-2 handover and the certification are written once, for
one LP or a stack, and both paths use them.
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
    """Phase-1 problem of the LP (a, b) under one set of (n,) bounds, or a
    stack of them under (K, n) bounds: one artificial per row, signed by the
    residual at the starting point and basic, with objective -sum of them.

    Returns (c, columns, codes, lower, upper, basis, stat, x). columns is the
    stack's one phase-1 matrix [A | I | 0 - I], (m, n + 2m) and free of
    -0.0, and codes (..., n + m) names the column of it that each LP column
    is: j for column j, n + r or n + m + r for row r's artificial, by the
    sign of its residual. So columns[:, codes[k]] is LP k's phase-1 matrix.
    c (n + m,) is the shared phase-1 objective; the rest has a leading K
    axis for a stack and is freshly allocated.
    """
    m, n = a.shape
    x0, stat0 = _initial_point(lower, upper)
    residual = b - (a @ x0[..., None])[..., 0]
    lead = residual.shape[:-1]
    eye = np.eye(m)
    columns = np.concatenate([a, eye, 0.0 - eye], axis=1)
    codes = np.concatenate([np.broadcast_to(np.arange(n), lead + (n,)), n + np.arange(m) + m * (residual < 0.0)],
                           axis=-1)
    lo1 = np.concatenate([lower, np.zeros(lead + (m,))], axis=-1)
    up1 = np.concatenate([upper, np.full(lead + (m,), np.inf)], axis=-1)
    x = np.concatenate([x0, np.abs(residual)], axis=-1)
    stat = np.concatenate([stat0, np.full(lead + (m,), _BASIC, dtype=np.int8)], axis=-1)
    basis = np.broadcast_to(np.arange(n, n + m), lead + (m,)).copy()
    return np.concatenate([np.zeros(n), -np.ones(m)]), columns, codes, lo1, up1, basis, stat, x


def _phase_two(c, columns, codes, lo1, up1, basis, stat, x):
    """Turn a finished phase 1 into phase 2 in place, for one LP or a stack.

    Returns (feasible, c2): whether each LP's artificials sum to at most
    FEASIBILITY_TOL, and the shared phase-2 objective (c padded with zeros).
    Each feasible LP that still holds a basic artificial has its zero
    artificials driven out of the basis, one LP at a time, on its own
    C-contiguous phase-1 matrix; then every artificial is pinned at zero.
    """
    n = c.size
    feasible = ~(x[..., n:].sum(axis=-1) > FEASIBILITY_TOL)
    for k in map(tuple, np.argwhere(feasible & (basis >= n).any(axis=-1))):
        a1 = np.ascontiguousarray(columns[:, codes[k]])
        _drive_out_artificials(a1, lo1[k], up1[k], basis[k], stat[k], x[k], n)
    lo1[..., n:] = 0.0
    up1[..., n:] = 0.0  # artificials pinned; they can never re-enter
    return feasible, np.concatenate([c, np.zeros(basis.shape[-1])])


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
    c_phase1, columns, codes, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    a1 = np.ascontiguousarray(columns[:, codes])  # a plain gather is F-ordered, and matmul would take another kernel
    if _iterate(c_phase1, a1, b, lo1, up1, basis, stat, x) != "optimal":  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")
    feasible, c_phase2 = _phase_two(c, columns, codes, lo1, up1, basis, stat, x)
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


def _iterate_many(c, columns, b, lower, upper, basis, stat, codes, x, counts) -> np.ndarray:
    """_iterate on a stack of K LPs of one problem at once, in lockstep.

    c (w,) and b (m,) are the problem's, shared; columns (m, ·) and codes
    (K, w) come from _phase_one, and LP k's matrix is columns[:, codes[k]].
    lower, upper, basis, stat and x gain a leading axis of length K; basis,
    stat and x are updated in place. Each LP keeps its own basis, statuses,
    Bland flag, stall count and verdict, and takes exactly the steps
    _iterate would take on it alone: the stacked linear solves and matrix
    products give, slice for slice, the bits of the serial calls, and
    everything else is elementwise or a per-row selection with the same tie
    rules. An LP leaves the live stack as soon as it is optimal, before the
    ratio test and its solve, or unbounded. A step writes only the
    non-basic values it moves: the next iteration's solve overwrites every
    basic value.

    Basis and entering columns are gathered by code. The duals y (B^T y =
    c_B) depend on nothing but the basis columns and their costs, and the
    entering column w (B w = a_enter) on B and a_enter. Equal codes are the
    same column of the one matrix, with the same cost. So each iteration
    groups the live LPs by their basis row of codes and solves y once per
    group, and w once per (group, entering code); every LP takes its group's
    result, and since a stacked solve gives each slice the bits of that
    slice alone, that is the result of its own solve. The basic values x_B
    (b - A x_N) and the reduced costs (c - y A) stay per LP, on one
    C-contiguous [A | I] for every LP. That gives each LP's own bits: x_N
    is +0.0 on every artificial, so an artificial's sign reaches b - A x_N
    only as the sign of a zero, which b (free of -0.0) absorbs;
    and the reduced cost of an artificial is then rewritten as c - s y_r,
    the bits its own column s e_r gives. counts, a list of five ints, gains
    the iterations, the LP iterations (the y rows), the distinct y solves,
    the distinct w solves and the w rows. Returns the (K,) mask of
    unbounded LPs.
    """
    unbounded = np.zeros(basis.shape[0], dtype=bool)
    live = np.arange(basis.shape[0])
    bland = np.zeros(live.size, dtype=bool)
    stall = np.zeros(live.size, dtype=int)
    weights = np.array([pow(_HASH_BASE, i + 1, 2**64) for i in range(basis.shape[1])], dtype=np.uint64)
    width = c.size
    n = width - b.size
    plus = np.ascontiguousarray(columns[:, :width])  # [A | I]
    by_code = columns.T  # row i is column i of the phase-1 matrix
    # the live LPs; the caller's arrays themselves until the first one leaves
    lo, up, bas, st, co, xs = lower, upper, basis, stat, codes, x
    for _ in range(_MAX_ITERATIONS):
        if live.size == 0:
            return unbounded
        rows = np.arange(live.size)
        at = rows[:, None] * width + bas  # flat positions of the basic variables in the (live, width) arrays
        key = co.take(at)  # the basis columns' codes
        first, group = _basis_groups(key, weights)
        lead = by_code[key[first]].transpose(0, 2, 1)  # slice i holds LP first[i]'s basis columns
        x_nb = xs.copy()
        x_nb.put(at, 0.0)
        try:
            xs.put(at, np.linalg.solve(lead[group], b[:, None] - plus @ x_nb[:, :, None])[:, :, 0])
            y = np.linalg.solve(lead.transpose(0, 2, 1), c[bas[first]][:, :, None])[group, :, 0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
            raise InternalCheckError(f"singular simplex basis: {exc}") from exc
        reduced = c - (y[:, None, :] @ plus)[:, 0, :]  # read only where a candidate is, never on a basic column
        reduced[:, n:] = c[n:] - np.where(co[:, n:] < width, y, -y)
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
            lo, up, bas, st, xs, co, bland, stall, group, reduced, candidates = (
                arr[going] for arr in (lo, up, bas, st, xs, co, bland, stall, group, reduced, candidates)
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

        code = co.take(at_enter)
        w_first, w_group = _distinct(group * by_code.shape[0] + code)
        w = np.linalg.solve(lead[group[w_first]], by_code[code[w_first]][:, :, None])[w_group, :, 0]
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
            lo, up, bas, st, xs, co, bland, stall = (
                arr[going] for arr in (lo, up, bas, st, xs, co, bland, stall)
            )
    raise InternalCheckError("simplex iteration cap exceeded")


def solve_stack(objective, a_eq, b_eq, lower, upper) -> StackSolution:
    """Two-phase simplex on one LP with at least one row under K sets of bounds.

    objective is (n,), a_eq (m, n) and b_eq (m,), one problem for the whole
    stack; lower and upper are (K, n) and set K. An objective, matrix or
    right-hand side per LP raises ParameterError, and so does any value
    that fails the checks, which run once over the whole stack. b_eq is
    taken as b_eq + 0.0, so a -0.0 in it counts as 0.0. Infeasible and
    unbounded LPs are reported through their status, never raised, with NaN
    values and objective; every optimum is re-verified against the
    constraints and bounds. Row k of the result equals by == in status,
    values and objective what a stack of bounds row k alone returns: K >= 2
    runs the same two phases, pivots and checks in lockstep on one phase-1
    matrix (see _iterate_many), and a stack of one takes the serial path
    (_solve_one), which gives those bits for less work.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    c = np.asarray(objective, dtype=float)
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float) + 0.0
    if lower.ndim != 2 or upper.shape != lower.shape:
        raise ParameterError("bounds of a stack must be two (K, n) arrays of one shape")
    k_all, n = lower.shape
    if a.ndim != 2 or a.shape[1] != n or c.shape != (n,) or b.shape != a.shape[:1]:
        raise ParameterError("a stack takes one objective (n,), one matrix (m, n) and one right-hand side (m,) "
                             "under (K, n) bounds")
    if a.shape[0] == 0:
        raise ParameterError("a stack of LPs needs at least one equality row")
    _check_values(c, a, b, lower, upper)
    if k_all == 1:
        return _solve_one(c, a, b, lower[0], upper[0])

    c_phase1, columns, codes, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    counts = [0, 0, 0, 0, 0]
    if _iterate_many(c_phase1, columns, b, lo1, up1, basis, stat, codes, x, counts).any():  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")
    feasible, c_phase2 = _phase_two(c, columns, codes, lo1, up1, basis, stat, x)
    live = np.flatnonzero(feasible)
    stacks = lo1, up1, basis, stat, codes, x
    if live.size < k_all:  # otherwise phase 2 runs on the phase-1 stacks, uncopied
        stacks = tuple(arr[live] for arr in stacks)
    unbounded = _iterate_many(c_phase2, columns, b, *stacks, counts)
    log.debug("lockstep stack: %d LPs, %d iterations, %d LP-iterations (y rows), %d y solves, "
              "%d w solves for %d rows", k_all, *counts)

    verdicts = (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED, LPStatus.OPTIMAL)
    verdict = np.zeros(k_all, dtype=int)
    verdict[live] = np.where(unbounded, 1, 2)
    optimal = live[~unbounded]
    values = np.full((k_all, n), np.nan)
    values[optimal] = stacks[-1][~unbounded, :n]
    _check_points(a, b, lower, upper, values, optimal)
    objective_value = (values[:, None, :] @ c[:, None])[:, 0, 0]  # per LP the dot product _solve_one takes
    return StackSolution(tuple(verdicts[i] for i in verdict.tolist()), values, objective_value)
