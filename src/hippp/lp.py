"""Dense bounded-variable simplex solver.

Solves   maximize c . x   subject to   A x = b,   lower <= x <= upper,
where either bound may be infinite. Problems in this package are small
(tens of variables), so everything is dense and each iteration refactors
the basis with a fresh linear solve, or an exact gather where the basis is
a signed permutation; accuracy is favored over speed.

Pivoting is deterministic: Dantzig pricing with ties broken by lowest
variable index, falling back to Bland's rule after a run of degenerate
steps. Identical inputs therefore produce bit-identical solutions, which
keeps Monte Carlo sweeps reproducible across runs and worker counts.

solve_stack is the one entry point. It takes one problem (an objective, a
constraint matrix and a right-hand side) under K sets of bounds, given as
(K, n) arrays, and returns the K optimal points. Every LP this package
builds is feasible and bounded by construction, so an infeasible or an
unbounded LP is a fault: it raises InternalCheckError naming the LP by its
index in the stack. The stack runs in consecutive passes, sized by the
solver alone (_PASS_LPS, _PASS_CELLS), so a caller hands it every LP of
one problem. One two-phase driver serves every pass. The phase-1 set-up
and the phase-2 handover each run once over a pass, and the certification
once over the stack; only an LP that still holds a basic artificial after
phase 1 has it exchanged on its own. A pass keeps one phase-1 matrix, the
problem's columns and both signs of every row's artificial, and each LP
reads its own columns from it through a row of column codes (_phase_one):
the LPs differ only in bounds, hence only in the signs of their
artificials.

The inner loop runs each phase. On a pass of K >= 2 LPs it is the lockstep
(_iterate_many): each LP keeps its own basis, statuses, Bland flag and
stall count, and leaves the stack when it is optimal. Every step is a
stacked LU solve on (G, m, m) with a (G, m, 1) right-hand side, a stacked
matmul, an exact gather, or an elementwise op, each of which gives, slice
for slice, the bits of the serial call. LPs whose basis columns are the
same columns of the one matrix share their solves for the duals and the
entering column: equal inputs give equal bits. An LP whose basis columns
are all signed unit columns (the artificials, and the -e_j columns of the
flow LPs) has a signed permutation for its basis, which LAPACK's LU with
partial pivoting factors without rounding: its basic values are a gather
of the right-hand side, with LAPACK's bits (see _iterate_many). So every
LP takes the same pivots and returns the same bits as it does alone, in
whatever pass. A pass of one runs the serial loop (_iterate) on its own
matrix instead, because the lockstep costs about three times as much at
K = 1 (3.1-3.5x on the two LPs of the layer-1 design solve at N = 9 and
16, on a 2-core Xeon); that loop is also the lockstep's bitwise
reference. It keeps in numpy what reads a matrix: the gather of the basis
columns, b - A x_N, y A and the three solves. Pricing, the ratio test and
the updates run on Python floats and lists, with numpy's tie rules. The
bits hold because IEEE +, -, * and / round the same in Python as in numpy,
and every product and solve stays in numpy and LAPACK.

Every LAPACK solve, in either loop, goes through _solve: the gufunc that
numpy.linalg's solve calls, without that function's per-call Python
wrapper, so with its bits. That wrapper also sets an error state per call,
under which LAPACK's flag for a singular matrix raises LinAlgError;
solve_stack sets it (_errstate) once, around both phases and the
handover of every pass, because per call it cost about 4 us on a 2-core
Xeon, as much as a 9x9 solve. Inside it an invalid value raises too, and
overflow, division by zero and underflow pass silently. A LinAlgError
there ends the solve as InternalCheckError.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind numpy.linalg's solve, loaded with numpy

from .errors import InternalCheckError, ParameterError

log = logging.getLogger(__name__)

FEASIBILITY_TOL = 1e-8
REDUCED_COST_TOL = 1e-9

_PIVOT_TOL = 1e-10
_DEGENERATE_STEP = 1e-12
_RATIO_TIE = 1e-12  # a basic variable whose ratio is within this of the step ties for leaving, in both loops
_STALL_LIMIT = 64        # degenerate iterations tolerated before switching to Bland's rule
_MAX_ITERATIONS = 20_000

# a stack runs in passes of at most _PASS_LPS LPs, and of fewer when their (LPs, rows, rows)
# basis matrices would pass _PASS_CELLS cells: 1024 LPs up to 32 rows, 256 at 64. The cells
# bound the lockstep's largest working arrays, 8 MB each. The LPs bound the rest: under the
# cells alone, the 10,000 LPs of the README default curve (9 rows) ran as one pass, 1.03-1.08x
# slower than in passes of 1024
_PASS_LPS = 1024
_PASS_CELLS = 1 << 20

_HASH_BASE = 0x9E3779B97F4A7C15  # the odd 64-bit golden-ratio constant; _iterate_many hashes with its powers

# nonbasic-at-lower / nonbasic-at-upper / nonbasic free (at zero) / basic
_NB_LOWER, _NB_UPPER, _NB_FREE, _BASIC = 0, 1, 2, 3
_RISES, _FALLS = (_NB_LOWER, _NB_FREE), (_NB_UPPER, _NB_FREE)  # the statuses that may increase / decrease
_NO_POSITION = np.iinfo(np.intp).max  # above every basis index in the leaving-variable choice


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


def _initial_point(lower: np.ndarray, upper: np.ndarray):
    """Start each variable at its lower bound when finite, else upper, else
    zero; for a (K, n) stack of bounds."""
    fin_lo = np.isfinite(lower)
    only_up = ~fin_lo & np.isfinite(upper)
    x = np.where(fin_lo, lower, np.where(only_up, upper, 0.0))
    stat = np.where(fin_lo, _NB_LOWER, np.where(only_up, _NB_UPPER, _NB_FREE)).astype(np.int8)
    return x, stat


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _errstate():
    """The error state numpy.linalg's solve sets around its gufunc: an
    invalid value, which is how LAPACK flags a singular matrix, raises
    np.linalg.LinAlgError, and overflow, division by zero and underflow pass
    silently. solve_stack enters it once around both phases."""
    return np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


def _solve(a, b):
    """numpy.linalg's solve of a x = b for float64 a (..., m, m) and b, (m,)
    or (..., m, k), without its Python wrapper: the gufunc that the wrapper
    calls on such input. So the result has the same bits, and under
    _errstate() a singular a raises np.linalg.LinAlgError."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


def _iterate(c, columns, b, lower, upper, basis, stat, codes, x, counts, offset) -> None:
    """_iterate_many on a pass of one LP with at least one row, with its
    arguments, serially: on the LP's own C-contiguous phase-1 matrix (a
    plain gather is F-ordered, and matmul would take another kernel). An
    unbounded LP raises InternalCheckError naming LP `offset`. It solves
    every x_B, y and w with LAPACK, and counts gains what _iterate_many's
    would with no x_B gather: per iteration one iteration, LP iteration and
    y solve, and per step one w solve and w row.

    Bounds, statuses and the basis are read from Python lists; stat is
    written back when the LP is optimal. As in _iterate_many, a step writes
    only the non-basic values it moves: the next iteration's solve
    overwrites every basic value.
    """
    a = np.ascontiguousarray(columns[:, codes[0]])
    basis, stat, x = basis[0], stat[0], x[0]
    lo, up, st = lower[0].tolist(), upper[0].tolist(), stat.tolist()
    movable = [j for j in range(len(lo)) if up[j] > lo[j]]
    bas = basis.tolist()
    bland = False
    stall = 0
    for _ in range(_MAX_ITERATIONS):
        basis_cols = a[:, basis]
        x_nb = x.copy()
        x_nb[basis] = 0.0
        x_b = _solve(basis_cols, b - a @ x_nb)
        y = _solve(basis_cols.T, c[basis])
        x[basis] = x_b
        reduced = (c - y @ a).tolist()
        counts[0] += 1
        counts[1] += 1
        counts[2] += 1

        # Bland takes the first candidate, Dantzig the first of the largest |reduced cost|;
        # a basic variable's status is _BASIC, so it is never one
        enter, best = -1, 0.0
        for j in movable:
            r = reduced[j]
            if (r > REDUCED_COST_TOL and st[j] in _RISES) or (r < -REDUCED_COST_TOL and st[j] in _FALLS):
                if bland:
                    enter = j
                    break
                if abs(r) > best:
                    enter, best = j, abs(r)
        if enter < 0:
            stat[:] = st
            return
        direction = 1.0 if (st[enter] == _NB_LOWER or reduced[enter] > 0.0) else -1.0

        w = _solve(basis_cols, a[:, enter]).tolist()  # the same matrix as x_b's solve, so not singular
        counts[3] += 1
        counts[4] += 1
        g = [-direction * wi for wi in w]  # per-unit change of each basic variable
        caps = []
        for gi, xi, j in zip(g, x_b.tolist(), bas):
            if gi > _PIVOT_TOL:
                cap = (up[j] - xi) / gi
            elif gi < -_PIVOT_TOL:
                cap = (lo[j] - xi) / gi
            else:
                cap = math.inf
            caps.append(cap if cap > 0.0 else 0.0)  # np.maximum(cap, 0.0): -0.0 becomes +0.0
        step_basic = min(caps)
        step_self = up[enter] - lo[enter]  # bound-to-bound flip distance
        step = min(step_basic, step_self)
        if not math.isfinite(step):
            raise InternalCheckError(f"LP {offset} of the stack is unbounded")

        if step_self < step_basic:
            # entering variable flips to its opposite bound; basis unchanged
            x[enter] = up[enter] if direction > 0 else lo[enter]
            st[enter] = _NB_UPPER if direction > 0 else _NB_LOWER
        else:
            tie = step + _RATIO_TIE
            leave_pos = min((pos for pos, cap in enumerate(caps) if cap <= tie), key=bas.__getitem__)
            leaving = bas[leave_pos]  # lowest variable index wins
            if g[leave_pos] > 0:
                x[leaving] = up[leaving]
                st[leaving] = _NB_UPPER
            else:
                x[leaving] = lo[leaving]
                st[leaving] = _NB_LOWER
            st[enter] = _BASIC
            basis[leave_pos] = bas[leave_pos] = enter

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
        row = np.abs(_solve(basis_cols.T, unit) @ a[:, :n_real])
        nonbasic = stat[:n_real] != _BASIC
        picks = np.flatnonzero(nonbasic & (upper[:n_real] > lower[:n_real]) & (row > 1e-7))
        if picks.size == 0:
            picks = np.flatnonzero(nonbasic & (row > 1e-9))
        if picks.size == 0:
            continue
        pick = int(picks[0])
        artificial = int(basis[pos])
        basis[pos] = pick
        stat[pick] = _BASIC
        stat[artificial] = _NB_LOWER
        x[artificial] = 0.0


def _phase_one(a, b, lower, upper):
    """Phase-1 problem of the LP (a, b) under a stack of (K, n) bounds: one
    artificial per row, signed by the residual at the starting point and
    basic, with objective -sum of them.

    Returns (c, columns, codes, lower, upper, basis, stat, x). columns is the
    stack's one phase-1 matrix [A | I | 0 - I], (m, n + 2m) and free of
    -0.0, and codes (K, n + m) names the column of it that each LP column
    is: j for column j, n + r or n + m + r for row r's artificial, by the
    sign of its residual. So columns[:, codes[k]] is LP k's phase-1 matrix.
    c (n + m,) is the shared phase-1 objective; the rest has a leading K
    axis and is freshly allocated.
    """
    m, n = a.shape
    k = lower.shape[0]
    x0, stat0 = _initial_point(lower, upper)
    residual = b - (a @ x0[..., None])[..., 0]
    eye = np.eye(m)
    columns = np.concatenate([a, eye, 0.0 - eye], axis=1)
    codes = np.concatenate([np.broadcast_to(np.arange(n), (k, n)), n + np.arange(m) + m * (residual < 0.0)], axis=1)
    lo1 = np.concatenate([lower, np.zeros((k, m))], axis=1)
    up1 = np.concatenate([upper, np.full((k, m), np.inf)], axis=1)
    x = np.concatenate([x0, np.abs(residual)], axis=1)
    stat = np.concatenate([stat0, np.full((k, m), _BASIC, dtype=np.int8)], axis=1)
    basis = np.broadcast_to(np.arange(n, n + m), (k, m)).copy()
    return np.concatenate([np.zeros(n), -np.ones(m)]), columns, codes, lo1, up1, basis, stat, x


def _phase_two(c, columns, codes, lo1, up1, basis, stat, x, offset):
    """Turn a finished phase 1 of a pass into phase 2 in place; returns the
    shared phase-2 objective, c padded with zeros.

    An LP whose artificials sum to more than FEASIBILITY_TOL is infeasible:
    InternalCheckError names the first one by its index in the stack, the
    pass's LP 0 being LP `offset`. Each LP that still holds a basic
    artificial has its zero artificials driven out of the basis, one LP at a
    time, on its own C-contiguous phase-1 matrix; then every artificial is
    pinned at zero.
    """
    n = c.size
    infeasible = np.flatnonzero(~(x[:, n:].sum(axis=1) <= FEASIBILITY_TOL))  # a NaN sum is infeasible too
    if infeasible.size:
        raise InternalCheckError(f"LP {offset + infeasible[0]} of the stack is infeasible")
    for k in np.flatnonzero((basis >= n).any(axis=1)):
        a1 = np.ascontiguousarray(columns[:, codes[k]])
        _drive_out_artificials(a1, lo1[k], up1[k], basis[k], stat[k], x[k], n)
    lo1[:, n:] = 0.0
    up1[:, n:] = 0.0  # artificials pinned; they can never re-enter
    return np.concatenate([c, np.zeros(basis.shape[1])])


def _check_points(a, b, lower, upper, values):
    """Re-verify a (K, n) stack of optimal points against the constraints
    and bounds; a violation here, or a NaN, is a solver bug."""
    eq_residual = float(np.abs((a @ values[..., None])[..., 0] - b).max(initial=0.0))
    if not eq_residual <= FEASIBILITY_TOL:
        raise InternalCheckError(f"optimal point violates equalities by {eq_residual:.3e}")
    bound_violation = float(np.maximum(  # np.maximum, not max(), to keep a NaN
        (lower - values).max(initial=0.0, where=np.isfinite(lower)),
        (values - upper).max(initial=0.0, where=np.isfinite(upper)),
    ))
    if not bound_violation <= FEASIBILITY_TOL:
        raise InternalCheckError(f"optimal point violates bounds by {bound_violation:.3e}")


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


def _aligned_rows(arr):
    """A copy of a 2-D float array whose every row starts at the alignment
    of a fresh array: its rows are padded to an even length, so 16 bytes
    apart or a multiple of that."""
    k, w = arr.shape
    out = np.empty((k, w + w % 2))[:, :w]
    out[...] = arr
    return out


def _unit_columns(columns):
    """The signed unit columns s e_r of a matrix: (row, sign) per column, r
    and s (+-1.0) for such a column, 0 and 0.0 for any other. Nonzeros are
    found by != 0.0, so -0.0 entries count as zeros."""
    nonzero = columns != 0.0
    row = nonzero.argmax(axis=0)
    value = columns[row, np.arange(columns.shape[1])]
    unit = (nonzero.sum(axis=0) == 1) & (np.abs(value) == 1.0)
    return np.where(unit, row, 0), np.where(unit, value, 0.0)


def _iterate_many(c, columns, b, lower, upper, basis, stat, codes, x, counts, offset) -> None:
    """_iterate on a pass of K LPs of one problem at once, in lockstep.

    c (w,) and b (m,) are the problem's, shared; columns (m, ·) and codes
    (K, w) come from _phase_one, and LP k's matrix is columns[:, codes[k]].
    lower, upper, basis, stat and x gain a leading axis of length K; basis,
    stat and x are updated in place. Each LP keeps its own basis, statuses,
    Bland flag and stall count, and takes exactly the steps _iterate would
    take on it alone: the stacked linear solves and matrix products give,
    slice for slice, the bits of the serial calls, and everything else is
    elementwise or a per-row selection with the same tie rules. An LP leaves
    the live stack as soon as it is optimal, before the ratio test and its
    solve; an unbounded LP raises InternalCheckError naming it by its index
    in the stack, the pass's LP 0 being LP `offset`. A step writes only the
    non-basic values it moves: the next iteration's solve overwrites every
    basic value.

    Basis and entering columns are gathered by code. The right-hand side
    b - A x_N and the reduced costs c - y A are taken on one C-contiguous
    [A | I] for every LP, with x_N in rows that each start as aligned as the
    serial loop's fresh x_N (_aligned_rows): OpenBLAS's kernels without FMA
    (Prescott) sum A x_N in an order that depends on x_N's 16-byte
    alignment, and a row of a plain (K, w) copy at an odd offset moved bits
    there. That gives each LP's own bits: x_N is +0.0 on every artificial,
    so an artificial's sign reaches b - A x_N only as the sign of a zero,
    which b (free of -0.0) absorbs; and the reduced cost of an artificial
    is then rewritten per LP as c - s y_r, the bits its own column s e_r
    gives.

    An LP whose basis columns are all signed unit columns (B's column i is
    s_i e_{r_i}: the artificials, and _flow_matrix's -e_j columns) has a
    signed permutation for B, on which LAPACK's LU with partial pivoting
    does no arithmetic but exact moves, negations and operations on zeros.
    Its x_B is the gather x_B[i] = s_i rhs[r_i], with LAPACK's bits: the
    right-hand side is never -0.0 (b is free of -0.0, and v - v is +0.0),
    so only s_i sets the sign of a zero. The other LPs solve for x_B with
    LAPACK. A singular basis of unit columns (a row that none covers) still
    gathers an x_B, but the y solve of the same basis raises
    np.linalg.LinAlgError in the same iteration, before anything reads it.

    y and w are solved by group. The duals y (B^T y = c_B) depend on
    nothing but the basis columns and their costs, and the entering column
    w (B w = a_enter) on B and a_enter. Equal codes are the same column of
    the one matrix, with the same cost. So every iteration groups the live
    LPs by their basis row of codes and solves y, and takes the reduced
    costs, once per group, and w once per (group, entering code); every LP
    takes its group's result, and since a stacked solve or matmul gives
    each slice the bits of that slice alone, that is the result of its
    own. counts, a list of six ints, gains the iterations, the LP
    iterations (the y rows), the distinct y solves, the distinct w solves,
    the w rows, and the x_B rows taken by gather.
    """
    live = np.arange(basis.shape[0])
    bland = np.zeros(live.size, dtype=bool)
    stall = np.zeros(live.size, dtype=int)
    weights = np.array([pow(_HASH_BASE, i + 1, 2**64) for i in range(basis.shape[1])], dtype=np.uint64)
    width = c.size
    m = b.size
    n = width - m
    plus = np.ascontiguousarray(columns[:, :width])  # [A | I]
    by_code = columns.T  # row i is column i of the phase-1 matrix
    unit_row, unit_sign = _unit_columns(columns)
    # the live LPs; the caller's arrays themselves until the first one leaves
    lo, up, bas, st, co, xs = lower, upper, basis, stat, codes, x
    for _ in range(_MAX_ITERATIONS):
        rows = np.arange(live.size)
        at = rows[:, None] * width + bas  # flat positions of the basic variables in the (live, width) arrays
        key = co.take(at)  # the basis columns' codes
        sign = unit_sign[key]  # each basis column's s_i; 0.0 off a unit column
        unit = sign.all(axis=1)
        x_nb = _aligned_rows(xs)
        x_nb.put(at, 0.0)
        rhs = b - (plus @ x_nb[:, :, None])[:, :, 0]
        x_b = rhs.take(rows[:, None] * m + unit_row[key]) * sign  # x_B of each LP whose basis is a signed permutation
        first, group = _basis_groups(key, weights)
        lead = by_code[key[first]].transpose(0, 2, 1)  # slice i holds LP first[i]'s basis columns
        solved = np.flatnonzero(~unit)
        x_b[solved] = _solve(lead[group[solved]], rhs[solved, :, None])[:, :, 0]
        y = _solve(lead.transpose(0, 2, 1), c[bas[first]][:, :, None])[:, :, 0]
        reduced = (c - (y[:, None, :] @ plus)[:, 0, :])[group]
        y = y[group]
        xs.put(at, x_b)
        reduced[:, n:] = c[n:] - np.where(co[:, n:] < width, y, -y)
        counts[0] += 1
        counts[1] += live.size
        counts[2] += first.size
        counts[5] += int(np.count_nonzero(unit))

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
                return
            rows = rows[:live.size]
            lo, up, bas, st, xs, co, bland, stall, reduced, candidates, group = (
                arr[going] for arr in (lo, up, bas, st, xs, co, bland, stall, reduced, candidates, group)
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
        w = _solve(lead[group[w_first]], by_code[code[w_first]][:, :, None])[w_group, :, 0]
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
        unbounded = ~np.isfinite(step)
        if unbounded.any():
            raise InternalCheckError(f"LP {offset + live[unbounded][0]} of the stack is unbounded")

        flip = step_self < step_basic
        if flip.any():
            fe, fd = at_enter[flip], direction[flip] > 0
            xs.put(fe, np.where(fd, up.take(fe), lo.take(fe)))
            st.put(fe, np.where(fd, _NB_UPPER, _NB_LOWER))
        pivot = ~flip
        leave_pos = np.where(caps <= (step + _RATIO_TIE)[:, None], bas, _NO_POSITION).argmin(axis=1)
        slot = (rows * bas.shape[1] + leave_pos)[pivot]  # flat position in bas of each pivot's leaving variable
        at_leave, leave_up = at.take(slot), g.take(slot) > 0
        xs.put(at_leave, np.where(leave_up, up.take(at_leave), lo.take(at_leave)))
        st.put(at_leave, np.where(leave_up, _NB_UPPER, _NB_LOWER))
        st.put(at_enter[pivot], _BASIC)
        bas.put(slot, enter[pivot])

        stall = np.where(step <= _DEGENERATE_STEP, stall + 1, 0)
        bland |= stall >= _STALL_LIMIT
    raise InternalCheckError("simplex iteration cap exceeded")


def _solve_pass(c, a, b, lower, upper, offset) -> np.ndarray:
    """The two phases of solve_stack on one pass, (K, n) bounds whose LP 0 is
    LP `offset` of the stack, under _errstate(); returns the (K, n) points,
    unchecked, and logs the pass's counts. A pass of one runs the serial
    loop (_iterate), any other the lockstep (_iterate_many)."""
    iterate = _iterate if len(lower) == 1 else _iterate_many
    c_phase1, columns, codes, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    counts = [0] * 6
    iterate(c_phase1, columns, b, lo1, up1, basis, stat, codes, x, counts, offset)
    c_phase2 = _phase_two(c, columns, codes, lo1, up1, basis, stat, x, offset)
    iterate(c_phase2, columns, b, lo1, up1, basis, stat, codes, x, counts, offset)
    log.debug("LP stack: %d LPs, %d iterations, %d LP-iterations (y rows), %d y solves, "
              "%d w solves for %d rows; %d x_B rows by gather", len(lower), *counts)
    return x[:, :c.size]


def solve_stack(objective, a_eq, b_eq, lower, upper) -> np.ndarray:
    """Two-phase simplex on one LP with at least one row under K sets of
    bounds; returns the (K, n) optimal points.

    objective is (n,), a_eq (m, n) and b_eq (m,), one problem for the whole
    stack; lower and upper are (K, n) and set K. An objective, matrix or
    right-hand side per LP raises ParameterError, and so does any value
    that fails the checks, which run once over the whole stack. b_eq is
    taken as b_eq + 0.0, so a -0.0 in it counts as 0.0. An infeasible LP
    (after phase 1) or an unbounded one raises InternalCheckError, which
    names its index in the whole stack and its verdict, and so does a
    singular basis, without an index; every optimum is re-verified against
    the constraints and bounds.

    The stack runs as consecutive passes of at most _PASS_LPS LPs, and of
    fewer when their (LPs, m, m) basis matrices would pass _PASS_CELLS
    cells, at least one LP a pass (_solve_pass logs one debug line each).
    Row k of the result equals, byte for byte, what a stack of bounds row k
    alone returns, whatever pass holds it: one driver runs phase 1, the
    handover, phase 2 and the checks for every pass, and only the inner
    loop differs, the lockstep for K >= 2 and the serial loop for a pass
    of one.
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

    per_pass = max(1, min(_PASS_LPS, _PASS_CELLS // a.shape[0] ** 2))
    values = np.empty((k_all, n))
    try:
        with _errstate():
            for start in range(0, k_all, per_pass):
                part = slice(start, start + per_pass)
                values[part] = _solve_pass(c, a, b, lower[part], upper[part], start)
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(f"singular simplex basis: {exc}") from exc
    _check_points(a, b, lower, upper, values)
    return values
