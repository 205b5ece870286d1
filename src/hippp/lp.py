"""Dense bounded-variable simplex solver.

Solves   maximize c . x   subject to   A x = b,   lower <= x <= upper,
where either bound may be infinite. Problems in this package are small
(tens of variables), so everything is dense and each iteration refactors
the basis with a fresh linear solve; accuracy is favored over speed.

Pivoting is deterministic: Dantzig pricing with ties broken by lowest
variable index, falling back to Bland's rule after a run of degenerate
steps. Identical inputs therefore produce bit-identical solutions, which
keeps Monte Carlo sweeps reproducible across runs and worker counts.

solve_stack runs a stack of K same-shape LPs through the same two phases in
lockstep, over arrays: an objective, one constraint matrix broadcast over the
whole stack or one per LP, right-hand sides, and (K, n) bounds. Validation,
the phase-1 set-up, the phase-2 handover and the certification each run once
over the stack; only an LP that still holds a basic artificial after phase 1
has it exchanged on its own. Each LP keeps its own basis, statuses, Bland
flag, stall count and verdict, and leaves the stack when it is done. Every
step is a stacked np.linalg.solve on (K, m, m) with a (K, m, 1) right-hand
side, a stacked matmul, or an elementwise op, each of which gives, slice for
slice, the bits of the serial call. So every LP takes the same pivots and
returns the same bits as under solve. The phase-1 set-up, the phase-2
handover and the certification are written once, for one LP or a stack, and
solve uses them too. The serial path stays, because the stack costs two to
three times as much per LP at K = 1, so a stack of one goes through it.

The rest of the package writes its LPs as arrays and solves them only with
solve_stack, one LP or many. LinearProgram and solve are the serial API for
a caller who holds one LP, and the stack's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalCheckError, ParameterError

FEASIBILITY_TOL = 1e-8
REDUCED_COST_TOL = 1e-9

_PIVOT_TOL = 1e-10
_DEGENERATE_STEP = 1e-12
_STALL_LIMIT = 64        # degenerate iterations tolerated before switching to Bland's rule
_MAX_ITERATIONS = 20_000

# nonbasic-at-lower / nonbasic-at-upper / nonbasic free (at zero) / basic
_NB_LOWER, _NB_UPPER, _NB_FREE, _BASIC = 0, 1, 2, 3


class LPStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_values(objective, a, b, lower, upper):
    """LinearProgram's checks on its values, for one LP or over a whole stack
    at once: finite objective and constraints, no NaN bound, no lower bound
    above its upper."""
    if not np.all(np.isfinite(objective)):
        raise ParameterError("objective coefficients must be finite")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("equality constraints must be finite")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
        raise ParameterError("bounds must not be NaN")
    crossed = lower > upper
    if np.any(crossed):
        *lp, j = np.argwhere(crossed)[0].tolist()
        where = f"LP {lp[0]}, " if lp else ""
        raise ParameterError(f"{where}variable {j}: lower bound exceeds upper bound")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  s.t.  a_eq x = b_eq  and  lower <= x <= upper."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        obj = _as_readonly(self.objective)
        if obj.ndim != 1:
            raise ParameterError("objective must be one-dimensional")
        n = obj.size
        a = np.array(self.a_eq, dtype=float)
        if a.ndim != 2:
            a = a.reshape(-1, n) if a.size else a.reshape(0, n)
        if a.shape[1] != n:
            raise ParameterError(
                f"constraint matrix has {a.shape[1]} columns for {n} variables"
            )
        a.setflags(write=False)
        b = _as_readonly(self.b_eq)
        if b.shape != (a.shape[0],):
            raise ParameterError("right-hand side length does not match constraint rows")
        lower = _as_readonly(self.lower)
        upper = _as_readonly(self.upper)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ParameterError("bound vectors must have one entry per variable")
        _check_values(obj, a, b, lower, upper)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LPSolution:
    """Solver verdict. `values` is empty and the objective NaN unless optimal."""

    status: LPStatus
    values: np.ndarray
    objective_value: float


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
    """Run simplex iterations in place; returns 'optimal' or 'unbounded'."""
    m = basis.size
    bland = False
    stall = 0
    for _ in range(_MAX_ITERATIONS):
        if m:
            basis_cols = a[:, basis]
            x_nb = x.copy()
            x_nb[basis] = 0.0
            try:
                x[basis] = np.linalg.solve(basis_cols, b - a @ x_nb)
                y = np.linalg.solve(basis_cols.T, c[basis])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
                raise InternalCheckError(f"singular simplex basis: {exc}") from exc
            reduced = c - y @ a
        else:
            reduced = c.copy()
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

        if m:
            w = np.linalg.solve(basis_cols, a[:, enter])
            g = -direction * w  # per-unit change of each basic variable
            xb = x[basis]
            caps = np.full(m, np.inf)
            hits_upper = g > _PIVOT_TOL
            hits_lower = g < -_PIVOT_TOL
            caps[hits_upper] = (upper[basis[hits_upper]] - xb[hits_upper]) / g[hits_upper]
            caps[hits_lower] = (lower[basis[hits_lower]] - xb[hits_lower]) / g[hits_lower]
            np.maximum(caps, 0.0, out=caps)
            step_basic = float(caps.min())
        else:
            g = np.zeros(0)
            xb = np.zeros(0)
            caps = np.zeros(0)
            step_basic = np.inf
        step_self = upper[enter] - lower[enter]  # bound-to-bound flip distance
        step = min(step_basic, step_self)
        if not np.isfinite(step):
            return "unbounded"

        if step_self < step_basic:
            # entering variable flips to its opposite bound; basis unchanged
            if m:
                x[basis] = xb + g * step
            x[enter] = upper[enter] if direction > 0 else lower[enter]
            stat[enter] = _NB_UPPER if direction > 0 else _NB_LOWER
        else:
            tied = np.flatnonzero(caps <= step + 1e-12)
            leave_pos = int(tied[np.argmin(basis[tied])])  # lowest variable index wins
            leaving = int(basis[leave_pos])
            x[basis] = xb + g * step
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


def _no_point(status: LPStatus) -> LPSolution:
    return LPSolution(status, _as_readonly(np.zeros(0)), float("nan"))


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


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex. Infeasible and unbounded problems are reported
    through the status, never raised; a returned optimum is re-verified
    against the constraints and bounds before it leaves this function.
    """
    return _solve_one(lp.objective, lp.a_eq, lp.b_eq, lp.lower, lp.upper)


def _solve_one(objective, a, b, lower, upper) -> LPSolution:
    """solve on the arrays of one validated LP."""
    c = objective.copy()
    if b.size:
        c_phase1, a1, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
        outcome = _iterate(c_phase1, a1, b, lo1, up1, basis, stat, x)
        if outcome != "optimal":  # pragma: no cover - phase 1 objective is bounded
            raise InternalCheckError("phase-1 simplex reported unbounded")
        feasible, c_phase2 = _phase_two(c, a1, lo1, up1, basis, stat, x)
        if not feasible:
            return _no_point(LPStatus.INFEASIBLE)
        outcome = _iterate(c_phase2, a1, b, lo1, up1, basis, stat, x)
        values = x[:c.size]
    else:
        x, stat = _initial_point(lower, upper)
        outcome = _iterate(c, a, b, lower, upper, np.zeros(0, dtype=int), stat, x)
        values = x

    if outcome == "unbounded":
        return _no_point(LPStatus.UNBOUNDED)
    _check_points(a, b, lower, upper, values)
    return LPSolution(LPStatus.OPTIMAL, _as_readonly(values), float(c @ values))


def _iterate_many(c, a, b, lower, upper, basis, stat, x) -> np.ndarray:
    """_iterate on a stack of K same-shape problems at once, in lockstep.

    Every argument gains a leading axis of length K; basis, stat and x are
    updated in place. Each problem keeps its own basis, statuses, Bland flag,
    stall count and verdict, and takes exactly the steps _iterate would take
    on it alone: the stacked linear solves and matrix products give, slice for
    slice, the bits of the serial calls, and everything else is elementwise
    or a per-row selection with the same tie rules. A problem leaves the live
    stack as soon as it is optimal, before the ratio test and its solve, or
    unbounded. A step writes only the non-basic values it moves: the next
    iteration's solve overwrites every basic value. Returns the (K,) mask of
    unbounded problems.
    """
    unbounded = np.zeros(basis.shape[0], dtype=bool)
    live = np.arange(basis.shape[0])
    bland = np.zeros(live.size, dtype=bool)
    stall = np.zeros(live.size, dtype=int)
    # the live problems; the caller's arrays themselves until the first one leaves
    cc, aa, bb, lo, up, bas, st, xs = c, a, b, lower, upper, basis, stat, x
    for _ in range(_MAX_ITERATIONS):
        if live.size == 0:
            return unbounded
        rows = np.arange(live.size)[:, None]
        basis_cols = aa[rows, :, bas].transpose(0, 2, 1)  # slice k holds the columns a_k[:, bas_k]
        x_nb = xs.copy()
        x_nb[rows, bas] = 0.0
        try:
            xs[rows, bas] = np.linalg.solve(basis_cols, bb[:, :, None] - aa @ x_nb[:, :, None])[:, :, 0]
            y = np.linalg.solve(basis_cols.transpose(0, 2, 1), cc[rows, bas][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
            raise InternalCheckError(f"singular simplex basis: {exc}") from exc
        reduced = cc - (y[:, None, :] @ aa)[:, 0, :]
        reduced[rows, bas] = 0.0

        can_increase = (st == _NB_LOWER) | (st == _NB_FREE)
        can_decrease = (st == _NB_UPPER) | (st == _NB_FREE)
        candidates = (up > lo) & (
            (can_increase & (reduced > REDUCED_COST_TOL))
            | (can_decrease & (reduced < -REDUCED_COST_TOL))
        )
        candidates[rows, bas] = False
        optimal = ~candidates.any(axis=1)
        if optimal.any():  # these leave before the ratio test and its solve
            basis[live[optimal]], stat[live[optimal]], x[live[optimal]] = bas[optimal], st[optimal], xs[optimal]
            live = live[~optimal]
            if live.size == 0:
                return unbounded
            rows = rows[:live.size]
            cc, aa, bb, lo, up, bas, st, xs, bland, stall, basis_cols, reduced, candidates = (
                arr[~optimal] for arr in
                (cc, aa, bb, lo, up, bas, st, xs, bland, stall, basis_cols, reduced, candidates)
            )
        # Bland takes the first candidate; Dantzig the first of the largest |reduced cost|
        enter = np.where(
            bland,
            candidates.argmax(axis=1),
            np.where(candidates, np.abs(reduced), -np.inf).argmax(axis=1),
        )
        r = rows[:, 0]
        direction = np.where((st[r, enter] == _NB_LOWER) | (reduced[r, enter] > 0.0), 1.0, -1.0)

        w = np.linalg.solve(basis_cols, aa[r, :, enter][:, :, None])[:, :, 0]
        g = -direction[:, None] * w
        xb = xs[rows, bas]
        hits_upper = g > _PIVOT_TOL
        hits_lower = g < -_PIVOT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            to_upper = (up[rows, bas] - xb) / g
            to_lower = (lo[rows, bas] - xb) / g
        caps = np.where(hits_upper, to_upper, np.where(hits_lower, to_lower, np.inf))
        np.maximum(caps, 0.0, out=caps)
        step_basic = caps.min(axis=1)
        step_self = up[r, enter] - lo[r, enter]
        step = np.minimum(step_basic, step_self)

        going = np.isfinite(step)
        unbounded[live] = ~going

        flip = going & (step_self < step_basic)
        pivot = going & ~flip
        leave_pos = np.where(caps <= (step + 1e-12)[:, None], bas, np.iinfo(bas.dtype).max).argmin(axis=1)
        leaving = bas[r, leave_pos]
        leave_up = g[r, leave_pos] > 0
        fr, fe, fd = r[flip], enter[flip], direction[flip] > 0
        xs[fr, fe] = np.where(fd, up[fr, fe], lo[fr, fe])
        st[fr, fe] = np.where(fd, _NB_UPPER, _NB_LOWER)
        pr, pe, pl, pu = r[pivot], enter[pivot], leaving[pivot], leave_up[pivot]
        xs[pr, pl] = np.where(pu, up[pr, pl], lo[pr, pl])
        st[pr, pl] = np.where(pu, _NB_UPPER, _NB_LOWER)
        st[pr, pe] = _BASIC
        bas[pr, leave_pos[pivot]] = pe

        stall = np.where(step <= _DEGENERATE_STEP, stall + 1, 0)
        bland |= stall >= _STALL_LIMIT

        if not going.all():
            done = ~going
            basis[live[done]], stat[live[done]], x[live[done]] = bas[done], st[done], xs[done]
            live = live[going]
            cc, aa, bb, lo, up, bas, st, xs, bland, stall = (
                arr[going] for arr in (cc, aa, bb, lo, up, bas, st, xs, bland, stall)
            )
    raise InternalCheckError("simplex iteration cap exceeded")


def solve_stack(objective, a_eq, b_eq, lower, upper) -> StackSolution:
    """solve on a stack of K same-shape LPs with at least one row, in lockstep.

    lower and upper are (K, n) and set K. objective is (n,) or (K, n), b_eq
    (m,) or (K, m), and a_eq (m, n) or (K, m, n); a matrix the whole stack
    shares is broadcast, never copied per LP. LinearProgram's checks run
    once over the whole stack, and any LP that fails them raises
    ParameterError. Row k of the result equals by == in status, values and
    objective what solve returns for LP k alone: the stack runs the same two
    phases, pivots and checks, only stacked (see _iterate_many). A stack of
    one LP goes through solve's serial path, which gives those bits for less
    work.
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
    c = np.broadcast_to(c, (k_all, n))
    b = np.broadcast_to(b, (k_all, m))
    if k_all == 1:
        one = _solve_one(c[0], a.reshape(m, n), b[0], lower[0], upper[0])
        values = one.values[None, :] if one.status is LPStatus.OPTIMAL else np.full((1, n), np.nan)
        return StackSolution((one.status,), values, np.array([one.objective_value]))

    c_phase1, a1, lo1, up1, basis, stat, x = _phase_one(a, b, lower, upper)
    if _iterate_many(c_phase1, a1, b, lo1, up1, basis, stat, x).any():  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")
    feasible, c_phase2 = _phase_two(c, a1, lo1, up1, basis, stat, x)
    live = np.flatnonzero(feasible)
    stacks = c_phase2, a1, b, lo1, up1, basis, stat, x
    if live.size < k_all:  # otherwise phase 2 runs on the phase-1 stacks, uncopied
        stacks = tuple(arr[live] for arr in stacks)
    unbounded = _iterate_many(*stacks)

    verdicts = (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED, LPStatus.OPTIMAL)
    verdict = np.zeros(k_all, dtype=int)
    verdict[live] = np.where(unbounded, 1, 2)
    optimal = live[~unbounded]
    values = np.full((k_all, n), np.nan)
    values[optimal] = stacks[-1][~unbounded, :n]
    _check_points(a, b, lower, upper, values, optimal)
    objective_value = (values[:, None, :] @ c[:, :, None])[:, 0, 0]  # per LP the dot product solve takes
    return StackSolution(tuple(verdicts[i] for i in verdict.tolist()), values, objective_value)
