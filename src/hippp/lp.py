"""Dense bounded-variable simplex solver.

Solves   maximize c . x   subject to   A x = b,   lower <= x <= upper,
where either bound may be infinite. Problems in this package are small
(tens of variables), so everything is dense and each iteration refactors
the basis with a fresh linear solve; accuracy is favored over speed.

Pivoting is deterministic: Dantzig pricing with ties broken by lowest
variable index, falling back to Bland's rule after a run of degenerate
steps. Identical inputs therefore produce bit-identical solutions, which
keeps Monte Carlo sweeps reproducible across runs and worker counts.

solve_many runs a batch of same-shape LPs through the same two phases in
lockstep. Each LP keeps its own basis, statuses, Bland flag, stall count and
verdict, and leaves the batch when it is done. Every step is a stacked
np.linalg.solve on (K, m, m) with a (K, m, 1) right-hand side, a stacked
matmul, or an elementwise op, each of which gives, slice for slice, the bits
of the serial call. So every LP takes the same pivots and returns the same
bits as under solve. The phase-1 set-up, the exchange of artificials and the
post-hoc certification are shared helpers of both paths. solve stays the
serial path, because the batch costs two to three times as much per LP at
K = 1; it is also the batch's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
        if not np.all(np.isfinite(obj)):
            raise ParameterError("objective coefficients must be finite")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ParameterError("equality constraints must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ParameterError("bounds must not be NaN")
        if np.any(lower > upper):
            j = int(np.argmax(lower > upper))
            raise ParameterError(f"variable {j}: lower bound exceeds upper bound")
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


def _initial_point(lower: np.ndarray, upper: np.ndarray):
    """Start each variable at its lower bound when finite, else upper, else zero."""
    n = lower.size
    x = np.zeros(n)
    stat = np.full(n, _NB_FREE, dtype=np.int8)
    fin_lo = np.isfinite(lower)
    fin_up = np.isfinite(upper)
    x[fin_lo] = lower[fin_lo]
    stat[fin_lo] = _NB_LOWER
    only_up = ~fin_lo & fin_up
    x[only_up] = upper[only_up]
    stat[only_up] = _NB_UPPER
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


def _phase_one(lp: LinearProgram):
    """Phase-1 problem of a constrained LP: one artificial per row, signed by
    the residual at the starting point and basic, with objective -sum of them.

    Returns (c, a, lower, upper, basis, stat, x), all freshly allocated.
    """
    a, b = lp.a_eq, lp.b_eq
    n, m = lp.num_variables, b.size
    x0, stat0 = _initial_point(lp.lower, lp.upper)
    residual = b - a @ x0
    signs = np.where(residual >= 0.0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(signs)])
    lo1 = np.concatenate([lp.lower, np.zeros(m)])
    up1 = np.concatenate([lp.upper, np.full(m, np.inf)])
    x = np.concatenate([x0, np.abs(residual)])
    stat = np.concatenate([stat0, np.full(m, _BASIC, dtype=np.int8)])
    basis = np.arange(n, n + m)
    c_phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    return c_phase1, a1, lo1, up1, basis, stat, x


def _phase_two(c, a1, lo1, up1, basis, stat, x):
    """Turn a finished phase 1 into phase 2 in place; None when infeasible.

    Otherwise drives zero artificials out of the basis, pins every artificial
    at zero and returns the phase-2 objective (c padded with zeros).
    """
    n = c.size
    if x[n:].sum() > FEASIBILITY_TOL:
        return None
    _drive_out_artificials(a1, lo1, up1, basis, stat, x, n)
    lo1[n:] = 0.0
    up1[n:] = 0.0  # artificials pinned; they can never re-enter
    return np.concatenate([c, np.zeros(basis.size)])


def _no_point(status: LPStatus) -> LPSolution:
    return LPSolution(status, _as_readonly(np.zeros(0)), float("nan"))


def _certified(lp: LinearProgram, c, values) -> LPSolution:
    """The optimal verdict for `values`, re-verified against the constraints
    and bounds first; a violation here is a solver bug."""
    if lp.b_eq.size:
        eq_residual = float(np.abs(lp.a_eq @ values - lp.b_eq).max())
        if eq_residual > FEASIBILITY_TOL:
            raise InternalCheckError(f"optimal point violates equalities by {eq_residual:.3e}")
    below = lp.lower - values
    above = values - lp.upper
    bound_violation = max(
        float(below[np.isfinite(below)].max(initial=0.0)),
        float(above[np.isfinite(above)].max(initial=0.0)),
    )
    if bound_violation > FEASIBILITY_TOL:
        raise InternalCheckError(f"optimal point violates bounds by {bound_violation:.3e}")
    return LPSolution(LPStatus.OPTIMAL, _as_readonly(values), float(c @ values))


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex. Infeasible and unbounded problems are reported
    through the status, never raised; a returned optimum is re-verified
    against the constraints and bounds before it leaves this function.
    """
    c = lp.objective.copy()
    a = lp.a_eq
    b = lp.b_eq

    if b.size:
        c_phase1, a1, lo1, up1, basis, stat, x = _phase_one(lp)
        outcome = _iterate(c_phase1, a1, b, lo1, up1, basis, stat, x)
        if outcome != "optimal":  # pragma: no cover - phase 1 objective is bounded
            raise InternalCheckError("phase-1 simplex reported unbounded")
        c_phase2 = _phase_two(c, a1, lo1, up1, basis, stat, x)
        if c_phase2 is None:
            return _no_point(LPStatus.INFEASIBLE)
        outcome = _iterate(c_phase2, a1, b, lo1, up1, basis, stat, x)
        values = x[:c.size]
    else:
        x, stat = _initial_point(lp.lower, lp.upper)
        outcome = _iterate(c, a, b, lp.lower, lp.upper, np.zeros(0, dtype=int), stat, x)
        values = x

    if outcome == "unbounded":
        return _no_point(LPStatus.UNBOUNDED)
    return _certified(lp, c, values)


def _iterate_many(c, a, b, lower, upper, basis, stat, x) -> np.ndarray:
    """_iterate on a stack of K same-shape problems at once, in lockstep.

    Every argument gains a leading axis of length K; basis, stat and x are
    updated in place. Each problem keeps its own basis, statuses, Bland flag,
    stall count and verdict, and takes exactly the steps _iterate would take
    on it alone: the stacked linear solves and matrix products give, slice for
    slice, the bits of the serial calls, and everything else is elementwise
    or a per-row selection with the same tie rules. A problem leaves the live
    stack as soon as it is optimal or unbounded. Returns the (K,) mask of
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

        optimal = ~candidates.any(axis=1)
        unbounded[live] = ~optimal & ~np.isfinite(step)
        going = ~optimal & np.isfinite(step)

        flip = going & (step_self < step_basic)
        pivot = going & ~flip
        leave_pos = np.where(caps <= (step + 1e-12)[:, None], bas, np.iinfo(bas.dtype).max).argmin(axis=1)
        leaving = bas[r, leave_pos]
        leave_up = g[r, leave_pos] > 0
        xs[rows[going], bas[going]] = xb[going] + g[going] * step[going, None]
        fr, fe, fd = r[flip], enter[flip], direction[flip] > 0
        xs[fr, fe] = np.where(fd, up[fr, fe], lo[fr, fe])
        st[fr, fe] = np.where(fd, _NB_UPPER, _NB_LOWER)
        pr, pe, pl, pu = r[pivot], enter[pivot], leaving[pivot], leave_up[pivot]
        xs[pr, pe] += direction[pivot] * step[pivot]
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


def solve_many(lps: Sequence[LinearProgram]) -> list[LPSolution]:
    """solve on a batch of same-shape LPs with at least one row, in lockstep.

    Returns one LPSolution per LP, equal by == in status, values and
    objective to what solve returns for it: the batch runs the same two
    phases, pivots and checks, only stacked (see _iterate_many). A batch of
    one LP goes through solve, which gives those bits for less work. A batch
    mixing shapes, or of LPs without equality rows, raises ParameterError.
    """
    lps = list(lps)
    if not lps:
        return []
    shape = lps[0].a_eq.shape
    if any(lp.a_eq.shape != shape for lp in lps):
        raise ParameterError("a batch of LPs must share one constraint shape")
    m, n = shape
    if m == 0:
        raise ParameterError("a batch of LPs needs at least one equality row")
    if len(lps) == 1:
        return [solve(lps[0])]

    k_all, width = len(lps), n + m
    c, lo1, up1, x = (np.empty((k_all, width)) for _ in range(4))
    a1 = np.empty((k_all, m, width))
    basis = np.empty((k_all, m), dtype=int)
    stat = np.empty((k_all, width), dtype=np.int8)
    for k, lp in enumerate(lps):
        c[k], a1[k], lo1[k], up1[k], basis[k], stat[k], x[k] = _phase_one(lp)
    b = np.stack([lp.b_eq for lp in lps])
    if _iterate_many(c, a1, b, lo1, up1, basis, stat, x).any():  # pragma: no cover
        raise InternalCheckError("phase-1 simplex reported unbounded")

    objectives = [lp.objective.copy() for lp in lps]
    feasible = np.ones(k_all, dtype=bool)
    for k in range(k_all):
        c_phase2 = _phase_two(objectives[k], a1[k], lo1[k], up1[k], basis[k], stat[k], x[k])
        if c_phase2 is None:
            feasible[k] = False
        else:
            c[k] = c_phase2
    live = np.flatnonzero(feasible)
    stacks = c, a1, b, lo1, up1, basis, stat, x
    if live.size < k_all:  # otherwise phase 2 runs on the phase-1 stacks, uncopied
        stacks = tuple(arr[live] for arr in stacks)
    unbounded = _iterate_many(*stacks)
    x = stacks[-1]

    solutions = [_no_point(LPStatus.INFEASIBLE)] * k_all
    for j, k in enumerate(live):
        if unbounded[j]:
            solutions[k] = _no_point(LPStatus.UNBOUNDED)
        else:
            solutions[k] = _certified(lps[k], objectives[k], x[j, :n].copy())
    return solutions
