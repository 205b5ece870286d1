"""Solver checks against independent oracles.

Two oracles back the solver: exhaustive vertex enumeration (every basis,
every at-bound assignment) for tiny problems, and scipy's HiGHS interface
for randomized ones. Neither shares any code with the implementation. The
stacked solver (solve_stack), one problem under many sets of bounds, is
checked row by row against a stack of one per LP (oracles.solve), which runs
the serial loop: an all-optimal stack equals its rows byte for byte, and a
stack raises iff one of its rows raises alone, naming such a row. The serial
loop itself is checked step state for step state against the array loop it
replaced (oracles.serial_iterate), and the solver's LU solve against
np.linalg.solve, byte for byte.
"""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import hippp.lp
import hippp.powerflow
from hippp import (Architecture, ArchitectureKind, BatterySupply, ConverterEdge, DesignConfig, InternalCheckError,
                   Layer1Design, ParameterError, design_layer1, draw_capabilities, flatten, max_string_outputs)
from hippp.lp import solve_stack
from hippp.powerflow import layer1_design_lp
from oracles import LinearProgram, LPStatus, failed_lp, linear_program, serial_iterate, solve

RNG_INSTANCES = 60


def vertex_oracle(lp: LinearProgram):
    """Best objective over all basic feasible points, by brute force.

    Every vertex of {Ax = b, l <= x <= u} has m basic variables and the
    rest pinned at a finite bound. Enumerate all choices; keep the best
    feasible one. Exponential, fine for n <= 6.
    """
    a, b = lp.a_eq, lp.b_eq
    n = lp.objective.size
    m = a.shape[0]
    best = None
    for basic in itertools.combinations(range(n), m):
        nonbasic = [j for j in range(n) if j not in basic]
        sub = a[:, basic]
        if np.linalg.matrix_rank(sub) < m:
            continue
        choices = []
        for j in nonbasic:
            opts = [v for v in (lp.lower[j], lp.upper[j]) if np.isfinite(v)]
            if not opts:
                opts = [0.0]
            choices.append(sorted(set(opts)))
        for assignment in itertools.product(*choices):
            x = np.zeros(n)
            x[nonbasic] = assignment
            rhs = b - a[:, nonbasic] @ x[nonbasic] if nonbasic else b.copy()
            try:
                x[list(basic)] = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x < lp.lower - 1e-9) or np.any(x > lp.upper + 1e-9):
                continue
            value = float(lp.objective @ x)
            if best is None or value > best:
                best = value
    return best


def scipy_oracle(lp: LinearProgram):
    res = linprog(
        -lp.objective,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    if res.status == 2:
        return LPStatus.INFEASIBLE, None
    if res.status == 3:
        return LPStatus.UNBOUNDED, None
    assert res.status == 0
    return LPStatus.OPTIMAL, -res.fun


def random_lp(rng, n_var, n_row, free_prob=0.15, a=None):
    if a is None:
        a = rng.normal(size=(n_row, n_var))
    lower = rng.uniform(-3.0, 0.0, n_var)
    upper = lower + rng.uniform(0.5, 4.0, n_var)
    for j in range(n_var):
        if rng.random() < free_prob:
            lower[j] = -np.inf
        if rng.random() < free_prob:
            upper[j] = np.inf
    # anchor b to a random interior point so most instances are feasible
    x0 = np.where(np.isfinite(lower), lower, -1.0) + rng.uniform(0.1, 0.9, n_var)
    b = a @ x0
    c = rng.normal(size=n_var)
    return LinearProgram(c, a, b, lower, upper)


class TestVertexOracle:
    def test_transport_triangle(self):
        # one source feeding two sinks through bounded arcs
        lp = linear_program(
            objective=[2.0, 1.0, 0.0],
            a_eq=[[1.0, 1.0, 1.0]],
            b_eq=[2.0],
            lower=[0.0, 0.0, 0.0],
            upper=[1.5, 1.5, 1.5],
        )
        sol = solve(lp)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(vertex_oracle(lp), abs=1e-9)
        assert sol.objective_value == pytest.approx(3.5)

    def test_small_random_instances_match_enumeration(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 25:
            lp = random_lp(rng, n_var=5, n_row=2, free_prob=0.0)
            sol = solve(lp)
            if sol.status is not LPStatus.OPTIMAL:
                continue
            oracle = vertex_oracle(lp)
            assert oracle is not None
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            checked += 1

    def test_negative_lower_bounds(self):
        lp = linear_program(
            objective=[1.0, -1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[0.0],
            lower=[-2.0, -3.0],
            upper=[2.0, 3.0],
        )
        sol = solve(lp)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(vertex_oracle(lp), abs=1e-9)
        assert sol.values == pytest.approx([2.0, -2.0])


class TestAgainstScipy:
    def test_randomized_instances(self):
        rng = np.random.default_rng(41)
        optimal_seen = 0
        for _ in range(RNG_INSTANCES):
            lp = random_lp(rng, n_var=rng.integers(3, 9), n_row=rng.integers(1, 4))
            sol = solve(lp)
            status, value = scipy_oracle(lp)
            assert sol.status is status
            if status is LPStatus.OPTIMAL:
                assert sol.objective_value == pytest.approx(value, abs=1e-7, rel=1e-7)
                optimal_seen += 1
        assert optimal_seen >= RNG_INSTANCES // 2

    def test_degenerate_rhs(self):
        # many ties at zero; stalls must not cycle
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(3, 6))
            lp = linear_program(
                objective=rng.normal(size=6),
                a_eq=a,
                b_eq=np.zeros(3),
                lower=np.zeros(6),
                upper=np.full(6, 2.0),
            )
            sol = solve(lp)
            status, value = scipy_oracle(lp)
            assert sol.status is status
            if status is LPStatus.OPTIMAL:
                assert sol.objective_value == pytest.approx(value, abs=1e-8)


class TestStatuses:
    def test_infeasible_contradictory_rows(self):
        lp = linear_program(
            objective=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 2.0],
            lower=[0.0, 0.0],
            upper=[5.0, 5.0],
        )
        sol = solve(lp)
        assert sol.status is LPStatus.INFEASIBLE
        assert sol.values.shape == (2,) and np.all(np.isnan(sol.values))
        assert np.isnan(sol.objective_value)

    def test_infeasible_bounds_exclude_rhs(self):
        lp = linear_program([0.0], [[1.0]], [10.0], [0.0], [1.0])
        assert solve(lp).status is LPStatus.INFEASIBLE

    def test_unbounded_free_ray(self):
        lp = linear_program(
            objective=[1.0, 0.0],
            a_eq=[[0.0, 1.0]],
            b_eq=[1.0],
            lower=[-np.inf, 0.0],
            upper=[np.inf, 2.0],
        )
        assert solve(lp).status is LPStatus.UNBOUNDED

    def test_unbounded_one_sided(self):
        lp = linear_program(
            objective=[1.0, 1.0],
            a_eq=[[1.0, -1.0]],
            b_eq=[0.0],
            lower=[0.0, 0.0],
            upper=[np.inf, np.inf],
        )
        assert solve(lp).status is LPStatus.UNBOUNDED

    def test_fixed_variables(self):
        lp = linear_program(
            objective=[3.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[4.0],
            lower=[2.5, 0.0],
            upper=[2.5, 10.0],
        )
        sol = solve(lp)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.values == pytest.approx([2.5, 1.5])


class TestDeterminism:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lp = random_lp(rng, n_var=7, n_row=3)
            first = solve(lp)
            second = solve(lp)
            assert first.status is second.status
            if first.status is LPStatus.OPTIMAL:
                assert np.array_equal(first.values, second.values)
                assert first.objective_value == second.objective_value

    def test_power_of_two_objective_scaling(self):
        # scaling c by 2^k leaves every pivot comparison identical
        rng = np.random.default_rng(13)
        for _ in range(10):
            lp = random_lp(rng, n_var=6, n_row=2)
            base = solve(lp)
            scaled = solve(LinearProgram(lp.objective * 4.0, lp.a_eq, lp.b_eq, lp.lower, lp.upper))
            assert base.status is scaled.status
            if base.status is LPStatus.OPTIMAL:
                assert np.array_equal(base.values, scaled.values)
                assert scaled.objective_value == 4.0 * base.objective_value

    def test_general_objective_scaling(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lp = random_lp(rng, n_var=6, n_row=2)
            base = solve(lp)
            scaled = solve(LinearProgram(lp.objective * 3.7, lp.a_eq, lp.b_eq, lp.lower, lp.upper))
            assert base.status is scaled.status
            if base.status is LPStatus.OPTIMAL:
                assert scaled.objective_value == pytest.approx(3.7 * base.objective_value, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_solution_is_feasible_and_undominated(seed):
    """Any optimal answer must satisfy the constraints and beat random feasible points."""
    rng = np.random.default_rng(seed)
    lp = random_lp(rng, n_var=5, n_row=2, free_prob=0.0)
    sol = solve(lp)
    if sol.status is not LPStatus.OPTIMAL:
        return
    x = sol.values
    assert np.abs(lp.a_eq @ x - lp.b_eq).max() <= 1e-8
    assert np.all(x >= lp.lower - 1e-8)
    assert np.all(x <= lp.upper + 1e-8)
    # random feasible candidates: project bound-box samples onto the rows' null space
    basis = np.linalg.svd(lp.a_eq)[2][2:].T  # null-space basis of the 2 rows
    for _ in range(20):
        z = x + basis @ rng.normal(scale=0.3, size=basis.shape[1])
        z = np.clip(z, lp.lower, lp.upper)
        if np.abs(lp.a_eq @ z - lp.b_eq).max() > 1e-9:
            continue
        assert lp.objective @ z <= sol.objective_value + 1e-7


def mixed_batch(rng, n_var, n_row, size):
    """LPs of one problem under bounds of every verdict: random, infeasible, degenerate, with fixed variables.

    The problem is a random matrix and objective with the right-hand side of
    a point p, zero a quarter of the time, and each LP takes its own box. A
    box around p with some infinite bounds gives optimal and unbounded LPs;
    a thin box whose first row cannot reach its right-hand side gives
    infeasible ones; a box that starts at p gives degenerate pivots; and
    some variables get zero-width bounds at p.
    """
    a, c = rng.normal(size=(n_row, n_var)), rng.normal(size=n_var)
    p = rng.normal(size=n_var) * (rng.random() < 0.75)
    b = a @ p
    batch = []
    for _ in range(size):
        lower, upper = p - rng.uniform(0.0, 3.0, n_var), p + rng.uniform(0.0, 3.0, n_var)
        kind = rng.integers(4)
        if kind == 0:
            lower[rng.random(n_var) < 0.5] = -np.inf
            upper[rng.random(n_var) < 0.5] = np.inf
        elif kind == 1:
            far = p + 3.0 * np.sign(a[0])  # row 0 is off by 3 sum|a_0j| at the centre, the box reaches 0.1 of it
            lower, upper = far - 0.1, far + 0.1
        elif kind == 2:
            lower = p.copy()
        else:
            fixed = rng.random(n_var) < 0.4
            lower[fixed] = upper[fixed] = p[fixed]
        batch.append(LinearProgram(c, a, b, lower, upper))
    return batch


def stack_arrays(batch):
    """The arrays of a batch of LPs of one problem as solve_stack takes them."""
    lp = batch[0]
    return (lp.objective, lp.a_eq, lp.b_eq, np.stack([lp.lower for lp in batch]),
            np.stack([lp.upper for lp in batch]))


def assert_stack_equals_serial(batch, values):
    """Every LP of the batch is optimal alone, and row k of the stack's points holds, byte for byte, LP k's
    optimum as a stack of one."""
    assert values.shape == (len(batch), batch[0].objective.size)
    for lp, row in zip(batch, values):
        want = solve(lp)
        assert want.status is LPStatus.OPTIMAL
        assert row.tobytes() == want.values.tobytes()


def stack_failure(batch):
    """The index and verdict of the LP that solve_stack names when the batch's stack raises."""
    with pytest.raises(InternalCheckError) as raised:
        solve_stack(*stack_arrays(batch))
    return failed_lp(raised.value)


def assert_stack_agrees_with_rows(batch):
    """A stack raises iff one of its LPs raises alone, and then names such an LP and its verdict; otherwise it
    equals its rows alone."""
    failed = {k: sol.status for k, sol in enumerate(map(solve, batch)) if sol.status is not LPStatus.OPTIMAL}
    if failed:
        k, verdict = stack_failure(batch)
        assert failed.get(k) is verdict
    else:
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))


def stack_counts(caplog, solve):
    """Run solve() and return its result and the counters of every pass of
    an LP stack it logs, in order: LPs, iterations, LP-iterations (the y rows), y
    solves, w solves, w rows, and the x_B rows taken by gather."""
    with caplog.at_level(logging.DEBUG, logger="hippp.lp"):
        caplog.clear()
        result = solve()
    return result, [r.args for r in caplog.records if r.name == "hippp.lp" and r.msg.startswith("LP stack")]


def templated_batch(rng, n_var, n_row, size, templates):
    """A curve-like batch: one problem, and bounds copied from a few
    templates, some with a small shift, so that many LPs share bases."""
    a, c, p = rng.normal(size=(n_row, n_var)), rng.normal(size=n_var), rng.normal(size=n_var)
    base = []
    for _ in range(templates):
        lower, upper = p - rng.uniform(0.0, 2.0, n_var), p + rng.uniform(0.0, 2.0, n_var)
        lower[rng.random(n_var) < 0.2] = -np.inf
        upper[rng.random(n_var) < 0.2] = np.inf
        base.append((lower, upper))
    batch = []
    for k in range(size):
        lower, upper = base[k % templates]
        shift = rng.uniform(0.0, 0.05, n_var) * (rng.random(n_var) < 0.3)
        batch.append(LinearProgram(c, a, a @ p, lower + shift, upper + shift))
    return batch


class TestSolveStack:
    """The array core against a stack of one per LP, compared byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 8), st.integers(1, 4),
           st.integers(1, 12))
    # under OpenBLAS's Prescott kernel, LP 1 of this stack moved a bit when the lockstep's x_N rows sat at odd
    # 8-byte offsets (see lp._aligned_rows)
    @example(seed=6, n_var=6, n_row=1, size=2)
    def test_equals_the_serial_solver(self, seed, n_var, n_row, size):
        # the batch, and then its LPs that are optimal alone
        batch = mixed_batch(np.random.default_rng(seed), n_var, n_row, size)
        assert_stack_agrees_with_rows(batch)
        optimal = [lp for lp in batch if solve(lp).status is LPStatus.OPTIMAL]
        if optimal:
            assert_stack_agrees_with_rows(optimal)

    @staticmethod
    def fixed_batch(status):
        """The LPs of one fixed batch of every verdict that have `status` alone."""
        return [lp for lp in mixed_batch(np.random.default_rng(11), 6, 3, 60) if solve(lp).status is status]

    def test_a_fixed_optimal_stack_with_every_kind_of_bound(self):
        batch = self.fixed_batch(LPStatus.OPTIMAL)
        _, _, _, lower, upper = stack_arrays(batch)
        assert len(batch) >= 30 and np.isneginf(lower).any() and np.isposinf(upper).any() and (lower == upper).any()
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))

    @pytest.mark.parametrize("status", [LPStatus.INFEASIBLE, LPStatus.UNBOUNDED])
    def test_one_failing_lp_fails_the_stack_naming_it(self, status):
        optimal = self.fixed_batch(LPStatus.OPTIMAL)
        batch = optimal[:7] + self.fixed_batch(status)[:1] + optimal[7:]
        assert stack_failure(batch) == (7, status)

    @pytest.mark.parametrize("status", [LPStatus.INFEASIBLE, LPStatus.UNBOUNDED])
    @pytest.mark.parametrize("per_pass", [5, 7])
    def test_a_failing_lp_of_a_later_pass_is_named_by_its_index_in_the_stack(self, monkeypatch, caplog, status,
                                                                           per_pass):
        # LP 7 runs in the second pass: in the lockstep with passes of 5, alone in the serial loop with 7
        monkeypatch.setattr(hippp.lp, "_PASS_LPS", per_pass)
        optimal = self.fixed_batch(LPStatus.OPTIMAL)
        batch = optimal[:7] + self.fixed_batch(status)[:1] + optimal[7:9]
        (index, verdict), logged = stack_counts(caplog, lambda: stack_failure(batch))
        assert (index, verdict) == (7, status)
        assert [lps for lps, *_ in logged] == [per_pass]  # the first pass finished; the second raised

    @pytest.mark.parametrize("rows, passes", [(1, [1024, 1024, 1]), (32, [1024, 1]), (33, [962, 1]),
                                              (64, [256, 256, 1])])
    def test_a_pass_holds_1024_lps_or_fewer_past_32_rows(self, caplog, rows, passes):
        # at most 1024 LPs a pass, and fewer when their (LPs, rows, rows) basis matrices would pass 2^20 cells
        # (2^20 // 33^2 = 962); x_j + x_{rows + j} = 1 in the unit box, the second of each pair priced higher
        k = sum(passes)
        a, c = np.hstack([np.eye(rows), np.eye(rows)]), np.arange(2.0 * rows)
        points, logged = stack_counts(
            caplog, lambda: solve_stack(c, a, np.ones(rows), np.zeros((k, 2 * rows)), np.ones((k, 2 * rows))))
        assert [lps for lps, *_ in logged] == passes
        assert np.array_equal(points, np.repeat([[0.0] * rows + [1.0] * rows], k, axis=0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8))
    def test_bland_switch_at_different_iterations(self, seed, size):
        # degenerate LPs, each in a box of its own: a stall limit of 2 makes
        # most of them switch to Bland's rule, each after its own number of
        # iterations
        rng = np.random.default_rng(seed)
        c, a, upper = rng.normal(size=6), rng.normal(size=(3, 6)), rng.uniform(0.5, 2.0, size=(size, 6))
        batch = [LinearProgram(c, a, np.zeros(3), np.zeros(6), row) for row in upper]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hippp.lp, "_STALL_LIMIT", 2)
            assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))

    def test_a_stack_of_one_is_a_serial_solve(self, monkeypatch):
        monkeypatch.setattr(hippp.lp, "_iterate_many", None)  # the lockstep must not run
        for status in LPStatus:
            assert_stack_agrees_with_rows(self.fixed_batch(status)[:1])

    @pytest.mark.parametrize("seed", range(6))
    def test_a_curve_like_stack_shares_its_solves(self, caplog, seed):
        batch = templated_batch(np.random.default_rng(seed), 7, 3, 48, templates=4)
        stack, [(_, _, y_rows, y_solves, w_solves, w_rows, *_)] = stack_counts(
            caplog, lambda: solve_stack(*stack_arrays(batch)))
        assert_stack_equals_serial(batch, stack)
        assert y_solves < y_rows and w_solves < w_rows

    def test_equal_basis_rows_over_different_artificial_signs(self):
        # every LP starts on the same basis index row, the artificials, but
        # the columns behind it differ: boxes whose lower corners sit on
        # either side of the rows give the artificials different signs. Each
        # box comes three times, so that the copies share solves.
        rng = np.random.default_rng(5)
        a, c, p = rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)
        a[1, 2] = 0.0
        corners = p - rng.uniform(-0.5, 1.5, (4, 6))
        boxes = [(corner, np.maximum(corner, p) + 1.0) for corner in corners]
        assert len({tuple(np.sign(a @ p - a @ corner)) for corner in corners}) > 1
        batch = [LinearProgram(c, a, a @ p, lower, upper) for lower, upper in boxes for _ in range(3)]
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))

    def test_phase_one_codes_name_each_lps_columns(self):
        # LP k's phase-1 matrix is columns[:, codes[k]]: the problem's
        # columns, then each row's artificial signed by its residual
        a = np.array([[2.0, -0.0], [1.0, 3.0]])
        lower = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c1, columns, codes = hippp.lp._phase_one(a, np.array([1.0, 2.0]), lower, lower + 1.0)[:3]
        assert columns.shape == (2, 6) and not np.signbit(columns[:, 2:][columns[:, 2:] == 0.0]).any()
        assert codes.tolist() == [[0, 1, 2, 3], [0, 1, 4, 3], [0, 1, 2, 5]]
        assert columns[:, codes[1]].tolist() == [[2.0, 0.0, -1.0, 0.0], [1.0, 3.0, 0.0, 1.0]]
        assert c1.tolist() == [0.0, 0.0, -1.0, -1.0]

    @pytest.mark.parametrize("row, upper, pick", [
        ([2.0, 1.0, 3.0], [0.0, 1.0, 1.0], 1),   # the first movable column
        ([5e-8, 0.0, 3.0], [1.0, 1.0, 1.0], 2),  # an entry below 1e-7 is passed over while a movable column is left
        ([5e-8, 0.0, 3.0], [0.0, 0.0, 0.0], 0),  # else the first column with an entry above 1e-9
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 3),   # a redundant row keeps its artificial
    ])
    def test_a_zero_artificial_leaves_for_the_first_eligible_column(self, row, upper, pick):
        # one row, its artificial (column 3) basic at zero, three real columns at their lower bounds
        basis, stat, x = np.array([3]), np.array([0, 0, 0, hippp.lp._BASIC], dtype=np.int8), np.zeros(4)
        hippp.lp._drive_out_artificials(np.array([row + [1.0]]), np.zeros(4), np.array(upper + [np.inf]), basis,
                                        stat, x, 3)
        assert basis.tolist() == [pick] and stat[pick] == hippp.lp._BASIC

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_negative_zero_right_hand_side_counts_as_zero(self, size):
        # x0 + x1 = -0.0 in the unit box: taken as it is, the basic x0 would
        # come out as -0.0
        c, a, lower, upper = np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.zeros((size, 2)), np.ones((size, 2))
        minus = solve_stack(c, a, np.array([-0.0]), lower, upper)
        plus = solve_stack(c, a, np.zeros(1), lower, upper)
        assert minus.tobytes() == plus.tobytes() and not np.signbit(minus).any()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bland_switch_in_a_grouped_stack(self, seed):
        # degenerate templated LPs on one matrix and objective; a stall limit
        # of 2 switches most of them to Bland's rule while they share solves
        rng = np.random.default_rng(seed)
        a, c = rng.normal(size=(3, 6)), rng.normal(size=6)
        upper = np.repeat(rng.uniform(0.5, 2.0, size=(3, 6)), 4, axis=0)
        batch = [LinearProgram(c, a, np.zeros(3), np.zeros(6), row) for row in upper]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hippp.lp, "_STALL_LIMIT", 2)
            assert_stack_equals_serial(batch, solve_stack(c, a, np.zeros(3), np.zeros((12, 6)), upper))

    def test_a_basis_hash_collision_is_caught(self, caplog, monkeypatch):
        # a zero hash base sends every basis row to one key; the row check
        # catches it, and then each row of the iteration is its own group
        first, group = hippp.lp._basis_groups(np.array([[4, 5], [4, 5], [6, 5]]), np.zeros(2, dtype=np.uint64))
        assert first.tolist() == group.tolist() == [0, 1, 2]
        monkeypatch.setattr(hippp.lp, "_HASH_BASE", 0)
        batch = templated_batch(np.random.default_rng(9), 7, 4, 24, templates=3)
        stack, [(_, iterations, _, y_solves, *_)] = stack_counts(
            caplog, lambda: solve_stack(*stack_arrays(batch)))
        assert_stack_equals_serial(batch, stack)
        assert y_solves > iterations  # not one solve per iteration, as the colliding key alone would give

    def test_the_layer2_curve_stack_shares_its_solves(self, caplog):
        # the layer-1 design solve logs its two stacks of one, one y and one
        # w solve per step of the serial loop (the last iteration of each
        # phase only finds it optimal) and no x_B gather; the layer-2
        # curve's stack shares its solves
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply)
        cfg = DesignConfig(num_layer1=3, num_rating_sets=2)
        layer1, design = stack_counts(caplog, lambda: design_layer1(expected, cfg))
        assert [lps for lps, *_ in design] == [1, 1]
        for _, iterations, y_rows, y_solves, w_solves, w_rows, x_rows in design:
            assert y_rows == y_solves == iterations and w_rows == w_solves == iterations - 2 and x_rows == 0
        arch = Architecture(ArchitectureKind.LSHIPPP, 9, expected.total_power, 0.0, layer1)
        block = np.tile([draw_capabilities(supply, seed) for seed in range(10)], (4, 1))
        rungs = np.repeat([0.0, 0.05, 0.1, 0.3], 10)
        _, [(lps, _, y_rows, y_solves, w_solves, w_rows, *_)] = stack_counts(
            caplog, lambda: max_string_outputs(block, arch, rungs))
        assert lps == 40
        assert 2 * y_solves < y_rows and 2 * w_solves < w_rows

    @pytest.mark.parametrize("n, m", [(9, 3), (16, 2)])
    def test_curve_stacks_equal_their_rows_alone_byte_for_byte(self, monkeypatch, n, m):
        # the stacks max_string_outputs builds for a layer-2 curve: 30 draws
        # under the rungs 0, 0.05, 0.3 and inf; each row against its bounds
        # solved as a stack of one
        supply = BatterySupply(1.0, 0.2, n)
        expected = flatten(supply)
        layer1 = design_layer1(expected, DesignConfig(num_layer1=m, num_rating_sets=2))
        arch = Architecture(ArchitectureKind.LSHIPPP, n, expected.total_power, 0.0, layer1)
        block = np.tile([draw_capabilities(supply, seed) for seed in range(30)], (4, 1))
        rungs = np.repeat([0.0, 0.05, 0.3, np.inf], 30)
        stacks = []

        def recorded(*arrays):
            stack = solve_stack(*arrays)
            stacks.append((arrays, stack))
            return stack

        monkeypatch.setattr(hippp.powerflow, "solve_stack", recorded)
        max_string_outputs(block, arch, rungs)
        assert sum(len(stack) for _, stack in stacks) == 120
        for (c, a, b, lower, upper), stack in stacks:
            for k, row in enumerate(stack):
                assert row.tobytes() == solve_stack(c, a, b, lower[k:k + 1], upper[k:k + 1])[0].tobytes()

    def test_aligned_rows_copy_at_a_fresh_arrays_alignment(self):
        source = np.arange(15.0).reshape(3, 5)
        rows = hippp.lp._aligned_rows(source)
        assert rows.tobytes() == source.tobytes() and not np.shares_memory(rows, source)
        assert {row.ctypes.data % 16 for row in rows} == {np.empty(5).ctypes.data % 16}

    def test_empty_batch(self):
        assert solve_stack(np.zeros(2), np.ones((1, 2)), np.ones(1), np.zeros((0, 2)), np.ones((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("field, index, value", [
        (3, (2, 1), np.nan),     # a NaN lower bound
        (4, (1, 0), np.nan),     # a NaN upper bound
        (3, (3, 2), 9.0),        # a lower bound above its upper
        (0, (2,), np.inf),       # an infinite objective coefficient
        (1, (0, 1), np.inf),     # an infinite constraint coefficient
        (1, (1, 0), np.nan),     # a NaN constraint coefficient
        (2, (1,), -np.inf),      # an infinite right-hand side
    ])
    def test_one_bad_value_in_a_stack_is_refused(self, field, index, value):
        arrays = [arr.copy() for arr in stack_arrays(mixed_batch(np.random.default_rng(2), 3, 2, 4))]
        arrays[field][index] = value
        with pytest.raises(ParameterError):
            solve_stack(*arrays)

    def test_rejects_a_problem_per_lp_mismatched_shapes_and_empty_rows(self):
        c, a, b, lower, upper = stack_arrays(mixed_batch(np.random.default_rng(4), 3, 2, 4))
        for bad in (
            (np.tile(c, (4, 1)), a, b, lower, upper),  # an objective per LP
            (c, np.stack([a] * 4), b, lower, upper),   # a matrix per LP
            (c, a, np.tile(b, (4, 1)), lower, upper),  # a right-hand side per LP
            (c[:2], a, b, lower, upper),
            (c, a[:, :2], b, lower, upper),
            (c, a, b[:1], lower, upper),
            (c, a, b, lower[0], upper[0]),
            (c, a, b, lower, upper[:3]),
            (c, a[:0], b[:0], lower, upper),           # no rows
        ):
            with pytest.raises(ParameterError):
                solve_stack(*bad)
        # a one-row matrix is one matrix, not one row per LP
        one_row = np.ones((1, 3))
        assert solve_stack(c, one_row, np.ones(1), np.zeros((2, 3)), np.ones((2, 3))).shape == (2, 3)


def flow_stack(rng, n, size):
    """A stack of maximum-output LPs shaped like powerflow._stage_one's:
    _flow_matrix's rows over [I, f, p] (its -e_j columns hold -0.0 off the
    diagonal) on random battery pairs, and the stage-1 objective with small
    weights on some p_j. Each LP takes its own bounds: I >= 0, |p_j| up to
    a capability that is zero a fifth of the time, and |f_e| up to a rating
    that is zero or infinite a fifth of the time each. A zero bound gives
    the lower bound -0.0, as in _stage_one."""
    pairs = random_placement(rng, n) if n >= 2 else []
    e = len(pairs)
    c = np.zeros(1 + e + n)
    c[0] = n
    c[1 + e:] = rng.uniform(-0.5, 0.5, n) * (rng.random(n) < 0.5)
    ratings = rng.uniform(0.0, 1.0, (size, e))
    ratings[rng.random((size, e)) < 0.2] = 0.0
    ratings[rng.random((size, e)) < 0.2] = np.inf
    caps = rng.uniform(0.2, 2.0, (size, n)) * (rng.random((size, n)) >= 0.2)
    upper = np.concatenate([np.full((size, 1), np.inf), ratings, caps], axis=1)
    lower = -upper
    lower[:, 0] = 0.0
    return c, hippp.powerflow._flow_matrix(pairs, n), np.zeros(n), lower, upper


def assert_rows_alone(c, a, b, lower, upper, stack):
    """Row k of a stack's points equals, byte for byte, LP k alone as a stack of one, which solves with LAPACK."""
    for k, row in enumerate(stack):
        assert row.tobytes() == solve_stack(c, a, b, lower[k:k + 1], upper[k:k + 1])[0].tobytes()


class TestGather:
    """The lockstep's x_B gather on signed-permutation bases against LAPACK's solves."""

    def test_signed_unit_columns_are_found_by_their_nonzeros(self):
        # -0.0 counts as a zero; a column with one nonzero other than +-1 is no unit column
        columns = np.array([[-0.0, 1.0, 2.0, 1.0, 0.0], [-1.0, -0.0, 0.0, 1.0, -0.0]])
        rows, signs = hippp.lp._unit_columns(columns)
        assert rows.tolist() == [1, 0, 0, 0, 0] and signs.tolist() == [-1.0, 1.0, 0.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 16), st.integers(2, 12))
    def test_a_flow_stack_equals_its_rows_alone(self, caplog, seed, n, size):
        c, a, b, lower, upper = flow_stack(np.random.default_rng(seed), n, size)
        assert n == 1 or np.signbit(a[a == 0.0]).any()
        stack, [(*_, x_rows)] = stack_counts(caplog, lambda: solve_stack(c, a, b, lower, upper))
        assert_rows_alone(c, a, b, lower, upper, stack)
        assert x_rows >= size  # every LP starts on its artificials, a signed permutation

    @pytest.mark.parametrize("n", [2, 9, 16])
    def test_a_flow_stack_meets_every_kind_of_iteration(self, caplog, monkeypatch, n):
        # every LP on a signed-permutation basis gathers its x_B, and the others solve for it with LAPACK: all-unit
        # iterations gather every x_B, mixed ones some, LAPACK-only ones none. Every iteration groups its LPs:
        # record which kind it is, and the LPs on such a basis.
        c, a, b, lower, upper = flow_stack(np.random.default_rng(n), n, 40)
        columns = hippp.lp._phase_one(a, b, lower, upper)[1]
        unit = ((columns != 0.0).sum(axis=0) == 1) & (np.abs(columns).sum(axis=0) == 1.0)
        groups, kinds, on_unit = hippp.lp._basis_groups, set(), []

        def recorded(key, weights):
            all_unit = unit[key].all(axis=1)
            kinds.add("all-unit" if all_unit.all() else "mixed" if all_unit.any() else "LAPACK only")
            on_unit.append(int(all_unit.sum()))
            return groups(key, weights)

        monkeypatch.setattr(hippp.lp, "_basis_groups", recorded)
        stack, [(*_, x_rows)] = stack_counts(caplog, lambda: solve_stack(c, a, b, lower, upper))
        assert_rows_alone(c, a, b, lower, upper, stack)
        assert kinds == {"all-unit", "mixed", "LAPACK only"} and x_rows == sum(on_unit)


class TestErrorState:
    """solve_stack sets numpy's error state once, around both phases and the handover."""

    @staticmethod
    def singular_stack(monkeypatch, size, column):
        """A stack whose phase 1 starts on a singular basis: every position holds one column, an artificial
        (a signed unit column) or a dense one."""
        phase_one = hippp.lp._phase_one

        def singular(*args):
            start = phase_one(*args)
            basis = start[5]
            basis[:] = basis[:, :1] if column == "artificial" else 0
            return start

        monkeypatch.setattr(hippp.lp, "_phase_one", singular)
        rng = np.random.default_rng(3)
        return rng.normal(size=4), rng.normal(size=(3, 4)), np.ones(3), np.zeros((size, 4)), np.ones((size, 4))

    @pytest.mark.parametrize("column", ["artificial", "dense"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_a_singular_basis_raises_an_internal_check_error(self, monkeypatch, size, column):
        # a stack of one meets it in LAPACK's x_B solve; the lockstep in its x_B solve (dense) or, after gathering
        # x_B, in its y solve (artificial)
        with pytest.raises(InternalCheckError, match="singular simplex basis"):
            solve_stack(*self.singular_stack(monkeypatch, size, column))

    def test_the_callers_error_state_is_kept(self, monkeypatch):
        # after a stack returns, after one raises, and under a caller's state that raises on every error
        optimal = stack_arrays(TestSolveStack.fixed_batch(LPStatus.OPTIMAL))
        infeasible = stack_arrays(TestSolveStack.fixed_batch(LPStatus.INFEASIBLE))
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state):
                before = np.geterr(), np.geterrcall()
                solve_stack(*optimal)
                assert (np.geterr(), np.geterrcall()) == before
                with pytest.raises(InternalCheckError, match="infeasible"):
                    solve_stack(*infeasible)
                assert (np.geterr(), np.geterrcall()) == before
                with pytest.MonkeyPatch.context() as patch, pytest.raises(InternalCheckError, match="singular"):
                    solve_stack(*self.singular_stack(patch, 3, "dense"))
                assert (np.geterr(), np.geterrcall()) == before


class TestCertification:
    """A NaN fails the solver's own checks, which pass only a value at most their tolerance."""

    def test_a_nan_point_fails_the_check(self):
        a, b, lower, upper = np.array([[1.0, 1.0]]), np.array([0.5]), np.zeros((1, 2)), np.ones((1, 2))
        hippp.lp._check_points(a, b, lower, upper, np.array([[0.0, 0.5]]))
        with pytest.raises(InternalCheckError, match="nan"):
            hippp.lp._check_points(a, b, lower, upper, np.array([[np.nan, 0.5]]))

    def test_a_point_outside_its_bounds_fails_the_check(self):
        # x0 + x1 = 0.5 holds on both rows; row 1's x0 sits 0.25 above its upper bound, and x1 has none
        a, b = np.array([[1.0, 1.0]]), np.array([0.5])
        lower, upper = np.array([[0.0, -np.inf]] * 2), np.array([[1.0, np.inf]] * 2)
        hippp.lp._check_points(a, b, lower, upper, np.array([[1.0, -0.5], [0.5, 0.0]]))
        with pytest.raises(InternalCheckError, match=r"^optimal point violates bounds by 2\.500e-01$"):
            hippp.lp._check_points(a, b, lower, upper, np.array([[1.0, -0.5], [1.25, -0.75]]))
        with pytest.raises(InternalCheckError, match=r"^optimal point violates bounds by 2\.500e-01$"):
            hippp.lp._check_points(a, b, lower, upper, np.array([[-0.25, 0.75], [0.5, 0.0]]))

    def test_a_nan_artificial_sum_is_infeasible(self):
        a, b, lower, upper = np.array([[1.0, 1.0]]), np.array([0.5]), np.zeros((2, 2)), np.ones((2, 2))
        # a finished phase 1 whose artificials are zero, but for LP 1's NaN
        _, columns, codes, lo1, up1, basis, stat, x = hippp.lp._phase_one(a, b, lower, upper)
        x[:, 2] = [0.0, np.nan]
        with pytest.raises(InternalCheckError, match="LP 1 of the stack is infeasible"):
            hippp.lp._phase_two(np.zeros(2), columns, codes, lo1, up1, basis, stat, x, 0)


def serial_loop(c, columns, b, lower, upper, basis, stat, codes, x, counts, offset):
    """The reference serial_iterate under the inner loops' arguments: on LP 0
    of a pass of one and its own C-contiguous phase-1 matrix."""
    serial_iterate(c, np.ascontiguousarray(columns[:, codes[0]]), b, lower[0], upper[0], basis[0], stat[0], x[0],
                   counts, offset)


def loop_states(iterate, c, a, b, lower, upper):
    """What the inner loop `iterate` leaves on one LP with (n,) bounds,
    driven as solve_stack drives a stack of one, in its error state: after
    each phase, the bytes of x, basis and stat and the counts; or, last, the
    text of the InternalCheckError that ends the solve."""
    b = b + 0.0
    c1, columns, codes, lo1, up1, basis, stat, x = hippp.lp._phase_one(a, b, lower[None], upper[None])
    states = []
    try:
        for phase in range(2):
            counts = [0] * 6
            with hippp.lp._errstate():
                iterate(c1, columns, b, lo1, up1, basis, stat, codes, x, counts, 0)
            states.append((x.tobytes(), basis.tobytes(), stat.tobytes(), counts))
            if phase == 0:
                c1 = hippp.lp._phase_two(c, columns, codes, lo1, up1, basis, stat, x, 0)
    except InternalCheckError as exc:
        states.append(str(exc))
    return states


def assert_loops_agree(lps):
    """The serial loop leaves every LP (c, a, b, lower, upper) of `lps`, given (n,) bounds, in the states the
    array loop leaves it in, byte for byte."""
    for lp in lps:
        assert loop_states(hippp.lp._iterate, *lp) == loop_states(serial_loop, *lp)


def recorded_stacks(run):
    """The arguments of every stack of one that run() passes to powerflow's solve_stack, bounds as (n,)."""
    lps = []

    def recorded(c, a, b, lower, upper):
        if len(lower) == 1:
            lps.append((c, a, b, lower[0], upper[0]))
        return solve_stack(c, a, b, lower, upper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hippp.powerflow, "solve_stack", recorded)
        run()
    return lps


def random_placement(rng, n):
    """M <= 4 distinct battery pairs out of n batteries, M at random too."""
    pairs = list(itertools.combinations(range(n), 2))
    return [pairs[i] for i in rng.choice(len(pairs), size=int(rng.integers(1, min(4, len(pairs)) + 1)), replace=False)]


def design_lps(seed):
    """Stage 1 and stage 2 of the layer-1 design solve on a random placement
    over N = 2..20 expected capabilities, a third of them with no spread, so
    that every capability ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    placement = random_placement(rng, n)
    expected = flatten(BatterySupply(1.0, float(rng.choice([0.0, 0.1, 0.3])), n))
    lps = recorded_stacks(lambda: layer1_design_lp(expected, placement))
    assert len(lps) == 2
    return lps


class TestSerialLoop:
    """The serial loop, on Python floats, against the array loop it replaced: equal states after each phase,
    byte for byte, on the stacks of one the package solves and on random LPs of every verdict."""

    @pytest.mark.parametrize("seed", range(40))
    def test_design_lps(self, seed):
        assert_loops_agree(design_lps(seed))

    @pytest.mark.parametrize("stall_limit", [0, 1, 3])
    def test_under_blands_rule(self, monkeypatch, stall_limit):
        # design LPs, and random ones, where Bland and Dantzig pick different columns more often
        lps = [lp for seed in range(12) for lp in design_lps(seed)]
        lps += [lp for seed in range(12) for lp in mixed_batch(np.random.default_rng(seed), 8, 3, 4)]
        monkeypatch.setattr(hippp.lp, "_STALL_LIMIT", stall_limit)
        assert_loops_agree(lps)

    @pytest.mark.parametrize("seed", range(12))
    def test_zero_rated_edges(self, seed):
        # stage 1 of a hierarchical string with one trial: zero-rated layer-1
        # edges and zero rungs have a lower bound of -0.0, where a ratio test
        # meets -0.0 caps
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        placement = random_placement(rng, n)
        ratings = rng.choice([0.0, 0.2], size=len(placement)).tolist()
        layer1 = Layer1Design([ConverterEdge(*pair, r) for pair, r in zip(placement, ratings)], len(placement), ratings)
        arch = Architecture(ArchitectureKind.LSHIPPP, n, float(n), 0.0, layer1)
        caps = draw_capabilities(BatterySupply(1.0, 0.2, n), seed)
        lps = [lp for rung in (0.0, 0.05)
               for lp in recorded_stacks(lambda: max_string_outputs(caps[None], arch, np.array([rung])))]
        assert len(lps) == 2 and all(np.signbit(lower).any() for _, _, _, lower, _ in lps)
        assert_loops_agree(lps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 8), st.integers(1, 4))
    def test_random_lps_of_every_verdict(self, seed, n_var, n_row):
        assert_loops_agree(mixed_batch(np.random.default_rng(seed), n_var, n_row, 4))


class TestSolveHelper:
    """lp._solve calls numpy's LAPACK gufunc without np.linalg.solve's wrapper; it must give its bytes and
    its error. This pins a private numpy interface: a numpy release that changes it fails here."""

    @staticmethod
    def assert_same(a, b):
        got, want = hippp.lp._solve(a, b), np.linalg.solve(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", range(1, 21))
    def test_equals_numpy_solve(self, m):
        rng = np.random.default_rng(m)
        a, stack = rng.normal(size=(m, m)), rng.normal(size=(5, m, m))
        self.assert_same(a, rng.normal(size=m))
        self.assert_same(a.T, rng.normal(size=m))  # an F-ordered view, as the dual solves pass
        self.assert_same(stack, rng.normal(size=(5, m, 1)))
        self.assert_same(stack.transpose(0, 2, 1), rng.normal(size=(5, m, 1)))
        # the lockstep's gather: basis columns of one matrix by code, then its grouping of them
        by_code = rng.normal(size=(m, 3 * m)).T
        lead = by_code[np.array([rng.permutation(3 * m)[:m] for _ in range(5)])].transpose(0, 2, 1)
        self.assert_same(lead[[0, 0, 3]], rng.normal(size=(3, m, 1)))
        self.assert_same(lead.transpose(0, 2, 1), rng.normal(size=(5, m, 1)))

    def test_a_singular_matrix_raises(self):
        # in the error state solve_stack sets around both phases, as numpy.linalg's solve sets it per call
        with hippp.lp._errstate(), pytest.raises(np.linalg.LinAlgError):
            hippp.lp._solve(np.ones((3, 3)), np.ones(3))
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with hippp.lp._errstate(), pytest.raises(np.linalg.LinAlgError):
            hippp.lp._solve(stack, np.ones((2, 2, 1)))
