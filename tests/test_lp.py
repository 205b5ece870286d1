"""Solver checks against independent oracles.

Two oracles back the solver: exhaustive vertex enumeration (every basis,
every at-bound assignment) for tiny problems, and scipy's HiGHS interface
for randomized ones. Neither shares any code with the implementation. The
stacked solver (solve_stack), one problem under many sets of bounds, is
checked row by row against its serial path, a stack of one (oracles.solve),
byte for byte.
"""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import hippp.lp
from hippp import (Architecture, ArchitectureKind, BatterySupply, DesignConfig, LPStatus, ParameterError,
                   design_layer1, draw_capabilities, flatten, max_string_outputs)
from hippp.lp import solve_stack
from oracles import LinearProgram, linear_program, solve

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


def assert_stack_equals_serial(batch, stack):
    """Every row of the stack holds, byte for byte, what its LP gives as a stack of one."""
    assert len(stack.status) == len(batch) == len(stack.values) == len(stack.objective_value)
    for lp, status, values, value in zip(batch, stack.status, stack.values, stack.objective_value):
        want = solve(lp)
        assert status is want.status
        if want.status is LPStatus.OPTIMAL:
            assert values.tobytes() == want.values.tobytes()
            assert value.tobytes() == np.float64(want.objective_value).tobytes()
        else:
            assert np.all(np.isnan(values)) and np.isnan(value)


def lockstep_counts(caplog, solve):
    """Run solve() and return its result and the counters of the one lockstep
    stack it logs: LPs, iterations, LP-iterations (the y rows), y solves, w
    solves, w rows."""
    with caplog.at_level(logging.DEBUG, logger="hippp.lp"):
        caplog.clear()
        result = solve()
    (record,) = [r for r in caplog.records if r.name == "hippp.lp" and r.msg.startswith("lockstep stack")]
    return result, record.args


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
    def test_equals_the_serial_solver(self, seed, n_var, n_row, size):
        batch = mixed_batch(np.random.default_rng(seed), n_var, n_row, size)
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))

    def test_a_fixed_stack_holds_every_verdict_and_infinite_bound(self):
        batch = mixed_batch(np.random.default_rng(11), 6, 3, 60)
        stack = solve_stack(*stack_arrays(batch))
        assert set(stack.status) == set(LPStatus)
        _, _, _, lower, upper = stack_arrays(batch)
        assert np.isneginf(lower).any() and np.isposinf(upper).any() and (lower == upper).any()
        assert_stack_equals_serial(batch, stack)

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
        batch = mixed_batch(np.random.default_rng(3), 6, 3, 1)
        monkeypatch.setattr(hippp.lp, "_iterate_many", None)  # the lockstep must not run
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch)))

    @pytest.mark.parametrize("seed", range(6))
    def test_a_curve_like_stack_shares_its_solves(self, caplog, seed):
        batch = templated_batch(np.random.default_rng(seed), 7, 3, 48, templates=4)
        stack, (_, _, y_rows, y_solves, w_solves, w_rows) = lockstep_counts(
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
        stack = solve_stack(*stack_arrays(batch))
        assert set(stack.status) == {LPStatus.OPTIMAL}
        assert_stack_equals_serial(batch, stack)

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

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_negative_zero_right_hand_side_counts_as_zero(self, size):
        # x0 + x1 = -0.0 in the unit box: taken as it is, the basic x0 would
        # come out as -0.0
        c, a, lower, upper = np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.zeros((size, 2)), np.ones((size, 2))
        minus = solve_stack(c, a, np.array([-0.0]), lower, upper)
        plus = solve_stack(c, a, np.zeros(1), lower, upper)
        assert minus.status == plus.status == (LPStatus.OPTIMAL,) * size
        assert minus.values.tobytes() == plus.values.tobytes() and not np.signbit(minus.values).any()

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
        stack, (_, iterations, _, y_solves, _, _) = lockstep_counts(
            caplog, lambda: solve_stack(*stack_arrays(batch)))
        assert_stack_equals_serial(batch, stack)
        assert y_solves > iterations  # not one solve per iteration, as the colliding key alone would give

    def test_the_layer2_curve_stack_shares_its_solves(self, caplog):
        supply = BatterySupply(1.0, 0.2, 9)
        expected = flatten(supply)
        layer1 = design_layer1(expected, DesignConfig(num_layer1=3, num_rating_sets=2))
        arch = Architecture(ArchitectureKind.LSHIPPP, 9, expected.total_power, 0.0, layer1)
        block = np.tile([draw_capabilities(supply, seed) for seed in range(10)], (4, 1))
        rungs = np.repeat([0.0, 0.05, 0.1, 0.3], 10)
        _, (lps, _, y_rows, y_solves, w_solves, w_rows) = lockstep_counts(
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
        assert sum(len(stack.status) for _, stack in stacks) == 120
        for (c, a, b, lower, upper), stack in stacks:
            assert set(stack.status) == {LPStatus.OPTIMAL}
            for k in range(len(stack.status)):
                alone = solve_stack(c, a, b, lower[k:k + 1], upper[k:k + 1])
                assert stack.status[k] is alone.status[0]
                assert stack.values[k].tobytes() == alone.values[0].tobytes()
                assert stack.objective_value[k].tobytes() == alone.objective_value[0].tobytes()

    def test_empty_batch(self):
        stack = solve_stack(np.zeros(2), np.ones((1, 2)), np.ones(1), np.zeros((0, 2)), np.ones((0, 2)))
        assert stack.status == ()
        assert stack.values.shape == (0, 2) and stack.objective_value.shape == (0,)

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
        assert solve_stack(c, one_row, np.ones(1), np.zeros((2, 3)), np.ones((2, 3))).status == (LPStatus.OPTIMAL,) * 2
