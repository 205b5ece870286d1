"""Solver checks against independent oracles.

Two oracles back the solver: exhaustive vertex enumeration (every basis,
every at-bound assignment) for tiny problems, and scipy's HiGHS interface
for randomized ones. Neither shares any code with the implementation. The
stacked solver (solve_stack) is checked against its serial path, a stack of
one (oracles.solve), by ==.
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


def mixed_batch(rng, n_var, n_row, size, a=None):
    """Same-shape LPs of every verdict: random, infeasible, degenerate, with fixed variables.

    Random instances with free variables give optimal and unbounded ones; a
    right-hand side far outside what a finite box reaches gives infeasible
    ones; a zero right-hand side over a box at zero gives degenerate pivots;
    and some variables get zero-width bounds. All LPs share the constraint
    matrix `a` when it is given.
    """
    batch = []
    for _ in range(size):
        lp = random_lp(rng, n_var, n_row, free_prob=0.3, a=a)
        kind = rng.integers(4)
        if kind == 1:
            box = random_lp(rng, n_var, n_row, free_prob=0.0, a=a)
            lp = LinearProgram(box.objective, box.a_eq, np.full(n_row, 1e3), box.lower, box.upper)
        elif kind == 2:
            lp = LinearProgram(lp.objective, lp.a_eq, np.zeros(n_row), np.zeros(n_var), np.full(n_var, 2.0))
        elif kind == 3:
            lower, upper = lp.lower.copy(), lp.upper.copy()
            fixed = rng.random(n_var) < 0.4
            lower[fixed] = upper[fixed] = np.where(np.isfinite(lower[fixed]), lower[fixed], 0.5)
            lp = LinearProgram(lp.objective, lp.a_eq, lp.a_eq @ np.clip(rng.normal(size=n_var), lower, upper),
                               lower, upper)
        batch.append(lp)
    return batch


def stack_arrays(batch, shared):
    """The arrays of a batch as solve_stack takes them: the first LP's matrix
    for the whole stack when `shared`, else one matrix per LP."""
    a = batch[0].a_eq if shared else np.stack([lp.a_eq for lp in batch])
    return (np.stack([lp.objective for lp in batch]), a, np.stack([lp.b_eq for lp in batch]),
            np.stack([lp.lower for lp in batch]), np.stack([lp.upper for lp in batch]))


def assert_stack_equals_serial(batch, stack):
    assert len(stack.status) == len(batch) == len(stack.values) == len(stack.objective_value)
    for lp, status, values, value in zip(batch, stack.status, stack.values, stack.objective_value):
        want = solve(lp)
        assert status is want.status
        if want.status is LPStatus.OPTIMAL:
            assert np.all(values == want.values)
            assert value == want.objective_value
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
    """A curve-like batch: one matrix and one objective, and bounds and
    right-hand sides copied from a few templates, some with a small shift,
    so that many LPs share bases."""
    a, c = rng.normal(size=(n_row, n_var)), rng.normal(size=n_var)
    base = [random_lp(rng, n_var, n_row, free_prob=0.2, a=a) for _ in range(templates)]
    batch = []
    for k in range(size):
        lp = base[k % templates]
        shift = rng.uniform(0.0, 0.05, n_var) * (rng.random(n_var) < 0.3)
        batch.append(LinearProgram(c, a, a @ (np.where(np.isfinite(lp.lower), lp.lower, -1.0) + 0.5),
                                   lp.lower + shift, lp.upper + shift))
    return batch


class TestSolveStack:
    """The array core against one serial solve per LP, compared by ==."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 8), st.integers(1, 4),
           st.integers(1, 12), st.booleans())
    def test_equals_the_serial_solver(self, seed, n_var, n_row, size, shared):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_row, n_var)) if shared else None
        batch = mixed_batch(rng, n_var, n_row, size, a)
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch, shared)))

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_fixed_stack_holds_every_verdict_and_infinite_bound(self, shared):
        rng = np.random.default_rng(11)
        batch = mixed_batch(rng, 6, 3, 60, rng.normal(size=(3, 6)) if shared else None)
        stack = solve_stack(*stack_arrays(batch, shared))
        assert set(stack.status) == set(LPStatus)
        lower = np.stack([lp.lower for lp in batch])
        upper = np.stack([lp.upper for lp in batch])
        assert np.isneginf(lower).any() and np.isposinf(upper).any() and (lower == upper).any()
        assert_stack_equals_serial(batch, stack)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8), st.booleans())
    def test_bland_switch_at_different_iterations(self, seed, size, shared):
        # degenerate LPs: a stall limit of 2 makes most of them switch to
        # Bland's rule, each after its own number of iterations
        rng = np.random.default_rng(seed)
        shape = (3, 6) if shared else (size, 3, 6)
        arrays = rng.normal(size=(size, 6)), rng.normal(size=shape), np.zeros(3), np.zeros((size, 6)), \
            np.full((size, 6), 2.0)
        batch = [LinearProgram(arrays[0][k], arrays[1] if shared else arrays[1][k], arrays[2], arrays[3][k],
                               arrays[4][k]) for k in range(size)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hippp.lp, "_STALL_LIMIT", 2)
            assert_stack_equals_serial(batch, solve_stack(*arrays))

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_stack_of_one_is_a_serial_solve(self, monkeypatch, shared):
        batch = mixed_batch(np.random.default_rng(3), 6, 3, 1)
        monkeypatch.setattr(hippp.lp, "_iterate_many", None)  # the lockstep must not run
        assert_stack_equals_serial(batch, solve_stack(*stack_arrays(batch, shared)))

    @pytest.mark.parametrize("seed", range(6))
    def test_a_curve_like_stack_shares_its_solves(self, caplog, seed):
        batch = templated_batch(np.random.default_rng(seed), 7, 3, 48, templates=4)
        arrays = stack_arrays(batch, shared=True)
        stack, (_, _, y_rows, y_solves, w_solves, w_rows) = lockstep_counts(
            caplog, lambda: solve_stack(arrays[0][0], *arrays[1:]))
        assert_stack_equals_serial(batch, stack)
        assert y_solves < y_rows and w_solves < w_rows

    @pytest.mark.parametrize("shared", [True, False])
    def test_equal_basis_rows_over_different_bytes(self, shared):
        # every LP starts on the same basis index row, the artificials, but
        # the bytes behind it differ: the artificial signs (right-hand sides
        # from different points of one box), and without a shared matrix and
        # objective also a scaled column, other objectives, one entry or cost
        # an ulp away and a zero of the other sign. Each variant comes
        # three times, so that the copies share solves.
        rng = np.random.default_rng(5)
        lp = random_lp(rng, 6, 3, free_prob=0.0)
        a, c = lp.a_eq.copy(), lp.objective
        a[1, 2] = 0.0
        points = lp.lower + rng.uniform(0.1, 0.9, (4, 6)) * (lp.upper - lp.lower)
        variants = [(a, c, a @ point) for point in points]
        assert len({tuple(np.sign(b - a @ lp.lower)) for _, _, b in variants}) > 1
        if not shared:
            scaled, bumped, signed_zero, costly = a.copy(), a.copy(), a.copy(), c.copy()
            scaled[:, 4] *= 2.0
            bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
            signed_zero[1, 2] = -0.0
            costly[3] = np.nextafter(costly[3], -np.inf)
            b = a @ points[0]
            variants += [(scaled, c, b), (a, -c, b), (bumped, c, b), (signed_zero, c, b), (a, costly, b)]
            variants += [(a, other, b) for other in rng.normal(size=(4, 6))]  # one phase 1, then apart
        batch = [LinearProgram(vc, va, vb, lp.lower, lp.upper) for va, vc, vb in variants for _ in range(3)]
        arrays = list(stack_arrays(batch, shared))
        if shared:
            arrays[0] = arrays[0][0]  # one objective for the stack
        stack = solve_stack(*arrays)
        assert set(stack.status) == {LPStatus.OPTIMAL}
        assert_stack_equals_serial(batch, stack)

    def test_column_codes_tell_bytes_apart(self):
        a = np.array([[[1.0, 0.0]], [[1.0, -0.0]], [[1.0, 0.0]]])
        codes = hippp.lp._column_codes(hippp.lp._phase_one(a, np.ones((3, 1)), np.zeros((3, 2)),
                                                           np.ones((3, 2)))[1], 2, [a])
        assert (codes[0] == codes[2]).all() and not (codes[0] == codes[1]).any()
        shared = hippp.lp._phase_one(np.ones((1, 2)), np.array([[1.0], [-1.0], [3.0]]), np.zeros((3, 2)),
                                     np.ones((3, 2)))[1]
        codes = hippp.lp._column_codes(shared, 2, [])
        assert (codes[:, :2] == [0, 1]).all() and codes[0, 2] == codes[2, 2] != codes[1, 2]

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
        # catches it, and every iteration solves each row on its own
        monkeypatch.setattr(hippp.lp, "_HASH_BASE", 0)
        batch = templated_batch(np.random.default_rng(9), 7, 4, 24, templates=3)
        arrays = stack_arrays(batch, shared=True)
        stack, (_, _, y_rows, y_solves, _, _) = lockstep_counts(caplog, lambda: solve_stack(*arrays))
        assert_stack_equals_serial(batch, stack)
        assert y_solves == y_rows

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

    def test_empty_batch(self):
        stack = solve_stack(np.zeros(2), np.ones((1, 2)), np.ones(1), np.zeros((0, 2)), np.ones((0, 2)))
        assert stack.status == ()
        assert stack.values.shape == (0, 2) and stack.objective_value.shape == (0,)

    @pytest.mark.parametrize("field, index, value", [
        (3, (2, 1), np.nan),     # a NaN lower bound
        (4, (1, 0), np.nan),     # a NaN upper bound
        (3, (3, 2), 9.0),        # a lower bound above its upper
        (0, (1, 2), np.inf),     # an infinite objective coefficient
        (1, (2, 0, 1), np.inf),  # an infinite constraint coefficient
        (1, (0, 1, 0), np.nan),  # a NaN constraint coefficient
        (2, (3, 1), -np.inf),    # an infinite right-hand side
    ])
    def test_one_bad_lp_in_a_stack_is_refused(self, field, index, value):
        rng = np.random.default_rng(2)
        arrays = list(stack_arrays(mixed_batch(rng, 3, 2, 4), shared=False))
        arrays[field] = arrays[field].copy()
        arrays[field][index] = value
        with pytest.raises(ParameterError):
            solve_stack(*arrays)

    def test_rejects_mismatched_shapes_and_empty_rows(self):
        c, a, b, lower, upper = stack_arrays(mixed_batch(np.random.default_rng(4), 3, 2, 4), shared=False)
        for bad in (
            (c[:, :2], a, b, lower, upper),
            (c, a[:3], b, lower, upper),
            (c, a[0, :, :2], b, lower, upper),
            (c, a, b[:, :1], lower, upper),
            (c, a, b, lower[0], upper[0]),
            (c, a, b, lower, upper[:3]),
            (c, a[:, :0], b[:, :0], lower, upper),
        ):
            with pytest.raises(ParameterError):
                solve_stack(*bad)

    def test_rejects_mismatched_shared_shapes_and_empty_rows(self):
        c, b, lower, upper = np.ones((2, 2)), np.ones((2, 1)), np.zeros((2, 2)), np.ones((2, 2))
        one_row = np.ones((1, 2))
        for bad in (
            (c, np.ones((2, 2)), b, lower, upper),                  # two rows, one right-hand side each
            (c, np.ones((1, 3)), b, lower, upper),                  # three columns, two variables
            (np.ones((2, 3)), one_row, b, lower, upper),            # three objective coefficients
            (c, np.zeros((0, 2)), np.zeros((2, 0)), lower, upper),  # no rows
        ):
            with pytest.raises(ParameterError):
                solve_stack(*bad)
        # one shared one-row matrix is a matrix, not a stack of one row each
        assert solve_stack(c, one_row, b, lower, upper).status == (LPStatus.OPTIMAL,) * 2
