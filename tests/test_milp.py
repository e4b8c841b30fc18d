"""Unit tests for the MILP modelling layer, the HiGHS solve and the
branch-and-bound oracle it is checked against."""

import math

import pytest

from repro.milp import Model, Sense, SolveStatus
from repro.milp.expression import LinExpr, lin_sum
from tests.milp_oracle import solve_by, solve_with_branch_bound


class TestExpressions:
    def test_var_arithmetic(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = 2 * x + y - 3
        assert expr.coeffs == {x.index: 2.0, y.index: 1.0}
        assert expr.constant == -3.0

    def test_negation_and_rsub(self):
        m = Model()
        x = m.add_var("x")
        expr = 5 - x
        assert expr.coeffs[x.index] == -1.0
        assert expr.constant == 5.0

    def test_lin_sum_merges_terms(self):
        m = Model()
        x = m.add_var("x")
        expr = lin_sum([x, x, 2 * x, 1.5])
        assert expr.coeffs[x.index] == 4.0
        assert expr.constant == 1.5

    def test_scalar_multiplication_only(self):
        m = Model()
        x, y = m.add_var(), m.add_var()
        with pytest.raises(TypeError):
            _ = x.to_expr() * y.to_expr()  # type: ignore[operator]

    def test_comparison_builds_constraint(self):
        m = Model()
        x, y = m.add_var(), m.add_var()
        con = x + y <= 3
        assert con.sense is Sense.LE
        assert con.rhs == 3.0

    def test_constant_folded_into_rhs(self):
        m = Model()
        x = m.add_var()
        con = x + 2 <= 5
        assert con.rhs == 3.0
        assert con.expr.constant == 0.0


class TestModelConstruction:
    def test_binary_var_bounds(self):
        m = Model()
        b = m.binary_var("b")
        assert (b.lb, b.ub, b.is_integer) == (0.0, 1.0, True)

    def test_invalid_bounds(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_var(lb=2, ub=1)

    def test_counts(self):
        m = Model()
        m.binary_var()
        m.add_var(lb=0, ub=10)
        assert m.num_vars == 2 and m.num_binaries == 1

    def test_add_constraint_type_check(self):
        m = Model()
        with pytest.raises(TypeError):
            m.add_constraint("x <= 1")  # type: ignore[arg-type]

    def test_constraint_satisfied_by(self):
        m = Model()
        x, y = m.add_var(), m.add_var()
        con = x + 2 * y <= 4
        assert con.satisfied_by([0.0, 2.0])
        assert not con.satisfied_by([1.0, 2.0])


@pytest.mark.parametrize("solver", ["scipy", "branch_bound"])
class TestSolving:
    def test_simple_lp(self, solver):
        m = Model()
        x = m.add_var(lb=0, ub=10)
        y = m.add_var(lb=0, ub=10)
        m.add_constraint(x + y <= 8)
        m.maximize(3 * x + 2 * y)
        sol = solve_by(m, solver)
        assert sol.is_optimal
        # Optimum at x = 8, y = 0 (the x coefficient dominates).
        assert sol.objective == pytest.approx(-24.0)
        assert sol[x] == pytest.approx(8.0)

    def test_binary_knapsack(self, solver):
        m = Model()
        items = [(3, 5), (4, 6), (5, 7), (2, 3)]  # (weight, value)
        xs = [m.binary_var(f"x{i}") for i in range(len(items))]
        m.add_constraint(lin_sum(w * x for (w, _), x in zip(items, xs)) <= 7)
        m.maximize(lin_sum(v * x for (_, v), x in zip(items, xs)))
        sol = solve_by(m, solver)
        assert sol.is_optimal
        # Best: items 0 and 1 (weight 7, value 11).
        assert -sol.objective == pytest.approx(11.0)

    def test_infeasible(self, solver):
        m = Model()
        x = m.binary_var()
        m.add_constraint(x >= 2)
        sol = solve_by(m, solver)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self, solver):
        m = Model()
        x = m.add_var(lb=0, ub=5)
        y = m.add_var(lb=0, ub=5)
        m.add_constraint(x + y == 4)
        m.minimize(x - y)
        sol = solve_by(m, solver)
        assert sol.is_optimal
        assert sol[y] == pytest.approx(4.0)
        assert sol.objective == pytest.approx(-4.0)

    def test_assignment_problem(self, solver):
        # 3x3 assignment with known optimum.
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        m = Model()
        xs = {
            (i, j): m.binary_var(f"x{i}{j}") for i in range(3) for j in range(3)
        }
        for i in range(3):
            m.add_constraint(lin_sum(xs[(i, j)] for j in range(3)) == 1)
            m.add_constraint(lin_sum(xs[(j, i)] for j in range(3)) == 1)
        m.minimize(lin_sum(cost[i][j] * xs[(i, j)] for i, j in xs))
        sol = solve_by(m, solver)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(5.0)  # 1 + 2 + 2

    def test_value_as_int(self, solver):
        m = Model()
        x = m.binary_var()
        m.add_constraint(x >= 1)
        m.minimize(x)
        sol = solve_by(m, solver)
        assert sol.value(x, as_int=True) == 1


class TestBackendAgreement:
    """HiGHS and the oracle must agree on small random-ish instances."""

    def _random_model(self, seed: int) -> Model:
        import random

        rng = random.Random(seed)
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(6)]
        for _ in range(4):
            subset = rng.sample(xs, 3)
            m.add_constraint(lin_sum(subset) <= rng.randint(1, 2))
        m.maximize(lin_sum(rng.randint(1, 9) * x for x in xs))
        return m

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement(self, seed):
        m = self._random_model(seed)
        a = m.solve()
        b = solve_with_branch_bound(m)
        assert a.is_optimal and b.is_optimal
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


class TestMaximizeHelper:
    def test_maximize_negates(self):
        m = Model()
        x = m.add_var(lb=0, ub=3)
        m.maximize(x)
        sol = m.solve()
        assert sol[x] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(-3.0)
