"""Tests of the oracle's dense two-phase simplex against scipy's linprog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.milp_oracle import LPStatus, solve_lp


class TestSimplexBasics:
    def test_simple_minimization(self):
        result = solve_lp(
            c=np.array([1.0, 2.0]),
            a_rows=np.array([[1.0, 1.0]]),
            senses=[">="],
            b=np.array([3.0]),
            lb=np.zeros(2),
            ub=np.array([np.inf, np.inf]),
        )
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(3.0)
        assert result.x[0] == pytest.approx(3.0)

    def test_infeasible(self):
        result = solve_lp(
            c=np.array([1.0]),
            a_rows=np.array([[1.0]]),
            senses=[">="],
            b=np.array([5.0]),
            lb=np.zeros(1),
            ub=np.array([2.0]),
        )
        assert result.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        result = solve_lp(
            c=np.array([-1.0]),
            a_rows=np.zeros((0, 1)),
            senses=[],
            b=np.array([]),
            lb=np.zeros(1),
            ub=np.array([np.inf]),
        )
        assert result.status is LPStatus.UNBOUNDED

    def test_shifted_lower_bounds(self):
        result = solve_lp(
            c=np.array([1.0]),
            a_rows=np.zeros((0, 1)),
            senses=[],
            b=np.array([]),
            lb=np.array([2.5]),
            ub=np.array([10.0]),
        )
        assert result.status is LPStatus.OPTIMAL
        assert result.x[0] == pytest.approx(2.5)

    def test_equality_row(self):
        result = solve_lp(
            c=np.array([1.0, 1.0]),
            a_rows=np.array([[1.0, 2.0]]),
            senses=["=="],
            b=np.array([4.0]),
            lb=np.zeros(2),
            ub=np.array([np.inf, np.inf]),
        )
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)  # x=(0, 2)

    def test_rejects_infinite_lower_bound(self):
        with pytest.raises(ValueError):
            solve_lp(
                c=np.array([1.0]),
                a_rows=np.zeros((0, 1)),
                senses=[],
                b=np.array([]),
                lb=np.array([-np.inf]),
                ub=np.array([np.inf]),
            )


@st.composite
def lp_instances(draw):
    """Small random LPs with bounded variables (always feasible at lb)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    c = [draw(st.integers(-5, 5)) for _ in range(n)]
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    # b >= 0 with "<=" rows keeps x = 0 feasible.
    b = [draw(st.integers(0, 10)) for _ in range(m)]
    ub = [draw(st.integers(1, 5)) for _ in range(n)]
    return c, rows, b, ub


class TestSimplexAgainstScipy:
    @given(lp_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_linprog(self, instance):
        from scipy.optimize import linprog

        c, rows, b, ub = instance
        n = len(c)
        result = solve_lp(
            c=np.array(c, dtype=float),
            a_rows=np.array(rows, dtype=float),
            senses=["<="] * len(rows),
            b=np.array(b, dtype=float),
            lb=np.zeros(n),
            ub=np.array(ub, dtype=float),
        )
        reference = linprog(
            c,
            A_ub=rows,
            b_ub=b,
            bounds=[(0, u) for u in ub],
            method="highs",
        )
        assert result.status is LPStatus.OPTIMAL
        assert reference.status == 0
        assert result.objective == pytest.approx(reference.fun, abs=1e-6)
