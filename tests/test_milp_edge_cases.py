"""MILP edge cases: infeasibility, node limits, deadlines.

The node-limit and deadline paths belong to the branch-and-bound
oracle.  The fake-clock :class:`Deadline` (each read advances one
virtual second) makes its timeout paths fully deterministic: the same
model and budget always stop at the same pivot.  The ring's handling
of a HiGHS timeout is pinned with a stubbed ``Model.solve``.
"""

from __future__ import annotations

import pytest

from repro.core.ring import construct_ring_tour
from repro.milp.expression import lin_sum
from repro.milp.model import Model, Solution, SolveStatus
from repro.network.placement import psion_placement
from repro.robustness import Deadline, StageTimeout
from tests.milp_oracle import solve_by, solve_with_branch_bound


class Tick:
    """A virtual clock: every read advances one second."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def knapsack_model() -> Model:
    """A 12-binary knapsack whose B&B tree has a known node profile:
    no incumbent before node ~21, proof complete by node ~50."""
    model = Model("knapsack")
    vals = [9, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3]
    wts = [7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 2]
    xs = [model.binary_var(f"x{i}") for i in range(len(vals))]
    model.add_constraint(lin_sum(x * w for x, w in zip(xs, wts)) <= 17)
    model.maximize(lin_sum(x * v for x, v in zip(xs, vals)))
    return model


@pytest.mark.parametrize("solver", ["scipy", "branch_bound"])
class TestInfeasibility:
    def test_lp_infeasible(self, solver):
        model = Model("lp-infeasible")
        x = model.add_var("x", lb=0.0, ub=1.0)
        model.add_constraint(x * 1.0 >= 2.0)
        model.minimize(x)
        solution = solve_by(model, solver)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.has_solution

    def test_integer_infeasible_but_lp_feasible(self, solver):
        # The relaxation has solutions in [0.2, 0.8] but no integer
        # point exists; both solvers must prove infeasibility, not
        # round or error out.
        model = Model("int-infeasible")
        x = model.add_var("x", lb=0.0, ub=1.0, integer=True)
        model.add_constraint(x * 1.0 >= 0.2)
        model.add_constraint(x * 1.0 <= 0.8)
        model.minimize(x)
        solution = solve_by(model, solver)
        assert solution.status is SolveStatus.INFEASIBLE


class TestNodeLimit:
    def test_exhaustion_with_incumbent_is_feasible(self):
        solution = solve_with_branch_bound(knapsack_model(), max_nodes=30)
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.has_solution
        assert not solution.is_optimal
        assert "node limit" in solution.message
        # The incumbent is a real feasible point of the model.
        model = knapsack_model()
        assert all(c.satisfied_by(solution.values) for c in model.constraints)

    def test_exhaustion_without_incumbent_is_error(self):
        solution = solve_with_branch_bound(knapsack_model(), max_nodes=5)
        assert solution.status is SolveStatus.ERROR
        assert not solution.has_solution
        assert "node limit" in solution.message

    def test_generous_limit_stays_optimal(self):
        solution = solve_with_branch_bound(knapsack_model(), max_nodes=500)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-26.0)


class TestDeadlines:
    def test_expiry_with_incumbent_keeps_it(self):
        deadline = Deadline(50.0, clock=Tick())
        solution = solve_with_branch_bound(knapsack_model(), deadline=deadline)
        assert solution.status is SolveStatus.TIMEOUT
        assert solution.has_solution
        assert solution.objective == pytest.approx(-26.0)
        assert "incumbent" in solution.message

    def test_expiry_before_incumbent_returns_empty_timeout(self):
        deadline = Deadline(5.0, clock=Tick())
        solution = solve_with_branch_bound(knapsack_model(), deadline=deadline)
        assert solution.status is SolveStatus.TIMEOUT
        assert not solution.has_solution

    def test_solve_short_circuits_on_spent_deadline(self):
        deadline = Deadline(1.0)
        deadline.consume(2.0)
        solution = knapsack_model().solve(deadline=deadline)
        assert solution.status is SolveStatus.TIMEOUT
        assert "before solve started" in solution.message

    def test_backends_agree_on_the_optimum(self):
        highs = knapsack_model().solve()
        oracle = solve_with_branch_bound(knapsack_model())
        assert highs.is_optimal and oracle.is_optimal
        assert highs.objective == pytest.approx(oracle.objective)


def _stub_timeout(monkeypatch, *, with_incumbent: bool) -> None:
    """Make every ``Model.solve`` report a HiGHS time-limit stop.

    With an incumbent, the stop carries the real solve's values (a
    valid assignment); without one, it carries nothing.
    """
    real_solve = Model.solve

    def timed_out(model, time_limit=None, deadline=None):
        values = real_solve(model).values if with_incumbent else []
        return Solution(
            status=SolveStatus.TIMEOUT, values=values, message="stubbed"
        )

    monkeypatch.setattr(Model, "solve", timed_out)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
class TestRingTourTimeout:
    def test_timeout_with_incumbent_flags_the_tour(self, monkeypatch, lazy):
        points, _ = psion_placement(8)
        _stub_timeout(monkeypatch, with_incumbent=True)
        tour = construct_ring_tour(list(points), lazy=lazy, time_limit=5.0)
        assert tour.timed_out
        assert sorted(tour.order) == list(range(8))

    def test_timeout_without_incumbent_raises_stage_timeout(
        self, monkeypatch, lazy
    ):
        points, _ = psion_placement(8)
        _stub_timeout(monkeypatch, with_incumbent=False)
        with pytest.raises(StageTimeout) as excinfo:
            construct_ring_tour(list(points), lazy=lazy, time_limit=5.0)
        assert excinfo.value.stage == "ring"


class TestRingTourTimeLimit:
    def test_spent_deadline_raises_stage_timeout(self):
        points, _ = psion_placement(8)
        deadline = Deadline(1.0)
        deadline.consume(2.0)
        with pytest.raises(StageTimeout) as excinfo:
            construct_ring_tour(list(points), deadline=deadline)
        assert excinfo.value.stage == "ring"

    def test_generous_limit_not_flagged(self, tour8):
        assert not tour8.timed_out
