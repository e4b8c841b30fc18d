"""The branch-and-bound oracle against HiGHS on real ring models.

Each case builds the eager Step-1 model (:func:`_build_ring_model` with
every constraint-(3) conflict row) for a small continuous-coordinate
floorplan and solves it twice: with :meth:`Model.solve` (HiGHS) and
with the pure-Python oracle of ``tests/milp_oracle.py``.  Both must
prove optimality at the same objective.  Every oracle solve carries a
time limit, so a simplex that cycles fails with TIMEOUT instead of
hanging the suite.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ring import _build_ring_model
from repro.geometry import Point, build_edge_conflicts
from repro.milp import SolveStatus
from tests.milp_oracle import solve_with_branch_bound

#: Per-solve budget for the oracle; each corpus model takes well under
#: a tenth of a second when the simplex terminates.
ORACLE_TIME_LIMIT_S = 5.0


def _ring_model(points: list[Point]):
    return _build_ring_model(points, build_edge_conflicts(points))


def _corpus_points(seed: int, n: int) -> list[Point]:
    """``n`` nodes on a 4 x 4 mm die at 0.1 mm resolution."""
    rng = random.Random(100 * seed + n)
    return [
        Point(round(rng.uniform(0, 4), 1), round(rng.uniform(0, 4), 1))
        for _ in range(n)
    ]


def _assert_oracle_matches_highs(points: list[Point]) -> None:
    model = _ring_model(points)
    highs = model.solve()
    oracle = solve_with_branch_bound(model, time_limit=ORACLE_TIME_LIMIT_S)
    assert highs.status is SolveStatus.OPTIMAL
    assert oracle.status is SolveStatus.OPTIMAL, oracle.message
    assert oracle.objective == pytest.approx(highs.objective, abs=1e-6)


def test_redundant_row_does_not_make_the_simplex_cycle():
    # The root relaxation of this floorplan leaves a phase-1 artificial
    # basic at level zero on a redundant row.  Pricing it out of phase
    # 2 with a huge cost made Bland's rule cycle without end.
    points = [
        Point(2.8, 3.6),
        Point(0.1, 3.8),
        Point(3.3, 0.2),
        Point(3.2, 3.2),
        Point(0.8, 3.9),
        Point(1.5, 1.8),
    ]
    _assert_oracle_matches_highs(points)


@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_highs_on_ring_models(seed, n):
    points = _corpus_points(seed, n)
    assert len(set(points)) == n
    _assert_oracle_matches_highs(points)
