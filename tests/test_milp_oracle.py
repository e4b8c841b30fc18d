"""The branch-and-bound oracle against HiGHS on real ring models.

Each case builds the eager Step-1 model (:func:`_build_ring_model` with
every constraint-(3) conflict row) for a small continuous-coordinate
floorplan and solves it twice: with :meth:`Model.solve` (HiGHS) and
with the pure-Python oracle of ``tests/milp_oracle.py``.  Both must
prove optimality at the same objective.  Every oracle solve carries a
time limit, so a simplex that cycles fails with TIMEOUT instead of
hanging the suite.

The same corpus, plus jittered 8-node floorplans like the service's
jobs and the 16- and 20-node grids, pins the HiGHS setting: the
production solve (feasibility-jump heuristic off) must select exactly
the edges ``scipy.optimize.milp`` selects with default options.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.ring import _build_ring_model
from repro.geometry import Point, build_edge_conflicts
from repro.milp import SolveStatus
from repro.network.placement import extended_placement
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


def _jittered_points(seed: int) -> list[Point]:
    """The 8-node grid with each node moved by up to 0.3 mm."""
    rng = random.Random(seed)
    return [
        Point(p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3))
        for p in extended_placement(8)[0]
    ]


def _differential_cases() -> list[tuple[str, list[Point]]]:
    cases = [
        (f"corpus-{seed}-{n}", _corpus_points(seed, n))
        for seed in range(8)
        for n in range(5, 9)
    ]
    cases += [
        (f"jitter8-{seed}", _jittered_points(seed)) for seed in range(24)
    ]
    cases += [(f"grid{n}", list(extended_placement(n)[0])) for n in (16, 20)]
    return cases


DIFFERENTIAL_CASES = _differential_cases()

#: Corpus floorplans whose ring optimum is not unique (0.1 mm
#: coordinates make equal-length tours common): the two HiGHS settings
#: return different optimal tours of the same length there.
TIED_OPTIMA = {"corpus-3-5", "corpus-6-7"}


@pytest.mark.parametrize(
    "name,points",
    DIFFERENTIAL_CASES,
    ids=[name for name, _ in DIFFERENTIAL_CASES],
)
def test_production_solve_matches_default_highs(name, points):
    model = _ring_model(points)
    solution = model.solve()
    default = milp(
        model.c,
        constraints=[LinearConstraint(model.csr(), model.lo, model.hi)],
        integrality=model.integrality,
        bounds=Bounds(model.lb, model.ub),
    )
    assert solution.status is SolveStatus.OPTIMAL
    assert default.status == 0, default.message
    same_x = np.array_equal(np.rint(solution.values), np.rint(default.x))
    if name in TIED_OPTIMA:
        # Two distinct optimal vertices of one objective value.
        assert not same_x
        assert default.fun == pytest.approx(solution.objective, abs=1e-9)
    else:
        assert same_x
