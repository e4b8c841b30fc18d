"""Step-1 geometry after the MILP against the scalar oracle.

Ring realization selection, the sub-cycle merge and the heuristic
ring's conflict check run on the bulk crossing kernel; the pair-by-pair
versions they replaced live in ``tests/ring_oracle.py``.  Both must
produce the same tours — the same ``order``, ``edge_paths`` and
``crossing_count`` — or fail the same way:

- ``_choose_realizations`` on random tour orders, which push it
  through all three tiers (2-SAT, staircase backtracking, greedy);
- ``_merge_two_cycles`` with a conflict dict and with bulk queries;
- the heuristic ring's tour check;
- whole tours from ``construct_ring_tour`` (eager and lazy) and
  ``construct_ring_tour_heuristic`` on the property corpus and the
  adversarial layouts of ``tests/test_conflicts_bulk.py``.

``REPRO_BULK_CASES`` scales the random-order sweeps (default 200);
``REPRO_PROPERTY_SEED`` / ``REPRO_PROPERTY_CASES`` pick the corpus.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import heuristic_ring, ring
from repro.core.heuristic_ring import construct_ring_tour_heuristic
from repro.core.ring import construct_ring_tour
from repro.geometry import build_edge_conflicts
from repro.milp import SolveError
from repro.parallel import clear_caches
from tests.ring_oracle import (
    choose_realizations,
    conflicting_tour_edges,
    merge_two_cycles,
    scalar_ring,
)
from tests.test_conflicts_bulk import ADVERSARIAL_LAYOUTS, _random_floorplan
from tests.test_property_invariants import _floorplans

SEED = 246_813_579
N_CASES = int(os.environ.get("REPRO_BULK_CASES", "200"))


def _random_tour(case: int, low: int = 4, high: int = 9):
    """A seeded lattice floorplan and a random visiting order on it."""
    rng = random.Random(SEED + case)
    points = _random_floorplan(rng, rng.randint(low, high))
    return points, rng.sample(range(len(points)), len(points))


class TestRealizations:
    @pytest.mark.parametrize("case", range(N_CASES))
    def test_random_order(self, case):
        points, order = _random_tour(case)
        assert ring._choose_realizations(order, points) == choose_realizations(
            order, points
        )

    def test_sweep_reaches_every_tier(self):
        tiers = set()
        for case in range(N_CASES):
            points, order = _random_tour(case)
            paths, crossings = ring._choose_realizations(order, points)
            if crossings:
                tiers.add("greedy")
            elif any(len(path.segments) == 3 for path in paths):
                tiers.add("backtrack")
            else:
                tiers.add("2-sat")
        assert tiers == {"2-sat", "backtrack", "greedy"}


def _merge_outcome(merge, *args):
    try:
        return merge(*args)
    except SolveError as exc:
        return ("error", str(exc))


class TestMerge:
    @pytest.mark.parametrize("case", range(0, N_CASES, 4))
    def test_random_split(self, case):
        rng = random.Random(SEED - case)
        points, order = _random_tour(case, low=6, high=12)
        cut1 = rng.randint(3, len(order) - 3)
        c1, rest = order[:cut1], order[cut1:]
        cut2 = rng.choice([len(rest)] + list(range(3, len(rest) - 2)))
        c2, c3 = rest[:cut2], rest[cut2:]
        others = ring._cycle_edges(c3) if c3 else []
        want = _merge_outcome(merge_two_cycles, c1, c2, points, others)
        conflicts = build_edge_conflicts(points)
        assert _merge_outcome(ring._merge_two_cycles, c1, c2, points, others) == want
        assert (
            _merge_outcome(
                ring._merge_two_cycles, c1, c2, points, others, conflicts
            )
            == want
        )


class TestHeuristicTourCheck:
    @pytest.mark.parametrize("case", range(0, N_CASES, 4))
    def test_random_order(self, case):
        points, order = _random_tour(case, low=4, high=16)
        want = conflicting_tour_edges(order, points)
        check = heuristic_ring._conflicting_edge_pairs
        assert check(order, points) == want


def _tour_outcome(build, points):
    clear_caches()
    try:
        tour = build(list(points))
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc).__name__, str(exc))
    finally:
        clear_caches()
    return (tour.order, tour.edge_paths, tour.crossing_count)


CONSTRUCTORS = {
    "eager": lambda points: construct_ring_tour(points, lazy=False),
    "lazy": lambda points: construct_ring_tour(points, lazy=True),
    "heuristic": construct_ring_tour_heuristic,
}

LAYOUTS = {f"corpus{k}": points for k, points in enumerate(_floorplans())}
LAYOUTS.update(ADVERSARIAL_LAYOUTS)


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("method", list(CONSTRUCTORS))
def test_tour_matches_oracle(method, layout):
    build, points = CONSTRUCTORS[method], LAYOUTS[layout]
    fast = _tour_outcome(build, points)
    with scalar_ring():
        slow = _tour_outcome(build, points)
    assert fast == slow
