"""Equivalence battery: lazy conflict cuts versus the eager ring MILP.

The cutting-plane loop (:func:`repro.core.ring._solve_ring`) builds
constraint-(3) rows on demand in lazy mode, and starts from every row
in eager mode.  Because a
conflict-free incumbent of the relaxed model is feasible for the full
model, both modes must reach the *same optimal objective* — that, plus
"every added cut is a row the eager model would have", is what this
module pins:

- lazy and eager tours have equal length on every seeded floorplan and
  the lazy tour selects no conflicting edge pair;
- the cut rows added by the loop are a subset (by name) of the eager
  model's conflict rows, and their count matches the reported metric;
- eager mode is the same loop seeded with every row: its
  ``ring.conflict_constraints`` equals the full model's row count and
  it reports no ``ring.lazy.*`` counter;
- round counts stay within :data:`repro.core.ring.LAZY_MAX_ROUNDS`;
- an exhausted :class:`~repro.robustness.deadline.Deadline` degrades
  (raises ``StageTimeout``/returns an incumbent) instead of hanging,
  and the synthesizer's fallback chain still produces a design.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.ring import (
    LAZY_MAX_ROUNDS,
    _build_ring_model,
    _solve_ring,
    construct_ring_tour,
)
from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.geometry import Point, build_edge_conflicts, conflicting_edge_pairs
from repro.network import Network
from repro.obs import NULL_TRACER, MetricsRegistry, ObsContext, use_obs
from repro.robustness.deadline import Deadline
from repro.robustness.errors import StageTimeout

SEED = 24_601


def _random_floorplan(rng: random.Random, n: int) -> list[Point]:
    side = max(4, int(n**0.5) + 2)
    cells = rng.sample([(c, r) for c in range(side) for r in range(side)], n)
    return [Point(c * 0.35, r * 0.35) for c, r in cells]


def _cases() -> list[list[Point]]:
    rng = random.Random(SEED)
    return [_random_floorplan(rng, 5 + (k % 8)) for k in range(12)]


CASES = _cases()


def _tour_edges(tour) -> list[tuple[int, int]]:
    n = tour.size
    return sorted(
        tuple(sorted((tour.order[k], tour.order[(k + 1) % n])))
        for k in range(n)
    )


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_objective_and_conflict_free(self, case):
        points = CASES[case]
        eager = construct_ring_tour(points, lazy=False)
        lazy = construct_ring_tour(points, lazy=True)
        assert lazy.length_mm == pytest.approx(eager.length_mm, abs=1e-6)
        assert sorted(lazy.order) == list(range(len(points)))
        # The guarantee that matters: the lazy tour's selected edges
        # contain no geometrically conflicting pair.
        assert conflicting_edge_pairs(points, _tour_edges(lazy)) == []

    @pytest.mark.parametrize("case", [0, 3, 7, 11])
    def test_cuts_are_subset_of_eager_rows(self, case):
        points = CASES[case]
        model = _build_ring_model(points, {})
        _sol, _sel, timed_out, rounds, cuts_added = _solve_ring(
            model, points, None, None
        )
        assert not timed_out
        assert 1 <= rounds <= LAZY_MAX_ROUNDS
        lazy_rows = {
            c.name for c in model.constraints if c.name.startswith("conflict_")
        }
        assert len(lazy_rows) == cuts_added
        eager_model = _build_ring_model(points, build_edge_conflicts(points))
        eager_rows = {
            c.name
            for c in eager_model.constraints
            if c.name.startswith("conflict_")
        }
        assert lazy_rows <= eager_rows
        # Lazy generation exists to add *fewer* rows than the eager
        # model carries (the relaxation binds on only a few).
        assert len(lazy_rows) <= len(eager_rows)

    @pytest.mark.parametrize("case", [2, 9])
    def test_eager_is_the_loop_seeded_with_every_row(self, case):
        points = CASES[case]
        registry = MetricsRegistry()
        with use_obs(ObsContext(tracer=NULL_TRACER, metrics=registry)):
            construct_ring_tour(points, lazy=False)
        counters = registry.snapshot()["counters"]
        full = _build_ring_model(points, build_edge_conflicts(points))
        rows = sum(
            1 for c in full.constraints if c.name.startswith("conflict_")
        )
        assert rows > 0
        assert counters["ring.conflict_constraints"] == rows
        assert not [name for name in counters if name.startswith("ring.lazy.")]


class TestBudgets:
    def test_exhausted_deadline_degrades_not_hangs(self):
        points = CASES[1]
        deadline = Deadline(1e-6)
        while not deadline.expired():
            time.sleep(1e-4)
        start = time.perf_counter()
        try:
            tour = construct_ring_tour(points, lazy=True, deadline=deadline)
        except StageTimeout:
            pass
        else:
            assert tour.timed_out
        assert time.perf_counter() - start < 30.0

    def test_tiny_time_limit_bounded(self):
        points = CASES[4]
        start = time.perf_counter()
        try:
            tour = construct_ring_tour(points, lazy=True, time_limit=1e-3)
        except StageTimeout:
            pass
        else:
            # An incumbent found inside the budget is returned as-is.
            assert sorted(tour.order) == list(range(len(points)))
        assert time.perf_counter() - start < 30.0

    def test_synthesizer_fallback_chain_survives_lazy_timeout(self):
        points = CASES[5]
        network = Network.from_positions(points)
        options = SynthesisOptions(
            lazy_conflicts=True, deadline_s=1e-3, on_error="degrade"
        )
        design = XRingSynthesizer(network, options).run()
        assert design.tour is not None
        assert sorted(design.tour.order) == list(range(len(points)))


class TestOptionsPlumbing:
    def test_lazy_option_validated(self):
        from repro.robustness.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SynthesisOptions(lazy_conflicts="yes")

    @pytest.mark.parametrize("lazy", [True, False, None])
    def test_synthesizer_accepts_all_modes(self, lazy):
        points = CASES[6]
        network = Network.from_positions(points)
        options = SynthesisOptions(lazy_conflicts=lazy, on_error="raise")
        design = XRingSynthesizer(network, options).run()
        assert conflicting_edge_pairs(points, _tour_edges(design.tour)) == []
