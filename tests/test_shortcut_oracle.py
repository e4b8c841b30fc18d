"""Lazy shortcut selection against the eager oracle, and its deadline.

:func:`repro.core.shortcuts.select_shortcuts` routes a node pair only
when the pair's gain bound reaches the top of a heap and caps its maze
search at the ring arc.  Both are claimed to leave the plan unchanged,
so every plan here must be dict-equal to the one the eager loop in
``tests/shortcut_oracle.py`` produces (route every pair, sort by gain,
select), with and without a shortcut cap and a demand subset.  The
random floorplans are the property suite's corpus, so
``REPRO_PROPERTY_SEED`` / ``REPRO_PROPERTY_CASES`` widen this check
too.  The three paper-size golden placements are checked in full; the
64-node one only with a shortcut cap and a demand subset, because
routing all 2016 pairs eagerly takes most of a minute
(``tests/test_golden_regression.py`` pins its full plan).
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.core import shortcuts as shortcuts_module
from repro.core.heuristic_ring import construct_ring_tour_heuristic
from repro.core.ring import construct_ring_tour
from repro.core.shortcuts import select_shortcuts
from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.core.validate import validate_design
from repro.network.placement import (
    extended_placement,
    oring_placement,
    psion_placement,
)
from repro.network.traffic import all_to_all
from repro.photonics.parameters import ORING_LOSSES
from repro.robustness import Deadline, DeadlineExceeded
from repro.robustness.report import STATUS_FALLBACK
from tests.shortcut_oracle import route_all_pairs, select_shortcuts_eager
from tests.test_property_invariants import SEED, _floorplans

def _assert_same_plan(tour, routes, **kwargs):
    lazy = select_shortcuts(tour, **kwargs)
    eager = select_shortcuts_eager(tour, routes=routes, **kwargs)
    assert lazy.shortcuts == eager.shortcuts
    assert lazy.served == eager.served
    return lazy


def _demand_subset(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    return tuple(pair for pair in all_to_all(n) if rng.random() < 0.4)


def test_lazy_matches_eager_on_property_corpus():
    rng = random.Random(SEED)
    for points in _floorplans():
        tour = construct_ring_tour_heuristic(points)
        routes = route_all_pairs(tour)
        _assert_same_plan(tour, routes, loss=ORING_LOSSES)
        _assert_same_plan(tour, routes, max_shortcuts=2)
        _assert_same_plan(
            tour,
            routes,
            loss=ORING_LOSSES,
            demands=_demand_subset(tour.size, rng),
        )


GOLDEN_TOURS = {
    "xring8_default": lambda: construct_ring_tour(list(psion_placement(8)[0])),
    "xring16_heuristic": lambda: construct_ring_tour_heuristic(
        list(psion_placement(16)[0])
    ),
    "oring16_closed": lambda: construct_ring_tour(list(oring_placement()[0])),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TOURS))
def test_lazy_matches_eager_on_golden_placements(name):
    tour = GOLDEN_TOURS[name]()
    routes = route_all_pairs(tour)
    plan = _assert_same_plan(
        tour, routes, loss=ORING_LOSSES, demands=all_to_all(tour.size)
    )
    assert plan.shortcuts
    _assert_same_plan(
        tour,
        routes,
        loss=ORING_LOSSES,
        max_shortcuts=3,
        demands=_demand_subset(tour.size, random.Random(tour.size)),
    )


def test_lazy_matches_eager_on_64_node_golden_subset():
    tour = construct_ring_tour(list(extended_placement(64)[0]), lazy=True)
    demands = _demand_subset(tour.size, random.Random(tour.size))
    routes = route_all_pairs(tour, pairs=[tuple(sorted(p)) for p in demands])
    plan = _assert_same_plan(
        tour,
        routes,
        loss=ORING_LOSSES,
        max_shortcuts=3,
        demands=demands,
    )
    assert len(plan.shortcuts) == 3


def _count_routes(monkeypatch, on_route=None) -> list:
    """Record each pair the shortcut loop routes (``on_route`` runs
    after each)."""
    routed = []
    real = shortcuts_module._feasible_realizations

    def counting(tour, node_a, node_b, *args, **kwargs):
        routed.append((node_a, node_b))
        if on_route is not None:
            on_route()
        return real(tour, node_a, node_b, *args, **kwargs)

    monkeypatch.setattr(shortcuts_module, "_feasible_realizations", counting)
    return routed


class Tick:
    """A virtual clock: every read advances one second."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestDeadlineInsideStage:
    def test_loop_polls_the_deadline_per_candidate(self, tour16, monkeypatch):
        # One clock read at construction and one per poll: a 10 s budget
        # lets nine heap pops through and the tenth raises — in the
        # middle of the 120-pair stage, after some pairs were routed.
        routed = _count_routes(monkeypatch)
        deadline = Deadline(10.0, clock=Tick())
        with pytest.raises(DeadlineExceeded) as excinfo:
            select_shortcuts(tour16, loss=ORING_LOSSES, deadline=deadline)
        assert excinfo.value.stage == "shortcuts"
        assert 0 < len(routed) <= 9

    def test_unexpired_deadline_leaves_the_plan_alone(self, tour16):
        plan = select_shortcuts(
            tour16, loss=ORING_LOSSES, deadline=Deadline(1e9, clock=Tick())
        )
        assert plan.shortcuts == select_shortcuts(tour16, loss=ORING_LOSSES).shortcuts

    @staticmethod
    def _expire_after_first_route(monkeypatch):
        """Freeze the synthesizer's clock until the shortcut loop routes
        its first pair, then jump it far past any budget."""
        now = [0.0]
        monkeypatch.setattr(
            "repro.core.synthesizer.Deadline",
            functools.partial(Deadline, clock=lambda: now[0]),
        )
        return _count_routes(monkeypatch, on_route=lambda: now.__setitem__(0, 1e6))

    def test_raise_policy_surfaces_mid_stage_expiry(self, network8, monkeypatch):
        routed = self._expire_after_first_route(monkeypatch)
        synthesizer = XRingSynthesizer(
            network8, SynthesisOptions(on_error="raise", deadline_s=60.0)
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            synthesizer.run()
        assert excinfo.value.stage == "shortcuts"
        assert len(routed) == 1

    def test_default_policy_falls_back_to_no_shortcuts(
        self, network8, monkeypatch
    ):
        routed = self._expire_after_first_route(monkeypatch)
        design = XRingSynthesizer(
            network8, SynthesisOptions(deadline_s=60.0)
        ).run()
        record = design.report.stage("shortcuts")
        assert record.status == STATUS_FALLBACK
        assert record.fallback == "no_shortcuts"
        assert "deadline" in record.error
        assert design.shortcut_count == 0
        assert len(routed) == 1
        assert validate_design(design) == []
