"""Unit tests for Step 2: shortcut selection and CSE merging."""

import pytest

from repro.core.shortcuts import (
    LegDirection,
    _ChordMaze,
    select_shortcuts,
)
from repro.geometry import paths_cross
from repro.photonics.parameters import ORING_LOSSES


class TestSelection:
    def test_disabled_returns_empty(self, tour16):
        plan = select_shortcuts(tour16, enabled=False)
        assert plan.shortcuts == [] and plan.served == {}

    def test_one_shortcut_per_node(self, tour16):
        plan = select_shortcuts(tour16, loss=ORING_LOSSES)
        used = [n for s in plan.shortcuts for n in (s.node_a, s.node_b)]
        assert len(used) == len(set(used))

    def test_gains_positive(self, tour16):
        plan = select_shortcuts(tour16, loss=ORING_LOSSES)
        assert plan.shortcuts, "expected some shortcuts on the 16-node ring"
        for s in plan.shortcuts:
            assert s.gain_mm > 0
            best_ring = min(
                tour16.cw_distance(s.node_a, s.node_b),
                tour16.ccw_distance(s.node_a, s.node_b),
            )
            assert s.gain_mm == pytest.approx(best_ring - s.length_mm)

    def test_shortcut_paths_do_not_cross_ring(self, tour16):
        plan = select_shortcuts(tour16, loss=ORING_LOSSES)
        for s in plan.shortcuts:
            endpoints = (tour16.points[s.node_a], tour16.points[s.node_b])
            for edge_path in tour16.edge_paths:
                # Crossings only within the attach zones at the
                # shortcut's own terminals (grid-snap tolerance).
                crossings = [
                    p
                    for p in _proper_crossings(s.path, edge_path)
                    if all(p.manhattan(e) > 0.5 for e in endpoints)
                ]
                assert not crossings

    def test_crossing_budget(self, tour8, tour16):
        for tour in (tour8, tour16):
            plan = select_shortcuts(tour, loss=ORING_LOSSES)
            for idx, s in enumerate(plan.shortcuts):
                crossers = [
                    j
                    for j, other in enumerate(plan.shortcuts)
                    if j != idx and paths_cross(s.path, other.path)
                ]
                assert len(crossers) <= 1
                if crossers:
                    assert s.partner == crossers[0]

    def test_max_shortcuts_cap(self, tour16):
        plan = select_shortcuts(tour16, max_shortcuts=2, loss=ORING_LOSSES)
        assert len(plan.shortcuts) <= 2


class TestServedPairs:
    def test_direct_pairs_served_both_directions(self, tour16):
        plan = select_shortcuts(tour16, loss=ORING_LOSSES)
        for s in plan.shortcuts:
            assert (s.node_a, s.node_b) in plan.served
            assert (s.node_b, s.node_a) in plan.served

    def test_leg_geometry(self, tour16):
        plan = select_shortcuts(tour16, loss=ORING_LOSSES)
        for idx, s in enumerate(plan.shortcuts):
            legs = plan.served[(s.node_a, s.node_b)]
            assert len(legs) == 1
            leg = legs[0]
            assert leg.direction is LegDirection.FORWARD
            assert leg.start_mm == 0.0
            assert leg.end_mm == pytest.approx(s.length_mm)

    def test_merged_pairs_have_two_legs(self, tour8):
        plan = select_shortcuts(tour8)
        for pair in plan.crossing_pairs:
            s1, s2 = plan.shortcuts[pair[0]], plan.shortcuts[pair[1]]
            merged_key = (s1.node_a, s2.node_b)
            if merged_key in plan.served:
                assert len(plan.served[merged_key]) == 2


class TestChordMaze:
    def test_chord_avoids_ring(self, tour16):
        maze = _ChordMaze(tour16)
        a, b = tour16.order[0], tour16.order[tour16.size // 2]
        chord = maze.chord(tour16.points[a], tour16.points[b])
        assert chord is not None
        assert chord.start.almost_equals(tour16.points[a])
        assert chord.end.almost_equals(tour16.points[b])
        # Length at least Manhattan, at most the better ring arc.
        manhattan = tour16.points[a].manhattan(tour16.points[b])
        assert chord.length >= manhattan - 1e-6

    def test_chord_respects_extra_obstacles(self, tour16):
        maze = _ChordMaze(tour16)
        a, b = tour16.order[0], tour16.order[tour16.size // 2]
        free = maze.chord(tour16.points[a], tour16.points[b])
        assert free is not None
        blocked = maze.ring_obstacles()
        maze.block(blocked, [free])
        detour = maze.chord(tour16.points[a], tour16.points[b], blocked=blocked)
        if detour is not None:
            assert detour.length >= free.length - 1e-6


def _proper_crossings(p1, p2):
    from repro.geometry import crossing_points

    return crossing_points(p1, p2)
