"""Unit and property tests for crossing predicates and edge conflicts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    RectilinearPath,
    count_crossings,
    crossing_points,
    edges_conflict,
    l_routes,
    paths_cross,
)
from repro.geometry.crossing import conflict_free_realizations

grid_coord = st.integers(min_value=0, max_value=6).map(float)
grid_points = st.builds(Point, grid_coord, grid_coord)


def path(*pts) -> RectilinearPath:
    return RectilinearPath([Point(x, y) for x, y in pts])


class TestPathsCross:
    def test_plain_cross(self):
        p1 = path((0, 1), (4, 1))
        p2 = path((2, 0), (2, 3))
        assert paths_cross(p1, p2)
        assert crossing_points(p1, p2) == [Point(2, 1)]

    def test_disjoint(self):
        assert not paths_cross(path((0, 0), (1, 0)), path((0, 2), (1, 2)))

    def test_touch_counts_as_interaction(self):
        # T-junction: not a proper crossing, but an illegal interaction.
        p1 = path((0, 0), (4, 0))
        p2 = path((2, 0), (2, 3))
        assert paths_cross(p1, p2)
        assert count_crossings(p1, p2) == 0

    def test_shared_terminal_ignored(self):
        p1 = path((0, 0), (2, 0))
        p2 = path((2, 0), (2, 3))
        assert not paths_cross(p1, p2, ignore=(Point(2, 0),))

    def test_overlap_counts(self):
        p1 = path((0, 0), (4, 0))
        p2 = path((1, 0), (3, 0))
        assert paths_cross(p1, p2)
        assert count_crossings(p1, p2) == 0  # overlap, not proper cross

    def test_multi_segment_crossings(self):
        snake = path((0, 0), (4, 0), (4, 4), (0, 4))
        pole = path((2, -1), (2, 5))
        assert count_crossings(snake, pole) == 2


class TestEdgesConflict:
    def test_crossing_diagonals_conflict(self):
        e1 = (Point(0, 0), Point(2, 2))
        e2 = (Point(0, 2), Point(2, 0))
        assert edges_conflict(e1, e2)

    def test_parallel_edges_do_not_conflict(self):
        e1 = (Point(0, 0), Point(1, 0))
        e2 = (Point(0, 1), Point(1, 1))
        assert not edges_conflict(e1, e2)

    def test_shared_vertex_never_conflicts_both(self):
        e1 = (Point(0, 0), Point(2, 2))
        e2 = (Point(2, 2), Point(4, 0))
        assert not edges_conflict(e1, e2)

    def test_same_pair_not_conflicting(self):
        e1 = (Point(0, 0), Point(2, 2))
        e2 = (Point(2, 2), Point(0, 0))
        assert not edges_conflict(e1, e2)

    def test_collinear_overlap_conflicts(self):
        e1 = (Point(0, 0), Point(4, 0))
        e2 = (Point(1, 0), Point(3, 0))
        assert edges_conflict(e1, e2)

    def test_edge_through_foreign_vertex_conflicts(self):
        # An edge passing exactly through another edge's endpoint is a
        # touch, which makes collinear pairs conflict.
        e1 = (Point(0, 0), Point(4, 0))
        e2 = (Point(2, 0), Point(2, 3))
        assert edges_conflict(e1, e2)

    @given(grid_points, grid_points, grid_points, grid_points)
    @settings(max_examples=150)
    def test_conflict_symmetric(self, a, b, c, d):
        if a.almost_equals(b) or c.almost_equals(d):
            return
        assert edges_conflict((a, b), (c, d)) == edges_conflict((c, d), (a, b))

    @given(grid_points, grid_points, grid_points, grid_points)
    @settings(max_examples=150)
    def test_conflict_matches_realization_search(self, a, b, c, d):
        if a.almost_equals(b) or c.almost_equals(d):
            return
        shared = sum(
            1 for p in (a, b) if p.almost_equals(c) or p.almost_equals(d)
        )
        if shared >= 2:
            return
        conflict = edges_conflict((a, b), (c, d))
        clean_pairs = conflict_free_realizations((a, b), (c, d))
        assert conflict == (len(clean_pairs) == 0)


class TestConflictFreeRealizations:
    def test_returns_clean_pairings(self):
        e1 = (Point(0, 0), Point(3, 3))
        e2 = (Point(0, 3), Point(1, 1))
        for r1, r2 in conflict_free_realizations(e1, e2):
            assert not paths_cross(r1, r2)

    def test_l_routes_are_candidates(self):
        e1 = (Point(0, 0), Point(3, 3))
        e2 = (Point(5, 5), Point(6, 6))
        pairs = conflict_free_realizations(e1, e2)
        assert len(pairs) == len(l_routes(*e1)) * len(l_routes(*e2))

