"""Unit and property tests for Step 1: ring construction."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ring import RingTour, _build_ring_model, construct_ring_tour
from repro.geometry import Point, build_edge_conflicts, count_crossings, paths_cross
from tests.milp_oracle import solve_with_branch_bound


def tour_is_valid(tour: RingTour, points) -> None:
    assert sorted(tour.order) == list(range(len(points)))
    assert tour.length_mm == pytest.approx(
        sum(path.length for path in tour.edge_paths)
    )
    # Every edge path connects consecutive tour nodes.
    n = len(points)
    for k, path in enumerate(tour.edge_paths):
        assert path.start.almost_equals(points[tour.order[k]])
        assert path.end.almost_equals(points[tour.order[(k + 1) % n]])


class TestConstructRingTour:
    def test_square(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        tour = construct_ring_tour(points)
        tour_is_valid(tour, points)
        assert tour.length_mm == pytest.approx(8.0)
        assert tour.crossing_count == 0

    def test_rectangle_grid_8(self, network8, tour8):
        tour_is_valid(tour8, list(network8.positions))
        assert tour8.crossing_count == 0

    def test_16_node(self, network16, tour16):
        tour_is_valid(tour16, list(network16.positions))
        assert tour16.crossing_count == 0

    def test_edge_paths_pairwise_crossing_free(self, tour16):
        n = tour16.size
        for i, j in itertools.combinations(range(n), 2):
            shared = [
                p
                for p in tour16.edge_paths[i].points[:1] + tour16.edge_paths[i].points[-1:]
                if p.almost_equals(tour16.edge_paths[j].start)
                or p.almost_equals(tour16.edge_paths[j].end)
            ]
            assert count_crossings(
                tour16.edge_paths[i], tour16.edge_paths[j], ignore=shared
            ) == 0

    def test_distances(self, tour8):
        a, b = tour8.order[0], tour8.order[3]
        cw = tour8.cw_distance(a, b)
        ccw = tour8.ccw_distance(a, b)
        assert cw + ccw == pytest.approx(tour8.length_mm)
        assert tour8.cw_distance(a, a) == 0.0

    def test_nodes_strictly_between(self, tour8):
        order = tour8.order
        between = tour8.nodes_strictly_between(order[0], order[3])
        assert between == list(order[1:3])
        assert tour8.nodes_strictly_between(order[0], order[1]) == []

    def test_successor(self, tour8):
        assert tour8.successor(tour8.order[0]) == tour8.order[1]
        assert tour8.successor(tour8.order[-1]) == tour8.order[0]

    def test_position_of_point(self, tour8):
        start = tour8.points[tour8.order[0]]
        assert tour8.position_of_point(start) == pytest.approx(0.0)
        off_ring = Point(-99.0, -99.0)
        assert tour8.position_of_point(off_ring) is None

    def test_rejects_tiny_networks(self):
        with pytest.raises(ValueError):
            construct_ring_tour([Point(0, 0), Point(1, 0)])

    def test_rejects_duplicate_positions(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 0), Point(1, 1)]
        with pytest.raises(ValueError):
            construct_ring_tour(points)

    def test_branch_bound_backend_small(self):
        # The branch-and-bound oracle solves the ring model to the
        # HiGHS objective, and the tour realizes it.
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        model = _build_ring_model(points, build_edge_conflicts(points))
        oracle = solve_with_branch_bound(model, time_limit=30.0)
        assert oracle.is_optimal
        assert oracle.objective == pytest.approx(model.solve().objective)
        assert construct_ring_tour(points).length_mm == pytest.approx(8.0)

    def test_collinear_nodes_not_skipped_through(self):
        # Nodes on one row plus one off-row: the ring cannot run a
        # waveguide through a foreign node's position.
        points = [Point(0, 0), Point(2, 0), Point(4, 0), Point(2, 2)]
        tour = construct_ring_tour(points)
        tour_is_valid(tour, points)
        assert tour.crossing_count == 0


@st.composite
def point_sets(draw):
    n = draw(st.integers(4, 6))
    coords = st.integers(0, 7)
    points = []
    seen = set()
    while len(points) < n:
        x, y = draw(coords), draw(coords)
        if (x, y) not in seen:
            seen.add((x, y))
            points.append(Point(float(x), float(y)))
    # All-collinear sets admit no crossing-free closed ring (the MILP
    # is honestly infeasible there); the property under test assumes a
    # feasible instance, so nudge the last point off the shared line.
    xs = {p.x for p in points}
    ys = {p.y for p in points}
    if len(xs) == 1 or len(ys) == 1:
        offset = 1.0 if len(xs) == 1 else 0.0
        replacement = Point(points[-1].x + offset, points[-1].y + (1.0 - offset))
        points[-1] = replacement
    return points


class TestRingTourProperties:
    @given(point_sets())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.large_base_example],
    )
    def test_random_point_sets(self, points):
        tour = construct_ring_tour(points)
        tour_is_valid(tour, points)
        # The realization stages should almost always succeed; when
        # they cannot, the residual count must be reported, never
        # silently wrong.
        assert tour.crossing_count >= 0
        # Lower bound: a tour is at least the largest pairwise distance
        # times 2 (go and come back).
        worst = max(a.manhattan(b) for a, b in itertools.combinations(points, 2))
        assert tour.length_mm >= 2 * worst - 1e-6
