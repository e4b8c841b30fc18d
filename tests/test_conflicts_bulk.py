"""Differential battery: bulk conflict kernel versus the scalar oracle.

The vectorized kernel in :mod:`repro.geometry.conflicts_bulk` must be
*byte-identical* to the scalar predicate it replaces — the MILP rows
it produces decide which ring edges may coexist, so a single flipped
pair silently changes synthesis results.  This module pins:

- ``build_edge_conflicts_bulk`` == ``build_edge_conflicts_scalar`` as
  whole dicts, over 200+ seeded random floorplans (n = 3..32) plus
  adversarial collinear / shared-row / shared-column layouts;
- ``conflicting_edge_pairs`` / ``conflicting_edge_indices`` (the lazy
  loop's incumbent check, the heuristic ring's tour check) and
  ``conflicts_between`` (the sub-cycle merge) agree with
  ``edges_conflict`` on explicit edge lists in either orientation;
- ``option_crossings`` (the ring realization table) agrees with
  ``paths_cross`` option pair by option pair;
- every ``SegmentSet`` query agrees with its per-segment scalar loop
  over ``paths_cross`` / ``classify_intersection``;
- ``build_edge_conflicts`` is the bulk kernel at every size;
- both implementations reject duplicate coordinates the same way.

Seeds are fixed so failures reproduce; REPRO_BULK_CASES scales the
random sweep (default 200).
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.core.ring import _staircase_routes
from repro.geometry import (
    IntersectionKind,
    Point,
    RectilinearPath,
    SegmentSet,
    build_edge_conflicts,
    build_edge_conflicts_bulk,
    build_edge_conflicts_scalar,
    classify_intersection,
    conflicting_edge_indices,
    conflicting_edge_pairs,
    conflicts_between,
    crossing_points,
    edges_conflict,
    l_routes,
    option_crossings,
    paths_cross,
)

SEED = 987_654_321
N_CASES = int(os.environ.get("REPRO_BULK_CASES", "200"))

#: Node count for each random case.  Small sizes dominate (the scalar
#: oracle is O(n^4) and must run too); the explicit tail reaches the
#: full n=32 of the paper's largest network so the bulk batching code
#: sees multi-batch regimes.
_SIZES = [3 + (k % 12) for k in range(N_CASES)] + [16, 20, 24, 28, 32]


def _random_floorplan(rng: random.Random, n: int) -> list[Point]:
    """Distinct lattice positions: collinear runs stay plentiful."""
    side = max(4, int(n**0.5) + 2)
    cells = rng.sample(
        [(c, r) for c in range(side) for r in range(side)], n
    )
    return [Point(c * 0.35, r * 0.35) for c, r in cells]


def _cases() -> list[list[Point]]:
    rng = random.Random(SEED)
    return [_random_floorplan(rng, n) for n in _SIZES]


CASES = _cases()

#: Hand-built layouts that stress shared rows, columns and terminals.
ADVERSARIAL_LAYOUTS = {
    # One shared row: every edge collinear with every other.
    "row": [Point(float(i), 0.0) for i in range(6)],
    # One shared column.
    "column": [Point(0.0, float(i)) for i in range(6)],
    # Collinear run plus one off-line node (shared terminals meet at
    # the hub in many pairings).
    "hub": [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0), Point(1, 2)],
    # Dense 3x3 grid: maximal shared rows/columns.
    "grid3x3": [Point(float(c), float(r)) for c in range(3) for r in range(3)],
    # Two clusters joined by long edges.
    "clusters": [
        Point(0, 0), Point(0.35, 0), Point(0, 0.35),
        Point(7, 7), Point(7.35, 7), Point(7, 7.35),
    ],
    # EPS-jittered near-collinear coordinates.
    "eps-jitter": [Point(0, 0), Point(1, 1e-12), Point(2, -1e-12), Point(1, 1)],
}


class TestBulkMatchesScalarOracle:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_random_floorplan(self, case):
        points = CASES[case]
        assert build_edge_conflicts_bulk(points) == build_edge_conflicts_scalar(
            points
        )

    @pytest.mark.parametrize(
        "points",
        list(ADVERSARIAL_LAYOUTS.values()),
        ids=list(ADVERSARIAL_LAYOUTS),
    )
    def test_adversarial_layouts(self, points):
        assert build_edge_conflicts_bulk(points) == build_edge_conflicts_scalar(
            points
        )

    def test_duplicate_coordinates_rejected_like_scalar(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 0), Point(1, 1)]
        with pytest.raises(ValueError):
            build_edge_conflicts_scalar(points)
        with pytest.raises(ValueError):
            build_edge_conflicts_bulk(points)

    def test_symmetry_and_no_self_conflicts(self):
        points = CASES[0]
        conflicts = build_edge_conflicts_bulk(points)
        for pair, others in conflicts.items():
            assert pair not in others
            for other in others:
                assert pair in conflicts[other]


class TestConflictingEdgePairs:
    """The lazy loop's incumbent check against the pairwise oracle."""

    @pytest.mark.parametrize("case", [0, 5, 17, 42, 99])
    def test_subset_agrees_with_edges_conflict(self, case):
        rng = random.Random(SEED + case)
        points = CASES[case]
        n = len(points)
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = sorted(rng.sample(all_edges, min(len(all_edges), n + 2)))
        got = set(
            frozenset(pair) for pair in conflicting_edge_pairs(points, edges)
        )
        want = set()
        for e1, e2 in itertools.combinations(edges, 2):
            if edges_conflict(
                (points[e1[0]], points[e1[1]]),
                (points[e2[0]], points[e2[1]]),
            ):
                want.add(frozenset((e1, e2)))
        assert got == want

    @pytest.mark.parametrize("case", [0, 5, 17, 42, 99])
    def test_either_orientation_agrees_with_edges_conflict(self, case):
        # Tour edges run in tour direction, so endpoints come unsorted.
        rng = random.Random(SEED - case)
        points = CASES[case]
        order = rng.sample(range(len(points)), len(points))
        n = len(order)
        edges = [(order[k], order[(k + 1) % n]) for k in range(n)]
        want = [
            (k1, k2)
            for k1, k2 in itertools.combinations(range(n), 2)
            if edges_conflict(
                (points[edges[k1][0]], points[edges[k1][1]]),
                (points[edges[k2][0]], points[edges[k2][1]]),
            )
        ]
        assert conflicting_edge_indices(points, edges) == want

    @pytest.mark.parametrize("case", [1, 6, 18, 43, 98])
    def test_conflicts_between_agrees_with_edges_conflict(self, case):
        rng = random.Random(SEED + 7 * case)
        points = CASES[case]
        n = len(points)
        firsts, seconds = [], []
        for _ in range(40):
            i, j, p, q = (rng.randrange(n) for _ in range(4))
            if i != j and p != q:
                firsts.append((i, j))
                seconds.append((p, q))
        got = conflicts_between(points, firsts, seconds).tolist()
        want = [
            edges_conflict(
                (points[i], points[j]), (points[p], points[q])
            )
            for (i, j), (p, q) in zip(firsts, seconds)
        ]
        assert got == want

    def test_each_pair_reported_once(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        edges = [(0, 2), (1, 3)]
        pairs = conflicting_edge_pairs(points, edges)
        assert len(pairs) == len(set(map(frozenset, pairs)))

    def test_under_two_edges(self):
        points = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert conflicting_edge_pairs(points, []) == []
        assert conflicting_edge_pairs(points, [(0, 1)]) == []


def _random_paths(rng: random.Random, count: int) -> list[RectilinearPath]:
    paths = []
    while len(paths) < count:
        a = Point(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        b = Point(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        if a.almost_equals(b):
            continue
        paths.append(rng.choice(l_routes(a, b)))
    return paths


def _scalar_proper_crossings(query, stored, ignore) -> list[Point]:
    """Per-segment loop the batched ``proper_crossings`` replaces."""
    points = []
    for s1 in query.segments:
        for path in stored:
            for s2 in path.segments:
                inter = classify_intersection(s1, s2)
                if inter.kind is IntersectionKind.CROSS and not any(
                    inter.point.almost_equals(p) for p in ignore
                ):
                    points.append(inter.point)
    return points


class TestSegmentSet:
    """Batched path-versus-set queries against their scalar loops."""

    @pytest.mark.parametrize("seed", range(30))
    def test_any_illegal_matches_paths_cross(self, seed):
        rng = random.Random(SEED + seed)
        stored = _random_paths(rng, 6)
        query = _random_paths(rng, 1)[0]
        ignore = (query.start, query.end)
        sset = SegmentSet(stored)
        want = any(paths_cross(query, p, ignore=ignore) for p in stored)
        assert sset.any_illegal(query, ignore=ignore) == want
        want_no_ignore = any(paths_cross(query, p) for p in stored)
        assert sset.any_illegal(query) == want_no_ignore

    @pytest.mark.parametrize("seed", range(30))
    def test_illegal_matrix_matches_paths_cross(self, seed):
        rng = random.Random(SEED * 3 + seed)
        stored = _random_paths(rng, rng.randint(1, 8))
        queries = _random_paths(rng, rng.randint(1, 8))
        ignore = (queries[0].start, queries[0].end)
        sset = SegmentSet(stored)
        for ign in ((), ignore):
            want = [
                [paths_cross(q, p, ignore=ign) for p in stored]
                for q in queries
            ]
            assert sset.illegal_matrix(queries, ignore=ign).tolist() == want
            assert sset.illegal_each(queries, ignore=ign) == [
                any(row) for row in want
            ]

    @pytest.mark.parametrize("seed", range(30))
    def test_proper_crossings_match_crossing_points(self, seed):
        rng = random.Random(SEED * 2 + seed)
        stored = _random_paths(rng, 6)
        query = _random_paths(rng, 1)[0]
        ignore = (query.start, query.end)
        sset = SegmentSet(stored)
        assert sset.proper_crossings(query, ignore=ignore) == (
            _scalar_proper_crossings(query, stored, ignore)
        )
        got = {(round(p.x, 9), round(p.y, 9))
               for p in sset.proper_crossings(query, ignore=ignore)}
        want = {
            (round(p.x, 9), round(p.y, 9))
            for other in stored
            for p in crossing_points(query, other, ignore=ignore)
        }
        assert got == want

    @pytest.mark.parametrize("seed", range(10))
    def test_grown_set_matches_a_fresh_one(self, seed):
        rng = random.Random(SEED * 5 + seed)
        stored = _random_paths(rng, 6)
        queries = _random_paths(rng, 4)
        grown = SegmentSet()
        for k, path in enumerate(stored):
            grown.add(path)
            fresh = SegmentSet(stored[: k + 1])
            assert (
                grown.illegal_matrix(queries).tolist()
                == fresh.illegal_matrix(queries).tolist()
            )

    def test_empty_set(self):
        sset = SegmentSet([])
        query = RectilinearPath([Point(0, 0), Point(1, 0)])
        assert not sset.any_illegal(query)
        assert sset.illegal_matrix([query, query]).shape == (2, 0)
        assert sset.illegal_each([query]) == [False]
        assert sset.proper_crossings(query) == []


def _tour_options(points, order):
    n = len(order)
    edges = [(points[order[k]], points[order[(k + 1) % n]]) for k in range(n)]
    options = [
        list(l_routes(*edge)) + _staircase_routes(*edge) for edge in edges
    ]
    return edges, options


def _shared(e1, e2):
    return [p for p in e1 if p.almost_equals(e2[0]) or p.almost_equals(e2[1])]


class TestOptionCrossings:
    """The ring realization table against pairwise ``paths_cross``."""

    @pytest.mark.parametrize("case", range(0, len(CASES), 4))
    def test_table_matches_paths_cross(self, case):
        points = CASES[case]
        order = random.Random(SEED + case).sample(range(len(points)), len(points))
        edges, options = _tour_options(points, order)
        idx1, idx2, table = option_crossings(edges, options)
        near = dict(zip(zip(idx1.tolist(), idx2.tolist()), table.tolist()))
        for k1, k2 in itertools.combinations(range(len(edges)), 2):
            shared = _shared(edges[k1], edges[k2])
            want = [
                [paths_cross(r1, r2, ignore=shared) for r2 in options[k2]]
                for r1 in options[k1]
            ]
            got = near.get((k1, k2))
            if got is None:
                # Pairs the box prefilter drops never cross.
                assert not any(map(any, want))
                continue
            assert [row[: len(options[k2])] for row in got[: len(options[k1])]] == want

    @pytest.mark.parametrize("case", [2, 9, 30])
    def test_explicit_pairs_keep_their_orientation(self, case):
        points = CASES[case]
        order = list(range(len(points)))
        edges, options = _tour_options(points, order)
        pairs = [(k1, k2) for k1 in range(len(edges)) for k2 in range(k1)]
        idx1, idx2, table = option_crossings(
            edges, options, pairs=([p[0] for p in pairs], [p[1] for p in pairs])
        )
        assert list(zip(idx1.tolist(), idx2.tolist())) == pairs
        for (k1, k2), got in zip(pairs, table.tolist()):
            shared = _shared(edges[k1], edges[k2])
            for i1, r1 in enumerate(options[k1]):
                for i2, r2 in enumerate(options[k2]):
                    assert got[i1][i2] == paths_cross(r1, r2, ignore=shared)


class TestEntryPoint:
    """``build_edge_conflicts`` is the bulk kernel at every size."""

    def test_explicit_methods_agree(self):
        points = CASES[1]
        assert build_edge_conflicts_bulk(points) == build_edge_conflicts_scalar(
            points
        )

    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_small_floorplans_use_the_kernel(self, n, monkeypatch):
        from repro.geometry import conflicts_bulk

        rng = random.Random(SEED + n)
        points = _random_floorplan(rng, n)
        calls = []
        real = conflicts_bulk.conflicting_edge_indices

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(conflicts_bulk, "conflicting_edge_indices", counting)
        assert build_edge_conflicts(points) == build_edge_conflicts_scalar(points)
        assert len(calls) == 1
