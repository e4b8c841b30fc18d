"""Crossing predicates between rectilinear waveguide paths.

These predicates implement the conflict notion of Sec. III-A: two
candidate ring edges are *conflicting* when none of the four pairings of
their L-shaped realizations can be drawn without an illegal interaction
(a proper crossing, a T-junction, or a collinear overlap); they are
*conflict-free* when at least one pairing is clean (Fig. 6(c)/(d)).

Interactions located exactly at a declared shared terminal (e.g. the
common node of two adjacent tour edges) are ignored, since the
waveguides legitimately meet there.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.geometry.conflicts_bulk import build_edge_conflicts_bulk
from repro.geometry.path import RectilinearPath, l_routes
from repro.geometry.point import EPS, Point
from repro.geometry.segment import Intersection, IntersectionKind, classify_intersection


def _ignored(p: Point, ignore: Sequence[Point]) -> bool:
    return any(p.almost_equals(q) for q in ignore)


def _illegal_interactions(
    p1: RectilinearPath,
    p2: RectilinearPath,
    ignore: Sequence[Point],
) -> list[Intersection]:
    """Collect every illegal interaction between two paths.

    Proper crossings always count.  Touches count unless located at an
    ignored point.  Overlaps always count (two distinct waveguides can
    never share a stretch of the plane).
    """
    hits: list[Intersection] = []
    for s1 in p1.segments:
        for s2 in p2.segments:
            inter = classify_intersection(s1, s2)
            if inter.kind is IntersectionKind.DISJOINT:
                continue
            if inter.kind is IntersectionKind.OVERLAP:
                hits.append(inter)
            elif inter.kind is IntersectionKind.CROSS:
                if inter.point is not None and not _ignored(inter.point, ignore):
                    hits.append(inter)
            else:  # TOUCH
                if inter.point is not None and not _ignored(inter.point, ignore):
                    hits.append(inter)
    return hits


def paths_cross(
    p1: RectilinearPath,
    p2: RectilinearPath,
    ignore: Sequence[Point] = (),
) -> bool:
    """True if the two paths have any illegal interaction.

    ``ignore`` lists points (typically shared terminals) where the paths
    may legitimately meet.
    """
    return bool(_illegal_interactions(p1, p2, ignore))


def crossing_points(
    p1: RectilinearPath,
    p2: RectilinearPath,
    ignore: Sequence[Point] = (),
) -> list[Point]:
    """Return the proper crossing points between two paths.

    Only ``CROSS`` interactions contribute; touches and overlaps are
    design-rule violations rather than countable crossings and are
    excluded here (use :func:`paths_cross` to detect them).
    Duplicate points (same crossing found via different segment pairs)
    are merged.
    """
    points: list[Point] = []
    for s1 in p1.segments:
        for s2 in p2.segments:
            inter = classify_intersection(s1, s2)
            if inter.kind is IntersectionKind.CROSS and inter.point is not None:
                if _ignored(inter.point, ignore):
                    continue
                if not any(inter.point.almost_equals(q) for q in points):
                    points.append(inter.point)
    return points


def count_crossings(
    p1: RectilinearPath,
    p2: RectilinearPath,
    ignore: Sequence[Point] = (),
) -> int:
    """Number of proper crossings between two paths."""
    return len(crossing_points(p1, p2, ignore))


def edge_realizations(a: Point, b: Point) -> tuple[RectilinearPath, ...]:
    """The candidate physical realizations of edge ``(a, b)``.

    Thin wrapper over :func:`repro.geometry.path.l_routes`, named for
    readability at the MILP layer.
    """
    return l_routes(a, b)


def _shared_terminals(e1: tuple[Point, Point], e2: tuple[Point, Point]) -> list[Point]:
    shared = []
    for p in e1:
        if any(p.almost_equals(q) for q in e2):
            shared.append(p)
    return shared


def edges_conflict(e1: tuple[Point, Point], e2: tuple[Point, Point]) -> bool:
    """True if two node-pair edges are *conflicting* (Sec. III-A).

    The edges conflict when every pairing of their L-shaped realizations
    has an illegal interaction.  Interactions at shared terminals are
    permitted (adjacent tour edges meet at their common node).  Edges
    that share both terminals (the two directions of the same node pair)
    are never reported as geometrically conflicting — the MILP handles
    that case with the dedicated 2-cycle constraint (2).

    This scalar predicate is the oracle the bulk kernel of
    :mod:`repro.geometry.conflicts_bulk` is tested against; synthesis
    itself queries the kernel.
    """
    shared = _shared_terminals(e1, e2)
    if len(shared) >= 2:
        return False
    for r1 in edge_realizations(*e1):
        for r2 in edge_realizations(*e2):
            if not paths_cross(r1, r2, ignore=shared):
                return False
    return True


def build_edge_conflicts_scalar(
    points: Sequence[Point],
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Scalar O(E²) conflict sweep — the reference oracle.

    Pairwise :func:`edges_conflict` over all C(n,2) node-pair edges.
    Kept as the ground truth :func:`build_edge_conflicts` is
    differentially tested against.
    """
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] = {
        pair: set() for pair in pairs
    }
    for idx, pair_a in enumerate(pairs):
        ea = (points[pair_a[0]], points[pair_a[1]])
        for pair_b in pairs[idx + 1 :]:
            eb = (points[pair_b[0]], points[pair_b[1]])
            if edges_conflict(ea, eb):
                conflicts[pair_a].add(pair_b)
                conflicts[pair_b].add(pair_a)
    return conflicts


def build_edge_conflicts(
    points: Sequence[Point],
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Geometric conflicts between all undirected node pairs.

    Keys and members are undirected pairs ``(i, j)`` with ``i < j``;
    conflicts are direction-independent because both directions of a
    pair share the same geometry.  This is the O(E²) structure behind
    the MILP's constraint (3) and the dominant model-build cost, so
    callers build it once per floorplan and thread it through retries.

    Evaluated at every size by the vectorized kernel of
    :mod:`repro.geometry.conflicts_bulk` (3.2 ms against 35 ms for the
    scalar sweep at 8 nodes); :func:`build_edge_conflicts_scalar` is
    the oracle it is tested against.
    """
    return build_edge_conflicts_bulk(points)


def conflict_free_realizations(
    e1: tuple[Point, Point],
    e2: tuple[Point, Point],
) -> list[tuple[RectilinearPath, RectilinearPath]]:
    """All clean realization pairings for two edges.

    Used by the 2-SAT realization-selection step and by the sub-cycle
    merge heuristic.
    """
    shared = _shared_terminals(e1, e2)
    pairs = []
    for r1 in edge_realizations(*e1):
        for r2 in edge_realizations(*e2):
            if not paths_cross(r1, r2, ignore=shared):
                pairs.append((r1, r2))
    return pairs
