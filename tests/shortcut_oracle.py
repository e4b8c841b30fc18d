"""Eager reference implementation of Step-2 shortcut selection.

:func:`repro.core.shortcuts.select_shortcuts` is a lazy greedy loop: it
routes a node pair only when the pair's admissible gain bound reaches
the top of a heap, and its maze router is a capped, flat-index A*.
This module keeps the straightforward version it replaced — route every
demanded pair, sort the candidates, then take them greedily, with the
original dict-based grid A* — as the slow oracle the fast path is
differentially tested against (``tests/test_shortcut_oracle.py``).  It
is test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
import weakref

from repro.core.shortcuts import (
    Shortcut,
    ShortcutPlan,
    _ChordMaze,
    _crossing_is_worth_it,
    _distance_along,
    _register_served_pairs,
    _ring_gain,
    _simplify,
    _staircase_candidates,
)
from repro.core.ring import RingTour
from repro.geometry import Point, crossing_points, l_routes, paths_cross


def _chord_is_clean(tour: RingTour, chord, pa: Point, pb: Point) -> bool:
    """Scalar ``_chord_is_clean``: proper crossings ring edge by edge."""
    for path in tour.edge_paths:
        for point in crossing_points(chord, path, ignore=(pa, pb)):
            if point.manhattan(pa) > 0.5 and point.manhattan(pb) > 0.5:
                return False
    return True


def _feasible_realizations(tour: RingTour, node_a: int, node_b: int) -> list:
    """Scalar ``_feasible_realizations``: one candidate and ring edge
    at a time."""
    pa = tour.points[node_a]
    pb = tour.points[node_b]
    return [
        candidate
        for candidate in list(l_routes(pa, pb)) + _staircase_candidates(pa, pb)
        if not any(
            paths_cross(candidate, path, ignore=(pa, pb))
            for path in tour.edge_paths
        )
    ]


def _choose_realization(plan: ShortcutPlan, realizations: list):
    """Scalar ``_choose_realization``: one selected shortcut at a time."""
    best = None
    for candidate in realizations:
        crossed = [
            idx
            for idx, other in enumerate(plan.shortcuts)
            if paths_cross(candidate, other.path)
        ]
        if not crossed:
            return candidate, None
        if len(crossed) == 1 and plan.shortcuts[crossed[0]].partner is None:
            proper = crossing_points(candidate, plan.shortcuts[crossed[0]].path)
            if proper and best is None:
                best = (candidate, crossed[0])
    return best


#: Each maze's ring obstacles as a set of edge keys, the form the
#: dict-based router looks them up in.
_RING_KEYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def eager_chord(
    maze: _ChordMaze,
    pa: Point,
    pb: Point,
    extra_blocked: set[int] | None = None,
):
    """The uncapped dict-based grid A* over ``maze``'s grid.

    ``extra_blocked`` holds integer edge keys (as returned by
    :meth:`_ChordMaze.blocked_by_paths`) added to the ring obstacles.
    """
    blocked_keys = _RING_KEYS.get(maze)
    if blocked_keys is None:
        blocked_keys = {k for k, flag in enumerate(maze._blocked) if flag}
        _RING_KEYS[maze] = blocked_keys
    if extra_blocked:
        blocked_keys = blocked_keys | extra_blocked
    start, goal = maze._snap(pa), maze._snap(pb)
    if start == goal:
        return None

    xc, yc, nx, ny, pitch = maze._xc, maze._yc, maze.nx, maze.ny, maze._PITCH
    near_memo: dict[tuple[int, int], bool] = {}

    def near_terminal(v: tuple[int, int]) -> bool:
        cached = near_memo.get(v)
        if cached is None:
            x, y = xc[v[0]], yc[v[1]]
            cached = (
                abs(x - pa.x) + abs(y - pa.y) <= 0.45
                or abs(x - pb.x) + abs(y - pb.y) <= 0.45
            )
            near_memo[v] = cached
        return cached

    best = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    gpx, gpy = xc[goal[0]], yc[goal[1]]
    heap = [(abs(xc[start[0]] - gpx) + abs(yc[start[1]] - gpy), start)]
    inf = float("inf")
    found = False
    while heap:
        _, v = heapq.heappop(heap)
        if v == goal:
            found = True
            break
        vx, vy = v
        base = (vx * ny + vy) * 2
        for w, key in (
            ((vx + 1, vy), base),
            ((vx - 1, vy), base - 2 * ny),
            ((vx, vy + 1), base + 1),
            ((vx, vy - 1), base - 1),
        ):
            if not (0 <= w[0] < nx and 0 <= w[1] < ny):
                continue
            if key in blocked_keys and not (near_terminal(v) or near_terminal(w)):
                continue
            cost = best[v] + pitch
            if cost < best.get(w, inf):
                best[w] = cost
                parent[w] = v
                heapq.heappush(
                    heap,
                    (cost + abs(xc[w[0]] - gpx) + abs(yc[w[1]] - gpy), w),
                )
    if not found:
        return None
    vertices = [goal]
    v = goal
    while v in parent:
        v = parent[v]
        vertices.append(v)
    vertices.reverse()
    corners = [Point(xc[ix], yc[iy]) for ix, iy in vertices]
    points = [pa, Point(pa.x, corners[0].y), *corners]
    points += [Point(pb.x, corners[-1].y), pb]
    return _simplify(points)


def route_all_pairs(tour: RingTour, pairs=None) -> list:
    """Every pair's ``(gain, a, b, realizations)`` with a positive gain,
    in pair order — the eager loop's first pass over all-to-all demands.

    A pair's realizations depend on the tour alone, so one call can be
    shared by every demand subset on the tour.
    ``pairs`` (``(a, b)`` with ``a < b``) restricts the pass to the
    pairs a demand subset can use.
    """
    n = tour.size
    if pairs is None:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    maze: _ChordMaze | None = None
    candidates = []
    for node_a, node_b in sorted(pairs):
        realizations = _feasible_realizations(tour, node_a, node_b)
        if not realizations:
            best_ring = min(
                tour.cw_distance(node_a, node_b),
                tour.ccw_distance(node_a, node_b),
            )
            manhattan = tour.points[node_a].manhattan(tour.points[node_b])
            if best_ring - manhattan < 0.25 * best_ring:
                continue
            if maze is None:
                maze = _ChordMaze(tour)
            chord = eager_chord(maze, tour.points[node_a], tour.points[node_b])
            if chord is None or not _chord_is_clean(
                tour, chord, tour.points[node_a], tour.points[node_b]
            ):
                continue
            realizations = [chord]
        gain = _ring_gain(tour, node_a, node_b, realizations[0].length)
        if gain > 1e-9:
            candidates.append((gain, node_a, node_b, realizations))
    return candidates


def select_shortcuts_eager(
    tour: RingTour,
    *,
    max_shortcuts: int | None = None,
    loss=None,
    demands: tuple[tuple[int, int], ...] | None = None,
    routes: list | None = None,
) -> ShortcutPlan:
    """Route every demanded pair, sort by gain, then select greedily.

    ``routes`` is :func:`route_all_pairs` of ``tour``, when the caller
    already has it.
    """
    plan = ShortcutPlan()
    demand_set = set(demands) if demands is not None else None
    if routes is None:
        routes = route_all_pairs(tour)
    candidates = [
        item
        for item in routes
        if demand_set is None
        or (item[1], item[2]) in demand_set
        or (item[2], item[1]) in demand_set
    ]
    maze: _ChordMaze | None = None
    candidates.sort(key=lambda item: (-item[0], item[1], item[2]))

    used_nodes: set[int] = set()
    for gain, node_a, node_b, realizations in candidates:
        if max_shortcuts is not None and len(plan.shortcuts) >= max_shortcuts:
            break
        if node_a in used_nodes or node_b in used_nodes:
            continue
        chosen = _choose_realization(plan, realizations)
        if chosen is None:
            if maze is None:
                maze = _ChordMaze(tour)
            extra = maze.blocked_by_paths([s.path for s in plan.shortcuts])
            retry = eager_chord(
                maze, tour.points[node_a], tour.points[node_b], extra_blocked=extra
            )
            if retry is None or _ring_gain(tour, node_a, node_b, retry.length) <= 1e-9:
                continue
            if not _chord_is_clean(
                tour, retry, tour.points[node_a], tour.points[node_b]
            ):
                continue
            if any(paths_cross(retry, s.path) for s in plan.shortcuts):
                continue
            gain = _ring_gain(tour, node_a, node_b, retry.length)
            chosen = (retry, None)
        path, partner = chosen
        if partner is not None and loss is not None:
            if not _crossing_is_worth_it(
                tour, plan.shortcuts[partner], node_a, node_b, path, loss
            ):
                clean = [
                    r
                    for r in realizations
                    if not any(paths_cross(r, other.path) for other in plan.shortcuts)
                ]
                if not clean:
                    continue
                path, partner = clean[0], None
        index = len(plan.shortcuts)
        shortcut = Shortcut(node_a, node_b, path, gain)
        if partner is not None:
            other = plan.shortcuts[partner]
            point = crossing_points(path, other.path)[0]
            shortcut = Shortcut(
                node_a,
                node_b,
                path,
                gain,
                partner=partner,
                crossing_point=point,
                crossing_dist_mm=_distance_along(path, point),
            )
            plan.shortcuts[partner] = Shortcut(
                other.node_a,
                other.node_b,
                other.path,
                other.gain_mm,
                partner=index,
                crossing_point=point,
                crossing_dist_mm=_distance_along(other.path, point),
            )
        plan.shortcuts.append(shortcut)
        used_nodes.update((node_a, node_b))

    _register_served_pairs(plan, tour, loss, demand_set)
    return plan
