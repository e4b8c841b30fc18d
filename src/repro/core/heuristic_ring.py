"""Heuristic ring construction for large networks (scaling extension).

The paper's MILP (Sec. III-A) is exact but its conflict constraints
grow quadratically in the number of candidate edges; beyond the
evaluated 32 nodes the build+solve time dominates.  This module
provides the classic TSP heuristic stack as a drop-in alternative:

1. nearest-neighbour construction over Manhattan distances;
2. 2-opt improvement (segment reversal) until no move helps;
3. conflict repair: while any selected pair of edges is geometrically
   conflicting (no crossing-free realization pairing), apply the
   2-opt move that removes the conflict at minimum length increase;
4. the same 2-SAT/backtracking realization selection as the exact flow.

The result is a :class:`~repro.core.ring.RingTour`, so everything
downstream (shortcuts, mapping, PDN, analysis) is unchanged.  An
ablation benchmark compares it against the MILP on the paper's sizes.
"""

from __future__ import annotations

import itertools

from repro.core.ring import (
    RingTour,
    _choose_realizations,
    validate_ring_points,
)
from repro.geometry import Point, conflicting_edge_indices
from repro.milp import SolveError
from repro.obs import get_obs


def _tour_length(order: list[int], points: list[Point]) -> float:
    return sum(
        points[order[k]].manhattan(points[order[(k + 1) % len(order)]])
        for k in range(len(order))
    )


def _nearest_neighbour(points: list[Point]) -> list[int]:
    """Greedy construction starting from node 0."""
    n = len(points)
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        last = points[order[-1]]
        nearest = min(unvisited, key=lambda i: last.manhattan(points[i]))
        order.append(nearest)
        unvisited.remove(nearest)
    return order


def _two_opt(order: list[int], points: list[Point], max_rounds: int = 20) -> list[int]:
    """First-improvement 2-opt until a local optimum (or round cap)."""
    n = len(order)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # same edge pair
                a, b = order[i], order[i + 1]
                c, d = order[j], order[(j + 1) % n]
                delta = (
                    points[a].manhattan(points[c])
                    + points[b].manhattan(points[d])
                    - points[a].manhattan(points[b])
                    - points[c].manhattan(points[d])
                )
                if delta < -1e-9:
                    order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                    improved = True
        if not improved:
            break
    return order


def _conflicting_edge_pairs(
    order: list[int],
    points: list[Point],
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] | None = None,
) -> list[tuple[int, int]]:
    """Indices (k1, k2) of tour edges that are geometrically conflicting.

    With a precomputed ``conflicts`` dict (undirected ``(i, j)``,
    ``i < j`` — see :func:`repro.geometry.build_edge_conflicts`) this
    is pure dict lookups; otherwise one bulk-kernel query
    (:func:`~repro.geometry.conflicting_edge_indices`) tests the tour.
    Either way pairs come in ``itertools.combinations`` order.
    """
    n = len(order)
    if conflicts is not None:
        pairs = [
            tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n)
        ]
        return [
            (k1, k2)
            for k1, k2 in itertools.combinations(range(n), 2)
            if pairs[k2] in conflicts.get(pairs[k1], ())
        ]
    return conflicting_edge_indices(
        points, [(order[k], order[(k + 1) % n]) for k in range(n)]
    )


def _repair_conflicts(
    order: list[int],
    points: list[Point],
    max_repairs: int = 200,
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] | None = None,
) -> list[int]:
    """Remove conflicting edge pairs with targeted 2-opt reversals.

    Reversing the stretch between the two edges of a conflicting pair
    replaces exactly those two edges; among the candidate reversals the
    cheapest one that strictly reduces the number of conflicts is
    taken.  Gives up (raises) if the count stops decreasing.
    """
    n = len(order)
    repairs = get_obs().metrics.counter("ring.heuristic.conflict_repairs")
    for _ in range(max_repairs):
        conflicting = _conflicting_edge_pairs(order, points, conflicts)
        if not conflicting:
            return order
        repairs.inc()
        best: tuple[float, list[int]] | None = None
        for k1, k2 in conflicting:
            i, j = min(k1, k2), max(k1, k2)
            if i == 0 and j == n - 1:
                continue
            candidate = order[: i + 1] + order[i + 1 : j + 1][::-1] + order[j + 1 :]
            if len(
                _conflicting_edge_pairs(candidate, points, conflicts)
            ) < len(conflicting):
                cost = _tour_length(candidate, points)
                if best is None or cost < best[0]:
                    best = (cost, candidate)
        if best is None:
            raise SolveError("conflict repair stalled")
        order = best[1]
    raise SolveError("conflict repair exceeded the move budget")


def construct_ring_tour_heuristic(
    points: list[Point],
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] | None = None,
) -> RingTour:
    """Nearest-neighbour + 2-opt + conflict-repair ring construction.

    Same output type and invariants as the exact
    :func:`~repro.core.ring.construct_ring_tour`; tours are typically
    within a few percent of the MILP optimum and build in milliseconds
    even at hundreds of nodes.

    ``conflicts`` optionally reuses an already-built conflict-pair dict
    (e.g. from the MILP attempt this call is degrading from) — the
    repair loop then works by dict lookup.  When omitted, each tour
    is tested with one bulk-kernel query over its own n edges instead
    of building the full O(E²) dict, which is the point of the
    heuristic at large N.
    """
    n = len(points)
    validate_ring_points(points)

    obs = get_obs()
    with obs.tracer.span("ring.heuristic", nodes=n):
        order = _nearest_neighbour(points)
        order = _two_opt(order, points)
        order = _repair_conflicts(order, points, conflicts=conflicts)
        paths, crossing_count = _choose_realizations(order, points)

    node_position: dict[int, float] = {}
    travelled = 0.0
    for k, node in enumerate(order):
        node_position[node] = travelled
        travelled += paths[k].length
    tour = RingTour(
        order=tuple(order),
        edge_paths=tuple(paths),
        points=tuple(points),
        length_mm=travelled,
        node_position_mm=node_position,
        crossing_count=crossing_count,
    )
    return tour
