"""Scalar reference implementation of the Step-1 geometry after the MILP.

:mod:`repro.core.ring` picks tour-edge realizations from one bulk
crossing table and tests sub-cycle splices with dict lookups or bulk
kernel queries; :mod:`repro.core.heuristic_ring` tests whole tours in
one kernel call.  This module keeps the pair-by-pair versions they
replaced — every query a scalar :func:`~repro.geometry.paths_cross` or
:func:`~repro.geometry.edges_conflict` call — as the slow oracle the
fast path is differentially tested against
(``tests/test_ring_oracle.py``).  It is test-only: nothing under
``src/`` imports it.

:func:`scalar_ring` swaps these functions, the scalar conflict sweep
and a scalar cutting-plane violation check into the production modules, so
``construct_ring_tour`` and ``construct_ring_tour_heuristic`` run end
to end without touching the bulk kernel.

:func:`expression_ring_model` builds the Step-1 MILP row by row
through the ``Model`` expression layer: the reference the arrays of
``repro.core.ring._build_ring_model`` are checked against
(``tests/test_ring_model.py``).
"""

from __future__ import annotations

import contextlib
import itertools
import math

from repro.core import heuristic_ring, ring
from repro.core.ring import _cycle_edges, _staircase_routes
from repro.geometry import (
    Point,
    RectilinearPath,
    build_edge_conflicts_scalar,
    edge_realizations,
    edges_conflict,
    paths_cross,
)
from repro.milp import Model, SolveError
from repro.milp.expression import lin_sum
from repro.obs import get_obs
from repro.sat import TwoSat


def merge_two_cycles(
    c1: list[int],
    c2: list[int],
    points: list[Point],
    other_edges: list[tuple[int, int]],
    conflicts=None,
) -> tuple[list[int], float]:
    """Scalar ``_merge_two_cycles``: every conflict an ``edges_conflict``
    call (``conflicts`` is accepted and ignored)."""

    def splice_cost(a: int, b: int, c: int, d: int) -> float:
        return (
            points[a].manhattan(points[d])
            + points[c].manhattan(points[b])
            - points[a].manhattan(points[b])
            - points[c].manhattan(points[d])
        )

    def new_edges_clean(
        a: int, b: int, c: int, d: int, cycle2: list[int], strict: bool
    ) -> bool:
        e_ad = (points[a], points[d])
        e_cb = (points[c], points[b])
        if edges_conflict(e_ad, e_cb):
            return False
        if not strict:
            return True
        remaining = [
            e
            for e in _cycle_edges(c1) + _cycle_edges(cycle2) + other_edges
            if e not in ((a, b), (c, d))
        ]
        for i, j in remaining:
            other = (points[i], points[j])
            if edges_conflict(e_ad, other) or edges_conflict(e_cb, other):
                return False
        return True

    orientations = [list(c2), list(reversed(c2))]
    candidates: list[tuple[float, int, int, int, int, int]] = []
    for orient_idx, cycle2 in enumerate(orientations):
        for a, b in _cycle_edges(c1):
            for c, d in _cycle_edges(cycle2):
                candidates.append(
                    (splice_cost(a, b, c, d), a, b, c, d, orient_idx)
                )
    candidates.sort(key=lambda item: item[0])
    attempts = 0
    try:
        for strict in (True, False):
            for cost, a, b, c, d, orient_idx in candidates:
                attempts += 1
                cycle2 = orientations[orient_idx]
                if new_edges_clean(a, b, c, d, cycle2, strict):
                    ia = c1.index(a)
                    ic = cycle2.index(c)
                    rotated = cycle2[ic + 1 :] + cycle2[: ic + 1]
                    merged = c1[: ia + 1] + rotated + c1[ia + 1 :]
                    return merged, cost
        raise SolveError("no feasible splice between sub-cycles")
    finally:
        get_obs().metrics.counter("ring.merge.splice_attempts").inc(attempts)


def expression_ring_model(
    points: list[Point],
    conflicts: dict[tuple[int, int], set[tuple[int, int]]],
    cuts: list[tuple[tuple[int, int], tuple[int, int]]] = (),
) -> Model:
    """The Step-1 MILP built from expressions: constraints (1)-(2), the
    constraint-(3) rows of ``conflicts`` (each unordered pair once, in
    dict and set iteration order), then one row per ``cuts`` pair."""
    n = len(points)
    model = Model("xring-step1")
    b = {
        (i, j): model.binary_var(f"b_{i}_{j}")
        for i in range(n)
        for j in range(n)
        if i != j
    }
    for i in range(n):
        model.add_constraint(
            lin_sum(b[(i, j)] for j in range(n) if j != i) == 1,
            name=f"out_{i}",
        )
        model.add_constraint(
            lin_sum(b[(j, i)] for j in range(n) if j != i) == 1,
            name=f"in_{i}",
        )
    for i in range(n):
        for j in range(i + 1, n):
            model.add_constraint(
                b[(i, j)] + b[(j, i)] <= 1, name=f"two_cycle_{i}_{j}"
            )
    added: set[frozenset[tuple[int, int]]] = set()
    rows = []
    for pair, conflicting in conflicts.items():
        for other in conflicting:
            key = frozenset((pair, other))
            if key not in added:
                added.add(key)
                rows.append((pair, other))
    for (i, j), (p, q) in rows + list(cuts):
        model.add_constraint(
            b[(i, j)] + b[(j, i)] + b[(p, q)] + b[(q, p)] <= 1,
            name=f"conflict_{i}_{j}_{p}_{q}",
        )
    model.minimize(
        lin_sum(
            var * points[i].manhattan(points[j]) for (i, j), var in b.items()
        )
    )
    return model


def _shared_points(e1, e2) -> list[Point]:
    return [
        p
        for p in (e1[0], e1[1])
        if p.almost_equals(e2[0]) or p.almost_equals(e2[1])
    ]


def _boolean_options(opts):
    if len(opts) == 1:
        return [(True, opts[0]), (False, opts[0])]
    return [(True, opts[0]), (False, opts[1])]


def backtrack_realizations(
    edges: list[tuple[Point, Point]],
    options: list[list[RectilinearPath]],
    max_nodes: int = 200_000,
) -> list[RectilinearPath] | None:
    """Scalar ``_backtrack_realizations``: compatibility sets built one
    ``paths_cross`` call per option pair."""
    n = len(edges)
    compatible: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for k1, k2 in itertools.combinations(range(n), 2):
        shared = _shared_points(edges[k1], edges[k2])
        ok = {
            (i1, i2)
            for i1, r1 in enumerate(options[k1])
            for i2, r2 in enumerate(options[k2])
            if not paths_cross(r1, r2, ignore=shared)
        }
        if not ok:
            return None
        compatible[(k1, k2)] = ok

    def allowed_pair(k1: int, i1: int, k2: int, i2: int) -> bool:
        if k1 < k2:
            return (i1, i2) in compatible[(k1, k2)]
        return (i2, i1) in compatible[(k2, k1)]

    order_idx = sorted(range(n), key=lambda k: len(options[k]))
    chosen: dict[int, int] = {}
    nodes = 0

    def dfs(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        nodes += 1
        if nodes > max_nodes:
            return False
        k = order_idx[depth]
        for i in range(len(options[k])):
            if all(allowed_pair(k, i, kk, ii) for kk, ii in chosen.items()):
                chosen[k] = i
                if dfs(depth + 1):
                    return True
                del chosen[k]
        return False

    if not dfs(0):
        return None
    return [options[k][chosen[k]] for k in range(n)]


def choose_realizations(
    order: list[int], points: list[Point]
) -> tuple[list[RectilinearPath], int]:
    """Scalar ``_choose_realizations``: 2-SAT clauses, backtracking and
    the greedy fallback each test option pairs one ``paths_cross`` call
    at a time."""
    n = len(order)
    edges = [
        (points[order[k]], points[order[(k + 1) % n]]) for k in range(n)
    ]
    options = [list(edge_realizations(*e)) for e in edges]

    sat = TwoSat(n)
    for k, opts in enumerate(options):
        if len(opts) == 1:
            sat.force(k, True)
    for k1, k2 in itertools.combinations(range(n), 2):
        shared = _shared_points(edges[k1], edges[k2])
        for v1, r1 in _boolean_options(options[k1]):
            for v2, r2 in _boolean_options(options[k2]):
                if paths_cross(r1, r2, ignore=shared):
                    sat.forbid(k1, v1, k2, v2)
    assignment = sat.solve()
    if assignment is not None:
        paths = [
            opts[0] if len(opts) == 1 else opts[0 if assignment[k] else 1]
            for k, opts in enumerate(options)
        ]
        return paths, 0

    extended = [
        opts + _staircase_routes(*edges[k]) for k, opts in enumerate(options)
    ]
    solved = backtrack_realizations(edges, extended)
    if solved is not None:
        return solved, 0

    paths: list[RectilinearPath] = []
    total_crossings = 0
    for k, opts in enumerate(extended):
        best_path = None
        best_crossings = math.inf
        for candidate in opts:
            crossings = 0
            for prev_k, prev in enumerate(paths):
                shared = _shared_points(edges[k], edges[prev_k])
                if paths_cross(candidate, prev, ignore=shared):
                    crossings += 1
            if crossings < best_crossings:
                best_crossings = crossings
                best_path = candidate
        assert best_path is not None
        paths.append(best_path)
        total_crossings += int(best_crossings)
    return paths, total_crossings


def conflicting_tour_edges(
    order: list[int], points: list[Point]
) -> list[tuple[int, int]]:
    """Scalar ``heuristic_ring._conflicting_edge_pairs``: one
    ``edges_conflict`` call per tour-edge pair."""
    n = len(order)
    edges = [
        (points[order[k]], points[order[(k + 1) % n]]) for k in range(n)
    ]
    return [
        (k1, k2)
        for k1, k2 in itertools.combinations(range(n), 2)
        if edges_conflict(edges[k1], edges[k2])
    ]


def conflicting_edge_pairs(points, edges):
    """Scalar cutting-plane check: conflicting pairs among ``edges``."""
    return [
        (tuple(e1), tuple(e2))
        for e1, e2 in itertools.combinations(edges, 2)
        if edges_conflict((points[e1[0]], points[e1[1]]), (points[e2[0]], points[e2[1]]))
    ]


@contextlib.contextmanager
def scalar_ring():
    """Run the ring constructors on the scalar oracles above.

    Patches the conflict build, the cutting-plane loop's violation check, the
    sub-cycle merge, realization selection and the heuristic's tour
    check; callers clear the synthesis caches around it so no
    kernel-built artifact is reused.
    """
    import repro.geometry as geometry

    patches = [
        (ring, "build_edge_conflicts", build_edge_conflicts_scalar),
        (ring, "_merge_two_cycles", merge_two_cycles),
        (ring, "_choose_realizations", choose_realizations),
        (heuristic_ring, "_choose_realizations", choose_realizations),
        (heuristic_ring, "_conflicting_edge_pairs", conflicting_tour_edges),
        (geometry, "conflicting_edge_pairs", conflicting_edge_pairs),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
