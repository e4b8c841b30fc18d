"""Step 1: ring waveguide construction (Sec. III-A).

The nodes must be connected by a single closed rectilinear curve of
minimum total Manhattan length whose segments do not cross.  The paper
models this as a *modified travelling salesman* MILP:

- binary ``b_e`` per directed edge ``e``;
- constraint (1): in-degree = out-degree = 1 per vertex;
- constraint (2): no 2-cycles (``b_ij + b_ji <= 1``);
- constraint (3): conflicting edge pairs (no pairing of their L-shaped
  realizations is crossing-free) cannot both be selected;
- objective (4): minimize total Manhattan length.

Sub-tour elimination is deliberately left out (it would need O(2^N)
constraints); the possibly-disconnected optimum is repaired by a
cheapest conflict-free 2-exchange merge of sub-cycles (Fig. 6(f)).

After the tour is fixed, each selected edge still has two candidate
L-realizations; picking one per edge so that the drawn ring is
completely crossing-free is solved exactly as a 2-SAT instance.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import (
    Point,
    RectilinearPath,
    build_edge_conflicts,
    conflicts_between,
    edge_realizations,
    option_crossings,
)
from repro.milp import MatrixModel, SolveError, SolveStatus
from repro.obs import get_obs
from repro.robustness.deadline import Deadline
from repro.robustness.errors import InputError, StageFailure, StageTimeout
from repro.sat import TwoSat


@dataclass(frozen=True)
class RingTour:
    """A synthesized ring: cyclic node order plus realized edge paths.

    ``order[k]`` is the node index visited at step ``k``; edge ``k``
    connects ``order[k]`` to ``order[(k+1) % N]`` and is drawn as
    ``edge_paths[k]``.  ``node_position_mm[i]`` is the distance from
    ``order[0]`` to node ``i`` travelling in tour (clockwise)
    direction; ``length_mm`` is the full perimeter.
    """

    order: tuple[int, ...]
    edge_paths: tuple[RectilinearPath, ...]
    points: tuple[Point, ...]
    length_mm: float
    node_position_mm: dict[int, float] = field(default_factory=dict)
    crossing_count: int = 0
    #: True when the MILP hit its time budget and this tour was built
    #: from the best incumbent rather than a proven optimum.
    timed_out: bool = False

    @property
    def size(self) -> int:
        """Number of nodes on the ring."""
        return len(self.order)

    def successor(self, node: int) -> int:
        """The node following ``node`` in tour direction."""
        k = self.order.index(node)
        return self.order[(k + 1) % self.size]

    def cw_distance(self, src: int, dst: int) -> float:
        """Arc length from ``src`` to ``dst`` in tour (CW) direction."""
        delta = self.node_position_mm[dst] - self.node_position_mm[src]
        return delta % self.length_mm if src != dst else 0.0

    def ccw_distance(self, src: int, dst: int) -> float:
        """Arc length from ``src`` to ``dst`` against tour direction."""
        if src == dst:
            return 0.0
        return self.length_mm - self.cw_distance(src, dst)

    def nodes_strictly_between(self, src: int, dst: int) -> list[int]:
        """Nodes strictly inside the CW arc from ``src`` to ``dst``."""
        if src == dst:
            return []
        result = []
        k = self.order.index(src)
        while True:
            k = (k + 1) % self.size
            node = self.order[k]
            if node == dst:
                return result
            result.append(node)

    def position_of_point(self, point: Point) -> float | None:
        """CW distance from ``order[0]`` to a point lying on the ring.

        Returns ``None`` when the point is not on any edge path.  Used
        to translate geometric PDN crossing points into ring positions.
        """
        travelled = 0.0
        for path in self.edge_paths:
            for seg in path.segments:
                if seg.contains_point(point):
                    return travelled + seg.a.manhattan(point)
                travelled += seg.length
        return None


#: Node count at or above which ``lazy=None`` (auto) enables lazy
#: conflict-constraint generation.  Below it eager is kept for design
#: stability, not speed: lazy is faster from about 16 nodes on (about
#: 12 ms against 150 ms at 20 nodes on a 2-vCPU host), but on some
#: floorplans the two modes return the same cycle in opposite
#: directions, and the direction changes the design.  Settling that
#: (one canonical direction, then one ring mode) comes first.
LAZY_THRESHOLD = 24

#: Hard bound on cutting-plane rounds.  Termination is guaranteed
#: anyway — every round must add at least one never-before-added
#: conflict cut, of which there are finitely many — but a small cap
#: keeps worst-case latency predictable; if it is ever hit the
#: incumbent is used and any residual crossings are reported honestly
#: in ``RingTour.crossing_count``.
LAZY_MAX_ROUNDS = 50


def _extract_cycles(selected: set[tuple[int, int]], n: int) -> list[list[int]]:
    """Decompose selected directed edges into vertex cycles."""
    succ = {}
    for i, j in selected:
        if i in succ:
            raise SolveError(f"vertex {i} has two outgoing edges")
        succ[i] = j
    if len(succ) != n:
        raise SolveError("selected edges do not cover every vertex")
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        node = succ[start]
        while node != start:
            cycle.append(node)
            seen.add(node)
            node = succ[node]
        cycles.append(cycle)
    return cycles


def _cycle_edges(cycle: list[int]) -> list[tuple[int, int]]:
    return [
        (cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))
    ]


def _undirected(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _merge_two_cycles(
    c1: list[int],
    c2: list[int],
    points: list[Point],
    other_edges: list[tuple[int, int]],
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] | None = None,
) -> tuple[list[int], float]:
    """Merge two cycles by the cheapest feasible 2-exchange.

    Removing ``(a, b)`` from ``c1`` and ``(c, d)`` from ``c2`` and
    adding ``(a, d)`` and ``(c, b)`` splices ``c2`` into ``c1``.  Both
    orientations of ``c2`` are tried — cycle direction is a logical
    choice, not a geometric one, and the cheapest splice frequently
    needs the reversed orientation.  A splice is *feasible* when the
    two new edges neither conflict with each other nor with any edge
    that remains selected.  Falls back to the cheapest splice ignoring
    third-party conflicts when no fully clean splice exists (the 2-SAT
    stage then reports residual crossings honestly).

    Conflicts are read from ``conflicts`` (the undirected pair dict of
    :func:`~repro.geometry.build_edge_conflicts`) when one is at hand,
    else tested with one bulk-kernel query per splice candidate.
    """

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
        remaining = (
            [
                e
                for e in _cycle_edges(c1) + _cycle_edges(cycle2) + other_edges
                if e not in ((a, b), (c, d))
            ]
            if strict
            else []
        )
        if conflicts is not None:
            near_ad = conflicts[_undirected(a, d)]
            near_cb = conflicts[_undirected(c, b)]
            return _undirected(c, b) not in near_ad and not any(
                _undirected(i, j) in near_ad or _undirected(i, j) in near_cb
                for i, j in remaining
            )
        firsts = [(a, d)] * (1 + len(remaining)) + [(c, b)] * len(remaining)
        seconds = [(c, b)] + remaining + remaining
        return not conflicts_between(points, firsts, seconds).any()

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
                    # Splice: ... a -> d ... c -> b ...
                    ia = c1.index(a)
                    ic = cycle2.index(c)
                    rotated = cycle2[ic + 1 :] + cycle2[: ic + 1]  # d ... c
                    merged = c1[: ia + 1] + rotated + c1[ia + 1 :]
                    return merged, cost
        raise SolveError("no feasible splice between sub-cycles")
    finally:
        get_obs().metrics.counter("ring.merge.splice_attempts").inc(attempts)


def _staircase_routes(a: Point, b: Point) -> list[RectilinearPath]:
    """Two-bend monotone staircase routes between two points.

    A staircase detour keeps the Manhattan length of the connection but
    frees the middle of the span, which resolves realization conflicts
    that the two plain L-shapes cannot (the MILP's pairwise constraints
    do not guarantee *global* single-bend realizability).  Returns the
    VHV and HVH mid-split variants, or nothing for axis-aligned pairs.
    """
    if abs(a.x - b.x) <= 1e-9 or abs(a.y - b.y) <= 1e-9:
        return []
    y_mid = (a.y + b.y) / 2.0
    x_mid = (a.x + b.x) / 2.0
    vhv = RectilinearPath((a, Point(a.x, y_mid), Point(b.x, y_mid), b))
    hvh = RectilinearPath((a, Point(x_mid, a.y), Point(x_mid, b.y), b))
    return [vhv, hvh]


def _backtrack_realizations(
    options: list[list[RectilinearPath]],
    crossing: dict[tuple[int, int], set[tuple[int, int]]],
    max_nodes: int = 200_000,
) -> list[RectilinearPath] | None:
    """Exhaustive crossing-free realization search with forward checking.

    ``options[k]`` are the candidate paths of edge ``k``;
    ``crossing[(k1, k2)]`` (``k1 < k2``) holds the option index pairs
    ``(i1, i2)`` that cross, and pairs absent from it never cross.
    Returns one globally crossing-free choice per edge, or ``None``
    when none exists within the node budget.
    """
    n = len(options)
    for (k1, k2), crossed in crossing.items():
        if len(crossed) == len(options[k1]) * len(options[k2]):
            return None

    def allowed_pair(k1: int, i1: int, k2: int, i2: int) -> bool:
        if k1 < k2:
            return (i1, i2) not in crossing.get((k1, k2), ())
        return (i2, i1) not in crossing.get((k2, k1), ())

    # Most-constrained-first static order.
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


def _choose_realizations(
    order: list[int], points: list[Point]
) -> tuple[list[RectilinearPath], int]:
    """Pick one realization per tour edge, crossing-free if possible.

    Three tiers:

    1. exact 2-SAT over the two L-shaped options per edge;
    2. if unsatisfiable, exhaustive backtracking over an extended
       option set that adds two-bend staircase detours (same Manhattan
       length, different occupied track);
    3. as a last resort, a greedy crossing-minimizing assignment whose
       residual crossings are reported in ``RingTour.crossing_count``.

    All tiers read one crossing table over every option pair of every
    nearby tour-edge pair (:func:`~repro.geometry.option_crossings`),
    built in a single bulk-kernel call.
    """
    n = len(order)
    edges = [
        (points[order[k]], points[order[(k + 1) % n]]) for k in range(n)
    ]
    l_options = [list(edge_realizations(*e)) for e in edges]
    options = [
        opts + _staircase_routes(*edges[k]) for k, opts in enumerate(l_options)
    ]
    idx1, idx2, table = option_crossings(edges, options)

    # 2-SAT: True picks option 0 (vertical-first), False option 1; a
    # straight edge exposes its single path under both values and is
    # pinned to True so clauses reference a consistent value.  Clauses
    # go in (k1, k2, v1, v2) order, True before False.
    sat = TwoSat(n)
    for k, opts in enumerate(l_options):
        if len(opts) == 1:
            sat.force(k, True)
    false_slot = np.array([len(opts) - 1 for opts in l_options])
    slots = np.stack([np.zeros(n, dtype=np.intp), false_slot], axis=1)
    rows = np.arange(idx1.shape[0])[:, None, None]
    boolean = table[rows, slots[idx1][:, :, None], slots[idx2][:, None, :]]
    for m, i1, i2 in zip(*(axis.tolist() for axis in np.nonzero(boolean))):
        sat.forbid(int(idx1[m]), i1 == 0, int(idx2[m]), i2 == 0)
    assignment = sat.solve()
    if assignment is not None:
        paths = [
            opts[0] if len(opts) == 1 else opts[0 if assignment[k] else 1]
            for k, opts in enumerate(l_options)
        ]
        return paths, 0

    crossing: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for m, i1, i2 in zip(*(axis.tolist() for axis in np.nonzero(table))):
        crossing.setdefault((int(idx1[m]), int(idx2[m])), set()).add((i1, i2))
    solved = _backtrack_realizations(options, crossing)
    if solved is not None:
        return solved, 0

    # Greedy fallback: minimize crossings edge by edge, each candidate
    # tested against the already-placed earlier edges.
    _, _, later_first = option_crossings(edges, options, pairs=(idx2, idx1))
    earlier: dict[int, list[tuple[int, int]]] = {}
    for m, (k, prev_k) in enumerate(zip(idx2.tolist(), idx1.tolist())):
        earlier.setdefault(k, []).append((prev_k, m))
    crossed = later_first.tolist()
    chosen: list[int] = []
    total_crossings = 0
    for k, opts in enumerate(options):
        best_index = 0
        best_crossings = math.inf
        for i in range(len(opts)):
            crossings = sum(
                crossed[m][i][chosen[prev_k]]
                for prev_k, m in earlier.get(k, ())
            )
            if crossings < best_crossings:
                best_crossings = crossings
                best_index = i
        chosen.append(best_index)
        total_crossings += int(best_crossings)
    return [options[k][i] for k, i in enumerate(chosen)], total_crossings


def validate_ring_points(points: list[Point]) -> None:
    """Reject inputs no ring construction can handle (typed).

    Shared by both constructors, so bad input always surfaces as
    :class:`~repro.robustness.errors.InputError` rather than a
    geometry-layer ``ValueError``.
    """
    n = len(points)
    if n < 3:
        raise InputError("a ring router needs at least 3 nodes", stage="ring")
    for a, b in itertools.combinations(range(n), 2):
        if points[a].almost_equals(points[b]):
            raise InputError(
                f"nodes {a} and {b} share a position", stage="ring"
            )


def _raise_for_ring_solution(solution, n: int) -> None:
    """Translate a failed MILP solution into the typed stage errors."""
    if solution.status is SolveStatus.TIMEOUT and not solution.values:
        raise StageTimeout(
            f"ring MILP hit its time budget before finding any tour "
            f"({solution.message})",
            stage="ring",
            context={"nodes": n},
        )
    if solution.status is SolveStatus.INFEASIBLE:
        raise StageFailure(
            "ring MILP is infeasible (no crossing-free tour exists "
            "for these positions)",
            stage="ring",
            cause="infeasible",
            context={"nodes": n},
        )
    if not solution.has_solution:
        raise SolveError(
            f"ring MILP failed: {solution.status.value} {solution.message}",
            stage="ring",
        )


def _solve_ring(
    model: MatrixModel,
    points: list[Point],
    time_limit: float | None,
    deadline: Deadline | None,
):
    """Cutting-plane solve: add violated conflict rows to a fixed point.

    ``model`` carries constraints (1)-(2), objective (4) and whichever
    constraint-(3) rows the caller seeded: none in lazy mode, every row
    in eager mode.  Each round solves, detects conflicting pairs among
    the incumbent's selected edges with one bulk-kernel query (an
    incumbent has only n edges, so that is O(n²) pair tests instead of
    the full O(E²) sweep), and adds exactly those rows (named
    identically to the eager model's, smaller pair first), until an
    incumbent is conflict-free — at which point it is feasible for the
    full model and therefore shares its optimal objective value.  A
    fully seeded model is conflict-free after its first solve.

    A timeout with an incumbent stops cutting and returns it flagged
    ``timed_out``; a timeout before any incumbent raises
    ``StageTimeout`` — unless an earlier round produced one, which is
    then returned (its residual violations surface in
    ``crossing_count``, the honest degradation).

    Returns ``(solution, selected, timed_out, rounds, cuts_added)``.
    """
    from repro.geometry import conflicting_edge_pairs

    n = len(points)
    edges = _ring_edges(n)
    start = time.perf_counter()
    added: set[frozenset[tuple[int, int]]] = set()
    rounds = 0
    last: tuple | None = None
    while True:
        rounds += 1
        remaining = None
        if time_limit is not None:
            remaining = max(time_limit - (time.perf_counter() - start), 1e-3)
        solution = model.solve(time_limit=remaining, deadline=deadline)
        if (
            solution.status is SolveStatus.TIMEOUT
            and not solution.values
            and last is not None
        ):
            solution, selected = last
            return solution, selected, True, rounds, len(added)
        _raise_for_ring_solution(solution, n)
        selected = {
            edge
            for edge, value in zip(edges, solution.values)
            if round(value) == 1
        }
        if solution.status is SolveStatus.TIMEOUT:
            return solution, selected, True, rounds, len(added)
        undirected = sorted(
            {(i, j) if i < j else (j, i) for i, j in selected}
        )
        violated = conflicting_edge_pairs(points, undirected)
        fresh = [
            pair for pair in violated if frozenset(pair) not in added
        ]
        if not fresh or rounds >= LAZY_MAX_ROUNDS:
            return solution, selected, False, rounds, len(added)
        added.update(frozenset(pair) for pair in fresh)
        model.add_rows(*_conflict_rows(n, fresh))
        last = (solution, selected)


def construct_ring_tour(
    points: list[Point],
    time_limit: float | None = None,
    deadline: Deadline | None = None,
    lazy: bool | None = None,
) -> RingTour:
    """Synthesize the minimum-length crossing-free ring tour.

    The MILP honours ``time_limit`` (seconds) and ``deadline``; when the
    budget runs out mid-solve the best integer incumbent is used and
    the returned tour carries ``timed_out=True``.  Raises
    :class:`~repro.robustness.errors.StageTimeout` when time expires
    before any incumbent exists, and
    :class:`~repro.robustness.errors.StageFailure` when the relaxed
    model is infeasible (e.g. duplicate node positions making every
    drawing illegal).

    ``lazy`` selects conflict-constraint handling; both modes run the
    cutting-plane loop of :func:`_solve_ring`.  ``False`` (eager)
    builds the O(E²) conflict dict and seeds the model with every
    constraint-(3) row; ``True`` starts from no conflict rows and adds
    only violated ones, skipping the dict entirely; ``None`` (the
    default) goes lazy at :data:`LAZY_THRESHOLD` nodes and above.  Both
    modes reach the same objective value; lazy round/cut counts land in
    the ``ring.lazy.rounds`` / ``ring.lazy.cuts_added`` metrics.
    """
    n = len(points)
    validate_ring_points(points)

    obs = get_obs()
    if lazy is None:
        lazy = n >= LAZY_THRESHOLD
    with obs.tracer.span(
        "ring.build_model", nodes=n, mode="lazy" if lazy else "eager"
    ) as build_span:
        conflicts = None
        if not lazy:
            with obs.tracer.span("conflicts.build"):
                conflicts = build_edge_conflicts(points)
        model = _build_ring_model(points, conflicts or {})
        build_span.set_attribute("constraints", model.num_constraints)

    _, selected, timed_out, rounds, cuts_added = _solve_ring(
        model, points, time_limit, deadline
    )
    if lazy:
        obs.metrics.counter("ring.lazy.rounds").inc(rounds)
        obs.metrics.counter("ring.lazy.cuts_added").inc(cuts_added)
    obs.metrics.counter("ring.conflict_constraints").inc(
        model.num_constraints - _base_rows(n)
    )
    with obs.tracer.span("ring.merge_cycles") as merge_span:
        cycles = _extract_cycles(selected, n)
        merge_span.set_attribute("sub_cycles", len(cycles))

        # Heuristic sub-cycle merging (Fig. 6(f)): repeatedly splice the
        # cheapest-to-merge pair of cycles until one tour remains.
        while len(cycles) > 1:
            best: tuple[float, int, int, list[int]] | None = None
            for idx1, idx2 in itertools.combinations(range(len(cycles)), 2):
                others = [
                    e
                    for k, cycle in enumerate(cycles)
                    if k not in (idx1, idx2)
                    for e in _cycle_edges(cycle)
                ]
                try:
                    merged, cost = _merge_two_cycles(
                        cycles[idx1], cycles[idx2], points, others, conflicts
                    )
                except SolveError:
                    continue
                if best is None or cost < best[0]:
                    best = (cost, idx1, idx2, merged)
            if best is None:
                raise SolveError("could not merge sub-cycles into one tour")
            _, idx1, idx2, merged = best
            obs.metrics.counter("ring.merge.cycle_merges").inc()
            cycles = [
                cycle for k, cycle in enumerate(cycles) if k not in (idx1, idx2)
            ]
            cycles.append(merged)

    order = cycles[0]
    with obs.tracer.span("ring.realizations"):
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
        timed_out=timed_out,
    )
    return tour


def _ring_edges(n: int) -> list[tuple[int, int]]:
    """The directed edges ``(i, j)``, ``i != j``, in model column order."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _base_rows(n: int) -> int:
    """Rows of constraints (1)-(2): two degree rows per vertex, one
    2-cycle row per node pair."""
    return 2 * n + n * (n - 1) // 2


def _column(n: int, i, j):
    """Model column of directed edge ``(i, j)`` (scalars or arrays)."""
    return i * (n - 1) + j - (j > i)


def _conflict_rows(
    n: int, pairs: list[tuple[tuple[int, int], tuple[int, int]]]
) -> tuple:
    """``MatrixModel.add_rows`` arguments for constraint-(3) rows.

    Row ``k`` is ``b_ij + b_ji + b_pq + b_qp <= 1`` for
    ``pairs[k] = ((i, j), (p, q))``, named ``conflict_i_j_p_q``.
    """
    ends = np.array(pairs, dtype=np.intp).reshape(len(pairs), 4)
    i, j, p, q = ends.T
    cols = np.stack(
        [
            _column(n, i, j),
            _column(n, j, i),
            _column(n, p, q),
            _column(n, q, p),
        ],
        axis=1,
    ).ravel()
    rows = np.repeat(np.arange(len(pairs)), 4)
    names = [f"conflict_{i}_{j}_{p}_{q}" for (i, j), (p, q) in pairs]
    return (
        rows,
        cols,
        np.ones(cols.shape[0]),
        np.full(len(pairs), -np.inf),
        np.ones(len(pairs)),
        names,
    )


def _build_ring_model(
    points: list[Point],
    conflicts: dict[tuple[int, int], set[tuple[int, int]]],
) -> MatrixModel:
    """Assemble the Step-1 MILP (constraints (1)-(3), objective (4)).

    Written straight into arrays: column ``_column(n, i, j)`` is the
    binary ``b_i_j`` of directed edge ``(i, j)`` (row-major, diagonal
    skipped), and the rows come in the order ``out_i``/``in_i`` per
    vertex, ``two_cycle_i_j`` per pair, then the conflict rows in
    ``conflicts`` iteration order (each unordered pair once).
    """
    n = len(points)
    names = _ring_edges(n)
    src, dst = np.array(names, dtype=np.intp).reshape(-1, 2).T
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    m = src.shape[0]
    model = MatrixModel(
        "xring-step1",
        # (4) minimize total Manhattan length.
        c=np.abs(xs[src] - xs[dst]) + np.abs(ys[src] - ys[dst]),
        lb=np.zeros(m),
        ub=np.ones(m),
        integrality=np.ones(m, dtype=np.uint8),
        var_names=[f"b_{i}_{j}" for i, j in names],
    )

    # (1) every vertex has exactly one incoming and one outgoing edge:
    # row 2i sums b_i_j (columns i(n-1) .. i(n-1)+n-2), row 2i+1 sums
    # b_j_i, over j != i ascending.
    degree_cols = np.stack(
        [np.arange(m), _column(n, dst, src)], axis=1
    ).reshape(n, n - 1, 2)
    # (2) no 2-cycles: b_ij + b_ji <= 1 per pair i < j.
    upper_i, upper_j = np.triu_indices(n, k=1)
    cycle_cols = np.stack(
        [_column(n, upper_i, upper_j), _column(n, upper_j, upper_i)], axis=1
    )
    pairs = upper_i.shape[0]
    model.add_rows(
        np.concatenate(
            [
                np.repeat(np.arange(2 * n), n - 1),
                np.repeat(np.arange(2 * n, 2 * n + pairs), 2),
            ]
        ),
        np.concatenate(
            [degree_cols.transpose(0, 2, 1).ravel(), cycle_cols.ravel()]
        ),
        np.ones(2 * m + 2 * pairs),
        np.concatenate([np.ones(2 * n), np.full(pairs, -np.inf)]),
        np.ones(2 * n + pairs),
        [name for i in range(n) for name in (f"out_{i}", f"in_{i}")]
        + [
            f"two_cycle_{i}_{j}"
            for i, j in zip(upper_i.tolist(), upper_j.tolist())
        ],
    )

    # (3) conflicting pairs cannot both be selected (in any direction).
    added: set[frozenset[tuple[int, int]]] = set()
    conflict_pairs = []
    for pair, conflicting in conflicts.items():
        for other in conflicting:
            key = frozenset((pair, other))
            if key not in added:
                added.add(key)
                conflict_pairs.append((pair, other))
    if conflict_pairs:
        model.add_rows(*_conflict_rows(n, conflict_pairs))
    return model
