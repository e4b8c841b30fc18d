"""Step 2: shortcut construction (Sec. III-B).

Nodes that are physically close but far apart along the ring get a
chord ("shortcut") connecting their senders and receivers directly.  A
shortcut between ``n_i`` and ``n_j`` is *feasible* when an L-shaped
path between the two nodes crosses no ring waveguide; its *gain* is
``min(len_cw, len_ccw) - len_shortcut``.  Shortcuts are selected
greedily by gain, subject to:

- at most one shortcut per node;
- a shortcut may cross at most one other shortcut — the crossing is
  then implemented with crossing switching elements, which additionally
  route the two "inner" node pairs (Fig. 7), provided that also pays a
  positive gain.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import (
    Point,
    RectilinearPath,
    SegmentSet,
    crossing_points,
    l_routes,
)
from repro.core.ring import RingTour
from repro.obs import get_obs


class LegDirection(enum.Enum):
    """Which of a shortcut's two waveguides a route leg uses."""

    FORWARD = "forward"  # node_a -> node_b
    BACKWARD = "backward"  # node_b -> node_a


@dataclass(frozen=True)
class ShortcutLeg:
    """One leg of a shortcut-served route, in waveguide coordinates.

    ``start_mm``/``end_mm`` are distances along the chosen waveguide of
    shortcut ``shortcut_index`` in its propagation direction.
    """

    shortcut_index: int
    direction: LegDirection
    start_mm: float
    end_mm: float


@dataclass(frozen=True)
class Shortcut:
    """A selected shortcut chord between two ring nodes.

    ``path`` runs from ``node_a``'s position to ``node_b``'s; the
    physical implementation is a pair of parallel waveguides (one per
    direction) sharing this geometry.  ``partner`` is the index of the
    one shortcut this one crosses (or ``None``), and
    ``crossing_point``/``crossing_dist_mm`` locate the CSE.
    """

    node_a: int
    node_b: int
    path: RectilinearPath
    gain_mm: float
    partner: int | None = None
    crossing_point: Point | None = None
    crossing_dist_mm: float | None = None

    @property
    def length_mm(self) -> float:
        """Physical length of the shortcut waveguides."""
        return self.path.length


@dataclass
class ShortcutPlan:
    """The selected shortcuts and every node pair they serve.

    ``served`` maps ordered pairs ``(src, dst)`` to the leg sequence
    implementing them (one leg for direct shortcut signals, two legs
    joined at a CSE for merged signals).
    """

    shortcuts: list[Shortcut] = field(default_factory=list)
    served: dict[tuple[int, int], tuple[ShortcutLeg, ...]] = field(
        default_factory=dict
    )

    @property
    def crossing_pairs(self) -> list[tuple[int, int]]:
        """Indices of shortcut pairs that cross (each listed once)."""
        pairs = []
        for idx, shortcut in enumerate(self.shortcuts):
            if shortcut.partner is not None and shortcut.partner > idx:
                pairs.append((idx, shortcut.partner))
        return pairs


def copy_plan(plan: ShortcutPlan) -> ShortcutPlan:
    """A defensively copied plan, safe to hand to callers.

    A plan shared by a batch reaches every case of its group,
    and fault-injected runs corrupt list/dict entries in place; fresh
    containers keep the shared original pristine (the
    :class:`Shortcut` and :class:`ShortcutLeg` elements themselves are
    frozen).
    """
    return ShortcutPlan(shortcuts=list(plan.shortcuts), served=dict(plan.served))


def _distance_along(path: RectilinearPath, point: Point) -> float:
    """Distance from the path start to a point lying on the path."""
    travelled = 0.0
    for seg in path.segments:
        if seg.contains_point(point):
            return travelled + seg.a.manhattan(point)
        travelled += seg.length
    raise ValueError(f"point {point} not on path {path}")


def _staircase_candidates(pa: Point, pb: Point) -> list[RectilinearPath]:
    """Monotone staircase chords (same Manhattan length as an L).

    Distant node pairs often have both plain L-shapes blocked by the
    ring, while a two-bend staircase through the ring interior is
    clear; trying a few split fractions costs nothing in length.
    """
    if abs(pa.x - pb.x) <= 1e-9 or abs(pa.y - pb.y) <= 1e-9:
        return []
    candidates = []
    for fraction in (0.5, 0.25, 0.75):
        y_mid = pa.y + (pb.y - pa.y) * fraction
        x_mid = pa.x + (pb.x - pa.x) * fraction
        candidates.append(
            RectilinearPath((pa, Point(pa.x, y_mid), Point(pb.x, y_mid), pb))
        )
        candidates.append(
            RectilinearPath((pa, Point(x_mid, pa.y), Point(x_mid, pb.y), pb))
        )
    return candidates


def _chord_is_clean(
    tour: RingTour,
    chord: RectilinearPath,
    pa: Point,
    pb: Point,
    ring_set: SegmentSet | None = None,
) -> bool:
    """True if the chord crosses the ring only within its attach zones.

    Grid snapping lets a maze chord approach the ring within half a
    routing pitch of its terminals; proper crossings there correspond
    to the physical attachment taps, anything farther out is a real
    illegal crossing.  ``ring_set`` optionally pre-batches the ring
    segments so repeat queries share one :class:`SegmentSet`; all
    segments of the chord are tested in one call.
    """
    if ring_set is None:
        ring_set = SegmentSet(tour.edge_paths)
    for point in ring_set.proper_crossings(chord, ignore=(pa, pb)):
        if point.manhattan(pa) > 0.5 and point.manhattan(pb) > 0.5:
            return False
    return True


def _feasible_realizations(
    tour: RingTour,
    node_a: int,
    node_b: int,
    ring_set: SegmentSet | None = None,
) -> list[RectilinearPath]:
    """Chord realizations (L or staircase) crossing no ring waveguide.

    Every candidate is tested against the ring in one kernel call.
    """
    pa = tour.points[node_a]
    pb = tour.points[node_b]
    if ring_set is None:
        ring_set = SegmentSet(tour.edge_paths)
    candidates = list(l_routes(pa, pb)) + _staircase_candidates(pa, pb)
    illegal = ring_set.illegal_each(candidates, ignore=(pa, pb))
    return [path for path, bad in zip(candidates, illegal) if not bad]


class _ChordMaze:
    """Grid A* that finds chords avoiding the ring curve.

    The ring is a simple closed rectilinear curve, so the region it
    encloses is connected and *some* crossing-free chord always exists
    between two ring nodes (Jordan curve theorem) — it just may need
    more bends than an L or a staircase.  The maze router finds a
    near-shortest one; its real routed length (not the Manhattan
    distance) then feeds the gain function.

    Grid vertex ``(ix, iy)`` has the flat id ``ix * ny + iy`` (so heap
    ties break exactly as on the coordinate tuple), and the undirected
    grid edge leaving vertex ``v`` towards +x / +y has the key
    ``2 * v`` / ``2 * v + 1``.  Blocked edges are a ``bytearray`` over
    those keys.
    """

    _PITCH = 0.2

    def __init__(self, tour: RingTour) -> None:
        self.tour = tour
        points = [p for path in tour.edge_paths for p in path.points]
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        margin = 0.6
        self.x0 = min(xs) - margin
        self.y0 = min(ys) - margin
        self.nx = int(round((max(xs) - min(xs) + 2 * margin) / self._PITCH)) + 1
        self.ny = int(round((max(ys) - min(ys) + 2 * margin) / self._PITCH)) + 1
        # Vertex coordinate tables: every comparison against a vertex
        # position reads these same floats.
        self._xc = [self.x0 + i * self._PITCH for i in range(self.nx)]
        self._yc = [self.y0 + j * self._PITCH for j in range(self.ny)]
        self._blocked = bytearray(2 * self.nx * self.ny)
        self.block(self._blocked, tour.edge_paths)

    def _snap(self, p: Point) -> tuple[int, int]:
        ix = min(max(int(round((p.x - self.x0) / self._PITCH)), 0), self.nx - 1)
        iy = min(max(int(round((p.y - self.y0) / self._PITCH)), 0), self.ny - 1)
        return (ix, iy)

    def ring_obstacles(self) -> bytearray:
        """A fresh copy of the ring's blocked-edge table."""
        return bytearray(self._blocked)

    def block(self, table: bytearray, paths) -> None:
        """Mark in ``table`` every grid edge that ``paths`` touch."""
        for key in self.blocked_by_paths(paths):
            table[key] = 1

    def blocked_by_paths(self, paths) -> set[int]:
        """Keys of the grid edges intersecting any segment of ``paths``.

        A grid edge is blocked on *any* non-disjoint interaction with a
        path segment — exactly the illegality predicate of the bulk
        geometry kernel with no ignored points, so the window of grid
        edges around each segment is classified in one vectorized call
        instead of a Python loop per cell.
        """
        from repro.geometry.conflicts_bulk import _segments_illegal

        pitch = self._PITCH
        gx_parts: list[np.ndarray] = []
        gy_parts: list[np.ndarray] = []
        dx_parts: list[np.ndarray] = []
        dy_parts: list[np.ndarray] = []
        s2_parts: list[np.ndarray] = []
        for path in paths:
            for seg in path.segments:
                lo_ix = max(int((min(seg.a.x, seg.b.x) - self.x0) / pitch) - 1, 0)
                hi_ix = min(int((max(seg.a.x, seg.b.x) - self.x0) / pitch) + 2, self.nx - 1)
                lo_iy = max(int((min(seg.a.y, seg.b.y) - self.y0) / pitch) - 1, 0)
                hi_iy = min(int((max(seg.a.y, seg.b.y) - self.y0) / pitch) + 2, self.ny - 1)
                ixs = np.arange(lo_ix, hi_ix + 1)
                iys = np.arange(lo_iy, hi_iy + 1)
                s2 = np.array(
                    [seg.a.x, seg.a.y, seg.b.x, seg.b.y], dtype=np.float64
                )
                for dx, dy in ((1, 0), (0, 1)):
                    exs = ixs[ixs + dx <= self.nx - 1]
                    eys = iys[iys + dy <= self.ny - 1]
                    if exs.size == 0 or eys.size == 0:
                        continue
                    gx = np.repeat(exs, eys.size)
                    gy = np.tile(eys, exs.size)
                    gx_parts.append(gx)
                    gy_parts.append(gy)
                    dx_parts.append(np.full(gx.shape[0], dx, dtype=np.int64))
                    dy_parts.append(np.full(gx.shape[0], dy, dtype=np.int64))
                    s2_parts.append(np.broadcast_to(s2, (gx.shape[0], 4)))
        if not gx_parts:
            return set()
        gx = np.concatenate(gx_parts)
        gy = np.concatenate(gy_parts)
        dxs = np.concatenate(dx_parts)
        dys = np.concatenate(dy_parts)
        # Vertex coordinates via the same arithmetic as the coordinate
        # tables, so comparisons are bit-identical.
        s1 = np.empty((gx.shape[0], 4), dtype=np.float64)
        s1[:, 0] = self.x0 + gx * pitch
        s1[:, 1] = self.y0 + gy * pitch
        s1[:, 2] = self.x0 + (gx + dxs) * pitch
        s1[:, 3] = self.y0 + (gy + dys) * pitch
        hit = _segments_illegal(s1, np.concatenate(s2_parts, axis=0), ())
        keys = (gx * self.ny + gy) * 2 + dys
        return set(keys[hit].tolist())

    def _near_terminals(self, *terminals: Point) -> set[int]:
        """Flat ids of the vertices within 0.45 mm (Manhattan) of a
        terminal; edges touching them ignore the obstacles."""
        xc, yc, ny = self._xc, self._yc, self.ny
        reach = int(0.45 / self._PITCH) + 2
        near: set[int] = set()
        for p in terminals:
            cx, cy = self._snap(p)
            for ix in range(max(cx - reach, 0), min(cx + reach + 1, self.nx)):
                dx = abs(xc[ix] - p.x)
                for iy in range(max(cy - reach, 0), min(cy + reach + 1, ny)):
                    if dx + abs(yc[iy] - p.y) <= 0.45:
                        near.add(ix * ny + iy)
        return near

    def chord(
        self,
        pa: Point,
        pb: Point,
        blocked: bytearray | None = None,
        max_cost: float = float("inf"),
    ) -> RectilinearPath | None:
        """A near-shortest crossing-free chord from ``pa`` to ``pb``.

        Grid edges within 0.45 mm of an endpoint are unblocked so the
        chord can leave/enter the node where it sits on the ring.
        ``blocked`` replaces the ring-only obstacle table, e.g. with one
        that also holds already-selected shortcuts the new chord must
        not cross (see :meth:`ring_obstacles` and :meth:`block`).  The
        search gives up — returning
        ``None`` — once the cheapest open grid path would cost more
        than ``max_cost``.
        """
        if blocked is None:
            blocked = self._blocked
        (sx, sy), (gx, gy) = self._snap(pa), self._snap(pb)
        if (sx, sy) == (gx, gy):
            return None
        nx, ny, pitch = self.nx, self.ny, self._PITCH
        xc, yc = self._xc, self._yc
        start, goal = sx * ny + sy, gx * ny + gy
        near = self._near_terminals(pa, pb)
        # Manhattan heuristic, one table per axis: h(v) = hx[ix] + hy[iy].
        hx = [abs(x - xc[gx]) for x in xc]
        hy = [abs(y - yc[gy]) for y in yc]
        inf = float("inf")
        best = [inf] * (nx * ny)
        parent = [-1] * (nx * ny)
        best[start] = 0.0
        heap = [(hx[sx] + hy[sy], start)]
        top = (nx - 1) * ny
        while heap:
            f, v = heapq.heappop(heap)
            if v == goal:
                break
            if f > max_cost:
                return None
            vx, vy = divmod(v, ny)
            cost = best[v] + pitch
            v_near = v in near
            base = 2 * v
            # Neighbor order (+x, -x, +y, -y) and edge keys as in the
            # class docstring.
            if v < top and not (
                blocked[base] and not (v_near or v + ny in near)
            ):
                w = v + ny
                if cost < best[w]:
                    best[w] = cost
                    parent[w] = v
                    heapq.heappush(heap, (cost + hx[vx + 1] + hy[vy], w))
            if v >= ny and not (
                blocked[base - 2 * ny] and not (v_near or v - ny in near)
            ):
                w = v - ny
                if cost < best[w]:
                    best[w] = cost
                    parent[w] = v
                    heapq.heappush(heap, (cost + hx[vx - 1] + hy[vy], w))
            if vy < ny - 1 and not (
                blocked[base + 1] and not (v_near or v + 1 in near)
            ):
                w = v + 1
                if cost < best[w]:
                    best[w] = cost
                    parent[w] = v
                    heapq.heappush(heap, (cost + hx[vx] + hy[vy + 1], w))
            if vy > 0 and not (
                blocked[base - 1] and not (v_near or v - 1 in near)
            ):
                w = v - 1
                if cost < best[w]:
                    best[w] = cost
                    parent[w] = v
                    heapq.heappush(heap, (cost + hx[vx] + hy[vy - 1], w))
        else:
            return None
        vertices = [goal]
        while vertices[-1] != start:
            vertices.append(parent[vertices[-1]])
        vertices.reverse()
        corners = [Point(xc[v // ny], yc[v % ny]) for v in vertices]
        points = [pa, Point(pa.x, corners[0].y), *corners]
        points += [Point(pb.x, corners[-1].y), pb]
        return _simplify(points)


def _simplify(points: list[Point]) -> RectilinearPath:
    """Drop redundant collinear vertices and build the path."""
    cleaned: list[Point] = []
    for p in points:
        if cleaned and cleaned[-1].almost_equals(p):
            continue
        while len(cleaned) >= 2:
            a, b = cleaned[-2], cleaned[-1]
            same_col = abs(a.x - b.x) <= 1e-9 and abs(b.x - p.x) <= 1e-9
            same_row = abs(a.y - b.y) <= 1e-9 and abs(b.y - p.y) <= 1e-9
            if same_col or same_row:
                cleaned.pop()
            else:
                break
        cleaned.append(p)
    return RectilinearPath(cleaned)


def _ring_gain(tour: RingTour, node_a: int, node_b: int, chord_mm: float) -> float:
    """Gain of serving (a, b) on the chord instead of the ring."""
    best_ring = min(
        tour.cw_distance(node_a, node_b), tour.ccw_distance(node_a, node_b)
    )
    return best_ring - chord_mm


#: Slack of the capped maze search over the ring arc, in grid pitches.
#: The routed chord is the grid path plus a stub at each end (from the
#: node to its snapped vertex: at most half a pitch per axis), then
#: simplified.  Simplification only drops collinear vertices, and the
#: grid path of a shortest search never reverses, so the one length it
#: can remove is a stub overshoot: at most ``2 * pitch/2`` per end, of
#: which the stub itself paid back ``pitch/2``.  Hence
#: ``chord >= grid - pitch``, and a grid path costing more than
#: ``best_ring + pitch`` yields a chord with negative gain — which
#: selection rejects anyway.  One more pitch absorbs float rounding.
_CAP_PITCHES = 2


def select_shortcuts(
    tour: RingTour,
    *,
    enabled: bool = True,
    max_shortcuts: int | None = None,
    loss=None,
    demands: tuple[tuple[int, int], ...] | None = None,
    deadline=None,
) -> ShortcutPlan:
    """Greedy gain-driven shortcut selection with CSE merging.

    ``enabled=False`` returns an empty plan (used by the shortcut
    ablation study and by the ring baselines, which have no shortcuts).
    ``loss`` (a :class:`~repro.photonics.parameters.LossParameters`)
    makes the merge decisions loss-aware, per the paper's "only
    introduce shortcuts when they benefit the network performance":
    a CSE-merged inner pair costs one extra drop, so it is only served
    when its propagation savings exceed the drop loss, and a crossing
    between shortcuts is only accepted when the merged pairs' benefit
    outweighs the crossing loss imposed on the direct signals.
    The greedy pass takes pairs in the paper's order: largest gain
    ``min(cw, ccw) - shortcut length`` first.  ``demands`` restricts
    candidates and served pairs to actual communication demands
    (``None`` means all-to-all, the paper's traffic).  ``deadline`` (a
    :class:`~repro.robustness.deadline.Deadline`) is polled once per
    candidate, so a budget can interrupt the stage midway.

    The greedy pass is lazy.  No rectilinear chord is shorter than the
    Manhattan distance, so ``min(cw, ccw) - manhattan`` bounds a pair's
    gain from above; pairs sit in a heap keyed by that bound and are
    routed only when they reach the top, then pushed back with their
    exact gain.  A pair popped with its exact gain therefore outranks
    every pair still in the heap, which is the order a full sort of the
    routed candidates would give, so the plan is the same as routing
    every pair first.
    """
    plan = ShortcutPlan()
    if not enabled:
        return plan

    n = tour.size
    points = tour.points
    demand_set = set(demands) if demands is not None else None
    ring_set = SegmentSet(tour.edge_paths)
    maze: _ChordMaze | None = None

    def best_ring(node_a: int, node_b: int) -> float:
        return min(tour.cw_distance(node_a, node_b), tour.ccw_distance(node_a, node_b))

    def route(node_a: int, node_b: int) -> list[RectilinearPath] | None:
        """The pair's chord realizations (L, staircase, else maze)."""
        nonlocal maze
        realizations = _feasible_realizations(tour, node_a, node_b, ring_set)
        if realizations:
            return realizations
        # No straight chord exists; a maze-routed one always does (the
        # ring interior is connected) — try it when the pair stands to
        # gain substantially.
        ring = best_ring(node_a, node_b)
        if ring - points[node_a].manhattan(points[node_b]) < 0.25 * ring:
            return None
        if maze is None:
            maze = _ChordMaze(tour)
        chord = maze.chord(
            points[node_a],
            points[node_b],
            max_cost=ring + _CAP_PITCHES * maze._PITCH,
        )
        if chord is None or not _chord_is_clean(
            tour, chord, points[node_a], points[node_b], ring_set
        ):
            return None
        return [chord]

    # Heap entries: (-gain or -bound, a, b, realizations), where
    # realizations is None until the pair is routed.  The (a, b)
    # tie-break matches a stable sort over pairs in index order.
    # The bound carries 1e-9 of slack so float rounding in a realized
    # length can never push the exact gain above it.
    heap = []
    for node_a in range(n):
        for node_b in range(node_a + 1, n):
            if demand_set is not None and not (
                (node_a, node_b) in demand_set or (node_b, node_a) in demand_set
            ):
                continue
            ring = best_ring(node_a, node_b)
            bound = ring - points[node_a].manhattan(points[node_b]) + 1e-9
            if bound <= 1e-9:
                continue
            heap.append((-bound, node_a, node_b, None))
    heapq.heapify(heap)

    gain_evaluations = 0
    candidates = 0
    used_nodes: set[int] = set()
    # The selected shortcuts' geometry, grown as shortcuts are accepted.
    shortcut_set = SegmentSet()
    # Retry obstacles: the ring plus every selected shortcut, grown by
    # the paths accepted since the last retry.
    retry_blocked: bytearray | None = None
    unblocked: list[RectilinearPath] = []
    while heap:
        if deadline is not None:
            deadline.check("shortcuts")
        if max_shortcuts is not None and len(plan.shortcuts) >= max_shortcuts:
            break
        neg_value, node_a, node_b, realizations = heapq.heappop(heap)
        if node_a in used_nodes or node_b in used_nodes:
            continue
        if realizations is None:
            realizations = route(node_a, node_b)
            if realizations is None:
                continue
            gain_evaluations += 1
            gain = _ring_gain(tour, node_a, node_b, realizations[0].length)
            if gain > 1e-9:
                candidates += 1
                heapq.heappush(heap, (-gain, node_a, node_b, realizations))
            continue
        gain = -neg_value
        chosen = _choose_realization(plan, realizations, shortcut_set)
        if chosen is None:
            # Every stored realization tangles with selected shortcuts;
            # try a fresh maze chord that treats them as obstacles.
            if maze is None:
                maze = _ChordMaze(tour)
            if retry_blocked is None:
                retry_blocked = maze.ring_obstacles()
            maze.block(retry_blocked, unblocked)
            unblocked.clear()
            retry = maze.chord(
                points[node_a],
                points[node_b],
                blocked=retry_blocked,
                max_cost=best_ring(node_a, node_b) + _CAP_PITCHES * maze._PITCH,
            )
            if retry is None or _ring_gain(tour, node_a, node_b, retry.length) <= 1e-9:
                continue
            if not _chord_is_clean(tour, retry, points[node_a], points[node_b], ring_set):
                continue
            if shortcut_set.any_illegal(retry):
                continue
            gain = _ring_gain(tour, node_a, node_b, retry.length)
            chosen = (retry, None)
        path, partner = chosen
        if partner is not None and loss is not None:
            if not _crossing_is_worth_it(
                tour, plan.shortcuts[partner], node_a, node_b, path, loss
            ):
                # Try a crossing-free realization instead, else skip.
                clean = [
                    r
                    for r, bad in zip(
                        realizations, shortcut_set.illegal_each(realizations)
                    )
                    if not bad
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
        shortcut_set.add(path)
        unblocked.append(path)
        used_nodes.update((node_a, node_b))

    metrics = get_obs().metrics
    metrics.counter("shortcuts.gain_evaluations").inc(gain_evaluations)
    metrics.counter("shortcuts.candidates").inc(candidates)
    _register_served_pairs(plan, tour, loss, demand_set)
    metrics.counter("shortcuts.selected").inc(len(plan.shortcuts))
    metrics.counter("shortcuts.served_pairs").inc(len(plan.served))
    return plan


def _cse_benefit_db(tour: RingTour, src: int, dst: int, route_mm: float, loss) -> float:
    """dB benefit of serving (src, dst) through a CSE-merged route.

    The merged route saves propagation over the best ring arc but
    costs one extra MRR drop at the CSE.
    """
    best_ring = min(tour.cw_distance(src, dst), tour.ccw_distance(src, dst))
    saved_mm = best_ring - route_mm
    saved_db = (
        loss.propagation(saved_mm) if saved_mm >= 0 else -loss.propagation(-saved_mm)
    )
    return saved_db - loss.drop_db


def _crossing_is_worth_it(
    tour: RingTour,
    other: Shortcut,
    node_a: int,
    node_b: int,
    path: RectilinearPath,
    loss,
) -> bool:
    """Decide whether crossing ``other`` pays off in dB terms.

    Costs: the four direct signals (both directions of both shortcuts)
    each traverse one new crossing.  Gains: the merged inner pairs that
    would clear the per-pair benefit bar.
    """
    points = crossing_points(path, other.path)
    if not points:
        return False
    d_new = _distance_along(path, points[0])
    d_other = _distance_along(other.path, points[0])
    len_new, len_other = path.length, other.path.length
    candidate_routes = [
        (node_a, other.node_b, d_new + (len_other - d_other)),
        (other.node_b, node_a, d_new + (len_other - d_other)),
        (other.node_a, node_b, d_other + (len_new - d_new)),
        (node_b, other.node_a, d_other + (len_new - d_new)),
    ]
    gain = sum(
        max(0.0, _cse_benefit_db(tour, src, dst, route_mm, loss))
        for src, dst, route_mm in candidate_routes
    )
    cost = 4 * loss.crossing_db
    return gain > cost


def _choose_realization(
    plan: ShortcutPlan,
    realizations: list[RectilinearPath],
    shortcut_set: SegmentSet,
) -> tuple[RectilinearPath, int | None] | None:
    """Pick a realization crossing at most one partner-free shortcut.

    Prefers a crossing-free realization; otherwise one crossing exactly
    one already-selected shortcut that has no partner yet.  Returns
    ``None`` when every realization violates the crossing budget.
    ``shortcut_set`` holds the paths of ``plan.shortcuts`` in order;
    every realization is tested against it in one kernel call.
    """
    best: tuple[RectilinearPath, int | None] | None = None
    matrix = shortcut_set.illegal_matrix(realizations)
    for candidate, row in zip(realizations, matrix):
        crossed = np.flatnonzero(row).tolist()
        if not crossed:
            return candidate, None
        if len(crossed) == 1 and plan.shortcuts[crossed[0]].partner is None:
            proper = crossing_points(candidate, plan.shortcuts[crossed[0]].path)
            if proper and best is None:
                best = (candidate, crossed[0])
    return best


def _register_served_pairs(
    plan: ShortcutPlan, tour: RingTour, loss=None, demand_set=None
) -> None:
    """Record every demanded node pair the plan serves, with leg geometry."""

    def demanded(src: int, dst: int) -> bool:
        return demand_set is None or (src, dst) in demand_set

    for idx, shortcut in enumerate(plan.shortcuts):
        a, b = shortcut.node_a, shortcut.node_b
        length = shortcut.length_mm
        if demanded(a, b):
            plan.served[(a, b)] = (
                ShortcutLeg(idx, LegDirection.FORWARD, 0.0, length),
            )
        if demanded(b, a):
            plan.served[(b, a)] = (
                ShortcutLeg(idx, LegDirection.BACKWARD, 0.0, length),
            )

    for idx1, idx2 in plan.crossing_pairs:
        s1 = plan.shortcuts[idx1]
        s2 = plan.shortcuts[idx2]
        assert s1.crossing_dist_mm is not None
        assert s2.crossing_dist_mm is not None
        d1, d2 = s1.crossing_dist_mm, s2.crossing_dist_mm
        len1, len2 = s1.length_mm, s2.length_mm
        # Merged "inner" pairs (Fig. 7): (s1.a, s2.b) and (s2.a, s1.b),
        # each in both directions, provided the CSE route still beats
        # the ring.
        merged = [
            # src, dst, first (shortcut, dir, start, end), second leg
            (
                s1.node_a,
                s2.node_b,
                ShortcutLeg(idx1, LegDirection.FORWARD, 0.0, d1),
                ShortcutLeg(idx2, LegDirection.FORWARD, d2, len2),
            ),
            (
                s2.node_b,
                s1.node_a,
                ShortcutLeg(idx2, LegDirection.BACKWARD, 0.0, len2 - d2),
                ShortcutLeg(idx1, LegDirection.BACKWARD, len1 - d1, len1),
            ),
            (
                s2.node_a,
                s1.node_b,
                ShortcutLeg(idx2, LegDirection.FORWARD, 0.0, d2),
                ShortcutLeg(idx1, LegDirection.FORWARD, d1, len1),
            ),
            (
                s1.node_b,
                s2.node_a,
                ShortcutLeg(idx1, LegDirection.BACKWARD, 0.0, len1 - d1),
                ShortcutLeg(idx2, LegDirection.BACKWARD, len2 - d2, len2),
            ),
        ]
        for src, dst, leg1, leg2 in merged:
            if not demanded(src, dst):
                continue
            route_mm = (leg1.end_mm - leg1.start_mm) + (leg2.end_mm - leg2.start_mm)
            if loss is not None:
                if _cse_benefit_db(tour, src, dst, route_mm, loss) > 1e-9:
                    plan.served[(src, dst)] = (leg1, leg2)
            elif _ring_gain(tour, src, dst, route_mm) > 1e-9:
                plan.served[(src, dst)] = (leg1, leg2)
