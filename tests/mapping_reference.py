"""Reference Step-3 mapper: one set of tour edges per (ring, wavelength).

This is the set-based first-fit mapper that
:class:`repro.core.mapping._Mapper` replaced with per-edge wavelength
bitmasks.  It keeps the straightforward formulation — walk the tour to
collect an arc's edges and passed nodes, test each wavelength slot with
a set ``isdisjoint`` — so the differential tests in
``tests/test_mapping_reference.py`` can pin the production mapper to it
assignment by assignment.  It is a test oracle, not a fallback.
"""

from __future__ import annotations

from repro.core.mapping import (
    Direction,
    RingAssignment,
    RingWaveguide,
    SignalMapping,
    _shortcut_wavelengths,
)
from repro.core.ring import RingTour
from repro.core.shortcuts import ShortcutPlan
from repro.obs import get_obs


def _arc_edges(tour: RingTour, src: int, dst: int, direction: Direction) -> frozenset[int]:
    """Tour-edge indices covered by the directed arc, in CW indexing."""
    order = tour.order
    n = len(order)
    index = {node: k for k, node in enumerate(order)}
    if direction is Direction.CW:
        start, stop = index[src], index[dst]
    else:
        start, stop = index[dst], index[src]
    edges = set()
    k = start
    while k != stop:
        edges.add(k)
        k = (k + 1) % n
    return frozenset(edges)


def _passed_nodes(tour: RingTour, src: int, dst: int, direction: Direction) -> frozenset[int]:
    """Nodes whose receivers the directed arc traverses."""
    if direction is Direction.CW:
        return frozenset(tour.nodes_strictly_between(src, dst))
    return frozenset(tour.nodes_strictly_between(dst, src))


class ReferenceMapper:
    """Mutable state of the mapping/opening algorithm."""

    def __init__(self, tour: RingTour, wl_budget: int) -> None:
        self.tour = tour
        self.wl_budget = wl_budget
        self.rings: list[RingWaveguide] = []
        self.assignments: dict[tuple[int, int], RingAssignment] = {}
        #: Occupied tour-edge indices per ``(rid, wavelength)`` slot.
        self._occupied: dict[tuple[int, int], set[int]] = {}

    def _conflicts(self, rid: int, wavelength: int, edges: frozenset[int]) -> bool:
        occupied = self._occupied.get((rid, wavelength))
        return occupied is not None and not occupied.isdisjoint(edges)

    def _fits(
        self, ring: RingWaveguide, assignment_edges: frozenset[int],
        passed: frozenset[int],
    ) -> int | None:
        """First feasible wavelength on ``ring``, or None."""
        if ring.opening_node is not None and ring.opening_node in passed:
            return None
        for wavelength in range(self.wl_budget):
            if not self._conflicts(ring.rid, wavelength, assignment_edges):
                return wavelength
        return None

    def _new_ring(self, direction: Direction) -> RingWaveguide:
        ring = RingWaveguide(rid=len(self.rings), direction=direction)
        self.rings.append(ring)
        return ring

    def place(self, src: int, dst: int, direction: Direction) -> RingAssignment:
        edges = _arc_edges(self.tour, src, dst, direction)
        passed = _passed_nodes(self.tour, src, dst, direction)
        for ring in self.rings:
            if ring.direction is not direction:
                continue
            wavelength = self._fits(ring, edges, passed)
            if wavelength is not None:
                return self._commit(src, dst, ring, direction, wavelength, edges, passed)
        ring = self._new_ring(direction)
        return self._commit(src, dst, ring, direction, 0, edges, passed)

    def place_first_fit(self, src: int, dst: int) -> RingAssignment:
        arcs = {
            direction: (
                _arc_edges(self.tour, src, dst, direction),
                _passed_nodes(self.tour, src, dst, direction),
            )
            for direction in (Direction.CW, Direction.CCW)
        }
        for ring in self.rings:
            edges, passed = arcs[ring.direction]
            wavelength = self._fits(ring, edges, passed)
            if wavelength is not None:
                return self._commit(
                    src, dst, ring, ring.direction, wavelength, edges, passed
                )
        cw = self.tour.cw_distance(src, dst)
        ccw = self.tour.ccw_distance(src, dst)
        direction = Direction.CW if cw <= ccw else Direction.CCW
        edges, passed = arcs[direction]
        ring = self._new_ring(direction)
        return self._commit(src, dst, ring, direction, 0, edges, passed)

    def _commit(
        self,
        src: int,
        dst: int,
        ring: RingWaveguide,
        direction: Direction,
        wavelength: int,
        edges: frozenset[int],
        passed: frozenset[int],
    ) -> RingAssignment:
        assignment = RingAssignment(
            src=src,
            dst=dst,
            rid=ring.rid,
            direction=direction,
            wavelength=wavelength,
            edges=edges,
            passed_nodes=passed,
        )
        self.assignments[(src, dst)] = assignment
        self._occupied.setdefault((ring.rid, wavelength), set()).update(edges)
        return assignment

    def relocate(self, assignment: RingAssignment, forbidden_rid: int) -> None:
        get_obs().metrics.counter("mapping.relocations").inc()
        del self.assignments[(assignment.src, assignment.dst)]
        self._occupied[(assignment.rid, assignment.wavelength)] -= assignment.edges
        for ring in self.rings:
            if ring.direction is not assignment.direction or ring.rid == forbidden_rid:
                continue
            wavelength = self._fits(ring, assignment.edges, assignment.passed_nodes)
            if wavelength is not None:
                self._commit(
                    assignment.src,
                    assignment.dst,
                    ring,
                    assignment.direction,
                    wavelength,
                    assignment.edges,
                    assignment.passed_nodes,
                )
                return
        ring = self._new_ring(assignment.direction)
        self._commit(
            assignment.src,
            assignment.dst,
            ring,
            assignment.direction,
            0,
            assignment.edges,
            assignment.passed_nodes,
        )

    def open_rings(self) -> None:
        idx = 0
        while idx < len(self.rings):
            ring = self.rings[idx]
            idx += 1
            counts = {node: 0 for node in self.tour.order}
            for assignment in self.ring_signals(ring.rid):
                for node in assignment.passed_nodes:
                    counts[node] += 1
            opening = min(self.tour.order, key=lambda node: counts[node])
            ring.opening_node = opening
            if counts[opening] == 0:
                continue
            movers = [
                a
                for a in self.ring_signals(ring.rid)
                if opening in a.passed_nodes
            ]
            for assignment in movers:
                self.relocate(assignment, ring.rid)

    def ring_signals(self, rid: int) -> list[RingAssignment]:
        return [a for a in self.assignments.values() if a.rid == rid]

    def drop_empty_rings(self) -> None:
        live = [r for r in self.rings if self.ring_signals(r.rid)]
        remap = {ring.rid: new_rid for new_rid, ring in enumerate(live)}
        for ring in live:
            ring.rid = remap[ring.rid]
        self.assignments = {
            key: RingAssignment(
                a.src,
                a.dst,
                remap[a.rid],
                a.direction,
                a.wavelength,
                a.edges,
                a.passed_nodes,
            )
            for key, a in self.assignments.items()
        }
        self.rings = live


def map_signals_reference(
    tour: RingTour,
    demands: tuple[tuple[int, int], ...],
    shortcut_plan: ShortcutPlan,
    wl_budget: int,
    *,
    open_rings: bool = True,
    order: str = "length",
    direction_policy: str = "shortest",
) -> SignalMapping:
    """:func:`repro.core.mapping.map_signals` on the reference mapper."""
    mapper = ReferenceMapper(tour, wl_budget)
    ring_demands = [d for d in demands if d not in shortcut_plan.served]
    if order == "length":
        ring_demands.sort(
            key=lambda pair: -min(
                tour.cw_distance(*pair), tour.ccw_distance(*pair)
            )
        )
    for src, dst in ring_demands:
        if direction_policy == "first_fit":
            mapper.place_first_fit(src, dst)
            continue
        cw = tour.cw_distance(src, dst)
        ccw = tour.ccw_distance(src, dst)
        direction = Direction.CW if cw <= ccw else Direction.CCW
        mapper.place(src, dst, direction)
    if open_rings:
        mapper.open_rings()
    mapper.drop_empty_rings()
    return SignalMapping(
        rings=mapper.rings,
        assignments=mapper.assignments,
        shortcut_wavelengths=_shortcut_wavelengths(shortcut_plan),
        wl_budget=wl_budget,
    )
