"""Step 3: signal mapping, wavelength assignment, ring openings.

Signals not served by shortcuts travel the ring in whichever direction
is shorter.  Each physical ring waveguide carries at most ``#wl``
wavelengths, and — the key ORNoC-style reuse the paper adopts from
[17] — two signals on the same waveguide may share a wavelength when
their arcs are edge-disjoint.  Signals that do not fit any existing
waveguide of their direction spawn a new one.

After mapping, each ring waveguide is *opened* at the node traversed by
the fewest signals: the segment between that node's sender and receiver
is removed so PDN waveguides can reach the senders without crossings
(Sec. III-C, Fig. 8).  Signals that would traverse the opening are
relocated to sibling waveguides (or new ones), respecting both the
wavelength budget and already-fixed openings.

Shortcut-served signals reuse the ring wavelength set (Sec. III-C):
plain shortcuts carry wavelength 0 in both directions; a crossing pair
uses 0 and 1 for the direct signals and 2 and 3 for the CSE-merged
inner pairs, so no noise on a shared wavelength can reach a receiver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.ring import RingTour
from repro.core.shortcuts import ShortcutPlan
from repro.obs import get_obs
from repro.robustness.errors import ConfigurationError


class Direction(enum.Enum):
    """Propagation direction of a ring waveguide."""

    CW = "cw"  # the tour direction
    CCW = "ccw"


@dataclass
class RingWaveguide:
    """One physical ring waveguide instance.

    ``opening_node`` is ``None`` while un-opened (and stays ``None``
    for the closed-ring baselines).
    """

    rid: int
    direction: Direction
    opening_node: int | None = None


@dataclass(frozen=True)
class RingAssignment:
    """A signal mapped onto a ring waveguide at a wavelength."""

    src: int
    dst: int
    rid: int
    direction: Direction
    wavelength: int
    #: Tour-edge indices (CW indexing) covered by the signal's arc.
    edges: frozenset[int]
    #: Nodes strictly inside the arc (whose receivers it passes).
    passed_nodes: frozenset[int]


@dataclass
class SignalMapping:
    """The complete Step-3 result."""

    rings: list[RingWaveguide] = field(default_factory=list)
    assignments: dict[tuple[int, int], RingAssignment] = field(default_factory=dict)
    shortcut_wavelengths: dict[tuple[int, int], int] = field(default_factory=dict)
    wl_budget: int = 0

    def ring_signals(self, rid: int) -> list[RingAssignment]:
        """Assignments carried by ring ``rid``."""
        return [a for a in self.assignments.values() if a.rid == rid]

    @property
    def used_wavelengths(self) -> set[int]:
        """Distinct wavelength indices in use (rings and shortcuts)."""
        used = {a.wavelength for a in self.assignments.values()}
        used.update(self.shortcut_wavelengths.values())
        return used


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


class _Mapper:
    """Mutable state of the mapping/opening algorithm."""

    def __init__(self, tour: RingTour, wl_budget: int) -> None:
        self.tour = tour
        self.wl_budget = wl_budget
        self.rings: list[RingWaveguide] = []
        self.assignments: dict[tuple[int, int], RingAssignment] = {}
        #: Occupied tour-edge indices per ``(rid, wavelength)`` slot.
        #: Assignments sharing a slot are edge-disjoint by construction
        #: (``_conflicts`` gates every commit), so removal on relocate
        #: is an exact set difference.
        self._occupied: dict[tuple[int, int], set[int]] = {}

    def _conflicts(
        self, rid: int, wavelength: int, edges: frozenset[int]
    ) -> bool:
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
        """Map one signal onto the first fitting (ring, wavelength)."""
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
        """ORNoC-style placement: fill existing waveguides first.

        The direction is whatever lets the signal reuse an existing
        (ring, wavelength) slot — ORNoC's assignment maximizes
        waveguide/wavelength utilization and accepts travelling the
        long way around (Le Beux et al. [10]).  Only when nothing fits
        is a new ring created, in the signal's shorter direction.
        """
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
        """Move a signal off ``forbidden_rid`` (same direction)."""
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
        """Fix an opening per ring, relocating traversing signals.

        Rings are processed in creation order; relocation may create
        new rings, which join the end of the queue and get their own
        openings in turn.
        """
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
        """Remove rings that ended up carrying no signal, renumbering."""
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


def _shortcut_wavelengths(plan: ShortcutPlan) -> dict[tuple[int, int], int]:
    """Wavelengths for shortcut-served signals per the Sec. III-C rules."""
    wavelengths: dict[tuple[int, int], int] = {}
    crossed: set[int] = set()
    for idx1, idx2 in plan.crossing_pairs:
        crossed.update((idx1, idx2))
        s1, s2 = plan.shortcuts[idx1], plan.shortcuts[idx2]
        wavelengths[(s1.node_a, s1.node_b)] = 0
        wavelengths[(s1.node_b, s1.node_a)] = 0
        wavelengths[(s2.node_a, s2.node_b)] = 1
        wavelengths[(s2.node_b, s2.node_a)] = 1
        for pair in (
            (s1.node_a, s2.node_b),
            (s2.node_b, s1.node_a),
        ):
            if pair in plan.served:
                wavelengths[pair] = 2
        for pair in (
            (s2.node_a, s1.node_b),
            (s1.node_b, s2.node_a),
        ):
            if pair in plan.served:
                wavelengths[pair] = 3
    for idx, shortcut in enumerate(plan.shortcuts):
        if idx in crossed:
            continue
        wavelengths[(shortcut.node_a, shortcut.node_b)] = 0
        wavelengths[(shortcut.node_b, shortcut.node_a)] = 0
    return wavelengths


def map_signals(
    tour: RingTour,
    demands: tuple[tuple[int, int], ...],
    shortcut_plan: ShortcutPlan,
    wl_budget: int,
    *,
    open_rings: bool = True,
    order: str = "length",
    direction_policy: str = "shortest",
) -> SignalMapping:
    """Map all demands onto ring waveguides and choose openings.

    ``order`` selects the greedy processing order: ``"length"``
    (longest arc first, the default — packs wavelengths better) or
    ``"demand"`` (the order demands were given, used by the ORNoC
    baseline).  ``direction_policy`` is ``"shortest"`` (XRing/ORing:
    each signal takes its shorter arc) or ``"first_fit"`` (ORNoC:
    direction chosen to reuse existing waveguide slots).
    ``open_rings=False`` keeps all rings closed (the baselines and the
    Table I variants without PDN openings).
    """
    if wl_budget < 1:
        raise ConfigurationError(
            f"wavelength budget must be at least 1, got {wl_budget}",
            stage="mapping",
        )
    if direction_policy not in ("shortest", "first_fit"):
        raise ConfigurationError(
            f"unknown direction policy {direction_policy!r}", stage="mapping"
        )
    mapper = _Mapper(tour, wl_budget)

    ring_demands = [d for d in demands if d not in shortcut_plan.served]
    if order == "length":
        ring_demands.sort(
            key=lambda pair: -min(
                tour.cw_distance(*pair), tour.ccw_distance(*pair)
            )
        )
    elif order != "demand":
        raise ConfigurationError(
            f"unknown mapping order {order!r}", stage="mapping"
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

    mapping = SignalMapping(
        rings=mapper.rings,
        assignments=mapper.assignments,
        shortcut_wavelengths=_shortcut_wavelengths(shortcut_plan),
        wl_budget=wl_budget,
    )
    metrics = get_obs().metrics
    if metrics.enabled:
        metrics.counter("mapping.signals_placed").inc(len(mapping.assignments))
        metrics.gauge("mapping.ring_waveguides").set(len(mapping.rings))
        # Per-waveguide wavelength occupancy: how many distinct
        # wavelengths each physical ring instance actually carries.
        occupancy = metrics.histogram("mapping.waveguide_wavelengths")
        for ring in mapping.rings:
            distinct = {a.wavelength for a in mapping.ring_signals(ring.rid)}
            occupancy.observe(len(distinct))
    return mapping
