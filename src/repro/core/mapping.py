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

import dataclasses
import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import or_

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


#: A directed arc on the tour: the ``[lo, hi)`` runs of CW tour-edge
#: indices it covers (one run, or two when it wraps past ``order[0]``),
#: the runs to probe first (the same runs, or none on a short arc),
#: those edges as a set, and the nodes strictly inside it.
_Spans = tuple[tuple[int, int], ...]
_Arc = tuple[_Spans, _Spans, frozenset[int], frozenset[int]]

#: Edge spacing of the cheap first pass of the fit test, which runs on
#: arcs longer than one stride.
_PROBE_STRIDE = 16


class _Mapper:
    """Mutable state of the mapping/opening algorithm.

    Wavelength use is one bitmask per (ring, tour edge): bit ``w`` of
    ``_masks[rid][k]`` is set when some signal on ring ``rid`` uses
    wavelength ``w`` on tour edge ``k``.  The first fitting wavelength
    of an arc is the lowest bit clear in the OR of its edges' masks.
    """

    def __init__(self, tour: RingTour, wl_budget: int) -> None:
        self.tour = tour
        self.rings: list[RingWaveguide] = []
        # (ring, its masks) per direction, in creation order.  (An Enum
        # member hashes in Python, not in C, so neither these nor the
        # arc cache are keyed by Direction.)
        self._cw_rings: list[tuple[RingWaveguide, list[int]]] = []
        self._ccw_rings: list[tuple[RingWaveguide, list[int]]] = []
        self.assignments: dict[tuple[int, int], RingAssignment] = {}
        self._all_wavelengths = (1 << wl_budget) - 1
        self._position = {node: k for k, node in enumerate(tour.order)}
        # Two laps of the tour, so a wrapping arc is one slice.
        self._order_twice = tour.order * 2
        self._edges_twice = tuple(range(tour.size)) * 2
        self._arcs: dict[tuple[int, int, bool], _Arc] = {}
        self._masks: list[list[int]] = []
        #: Per ring, its assignments in placement order (the order
        #: ``assignments`` lists them in).
        self._carried: list[dict[tuple[int, int], RingAssignment]] = []

    def _arc(self, src: int, dst: int, direction: Direction) -> _Arc:
        key = (src, dst, direction is Direction.CW)
        arc = self._arcs.get(key)
        if arc is not None:
            return arc
        if key[2]:
            start, stop = self._position[src], self._position[dst]
        else:
            start, stop = self._position[dst], self._position[src]
        n = len(self._position)
        end = start + (stop - start) % n
        spans = ((start, end),) if end <= n else ((start, n), (0, end - n))
        arc = self._arcs[key] = (
            spans,
            spans if end - start > _PROBE_STRIDE else (),
            frozenset(self._edges_twice[start:end]),
            frozenset(self._order_twice[start + 1:end]),
        )
        return arc

    def _first_fit(
        self, direction: Direction, arc: _Arc, skip: RingWaveguide | None = None
    ) -> tuple[RingWaveguide, int, _Arc] | None:
        """First ``direction`` ring, in creation order, with a free
        wavelength along ``arc``, and that wavelength.

        A ring opened at a node the arc passes cannot carry the signal.
        """
        spans, probe, _, passed = arc
        all_wavelengths = self._all_wavelengths
        rings = self._cw_rings if direction is Direction.CW else self._ccw_rings
        for ring, masks in rings:
            opening = ring.opening_node
            if ring is skip or (opening is not None and opening in passed):
                continue
            # Every _PROBE_STRIDE-th edge first: on a crowded ring
            # those few masks usually cover every wavelength already.
            used = 0
            for lo, hi in probe:
                used = reduce(or_, masks[lo:hi:_PROBE_STRIDE], used)
            if used == all_wavelengths:
                continue
            for lo, hi in spans:
                used = reduce(or_, masks[lo:hi], used)
            free = ~used & all_wavelengths
            if free:
                return ring, (free & -free).bit_length() - 1, arc
        return None

    def _new_ring(self, direction: Direction) -> RingWaveguide:
        ring = RingWaveguide(rid=len(self.rings), direction=direction)
        self.rings.append(ring)
        masks = [0] * len(self._position)
        self._masks.append(masks)
        rings = self._cw_rings if direction is Direction.CW else self._ccw_rings
        rings.append((ring, masks))
        self._carried.append({})
        return ring

    def place(self, src: int, dst: int, direction: Direction) -> RingAssignment:
        """Map one signal onto the first fitting (ring, wavelength)."""
        arc = self._arc(src, dst, direction)
        found = self._first_fit(direction, arc)
        if found is None:
            found = (self._new_ring(direction), 0, arc)
        return self._commit(src, dst, *found)

    def place_first_fit(self, src: int, dst: int) -> RingAssignment:
        """ORNoC-style placement: fill existing waveguides first.

        The direction is whatever lets the signal reuse an existing
        (ring, wavelength) slot — ORNoC's assignment maximizes
        waveguide/wavelength utilization and accepts travelling the
        long way around (Le Beux et al. [10]).  Only when nothing fits
        is a new ring created, in the signal's shorter direction.
        """
        found = [
            fit
            for direction in (Direction.CW, Direction.CCW)
            if (fit := self._first_fit(direction, self._arc(src, dst, direction)))
        ]
        if found:
            # The first fitting ring in creation order, either direction.
            return self._commit(src, dst, *min(found, key=lambda fit: fit[0].rid))
        cw = self.tour.cw_distance(src, dst)
        ccw = self.tour.ccw_distance(src, dst)
        direction = Direction.CW if cw <= ccw else Direction.CCW
        arc = self._arc(src, dst, direction)
        return self._commit(src, dst, self._new_ring(direction), 0, arc)

    def _commit(
        self, src: int, dst: int, ring: RingWaveguide, wavelength: int, arc: _Arc
    ) -> RingAssignment:
        _, _, edges, passed = arc
        assignment = RingAssignment(
            src=src,
            dst=dst,
            rid=ring.rid,
            direction=ring.direction,
            wavelength=wavelength,
            edges=edges,
            passed_nodes=passed,
        )
        self.assignments[(src, dst)] = assignment
        self._carried[ring.rid][(src, dst)] = assignment
        masks = self._masks[ring.rid]
        bit = 1 << wavelength
        for k in edges:
            masks[k] |= bit
        return assignment

    def relocate(self, assignment: RingAssignment, forbidden: RingWaveguide) -> None:
        """Move a signal off ring ``forbidden`` (same direction)."""
        get_obs().metrics.counter("mapping.relocations").inc()
        key = (assignment.src, assignment.dst)
        del self.assignments[key]
        del self._carried[assignment.rid][key]
        # Signals sharing a (ring, wavelength) slot are edge-disjoint
        # (``_first_fit`` gates every commit), so clearing the bit is exact.
        masks = self._masks[assignment.rid]
        keep = ~(1 << assignment.wavelength)
        for k in assignment.edges:
            masks[k] &= keep
        direction = assignment.direction
        arc = self._arc(assignment.src, assignment.dst, direction)
        found = self._first_fit(direction, arc, skip=forbidden)
        if found is None:
            found = (self._new_ring(direction), 0, arc)
        self._commit(assignment.src, assignment.dst, *found)

    def open_rings(self) -> None:
        """Fix an opening per ring, relocating traversing signals.

        Rings are processed in creation order; relocation may create
        new rings, which join the end of the queue and get their own
        openings in turn.  The opening is the first node in tour order
        that the fewest of the ring's signals pass.
        """
        idx = 0
        while idx < len(self.rings):
            ring = self.rings[idx]
            idx += 1
            counts = Counter(
                chain.from_iterable(
                    a.passed_nodes for a in self._carried[ring.rid].values()
                )
            )
            opening = min(self.tour.order, key=counts.__getitem__)
            ring.opening_node = opening
            if counts[opening] == 0:
                continue
            movers = [
                a
                for a in self._carried[ring.rid].values()
                if opening in a.passed_nodes
            ]
            for assignment in movers:
                self.relocate(assignment, ring)

    def drop_empty_rings(self) -> None:
        """Remove rings that ended up carrying no signal, renumbering."""
        if all(self._carried):
            return
        live = [r for r in self.rings if self._carried[r.rid]]
        remap = {ring.rid: new_rid for new_rid, ring in enumerate(live)}
        for ring in live:
            ring.rid = remap[ring.rid]
        self.assignments = {
            key: dataclasses.replace(a, rid=remap[a.rid])
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
    arc_lengths = {
        pair: (tour.cw_distance(*pair), tour.ccw_distance(*pair))
        for pair in ring_demands
    }
    if order == "length":
        ring_demands.sort(key=lambda pair: -min(arc_lengths[pair]))
    elif order != "demand":
        raise ConfigurationError(
            f"unknown mapping order {order!r}", stage="mapping"
        )

    for src, dst in ring_demands:
        if direction_policy == "first_fit":
            mapper.place_first_fit(src, dst)
            continue
        cw, ccw = arc_lengths[(src, dst)]
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
        distinct: dict[int, set[int]] = {ring.rid: set() for ring in mapping.rings}
        for a in mapping.assignments.values():
            distinct[a.rid].add(a.wavelength)
        for wavelengths in distinct.values():
            occupancy.observe(len(wavelengths))
    return mapping
