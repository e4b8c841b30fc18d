"""Step 4: power distribution network design (Sec. III-D).

For each ring waveguide, the senders that modulate on it form the
leaves of a complete binary tree of 50/50 splitters.  Starting from the
opening node's sender, consecutive senders along the ring are paired;
each pair's splitter sits at the midpoint of the connecting waveguide,
and the pairing repeats level by level until a single top splitter
remains.  Top splitters of all ring waveguides are then combined (one
more small tree) and connected to the off-chip laser at the die edge.

Two routing modes:

- ``"internal"`` (XRing): PDN waveguides run in the reserved gap
  between ring pairs and enter through the ring openings — zero
  crossings by construction.
- ``"external"`` (ORNoC/ORing baselines, following [17]): the same
  tree is routed with plain L-paths that ignore the rings; every
  geometric intersection with the ring curve is a real crossing that
  adds crossing loss to the PDN branch *and* sprays continuous-wave
  noise onto every ring waveguide (the rings are nested copies of one
  geometry, so a curve crossing is counted once per ring instance —
  see DESIGN.md substitutions).

Feed losses returned per sender are laser-to-modulator: splitter loss
per tree level, propagation over the tree waveguides, and crossing
loss in external mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import BBox, Point, RectilinearPath, crossing_points, distance_along, l_routes
from repro.core.mapping import SignalMapping
from repro.core.ring import RingTour
from repro.core.shortcuts import ShortcutPlan
from repro.obs import get_obs
from repro.photonics.parameters import LossParameters
from repro.robustness.errors import ConfigurationError

#: Feed key of a ring sender: ("ring", ring id, node index).
#: Feed key of a shortcut sender: ("shortcut", shortcut index, node index).
FeedKey = tuple[str, int, int]


@dataclass(frozen=True)
class PdnRingCrossing:
    """One PDN-over-ring crossing event (external mode only).

    ``ring_position_mm`` is the crossing's clockwise distance from the
    tour start (raw tour coordinate — converted to per-waveguide
    coordinates when lowering to a circuit).  ``loss_to_point_db`` is
    the PDN loss from the laser to this point, so the leaked noise is
    ``-(loss_to_point_db) + crossing crosstalk`` relative to launch.
    ``rid`` names the ring waveguide instance being crossed: a branch
    descending to an inner ring crosses each nested outer ring once.
    """

    ring_position_mm: float
    loss_to_point_db: float
    rid: int


@dataclass
class PdnDesign:
    """The synthesized PDN: per-sender feed losses plus crossing events.

    ``tree_edges`` records the routed waveguide geometry (for
    visualization); analysis only consumes ``feeds`` and
    ``ring_crossings``.
    """

    feeds: dict[FeedKey, float] = field(default_factory=dict)
    ring_crossings: list[PdnRingCrossing] = field(default_factory=list)
    tree_edges: list[tuple[Point, Point]] = field(default_factory=list)
    total_waveguide_mm: float = 0.0
    splitter_count: int = 0
    crossing_count: int = 0
    mode: str = "internal"

    def feed_loss_db(self, key: FeedKey) -> float:
        """Feed loss for a sender; raises KeyError for unknown senders."""
        return self.feeds[key]


class _TreeNode:
    """A node of the splitter tree (leaf = sender, internal = splitter).

    ``subtree_rids`` (set on per-ring tree roots) lists the ring
    waveguide instances that edges below this node cross per geometric
    hit; ``None`` inherits the parent's list.
    """

    __slots__ = ("point", "children", "key", "subtree_rids")

    def __init__(self, point: Point, key: FeedKey | None = None) -> None:
        self.point = point
        self.children: list[_TreeNode] = []
        self.key = key
        self.subtree_rids: list[int] | None = None


def _pair_up(nodes: list[_TreeNode]) -> _TreeNode:
    """Build the binary tree by pairing neighbours level by level.

    An odd node at a level is promoted unchanged (no splitter) to the
    next level, matching the "closest neighbouring splitter" repetition
    of Sec. III-D.
    """
    if not nodes:
        raise ValueError("cannot build a PDN over zero senders")
    level = list(nodes)
    while len(level) > 1:
        next_level: list[_TreeNode] = []
        for i in range(0, len(level) - 1, 2):
            left, right = level[i], level[i + 1]
            parent = _TreeNode(left.point.midpoint(right.point))
            parent.children = [left, right]
            next_level.append(parent)
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return level[0]


def _tree_depth(node: _TreeNode) -> int:
    """Levels in the splitter tree (a lone leaf has depth 1)."""
    if not node.children:
        return 1
    return 1 + max(_tree_depth(child) for child in node.children)


def _ring_sender_order(tour: RingTour, opening: int | None, senders: set[int]) -> list[int]:
    """Senders ordered along the tour, starting from the opening node."""
    order = list(tour.order)
    if opening is not None and opening in order:
        k = order.index(opening)
        order = order[k:] + order[:k]
    return [node for node in order if node in senders]


class _PdnBuilder:
    def __init__(
        self,
        tour: RingTour,
        loss: LossParameters,
        mode: str,
        die: BBox,
        ring_copies: int,
    ) -> None:
        self.tour = tour
        self.loss = loss
        self.mode = mode
        self.die = die
        self.ring_copies = ring_copies
        self.design = PdnDesign(mode=mode)

    def _edge_crossings(self, path: RectilinearPath) -> list[tuple[float, float]]:
        """(distance-along-edge, tour position) of ring crossings."""
        hits: list[tuple[float, float]] = []
        for ring_edge in self.tour.edge_paths:
            for point in crossing_points(path, ring_edge):
                ring_pos = self.tour.position_of_point(point)
                if ring_pos is None:
                    continue
                hits.append((distance_along(path, point), ring_pos))
        hits.sort(key=lambda item: item[0])
        return hits

    def accumulate(
        self,
        node: _TreeNode,
        loss_db: float,
        target_rids: list[int],
    ) -> None:
        """Walk the tree root-down, filling feeds and crossing events.

        ``target_rids`` lists the nested ring instances that one
        geometric curve hit crosses for edges in the current subtree
        (per-ring trees cross only the rings nested outside theirs).
        """
        if node.subtree_rids is not None:
            target_rids = node.subtree_rids
        if not node.children:
            assert node.key is not None
            self.design.feeds[node.key] = loss_db
            return
        is_splitter = len(node.children) == 2
        if is_splitter:
            self.design.splitter_count += 1
        for child in node.children:
            child_loss = loss_db + (self.loss.splitter_db if is_splitter else 0.0)
            if node.point.almost_equals(child.point):
                # Degenerate edge (e.g. a splitter landing on a sender
                # point): no waveguide, no propagation.
                self.accumulate(child, child_loss, target_rids)
                continue
            self.design.tree_edges.append((node.point, child.point))
            if self.mode == "internal":
                # The first L-route's length, without building it: its
                # legs are |dy| then |dx| (or one straight leg), and
                # their sum is bit-for-bit this Manhattan distance.
                length = node.point.manhattan(child.point)
                self.design.total_waveguide_mm += length
                child_loss += self.loss.propagation(length)
                self.accumulate(child, child_loss, target_rids)
                continue
            path = l_routes(node.point, child.point)[0]
            self.design.total_waveguide_mm += path.length
            cursor = 0.0
            for dist, ring_pos in self._edge_crossings(path):
                child_loss += self.loss.propagation(dist - cursor)
                cursor = dist
                # One geometric hit crosses each targeted ring instance.
                for rid in target_rids:
                    self.design.ring_crossings.append(
                        PdnRingCrossing(ring_pos, child_loss, rid)
                    )
                    child_loss += self.loss.crossing_db
                    self.design.crossing_count += 1
            child_loss += self.loss.propagation(path.length - cursor)
            self.accumulate(child, child_loss, target_rids)


def build_pdn(
    tour: RingTour,
    mapping: SignalMapping,
    shortcut_plan: ShortcutPlan,
    loss: LossParameters,
    die: BBox,
    mode: str = "internal",
) -> PdnDesign:
    """Build the PDN for a mapped design and return feed losses.

    ``mode`` is ``"internal"`` (XRing, crossing-free) or ``"external"``
    (baseline style; crossings counted geometrically).
    """
    if mode not in ("internal", "external"):
        raise ConfigurationError(f"unknown PDN mode {mode!r}", stage="pdn")

    ring_copies = len(mapping.rings)
    builder = _PdnBuilder(tour, loss, mode, die, ring_copies)

    # Leaves per ring waveguide: the senders that modulate on it.
    # Nesting convention: rid 0 is the outermost ring instance, so a
    # branch serving ring r crosses the r rings outside it (rids 0..r-1).
    senders_by_rid: dict[int, set[int]] = {}
    for a in mapping.assignments.values():
        senders_by_rid.setdefault(a.rid, set()).add(a.src)
    tree_roots: list[_TreeNode] = []
    for ring in mapping.rings:
        senders = senders_by_rid.get(ring.rid)
        if not senders:
            continue
        ordered = _ring_sender_order(tour, ring.opening_node, senders)
        leaves = [
            _TreeNode(tour.points[node], key=("ring", ring.rid, node))
            for node in ordered
        ]
        root = _pair_up(leaves)
        root.subtree_rids = list(range(ring.rid))
        tree_roots.append(root)

    # Shortcut senders join the first tree's level (same physical
    # points as the ring senders of those nodes; they sit inside the
    # ring so the internal routing reaches them without crossings).
    shortcut_leaves: list[_TreeNode] = []
    for idx, shortcut in enumerate(shortcut_plan.shortcuts):
        for node in (shortcut.node_a, shortcut.node_b):
            shortcut_leaves.append(
                _TreeNode(tour.points[node], key=("shortcut", idx, node))
            )
    if shortcut_leaves:
        tree_roots.append(_pair_up(shortcut_leaves))

    if not tree_roots:
        return builder.design

    top = _pair_up(tree_roots)
    laser = Point(die.xmin - 1.0, top.point.y)
    trunk = _TreeNode(laser)
    trunk.children = [top]
    # Combiner and trunk edges span the die: they cross the whole
    # nested bundle per geometric hit.
    builder.accumulate(trunk, 0.0, list(range(ring_copies)))

    metrics = get_obs().metrics
    if metrics.enabled:
        depths = metrics.histogram("pdn.splitter_tree_depth")
        for root in tree_roots:
            depths.observe(_tree_depth(root))
        metrics.gauge("pdn.tree_depth_total").set(_tree_depth(trunk))
        metrics.counter("pdn.splitters").inc(builder.design.splitter_count)
        metrics.counter("pdn.ring_crossings").inc(builder.design.crossing_count)
    return builder.design
