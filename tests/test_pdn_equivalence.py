"""Step 4 against a test-side rebuild that routes every tree edge.

Internal mode takes a tree edge's length as the Manhattan distance of
its end points and builds no path.  The rebuild below walks the same
splitter tree the way Step 4 did before: it routes each edge with
``l_routes(a, b)[0]`` and reads the path length (and, in external
mode, scans the path for ring crossings).  ``feeds``,
``total_waveguide_mm``, ``tree_edges``, ``splitter_count`` and the
crossing events must be equal with ``==``, not approximately, on:

- XRing designs of the paper floorplans and the 24-node grid;
- the ORNoC and ORing baselines, whose PDN is external;
- floorplans with axis-aligned sender pairs and with pairs off-axis
  by less than ``EPS`` (one straight leg instead of an L);
- seeded continuous floorplans (``REPRO_BULK_CASES`` scales the count).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines import synthesize_ornoc, synthesize_oring
from repro.core import pdn as pdn_module
from repro.core.pdn import PdnDesign, PdnRingCrossing, build_pdn
from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.geometry import EPS, Point, crossing_points, distance_along, l_routes
from repro.network import Network
from repro.network.placement import extended_placement, psion_placement
from repro.photonics.parameters import ORING_LOSSES

SEED = 314_159_265
N_CASES = int(os.environ.get("REPRO_BULK_CASES", "200"))


def _reference_walk(builder, trunk) -> PdnDesign:
    """The splitter-tree walk with every edge routed as an L-path."""
    loss = builder.loss
    design = PdnDesign(mode=builder.mode)

    def walk(node, loss_db, target_rids):
        if node.subtree_rids is not None:
            target_rids = node.subtree_rids
        if not node.children:
            design.feeds[node.key] = loss_db
            return
        is_splitter = len(node.children) == 2
        if is_splitter:
            design.splitter_count += 1
        for child in node.children:
            child_loss = loss_db + (loss.splitter_db if is_splitter else 0.0)
            if node.point.almost_equals(child.point):
                walk(child, child_loss, target_rids)
                continue
            path = l_routes(node.point, child.point)[0]
            design.tree_edges.append((node.point, child.point))
            design.total_waveguide_mm += path.length
            hits = []
            if builder.mode == "external":
                for ring_edge in builder.tour.edge_paths:
                    for point in crossing_points(path, ring_edge):
                        ring_pos = builder.tour.position_of_point(point)
                        if ring_pos is not None:
                            hits.append((distance_along(path, point), ring_pos))
                hits.sort(key=lambda item: item[0])
            cursor = 0.0
            for dist, ring_pos in hits:
                child_loss += loss.propagation(dist - cursor)
                cursor = dist
                for rid in target_rids:
                    design.ring_crossings.append(
                        PdnRingCrossing(ring_pos, child_loss, rid)
                    )
                    child_loss += loss.crossing_db
                    design.crossing_count += 1
            child_loss += loss.propagation(path.length - cursor)
            walk(child, child_loss, target_rids)

    walk(trunk, 0.0, list(range(builder.ring_copies)))
    return design


def _assert_rebuild_equal(design, monkeypatch) -> None:
    """Re-run Step 4 on ``design`` and compare it with the rebuild."""
    trunks = []
    accumulate = pdn_module._PdnBuilder.accumulate

    def capture(self, node, loss_db, target_rids):
        if not trunks:
            trunks.append((self, node))
        accumulate(self, node, loss_db, target_rids)

    monkeypatch.setattr(pdn_module._PdnBuilder, "accumulate", capture)
    # Every design here is synthesized with the default ORing losses.
    actual = build_pdn(
        design.tour,
        design.mapping,
        design.shortcut_plan,
        ORING_LOSSES,
        design.network.bounding_box(),
        mode=design.pdn.mode,
    )
    monkeypatch.undo()
    builder, trunk = trunks[0]
    expected = _reference_walk(builder, trunk)
    assert actual.feeds == expected.feeds
    assert list(actual.feeds) == list(expected.feeds)
    assert actual.total_waveguide_mm == expected.total_waveguide_mm
    assert actual.tree_edges == expected.tree_edges
    assert actual.splitter_count == expected.splitter_count
    assert actual.ring_crossings == expected.ring_crossings
    assert actual.crossing_count == expected.crossing_count
    # The stage ran the same build: the design's own PDN agrees too.
    assert design.pdn.feeds == actual.feeds
    assert design.pdn.total_waveguide_mm == actual.total_waveguide_mm


def _xring(points, **options) -> object:
    network = Network.from_positions(points)
    return XRingSynthesizer(
        network, SynthesisOptions(on_error="raise", **options)
    ).run()


def _jittered_grid(side: int, jitter: float) -> list[Point]:
    """A square grid whose odd rows and columns sit ``jitter`` off-axis."""
    return [
        Point(2.0 * col + jitter * (row % 2), 2.0 * row + jitter * (col % 2))
        for row in range(side)
        for col in range(side)
    ]


def _continuous_floorplan(case: int) -> list[Point]:
    rng = random.Random(SEED + case)
    return [
        Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        for _ in range(rng.randint(5, 12))
    ]


@pytest.mark.parametrize("num_nodes", [8, 16, 32])
def test_paper_floorplans(num_nodes, monkeypatch):
    points, _ = psion_placement(num_nodes)
    _assert_rebuild_equal(_xring(points), monkeypatch)


def test_grid24(monkeypatch):
    points, _ = extended_placement(24)
    _assert_rebuild_equal(_xring(points), monkeypatch)


@pytest.mark.parametrize("baseline", [synthesize_ornoc, synthesize_oring])
@pytest.mark.parametrize("num_nodes", [8, 16])
def test_external_baselines(baseline, num_nodes, monkeypatch):
    points, die = psion_placement(num_nodes)
    design = baseline(Network.from_positions(points, die=die))
    assert design.pdn.mode == "external"
    assert design.pdn.crossing_count > 0
    _assert_rebuild_equal(design, monkeypatch)


@pytest.mark.parametrize("jitter", [0.0, EPS / 4, EPS / 2])
def test_axis_aligned_and_near_axis_senders(jitter, monkeypatch):
    design = _xring(_jittered_grid(4, jitter), ring_method="heuristic")
    # Grid senders pair up along rows and columns, so some tree edges
    # are straight legs; with jitter those legs are off-axis by < EPS.
    straight = [
        (a, b)
        for a, b in design.pdn.tree_edges
        if len(l_routes(a, b)) == 1
    ]
    assert straight
    if jitter:
        assert any(a.x != b.x and a.y != b.y for a, b in straight)
    _assert_rebuild_equal(design, monkeypatch)


@pytest.mark.parametrize("case", range(max(1, N_CASES // 20)))
def test_seeded_floorplans(case, monkeypatch):
    points = _continuous_floorplan(case)
    _assert_rebuild_equal(_xring(points, ring_method="heuristic"), monkeypatch)
