"""Property-based invariant tests over random floorplans.

Synthesis must uphold its structural promises on *any* floorplan, not
just the paper's placements.  This module generates seeded random
floorplans (stdlib :mod:`random` — no external property-testing
dependency) and asserts the invariants the flow guarantees:

- the ring tour is a Hamiltonian cycle (a permutation of all nodes,
  no 2-cycles / subtours);
- no geometrically conflicting pair of tour edges is selected
  (checked against :func:`repro.geometry.build_edge_conflicts`);
- signals sharing a waveguide and a wavelength have arc-disjoint
  tour-edge sets;
- opened rings still serve every signal mapped to them (no signal
  traverses its ring's opening node) and every demand is served
  exactly once;
- the full design-rule checker agrees (``validate_design`` is clean).

The seed and case count are environment-overridable so CI can run the
suite under several fixed seeds::

    REPRO_PROPERTY_SEED=7 REPRO_PROPERTY_CASES=25 pytest tests/test_property_invariants.py
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.core.validate import validate_design
from repro.geometry import Point, build_edge_conflicts
from repro.network import Network

SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "20230317"))
N_CASES = int(os.environ.get("REPRO_PROPERTY_CASES", "50"))

#: Lattice pitch in mm — the paper's placements use a few hundred
#: micrometres between nodes, so random floorplans live at that scale.
PITCH_MM = 0.35


def _random_floorplan(rng: random.Random) -> list[Point]:
    """4..16 distinct nodes on a jitter-free lattice.

    Sampling lattice cells without replacement guarantees distinct
    positions (a synthesis precondition); collinear runs and shared
    rows/columns — the hard cases for rectilinear crossing checks —
    stay plentiful.  Every size runs on the vectorized crossing kernel
    of ``repro.geometry.conflicts_bulk``; ``tests/test_ring_oracle.py``
    and ``tests/test_shortcut_oracle.py`` replay this corpus against
    the scalar oracles.
    """
    n = rng.randint(4, 16)
    side = rng.randint(4, 6)
    cells = rng.sample(
        [(col, row) for col in range(side) for row in range(side)], n
    )
    return [Point(col * PITCH_MM, row * PITCH_MM) for col, row in cells]


def _floorplans() -> list[list[Point]]:
    rng = random.Random(SEED)
    return [_random_floorplan(rng) for _ in range(N_CASES)]


FLOORPLANS = _floorplans()


@pytest.fixture(scope="module", params=range(len(FLOORPLANS)))
def synthesized(request):
    """One random floorplan and its synthesized design.

    The heuristic Step 1 keeps 50 floorplans fast; ``on_error="raise"``
    so degradation can never mask a broken invariant.
    """
    points = FLOORPLANS[request.param]
    network = Network.from_positions(points)
    options = SynthesisOptions(ring_method="heuristic", on_error="raise")
    design = XRingSynthesizer(network, options).run()
    return points, design


def test_tour_is_hamiltonian(synthesized):
    points, design = synthesized
    order = design.tour.order
    assert sorted(order) == list(range(len(points)))
    assert len(design.tour.edge_paths) == len(points)
    # A permutation visited as one cycle has no 2-cycles by
    # construction, but make the degree argument explicit: every node
    # appears exactly once, so each has exactly two incident tour edges.
    assert len(set(order)) == len(order)


def test_no_conflicting_edge_pair_selected(synthesized):
    points, design = synthesized
    conflicts = build_edge_conflicts(points)
    order = design.tour.order
    n = len(order)
    edges = [
        tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n)
    ]
    for k1, k2 in itertools.combinations(range(n), 2):
        assert edges[k2] not in conflicts.get(edges[k1], set()), (
            f"tour edges {edges[k1]} and {edges[k2]} are geometrically "
            f"conflicting"
        )


def test_same_wavelength_signals_are_arc_disjoint(synthesized):
    _, design = synthesized
    by_slot: dict[tuple[int, int], list] = {}
    for assignment in design.mapping.assignments.values():
        by_slot.setdefault(
            (assignment.rid, assignment.wavelength), []
        ).append(assignment)
    for (rid, wavelength), assignments in by_slot.items():
        for a, b in itertools.combinations(assignments, 2):
            assert not (a.edges & b.edges), (
                f"signals {(a.src, a.dst)} and {(b.src, b.dst)} share "
                f"tour edges on ring {rid} wavelength {wavelength}"
            )


def test_opened_rings_serve_all_signals(synthesized):
    _, design = synthesized
    ring_by_id = {r.rid: r for r in design.mapping.rings}
    for assignment in design.mapping.assignments.values():
        opening = ring_by_id[assignment.rid].opening_node
        if opening is not None:
            assert opening not in assignment.passed_nodes, (
                f"signal {(assignment.src, assignment.dst)} traverses "
                f"the opening node {opening} of ring {assignment.rid}"
            )
    demands = set(design.network.demands())
    ring_pairs = set(design.mapping.assignments)
    shortcut_pairs = set(design.shortcut_plan.served)
    assert not (ring_pairs & shortcut_pairs)
    assert ring_pairs | shortcut_pairs == demands


def test_design_rules_hold(synthesized):
    _, design = synthesized
    assert validate_design(design) == []
