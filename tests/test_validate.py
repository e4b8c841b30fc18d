"""Tests for the design-rule checker, including custom traffic runs."""

import dataclasses

import pytest

from repro.baselines.ring import synthesize_ornoc, synthesize_oring
from repro.core import SynthesisOptions, XRingSynthesizer, synthesize
from repro.core.mapping import RingAssignment
from repro.core.validate import Violation, assert_valid, validate_design
from repro.network import Network
from repro.network.placement import psion_placement
from repro.network.traffic import hotspot, neighbours_only


@pytest.fixture(scope="module")
def clean_design(network16, tour16):
    return XRingSynthesizer(
        network16, SynthesisOptions(wl_budget=16)
    ).run(tour=tour16)


class TestCleanDesignsValidate:
    def test_xring(self, clean_design):
        assert validate_design(clean_design) == []
        assert_valid(clean_design)

    def test_baselines(self, network16, tour16):
        for fn in (synthesize_ornoc, synthesize_oring):
            design = fn(network16, wl_budget=16, tour=tour16)
            assert validate_design(design) == []

    def test_feature_variants(self, network8):
        for kwargs in (
            {"enable_shortcuts": False},
            {"enable_openings": False, "pdn_mode": "external"},
            {"pdn_mode": None},
            {"ring_method": "heuristic"},
        ):
            design = synthesize(network8, wl_budget=8, **kwargs)
            assert validate_design(design) == []

    @pytest.mark.parametrize(
        "traffic_fn", [lambda n: neighbours_only(n, 2), lambda n: hotspot(n, 3)]
    )
    def test_custom_traffic(self, traffic_fn):
        points, die = psion_placement(8)
        network = Network.from_positions(points, traffic=traffic_fn(8), die=die)
        design = synthesize(network, wl_budget=8)
        assert validate_design(design) == []
        circuit = design.to_circuit(
            __import__("repro.photonics", fromlist=["ORING_LOSSES"]).ORING_LOSSES
        )
        assert len(circuit.signals) == len(network.demands())


def _clone_with_assignment(design, pair, new_assignment):
    assignments = dict(design.mapping.assignments)
    if new_assignment is None:
        del assignments[pair]
    else:
        assignments[pair] = new_assignment
    mapping = dataclasses.replace(design.mapping, assignments=assignments)
    return dataclasses.replace(design, mapping=mapping)


class TestBrokenDesignsCaught:
    def test_unserved_demand(self, clean_design):
        pair = next(iter(clean_design.mapping.assignments))
        broken = _clone_with_assignment(clean_design, pair, None)
        rules = {v.rule for v in validate_design(broken)}
        assert "coverage" in rules

    def test_budget_violation(self, clean_design):
        pair, assignment = next(iter(clean_design.mapping.assignments.items()))
        over_budget = dataclasses.replace(assignment, wavelength=99)
        broken = _clone_with_assignment(clean_design, pair, over_budget)
        rules = {v.rule for v in validate_design(broken)}
        assert "wavelengths" in rules

    def test_overlap_violation(self, clean_design):
        # Force two overlapping arcs onto the same (ring, wavelength).
        items = iter(clean_design.mapping.assignments.items())
        (pair_a, a) = next(items)
        clash = None
        for pair_b, b in items:
            if b.rid == a.rid and b.wavelength != a.wavelength and (a.edges & b.edges):
                clash = (pair_b, b)
                break
        assert clash is not None, "test needs two arc-overlapping signals"
        forced = dataclasses.replace(clash[1], wavelength=a.wavelength)
        broken = _clone_with_assignment(clean_design, clash[0], forced)
        rules = {v.rule for v in validate_design(broken)}
        assert "wavelengths" in rules

    def test_opening_violation(self, clean_design):
        ring = clean_design.mapping.rings[0]
        assert ring.opening_node is not None
        pair, assignment = next(
            (p, a)
            for p, a in clean_design.mapping.assignments.items()
            if a.rid == ring.rid
        )
        forced = dataclasses.replace(
            assignment,
            passed_nodes=assignment.passed_nodes | {ring.opening_node},
        )
        broken = _clone_with_assignment(clean_design, pair, forced)
        rules = {v.rule for v in validate_design(broken)}
        assert "openings" in rules

    def test_pdn_feed_violation(self, clean_design):
        assert clean_design.pdn is not None
        feeds = dict(clean_design.pdn.feeds)
        key = next(k for k in feeds if k[0] == "ring")
        del feeds[key]
        pdn = dataclasses.replace(clean_design.pdn, feeds=feeds)
        broken = dataclasses.replace(clean_design, pdn=pdn)
        rules = {v.rule for v in validate_design(broken)}
        assert "pdn" in rules

    def test_assert_valid_raises_with_details(self, clean_design):
        pair = next(iter(clean_design.mapping.assignments))
        broken = _clone_with_assignment(clean_design, pair, None)
        with pytest.raises(AssertionError, match="coverage"):
            assert_valid(broken)

    def test_violation_str(self):
        violation = Violation("rule", "message")
        assert "rule" in str(violation) and "message" in str(violation)


def _jittered_extended16(seed: int) -> list:
    """The 16-node extended grid, each node moved by up to 0.3 mm along
    x and then y: on these seeds the MILP ring's realization tier ends
    with a residual crossing that the heuristic ring avoids."""
    import random

    from repro.geometry import Point
    from repro.network.placement import extended_placement

    rng = random.Random(seed)
    points, _ = extended_placement(16)
    moved = []
    for p in points:
        x = p.x + rng.uniform(-0.3, 0.3)
        y = p.y + rng.uniform(-0.3, 0.3)
        moved.append(Point(x, y))
    return moved


def heuristic_crossed_lattice14() -> list:
    """A 14-node lattice on which the heuristic ring keeps residual
    crossings (the MILP ring has none)."""
    from repro.geometry import Point

    cells = [
        (1, 1), (0, 0), (1, 3), (2, 0), (0, 1), (2, 3), (1, 0),
        (2, 2), (3, 0), (3, 3), (0, 3), (3, 2), (2, 1), (1, 2),
    ]
    return [Point(0.35 * col, 0.35 * row) for col, row in cells]


class TestResidualRingCrossings:
    """A ring with ``crossing_count > 0`` breaks the paper's Step-1
    promise; the "tour" rule flags it and the repair-retry rebuilds."""

    @pytest.fixture(scope="class")
    def crossed(self):
        from repro.core.ring import construct_ring_tour

        points = _jittered_extended16(21)
        tour = construct_ring_tour(list(points))
        assert tour.crossing_count == 1
        return Network.from_positions(points), tour

    def test_tour_rule_flags_residual_crossing(self, crossed):
        from repro.core.design import XRingDesign
        from repro.core.mapping import SignalMapping
        from repro.core.shortcuts import ShortcutPlan

        network, tour = crossed
        stub = XRingDesign(
            network=network,
            tour=tour,
            shortcut_plan=ShortcutPlan(),
            mapping=SignalMapping(),
        )
        violations = validate_design(stub, rules=("tour",))
        assert [v.rule for v in violations] == ["tour"]
        assert "crossing" in violations[0].message

    def test_synthesis_repairs_with_heuristic_ring(self, crossed):
        from repro.robustness.report import STATUS_REPAIRED

        network, _ = crossed
        design = XRingSynthesizer(network, SynthesisOptions()).run()
        record = design.report.stage("ring")
        assert record.status == STATUS_REPAIRED
        assert record.fallback == "heuristic_ring"
        assert design.tour.crossing_count == 0
        assert validate_design(design) == []

    def test_provided_tour_passes_the_ring_gate(self, crossed):
        from repro.robustness.report import STATUS_REPAIRED

        network, tour = crossed
        design = XRingSynthesizer(network, SynthesisOptions()).run(tour=tour)
        assert design.report.stage("ring").status == STATUS_REPAIRED
        assert design.tour.crossing_count == 0
        assert validate_design(design) == []

    def test_heuristic_built_tour_is_repaired_with_the_milp(self):
        """The heuristic leaves residual crossings on this 14-node
        lattice, and rebuilding with it would reproduce them."""
        from repro.core.heuristic_ring import construct_ring_tour_heuristic
        from repro.robustness.report import STATUS_REPAIRED

        points = heuristic_crossed_lattice14()
        assert construct_ring_tour_heuristic(points).crossing_count > 0
        design = XRingSynthesizer(
            Network.from_positions(points),
            SynthesisOptions(ring_method="heuristic", on_error="raise"),
        ).run()
        record = design.report.stage("ring")
        assert record.status == STATUS_REPAIRED
        assert record.fallback == "milp_ring"
        assert design.tour.crossing_count == 0
        assert validate_design(design) == []

    def test_milp_ring_repair_uses_the_configured_options(self, monkeypatch):
        """The MILP rebuild of a heuristic tour reads ``lazy_conflicts``
        the way a first attempt does."""
        from repro.core import synthesizer

        calls = []
        real = synthesizer.construct_ring_tour

        def recording(points, **kwargs):
            calls.append(kwargs)
            return real(points, **kwargs)

        monkeypatch.setattr(synthesizer, "construct_ring_tour", recording)
        design = XRingSynthesizer(
            Network.from_positions(heuristic_crossed_lattice14()),
            SynthesisOptions(ring_method="heuristic", lazy_conflicts=True),
        ).run()
        assert design.report.stage("ring").fallback == "milp_ring"
        assert len(calls) == 1
        assert calls[0]["lazy"] is True
        assert design.tour.crossing_count == 0


class TestGatesIndependentOfKernel:
    """The gates keep the scalar ``paths_cross``, so a bulk crossing
    kernel that reports no interaction at all cannot hide a violation
    from them."""

    @staticmethod
    def _blind(monkeypatch):
        import numpy as np

        from repro.geometry import conflicts_bulk

        def no_interactions(s1, s2, ignore):
            shape = np.broadcast_shapes(s1.shape[:-1], s2.shape[:-1])
            return np.zeros(shape, dtype=bool)

        monkeypatch.setattr(conflicts_bulk, "_segments_illegal", no_interactions)

    def test_shortcut_crossing_two_others_is_flagged(self, clean_design, monkeypatch):
        from repro.core.shortcuts import Shortcut, ShortcutPlan
        from repro.geometry import Point, RectilinearPath, SegmentSet

        def chord(*pts):
            return RectilinearPath([Point(x, y) for x, y in pts])

        # One horizontal chord crossed by two vertical ones.
        bar = chord((0, 1), (4, 1))
        poles = [chord((1, 0), (1, 2)), chord((3, 0), (3, 2))]
        self._blind(monkeypatch)
        assert not SegmentSet(poles).any_illegal(bar)
        plan = ShortcutPlan(
            shortcuts=[
                Shortcut(0, 1, bar, 1.0, partner=1),
                Shortcut(2, 3, poles[0], 1.0, partner=0),
                Shortcut(4, 5, poles[1], 1.0),
            ]
        )
        stub = dataclasses.replace(clean_design, shortcut_plan=plan)
        messages = [v.message for v in validate_design(stub, rules=("shortcuts",))]
        assert any("crosses 2 other shortcuts" in m for m in messages)

    def test_ring_with_residual_crossing_is_flagged(self, monkeypatch):
        from repro.core import ring
        from repro.core.design import XRingDesign
        from repro.core.mapping import SignalMapping
        from repro.core.shortcuts import ShortcutPlan

        points = _jittered_extended16(21)
        tour = ring.construct_ring_tour(list(points))
        assert tour.crossing_count == 1
        self._blind(monkeypatch)
        # The blinded kernel would call the same tour crossing-free...
        assert ring._choose_realizations(list(tour.order), list(points))[1] == 0
        # ...but the gate reads the tour it is given.
        stub = XRingDesign(
            network=Network.from_positions(points),
            tour=tour,
            shortcut_plan=ShortcutPlan(),
            mapping=SignalMapping(),
        )
        violations = validate_design(stub, rules=("tour",))
        assert [v.rule for v in violations] == ["tour"]
        assert "crossing" in violations[0].message
