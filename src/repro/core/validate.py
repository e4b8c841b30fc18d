"""Design-rule checking for synthesized ring routers.

``validate_design`` re-derives every invariant the synthesis flow
promises and returns the violations it finds (empty list = clean).
It exists for two audiences: users driving the flow with custom
options (traffic patterns, budgets, disabled features) who want a
machine-checkable contract, and the test suite, which asserts that
every synthesized design — XRing or baseline — validates.

Checked rules:

- **coverage** — every demand is served exactly once (ring mapping or
  shortcut), and nothing else is;
- **wavelengths** — ring assignments respect the budget; no two
  same-wavelength signals share a tour edge on one waveguide;
- **openings** — no signal traverses its waveguide's opening node;
- **shortcuts** — at most one per node, at most one crossing partner
  each, positive gains;
- **tour** — a permutation of all nodes with consistent arc geometry;
- **pdn** — every sender that modulates a signal has a feed entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.design import XRingDesign
from repro.geometry import paths_cross


@dataclass(frozen=True)
class Violation:
    """One broken design rule."""

    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.rule}] {self.message}"


def _check_coverage(design: XRingDesign, violations: list[Violation]) -> None:
    demands = set(design.network.demands())
    ring_pairs = set(design.mapping.assignments)
    shortcut_pairs = set(design.shortcut_plan.served)
    overlap = ring_pairs & shortcut_pairs
    for pair in overlap:
        violations.append(
            Violation("coverage", f"pair {pair} served by both ring and shortcut")
        )
    served = ring_pairs | shortcut_pairs
    for pair in demands - served:
        violations.append(Violation("coverage", f"demand {pair} is unserved"))
    for pair in served - demands:
        violations.append(
            Violation("coverage", f"pair {pair} served but never demanded")
        )


def _check_wavelengths(design: XRingDesign, violations: list[Violation]) -> None:
    budget = design.mapping.wl_budget
    by_slot: dict[tuple[int, int], list] = {}
    for assignment in design.mapping.assignments.values():
        if assignment.wavelength >= budget:
            violations.append(
                Violation(
                    "wavelengths",
                    f"signal {(assignment.src, assignment.dst)} uses wavelength "
                    f"{assignment.wavelength} >= budget {budget}",
                )
            )
        by_slot.setdefault((assignment.rid, assignment.wavelength), []).append(
            assignment
        )
    for (rid, wavelength), assignments in by_slot.items():
        for a, b in itertools.combinations(assignments, 2):
            if a.edges & b.edges:
                violations.append(
                    Violation(
                        "wavelengths",
                        f"signals {(a.src, a.dst)} and {(b.src, b.dst)} overlap "
                        f"on ring {rid} wavelength {wavelength}",
                    )
                )


def _check_openings(design: XRingDesign, violations: list[Violation]) -> None:
    ring_by_id = {r.rid: r for r in design.mapping.rings}
    for assignment in design.mapping.assignments.values():
        opening = ring_by_id[assignment.rid].opening_node
        if opening is not None and opening in assignment.passed_nodes:
            violations.append(
                Violation(
                    "openings",
                    f"signal {(assignment.src, assignment.dst)} traverses the "
                    f"opening node {opening} of ring {assignment.rid}",
                )
            )


def _check_shortcuts(design: XRingDesign, violations: list[Violation]) -> None:
    seen_nodes: set[int] = set()
    shortcuts = design.shortcut_plan.shortcuts
    for shortcut in shortcuts:
        for node in (shortcut.node_a, shortcut.node_b):
            if node in seen_nodes:
                violations.append(
                    Violation(
                        "shortcuts", f"node {node} participates in two shortcuts"
                    )
                )
            seen_nodes.add(node)
        if shortcut.gain_mm <= 0:
            violations.append(
                Violation(
                    "shortcuts",
                    f"shortcut {shortcut.node_a}-{shortcut.node_b} has "
                    f"non-positive gain {shortcut.gain_mm:.3f}",
                )
            )
    for idx, shortcut in enumerate(shortcuts):
        crossers = [
            j
            for j, other in enumerate(shortcuts)
            if j != idx and paths_cross(shortcut.path, other.path)
        ]
        if len(crossers) > 1:
            violations.append(
                Violation(
                    "shortcuts",
                    f"shortcut {shortcut.node_a}-{shortcut.node_b} crosses "
                    f"{len(crossers)} other shortcuts (budget is 1)",
                )
            )
        elif crossers and shortcut.partner != crossers[0]:
            violations.append(
                Violation(
                    "shortcuts",
                    f"shortcut {shortcut.node_a}-{shortcut.node_b} crosses "
                    f"{crossers[0]} but records partner {shortcut.partner}",
                )
            )


def _check_tour(design: XRingDesign, violations: list[Violation]) -> None:
    tour = design.tour
    if sorted(tour.order) != list(range(design.network.size)):
        violations.append(
            Violation("tour", "tour order is not a permutation of the nodes")
        )
        return
    if tour.crossing_count > 0:
        # The paper's Step 1 promises a crossing-free ring; a residual
        # crossing (greedy realization tier) must trigger the repair.
        violations.append(
            Violation(
                "tour",
                f"ring waveguide has {tour.crossing_count} residual crossing(s)",
            )
        )
        return
    # Node ring coordinates must equal the cumulative realized edge
    # lengths (every arc metric downstream is derived from them).
    travelled = 0.0
    for k, node in enumerate(tour.order):
        actual = tour.node_position_mm.get(node)
        if actual is None or abs(actual - travelled) > 1e-6:
            violations.append(
                Violation(
                    "tour",
                    f"node {node} ring position {actual} deviates from the "
                    f"cumulative edge length {travelled:.3f}",
                )
            )
            return
        travelled += tour.edge_paths[k].length
    if abs(travelled - tour.length_mm) > 1e-6:
        violations.append(
            Violation(
                "tour",
                f"perimeter {tour.length_mm:.3f} does not match the summed "
                f"edge paths {travelled:.3f}",
            )
        )
        return
    for a, b in itertools.combinations(tour.order, 2):
        total = tour.cw_distance(a, b) + tour.ccw_distance(a, b)
        if abs(total - tour.length_mm) > 1e-6:
            violations.append(
                Violation(
                    "tour",
                    f"arc lengths of pair ({a}, {b}) do not sum to the perimeter",
                )
            )
            return


def _check_pdn(design: XRingDesign, violations: list[Violation]) -> None:
    if design.pdn is None:
        return
    for assignment in design.mapping.assignments.values():
        key = ("ring", assignment.rid, assignment.src)
        if key not in design.pdn.feeds:
            violations.append(
                Violation("pdn", f"sender {key} has no PDN feed")
            )
    for pair, legs in design.shortcut_plan.served.items():
        key = ("shortcut", legs[0].shortcut_index, pair[0])
        if key not in design.pdn.feeds:
            violations.append(
                Violation("pdn", f"shortcut sender {key} has no PDN feed")
            )


#: Rule name -> checker, in canonical execution order.  The synthesis
#: pipeline's incremental gates run the subset that is meaningful after
#: each stage (e.g. no PDN rule before Step 4 has run).
RULE_CHECKS = {
    "tour": _check_tour,
    "coverage": _check_coverage,
    "wavelengths": _check_wavelengths,
    "openings": _check_openings,
    "shortcuts": _check_shortcuts,
    "pdn": _check_pdn,
}


def validate_design(
    design: XRingDesign, rules: tuple[str, ...] | None = None
) -> list[Violation]:
    """Run design-rule checks; returns the violations found.

    ``rules`` selects a subset by name (see :data:`RULE_CHECKS`);
    ``None`` runs everything.  Unknown rule names raise ``KeyError``
    rather than silently passing.
    """
    violations: list[Violation] = []
    selected = RULE_CHECKS if rules is None else {r: RULE_CHECKS[r] for r in rules}
    for check in selected.values():
        check(design, violations)
    return violations


def assert_valid(design: XRingDesign) -> None:
    """Raise ``AssertionError`` listing all violations, if any."""
    violations = validate_design(design)
    if violations:
        details = "\n".join(str(v) for v in violations)
        raise AssertionError(f"design violates {len(violations)} rule(s):\n{details}")
