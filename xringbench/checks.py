"""Output checks and design-quality metrics.

Every design the benchmark receives passes through :func:`check_design`:
the program's own validator, then the paper's constraints checked here
independently of it.  Quality metrics come from the router evaluation
of a fixed prefix of each run's designs, so they depend on the seed
alone.
"""

from __future__ import annotations

from collections import Counter

#: The paper's ">98% of signals are free of first-order noise" claim.
NOISE_FREE_MIN = 0.98


def evaluate(design):
    from repro.analysis import evaluate_circuit
    from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES

    circuit = design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK)
    return evaluate_circuit(circuit, ORING_LOSSES, NIKDAST_CROSSTALK)


def check_design(design, wl_budget: int) -> tuple[list[str], object]:
    """Problems found in ``design`` (empty when it is correct), and its
    evaluation."""
    from repro.core.validate import validate_design

    problems = [f"validate: {v}" for v in validate_design(design)]
    if design.tour.crossing_count != 0:
        problems.append(f"ring has {design.tour.crossing_count} crossings")
    shortcuts = design.shortcut_plan.shortcuts
    ends = Counter(n for s in shortcuts for n in (s.node_a, s.node_b))
    crowded = sorted(n for n, k in ends.items() if k > 1)
    if crowded:
        problems.append(f"nodes with more than one shortcut: {crowded}")
    crossings = Counter(i for pair in design.shortcut_plan.crossing_pairs for i in pair)
    if any(k > 1 for k in crossings.values()):
        problems.append("a shortcut crosses more than one other shortcut")
    evaluation = evaluate(design)
    if evaluation.wl_count > wl_budget:
        problems.append(f"{evaluation.wl_count} wavelengths exceed the budget {wl_budget}")
    if evaluation.noise_free_fraction < NOISE_FREE_MIN:
        problems.append(
            f"noise-free fraction {evaluation.noise_free_fraction:.4f} < {NOISE_FREE_MIN}"
        )
    return problems, evaluation


def degraded(design) -> bool:
    report = design.report
    return bool(report is not None and report.fallbacks)


def quality(pairs) -> dict[str, float]:
    """The five quality metrics over ``(design, evaluation)`` pairs."""
    pairs = list(pairs)
    n = len(pairs)
    return {
        "il_w_db": sum(e.il_w for _, e in pairs) / n,
        "noise_free_frac": min(e.noise_free_fraction for _, e in pairs),
        "wavelengths": sum(e.wl_count for _, e in pairs) / n,
        "tour_length_mm": sum(d.tour.length_mm for d, _ in pairs) / n,
    }
