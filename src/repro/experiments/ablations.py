"""Ablation studies on XRing's design choices.

The paper motivates two structural features — shortcuts (Sec. III-B)
and ring openings with a crossing-free PDN (Sec. III-C/D) — and a
methodology of sweeping the per-waveguide wavelength budget.  These
harnesses quantify each choice in isolation:

- :func:`run_shortcut_ablation` — XRing with/without shortcuts and
  with/without openings (the "without openings" variant keeps rings
  closed and routes the PDN externally, i.e. baseline-style).
- :func:`run_wavelength_sweep` — power and SNR as a function of #wl,
  the curve behind every table's "setting for min power / max SNR".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ring import RingTour
from repro.core.synthesizer import SynthesisOptions
from repro.experiments.common import RingRouterRow, evaluate_design, sweep_ring_router
from repro.network import Network
from repro.network.placement import psion_placement
from repro.photonics.parameters import (
    NIKDAST_CROSSTALK,
    ORING_LOSSES,
    CrosstalkParameters,
    LossParameters,
)


@dataclass(frozen=True)
class AblationRow:
    """One ablation variant's evaluation."""

    variant: str
    row: RingRouterRow


def _variant_options(
    variant: str, wl_budget: int, loss: LossParameters
) -> SynthesisOptions:
    if variant == "full":
        return SynthesisOptions(wl_budget=wl_budget, loss=loss, label="xring")
    if variant == "no-shortcuts":
        return SynthesisOptions(
            wl_budget=wl_budget,
            enable_shortcuts=False,
            loss=loss,
            label="xring/no-shortcuts",
        )
    if variant == "no-openings":
        return SynthesisOptions(
            wl_budget=wl_budget,
            enable_openings=False,
            pdn_mode="external",
            loss=loss,
            label="xring/no-openings",
        )
    if variant == "bare":
        return SynthesisOptions(
            wl_budget=wl_budget,
            enable_shortcuts=False,
            enable_openings=False,
            pdn_mode="external",
            loss=loss,
            label="xring/bare",
        )
    raise ValueError(f"unknown ablation variant {variant!r}")


VARIANTS = ("full", "no-shortcuts", "no-openings", "bare")


def run_shortcut_ablation(
    num_nodes: int = 16,
    wl_budget: int | None = None,
    loss: LossParameters = ORING_LOSSES,
    xtalk: CrosstalkParameters = NIKDAST_CROSSTALK,
    tour: RingTour | None = None,
    workers: int = 1,
) -> list[AblationRow]:
    """Evaluate the four feature combinations on one network.

    Variants run through the batch engine.  When no ``tour`` is
    passed, the batch parent builds the floorplan's Step-1 tour once
    and shares it with all four variants, so the ring MILP solves
    once; the two shortcut-enabled variants also share one Step-2
    plan.  Designs equal independent per-variant runs.
    """
    from repro.parallel import BatchCase, BatchSynthesizer

    positions, die = psion_placement(num_nodes)
    network = Network.from_positions(positions, die=die)
    budget = wl_budget or num_nodes
    cases = [
        BatchCase(
            network=network,
            options=_variant_options(variant, budget, loss),
            label=f"ablation/{variant}",
            tour=tour,
        )
        for variant in VARIANTS
    ]
    report = BatchSynthesizer(workers=workers, on_error="raise").run(cases)
    return [
        AblationRow(variant, evaluate_design(design, loss, xtalk))
        for variant, design in zip(VARIANTS, report.designs)
    ]


def run_wavelength_sweep(
    num_nodes: int = 16,
    kind: str = "xring",
    budgets: list[int] | None = None,
    loss: LossParameters = ORING_LOSSES,
    xtalk: CrosstalkParameters = NIKDAST_CROSSTALK,
    workers: int = 1,
) -> list[tuple[int, RingRouterRow]]:
    """Power/SNR vs #wl for one router kind on one network size."""
    positions, die = psion_placement(num_nodes)
    network = Network.from_positions(positions, die=die)
    return sweep_ring_router(
        network, kind, budgets, loss=loss, xtalk=xtalk, pdn=True,
        workers=workers,
    )


def format_ablation(rows: list[AblationRow]) -> str:
    """Pretty-print ablation variants."""
    header = (
        f"{'Variant':<18}{'#wl':>4}{'il_w':>8}{'L':>8}{'C':>5}"
        f"{'P':>9}{'#s':>5}{'SNR_w':>7}"
    )
    lines = [header, "-" * len(header)]
    for item in rows:
        row = item.row
        lines.append(
            f"{item.variant:<18}{row.wl:>4}{row.il_w:>8.2f}{row.length_mm:>8.1f}"
            f"{row.crossings:>5}{row.power_w:>9.3f}{row.noisy:>5}{row.snr_text:>7}"
        )
    return "\n".join(lines)
