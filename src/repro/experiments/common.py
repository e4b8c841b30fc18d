"""Shared experiment plumbing: evaluation rows and #wl sweeps.

The paper's methodology for every ring router is "try different
settings of #wl and pick the one with the best objective" (min power,
max SNR, or min worst-case insertion loss).  ``sweep_ring_router``
synthesizes one design per budget (sharing the Step-1 tour across the
sweep) and ``best_setting`` picks the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis import evaluate_circuit
from repro.baselines.ring.ornoc import ornoc_options
from repro.baselines.ring.oring import oring_options
from repro.core.design import XRingDesign
from repro.core.ring import RingTour, construct_ring_tour
from repro.core.synthesizer import SynthesisOptions
from repro.network import Network
from repro.photonics.parameters import (
    NIKDAST_CROSSTALK,
    ORING_LOSSES,
    CrosstalkParameters,
    LossParameters,
)
from repro.robustness import ConfigurationError


@dataclass(frozen=True)
class RingRouterRow:
    """One table row for a ring router (Tables I-III columns)."""

    label: str
    wl: int
    il_w: float
    length_mm: float
    crossings: int
    power_w: float
    noisy: int
    snr_w: float | None
    time_s: float
    signal_count: int = 0
    #: Whether any synthesis stage fell back, repaired, or was skipped
    #: (from the design's SynthesisReport); clean runs stay False.
    degraded: bool = False
    #: The fallbacks taken, as "stage:fallback" strings, for table
    #: footnotes and result auditing.
    fallbacks: tuple[str, ...] = ()
    #: Branch-and-bound nodes HiGHS explored.
    bb_nodes: int = 0

    @property
    def snr_text(self) -> str:
        """SNR formatted the way the paper prints it ("-" for none)."""
        return "-" if self.snr_w is None else f"{self.snr_w:.1f}"


def _router_options(kind: str, wl_budget: int, loss: LossParameters, pdn: bool):
    if kind == "xring":
        return SynthesisOptions(
            wl_budget=wl_budget,
            pdn_mode="internal" if pdn else None,
            loss=loss,
            label="xring",
        )
    if kind == "ornoc":
        return ornoc_options(wl_budget, loss, pdn)
    if kind == "oring":
        return oring_options(wl_budget, loss, pdn)
    raise ConfigurationError(
        f"unknown ring router kind {kind!r}; allowed: 'xring', 'ornoc', 'oring'",
        context={"kind": kind},
    )


def evaluate_design(
    design: XRingDesign,
    loss: LossParameters,
    xtalk: CrosstalkParameters | None,
) -> RingRouterRow:
    """Lower a design to a circuit, analyze it, and build a table row."""
    circuit = design.to_circuit(loss, xtalk or NIKDAST_CROSSTALK)
    with_power = design.pdn is not None
    evaluation = evaluate_circuit(circuit, loss, xtalk, with_power=with_power)
    report = design.report
    return RingRouterRow(
        label=design.label,
        wl=evaluation.wl_count,
        il_w=evaluation.il_w,
        length_mm=evaluation.worst_length_mm,
        crossings=evaluation.worst_crossings,
        power_w=evaluation.power_w,
        noisy=evaluation.noisy_signals,
        snr_w=evaluation.snr_worst_db,
        time_s=design.synthesis_time_s,
        signal_count=evaluation.signal_count,
        degraded=report.degraded if report is not None else False,
        fallbacks=report.fallbacks if report is not None else (),
        bb_nodes=report.counter("milp.bb.nodes") if report else 0,
    )


def default_budgets(num_nodes: int) -> list[int]:
    """A representative #wl sweep: from N/2 to 2N in coarse steps."""
    lo = max(2, num_nodes // 2)
    hi = 2 * num_nodes
    step = max(1, num_nodes // 8)
    budgets = sorted(set(range(lo, hi + 1, step)) | {num_nodes - 1, num_nodes})
    return [b for b in budgets if b >= 2]


def sweep_ring_router(
    network: Network,
    kind: str,
    budgets: list[int] | None = None,
    *,
    tour: RingTour | None = None,
    loss: LossParameters = ORING_LOSSES,
    xtalk: CrosstalkParameters | None = NIKDAST_CROSSTALK,
    pdn: bool = True,
    workers: int = 1,
    retries: int = 0,
    case_timeout_s: float | None = None,
) -> list[tuple[int, RingRouterRow]]:
    """Synthesize and evaluate one design per #wl budget.

    The Step-1 tour is constructed once and reused across the sweep
    (and may be shared between routers by passing ``tour``), matching
    the paper's methodology of comparing wavelength settings on a
    fixed ring.  Synthesis fans out over the batch engine
    (``workers>1`` uses a supervised process pool); evaluation stays
    in-process.  ``retries``/``case_timeout_s`` opt the sweep into the
    supervisor's retry and watchdog policy — off by default, so a
    deterministic solver failure still fails the experiment fast
    rather than burning a retry budget.
    """
    from repro.parallel import BatchCase, BatchSynthesizer, SupervisorConfig

    if tour is None:
        tour = construct_ring_tour(list(network.positions))
    budgets = budgets or default_budgets(network.size)
    cases = [
        BatchCase(
            network=network,
            options=_router_options(kind, budget, loss, pdn),
            label=f"{kind}/wl{budget}",
            tour=tour,
        )
        for budget in budgets
    ]
    config = SupervisorConfig(
        max_attempts=max(1, retries + 1), case_timeout_s=case_timeout_s
    )
    report = BatchSynthesizer(
        workers=workers, on_error="raise", config=config
    ).run(cases)
    return [
        (budget, evaluate_design(design, loss, xtalk))
        for budget, design in zip(budgets, report.designs)
    ]


def best_setting(
    rows: list[tuple[int, RingRouterRow]], objective: str
) -> RingRouterRow:
    """Pick the best row: ``"power"``, ``"snr"`` or ``"il"``.

    A noise-free design (``snr_w is None``) is the best possible SNR.
    Ties prefer fewer wavelengths (the sweep is ordered by budget).
    """
    if not rows:
        raise ValueError("empty sweep")
    if objective == "power":
        return min(rows, key=lambda item: (item[1].power_w, item[1].wl))[1]
    if objective == "il":
        return min(rows, key=lambda item: (item[1].il_w, item[1].wl))[1]
    if objective == "snr":
        # Ties (e.g. several noise-free settings) break towards the
        # cheaper configuration — the paper's 16/32-node rows use one
        # setting for both objectives.
        def snr_key(item):
            row = item[1]
            snr = math.inf if row.snr_w is None else row.snr_w
            return (-snr, row.power_w, row.wl)

        return min(rows, key=snr_key)[1]
    raise ValueError(f"unknown objective {objective!r}")
