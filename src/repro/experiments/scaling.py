"""Scaling study beyond the paper's 32 nodes (extension experiment E6).

The paper's conclusion highlights computational efficiency ("within
one second" including the PDN).  This harness measures how both Step-1
algorithms — the exact MILP and the heuristic construction
(:mod:`repro.core.heuristic_ring`) — scale with network size, and how
the synthesized quality (tour length, worst-case insertion loss,
laser power) tracks between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.synthesizer import SynthesisOptions
from repro.experiments.common import RingRouterRow, evaluate_design
from repro.network import Network
from repro.network.placement import extended_placement, psion_placement
from repro.photonics.parameters import (
    NIKDAST_CROSSTALK,
    ORING_LOSSES,
    CrosstalkParameters,
    LossParameters,
)


@dataclass(frozen=True)
class ScalingRow:
    """One (size, method) measurement.

    ``solver_stats`` carries the run's solver counters (solve outcomes,
    HiGHS branch-and-bound nodes, ...) from the metrics snapshot.
    """

    num_nodes: int
    method: str
    tour_length_mm: float
    tour_time_s: float
    total_time_s: float
    row: RingRouterRow
    solver_stats: dict[str, int] = field(default_factory=dict)


def _network(num_nodes: int) -> Network:
    try:
        points, die = psion_placement(num_nodes)
    except ValueError:
        points, die = extended_placement(num_nodes)
    return Network.from_positions(points, die=die)


def run_scaling(
    sizes: tuple[int, ...] = (8, 16, 32, 64),
    methods: tuple[str, ...] = ("milp", "heuristic"),
    milp_limit: int = 32,
    loss: LossParameters = ORING_LOSSES,
    xtalk: CrosstalkParameters = NIKDAST_CROSSTALK,
    workers: int = 1,
) -> list[ScalingRow]:
    """Measure synthesis time and quality per size and method.

    The MILP is skipped above ``milp_limit`` nodes (its conflict-set
    construction grows quartically with N).  Every (size, method) cell
    is one batch case — ``workers>1`` runs cells in parallel — and
    Step 1 now runs *inside* the synthesizer (``ring_method`` selects
    the algorithm), so the tour time is the ring stage's elapsed time
    from the run's own :class:`~repro.robustness.report.SynthesisReport`.
    """
    from repro.parallel import BatchCase, BatchSynthesizer

    cells: list[tuple[int, str]] = [
        (num_nodes, method)
        for num_nodes in sizes
        for method in methods
        if not (method == "milp" and num_nodes > milp_limit)
    ]
    cases = [
        BatchCase(
            network=_network(num_nodes),
            options=SynthesisOptions(
                wl_budget=num_nodes,
                loss=loss,
                ring_method=method,
                label=f"scaling/{num_nodes}/{method}",
            ),
        )
        for num_nodes, method in cells
    ]
    report = BatchSynthesizer(workers=workers, on_error="raise").run(cases)

    rows: list[ScalingRow] = []
    for (num_nodes, method), design in zip(cells, report.designs):
        run_report = design.report
        solver_stats = {
            name: int(value)
            for name, value in run_report.metrics["counters"].items()
            if name.startswith("milp.")
        }
        rows.append(
            ScalingRow(
                num_nodes=num_nodes,
                method=method,
                tour_length_mm=design.tour.length_mm,
                tour_time_s=run_report.stage_elapsed_s["ring"],
                total_time_s=design.synthesis_time_s,
                row=evaluate_design(design, loss, xtalk),
                solver_stats=solver_stats,
            )
        )
    return rows


def format_scaling(rows: list[ScalingRow]) -> str:
    """Pretty-print the scaling study."""
    header = (
        f"{'N':>4}{'method':>11}{'ring(mm)':>10}{'t_tour(s)':>11}"
        f"{'t_total(s)':>11}{'il_w':>7}{'P(W)':>9}{'#s':>5}"
        f"{'bb_nodes':>9}"
    )
    lines = [header, "-" * len(header)]
    for item in rows:
        lines.append(
            f"{item.num_nodes:>4}{item.method:>11}{item.tour_length_mm:>10.1f}"
            f"{item.tour_time_s:>11.2f}{item.total_time_s:>11.2f}"
            f"{item.row.il_w:>7.2f}{item.row.power_w:>9.3f}{item.row.noisy:>5}"
            f"{item.solver_stats.get('milp.bb.nodes', 0):>9}"
        )
    return "\n".join(lines)
