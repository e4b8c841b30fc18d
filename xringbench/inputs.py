"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed, so the same seed
gives the same floorplans, cases and request plan.  The program under
test only ever sees the generated networks and job specs.
"""

from __future__ import annotations

import random

#: synth_large: the node count of every design.  At 24 nodes the ring
#: is built by the lazy MILP, as at 32 and 48, and shortcut selection
#: is over 90% of a design, yet a design takes about 1.1 s on a 2-vCPU
#: x86 host, so a 30 s run holds some 25 of them and its median and
#: p90 are not one or two samples.  One size keeps the latencies in
#: one cluster.  N=32 takes 1.7 s, N=48 12 s on this grid.
SYNTH_NODES = 24
#: batch_sweep: batch i holds one floorplan of the i-th size in this
#: cycle.  Small batches give a run some 30 of them, so the median and
#: the tail each fall inside one size's cluster instead of on the
#: slowest of a handful.
BATCH_SIZES = (8, 16, 20)
#: service_mixed: node count of every job, and the offered load.  At 4
#: requests per second the three requests of a rotation are 0.25 s
#: apart, longer than a unique job's solve (0.11-0.18 s on a 2-vCPU
#: x86 host), so a dedup or L2-served request does not land on a solve
#: in progress and wait for it or for the interpreter lock.  At 8 per
#: second the share of requests that landed on one rose and fell with
#: the host's speed, and the median moved by 30% between runs.
SERVICE_NODES = 8
SERVICE_RATE = 4.0
#: Each floorplan is the extended grid, with its fixed irregular
#: per-node offsets, moved by a seeded offset of up to this many mm
#: along each axis.  Every floorplan is new, so no coordinate-keyed
#: cache can hit, while the work per design depends on the node count
#: alone.  Seeded per-node jitter (+-0.1 to +-0.3 mm) or stretching is
#: avoided on purpose: on 1.5-4% of such 16- to 48-node floorplans the ring
#: realization ends with residual crossings, which the output checks
#: reject, and stretching changes the shortcut stage's time by 2x.
SHIFT_MM = 10.0
#: Largest per-node displacement of a service job's floorplan, in mm.
JITTER_MM = 0.3


def _rng(seed: int, *stream) -> random.Random:
    return random.Random(repr((seed,) + stream))


def floorplan_points(nodes: int, rng: random.Random) -> list[tuple[float, float]]:
    """The extended grid of ``nodes`` nodes, moved by a seeded offset."""
    from repro.network.placement import extended_placement

    points, _die = extended_placement(nodes)
    dx, dy = rng.uniform(0.0, SHIFT_MM), rng.uniform(0.0, SHIFT_MM)
    return [(p.x + dx, p.y + dy) for p in points]


def jittered_points(nodes: int, rng: random.Random) -> list[tuple[float, float]]:
    """The extended grid with each node moved by up to +-JITTER_MM.

    Used for the 8-node service jobs only: no residual ring crossing
    showed up on 1500 such floorplans, and the varied geometry keeps
    the solves short, well inside the gap between two requests.
    """
    from repro.network.placement import extended_placement

    points, _die = extended_placement(nodes)
    return [
        (p.x + rng.uniform(-JITTER_MM, JITTER_MM), p.y + rng.uniform(-JITTER_MM, JITTER_MM))
        for p in points
    ]


def network(points):
    from repro.geometry import Point
    from repro.network import Network

    return Network.from_positions([Point(x, y) for x, y in points])


def warmup_network(seed: int):
    """The throwaway 8-node floorplan synthesized during set-up."""
    return network(floorplan_points(8, _rng(seed, "warmup")))


def synth_request(seed: int, index: int):
    """The floorplan of request ``index`` of synth_large."""
    return network(floorplan_points(SYNTH_NODES, _rng(seed, "synth", index)))


def batch_cases(seed: int, index: int):
    """Batch ``index`` of batch_sweep: one floorplan x 8 variants.

    The variants are the Table II row (budget N, shortcuts and
    openings on) and its ablations: budget N/2, shortcuts off,
    openings off, in every combination.
    """
    from repro.core import SynthesisOptions
    from repro.parallel import BatchCase

    nodes = BATCH_SIZES[index % len(BATCH_SIZES)]
    net = network(floorplan_points(nodes, _rng(seed, "batch", index)))
    cases = []
    for budget in (nodes, nodes // 2):
        for shortcuts in (True, False):
            for openings in (True, False):
                label = (
                    f"b{index}n{nodes}wl{budget}"
                    f"{'s' if shortcuts else ''}{'o' if openings else ''}"
                )
                options = SynthesisOptions(
                    wl_budget=budget,
                    enable_shortcuts=shortcuts,
                    enable_openings=openings,
                    label=label,
                )
                cases.append(BatchCase(network=net, options=options, label=label))
    return cases


def service_spec(seed: int, kind: str, index: int) -> dict:
    """One 8-node job spec; ``kind`` names the stream it belongs to."""
    points = jittered_points(SERVICE_NODES, _rng(seed, "service", kind, index))
    return {
        "positions": [[round(x, 6), round(y, 6)] for x, y in points],
        "label": f"{kind}{index}",
    }


def service_plan(seed: int, seconds: float, phase: str) -> list[tuple[str, dict]]:
    """The open-loop request plan of one measured window.

    Requests rotate through three kinds: a unique job, a resubmission
    of the unique job sent two rotations earlier (an in-memory dedup
    hit), and a job an earlier server life solved (an L2 hit).
    ``phase`` keeps the unique jobs of the untraced and traced windows
    apart.
    """
    total = max(3, int(SERVICE_RATE * seconds))
    plan = []
    for i in range(total):
        rotation, kind = divmod(i, 3)
        if kind == 0:
            plan.append(("unique", service_spec(seed, f"{phase}-u", rotation)))
        elif kind == 1:
            plan.append(("dedup", service_spec(seed, f"{phase}-u", max(0, rotation - 2))))
        else:
            plan.append(("l2", service_spec(seed, "primed", rotation)))
    return plan


def primed_specs(seed: int, seconds: float) -> list[dict]:
    """The specs the priming server life solves into the L2."""
    rotations = (max(3, int(SERVICE_RATE * seconds)) + 2) // 3
    return [service_spec(seed, "primed", i) for i in range(rotations)]
