#!/usr/bin/env python
"""Batch-engine benchmark: emits ``BENCH_parallel.json``.

Measures the perf levers of :mod:`repro.parallel` on the scaling
study and the ablation sweep:

- **parallel fan-out** — the scaling study with ``workers=1`` vs
  ``workers=N`` (honest on a 1-CPU container: ``speedup_parallel`` is
  ``null`` with an explanatory note there, because a pool cannot speed
  up a single CPU — the ratio would only measure IPC overhead);
- **Step 1-2 sharing** — the ablation sweep, whose four variants on
  one floorplan share one Step-1 tour built by the batch parent;
- **stages** — psion syntheses at 8 and 16 nodes, per stage and per
  Step-1 sub-layer (``ring.build_model``, ``conflicts.build``,
  ``milp.solve``, ``ring.realizations``);
- **mapping scale** — Steps 3 and 4 alone (``map_signals`` then
  ``build_pdn``) on the 64- and 128-node extended-grid tours, without
  shortcuts: every demand rides the ring, as in the ``plain_ring``
  fallback, which makes this the heaviest mapping input of a size;
- **profiler tax** — one representative synthesis bare vs under the
  sampling profiler (``overhead_frac`` must stay under the <5%
  promise the profiler tests gate);
- **pool vs inline** — batch_sweep-style 8-variant batches (budget N
  and N/2, shortcuts and openings on and off, one seeded floorplan
  each) at N=8, 16 and 20, run by ``BatchSynthesizer(workers=2)`` and
  ``workers=1`` as alternating pairs in one process, so the inline run
  is the same-run reference; plus per-batch rows of traced pool runs
  (parent ring, Step-2 task, dispatch plus IPC, pool start and
  shutdown).

Each scaling phase and the ablation sweep run ``REPEATS`` times, each
stage size ``STAGE_REPEATS`` times and each profiler arm
``PROFILE_REPEATS`` times (bare and profiled runs alternate), and
report the median, the interquartile range and every sample.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_parallel.py --quick

The output JSON is the perf baseline later changes diff against: wall
clock per phase, per-stage and Step-1 sub-layer breakdowns, and
speedups vs ``workers=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.experiments.ablations import run_shortcut_ablation
from repro.experiments.scaling import run_scaling
from repro.obs import atomic_write_text

QUICK_SIZES = (8, 16)
FULL_SIZES = (8, 16, 32)
METHODS = ("milp", "heuristic")
#: Repeats of the N=64 shortcut-stage timing in the lazy-conflicts arm.
SHORTCUT_RUNS = 5
#: Repeats of each scaling phase and of the ablation sweep.
REPEATS = 3
#: Floorplan sizes and repeats of the per-stage timing.
STAGE_SIZES = (8, 16)
STAGE_REPEATS = 7
#: Tour sizes and repeats of the Step 3-4 scale timing.
MAPPING_SIZES = (64, 128)
MAPPING_REPEATS = 5
#: Alternating bare/profiled run pairs of the profiler-tax arm.
PROFILE_REPEATS = 7
#: Batch sizes, alternating pool/inline pairs per size and traced pool
#: batches per size of the pool-vs-inline arm.
POOL_SIZES = (8, 16, 20)
POOL_PAIRS = 12
POOL_TRACED = 5
#: Step-1 spans reported under the ring stage.
RING_LAYERS = (
    "ring.build_model",
    "conflicts.build",
    "milp.solve",
    "ring.realizations",
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _spread(samples: list[float]) -> dict:
    """Median, interquartile range and the samples, in seconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": round(median, 4),
        "iqr_s": round(q3 - q1, 4),
        "samples_s": [round(t, 4) for t in samples],
    }


def _repeated(fn, *args, **kwargs):
    """``(last result, spread)`` of ``REPEATS`` timed calls."""
    samples = []
    for _ in range(REPEATS):
        result, seconds = _timed(fn, *args, **kwargs)
        samples.append(seconds)
    return result, _spread(samples)


def parallel_speedup(
    t_cold: float, t_parallel: float, cpu_count: int | None
) -> tuple[float | None, str]:
    """Honest parallel-speedup figure: ``(speedup, note)``.

    On a single-CPU host a "parallel" pool only adds IPC overhead, so
    the cold/parallel ratio measures the overhead, not a speedup —
    report ``None`` with an explanatory note instead of a misleading
    sub-1 figure.
    """
    if cpu_count is None or cpu_count <= 1:
        return None, (
            f"n/a (cpu_count={cpu_count}): parallel fan-out cannot speed "
            "up a single-CPU host; the parallel phase measures pool "
            "overhead only"
        )
    if t_parallel <= 0:
        return None, "n/a (parallel phase too fast to time)"
    return round(t_cold / t_parallel, 3), ""


def bench_scaling(sizes: tuple[int, ...], workers: int) -> dict:
    """Sequential vs parallel runs of the scaling study."""
    run_scaling(sizes=sizes, methods=METHODS, workers=1)  # warm imports
    rows, sequential = _repeated(
        run_scaling, sizes=sizes, methods=METHODS, workers=1
    )
    _, parallel = _repeated(
        run_scaling, sizes=sizes, methods=METHODS, workers=workers
    )
    t_cold = sequential["median_s"]
    t_parallel = parallel["median_s"]

    speedup, speedup_note = parallel_speedup(t_cold, t_parallel, os.cpu_count())
    if speedup is None:
        print(f"bench_parallel: warning: speedup_parallel {speedup_note}", file=sys.stderr)
    result = {
        "sizes": list(sizes),
        "methods": list(METHODS),
        "workers": workers,
        "wall_clock_s": {
            "cold_workers1": t_cold,
            f"parallel_workers{workers}": t_parallel,
        },
        "repeats": {
            "cold_workers1": sequential,
            f"parallel_workers{workers}": parallel,
        },
        "speedup_parallel": speedup,
        "rows": [
            {
                "num_nodes": r.num_nodes,
                "method": r.method,
                "tour_time_s": round(r.tour_time_s, 4),
                "total_time_s": round(r.total_time_s, 4),
            }
            for r in rows
        ],
    }
    if speedup_note:
        result["speedup_parallel_note"] = speedup_note
    return result


def bench_ablation(num_nodes: int) -> dict:
    """The four-variant ablation sweep on one floorplan."""
    rows, spread = _repeated(run_shortcut_ablation, num_nodes=num_nodes)
    return {
        "num_nodes": num_nodes,
        "variants": [r.variant for r in rows],
        "wall_clock_s": spread["median_s"],
        "repeats": spread,
    }


def _sweep_batch(num_nodes: int, index: int) -> list:
    """Batch ``index`` of the pool-vs-inline arm: the extended grid of
    ``num_nodes`` nodes moved by a seeded offset of up to 10 mm, times
    the eight budget x shortcuts x openings variants."""
    import random

    from repro.core.synthesizer import SynthesisOptions
    from repro.geometry import Point
    from repro.network import Network
    from repro.network.placement import extended_placement
    from repro.parallel import BatchCase

    rng = random.Random(f"batch_pool/{num_nodes}/{index}")
    points, _die = extended_placement(num_nodes)
    dx, dy = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
    network = Network.from_positions([Point(p.x + dx, p.y + dy) for p in points])
    cases = []
    for budget in (num_nodes, num_nodes // 2):
        for shortcuts in (True, False):
            for openings in (True, False):
                label = f"n{num_nodes}wl{budget}{'s' * shortcuts}{'o' * openings}"
                options = SynthesisOptions(
                    wl_budget=budget,
                    enable_shortcuts=shortcuts,
                    enable_openings=openings,
                    label=label,
                )
                cases.append(BatchCase(network=network, options=options, label=label))
    return cases


def _pool_rows(num_nodes: int) -> dict:
    """Per-batch rows of ``POOL_TRACED`` traced ``workers=2`` batches.

    ``parent_ring`` and ``step2_task`` are the ``batch.share.ring`` and
    ``batch.share.shortcuts`` spans; ``dispatch_ipc`` sums, over the
    cases, the time from ``case_start`` to ``case_done`` not spent in
    the case itself; ``pool_start`` and ``pool_shutdown`` time the
    supervisor's worker forks and its shutdown.
    """
    from repro.parallel import BatchSynthesizer
    from repro.parallel.supervisor import WorkerSupervisor

    rows: dict[str, list[float]] = {
        "parent_ring": [],
        "step2_task": [],
        "dispatch_ipc": [],
        "pool_start": [],
        "pool_shutdown": [],
        "total": [],
    }
    timed = {"_spawn_worker": "pool_start", "_shutdown": "pool_shutdown"}
    originals = {name: getattr(WorkerSupervisor, name) for name in timed}
    clock = {row: 0.0 for row in timed.values()}

    def timing(name):
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            try:
                return originals[name](*args, **kwargs)
            finally:
                clock[timed[name]] += time.perf_counter() - began

        return wrapper

    for name in timed:
        setattr(WorkerSupervisor, name, timing(name))
    try:
        for index in range(POOL_TRACED):
            cases = _sweep_batch(num_nodes, 1000 + index)
            events: list[tuple[float, dict]] = []
            for row in clock:
                clock[row] = 0.0
            report, seconds = _timed(
                BatchSynthesizer(
                    workers=2,
                    collect_spans=True,
                    on_event=lambda e: events.append((time.perf_counter(), e)),
                ).run,
                cases,
            )
            spans = report.span_records
            for row, name in (
                ("parent_ring", "batch.share.ring"),
                ("step2_task", "batch.share.shortcuts"),
            ):
                rows[row].append(
                    sum(s["duration_s"] for s in spans if s["name"] == name)
                )
            starts = {e["index"]: t for t, e in events if e["event"] == "case_start"}
            elapsed = {r.index: r.elapsed_s for r in report.results}
            rows["dispatch_ipc"].append(
                sum(
                    t - starts[e["index"]] - elapsed[e["index"]]
                    for t, e in events
                    if e["event"] == "case_done"
                )
            )
            for row, seconds_in in clock.items():
                rows[row].append(seconds_in)
            rows["total"].append(seconds)
    finally:
        for name, original in originals.items():
            setattr(WorkerSupervisor, name, original)
    return {row: _spread(samples) for row, samples in rows.items()}


def bench_batch_pool(
    sizes: tuple[int, ...] = POOL_SIZES, pairs: int = POOL_PAIRS
) -> dict:
    """``workers=2`` against ``workers=1`` on the same 8-case batches.

    Each pair runs one batch both ways, alternating which goes first;
    every pair's designs must agree (``result_digest``).  Reports, per
    size, both spreads, the median over pairs of the pool-over-inline
    ratio (one floorplan per pair, so its ring and Step-2 cost cancel),
    the pairs the pool won, and the traced per-batch rows.
    """
    from repro.parallel import BatchSynthesizer, result_digest

    BatchSynthesizer(workers=2).run(_sweep_batch(8, -1))  # warm imports
    result = {}
    for num_nodes in sizes:
        runs: dict[int, list[float]] = {1: [], 2: []}
        won = 0
        designs_equal = True
        for index in range(pairs):
            cases = _sweep_batch(num_nodes, index)
            digests = {}
            for workers in (2, 1) if index % 2 == 0 else (1, 2):
                report, seconds = _timed(BatchSynthesizer(workers=workers).run, cases)
                assert report.ok, report.errors
                runs[workers].append(seconds)
                digests[workers] = [result_digest(r) for r in report.results]
            won += runs[2][-1] < runs[1][-1]
            designs_equal = designs_equal and digests[1] == digests[2]
        result[str(num_nodes)] = {
            "num_nodes": num_nodes,
            "pairs": pairs,
            "cpu_count": os.cpu_count(),
            "pool_workers2": _spread(runs[2]),
            "inline_workers1": _spread(runs[1]),
            "pool_over_inline": round(
                statistics.median(p / i for p, i in zip(runs[2], runs[1])), 3
            ),
            "pairs_won_by_pool": won,
            "designs_equal": designs_equal,
            "pool_rows_s": _pool_rows(num_nodes),
        }
    return result


def bench_stages(sizes: tuple[int, ...] = STAGE_SIZES) -> dict:
    """Per-stage and Step-1 sub-layer wall clock of warm syntheses.

    Each psion floorplan is synthesized once to warm imports, then
    ``STAGE_REPEATS`` times under a real tracer; the ring stage's
    sub-layers are the summed durations of its ``RING_LAYERS`` spans.
    """
    from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
    from repro.network import Network
    from repro.network.placement import psion_placement
    from repro.obs import MetricsRegistry, ObsContext, Tracer, use_obs

    result = {}
    for num_nodes in sizes:
        points, die = psion_placement(num_nodes)
        network = Network.from_positions(points, die=die)
        options = SynthesisOptions(wl_budget=num_nodes)
        XRingSynthesizer(network, options).run()
        totals: list[float] = []
        stages: dict[str, list[float]] = {}
        layers: dict[str, list[float]] = {name: [] for name in RING_LAYERS}
        for _ in range(STAGE_REPEATS):
            tracer = Tracer()
            with use_obs(ObsContext(tracer, MetricsRegistry())):
                synth = XRingSynthesizer(network, options)
                design, elapsed = _timed(synth.run)
            totals.append(elapsed)
            for stage, seconds in design.report.stage_elapsed_s.items():
                stages.setdefault(stage, []).append(seconds)
            spans = tracer.finished_spans()
            for name, samples in layers.items():
                samples.append(
                    sum(span.duration_s for span in spans if span.name == name)
                )
        result[str(num_nodes)] = {
            "num_nodes": num_nodes,
            "repeats": STAGE_REPEATS,
            "cpu_count": os.cpu_count(),
            "total": _spread(totals),
            "stage_elapsed_s": {
                stage: _spread(samples) for stage, samples in stages.items()
            },
            "ring_layers_s": {
                name: _spread(samples) for name, samples in layers.items()
            },
        }
    return result


def bench_mapping_scale(sizes: tuple[int, ...] = MAPPING_SIZES) -> dict:
    """Steps 3-4 wall clock on large extended-grid tours.

    The tour is built once per size; ``map_signals`` (all-to-all
    demands, no shortcut plan, one wavelength per node) and
    ``build_pdn`` on its result then run ``MAPPING_REPEATS`` times.
    """
    from repro.core.mapping import map_signals
    from repro.core.pdn import build_pdn
    from repro.core.ring import construct_ring_tour
    from repro.core.shortcuts import ShortcutPlan
    from repro.network.placement import extended_placement
    from repro.network.traffic import all_to_all
    from repro.photonics.parameters import ORING_LOSSES

    result = {}
    for num_nodes in sizes:
        points, die = extended_placement(num_nodes)
        tour = construct_ring_tour(list(points))
        demands = all_to_all(num_nodes)
        mapping_runs, pdn_runs = [], []
        for _ in range(MAPPING_REPEATS):
            mapping, seconds = _timed(
                map_signals, tour, demands, ShortcutPlan(), num_nodes
            )
            mapping_runs.append(seconds)
            _, seconds = _timed(
                build_pdn, tour, mapping, ShortcutPlan(), ORING_LOSSES, die
            )
            pdn_runs.append(seconds)
        result[str(num_nodes)] = {
            "num_nodes": num_nodes,
            "repeats": MAPPING_REPEATS,
            "cpu_count": os.cpu_count(),
            "map_signals": _spread(mapping_runs),
            "build_pdn": _spread(pdn_runs),
            "ring_waveguides": len(mapping.rings),
            "wavelengths": len(mapping.used_wavelengths),
        }
    return result


def bench_profile(num_nodes: int) -> dict:
    """Profiler tax: the same cold synthesis bare vs sampled.

    ``overhead_frac`` is the figure the perf sentinel guards — the
    sampling profiler promises <5% overhead, so a regression here
    means the sampler loop got more expensive, not the synthesis.
    After one warm-up, ``PROFILE_REPEATS`` bare and profiled runs
    alternate, so host drift hits both arms alike; the overhead is the
    ratio of the two medians, and the stage attribution pools the
    samples of every profiled run.
    """
    from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
    from repro.network import Network
    from repro.network.placement import psion_placement
    from repro.obs import SamplingProfiler

    points, die = psion_placement(num_nodes)

    def run_once(profiled: bool) -> tuple[float, dict]:
        network = Network.from_positions(points, die=die)
        synth = XRingSynthesizer(network, SynthesisOptions(wl_budget=num_nodes))
        if not profiled:
            _, elapsed = _timed(synth.run)
            return elapsed, {}
        profiler = SamplingProfiler()
        profiler.start()
        try:
            _, elapsed = _timed(synth.run)
        finally:
            profiler.stop()
        return elapsed, profiler.stage_attribution()

    run_once(False)  # warm imports so neither arm pays them
    bare, profiled, samples = [], [], {}
    hz = None
    for _ in range(PROFILE_REPEATS):
        bare.append(run_once(False)[0])
        elapsed, attribution = run_once(True)
        profiled.append(elapsed)
        hz = attribution["hz"]
        for stage, stats in attribution["stages"].items():
            samples[stage] = samples.get(stage, 0) + stats["samples"]
    bare_s, profiled_s = _spread(bare), _spread(profiled)
    total = sum(samples.values())
    return {
        "num_nodes": num_nodes,
        "repeats": PROFILE_REPEATS,
        "bare_s": bare_s,
        "profiled_s": profiled_s,
        "overhead_frac": round(
            max(0.0, profiled_s["median_s"] / bare_s["median_s"] - 1.0), 4
        ),
        "hz": hz,
        "samples": total,
        "stage_attribution": {
            stage: round(n / total, 4) for stage, n in sorted(samples.items())
        },
    }


def bench_lazy_conflicts(num_nodes: int, scalar_ref_nodes: int) -> dict:
    """N=64 arm: vectorized conflict kernel + lazy cutting-plane MILP.

    Times the bulk conflict build at ``num_nodes`` and both builders at
    ``scalar_ref_nodes`` (the scalar oracle is O(n^4); running it at 64
    nodes costs minutes, so quick mode references a smaller size), then
    a full lazy-mode synthesis.  The eager ring is timed at
    ``scalar_ref_nodes`` only — at 64 nodes the eager model (every
    constraint-(3) row materialized) takes upwards of ten minutes,
    which is precisely what the cutting-plane loop eliminates.  The
    lazy wall clock is the headline figure.  The shortcut
    stage, the largest share of that wall clock, is then re-run alone
    on the synthesized tour ``SHORTCUT_RUNS`` times and reported as
    median and interquartile range.
    """
    from repro.core.ring import construct_ring_tour
    from repro.core.shortcuts import select_shortcuts
    from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
    from repro.geometry import (
        build_edge_conflicts_bulk,
        build_edge_conflicts_scalar,
    )
    from repro.network import Network
    from repro.network.placement import extended_placement
    from repro.obs import ObsContext, use_obs
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import NULL_TRACER

    points, die = extended_placement(num_nodes)
    _, t_bulk = _timed(build_edge_conflicts_bulk, points)
    ref_points, _ = extended_placement(scalar_ref_nodes)
    _, t_scalar_ref = _timed(build_edge_conflicts_scalar, ref_points)
    _, t_bulk_ref = _timed(build_edge_conflicts_bulk, ref_points)

    # The ambient registry is a no-op by default; the round/cut
    # counters only exist inside a real one.
    metrics = MetricsRegistry()

    network = Network.from_positions(points, die=die)
    synth = XRingSynthesizer(
        network, SynthesisOptions(wl_budget=num_nodes, lazy_conflicts=True)
    )
    with use_obs(ObsContext(NULL_TRACER, metrics)):
        design, t_lazy = _timed(synth.run)
    cut_rounds = metrics.counter("ring.lazy.rounds").value
    cuts_added = metrics.counter("ring.lazy.cuts_added").value

    shortcut_runs = []
    for _ in range(SHORTCUT_RUNS):
        _, seconds = _timed(
            select_shortcuts,
            design.tour,
            loss=synth.options.loss,
            demands=network.demands(),
        )
        shortcut_runs.append(seconds)
    shortcuts_stage = _spread(shortcut_runs)

    _, t_eager_ring_ref = _timed(
        construct_ring_tour, list(ref_points), lazy=False
    )
    _, t_lazy_ring_ref = _timed(
        construct_ring_tour, list(ref_points), lazy=True
    )
    _, t_lazy_ring = _timed(construct_ring_tour, list(points), lazy=True)

    return {
        "num_nodes": num_nodes,
        "conflict_build_bulk_s": round(t_bulk, 4),
        "scalar_ref_nodes": scalar_ref_nodes,
        "conflict_build_scalar_ref_s": round(t_scalar_ref, 4),
        "conflict_build_bulk_ref_s": round(t_bulk_ref, 4),
        "bulk_speedup_at_ref": round(t_scalar_ref / max(t_bulk_ref, 1e-9), 2),
        "lazy_total_s": round(t_lazy, 4),
        "lazy_stage_elapsed_s": {
            stage: round(seconds, 4)
            for stage, seconds in design.report.stage_elapsed_s.items()
        },
        "ring_eager_ref_s": round(t_eager_ring_ref, 4),
        "ring_lazy_ref_s": round(t_lazy_ring_ref, 4),
        "ring_lazy_s": round(t_lazy_ring, 4),
        "ring_eager_note": (
            f"eager ring timed at {scalar_ref_nodes} nodes; the eager "
            f"model at {num_nodes} nodes takes >10 minutes to build and "
            "solve, which the lazy cutting-plane loop avoids"
        ),
        "cut_rounds": cut_rounds,
        "cuts_added": cuts_added,
        "shortcuts_stage": {
            "runs": SHORTCUT_RUNS,
            **shortcuts_stage,
            "selected": len(design.shortcut_plan.shortcuts),
            "cpu_count": os.cpu_count(),
        },
        "tour_length_mm": round(design.tour.length_mm, 4),
        "tour_crossings": design.tour.crossing_count,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scaling sizes (8, 16) instead of (8, 16, 32)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="worker count for the parallel phase (default: 2..4 by CPU)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_parallel.json",
        help="output path (default: BENCH_parallel.json)",
    )
    parser.add_argument(
        "--history-dir",
        default="",
        help="append a kind='bench' run record to the ledger in this "
        "directory (consumed by 'xring regress' / 'xring report')",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    payload = {
        "benchmark": "repro.parallel batch engine",
        "quick": args.quick,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scaling": bench_scaling(sizes, args.workers),
        "ablation_sweep": bench_ablation(num_nodes=16),
        "stages": bench_stages(),
        "mapping_scale": bench_mapping_scale(),
        "profile": bench_profile(num_nodes=16),
        "lazy_conflicts": bench_lazy_conflicts(
            num_nodes=64, scalar_ref_nodes=32
        ),
        "batch_pool": bench_batch_pool(),
    }

    # Atomic write: a killed benchmark never leaves a truncated
    # baseline for later runs to diff against.
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if args.history_dir:
        from repro.obs import RunLedger, RunRecord, stage_latency_from_elapsed

        scaling = payload["scaling"]
        clocks = scaling["wall_clock_s"]
        stages16 = payload["stages"]["16"]
        record = RunRecord.build(
            "bench",
            "bench_parallel-quick" if args.quick else "bench_parallel",
            wall_s=sum(clocks.values())
            + payload["ablation_sweep"]["wall_clock_s"]
            + stages16["total"]["median_s"],
            stage_latency=stage_latency_from_elapsed(
                {
                    stage: spread["median_s"]
                    for stage, spread in stages16["stage_elapsed_s"].items()
                }
            ),
            extra={
                "phase_wall_clock_s": dict(clocks),
                "speedup_parallel": scaling["speedup_parallel"],
                "profiler_overhead_frac": payload["profile"][
                    "overhead_frac"
                ],
                "lazy_conflicts": {
                    "num_nodes": payload["lazy_conflicts"]["num_nodes"],
                    "conflict_build_bulk_s": payload["lazy_conflicts"][
                        "conflict_build_bulk_s"
                    ],
                    "conflict_build_scalar_ref_s": payload["lazy_conflicts"][
                        "conflict_build_scalar_ref_s"
                    ],
                    "lazy_total_s": payload["lazy_conflicts"]["lazy_total_s"],
                    "cut_rounds": payload["lazy_conflicts"]["cut_rounds"],
                    "cuts_added": payload["lazy_conflicts"]["cuts_added"],
                },
                "profile": {
                    "samples": payload["profile"]["samples"],
                    "hz": payload["profile"]["hz"],
                    "stages": {
                        stage: {"fraction": fraction}
                        for stage, fraction in payload["profile"][
                            "stage_attribution"
                        ].items()
                    },
                },
            },
        )
        ledger = RunLedger(args.history_dir)
        ledger.append(record)
        print(f"history recorded: {record.run_id} -> {ledger.path}", file=sys.stderr)

    scaling = payload["scaling"]
    clocks = scaling["wall_clock_s"]
    speedup = scaling["speedup_parallel"]
    speedup_text = "n/a" if speedup is None else f"{speedup}x"
    print(f"wrote {args.out}")
    print(
        f"  scaling: cold={clocks['cold_workers1']}s"
        f" parallel(x{scaling['workers']})="
        f"{clocks['parallel_workers%d' % scaling['workers']]}s"
        f" (medians of {REPEATS}) | speedup parallel={speedup_text}"
    )
    ablation = payload["ablation_sweep"]
    print(
        f"  ablation: {ablation['wall_clock_s']}s"
        f" (IQR {ablation['repeats']['iqr_s']}s)"
    )
    for size, stage in payload["stages"].items():
        layers = " ".join(
            f"{name}={spread['median_s']}s"
            for name, spread in stage["ring_layers_s"].items()
        )
        print(
            f"  stages N={size}: total={stage['total']['median_s']}s"
            f" (IQR {stage['total']['iqr_s']}s,"
            f" {stage['repeats']} runs) | ring {layers}"
        )
    for size, scale in payload["mapping_scale"].items():
        print(
            f"  mapping scale N={size}:"
            f" map_signals={scale['map_signals']['median_s']}s"
            f" (IQR {scale['map_signals']['iqr_s']}s)"
            f" build_pdn={scale['build_pdn']['median_s']}s"
            f" (IQR {scale['build_pdn']['iqr_s']}s, {scale['repeats']} runs)"
        )
    profile = payload["profile"]
    print(
        f"  profiler: bare={profile['bare_s']['median_s']}s"
        f" profiled={profile['profiled_s']['median_s']}s"
        f" overhead={profile['overhead_frac']:.1%}"
        f" (medians of {profile['repeats']} runs,"
        f" {profile['samples']} samples @ {profile['hz']}Hz)"
    )
    lazy = payload["lazy_conflicts"]
    print(
        f"  lazy conflicts (N={lazy['num_nodes']}):"
        f" total={lazy['lazy_total_s']}s"
        f" bulk-build={lazy['conflict_build_bulk_s']}s"
        f" rounds={lazy['cut_rounds']} cuts={lazy['cuts_added']}"
        f" shortcuts={lazy['shortcuts_stage']['median_s']}s"
        f" (IQR {lazy['shortcuts_stage']['iqr_s']}s,"
        f" {lazy['shortcuts_stage']['runs']} runs)"
        f" | ring eager/lazy @N={lazy['scalar_ref_nodes']}:"
        f" {lazy['ring_eager_ref_s']}s/{lazy['ring_lazy_ref_s']}s"
    )
    for size, pool in payload["batch_pool"].items():
        rows = " ".join(
            f"{name}={spread['median_s']}s"
            for name, spread in pool["pool_rows_s"].items()
        )
        print(
            f"  batch pool N={size}:"
            f" workers2={pool['pool_workers2']['median_s']}s"
            f" (IQR {pool['pool_workers2']['iqr_s']}s)"
            f" workers1={pool['inline_workers1']['median_s']}s"
            f" (IQR {pool['inline_workers1']['iqr_s']}s)"
            f" ratio={pool['pool_over_inline']}"
            f" won {pool['pairs_won_by_pool']}/{pool['pairs']}"
            f" | {rows}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
