"""The two in-process workloads: synth_large and batch_sweep.

Each ``*_window`` function runs one measured window and returns a
:class:`Window`; the caller decides whether spans are recorded.

A window is a closed loop: a request, then the output checks of its
designs, then the next request, until the requests together have taken
``seconds``.  The checks run between requests, outside their timing,
so no design outlives its check and memory does not grow with the
number of requests.  Every request works on a new floorplan, and the
synthesis caches are keyed by floorplan, so each request starts with
them cleared: a later request could never hit what an earlier one
left, and the dead entries would only make memory depend on how many
requests fit in the window.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from checks import check_design, degraded, quality
from harness import STAGES, busy, count, mean, median
from inputs import BATCH_SIZES, SYNTH_NODES, batch_cases, synth_request, warmup_network

#: Designs of each run whose quality is reported: the first three of
#: synth_large, the first batch of each size of batch_sweep.
QUALITY_PREFIX = {"synth_large": 3, "batch_sweep": 8 * len(BATCH_SIZES)}

BATCH_WORKERS = 2
CACHE_SECTIONS = ("conflicts", "models", "tours", "edges_conflict_memo")


@dataclass
class Window:
    """What one measured window produced."""

    latencies: list[float] = field(default_factory=list)
    #: Seconds the throughput is taken over: the requests' own time in
    #: the in-process workloads, first send to last reply in the service.
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    designs: int = 0
    degraded: int = 0
    #: Output-check failures (the run is then incorrect).
    problems: list[str] = field(default_factory=list)
    #: Requests that failed or were refused.
    errors: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    #: Per-layer metrics (traced windows only).
    layers: dict = field(default_factory=dict)
    #: Budget rows, seconds per request: ``(row, seconds)``.
    budget: list = field(default_factory=list)
    #: Designs the quality metrics cover.
    quality_n: int = 0
    #: ``(design, evaluation)`` of the first designs, for the quality metrics.
    evaluated: list = field(default_factory=list)
    #: Solver counters of the checked designs' reports, summed.
    counters: dict = field(default_factory=dict)
    #: Cache hits and misses per section, summed over the requests.
    cache: dict = field(default_factory=dict)
    #: Raw records of a service window, for its per-layer metrics.
    service: dict = field(default_factory=dict)


def warm_up(seed: int) -> None:
    """Throwaway syntheses: imports and first-solve cost, through both
    the eager ring model (below 24 nodes) and the lazy one (above)."""
    from repro.core import SynthesisOptions, XRingSynthesizer

    for lazy in (False, True):
        XRingSynthesizer(warmup_network(seed), SynthesisOptions(lazy_conflicts=lazy)).run()


def add_counters(totals: dict, design) -> None:
    """Add ``design``'s report counters into ``totals``."""
    for name, value in design.report.metrics.get("counters", {}).items():
        totals[name] = totals.get(name, 0) + value


def check_request(window: Window, designs, keep: int) -> bool:
    """Output checks on one request's ``(budget, design)`` pairs.

    Designs that pass are counted; the first ``keep`` of the window are
    kept for the quality metrics.  Returns whether every design passed.
    """
    passed = True
    for budget, design in designs:
        problems, evaluation = check_design(design, budget)
        window.problems.extend(f"{design.label}: {p}" for p in problems)
        passed = passed and not problems
        window.degraded += degraded(design)
        add_counters(window.counters, design)
        if len(window.evaluated) < keep:
            window.evaluated.append((design, evaluation))
    if passed:
        window.designs += len(designs)
    else:
        window.failed += 1
    return passed


def add_cache(window: Window, stats) -> None:
    """Add one request's cache-section hits and misses."""
    for section in CACHE_SECTIONS:
        counts = stats.get(section, {})
        totals = window.cache.setdefault(section, [0, 0])
        totals[0] += counts.get("hits", 0)
        totals[1] += counts.get("misses", 0)


def cache_layers(window: Window) -> dict[str, float]:
    rates = {}
    for section in CACHE_SECTIONS:
        hits, misses = window.cache.get(section, (0, 0))
        rates[f"cache.{section}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    return rates


def finish(window: Window, prefix: int) -> None:
    window.quality = quality(window.evaluated[:prefix])
    window.quality_n = min(prefix, len(window.evaluated))


def child_rows(spans, parent: str) -> dict[str, float]:
    """Seconds per name of the spans directly under ``parent`` spans."""
    parents = {s["id"] for s in spans if s["name"] == parent}
    rows: dict[str, float] = {}
    for span in spans:
        if span.get("parent") in parents:
            rows[span["name"]] = rows.get(span["name"], 0.0) + span["end"] - span["start"]
    return rows


def synthesis_layers(spans, counters: dict, designs: int, runs: int | None = None) -> dict[str, float]:
    """Per-design synthesis-layer metrics.

    Span rows are divided by ``runs`` (the ``run()`` calls the spans
    cover, by default one per design); solver ``counters``, summed over
    ``designs`` designs, are divided by their number.
    """
    n = max(1, designs if runs is None else runs)
    per_design = max(1, designs)
    candidates = counters.get("shortcuts.candidates", 0)
    selected = counters.get("shortcuts.selected", 0)
    stage_rows = child_rows(spans, "synth")
    synth_s = busy(spans, "synth")
    return {
        "shortcuts.busy_s": busy(spans, "shortcuts") / n,
        "shortcuts.candidates": candidates / per_design,
        "shortcuts.selected": selected / per_design,
        "shortcuts.yield": selected / candidates if candidates else 0.0,
        "ring.busy_s": busy(spans, "ring") / n,
        "ring.calls": count(spans, "ring") / n,
        "ring.lazy_rounds": counters.get("ring.lazy.rounds", 0) / per_design,
        "ring.cuts_added": counters.get("ring.lazy.cuts_added", 0) / per_design,
        "milp.solve_s": busy(spans, "milp.solve") / n,
        "milp.solves": count(spans, "milp.solve") / n,
        "conflicts.build_s": busy(spans, "conflicts.build") / n,
        "mapping.busy_s": busy(spans, "mapping") / n,
        "mapping.calls": count(spans, "mapping") / n,
        "pdn.busy_s": busy(spans, "pdn") / n,
        "validate.busy_s": busy(spans, "validate") / n,
        "validate.calls": count(spans, "validate") / n,
        "synth.unattributed_s": (synth_s - sum(stage_rows.values())) / n,
    }


def synth_rows(spans, per: int) -> list[tuple[str, float]]:
    """Stage rows of the designs' ``run()`` calls, seconds per request."""
    rows = child_rows(spans, "synth")
    names = list(STAGES) + sorted(set(rows) - set(STAGES))
    return [(f"synth.{name}", rows.get(name, 0.0) / per) for name in names]


# -- synth_large -------------------------------------------------------------
def synth_window(seed: int, seconds: float, spans=None) -> Window:
    """Closed loop, one caller: a new design is requested as soon as the
    last one is checked, until the requests have taken ``seconds``."""
    from repro.core import SynthesisOptions, XRingSynthesizer
    from repro.parallel import clear_caches, get_cache

    window = Window()
    prefix = QUALITY_PREFIX["synth_large"]
    index = 0
    while index < prefix or window.wall_s < seconds:
        net = synth_request(seed, index)
        clear_caches()
        if spans is not None:
            spans.request = f"r{index}"
        window.attempted += 1
        began = time.perf_counter()
        try:
            design = XRingSynthesizer(net, SynthesisOptions(wl_budget=SYNTH_NODES)).run()
        except Exception as exc:  # a failed request, counted
            window.wall_s += time.perf_counter() - began
            window.failed += 1
            window.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
        else:
            latency = time.perf_counter() - began
            window.wall_s += latency
            add_cache(window, get_cache().stats())
            if check_request(window, [(SYNTH_NODES, design)], prefix):
                window.latencies.append(latency)
        index += 1
    finish(window, prefix)
    if spans is not None:
        records = spans.collect()
        window.layers = synthesis_layers(records, window.counters, window.designs)
        window.layers.update(cache_layers(window))
        window.budget = synth_rows(records, len(window.latencies))
    return window


# -- batch_sweep -------------------------------------------------------------
@dataclass
class _Batch:
    """What a traced batch window keeps of one batch."""

    began: float
    latency: float
    events: list
    #: ``result.elapsed_s`` by case index.
    elapsed: dict
    retries: int
    restarts: int


def batch_window(seed: int, seconds: float, spans=None) -> Window:
    """Closed loop of batches: each one ``BatchSynthesizer(workers=2)
    .run(cases)`` call on 8 cases, until the batches have taken
    ``seconds``."""
    from repro.parallel import BatchSynthesizer, clear_caches

    window = Window()
    prefix = QUALITY_PREFIX["batch_sweep"]
    batches: list[_Batch] = []
    index = 0
    while index < len(BATCH_SIZES) or window.wall_s < seconds:
        cases = batch_cases(seed, index)
        clear_caches()
        events: list[tuple[float, dict]] = []
        on_event = None
        if spans is not None:
            spans.request = f"b{index}"
            on_event = lambda event: events.append((time.perf_counter(), event))  # noqa: E731
        window.attempted += 1
        began = time.perf_counter()
        report = BatchSynthesizer(workers=BATCH_WORKERS, on_event=on_event).run(cases)
        latency = time.perf_counter() - began
        window.wall_s += latency
        index += 1
        if report.errors:
            window.failed += 1
            window.errors.extend(f"{r.label}: {r.error}" for r in report.errors)
            continue
        # The caches were cleared before the batch, so its report's
        # counts (this process's plus the workers' deltas) are the
        # batch's own.
        add_cache(window, report.cache_stats)
        designs = [(case.options.wl_budget, r.design) for case, r in zip(cases, report.results)]
        if not check_request(window, designs, prefix):
            continue
        window.latencies.append(latency)
        if spans is not None:
            batches.append(
                _Batch(
                    began,
                    latency,
                    events,
                    {r.index: r.elapsed_s for r in report.results},
                    report.supervisor.get("retries", 0),
                    report.supervisor.get("worker_restarts", 0),
                )
            )
    finish(window, prefix)
    if spans is not None:
        _batch_layers(window, spans.collect(), batches)
    return window


def _batch_layers(window: Window, records, batches: list[_Batch]) -> None:
    """Dispatch, parent and worker rows of a traced batch window."""
    dispatch, parent, busy_frac = [], [], []
    for batch in batches:
        starts = {e["index"]: t for t, e in batch.events if e["event"] == "case_start"}
        for t, event in batch.events:
            if event["event"] == "case_done":
                dispatch.append(t - starts[event["index"]] - batch.elapsed[event["index"]])
        if starts:
            parent.append(min(starts.values()) - batch.began)
        busy_frac.append(sum(batch.elapsed.values()) / (BATCH_WORKERS * batch.latency))
    window.layers = synthesis_layers(records, window.counters, window.designs)
    window.layers.update(cache_layers(window))
    window.layers.update(
        {
            "batch.dispatch_s": median(dispatch),
            "batch.parent_s": median(parent),
            "batch.worker_busy_frac": mean(busy_frac),
            "batch.retries": sum(b.retries for b in batches),
            "batch.worker_restarts": sum(b.restarts for b in batches),
        }
    )
    # Budget of one batch: parent time before the first dispatch, then
    # the workers' time shared by the pool, then what neither covers.
    n = max(1, len(batches))
    parent_ring = sum(
        s["end"] - s["start"]
        for s in records
        if s["name"] == "ring" and s["pid"] == os.getpid()
    )
    worker_s = sum(sum(b.elapsed.values()) for b in batches)
    rows = [
        ("parent.ring", parent_ring / n),
        ("parent.other", (sum(parent) - parent_ring) / n),
    ]
    for name, seconds in synth_rows(records, n):
        rows.append((f"workers.{name.split('.', 1)[1]}", seconds / BATCH_WORKERS))
    stage_s = sum(s for _, s in rows[2:]) * BATCH_WORKERS * n
    synth_s = busy(records, "synth")
    rows.append(("workers.synth_other", (synth_s - stage_s) / BATCH_WORKERS / n))
    rows.append(("workers.case_other", (worker_s - synth_s) / BATCH_WORKERS / n))
    window.budget = rows
