"""Fault-tolerant batch synthesis with deterministic result ordering.

:class:`BatchSynthesizer` fans independent synthesis cases out over a
supervised worker pool (:class:`~repro.parallel.supervisor.WorkerSupervisor`)
and joins them back into input order, so a batch run is a drop-in
replacement for a sequential loop: same designs, same order, merged
observability — now surviving hung solvers, crashed workers, and
mid-run kills.

Design decisions:

- **Determinism** — every case is tagged with its input index; results
  are sorted by that index on join, so completion order (scheduling
  noise) never leaks into outputs.  ``workers=1`` bypasses the pool
  entirely and runs in-process through the *same* per-case code path
  and the *same* retry state machine, which is what the differential
  and chaos tests compare against.
- **Supervision** — per-case wall-clock timeouts (hung workers are
  killed and respawned, not waited on), retry with exponential
  backoff + seeded jitter, poison-case quarantine
  (:attr:`BatchReport.quarantined` carries the full failure history
  instead of aborting the run), and a circuit breaker that fails fast
  when recent cases fail systemically.  Policy lives in
  :class:`~repro.parallel.supervisor.SupervisorConfig`.
- **Crash-safe checkpointing** — pass ``journal=`` (a path or
  :class:`~repro.parallel.journal.BatchJournal`) and every finished
  case is checkpointed durably; a killed batch resumes from the
  journal, restoring finished results verbatim and recomputing only
  unfinished cases (CLI: ``xring batch --resume``).
- **Per-worker observability re-initialization** — each case gets a
  fresh :class:`~repro.obs.MetricsRegistry` (and, when span collection
  is requested, a fresh :class:`~repro.obs.Tracer`) installed as the
  ambient :class:`~repro.obs.ObsContext` for the duration of the case.
  Nothing is shared across processes at run time; snapshots travel
  back over the result pickle.
- **Merged artifacts on join** — the parent folds every case snapshot
  into one :class:`~repro.obs.MetricsRegistry` and concatenates span
  records (each tagged with its case label), plus supervisor counters
  (``batch.retries``, ``batch.worker_restarts``, ``batch.quarantined``,
  ...) and per-attempt ``batch.attempt`` span records.
- **Failure isolation** — a case that exhausts its attempt budget is
  quarantined as ``BatchResult.error``; by default
  (``on_error="collect"``) the rest of the batch completes.
  ``on_error="raise"`` re-raises the first (by input order) failure as
  :class:`BatchError` after the join.
- **Step 1-2 sharing** — cases on the same floorplan with the same
  ring construction settings share one Step-1 tour (the paper's
  methodology for #wl sweeps), and those of them whose Step-2 inputs
  also match (:func:`~repro.core.synthesizer.shortcut_plan_key`) share
  one shortcut plan; the parent builds both once, before fan-out.
  Cases under a deadline or MILP time limit build their own, a failed
  parent build attaches nothing, and a case whose ring stage repairs
  the shared tour selects its own shortcuts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsContext,
    RunArtifacts,
    TraceContext,
    Tracer,
    annotate_span_records,
    atomic_write_text,
    canonical_json,
    current_trace,
    get_logger,
    get_obs,
    spans_to_chrome,
    use_obs,
)
from repro.parallel.cache import canonical_points, get_cache
from repro.parallel.journal import (
    BatchJournal,
    batch_fingerprint,
    case_key,
    result_digest,
)
from repro.parallel.store import counter_metric_name
from repro.parallel.supervisor import (
    BatchCase,
    BatchResult,
    SupervisorConfig,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.robustness.errors import (
    CircuitOpen,
    ConfigurationError,
    SynthesisError,
)
from repro.robustness.faults import FaultPlan

__all__ = [
    "BatchCase",
    "BatchError",
    "BatchReport",
    "BatchResult",
    "BatchSynthesizer",
]

_log = get_logger("parallel")


class BatchError(SynthesisError):
    """A batch case failed and ``on_error="raise"`` was requested."""

    def __init__(self, message: str, **kwargs: Any) -> None:
        kwargs.setdefault("stage", "batch")
        kwargs.setdefault("cause", "case_failure")
        super().__init__(message, **kwargs)


# -- durable L2 (whole-result tier) ------------------------------------------
#
# Finished cases are persisted to the attached L2 backend under their
# journal ``case_key`` (which covers floorplan + every synthesis
# option), so an identical batch on a fresh process — or a fresh host,
# with a shard ring — restores results without re-solving, journal or
# not.  Payloads are the journal's pickle+zlib encoding; the entry
# meta carries the options hash and the design digest, and the digest
# is re-verified after unpickling (defense in depth on top of the
# store's payload checksum).

L2_RESULT_SECTION = "results"


def _l2_meta(case: BatchCase, result: BatchResult) -> dict[str, Any]:
    options_hash = hashlib.sha256(
        canonical_json(dataclasses.asdict(case.options)).encode("utf-8")
    ).hexdigest()
    return {
        "kind": "result",
        "label": result.label,
        "options_hash": options_hash,
        "digest": result_digest(result),
    }


def _l2_store_result(l2: Any, key: str, case: BatchCase, result: BatchResult) -> None:
    """Persist one freshly-computed successful case (best effort)."""
    if not result.ok or result.interrupted or result.cached or result.resumed:
        return
    try:
        payload = zlib.compress(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        l2.put(L2_RESULT_SECTION, key, payload, _l2_meta(case, result))
    except Exception:
        _log.warning("L2 result write for %s failed; continuing", key, exc_info=True)


def _l2_restore_result(l2: Any, key: str) -> BatchResult | None:
    """Rebuild a finished case from the L2, or ``None``.

    Backends count hits/misses themselves; a payload that decodes but
    fails the digest check is corrected back into a miss so
    ``cache.l2.hits`` only ever counts *served* results.
    """
    try:
        entry = l2.get(L2_RESULT_SECTION, key)
    except Exception:
        _log.warning("L2 result read for %s failed; recomputing", key, exc_info=True)
        return None
    if entry is None:
        return None
    payload, meta = entry
    reason = ""
    result: BatchResult | None = None
    try:
        result = pickle.loads(zlib.decompress(payload))
    except Exception as exc:
        reason = f"undecodable payload ({type(exc).__name__})"
    if not reason and not isinstance(result, BatchResult):
        reason = f"payload is {type(result).__name__}, not BatchResult"
    if not reason and (not result.ok or result.interrupted):
        reason = "entry holds a non-successful result"
    if not reason:
        expected = meta.get("digest")
        if expected and result_digest(result) != expected:
            reason = "design digest mismatch"
    if reason:
        _log.warning("L2 entry %s rejected (%s); recomputing", key, reason)
        counters = getattr(l2, "counters", None)
        if isinstance(counters, dict):
            hits_key = f"hits:{L2_RESULT_SECTION}"
            misses_key = f"misses:{L2_RESULT_SECTION}"
            counters[hits_key] = counters.get(hits_key, 0) - 1
            counters[misses_key] = counters.get(misses_key, 0) + 1
            counters["errors"] = counters.get("errors", 0) + 1
        return None
    result.cached = True
    return result


@dataclass
class BatchReport:
    """The joined batch: ordered results plus merged observability."""

    results: list[BatchResult]
    workers: int
    total_elapsed_s: float
    metrics: MetricsRegistry
    #: Per-span dicts from every traced case, each carrying a ``case``
    #: attribute with the case label (plus parent-side
    #: ``batch.attempt`` records when supervision retried anything).
    span_records: list[dict[str, Any]] = field(default_factory=list)
    #: ``get_cache().stats()`` at join: ``{"l2": ...}`` with an L2
    #: attached, else empty.
    cache_stats: dict[str, Any] = field(default_factory=dict)
    #: Supervisor event summary (retries, restarts, quarantine, ...).
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: The run was interrupted (SIGINT/SIGTERM); unfinished cases are
    #: marked ``interrupted`` and a journaled run can be resumed.
    interrupted: bool = False
    #: The circuit breaker tripped and pending cases were skipped.
    circuit_opened: bool = False

    @property
    def designs(self) -> list[Any]:
        """Designs in input order (``None`` for failed cases)."""
        return [r.design for r in self.results]

    @property
    def errors(self) -> list[BatchResult]:
        """The failed cases, in input order."""
        return [r for r in self.results if not r.ok]

    @property
    def quarantined(self) -> list[BatchResult]:
        """Cases that exhausted their attempt budget, in input order."""
        return [r for r in self.results if r.quarantined]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "total_elapsed_s": self.total_elapsed_s,
            "interrupted": self.interrupted,
            "circuit_opened": self.circuit_opened,
            "supervisor": dict(self.supervisor),
            "cases": [r.to_dict() for r in self.results],
            "cache": self.cache_stats,
            "metrics": self.metrics.snapshot(),
        }

    def write_artifacts(self, directory) -> list:
        """Write ``metrics.json`` (+ ``trace.jsonl`` / ``trace.json`` when
        spans were collected) into ``directory`` via
        :class:`~repro.obs.RunArtifacts`.  The Chrome export stitches all
        processes onto one timeline (supervisor + worker pid rows)."""
        import json

        paths = RunArtifacts(directory).write(metrics=self.metrics)
        if self.span_records:
            paths.append(
                atomic_write_text(
                    Path(directory) / "trace.jsonl",
                    "".join(
                        json.dumps(s) + "\n" for s in self.span_records
                    ),
                )
            )
            paths.append(
                atomic_write_text(
                    Path(directory) / "trace.json",
                    json.dumps(spans_to_chrome(self.span_records)) + "\n",
                )
            )
        return paths


class BatchSynthesizer:
    """Runs many :class:`BatchCase` instances, possibly in parallel.

    ``workers=1`` (the default) runs in-process; ``workers>1`` uses a
    supervised process pool.  Either way results come back in input
    order and the designs are identical — parallelism *and* fault
    recovery are implementation details, never semantic ones.

    ``share_tours`` (default on) lets the parent build Steps 1 and 2
    once per group of cases that share them (see the module notes);
    designs are the same either way.  ``config`` sets the supervision
    policy (retries, per-case timeout, backoff, circuit breaker).
    ``fault_plan`` injects worker-level chaos faults
    (crash/hang/abort) for the chaos suite.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        on_error: str = "collect",
        share_tours: bool = True,
        collect_spans: bool = False,
        config: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        on_event: Any = None,
        trace: TraceContext | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}",
                context={"workers": workers},
            )
        if on_error not in ("collect", "raise"):
            raise ConfigurationError(
                f"unknown on_error policy {on_error!r}; "
                "allowed: 'collect', 'raise'",
                context={"on_error": on_error},
            )
        self.workers = workers
        self.on_error = on_error
        self.share_tours = share_tours
        self.collect_spans = collect_spans
        self.config = config or SupervisorConfig()
        self.fault_plan = fault_plan
        #: Progress-event sink (JSON-ready dicts); the supervisor emits
        #: per-case transitions and heartbeats through it, the batch
        #: layer adds ``batch_start`` / ``case_resumed`` / ``batch_done``.
        self.on_event = on_event
        #: Request trace context for cross-process span stitching.
        #: ``None`` falls back to the ambient context (``use_trace``),
        #: then to a fresh one when ``collect_spans`` is on.
        self.trace = trace

    def _emit(self, event: str, **fields: Any) -> None:
        if self.on_event is None:
            return
        try:
            self.on_event({"event": event, **fields})
        except Exception:
            _log.warning("progress-event sink raised; disabling it", exc_info=True)
            self.on_event = None

    # -- Step 1-2 sharing ----------------------------------------------------
    @staticmethod
    def _tour_group_key(case: BatchCase):
        """Cases with equal keys may share one Step-1 construction.

        The key is the floorplan plus the options
        :func:`~repro.core.synthesizer.build_ring` reads, with
        ``lazy_conflicts`` as given (auto stays ``None``; only the ring
        constructor resolves it).  ``None`` marks a case that must
        construct in-worker: it either already has a tour, or runs
        under a time limit / deadline whose budget accounting would be
        distorted by parent-side work.
        """
        opts = case.options
        if case.tour is not None:
            return None
        if opts.milp_time_limit is not None or opts.deadline_s is not None:
            return None
        return (
            canonical_points(case.network.positions),
            opts.ring_method,
            opts.lazy_conflicts,
        )

    def _share_steps(
        self,
        cases: list[BatchCase],
        done: dict[int, BatchResult],
        trace: TraceContext | None,
    ) -> tuple[list[BatchCase], dict[str, Any], list[dict[str, Any]]]:
        """Build each shared tour, then each shared shortcut plan, once,
        for the cases not already ``done`` (restored or cached).

        Returns the cases with tours and plans attached, plus the
        metrics snapshot and span records of the parent's work, which
        runs under its own registry (and tracer, with
        ``collect_spans``) so the join reports it exactly once.  A
        parent-side failure attaches nothing: the affected cases then
        run the step themselves, under their own degrade policy.
        """
        groups: dict[Any, list[int]] = {}
        for idx, case in enumerate(cases):
            key = None if idx in done else self._tour_group_key(case)
            if key is not None:
                groups.setdefault(key, []).append(idx)
        tour_groups = [indices for indices in groups.values() if len(indices) >= 2]
        if not tour_groups:
            return cases, {}, []
        registry = MetricsRegistry()
        tracer = Tracer() if self.collect_spans else NULL_TRACER
        shared = list(cases)
        with use_obs(ObsContext(tracer=tracer, metrics=registry)):
            with tracer.span("batch.share", groups=len(tour_groups)):
                with tracer.span("batch.share.ring"):
                    for indices in tour_groups:
                        self._share_tour(shared, indices)
                with tracer.span("batch.share.shortcuts") as span:
                    span.set_attribute(
                        "plans", self._share_plans(shared, tour_groups)
                    )
        records: list[dict[str, Any]] = []
        if self.collect_spans:
            records = [span.to_dict() for span in tracer.finished_spans()]
            if trace is not None:
                annotate_span_records(
                    records,
                    trace.child(trace.parent_uid, prefix="share"),
                    epoch_unix=tracer.epoch_unix,
                )
        return shared, registry.snapshot(), records

    @staticmethod
    def _share_tour(cases: list[BatchCase], indices: list[int]) -> None:
        """Attach one Step-1 tour to every case in ``indices``."""
        from repro.core.synthesizer import build_ring

        case = cases[indices[0]]
        try:
            tour = build_ring(list(case.network.positions), case.options)
        except Exception:
            _log.warning(
                "shared ring construction failed; %d cases build their own",
                len(indices),
                exc_info=True,
            )
            return
        for idx in indices:
            cases[idx] = dataclasses.replace(cases[idx], tour=tour)

    @staticmethod
    def _share_plans(cases: list[BatchCase], tour_groups: list[list[int]]) -> int:
        """Attach one Step-2 plan to each group of >= 2 shortcut-enabled
        cases with equal :func:`~repro.core.synthesizer.shortcut_plan_key`;
        returns the number of plans shared."""
        from repro.core.synthesizer import plan_shortcuts, shortcut_plan_key

        groups: dict[Any, list[int]] = {}
        for indices in tour_groups:
            for idx in indices:
                case = cases[idx]
                if case.tour is None or not case.options.enable_shortcuts:
                    continue
                key = shortcut_plan_key(
                    case.tour, case.options, case.network.demands()
                )
                groups.setdefault(key, []).append(idx)
        shared = 0
        for indices in groups.values():
            if len(indices) < 2:
                continue
            case = cases[indices[0]]
            try:
                plan = plan_shortcuts(
                    case.tour, case.options, case.network.demands()
                )
            except Exception:
                _log.warning(
                    "shared shortcut selection failed; %d cases select "
                    "their own",
                    len(indices),
                    exc_info=True,
                )
                continue
            shared += 1
            for idx in indices:
                cases[idx] = dataclasses.replace(cases[idx], plan=plan)
        return shared

    # -- execution -----------------------------------------------------------
    def run(
        self,
        cases,
        *,
        journal: BatchJournal | str | Path | None = None,
    ) -> BatchReport:
        """Synthesize every case; results come back in input order.

        With ``journal`` set, finished cases are checkpointed as the
        batch progresses; re-running the same batch against the same
        journal restores finished results verbatim and executes only
        the remainder.
        """
        cases = list(cases)
        start = time.perf_counter()

        # Case keys are computed on the *input* cases (before tour
        # sharing), so an interrupted run and its resume agree on them
        # regardless of which tours had been attached when it died.
        keys = [case_key(idx, case) for idx, case in enumerate(cases)]
        journal_obj = self._open_journal(journal, keys)

        restored: dict[int, BatchResult] = {}
        if journal_obj is not None:
            done = journal_obj.completed_keys()
            for idx, key in enumerate(keys):
                if key in done:
                    result = journal_obj.restore(key)
                    if result is not None:
                        restored[idx] = result

        # Durable tier: cases the journal did not cover may still be
        # finished work from a previous process life (or another host).
        l2 = get_cache().l2
        l2_before = dict(getattr(l2, "counters", {})) if l2 is not None else {}
        cached: dict[int, BatchResult] = {}
        if l2 is not None:
            for idx, key in enumerate(keys):
                if idx in restored:
                    continue
                result = _l2_restore_result(l2, key)
                if result is not None:
                    result.index = idx
                    cached[idx] = result

        self._emit(
            "batch_start",
            cases=len(cases),
            workers=self.workers,
            resumed=len(restored),
            cached=len(cached),
        )
        for idx in sorted(restored):
            self._emit(
                "case_resumed", index=idx, label=restored[idx].label
            )
        for idx in sorted(cached):
            self._emit("case_cached", index=idx, label=cached[idx].label)
        if journal_obj is not None:
            for idx, result in cached.items():
                journal_obj.record(keys[idx], result)
        journal_restored = len(restored)
        restored.update(cached)

        trace = self.trace
        if trace is None and self.collect_spans:
            trace = current_trace() or TraceContext.new()

        share_metrics: dict[str, Any] = {}
        share_spans: list[dict[str, Any]] = []
        if self.share_tours:
            cases, share_metrics, share_spans = self._share_steps(
                cases, restored, trace
            )

        remaining = [
            (idx, case)
            for idx, case in enumerate(cases)
            if idx not in restored
        ]

        def checkpoint(result: BatchResult) -> None:
            if journal_obj is not None:
                journal_obj.record(keys[result.index], result)
            if l2 is not None:
                _l2_store_result(
                    l2, keys[result.index], cases[result.index], result
                )

        supervisor = WorkerSupervisor(
            self.workers,
            self.config,
            collect_spans=self.collect_spans,
            fault_plan=self.fault_plan,
            on_event=self.on_event,
            trace=trace,
        )
        on_complete = None
        if journal_obj is not None or l2 is not None:
            on_complete = checkpoint
        outcomes = supervisor.run(remaining, on_complete=on_complete)
        stats = supervisor.stats
        stats.resumed = journal_restored

        outcomes = list(restored.values()) + list(outcomes)
        outcomes.sort(key=lambda r: r.index)
        return self._join(
            outcomes,
            stats,
            start,
            l2=l2,
            l2_before=l2_before,
            share_metrics=share_metrics,
            share_spans=share_spans,
        )

    def _open_journal(
        self, journal: BatchJournal | str | Path | None, keys: list[str]
    ) -> BatchJournal | None:
        if not journal:  # None or "" (CLI default): journaling off
            return None
        if isinstance(journal, BatchJournal):
            journal_obj = journal
        else:
            path = Path(journal)
            journal_obj = (
                BatchJournal.load(path) if path.exists() else BatchJournal(path)
            )
        journal_obj.begin(batch_fingerprint(keys), len(keys))
        return journal_obj

    def _join(
        self,
        outcomes: list[BatchResult],
        stats: SupervisorStats,
        start: float,
        l2: Any = None,
        l2_before: dict[str, int] | None = None,
        share_metrics: dict[str, Any] | None = None,
        share_spans: list[dict[str, Any]] | None = None,
    ) -> BatchReport:
        merged = MetricsRegistry()
        # The parent's shared Step 1-2 work, once for the whole batch.
        if share_metrics:
            merged.merge_snapshot(share_metrics)
        span_records: list[dict[str, Any]] = list(share_spans or [])
        for outcome in outcomes:
            span_records.extend(outcome.metrics.pop("spans", []))
            merged.merge_snapshot(outcome.metrics)
        span_records.extend(stats.span_records)
        if l2 is not None:
            # Whole-result and store-health traffic this run generated,
            # as a counter delta (the backend object may be long-lived).
            before = l2_before or {}
            for counter_key, value in getattr(l2, "counters", {}).items():
                metric = counter_metric_name(counter_key)
                delta = value - before.get(counter_key, 0)
                if metric is not None and delta:
                    merged.counter(metric).inc(delta)
        merged.counter("batch.cases").inc(len(outcomes))
        merged.counter("batch.failures").inc(
            sum(1 for o in outcomes if not o.ok)
        )
        merged.counter("batch.retries").inc(stats.retries)
        merged.counter("batch.worker_restarts").inc(stats.worker_restarts)
        merged.counter("batch.quarantined").inc(stats.quarantined)
        merged.counter("batch.timeouts").inc(stats.timeouts)
        merged.counter("batch.crashes").inc(stats.crashes)
        merged.counter("batch.resumed").inc(stats.resumed)
        merged.gauge("batch.workers").set(self.workers)

        ambient = get_obs().metrics
        if ambient.enabled:
            ambient.merge(merged)

        report = BatchReport(
            results=outcomes,
            workers=self.workers,
            total_elapsed_s=time.perf_counter() - start,
            metrics=merged,
            span_records=span_records,
            cache_stats=get_cache().stats(),
            supervisor=stats.to_dict(),
            interrupted=stats.interrupted,
            circuit_opened=stats.circuit_opened,
        )
        self._emit(
            "batch_done",
            cases=len(outcomes),
            failures=len(report.errors),
            quarantined=len(report.quarantined),
            resumed=stats.resumed,
            interrupted=report.interrupted,
            circuit_opened=report.circuit_opened,
            elapsed_s=round(report.total_elapsed_s, 6),
        )
        for failed in report.errors:
            _log.warning(
                "batch case %d (%s) failed after %d attempt(s): %s",
                failed.index,
                failed.label,
                failed.attempts,
                failed.error,
            )
        if report.interrupted:
            # An interrupted batch returns partial results; raising
            # BatchError here would bury the resume hint.
            return report
        if self.on_error == "raise" and report.errors:
            first = report.errors[0]
            if report.circuit_opened:
                raise CircuitOpen(
                    f"batch circuit breaker tripped; first failure: case "
                    f"{first.index} ({first.label}): {first.error}",
                    context={
                        "failures": len(report.errors),
                        "cases": len(outcomes),
                    },
                )
            raise BatchError(
                f"case {first.index} ({first.label}) failed: {first.error}",
                context={
                    "failures": len(report.errors),
                    "cases": len(outcomes),
                },
            )
        return report
