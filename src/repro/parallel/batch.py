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
- **Resume from the L2** — with a durable L2 attached
  (:func:`~repro.parallel.cache.configure_l2`), every successful case
  is persisted as it finishes, under its :func:`case_key`; re-running
  a killed batch against the same directory restores those results
  and recomputes only the rest, failed cases included (CLI:
  ``xring batch --resume DIR``).
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
  methodology for #wl sweeps), which the parent builds once before the
  pool forks; a failed build attaches nothing.  Those of them whose
  Step-2 inputs also match
  (:func:`~repro.core.synthesizer.shortcut_plan_key`) share one
  shortcut plan, selected by a
  :class:`~repro.parallel.supervisor.PlanTask`: the first pool task,
  running beside the cases that do not wait on it (in a sweep over
  shortcuts on and off, the shortcut-free ones).  The waiting cases
  run once it returns; if it raises, crashes or times out they select
  their own.  Cases under a deadline build both steps themselves, and a
  case whose ring stage repairs the shared tour selects its own
  shortcuts.
- **Slim results** — a result leaves out the design's ``network``
  and ``tour`` when they are its case's own, and the parent
  re-attaches them before ``on_complete``, the L2 or
  :func:`result_digest` sees it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsContext,
    TraceContext,
    Tracer,
    canonical_json,
    current_trace,
    get_logger,
    get_obs,
    span_records,
    use_obs,
)
from repro.parallel.cache import canonical_points, get_cache
from repro.parallel.store import PersistentStore, counter_metric_name
from repro.parallel.supervisor import (
    BatchCase,
    BatchResult,
    PlanTask,
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
    "case_key",
    "result_digest",
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
# Finished cases are persisted to the attached L2 under their
# ``case_key`` (which covers floorplan + every synthesis option), so an
# identical batch on a fresh process restores results without
# re-solving: that is how an interrupted batch resumes.  Payloads are
# zlib-compressed pickles; the entry meta carries the options hash and
# the design digest, and the digest is re-verified after unpickling
# (defense in depth on top of the store's payload checksum).


def case_key(index: int, case: BatchCase) -> str:
    """Content hash identifying one case across batch runs.

    Covers the input position in the batch, the floorplan (positions,
    traffic, die), and every synthesis option — anything that changes
    the case's output changes its key, so a stored result can never
    satisfy a different case.
    """
    payload = {
        "index": index,
        "label": case.named(),
        "positions": [[node.position.x, node.position.y] for node in case.network.nodes],
        "traffic": [list(pair) for pair in case.network.traffic],
        "die": None
        if case.network.die is None
        else [
            case.network.die.xmin,
            case.network.die.ymin,
            case.network.die.xmax,
            case.network.die.ymax,
        ],
        "options": dataclasses.asdict(case.options),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def result_digest(result: BatchResult) -> str:
    """SHA-256 of the deterministic part of a result.

    Successful cases hash the canonical structural design dump, so two
    runs agreeing on the digest produced byte-identical designs;
    failures hash the error string.
    """
    if result.design is not None:
        payload = canonical_json(result.design.to_dict())
    else:
        payload = result.error or ""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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


def _l2_store_result(
    l2: PersistentStore, key: str, case: BatchCase, result: BatchResult
) -> None:
    """Persist one freshly-computed successful case (best effort)."""
    if not result.ok:
        return
    try:
        payload = zlib.compress(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        l2.put(L2_RESULT_SECTION, key, payload, _l2_meta(case, result))
    except Exception:
        _log.warning("L2 result write for %s failed; continuing", key, exc_info=True)


def _l2_restore_result(l2: PersistentStore, key: str) -> BatchResult | None:
    """Rebuild a finished case from the L2, or ``None``.

    The store counts hits/misses itself; a payload that decodes but
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
        l2._count("hits", L2_RESULT_SECTION, -1)
        l2._count("misses", L2_RESULT_SECTION)
        l2._count("errors")
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
    #: Span records (:func:`repro.obs.span_records`) of the shared
    #: Step 1-2 work, of every traced case (each with its ``case``
    #: label) and of every supervised ``batch.attempt``.
    span_records: list[dict[str, Any]] = field(default_factory=list)
    #: ``get_cache().stats()`` at join: ``{"l2": ...}`` with an L2
    #: attached, else empty.
    cache_stats: dict[str, Any] = field(default_factory=dict)
    #: Supervisor event summary (retries, restarts, quarantine, ...).
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: The run was interrupted (SIGINT/SIGTERM); unfinished cases are
    #: marked ``interrupted`` and a run with an L2 can be resumed.
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


class BatchSynthesizer:
    """Runs many :class:`BatchCase` instances, possibly in parallel.

    ``workers=1`` (the default) runs in-process; ``workers>1`` uses a
    supervised process pool.  Either way results come back in input
    order and the designs are identical — parallelism *and* fault
    recovery are implementation details, never semantic ones.

    Steps 1 and 2 are built once per group of two or more cases that
    share them (see the module notes); a lone case, or cases that
    differ in floorplan or ring settings, form no group, and the
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
        self.collect_spans = collect_spans
        self.config = config or SupervisorConfig()
        self.fault_plan = fault_plan
        #: Progress-event sink (JSON-ready dicts); the supervisor emits
        #: per-case transitions and heartbeats through it, the batch
        #: layer adds ``batch_start`` / ``case_cached`` / ``batch_done``.
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
        under a deadline whose budget accounting would be distorted by
        parent-side work.
        """
        opts = case.options
        if case.tour is not None:
            return None
        if opts.deadline_s is not None:
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
    ) -> tuple[list[BatchCase], list[PlanTask], dict[str, Any], list[dict[str, Any]]]:
        """Build each shared tour once, for the cases not already
        ``done`` (restored from the L2), and name the shared plans.

        Returns the cases with tours attached, one :class:`PlanTask`
        per shared plan, and the metrics snapshot and span records of
        the parent's ring work, which runs under its own registry (and
        tracer, with ``collect_spans``) so the join reports it exactly
        once.  A failed ring build attaches nothing: those cases then
        run Steps 1 and 2 themselves, under their own degrade policy.
        """
        groups: dict[Any, list[int]] = {}
        for idx, case in enumerate(cases):
            key = None if idx in done else self._tour_group_key(case)
            if key is not None:
                groups.setdefault(key, []).append(idx)
        tour_groups = [indices for indices in groups.values() if len(indices) >= 2]
        if not tour_groups:
            return cases, [], {}, []
        registry = MetricsRegistry()
        tracer = Tracer() if self.collect_spans else NULL_TRACER
        shared = list(cases)
        with use_obs(ObsContext(tracer=tracer, metrics=registry)):
            with tracer.span("batch.share", groups=len(tour_groups)):
                with tracer.span("batch.share.ring"):
                    for indices in tour_groups:
                        self._share_tour(shared, indices)
        records: list[dict[str, Any]] = []
        share_uid = None
        if self.collect_spans:
            records = span_records(
                tracer, trace.child(trace.parent_uid, prefix="share")
            )
            share_uid = next(
                r["span_uid"] for r in records if r["name"] == "batch.share"
            )
        plans = [
            PlanTask(
                source=indices[0],
                waiting=tuple(indices),
                label=f"plan:{shared[indices[0]].named()}",
                # Spans parent onto ``batch.share``; a ``share:`` uid
                # marks records of no one case.
                trace=None
                if share_uid is None
                else trace.child(share_uid, prefix=f"share:plan{k}"),
            )
            for k, indices in enumerate(self._plan_groups(shared, tour_groups))
        ]
        return shared, plans, registry.snapshot(), records

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
    def _plan_groups(
        cases: list[BatchCase], tour_groups: list[list[int]]
    ) -> list[list[int]]:
        """The groups of >= 2 shortcut-enabled cases with equal
        :func:`~repro.core.synthesizer.shortcut_plan_key`: one shared
        plan each."""
        from repro.core.synthesizer import shortcut_plan_key

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
        return [indices for indices in groups.values() if len(indices) >= 2]

    # -- execution -----------------------------------------------------------
    def run(self, cases) -> BatchReport:
        """Synthesize every case; results come back in input order.

        With an L2 attached, cases the L2 already holds are restored
        instead of recomputed, and every successful case is persisted
        as it finishes, so re-running an interrupted batch against the
        same L2 resumes it.  Failed cases are never stored: a resumed
        batch re-runs them.
        """
        cases = list(cases)
        start = time.perf_counter()

        # Case keys are computed on the *input* cases (before tour
        # sharing), so an interrupted run and its resume agree on them
        # regardless of which tours had been attached when it died.
        keys = [case_key(idx, case) for idx, case in enumerate(cases)]
        l2 = get_cache().l2
        l2_before = dict(l2.counters) if l2 is not None else {}
        restored: dict[int, BatchResult] = {}
        if l2 is not None:
            for idx, key in enumerate(keys):
                result = _l2_restore_result(l2, key)
                if result is not None:
                    result.index = idx
                    restored[idx] = result

        self._emit(
            "batch_start",
            cases=len(cases),
            workers=self.workers,
            resumed=len(restored),
        )
        for idx in sorted(restored):
            self._emit("case_cached", index=idx, label=restored[idx].label)

        trace = self.trace
        if trace is None and self.collect_spans:
            trace = current_trace() or TraceContext.new()

        cases, plans, share_metrics, share_spans = self._share_steps(
            cases, restored, trace
        )

        remaining = [
            (idx, case)
            for idx, case in enumerate(cases)
            if idx not in restored
        ]

        def checkpoint(result: BatchResult) -> None:
            _l2_store_result(l2, keys[result.index], cases[result.index], result)

        supervisor = WorkerSupervisor(
            self.workers,
            self.config,
            collect_spans=self.collect_spans,
            fault_plan=self.fault_plan,
            on_event=self.on_event,
            trace=trace,
        )
        outcomes = supervisor.run(
            remaining,
            plans=plans,
            on_complete=checkpoint if l2 is not None else None,
        )
        stats = supervisor.stats
        stats.resumed = len(restored)
        shared_work = [share_metrics]
        for plan_result in supervisor.plan_results:
            share_spans.extend(plan_result.metrics.pop("spans", []))
            shared_work.append(plan_result.metrics)

        outcomes = list(restored.values()) + list(outcomes)
        outcomes.sort(key=lambda r: r.index)
        return self._join(
            outcomes,
            stats,
            start,
            l2=l2,
            l2_before=l2_before,
            shared_work=shared_work,
            share_spans=share_spans,
        )

    def _join(
        self,
        outcomes: list[BatchResult],
        stats: SupervisorStats,
        start: float,
        l2: PersistentStore | None = None,
        l2_before: dict[str, int] | None = None,
        shared_work: list[dict[str, Any]] | None = None,
        share_spans: list[dict[str, Any]] | None = None,
    ) -> BatchReport:
        merged = MetricsRegistry()
        # The shared Step 1-2 work (the parent's rings, the plan
        # tasks), once for the whole batch.
        for snapshot in shared_work or []:
            if snapshot:
                merged.merge_snapshot(snapshot)
        spans: list[dict[str, Any]] = list(share_spans or [])
        for outcome in outcomes:
            spans.extend(outcome.metrics.pop("spans", []))
            merged.merge_snapshot(outcome.metrics)
        spans.extend(stats.span_records)
        if l2 is not None:
            # Whole-result and store-health traffic this run generated,
            # as a counter delta (the backend object may be long-lived).
            before = l2_before or {}
            for counter_key, value in l2.counters.items():
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
            span_records=spans,
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
