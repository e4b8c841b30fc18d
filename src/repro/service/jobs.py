"""Job model and the :class:`JobManager` state machine.

The manager is the robustness envelope of the service.  All of its
state lives on the event-loop thread; the only other threads are the
per-job daemon solver threads, which report back exclusively through
``loop.call_soon_threadsafe``.  That single-writer discipline is what
makes admission decisions (dedup, queue bounds) race-free without a
single lock.

**Admission control.**  ``submit`` is synchronous on the loop: parse
the spec, compute the canonical case key
(:func:`repro.parallel.journal.case_key` — the same content hash the
batch journal uses), and then decide in order: dedup hit → existing
job; draining → :class:`ServiceDraining`; circuit breaker open →
:class:`ServiceNotReady`; queue full → :class:`QueueFull` with a
jittered retry-after derived from
:meth:`~repro.parallel.supervisor.SupervisorConfig.backoff_s`
semantics (consecutive rejections back clients off exponentially).

**Idempotent submission.**  The job id *is* a prefix of the case key,
so identical floorplan+options always map to the same job — across
concurrent clients (same loop tick or not) and across server restarts.
A resubmission after completion returns the finished job instantly
without touching the queue or the supervisor.

**Execution.**  Each admitted job runs through
:class:`~repro.parallel.BatchSynthesizer` (``workers=1``) in a daemon
thread: the full PR-4 supervisor state machine — retries with seeded
backoff, quarantine, injected-fault handling — drives the single case,
and its live progress events are re-published to SSE subscribers.
With ``isolate_jobs`` (or any ``case_timeout_s``) the supervisor is
forced onto the process pool (``SupervisorConfig.force_pool``) so a
truly hung solve is SIGKILLed by the watchdog instead of pinning a
worker slot forever.  Per-request deadlines ride inside
``SynthesisOptions.deadline_s`` and land in the existing
:class:`~repro.robustness.Deadline` degradation chain, so an expiring
job yields a degraded-but-valid design (or a typed
``DeadlineExceeded`` failure) — never a hung connection.

**Crash recovery.**  Every transition is appended to the
:class:`~repro.service.store.JobStore` *before* the transition takes
effect.  ``adopt()`` reloads the store on boot: terminal jobs are
served as-is (no duplicate solves), queued/running jobs are
re-enqueued with ``resumed=True``.

**Readiness.**  Terminal outcomes feed a
:class:`~repro.parallel.CircuitBreaker`; while it is open the service
reports not-ready (503 on ``/readyz``) and sheds new submissions
instead of queueing failures, then self-heals after
``breaker_cooldown_s``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import SynthesisOptions
from repro.network import Network
from repro.network.placement import extended_placement, psion_placement
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    TraceContext,
    canonical_json,
    get_logger,
    new_trace_id,
    use_request_id,
)
from repro.parallel import (
    BatchCase,
    BatchResult,
    BatchSynthesizer,
    CircuitBreaker,
    SupervisorConfig,
    case_key,
)
from repro.robustness.errors import ConfigurationError, InputError
from repro.service.store import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
    JobStore,
)

_log = get_logger("service.jobs")

#: Per-job event-history bound (SSE replays at most this many).
EVENT_HISTORY_LIMIT = 1000

#: Spec fields a job submission may carry (anything else is a 400 —
#: a typo'd option must never silently synthesize the default).
SPEC_KEYS = frozenset(
    {
        "nodes",
        "positions",
        "traffic",
        "wl",
        "ring_method",
        "shortcuts",
        "openings",
        "pdn",
        "milp_backend",
        "lazy_conflicts",
        "deadline",
        "on_error",
        "label",
    }
)


# -- spec parsing (shared with the CLI batch subcommand) ---------------------
def options_from_spec(spec: dict[str, Any], index: int = 0) -> SynthesisOptions:
    """Translate one JSON case/job spec into :class:`SynthesisOptions`.

    The schema is the ``xring batch`` case-file schema; the service
    POST body uses exactly the same field names, so a batch case file
    entry is a valid job submission and vice versa.
    """
    return SynthesisOptions(
        wl_budget=spec.get("wl"),
        ring_method=spec.get("ring_method", "milp"),
        enable_shortcuts=spec.get("shortcuts", True),
        enable_openings=spec.get("openings", True),
        pdn_mode="internal" if spec.get("pdn", True) else None,
        milp_backend=spec.get("milp_backend", "auto"),
        # JSON true/false/absent map onto forced-lazy/forced-eager/auto.
        lazy_conflicts=spec.get("lazy_conflicts"),
        deadline_s=spec.get("deadline"),
        on_error=spec.get("on_error", "degrade"),
        label=spec.get("label", f"case{index}"),
    )


def network_from_spec(spec: dict[str, Any]) -> Network:
    """Build the floorplan from inline ``positions`` or a ``nodes`` count.

    Unlike the CLI (which may read placement *files*), the service only
    accepts inline data — a request body must never trigger server-side
    file access.
    """
    from repro.geometry import Point

    if "positions" in spec:
        positions = spec["positions"]
        if not isinstance(positions, list) or not positions:
            raise InputError(
                "spec field 'positions' must be a non-empty list of [x, y] pairs",
                stage="service",
            )
        try:
            points = [Point(float(x), float(y)) for x, y in positions]
        except (TypeError, ValueError) as exc:
            raise InputError(
                f"malformed 'positions' entry: {exc}", stage="service"
            ) from exc
        pairs = []
        for pair in spec.get("traffic", []):
            try:
                src, dst = pair
                pairs.append((int(src), int(dst)))
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"malformed 'traffic' entry {pair!r}", stage="service"
                ) from exc
        return Network.from_positions(points, traffic=pairs)
    nodes = spec.get("nodes", 16)
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 2:
        raise InputError(
            f"spec field 'nodes' must be an integer >= 2, got {nodes!r}",
            stage="service",
        )
    try:
        points, die = psion_placement(nodes)
    except ValueError:
        points, die = extended_placement(nodes)
    return Network.from_positions(points, die=die)


def case_from_spec(spec: dict[str, Any], index: int = 0) -> BatchCase:
    """Validate a job spec and build its :class:`BatchCase`.

    Raises :class:`InputError` / :class:`ConfigurationError` (both
    ``ValueError`` subclasses) on anything malformed; the server maps
    those to a 400.
    """
    if not isinstance(spec, dict):
        raise InputError(
            f"job spec must be a JSON object, got {type(spec).__name__}",
            stage="service",
        )
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise InputError(
            f"unknown spec field(s): {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(SPEC_KEYS))}",
            stage="service",
        )
    options = options_from_spec(spec, index)
    network = network_from_spec(spec)
    return BatchCase(network=network, options=options, label=options.label)


def job_key(case: BatchCase) -> str:
    """The canonical content key of a submission (and its job id seed)."""
    return case_key(0, case)


def design_digest(design_dict: dict[str, Any]) -> str:
    """SHA-256 of the canonical design JSON (byte-identity check)."""
    return hashlib.sha256(
        canonical_json(design_dict).encode("utf-8")
    ).hexdigest()


# -- admission outcomes ------------------------------------------------------
class AdmissionError(Exception):
    """A submission the service refused to queue (never a 500)."""

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFull(AdmissionError):
    """Bounded queue is at capacity (HTTP 429 + Retry-After)."""


class ServiceDraining(AdmissionError):
    """The server is draining after SIGTERM (HTTP 503)."""


class ServiceNotReady(AdmissionError):
    """The circuit breaker is open; load is shed (HTTP 503)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Policy of one ``xring serve`` process."""

    host: str = "127.0.0.1"
    port: int = 8787
    store_dir: str | Path = ".xring_service"
    #: Bounded admission queue: submissions beyond this many queued
    #: jobs are rejected with 429 + Retry-After.
    queue_limit: int = 64
    #: Concurrent solves (each in its own daemon thread).
    max_concurrency: int = 1
    #: Supervisor retries per job beyond the first attempt.
    retries: int = 1
    #: Per-attempt wall-clock watchdog; forces process isolation so a
    #: hung solve is SIGKILLed (None disables).
    case_timeout_s: float | None = None
    #: Run each job in a killable worker process even without a
    #: watchdog timeout (slower per job, immune to hung solvers).
    isolate_jobs: bool = False
    #: Worker processes inside each job's supervised batch run.  A
    #: single-case job only ever uses one, but >1 keeps a warm pool
    #: across retries and exercises the cross-process trace stitch.
    solver_workers: int = 1
    #: Deadline applied to jobs that do not bring their own.
    default_deadline_s: float | None = None
    #: Grace period for in-flight jobs on SIGTERM before giving up.
    drain_timeout_s: float = 30.0
    #: Readiness circuit breaker over terminal job outcomes.
    breaker_window: int = 16
    breaker_threshold: float = 0.8
    breaker_min_samples: int = 4
    #: Seconds an open breaker sheds load before self-resetting.
    breaker_cooldown_s: float = 10.0
    #: Seed for every jittered delay (admission backoff, retries).
    seed: int = 0
    #: Upper bound on a request body.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Supervisor heartbeat cadence re-emitted on SSE (0 disables).
    heartbeat_interval_s: float = 0.0
    #: Durable L2 cache: a local content-addressed store directory.
    #: Completed job results survive process restarts independently of
    #: the job store — a warm restart serves repeats from disk.
    cache_dir: str | Path = ""
    #: Durable L2 cache: ``host:port`` cache nodes (sharded mode).
    #: Mutually exclusive with ``cache_dir``.
    cache_nodes: tuple[str, ...] = ()
    #: Replicas per key when ``cache_nodes`` is used.
    cache_replication: int = 2
    #: Metrics time-series scrape cadence (0 disables history, SLO
    #: evaluation and the dashboard sparklines).
    scrape_interval_s: float = 5.0
    #: Availability SLO objective (fraction of finished jobs that must
    #: succeed); 0 disables the availability alert.
    slo_availability: float = 0.9
    #: Latency SLO: 99% of jobs must finish within this many seconds.
    slo_latency_p99_s: float = 60.0
    #: Short burn window for SLO evaluation (the long window is 6x);
    #: also the hysteresis period a firing alert must stay healthy
    #: before clearing.
    slo_window_s: float = 60.0
    #: Burn-rate threshold both windows must exceed to fire an alert.
    slo_burn_threshold: float = 6.0
    #: Append-only JSONL alert log ("" disables the file sink; alert
    #: transitions always reach stderr as JSON lines).
    alert_log: str | Path = ""

    def __post_init__(self) -> None:
        if self.cache_dir and self.cache_nodes:
            raise ConfigurationError(
                "cache_dir and cache_nodes are mutually exclusive "
                "(local-directory vs sharded L2)",
                context={
                    "cache_dir": str(self.cache_dir),
                    "cache_nodes": list(self.cache_nodes),
                },
            )
        if self.cache_replication < 1:
            raise ConfigurationError(
                f"cache_replication must be >= 1, got {self.cache_replication}",
                context={"cache_replication": self.cache_replication},
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}",
                context={"queue_limit": self.queue_limit},
            )
        if self.max_concurrency < 1:
            raise ConfigurationError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}",
                context={"max_concurrency": self.max_concurrency},
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}",
                context={"retries": self.retries},
            )
        if self.solver_workers < 1:
            raise ConfigurationError(
                f"solver_workers must be >= 1, got {self.solver_workers}",
                context={"solver_workers": self.solver_workers},
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}",
                context={"drain_timeout_s": self.drain_timeout_s},
            )
        if self.breaker_cooldown_s < 0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}",
                context={"breaker_cooldown_s": self.breaker_cooldown_s},
            )
        if self.scrape_interval_s < 0:
            raise ConfigurationError(
                f"scrape_interval_s must be >= 0, got {self.scrape_interval_s}",
                context={"scrape_interval_s": self.scrape_interval_s},
            )
        if not 0.0 <= self.slo_availability < 1.0:
            raise ConfigurationError(
                f"slo_availability must be in [0, 1), got "
                f"{self.slo_availability}",
                context={"slo_availability": self.slo_availability},
            )
        if self.slo_window_s <= 0:
            raise ConfigurationError(
                f"slo_window_s must be positive, got {self.slo_window_s}",
                context={"slo_window_s": self.slo_window_s},
            )
        if self.slo_burn_threshold <= 0:
            raise ConfigurationError(
                f"slo_burn_threshold must be positive, got "
                f"{self.slo_burn_threshold}",
                context={"slo_burn_threshold": self.slo_burn_threshold},
            )

    def supervisor_config(self) -> SupervisorConfig:
        """The per-job supervision policy this service config implies."""
        return SupervisorConfig(
            max_attempts=self.retries + 1,
            case_timeout_s=self.case_timeout_s,
            seed=self.seed,
            heartbeat_interval_s=self.heartbeat_interval_s,
            force_pool=self.isolate_jobs or self.case_timeout_s is not None,
            # One job per supervisor run: the *service* breaker (over
            # terminal outcomes across jobs) owns systemic-failure
            # detection, so the per-run breaker is disabled.
            breaker_threshold=1.1,
        )


class Job:
    """Runtime state of one job: durable record + live event fan-out."""

    __slots__ = (
        "record",
        "case",
        "events",
        "subscribers",
        "done_event",
        "trace_parent",
    )

    def __init__(self, record: JobRecord, case: BatchCase | None) -> None:
        self.record = record
        self.case = case
        self.events: list[dict[str, Any]] = []
        self.subscribers: list[asyncio.Queue] = []
        self.done_event = asyncio.Event()
        #: Upstream parent span uid (``w3c:<hex>`` from the submitter's
        #: ``traceparent`` header); in-memory only — adopted jobs lose
        #: the upstream link but keep their trace id.
        self.trace_parent: str | None = None


class JobManager:
    """Admission, execution, recovery, and drain for all jobs."""

    #: Admission Retry-After backoff (``SupervisorConfig.backoff_s``
    #: semantics: exponential in the rejection streak, capped, with
    #: seeded jitter).
    _ADMISSION_BACKOFF = dict(
        backoff_base_s=0.5,
        backoff_factor=2.0,
        backoff_cap_s=15.0,
        backoff_jitter=0.25,
    )

    def __init__(
        self,
        config: ServiceConfig,
        *,
        metrics: MetricsRegistry | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = JobStore(config.store_dir)
        self._loop = loop
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._queued = 0
        self._running: set[str] = set()
        self._workers: list[asyncio.Task] = []
        self._draining = False
        self._drained_s: float | None = None
        self._sup_config = config.supervisor_config()
        self._rng = random.Random(config.seed)
        self._admission = SupervisorConfig(
            seed=config.seed, **self._ADMISSION_BACKOFF
        )
        self._reject_streak = 0
        self.breaker = CircuitBreaker(
            config.breaker_window,
            config.breaker_threshold,
            config.breaker_min_samples,
        )
        self._breaker_opened_s = 0.0
        self._started_s = time.monotonic()
        #: Durable L2 backend (attached to the global cache in
        #: :meth:`start`; kept here for ``stats()``).
        self._l2: Any = None
        #: Chaos hook (tests/CI only): a
        #: :class:`~repro.robustness.faults.FaultPlan` handed to every
        #: job's supervised batch run, so a live service can take a
        #: scripted worker-crash burst exactly like the batch chaos
        #: suite.  None in production.
        self.fault_plan: Any = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> dict[str, int]:
        """Adopt the store and spawn the worker tasks.

        Returns adoption counts (``restored`` terminal jobs served
        as-is, ``adopted`` queued/running jobs re-enqueued).
        """
        self._loop = asyncio.get_running_loop()
        if self.config.cache_dir or self.config.cache_nodes:
            # Lazy: configure_l2 defers the shard/store imports, which
            # must not load during repro.parallel package init.
            from repro.parallel.cache import configure_l2

            self._l2 = configure_l2(
                self.config.cache_dir,
                self.config.cache_nodes,
                replication=self.config.cache_replication,
                seed=self.config.seed,
            )
            _log.warning(
                "durable L2 cache attached: %s",
                self._l2.stats().get("backend", "?"),
            )
        restored = adopted = 0
        stored = self.store.load()
        for record in sorted(stored.values(), key=lambda r: r.created_unix):
            try:
                case = case_from_spec(record.spec)
            except ValueError as exc:
                # A spec that no longer parses (schema drift) must not
                # wedge the boot; park it as failed with provenance.
                if not record.terminal:
                    record.state = JOB_FAILED
                    record.error = f"unrecoverable spec on adoption: {exc}"
                    record.error_type = type(exc).__name__
                    record.updated_unix = time.time()
                    self.store.append(record)
                case = None
            job = Job(record, case)
            self._jobs[record.job_id] = job
            if record.key:
                self._by_key[record.key] = record.job_id
            if record.terminal:
                job.done_event.set()
                restored += 1
                continue
            record.state = JOB_QUEUED
            record.resumed = True
            record.updated_unix = time.time()
            self.store.append(record)
            self._enqueue(job)
            adopted += 1
            self._publish(
                job,
                {
                    "event": "job_adopted",
                    "job_id": record.job_id,
                    "runs": record.runs,
                },
            )
        # Startup compaction: one line per job again after the
        # append-per-transition history of previous lives.
        self.store.compact({j.record.job_id: j.record for j in self._jobs.values()})
        self.metrics.counter("service.jobs.restored").inc(restored)
        self.metrics.counter("service.jobs.adopted").inc(adopted)
        self._workers = [
            asyncio.ensure_future(self._worker(i))
            for i in range(self.config.max_concurrency)
        ]
        if restored or adopted:
            _log.warning(
                "job store re-adopted: %d terminal served from store, "
                "%d re-enqueued",
                restored,
                adopted,
            )
        return {"restored": restored, "adopted": adopted}

    async def drain(self) -> dict[str, Any]:
        """Graceful shutdown: stop admitting, finish in-flight, flush.

        Queued-but-unstarted jobs stay ``queued`` in the store and are
        re-adopted by the next server life; running jobs get
        ``drain_timeout_s`` to finish.  Returns drain statistics
        (``clean`` is False when a job had to be abandoned mid-solve).
        """
        if self._draining:
            return self.drain_stats()
        started = time.monotonic()
        self._draining = True
        self.metrics.gauge("service.draining").set(1)
        for _ in self._workers:
            self._queue.put_nowait(None)
        if self._workers:
            _done, pending = await asyncio.wait(
                self._workers, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        abandoned = len(self._running)
        for job_id in sorted(self._running):
            _log.warning(
                "drain timeout: abandoning in-flight job %s "
                "(still 'running' in the store; the next server life "
                "re-adopts it)",
                job_id,
            )
        self.store.compact({j.record.job_id: j.record for j in self._jobs.values()})
        self._drained_s = time.monotonic() - started
        self.metrics.gauge("service.drain_s").set(round(self._drained_s, 6))
        return self.drain_stats(abandoned=abandoned)

    def drain_stats(self, abandoned: int | None = None) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.record.state] = states.get(job.record.state, 0) + 1
        return {
            "drain_s": self._drained_s,
            "abandoned": len(self._running) if abandoned is None else abandoned,
            "in_flight": len(self._running),
            "clean": not self._running,
            "jobs": states,
        }

    # -- admission -----------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def breaker_open(self) -> bool:
        """Open state with cooldown self-healing (half-open probe)."""
        if not self.breaker.open:
            return False
        if (
            time.monotonic() - self._breaker_opened_s
            >= self.config.breaker_cooldown_s
        ):
            self.breaker.reset()
            _log.warning(
                "circuit breaker cooldown elapsed; accepting traffic again"
            )
            return False
        return True

    @property
    def ready(self) -> bool:
        return not self._draining and not self.breaker_open

    def queue_depth(self) -> int:
        return self._queued

    def running_count(self) -> int:
        return len(self._running)

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return sorted(
            self._jobs.values(), key=lambda j: j.record.created_unix
        )

    def submit(
        self,
        spec: dict[str, Any],
        *,
        request_id: str = "",
        trace: TraceContext | None = None,
    ) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, created)``.

        Runs synchronously on the event loop, so two concurrent
        identical POSTs cannot both create a job: the second sees the
        first in ``_by_key`` and shares its id.

        ``request_id`` is echoed in the job record and every log line
        about the job; ``trace`` (from the submitter's ``traceparent``
        header) pins the job's distributed trace id so the worker-side
        spans stitch into the caller's trace.
        """
        case = case_from_spec(spec)
        if (
            case.options.deadline_s is None
            and self.config.default_deadline_s is not None
        ):
            spec = dict(spec)
            spec["deadline"] = self.config.default_deadline_s
            case = case_from_spec(spec)
        key = job_key(case)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            job = self._jobs[existing_id]
            job.record.dedup_hits += 1
            self.metrics.counter("service.dedup_hits").inc()
            self._reject_streak = 0
            return job, False
        if self._draining:
            self.metrics.counter("service.rejected.draining").inc()
            raise ServiceDraining(
                "server is draining and no longer admits jobs"
            )
        if self.breaker_open:
            self.metrics.counter("service.rejected.breaker").inc()
            remaining = self.config.breaker_cooldown_s - (
                time.monotonic() - self._breaker_opened_s
            )
            raise ServiceNotReady(
                "circuit breaker is open (recent jobs fail systemically); "
                "load is shed until the cooldown elapses",
                retry_after_s=max(1.0, remaining),
            )
        if self._queued >= self.config.queue_limit:
            self._reject_streak += 1
            self.metrics.counter("service.rejected.queue_full").inc()
            retry_after = self._admission.backoff_s(
                min(self._reject_streak, 6), self._rng
            )
            raise QueueFull(
                f"admission queue is full ({self.config.queue_limit} jobs); "
                "retry after the indicated delay",
                retry_after_s=retry_after,
            )
        self._reject_streak = 0
        job_id = key[:16]
        record = JobRecord(
            job_id=job_id,
            key=key,
            spec=dict(spec),
            label=case.named(),
            state=JOB_QUEUED,
            request_id=request_id,
            trace_id=trace.trace_id if trace is not None else new_trace_id(),
        )
        job = Job(record, case)
        job.trace_parent = trace.parent_uid if trace is not None else None
        self._jobs[job_id] = job
        self._by_key[key] = job_id
        self.store.append(record)
        self._enqueue(job)
        self.metrics.counter("service.admitted").inc()
        self._publish(
            job,
            {
                "event": "job_queued",
                "job_id": job_id,
                "label": record.label,
                "queue_depth": self._queued,
            },
        )
        return job, True

    def _enqueue(self, job: Job) -> None:
        self._queued += 1
        self.metrics.gauge("service.queue_depth").set(self._queued)
        self._queue.put_nowait(job)

    # -- event fan-out -------------------------------------------------------
    def subscribe(self, job: Job) -> tuple[list[dict[str, Any]], asyncio.Queue]:
        """History snapshot + live queue (no gap, no duplicates).

        Called on the loop thread with no await between the two steps,
        so no event can land in both the snapshot and the queue.
        """
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return list(job.events), queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, job: Job, payload: dict[str, Any]) -> None:
        payload = dict(payload)
        payload.setdefault("job_id", job.record.job_id)
        job.events.append(payload)
        if len(job.events) > EVENT_HISTORY_LIMIT:
            del job.events[: len(job.events) - EVENT_HISTORY_LIMIT]
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    def _publish_threadsafe(self, job: Job, payload: dict[str, Any]) -> None:
        """Event sink handed to the supervisor (solver-thread side)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._publish, job, payload)

    # -- execution -----------------------------------------------------------
    async def _worker(self, worker_id: int) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            self._queued -= 1
            self.metrics.gauge("service.queue_depth").set(self._queued)
            if self._draining:
                # Leave it 'queued' in the store for the next life.
                continue
            record = job.record
            if record.terminal:
                continue
            if job.case is None:
                self._apply_failure(
                    job, "job has no runnable case (spec failed to parse)", "InputError"
                )
                continue
            record.state = JOB_RUNNING
            record.runs += 1
            record.updated_unix = time.time()
            self.store.append(record)
            self._running.add(record.job_id)
            self.metrics.counter("service.solves").inc()
            self.metrics.gauge("service.running").set(len(self._running))
            self._publish(
                job,
                {
                    "event": "job_running",
                    "job_id": record.job_id,
                    "worker": worker_id,
                    "runs": record.runs,
                },
            )
            try:
                result = await self._in_daemon_thread(self._solve_sync, job)
            except asyncio.CancelledError:
                # Drain gave up on us mid-solve; the store still says
                # 'running', which the next life re-adopts.
                raise
            except Exception as exc:  # solver plumbing, not the case
                _log.warning(
                    "job %s (request %s) solver infrastructure failed: %s",
                    record.job_id,
                    record.request_id or "-",
                    exc,
                    exc_info=True,
                )
                self._apply_failure(
                    job, f"{type(exc).__name__}: {exc}", type(exc).__name__
                )
            else:
                self._apply_result(job, result)

    async def _in_daemon_thread(self, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` in a daemon thread (unlike ``asyncio.to_thread``,
        a stuck solve can never block interpreter exit)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _set(ok: bool, value: Any) -> None:
            if future.cancelled():
                return
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)

        def _runner() -> None:
            try:
                value = fn(*args)
            except BaseException as exc:  # delivered to the future
                loop.call_soon_threadsafe(_set, False, exc)
            else:
                loop.call_soon_threadsafe(_set, True, value)

        threading.Thread(
            target=_runner, name="xring-job-solver", daemon=True
        ).start()
        return await future

    def _solve_sync(self, job: Job) -> BatchResult:
        """One job through the supervised batch engine (solver thread).

        Span collection is always on: the job's :class:`TraceContext`
        is passed *explicitly* (contextvars do not cross the thread
        boundary into this daemon thread), the supervisor ships it to
        the worker, and the annotated spans come back through the
        result pickle.  A synthetic ``job`` root span ties the
        cross-process subtrees into one tree per request.
        """
        record = job.record
        root_uid = f"job:{record.job_id}"
        trace = TraceContext(
            trace_id=record.trace_id or new_trace_id(),
            parent_uid=root_uid,
        )
        started_unix = time.time()
        started = time.perf_counter()
        synthesizer = BatchSynthesizer(
            workers=self.config.solver_workers,
            on_error="collect",
            share_tours=False,
            config=self._sup_config,
            collect_spans=True,
            trace=trace,
            fault_plan=self.fault_plan,
            on_event=lambda event: self._publish_threadsafe(job, event),
        )
        # The ambient request id rides the whole solve on this daemon
        # thread, so outbound L2 cache calls carry X-Request-Id and a
        # cache fetch is attributable to the job that caused it.
        with use_request_id(record.request_id or ""):
            report = synthesizer.run([job.case])
        result = report.results[0]
        root = {
            "name": "job",
            "span_id": 0,
            "parent_id": None,
            "thread_id": threading.get_ident(),
            "start_s": 0.0,
            "duration_s": time.perf_counter() - started,
            "attributes": {
                "job_id": record.job_id,
                "request_id": record.request_id,
                "runs": record.runs,
            },
            "case": record.label,
            "trace_id": trace.trace_id,
            "span_uid": root_uid,
            "parent_uid": job.trace_parent,
            "pid": os.getpid(),
            "start_unix": started_unix,
        }
        result.metrics["spans"] = [root] + list(report.span_records)
        return result

    # -- terminal transitions ------------------------------------------------
    def _apply_result(self, job: Job, result: BatchResult) -> None:
        record = job.record
        metrics_snapshot = dict(result.metrics)
        spans = metrics_snapshot.pop("spans", None)
        if spans:
            record.trace = spans
        self.metrics.merge_snapshot(metrics_snapshot)
        if result.cached:
            # Served from the durable L2 without a solve — the metric
            # the warm-restart smoke test asserts on.
            self.metrics.counter("service.cache.l2_result_hits").inc()
        record.attempts = result.attempts
        record.elapsed_s = result.elapsed_s
        record.failure_history = [a.to_dict() for a in result.failure_history]
        if result.ok and result.design is not None:
            design_dict = result.design.to_dict()
            report = result.design.report
            record.result = {
                "design": design_dict,
                "report": None if report is None else report.to_dict(),
            }
            record.digest = design_digest(design_dict)
            record.degraded = bool(report is not None and report.degraded)
            record.fallbacks = (
                [] if report is None else list(report.fallbacks)
            )
            record.error = None
            record.error_type = ""
            record.state = JOB_DONE
        else:
            record.error = result.error or "unknown failure"
            record.error_type = result.error_type or "SynthesisError"
            record.state = JOB_FAILED
        self._finish(job)

    def _apply_failure(self, job: Job, error: str, error_type: str) -> None:
        record = job.record
        record.error = error
        record.error_type = error_type
        record.state = JOB_FAILED
        self._finish(job)

    def _finish(self, job: Job) -> None:
        record = job.record
        record.updated_unix = time.time()
        self.store.append(record)
        self._running.discard(record.job_id)
        self.metrics.gauge("service.running").set(len(self._running))
        ok = record.state == JOB_DONE
        self.metrics.counter(
            "service.jobs.done" if ok else "service.jobs.failed"
        ).inc()
        if record.degraded:
            self.metrics.counter("service.jobs.degraded").inc()
        self.metrics.histogram(
            "service.job_latency_s", LATENCY_BUCKETS
        ).observe(max(0.0, record.updated_unix - record.created_unix))
        self.metrics.histogram(
            "service.solve_latency_s", LATENCY_BUCKETS
        ).observe(max(0.0, record.elapsed_s))
        was_open = self.breaker.open
        self.breaker.record(ok)
        if self.breaker.open and not was_open:
            self._breaker_opened_s = time.monotonic()
            self.metrics.counter("service.breaker_opens").inc()
            _log.warning(
                "circuit breaker opened after job %s (request %s, %s); "
                "shedding load for %.1fs",
                record.job_id,
                record.request_id or "-",
                record.error_type or "ok",
                self.config.breaker_cooldown_s,
            )
        self._publish(
            job,
            {
                "event": "job_done" if ok else "job_failed",
                "job_id": record.job_id,
                "state": record.state,
                "attempts": record.attempts,
                "elapsed_s": round(record.elapsed_s, 6),
                "degraded": record.degraded,
                "error": record.error,
                "error_type": record.error_type,
                "digest": record.digest,
            },
        )
        job.done_event.set()

    # -- introspection -------------------------------------------------------
    def retry_after_header(self, exc: AdmissionError) -> dict[str, str]:
        if exc.retry_after_s is None:
            return {}
        return {"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))}

    def stats(self) -> dict[str, Any]:
        """Summary counters (drain report, run-history record)."""
        counters = self.metrics.snapshot().get("counters", {})
        cache_l2: dict[str, Any] | None = None
        if self._l2 is not None:
            try:
                cache_l2 = self._l2.stats()
            except Exception:
                cache_l2 = {"error": "unavailable"}
        return {
            "cache_l2": cache_l2,
            "cache_l2_result_hits": int(
                counters.get("service.cache.l2_result_hits", 0)
            ),
            "jobs": len(self._jobs),
            "queue_depth": self._queued,
            "running": len(self._running),
            "draining": self._draining,
            "ready": self.ready,
            "breaker_open": self.breaker.open,
            "uptime_s": round(time.monotonic() - self._started_s, 3),
            "admitted": int(counters.get("service.admitted", 0)),
            "dedup_hits": int(counters.get("service.dedup_hits", 0)),
            "solves": int(counters.get("service.solves", 0)),
            "done": int(counters.get("service.jobs.done", 0)),
            "failed": int(counters.get("service.jobs.failed", 0)),
            "rejected_queue_full": int(
                counters.get("service.rejected.queue_full", 0)
            ),
            "rejected_breaker": int(counters.get("service.rejected.breaker", 0)),
            "rejected_draining": int(
                counters.get("service.rejected.draining", 0)
            ),
            "restored": int(counters.get("service.jobs.restored", 0)),
            "adopted": int(counters.get("service.jobs.adopted", 0)),
        }
