"""Supervised case execution for the batch engine.

:class:`WorkerSupervisor` owns a small pool of worker *processes*
(raw :mod:`multiprocessing`, not a ``ProcessPoolExecutor``, so a
single member can be killed and respawned without breaking the pool)
and drives every :class:`BatchCase` through a terminal state machine::

    running -> done
    running -> retrying (backoff) -> running
    running -> quarantined            (attempt budget exhausted)
    pending -> circuit-open           (breaker tripped, fail fast)

Responsibilities, all parent-side:

- **Watchdog** — a case that exceeds ``case_timeout_s`` gets its
  worker SIGKILLed and respawned; the *case* is retried, the *batch*
  keeps running.
- **Crash isolation** — a worker that dies mid-case (segfault, OOM
  kill, injected ``os._exit``) surfaces as a
  :class:`~repro.robustness.errors.WorkerCrash` attempt failure, never
  as a lost batch.
- **Retry with backoff** — failed attempts are re-enqueued after
  ``backoff_base_s * factor^(n-1)`` (capped) plus deterministic
  seeded jitter, up to ``max_attempts``; attempts that exhaust the
  budget land in quarantine with their full failure history.
- **Circuit breaker** — a sliding window of recent attempt outcomes;
  when the failure fraction crosses the threshold the breaker latches
  open, pending cases fail fast with
  :class:`~repro.robustness.errors.CircuitOpen`, and no further
  retries are scheduled (a broken backend should not burn the whole
  retry budget case by case).
- **Fault injection** — worker-level faults from a
  :class:`~repro.robustness.faults.FaultPlan` are popped here (parent
  side, one-shot) and shipped with the task, so a retried case runs
  clean and the chaos suite replays identically.

**Pool tasks.**  The pool forks once per run, after the batch layer
has attached the shared Step-1 tours.  A :class:`PlanTask` (Step 2
shared by a group of cases) is dispatched before any case; the cases
waiting on it are held back until it returns, while the other cases
run beside it.  A plan task that raises, crashes or times out
releases its cases without a plan, and each selects its own.  A
worker sends a design without its ``network`` and ``tour`` when they
are the very objects of its case; the parent re-attaches its own
before anything else sees the result.

``workers=1`` runs the same state machine in-process: retries,
quarantine, and the breaker behave identically, and injected
crash/abort faults are simulated as attempt failures (hang faults
become timeout failures when they exceed the case budget).  The one
divergence is preemption: an in-process case cannot be killed mid-run.

Every attempt emits a ``batch.attempt`` span record (when span
collection is on) and the aggregate lands in :class:`SupervisorStats`,
which the batch layer folds into ``batch.*`` counters.

**Live progress.**  Pass ``on_event=`` (a callable taking one
JSON-ready dict) and every state transition emits an event —
``case_start`` / ``case_done`` / ``case_failed`` / ``case_quarantined``
/ ``case_skipped`` / ``worker_restart`` / ``circuit_open`` — plus
periodic ``heartbeat`` events (per-state counts and the in-flight case
list) when ``SupervisorConfig.heartbeat_interval_s`` is set.  The CLI's
``xring batch --progress`` renders this stream as JSONL on stderr.  A
sink that raises is disabled, never fatal.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing as mp
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable

from repro.core.design import XRingDesign
from repro.core.ring import RingTour
from repro.core.shortcuts import ShortcutPlan
from repro.core.synthesizer import (
    SynthesisOptions,
    XRingSynthesizer,
    plan_shortcuts,
)
from repro.network import Network
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsContext,
    TraceContext,
    Tracer,
    current_trace,
    get_logger,
    span_records,
    synthetic_span_record,
    use_obs,
)
from repro.robustness.errors import ConfigurationError, InputError
from repro.robustness.faults import FaultPlan, WorkerFault, fire_worker_fault

_log = get_logger("parallel.supervisor")

#: Attempt-failure kinds (``AttemptRecord.kind``).
FAIL_ERROR = "error"  # the case raised inside the worker
FAIL_CRASH = "crash"  # the worker process died mid-case
FAIL_TIMEOUT = "timeout"  # the watchdog killed a hung worker

#: Progress-event kinds emitted to the ``on_event`` sink (each event
#: is a flat JSON-ready dict with an ``event`` key and ``t_s`` seconds
#: since the supervisor started; the batch layer adds
#: ``batch_start`` / ``case_cached`` / ``batch_done``).
EVENT_CASE_START = "case_start"
EVENT_CASE_DONE = "case_done"
EVENT_CASE_FAILED = "case_failed"  # one attempt failed (may retry)
EVENT_CASE_QUARANTINED = "case_quarantined"
EVENT_CASE_SKIPPED = "case_skipped"  # circuit breaker fail-fast
EVENT_WORKER_RESTART = "worker_restart"
EVENT_CIRCUIT_OPEN = "circuit_open"
EVENT_HEARTBEAT = "heartbeat"

#: Per-case states reported by heartbeat events.
STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_RETRYING = "retrying"
STATE_DONE = "done"
STATE_QUARANTINED = "quarantined"
STATE_SKIPPED = "skipped"


@dataclass(frozen=True)
class BatchCase:
    """One independent synthesis problem.

    ``tour`` may pre-supply Step 1 (the experiments share the ring
    between #wl settings, as the paper does); ``None`` lets the
    synthesizer construct it.  ``plan`` may pre-supply Step 2 for
    that tour (a batch's :class:`PlanTask` shares it between cases
    whose Step-2 inputs match); the synthesizer drops it when the
    ring stage repairs the tour.
    """

    network: Network
    options: SynthesisOptions
    label: str = ""
    tour: RingTour | None = None
    plan: ShortcutPlan | None = None

    def named(self) -> str:
        return self.label or self.options.label


@dataclass
class AttemptRecord:
    """One failed attempt of a case (successes are implicit)."""

    attempt: int
    kind: str  # FAIL_ERROR | FAIL_CRASH | FAIL_TIMEOUT
    error: str
    elapsed_s: float = 0.0
    worker_pid: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "worker_pid": self.worker_pid,
        }


@dataclass
class BatchResult:
    """Outcome of one case, in input order.

    Exactly one of ``design`` / ``error`` is set.  ``metrics`` is the
    case's own registry snapshot (the same dict that lands in
    ``design.report.metrics`` for successful runs).  ``attempts`` and
    ``failure_history`` record the supervisor's view: how many tries
    the case took and what each failed attempt looked like.
    """

    index: int
    label: str
    design: XRingDesign | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    metrics: dict[str, Any] = field(default_factory=dict)
    worker_pid: int = 0
    attempts: int = 1
    #: Failed attempts that preceded the terminal state (empty for a
    #: first-try success).
    failure_history: list[AttemptRecord] = field(default_factory=list)
    #: The case failed its full attempt budget (or a non-retryable
    #: error) and was parked instead of aborting the batch.
    quarantined: bool = False
    #: The batch was interrupted before this case finished; a resume
    #: run re-enqueues it.
    interrupted: bool = False
    #: Exception type name of the terminal error ("" when ok).
    error_type: str = ""
    #: Internal: whether the terminal error is worth retrying
    #: (input/configuration errors are deterministic, so they are not).
    retryable: bool = True
    #: Internal: served from the durable L2 cache, not recomputed.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (structure lives in ``design.to_dict``)."""
        return {
            "index": self.index,
            "label": self.label,
            "ok": self.ok,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": self.elapsed_s,
            "worker_pid": self.worker_pid,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "interrupted": self.interrupted,
            "cached": self.cached,
            "failure_history": [a.to_dict() for a in self.failure_history],
        }


@dataclass(frozen=True)
class PlanTask:
    """Step 2 shared by a group of cases, run as the first pool task.

    The worker selects the plan on case ``source``'s tour, options and
    demands; the cases in ``waiting`` (``source`` among them) are held
    back until it returns and then run with it attached.  ``trace`` is
    the context the task's ``batch.share.shortcuts`` span attaches to
    (``None`` when untraced).  ``label`` keys worker faults
    (:meth:`~repro.robustness.faults.FaultPlan.worker_crash` and
    friends, attempt 1).
    """

    source: int
    waiting: tuple[int, ...]
    label: str
    trace: TraceContext | None = None


@dataclass
class PlanResult:
    """Outcome of one :class:`PlanTask`: the plan, or why there is none.

    ``metrics`` is the task's own registry snapshot (plus ``"spans"``
    when spans are collected); the batch layer merges it into the
    report once, never into a case.
    """

    label: str
    plan: ShortcutPlan | None = None
    error: str | None = None
    metrics: dict[str, Any] = field(default_factory=dict)


def _execute_plan(task: PlanTask, case: BatchCase, collect_spans: bool) -> PlanResult:
    """Select the shared plan of ``task`` on ``case``'s Step-1 tour.

    Like :func:`_execute_case`, every exception is captured into the
    result; a failed selection leaves ``plan`` ``None``.
    """
    registry = MetricsRegistry()
    tracer = Tracer() if collect_spans else NULL_TRACER
    result = PlanResult(label=task.label)
    with use_obs(ObsContext(tracer=tracer, metrics=registry)):
        with tracer.span("batch.share.shortcuts", cases=len(task.waiting)) as span:
            try:
                result.plan = plan_shortcuts(
                    case.tour, case.options, case.network.demands()
                )
            except Exception as exc:  # isolated: the cases select their own
                result.error = f"{type(exc).__name__}: {exc}"
            span.set_attribute("plans", int(result.plan is not None))
    result.metrics = registry.snapshot()
    if collect_spans:
        result.metrics["spans"] = span_records(tracer, task.trace)
    return result


def _execute_case(
    index: int,
    case: BatchCase,
    collect_spans: bool,
    trace: TraceContext | None = None,
) -> BatchResult:
    """Run one case under a fresh per-case observability context.

    Top-level so worker processes can import it under any start
    method.  Every exception is captured into the result — workers
    never die on a case (only injected faults and real crashes do).

    ``trace`` is the propagated request context: exported span records
    carry the request's trace id and globally-unique span uids, and
    the local roots point at the dispatching attempt's uid (see
    :mod:`repro.obs.propagate`).  Without one the records form a
    fresh trace.
    """
    start = time.perf_counter()
    registry = MetricsRegistry()
    tracer = Tracer() if collect_spans else NULL_TRACER
    result = BatchResult(index=index, label=case.named(), worker_pid=os.getpid())
    with use_obs(ObsContext(tracer=tracer, metrics=registry)):
        try:
            synthesizer = XRingSynthesizer(
                case.network, case.options, tracer=tracer, metrics=registry
            )
            result.design = synthesizer.run(tour=case.tour, plan=case.plan)
        except Exception as exc:  # isolated: reported, not propagated
            result.error = f"{type(exc).__name__}: {exc}"
            result.error_type = type(exc).__name__
            result.retryable = not isinstance(
                exc, (ConfigurationError, InputError)
            )
    result.elapsed_s = time.perf_counter() - start
    result.metrics = registry.snapshot()
    if collect_spans:
        result.metrics["spans"] = span_records(tracer, trace, case=result.label)
    return result


def _strip_shared_inputs(design: XRingDesign | None, case: BatchCase) -> None:
    """Drop the design's ``network`` and ``tour`` where they are the
    very objects of ``case``: the parent holds them already."""
    if design is None:
        return
    if design.network is case.network:
        design.network = None
    if design.tour is case.tour:
        design.tour = None


def _reattach_shared_inputs(design: XRingDesign | None, case: BatchCase) -> None:
    """Undo :func:`_strip_shared_inputs` with the parent's own objects."""
    if design is None:
        return
    if design.network is None:
        design.network = case.network
    if design.tour is None:
        design.tour = case.tour


def _worker_main(conn, collect_spans: bool) -> None:
    """Worker-process loop: recv task, run it, send result.

    A task is ``(seq, job, case, fault, trace)``: ``job`` is the case
    index, or a :class:`PlanTask` selecting Step 2 on ``case``.  A
    ``None`` task is the shutdown sentinel.  Injected worker faults
    fire *before* the task body, exactly where a real crash/hang
    interrupts useful work.
    """
    # Keep this process's collector off the objects it inherited: a
    # full collection would touch, and so copy, every page of them.
    gc.freeze()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        task_seq, job, case, fault, trace = item
        if fault is not None:
            fire_worker_fault(fault)
        if isinstance(job, PlanTask):
            result = _execute_plan(job, case, collect_spans)
        else:
            result = _execute_case(job, case, collect_spans, trace)
            _strip_shared_inputs(result.design, case)
        try:
            conn.send((task_seq, result))
        except (BrokenPipeError, OSError):
            return


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry / watchdog / circuit-breaker policy of one batch run.

    ``max_attempts=1`` disables retries; ``case_timeout_s=None``
    disables the watchdog; ``breaker_threshold > 1`` disables the
    breaker.  Backoff after the Nth failed attempt is
    ``min(cap, base * factor^(N-1)) * (1 + jitter * U[0,1))`` with a
    seeded RNG, so chaos tests replay identically.
    """

    max_attempts: int = 3
    case_timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0
    breaker_window: int = 16
    breaker_threshold: float = 0.8
    breaker_min_samples: int = 6
    poll_interval_s: float = 0.05
    #: Emit a ``heartbeat`` progress event at most this often while the
    #: batch runs (0 disables heartbeats; state-transition events are
    #: governed only by the ``on_event`` sink being set).
    heartbeat_interval_s: float = 0.0
    #: Run even a single-worker batch through the process pool instead
    #: of in-process.  The in-process path cannot preempt a truly hung
    #: case; the job service sets this when a watchdog timeout is
    #: configured so one stuck solve is SIGKILLed, not waited on.
    force_pool: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}",
                context={"max_attempts": self.max_attempts},
            )
        if self.case_timeout_s is not None and self.case_timeout_s <= 0:
            raise ConfigurationError(
                f"case_timeout_s must be positive, got {self.case_timeout_s}",
                context={"case_timeout_s": self.case_timeout_s},
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError(
                "backoff budgets must be >= 0",
                context={
                    "backoff_base_s": self.backoff_base_s,
                    "backoff_cap_s": self.backoff_cap_s,
                },
            )
        if self.breaker_window < 1 or self.breaker_min_samples < 1:
            raise ConfigurationError(
                "breaker window and min samples must be >= 1",
                context={
                    "breaker_window": self.breaker_window,
                    "breaker_min_samples": self.breaker_min_samples,
                },
            )
        if self.heartbeat_interval_s < 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be >= 0, got "
                f"{self.heartbeat_interval_s}",
                context={"heartbeat_interval_s": self.heartbeat_interval_s},
            )

    def backoff_s(self, failed_attempt: int, rng: random.Random) -> float:
        """Delay before re-dispatching after the Nth failed attempt."""
        base = self.backoff_base_s * (self.backoff_factor ** (failed_attempt - 1))
        delay = min(self.backoff_cap_s, base)
        return delay * (1.0 + self.backoff_jitter * rng.random())


class CircuitBreaker:
    """Sliding-window failure-rate breaker; latches once open."""

    def __init__(
        self, window: int, threshold: float, min_samples: int
    ) -> None:
        self._outcomes: deque[bool] = deque(maxlen=max(1, window))
        self.threshold = threshold
        self.min_samples = min_samples
        self._open = False

    def record(self, ok: bool) -> None:
        """Record one attempt outcome; may trip the breaker."""
        if self._open:
            return
        self._outcomes.append(ok)
        if len(self._outcomes) < self.min_samples:
            return
        failures = sum(1 for outcome in self._outcomes if not outcome)
        if failures / len(self._outcomes) >= self.threshold:
            self._open = True

    @property
    def open(self) -> bool:
        return self._open

    def reset(self) -> None:
        """Close the breaker and forget the window (half-open probe).

        The supervisor itself never resets mid-batch (a tripped batch
        stays tripped); long-lived callers — the job service's
        readiness probe — reset after a cooldown to let fresh traffic
        re-test the worker pool.
        """
        self._outcomes.clear()
        self._open = False


@dataclass
class SupervisorStats:
    """Aggregate supervisor events of one batch run."""

    retries: int = 0
    worker_restarts: int = 0
    quarantined: int = 0
    timeouts: int = 0
    crashes: int = 0
    circuit_opened: bool = False
    interrupted: bool = False
    #: Cases restored from the L2 instead of run (set by the batch layer).
    resumed: int = 0
    #: Parent-side ``batch.attempt`` span records (span-collection on).
    span_records: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "quarantined": self.quarantined,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "circuit_opened": self.circuit_opened,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
        }


@dataclass
class _Task:
    """One case moving through the supervisor state machine."""

    index: int
    case: BatchCase
    attempt: int = 1
    history: list[AttemptRecord] = field(default_factory=list)
    #: Monotonic time before which the task must not re-dispatch.
    ready_s: float = 0.0

    def label(self) -> str:
        return self.case.named()


class _Worker:
    """Parent-side handle of one pool member."""

    __slots__ = ("worker_id", "process", "conn", "task", "task_seq", "started_s")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.task: _Task | PlanTask | None = None
        self.task_seq = -1
        self.started_s = 0.0


class WorkerSupervisor:
    """Drives tasks to terminal states over a self-healing worker pool."""

    def __init__(
        self,
        workers: int,
        config: SupervisorConfig | None = None,
        *,
        collect_spans: bool = False,
        fault_plan: FaultPlan | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        trace: TraceContext | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}",
                context={"workers": workers},
            )
        self.workers = workers
        self.config = config or SupervisorConfig()
        self.collect_spans = collect_spans
        # Trace context for cross-process stitching.  Explicit beats
        # ambient beats fresh: a service request passes its own context,
        # a CLI run inherits whatever `use_trace` installed, and a bare
        # collect_spans run still gets a consistent trace id.
        if trace is None and collect_spans:
            trace = current_trace() or TraceContext.new()
        self.trace = trace
        self.fault_plan = fault_plan
        self.on_event = on_event
        self.stats = SupervisorStats()
        self._rng = random.Random(self.config.seed)
        self._breaker = CircuitBreaker(
            self.config.breaker_window,
            self.config.breaker_threshold,
            self.config.breaker_min_samples,
        )
        self._epoch = 0.0
        self._task_seq = 0
        self._span_seq = 0
        self._results: dict[int, BatchResult] = {}
        self._tasks: dict[int, _Task] = {}
        #: One result per :class:`PlanTask` of the last run, in
        #: completion order.
        self.plan_results: list[PlanResult] = []
        self._on_complete: Callable[[BatchResult], None] | None = None
        #: Per-case heartbeat state (index -> STATE_*), plus labels and
        #: dispatch times so heartbeats can report in-flight elapsed.
        self._case_states: dict[int, str] = {}
        self._case_labels: dict[int, str] = {}
        self._case_started_s: dict[int, float] = {}
        self._last_heartbeat_s = 0.0
        self._circuit_event_sent = False

    # -- public entry --------------------------------------------------------
    def run(
        self,
        indexed_cases: list[tuple[int, BatchCase]],
        *,
        plans: list[PlanTask] | None = None,
        on_complete: Callable[[BatchResult], None] | None = None,
    ) -> list[BatchResult]:
        """Run every (index, case) pair to a terminal state.

        ``plans`` run first; each holds back the cases it names until
        its plan arrives (:attr:`plan_results` keeps what they
        returned).  ``on_complete`` fires once per *finished* case
        (success or quarantine or circuit-open) — the L2 checkpoint
        hook.  Interrupted cases never reach it, so a resume
        re-enqueues them.  Results come back unordered; callers sort
        by index.
        """
        self._epoch = time.monotonic()
        self._results = {}
        self._on_complete = on_complete
        self.plan_results = []
        tasks = [_Task(index, case) for index, case in indexed_cases]
        self._tasks = {t.index: t for t in tasks}
        self._case_states = {t.index: STATE_PENDING for t in tasks}
        self._case_labels = {t.index: t.label() for t in tasks}
        self._case_started_s = {}
        self._last_heartbeat_s = time.monotonic()
        if not tasks:
            return []
        pool_size = min(self.workers, len(tasks))
        try:
            if pool_size <= 1 and not self.config.force_pool:
                self._run_inline(tasks, plans or [])
            else:
                self._run_pool(tasks, plans or [], max(1, pool_size))
        except KeyboardInterrupt:
            self.stats.interrupted = True
            self._mark_interrupted(tasks)
        if self._breaker.open:
            self.stats.circuit_opened = True
        return list(self._results.values())

    # -- progress events -----------------------------------------------------
    def _emit(self, event: str, **fields: Any) -> None:
        """Push one progress event to the sink; sinks never break runs."""
        if self.on_event is None:
            return
        payload = {
            "event": event,
            "t_s": round(time.monotonic() - self._epoch, 6),
            **fields,
        }
        try:
            self.on_event(payload)
        except Exception:  # a broken sink must not kill the batch
            _log.warning("progress-event sink raised; disabling it", exc_info=True)
            self.on_event = None

    def _start_case(self, task: _Task, worker_pid: int) -> None:
        self._case_states[task.index] = STATE_RUNNING
        self._case_started_s[task.index] = time.monotonic()
        self._emit(
            EVENT_CASE_START,
            index=task.index,
            label=task.label(),
            attempt=task.attempt,
            worker_pid=worker_pid,
        )

    def _maybe_heartbeat(self) -> None:
        """Emit a heartbeat when the configured interval has elapsed.

        The event carries per-state counts plus an ``active`` list of
        in-flight cases (index, label, attempt, elapsed) — enough to
        render a live progress line per case without polling anything.
        """
        interval = self.config.heartbeat_interval_s
        if self.on_event is None or interval <= 0:
            return
        now = time.monotonic()
        if now - self._last_heartbeat_s < interval:
            return
        self._last_heartbeat_s = now
        counts: dict[str, int] = {}
        for state in self._case_states.values():
            counts[state] = counts.get(state, 0) + 1
        active = [
            {
                "index": index,
                "label": self._case_labels.get(index, ""),
                "elapsed_s": round(
                    now - self._case_started_s.get(index, now), 3
                ),
            }
            for index, state in sorted(self._case_states.items())
            if state == STATE_RUNNING
        ]
        self._emit(
            EVENT_HEARTBEAT,
            total=len(self._case_states),
            states=counts,
            active=active,
            retries=self.stats.retries,
            worker_restarts=self.stats.worker_restarts,
            circuit_open=self._breaker.open,
        )

    # -- shared state-machine helpers ----------------------------------------
    def _take_fault(self, job: _Task | PlanTask) -> WorkerFault | None:
        if self.fault_plan is None:
            return None
        if isinstance(job, PlanTask):
            return self.fault_plan.take_worker_fault(job.label, 1)
        return self.fault_plan.take_worker_fault(job.label(), job.attempt)

    def _plan_done(self, plan: PlanTask, result: PlanResult) -> list[_Task]:
        """Record a plan task's outcome; returns its waiting cases, with
        the plan attached when there is one."""
        self.plan_results.append(result)
        waiting = [self._tasks[index] for index in plan.waiting]
        if result.plan is None:
            _log.warning(
                "shared shortcut selection %s failed (%s); %d cases select "
                "their own",
                plan.label,
                result.error,
                len(waiting),
            )
            return waiting
        for task in waiting:
            task.case = dataclasses.replace(task.case, plan=result.plan)
        return waiting

    def _attempt_uid(self, task: _Task) -> str:
        """Globally-unique uid of one (case, attempt) dispatch.

        Worker-side root spans parent onto this uid, so retries stitch
        as sibling subtrees under the request instead of colliding.
        """
        return f"sup{os.getpid()}:c{task.index}.a{task.attempt}"

    def _attempt_trace(self, task: _Task) -> TraceContext | None:
        """Child context shipped with one dispatch (None when untraced)."""
        if self.trace is None:
            return None
        return self.trace.child(
            self._attempt_uid(task), prefix=f"c{task.index}.a{task.attempt}"
        )

    def _record_attempt_span(
        self, task: _Task, outcome: str, elapsed_s: float, pid: int
    ) -> None:
        if not self.collect_spans:
            return
        self._span_seq += 1
        self.stats.span_records.append(
            synthetic_span_record(
                "batch.attempt",
                self.trace,
                self._attempt_uid(task),
                # Negative ids: parent-side records, disjoint from any
                # worker tracer's positive span ids.
                span_id=-self._span_seq,
                start_s=max(0.0, time.monotonic() - self._epoch - elapsed_s),
                duration_s=elapsed_s,
                start_unix=time.time() - elapsed_s,
                attributes={
                    "attempt": task.attempt,
                    "outcome": outcome,
                    "worker_pid": pid,
                },
                case=task.label(),
            )
        )

    def _finish(self, task: _Task, result: BatchResult) -> None:
        """Notify ``on_complete``, then move ``task`` to a terminal state.

        In that order, an interrupt while ``on_complete`` stores the
        result leaves the case unfinished (and re-run on resume)
        rather than reported finished but never stored.
        """
        result.attempts = task.attempt
        result.failure_history = list(task.history)
        if self._on_complete is not None and not result.interrupted:
            self._on_complete(result)
        self._results[task.index] = result
        if result.quarantined:
            self.stats.quarantined += 1

    def _succeed(self, task: _Task, result: BatchResult) -> None:
        self._breaker.record(True)
        self._record_attempt_span(task, "ok", result.elapsed_s, result.worker_pid)
        self._case_states[task.index] = STATE_DONE
        self._finish(task, result)
        self._emit(
            EVENT_CASE_DONE,
            index=task.index,
            label=task.label(),
            attempt=task.attempt,
            elapsed_s=round(result.elapsed_s, 6),
            worker_pid=result.worker_pid,
        )

    def _fail_attempt(
        self,
        task: _Task,
        kind: str,
        error: str,
        error_type: str,
        *,
        elapsed_s: float = 0.0,
        worker_pid: int = 0,
        retryable: bool = True,
        metrics: dict[str, Any] | None = None,
    ) -> bool:
        """Record one failed attempt.

        Returns True when the task was re-enqueued for another attempt
        (caller schedules it), False when it reached quarantine.
        """
        task.history.append(
            AttemptRecord(task.attempt, kind, error, elapsed_s, worker_pid)
        )
        self._breaker.record(False)
        if self._breaker.open and not self._circuit_event_sent:
            self._circuit_event_sent = True
            self._emit(EVENT_CIRCUIT_OPEN)
        self._record_attempt_span(task, kind, elapsed_s, worker_pid)
        if kind == FAIL_CRASH:
            self.stats.crashes += 1
        elif kind == FAIL_TIMEOUT:
            self.stats.timeouts += 1
        may_retry = (
            retryable
            and task.attempt < self.config.max_attempts
            and not self._breaker.open
        )
        self._emit(
            EVENT_CASE_FAILED,
            index=task.index,
            label=task.label(),
            attempt=task.attempt,
            kind=kind,
            error=error,
            will_retry=may_retry,
        )
        if may_retry:
            delay = self.config.backoff_s(task.attempt, self._rng)
            _log.warning(
                "case %d (%s) attempt %d failed (%s): %s — retrying in %.3fs",
                task.index,
                task.label(),
                task.attempt,
                kind,
                error,
                delay,
            )
            self.stats.retries += 1
            task.attempt += 1
            task.ready_s = time.monotonic() + delay
            self._case_states[task.index] = STATE_RETRYING
            return True
        _log.warning(
            "case %d (%s) quarantined after %d attempt(s): %s",
            task.index,
            task.label(),
            task.attempt,
            error,
        )
        self._case_states[task.index] = STATE_QUARANTINED
        self._emit(
            EVENT_CASE_QUARANTINED,
            index=task.index,
            label=task.label(),
            attempts=task.attempt,
            error=error,
        )
        self._finish(
            task,
            BatchResult(
                index=task.index,
                label=task.label(),
                error=error,
                error_type=error_type,
                elapsed_s=elapsed_s,
                worker_pid=worker_pid,
                metrics=metrics or {},
                quarantined=True,
                retryable=retryable,
            ),
        )
        return False

    def _fail_circuit_open(self, task: _Task) -> None:
        message = (
            "CircuitOpen: batch circuit breaker is open "
            "(recent cases fail systemically); case skipped"
        )
        self._case_states[task.index] = STATE_SKIPPED
        self._emit(
            EVENT_CASE_SKIPPED, index=task.index, label=task.label()
        )
        self._finish(
            task,
            BatchResult(
                index=task.index,
                label=task.label(),
                error=message,
                error_type="CircuitOpen",
            ),
        )

    def _mark_interrupted(self, tasks: list[_Task]) -> None:
        for task in tasks:
            if task.index in self._results:
                continue
            self._results[task.index] = BatchResult(
                index=task.index,
                label=task.label(),
                error=(
                    "Interrupted: batch stopped before this case "
                    "finished (re-run with --resume to complete it)"
                ),
                error_type="Interrupted",
                interrupted=True,
                attempts=task.attempt,
                failure_history=list(task.history),
            )

    def _handle_result(self, task: _Task, result: BatchResult) -> bool:
        """Digest a completed :func:`_execute_case` result.

        Returns True when the task must be re-enqueued.
        """
        if result.ok:
            self._succeed(task, result)
            return False
        return self._fail_attempt(
            task,
            FAIL_ERROR,
            result.error or "unknown error",
            result.error_type,
            elapsed_s=result.elapsed_s,
            worker_pid=result.worker_pid,
            retryable=result.retryable,
            metrics=result.metrics,
        )

    # -- inline (workers == 1) -----------------------------------------------
    def _simulate_fault(
        self, fault: WorkerFault | None
    ) -> tuple[str, str, str, float] | None:
        """Play a worker fault in-process.

        A crash/abort, or a hang past the case budget, counts the kill
        and respawn the pool would have made and returns the failure it
        stands for: ``(kind, error, error_type, elapsed_s)``.  A shorter
        hang just sleeps; then (and without a fault) the task runs.
        """
        if fault is None:
            return None
        if fault.kind in ("crash", "abort"):
            self.stats.worker_restarts += 1
            return (
                FAIL_CRASH,
                f"WorkerCrash: injected worker {fault.kind} (simulated in-process)",
                "WorkerCrash",
                0.0,
            )
        timeout = self.config.case_timeout_s
        if timeout is not None and fault.seconds > timeout:
            self.stats.worker_restarts += 1
            return (
                FAIL_TIMEOUT,
                f"CaseTimeout: case exceeded {timeout}s "
                "(injected hang, simulated in-process)",
                "CaseTimeout",
                timeout,
            )
        time.sleep(fault.seconds)
        return None

    def _run_inline(self, tasks: list[_Task], plans: list[PlanTask]) -> None:
        for plan in plans:
            failure = self._simulate_fault(self._take_fault(plan))
            if failure is None:
                result = _execute_plan(
                    plan, self._tasks[plan.source].case, self.collect_spans
                )
            else:
                result = PlanResult(plan.label, error=failure[1])
            self._plan_done(plan, result)
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            self._maybe_heartbeat()
            if self._breaker.open:
                self._fail_circuit_open(task)
                continue
            now = time.monotonic()
            if task.ready_s > now:
                time.sleep(task.ready_s - now)
            self._start_case(task, os.getpid())
            failure = self._simulate_fault(self._take_fault(task))
            if failure is not None:
                kind, error, error_type, elapsed_s = failure
                if self._fail_attempt(
                    task,
                    kind,
                    error,
                    error_type,
                    elapsed_s=elapsed_s,
                    worker_pid=os.getpid(),
                ):
                    queue.appendleft(task)
                continue
            result = _execute_case(
                task.index,
                task.case,
                self.collect_spans,
                self._attempt_trace(task),
            )
            if self._handle_result(task, result):
                queue.appendleft(task)

    # -- process pool --------------------------------------------------------
    def _context(self):
        """Fork when available, else spawn; respawned workers reuse it."""
        name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return mp.get_context(name)

    def _spawn_worker(self, ctx, worker_id: int) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.collect_spans),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent must not hold the child's end
        return _Worker(worker_id, process, parent_conn)

    def _respawn(self, ctx, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        fresh = self._spawn_worker(ctx, worker.worker_id)
        worker.process = fresh.process
        worker.conn = fresh.conn
        worker.task = None
        worker.task_seq = -1
        self.stats.worker_restarts += 1
        self._emit(
            EVENT_WORKER_RESTART,
            worker_id=worker.worker_id,
            worker_pid=worker.process.pid or 0,
        )

    def _dispatch(self, worker: _Worker, job: _Task | PlanTask) -> None:
        fault = self._take_fault(job)
        self._task_seq += 1
        if isinstance(job, PlanTask):
            source = self._tasks[job.source].case
            message = (self._task_seq, job, source, fault, None)
        else:
            message = (
                self._task_seq,
                job.index,
                job.case,
                fault,
                self._attempt_trace(job),
            )
        worker.conn.send(message)
        worker.task = job
        worker.task_seq = self._task_seq
        worker.started_s = time.monotonic()
        if isinstance(job, _Task):
            self._start_case(job, worker.process.pid or 0)

    def _run_pool(
        self, tasks: list[_Task], plans: list[PlanTask], pool_size: int
    ) -> None:
        ctx = self._context()
        held = {index for plan in plans for index in plan.waiting}
        queued: deque[PlanTask] = deque(plans)
        pending: deque[_Task] = deque(t for t in tasks if t.index not in held)
        workers: list[_Worker] = []
        try:
            # Each worker takes its first job as soon as it is forked:
            # the plan task starts before the next fork.
            for worker_id in range(pool_size):
                workers.append(self._spawn_worker(ctx, worker_id))
                now = time.monotonic()
                job = queued.popleft() if queued else self._pop_ready(pending, now)
                if job is not None:
                    self._dispatch(workers[-1], job)
            while queued or pending or any(w.task is not None for w in workers):
                now = time.monotonic()

                if self._breaker.open and (pending or queued):
                    self.stats.circuit_opened = True
                    while queued:  # no case will run with the plan
                        plan = queued.popleft()
                        pending.extend(self._tasks[i] for i in plan.waiting)
                    while pending:
                        self._fail_circuit_open(pending.popleft())

                # Dispatch plan tasks, then ready cases, onto idle
                # (live) workers.
                for worker in workers:
                    if not (queued or pending):
                        break
                    if worker.task is not None:
                        continue
                    if not worker.process.is_alive():
                        self._respawn(ctx, worker)
                    job = queued.popleft() if queued else self._pop_ready(pending, now)
                    if job is None:
                        break
                    self._dispatch(worker, job)

                busy = [w for w in workers if w.task is not None]
                self._maybe_heartbeat()
                if not busy:
                    # Nothing in flight: sleep until the next retry is
                    # ready (pure-backoff phase).
                    next_ready = min(t.ready_s for t in pending)
                    time.sleep(
                        min(
                            self.config.poll_interval_s,
                            max(0.0, next_ready - time.monotonic()),
                        )
                    )
                    continue

                owners = {w.conn: w for w in busy}
                for conn in _connection_wait(
                    list(owners), timeout=self.config.poll_interval_s
                ):
                    worker = owners.get(conn)
                    if worker is None or worker.conn is not conn:
                        continue  # conn was replaced by a respawn
                    self._drain_worker(ctx, worker, pending)

                self._enforce_timeouts(ctx, workers, pending)
                self._maybe_heartbeat()
        finally:
            self._shutdown(workers)

    @staticmethod
    def _pop_ready(pending: deque[_Task], now: float) -> _Task | None:
        """Earliest-index pending task whose backoff delay has elapsed."""
        ready = [t for t in pending if t.ready_s <= now]
        if not ready:
            return None
        task = min(ready, key=lambda t: t.index)
        pending.remove(task)
        return task

    def _drain_worker(self, ctx, worker: _Worker, pending: deque[_Task]) -> None:
        job = worker.task
        try:
            task_seq, result = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-task (crash fault, segfault, OOM).
            dead = worker.process
            pid = dead.pid or 0
            self._respawn(ctx, worker)  # joins the dead process
            if job is None:
                return
            self._lose(
                job,
                FAIL_CRASH,
                f"WorkerCrash: worker pid {pid} died with exit code "
                f"{dead.exitcode} during {self._describe(job)}",
                "WorkerCrash",
                0.0,
                pid,
                pending,
            )
            return
        if job is None or task_seq != worker.task_seq:
            return  # stale result from a superseded dispatch
        worker.task = None
        if isinstance(job, PlanTask):
            pending.extend(self._plan_done(job, result))
            return
        _reattach_shared_inputs(result.design, job.case)
        if self._handle_result(job, result):
            pending.append(job)

    @staticmethod
    def _describe(job: _Task | PlanTask) -> str:
        if isinstance(job, PlanTask):
            return f"plan task {job.label}"
        return f"attempt {job.attempt}"

    def _lose(
        self,
        job: _Task | PlanTask,
        kind: str,
        error: str,
        error_type: str,
        elapsed_s: float,
        pid: int,
        pending: deque[_Task],
    ) -> None:
        """A killed or dead worker took ``job`` with it: fail the case
        attempt, or release a plan task's cases without a plan."""
        if isinstance(job, PlanTask):
            pending.extend(self._plan_done(job, PlanResult(job.label, error=error)))
        elif self._fail_attempt(
            job, kind, error, error_type, elapsed_s=elapsed_s, worker_pid=pid
        ):
            pending.append(job)

    def _enforce_timeouts(
        self, ctx, workers: list[_Worker], pending: deque[_Task]
    ) -> None:
        timeout = self.config.case_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        for worker in workers:
            job = worker.task
            if job is None or now - worker.started_s <= timeout:
                continue
            pid = worker.process.pid or 0
            if isinstance(job, PlanTask):
                what = f"plan task {job.label}"
            else:
                what = f"case {job.index} ({job.label()}) on attempt {job.attempt}"
            _log.warning(
                "watchdog: killing worker pid %d — %s exceeded %.3fs",
                pid,
                what,
                timeout,
            )
            self._respawn(ctx, worker)
            self._lose(
                job,
                FAIL_TIMEOUT,
                f"CaseTimeout: case exceeded {timeout}s wall clock on "
                f"{self._describe(job)} (worker pid {pid} killed)",
                "CaseTimeout",
                now - worker.started_s,
                pid,
                pending,
            )

    def _shutdown(self, workers: list[_Worker]) -> None:
        for worker in workers:
            try:
                if worker.process.is_alive() and worker.task is None:
                    worker.conn.send(None)
                elif worker.process.is_alive():
                    worker.process.kill()
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
