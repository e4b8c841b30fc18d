"""Distributed trace propagation across process boundaries.

PR 2 gave every run a :class:`~repro.obs.trace.Tracer`; PR 4 re-
initializes observability per worker case.  The missing piece is the
*join*: a worker's tracer allocates span ids starting at 1, so two
cases solved by two workers both emit ``span_id=1`` and the request
that spawned them has no way to tell the trees apart, let alone hang
them under its own root.  This module carries the request's identity
across the dispatch boundary and stitches the pieces back into one
trace:

- :class:`TraceContext` — the propagated context: a W3C-style 32-hex
  ``trace_id``, the ``parent_uid`` the remote side's roots must attach
  to, and a ``prefix`` namespacing the remote side's span ids.  It is
  a tiny frozen dataclass, picklable, and travels inside the
  supervisor's task tuple (never inside :class:`BatchCase`, whose
  content hash keys the case's L2 entry).
- **Span uids** — cross-process span identity.  A tracer-local integer
  id becomes ``"<prefix>:<span_id>"``; the supervisor hands every
  attempt a unique prefix (``c<index>.a<attempt>``), so retries of the
  same case stitch as *siblings* instead of colliding.
- **Span records** — the one span format every trace file and job
  record carries.  :func:`span_records` turns a tracer's finished
  spans into records stamped with ``trace_id`` / ``pid`` /
  ``span_uid`` / ``parent_uid`` / ``start_unix`` (wall-clock anchor,
  so cross-process timelines align in Chrome's trace viewer), and
  :func:`synthetic_span_record` builds the coordination spans no
  tracer records (``batch.attempt``, the service's ``job`` root).
- :func:`stitch_spans` / :func:`spans_to_chrome` — fold annotated
  records from any number of processes into one tree summary (roots,
  orphans) and one Chrome ``trace_event`` object with proper pid/tid
  rows and process-name metadata.
- ``traceparent`` encode/parse — the W3C header form
  (``00-<32hex>-<16hex>-01``) for HTTP clients; the parent uid is
  hashed into the 16-hex span-id field on the way out.

The ambient context (:func:`current_trace` / :func:`use_trace`)
mirrors :mod:`repro.obs.context`: a contextvar, so nested batch runs
restore their caller's context.  Note contextvars do **not** cross
thread boundaries — the job service passes its context explicitly
into the solver thread.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.obs.trace import NullTracer, Tracer

__all__ = [
    "TraceContext",
    "new_trace_id",
    "new_request_id",
    "parse_traceparent",
    "current_trace",
    "use_trace",
    "span_records",
    "synthetic_span_record",
    "stitch_spans",
    "spans_to_chrome",
]


def new_trace_id() -> str:
    """A fresh 32-hex trace id (random, W3C ``trace-id`` shaped)."""
    return os.urandom(16).hex()


def new_request_id() -> str:
    """A fresh request id (``req-`` + 12 hex), one per HTTP request."""
    return "req-" + os.urandom(6).hex()


def _uid_hex16(uid: str) -> str:
    """Hash an arbitrary span uid into the 16-hex W3C span-id field."""
    return hashlib.sha256(uid.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one distributed trace.

    ``parent_uid`` is the span uid the receiving side's *root* spans
    must report as their parent (``None`` for a brand-new trace);
    ``prefix`` namespaces the receiving tracer's integer span ids into
    globally unique uids (empty = derive ``p<pid>`` at annotation
    time).
    """

    trace_id: str
    parent_uid: str | None = None
    prefix: str = ""

    @classmethod
    def new(cls, prefix: str = "") -> "TraceContext":
        return cls(trace_id=new_trace_id(), prefix=prefix)

    def child(
        self, parent_uid: str | None, prefix: str = ""
    ) -> "TraceContext":
        """The context to hand one dispatch: same trace, new parent."""
        return replace(
            self, parent_uid=parent_uid, prefix=prefix or self.prefix
        )

    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value of this context."""
        span_hex = _uid_hex16(self.parent_uid) if self.parent_uid else "0" * 16
        return f"00-{self.trace_id}-{span_hex}-01"


def parse_traceparent(header: str) -> TraceContext | None:
    """Parse a W3C ``traceparent`` header into a :class:`TraceContext`.

    Returns ``None`` on anything malformed (a bad header must never
    fail a request — the service just starts a fresh trace).  The
    16-hex parent span id becomes an opaque ``w3c:<hex>`` uid: the
    caller's span is outside our process tree, but stitched traces
    still name it so an upstream system can join on it.
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    _version, trace_id, span_id = parts[0], parts[1], parts[2]
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32:
        return None
    parent = None if span_id == "0" * 16 else f"w3c:{span_id}"
    return TraceContext(trace_id=trace_id, parent_uid=parent)


# -- ambient context ---------------------------------------------------------
_current: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> TraceContext | None:
    """The ambient trace context of this task/thread, if any."""
    return _current.get()


@contextmanager
def use_trace(ctx: TraceContext) -> Iterator[TraceContext]:
    """Install ``ctx`` as the ambient trace context for the block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


# -- span records and stitching ----------------------------------------------
def span_records(
    tracer: Tracer | NullTracer,
    ctx: TraceContext | None = None,
    *,
    case: str | None = None,
) -> list[dict[str, Any]]:
    """The finished spans of ``tracer`` as annotated span records.

    Each record is ``Span.to_dict()`` plus ``case`` (when given),
    ``trace_id``, ``pid``, ``span_uid`` (``<prefix>:<span_id>``),
    ``parent_uid`` (the local parent's uid, or ``ctx.parent_uid`` for
    local roots) and ``start_unix``, the wall-clock anchor that lets
    records from different processes share one timeline.  Without a
    ``ctx`` the records form a fresh trace of their own.
    """
    if not tracer.enabled:
        return []
    if ctx is None:
        ctx = TraceContext.new()
    pid = os.getpid()
    prefix = ctx.prefix or f"p{pid}"
    epoch_unix = tracer.epoch_unix
    records = []
    for span in tracer.finished_spans():
        record = span.to_dict()
        if case is not None:
            record["case"] = case
        record["trace_id"] = ctx.trace_id
        record["pid"] = pid
        record["span_uid"] = f"{prefix}:{span.span_id}"
        record["parent_uid"] = (
            ctx.parent_uid
            if span.parent_id is None
            else f"{prefix}:{span.parent_id}"
        )
        record["start_unix"] = epoch_unix + span.start_s
        records.append(record)
    return records


def synthetic_span_record(
    name: str,
    ctx: TraceContext,
    uid: str,
    *,
    span_id: int,
    start_s: float,
    duration_s: float,
    start_unix: float,
    attributes: dict[str, Any],
    case: str | None = None,
    thread_id: int = 0,
) -> dict[str, Any]:
    """A span record for work no tracer recorded, in ``ctx``'s trace.

    The record is a root of its process (``parent_id`` null) whose
    ``parent_uid`` is ``ctx.parent_uid``; remote subtrees attach to it
    through ``uid``.
    """
    record = {
        "name": name,
        "span_id": span_id,
        "parent_id": None,
        "thread_id": thread_id,
        "start_s": start_s,
        "duration_s": duration_s,
        "attributes": attributes,
    }
    if case is not None:
        record["case"] = case
    record["trace_id"] = ctx.trace_id
    record["pid"] = os.getpid()
    record["span_uid"] = uid
    record["parent_uid"] = ctx.parent_uid
    record["start_unix"] = start_unix
    return record


def stitch_spans(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold annotated span records into one cross-process trace summary.

    Returns ``{"trace_id", "span_count", "roots", "orphans", "spans"}``:

    - ``roots`` — uids of spans with no parent (``parent_uid`` null);
    - ``orphans`` — uids whose ``parent_uid`` names a span that is
      *not* in the record set (a broken stitch; the acceptance tests
      require zero).  Parents of the ``w3c:`` form (an upstream
      caller outside this process tree) do not count as broken.

    Records that were never annotated (no ``span_uid``) are tolerated:
    they fall back to their tracer-local ``span_id`` / ``parent_id``
    (as ``?<id>`` uids), so a ``trace.jsonl`` written before every
    trace file carried annotated records still stitches into its real
    tree instead of rendering every span as a root.
    """

    def _uid(record: dict[str, Any], i: int) -> str:
        if record.get("span_uid"):
            return str(record["span_uid"])
        span_id = record.get("span_id")
        return f"?{span_id}" if span_id is not None else f"?r{i}"

    def _parent(record: dict[str, Any]) -> str | None:
        if record.get("span_uid"):
            return record.get("parent_uid")
        parent_id = record.get("parent_id")
        return f"?{parent_id}" if parent_id is not None else None

    uids: set[str] = set()
    spans: list[dict[str, Any]] = []
    trace_ids: set[str] = set()
    for i, record in enumerate(records):
        uids.add(_uid(record, i))
        spans.append(record)
        if record.get("trace_id"):
            trace_ids.add(record["trace_id"])
    roots: list[str] = []
    orphans: list[str] = []
    for i, record in enumerate(records):
        uid = _uid(record, i)
        parent = _parent(record)
        if parent is None:
            roots.append(uid)
        elif parent not in uids and not str(parent).startswith("w3c:"):
            orphans.append(uid)
    return {
        "trace_id": sorted(trace_ids)[0] if trace_ids else "",
        "span_count": len(spans),
        "roots": sorted(roots),
        "orphans": sorted(orphans),
        "spans": spans,
    }


def spans_to_chrome(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Span records -> Chrome ``trace_event`` JSON object.

    Every record sits on its real ``pid``/``tid`` row, and
    cross-process timestamps align on the ``start_unix`` wall-clock
    anchor when present (records without one fall back to their local
    monotonic offset).  ``process_name`` metadata events label each
    pid row by its role (``supervisor``, ``worker`` or ``synth``), so
    Perfetto renders named lanes out of the box.
    """
    events: list[dict[str, Any]] = []
    anchored = [r.get("start_unix") for r in records if r.get("start_unix")]
    t0 = min(anchored) if anchored else 0.0
    for record in records:
        pid = int(record.get("pid", 0))
        start_unix = record.get("start_unix")
        ts_s = (
            (float(start_unix) - t0)
            if start_unix is not None
            else float(record.get("start_s", 0.0))
        )
        events.append(
            {
                "name": record.get("name", "?"),
                "ph": "X",
                "ts": ts_s * 1e6,
                "dur": float(record.get("duration_s", 0.0)) * 1e6,
                "pid": pid,
                "tid": record.get("thread_id", 0),
                "args": dict(
                    record.get("attributes") or {},
                    span_uid=record.get("span_uid"),
                    parent_uid=record.get("parent_uid"),
                    trace_id=record.get("trace_id"),
                    case=record.get("case"),
                ),
            }
        )
    # The supervisor/service process emits the coordination spans
    # (batch.attempt, batch.share, job); any pid that emitted one is
    # the parent, and the other pids are its workers.  A trace with no
    # parent is a single synthesis (``synth``).
    supervisors = {
        int(record.get("pid", 0))
        for record in records
        if record.get("name") in ("batch.attempt", "batch.share", "job")
    }
    child = "worker" if supervisors else "synth"
    for pid in sorted({event["pid"] for event in events}):
        role = "supervisor" if pid in supervisors else child
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{role} pid {pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
