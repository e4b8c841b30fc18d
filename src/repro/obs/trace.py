"""Hierarchical tracing.

A :class:`Tracer` records a tree of :class:`Span` objects.  Spans are
opened with a context manager, nest per thread (each thread keeps its
own span stack), and carry free-form attributes.  Timing uses
``time.monotonic`` so traces are immune to wall-clock jumps.  Export
goes through :func:`repro.obs.propagate.span_records`, which turns the
finished spans into the one span-record format every trace file uses.

When tracing is off the flow uses :data:`NULL_TRACER`, whose spans
store nothing and take no lock; callers can branch on the single
``enabled`` attribute before doing any per-event work.  Null spans
still measure their own duration (two clock reads), so stage timings
have one source of truth whether or not a trace is being recorded.
"""

from __future__ import annotations

import threading
import time
from typing import Any


class Span:
    """One traced operation: a name, a time interval, and attributes.

    ``span_id`` is unique within the tracer; ``parent_id`` is ``None``
    for roots.  ``start_s``/``end_s`` are monotonic-clock seconds
    relative to the tracer's epoch.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "thread_id",
        "start_s",
        "end_s",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        thread_id: int,
        start_s: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.start_s = start_s
        self.end_s: float | None = None
        self.attributes: dict[str, Any] = {}

    @property
    def duration_s(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-serializable values only)."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """The tracer-local fields of a span record (see
        :func:`repro.obs.propagate.span_records`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }


class _SpanHandle:
    """Context manager that closes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.span.attributes.setdefault("error", repr(exc))
        self._tracer._close(self.span)


class Tracer:
    """Collects nested spans, thread-safely.

    Span ids are allocated under a lock; the per-thread nesting stack
    lives in a ``threading.local`` so concurrent threads build
    independent sub-trees without contention.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished: list[Span] = []
        self._stacks = threading.local()
        self._epoch = time.monotonic()
        #: Wall-clock instant of the epoch: the anchor cross-process
        #: stitching (:mod:`repro.obs.propagate`) uses to put spans
        #: from different processes on one timeline.
        self.epoch_unix = time.time()

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = self._stacks.spans = []
        return stack

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a child of the current thread's innermost span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name,
            span_id,
            parent_id,
            threading.get_ident(),
            time.monotonic() - self._epoch,
        )
        span.attributes.update(attributes)
        stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.end_s = time.monotonic() - self._epoch
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order close: drop it from wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span)

    def current_span(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_span_id(self) -> int | None:
        """Id of the calling thread's innermost open span, if any."""
        span = self.current_span()
        return None if span is None else span.span_id

    # -- introspection -------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Closed spans in completion order (a copy)."""
        with self._lock:
            return list(self._finished)


class _NullSpan:
    """A span that measures its own duration but records nothing."""

    __slots__ = ("start_s", "end_s")
    name = ""
    span_id = None
    parent_id = None
    attributes: dict[str, Any] = {}

    def __init__(self) -> None:
        self.start_s = time.monotonic()
        self.end_s: float | None = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = time.monotonic()


class NullTracer:
    """The disabled tracer: spans cost two clock reads, nothing else."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NullSpan()

    def current_span(self) -> None:
        return None

    def current_span_id(self) -> None:
        return None

    def finished_spans(self) -> list[Span]:
        return []


#: Shared no-op tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()
