"""The ambient observability context (tracer + metrics).

Deep solver loops (lazy-cut rounds, sub-cycle merges, greedy
selection passes) cannot take a tracer parameter without rippling
through a dozen signatures, so the current :class:`ObsContext` lives
in a :mod:`contextvars` variable: the synthesizer (or the CLI, or an
experiment harness) installs one with :func:`use_obs`, and any code
below reads it with :func:`get_obs`.

The default context is :data:`NULL_OBS` (null tracer, null metrics),
so uninstrumented call paths — library users calling
``construct_ring_tour`` directly, old tests — pay one contextvar read
plus no-op instrument calls, nothing more.  Contextvars are inherited
per-thread-safe and nest correctly under reentrant synthesis calls.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class ObsContext:
    """One tracer + one metrics registry, installed together."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry

    @property
    def enabled(self) -> bool:
        """True when either side records anything."""
        return self.tracer.enabled or self.metrics.enabled


#: The default: record nothing, cost (almost) nothing.
NULL_OBS = ObsContext(NULL_TRACER, NULL_METRICS)

_current: contextvars.ContextVar[ObsContext] = contextvars.ContextVar(
    "repro_obs", default=NULL_OBS
)


def get_obs() -> ObsContext:
    """The ambient observability context (never ``None``)."""
    return _current.get()


@contextmanager
def use_obs(ctx: ObsContext) -> Iterator[ObsContext]:
    """Install ``ctx`` as the ambient context for the block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
