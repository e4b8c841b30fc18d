"""Zero-dependency observability: tracing, metrics, run artifacts.

The ``repro.obs`` layer sits below everything else (even
:mod:`repro.robustness` may import it) and records what the synthesis
flow actually did:

- :mod:`repro.obs.trace` — :class:`Tracer` with nested, thread-safe
  spans;
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms, fed by the solver hot loops
  (HiGHS B&B nodes, lazy-cut rounds, shortcut gain evaluations, ...);
- :mod:`repro.obs.context` — the ambient :class:`ObsContext`
  (:func:`get_obs` / :func:`use_obs`) that threads tracer+metrics
  through deep call stacks without signature churn;
- :mod:`repro.obs.artifacts` — :class:`RunArtifacts`, the per-run
  ``trace.jsonl`` / ``trace.json`` / ``metrics.json`` / ``report.json``
  bundle behind the CLI's ``--trace-dir``, plus the shared durable-file
  primitives (:func:`atomic_write_text`, the torn-tail-safe
  :func:`read_jsonl` / :func:`append_jsonl` log, :func:`canonical_json`);
- :mod:`repro.obs.logsetup` — the ``repro`` stdlib-logging hierarchy
  behind ``--log-level``;
- :mod:`repro.obs.propagate` — the one span-record format
  (:func:`span_records`, :func:`synthetic_span_record`) and
  cross-process trace propagation: :class:`TraceContext`, span-uid
  stitching, and the Chrome export with real pid/tid rows (open it in
  ``about:tracing`` or Perfetto);
- :mod:`repro.obs.profile` — :class:`SamplingProfiler`, the zero-dep
  stack sampler behind ``--profile-dir`` (collapsed-stack and
  speedscope export, per-stage attribution);
- :mod:`repro.obs.traceview` — the ``xring trace`` renderer for
  ``trace.jsonl`` files;
- :mod:`repro.obs.judge` — the ledger judge behind ``xring regress``,
  ``xring mine`` and ``xring report``: one metric table, one
  :class:`Thresholds` config and one :class:`Verdict` type, reduced
  either as a median-of-k diff (:func:`compare_runs`) or as a robust-z
  scan per ``(kind, label)`` group (:func:`mine_ledger`).

Everything is no-op-cheap when disabled: the default ambient context
pairs :data:`NULL_TRACER` with :data:`NULL_METRICS`, both guarded by a
single ``enabled`` attribute.
"""

from repro.obs.artifacts import (
    RunArtifacts,
    append_jsonl,
    atomic_write_text,
    canonical_json,
    read_jsonl,
)
from repro.obs.context import NULL_OBS, ObsContext, get_obs, use_obs
from repro.obs.history import (
    LEDGER_DIRNAME,
    RunLedger,
    RunRecord,
    environment_fingerprint,
    options_fingerprint,
    quality_from_evaluation,
    stage_latency_from_elapsed,
)
from repro.obs.logsetup import LOG_LEVELS, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.judge import (
    Finding,
    Thresholds,
    Verdict,
    compare_runs,
    mine_ledger,
    promote_candidates,
    render_html,
    render_markdown,
    render_trend_markdown,
    robust_zscore,
)
from repro.obs.openmetrics import (
    sanitize_metric_name,
    to_openmetrics,
)
from repro.obs.profile import STAGE_FUNCTIONS, SamplingProfiler
from repro.obs.propagate import (
    TraceContext,
    current_trace,
    new_request_id,
    new_trace_id,
    parse_traceparent,
    span_records,
    spans_to_chrome,
    stitch_spans,
    synthetic_span_record,
    use_trace,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "current_trace",
    "new_request_id",
    "new_trace_id",
    "parse_traceparent",
    "span_records",
    "spans_to_chrome",
    "stitch_spans",
    "synthetic_span_record",
    "use_trace",
    "SamplingProfiler",
    "STAGE_FUNCTIONS",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "LEDGER_DIRNAME",
    "RunLedger",
    "RunRecord",
    "environment_fingerprint",
    "options_fingerprint",
    "quality_from_evaluation",
    "stage_latency_from_elapsed",
    "Finding",
    "Thresholds",
    "Verdict",
    "compare_runs",
    "mine_ledger",
    "promote_candidates",
    "render_html",
    "render_markdown",
    "render_trend_markdown",
    "robust_zscore",
    "sanitize_metric_name",
    "to_openmetrics",
    "ObsContext",
    "NULL_OBS",
    "get_obs",
    "use_obs",
    "RunArtifacts",
    "atomic_write_text",
    "append_jsonl",
    "read_jsonl",
    "canonical_json",
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
]
