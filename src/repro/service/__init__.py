"""Synthesis-as-a-service: the resilient ``xring serve`` job server.

A zero-dependency asyncio HTTP front end over the PR-3/4 batch
machinery.  Four modules:

- :mod:`repro.service.http` — bounded HTTP/1.1 parsing, responses,
  and SSE framing over asyncio streams;
- :mod:`repro.service.store` — :class:`JobStore`, the crash-safe
  append-only JSONL job journal (fsync'd appends, atomic compaction,
  torn-tail-tolerant loads) that makes ``kill -9`` recoverable;
- :mod:`repro.service.jobs` — :class:`JobManager`, the robustness
  envelope: bounded-queue admission control with jittered
  Retry-After, content-hash idempotent submission, supervised
  execution with deadline degradation, circuit-breaker readiness,
  store re-adoption, and graceful drain;
- :mod:`repro.service.server` — the routes and the
  SIGTERM-to-clean-exit lifecycle behind ``xring serve``.
"""

from repro.service.http import (
    DEFAULT_MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HttpError,
    Request,
    read_request,
)
from repro.service.jobs import (
    EVENT_HISTORY_LIMIT,
    SPEC_KEYS,
    AdmissionError,
    Job,
    JobManager,
    QueueFull,
    ServiceConfig,
    ServiceDraining,
    ServiceNotReady,
    case_from_spec,
    design_digest,
    job_key,
    network_from_spec,
    options_from_spec,
)
from repro.service.server import (
    ADDRESS_FILENAME,
    ServiceServer,
    serve,
    serve_forever,
)
from repro.service.store import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    STORE_FILENAME,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
)

__all__ = [
    "ADDRESS_FILENAME",
    "AdmissionError",
    "DEFAULT_MAX_BODY_BYTES",
    "EVENT_HISTORY_LIMIT",
    "HttpError",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobRecord",
    "JobStore",
    "MAX_HEAD_BYTES",
    "QueueFull",
    "Request",
    "SPEC_KEYS",
    "STORE_FILENAME",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceNotReady",
    "ServiceServer",
    "TERMINAL_STATES",
    "case_from_spec",
    "design_digest",
    "job_key",
    "network_from_spec",
    "options_from_spec",
    "read_request",
    "serve",
    "serve_forever",
]
