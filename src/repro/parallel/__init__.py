"""Fault-tolerant batch synthesis over process pools, plus the L2 cache.

Three cooperating pieces:

- :mod:`repro.parallel.cache` — :class:`SynthesisCache`, the
  process-global holder of the durable L2 (a
  :mod:`repro.parallel.store` directory on local disk), which keeps
  finished batch results and is what ``xring batch --resume`` restores
  from;
- :mod:`repro.parallel.supervisor` — :class:`WorkerSupervisor`, the
  self-healing worker pool: per-case watchdog timeouts (hung workers
  are killed and respawned), retry with exponential backoff + seeded
  jitter, poison-case quarantine, and a circuit breaker — policy in
  :class:`SupervisorConfig`, events in :class:`SupervisorStats`;
- :mod:`repro.parallel.batch` — :class:`BatchSynthesizer`, which runs
  many :class:`BatchCase` synthesis problems through the supervisor
  (or inline for ``workers=1``) with deterministic input-order
  results and merged observability; cases on one floorplan share
  Steps 1-2, built once in the parent, and :func:`case_key` names a
  case's L2 entry.

The experiments (:mod:`repro.experiments`) and the CLI ``batch``
subcommand / ``--workers`` flag are built on this package.
"""

from repro.parallel.batch import (
    BatchCase,
    BatchError,
    BatchReport,
    BatchResult,
    BatchSynthesizer,
    case_key,
    result_digest,
)
from repro.parallel.cache import (
    SynthesisCache,
    canonical_points,
    clear_caches,
    configure_l2,
    get_cache,
)
from repro.parallel.supervisor import (
    EVENT_CASE_DONE,
    EVENT_CASE_FAILED,
    EVENT_CASE_QUARANTINED,
    EVENT_CASE_SKIPPED,
    EVENT_CASE_START,
    EVENT_CIRCUIT_OPEN,
    EVENT_HEARTBEAT,
    EVENT_WORKER_RESTART,
    AttemptRecord,
    CircuitBreaker,
    SupervisorConfig,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.parallel.store import PersistentStore

__all__ = [
    "BatchCase",
    "BatchError",
    "BatchReport",
    "BatchResult",
    "BatchSynthesizer",
    "case_key",
    "result_digest",
    "AttemptRecord",
    "CircuitBreaker",
    "SupervisorConfig",
    "SupervisorStats",
    "WorkerSupervisor",
    "EVENT_CASE_START",
    "EVENT_CASE_DONE",
    "EVENT_CASE_FAILED",
    "EVENT_CASE_QUARANTINED",
    "EVENT_CASE_SKIPPED",
    "EVENT_WORKER_RESTART",
    "EVENT_CIRCUIT_OPEN",
    "EVENT_HEARTBEAT",
    "SynthesisCache",
    "canonical_points",
    "clear_caches",
    "configure_l2",
    "get_cache",
    "PersistentStore",
]
