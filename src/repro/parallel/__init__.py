"""Fault-tolerant batch synthesis over process pools, plus caching.

Four cooperating pieces:

- :mod:`repro.parallel.cache` — :class:`SynthesisCache`, the
  process-global memo for conflict-pair dicts, built ring MILP models
  and solved tours, keyed on canonical point tuples;
- :mod:`repro.parallel.supervisor` — :class:`WorkerSupervisor`, the
  self-healing worker pool: per-case watchdog timeouts (hung workers
  are killed and respawned), retry with exponential backoff + seeded
  jitter, poison-case quarantine, and a circuit breaker — policy in
  :class:`SupervisorConfig`, events in :class:`SupervisorStats`;
- :mod:`repro.parallel.journal` — :class:`BatchJournal`, the
  crash-safe append-only checkpoint (atomic tmp+``os.replace``
  writes) behind ``xring batch --resume``;
- :mod:`repro.parallel.batch` — :class:`BatchSynthesizer`, which runs
  many :class:`BatchCase` synthesis problems through the supervisor
  (or inline for ``workers=1``) with deterministic input-order
  results and merged observability.

The experiments (:mod:`repro.experiments`) and the CLI ``batch``
subcommand / ``--workers`` flag are built on this package.
"""

from repro.parallel.batch import (
    BatchCase,
    BatchError,
    BatchReport,
    BatchResult,
    BatchSynthesizer,
)
from repro.parallel.cache import (
    DEFAULT_SECTION_CAPACITY,
    SynthesisCache,
    canonical_points,
    clear_caches,
    configure_l2,
    get_cache,
)
from repro.parallel.journal import (
    BatchJournal,
    batch_fingerprint,
    case_key,
    result_digest,
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

# Imported last: repro.parallel.shard pulls in repro.service (for the
# HTTP plumbing), which imports back into this package — by this point
# every name the service layer needs is already bound above.
from repro.parallel.store import PersistentStore  # noqa: E402
from repro.parallel.shard import (  # noqa: E402
    CacheNodeServer,
    ShardClient,
    ShardRing,
    serve_cache_node,
    serve_cache_node_forever,
)

__all__ = [
    "BatchCase",
    "BatchError",
    "BatchReport",
    "BatchResult",
    "BatchSynthesizer",
    "BatchJournal",
    "batch_fingerprint",
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
    "DEFAULT_SECTION_CAPACITY",
    "canonical_points",
    "clear_caches",
    "configure_l2",
    "get_cache",
    "PersistentStore",
    "ShardRing",
    "ShardClient",
    "CacheNodeServer",
    "serve_cache_node",
    "serve_cache_node_forever",
]
