"""Crash-safe job persistence: the append-only job store.

The service survives ``kill -9`` because every job state transition is
durably recorded *before* it is acted on.  :class:`JobStore` keeps one
JSONL file (``jobs.jsonl`` under the store directory) where each line
is the **full current record** of one job at the moment of the write:

- the fast path *appends* one line per transition through the shared
  :func:`~repro.obs.append_jsonl` log (write + flush + ``fsync``), so a
  crash at any instant loses at most a torn tail line — which the
  loader drops and the next append truncates away before writing;
- compaction (startup and graceful drain) rewrites the file atomically
  (tmp + ``os.replace`` + fsync, via
  :func:`~repro.obs.atomic_write_text`) keeping only the latest line
  per job, so the file never grows without bound;
- the loader (:func:`~repro.obs.read_jsonl`) folds lines in order,
  last write per ``job_id`` wins — mid-file corruption is an error,
  not silent data loss.

A restarted server calls :meth:`JobStore.load` and *re-adopts* the
result: jobs that reached a terminal state are served from the store
(their designs are never recomputed — that is the no-duplicate-solve
guarantee), jobs that were queued or mid-solve go back onto the queue.

Record schema (one JSON object per line)::

    {"kind": "header", "version": 1}
    {"kind": "job", "job_id": ..., "key": ..., "spec": {...},
     "state": "queued|running|done|failed", "created_unix": ...,
     "updated_unix": ..., "runs": N, "attempts": N, "resumed": bool,
     "dedup_hits": N, "error": ..., "error_type": ...,
     "elapsed_s": ..., "degraded": bool, "fallbacks": [...],
     "digest": ..., "failure_history": [...], "result": {...}|null}

``result`` is only populated on ``done`` (the canonical design dump
plus the provenance report); ``digest`` is the
:func:`~repro.parallel.batch.result_digest`-style SHA-256 of the
canonical design JSON, the cheap cross-run byte-identity check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import append_jsonl, atomic_write_text, read_jsonl
from repro.robustness.errors import ConfigurationError

STORE_VERSION = 1
STORE_FILENAME = "jobs.jsonl"

#: Job states (the service's terminal state machine).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED})


@dataclass
class JobRecord:
    """The durable state of one job (everything the store persists)."""

    job_id: str
    key: str
    spec: dict[str, Any]
    state: str = JOB_QUEUED
    label: str = ""
    created_unix: float = field(default_factory=time.time)
    updated_unix: float = field(default_factory=time.time)
    #: Solve starts (``running`` transitions) across all server lives.
    #: A job finished in one life keeps ``runs`` forever — the
    #: crash-recovery acceptance test asserts it stays 1.
    runs: int = 0
    #: Supervisor attempts inside the most recent run.
    attempts: int = 0
    #: Re-adopted from the store by a restarted server.
    resumed: bool = False
    #: Idempotent resubmissions that matched this job's case key.
    dedup_hits: int = 0
    error: str | None = None
    error_type: str = ""
    elapsed_s: float = 0.0
    degraded: bool = False
    fallbacks: list[str] = field(default_factory=list)
    digest: str = ""
    failure_history: list[dict[str, Any]] = field(default_factory=list)
    #: ``{"design": ..., "report": ...}`` once ``done``; never mutated
    #: after the terminal write.
    result: dict[str, Any] | None = None
    #: Request id of the submission that created this job (responses
    #: echo it as ``X-Request-Id``; WARNING logs carry it).
    request_id: str = ""
    #: Trace id of the distributed trace this job's spans belong to
    #: (from the submitter's ``traceparent`` header, or minted here).
    trace_id: str = ""
    #: Annotated span records from the solve (the stitched trace served
    #: by ``GET /jobs/{id}/trace``); ``None`` until terminal.
    trace: list[dict[str, Any]] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> dict[str, Any]:
        """The API view (``GET /jobs/{id}``): everything but the result."""
        return {
            "job_id": self.job_id,
            "key": self.key,
            "label": self.label,
            "state": self.state,
            "created_unix": round(self.created_unix, 6),
            "updated_unix": round(self.updated_unix, 6),
            "runs": self.runs,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "dedup_hits": self.dedup_hits,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": round(self.elapsed_s, 6),
            "degraded": self.degraded,
            "fallbacks": list(self.fallbacks),
            "digest": self.digest,
            "request_id": self.request_id,
            "trace_id": self.trace_id,
        }

    def to_line(self) -> dict[str, Any]:
        """The store line: the status plus spec, history, and result."""
        return {
            "kind": "job",
            **self.status_dict(),
            "spec": self.spec,
            "failure_history": list(self.failure_history),
            "result": self.result,
            "trace": self.trace,
        }

    @classmethod
    def from_line(cls, line: dict[str, Any]) -> "JobRecord":
        state = line.get("state", JOB_QUEUED)
        if state not in JOB_STATES:
            raise ConfigurationError(
                f"unknown job state {state!r} in store",
                context={"job_id": line.get("job_id"), "state": state},
            )
        return cls(
            job_id=line["job_id"],
            key=line.get("key", ""),
            spec=line.get("spec") or {},
            state=state,
            label=line.get("label", ""),
            created_unix=float(line.get("created_unix", 0.0)),
            updated_unix=float(line.get("updated_unix", 0.0)),
            runs=int(line.get("runs", 0)),
            attempts=int(line.get("attempts", 0)),
            resumed=bool(line.get("resumed", False)),
            dedup_hits=int(line.get("dedup_hits", 0)),
            error=line.get("error"),
            error_type=line.get("error_type", ""),
            elapsed_s=float(line.get("elapsed_s", 0.0)),
            degraded=bool(line.get("degraded", False)),
            fallbacks=list(line.get("fallbacks") or []),
            digest=line.get("digest", ""),
            failure_history=list(line.get("failure_history") or []),
            result=line.get("result"),
            request_id=line.get("request_id", ""),
            trace_id=line.get("trace_id", ""),
            trace=line.get("trace"),
        )


class JobStore:
    """The append-only JSONL job journal under one store directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / STORE_FILENAME

    # -- loading -------------------------------------------------------------
    def load(self) -> dict[str, JobRecord]:
        """Fold the journal into the latest record per job.

        Missing file -> empty store (first boot).  A torn tail line —
        the one failure mode the append fast path can leave behind —
        is dropped with a warning; corruption anywhere else raises,
        because silently skipping completed jobs would resolve into
        duplicate solves.
        """
        jobs: dict[str, JobRecord] = {}
        for record in read_jsonl(self.path):
            if record.get("kind") == "job":
                folded = JobRecord.from_line(record)
                jobs[folded.job_id] = folded
        return jobs

    # -- writing -------------------------------------------------------------
    def append(self, record: JobRecord) -> None:
        """Durably append ``record``'s current state (one JSONL line)."""
        lines = [record.to_line()]
        if not self.path.exists():
            lines.insert(0, {"kind": "header", "version": STORE_VERSION})
        append_jsonl(self.path, lines, fsync=True)

    def compact(self, jobs: dict[str, JobRecord]) -> None:
        """Atomically rewrite the journal as one line per job."""
        self.directory.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps({"kind": "header", "version": STORE_VERSION}, sort_keys=True)
        ]
        for job_id in sorted(jobs):
            lines.append(json.dumps(jobs[job_id].to_line(), sort_keys=True))
        atomic_write_text(self.path, "\n".join(lines) + "\n")
