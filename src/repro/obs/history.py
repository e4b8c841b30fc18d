"""Cross-run observability: the append-only run-history ledger.

Every synthesizer / batch / experiment / bench invocation can drop one
:class:`RunRecord` into a :class:`RunLedger` — a JSONL file under
``.xring_history/`` (one complete JSON object per line, appended and
fsynced through :func:`~repro.obs.artifacts.append_jsonl`, so a kill
at any instant costs at most the torn tail line the loader drops).  A
record is the durable, machine-checkable summary real regression
tooling needs:

- an **environment fingerprint** (python, platform, cpu count) so
  cross-host comparisons are explicit, never silent;
- an **options hash** so only like-for-like runs are compared;
- **per-stage latency percentiles** pulled from the run's
  :class:`~repro.obs.metrics.MetricsRegistry` (``stage.*.latency_s``
  histograms, falling back to ``deadline.<stage>.elapsed_s`` gauges);
- **solver counters** (HiGHS B&B nodes) and **supervisor stats**
  (retries / quarantines / circuit state) for batch runs;
- **design-quality metrics** from :mod:`repro.analysis` (wavelength
  count, worst-case insertion loss, worst-case SNR, noisy signals).

Records are content-fingerprinted: ``fingerprint`` hashes the
deterministic payload (everything except the timestamp), and
``run_id`` embeds the creation time plus a fingerprint prefix, so two
ledger entries with equal fingerprints describe equal runs.

:mod:`repro.obs.judge` consumes the ledger for regression verdicts
(``xring regress``), anomaly mining (``xring mine``) and trend
reports (``xring report``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.artifacts import append_jsonl, canonical_json, read_jsonl

#: Default ledger location, relative to the working directory.
LEDGER_DIRNAME = ".xring_history"
LEDGER_FILENAME = "ledger.jsonl"
LEDGER_VERSION = 1

#: The run kinds a record may carry (free-form labels refine them).
RUN_KINDS = ("synth", "batch", "experiment", "bench", "service")

_STAGE_LATENCY_RE = re.compile(r"^stage\.(?P<stage>[\w.]+)\.latency_s$")
_DEADLINE_GAUGE_RE = re.compile(r"^deadline\.(?P<stage>[\w]+)\.elapsed_s$")

#: Solver counters every record surfaces explicitly (missing -> 0).
SOLVER_COUNTERS = {"bb_nodes": "milp.bb.nodes"}


def json_safe(value: Any) -> Any:
    """Recursively make ``value`` JSON-round-trippable.

    Non-finite floats become ``None`` (JSON has no NaN), tuples become
    lists, dict keys become strings.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def environment_fingerprint() -> dict[str, Any]:
    """The host/runtime facts a cross-run comparison must not ignore."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def options_fingerprint(options: Any) -> str:
    """Content hash of a :class:`SynthesisOptions` (or any dataclass/dict).

    Anything that changes the synthesis output changes the hash, so
    regressions are only ever computed between like-for-like runs.
    """
    if options is None:
        return ""
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        payload = dataclasses.asdict(options)
    elif isinstance(options, dict):
        payload = options
    else:
        payload = {"repr": repr(options)}
    encoded = canonical_json(json_safe(payload)).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def stage_latency_from_snapshot(snapshot: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per-stage latency percentiles from a metrics snapshot.

    Prefers the ``stage.<name>.latency_s`` histograms (exact bucket
    percentiles, meaningful for batch runs where many cases merged);
    falls back to the ``deadline.<stage>.elapsed_s`` gauges as
    single-sample distributions for registries without histograms.
    """
    stages: dict[str, dict[str, Any]] = {}
    for name, data in snapshot.get("histograms", {}).items():
        match = _STAGE_LATENCY_RE.match(name)
        if match is None or not data.get("total"):
            continue
        stages[match.group("stage")] = {
            "count": data["total"],
            "mean": data.get("mean"),
            "p50": data.get("p50"),
            "p90": data.get("p90"),
            "p99": data.get("p99"),
            "max": data.get("max"),
            "sum": data.get("sum"),
        }
    if stages:
        return json_safe(stages)
    for name, value in snapshot.get("gauges", {}).items():
        match = _DEADLINE_GAUGE_RE.match(name)
        if match is None:
            continue
        stages[match.group("stage")] = {
            "count": 1,
            "mean": value,
            "p50": value,
            "p90": value,
            "p99": value,
            "max": value,
            "sum": value,
        }
    return json_safe(stages)


def stage_latency_from_elapsed(elapsed: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Single-sample stage latencies from a ``stage -> seconds`` map."""
    return json_safe(
        {
            stage: {
                "count": 1,
                "mean": seconds,
                "p50": seconds,
                "p90": seconds,
                "p99": seconds,
                "max": seconds,
                "sum": seconds,
            }
            for stage, seconds in elapsed.items()
        }
    )


def solver_counters_from_snapshot(snapshot: dict[str, Any]) -> dict[str, int]:
    """The headline solver counters (zero when the run never solved)."""
    counters = snapshot.get("counters", {})
    return {
        short: int(counters.get(full, 0)) for short, full in SOLVER_COUNTERS.items()
    }


def quality_from_evaluation(evaluation: Any) -> dict[str, Any]:
    """Design-quality metrics from a :class:`RouterEvaluation`."""
    return json_safe(
        {
            "wl_count": evaluation.wl_count,
            "il_w": evaluation.il_w,
            "worst_length_mm": evaluation.worst_length_mm,
            "worst_crossings": evaluation.worst_crossings,
            "power_w": evaluation.power_w,
            "noisy_signals": evaluation.noisy_signals,
            "snr_worst_db": evaluation.snr_worst_db,
            "signal_count": evaluation.signal_count,
            "noise_free_fraction": evaluation.noise_free_fraction,
        }
    )


@dataclass
class RunRecord:
    """One ledger entry: the durable summary of one run."""

    run_id: str
    kind: str
    label: str
    created_at: str
    fingerprint: str
    env: dict[str, Any] = field(default_factory=dict)
    options_hash: str = ""
    wall_s: float = 0.0
    #: ``stage -> {count, mean, p50, p90, p99, max, sum}`` (seconds).
    stage_latency: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Headline solver counters (``bb_nodes``).
    solver: dict[str, int] = field(default_factory=dict)
    #: Supervisor stats for batch runs (retries, quarantined, ...).
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: Design-quality metrics (``wl_count``, ``il_w``, ``snr_worst_db``, ...).
    quality: dict[str, Any] = field(default_factory=dict)
    #: Free-form, JSON-safe extras (case counts, bench phase clocks).
    extra: dict[str, Any] = field(default_factory=dict)
    version: int = LEDGER_VERSION

    @classmethod
    def build(
        cls,
        kind: str,
        label: str,
        *,
        metrics: dict[str, Any] | None = None,
        options: Any = None,
        wall_s: float = 0.0,
        quality: dict[str, Any] | None = None,
        supervisor: dict[str, Any] | None = None,
        stage_latency: dict[str, dict[str, Any]] | None = None,
        extra: dict[str, Any] | None = None,
        env: dict[str, Any] | None = None,
    ) -> "RunRecord":
        """Assemble a record from run outputs.

        ``metrics`` is a registry snapshot; stage latencies and solver
        counters are derived from it.  ``stage_latency`` overrides the
        derivation (the bench harness has per-stage clocks but no
        histograms).
        """
        if kind not in RUN_KINDS:
            raise ValueError(
                f"unknown run kind {kind!r}; allowed: {', '.join(RUN_KINDS)}"
            )
        snapshot = metrics or {}
        record = cls(
            run_id="",
            kind=kind,
            label=label,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            fingerprint="",
            env=env if env is not None else environment_fingerprint(),
            options_hash=options_fingerprint(options),
            wall_s=round(float(wall_s), 6),
            stage_latency=(
                stage_latency
                if stage_latency is not None
                else stage_latency_from_snapshot(snapshot)
            ),
            solver=solver_counters_from_snapshot(snapshot),
            supervisor=json_safe(supervisor or {}),
            quality=json_safe(quality or {}),
            extra=json_safe(extra or {}),
        )
        record.fingerprint = record._content_fingerprint()
        record.run_id = (
            f"{kind}-{record.created_at.replace(':', '').replace('-', '')}"
            f"-{record.fingerprint[:10]}"
        )
        return record

    def _content_fingerprint(self) -> str:
        """Hash of everything except identity/timestamp fields."""
        payload = {
            "kind": self.kind,
            "label": self.label,
            "env": self.env,
            "options_hash": self.options_hash,
            "wall_s": self.wall_s,
            "stage_latency": self.stage_latency,
            "solver": self.solver,
            "supervisor": self.supervisor,
            "quality": self.quality,
            "extra": self.extra,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint,
            "env": self.env,
            "options_hash": self.options_hash,
            "wall_s": self.wall_s,
            "stage_latency": self.stage_latency,
            "solver": self.solver,
            "supervisor": self.supervisor,
            "quality": self.quality,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        """Load a record; a legacy ``cache`` section is ignored."""
        return cls(
            run_id=data.get("run_id", ""),
            kind=data.get("kind", ""),
            label=data.get("label", ""),
            created_at=data.get("created_at", ""),
            fingerprint=data.get("fingerprint", ""),
            env=data.get("env", {}),
            options_hash=data.get("options_hash", ""),
            wall_s=float(data.get("wall_s", 0.0)),
            stage_latency=data.get("stage_latency", {}),
            solver=data.get("solver", {}),
            supervisor=data.get("supervisor", {}),
            quality=data.get("quality", {}),
            extra=data.get("extra", {}),
            version=int(data.get("version", LEDGER_VERSION)),
        )


class RunLedger:
    """The append-only JSONL run history under one directory.

    Appends go through :func:`~repro.obs.artifacts.append_jsonl` with
    fsync; reads through :func:`~repro.obs.artifacts.read_jsonl`, which
    drops a torn tail line and raises on corrupt interior lines.
    """

    def __init__(self, directory: str | Path = LEDGER_DIRNAME) -> None:
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        return self.directory / LEDGER_FILENAME

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record; returns it unchanged."""
        append_jsonl(self.path, [record.to_dict()], fsync=True)
        return record

    def entries(
        self, *, kind: str | None = None, label: str | None = None
    ) -> list[RunRecord]:
        """Every record, oldest first, optionally filtered."""
        records = [RunRecord.from_dict(data) for data in read_jsonl(self.path)]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if label is not None:
            records = [r for r in records if r.label == label]
        return records

    def last(
        self, n: int = 1, *, kind: str | None = None, label: str | None = None
    ) -> list[RunRecord]:
        """The ``n`` most recent matching records, oldest first."""
        records = self.entries(kind=kind, label=label)
        return records[-n:] if n > 0 else []

    def get(self, run_id: str) -> RunRecord | None:
        """The record with this id (unique prefixes accepted)."""
        matches = [
            r for r in self.entries() if r.run_id == run_id
        ] or [r for r in self.entries() if r.run_id.startswith(run_id)]
        if not matches:
            return None
        if len(matches) > 1 and any(r.run_id != matches[0].run_id for r in matches):
            raise ValueError(
                f"run id prefix {run_id!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        return matches[-1]
