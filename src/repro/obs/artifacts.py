"""Structured run artifacts: one directory per synthesis run.

:class:`RunArtifacts` drops the full observability record of a run
into a directory:

- ``trace.jsonl`` — one span record per line (greppable; the format
  of :func:`repro.obs.propagate.span_records`);
- ``trace.json`` — the same records in Chrome ``trace_event`` format
  (:func:`~repro.obs.propagate.spans_to_chrome`), loadable directly
  in ``about:tracing`` or https://ui.perfetto.dev;
- ``metrics.json`` — the metrics-registry snapshot (counters, gauges,
  histograms with percentiles);
- ``metrics.om`` — the same snapshot as an OpenMetrics text
  exposition, scrapeable by a Prometheus textfile collector;
- ``report.json`` — the :class:`~repro.robustness.report.SynthesisReport`
  provenance dump, when a report is supplied.

The CLI wires this behind ``--trace-dir``; experiment harnesses can
reuse it to version solver statistics next to their tables.

Every artifact is written through :func:`atomic_write_text`
(tmp file + ``os.replace``), so a run killed mid-write never leaves a
truncated JSON behind — the reader sees either the previous complete
file or the new complete file, nothing in between.

The module also holds the repo's one append-only JSONL log primitive,
shared by the job store and the run ledger:
:func:`append_jsonl` appends whole lines, and
:func:`read_jsonl` reads them back.  A crash mid-append can only leave
a *torn tail* — bytes after the last newline.  The reader drops it
with a warning, and the next append truncates it away before writing,
so it never becomes an interior line.  Corruption anywhere else raises
:class:`~repro.robustness.errors.ConfigurationError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import to_openmetrics
from repro.obs.propagate import spans_to_chrome
from repro.robustness.errors import ConfigurationError

_log = get_logger("obs.artifacts")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (stable across runs and platforms).

    The content hashes of batch cases, ledger records and options, and
    the job service's design bytes all rest on this one encoding.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + ``os.replace``).

    The temp file lives next to the target (same filesystem, so the
    replace is atomic) and is fsynced before the rename; a crash at
    any point leaves either the old file or the new one, never a
    truncated mix.  Returns the target path.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Every record of a JSONL log, in file order.

    A missing file reads as ``[]``; blank lines are skipped.  Bytes
    after the last newline are a torn tail, as :func:`append_jsonl`
    sees it: undecodable, they are dropped with a WARNING; a complete
    record there is kept, and the next append terminates it.  An
    undecodable newline-terminated line raises
    :class:`ConfigurationError` wherever it sits, because silently
    skipping it would lose records that were durably written.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    lines = data.split(b"\n")
    tail = lines.pop()
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            raise ConfigurationError(
                f"JSONL log {path} is corrupt at line {lineno}",
                context={"path": str(path), "line": lineno},
            ) from None
    if tail.strip():
        record = _decode_tail(tail)
        if record is None:
            _log.warning(
                "%s: dropping torn tail line %d (%d bytes)",
                path,
                len(lines) + 1,
                len(tail),
            )
        else:
            records.append(record)
    return records


def _decode_tail(tail: bytes) -> Any:
    """The record in an unterminated last line, or ``None`` if torn."""
    try:
        return json.loads(tail)
    except ValueError:
        return None


def append_jsonl(
    path: str | Path, records: list[dict[str, Any]], *, fsync: bool
) -> None:
    """Append ``records`` to a JSONL log, one ``sort_keys`` line each.

    A file that does not end in a newline ends in a tail from a crashed
    append.  A torn tail is truncated back to the last newline first,
    so the new lines never glue onto it; a complete record there gets
    its newline, so what :func:`read_jsonl` returned survives.
    ``fsync`` makes the append durable before returning.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                content = handle.read()
                keep = content.rfind(b"\n") + 1
                if _decode_tail(content[keep:]) is None:
                    _log.warning(
                        "%s: truncating torn tail (%d bytes) before append",
                        path,
                        end - keep,
                    )
                    handle.truncate(keep)
                else:
                    data = "\n" + data
        handle.write(data.encode("utf-8"))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


class RunArtifacts:
    """Writes the per-run artifact bundle into ``directory``."""

    TRACE_JSONL = "trace.jsonl"
    TRACE_CHROME = "trace.json"
    METRICS = "metrics.json"
    METRICS_OPENMETRICS = "metrics.om"
    REPORT = "report.json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def write(
        self,
        *,
        spans: list[dict[str, Any]] | None = None,
        metrics: MetricsRegistry | None = None,
        report: Any = None,
    ) -> list[Path]:
        """Write every supplied artifact; returns the paths written.

        ``spans`` are span records (:func:`repro.obs.propagate.span_records`
        and :func:`~repro.obs.propagate.synthetic_span_record`);
        ``report`` is anything with a ``to_dict()`` (normally a
        :class:`~repro.robustness.report.SynthesisReport`).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        if spans is not None:
            written.append(
                atomic_write_text(
                    self.directory / self.TRACE_JSONL,
                    "".join(json.dumps(record) + "\n" for record in spans),
                )
            )
            written.append(
                atomic_write_text(
                    self.directory / self.TRACE_CHROME,
                    json.dumps(spans_to_chrome(spans)) + "\n",
                )
            )
        if metrics is not None:
            written.append(
                atomic_write_text(self.directory / self.METRICS, metrics.to_json())
            )
            written.append(
                atomic_write_text(
                    self.directory / self.METRICS_OPENMETRICS,
                    to_openmetrics(metrics.snapshot()),
                )
            )
        if report is not None:
            payload = report.to_dict() if hasattr(report, "to_dict") else report
            written.append(
                atomic_write_text(
                    self.directory / self.REPORT,
                    json.dumps(payload, indent=2) + "\n",
                )
            )
        return written
