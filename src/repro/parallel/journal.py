"""Crash-safe batch checkpointing: the append-only case journal.

A :class:`BatchJournal` records every *finished* case of a batch run
(success, quarantine, or circuit-open skip) as one JSONL entry keyed
by a content hash of the case, plus a header line fingerprinting the
whole batch.  ``xring batch --resume <journal>`` reloads the journal,
verifies the fingerprint against the case file, restores the finished
results verbatim, and re-enqueues only the cases that were in flight
or pending when the previous run died.

Entry payloads carry the full pickled
:class:`~repro.parallel.supervisor.BatchResult` (design included), so
a resumed report is built from exactly the objects the interrupted
run computed — nothing is re-derived.  A ``digest`` (SHA-256 of the
canonical design dump, or of the error string for failures) rides
along for cheap integrity checks and cross-run diffing.

Durability: a fresh journal's header is written atomically (tmp +
``os.replace`` + fsync, replacing whatever was at the path); each
finished case is then appended and fsynced as one line through
:func:`~repro.obs.artifacts.append_jsonl`.  A ``kill -9`` mid-append
leaves at most a torn tail line, which the loader
(:func:`~repro.obs.artifacts.read_jsonl`) drops and the next append
truncates away.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.obs import (
    append_jsonl,
    atomic_write_text,
    canonical_json,
    read_jsonl,
)
from repro.parallel.supervisor import BatchCase, BatchResult
from repro.robustness.errors import ConfigurationError

JOURNAL_VERSION = 1


def case_key(index: int, case: BatchCase) -> str:
    """Content hash identifying one case across batch runs.

    Covers the input position in the batch, the floorplan (positions,
    traffic, die), and every synthesis option — anything that changes
    the case's output changes its key, so a stale journal can never
    satisfy a different batch.
    """
    payload = {
        "index": index,
        "label": case.named(),
        "positions": [[node.position.x, node.position.y] for node in case.network.nodes],
        "traffic": [list(pair) for pair in case.network.traffic],
        "die": None
        if case.network.die is None
        else [
            case.network.die.xmin,
            case.network.die.ymin,
            case.network.die.xmax,
            case.network.die.ymax,
        ],
        "options": asdict(case.options),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def batch_fingerprint(keys: list[str]) -> str:
    """Hash of the ordered case-key list: identifies the whole batch."""
    return hashlib.sha256(",".join(keys).encode("utf-8")).hexdigest()


def result_digest(result: BatchResult) -> str:
    """SHA-256 of the deterministic part of a result.

    Successful cases hash the canonical structural design dump, so two
    runs agreeing on the digest produced byte-identical designs;
    failures hash the error string.
    """
    if result.design is not None:
        payload = canonical_json(result.design.to_dict())
    else:
        payload = result.error or ""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_result(result: BatchResult) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def _decode_result(blob: str) -> BatchResult:
    return pickle.loads(zlib.decompress(base64.b64decode(blob.encode("ascii"))))


class BatchJournal:
    """Append-only JSONL checkpoint of one batch run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._header: dict[str, Any] | None = None
        self._entries: dict[str, dict[str, Any]] = {}

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "BatchJournal":
        """Read an existing journal, tolerating a torn tail line."""
        journal = cls(path)
        if not journal.path.exists():
            raise ConfigurationError(
                f"journal {journal.path} does not exist",
                context={"path": str(journal.path)},
            )
        for record in read_jsonl(journal.path):
            if record.get("kind") == "header":
                journal._header = record
            elif record.get("kind") == "case":
                journal._entries[record["key"]] = record
        return journal

    def begin(self, fingerprint: str, total_cases: int) -> None:
        """Start (or verify) the journal for a batch.

        A fresh journal writes its header; an existing one (resume)
        must carry the same fingerprint — resuming a *different* batch
        against this journal is an error, not silent corruption.
        """
        if self._header is not None:
            recorded = self._header.get("fingerprint")
            if recorded != fingerprint:
                raise ConfigurationError(
                    f"journal {self.path} belongs to a different batch "
                    f"(fingerprint {recorded!r} != {fingerprint!r}); "
                    "pass the original case file or start a new journal",
                    context={"path": str(self.path)},
                )
            return
        self._header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "cases": total_cases,
        }
        header_line = json.dumps(self._header, sort_keys=True) + "\n"
        atomic_write_text(self.path, header_line)

    # -- recording / restoring -----------------------------------------------
    def record(self, key: str, result: BatchResult) -> None:
        """Checkpoint one finished case (idempotent per key)."""
        if key in self._entries:
            return
        entry = {
            "kind": "case",
            "key": key,
            "index": result.index,
            "label": result.label,
            "ok": result.ok,
            "error": result.error,
            "attempts": result.attempts,
            "quarantined": result.quarantined,
            "digest": result_digest(result),
            "payload": _encode_result(result),
        }
        append_jsonl(self.path, [entry], fsync=True)
        self._entries[key] = entry

    def completed_keys(self) -> set[str]:
        return set(self._entries)

    def restore(self, key: str) -> BatchResult | None:
        """Rebuild the finished result checkpointed under ``key``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        result = _decode_result(entry["payload"])
        result.resumed = True
        return result

    def summary(self) -> dict[str, Any]:
        """Header + completion counts (CLI status line)."""
        header = dict(self._header or {})
        header.pop("kind", None)
        return {
            **header,
            "completed": len(self._entries),
        }
