"""Durable L2 synthesis cache: a persistent content-addressed store.

:class:`PersistentStore` keeps one file per cache entry under a
2-level hashed directory fan-out (``root/<section>/ab/cd/<key>.xre``),
so finished results survive restarts and host moves.  Entries are
opaque payload bytes — callers pickle/compress — preceded by a
one-line JSON header:

``{"magic": "xrs", "schema": 1, "section": ..., "key": ...,
"payload_sha256": ..., "payload_len": ..., "meta": {...}}``

``meta`` carries whatever the writer wants verified end-to-end — the
batch layer stores the options hash (implicit in the case key) and
the design digest, and re-checks the digest after unpickling.

Failure semantics (the point of this module):

- **Atomic writes** — payloads land in a same-directory temp file,
  are fsynced, then ``os.replace``d into place (the
  :func:`~repro.obs.artifacts.atomic_write_text` discipline for
  bytes).  A crash mid-put leaves either no entry or the complete
  previous one, never a half-written file at the final path.
- **Checksummed reads with quarantine** — every read re-hashes the
  payload against the header.  A torn, truncated, or bit-flipped
  entry is *moved* into ``root/quarantine/`` (counter
  ``cache.store.quarantined``) and reported as a miss; corrupt bytes
  are never handed to a caller, so they can never deserialize into a
  design.
- **Degraded mode** — an unwritable or uncreatable root logs one
  WARNING and flips the store to a no-op: synthesis must
  never fail because the cache is sick.

:meth:`verify` is the integrity scrub (re-checksum every entry,
quarantine failures); :meth:`gc` is size-bounded LRU eviction (read
hits touch mtime).  Both back the ``xring cache scrub|gc``
subcommands.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.obs import get_logger

_log = get_logger("parallel.store")

#: Entry header magic + schema (bump ``STORE_SCHEMA`` on layout change;
#: readers quarantine entries from other schemas rather than guessing).
STORE_MAGIC = "xrs"
STORE_SCHEMA = 1

#: Entry filename suffix; anything else in a section dir is ignored
#: (stray temp files from a crashed writer, editor droppings).
ENTRY_SUFFIX = ".xre"

#: Sidecar directory (under the store root) corrupt entries move to.
QUARANTINE_DIRNAME = "quarantine"

#: Counter keys every backend maintains (section-scoped ones are
#: ``"<name>:<section>"``).  The batch layer maps the delta of these
#: onto ``cache.l2.*`` / ``cache.store.*`` metrics on join.
STORE_COUNTER_KEYS = ("hits", "misses", "puts", "quarantined", "evicted", "errors")


def payload_checksum(payload: bytes) -> str:
    """The content hash stored in (and verified against) the header."""
    return hashlib.sha256(payload).hexdigest()


def _safe_component(text: str) -> str:
    """Filesystem-safe section/key component (defense in depth)."""
    return "".join(c for c in text if c.isalnum() or c in "._-") or "_"


class PersistentStore:
    """File-per-key content-addressed store with quarantine semantics.

    All operations are best-effort and non-raising: a sick store
    degrades to misses (reads) and dropped writes, with counters and
    a single WARNING, never an exception into the synthesis path.
    """

    def __init__(self, root: str | Path, *, fault_plan: Any = None) -> None:
        self.root = Path(root)
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.disabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            probe = self.root / f".probe.{os.getpid()}"
            probe.write_bytes(b"")
            probe.unlink()
        except OSError as exc:
            self.disabled = True
            _log.warning(
                "cache store %s is unwritable (%s); degrading to a "
                "no-op store",
                self.root,
                exc,
            )

    # -- bookkeeping ---------------------------------------------------------
    def _count(self, name: str, section: str | None = None, n: int = 1) -> None:
        key = f"{name}:{section}" if section else name
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def describe(self) -> str:
        return f"dir:{self.root}"

    # -- paths ---------------------------------------------------------------
    def _section_dir(self, section: str) -> Path:
        return self.root / _safe_component(section)

    def entry_path(self, section: str, key: str) -> Path:
        key = _safe_component(key)
        fan = (key + "00")[:4]
        return self._section_dir(section) / fan[:2] / fan[2:4] / (key + ENTRY_SUFFIX)

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    # -- write path ----------------------------------------------------------
    def put(self, section: str, key: str, payload: bytes, meta: dict[str, Any] | None = None) -> bool:
        """Atomically persist one entry; True when it landed."""
        if self.disabled:
            return False
        header = {
            "magic": STORE_MAGIC,
            "schema": STORE_SCHEMA,
            "section": section,
            "key": key,
            "payload_sha256": payload_checksum(payload),
            "payload_len": len(payload),
            "meta": dict(meta or {}),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
        path = self.entry_path(section, key)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        fault = None
        if self.fault_plan is not None:
            take = getattr(self.fault_plan, "take_store_fault", None)
            if take is not None:
                fault = take(section)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            torn = len(blob) // 2 if len(blob) > 1 else 0
            if fault is not None and fault.kind == "torn_tmp":
                # Writer died before the rename: a partial temp file is
                # all that remains.  Readers must never see it.
                tmp.write_bytes(blob[:torn])
                return False
            if fault is not None and fault.kind == "torn_final":
                # Torn bytes at the *final* path (foreign writer, disk
                # error): the checksum gate must catch this on read.
                path.write_bytes(blob[:torn])
                return False
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, blob)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError as exc:
            self._count("errors")
            _log.warning("cache store put %s/%s failed: %s", section, key, exc)
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self._count("puts", section)
        return True

    # -- read path -----------------------------------------------------------
    def get(self, section: str, key: str) -> tuple[bytes, dict[str, Any]] | None:
        """The (payload, meta) of an entry, or ``None``.

        Any integrity failure quarantines the entry and reports a
        miss — the caller recomputes, never crashes.
        """
        if self.disabled:
            return None
        path = self.entry_path(section, key)
        loaded = self._load(path, section=section, key=key)
        if loaded is None:
            self._count("misses", section)
            return None
        try:
            os.utime(path)  # LRU clock for gc()
        except OSError:
            pass
        self._count("hits", section)
        return loaded

    def _load(
        self,
        path: Path,
        *,
        section: str | None = None,
        key: str | None = None,
    ) -> tuple[bytes, dict[str, Any]] | None:
        """Read + verify one entry file; quarantine on any failure."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._count("errors")
            _log.warning("cache store read %s failed: %s", path, exc)
            return None
        head, sep, payload = blob.partition(b"\n")
        reason = ""
        header: dict[str, Any] = {}
        if not sep:
            reason = "no header/payload separator"
        else:
            try:
                header = json.loads(head.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                reason = "undecodable header"
        if not reason:
            if header.get("magic") != STORE_MAGIC or header.get("schema") != STORE_SCHEMA:
                reason = f"bad magic/schema {header.get('magic')!r}/{header.get('schema')!r}"
            elif section is not None and header.get("section") != section:
                reason = f"section mismatch {header.get('section')!r}"
            elif key is not None and header.get("key") != key:
                reason = f"key mismatch {header.get('key')!r}"
            elif header.get("payload_len") != len(payload):
                reason = f"payload length {len(payload)} != {header.get('payload_len')}"
            elif header.get("payload_sha256") != payload_checksum(payload):
                reason = "payload checksum mismatch"
        if reason:
            self._quarantine(path, reason)
            return None
        return payload, dict(header.get("meta") or {})

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside; it must never be served again."""
        self._count("quarantined")
        dest = self.quarantine_dir / f"{path.parent.parent.parent.name}-{path.name}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                dest = dest.with_name(dest.name + f".{self.counters.get('quarantined', 0)}")
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        _log.warning("cache store quarantined %s (%s)", path, reason)

    # -- enumeration / maintenance -------------------------------------------
    def _entry_files(self) -> list[Path]:
        if self.disabled or not self.root.exists():
            return []
        files = []
        for section_dir in sorted(self.root.iterdir()):
            if not section_dir.is_dir() or section_dir.name == QUARANTINE_DIRNAME:
                continue
            files.extend(sorted(section_dir.glob(f"*/*/*{ENTRY_SUFFIX}")))
        return files

    def keys(self) -> dict[str, dict[str, dict[str, Any]]]:
        """``{section: {key: {"sha256", "len", "meta"}}}`` from headers.

        Corrupt headers are quarantined on the spot (enumeration is a
        scrub opportunity); torn temp files are invisible by suffix.
        """
        out: dict[str, dict[str, dict[str, Any]]] = {}
        for path in self._entry_files():
            try:
                with open(path, "rb") as fh:
                    head = fh.readline()
                header = json.loads(head.decode("utf-8"))
                section = header["section"]
                key = header["key"]
                sha = header["payload_sha256"]
            except (OSError, ValueError, KeyError, UnicodeDecodeError):
                self._quarantine(path, "unreadable header during enumeration")
                continue
            out.setdefault(section, {})[key] = {
                "sha256": sha,
                "len": header.get("payload_len", 0),
                "meta": dict(header.get("meta") or {}),
            }
        return out

    def verify(self) -> dict[str, int]:
        """Integrity scrub: re-checksum every entry.

        Corrupt entries are quarantined (counter + WARNING).  Returns
        ``{"checked": n, "quarantined": m, "bytes": total}``.
        """
        before = self.counters.get("quarantined", 0)
        checked = 0
        total = 0
        for path in self._entry_files():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if self._load(path) is not None:
                total += size
            checked += 1
        return {
            "checked": checked,
            "quarantined": self.counters.get("quarantined", 0) - before,
            "bytes": total,
        }

    def gc(self, max_bytes: int) -> dict[str, int]:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        Recency is file mtime (touched on every read hit).  Returns
        ``{"evicted": n, "kept": m, "bytes": remaining}``.
        """
        entries = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self._count("evicted", n=evicted)
        return {"evicted": evicted, "kept": len(entries) - evicted, "bytes": total}

    def stats(self) -> dict[str, Any]:
        """Counters + on-disk footprint (cheap enough for /stats)."""
        files = self._entry_files()
        size = 0
        for path in files:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        quarantine_files = 0
        if self.quarantine_dir.exists():
            quarantine_files = sum(1 for _ in self.quarantine_dir.iterdir())
        with self._lock:
            counters = dict(self.counters)
        return {
            "backend": self.describe(),
            "disabled": self.disabled,
            "entries": len(files),
            "bytes": size,
            "quarantine_files": quarantine_files,
            "counters": counters,
        }


def counter_metric_name(counter_key: str) -> str | None:
    """Map a backend counter key onto its ``cache.*`` metric name.

    Whole-result traffic (section ``results``) is the headline
    ``cache.l2.hits`` / ``cache.l2.misses`` / ``cache.l2.puts``;
    store-health counters map to ``cache.store.*``; other sections
    return ``None``.
    """
    name, _, section = counter_key.partition(":")
    if name in ("quarantined", "evicted"):
        return f"cache.store.{name}"
    if name == "errors":
        return "cache.l2.errors"
    if section == "results" and name in ("hits", "misses", "puts"):
        return f"cache.l2.{name}"
    return None
