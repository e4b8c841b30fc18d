"""The process-global holder of the durable L2 cache.

:class:`SynthesisCache` holds one optional L2 backend — a local
:class:`~repro.parallel.store.PersistentStore` — behind
:func:`get_cache`.  The L2 keeps finished batch results only
(:mod:`repro.parallel.batch` reads and writes them, keyed on the
case key); Step 1–2 reuse across cases goes through the batch
parent's sharing instead (see :class:`~repro.parallel.BatchSynthesizer`).

:func:`configure_l2` builds and attaches a backend, :func:`clear_caches`
detaches it, and :func:`canonical_points` is the content key of a
floorplan that batch grouping and Step-2 keys are built on.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.parallel.store import PersistentStore


def canonical_points(points: Sequence) -> tuple[tuple[float, float], ...]:
    """The content key of a floorplan: ``(x, y)`` pairs in node order.

    Node identity is positional everywhere in this code base (node i is
    ``points[i]``), so the key preserves order rather than sorting.
    """
    return tuple((float(p.x), float(p.y)) for p in points)


class SynthesisCache:
    """The process-global slot for the durable L2 backend."""

    def __init__(self) -> None:
        #: Durable L2 backend; ``None`` when no L2 is configured.
        self.l2: PersistentStore | None = None

    def attach_l2(self, backend: PersistentStore | None) -> None:
        """Install (or replace) the durable L2; ``None`` detaches it."""
        self.l2 = backend

    def clear(self) -> None:
        """Detach the L2 backend (its stored entries stay on disk)."""
        self.l2 = None

    def stats(self) -> dict[str, dict[str, Any]]:
        """``{"l2": backend stats}`` with an L2 attached, else ``{}``."""
        if self.l2 is None:
            return {}
        try:
            return {"l2": self.l2.stats()}
        except Exception:
            return {"l2": {"error": "unavailable"}}


_CACHE = SynthesisCache()


def get_cache() -> SynthesisCache:
    """The process-global synthesis cache."""
    return _CACHE


def clear_caches() -> None:
    """Reset the global cache, as a process restart would.

    The durable L2 is *detached* (not wiped): a cleared process forgets
    its backend, but the on-disk store keeps its entries for the next
    attach — that is the whole point of durability.
    """
    _CACHE.clear()


def configure_l2(cache_dir: str | Path = "") -> PersistentStore | None:
    """Attach a :class:`~repro.parallel.store.PersistentStore` at
    ``cache_dir`` to the global cache, or detach any L2 when it is
    empty.  Returns the store (or ``None``).
    """
    backend = PersistentStore(cache_dir) if cache_dir else None
    _CACHE.attach_l2(backend)
    return backend
