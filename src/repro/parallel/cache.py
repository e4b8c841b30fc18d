"""The process-global holder of the durable L2 cache.

:class:`SynthesisCache` holds one optional L2 backend — a local
:class:`~repro.parallel.store.PersistentStore` or a sharded
:class:`~repro.parallel.shard.ShardClient` — behind
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
from typing import Any


def canonical_points(points: Sequence) -> tuple[tuple[float, float], ...]:
    """The content key of a floorplan: ``(x, y)`` pairs in node order.

    Node identity is positional everywhere in this code base (node i is
    ``points[i]``), so the key preserves order rather than sorting.
    """
    return tuple((float(p.x), float(p.y)) for p in points)


class SynthesisCache:
    """The process-global slot for the durable L2 backend."""

    def __init__(self) -> None:
        #: Durable L2 backend (:class:`~repro.parallel.store.PersistentStore`
        #: or :class:`~repro.parallel.shard.ShardClient`); ``None`` when
        #: no L2 is configured.
        self.l2: Any = None

    def attach_l2(self, backend: Any) -> None:
        """Install (or replace) the durable L2 behind this cache.

        ``backend`` speaks the store protocol: ``get(section, key) ->
        (payload, meta) | None``, ``put(section, key, payload, meta)``,
        ``counters`` and ``stats()``.  Detach with ``None``.
        """
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


def configure_l2(
    cache_dir: Any = "",
    cache_nodes: Sequence[str] = (),
    *,
    replication: int = 2,
    seed: int = 0,
) -> Any:
    """Build an L2 backend and attach it to the global cache.

    ``cache_dir`` selects a local :class:`~repro.parallel.store.
    PersistentStore`; ``cache_nodes`` (``host:port`` strings) selects a
    sharded :class:`~repro.parallel.shard.ShardClient`.  With neither,
    any attached L2 is detached.  Returns the backend (or ``None``).

    Imports lazily: ``repro.parallel.shard`` pulls in the service HTTP
    plumbing, which must not load at ``repro.parallel`` import time.
    """
    if cache_dir and cache_nodes:
        raise ValueError("cache_dir and cache_nodes are mutually exclusive")
    backend: Any = None
    if cache_nodes:
        from repro.parallel.shard import ShardClient

        backend = ShardClient(
            list(cache_nodes), replication=replication, seed=seed
        )
    elif cache_dir:
        from repro.parallel.store import PersistentStore

        backend = PersistentStore(cache_dir)
    _CACHE.attach_l2(backend)
    return backend
