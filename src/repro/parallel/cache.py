"""Content-keyed memoization for synthesis-space sweeps.

Every experiment in this repository re-synthesizes routers on a small
set of floorplans (the paper's placements, ablation variants, #wl
sweeps).  The expensive artifacts along the way are pure functions of
the node positions:

- the O(E²) conflict-pair dict behind MILP constraint (3)
  (:func:`repro.geometry.build_edge_conflicts`);
- the built Step-1 ring :class:`~repro.milp.Model` itself;
- the solved :class:`~repro.core.ring.RingTour` (per construction
  method and backend).

:class:`SynthesisCache` memoizes all three, keyed on the *canonical
point tuple* — the ``((x, y), ...)`` coordinates in node-index order —
plus a per-section extra key (method, backend).  The cache is
process-global (:func:`get_cache`), thread-safe, and LRU-bounded.
Worker processes forked by the batch engine inherit the parent's warm
cache copy-on-write; spawned workers start cold.  Either way results
are unchanged — a cache miss just rebuilds deterministically.

Hit/miss counters are exported through :mod:`repro.obs`: every lookup
increments ``cache.<section>.hits`` / ``cache.<section>.misses`` on
the ambient :class:`~repro.obs.MetricsRegistry`, so per-run registries
(and therefore ``SynthesisReport.metrics``) carry the cache behaviour
of their run.  :meth:`SynthesisCache.stats` aggregates independently
of any registry.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
import zlib
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

from repro.obs import get_logger, get_obs

_log = get_logger("parallel.cache")

#: Per-section LRU bound.  Keys are whole floorplans, so even large
#: property-based sweeps stay far below this.
DEFAULT_SECTION_CAPACITY = 256


def canonical_points(points: Sequence) -> tuple[tuple[float, float], ...]:
    """The content key of a floorplan: ``(x, y)`` pairs in node order.

    Node identity is positional everywhere in this code base (node i is
    ``points[i]``), so the key preserves order rather than sorting.
    """
    return tuple((float(p.x), float(p.y)) for p in points)


class _Section:
    """One named LRU store with hit/miss accounting."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self._store: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _count(self, hit: bool) -> None:
        metrics = get_obs().metrics
        if hit:
            self.hits += 1
            metrics.counter(f"cache.{self.name}.hits").inc()
        else:
            self.misses += 1
            metrics.counter(f"cache.{self.name}.misses").inc()

    def get(self, key: Any) -> Any:
        """The cached value or ``None`` (counts a hit/miss)."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                value = self._store[key]
                hit = True
            else:
                value = None
                hit = False
        self._count(hit)
        return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def get_or_build(self, key: Any, builder: Callable[[], Any]) -> Any:
        """Return the cached value, building (and storing) on a miss.

        The builder runs outside the section lock — conflict builds
        take hundreds of milliseconds and must not serialize unrelated
        lookups.  Two threads racing the same cold key both build; the
        second store wins, which is harmless because builders are
        deterministic pure functions of the key.
        """
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                value = self._store[key]
                self._count(True)
                return value
        self._count(False)
        value = builder()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._store),
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class SynthesisCache:
    """The memo sections used by the Step-1/Step-2 construction flow.

    Sections and their keys:

    - ``conflicts`` — ``canonical_points`` → conflict-pair dict
      (shared, read-only by convention);
    - ``models`` — ``canonical_points`` → built ring MILP model;
    - ``tours`` — ``(method, canonical_points, extra)`` → clean
      :class:`~repro.core.ring.RingTour` (never a timed-out incumbent;
      callers skip this section entirely when a time limit or deadline
      is active so timeout semantics stay observable);
    - ``plans`` — Step-2 input content → selected
      :class:`~repro.core.shortcuts.ShortcutPlan` (served as a
      defensive copy; see ``copy_plan``).

    ``conflicts``/``models`` are always on — reusing them changes no
    observable behaviour, the solve still runs.  ``tours``/``plans``
    skip whole stages and are therefore opt-in
    (:meth:`enable_result_caching`).
    """

    def __init__(self, capacity: int = DEFAULT_SECTION_CAPACITY) -> None:
        self.conflicts = _Section("conflicts", capacity)
        self.models = _Section("models", capacity)
        self.tours = _Section("tours", capacity)
        self.plans = _Section("plans", capacity)
        #: Durable L2 backend (:class:`~repro.parallel.store.PersistentStore`
        #: or :class:`~repro.parallel.shard.ShardClient`); ``None`` keeps
        #: the cache purely in-memory.  The L2 serves conflict dicts here
        #: and whole batch results in :mod:`repro.parallel.batch`.
        self.l2: Any = None
        #: Result memoization (tours and shortcut plans) is opt-in:
        #: serving a finished stage result skips the whole span/solve,
        #: which changes observable solver counters for repeat runs —
        #: sweeps and benchmarks opt in via
        #: :meth:`enable_result_caching`; library defaults stay
        #: faithful.
        self.result_caching = False

    def enable_result_caching(self, enabled: bool = True) -> None:
        """Turn the ``tours``/``plans`` sections on or off (off by
        default)."""
        self.result_caching = enabled

    # -- durable L2 ----------------------------------------------------------
    def attach_l2(self, backend: Any) -> None:
        """Install (or replace) the durable L2 behind this cache.

        ``backend`` speaks the store protocol: ``get(section, key) ->
        (payload, meta) | None``, ``put(section, key, payload, meta)``,
        ``counters`` and ``stats()``.  Detach with ``None``.
        """
        self.l2 = backend

    @staticmethod
    def _l2_key(key: tuple) -> str:
        """Durable form of a canonical-point-tuple key."""
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def _l2_get_conflicts(self, key: tuple) -> dict | None:
        if self.l2 is None:
            return None
        metrics = get_obs().metrics
        try:
            entry = self.l2.get("conflicts", self._l2_key(key))
        except Exception:
            _log.warning("L2 conflicts read failed; recomputing", exc_info=True)
            metrics.counter("cache.l2.errors").inc()
            return None
        if entry is None:
            metrics.counter("cache.l2.conflicts.misses").inc()
            return None
        payload, _meta = entry
        try:
            value = pickle.loads(zlib.decompress(payload))
        except Exception:
            # The store's checksum already vouched for the bytes, so
            # this is a schema drift, not corruption — still a miss.
            _log.warning("L2 conflicts payload undecodable; recomputing")
            metrics.counter("cache.l2.errors").inc()
            return None
        metrics.counter("cache.l2.conflicts.hits").inc()
        return value

    def _l2_put_conflicts(self, key: tuple, value: dict) -> None:
        if self.l2 is None:
            return
        try:
            payload = zlib.compress(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self.l2.put(
                "conflicts",
                self._l2_key(key),
                payload,
                {"kind": "conflicts", "pairs": len(value)},
            )
        except Exception:
            _log.warning("L2 conflicts write failed; continuing", exc_info=True)
            get_obs().metrics.counter("cache.l2.errors").inc()

    # -- conflicts -----------------------------------------------------------
    def conflicts_for(
        self, points: Sequence, builder: Callable[[], dict]
    ) -> dict:
        """The conflict-pair dict of a floorplan (built once).

        Cold builds are timed onto the ambient metrics registry
        (``cache.conflicts.build_s`` histogram) — the conflict sweep
        is the dominant eager model-build cost, and the perf sentinel
        tracks it across the scalar/bulk kernel dispatch.
        """

        def timed_builder() -> dict:
            start = time.perf_counter()
            value = builder()
            get_obs().metrics.histogram("cache.conflicts.build_s").observe(
                time.perf_counter() - start
            )
            return value

        key = canonical_points(points)

        def l2_builder() -> dict:
            # L1 missed: consult the durable tier before paying the
            # O(E²) rebuild, and persist fresh builds for next time.
            value = self._l2_get_conflicts(key)
            if value is not None:
                return value
            value = timed_builder()
            self._l2_put_conflicts(key, value)
            return value

        return self.conflicts.get_or_build(key, l2_builder)

    # -- ring MILP models ----------------------------------------------------
    def model_for(self, points: Sequence, builder: Callable[[], Any]) -> Any:
        """The built Step-1 model of a floorplan (built once)."""
        return self.models.get_or_build(canonical_points(points), builder)

    # -- solved tours --------------------------------------------------------
    def tour_get(self, method: str, points: Sequence, extra: tuple = ()) -> Any:
        """A cached clean tour, or ``None``.

        Always ``None`` (without touching the hit/miss counters) while
        result caching is disabled.
        """
        if not self.result_caching:
            return None
        return self.tours.get((method, canonical_points(points), extra))

    def tour_put(
        self, method: str, points: Sequence, tour: Any, extra: tuple = ()
    ) -> None:
        """Store a clean tour for reuse (no-op while disabled)."""
        if not self.result_caching:
            return
        self.tours.put((method, canonical_points(points), extra), tour)

    # -- shortcut plans ------------------------------------------------------
    def plan_get(self, key: Any) -> Any:
        """A cached shortcut plan, or ``None``.

        Always ``None`` (without touching the hit/miss counters) while
        result caching is disabled.  The key is the Step-2 input
        content (tour order and geometry, selection options, demands);
        the caller builds it, because only the synthesizer knows which
        of its options feed the stage.
        """
        if not self.result_caching:
            return None
        return self.plans.get(key)

    def plan_put(self, key: Any, plan: Any) -> None:
        """Store a shortcut plan for reuse (no-op while disabled)."""
        if not self.result_caching:
            return
        self.plans.put(key, plan)

    # -- maintenance ---------------------------------------------------------
    def clear(self) -> None:
        """Empty every section and reset its counters."""
        self.conflicts.clear()
        self.models.clear()
        self.tours.clear()
        self.plans.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-section hit/miss/size/hit-rate counters."""
        stats = {
            "conflicts": self.conflicts.stats(),
            "models": self.models.stats(),
            "tours": self.tours.stats(),
            "plans": self.plans.stats(),
        }
        if self.l2 is not None:
            try:
                stats["l2"] = self.l2.stats()
            except Exception:
                stats["l2"] = {"error": "unavailable"}
        return stats


_CACHE = SynthesisCache()


def get_cache() -> SynthesisCache:
    """The process-global synthesis cache."""
    return _CACHE


def clear_caches() -> None:
    """Reset the global cache.

    Benchmarks call this between cold/warm phases; tests call it to
    isolate hit-rate assertions.  The durable L2 is *detached* (not
    wiped): a cleared process forgets its backend, but the on-disk
    store keeps its entries for the next attach — that is the whole
    point of durability.
    """
    _CACHE.clear()
    _CACHE.l2 = None


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
