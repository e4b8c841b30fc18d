"""Bounded ring-buffer time series over metrics-registry snapshots.

:class:`TimeSeriesStore` turns the cumulative instruments of a
:class:`~repro.obs.metrics.MetricsRegistry` into *history*: feed it a
``registry.snapshot()`` dict once per scrape interval and it retains a
fixed-size window of samples per series, from which windowed counter
rates, gauge trajectories and histogram quantiles are derived — the
substrate the SLO engine (:mod:`repro.obs.slo`), the dashboard
sparklines and ``xring top`` all read from.

Design points:

- **Cumulative samples.**  Every stored point is the instrument's
  cumulative value at scrape time (counters: running total; histograms:
  ``(total, sum, per-bucket counts)``).  A windowed rate or quantile is
  the *delta* between the two samples spanning the window, so dropped
  scrapes lose resolution, never correctness.
- **Multi-resolution downsampling.**  Tier 0 keeps every scrape; each
  coarser tier keeps every Nth sample of the tier below (default 6x,
  then 10x more).  With the default 5 s scrape and 720-point rings that
  is 1 h of full-rate history, 12 h at 30 s, 120 h at 5 min — all in
  fixed memory (``deque(maxlen=...)`` per tier, bound assertable via
  :meth:`TimeSeriesStore.point_count`).
- **JSONL persistence.**  With a ``persist_path`` every scrape appends
  one compact line (counters, gauges, histogram totals) for
  post-mortems through the shared :func:`~repro.obs.artifacts.append_jsonl`
  log (no fsync: the writer runs on the service's event loop); read it
  back with :func:`~repro.obs.artifacts.read_jsonl`.  The file rotates
  once to ``<path>.1`` past ``max_persist_bytes``.

Counter resets (a restarted process re-registering at zero) are
tolerated: a negative delta is read as "the counter restarted", and the
new cumulative value is taken as the delta for that window.
"""

from __future__ import annotations

import os
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.obs.artifacts import append_jsonl

__all__ = [
    "TimeSeriesStore",
    "DEFAULT_CAPACITY",
    "DEFAULT_TIER_FACTORS",
]

#: Ring capacity per series per resolution tier.
DEFAULT_CAPACITY = 720

#: Downsampling factors: tier 1 keeps every 6th scrape, tier 2 every
#: 60th (6 * 10).  Three tiers total including the full-rate tier 0.
DEFAULT_TIER_FACTORS = (6, 10)

#: Rotate the persistence file past this size (one ``.1`` generation).
DEFAULT_MAX_PERSIST_BYTES = 16 * 1024 * 1024


class _Series:
    """One named series: kind, optional bucket edges, per-tier rings."""

    __slots__ = ("kind", "edges", "tiers")

    def __init__(self, kind: str, tier_caps: tuple[int, ...],
                 edges: tuple[float, ...] = ()) -> None:
        self.kind = kind
        self.edges = edges
        self.tiers: list[deque] = [deque(maxlen=cap) for cap in tier_caps]


class TimeSeriesStore:
    """Fixed-memory multi-resolution history of registry snapshots.

    Not thread-safe by itself: callers are expected to scrape from a
    single loop (the service scrapes from its asyncio event loop) and
    read from anywhere — reads only ever see whole samples because
    samples are immutable tuples appended atomically.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        tier_factors: tuple[int, ...] = DEFAULT_TIER_FACTORS,
        persist_path: str | Path | None = None,
        max_persist_bytes: int = DEFAULT_MAX_PERSIST_BYTES,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if any(f < 2 for f in tier_factors):
            raise ValueError(f"tier factors must be >= 2, got {tier_factors}")
        self.capacity = int(capacity)
        self.tier_factors = tuple(int(f) for f in tier_factors)
        # Cumulative products: tier i keeps every _tier_every[i]-th scrape.
        self._tier_every = [1]
        for factor in self.tier_factors:
            self._tier_every.append(self._tier_every[-1] * factor)
        self._tier_caps = tuple(self.capacity for _ in self._tier_every)
        self._series: dict[str, _Series] = {}
        self._scrapes = 0
        self._last_scrape_t: float | None = None
        self.persist_path = Path(persist_path) if persist_path else None
        self.max_persist_bytes = int(max_persist_bytes)

    # -- ingestion -----------------------------------------------------------
    def observe(self, snapshot: dict[str, Any], now: float | None = None) -> None:
        """Fold one ``registry.snapshot()`` dict in as a scrape sample."""
        t = time.time() if now is None else float(now)
        self._scrapes += 1
        prev_t = self._last_scrape_t
        for name, value in snapshot.get("counters", {}).items():
            self._append(name, "counter", (t, int(value)), prev_t=prev_t)
        for name, value in snapshot.get("gauges", {}).items():
            self._append(name, "gauge", (t, float(value)))
        for name, data in snapshot.get("histograms", {}).items():
            edges = tuple(float(b) for b in data.get("buckets", ()))
            sample = (
                t,
                int(data.get("total", 0)),
                float(data.get("sum", 0.0)),
                tuple(int(c) for c in data.get("counts", ())),
            )
            self._append(name, "histogram", sample, edges=edges, prev_t=prev_t)
        self._last_scrape_t = t
        if self.persist_path is not None:
            self._persist(t, snapshot)

    def _append(self, name: str, kind: str, sample: tuple,
                edges: tuple[float, ...] = (),
                prev_t: float | None = None) -> None:
        series = self._series.get(name)
        if series is None or series.kind != kind or (
            kind == "histogram" and series.edges != edges
        ):
            series = _Series(kind, self._tier_caps, edges)
            self._series[name] = series
            # A counter/histogram absent from every earlier scrape was
            # implicitly zero then: seed the fresh series with a zero
            # sample at the previous scrape time so the first real
            # sample already forms a window pair.  Without this, a
            # burst that lands entirely between two scrapes is born at
            # its final value and never shows a windowed delta.
            if prev_t is not None and prev_t < sample[0]:
                if kind == "counter":
                    zero: tuple = (prev_t, 0)
                else:
                    zero = (prev_t, 0, 0.0, tuple(0 for _ in sample[3]))
                for tier in series.tiers:
                    tier.append(zero)
        for tier, every in enumerate(self._tier_every):
            if self._scrapes % every == 0:
                series.tiers[tier].append(sample)

    def _persist(self, t: float, snapshot: dict[str, Any]) -> None:
        record = {
            "t": round(t, 3),
            "counters": snapshot.get("counters", {}),
            "gauges": snapshot.get("gauges", {}),
            "histograms": {
                name: {"total": data.get("total", 0),
                       "sum": data.get("sum", 0.0)}
                for name, data in snapshot.get("histograms", {}).items()
            },
        }
        path = self.persist_path
        assert path is not None
        try:
            if path.exists() and path.stat().st_size > self.max_persist_bytes:
                os.replace(path, path.with_name(path.name + ".1"))
            append_jsonl(path, [record], fsync=False)
        except OSError:
            # Persistence is best-effort; history stays in memory.
            pass

    # -- introspection -------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._series)

    def kind(self, name: str) -> str | None:
        series = self._series.get(name)
        return series.kind if series else None

    def edges(self, name: str) -> tuple[float, ...]:
        series = self._series.get(name)
        return series.edges if series else ()

    def latest(self, name: str) -> tuple | None:
        series = self._series.get(name)
        if series is None or not series.tiers[0]:
            return None
        return series.tiers[0][-1]

    def samples(self, name: str, tier: int = 0) -> list[tuple]:
        series = self._series.get(name)
        if series is None:
            return []
        return list(series.tiers[tier])

    @property
    def scrapes(self) -> int:
        return self._scrapes

    def point_count(self) -> int:
        """Total stored points, for memory-bound assertions."""
        return sum(
            len(tier) for series in self._series.values() for tier in series.tiers
        )

    def max_points_per_series(self) -> int:
        """Hard per-series point bound (capacity x tier count)."""
        return self.capacity * len(self._tier_every)

    # -- windowed queries ----------------------------------------------------
    def _window_pair(self, name: str, window_s: float,
                     now: float | None) -> tuple[tuple, tuple] | None:
        """The two samples spanning ``window_s``: (start-ish, newest).

        The start sample is the newest one at or before the window
        start, searched finest-tier-first so the coarser rings only
        matter once the window outlives tier 0.  Falls back to the
        oldest retained sample (a partial window) rather than failing.
        """
        series = self._series.get(name)
        if series is None or not series.tiers[0]:
            return None
        newest = series.tiers[0][-1]
        t_now = newest[0] if now is None else float(now)
        start_t = t_now - float(window_s)
        best: tuple | None = None
        oldest: tuple | None = None
        for tier in series.tiers:
            for sample in reversed(tier):
                if oldest is None or sample[0] < oldest[0]:
                    oldest = sample
                if sample[0] <= start_t:
                    if best is None or sample[0] > best[0]:
                        best = sample
                    break  # tiers are time-ordered; earlier is worse
        anchor = best if best is not None else oldest
        if anchor is None or anchor[0] >= newest[0]:
            return None
        return anchor, newest

    def counter_delta(self, name: str, window_s: float,
                      now: float | None = None) -> int | None:
        """Counter increase over the window (reset-tolerant), or None."""
        pair = self._window_pair(name, window_s, now)
        if pair is None:
            return None
        (t0, v0), (t1, v1) = pair
        delta = v1 - v0
        return v1 if delta < 0 else delta

    def counter_rate(self, name: str, window_s: float,
                     now: float | None = None) -> float | None:
        """Counter increments per second over the window, or None."""
        pair = self._window_pair(name, window_s, now)
        if pair is None:
            return None
        (t0, v0), (t1, v1) = pair
        elapsed = t1 - t0
        if elapsed <= 0:
            return None
        delta = v1 - v0
        if delta < 0:
            delta = v1
        return delta / elapsed

    def histogram_delta(self, name: str, window_s: float,
                        now: float | None = None) -> dict[str, Any] | None:
        """Per-bucket observation counts within the window, or None.

        Returns ``{"buckets": edges, "counts": [...], "total": n,
        "sum": s}`` with the same shape a registry snapshot uses, so
        downstream quantile math is shared.
        """
        series = self._series.get(name)
        if series is None or series.kind != "histogram":
            return None
        pair = self._window_pair(name, window_s, now)
        if pair is None:
            return None
        (t0, n0, s0, c0), (t1, n1, s1, c1) = pair
        if n1 < n0 or len(c0) != len(c1):
            # Restart: the newest cumulative state IS the window delta.
            n0, s0, c0 = 0, 0.0, (0,) * len(c1)
        counts = [max(0, b - a) for a, b in zip(c0, c1)]
        return {
            "buckets": list(series.edges),
            "counts": counts,
            "total": max(0, n1 - n0),
            "sum": max(0.0, s1 - s0),
        }

    def quantile(self, name: str, q: float, window_s: float,
                 now: float | None = None) -> float | None:
        """The ``q``-th percentile (0-100) of window observations."""
        delta = self.histogram_delta(name, window_s, now)
        if delta is None or delta["total"] <= 0:
            return None
        return _quantile_from_counts(delta["buckets"], delta["counts"], q)

    def good_fraction(self, name: str, threshold: float, window_s: float,
                      now: float | None = None) -> tuple[float, int] | None:
        """Fraction of window observations at or under ``threshold``.

        Uses the smallest bucket edge >= threshold (conservative: the
        bucket containing the threshold counts as good).  Returns
        ``(fraction, total_observations)`` or None with no data.
        """
        delta = self.histogram_delta(name, window_s, now)
        if delta is None or delta["total"] <= 0:
            return None
        edges = delta["buckets"]
        counts = delta["counts"]
        good = 0
        for i, edge in enumerate(edges):
            if edge >= threshold:
                good = sum(counts[: i + 1])
                break
        else:
            good = delta["total"]  # threshold above every edge
        return good / delta["total"], delta["total"]

    # -- presentation --------------------------------------------------------
    def sparkline(self, name: str, points: int = 60) -> list[list[float]]:
        """Last ``points`` tier-0 values as ``[t, v]`` pairs.

        Counters render as per-interval *rates* (what a human wants to
        see trend); gauges as raw values; histograms as the interval
        p99 estimate.
        """
        series = self._series.get(name)
        if series is None:
            return []
        raw = list(series.tiers[0])[-(points + 1):]
        if series.kind == "gauge":
            return [[round(t, 3), v] for t, v in raw[-points:]]
        out: list[list[float]] = []
        for prev, cur in zip(raw, raw[1:]):
            elapsed = cur[0] - prev[0]
            if elapsed <= 0:
                continue
            if series.kind == "counter":
                delta = cur[1] - prev[1]
                if delta < 0:
                    delta = cur[1]
                out.append([round(cur[0], 3), delta / elapsed])
            else:  # histogram: interval p99
                counts = [max(0, b - a) for a, b in zip(prev[3], cur[3])]
                if sum(counts) <= 0:
                    out.append([round(cur[0], 3), 0.0])
                else:
                    out.append([
                        round(cur[0], 3),
                        _quantile_from_counts(list(series.edges), counts, 99.0),
                    ])
        return out


def _quantile_from_counts(edges: list[float], counts: list[int],
                          q: float) -> float:
    """Interpolated percentile from per-bucket counts (overflow-aware).

    Mirrors :meth:`repro.obs.metrics.Histogram.percentile` except the
    windowed form has no observed min/max: values interpolate between
    bucket edges and overflow-bucket hits report the top edge.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q / 100.0 * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        lower_rank = cumulative
        cumulative += count
        if cumulative >= rank:
            if i >= len(edges):  # overflow bucket
                return float(edges[-1]) if edges else 0.0
            lower_edge = float(edges[i - 1]) if i > 0 else 0.0
            upper_edge = float(edges[i])
            if count == 0:  # pragma: no cover - skipped above
                return upper_edge
            fraction = (rank - lower_rank) / count
            return lower_edge + (upper_edge - lower_edge) * min(1.0, fraction)
    return float(edges[-1]) if edges else 0.0

