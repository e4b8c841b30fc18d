"""The bounded time-series store behind the service scrape loop.

The acceptance-critical property is the memory bound: a store fed an
unbounded synthetic scrape stream must hold a provably bounded number
of points (ring buffers per resolution tier), while the coarser tiers
keep enough history that windowed queries still answer.  The rest pins
the delta/rate/quantile math the SLO engine consumes, counter-reset
tolerance, and the JSONL persistence format.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, TimeSeriesStore, read_jsonl
from repro.obs.timeseries import _quantile_from_counts


def _snapshot(done=0, depth=0.0, latencies=()):
    """A registry snapshot shaped like the service's."""
    reg = MetricsRegistry()
    if done:
        reg.counter("service.jobs.done").inc(done)
    reg.gauge("service.queue_depth").set(depth)
    hist = reg.histogram("service.job_latency_s", (0.1, 1.0, 10.0))
    for value in latencies:
        hist.observe(value)
    return reg.snapshot()


class TestMemoryBound:
    def test_long_feed_stays_bounded(self):
        """Acceptance: 5000 scrapes into a capacity-30 store never hold
        more than capacity x tiers points per series."""
        store = TimeSeriesStore(capacity=30, tier_factors=(4, 5))
        for i in range(5000):
            store.observe(_snapshot(done=i, depth=i % 7, latencies=(0.5,)),
                          now=float(i))
        assert store.scrapes == 5000
        bound = 30 * 3  # capacity x (tier0 + tier1 + tier2)
        assert store.max_points_per_series() == bound
        for name in store.names():
            assert sum(len(t) for t in store._series[name].tiers) <= bound
        assert store.point_count() <= len(store.names()) * bound

    def test_downsampled_tiers_reach_further_back(self):
        store = TimeSeriesStore(capacity=10, tier_factors=(10,))
        for i in range(200):
            store.observe(_snapshot(done=i), now=float(i))
        fine = store.samples("service.jobs.done", tier=0)
        coarse = store.samples("service.jobs.done", tier=1)
        assert len(fine) == 10 and len(coarse) == 10
        # tier1 keeps every 10th scrape -> spans 10x the history.
        assert coarse[0][0] < fine[0][0]


class TestCounterMath:
    def test_windowed_delta_and_rate(self):
        store = TimeSeriesStore(capacity=100)
        for i in range(20):
            store.observe(_snapshot(done=3 * i), now=float(i))
        assert store.counter_delta("service.jobs.done", 10.0, now=19.0) == 30
        assert store.counter_rate(
            "service.jobs.done", 10.0, now=19.0
        ) == pytest.approx(3.0)

    def test_counter_reset_tolerated(self):
        """A restarted process restarts its counters at zero; the delta
        treats the post-reset value as the whole delta instead of going
        negative."""
        store = TimeSeriesStore(capacity=100)
        store.observe(_snapshot(done=500), now=0.0)
        store.observe(_snapshot(done=7), now=1.0)
        assert store.counter_delta("service.jobs.done", 10.0, now=1.0) == 7

    def test_partial_window_uses_oldest_retained(self):
        store = TimeSeriesStore(capacity=100)
        store.observe(_snapshot(done=10), now=100.0)
        store.observe(_snapshot(done=16), now=101.0)
        # Window asks for 1000s of history; only 1s exists -> partial.
        assert store.counter_delta("service.jobs.done", 1000.0, now=101.0) == 6

    def test_missing_series_is_none(self):
        store = TimeSeriesStore()
        assert store.counter_delta("nope", 60.0) is None
        assert store.quantile("nope", 99.0, 60.0) is None


class TestHistogramMath:
    def test_windowed_p99_reflects_recent_observations_only(self):
        store = TimeSeriesStore(capacity=100)
        store.observe(_snapshot(latencies=[0.05] * 100), now=0.0)
        store.observe(_snapshot(latencies=[0.05] * 100 + [5.0] * 100), now=10.0)
        q = store.quantile("service.job_latency_s", 99.0, 5.0, now=10.0)
        # The 5s observations dominate the recent window even though the
        # cumulative histogram is half fast.
        assert q == pytest.approx(10.0, rel=0.01)

    def test_good_fraction(self):
        store = TimeSeriesStore(capacity=100)
        store.observe(_snapshot(), now=0.0)
        store.observe(_snapshot(latencies=[0.05] * 9 + [5.0]), now=1.0)
        result = store.good_fraction(
            "service.job_latency_s", threshold=1.0, window_s=10.0, now=1.0
        )
        assert result == (pytest.approx(0.9), 10)

    def test_quantile_interpolates_within_bucket(self):
        edges = [0.1, 1.0, 10.0]
        counts = [0, 100, 0, 0]
        assert 0.1 < _quantile_from_counts(edges, counts, 50.0) < 1.0

    def test_overflow_quantile_clamps_to_top_edge(self):
        edges = [0.1, 1.0]
        counts = [0, 0, 10]
        assert _quantile_from_counts(edges, counts, 99.0) == 1.0


class TestSeriesLifecycle:
    def test_kind_change_resets_series(self):
        store = TimeSeriesStore(capacity=10)
        reg = MetricsRegistry()
        reg.counter("x").inc(5)
        store.observe(reg.snapshot(), now=0.0)
        reg2 = MetricsRegistry()
        reg2.gauge("x").set(1.5)
        store.observe(reg2.snapshot(), now=1.0)
        assert store.kind("x") == "gauge"
        assert len(store.samples("x")) == 1

    def test_sparkline_rates(self):
        store = TimeSeriesStore(capacity=100)
        for i in range(5):
            store.observe(_snapshot(done=10 * i), now=float(i))
        points = store.sparkline("service.jobs.done", points=10)
        # done=0 omits the counter on the first scrape; the series is
        # zero-seeded at the prior scrape time when it appears -> 5
        # samples, 4 per-interval rates.
        assert len(points) == 4
        assert all(rate == pytest.approx(10.0) for _, rate in points)


class TestPersistence:
    def test_jsonl_roundtrip_and_torn_tail(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = TimeSeriesStore(capacity=10, persist_path=path)
        for i in range(3):
            store.observe(_snapshot(done=i, latencies=(0.5,)), now=float(i))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # simulated crash mid-append
        rows = read_jsonl(path)
        assert len(rows) == 3
        assert rows[-1]["counters"]["service.jobs.done"] == 2
        hist = rows[-1]["histograms"]["service.job_latency_s"]
        assert hist["total"] == 1 and hist["sum"] == pytest.approx(0.5)

    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = TimeSeriesStore(
            capacity=10, persist_path=path, max_persist_bytes=2000
        )
        for i in range(200):
            store.observe(_snapshot(done=i), now=float(i))
        assert path.stat().st_size <= 2100
        assert (tmp_path / "ts.jsonl.1").exists()

    def test_persist_lines_are_json(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = TimeSeriesStore(persist_path=path)
        store.observe(_snapshot(done=1), now=5.0)
        line = json.loads(path.read_text().splitlines()[0])
        assert line["t"] == 5.0
        assert line["counters"]["service.jobs.done"] == 1
