"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest -q xringbench/test_xringbench.py
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Spans, busy, percentile, tail  # noqa: E402
from inputs import primed_specs, service_plan, service_spec  # noqa: E402
from service import wait_terminal  # noqa: E402
from workloads import Window, add_cache, cache_layers  # noqa: E402


def _fetcher(states):
    calls = []

    async def fetch():
        calls.append(1)
        return {job: {"job_id": job, "state": state} for job, state in states.items()}

    return fetch, calls


def test_wait_terminal_with_repeated_ids_returns_once_distinct_ids_finish():
    # A dedup resubmission returns its original's id, so ids repeat.
    fetch, calls = _fetcher({"a": "done", "b": "failed"})
    result = asyncio.run(wait_terminal(fetch, ["a", "a", "b", "a"], timeout=5.0))
    assert set(result) == {"a", "b"}
    assert len(calls) == 1


def test_wait_terminal_times_out_on_a_job_that_never_finishes():
    fetch, _ = _fetcher({"a": "done", "b": "running"})
    with pytest.raises(TimeoutError):
        asyncio.run(wait_terminal(fetch, ["a", "b"], timeout=0.05, poll_s=0.01))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 201)]
    value, pct, n = tail(values)
    assert (value, pct, n) == (190.0, 95.0, 200)
    assert sum(v > value for v in values) == 10


def test_tail_never_falls_below_p90():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = tail([float(i) for i in range(1, 21)])
    assert (value, pct, n) == (18.0, 90.0, 20)
    assert tail([]) == (0.0, 100.0, 0)


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 90.0) == 5.0
    assert percentile([float(i) for i in range(1, 11)], 90.0) == 9.0
    assert percentile([], 90.0) == 0.0


def test_cache_rates_sum_hits_and_misses_over_every_request():
    # Each batch reports its own counts (the caches are cleared between
    # batches); the rate is over the sums, not the last batch's.
    window = Window()
    add_cache(window, {"tours": {"hits": 3, "misses": 1}, "conflicts": {"hits": 0, "misses": 2}})
    add_cache(window, {"tours": {"hits": 1, "misses": 3}})
    rates = cache_layers(window)
    assert rates["cache.tours.hit_rate"] == 0.5
    assert rates["cache.conflicts.hit_rate"] == 0.0
    assert rates["cache.models.hit_rate"] == 0.0


def test_inputs_depend_on_the_seed_alone():
    assert service_plan(7, 3.0, "u") == service_plan(7, 3.0, "u")
    assert service_plan(7, 3.0, "u") != service_plan(8, 3.0, "u")
    assert service_spec(7, "primed", 0) == primed_specs(7, 3.0)[0]


def test_service_plan_rotates_unique_dedup_and_l2_requests():
    plan = service_plan(1, 3.0, "u")
    assert [kind for kind, _ in plan[:6]] == ["unique", "dedup", "l2"] * 2
    uniques = [spec for kind, spec in plan if kind == "unique"]
    for kind, spec in plan:
        if kind == "dedup":
            assert spec in uniques
    primed = primed_specs(1, 3.0)
    assert all(spec in primed for kind, spec in plan if kind == "l2")


def test_spans_record_parents_and_busy_counts_nested_names_once():
    spans = Spans()

    def inner():
        return 1

    inner_w = spans.wrap("work", inner)
    outer_w = spans.wrap("work", lambda: inner_w() + 1)
    assert outer_w() == 2
    records = spans.collect()
    by_start = sorted(records, key=lambda s: s["start"])
    assert by_start[0]["parent"] is None
    assert by_start[1]["parent"] == by_start[0]["id"]
    assert busy(records, "work") == pytest.approx(by_start[0]["end"] - by_start[0]["start"])


def _call(fn):
    fn()


def test_spans_from_a_forked_worker_reach_the_parent(tmp_path):
    spans = Spans(sink_dir=tmp_path)
    wrapped = spans.wrap("child", lambda: None)
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_call, args=(wrapped,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    records = spans.collect()
    assert [s["name"] for s in records] == ["child"]
    assert records[0]["pid"] != spans._owner
