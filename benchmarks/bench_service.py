#!/usr/bin/env python
"""Job-service benchmark: emits ``BENCH_service.json``.

Measures the service envelope around the synthesis engine, over real
HTTP against an in-process ``serve()`` instance:

- **throughput & latency** — a burst of unique jobs (each a genuine
  MILP solve on a jittered floorplan): jobs/s end to end, p50/p99
  submit-to-done latency, p50/p99 submit-ack round trip;
- **idempotent dedup** — the same burst resubmitted after completion:
  p50/p99 round-trip latency of a cache-warm hit (no queue, no solve);
- **saturation** — a flood of submissions against a tiny admission
  queue: rejection rate, 429 round-trip latency, and proof that the
  server answered every request (no hangs, no 500s).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.obs import atomic_write_text
from repro.service import ServiceConfig, serve

RING = [
    (0.0, 0.0),
    (210.0, 0.0),
    (420.0, 0.0),
    (420.0, 210.0),
    (420.0, 420.0),
    (210.0, 420.0),
    (0.0, 420.0),
    (0.0, 210.0),
]


def job_spec(index: int) -> dict:
    jitter = 0.25 * (index + 1)
    return {
        "positions": [[x + jitter, y + jitter] for x, y in RING],
        "label": f"bench{index}",
    }


class BenchServer:
    """``serve()`` on a daemon thread (mirrors the test harness)."""

    def __init__(self, store_dir: Path, **overrides):
        self.config = ServiceConfig(port=0, store_dir=store_dir, **overrides)
        self.server = None
        self.result = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("bench service did not start")

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def on_ready(server):
            self.server = server
            self._ready.set()

        self.result = await serve(
            self.config, ready_callback=on_ready, stop_event=self._stop
        )

    def stop(self) -> dict:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120)
        return self.result

    @property
    def base(self) -> str:
        host, port = self.server.address
        return f"http://{host}:{port}"

    def post(self, payload: dict) -> tuple[int, dict, float]:
        request = urllib.request.Request(
            self.base + "/jobs",
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
        )
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, json.loads(resp.read()), time.perf_counter() - start
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), time.perf_counter() - start

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.base + path, timeout=60) as resp:
            return json.loads(resp.read())

    def wait_all_terminal(self, job_ids: list[str], timeout: float = 600.0):
        """Poll until every distinct job is done or failed.

        A resubmission returns the existing job's id, so ``job_ids``
        may repeat one; the wait is over the distinct ids.
        """
        pending = list(dict.fromkeys(job_ids))
        statuses = {}
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            for job_id in pending:
                payload = self.get_json(f"/jobs/{job_id}")
                if payload["state"] in ("done", "failed"):
                    statuses[job_id] = payload
            pending = [job_id for job_id in pending if job_id not in statuses]
            if pending:
                time.sleep(0.01)
        if pending:
            raise RuntimeError("benchmark jobs never finished")
        return statuses


def percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def pct(p: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(round(p * (len(ordered) - 1))))
        return ordered[index]

    return {
        "p50_s": round(pct(0.50), 6),
        "p99_s": round(pct(0.99), 6),
        "mean_s": round(statistics.fmean(ordered), 6) if ordered else 0.0,
        "samples": len(ordered),
    }


def bench_throughput(store_root: Path, jobs: int) -> dict:
    """Unique-job burst: throughput plus solve and ack latency."""
    server = BenchServer(store_root / "throughput", queue_limit=max(64, jobs))
    try:
        specs = [job_spec(i) for i in range(jobs)]
        started = time.perf_counter()
        acks = [server.post(spec) for spec in specs]
        assert all(status == 201 for status, _, _ in acks), "admission failed"
        ids = [payload["job_id"] for _, payload, _ in acks]
        finals = server.wait_all_terminal(ids)
        wall = time.perf_counter() - started
        failed = [j for j, p in finals.items() if p["state"] != "done"]
        assert not failed, f"benchmark jobs failed: {failed}"
        job_latency = [
            payload["updated_unix"] - payload["created_unix"]
            for payload in finals.values()
        ]
        ack_latency = [elapsed for _, _, elapsed in acks]

        # Dedup pass against the same live server: every job is warm.
        dedup = [server.post(spec) for spec in specs]
        assert all(status == 200 for status, _, _ in dedup)
        assert all(payload["state"] == "done" for _, payload, _ in dedup)
        dedup_latency = [elapsed for _, _, elapsed in dedup]
        stats = server.get_json("/stats")
    finally:
        drain = server.stop()
    return {
        "jobs": jobs,
        "wall_clock_s": round(wall, 4),
        "throughput_jobs_per_s": round(jobs / wall, 3),
        "job_latency": percentiles(job_latency),
        "submit_ack_latency": percentiles(ack_latency),
        "dedup_hit_latency": percentiles(dedup_latency),
        "solves": stats["solves"],
        "dedup_hits": stats["dedup_hits"],
        "drain_clean": drain["clean"],
    }


def bench_saturation(store_root: Path, flood: int, queue_limit: int) -> dict:
    """Overload: flood a tiny queue, measure the rejection envelope."""
    server = BenchServer(store_root / "saturation", queue_limit=queue_limit)
    try:
        results: list[tuple[int, float]] = []
        lock = threading.Lock()

        def submit(index: int) -> None:
            status, _, elapsed = server.post(job_spec(1000 + index))
            with lock:
                results.append((status, elapsed))

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(flood)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        statuses = [status for status, _ in results]
        rejected = [elapsed for status, elapsed in results if status == 429]
        accepted = statuses.count(201)
        unexpected = [s for s in statuses if s not in (200, 201, 429)]
        assert not unexpected, f"saturation produced {unexpected}"
        stats = server.get_json("/stats")
    finally:
        drain = server.stop()
    return {
        "flood": flood,
        "queue_limit": queue_limit,
        "wall_clock_s": round(wall, 4),
        "accepted": accepted,
        "rejected": len(rejected),
        "rejection_rate": round(len(rejected) / flood, 4),
        "rejection_latency": percentiles(rejected),
        "rejected_queue_full_counter": stats["rejected_queue_full"],
        "drain_clean": drain["clean"],
        "drain_abandoned": drain["abandoned"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller bursts (20 jobs / 40 flood) for CI",
    )
    parser.add_argument(
        "--out",
        default="BENCH_service.json",
        help="output path (default: BENCH_service.json)",
    )
    parser.add_argument(
        "--history-dir",
        default="",
        help="append a kind='bench' run record to the ledger in this "
        "directory (consumed by 'xring regress' / 'xring report')",
    )
    args = parser.parse_args(argv)

    jobs = 20 if args.quick else 60
    flood = 40 if args.quick else 120
    with tempfile.TemporaryDirectory(prefix="xring-bench-service-") as tmp:
        store_root = Path(tmp)
        payload = {
            "benchmark": "repro.service job server",
            "quick": args.quick,
            "environment": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "throughput": bench_throughput(store_root, jobs),
            "saturation": bench_saturation(store_root, flood, queue_limit=4),
        }

    # Atomic write: a killed benchmark never leaves a truncated
    # baseline for later runs to diff against.
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    throughput = payload["throughput"]
    saturation = payload["saturation"]
    if args.history_dir:
        from repro.obs import RunLedger, RunRecord

        record = RunRecord.build(
            "bench",
            "bench_service-quick" if args.quick else "bench_service",
            wall_s=throughput["wall_clock_s"] + saturation["wall_clock_s"],
            extra={
                "throughput_jobs_per_s": throughput["throughput_jobs_per_s"],
                "job_latency_p50_s": throughput["job_latency"]["p50_s"],
                "job_latency_p99_s": throughput["job_latency"]["p99_s"],
                "dedup_hit_latency_p50_s": throughput["dedup_hit_latency"]["p50_s"],
                "rejection_rate": saturation["rejection_rate"],
                "rejection_latency_p99_s": saturation["rejection_latency"]["p99_s"],
            },
        )
        ledger = RunLedger(args.history_dir)
        ledger.append(record)
        print(f"history recorded: {record.run_id} -> {ledger.path}", file=sys.stderr)

    print(f"wrote {args.out}")
    print(
        f"  throughput: {throughput['throughput_jobs_per_s']} jobs/s over "
        f"{throughput['jobs']} jobs | job latency "
        f"p50={throughput['job_latency']['p50_s']}s "
        f"p99={throughput['job_latency']['p99_s']}s | dedup hit "
        f"p50={throughput['dedup_hit_latency']['p50_s']}s"
    )
    print(
        f"  saturation: {saturation['rejected']}/{saturation['flood']} "
        f"rejected (rate={saturation['rejection_rate']}) | 429 latency "
        f"p99={saturation['rejection_latency']['p99_s']}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
