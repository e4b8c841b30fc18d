"""``benchmarks/bench_service.py``: the terminal-state wait.

A resubmitted job spec returns the existing job's id, so the id list
the benchmark waits on can repeat an id; the wait must finish once
every *distinct* job is terminal instead of timing out.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest


def _bench_module():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_service.py"
    spec = importlib.util.spec_from_file_location("bench_service", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_server(states: dict[str, list[str]]):
    """A BenchServer whose ``get_json`` replays scripted job states
    (the last state repeats) instead of talking HTTP."""
    bench = _bench_module()
    server = bench.BenchServer.__new__(bench.BenchServer)
    polls: list[str] = []

    def get_json(path: str) -> dict:
        job_id = path.rsplit("/", 1)[-1]
        polls.append(job_id)
        script = states[job_id]
        state = script.pop(0) if len(script) > 1 else script[0]
        return {"job_id": job_id, "state": state}

    server.get_json = get_json
    return server, polls


def test_duplicate_ids_finish_once_each_distinct_job_is_terminal():
    server, polls = _stub_server(
        {"a": ["queued", "running", "done"], "b": ["running", "failed"]}
    )
    statuses = server.wait_all_terminal(["a", "b", "a"], timeout=5.0)
    assert {job_id: p["state"] for job_id, p in statuses.items()} == {
        "a": "done",
        "b": "failed",
    }
    # Terminal jobs are not polled again.
    assert polls.count("a") == 3 and polls.count("b") == 2


def test_unfinished_job_still_times_out():
    server, _ = _stub_server({"a": ["done"], "b": ["running"]})
    with pytest.raises(RuntimeError, match="never finished"):
        server.wait_all_terminal(["a", "b"], timeout=0.05)
