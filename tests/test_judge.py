"""One metric table, two reductions: the diff and the scan agree on
which side of every metric is bad.

A seeded ledger of healthy runs gets one more run with a single metric
moved by a large step.  Moved to its bad side, the metric is flagged by
the robust-z scan and, when the diff gates its category, by the
median-of-k diff too; moved the same step to its good side, it is
flagged by neither.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.obs import RunRecord, compare_runs, mine_ledger
from repro.obs.judge import HIGH, STATUS_INFO, record_metrics

#: Categories the diff gates; the rest it reports as informational.
DIFF_GATED = {"latency", "quality"}


def _base_record() -> RunRecord:
    return RunRecord(
        run_id="",
        kind="synth",
        label="ring16",
        created_at="2026-08-01T00:00:00Z",
        fingerprint="",
        wall_s=2.0,
        stage_latency={"ring": {"count": 1, "p50": 0.5, "p99": 0.8}},
        solver={"bb_nodes": 12},
        supervisor={"retries": 2, "worker_restarts": 1, "circuit_open": False},
        quality={
            "wl_count": 8,
            "il_w": 2.0,
            "worst_length_mm": 12.0,
            "worst_crossings": 3,
            "power_w": 0.4,
            "noisy_signals": 5,
            "snr_worst_db": 20.0,
            "noise_free_fraction": 0.6,
            "signal_count": 56,
        },
    )


def _set_metric(record: RunRecord, name: str, value: float) -> None:
    """Write ``value`` back into the record field ``name`` comes from."""
    parts = name.split(".")
    if name == "wall_s":
        record.wall_s = value
    elif parts[0] == "stage":
        record.stage_latency[parts[1]][parts[2][: -len("_s")]] = value
    else:
        getattr(record, parts[0])[parts[1]] = value


def _healthy_ledger(seed: int = 7, runs: int = 7) -> list[RunRecord]:
    """Runs whose every metric jitters by at most 1% around the base."""
    rng = random.Random(seed)
    base = _base_record()
    records = []
    for i in range(runs):
        record = copy.deepcopy(base)
        record.run_id = f"synth-{i:04d}"
        for name, metric in record_metrics(base).items():
            _set_metric(record, name, metric.value * (1 + rng.uniform(-0.01, 0.01)))
        records.append(record)
    return records


def _moved(name: str, worse: bool) -> RunRecord:
    metric = record_metrics(_base_record())[name]
    step = max(abs(metric.value), 1.0)
    sign = 1 if (metric.bad == HIGH) == worse else -1
    record = copy.deepcopy(_base_record())
    record.run_id = "synth-moved"
    _set_metric(record, name, metric.value + sign * step)
    return record


TABLE = record_metrics(_base_record())


def test_table_covers_every_category():
    assert {metric.category for metric in TABLE.values()} == {
        "latency", "quality", "tail", "counter", "supervisor"
    }
    assert "supervisor.circuit_open" not in TABLE
    assert "quality.signal_count" not in TABLE


@pytest.mark.parametrize("name", sorted(TABLE))
def test_both_reductions_agree_on_the_bad_side(name):
    healthy = _healthy_ledger()
    for worse in (True, False):
        moved = _moved(name, worse)
        diff = compare_runs(healthy, [moved])
        scan = mine_ledger(healthy + [moved])
        diff_flagged = name in {f.metric for f in diff.regressions}
        scan_flagged = ("synth-moved", name) in {
            (f.run_id, f.metric) for f in scan.regressions
        }
        assert scan_flagged == worse, (name, worse)
        if TABLE[name].category in DIFF_GATED:
            assert diff_flagged == worse, (name, worse)
        else:
            finding = next(f for f in diff.findings if f.metric == name)
            assert finding.status == STATUS_INFO
