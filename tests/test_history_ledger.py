"""Tests for the cross-run history ledger (repro.obs.history).

The ledger is the substrate ``xring regress`` / ``xring report`` stand
on, so these tests pin down its contract: content fingerprints are
timestamp-free (identical runs share them), every append lands as one
complete JSON object per line, and run-id lookup accepts unique
prefixes but rejects ambiguous ones.  Torn-tail and interior-corruption
handling is shared with the other JSONL logs and tested once for all
of them in ``tests/test_store_durability.py``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core import SynthesisOptions
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    RunLedger,
    RunRecord,
    environment_fingerprint,
    options_fingerprint,
    quality_from_evaluation,
    stage_latency_from_elapsed,
)
from repro.obs.history import (
    LEDGER_VERSION,
    RUN_KINDS,
    json_safe,
    stage_latency_from_snapshot,
)


def _registry() -> MetricsRegistry:
    """A registry shaped like a real synthesis run's."""
    reg = MetricsRegistry()
    reg.counter("milp.bb.nodes").inc(7)
    for elapsed in (0.01, 0.02, 0.03):
        reg.histogram("stage.ring.latency_s", LATENCY_BUCKETS).observe(elapsed)
    reg.gauge("deadline.ring.elapsed_s").set(0.03)
    return reg


def _record(label: str = "r", wall_s: float = 1.0, **extra) -> RunRecord:
    return RunRecord.build(
        "synth",
        label,
        metrics=_registry().snapshot(),
        wall_s=wall_s,
        extra=extra or None,
    )


class TestRunRecord:
    def test_build_derives_stages_counters_and_env(self):
        record = _record()
        assert record.kind == "synth"
        assert record.solver == {"bb_nodes": 7}
        assert record.env == environment_fingerprint()
        ring = record.stage_latency["ring"]
        assert ring["count"] == 3
        assert ring["p50"] <= ring["p90"] <= ring["p99"] <= ring["max"]
        assert record.version == LEDGER_VERSION

    def test_fingerprint_is_content_based_not_time_based(self):
        a, b = _record(), _record()
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != _record(wall_s=2.0).fingerprint
        assert a.run_id.startswith("synth-")
        assert a.run_id.endswith(a.fingerprint[:10])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunRecord.build("nonsense", "x")
        for kind in RUN_KINDS:
            RunRecord.build(kind, "x")  # all declared kinds accepted

    def test_round_trips_through_dict(self):
        record = _record(note="hello")
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.to_dict() == record.to_dict()

    def test_deadline_gauges_are_the_fallback(self):
        reg = MetricsRegistry()
        reg.gauge("deadline.ring.elapsed_s").set(0.5)
        stages = stage_latency_from_snapshot(reg.snapshot())
        assert stages == {
            "ring": {
                "count": 1,
                "mean": 0.5,
                "p50": 0.5,
                "p90": 0.5,
                "p99": 0.5,
                "max": 0.5,
                "sum": 0.5,
            }
        }

    def test_stage_latency_from_elapsed(self):
        stages = stage_latency_from_elapsed({"ring": 1.5})
        assert stages["ring"]["count"] == 1
        assert stages["ring"]["p99"] == 1.5

    def test_json_safe_strips_nonfinite(self):
        assert json_safe({"a": math.nan, "b": (1, math.inf)}) == {
            "a": None,
            "b": [1, None],
        }


class TestOptionsFingerprint:
    def test_stable_and_sensitive(self):
        a = SynthesisOptions(wl_budget=8)
        b = SynthesisOptions(wl_budget=8)
        c = SynthesisOptions(wl_budget=9)
        assert options_fingerprint(a) == options_fingerprint(b)
        assert options_fingerprint(a) != options_fingerprint(c)
        assert options_fingerprint(None) == ""

    def test_dicts_supported(self):
        assert options_fingerprint({"x": 1}) == options_fingerprint({"x": 1})


class TestRunLedger:
    def test_append_and_query(self, tmp_path):
        ledger = RunLedger(tmp_path / "hist")
        first = ledger.append(_record("a"))
        ledger.append(_record("b", wall_s=2.0))
        assert [r.label for r in ledger.entries()] == ["a", "b"]
        assert [r.label for r in ledger.entries(label="b")] == ["b"]
        assert [r.label for r in ledger.last(1)] == ["b"]
        assert ledger.entries(kind="bench") == []
        got = ledger.get(first.run_id)
        assert got is not None and got.fingerprint == first.fingerprint

    def test_get_accepts_unique_prefix_rejects_ambiguous(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append(_record("a"))
        ledger.append(_record("b", wall_s=2.0))
        assert ledger.get(first.run_id[:-1]).run_id == first.run_id
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.get("synth-")
        assert ledger.get("no-such-run") is None

    def test_missing_ledger_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").entries() == []

    def test_appends_survive_as_one_object_per_line(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_record(f"r{i}", wall_s=float(i + 1)))
        lines = ledger.path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


class TestQualityExtraction:
    def test_quality_from_evaluation(self, network8):
        from repro.analysis import evaluate_circuit
        from repro.core import XRingSynthesizer
        from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES

        design = XRingSynthesizer(
            network8, SynthesisOptions(ring_method="heuristic")
        ).run()
        circuit = design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK)
        evaluation = evaluate_circuit(circuit, ORING_LOSSES, NIKDAST_CROSSTALK)
        quality = quality_from_evaluation(evaluation)
        assert quality["wl_count"] == evaluation.wl_count
        assert quality["il_w"] == pytest.approx(evaluation.il_w)
        assert 0.0 <= quality["noise_free_fraction"] <= 1.0
        json.dumps(quality)  # fully JSON-safe
