"""Tests for the observability layer (repro.obs) and its wiring.

Covers the tracer (nesting, thread-safety, span-record and Chrome
export round-trip),
the metrics registry (bucket edges, overflow-free counter merges), the
ambient context, run artifacts, logging setup, the synthesizer
integration (span tree over all four stages, solver counters in the
report), and the null-tracer overhead regression bound.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time

import pytest

from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.network import Network
from repro.network.placement import psion_placement
from repro.obs import (
    DEFAULT_BUCKETS,
    LOG_LEVELS,
    NULL_METRICS,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    ObsContext,
    RunArtifacts,
    Tracer,
    configure_logging,
    get_logger,
    get_obs,
    span_records,
    spans_to_chrome,
    use_obs,
)


def _network(num_nodes: int = 8) -> Network:
    points, die = psion_placement(num_nodes)
    return Network.from_positions(points, die=die)


# -- tracer ------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == root.span_id
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(ids) == len(set(ids)) == 4

    def test_span_measures_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            time.sleep(0.01)
            span.set_attribute("result", "ok")
        assert span.duration_s >= 0.01
        assert span.attributes == {"size": 3, "result": "ok"}

    def test_exception_is_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert "nope" in span.attributes["error"]
        assert span.end_s is not None

    def test_thread_safety_independent_subtrees(self):
        tracer = Tracer()
        errors: list[Exception] = []

        def worker(tag: str) -> None:
            try:
                for _ in range(50):
                    with tracer.span(f"outer-{tag}") as outer:
                        with tracer.span(f"inner-{tag}") as inner:
                            assert inner.parent_id == outer.span_id
                        assert outer.parent_id is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(str(i),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.finished_spans()
        assert len(spans) == 4 * 50 * 2
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        # Each inner span's parent lives on the same thread.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].thread_id == span.thread_id

    def test_chrome_export_round_trip(self):
        tracer = Tracer()
        with tracer.span("stage", k=1):
            with tracer.span("sub"):
                pass
        payload = json.loads(json.dumps(spans_to_chrome(span_records(tracer))))
        assert payload["displayTimeUnit"] == "ms"
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["sub", "stage"]
        for event in events:
            assert event["ts"] >= 0 and event["dur"] >= 0
        stage = events[1]
        assert stage["args"]["k"] == 1
        assert events[0]["args"]["parent_uid"] == stage["args"]["span_uid"]

    def test_jsonl_export_one_object_per_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        RunArtifacts(tmp_path).write(spans=span_records(tracer))
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["a", "b"]
        # two roots of one fresh trace, each with a wall-clock anchor
        assert len({r["trace_id"] for r in records}) == 1
        assert [r["parent_uid"] for r in records] == [None, None]
        assert all(r["start_unix"] >= tracer.epoch_unix for r in records)

    def test_null_tracer_is_cheap_but_times(self):
        span_cm = NULL_TRACER.span("anything", attr=1)
        with span_cm as span:
            time.sleep(0.005)
        assert span.duration_s >= 0.005
        assert NULL_TRACER.finished_spans() == []
        assert span_records(NULL_TRACER) == []
        assert not NullTracer.enabled


# -- metrics -----------------------------------------------------------------
class TestMetrics:
    def test_histogram_bucket_edges(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 4.0, 10.0, 11.0, 1e9):
            hist.observe(value)
        # value <= edge lands in that bucket; beyond the last edge is
        # the implicit overflow bucket.
        assert hist.counts == [2, 1, 1, 2]
        assert hist.total == 6
        assert hist.min == 0.5 and hist.max == 1e9
        data = hist.to_dict()
        assert data["buckets"] == [1.0, 5.0, 10.0]
        assert data["p50"] <= data["p90"] <= data["p99"]

    def test_histogram_percentiles_bounded_by_observations(self):
        hist = Histogram("h", buckets=DEFAULT_BUCKETS)
        for value in (3, 3, 4, 7, 9):
            hist.observe(value)
        for q in (0, 25, 50, 90, 99, 100):
            assert 3 <= hist.percentile(q) <= 9
        assert math.isnan(Histogram("empty").percentile(50))

    def test_counter_merge_is_overflow_free(self):
        # Values far beyond 64-bit range must merge exactly.
        big = 2**70
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(big)
        b.counter("n").inc(big)
        b.counter("n").inc(3)
        a.merge(b)
        assert a.counter("n").value == 2 * big + 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        a.merge(b)
        assert a.gauge("g").value == 2.0  # last write wins
        assert a.histogram("h").counts == [1, 1, 0]
        assert a.histogram("h").total == 2

    def test_merge_mismatched_buckets_keeps_totals(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(10.0, 20.0)).observe(12.0)
        b.histogram("h").observe(18.0)
        a.merge(b)
        assert a.histogram("h").total == 3

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(1)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["total"] == 1
        json.loads(reg.to_json())  # valid JSON

    def test_null_metrics_ignores_everything(self):
        NULL_METRICS.counter("c").inc(5)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not NULL_METRICS.enabled


# -- ambient context ---------------------------------------------------------
class TestContext:
    def test_default_is_null(self):
        ctx = get_obs()
        assert not ctx.tracer.enabled
        assert not ctx.metrics.enabled

    def test_use_obs_nests_and_restores(self):
        outer = ObsContext(tracer=Tracer(), metrics=MetricsRegistry())
        inner = ObsContext(tracer=Tracer(), metrics=MetricsRegistry())
        with use_obs(outer):
            assert get_obs() is outer
            with use_obs(inner):
                assert get_obs() is inner
            assert get_obs() is outer
        assert not get_obs().tracer.enabled


# -- artifacts + logging -----------------------------------------------------
class TestArtifactsAndLogging:
    def test_run_artifacts_writes_bundle(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        reg = MetricsRegistry()
        reg.counter("c").inc()
        records = span_records(tracer)
        paths = RunArtifacts(tmp_path / "run").write(spans=records, metrics=reg)
        names = sorted(p.name for p in paths)
        assert names == ["metrics.json", "metrics.om", "trace.json", "trace.jsonl"]
        chrome = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert chrome["traceEvents"][0]["name"] == "x"
        lines = (tmp_path / "run" / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == records
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["counters"] == {"c": 1}
        exposition = (tmp_path / "run" / "metrics.om").read_text()
        assert "xring_c_total 1" in exposition
        assert exposition.endswith("# EOF\n")

    def test_run_artifacts_writes_report(self, tmp_path):
        design = XRingSynthesizer(_network(), SynthesisOptions()).run()
        (path,) = RunArtifacts(tmp_path).write(report=design.report)
        payload = json.loads(path.read_text())
        assert [s["name"] for s in payload["stages"]] == [
            "ring", "shortcuts", "mapping", "pdn", "validate",
        ]
        assert "metrics" in payload and "stage_elapsed_s" in payload

    def test_configure_logging_idempotent_and_validating(self):
        root = configure_logging("INFO")
        handlers = list(root.handlers)
        assert configure_logging("DEBUG").handlers == handlers
        assert root.level == logging.DEBUG
        with pytest.raises(ValueError):
            configure_logging("NOISY")
        assert "WARNING" in LOG_LEVELS
        configure_logging("WARNING")

    def test_get_logger_hierarchy(self):
        assert get_logger("synthesizer").name == "repro.synthesizer"


# -- synthesizer integration -------------------------------------------------
class TestSynthesizerIntegration:
    def test_span_tree_covers_all_four_stages(self):
        tracer = Tracer()
        design = XRingSynthesizer(
            _network(), SynthesisOptions(), tracer=tracer
        ).run()
        spans = tracer.finished_spans()
        names = {s.name for s in spans}
        assert {
            "synthesize",
            "stage.ring",
            "stage.shortcuts",
            "stage.mapping",
            "stage.pdn",
            "stage.validate",
        } <= names
        root = next(s for s in spans if s.name == "synthesize")
        stage_spans = [s for s in spans if s.name.startswith("stage.")]
        assert all(s.parent_id == root.span_id for s in stage_spans)
        assert design.synthesis_time_s == pytest.approx(root.duration_s)
        # Stage records reference their spans.
        by_id = {s.span_id: s for s in spans}
        for record in design.report.stages:
            assert by_id[record.span_id].name == f"stage.{record.name}"

    @pytest.mark.parametrize(
        "fault_plan",
        [
            None,
            "shortcuts-error+mapping-corrupt",
            "pdn-error",
        ],
    )
    def test_every_stage_span_carries_its_record_status(self, fault_plan):
        from repro.robustness import FaultPlan

        plans = {
            None: FaultPlan(),
            "shortcuts-error+mapping-corrupt": FaultPlan()
            .error("shortcuts")
            .corrupt("mapping", "drop_assignment"),
            "pdn-error": FaultPlan().error("pdn"),
        }
        tracer = Tracer()
        design = XRingSynthesizer(
            _network(), SynthesisOptions(), tracer=tracer,
            fault_plan=plans[fault_plan],
        ).run()
        by_id = {s.span_id: s for s in tracer.finished_spans()}
        records = design.report.stages
        assert [r.name for r in records] == [
            "ring", "shortcuts", "mapping", "pdn", "validate",
        ]
        for record in records:
            span = by_id[record.span_id]
            assert span.attributes["status"] == record.status, record.name
        if fault_plan is not None:
            assert design.report.degraded

    def test_a_stage_that_raises_is_traced_as_failed(self):
        from repro.robustness import FaultInjected, FaultPlan

        tracer = Tracer()
        synthesizer = XRingSynthesizer(
            _network(), SynthesisOptions(on_error="raise"), tracer=tracer,
            fault_plan=FaultPlan().error("mapping"),
        )
        with pytest.raises(FaultInjected):
            synthesizer.run()
        status = {
            s.name: s.attributes.get("status") for s in tracer.finished_spans()
        }
        assert status["stage.ring"] == "ok"
        assert status["stage.mapping"] == "failed"
        assert "stage.pdn" not in status

    def test_report_carries_solver_counters(self):
        design = XRingSynthesizer(_network(), SynthesisOptions()).run()
        report = design.report
        assert report.counter("milp.bb.nodes") > 0
        assert report.counter("milp.solves.optimal") >= 1
        assert report.metrics["gauges"]["deadline.ring.elapsed_s"] > 0
        assert set(report.stage_elapsed_s) == {
            "ring", "shortcuts", "mapping", "pdn", "validate",
        }

    def test_per_run_registry_merges_into_ambient(self):
        ambient = MetricsRegistry()
        with use_obs(ObsContext(tracer=NULL_TRACER, metrics=ambient)):
            for _ in range(2):
                XRingSynthesizer(_network(), SynthesisOptions()).run()
        assert ambient.counter("milp.solves.optimal").value >= 2

    def test_degradation_logs_warning_with_span_id(self, caplog):
        from repro.robustness import FaultPlan

        plan = FaultPlan().error("shortcuts", "injected")
        # configure_logging turns off propagation (own stderr handler);
        # caplog listens on the root logger, so re-enable it here.
        repro_logger = logging.getLogger("repro")
        old_propagate = repro_logger.propagate
        repro_logger.propagate = True
        try:
            with caplog.at_level(logging.WARNING, logger="repro.synthesizer"):
                design = XRingSynthesizer(
                    _network(), SynthesisOptions(), fault_plan=plan
                ).run()
        finally:
            repro_logger.propagate = old_propagate
        assert design.report.stage("shortcuts").fallback == "no_shortcuts"
        messages = [r.getMessage() for r in caplog.records]
        assert any("shortcut" in m and "span_id" in m for m in messages)

    def test_null_tracer_overhead_under_five_percent(self):
        # min-of-reps timing of the identical workload with tracing off
        # (ambient null) and on; the bound has a small absolute slack
        # so scheduler noise on a ~100 ms workload cannot flake it.
        network = _network()
        options = SynthesisOptions()

        def once(tracer) -> float:
            start = time.perf_counter()
            XRingSynthesizer(network, options, tracer=tracer).run()
            return time.perf_counter() - start

        once(NULL_TRACER)  # warm caches before timing
        disabled = min(once(NULL_TRACER) for _ in range(3))
        enabled = min(once(Tracer()) for _ in range(3))
        assert abs(enabled - disabled) <= 0.05 * disabled + 0.010


# -- CLI wiring --------------------------------------------------------------
class TestCliArtifacts:
    def test_synth_trace_dir_produces_loadable_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run"
        code = main(
            [
                "synth",
                "--nodes",
                "8",
                "--trace-dir",
                str(out),
                "--metrics",
            ]
        )
        assert code == 0
        chrome = json.loads((out / "trace.json").read_text())
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {
            "synthesize",
            "stage.ring",
            "stage.shortcuts",
            "stage.mapping",
            "stage.pdn",
        } <= names
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["counters"]["milp.bb.nodes"] > 0
        assert metrics["counters"]["milp.solves.optimal"] >= 1
        report = json.loads((out / "report.json").read_text())
        assert report["stages"][0]["span_id"] is not None
        assert (out / "trace.jsonl").read_text().strip()
        assert (out / "metrics.om").read_text().endswith("# EOF\n")


# -- histogram edge cases ----------------------------------------------------
class TestHistogramEdgeCases:
    def test_empty_histogram_percentiles(self):
        empty = Histogram("empty", buckets=(1.0, 2.0))
        for q in (0, 50, 100):
            assert math.isnan(empty.percentile(q))
        data = empty.to_dict()
        assert data["p50"] is None and data["p99"] is None
        assert data["min"] is None and data["mean"] is None
        with pytest.raises(ValueError):
            empty.percentile(101)

    def test_single_sample_interpolation_collapses_to_the_sample(self):
        hist = Histogram("one", buckets=(1.0, 10.0, 100.0))
        hist.observe(7.0)
        # With one observation every percentile must equal it exactly —
        # the in-bucket interpolation is clamped to [min, max].
        for q in (0, 1, 50, 90, 99, 100):
            assert hist.percentile(q) == 7.0

    def test_merge_snapshot_with_only_overflow_counts(self):
        # Matching edges: the overflow bucket must transfer exactly.
        target = MetricsRegistry()
        target.histogram("h", (1.0, 2.0))
        source = MetricsRegistry()
        source.histogram("h", (1.0, 2.0)).observe(50.0)
        source.histogram("h").observe(99.0)
        snap = source.snapshot()
        assert snap["histograms"]["h"]["counts"] == [0, 0, 2]
        target.merge_snapshot(snap)
        merged = target.histogram("h")
        assert merged.counts == [0, 0, 2]
        assert merged.total == 2
        assert merged.max == 99.0
        assert merged.percentile(99) == 99.0

    def test_merge_snapshot_overflow_only_with_mismatched_edges(self):
        # Mismatched edges degrade to re-observing the mean per count;
        # totals and sums stay consistent even when every incoming
        # sample sat in the overflow bucket.
        target = MetricsRegistry()
        target.histogram("h", (1.0,)).observe(0.5)
        source = MetricsRegistry()
        source.histogram("h", (10.0, 20.0)).observe(50.0)
        source.histogram("h").observe(70.0)
        target.merge_snapshot(source.snapshot())
        merged = target.histogram("h")
        assert merged.total == 3
        assert merged.sum == pytest.approx(0.5 + 60.0 * 2)
        assert merged.buckets == (1.0,)  # the target's edges win


# -- chrome export round-trip ------------------------------------------------
class TestChromeExportConsistency:
    def test_export_is_valid_json_with_consistent_ts_dur(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                time.sleep(0.002)
            with tracer.span("child_b"):
                pass
        records = span_records(tracer)
        text = json.dumps(spans_to_chrome(records))
        payload = json.loads(text)  # valid JSON round-trip
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 3
        spans = {r["span_uid"]: s for r, s in zip(records, tracer.finished_spans())}
        t0 = min(s.start_s for s in spans.values())
        for event in events:
            span = spans[event["args"]["span_uid"]]
            # ts/dur are the span's start (from the earliest) and
            # duration in microseconds; ts goes through the wall-clock
            # anchor, whose float resolution is ~0.25 us.
            assert event["ts"] == pytest.approx((span.start_s - t0) * 1e6, abs=1.0)
            assert event["dur"] == pytest.approx(span.duration_s * 1e6)
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_children_nest_within_their_parent_interval(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                time.sleep(0.001)
        chrome = spans_to_chrome(span_records(tracer))
        events = {e["name"]: e for e in chrome["traceEvents"] if e["ph"] == "X"}
        root, child = events["root"], events["child"]
        assert child["args"]["parent_uid"] == root["args"]["span_uid"]
        assert root["ts"] <= child["ts"]
        # 1 us slack: ts goes through the ~0.25 us wall-clock anchor
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
        # Monotonic consistency: a span never ends before it starts.
        for event in events.values():
            assert event["dur"] >= 0
