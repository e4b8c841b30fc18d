"""Distributed trace propagation: context, annotation, stitching.

The acceptance bar for the cross-process tracer: a supervised
``workers=2`` batch yields **one connected trace tree per case and
zero orphaned spans** — including the chaos paths (worker crash retry,
poison-case quarantine), where attempts die mid-flight and their spans
must still stitch as siblings instead of dangling.
"""

from __future__ import annotations

import os

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.obs import (
    TraceContext,
    Tracer,
    current_trace,
    new_request_id,
    new_trace_id,
    parse_traceparent,
    span_records,
    spans_to_chrome,
    stitch_spans,
    use_trace,
)
from repro.parallel import BatchCase, BatchSynthesizer, SupervisorConfig
from repro.robustness import FaultPlan


def _cases(network, tour, count: int) -> list[BatchCase]:
    return [
        BatchCase(
            network=network,
            options=SynthesisOptions(
                ring_method="heuristic", wl_budget=4 + i, label=f"c{i}"
            ),
            label=f"c{i}",
            tour=tour,
        )
        for i in range(count)
    ]


def _fast_config(**overrides) -> SupervisorConfig:
    settings = dict(
        max_attempts=3,
        backoff_base_s=0.001,
        backoff_cap_s=0.01,
        poll_interval_s=0.02,
    )
    settings.update(overrides)
    return SupervisorConfig(**settings)


def _tree_check(records: list[dict]) -> dict:
    """Stitch and assert the no-dangling-parent invariant."""
    stitched = stitch_spans(records)
    assert stitched["orphans"] == []
    assert stitched["span_count"] == len(records)
    return stitched


# ---------------------------------------------------------------------------
# unit layer: context, ids, traceparent
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_ids_are_fresh_and_well_formed(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32 and int(a, 16) >= 0
        rid = new_request_id()
        assert rid.startswith("req-") and len(rid) == 16

    def test_child_replaces_parent_and_keeps_trace(self):
        ctx = TraceContext.new(prefix="root")
        child = ctx.child("sup1:c0.a1", prefix="c0.a1")
        assert child.trace_id == ctx.trace_id
        assert child.parent_uid == "sup1:c0.a1"
        assert child.prefix == "c0.a1"
        # prefix falls back to the parent's when not given
        assert ctx.child("x").prefix == "root"

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new()
        parsed = parse_traceparent(ctx.traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.parent_uid is None  # no parent -> all-zero span id
        with_parent = ctx.child("job:abc")
        parsed = parse_traceparent(with_parent.traceparent())
        assert parsed.parent_uid is not None
        assert parsed.parent_uid.startswith("w3c:")

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "garbage",
            "00-short-0000000000000000-01",
            "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        ],
    )
    def test_malformed_traceparent_is_none(self, header):
        assert parse_traceparent(header) is None

    def test_ambient_context_nests_and_restores(self):
        assert current_trace() is None
        outer = TraceContext.new()
        with use_trace(outer):
            assert current_trace() is outer
            inner = outer.child("p:1")
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None


class TestAnnotateAndStitch:
    def _tracer(self):
        # one local tracer: root (id 1) with one child (id 2)
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        return tracer

    def _records(self):
        return [span.to_dict() for span in self._tracer().finished_spans()]

    def test_annotate_stamps_identity(self):
        ctx = TraceContext(trace_id="f" * 32, parent_uid="up:9", prefix="w1")
        tracer = self._tracer()
        tracer.epoch_unix = 100.0
        leaf, root = span_records(tracer, ctx, case="c0")
        assert root["span_uid"] == "w1:1" and leaf["span_uid"] == "w1:2"
        assert root["parent_uid"] == "up:9"  # local root -> ctx parent
        assert leaf["parent_uid"] == "w1:1"  # local child -> local parent
        assert all(
            r["trace_id"] == "f" * 32 and r["pid"] == os.getpid()
            and r["case"] == "c0"
            for r in (root, leaf)
        )
        assert leaf["start_unix"] == pytest.approx(100.0 + leaf["start_s"])

    def test_stitch_detects_orphans(self):
        ctx = TraceContext(trace_id="a" * 32, parent_uid="gone:1", prefix="x")
        stitched = stitch_spans(span_records(self._tracer(), ctx))
        # the root's parent names a span not in the set -> broken stitch
        assert stitched["orphans"] == ["x:1"]
        assert stitched["trace_id"] == "a" * 32

    def test_w3c_parent_is_not_an_orphan(self):
        ctx = TraceContext(trace_id="a" * 32, parent_uid="w3c:" + "b" * 16)
        stitched = stitch_spans(span_records(self._tracer(), ctx))
        assert stitched["orphans"] == []
        assert stitched["roots"] == []  # parented upstream, not a root

    def test_unannotated_records_stitch_via_local_ids(self):
        # trace files written before records were annotated
        stitched = stitch_spans(self._records())
        assert stitched["orphans"] == []
        assert stitched["roots"] == ["?1"]

    def test_chrome_export_labels_pid_rows(self):
        records = span_records(self._tracer())
        for record in records:
            record["pid"] = 7
        records.append(
            {
                "name": "batch.attempt",
                "span_id": -1,
                "parent_id": None,
                "pid": 3,
                "span_uid": "sup3:c0.a1",
                "parent_uid": None,
                "start_unix": min(r["start_unix"] for r in records) - 0.5,
                "duration_s": 1.0,
            }
        )
        chrome = spans_to_chrome(records)
        meta = {
            e["pid"]: e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta == {3: "supervisor pid 3", 7: "worker pid 7"}
        # timestamps align on the earliest wall-clock anchor
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0


# ---------------------------------------------------------------------------
# cross-process layer: the supervised pool stitches per-case trees
# ---------------------------------------------------------------------------
class TestWorkerStitching:
    def test_workers2_batch_yields_connected_trees(self, network8, tour8):
        """Acceptance: 4 cases across 2 workers -> per-case trees all
        hang off per-attempt roots, zero orphans, >= 2 distinct pids."""
        report = BatchSynthesizer(
            workers=2, collect_spans=True, config=_fast_config()
        ).run(_cases(network8, tour8, 4))
        assert report.ok
        stitched = _tree_check(report.span_records)
        # one batch.attempt root per case (fresh trace -> parent None)
        roots = set(stitched["roots"])
        attempts = {
            r["span_uid"]
            for r in report.span_records
            if r["name"] == "batch.attempt"
        }
        assert roots == attempts and len(roots) == 4
        pids = {r["pid"] for r in report.span_records}
        assert len(pids) >= 2  # supervisor + at least one worker
        # every worker-side case tree is parented to its attempt span
        for record in report.span_records:
            if record["name"] == "synthesize":
                assert record["parent_uid"] in attempts

    def test_external_context_becomes_the_single_root(self, network8, tour8):
        ctx = TraceContext(trace_id="c" * 32, parent_uid=None, prefix="req")
        with use_trace(ctx):
            report = BatchSynthesizer(
                workers=1, collect_spans=True, config=_fast_config()
            ).run(_cases(network8, tour8, 2))
        assert report.ok
        stitched = _tree_check(report.span_records)
        assert stitched["trace_id"] == "c" * 32

    def test_crash_retry_spans_stitch_as_siblings(self, network8, tour8):
        """A crashed first attempt loses its worker-side spans, but the
        supervisor's attempt records keep the tree connected and the
        retry's spans land under a *distinct* a2 root."""
        plan = FaultPlan().worker_crash("c1")
        report = BatchSynthesizer(
            workers=2,
            collect_spans=True,
            config=_fast_config(),
            fault_plan=plan,
        ).run(_cases(network8, tour8, 4))
        assert report.ok and plan.exhausted
        assert report.results[1].attempts == 2
        stitched = _tree_check(report.span_records)
        c1_attempts = {
            r["span_uid"]
            for r in report.span_records
            if r["name"] == "batch.attempt" and ":c1.a" in r["span_uid"]
        }
        assert len(c1_attempts) == 2  # a1 (crashed) and a2 (succeeded)
        assert c1_attempts <= set(stitched["roots"])

    def test_quarantined_case_still_stitches(self, network8, tour8):
        """Every failed attempt of a poison case leaves an attempt span;
        the trace stays connected even though the case never succeeds."""
        plan = (
            FaultPlan()
            .worker_crash("c1", attempt=1)
            .worker_crash("c1", attempt=2)
            .worker_crash("c1", attempt=3)
        )
        report = BatchSynthesizer(
            workers=2,
            collect_spans=True,
            config=_fast_config(max_attempts=3),
            fault_plan=plan,
        ).run(_cases(network8, tour8, 3))
        assert not report.ok
        assert [r.label for r in report.quarantined] == ["c1"]
        stitched = _tree_check(report.span_records)
        c1_attempts = [
            r
            for r in report.span_records
            if r["name"] == "batch.attempt" and ":c1.a" in r["span_uid"]
        ]
        assert len(c1_attempts) == 3
        assert all(r["attributes"]["outcome"] != "ok" for r in c1_attempts)
        # the healthy cases' full trees are present alongside
        assert any(r["name"] == "synthesize" for r in stitched["spans"])
