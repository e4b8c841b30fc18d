"""CLI surface of the observability PR: ``xring trace``,
``--profile-dir`` and the one span-record schema.

One real heuristic synth produces the artifacts; the ``trace``
subcommand then reads them back.  One ``batch --trace-dir`` run checks
that the cross-process ``trace.jsonl`` written by the batch engine is
what lands on disk (not the parent tracer's near-empty spans) and that
each artifact is written once.  ``synth``, ``batch`` and a service
job's ``GET /jobs/{id}/trace`` all yield the same span-record keys.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from repro.cli import main
from repro.obs import stitch_spans

SYNTH = ["synth", "--nodes", "8", "--ring-method", "heuristic"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One synth run with both --trace-dir and --profile-dir."""
    root = tmp_path_factory.mktemp("cli_obs")
    rc = main(
        SYNTH
        + [
            "--trace-dir",
            str(root / "trace"),
            "--profile-dir",
            str(root / "prof"),
        ]
    )
    assert rc == 0
    return root


class TestProfileDir:
    def test_profile_artifacts_written(self, artifacts):
        prof = artifacts / "prof"
        assert (prof / "profile.collapsed").exists()
        assert (prof / "profile.speedscope.json").exists()
        summary = json.loads((prof / "profile.json").read_text())
        assert summary["samples"] > 0
        assert summary["stages"]

    def test_report_carries_stage_attribution(self, artifacts):
        report = json.loads(
            (artifacts / "trace" / "report.json").read_text()
        )
        assert report["profile"]["samples"] > 0
        assert set(report["profile"]["stages"]) <= {
            "ring",
            "shortcuts",
            "mapping",
            "pdn",
            "validate",
            "other",
        }


class TestTraceSubcommand:
    def test_renders_rollup_and_top_spans(self, artifacts, capsys):
        rc = main(["trace", str(artifacts / "trace" / "trace.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 root(s)" in out  # single-process tree, one root
        assert "per-name rollup" in out
        assert "synthesize" in out

    def test_chrome_reexport(self, artifacts, tmp_path, capsys):
        out_path = tmp_path / "re.json"
        rc = main(
            [
                "trace",
                str(artifacts / "trace" / "trace.jsonl"),
                "--chrome",
                str(out_path),
            ]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "synthesize" in names and "process_name" in names

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        rc = main(["trace", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "trace" in capsys.readouterr().err

    def test_corrupt_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "ok"}\nnot json\n')
        rc = main(["trace", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


#: The keys of every span record (``repro.obs.span_records``), apart
#: from ``case``, which records carry only when they have a case label.
SPAN_KEYS = {
    "name",
    "span_id",
    "parent_id",
    "thread_id",
    "start_s",
    "duration_s",
    "attributes",
    "trace_id",
    "pid",
    "span_uid",
    "parent_uid",
    "start_unix",
}


def _read_records(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def batch_run(tmp_path_factory):
    """One two-worker ``batch --trace-dir`` run and its stderr."""
    root = tmp_path_factory.mktemp("cli_batch")
    cases = root / "cases.json"
    cases.write_text(
        json.dumps(
            [
                {"nodes": 8, "wl": 8, "ring_method": "heuristic"},
                {"nodes": 8, "wl": 9, "ring_method": "heuristic"},
            ]
        )
    )
    trace_dir = root / "trace"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(
            [
                "batch",
                str(cases),
                "--workers",
                "2",
                "--trace-dir",
                str(trace_dir),
            ]
        )
    assert rc == 0
    return trace_dir, err.getvalue()


@pytest.fixture(scope="module")
def job_spans(tmp_path_factory):
    """The span records of one service job, from ``GET /jobs/{id}/trace``."""
    from tests.test_service import LiveServer

    server = LiveServer(tmp_path_factory.mktemp("job_store"))
    try:
        _, submit, _ = server.post_json(
            "/jobs", {"nodes": 8, "ring_method": "heuristic", "label": "j0"}
        )
        deadline = time.time() + 120
        while time.time() < deadline:
            _, status, _ = server.get_json(f"/jobs/{submit['job_id']}")
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert status["state"] == "done", status
        _, trace, _ = server.get_json(f"/jobs/{submit['job_id']}/trace")
    finally:
        server.stop()
    return trace["spans"]


class TestBatchTraceNotClobbered:
    def test_batch_writes_cross_process_trace(self, batch_run):
        trace_dir, _ = batch_run
        records = _read_records(trace_dir / "trace.jsonl")
        # the batch engine's annotated spans are the trace: attempt
        # spans + per-case worker trees, not the parent tracer's own
        # (caseless) spans
        assert any(r["name"] == "batch.attempt" for r in records)
        assert any(r["name"] == "synthesize" for r in records)
        assert all("span_uid" in r for r in records)
        chrome = json.loads((trace_dir / "trace.json").read_text())
        assert any(
            e["ph"] == "M" and "pid" in e for e in chrome["traceEvents"]
        )


class TestOneSpanSchema:
    def test_synth_batch_and_job_records_share_one_key_set(
        self, artifacts, batch_run, job_spans
    ):
        synth = _read_records(artifacts / "trace" / "trace.jsonl")
        batch = _read_records(batch_run[0] / "trace.jsonl")
        for records in (synth, batch, job_spans):
            assert records
            for record in records:
                assert set(record) - {"case"} == SPAN_KEYS, record
        # ``case`` only where there is a case label
        assert not any("case" in r for r in synth)
        assert all("case" in r for r in job_spans)
        # (the batch's shared Step 1-2 work belongs to no one case)
        for record in batch:
            assert ("case" in record) == (
                not record["span_uid"].startswith("share:")
            ), record
        for records in (synth, batch, job_spans):
            assert len({r["trace_id"] for r in records}) == 1
            assert all(len(r["trace_id"]) == 32 for r in records)

    def test_each_trace_stitches_and_renders(
        self, artifacts, batch_run, job_spans, tmp_path, capsys
    ):
        job_file = tmp_path / "job.jsonl"
        job_file.write_text(
            "".join(json.dumps(r) + "\n" for r in job_spans)
        )
        for path in (
            artifacts / "trace" / "trace.jsonl",
            batch_run[0] / "trace.jsonl",
            job_file,
        ):
            assert stitch_spans(_read_records(path))["orphans"] == []
            assert main(["trace", str(path)]) == 0
            out = capsys.readouterr().out
            assert "per-name rollup" in out
            assert "ORPHANED" not in out

    def test_trace_json_comes_from_the_record_export(
        self, artifacts, batch_run
    ):
        for trace_dir in (artifacts / "trace", batch_run[0]):
            chrome = json.loads((trace_dir / "trace.json").read_text())
            spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
            assert spans and all("span_uid" in e["args"] for e in spans)
            assert any(e["ph"] == "M" for e in chrome["traceEvents"])

    def test_batch_writes_each_artifact_once(self, batch_run):
        trace_dir, err = batch_run
        written = [
            line.split(": ", 1)[1]
            for line in err.splitlines()
            if line.startswith("artifact written: ")
        ]
        names = sorted(path.rsplit("/", 1)[-1] for path in written)
        assert names == [
            "metrics.json",
            "metrics.om",
            "trace.json",
            "trace.jsonl",
        ]


def _process_labels(trace_dir) -> dict[int, str]:
    chrome = json.loads((trace_dir / "trace.json").read_text())
    return {
        e["pid"]: e["args"]["name"]
        for e in chrome["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }


class TestProcessLabels:
    def test_a_synth_run_is_one_synth_process(self, artifacts):
        labels = _process_labels(artifacts / "trace")
        assert len(labels) == 1
        ((pid, label),) = labels.items()
        assert label == f"synth pid {pid}"

    def test_a_batch_has_one_supervisor_and_its_workers(self, batch_run):
        labels = _process_labels(batch_run[0])
        roles = sorted(label.split(" pid ")[0] for label in labels.values())
        assert roles.count("supervisor") == 1
        assert set(roles) == {"supervisor", "worker"}
        assert all(
            label.endswith(f" pid {pid}") for pid, label in labels.items()
        )
