"""Tests for the regression sentinel (repro.obs.judge's diff + CLI).

Covers the noise model (median-of-k, relative+absolute latency gates,
direction-aware quality thresholds), the drift warnings, both
renderers, and the CLI acceptance criteria: ``xring regress`` exits
nonzero against a doctored ledger entry with doubled stage latency and
zero on an unchanged re-run.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    RunLedger,
    RunRecord,
    Thresholds,
    compare_runs,
    render_html,
    render_markdown,
    render_trend_markdown,
)
from repro.obs.judge import STATUS_INFO


def _record(
    wall_s: float = 1.0,
    kind: str = "synth",
    ring_p50: float = 0.5,
    il_w: float = 2.0,
    snr: float = 20.0,
    bb_nodes: int = 1,
    env: dict | None = None,
    options_hash: str = "",
) -> RunRecord:
    record = RunRecord.build(
        kind,
        "case",
        wall_s=wall_s,
        stage_latency={
            "ring": {
                "count": 1,
                "mean": ring_p50,
                "p50": ring_p50,
                "p90": ring_p50,
                "p99": ring_p50,
                "max": ring_p50,
                "sum": ring_p50,
            }
        },
        quality={"il_w": il_w, "snr_worst_db": snr, "wl_count": 8},
        env=env,
    )
    record.solver = {"bb_nodes": bb_nodes}
    if options_hash:
        record.options_hash = options_hash
    return record


class TestCompareRuns:
    def test_identical_runs_do_not_regress(self):
        verdict = compare_runs([_record()], [_record()])
        assert not verdict.regressed
        assert verdict.warnings == []
        assert any(f.metric == "wall_s" for f in verdict.findings)

    def test_doubled_latency_regresses(self):
        verdict = compare_runs(
            [_record()], [_record(wall_s=2.0, ring_p50=1.0)]
        )
        regressed = {f.metric for f in verdict.regressions}
        assert regressed == {"wall_s", "stage.ring.p50_s"}
        assert "REGRESSION" in verdict.summary()

    def test_latency_needs_both_relative_and_absolute_excess(self):
        # +100% relative but only +2ms absolute: below min_latency_s.
        verdict = compare_runs(
            [_record(wall_s=0.002, ring_p50=0.002)],
            [_record(wall_s=0.004, ring_p50=0.004)],
        )
        assert not verdict.regressed
        # +20% relative on a big number: below latency_rel.
        verdict = compare_runs([_record(wall_s=10.0)], [_record(wall_s=12.0)])
        assert not verdict.regressed
        # Custom thresholds flip the second case.
        verdict = compare_runs(
            [_record(wall_s=10.0)],
            [_record(wall_s=12.0)],
            Thresholds(latency_rel=0.1),
        )
        assert any(f.metric == "wall_s" for f in verdict.regressions)

    def test_quality_directions(self):
        # il_w up = worse; snr down = worse; both beyond quality_abs.
        verdict = compare_runs([_record()], [_record(il_w=2.5)])
        assert {f.metric for f in verdict.regressions} == {"quality.il_w"}
        verdict = compare_runs([_record()], [_record(snr=15.0)])
        assert {f.metric for f in verdict.regressions} == {"quality.snr_worst_db"}
        # il_w down / snr up = improvements, never regressions.
        verdict = compare_runs([_record()], [_record(il_w=1.5, snr=25.0)])
        assert not verdict.regressed
        assert {f.metric for f in verdict.improvements} == {
            "quality.il_w",
            "quality.snr_worst_db",
        }

    def test_median_of_k_shrugs_off_one_outlier(self):
        baseline = [_record() for _ in range(3)]
        candidate = [_record(), _record(), _record(wall_s=50.0, ring_p50=25.0)]
        assert not compare_runs(baseline, candidate).regressed
        # ...but a consistent slowdown still trips.
        slow = [_record(wall_s=2.0, ring_p50=1.0) for _ in range(3)]
        assert compare_runs(baseline, slow).regressed

    def test_counters_are_informational_unless_gated(self):
        verdict = compare_runs([_record(bb_nodes=10)], [_record(bb_nodes=1000)])
        finding = next(
            f for f in verdict.findings if f.metric == "solver.bb_nodes"
        )
        assert finding.status == STATUS_INFO

    def test_drift_warnings(self):
        other_env = {"python": "0.0", "cpu_count": 64}
        verdict = compare_runs([_record(env=other_env)], [_record()])
        assert any("environment" in w for w in verdict.warnings)
        verdict = compare_runs(
            [_record(options_hash="a" * 64)],
            [_record(options_hash="b" * 64)],
        )
        assert any("options hashes" in w for w in verdict.warnings)

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            compare_runs([], [_record()])

    def test_verdict_serializes(self):
        verdict = compare_runs([_record()], [_record(wall_s=2.0)])
        payload = json.loads(verdict.to_json())
        assert payload["regressed"] is True
        assert payload["thresholds"]["latency_rel"] == 0.25
        assert any(
            f["metric"] == "wall_s" and f["status"] == "regression"
            for f in payload["findings"]
        )

    def test_latency_regression_names_the_profile_hotspot(self):
        """A latency regression on a candidate carrying profiler stage
        attribution points the reader at the hottest stage."""
        hot = _record(wall_s=2.0)
        hot.extra = {
            "profile": {
                "stages": {
                    "ring": {"fraction": 0.72},
                    "shortcuts": {"fraction": 0.2},
                }
            }
        }
        verdict = compare_runs([_record()], [hot])
        assert verdict.regressed
        assert any(
            "72%" in w and "'ring'" in w for w in verdict.warnings
        ), verdict.warnings
        # no profile on the candidate -> no hotspot warning
        verdict = compare_runs([_record()], [_record(wall_s=2.0)])
        assert not any("profile" in w for w in verdict.warnings)


class TestRenderers:
    def test_markdown_marks_regressions(self):
        verdict = compare_runs([_record()], [_record(wall_s=2.0)])
        text = render_markdown(verdict)
        assert "**REGRESSION**" in text
        assert "| wall_s | latency |" in text

    def test_trend_table_lists_runs(self):
        text = render_trend_markdown([_record(), _record(wall_s=2.0)])
        assert "2 run(s)" in text
        assert text.count("| synth |") == 2

    def test_html_is_self_contained_and_escaped(self):
        verdict = compare_runs([_record()], [_record(wall_s=2.0)])
        page = render_html(verdict=verdict, records=[_record()])
        assert page.startswith("<!DOCTYPE html>")
        assert 'class="regression"' in page
        assert "<style>" in page and "Run history" in page


def _ledger_with(tmp_path, records) -> RunLedger:
    ledger = RunLedger(tmp_path / "hist")
    for record in records:
        ledger.append(record)
    return ledger


class TestCliRegress:
    def test_unchanged_rerun_exits_zero(self, tmp_path, capsys):
        """Acceptance: two identical CLI runs -> exit 0."""
        hist = str(tmp_path / "hist")
        argv = [
            "synth",
            "--nodes",
            "8",
            "--ring-method",
            "heuristic",
            "--history-dir",
            hist,
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        code = main(["regress", "--history-dir", hist])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert "ok:" in out.err

    def test_doctored_latency_exits_nonzero(self, tmp_path, capsys):
        """Acceptance: a 2x-stage-latency ledger entry -> exit 1."""
        ledger = _ledger_with(tmp_path, [_record()])
        doctored = _record(wall_s=2.0, ring_p50=1.0)
        ledger.append(doctored)
        out_path = tmp_path / "verdict.json"
        code = main(
            [
                "regress",
                "--history-dir",
                str(ledger.directory),
                "--out",
                str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.err
        verdict = json.loads(out_path.read_text(encoding="utf-8"))
        assert verdict["regressed"] is True

    def test_baseline_file(self, tmp_path):
        ledger = _ledger_with(tmp_path, [_record(wall_s=2.0, ring_p50=1.0)])
        baseline_file = tmp_path / "baseline.jsonl"
        baseline_file.write_text(
            json.dumps(_record().to_dict()) + "\n", encoding="utf-8"
        )
        code = main(
            [
                "regress",
                "--history-dir",
                str(ledger.directory),
                "--baseline-file",
                str(baseline_file),
            ]
        )
        assert code == 1

    def test_explicit_baseline_run_id(self, tmp_path):
        good = _record()
        bad = _record(wall_s=2.0, ring_p50=1.0)
        ledger = _ledger_with(tmp_path, [good, bad])
        code = main(
            [
                "regress",
                "--history-dir",
                str(ledger.directory),
                "--baseline",
                good.run_id,
            ]
        )
        assert code == 1

    def test_runs_of_another_kind_are_not_the_baseline(self, tmp_path, capsys):
        """With no --kind/--label the verdict stays inside the newest
        run's (kind, label) group: a fast bench run between two equal
        synth runs is not the synth run's baseline."""
        ledger = _ledger_with(
            tmp_path,
            [
                _record(wall_s=2.0),
                _record(wall_s=0.5, ring_p50=0.1, kind="bench"),
                _record(wall_s=2.0),
            ],
        )
        code = main(["regress", "--history-dir", str(ledger.directory)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "ok:" in captured.err

    def test_missing_data_exits_two(self, tmp_path, capsys):
        assert main(["regress", "--history-dir", str(tmp_path / "empty")]) == 2
        ledger = _ledger_with(tmp_path, [_record()])
        assert main(["regress", "--history-dir", str(ledger.directory)]) == 2
        capsys.readouterr()


class TestBenchHonesty:
    """The bench must not report a parallel "speedup" on one CPU."""

    @staticmethod
    def _bench_module():
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_parallel.py"
        )
        spec = importlib.util.spec_from_file_location("bench_parallel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_single_cpu_reports_null_with_reason(self):
        bench = self._bench_module()
        speedup, note = bench.parallel_speedup(18.7, 22.4, cpu_count=1)
        assert speedup is None
        assert "cpu_count=1" in note and note.startswith("n/a")
        speedup, note = bench.parallel_speedup(10.0, 5.0, cpu_count=None)
        assert speedup is None

    def test_multi_cpu_reports_the_ratio(self):
        bench = self._bench_module()
        speedup, note = bench.parallel_speedup(10.0, 4.0, cpu_count=4)
        assert speedup == 2.5
        assert note == ""

    def test_untimeable_parallel_phase_is_null(self):
        bench = self._bench_module()
        speedup, note = bench.parallel_speedup(1.0, 0.0, cpu_count=8)
        assert speedup is None and "too fast" in note

    def test_committed_baseline_is_honest(self):
        """BENCH_parallel.json must carry the honest null on this host."""
        from pathlib import Path

        payload = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_parallel.json")
            .read_text(encoding="utf-8")
        )
        scaling = payload["scaling"]
        if payload["environment"]["cpu_count"] <= 1:
            assert scaling["speedup_parallel"] is None
            assert "cpu_count" in scaling["speedup_parallel_note"]
        else:
            assert scaling["speedup_parallel"] > 0

    def test_committed_perf_baseline_parses(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "perf_baseline.jsonl"
        )
        lines = [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert lines, "committed perf baseline must not be empty"
        record = RunRecord.from_dict(json.loads(lines[0]))
        assert record.kind == "bench"
        assert record.stage_latency  # per-stage clocks captured


class TestCliReport:
    def test_markdown_trend_to_stdout(self, tmp_path, capsys):
        ledger = _ledger_with(tmp_path, [_record(), _record(wall_s=2.0)])
        code = main(["report", "--history-dir", str(ledger.directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# xring run history" in out

    def test_html_report_to_file_with_compare(self, tmp_path):
        good = _record()
        bad = _record(wall_s=2.0, ring_p50=1.0)
        ledger = _ledger_with(tmp_path, [good, bad])
        out_path = tmp_path / "report.html"
        code = main(
            [
                "report",
                "--history-dir",
                str(ledger.directory),
                "--format",
                "html",
                "--compare",
                good.run_id,
                bad.run_id,
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        page = out_path.read_text(encoding="utf-8")
        assert 'class="regression"' in page

    def test_empty_ledger_exits_two(self, tmp_path):
        assert main(["report", "--history-dir", str(tmp_path / "none")]) == 2
