"""Ledger anomaly mining (repro.obs.judge's scan) and ``xring mine``.

The acceptance path: seed a multi-run ledger with one known-bad run
(a latency spike), mine it, and the outlier is flagged — through the
library *and* through the CLI, whose exit code (1) is the CI contract.
Direction-awareness and the zero-MAD floor get their own pins: a run
with an unusually *good* SNR must not be flagged, and a metric that is
byte-stable across runs must not flag float noise.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    RunLedger,
    RunRecord,
    Thresholds,
    mine_ledger,
    promote_candidates,
    robust_zscore,
)


def _record(index, label="ring16", wall_s=2.0, snr=18.0, retries=0,
            ring_p99=0.5):
    return RunRecord(
        run_id=f"synth-2026-{index:04d}",
        kind="synth",
        label=label,
        created_at=f"2026-08-01T00:{index:02d}:00Z",
        fingerprint=f"f{index:03d}",
        options_hash="oh-abc",
        wall_s=wall_s,
        stage_latency={"ring": {"count": 3, "p99": ring_p99}},
        supervisor={"retries": retries, "resumed": False},
        quality={"snr_worst_db": snr, "signal_count": 16},
    )


class TestRobustZscore:
    def test_signed_sigma_estimate(self):
        # median 10, MAD 1 -> sigma ~1.4826; 13 sits ~+2 sigma out.
        assert robust_zscore(13.0, 10.0, 1.0) == pytest.approx(2.023, abs=0.01)
        assert robust_zscore(7.0, 10.0, 1.0) < 0

    def test_zero_mad_floor_absorbs_float_noise(self):
        assert robust_zscore(10.0 + 1e-6, 10.0, 0.0) == 0.0

    def test_zero_mad_real_deviation_is_infinite(self):
        assert robust_zscore(11.0, 10.0, 0.0) == float("inf")
        assert robust_zscore(9.0, 10.0, 0.0) == float("-inf")


class TestMineLedger:
    def test_seeded_latency_spike_is_flagged(self):
        records = [_record(i) for i in range(7)]
        records.append(_record(7, wall_s=40.0, ring_p99=20.0))
        report = mine_ledger(records, Thresholds(z_threshold=3.5))
        assert report.scanned == 8 and report.groups == 1
        flagged = report.flagged_runs
        assert flagged == ["synth-2026-0007"]
        metrics = {a.metric for a in report.regressions}
        assert "wall_s" in metrics and "stage.ring.p99_s" in metrics

    def test_good_outliers_are_not_flagged(self):
        """Direction-awareness: an unusually fast run with unusually
        high SNR is a delight, not an anomaly."""
        records = [_record(i, wall_s=2.0 + 0.01 * i) for i in range(7)]
        records.append(_record(7, wall_s=0.1, snr=40.0))
        report = mine_ledger(records, Thresholds(z_threshold=3.5))
        assert report.regressions == []

    def test_low_is_bad_metrics_flag_downward(self):
        records = [_record(i, snr=18.0 + 0.05 * i) for i in range(7)]
        records.append(_record(7, snr=2.0))
        report = mine_ledger(records)
        assert report.flagged_runs == ["synth-2026-0007"]
        assert any(a.metric == "quality.snr_worst_db" and a.bad == "low"
                   for a in report.regressions)

    def test_supervisor_retry_spike_flags(self):
        records = [_record(i, retries=i % 2) for i in range(8)]
        records.append(_record(8, retries=50))
        report = mine_ledger(records)
        assert any(a.metric == "supervisor.retries" for a in report.regressions)

    def test_groups_are_isolated(self):
        """A slow-but-normal big case must not be judged against the
        small case's baseline."""
        small = [_record(i, label="small", wall_s=1.0) for i in range(5)]
        big = [_record(10 + i, label="big", wall_s=60.0 + i) for i in range(5)]
        report = mine_ledger(small + big)
        assert report.groups == 2 and report.regressions == []

    def test_small_groups_are_skipped_not_judged(self):
        report = mine_ledger([_record(0), _record(1, wall_s=99.0)])
        assert report.regressions == []
        assert report.skipped_small_groups == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mine_ledger([], Thresholds(z_threshold=0.0))
        with pytest.raises(ValueError):
            mine_ledger([], Thresholds(min_runs=2))

    def test_report_is_json_safe(self):
        records = [_record(i, wall_s=2.0) for i in range(6)]
        records.append(_record(6, wall_s=99.0))
        report = mine_ledger(records)
        text = json.dumps(report.to_dict())  # inf must serialize
        assert "Infinity" not in text
        assert report.summary().startswith("mined 7 run(s)")


class TestPromotion:
    def test_candidate_stubs_written(self, tmp_path):
        records = [_record(i) for i in range(6)]
        records.append(_record(6, wall_s=50.0))
        report = mine_ledger(records)
        paths = promote_candidates(report, records, tmp_path / "cand")
        assert len(paths) == 1
        stub = json.loads(paths[0].read_text())
        assert stub["run_id"] == "synth-2026-0006"
        assert stub["options_hash"] == "oh-abc"
        assert stub["status"] == "needs-review"
        assert any(m["metric"] == "wall_s" for m in stub["flagged_metrics"])


class TestMineCLI:
    def _seed(self, directory, records):
        ledger = RunLedger(directory)
        for record in records:
            ledger.append(record)
        return ledger

    def test_flagged_ledger_exits_1(self, tmp_path, capsys):
        records = [_record(i) for i in range(6)]
        records.append(_record(6, wall_s=50.0))
        self._seed(tmp_path, records)
        out = tmp_path / "report.json"
        code = main([
            "mine", "--history-dir", str(tmp_path),
            "--json", str(out), "--promote", str(tmp_path / "cand"),
        ])
        assert code == 1
        assert "synth-2026-0006" in capsys.readouterr().out
        assert json.loads(out.read_text())["flagged_runs"] == [
            "synth-2026-0006"
        ]
        assert (tmp_path / "cand" / "candidate-synth-2026-0006.json").exists()

    def test_clean_ledger_exits_0(self, tmp_path):
        self._seed(tmp_path, [_record(i) for i in range(5)])
        assert main(["mine", "--history-dir", str(tmp_path)]) == 0

    def test_insufficient_data_exits_2(self, tmp_path):
        self._seed(tmp_path, [_record(0)])
        assert main(["mine", "--history-dir", str(tmp_path)]) == 2

    def test_every_group_too_small_exits_2(self, tmp_path, capsys):
        """Four runs under four labels: no group can be judged."""
        self._seed(tmp_path, [_record(i, label=f"l{i}") for i in range(4)])
        assert main(["mine", "--history-dir", str(tmp_path)]) == 2
        assert "4 too small to judge" in capsys.readouterr().err

    def test_bad_parameters_exit_2(self, tmp_path):
        assert main(["mine", "--history-dir", str(tmp_path),
                     "--min-runs", "1"]) == 2
