"""The ledger judge: is a run worse than its history?

Behind ``xring regress``, ``xring mine`` and ``xring report``.  One
metric table (:func:`record_metrics`) turns a
:class:`~repro.obs.history.RunRecord` into ``{metric: (value,
category, bad side)}``; records are compared only inside their
``(kind, label)`` group (:func:`group_key`); one :class:`Thresholds`
config and one :class:`Finding` / :class:`Verdict` pair carry the
outcome.  Two reductions run over that base:

- :func:`compare_runs` — the **median-of-k diff**.  Each side reduces
  metric-by-metric to its median, so one noisy run cannot flip a
  verdict.  ``latency`` metrics regress only on *both* a relative
  excess (``latency_rel``) and an absolute one (``min_latency_s``);
  ``quality`` metrics regress on an absolute worsening beyond
  ``quality_abs``; every other category is informational.
- :func:`mine_ledger` — the **robust-z scan**.  Every metric of every
  run in a group of at least ``min_runs`` is scored against the group's
  median and MAD, ``z = (x - median) / (1.4826 * MAD)``; a run is
  flagged when a metric lands ``z_threshold`` sigmas on its bad side.
  Median/MAD stay meaningful with a third of the data corrupted, and a
  zero MAD falls back to a relative floor so a byte-stable metric does
  not flag float noise.

A verdict serializes to JSON (``--out`` / ``--json``) and renders as
markdown or a self-contained HTML page; ``verdict.regressed`` drives
the CLIs' exit 1.
"""

from __future__ import annotations

import html
import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from repro.obs.history import RunRecord

#: Finding statuses.
STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_INFO = "info"

#: Bad sides: larger values are worse, or smaller ones are.
HIGH = "high"
LOW = "low"

#: Metric categories, in report order.  The diff gates ``latency``
#: and ``quality``; the scan scores them all.
CATEGORIES = ("latency", "quality", "tail", "counter", "supervisor", "cache")

#: Bad side of every design-quality metric the ledger records.
QUALITY_BAD_SIDE = {
    "wl_count": HIGH,
    "il_w": HIGH,
    "worst_length_mm": HIGH,
    "worst_crossings": HIGH,
    "power_w": HIGH,
    "noisy_signals": HIGH,
    "snr_worst_db": LOW,
    "noise_free_fraction": LOW,
}

#: Consistency factor: MAD * 1.4826 estimates sigma for normal data.
MAD_SIGMA = 1.4826

#: Relative floor used when MAD is zero (perfectly stable baseline):
#: deviations under 0.1% of the median (or 1e-9 absolute) stay quiet.
ZERO_MAD_REL_FLOOR = 1e-3
ZERO_MAD_ABS_FLOOR = 1e-9


class Metric(NamedTuple):
    value: float
    category: str
    bad: str


def record_metrics(record: RunRecord) -> dict[str, Metric]:
    """The metric table: every judged number one record carries."""
    rows = [("wall_s", record.wall_s, "latency", HIGH)]
    for stage, stats in record.stage_latency.items():
        rows.append((f"stage.{stage}.p50_s", stats.get("p50"), "latency", HIGH))
        rows.append((f"stage.{stage}.p99_s", stats.get("p99"), "tail", HIGH))
    for key, bad in QUALITY_BAD_SIDE.items():
        rows.append((f"quality.{key}", record.quality.get(key), "quality", bad))
    for key, value in record.solver.items():
        rows.append((f"solver.{key}", value, "counter", HIGH))
    # Supervisor counters are degradation-chain activity: retries,
    # worker restarts, timeouts, quarantines.
    for key, value in record.supervisor.items():
        rows.append((f"supervisor.{key}", value, "supervisor", HIGH))
    for section, rate in record.cache.items():
        rows.append((f"cache.{section}.hit_rate", rate, "cache", LOW))
    return {
        name: Metric(float(value), category, bad)
        for name, value, category, bad in rows
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _observations(records: Iterable[RunRecord]) -> dict[str, list[tuple[RunRecord, Metric]]]:
    """``metric -> [(record, Metric), ...]`` over ``records``."""
    observed: dict[str, list[tuple[RunRecord, Metric]]] = {}
    for record in records:
        for name, metric in record_metrics(record).items():
            observed.setdefault(name, []).append((record, metric))
    return observed


def median_mad(values: Sequence[float]) -> tuple[float, float]:
    """The median and the median absolute deviation of ``values``."""
    med = statistics.median(values)
    return med, statistics.median(abs(v - med) for v in values)


def robust_zscore(value: float, median: float, mad: float) -> float:
    """Signed robust z-score of ``value`` against a median/MAD baseline."""
    scale = MAD_SIGMA * mad
    if scale <= 0:
        floor = max(ZERO_MAD_ABS_FLOOR, ZERO_MAD_REL_FLOOR * abs(median))
        deviation = value - median
        if abs(deviation) <= floor:
            return 0.0
        return float("inf") if deviation > 0 else float("-inf")
    return (value - median) / scale


def group_key(record: RunRecord) -> tuple[str, str]:
    """Only records sharing ``(kind, label)`` are ever compared."""
    return record.kind, record.label


def in_group(records: Iterable[RunRecord], like: RunRecord) -> list[RunRecord]:
    """The records sharing ``like``'s group, in their order."""
    return [r for r in records if group_key(r) == group_key(like)]


@dataclass(frozen=True)
class Thresholds:
    """What counts as worse.

    Diff: ``latency_rel`` is the allowed relative slowdown (0.25 =
    +25%), ``min_latency_s`` the absolute floor below which latency
    deltas are noise, ``quality_abs`` the allowed absolute worsening of
    a quality metric.  Scan: ``z_threshold`` sigmas on the bad side
    flag a run; groups smaller than ``min_runs`` are not judged.
    """

    latency_rel: float = 0.25
    min_latency_s: float = 0.01
    quality_abs: float = 0.05
    z_threshold: float = 3.5
    min_runs: int = 4

    def __post_init__(self) -> None:
        if self.z_threshold <= 0:
            raise ValueError(f"z_threshold must be positive, got {self.z_threshold}")
        if self.min_runs < 3:
            raise ValueError(f"min_runs must be >= 3, got {self.min_runs}")


def _json_z(z: float | None) -> float | str | None:
    if z is None or abs(z) != float("inf"):
        return z
    return "inf" if z > 0 else "-inf"


@dataclass
class Finding:
    """One judged metric: the candidate value against its baseline.

    In a diff both are medians over their side; in a scan ``candidate``
    is one run's value (``run_id``) and ``baseline`` its group median.
    """

    metric: str
    category: str
    bad: str
    baseline: float
    candidate: float
    status: str = STATUS_OK
    run_id: str = ""
    mad: float | None = None
    zscore: float | None = None

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def delta_rel(self) -> float | None:
        if self.baseline == 0:
            return None
        return self.delta / abs(self.baseline)

    def to_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "delta": self.delta,
            "delta_rel": self.delta_rel,
            "zscore": _json_z(self.zscore),
        }


@dataclass
class Verdict:
    """One judgement: a diff's compared metrics or a scan's flagged runs."""

    thresholds: Thresholds
    findings: list[Finding] = field(default_factory=list)
    #: Non-fatal caveats (environment drift, options-hash mismatch).
    warnings: list[str] = field(default_factory=list)
    #: Diff sides.
    baseline_runs: list[str] = field(default_factory=list)
    candidate_runs: list[str] = field(default_factory=list)
    #: Scan coverage: runs read, ``(kind, label)`` groups formed, and
    #: groups smaller than ``min_runs`` (not judged).
    scanned: int = 0
    groups: int = 0
    skipped_small_groups: int = 0

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.status == STATUS_REGRESSION]

    @property
    def improvements(self) -> list[Finding]:
        return [f for f in self.findings if f.status == STATUS_IMPROVEMENT]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    @property
    def flagged_runs(self) -> list[str]:
        """Runs a scan finding judged worse, in finding order."""
        return list(dict.fromkeys(f.run_id for f in self.regressions if f.run_id))

    def summary(self) -> str:
        if not self.baseline_runs:
            outcome = (
                f"{len(self.regressions)} anomalous metric(s) across "
                f"{len(self.flagged_runs)} run(s)"
                if self.regressed
                else "no anomalies flagged"
            )
            return (
                f"mined {self.scanned} run(s) in {self.groups} group(s), "
                f"{self.skipped_small_groups} too small to judge: {outcome}"
            )
        if self.regressed:
            worst = ", ".join(f.metric for f in self.regressions[:4])
            more = len(self.regressions) - 4
            suffix = f" (+{more} more)" if more > 0 else ""
            return f"REGRESSION: {worst}{suffix}"
        return (
            f"ok: {len(self.findings)} metrics compared, "
            f"{len(self.improvements)} improved"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "regressed": self.regressed,
            "summary": self.summary(),
            **asdict(self),
            "flagged_runs": self.flagged_runs,
            "findings": [f.to_dict() for f in self.findings],
            "anomalies": [f.to_dict() for f in self.regressions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# -- the median-of-k diff ----------------------------------------------------
def _diff_status(category: str, base: float, worsening: float, t: Thresholds) -> str:
    excess = abs(worsening)
    if category == "latency":
        beyond = excess > t.min_latency_s and (base == 0 or excess / base > t.latency_rel)
    elif category == "quality":
        beyond = excess > t.quality_abs
    else:
        return STATUS_INFO
    if not beyond:
        return STATUS_OK
    return STATUS_REGRESSION if worsening > 0 else STATUS_IMPROVEMENT


def _profile_hotspot(records: list[RunRecord]) -> tuple[str, float] | None:
    """The hottest profiled stage across the group, if any run carried
    sampling-profiler attribution (``extra["profile"]["stages"]``).

    Lets a latency-regression verdict say *where* the time went, not
    just that it grew.  Returns ``(stage, fraction)`` or ``None``.
    """
    fractions: dict[str, list[float]] = {}
    for record in records:
        stages = (record.extra.get("profile") or {}).get("stages") or {}
        for stage, stats in stages.items():
            try:
                fractions.setdefault(stage, []).append(
                    float(stats.get("fraction", 0.0))
                )
            except (TypeError, AttributeError):
                continue
    if not fractions:
        return None
    stage, fraction = max(
        ((stage, statistics.median(vals)) for stage, vals in fractions.items()),
        key=lambda kv: kv[1],
    )
    return (stage, fraction) if fraction > 0.0 else None


def compare_runs(
    baseline: list[RunRecord],
    candidate: list[RunRecord],
    thresholds: Thresholds | None = None,
) -> Verdict:
    """Diff candidate records against baseline records (median-of-k).

    Metrics present on only one side are skipped.  Environment or
    options-hash drift between the sides lands in
    :attr:`Verdict.warnings` rather than blocking the comparison —
    cross-host ledgers are still comparable, just explicitly so.
    """
    if not baseline or not candidate:
        raise ValueError(
            f"compare_runs needs records on both sides "
            f"(baseline={len(baseline)}, candidate={len(candidate)})"
        )
    thresholds = thresholds or Thresholds()
    verdict = Verdict(
        thresholds,
        baseline_runs=[r.run_id for r in baseline],
        candidate_runs=[r.run_id for r in candidate],
    )

    base_envs = {json.dumps(r.env, sort_keys=True) for r in baseline}
    cand_envs = {json.dumps(r.env, sort_keys=True) for r in candidate}
    if base_envs != cand_envs:
        verdict.warnings.append(
            "environment fingerprints differ between baseline and candidate; "
            "latency comparisons are cross-host"
        )
    base_opts = {r.options_hash for r in baseline if r.options_hash}
    cand_opts = {r.options_hash for r in candidate if r.options_hash}
    if base_opts and cand_opts and base_opts != cand_opts:
        verdict.warnings.append(
            "options hashes differ between baseline and candidate; "
            "runs may not be like-for-like"
        )

    base_side, cand_side = _observations(baseline), _observations(candidate)
    for name in base_side.keys() & cand_side.keys():
        metric = base_side[name][0][1]
        base = statistics.median(m.value for _, m in base_side[name])
        cand = statistics.median(m.value for _, m in cand_side[name])
        worsening = cand - base if metric.bad == HIGH else base - cand
        status = _diff_status(metric.category, base, worsening, thresholds)
        verdict.findings.append(
            Finding(name, metric.category, metric.bad, base, cand, status)
        )
    verdict.findings.sort(key=lambda f: (CATEGORIES.index(f.category), f.metric))

    if any(f.category == "latency" for f in verdict.regressions):
        hotspot = _profile_hotspot(candidate)
        if hotspot:
            stage, fraction = hotspot
            verdict.warnings.append(
                f"latency regressed; candidate profile attributes "
                f"{fraction:.0%} of samples to stage '{stage}' "
                "(see the run's profile.json for the flamegraph)"
            )
    return verdict


# -- the robust-z scan -------------------------------------------------------
def mine_ledger(
    records: Iterable[RunRecord], thresholds: Thresholds | None = None
) -> Verdict:
    """Flag direction-aware robust outliers across comparable runs.

    Groups smaller than ``min_runs`` are skipped (an outlier needs a
    baseline).  The baseline for each metric is the whole group
    including the candidate — with >= ``min_runs`` records the
    median/MAD stay anchored by the healthy majority, and the flagged
    value cannot hide itself.
    """
    thresholds = thresholds or Thresholds()
    verdict = Verdict(thresholds)
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        verdict.scanned += 1
        groups.setdefault(group_key(record), []).append(record)
    verdict.groups = len(groups)
    for members in groups.values():
        if len(members) < thresholds.min_runs:
            verdict.skipped_small_groups += 1
            continue
        for name, pairs in _observations(members).items():
            if len(pairs) < thresholds.min_runs:
                continue
            med, mad = median_mad([metric.value for _, metric in pairs])
            for record, metric in pairs:
                z = robust_zscore(metric.value, med, mad)
                if (z if metric.bad == HIGH else -z) >= thresholds.z_threshold:
                    verdict.findings.append(
                        Finding(
                            name,
                            metric.category,
                            metric.bad,
                            med,
                            metric.value,
                            STATUS_REGRESSION,
                            run_id=record.run_id,
                            mad=mad,
                            zscore=z,
                        )
                    )
    verdict.findings.sort(
        key=lambda f: (f.run_id, -min(abs(f.zscore), 1e18), f.metric)
    )
    return verdict


def promote_candidates(
    verdict: Verdict,
    records: Iterable[RunRecord],
    directory: str | Path,
) -> list[Path]:
    """Write a golden-fixture candidate stub per flagged run.

    Each ``candidate-<run_id>.json`` carries the run's identity
    (options hash, environment fingerprint) and the metrics that
    flagged it, so a later curation pass can re-synthesize the exact
    configuration into a reviewed golden fixture.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {record.run_id: record for record in records}
    written: list[Path] = []
    for run_id in verdict.flagged_runs:
        record = index[run_id]
        payload = {
            "candidate": "golden-fixture",
            "status": "needs-review",
            "run_id": run_id,
            "label": record.label,
            "kind": record.kind,
            "created_at": record.created_at,
            "options_hash": record.options_hash,
            "fingerprint": record.fingerprint,
            "env": record.env,
            "flagged_metrics": [
                f.to_dict() for f in verdict.regressions if f.run_id == run_id
            ],
            "z_threshold": verdict.thresholds.z_threshold,
        }
        path = directory / f"candidate-{run_id}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


# -- rendering ---------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_delta(finding: Finding) -> str:
    rel = finding.delta_rel
    rel_text = "" if rel is None else f" ({rel:+.1%})"
    return f"{finding.delta:+.4g}{rel_text}"


def _fmt_status(finding: Finding, strong: bool = False) -> str:
    status = finding.status
    if strong and status == STATUS_REGRESSION:
        status = "**REGRESSION**"
    if finding.zscore is None:
        return status
    z = "inf" if abs(finding.zscore) == float("inf") else f"{finding.zscore:+.1f}"
    return f"{status} (z {z})"


_FINDING_HEADERS = ["metric", "category", "run", "baseline", "candidate", "delta", "status"]


def _finding_cells(finding: Finding, strong: bool = False) -> list[str]:
    return [
        finding.metric,
        finding.category,
        finding.run_id or "-",
        _fmt_value(finding.baseline),
        _fmt_value(finding.candidate),
        _fmt_delta(finding),
        _fmt_status(finding, strong),
    ]


def _context_lines(verdict: Verdict) -> list[str]:
    t = verdict.thresholds
    lines = []
    if verdict.baseline_runs:
        lines.append(f"baseline: {', '.join(verdict.baseline_runs)}")
        lines.append(f"candidate: {', '.join(verdict.candidate_runs)}")
        lines.append(
            f"thresholds: latency +{t.latency_rel:.0%} (min {t.min_latency_s}s), "
            f"quality ±{t.quality_abs}"
        )
    else:
        lines.append(f"thresholds: z >= {t.z_threshold:g}, min {t.min_runs} runs/group")
    return lines


def render_markdown(verdict: Verdict) -> str:
    """The verdict as a markdown report."""
    lines = ["# xring ledger verdict", "", f"**{verdict.summary()}**", ""]
    lines += [f"- {line}" for line in _context_lines(verdict)] + [""]
    for warning in verdict.warnings:
        lines.append(f"> ⚠ {warning}")
    if verdict.warnings:
        lines.append("")
    if verdict.findings:
        cells = [_finding_cells(f, strong=True) for f in verdict.findings]
        lines += _md_table(_FINDING_HEADERS, cells)
    return "\n".join(lines) + "\n"


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    return lines + ["| " + " | ".join(cells) + " |" for cells in rows]


#: Trend columns after each run's identity: entries of the metric table.
_TREND_METRICS = (
    "wall_s",
    "quality.wl_count",
    "quality.il_w",
    "quality.snr_worst_db",
    "solver.bb_nodes",
    "supervisor.retries",
)
_TREND_HEADERS = ["run", "kind", "label", "created", *_TREND_METRICS]


def _trend_rows(records: list[RunRecord]) -> list[list[str]]:
    rows = []
    for record in records:
        metrics = record_metrics(record)
        rows.append(
            [record.run_id, record.kind, record.label, record.created_at]
            + [_fmt_value(metrics[m].value) if m in metrics else "-" for m in _TREND_METRICS]
        )
    return rows


def render_trend_markdown(records: list[RunRecord]) -> str:
    """The last-N-runs trend table as markdown (oldest first)."""
    lines = ["# xring run history", "", f"{len(records)} run(s), oldest first.", ""]
    lines += _md_table(_TREND_HEADERS, _trend_rows(records))
    return "\n".join(lines) + "\n"


_HTML_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }}
table {{ border-collapse: collapse; margin: 1rem 0; width: 100%; }}
th, td {{ border: 1px solid #d0d0d0; padding: 0.3rem 0.6rem; text-align: left; }}
th {{ background: #f2f2f2; }}
.regression {{ background: #fde8e8; font-weight: 600; }}
.improvement {{ background: #e8f7ec; }}
.warn {{ color: #8a6d00; }}
</style>
</head>
<body>
<h1>{title}</h1>
{body}
</body>
</html>
"""


def _html_table(headers: list[str], rows: list[list[str]], classes: list[str]) -> str:
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>" for h in headers) + "</tr>"]
    for cells, css in zip(rows, classes):
        cls = f' class="{css}"' if css else ""
        out.append(
            f"<tr{cls}>" + "".join(f"<td>{html.escape(c)}</td>" for c in cells) + "</tr>"
        )
    out.append("</table>")
    return "\n".join(out)


def render_html(
    verdict: Verdict | None = None, records: list[RunRecord] | None = None
) -> str:
    """A self-contained HTML page: verdict table and/or trend table."""
    parts: list[str] = []
    if verdict is not None:
        parts.append(f"<h2>Verdict: {html.escape(verdict.summary())}</h2>")
        parts.append(
            "<p>" + "<br>".join(html.escape(line) for line in _context_lines(verdict)) + "</p>"
        )
        for warning in verdict.warnings:
            parts.append(f'<p class="warn">⚠ {html.escape(warning)}</p>')
        rows = [_finding_cells(f) for f in verdict.findings]
        classes = [
            f.status if f.status in (STATUS_REGRESSION, STATUS_IMPROVEMENT) else ""
            for f in verdict.findings
        ]
        parts.append(_html_table(_FINDING_HEADERS, rows, classes))
    if records:
        parts.append(f"<h2>Run history ({len(records)} runs, oldest first)</h2>")
        parts.append(_html_table(_TREND_HEADERS, _trend_rows(records), [""] * len(records)))
    return _HTML_PAGE.format(title="xring run report", body="\n".join(parts))
