"""OpenMetrics text exposition of a metrics-registry snapshot.

:func:`to_openmetrics` renders any :meth:`MetricsRegistry.snapshot`
dict as an `OpenMetrics <https://openmetrics.io>`_ text exposition —
the line format Prometheus and every compatible scraper ingest.  The
mapping is the canonical one:

- counters become ``<name>_total`` samples with a ``counter`` TYPE;
- gauges become plain samples with a ``gauge`` TYPE;
- histograms become cumulative ``<name>_bucket{le="..."}`` samples
  (including the mandatory ``le="+Inf"`` bucket), plus ``_count`` and
  ``_sum``, with a ``histogram`` TYPE.

Metric names are sanitized to the OpenMetrics grammar (dots and other
separators become underscores) and prefixed (default ``xring_``), so
``milp.bb.nodes`` exports as ``xring_milp_bb_nodes_total``.
The exposition ends with the mandatory ``# EOF`` terminator.

No exporter process is bundled — the CLI writes the exposition via
``--metrics --metrics-format openmetrics`` and ``--trace-dir`` drops a
``metrics.om`` artifact, both scrapeable by a node-exporter-style
textfile collector.

Federation (``GET /federate`` on the job service) goes the other way:
:func:`parse_exposition` reads an exposition back into the snapshot
shape (in exported-name space), and :func:`merge_expositions` folds
several expositions — the service's own registry plus every scraped
cache node — into one: counters and histogram buckets sum, gauges take
the last value, and the merged document is rendered exactly once, so
overlapping families cannot produce duplicate ``# TYPE`` lines or a
second ``# EOF``.
"""

from __future__ import annotations

import math
import re
from typing import Any

#: OpenMetrics metric-name grammar (after prefixing).
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

DEFAULT_PREFIX = "xring"


def sanitize_metric_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """Map an internal metric name onto the OpenMetrics grammar.

    Dots (our namespace separator) and any other invalid character
    become underscores; a leading digit gets an underscore prepended.
    """
    cleaned = _INVALID_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    full = f"{prefix}_{cleaned}" if prefix else cleaned
    if not _NAME_RE.fullmatch(full):
        raise ValueError(f"cannot sanitize metric name {name!r} -> {full!r}")
    return full


def _fmt(value: float | int) -> str:
    """One sample value, OpenMetrics-style.

    Integers print without a fraction; non-finite floats use the
    spec's ``NaN`` / ``+Inf`` / ``-Inf`` spellings.
    """
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_openmetrics(snapshot: dict[str, Any], prefix: str = DEFAULT_PREFIX) -> str:
    """Render a registry snapshot as an OpenMetrics text exposition.

    ``snapshot`` is the dict returned by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.  Families are
    emitted sorted by exported name, each with its ``# TYPE`` line; the
    exposition is terminated by ``# EOF``.
    """
    families: list[tuple[str, list[str]]] = []

    for name, value in snapshot.get("counters", {}).items():
        exported = sanitize_metric_name(name, prefix)
        families.append(
            (
                exported,
                [
                    f"# TYPE {exported} counter",
                    f"{exported}_total {_fmt(value)}",
                ],
            )
        )

    for name, value in snapshot.get("gauges", {}).items():
        exported = sanitize_metric_name(name, prefix)
        families.append(
            (
                exported,
                [
                    f"# TYPE {exported} gauge",
                    f"{exported} {_fmt(value)}",
                ],
            )
        )

    for name, data in snapshot.get("histograms", {}).items():
        exported = sanitize_metric_name(name, prefix)
        lines = [f"# TYPE {exported} histogram"]
        cumulative = 0
        counts = list(data.get("counts", []))
        edges = list(data.get("buckets", []))
        for edge, count in zip(edges, counts):
            cumulative += count
            lines.append(
                f'{exported}_bucket{{le="{_fmt(float(edge))}"}} {cumulative}'
            )
        # The implicit overflow bucket becomes the mandatory +Inf one.
        if len(counts) > len(edges):
            cumulative += counts[-1]
        lines.append(f'{exported}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{exported}_count {data.get('total', cumulative)}")
        lines.append(f"{exported}_sum {_fmt(float(data.get('sum', 0.0)))}")
        families.append((exported, lines))

    families.sort(key=lambda item: item[0])
    out: list[str] = []
    for _, lines in families:
        out.extend(lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


#: One exposition sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LE_RE = re.compile(r'le="(?P<le>[^"]+)"')


def parse_exposition(text: str) -> dict[str, Any]:
    """Read an OpenMetrics exposition back into snapshot shape.

    The result uses *exported* names (already sanitized and prefixed)
    with the counter ``_total`` suffix stripped, so feeding it back
    through :func:`to_openmetrics` with ``prefix=""`` round-trips.
    Histogram cumulative buckets are un-cumulated into the per-bucket
    ``counts`` list (overflow element included) that
    :meth:`MetricsRegistry.snapshot` uses.  Samples without a ``# TYPE``
    line parse as gauges; malformed lines are skipped, not fatal —
    federation must tolerate a half-written scrape.
    """
    types: dict[str, str] = {}
    scalars: dict[str, float] = {}
    hist_buckets: dict[str, list[tuple[float, float]]] = {}
    hist_scalars: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) == 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue  # HELP / UNIT / stray comments
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        name = match.group("name")
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            continue
        labels = match.group("labels") or ""
        if name.endswith("_bucket"):
            le_match = _LE_RE.search(labels)
            if le_match:
                try:
                    edge = _parse_value(le_match.group("le"))
                except ValueError:
                    continue
                hist_buckets.setdefault(name[: -len("_bucket")], []).append(
                    (edge, value)
                )
                continue
        if name.endswith("_count"):
            hist_scalars.setdefault(name[: -len("_count")], {})["count"] = value
        elif name.endswith("_sum"):
            hist_scalars.setdefault(name[: -len("_sum")], {})["sum"] = value
        scalars[name] = value

    def _int_safe(value: float) -> int | float:
        return int(value) if float(value).is_integer() else value

    snapshot: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for family, kind in types.items():
        if kind == "counter":
            value = scalars.get(family + "_total")
            if value is not None:
                snapshot["counters"][family] = _int_safe(value)
        elif kind == "histogram":
            pairs = sorted(hist_buckets.get(family, []))
            edges = [edge for edge, _ in pairs if not math.isinf(edge)]
            cumulative = [count for edge, count in pairs if not math.isinf(edge)]
            inf_total = next(
                (count for edge, count in pairs if math.isinf(edge)),
                cumulative[-1] if cumulative else 0.0,
            )
            counts: list[int] = []
            previous = 0.0
            for value in cumulative:
                counts.append(int(max(0.0, value - previous)))
                previous = value
            counts.append(int(max(0.0, inf_total - previous)))  # overflow
            extra = hist_scalars.get(family, {})
            snapshot["histograms"][family] = {
                "buckets": edges,
                "counts": counts,
                "total": int(extra.get("count", inf_total)),
                "sum": extra.get("sum", 0.0),
            }
    consumed = set()
    for family, kind in types.items():
        if kind == "counter":
            consumed.add(family + "_total")
        elif kind == "histogram":
            consumed.update((family + "_count", family + "_sum"))
        elif kind == "gauge":
            value = scalars.get(family)
            if value is not None:
                snapshot["gauges"][family] = value
            consumed.add(family)
    for name, value in scalars.items():
        if name not in consumed and name not in snapshot["gauges"]:
            snapshot["gauges"][name] = value  # untyped sample -> gauge
    return snapshot


def _observe_mean(data: dict[str, Any], total: int, value_sum: float) -> None:
    """Fold ``total`` observations at their mean into ``data``'s buckets.

    The mismatched-edge fallback, mirroring
    :meth:`MetricsRegistry.merge_snapshot`: exact reconstruction is
    impossible, so mass lands in the bucket containing the mean.
    """
    if total <= 0:
        return
    mean = value_sum / total
    edges = data["buckets"]
    index = len(edges)  # overflow by default
    for i, edge in enumerate(edges):
        if mean <= edge:
            index = i
            break
    data["counts"][index] += total
    data["total"] += total
    data["sum"] += value_sum


def merge_expositions(texts: list[str]) -> str:
    """Merge several OpenMetrics expositions into one document.

    Counters sum, gauges take the last exposition's value, histograms
    with matching edges sum per-bucket counts (mismatched edges fall
    back to re-observing the incoming mass at its mean).  Families
    whose type conflicts across expositions keep the first-seen type;
    conflicting incoming samples are dropped.  The merged document has
    exactly one ``# TYPE`` line per family and one ``# EOF``.
    """
    merged: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}

    def _kind_of(name: str) -> str | None:
        for kind in ("counters", "gauges", "histograms"):
            if name in merged[kind]:
                return kind
        return None

    for text in texts:
        snapshot = parse_exposition(text)
        for name, value in snapshot["counters"].items():
            if _kind_of(name) not in (None, "counters"):
                continue
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot["gauges"].items():
            if _kind_of(name) not in (None, "gauges"):
                continue
            merged["gauges"][name] = value
        for name, data in snapshot["histograms"].items():
            kind = _kind_of(name)
            if kind not in (None, "histograms"):
                continue
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = {
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                    "total": data["total"],
                    "sum": data["sum"],
                }
            elif existing["buckets"] == list(data["buckets"]):
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], data["counts"])
                ]
                existing["total"] += data["total"]
                existing["sum"] += data["sum"]
            else:
                _observe_mean(existing, data["total"], data["sum"])
    return to_openmetrics(merged, prefix="")
