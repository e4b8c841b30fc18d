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

