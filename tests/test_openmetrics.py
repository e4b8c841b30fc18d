"""Tests for the OpenMetrics text exposition (repro.obs.openmetrics).

The exposition has to be *strictly* parseable — a scraper has no
tolerance for almost-right lines — so the central test validates every
emitted line against the OpenMetrics line grammar, and the rest pin
the semantic rules: counters get ``_total``, histogram buckets are
cumulative with a mandatory ``+Inf`` equal to ``_count``, names are
sanitized into the legal charset, and the output ends with ``# EOF``.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.obs import MetricsRegistry, sanitize_metric_name, to_openmetrics

#: One metric line: name, optional labels, one space, a number.
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\")*\})?"  # labels
    r" (NaN|[+-]Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)
_COMMENT_LINE = re.compile(r"^# (TYPE|HELP|UNIT) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("milp.simplex.pivots").inc(42)
    reg.gauge("deadline.ring.elapsed_s").set(1.25)
    hist = reg.histogram("stage.ring.latency_s", (0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):  # last lands in overflow
        hist.observe(value)
    return reg


class TestLineFormat:
    def test_every_line_matches_the_grammar(self):
        text = to_openmetrics(_registry().snapshot())
        lines = text.splitlines()
        assert lines, "exposition must not be empty"
        assert lines[-1] == "# EOF"
        for line in lines[:-1]:
            assert _METRIC_LINE.match(line) or _COMMENT_LINE.match(line), (
                f"line violates the OpenMetrics grammar: {line!r}"
            )

    def test_ends_with_eof_newline(self):
        assert to_openmetrics(_registry().snapshot()).endswith("# EOF\n")
        assert to_openmetrics(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ).endswith("# EOF\n")

    def test_type_line_precedes_every_family(self):
        text = to_openmetrics(_registry().snapshot())
        lines = text.splitlines()
        seen_types = {}
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, family_type = line.split(" ")
                seen_types[name] = family_type
        assert seen_types["xring_milp_simplex_pivots"] == "counter"
        assert seen_types["xring_deadline_ring_elapsed_s"] == "gauge"
        assert seen_types["xring_stage_ring_latency_s"] == "histogram"


class TestSemantics:
    def test_counter_gets_total_suffix(self):
        text = to_openmetrics(_registry().snapshot())
        assert "xring_milp_simplex_pivots_total 42" in text.splitlines()

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = to_openmetrics(_registry().snapshot())
        buckets = {
            m.group(1): int(m.group(2))
            for m in re.finditer(
                r'xring_stage_ring_latency_s_bucket\{le="([^"]+)"\} (\d+)',
                text,
            )
        }
        assert buckets == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}
        assert "xring_stage_ring_latency_s_count 4" in text
        # cumulative: monotone nondecreasing, +Inf == _count
        values = [buckets["0.1"], buckets["1"], buckets["10"], buckets["+Inf"]]
        assert values == sorted(values)

    def test_gauge_value_verbatim(self):
        text = to_openmetrics(_registry().snapshot())
        assert "xring_deadline_ring_elapsed_s 1.25" in text.splitlines()

    def test_nonfinite_values_use_openmetrics_spellings(self):
        reg = MetricsRegistry()
        reg.gauge("a").set(math.nan)
        reg.gauge("b").set(math.inf)
        reg.gauge("c").set(-math.inf)
        lines = to_openmetrics(reg.snapshot()).splitlines()
        assert "xring_a NaN" in lines
        assert "xring_b +Inf" in lines
        assert "xring_c -Inf" in lines

    def test_empty_histogram_still_exposes_count_and_sum(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0,))
        text = to_openmetrics(reg.snapshot())
        assert "xring_h_count 0" in text
        assert "xring_h_sum 0" in text
        assert 'xring_h_bucket{le="+Inf"} 0' in text


class TestNameSanitization:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("milp.simplex.pivots") == (
            "xring_milp_simplex_pivots"
        )
        assert sanitize_metric_name("a-b c") == "xring_a_b_c"

    def test_leading_digit_is_guarded(self):
        name = sanitize_metric_name("2fast", prefix="")
        assert re.match(r"^[a-zA-Z_:]", name)

    def test_sanitized_names_are_always_legal(self):
        for raw in ("", "---", "über.metric", "9lives", "ok_name"):
            name = sanitize_metric_name(raw)
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), raw

    def test_collision_free_export_of_hostile_names(self):
        reg = MetricsRegistry()
        reg.counter("weird name!").inc(1)
        reg.gauge("9lives").set(2.0)
        text = to_openmetrics(reg.snapshot())
        for line in text.splitlines()[:-1]:
            assert _METRIC_LINE.match(line) or _COMMENT_LINE.match(line), line


class TestPrefix:
    def test_custom_prefix(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        text = to_openmetrics(reg.snapshot(), prefix="repro")
        assert "repro_n_total 1" in text

    def test_bad_prefix_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        with pytest.raises(ValueError):
            to_openmetrics(reg.snapshot(), prefix="9bad")

