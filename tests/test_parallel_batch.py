"""Unit tests for the batch engine and the L2 cache holder."""

from __future__ import annotations

import sys

import pytest

from repro.core import synthesizer as synthesizer_module
from repro.core.shortcuts import ShortcutPlan, copy_plan
from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.geometry import Point
from repro.network import Network
from repro.obs import MetricsRegistry, stitch_spans
from repro.parallel import (
    BatchCase,
    BatchError,
    BatchSynthesizer,
    SupervisorConfig,
    canonical_points,
    clear_caches,
    get_cache,
)
from repro.robustness.errors import ConfigurationError, SynthesisError
from tests.test_property_invariants import FLOORPLANS


def _heuristic_case(network: Network, label: str, **options) -> BatchCase:
    options.setdefault("ring_method", "heuristic")
    return BatchCase(
        network=network,
        options=SynthesisOptions(label=label, **options),
        label=label,
    )


@pytest.fixture
def fresh_cache():
    clear_caches()
    yield get_cache()
    clear_caches()


class TestBatchSynthesizer:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            BatchSynthesizer(workers=0)
        with pytest.raises(ConfigurationError):
            BatchSynthesizer(on_error="ignore")

    def test_results_in_input_order(self, network8, network16):
        cases = [
            _heuristic_case(network16, "big"),
            _heuristic_case(network8, "small"),
            _heuristic_case(network8, "small/half", wl_budget=4),
        ]
        report = BatchSynthesizer(workers=2).run(cases)
        assert [r.label for r in report.results] == [
            "big",
            "small",
            "small/half",
        ]
        assert [r.index for r in report.results] == [0, 1, 2]
        assert report.ok
        assert all(d is not None for d in report.designs)

    def test_failed_case_is_collected_not_fatal(self, network8):
        duplicated = [Point(0.0, 0.0)] * 4
        bad = BatchCase(
            network=Network.from_positions(duplicated),
            options=SynthesisOptions(ring_method="heuristic"),
            label="bad",
        )
        report = BatchSynthesizer(workers=1).run(
            [_heuristic_case(network8, "good"), bad]
        )
        assert not report.ok
        assert [r.label for r in report.errors] == ["bad"]
        assert "InputError" in report.errors[0].error
        assert report.results[0].ok
        assert report.metrics.snapshot()["counters"]["batch.failures"] == 1

    def test_on_error_raise_names_first_failure(self, network8):
        duplicated = [Point(0.0, 0.0)] * 4
        bad = BatchCase(
            network=Network.from_positions(duplicated),
            options=SynthesisOptions(ring_method="heuristic"),
            label="bad",
        )
        with pytest.raises(BatchError, match="bad"):
            BatchSynthesizer(workers=1, on_error="raise").run([bad])

    def test_merged_metrics_accumulate_across_cases(self, network8):
        cases = [
            _heuristic_case(network8, f"case{i}") for i in range(3)
        ]
        report = BatchSynthesizer(workers=1).run(cases)
        counters = report.metrics.snapshot()["counters"]
        assert counters["batch.cases"] == 3
        assert counters["batch.failures"] == 0
        # Each case ran its own registry; the merge folds them, so
        # per-case counters appear with a batch-wide total.
        per_case = report.results[0].metrics["counters"]
        for name, value in per_case.items():
            assert counters[name] >= value

    def test_tour_sharing_constructs_step1_once(self, network8):
        cases = [
            _heuristic_case(network8, "sweep/4", wl_budget=4),
            _heuristic_case(network8, "sweep/8", wl_budget=8),
        ]
        report = BatchSynthesizer(workers=1, share_tours=True).run(cases)
        assert report.ok
        first, second = report.designs
        assert first.tour.order == second.tour.order
        # The shared tour is attached before fan-out, so both runs
        # record Step 1 as provided rather than constructed.
        for design in report.designs:
            assert design.report.stage("ring").status == "provided"

    def test_shared_crossed_heuristic_tour_is_repaired_like_serial(self):
        # The parent shares a heuristic tour with residual crossings;
        # each case must repair it as a serial run would (MILP ring),
        # not rebuild the same crossed tour and fail.
        from tests.test_validate import heuristic_crossed_lattice14

        network = Network.from_positions(heuristic_crossed_lattice14())
        cases = [
            _heuristic_case(network, "lattice/4", wl_budget=4),
            _heuristic_case(network, "lattice/8", wl_budget=8),
        ]
        report = BatchSynthesizer(workers=1, share_tours=True).run(cases)
        assert report.ok
        for case, design in zip(cases, report.designs):
            record = design.report.stage("ring")
            assert record.status == "repaired"
            assert record.fallback == "milp_ring"
            serial = XRingSynthesizer(case.network, case.options).run()
            assert design.tour.crossing_count == 0
            assert design.to_dict() == serial.to_dict()

    def test_spans_carry_case_labels(self, network8):
        report = BatchSynthesizer(workers=1, collect_spans=True).run(
            [_heuristic_case(network8, "traced")]
        )
        assert report.span_records
        assert {s["case"] for s in report.span_records} == {"traced"}
        assert {"synthesize"} <= {s["name"] for s in report.span_records}


def _variant_grid(network: Network, selection: str) -> list[BatchCase]:
    """The batch_sweep grid: budget N and N/2 x shortcuts x openings."""
    nodes = network.size
    cases = []
    for budget in (nodes, nodes // 2):
        for shortcuts in (True, False):
            for openings in (True, False):
                label = f"wl{budget}{'s' * shortcuts}{'o' * openings}"
                options = SynthesisOptions(
                    wl_budget=budget,
                    enable_shortcuts=shortcuts,
                    enable_openings=openings,
                    shortcut_selection=selection,
                    label=label,
                )
                cases.append(BatchCase(network=network, options=options, label=label))
    return cases


def _serial(case: BatchCase) -> dict:
    return XRingSynthesizer(case.network, case.options).run().to_dict()


#: Small property-corpus floorplans: their MILP rings solve in
#: milliseconds, so the grid runs under both policies and pool sizes.
SMALL_FLOORPLANS = [points for points in FLOORPLANS if len(points) <= 10][:3]


def _in_worker() -> bool:
    """Whether the caller runs inside a batch case (not the parent)."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == "_execute_case":
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def selection_calls(monkeypatch):
    """Records ``(in_worker, enabled)`` per Step-2 selection call."""
    calls: list[tuple[bool, bool]] = []
    real = synthesizer_module.select_shortcuts

    def counting(tour, **kwargs):
        calls.append((_in_worker(), kwargs["enabled"]))
        return real(tour, **kwargs)

    monkeypatch.setattr(synthesizer_module, "select_shortcuts", counting)
    return calls


class TestStepTwoSharing:
    """The parent selects one plan per group of cases whose Step-2
    inputs match; batch designs stay identical to serial runs."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("selection", ["gain", "ring_length"])
    @pytest.mark.parametrize("plan_index", range(len(SMALL_FLOORPLANS)))
    def test_variant_grid_matches_serial(self, workers, selection, plan_index):
        network = Network.from_positions(SMALL_FLOORPLANS[plan_index])
        cases = _variant_grid(network, selection)
        report = BatchSynthesizer(workers=workers).run(cases)
        assert report.ok
        provided = 0
        for case, design in zip(cases, report.designs):
            assert design.to_dict() == _serial(case)
            status = design.report.stage("shortcuts").status
            if status == "provided":
                provided += 1
                assert case.options.enable_shortcuts
        # One group of four, unless the ring gate repaired the tour.
        repaired = report.designs[0].report.stage("ring").status == "repaired"
        assert provided == (0 if repaired else 4)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_tour_honours_the_conflict_mode(self, network16, workers):
        # Lazy and eager Step 1 reach equal-length psion-16 tours in a
        # different order, so a parent that ignored lazy_conflicts
        # would hand these cases the eager tour.
        cases = [
            BatchCase(
                network=network16,
                options=SynthesisOptions(
                    lazy_conflicts=True, wl_budget=wl, label=f"lazy/{wl}"
                ),
                label=f"lazy/{wl}",
            )
            for wl in (8, 16)
        ]
        report = BatchSynthesizer(workers=workers).run(cases)
        assert report.ok
        for case, design in zip(cases, report.designs):
            assert design.report.stage("ring").status == "provided"
            assert design.to_dict() == _serial(case)

    def test_repaired_tour_drops_the_provided_plan(self, selection_calls):
        from tests.test_validate import heuristic_crossed_lattice14

        network = Network.from_positions(heuristic_crossed_lattice14())
        cases = [
            _heuristic_case(network, f"lattice/{wl}", wl_budget=wl)
            for wl in (4, 8)
        ]
        report = BatchSynthesizer(workers=1).run(cases)
        assert report.ok
        # The parent selected on the crossed tour; each case repaired
        # the tour and selected again on the repaired one.
        assert selection_calls == [(False, True), (True, True), (True, True)]
        for case, design in zip(cases, report.designs):
            assert design.report.stage("ring").status == "repaired"
            assert design.report.stage("shortcuts").status == "ok"
            assert design.to_dict() == _serial(case)

    def test_one_parent_selection_per_group(self, network8, selection_calls):
        shared = [
            _heuristic_case(network8, f"s{wl}{o}", wl_budget=wl, enable_openings=o)
            for wl in (4, 8)
            for o in (True, False)
        ]
        lone = _heuristic_case(network8, "lone", shortcut_selection="ring_length")
        off = _heuristic_case(network8, "off", enable_shortcuts=False)
        timed = [
            _heuristic_case(network8, f"timed{i}", deadline_s=60.0) for i in range(2)
        ]
        report = BatchSynthesizer(workers=1).run(shared + [lone, off] + timed)
        assert report.ok
        enabled_calls = [in_worker for in_worker, enabled in selection_calls if enabled]
        # One parent call for the group of four; the size-1 group and
        # the two deadline cases select in-worker.
        assert enabled_calls.count(False) == 1
        assert enabled_calls.count(True) == 3
        statuses = [d.report.stage("shortcuts").status for d in report.designs]
        assert statuses == ["provided"] * 4 + ["ok"] * 4

    def test_parent_work_lands_in_the_report_once(self, network8):
        cases = [_heuristic_case(network8, f"s{wl}", wl_budget=wl) for wl in (4, 8)]
        serial = XRingSynthesizer(network8, cases[0].options).run()
        report = BatchSynthesizer(workers=1, collect_spans=True).run(cases)
        assert report.ok
        counters = report.metrics.snapshot()["counters"]
        serial_counters = serial.report.metrics["counters"]
        for name in ("shortcuts.candidates", "shortcuts.selected"):
            assert counters[name] == serial_counters[name]
            for result in report.results:
                assert name not in result.metrics["counters"]
        share = [s for s in report.span_records if s["name"].startswith("batch.share")]
        by_uid = {s["span_uid"]: s for s in share}
        names = {s["name"]: s for s in share}
        assert set(names) == {"batch.share", "batch.share.ring", "batch.share.shortcuts"}
        for child in ("batch.share.ring", "batch.share.shortcuts"):
            assert by_uid[names[child]["parent_uid"]]["name"] == "batch.share"
        assert names["batch.share.shortcuts"]["attributes"]["plans"] == 1
        assert stitch_spans(report.span_records)["orphans"] == []

    def test_parent_failure_lets_cases_select_their_own(self, network8, monkeypatch):
        cases = [_heuristic_case(network8, f"s{wl}", wl_budget=wl) for wl in (4, 8)]
        expected = [_serial(case) for case in cases]
        real = synthesizer_module.select_shortcuts

        def parent_fails(tour, **kwargs):
            if not _in_worker():
                raise SynthesisError("parent-side selection failed")
            return real(tour, **kwargs)

        monkeypatch.setattr(synthesizer_module, "select_shortcuts", parent_fails)
        report = BatchSynthesizer(workers=1).run(cases)
        assert report.ok
        assert [d.to_dict() for d in report.designs] == expected
        for design in report.designs:
            assert design.report.stage("shortcuts").status == "ok"

    @pytest.mark.parametrize("on_error", ["degrade", "raise"])
    def test_failing_selection_degrades_as_serially(
        self, network8, monkeypatch, on_error
    ):
        def always_fails(tour, **kwargs):
            raise SynthesisError("selection failed")

        monkeypatch.setattr(synthesizer_module, "select_shortcuts", always_fails)
        cases = [
            _heuristic_case(network8, f"s{wl}", wl_budget=wl, on_error=on_error)
            for wl in (4, 8)
        ]
        report = BatchSynthesizer(
            workers=1, config=SupervisorConfig(max_attempts=1)
        ).run(cases)
        for case, result in zip(cases, report.results):
            try:
                serial = XRingSynthesizer(case.network, case.options).run()
            except SynthesisError as exc:
                assert result.error == f"{type(exc).__name__}: {exc}"
            else:
                record = result.design.report.stage("shortcuts")
                assert record.fallback == "no_shortcuts"
                assert result.design.to_dict() == serial.to_dict()
        assert report.ok == (on_error == "degrade")


class TestMergeSnapshot:
    def test_counters_gauges_histograms_merge_exactly(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(7.5)
        source.histogram("h").observe(0.02)
        source.histogram("h").observe(5.0)

        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.merge_snapshot(source.snapshot())

        snap = target.snapshot()
        assert snap["counters"]["c"] == 4
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["total"] == 2
        assert snap["histograms"]["h"]["sum"] == pytest.approx(5.02)
        assert snap["histograms"]["h"]["min"] == pytest.approx(0.02)
        assert snap["histograms"]["h"]["max"] == pytest.approx(5.0)

    def test_empty_histogram_merges_as_empty(self):
        source = MetricsRegistry()
        source.histogram("h")
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot()["histograms"]["h"]["total"] == 0


class TestSynthesisCache:
    POINTS = [
        Point(0.0, 0.0),
        Point(0.4, 0.0),
        Point(0.4, 0.4),
        Point(0.0, 0.4),
    ]

    def test_canonical_points_preserves_order(self):
        key = canonical_points(self.POINTS)
        assert key == ((0.0, 0.0), (0.4, 0.0), (0.4, 0.4), (0.0, 0.4))

    def test_copy_plan_shields_cached_original(self):
        plan = ShortcutPlan(shortcuts=[], served={})
        clone = copy_plan(plan)
        clone.shortcuts.append("corrupted")
        clone.served[(0, 1)] = ()
        assert plan.shortcuts == []
        assert plan.served == {}

    def test_clear_caches_detaches_l2(self, fresh_cache):
        class Backend:
            def stats(self):
                return {"entries": 3}

        assert fresh_cache.stats() == {}
        fresh_cache.attach_l2(Backend())
        assert get_cache().stats() == {"l2": {"entries": 3}}
        clear_caches()
        assert get_cache().l2 is None
        assert get_cache().stats() == {}
