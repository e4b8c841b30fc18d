"""The resilience subsystem: deadlines, typed errors, fault injection.

The integration tests drive :class:`XRingSynthesizer` with scripted
:class:`FaultPlan`\\ s and assert the contract of the degradation
chain: every degraded path terminates within the deadline, the result
still passes ``validate_design``, and the attached
:class:`SynthesisReport` records what happened.  Stalls burn deadline
budget without sleeping, so the whole suite runs in real milliseconds.
"""

from __future__ import annotations

import time

import pytest

from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.core.validate import validate_design
from repro.robustness import (
    ConfigurationError,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    InputError,
    StageRecord,
    SynthesisError,
    SynthesisReport,
    ValidationFailure,
)
from repro.robustness.report import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_PROVIDED,
    STATUS_REPAIRED,
    STATUS_SKIPPED,
)


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited()
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        deadline.check("anywhere")  # must not raise

    def test_consume_burns_budget_without_sleeping(self):
        deadline = Deadline(10.0)
        before = time.monotonic()
        deadline.consume(9.999)
        assert time.monotonic() - before < 1.0
        assert deadline.elapsed() >= 9.999
        deadline.consume(1.0)
        assert deadline.expired()

    def test_check_raises_typed_error_with_stage(self):
        deadline = Deadline(1.0)
        deadline.consume(2.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("mapping")
        assert excinfo.value.stage == "mapping"
        assert excinfo.value.cause == "timeout"
        assert isinstance(excinfo.value, SynthesisError)

    def test_clamp_folds_stage_limit_into_budget(self):
        deadline = Deadline(10.0)
        assert deadline.clamp(3.0) == pytest.approx(3.0, abs=0.5)
        deadline.consume(9.0)
        assert deadline.clamp(3.0) == pytest.approx(1.0, abs=0.5)
        assert Deadline.unlimited().clamp(None) is None
        assert Deadline.unlimited().clamp(5.0) == 5.0

    def test_stage_accounting_includes_consumed_time(self):
        deadline = Deadline(100.0)
        with deadline.stage("ring"):
            deadline.consume(4.0)
        assert deadline.stage_elapsed_s["ring"] >= 4.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestErrorTaxonomy:
    def test_configuration_error_is_value_error(self):
        # Legacy call sites guard with ``except ValueError``.
        err = ConfigurationError("bad knob")
        assert isinstance(err, ValueError)
        assert isinstance(err, SynthesisError)
        assert err.stage == "options"

    def test_str_carries_stage_and_cause(self):
        err = SynthesisError("boom", stage="ring", cause="infeasible")
        assert "[ring/infeasible]" in str(err)

    def test_validation_failure_keeps_violations(self):
        err = ValidationFailure("broken", violations=("v1", "v2"))
        assert err.violations == ("v1", "v2")
        assert err.context["violations"] == ["v1", "v2"]


class TestReport:
    def test_clean_report_is_not_degraded(self):
        report = SynthesisReport()
        report.record(StageRecord("ring"))
        assert not report.degraded
        assert report.fallbacks == ()
        assert report.summary() == "clean"

    def test_fallbacks_and_dict_roundtrip(self):
        report = SynthesisReport(deadline_s=5.0)
        report.record(
            StageRecord("ring", status=STATUS_FALLBACK, fallback="heuristic_ring")
        )
        assert report.degraded
        assert report.fallbacks == ("ring:heuristic_ring",)
        dumped = report.to_dict()
        assert dumped["degraded"] is True
        assert dumped["fallbacks"] == ["ring:heuristic_ring"]
        assert dumped["stages"][0]["name"] == "ring"


class TestFaultPlan:
    def test_faults_are_one_shot(self):
        plan = FaultPlan().error("ring")
        deadline = Deadline.unlimited()
        with pytest.raises(FaultInjected):
            plan.apply_before("ring", deadline)
        plan.apply_before("ring", deadline)  # second call: nothing left
        assert plan.exhausted

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().corrupt("mapping", "no_such_mutation")

    @pytest.mark.parametrize(
        "stage, corruption",
        [("pdn", "drop_assignment"), ("validate", "drop_assignment")],
    )
    def test_corruption_of_another_stages_artifact_rejected(
        self, stage, corruption
    ):
        # A PDN has no assignments to drop (the run used to end in an
        # AttributeError), and the final gate fires no corruptions (the
        # fault was never consumed): both are refused when built.
        with pytest.raises(ValueError, match="mapping artifact"):
            FaultPlan().corrupt(stage, corruption)


class TestEagerOptionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ring_method": "quantum"},
            {"pdn_mode": "bogus"},
            {"mapping_order": "random"},
            {"direction_policy": "widdershins"},
            {"lazy_conflicts": "sometimes"},
            {"on_error": "panic"},
            {"deadline_s": 0.0},
            {"deadline_s": -5.0},
            {"wl_budget": 0},
        ],
    )
    def test_bad_options_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            SynthesisOptions(**kwargs)

    def test_bad_options_also_catchable_as_value_error(self):
        with pytest.raises(ValueError):
            SynthesisOptions(pdn_mode="bogus")

    def test_non_positive_wl_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisOptions(wl_budget=0)
        with pytest.raises(ConfigurationError):
            SynthesisOptions(wl_budget=-3)

    def test_none_wl_budget_defaults_to_node_count(self, network8, tour8):
        # The old ``opts.wl_budget or N`` idiom; None must mean N and
        # nothing else.
        design = XRingSynthesizer(
            network8, SynthesisOptions(wl_budget=None)
        ).run(tour=tour8)
        assert design.mapping.wl_budget == network8.size

    def test_pdn_mode_none_skips_pdn(self, network8, tour8):
        design = XRingSynthesizer(
            network8, SynthesisOptions(pdn_mode=None)
        ).run(tour=tour8)
        assert design.pdn is None
        assert design.report.stage("pdn").status == STATUS_OK


class TestCleanRunReport:
    def test_report_attached_and_clean(self, network8, tour8):
        design = XRingSynthesizer(network8, SynthesisOptions()).run(tour=tour8)
        report = design.report
        assert report is not None
        assert not report.degraded
        assert report.stage("ring").status == STATUS_PROVIDED
        for name in ("shortcuts", "mapping", "pdn", "validate"):
            assert report.stage(name).status == STATUS_OK
        assert report.total_elapsed_s > 0.0
        assert report.retries == 0

    def test_per_stage_elapsed_recorded(self, network8):
        design = XRingSynthesizer(network8, SynthesisOptions()).run()
        stages = {s.name: s for s in design.report.stages}
        assert stages["ring"].elapsed_s > 0.0
        assert sum(s.elapsed_s for s in stages.values()) <= (
            design.report.total_elapsed_s + 1e-6
        )

    @pytest.mark.parametrize("pdn_mode", ["internal", None])
    def test_every_stage_elapsed_matches_its_deadline_gauge(
        self, network8, pdn_mode
    ):
        design = XRingSynthesizer(
            network8, SynthesisOptions(pdn_mode=pdn_mode)
        ).run()
        gauges = design.report.metrics["gauges"]
        names = [s.name for s in design.report.stages]
        assert names == ["ring", "shortcuts", "mapping", "pdn", "validate"]
        for record in design.report.stages:
            gauge = gauges[f"deadline.{record.name}.elapsed_s"]
            assert gauge > 0.0
            assert record.elapsed_s == gauge, record.name


class TestDegradationChain:
    """Every injected failure ends in a valid design, on time."""

    def _run(self, network, fault_plan, **option_kwargs):
        options = SynthesisOptions(**option_kwargs)
        synthesizer = XRingSynthesizer(
            network, options, fault_plan=fault_plan
        )
        before = time.monotonic()
        design = synthesizer.run()
        wall_s = time.monotonic() - before
        assert fault_plan.exhausted, "a scripted fault never fired"
        assert validate_design(design) == []
        return design, wall_s

    def test_milp_stall_degrades_to_heuristic_ring(self, network8):
        # A solver stall eats the whole budget before Step 1; the chain
        # must deliver a validating design via the heuristic ring and
        # terminate without waiting out the (virtual) 1000 seconds.
        plan = FaultPlan().stall("ring", 1000.0)
        design, wall_s = self._run(network8, plan, deadline_s=30.0)
        record = design.report.stage("ring")
        assert record.status == STATUS_FALLBACK
        assert record.fallback == "heuristic_ring"
        assert "deadline" in record.error
        assert design.report.degraded
        assert wall_s < 30.0

    def test_ring_error_degrades_to_heuristic_ring(self, network8):
        plan = FaultPlan().error("ring", "solver crashed")
        design, _ = self._run(network8, plan)
        record = design.report.stage("ring")
        assert record.fallback == "heuristic_ring"
        assert "solver crashed" in record.error

    def test_ring_infeasible_degrades_to_heuristic_ring(self, network8):
        plan = FaultPlan().infeasible("ring")
        design, _ = self._run(network8, plan)
        assert design.report.stage("ring").fallback == "heuristic_ring"

    def test_shortcut_failure_degrades_to_no_shortcuts(self, network8):
        plan = FaultPlan().error("shortcuts")
        design, _ = self._run(network8, plan)
        assert design.report.stage("shortcuts").fallback == "no_shortcuts"
        assert design.shortcut_count == 0

    def test_mapping_failure_degrades_to_plain_ring(self, network8):
        plan = FaultPlan().error("mapping")
        design, _ = self._run(network8, plan)
        record = design.report.stage("mapping")
        assert record.status == STATUS_FALLBACK
        assert record.fallback == "plain_ring"
        assert design.shortcut_count == 0
        # Plain ring still serves every demand.
        assert len(design.mapping.assignments) == len(network8.demands())

    def test_pdn_failure_skips_pdn(self, network8):
        plan = FaultPlan().error("pdn")
        design, _ = self._run(network8, plan)
        assert design.report.stage("pdn").status == STATUS_SKIPPED
        assert design.pdn is None

    def test_multiple_faults_compound(self, network8):
        plan = FaultPlan().error("ring").error("shortcuts").error("pdn")
        design, _ = self._run(network8, plan)
        assert set(design.report.fallbacks) >= {
            "ring:heuristic_ring",
            "shortcuts:no_shortcuts",
            "pdn:no_pdn",
        }

    def test_exhausted_deadline_still_finishes(self, network8):
        # Budget gone before anything runs: every stage takes its
        # cheapest path, and the run still ends in a valid design.
        plan = FaultPlan().stall("ring", 10.0)
        design, wall_s = self._run(network8, plan, deadline_s=5.0)
        assert design.report.degraded
        assert wall_s < 5.0
        assert validate_design(design) == []


class TestRepairGates:
    def test_corrupted_tour_is_repaired(self, network8):
        plan = FaultPlan().corrupt("ring", "shift_position")
        design = XRingSynthesizer(
            network8, SynthesisOptions(), fault_plan=plan
        ).run()
        record = design.report.stage("ring")
        assert record.status == STATUS_REPAIRED
        assert design.report.retries == 1
        assert validate_design(design) == []

    def test_dropped_assignment_triggers_remap(self, network8):
        plan = FaultPlan().corrupt("mapping", "drop_assignment")
        design = XRingSynthesizer(
            network8, SynthesisOptions(), fault_plan=plan
        ).run()
        assert design.report.stage("mapping").status == STATUS_REPAIRED
        assert design.report.retries == 1
        assert validate_design(design) == []

    def test_wavelength_overflow_triggers_remap(self, network8):
        plan = FaultPlan().corrupt("mapping", "wavelength_overflow")
        design = XRingSynthesizer(
            network8, SynthesisOptions(), fault_plan=plan
        ).run()
        assert design.report.stage("mapping").status == STATUS_REPAIRED
        assert validate_design(design) == []

    def test_negative_gain_shortcut_caught_at_mapping_gate(self, network8):
        plan = FaultPlan().corrupt("shortcuts", "negative_gain")
        design = XRingSynthesizer(
            network8, SynthesisOptions(), fault_plan=plan
        ).run()
        assert design.report.retries >= 1
        assert validate_design(design) == []


class TestRaisePolicy:
    """``on_error="raise"`` restores fail-fast semantics."""

    def test_injected_ring_error_propagates(self, network8):
        plan = FaultPlan().error("ring", "solver crashed")
        synthesizer = XRingSynthesizer(
            network8, SynthesisOptions(on_error="raise"), fault_plan=plan
        )
        with pytest.raises(FaultInjected) as excinfo:
            synthesizer.run()
        assert excinfo.value.stage == "ring"

    def test_deadline_expiry_propagates(self, network8):
        plan = FaultPlan().stall("ring", 100.0)
        synthesizer = XRingSynthesizer(
            network8,
            SynthesisOptions(on_error="raise", deadline_s=10.0),
            fault_plan=plan,
        )
        with pytest.raises(DeadlineExceeded):
            synthesizer.run()

    def test_input_errors_never_degrade(self):
        from repro.geometry import Point
        from repro.network import Network

        # Duplicate positions break the heuristic fallback too, so the
        # degrade policy must not mask them.
        points = [Point(0, 0), Point(0, 0), Point(1, 1), Point(2, 0)]
        network = Network.from_positions(points)
        synthesizer = XRingSynthesizer(network, SynthesisOptions())
        with pytest.raises(InputError):
            synthesizer.run()


class TestProvenanceInRows:
    def test_degraded_flag_reaches_experiment_rows(self, network8, tour8):
        from repro.experiments.common import evaluate_design
        from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES

        plan = FaultPlan().error("shortcuts")
        design = XRingSynthesizer(
            network8, SynthesisOptions(), fault_plan=plan
        ).run(tour=tour8)
        row = evaluate_design(design, ORING_LOSSES, NIKDAST_CROSSTALK)
        assert row.degraded
        assert "shortcuts:no_shortcuts" in row.fallbacks

    def test_unknown_router_kind_is_typed(self):
        from repro.experiments.common import _router_options
        from repro.photonics import ORING_LOSSES

        with pytest.raises(ConfigurationError):
            _router_options("warpdrive", 8, ORING_LOSSES, True)
