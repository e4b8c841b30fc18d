"""Top-level XRing synthesis flow with graceful degradation.

:class:`XRingSynthesizer` runs the paper's four steps in order on a
:class:`~repro.network.Network` and returns an
:class:`~repro.core.design.XRingDesign`.  :class:`SynthesisOptions`
exposes every knob the experiments and ablations need (wavelength
budget, shortcut/opening toggles, PDN mode, MILP time limit) and is
validated eagerly, so typos fail at construction instead of deep
inside a stage.

The flow is resilient by default (``on_error="degrade"``): every stage
runs under a shared :class:`~repro.robustness.deadline.Deadline`, and a
stage that times out, proves infeasible, or raises falls back along a
degradation chain instead of hanging or surfacing garbage:

- ring MILP timeout/infeasibility → heuristic ring (nearest-neighbour
  + 2-opt); an in-budget incumbent is kept and flagged;
- shortcut failure → no shortcuts;
- mapping failure → plain-ring mapping (no shortcuts, demand order);
- PDN failure → design without a PDN.

Validation gates re-check the design rules after mapping and at the
end; a gate failure triggers one bounded repair-retry (plain-ring
remap) before a typed :class:`~repro.robustness.errors.ValidationFailure`
is raised.  Every fallback, retry, and per-stage elapsed time lands in
the machine-readable :class:`~repro.robustness.report.SynthesisReport`
attached to the design.  ``on_error="raise"`` restores the old
fail-fast behaviour: the first stage error propagates as a typed
:class:`~repro.robustness.errors.SynthesisError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import geometry
from repro.core.design import XRingDesign
from repro.core.heuristic_ring import construct_ring_tour_heuristic
from repro.core.mapping import SignalMapping, map_signals
from repro.core.pdn import PdnDesign, build_pdn
from repro.core.ring import (
    LAZY_THRESHOLD,
    RingTour,
    construct_ring_tour,
    validate_ring_points,
)
from repro.core.shortcuts import ShortcutPlan, copy_plan, select_shortcuts
from repro.core.validate import validate_design
from repro.network import Network
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    ObsContext,
    get_logger,
    get_obs,
    use_obs,
)
from repro.photonics.parameters import ORING_LOSSES, LossParameters
from repro.robustness import (
    ConfigurationError,
    Deadline,
    FaultPlan,
    InputError,
    StageRecord,
    SynthesisError,
    SynthesisReport,
    ValidationFailure,
)
from repro.robustness.report import (
    STATUS_FAILED,
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_PROVIDED,
    STATUS_REPAIRED,
    STATUS_SKIPPED,
)

_RING_METHODS = ("milp", "heuristic")
_SHORTCUT_SELECTIONS = ("gain", "ring_length")
_PDN_MODES = ("internal", "external")
_MAPPING_ORDERS = ("length", "demand")
_DIRECTION_POLICIES = ("shortest", "first_fit")
_ON_ERROR_POLICIES = ("raise", "degrade")

#: Exceptions a degrading stage must NOT swallow: they indicate a bad
#: call, not a runtime failure, and the fallback would hit them too.
_NON_DEGRADABLE = (ConfigurationError, InputError)

_log = get_logger("synthesizer")


def _require(value, allowed, option: str) -> None:
    if value not in allowed:
        raise ConfigurationError(
            f"unknown {option} {value!r}; allowed: "
            + ", ".join(repr(a) for a in allowed),
            context={"option": option, "value": value},
        )


@dataclass
class SynthesisOptions:
    """Configuration of one synthesis run.

    ``wl_budget=None`` defaults to the node count N, the paper's
    typical best setting; experiments sweep this value explicitly (an
    explicit budget must be >= 1 — zero is rejected, not silently
    replaced).  ``pdn_mode`` may be ``"internal"`` (XRing),
    ``"external"`` (baseline-style, crossings counted) or ``None``
    (no PDN, Table I).  ``deadline_s`` bounds the whole run;
    ``on_error`` selects ``"degrade"`` (fallback chain, the default)
    or ``"raise"`` (fail fast on the first stage error).  All
    categorical options are validated here, at construction.
    """

    wl_budget: int | None = None
    #: Step-1 algorithm: "milp" (the paper's exact model) or
    #: "heuristic" (nearest-neighbour + 2-opt + conflict repair, for
    #: networks beyond the paper's 32 nodes).
    ring_method: str = "milp"
    enable_shortcuts: bool = True
    shortcut_selection: str = "gain"
    enable_openings: bool = True
    pdn_mode: str | None = "internal"
    mapping_order: str = "length"
    direction_policy: str = "shortest"
    milp_time_limit: float | None = None
    #: Conflict-constraint handling for the ring MILP: ``True`` uses
    #: lazy cutting-plane generation (skip the O(E²) conflict
    #: precompute; add only violated rows), ``False`` builds the eager
    #: model, ``None`` (auto) goes lazy at
    #: :data:`repro.core.ring.LAZY_THRESHOLD` nodes and above.
    lazy_conflicts: bool | None = None
    loss: LossParameters = field(default_factory=lambda: ORING_LOSSES)
    label: str = "xring"
    #: Whole-run wall-clock budget in seconds (None = unlimited).
    deadline_s: float | None = None
    #: "degrade" (fallback chain) or "raise" (old fail-fast behaviour).
    on_error: str = "degrade"
    #: Run validation gates (post-mapping and final) with one bounded
    #: repair-retry each.
    validate: bool = True

    def __post_init__(self) -> None:
        _require(self.ring_method, _RING_METHODS, "ring method")
        _require(self.shortcut_selection, _SHORTCUT_SELECTIONS, "shortcut selection")
        if self.pdn_mode is not None:
            _require(self.pdn_mode, _PDN_MODES, "PDN mode")
        _require(self.mapping_order, _MAPPING_ORDERS, "mapping order")
        _require(self.direction_policy, _DIRECTION_POLICIES, "direction policy")
        _require(self.on_error, _ON_ERROR_POLICIES, "on_error policy")
        if self.lazy_conflicts not in (None, True, False):
            raise ConfigurationError(
                f"lazy_conflicts must be True, False or None (auto), "
                f"got {self.lazy_conflicts!r}",
                context={"lazy_conflicts": self.lazy_conflicts},
            )
        if self.wl_budget is not None and self.wl_budget < 1:
            raise ConfigurationError(
                f"wavelength budget must be >= 1 (or None for N), "
                f"got {self.wl_budget}",
                context={"wl_budget": self.wl_budget},
            )
        if self.milp_time_limit is not None and self.milp_time_limit <= 0:
            raise ConfigurationError(
                f"milp_time_limit must be positive, got {self.milp_time_limit}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


def shortcut_plan_key(
    tour: RingTour, options: SynthesisOptions, demands
) -> tuple:
    """The content key of Step 2: every input :func:`plan_shortcuts`
    reads.  The batch parent's Step-2 sharing groups cases on it."""
    from repro.parallel.cache import canonical_points

    return (
        tour.order,
        canonical_points(tour.points),
        options.enable_shortcuts,
        options.shortcut_selection,
        options.loss,
        demands,
    )


def plan_shortcuts(
    tour: RingTour, options: SynthesisOptions, demands, deadline=None
) -> ShortcutPlan:
    """Step 2 as ``options`` configure it, undegraded."""
    return select_shortcuts(
        tour,
        enabled=options.enable_shortcuts,
        loss=options.loss,
        selection=options.shortcut_selection,
        demands=demands,
        deadline=deadline,
    )


class XRingSynthesizer:
    """Runs Steps 1-4 on a network under a deadline, degrading gracefully.

    ``fault_plan`` (tests only) injects deterministic stalls, errors,
    and artifact corruptions; see :mod:`repro.robustness.faults`.

    ``tracer`` defaults to whatever tracer is ambient (the CLI installs
    one when ``--trace-dir`` is given; :data:`~repro.obs.NULL_TRACER`
    otherwise).  ``metrics`` defaults to a fresh per-run
    :class:`~repro.obs.MetricsRegistry`; its snapshot lands in
    ``design.report.metrics`` and is merged into the ambient registry
    afterwards, so experiment drivers can both read per-row solver
    statistics and accumulate totals.
    """

    def __init__(
        self,
        network: Network,
        options: SynthesisOptions | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.network = network
        self.options = options or SynthesisOptions()
        self.fault_plan = fault_plan or FaultPlan()
        self.tracer = tracer
        self.metrics = metrics

    def run(
        self, tour: RingTour | None = None, plan: ShortcutPlan | None = None
    ) -> XRingDesign:
        """Synthesize the router; ``tour`` may be supplied to reuse a
        previously constructed ring (the experiments share Step 1
        between XRing and the ring baselines, as the paper does for
        ORNoC).  ``plan`` may supply Step 2 for that ``tour`` (the
        batch parent shares it across cases); it is dropped, and
        Step 2 runs, when the ring stage does not keep ``tour``
        unchanged."""
        opts = self.options
        ambient = get_obs()
        tracer = self.tracer if self.tracer is not None else ambient.tracer
        registry = self.metrics if self.metrics is not None else MetricsRegistry()
        deadline = Deadline(opts.deadline_s)
        report = SynthesisReport(deadline_s=opts.deadline_s, on_error=opts.on_error)

        with use_obs(ObsContext(tracer=tracer, metrics=registry)):
            with tracer.span(
                "synthesize",
                label=opts.label,
                nodes=self.network.size,
                on_error=opts.on_error,
            ) as root:
                ring_tour = self._stage_ring(tour, deadline, report)
                if ring_tour is not tour:
                    # Built or repaired here: a provided plan belongs
                    # to another tour.
                    plan = None
                tour = ring_tour
                plan = self._stage_shortcuts(tour, plan, deadline, report)
                wl_budget = (
                    self.network.size if opts.wl_budget is None else opts.wl_budget
                )
                mapping, plan = self._stage_mapping(
                    tour, plan, wl_budget, deadline, report
                )
                pdn = self._stage_pdn(tour, mapping, plan, deadline, report)

                design = self._assemble(tour, plan, mapping, pdn, report)
                design = self._final_gate(design, wl_budget, deadline, report)
            self._flush_deadline_gauges(deadline, registry)

        report.total_elapsed_s = deadline.elapsed()
        design.synthesis_time_s = root.duration_s
        report.metrics = registry.snapshot()
        if ambient.metrics.enabled and ambient.metrics is not registry:
            ambient.metrics.merge(registry)
        return design

    @staticmethod
    def _flush_deadline_gauges(deadline: Deadline, registry) -> None:
        """Per-stage deadline-consumption gauges for the run registry.

        Each stage latency is also observed into a
        ``stage.<name>.latency_s`` histogram: one sample per run, but
        batch merges accumulate them across cases, which is where the
        run-history ledger's per-stage percentiles come from.
        """
        if not registry.enabled:
            return
        for stage, elapsed in deadline.stage_elapsed_s.items():
            registry.gauge(f"deadline.{stage}.elapsed_s").set(elapsed)
            registry.histogram(
                f"stage.{stage}.latency_s", LATENCY_BUCKETS
            ).observe(elapsed)
        registry.gauge("deadline.elapsed_s").set(deadline.elapsed())
        if deadline.budget_s is not None:
            registry.gauge("deadline.budget_s").set(deadline.budget_s)
            registry.gauge("deadline.remaining_s").set(deadline.remaining())

    # -- fail-fast policy ----------------------------------------------------
    @property
    def _fail_fast(self) -> bool:
        return self.options.on_error == "raise"

    def _reraise(self, exc: Exception) -> bool:
        """Whether ``exc`` must propagate instead of degrading."""
        return self._fail_fast or isinstance(exc, _NON_DEGRADABLE)

    # -- stage 1: ring -------------------------------------------------------
    def _stage_ring(
        self,
        provided: RingTour | None,
        deadline: Deadline,
        report: SynthesisReport,
    ) -> RingTour:
        opts = self.options
        record = report.record(StageRecord("ring"))
        with deadline.stage("ring"), get_obs().tracer.span(
            "stage.ring", method=opts.ring_method
        ) as span:
            record.span_id = span.span_id
            points = list(self.network.positions)
            # Built at most once and threaded through every retry
            # below — degradation must not pay the O(E²) conflict
            # build twice.
            conflicts = None
            # Whether the heuristic built ``tour``: rebuilding with it
            # would only reproduce the tour, so a repair uses the MILP.
            heuristic_built = False
            if provided is not None:
                # A tour shared by the batch parent still passes the
                # post-ring gate below; the parent builds it with the
                # case's ring method.
                record.status = STATUS_PROVIDED
                tour = provided
                heuristic_built = opts.ring_method == "heuristic"
            else:
                try:
                    self.fault_plan.apply_before("ring", deadline)
                    deadline.check("ring")
                    if opts.ring_method == "milp":
                        conflicts = self._milp_conflicts(points)
                        tour = self._milp_tour(points, conflicts, deadline)
                        if tour.timed_out:
                            # In-budget incumbent: usable, but flagged.
                            record.status = STATUS_FALLBACK
                            record.fallback = "milp_incumbent"
                            _log.warning(
                                "ring MILP hit its time limit; keeping the "
                                "in-budget incumbent (span_id=%s)",
                                record.span_id,
                            )
                    else:
                        tour = construct_ring_tour_heuristic(points)
                        heuristic_built = True
                except SynthesisError as exc:
                    if self._reraise(exc):
                        raise
                    tour = construct_ring_tour_heuristic(points, conflicts=conflicts)
                    heuristic_built = True
                    record.status = STATUS_FALLBACK
                    record.fallback = "heuristic_ring"
                    record.error = str(exc)
                    record.attempts = 2
                    _log.warning(
                        "ring MILP failed (%s); fell back to the heuristic "
                        "ring (span_id=%s)",
                        exc,
                        record.span_id,
                    )
                tour = self.fault_plan.apply_after("ring", tour)
            if opts.validate and not self._tour_ok(tour):
                # Repair-retry: rebuild with the (bounded, fast)
                # heuristic, or with the MILP when the heuristic built
                # the failing tour; a second failure is surfaced typed.
                repair = "milp_ring" if heuristic_built else "heuristic_ring"
                report.retries += 1
                record.attempts += 1
                record.status = STATUS_REPAIRED
                record.fallback = record.fallback or repair
                record.error = record.error or "tour failed the validation gate"
                _log.warning(
                    "ring tour failed the validation gate; rebuilding with "
                    "%s (span_id=%s)",
                    "the MILP" if heuristic_built else "the heuristic",
                    record.span_id,
                )
                try:
                    if heuristic_built:
                        if conflicts is None:
                            conflicts = self._milp_conflicts(points)
                        tour = self._milp_tour(points, conflicts, deadline)
                    else:
                        tour = construct_ring_tour_heuristic(
                            points, conflicts=conflicts
                        )
                except SynthesisError as exc:
                    # The failing tour stays and fails the gate below.
                    if self._reraise(exc):
                        raise
                if not self._tour_ok(tour):
                    record.status = STATUS_FAILED
                    raise ValidationFailure(
                        "ring tour still violates invariants after repair",
                        stage="ring",
                    )
            span.set_attribute("status", record.status)
        record.elapsed_s = deadline.stage_elapsed_s["ring"]
        return tour

    def _milp_conflicts(self, points):
        """The conflict dict for the eager ring MILP, or ``None`` when
        the lazy cutting-plane mode applies (it needs none)."""
        lazy = self.options.lazy_conflicts
        if lazy is None:
            lazy = len(points) >= LAZY_THRESHOLD
        if lazy:
            return None
        validate_ring_points(points)
        return geometry.build_edge_conflicts(points)

    def _milp_tour(self, points, conflicts, deadline: Deadline) -> RingTour:
        """Step 1 by the MILP (lazy mode when ``conflicts`` is None)."""
        return construct_ring_tour(
            points,
            time_limit=self.options.milp_time_limit,
            deadline=deadline,
            conflicts=conflicts,
            lazy=conflicts is None,
        )

    def _tour_ok(self, tour: RingTour) -> bool:
        """The post-ring gate: the "tour" design rule on a stub design."""
        interim = XRingDesign(
            network=self.network,
            tour=tour,
            shortcut_plan=ShortcutPlan(),
            mapping=SignalMapping(),
        )
        return not validate_design(interim, rules=("tour",))

    # -- stage 2: shortcuts --------------------------------------------------
    def _stage_shortcuts(
        self,
        tour: RingTour,
        provided: ShortcutPlan | None,
        deadline: Deadline,
        report: SynthesisReport,
    ) -> ShortcutPlan:
        opts = self.options
        record = report.record(StageRecord("shortcuts"))
        with deadline.stage("shortcuts"), get_obs().tracer.span(
            "stage.shortcuts", enabled=opts.enable_shortcuts
        ) as span:
            record.span_id = span.span_id
            if provided is not None:
                # A plan shared by the batch parent, selected on this
                # very tour; the mapping and final gates still check it.
                record.status = STATUS_PROVIDED
                plan = copy_plan(provided)
            else:
                try:
                    self.fault_plan.apply_before("shortcuts", deadline)
                    deadline.check("shortcuts")
                    plan = plan_shortcuts(
                        tour, opts, self.network.demands(), deadline
                    )
                except SynthesisError as exc:
                    if self._reraise(exc):
                        raise
                    plan = ShortcutPlan()
                    record.status = STATUS_FALLBACK
                    record.fallback = "no_shortcuts"
                    record.error = str(exc)
                    record.attempts = 2
                    _log.warning(
                        "shortcut selection failed (%s); continuing without "
                        "shortcuts (span_id=%s)",
                        exc,
                        record.span_id,
                    )
                plan = self.fault_plan.apply_after("shortcuts", plan)
            span.set_attribute("status", record.status)
            span.set_attribute("selected", len(plan.shortcuts))
        record.elapsed_s = deadline.stage_elapsed_s["shortcuts"]
        return plan

    # -- stage 3: mapping ----------------------------------------------------
    def _stage_mapping(
        self,
        tour: RingTour,
        plan: ShortcutPlan,
        wl_budget: int,
        deadline: Deadline,
        report: SynthesisReport,
    ) -> tuple[SignalMapping, ShortcutPlan]:
        opts = self.options
        record = report.record(StageRecord("mapping"))

        def plain_ring() -> tuple[SignalMapping, ShortcutPlan]:
            """The most conservative mapping: no shortcuts, demand order."""
            fallback_plan = ShortcutPlan()
            mapping = map_signals(
                tour,
                self.network.demands(),
                fallback_plan,
                wl_budget,
                open_rings=opts.enable_openings,
                order="demand",
                direction_policy="shortest",
            )
            return mapping, fallback_plan

        with deadline.stage("mapping"), get_obs().tracer.span(
            "stage.mapping", wl_budget=wl_budget
        ) as span:
            record.span_id = span.span_id
            try:
                self.fault_plan.apply_before("mapping", deadline)
                deadline.check("mapping")
                mapping = map_signals(
                    tour,
                    self.network.demands(),
                    plan,
                    wl_budget,
                    open_rings=opts.enable_openings,
                    order=opts.mapping_order,
                    direction_policy=opts.direction_policy,
                )
            except SynthesisError as exc:
                if self._reraise(exc):
                    raise
                mapping, plan = plain_ring()
                record.status = STATUS_FALLBACK
                record.fallback = "plain_ring"
                record.error = str(exc)
                record.attempts = 2
                _log.warning(
                    "signal mapping failed (%s); fell back to the "
                    "plain-ring mapping (span_id=%s)",
                    exc,
                    record.span_id,
                )
            mapping = self.fault_plan.apply_after("mapping", mapping)
            if opts.validate:
                violations = self._gate(
                    tour, plan, mapping,
                    rules=("coverage", "wavelengths", "openings", "shortcuts"),
                )
                if violations:
                    report.retries += 1
                    record.attempts += 1
                    record.status = STATUS_REPAIRED
                    record.fallback = "plain_ring"
                    record.error = record.error or "; ".join(
                        str(v) for v in violations[:3]
                    )
                    _log.warning(
                        "mapping failed the validation gate (%d violations); "
                        "retrying with the plain-ring mapping (span_id=%s)",
                        len(violations),
                        record.span_id,
                    )
                    mapping, plan = plain_ring()
                    violations = self._gate(
                        tour, plan, mapping,
                        rules=("coverage", "wavelengths", "openings", "shortcuts"),
                    )
                    if violations:
                        record.status = STATUS_FAILED
                        raise ValidationFailure(
                            "mapping still violates design rules after repair",
                            violations=violations,
                            stage="mapping",
                        )
            span.set_attribute("status", record.status)
        record.elapsed_s = deadline.stage_elapsed_s["mapping"]
        return mapping, plan

    def _gate(self, tour, plan, mapping, rules):
        """Run a validation-rule subset on an interim (PDN-less) design."""
        interim = XRingDesign(
            network=self.network,
            tour=tour,
            shortcut_plan=plan,
            mapping=mapping,
        )
        return validate_design(interim, rules=rules)

    # -- stage 4: pdn --------------------------------------------------------
    def _stage_pdn(
        self,
        tour: RingTour,
        mapping: SignalMapping,
        plan: ShortcutPlan,
        deadline: Deadline,
        report: SynthesisReport,
    ) -> PdnDesign | None:
        opts = self.options
        record = report.record(StageRecord("pdn"))
        with deadline.stage("pdn"), get_obs().tracer.span(
            "stage.pdn", mode=opts.pdn_mode or "none"
        ) as span:
            record.span_id = span.span_id
            if opts.pdn_mode is None:
                record.status = STATUS_OK
                span.set_attribute("status", record.status)
                return None
            try:
                self.fault_plan.apply_before("pdn", deadline)
                deadline.check("pdn")
                pdn = build_pdn(
                    tour,
                    mapping,
                    plan,
                    opts.loss,
                    self.network.bounding_box(),
                    mode=opts.pdn_mode,
                )
            except Exception as exc:
                if self._reraise(exc) or not isinstance(
                    exc, (SynthesisError, ValueError, KeyError)
                ):
                    raise
                pdn = None
                record.status = STATUS_SKIPPED
                record.fallback = "no_pdn"
                record.error = str(exc)
                record.attempts = 2
                _log.warning(
                    "PDN construction failed (%s); shipping the design "
                    "without a PDN (span_id=%s)",
                    exc,
                    record.span_id,
                )
            span.set_attribute("status", record.status)
        record.elapsed_s = deadline.stage_elapsed_s["pdn"]
        return pdn

    # -- assembly + final gate -----------------------------------------------
    def _assemble(self, tour, plan, mapping, pdn, report) -> XRingDesign:
        return XRingDesign(
            network=self.network,
            tour=tour,
            shortcut_plan=plan,
            mapping=mapping,
            pdn=pdn,
            label=self.options.label,
            report=report,
        )

    def _final_gate(
        self,
        design: XRingDesign,
        wl_budget: int,
        deadline: Deadline,
        report: SynthesisReport,
    ) -> XRingDesign:
        opts = self.options
        if not opts.validate:
            return design
        record = report.record(StageRecord("validate"))
        try:
            with deadline.stage("validate"), get_obs().tracer.span(
                "stage.validate"
            ) as span:
                record.span_id = span.span_id
                violations = validate_design(design)
                if not violations:
                    return design
                # One bounded repair-retry: plain-ring remap + PDN rebuild.
                report.retries += 1
                record.attempts += 1
                record.status = STATUS_REPAIRED
                record.fallback = "plain_ring"
                record.error = "; ".join(str(v) for v in violations[:3])
                _log.warning(
                    "final gate found %d violation(s); repairing with a "
                    "plain-ring remap (span_id=%s)",
                    len(violations),
                    record.span_id,
                )
                plan = ShortcutPlan()
                mapping = map_signals(
                    design.tour,
                    self.network.demands(),
                    plan,
                    wl_budget,
                    open_rings=opts.enable_openings,
                    order="demand",
                    direction_policy="shortest",
                )
                pdn = None
                if opts.pdn_mode is not None:
                    pdn = build_pdn(
                        design.tour,
                        mapping,
                        plan,
                        opts.loss,
                        self.network.bounding_box(),
                        mode=opts.pdn_mode,
                    )
                design = self._assemble(design.tour, plan, mapping, pdn, report)
                violations = validate_design(design)
                if violations:
                    record.status = STATUS_FAILED
                    report.violations = [str(v) for v in violations]
                    raise ValidationFailure(
                        f"design still violates {len(violations)} rule(s) "
                        f"after repair",
                        violations=violations,
                    )
        finally:
            record.elapsed_s = deadline.stage_elapsed_s.get("validate", 0.0)
        return design


def synthesize(
    network: Network,
    *,
    fault_plan: FaultPlan | None = None,
    **option_kwargs,
) -> XRingDesign:
    """One-call convenience API: ``synthesize(network, wl_budget=14)``."""
    return XRingSynthesizer(
        network, SynthesisOptions(**option_kwargs), fault_plan=fault_plan
    ).run()
