"""Top-level XRing synthesis flow with graceful degradation.

:class:`XRingSynthesizer` runs the paper's four steps in order on a
:class:`~repro.network.Network` and returns an
:class:`~repro.core.design.XRingDesign`.  :class:`SynthesisOptions`
exposes every knob the experiments and ablations need (wavelength
budget, shortcut/opening toggles, PDN mode, deadline) and is
validated eagerly, so typos fail at construction instead of deep
inside a stage.

The flow is resilient by default (``on_error="degrade"``): every stage
runs under a shared :class:`~repro.robustness.deadline.Deadline`, falls
back instead of hanging or surfacing garbage, and passes a validation
gate with one bounded repair-retry; the degradation table in DESIGN.md
(§Failure modes) lists every fallback and repair.  Each stage is a
short declaration over three mechanisms: ``_stage`` (the stage's
report record, deadline slot and span), ``_attempt`` (faults, deadline
check, build or fallback) and ``_repair`` (gate and one repair, else a
typed :class:`~repro.robustness.errors.ValidationFailure`).  Every
fallback, retry, and per-stage elapsed time lands in the
machine-readable :class:`~repro.robustness.report.SynthesisReport`
attached to the design.  ``on_error="raise"`` restores the old
fail-fast behaviour: the first stage error propagates as a typed
:class:`~repro.robustness.errors.SynthesisError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.design import XRingDesign
from repro.core.heuristic_ring import construct_ring_tour_heuristic
from repro.core.mapping import SignalMapping, map_signals
from repro.core.pdn import PdnDesign, build_pdn
from repro.core.ring import RingTour, construct_ring_tour
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
    STATUS_PROVIDED,
    STATUS_REPAIRED,
    STATUS_SKIPPED,
)

_RING_METHODS = ("milp", "heuristic")
_PDN_MODES = ("internal", "external")
_MAPPING_ORDERS = ("length", "demand")
_DIRECTION_POLICIES = ("shortest", "first_fit")
_ON_ERROR_POLICIES = ("raise", "degrade")

#: Exceptions a degrading stage must NOT swallow: they indicate a bad
#: call, not a runtime failure, and the fallback would hit them too.
_NON_DEGRADABLE = (ConfigurationError, InputError)

#: The post-mapping gate (the tour has passed its own gate by then).
_MAPPING_RULES = ("coverage", "wavelengths", "openings", "shortcuts")

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
    enable_openings: bool = True
    pdn_mode: str | None = "internal"
    mapping_order: str = "length"
    direction_policy: str = "shortest"
    #: Conflict-constraint handling for the ring MILP's cutting-plane
    #: loop: ``True`` (lazy) skips the O(E²) conflict build and adds
    #: only violated rows, ``False`` (eager) seeds the model with every
    #: row, ``None`` (auto) goes lazy at
    #: :data:`repro.core.ring.LAZY_THRESHOLD` nodes and above.  Only
    #: :func:`repro.core.ring.construct_ring_tour` resolves ``None``.
    lazy_conflicts: bool | None = None
    loss: LossParameters = field(default_factory=lambda: ORING_LOSSES)
    label: str = "xring"
    #: Whole-run wall-clock budget in seconds (None = unlimited): the
    #: one time budget of a synthesis; it also clamps the ring MILP.
    deadline_s: float | None = None
    #: "degrade" (fallback chain) or "raise" (old fail-fast behaviour).
    on_error: str = "degrade"

    def __post_init__(self) -> None:
        _require(self.ring_method, _RING_METHODS, "ring method")
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
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


def build_ring(
    points, options: SynthesisOptions, deadline=None, *, method: str | None = None
) -> RingTour:
    """Step 1 as ``options`` configure it, undegraded: the one place
    ``ring_method`` and ``lazy_conflicts`` pick a constructor (the
    ``deadline`` clamps the MILP's time limit).  ``method`` overrides
    ``options.ring_method`` (the synthesizer's heuristic fallback and
    ring repair)."""
    if (method or options.ring_method) == "heuristic":
        return construct_ring_tour_heuristic(points)
    return construct_ring_tour(
        points, deadline=deadline, lazy=options.lazy_conflicts
    )


def shortcut_plan_key(
    tour: RingTour, options: SynthesisOptions, demands
) -> tuple:
    """The content key of Step 2: every input :func:`plan_shortcuts`
    reads.  The batch's Step-2 sharing groups cases on it."""
    from repro.parallel.cache import canonical_points

    return (
        tour.order,
        canonical_points(tour.points),
        options.enable_shortcuts,
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
        ORNoC).  ``plan`` may supply Step 2 for that ``tour`` (a
        batch shares it across cases); it is dropped, and
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

    # -- the stage step: scope, attempt, gate-and-repair --------------------
    def _reraise(self, exc: Exception) -> bool:
        """Whether ``exc`` must propagate instead of degrading."""
        return self.options.on_error == "raise" or isinstance(exc, _NON_DEGRADABLE)

    @staticmethod
    @contextmanager
    def _stage(name: str, deadline: Deadline, report: SynthesisReport, **attrs):
        """One stage's :class:`StageRecord`, deadline slot and
        ``stage.<name>`` span, yielded as ``(record, span)``.  The span's
        ``status`` and the record's ``elapsed_s`` are set on every exit,
        a return or a raise included; a stage that raises has failed."""
        record = report.record(StageRecord(name))
        try:
            with deadline.stage(name), get_obs().tracer.span(
                f"stage.{name}", **attrs
            ) as span:
                record.span_id = span.span_id
                try:
                    yield record, span
                except Exception:
                    record.status = STATUS_FAILED
                    raise
                finally:
                    span.set_attribute("status", record.status)
        finally:
            record.elapsed_s = deadline.stage_elapsed_s.get(name, 0.0)

    def _attempt(
        self, record, deadline, build, fallback, label, *,
        status=STATUS_FALLBACK, degrade_on=(SynthesisError,),
    ):
        """One try at a stage's artifact: fire the stage's scripted
        faults, check the deadline, then ``build``.  A degradable error
        takes ``fallback`` instead, recorded as ``status``/``label``.
        Either artifact then meets the stage's scripted corruptions."""
        try:
            self.fault_plan.apply_before(record.name, deadline)
            deadline.check(record.name)
            artifact = build()
        except degrade_on as exc:
            if self._reraise(exc):
                raise
            artifact = fallback()
            record.status = status
            record.fallback = label
            record.error = str(exc)
            record.attempts = 2
            _log.warning(
                "%s stage failed (%s); degrading to %s (span_id=%s)",
                record.name, exc, label, record.span_id,
            )
        return self.fault_plan.apply_after(record.name, artifact)

    def _repair(self, record, report, artifact, gate, repair, label):
        """The validation gate with one bounded repair-retry: ``gate``
        lists an artifact's violations; on any, ``repair`` rebuilds it
        once, and violations that persist raise
        :class:`ValidationFailure`, under the degrade policy too."""
        violations = gate(artifact)
        if not violations:
            return artifact
        report.retries += 1
        record.attempts += 1
        record.status = STATUS_REPAIRED
        record.fallback = record.fallback or label
        record.error = record.error or "; ".join(str(v) for v in violations[:3])
        _log.warning(
            "%s failed the validation gate (%d violation(s)); repairing with "
            "%s (span_id=%s)",
            record.name, len(violations), label, record.span_id,
        )
        artifact = repair()
        violations = gate(artifact)
        if violations:
            report.violations = [str(v) for v in violations]
            raise ValidationFailure(
                f"{record.name} still violates {len(violations)} rule(s) "
                "after repair",
                violations=violations,
                stage=record.name,
            )
        return artifact

    def _gate(self, tour, plan=None, mapping=None, rules=None):
        """Validation ``rules`` on an interim, PDN-less design."""
        interim = XRingDesign(
            network=self.network,
            tour=tour,
            shortcut_plan=ShortcutPlan() if plan is None else plan,
            mapping=SignalMapping() if mapping is None else mapping,
        )
        return validate_design(interim, rules=rules)

    # -- stage builds --------------------------------------------------------
    def _map(self, tour, plan, wl_budget, order, direction_policy) -> SignalMapping:
        return map_signals(
            tour, self.network.demands(), plan, wl_budget,
            open_rings=self.options.enable_openings,
            order=order, direction_policy=direction_policy,
        )

    def _plain_ring(self, tour: RingTour, wl_budget: int) -> SignalMapping:
        """The most conservative mapping: no shortcuts, demand order."""
        return self._map(tour, ShortcutPlan(), wl_budget, "demand", "shortest")

    def _pdn(self, tour, mapping, plan) -> PdnDesign:
        opts = self.options
        box = self.network.bounding_box()
        return build_pdn(tour, mapping, plan, opts.loss, box, mode=opts.pdn_mode)

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

    # -- the stages: build, fallback, gate and repair of each ----------------
    def _stage_ring(self, provided, deadline, report) -> RingTour:
        opts = self.options
        points = list(self.network.positions)
        stage = self._stage("ring", deadline, report, method=opts.ring_method)
        with stage as (record, _):
            if provided is not None:
                # A shared tour still passes the post-ring gate below.
                record.status = STATUS_PROVIDED
                tour = provided
            else:

                def build() -> RingTour:
                    tour = build_ring(points, opts, deadline)
                    if tour.timed_out:
                        # In-budget MILP incumbent: usable, but flagged.
                        record.status = STATUS_FALLBACK
                        record.fallback = "milp_incumbent"
                        _log.warning(
                            "ring MILP hit its time limit; keeping the "
                            "in-budget incumbent (span_id=%s)",
                            record.span_id,
                        )
                    return tour

                tour = self._attempt(
                    record, deadline, build,
                    lambda: build_ring(points, opts, deadline, method="heuristic"),
                    "heuristic_ring",
                )
            # Rebuilding with the heuristic would only reproduce a tour
            # it built (a shared tour comes from the same build_ring
            # call), so that tour is rebuilt with the MILP.
            heuristic_built = (
                opts.ring_method == "heuristic" or record.fallback == "heuristic_ring"
            )
            method = "milp" if heuristic_built else "heuristic"

            def rebuild() -> RingTour:
                try:
                    return build_ring(points, opts, deadline, method=method)
                except SynthesisError as exc:
                    # The failing tour stays and fails the gate again.
                    if self._reraise(exc):
                        raise
                    return tour

            return self._repair(
                record, report, tour,
                lambda t: self._gate(t, rules=("tour",)),
                rebuild,
                f"{method}_ring",
            )

    def _stage_shortcuts(self, tour, provided, deadline, report) -> ShortcutPlan:
        opts = self.options
        enabled = opts.enable_shortcuts
        stage = self._stage("shortcuts", deadline, report, enabled=enabled)
        with stage as (record, span):
            if provided is not None:
                # A plan shared by a batch's plan task, selected on this
                # very tour; the mapping and final gates still check it.
                record.status = STATUS_PROVIDED
                plan = copy_plan(provided)
            else:
                demands = self.network.demands()
                plan = self._attempt(
                    record, deadline,
                    lambda: plan_shortcuts(tour, opts, demands, deadline),
                    ShortcutPlan,
                    "no_shortcuts",
                )
            span.set_attribute("selected", len(plan.shortcuts))
        return plan

    def _stage_mapping(
        self, tour, plan, wl_budget, deadline, report
    ) -> tuple[SignalMapping, ShortcutPlan]:
        opts = self.options
        stage = self._stage("mapping", deadline, report, wl_budget=wl_budget)
        with stage as (record, _):

            def kept_plan() -> ShortcutPlan:
                # A plain-ring mapping (fallback or repair) has no shortcuts.
                return ShortcutPlan() if record.fallback else plan

            def plain_ring() -> SignalMapping:
                return self._plain_ring(tour, wl_budget)

            mapping = self._attempt(
                record, deadline,
                lambda: self._map(
                    tour, plan, wl_budget, opts.mapping_order, opts.direction_policy
                ),
                plain_ring,
                "plain_ring",
            )
            mapping = self._repair(
                record, report, mapping,
                lambda m: self._gate(tour, kept_plan(), m, _MAPPING_RULES),
                plain_ring,
                "plain_ring",
            )
            return mapping, kept_plan()

    def _stage_pdn(self, tour, mapping, plan, deadline, report) -> PdnDesign | None:
        opts = self.options
        stage = self._stage("pdn", deadline, report, mode=opts.pdn_mode or "none")
        with stage as (record, _):
            if opts.pdn_mode is None:
                return None
            return self._attempt(
                record, deadline,
                lambda: self._pdn(tour, mapping, plan),
                lambda: None,
                "no_pdn",
                status=STATUS_SKIPPED,
                degrade_on=(SynthesisError, ValueError, KeyError),
            )

    def _final_gate(self, design, wl_budget, deadline, report) -> XRingDesign:
        def repair() -> XRingDesign:
            # A plain-ring remap plus a PDN rebuild.
            tour, plan = design.tour, ShortcutPlan()
            mapping = self._plain_ring(tour, wl_budget)
            pdn = None
            if self.options.pdn_mode is not None:
                pdn = self._pdn(tour, mapping, plan)
            return self._assemble(tour, plan, mapping, pdn, report)

        with self._stage("validate", deadline, report) as (record, _):
            return self._repair(
                record, report, design, validate_design, repair, "plain_ring"
            )


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
