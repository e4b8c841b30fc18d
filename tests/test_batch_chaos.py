"""Chaos suite for the supervised batch engine.

Every scenario here is scripted through a :class:`FaultPlan` (or a
poison-pill case that kills its worker on unpickle), so runs replay
identically: a crashed worker is retried and respawned, a hung worker
is killed by the watchdog, a poison case lands in quarantine with its
full failure history, a systemic failure trips the circuit breaker,
and an interrupted batch resumes from its L2 directory without
recomputing finished cases.

The supervisor's RNG only jitters backoff *timing*, never results, so
the suite passes under any seed.  CI runs it twice with fixed seeds
via ``REPRO_CHAOS_SEED``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.geometry import Point
from repro.network import Network
from repro.parallel import (
    BatchCase,
    BatchSynthesizer,
    CircuitBreaker,
    PersistentStore,
    SupervisorConfig,
    case_key,
    clear_caches,
    configure_l2,
    get_cache,
)
from repro.parallel import supervisor as supervisor_module
from repro.robustness import CircuitOpen, FaultPlan

#: CI replays the whole suite under two fixed seeds; the seed feeds the
#: supervisor's backoff-jitter RNG and must never change any result.
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _fast_config(**overrides) -> SupervisorConfig:
    """Supervision policy tuned for tests: real retries, tiny delays."""
    settings = dict(
        max_attempts=3,
        backoff_base_s=0.001,
        backoff_cap_s=0.01,
        poll_interval_s=0.02,
        seed=SEED,
    )
    settings.update(overrides)
    return SupervisorConfig(**settings)


def _cases(network, tour, count: int) -> list[BatchCase]:
    """``count`` distinct heuristic cases labelled c0..c{count-1}."""
    return [
        BatchCase(
            network=network,
            options=SynthesisOptions(
                ring_method="heuristic", wl_budget=4 + i, label=f"c{i}"
            ),
            label=f"c{i}",
            tour=tour,
        )
        for i in range(count)
    ]


def _dumps(report) -> list[str | None]:
    """Canonical structural dump per design — the byte-identity probe."""
    return [
        None if design is None else json.dumps(design.to_dict(), sort_keys=True)
        for design in report.designs
    ]


class _KillPill:
    """Unpickling this object hard-exits the process doing the unpickle.

    Smuggled into a :class:`BatchCase` it kills the *worker* while the
    task is being received — a deterministic stand-in for a segfault or
    OOM kill that no amount of retrying can survive.
    """

    def __reduce__(self):
        return (os._exit, (3,))


def _pill_case(network, label: str) -> BatchCase:
    return BatchCase(
        network=network,
        options=SynthesisOptions(ring_method="heuristic", label=label),
        label=label,
        tour=_KillPill(),  # detonates on unpickle in the worker
    )


@pytest.fixture(scope="module")
def baseline12(network8, tour8):
    """Fault-free sequential run of the acceptance batch (12 cases)."""
    report = BatchSynthesizer(workers=1).run(_cases(network8, tour8, 12))
    assert report.ok
    return _dumps(report)


@pytest.fixture(scope="module")
def baseline6(network8, tour8):
    """Fault-free sequential run of the 6-case resume batch."""
    report = BatchSynthesizer(workers=1).run(_cases(network8, tour8, 6))
    assert report.ok
    return _dumps(report)


class TestChaosRecovery:
    def test_crash_and_hang_batch_completes_identically(
        self, network8, tour8, baseline12
    ):
        """The acceptance scenario: one worker crash + one hung case in
        a 12-case batch; all 12 complete, the supervisor reports at
        least one restart and one retry, and the merged output is
        byte-identical to the fault-free sequential run."""
        plan = FaultPlan().worker_crash("c3").worker_hang("c7", seconds=60.0)
        report = BatchSynthesizer(
            workers=2,
            config=_fast_config(case_timeout_s=3.0),
            fault_plan=plan,
        ).run(_cases(network8, tour8, 12))

        assert report.ok
        assert len(report.results) == 12
        assert plan.exhausted

        counters = report.metrics.snapshot()["counters"]
        assert counters["batch.worker_restarts"] >= 1
        assert counters["batch.retries"] >= 1
        assert counters["batch.cases"] == 12

        crashed = report.results[3]
        assert crashed.attempts == 2
        assert [a.kind for a in crashed.failure_history] == ["crash"]
        hung = report.results[7]
        assert hung.attempts == 2
        assert [a.kind for a in hung.failure_history] == ["timeout"]

        assert _dumps(report) == baseline12

    def test_abort_fault_recovers_inline(self, network8, tour8):
        """An OOM-style abort on workers=1 is simulated as a crash
        attempt and retried through the same state machine."""
        plan = FaultPlan().worker_abort("c1")
        report = BatchSynthesizer(
            workers=1, config=_fast_config(), fault_plan=plan
        ).run(_cases(network8, tour8, 4))
        assert report.ok
        assert report.results[1].attempts == 2
        assert report.supervisor["crashes"] == 1
        assert report.supervisor["worker_restarts"] == 1
        assert report.supervisor["retries"] == 1

    def test_inline_hang_becomes_timeout_without_sleeping(
        self, network8, tour8
    ):
        """A 60s hang under a 0.5s budget fails fast in-process — the
        simulation must not actually sleep the injected duration."""
        plan = FaultPlan().worker_hang("c2", seconds=60.0)
        report = BatchSynthesizer(
            workers=1,
            config=_fast_config(case_timeout_s=0.5),
            fault_plan=plan,
        ).run(_cases(network8, tour8, 4))
        assert report.ok
        assert report.supervisor["timeouts"] == 1
        assert report.supervisor["retries"] == 1
        assert [a.kind for a in report.results[2].failure_history] == [
            "timeout"
        ]

    def test_short_hang_within_budget_just_runs(self, network8, tour8):
        """A hang shorter than the case budget delays but never fails."""
        plan = FaultPlan().worker_hang("c0", seconds=0.05)
        report = BatchSynthesizer(
            workers=1,
            config=_fast_config(case_timeout_s=5.0),
            fault_plan=plan,
        ).run(_cases(network8, tour8, 2))
        assert report.ok
        assert report.results[0].attempts == 1
        assert report.supervisor["retries"] == 0

    def test_retry_attempts_emit_span_records(self, network8, tour8):
        plan = FaultPlan().worker_crash("c1")
        report = BatchSynthesizer(
            workers=1,
            config=_fast_config(),
            fault_plan=plan,
            collect_spans=True,
        ).run(_cases(network8, tour8, 2))
        attempts = [
            s
            for s in report.span_records
            if s["name"] == "batch.attempt" and s["case"] == "c1"
        ]
        assert [a["attributes"]["outcome"] for a in attempts] == ["crash", "ok"]
        assert all(a["span_id"] < 0 for a in attempts)


class TestQuarantine:
    def test_poison_case_quarantined_with_history(self, network8, tour8):
        """A case that crashes its worker on every attempt exhausts the
        budget and is parked — the rest of the batch completes."""
        plan = (
            FaultPlan()
            .worker_crash("c1", attempt=1)
            .worker_crash("c1", attempt=2)
            .worker_crash("c1", attempt=3)
        )
        report = BatchSynthesizer(
            workers=1, config=_fast_config(max_attempts=3), fault_plan=plan
        ).run(_cases(network8, tour8, 4))

        assert not report.ok
        assert [r.label for r in report.quarantined] == ["c1"]
        poisoned = report.quarantined[0]
        assert poisoned.attempts == 3
        assert poisoned.error_type == "WorkerCrash"
        assert [a.kind for a in poisoned.failure_history] == ["crash"] * 3
        assert all(r.ok for r in report.results if r.label != "c1")
        assert report.supervisor["quarantined"] == 1
        assert report.supervisor["retries"] == 2
        assert report.metrics.snapshot()["counters"]["batch.quarantined"] == 1

    def test_poison_pill_quarantined_in_pool(self, network8, tour8):
        """A real worker kill (not a simulation): the pill case dies on
        every dispatch, the pool self-heals, the good cases finish."""
        cases = _cases(network8, tour8, 3) + [_pill_case(network8, "pill")]
        report = BatchSynthesizer(
            workers=2, config=_fast_config(max_attempts=2)
        ).run(cases)

        pill = report.results[3]
        assert pill.quarantined
        assert pill.error_type == "WorkerCrash"
        assert pill.attempts == 2
        assert [a.kind for a in pill.failure_history] == ["crash", "crash"]
        assert all(r.ok for r in report.results[:3])
        assert report.supervisor["worker_restarts"] >= 2
        assert report.supervisor["crashes"] >= 2

    def test_deterministic_input_error_is_not_retried(self, network8):
        """Input errors are deterministic — burning the retry budget on
        them would just slow the failure down."""
        bad = BatchCase(
            network=Network.from_positions([Point(0.0, 0.0)] * 4),
            options=SynthesisOptions(ring_method="heuristic"),
            label="bad",
        )
        report = BatchSynthesizer(
            workers=1, config=_fast_config(max_attempts=3)
        ).run([bad])
        assert not report.ok
        assert report.results[0].attempts == 1
        assert report.results[0].quarantined
        assert report.supervisor["retries"] == 0


class TestCircuitBreaker:
    BREAKER = dict(
        max_attempts=1,
        breaker_window=8,
        breaker_threshold=0.6,
        breaker_min_samples=3,
    )

    def test_systemic_failure_fails_fast(self, network8, tour8):
        """Three straight crash-faulted cases latch the breaker; the
        remaining cases are skipped as CircuitOpen, not executed."""
        plan = (
            FaultPlan()
            .worker_crash("c0")
            .worker_crash("c1")
            .worker_crash("c2")
        )
        report = BatchSynthesizer(
            workers=1, config=_fast_config(**self.BREAKER), fault_plan=plan
        ).run(_cases(network8, tour8, 6))

        assert report.circuit_opened
        assert not report.ok
        assert [r.error_type for r in report.results[:3]] == ["WorkerCrash"] * 3
        assert [r.error_type for r in report.results[3:]] == ["CircuitOpen"] * 3
        assert all(not r.quarantined for r in report.results[3:])
        assert report.supervisor["quarantined"] == 3

    def test_on_error_raise_surfaces_circuit_open(self, network8, tour8):
        plan = (
            FaultPlan()
            .worker_crash("c0")
            .worker_crash("c1")
            .worker_crash("c2")
        )
        with pytest.raises(CircuitOpen):
            BatchSynthesizer(
                workers=1,
                on_error="raise",
                config=_fast_config(**self.BREAKER),
                fault_plan=plan,
            ).run(_cases(network8, tour8, 4))

    def test_breaker_latches_once_open(self):
        breaker = CircuitBreaker(window=4, threshold=0.5, min_samples=2)
        breaker.record(True)
        assert not breaker.open
        breaker.record(False)
        assert breaker.open  # 1/2 failures >= 0.5
        for _ in range(10):
            breaker.record(True)
        assert breaker.open  # latched: successes never close it

    def test_breaker_needs_min_samples(self):
        breaker = CircuitBreaker(window=8, threshold=0.5, min_samples=4)
        for _ in range(3):
            breaker.record(False)
        assert not breaker.open
        breaker.record(False)
        assert breaker.open

    def test_backoff_is_seeded_and_capped(self):
        import random

        config = _fast_config(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_cap_s=0.3
        )
        first = [config.backoff_s(n, random.Random(SEED)) for n in (1, 2, 5)]
        second = [config.backoff_s(n, random.Random(SEED)) for n in (1, 2, 5)]
        assert first == second  # same seed, same jitter
        # Cap bounds the delay even for late attempts (jitter adds <=10%).
        assert first[2] <= 0.3 * (1.0 + config.backoff_jitter)
        assert first[0] < first[1]


@pytest.fixture
def l2_dir(tmp_path):
    """An L2 directory path; no L2 stays attached after the test."""
    clear_caches()
    yield tmp_path / "l2"
    clear_caches()


def _run_against(root, cases, **kwargs):
    """One batch run against the L2 at ``root``, as a fresh process
    (nothing attached but the files on disk) would make it."""
    clear_caches()
    configure_l2(root)
    return BatchSynthesizer(workers=1, **kwargs).run(cases)


def _count_executions(monkeypatch) -> list[int]:
    """Record the index of every case that actually runs."""
    executed: list[int] = []
    real = supervisor_module._execute_case

    def counting(index, case, collect_spans, trace=None):
        executed.append(index)
        return real(index, case, collect_spans, trace)

    monkeypatch.setattr(supervisor_module, "_execute_case", counting)
    return executed


class TestL2Resume:
    def test_resume_restores_without_recomputing(
        self, l2_dir, network8, tour8, baseline6, monkeypatch
    ):
        cases = _cases(network8, tour8, 6)
        first = _run_against(l2_dir, cases)
        assert first.ok and first.supervisor["resumed"] == 0

        def recomputed(index, case, collect_spans, trace=None):  # pragma: no cover
            raise AssertionError(f"case {index} was recomputed on resume")

        monkeypatch.setattr(supervisor_module, "_execute_case", recomputed)
        second = _run_against(l2_dir, cases)
        assert second.ok
        assert second.supervisor["resumed"] == 6
        assert all(r.cached for r in second.results)
        assert second.metrics.snapshot()["counters"]["batch.resumed"] == 6
        assert _dumps(second) == baseline6

    def test_interrupted_batch_resumes_to_identical_report(
        self, l2_dir, network8, tour8, baseline6, monkeypatch
    ):
        """Kill the run while it stores its 4th result, resume from the
        L2: only the unfinished cases execute and the final designs
        match the uninterrupted baseline byte for byte."""
        cases = _cases(network8, tour8, 6)

        class _InterruptAfter(PersistentStore):
            def put(self, *args, **kwargs):
                if self.counters.get("puts:results", 0) >= 3:
                    raise KeyboardInterrupt
                return super().put(*args, **kwargs)

        get_cache().attach_l2(_InterruptAfter(l2_dir))
        first = BatchSynthesizer(workers=1).run(cases)
        assert first.interrupted
        assert sum(1 for r in first.results if r.interrupted) == 3
        assert sum(1 for r in first.results if r.ok) == 3

        executed = _count_executions(monkeypatch)
        second = _run_against(l2_dir, cases)
        assert second.ok
        assert sorted(executed) == [3, 4, 5]
        assert second.supervisor["resumed"] == 3
        assert [r.cached for r in second.results] == [True] * 3 + [False] * 3
        assert _dumps(second) == baseline6

    def test_failed_case_is_rerun_on_resume(
        self, l2_dir, network8, tour8, baseline6, monkeypatch
    ):
        """The L2 stores successes only, so a case that failed in the
        first run is run again by the resume, and then succeeds."""
        cases = _cases(network8, tour8, 3)
        first = _run_against(
            l2_dir,
            cases,
            config=_fast_config(max_attempts=1),
            fault_plan=FaultPlan().worker_crash("c1"),
        )
        assert [r.ok for r in first.results] == [True, False, True]

        executed = _count_executions(monkeypatch)
        second = _run_against(l2_dir, cases)
        assert second.ok
        assert executed == [1]
        assert second.supervisor["resumed"] == 2
        assert _dumps(second) == baseline6[:3]

    def test_different_batch_on_the_same_directory_recomputes(
        self, l2_dir, network8, tour8, baseline6, monkeypatch
    ):
        """Case keys cover position, label and options: a different
        batch finds no entry of the first one at its indices and is
        never served another case's design."""
        six = _cases(network8, tour8, 6)
        assert _run_against(l2_dir, six[:3]).ok

        executed = _count_executions(monkeypatch)
        other = _run_against(l2_dir, six[3:])
        assert other.ok
        assert sorted(executed) == [0, 1, 2]
        assert other.supervisor["resumed"] == 0
        assert not any(r.cached for r in other.results)
        assert _dumps(other) == baseline6[3:]

    def test_case_keys_cover_options_and_order(self, network8, tour8):
        a, b = _cases(network8, tour8, 2)
        assert case_key(0, a) == case_key(0, a)  # stable
        assert case_key(0, a) != case_key(0, b)  # options differ
        assert case_key(0, a) != case_key(1, a)  # position differs
