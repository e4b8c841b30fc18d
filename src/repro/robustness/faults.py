"""Deterministic fault injection for the synthesis pipeline.

A :class:`FaultPlan` is a scripted list of faults keyed by stage name.
The synthesizer consults it at two points per stage:

- ``apply_before(stage, deadline)`` — fires *stalls* (burning deadline
  budget without sleeping, so tests stay fast and deterministic) and
  *errors* (raising :class:`~repro.robustness.errors.FaultInjected`,
  optionally dressed as solver infeasibility);
- ``apply_after(stage, artifact)`` — fires *corruptions*, mutating the
  stage's intermediate artifact in a named, reproducible way so the
  validation gates have something real to catch.

Faults are one-shot: once fired they are removed from the plan, so a
repair retry or fallback path runs clean.  There is no randomness
anywhere — a plan replays identically every run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.robustness.deadline import Deadline
from repro.robustness.errors import FaultInjected


@dataclass(frozen=True)
class StageFault:
    """One scripted fault: what to do, where, with which payload."""

    stage: str
    kind: str  # "stall" | "error" | "corrupt"
    seconds: float = 0.0
    cause: str = "injected"
    corruption: str = ""
    message: str = ""


#: Exit code a crash-faulted worker dies with (recognizable in logs).
WORKER_CRASH_EXIT = 87

#: Worker fault kinds understood by :func:`fire_worker_fault`.
WORKER_FAULT_KINDS = ("crash", "hang", "abort")


@dataclass(frozen=True)
class WorkerFault:
    """One scripted worker-process fault, keyed by case label + attempt.

    ``crash`` hard-exits the worker (``os._exit``), ``abort`` SIGKILLs
    it (an OOM-killer stand-in), ``hang`` sleeps ``seconds`` so the
    supervisor's watchdog has something to kill.  The supervisor pops
    the fault at dispatch time (one-shot, parent-side) and ships it to
    the worker with the task, so a retry of the same case runs clean.
    """

    kind: str  # "crash" | "hang" | "abort"
    case: str  # BatchCase label the fault targets
    attempt: int = 1
    seconds: float = 3600.0


#: Store fault kinds understood by the persistent cache store.
STORE_FAULT_KINDS = ("torn_tmp", "torn_final")


@dataclass(frozen=True)
class StoreFault:
    """One scripted crash-consistency fault in the persistent cache store.

    ``torn_tmp`` simulates a writer killed before the atomic rename:
    a partial temp file remains, the entry never appears.
    ``torn_final`` simulates torn bytes at the final entry path (a
    non-atomic foreign writer or disk corruption): the checksum gate
    must quarantine it on the next read.  Faults are one-shot and are
    popped by :meth:`FaultPlan.take_store_fault` inside
    :meth:`~repro.parallel.store.PersistentStore.put`.
    """

    kind: str  # "torn_tmp" | "torn_final"
    section: str = ""  # "" matches any section


def fire_worker_fault(fault: WorkerFault) -> None:
    """Execute ``fault`` inside the current (worker) process."""
    import os
    import signal
    import time

    if fault.kind == "crash":
        os._exit(WORKER_CRASH_EXIT)
    elif fault.kind == "abort":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.kind == "hang":
        time.sleep(fault.seconds)
    else:  # pragma: no cover - builders validate kinds
        raise ValueError(f"unknown worker fault kind {fault.kind!r}")


def _corrupt_shift_position(tour: Any) -> Any:
    """Shift one node's ring coordinate, breaking the arc-sum invariant."""
    node = tour.order[-1]
    tour.node_position_mm[node] += tour.length_mm / 3.0 + 1.0
    return tour


def _corrupt_drop_assignment(mapping: Any) -> Any:
    """Remove one mapped signal, leaving a demand unserved."""
    if mapping.assignments:
        mapping.assignments.pop(next(iter(mapping.assignments)))
    return mapping


def _corrupt_wavelength_overflow(mapping: Any) -> Any:
    """Push one signal's wavelength past the budget."""
    for key, assignment in mapping.assignments.items():
        mapping.assignments[key] = dataclasses.replace(
            assignment, wavelength=mapping.wl_budget + 7
        )
        break
    return mapping


def _corrupt_negative_gain(plan: Any) -> Any:
    """Flip one shortcut's gain negative (a design-rule violation)."""
    if plan.shortcuts:
        plan.shortcuts[0] = dataclasses.replace(plan.shortcuts[0], gain_mm=-1.0)
    return plan


#: Registry of named, deterministic artifact corruptions: name ->
#: (the stage whose artifact it mutates, the mutation).
CORRUPTIONS = {
    "shift_position": ("ring", _corrupt_shift_position),
    "drop_assignment": ("mapping", _corrupt_drop_assignment),
    "wavelength_overflow": ("mapping", _corrupt_wavelength_overflow),
    "negative_gain": ("shortcuts", _corrupt_negative_gain),
}


@dataclass
class FaultPlan:
    """A scripted, replayable set of pipeline faults.

    Build fluently::

        FaultPlan().stall("ring", 10.0).corrupt("mapping", "drop_assignment")
    """

    faults: list[StageFault] = field(default_factory=list)
    worker_faults: list[WorkerFault] = field(default_factory=list)
    store_faults: list[StoreFault] = field(default_factory=list)

    # -- builders ------------------------------------------------------------
    def stall(self, stage: str, seconds: float) -> "FaultPlan":
        """Burn ``seconds`` of deadline budget before ``stage`` runs."""
        self.faults.append(StageFault(stage, "stall", seconds=seconds))
        return self

    def error(self, stage: str, message: str = "") -> "FaultPlan":
        """Raise inside ``stage``'s primary attempt."""
        self.faults.append(
            StageFault(stage, "error", message=message or f"injected {stage} fault")
        )
        return self

    def infeasible(self, stage: str) -> "FaultPlan":
        """Raise inside ``stage`` dressed as solver infeasibility."""
        self.faults.append(
            StageFault(
                stage,
                "error",
                cause="infeasible",
                message=f"injected infeasibility in {stage}",
            )
        )
        return self

    def corrupt(self, stage: str, corruption: str) -> "FaultPlan":
        """Corrupt ``stage``'s output artifact with a named mutation."""
        if corruption not in CORRUPTIONS:
            raise ValueError(
                f"unknown corruption {corruption!r}; "
                f"known: {sorted(CORRUPTIONS)}"
            )
        target = CORRUPTIONS[corruption][0]
        if stage != target:
            raise ValueError(
                f"corruption {corruption!r} mutates the {target} artifact; "
                f"stage {stage!r} has no such artifact"
            )
        self.faults.append(StageFault(stage, "corrupt", corruption=corruption))
        return self

    def worker_crash(self, case: str, attempt: int = 1) -> "FaultPlan":
        """Hard-exit the worker running ``case`` on its Nth ``attempt``."""
        self.worker_faults.append(WorkerFault("crash", case, attempt))
        return self

    def worker_abort(self, case: str, attempt: int = 1) -> "FaultPlan":
        """SIGKILL the worker running ``case`` (OOM-killer stand-in)."""
        self.worker_faults.append(WorkerFault("abort", case, attempt))
        return self

    def worker_hang(
        self, case: str, seconds: float = 3600.0, attempt: int = 1
    ) -> "FaultPlan":
        """Make the worker running ``case`` sleep ``seconds`` mid-case."""
        self.worker_faults.append(WorkerFault("hang", case, attempt, seconds))
        return self

    def store_torn_tmp(self, section: str = "") -> "FaultPlan":
        """Kill the next store put of ``section`` before its rename."""
        self.store_faults.append(StoreFault("torn_tmp", section))
        return self

    def store_torn_final(self, section: str = "") -> "FaultPlan":
        """Tear the next store put of ``section`` at its final path."""
        self.store_faults.append(StoreFault("torn_final", section))
        return self

    # -- consumption ---------------------------------------------------------
    def _take(self, stage: str, kind: str) -> list[StageFault]:
        hits = [f for f in self.faults if f.stage == stage and f.kind == kind]
        self.faults = [f for f in self.faults if f not in hits]
        return hits

    def apply_before(self, stage: str, deadline: Deadline) -> None:
        """Fire stalls and errors scheduled for ``stage`` (one-shot)."""
        for fault in self._take(stage, "stall"):
            deadline.consume(fault.seconds)
        for fault in self._take(stage, "error"):
            raise FaultInjected(fault.message, stage=stage, cause=fault.cause)

    def apply_after(self, stage: str, artifact: Any) -> Any:
        """Fire corruptions scheduled for ``stage`` on its artifact."""
        for fault in self._take(stage, "corrupt"):
            artifact = CORRUPTIONS[fault.corruption][1](artifact)
        return artifact

    def take_worker_fault(self, case: str, attempt: int) -> WorkerFault | None:
        """Pop the worker fault scheduled for (``case``, ``attempt``).

        Consumed parent-side by the supervisor at dispatch time, so
        the one-shot guarantee holds even though the fault itself
        fires in a different process.
        """
        for fault in self.worker_faults:
            if fault.case == case and fault.attempt == attempt:
                self.worker_faults.remove(fault)
                return fault
        return None

    def take_store_fault(self, section: str) -> StoreFault | None:
        """Pop the store fault scheduled for ``section`` (one-shot).

        A fault with an empty section matches any section, so a plan
        can tear "the next write" without knowing which artifact lands
        first.
        """
        for fault in self.store_faults:
            if fault.section in ("", section):
                self.store_faults.remove(fault)
                return fault
        return None

    @property
    def exhausted(self) -> bool:
        """True once every scripted fault has fired."""
        return not self.faults and not self.worker_faults and not self.store_faults
