"""Wall-clock budgets threaded through every synthesis stage.

A :class:`Deadline` wraps a monotonic clock plus an optional budget in
seconds.  Long-running work polls ``expired()`` or calls ``check()``
cooperatively, and the ring MILP folds the remaining budget into
HiGHS's own time limit via ``clamp``; stage boundaries use
``stage(...)`` to record per-stage elapsed time for the synthesis
report.

``consume(seconds)`` burns budget without sleeping — the deterministic
hook the fault-injection harness uses to simulate solver stalls, so
stall tests run in microseconds of real time.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.robustness.errors import DeadlineExceeded


class Deadline:
    """A shared time budget with per-stage accounting.

    ``budget_s=None`` means unlimited: ``remaining()`` is ``inf`` and
    ``check()`` never raises, so the un-deadlined flow pays only a
    clock read per poll.
    """

    def __init__(
        self,
        budget_s: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._started = clock()
        self._consumed = 0.0
        self.stage_elapsed_s: dict[str, float] = {}

    @classmethod
    def unlimited(cls) -> "Deadline":
        """A deadline that never expires (the default flow)."""
        return cls(None)

    # -- queries -------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds spent so far, including injected stalls."""
        return (self._clock() - self._started) + self._consumed

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at 0)."""
        if self.budget_s is None:
            return math.inf
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        """True once the budget is gone."""
        return self.budget_s is not None and self.elapsed() >= self.budget_s

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exhausted "
                f"after {self.elapsed():.3f}s",
                stage=stage,
                context={"budget_s": self.budget_s, "elapsed_s": self.elapsed()},
            )

    # -- budget manipulation -------------------------------------------------
    def consume(self, seconds: float) -> None:
        """Burn budget without sleeping (deterministic stall injection)."""
        if seconds < 0:
            raise ValueError("cannot consume negative time")
        self._consumed += seconds

    def clamp(self, limit: float | None) -> float | None:
        """Fold an independent per-stage limit into the remaining budget.

        Returns the tighter of ``limit`` and ``remaining()``, or ``None``
        when both are unlimited — the shape the MILP solve expects for
        its ``time_limit`` option.
        """
        remaining = self.remaining()
        if limit is None:
            return None if math.isinf(remaining) else remaining
        return min(limit, remaining)

    # -- stage accounting ----------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Record wall-clock time spent inside the block under ``name``."""
        before_wall = self._clock()
        before_consumed = self._consumed
        try:
            yield
        finally:
            spent = (self._clock() - before_wall) + (
                self._consumed - before_consumed
            )
            self.stage_elapsed_s[name] = (
                self.stage_elapsed_s.get(name, 0.0) + spent
            )
