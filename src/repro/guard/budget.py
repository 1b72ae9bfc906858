"""Explicit resource budgets for every stage of the analysis pipeline.

An :class:`AnalysisBudget` caps the four ways the analyzer can blow up:
feasible-path enumeration (combinatorial), the WCRT fixpoint iteration
(divergent recurrences), the cycle-level simulations (runaway jobs or
event floods) and wall-clock time overall.  Budgets are declarative and
immutable; the mutable countdown state lives in the :class:`BudgetClock`
obtained from :meth:`AnalysisBudget.start`, so one budget object can be
reused across many runs.

``strict`` selects the failure posture when a budget trips where a sound
fallback exists: ``False`` (default) degrades conservatively and records
the event in a :class:`~repro.guard.ledger.DegradationLedger`; ``True``
raises the typed :class:`~repro.errors.BudgetExceeded` /
:class:`~repro.errors.DivergenceError` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import BudgetExceeded, ConfigError


@dataclass(frozen=True)
class AnalysisBudget:
    """Resource limits for one end-to-end analysis.

    Attributes:
        max_paths: feasible-path enumeration limit per task (Section VI
            targets programs with a small path count; past this the
            path-level Eq. 4 analysis degrades to the MUMBS∩CIIP bound).
        max_wcrt_iterations: Equation 6/7 fixpoint iteration cap.
        wall_clock_seconds: overall deadline for an analysis run; ``None``
            disables the wall-clock check.
        max_sim_steps: instruction-step cap for any single simulation
            (WCET measurement runs and the shared-cache scheduler).
        max_sim_events: scheduler event-record cap; ``None`` is unlimited.
        strict: raise typed errors instead of degrading soundly.
        exact_paths: recover the exact Eq. 4 bound by branch-and-bound
            for tasks whose path enumeration tripped ``max_paths``,
            instead of degrading Approach 4.
    """

    max_paths: int = 4096
    max_wcrt_iterations: int = 1000
    wall_clock_seconds: float | None = None
    max_sim_steps: int = 50_000_000
    max_sim_events: int | None = None
    strict: bool = False
    exact_paths: bool = False

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ConfigError(f"max_paths must be >= 1, got {self.max_paths}")
        if self.max_wcrt_iterations < 1:
            raise ConfigError(
                f"max_wcrt_iterations must be >= 1, got {self.max_wcrt_iterations}"
            )
        if self.wall_clock_seconds is not None and self.wall_clock_seconds <= 0:
            raise ConfigError("wall_clock_seconds must be positive")
        if self.max_sim_steps < 1:
            raise ConfigError(f"max_sim_steps must be >= 1, got {self.max_sim_steps}")
        if self.max_sim_events is not None and self.max_sim_events < 1:
            raise ConfigError("max_sim_events must be >= 1")

    @classmethod
    def unlimited(cls, strict: bool = False) -> "AnalysisBudget":
        """A budget that never trips (within practical integer bounds)."""
        return cls(
            max_paths=2**31,
            max_wcrt_iterations=2**31,
            wall_clock_seconds=None,
            max_sim_steps=2**62,
            max_sim_events=None,
            strict=strict,
        )

    def start(self) -> "BudgetClock":
        """Begin the wall-clock countdown for one analysis run."""
        return BudgetClock(self)


class BudgetClock:
    """Mutable countdown state for one run under an :class:`AnalysisBudget`."""

    def __init__(self, budget: AnalysisBudget):
        self.budget = budget
        self._start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    @property
    def expired(self) -> bool:
        limit = self.budget.wall_clock_seconds
        return limit is not None and self.elapsed() > limit

    def check(self, stage: str) -> None:
        """Raise :class:`BudgetExceeded` when the wall-clock deadline passed.

        Used before stages that have *no* sound fallback (e.g. the WCET
        measurement the whole analysis rests on); stages with a fallback
        test :attr:`expired` and degrade instead.
        """
        if self.expired:
            raise BudgetExceeded(
                f"wall-clock budget of {self.budget.wall_clock_seconds}s "
                f"exhausted after {self.elapsed():.3f}s at stage {stage!r}",
                budget="wall_clock_seconds",
                stage=stage,
            )
