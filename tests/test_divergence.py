"""WCRT terminal states: converged, deadline overrun, unbounded, diverged.

The response-time iteration (Eq. 6/7) can end four ways and the results
must stay distinguishable.  A deadline overrun and an unbounded
recurrence (interferer demand ``U >= 1``: no fixpoint exists) are *exact*
verdicts of unschedulability.  Iteration-budget exhaustion with ``U < 1``
(divergence) reports the closed-form fixpoint bound, a *conservative*
verdict that lands in the degradation ledger as a ``DivergenceError``
entry (or raises it in strict mode).
"""

from __future__ import annotations

import pytest

from repro.errors import DivergenceError, error_kind
from repro.guard import AnalysisBudget, DegradationLedger
from repro.wcrt import TaskSpec, TaskSystem, compute_system_wcrt
from repro.wcrt.response_time import compute_task_wcrt

from tests.faults import (
    make_divergent_system,
    make_overloaded_system,
    make_slow_system,
)


class TestTerminalStates:
    def test_converged_status(self):
        system = make_divergent_system()
        result = compute_task_wcrt(system, "hog")
        assert result.converged and result.schedulable
        assert result.status == "converged"
        assert not result.deadline_stopped and not result.diverged

    def test_deadline_overrun_is_exact_not_degraded(self):
        system = make_divergent_system()
        ledger = DegradationLedger()
        result = compute_task_wcrt(
            system, "victim", stop_at_deadline=True, ledger=ledger
        )
        assert result.status == "deadline_overrun"
        assert result.deadline_stopped
        assert not result.converged and not result.diverged
        assert not result.schedulable
        # Crossing the deadline proves unschedulability exactly: no ledger
        # entry, the result is not a degradation.
        assert ledger.soundness == "exact"

    def test_overload_is_unbounded_and_exact(self):
        system = make_divergent_system()  # the victim's U is exactly 1
        ledger = DegradationLedger()
        result = compute_task_wcrt(
            system,
            "victim",
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
            ledger=ledger,
        )
        assert result.status == "unbounded"
        assert result.unbounded
        assert not (result.converged or result.deadline_stopped or result.diverged)
        assert not result.schedulable
        # The first response past the deadline of 100, the same lower
        # bound a deadline stop reports.
        assert result.wcrt == 101
        assert result.iterations[-2] <= 100 < result.iterations[-1]
        assert ledger.soundness == "exact" and not ledger.events

    def test_divergence_is_conservative_with_ledger_entry(self):
        system = make_slow_system()  # U = 0.95: a fixpoint exists (4000)
        ledger = DegradationLedger()
        result = compute_task_wcrt(
            system,
            "victim",
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
            ledger=ledger,
        )
        assert result.status == "diverged"
        assert result.diverged and not result.converged
        assert not result.deadline_stopped and not result.unbounded
        assert result.iteration_count <= 41
        # The closed-form bound: ceil((200 + 19) / (1 - 19/20)) = 4380,
        # above the true fixpoint and below the deadline.
        assert result.wcrt == 4380
        exact = compute_task_wcrt(system, "victim", stop_at_deadline=False)
        assert exact.converged and exact.wcrt == 4000 <= result.wcrt
        assert result.schedulable
        assert ledger.soundness == "conservative"
        (event,) = ledger.for_stage("wcrt:victim")
        assert event.budget == "max_wcrt_iterations"
        assert "DivergenceError" in event.reason
        assert "closed-form bound 4380" in event.fallback

    def test_strict_budget_raises_divergence_error(self):
        system = make_slow_system()
        with pytest.raises(DivergenceError) as info:
            compute_task_wcrt(
                system,
                "victim",
                stop_at_deadline=False,
                budget=AnalysisBudget(max_wcrt_iterations=40, strict=True),
            )
        assert info.value.task == "victim"
        assert info.value.exit_code == 4
        assert error_kind(info.value) == "divergence"

    def test_strict_budget_accepts_an_unbounded_verdict(self):
        result = compute_task_wcrt(
            make_divergent_system(),
            "victim",
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40, strict=True),
        )
        assert result.status == "unbounded"

    def test_diverged_wcrt_is_still_a_lower_bound(self):
        system = make_divergent_system()
        result = compute_task_wcrt(
            system,
            "victim",
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
            ledger=DegradationLedger(),
        )
        # The recurrence is monotone, so the reported iterate bounds the
        # true (here: infinite) response from below and exceeds the WCET.
        assert result.wcrt >= system.task("victim").wcet
        assert result.iterations == sorted(result.iterations)


class TestOverloadRegression:
    """Utilization > 1 need not diverge: the states must not be conflated."""

    def test_overloaded_system_converges_above_deadline(self):
        system = make_overloaded_system()
        assert system.utilization > 1
        result = compute_task_wcrt(system, "victim", stop_at_deadline=False)
        assert result.status == "converged"
        assert result.converged and not result.diverged
        assert result.wcrt == 18  # fixpoint of R = 6 + ceil(R/10)*6
        assert not result.schedulable  # 18 > deadline 10

    def test_overloaded_system_deadline_stop(self):
        system = make_overloaded_system()
        result = compute_task_wcrt(system, "victim", stop_at_deadline=True)
        assert result.status == "deadline_overrun"
        assert not result.diverged

    def test_divergent_system_utilization_exceeds_one(self):
        assert make_divergent_system().utilization > 1


class TestSystemWCRTLedger:
    def test_system_result_reports_diverged_tasks(self):
        wcrt = compute_system_wcrt(
            make_slow_system(),
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
        )
        assert wcrt.diverged_tasks() == ["victim"]
        assert wcrt.unschedulable_tasks() == []  # the bound meets the deadline
        assert wcrt.schedulable
        assert wcrt.soundness == "conservative"
        assert "max_wcrt_iterations" in wcrt.ledger.tripped_budgets()

    def test_unbounded_task_is_unschedulable_not_diverged(self):
        wcrt = compute_system_wcrt(
            make_divergent_system(),
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
        )
        assert wcrt.diverged_tasks() == []
        assert wcrt.unschedulable_tasks() == ["victim"]
        assert not wcrt.schedulable
        assert wcrt.soundness == "exact"

    def test_shared_ledger_is_the_result_ledger(self):
        ledger = DegradationLedger()
        wcrt = compute_system_wcrt(
            make_divergent_system(),
            stop_at_deadline=False,
            budget=AnalysisBudget(max_wcrt_iterations=40),
            ledger=ledger,
        )
        assert wcrt.ledger is ledger

    def test_exact_system_has_empty_ledger(self):
        system = TaskSystem(
            tasks=[
                TaskSpec("a", wcet=2, period=10, priority=1),
                TaskSpec("b", wcet=3, period=20, priority=2),
            ]
        )
        wcrt = compute_system_wcrt(system, budget=AnalysisBudget())
        assert wcrt.schedulable
        assert wcrt.soundness == "exact"
        assert wcrt.diverged_tasks() == []
