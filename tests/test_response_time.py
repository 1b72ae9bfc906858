"""Unit and property tests for the WCRT iteration (Equations 6 and 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.wcrt import (
    TaskSpec,
    TaskSystem,
    compute_system_wcrt,
    compute_task_wcrt,
    utilization_bound_test,
    zero_cpre,
)

from tests.oracles.response_time import reference_task_wcrt


def crpd_cpre(crpd, approach):
    """``(preempted, preempting) -> Cpre`` of *approach*."""
    return lambda low, high: crpd.cpre(low, high, approach)


def classic_system():
    """A textbook RTA example with hand-checkable fixpoints."""
    return TaskSystem(
        tasks=[
            TaskSpec(name="t1", wcet=1, period=4, priority=1),
            TaskSpec(name="t2", wcet=2, period=6, priority=2),
            TaskSpec(name="t3", wcet=3, period=13, priority=3),
        ]
    )


class TestEquation6:
    def test_highest_priority_wcrt_is_wcet(self):
        result = compute_task_wcrt(classic_system(), "t1")
        assert result.wcrt == 1
        assert result.converged

    def test_textbook_fixpoints(self):
        """R2 = 2 + ceil(R2/4)*1 -> 3; R3 = 3 + ceil(R3/4) + 2*ceil(R3/6)."""
        system = classic_system()
        assert compute_task_wcrt(system, "t2").wcrt == 3
        # R3: 3 -> 3+1+2=6 -> 3+2+2=7 -> 3+2+4=9 -> 3+3+4=10 -> 3+3+4=10.
        assert compute_task_wcrt(system, "t3").wcrt == 10

    def test_system_wcrt_covers_all_tasks(self):
        results = compute_system_wcrt(classic_system())
        assert set(results.results) == {"t1", "t2", "t3"}
        assert results.schedulable
        assert results.unschedulable_tasks() == []

    def test_unschedulable_detected(self):
        system = TaskSystem(
            tasks=[
                TaskSpec(name="hog", wcet=9, period=10, priority=1),
                TaskSpec(name="victim", wcet=5, period=20, priority=2),
            ]
        )
        results = compute_system_wcrt(system)
        assert not results.schedulable
        assert results.unschedulable_tasks() == ["victim"]
        assert not results.results["victim"].schedulable

    def test_iteration_history_monotone(self):
        result = compute_task_wcrt(classic_system(), "t3")
        assert result.iterations == sorted(result.iterations)
        assert result.iterations[0] == 3
        assert result.iterations[-1] == result.wcrt


class TestEquation7:
    def test_cpre_increases_wcrt(self):
        system = classic_system()
        base = compute_task_wcrt(system, "t3").wcrt
        with_crpd = compute_task_wcrt(
            system, "t3", cpre=lambda low, high: 1
        ).wcrt
        assert with_crpd > base

    def test_context_switch_charged_twice(self):
        """Each preemption window charges Cj + Cpre + 2*Ccs (Eq. 7)."""
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=10, period=100, priority=1),
                TaskSpec(name="low", wcet=10, period=1000, priority=2),
            ]
        )
        base = compute_task_wcrt(system, "low").wcrt
        with_ccs = compute_task_wcrt(system, "low", context_switch=5).wcrt
        # One preemption window: 10 + (10 + 0 + 2*5) = 30 vs 20.
        assert base == 20
        assert with_ccs == 30

    def test_cpre_applies_per_preempting_task(self):
        calls = []

        def tracking_cpre(low, high):
            calls.append((low, high))
            return 0

        compute_task_wcrt(classic_system(), "t3", cpre=tracking_cpre)
        assert ("t3", "t1") in calls
        assert ("t3", "t2") in calls
        assert all(low == "t3" for low, _ in calls)

    def test_stop_at_deadline_vs_full_fixpoint(self):
        """With stop_at_deadline=False the iteration continues to the true
        fixpoint past the deadline (paper Tables III/V behaviour)."""
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=40, period=100, priority=1),
                TaskSpec(name="low", wcet=30, period=200, priority=2),
            ]
        )
        big_cpre = lambda low, high: 50  # noqa: E731
        early = compute_task_wcrt(system, "low", cpre=big_cpre)
        full = compute_task_wcrt(
            system, "low", cpre=big_cpre, stop_at_deadline=False
        )
        assert not early.schedulable
        assert full.wcrt >= early.wcrt

    def test_divergent_iteration_capped(self):
        """Utilization > 1 with CRPD: iteration hits max_iterations."""
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=60, period=100, priority=1),
                TaskSpec(name="low", wcet=50, period=400, priority=2),
            ]
        )
        result = compute_task_wcrt(
            system,
            "low",
            cpre=lambda low, high: 60,
            stop_at_deadline=False,
            max_iterations=50,
        )
        assert not result.converged
        assert not result.schedulable


class TestUtilizationBound:
    def test_liu_layland_bound(self):
        light = TaskSystem(
            tasks=[
                TaskSpec(name="a", wcet=1, period=10, priority=1),
                TaskSpec(name="b", wcet=1, period=10**2, priority=2),
            ]
        )
        assert utilization_bound_test(light)
        # The classic system's utilisation (0.814) exceeds the n=3 bound
        # (0.7798) even though the exact RTA proves it schedulable.
        assert not utilization_bound_test(classic_system())
        assert compute_system_wcrt(classic_system()).schedulable
        heavy = TaskSystem(
            tasks=[
                TaskSpec(name="a", wcet=5, period=10, priority=1),
                TaskSpec(name="b", wcet=5, period=11, priority=2),
            ]
        )
        assert not utilization_bound_test(heavy)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def two_task_systems(draw):
    high_wcet = draw(st.integers(min_value=1, max_value=50))
    high_period = draw(st.integers(min_value=high_wcet * 2, max_value=500))
    low_wcet = draw(st.integers(min_value=1, max_value=50))
    low_period = draw(st.integers(min_value=max(low_wcet, high_period), max_value=5000))
    return TaskSystem(
        tasks=[
            TaskSpec(name="high", wcet=high_wcet, period=high_period, priority=1),
            TaskSpec(name="low", wcet=low_wcet, period=low_period, priority=2),
        ]
    )


@given(system=two_task_systems(), cpre_cost=st.integers(min_value=0, max_value=30))
@settings(max_examples=80)
def test_wcrt_monotone_in_cpre(system, cpre_cost):
    base = compute_task_wcrt(system, "low", stop_at_deadline=False).wcrt
    inflated = compute_task_wcrt(
        system, "low", cpre=lambda l, h: cpre_cost, stop_at_deadline=False
    ).wcrt
    assert inflated >= base


@given(system=two_task_systems())
@settings(max_examples=80)
def test_wcrt_at_least_wcet_and_contains_interference(system):
    result = compute_task_wcrt(system, "low", stop_at_deadline=False)
    low = system.task("low")
    high = system.task("high")
    assert result.wcrt >= low.wcet
    if result.converged:
        # The fixpoint satisfies Eq. 6 exactly.
        from math import ceil

        expected = low.wcet + ceil(result.wcrt / high.period) * high.wcet
        assert result.wcrt == expected


@given(system=two_task_systems(), ccs=st.integers(min_value=0, max_value=20))
@settings(max_examples=60)
def test_wcrt_monotone_in_context_switch(system, ccs):
    base = compute_task_wcrt(system, "low", stop_at_deadline=False).wcrt
    inflated = compute_task_wcrt(
        system, "low", context_switch=ccs, stop_at_deadline=False
    ).wcrt
    assert inflated >= base


# ----------------------------------------------------------------------
# Interference terms: Cpre asked once per interferer, results unchanged
# ----------------------------------------------------------------------


class TestInterferenceTerms:
    """Eq. 7's per-interferer terms are built once, lazily, and change
    nothing the plain loop (``tests/oracles/response_time.py``) decides:
    converged and deadline-stopped results, their ledgers and raise points
    are identical.  Where the plain loop only runs out of rounds, the
    production loop says why: ``unbounded`` (``U >= 1``) or ``diverged``
    with the closed-form bound."""

    @staticmethod
    def systems(context):
        from dataclasses import replace

        system = context.system
        overloaded = TaskSystem(
            tasks=[replace(task, period=task.period // 3) for task in system.tasks]
        )
        return {"paper": system, "overloaded": overloaded}

    @staticmethod
    def overloaded(system, name, cpre, context_switch) -> bool:
        from repro.wcrt.response_time import interferer_demand

        terms = [
            (other.jitter, other.period,
             other.wcet + cpre(name, other.name) + 2 * context_switch)
            for other in system.higher_priority(name)
        ]
        demand, common = interferer_demand(terms)
        return demand >= common

    @pytest.mark.parametrize("max_iterations", [0, 1, 1000])
    def test_cpre_once_per_interferer_and_results_identical(
        self, experiment1_context, max_iterations
    ):
        import pickle

        from repro.analysis.crpd import Approach
        from repro.guard.ledger import DegradationLedger

        crpd = experiment1_context.crpd
        states = set()
        for label, system in self.systems(experiment1_context).items():
            for approach in Approach:
                for task in system.tasks:
                    calls = []

                    def cpre(low, high):
                        calls.append((low, high))
                        return crpd.cpre(low, high, approach)

                    kwargs = dict(
                        cpre=cpre, context_switch=7,
                        max_iterations=max_iterations, stop_at_deadline=False,
                        budget=None,
                    )
                    ledger = DegradationLedger()
                    result = compute_task_wcrt(
                        system, task.name, ledger=ledger, **kwargs
                    )
                    interferers = system.higher_priority(task.name)
                    expected = [(task.name, other.name) for other in interferers]
                    where = (label, approach, task.name)
                    assert calls == (expected if max_iterations else []), where
                    reference_ledger = DegradationLedger()
                    reference = reference_task_wcrt(
                        system, task.name, ledger=reference_ledger, **kwargs
                    )
                    states.add(result.status)
                    if result.converged or max_iterations == 0:
                        assert pickle.dumps(result) == pickle.dumps(reference)
                        assert pickle.dumps(ledger.events) == pickle.dumps(
                            reference_ledger.events
                        )
                        continue
                    overloaded = self.overloaded(
                        system, task.name, crpd_cpre(crpd, approach), 7
                    )
                    assert not reference.converged, where
                    if result.unbounded:
                        assert overloaded, where
                        # Cut at the first response past the deadline, or
                        # where the rounds ran out before reaching it.
                        assert result.iterations == reference.iterations[
                            : result.iteration_count
                        ], where
                        assert result.wcrt == result.iterations[-1]
                        assert result.iterations[-2] <= task.effective_deadline
                        assert (
                            result.wcrt > task.effective_deadline
                            or result.iterations == reference.iterations
                        ), where
                        assert not result.schedulable and not ledger.events
                    else:
                        assert result.diverged and not overloaded, where
                        assert result.iterations == reference.iterations
                        assert result.wcrt >= reference.wcrt
                        (event,) = ledger.events
                        (old,) = reference_ledger.events
                        assert (event.stage, event.budget, event.reason) == (
                            old.stage, old.budget, old.reason
                        )
                        assert "closed-form bound" in event.fallback
        if max_iterations == 1000:
            assert states == {"converged", "unbounded"}

    def test_strict_divergence_raises_identically(self, experiment1_context):
        from repro.analysis.crpd import Approach
        from repro.errors import DivergenceError
        from repro.guard.budget import AnalysisBudget
        from repro.guard.ledger import DegradationLedger

        crpd = experiment1_context.crpd
        budget = AnalysisBudget(max_wcrt_iterations=2, strict=True)
        system = self.systems(experiment1_context)["overloaded"]
        cpre = crpd_cpre(crpd, Approach.COMBINED)
        raised = unbounded = 0
        for task in system.tasks:
            outcomes = []
            for run in (compute_task_wcrt, reference_task_wcrt):
                try:
                    outcome = run(
                        system, task.name, cpre=cpre, context_switch=0,
                        max_iterations=1000, stop_at_deadline=False,
                        budget=budget, ledger=DegradationLedger(),
                    )
                except DivergenceError as error:
                    outcome = ("raised", str(error), error.task)
                outcomes.append(outcome)
            mine, plain = outcomes
            if isinstance(plain, tuple) and self.overloaded(
                system, task.name, cpre, 0
            ):
                # The plain loop gives up; an exact U >= 1 is no error.
                assert mine.status == "unbounded", task.name
                unbounded += 1
            else:
                assert mine == plain, task.name
                raised += isinstance(mine, tuple)
        # Both outcomes occur: ofdm has no fixpoint, ed's is out of reach.
        assert unbounded >= 1 and raised >= 1

    def test_raising_cpre_raises_on_the_first_round(self):
        def cpre(low, high):
            raise RuntimeError(f"no Cpre for {low} by {high}")

        with pytest.raises(RuntimeError, match="no Cpre for t3 by t1"):
            compute_task_wcrt(classic_system(), "t3", cpre=cpre)
        # A zero-round budget asks for no Cpre at all.
        result = compute_task_wcrt(
            classic_system(), "t3", cpre=cpre, max_iterations=0
        )
        assert result.diverged
