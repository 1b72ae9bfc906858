"""Tests for the schedulability sensitivity analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Approach
from repro.analysis.sensitivity import (
    PenaltyModel,
    breakdown_miss_penalty,
    critical_scaling_factor,
)
from repro.wcrt import TaskSpec, TaskSystem, compute_system_wcrt, zero_cpre


def light_system():
    return TaskSystem(
        tasks=[
            TaskSpec(name="high", wcet=10, period=100, priority=1),
            TaskSpec(name="low", wcet=20, period=400, priority=2),
        ]
    )


class TestCriticalScaling:
    def test_light_system_has_headroom(self):
        factor = critical_scaling_factor(light_system(), zero_cpre)
        assert factor > 1.5

    def test_scaled_system_actually_schedulable_at_factor(self):
        system = light_system()
        factor = critical_scaling_factor(system, zero_cpre)
        scaled = TaskSystem(
            tasks=[
                TaskSpec(
                    name=t.name,
                    wcet=max(1, int(t.wcet * factor * 0.99)),
                    period=t.period,
                    priority=t.priority,
                )
                for t in system.tasks
            ]
        )
        assert compute_system_wcrt(scaled).schedulable

    def test_unschedulable_returns_zero_or_tiny(self):
        system = TaskSystem(
            tasks=[
                TaskSpec(name="hog", wcet=90, period=100, priority=1),
                TaskSpec(name="victim", wcet=50, period=200, priority=2),
            ]
        )
        factor = critical_scaling_factor(system, zero_cpre)
        assert factor < 1.0

    def test_crpd_reduces_headroom(self):
        without = critical_scaling_factor(light_system(), zero_cpre)
        with_crpd = critical_scaling_factor(
            light_system(), lambda low, high: 30, context_switch=5
        )
        assert with_crpd < without

    def test_upper_cap(self):
        tiny = TaskSystem(
            tasks=[TaskSpec(name="t", wcet=1, period=10**6, priority=1)]
        )
        assert critical_scaling_factor(tiny, zero_cpre, upper=4.0) == 4.0

    @given(cpre_cost=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30)
    def test_monotone_in_cpre(self, cpre_cost):
        base = critical_scaling_factor(light_system(), zero_cpre)
        worse = critical_scaling_factor(
            light_system(), lambda l, h: cpre_cost
        )
        assert worse <= base + 1e-6


class TestPenaltyModel:
    def test_calibration_roundtrip(self):
        model = PenaltyModel.calibrate(
            wcets_low={"t": 1000}, wcets_high={"t": 1400},
            penalty_low=10, penalty_high=30,
        )
        assert model.misses["t"] == 20
        assert model.base["t"] == 800
        assert model.wcet("t", 0) == 800
        assert model.wcet("t", 40) == 1600

    def test_nonlinear_rejected(self):
        with pytest.raises(ValueError, match="not linear"):
            PenaltyModel.calibrate(
                wcets_low={"t": 1000}, wcets_high={"t": 1401},
                penalty_low=10, penalty_high=30,
            )

    def test_equal_penalties_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PenaltyModel.calibrate({"t": 1}, {"t": 1}, 10, 10)

    def test_model_matches_vm_exactly(self, experiment1_context):
        """The VM's WCET really is base + misses*penalty: predict Cmiss=40
        from measurements at 20 and 30, then verify by re-measurement."""
        from repro.experiments import EXPERIMENT_I_SPEC, build_context

        ctx20 = experiment1_context
        ctx30 = build_context(EXPERIMENT_I_SPEC, miss_penalty=30)
        model = PenaltyModel.calibrate(
            {n: a.wcet.cycles for n, a in ctx20.artifacts.items()},
            {n: a.wcet.cycles for n, a in ctx30.artifacts.items()},
            20, 30,
        )
        ctx40 = build_context(EXPERIMENT_I_SPEC, miss_penalty=40)
        for name, artifacts in ctx40.artifacts.items():
            assert model.wcet(name, 40) == artifacts.wcet.cycles


class TestBreakdownPenalty:
    def test_tighter_approach_higher_breakdown(self, experiment1_context):
        from repro.experiments import EXPERIMENT_I_SPEC, build_context

        ctx = experiment1_context
        ctx40 = build_context(EXPERIMENT_I_SPEC, miss_penalty=40)
        model = PenaltyModel.calibrate(
            {n: a.wcet.cycles for n, a in ctx.artifacts.items()},
            {n: a.wcet.cycles for n, a in ctx40.artifacts.items()},
            20, 40,
        )
        breakdowns = {}
        for approach in (Approach.BUSQUETS, Approach.LEE, Approach.COMBINED):
            breakdowns[approach] = breakdown_miss_penalty(
                ctx.system, ctx.crpd, model, approach, context_switch=1049
            )
        assert breakdowns[Approach.COMBINED] is not None
        assert breakdowns[Approach.COMBINED] >= breakdowns[Approach.BUSQUETS]
        assert breakdowns[Approach.COMBINED] >= breakdowns[Approach.LEE]
        # The combined analysis buys real headroom on this task set.
        assert breakdowns[Approach.COMBINED] > breakdowns[Approach.BUSQUETS]

    def test_schedulable_at_breakdown_not_above(self, experiment1_context):
        from repro.experiments import EXPERIMENT_I_SPEC, build_context
        from repro.wcrt import TaskSpec, TaskSystem

        ctx = experiment1_context
        ctx40 = build_context(EXPERIMENT_I_SPEC, miss_penalty=40)
        model = PenaltyModel.calibrate(
            {n: a.wcet.cycles for n, a in ctx.artifacts.items()},
            {n: a.wcet.cycles for n, a in ctx40.artifacts.items()},
            20, 40,
        )
        approach = Approach.COMBINED
        breakdown = breakdown_miss_penalty(
            ctx.system, ctx.crpd, model, approach, context_switch=1049
        )
        assert breakdown is not None

        def verdict(penalty):
            tasks = [
                TaskSpec(name=t.name, wcet=model.wcet(t.name, penalty),
                         period=t.period, priority=t.priority)
                for t in ctx.system.tasks
            ]
            return compute_system_wcrt(
                TaskSystem(tasks=tasks),
                cpre=lambda l, h: ctx.crpd.cpre(l, h, approach,
                                                miss_penalty=penalty),
                context_switch=1049,
            ).schedulable

        assert verdict(breakdown)
        assert not verdict(breakdown + 1)


class TestBisectionGuards:
    """The boundary-audit satellite: inputs that used to hang or lie."""

    @pytest.mark.parametrize("precision", [0.0, -1e-3, float("nan")])
    def test_bad_precision_rejected(self, precision):
        with pytest.raises(ValueError, match="precision"):
            critical_scaling_factor(
                light_system(), zero_cpre, precision=precision
            )

    @pytest.mark.parametrize("upper", [0.5, 0.0, float("inf"), float("nan")])
    def test_bad_upper_rejected(self, upper):
        with pytest.raises(ValueError, match="upper"):
            critical_scaling_factor(light_system(), zero_cpre, upper=upper)

    def test_negative_max_penalty_rejected(self):
        model = PenaltyModel(base={"high": 10}, misses={"high": 2})
        with pytest.raises(ValueError, match="max_penalty"):
            breakdown_miss_penalty(
                light_system(), None, model, Approach.COMBINED, max_penalty=-1
            )


class _ConstantMissCRPD:
    """Stub analyzer: every preemption costs `lines * penalty` cycles."""

    def __init__(self, lines):
        self.lines = lines

    def cpre(self, preempted, preempting, approach, miss_penalty):
        return self.lines * miss_penalty


class TestHandDerivedBoundaries:
    def test_scaling_boundary_single_task(self):
        # One task, wcet 40, period 100, no CRPD: schedulable exactly
        # while int(40 * f) <= 100, so the true boundary is f = 2.525.
        system = TaskSystem(
            tasks=[TaskSpec(name="solo", wcet=40, period=100, priority=1)]
        )
        precision = 1e-3
        factor = critical_scaling_factor(system, zero_cpre, precision=precision)
        assert 2.525 - precision <= factor <= 2.525
        # Schedulable-side: the returned factor itself must pass.
        assert int(40 * factor) <= 100

    def test_breakdown_boundary_no_preemption(self):
        # wcet(p) = 10 + 2p against a period/deadline of 100:
        # schedulable iff p <= 45, and 45 must be returned *exactly*.
        model = PenaltyModel.calibrate({"solo": 30}, {"solo": 50}, 10, 20)
        assert model.base == {"solo": 10} and model.misses == {"solo": 2}
        system = TaskSystem(
            tasks=[TaskSpec(name="solo", wcet=30, period=100, priority=1)]
        )
        crpd = _ConstantMissCRPD(lines=0)
        assert (
            breakdown_miss_penalty(system, crpd, model, Approach.COMBINED)
            == 45
        )

    def test_breakdown_boundary_with_crpd(self):
        # high: wcet 10 + 2p, period 100.  low: wcet 20 + p, period 200,
        # each preemption costs p (one line).  The low task's fixpoint is
        # R = (20+p) + ceil(R/100) * (10+2p + p); hand iteration gives
        # R = 40 + 7p for 100 < R <= 200, schedulable through p = 22
        # (R = 194) and divergent at p = 23 (R = 280 > 200).
        model = PenaltyModel(
            base={"high": 10, "low": 20}, misses={"high": 2, "low": 1}
        )
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=30, period=100, priority=1),
                TaskSpec(name="low", wcet=30, period=200, priority=2),
            ]
        )
        crpd = _ConstantMissCRPD(lines=1)
        assert (
            breakdown_miss_penalty(system, crpd, model, Approach.COMBINED)
            == 22
        )

    def test_breakdown_caps_at_max_penalty(self):
        model = PenaltyModel(base={"solo": 10}, misses={"solo": 2})
        system = TaskSystem(
            tasks=[TaskSpec(name="solo", wcet=10, period=10**6, priority=1)]
        )
        crpd = _ConstantMissCRPD(lines=0)
        assert (
            breakdown_miss_penalty(
                system, crpd, model, Approach.COMBINED, max_penalty=500
            )
            == 500
        )

    def test_breakdown_none_when_penalty_zero_fails(self):
        # The model (not the input system's wcet) drives the probes:
        # already at penalty 0 the modelled WCET of 150 exceeds the
        # period of 100.
        model = PenaltyModel(base={"solo": 150}, misses={"solo": 2})
        system = TaskSystem(
            tasks=[TaskSpec(name="solo", wcet=90, period=100, priority=1)]
        )
        crpd = _ConstantMissCRPD(lines=0)
        assert (
            breakdown_miss_penalty(system, crpd, model, Approach.COMBINED)
            is None
        )

    @given(lines=st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_breakdown_monotone_in_crpd_magnitude(self, lines):
        model = PenaltyModel(
            base={"high": 10, "low": 20}, misses={"high": 2, "low": 1}
        )
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=30, period=100, priority=1),
                TaskSpec(name="low", wcet=30, period=200, priority=2),
            ]
        )
        a = breakdown_miss_penalty(
            system, _ConstantMissCRPD(lines), model, Approach.COMBINED
        )
        b = breakdown_miss_penalty(
            system, _ConstantMissCRPD(lines + 1), model, Approach.COMBINED
        )
        assert b is None or (a is not None and b <= a)


class TestBreakdownVsOptimizer:
    def test_optimizer_baseline_agrees_with_the_breakdown_penalty(
        self, experiment1_context
    ):
        """At the breakdown penalty the optimizer must see a schedulable
        baseline (critical scaling factor >= 1); one past it, not."""
        from repro.analysis.store import ArtifactStore
        from repro.analysis.whatif import WhatIfSession
        from repro.experiments import EXPERIMENT_I_SPEC, build_context
        from repro.optimize import optimize

        ctx = experiment1_context
        ctx40 = build_context(EXPERIMENT_I_SPEC, miss_penalty=40)
        model = PenaltyModel.calibrate(
            {n: a.wcet.cycles for n, a in ctx.artifacts.items()},
            {n: a.wcet.cycles for n, a in ctx40.artifacts.items()},
            20, 40,
        )
        approach = Approach.COMBINED
        breakdown = breakdown_miss_penalty(
            ctx.system, ctx.crpd, model, approach, context_switch=1049
        )
        assert breakdown is not None

        store = ArtifactStore(directory=None, memory_slots=8192)

        def baseline_at(penalty):
            probe = WhatIfSession("exp1", miss_penalty=penalty, store=store)
            try:
                config = probe.placed.config
            finally:
                probe.close()
            outcome = optimize(
                "exp1",
                objective="breakdown",
                approach=approach,
                budget_evals=1,
                generation=1,
                method="greedy",
                miss_penalty=penalty,
                cache_budgets=[config],
                store=store,
            )
            return outcome.default_budget

        at_breakdown = baseline_at(breakdown)
        past_breakdown = baseline_at(breakdown + 1)
        # The breakdown objective scores -critical_scaling_factor, so
        # schedulable <=> score <= -1.0.
        assert at_breakdown.baseline_payload["schedulable"]["4"]
        assert at_breakdown.baseline_score <= -1.0
        assert not past_breakdown.baseline_payload["schedulable"]["4"]
        assert past_breakdown.baseline_score > -1.0
