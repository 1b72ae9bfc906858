"""Guard layer: budgets, ledger, error taxonomy and fault injection.

The fault-injection half drives the pipeline with the adversarial inputs
from :mod:`tests.faults` and asserts the robustness invariant: every run
returns either a sound bound whose ledger names the tripped budget, or a
typed :class:`~repro.errors.ReproError` — never a bare traceback.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.analysis import (
    Approach,
    CRPDAnalyzer,
    analyze_task,
    conservative_approach4_lines,
)
from repro.cache import CacheConfig, CacheState
from repro.errors import (
    BudgetExceeded,
    ConfigError,
    DivergenceError,
    PathExplosionError,
    ReproError,
    SimulationError,
    error_kind,
)
from repro.analysis.pipeline import PlacedSystem, PlacedTask, run_pipeline
from repro.guard import AnalysisBudget, DegradationLedger
from repro.program import SystemLayout
from repro.sched import Simulator, TaskBinding
from repro.wcrt import TaskSpec, compute_system_wcrt

from tests.conftest import make_streaming_program
from tests.oracles.pathcost import PathCostResult
from tests.faults import (
    DEGENERATE_GEOMETRIES,
    INVALID_GEOMETRIES,
    exploding_scenarios,
    make_exploding_program,
    make_slow_system,
)

BRANCHES = 6  # 2**6 = 64 feasible paths: cheap to build, easy to blow.


@pytest.fixture(scope="module")
def shared_config():
    return CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)


@pytest.fixture(scope="module")
def shared_layouts():
    layout = SystemLayout()
    return {
        "bomb": layout.place(make_exploding_program(branches=BRANCHES)),
        "victim": layout.place(
            make_streaming_program("victim", words=32, reps=2)
        ),
    }


def analyze_victim(shared_layouts, config, **kwargs):
    return analyze_task(
        shared_layouts["victim"],
        {"default": {"data": list(range(32))}},
        config,
        **kwargs,
    )


def analyze_bomb(shared_layouts, config, **kwargs):
    return analyze_task(
        shared_layouts["bomb"], exploding_scenarios(BRANCHES), config, **kwargs
    )


# ----------------------------------------------------------------------
# AnalysisBudget / BudgetClock
# ----------------------------------------------------------------------
class TestAnalysisBudget:
    def test_defaults_are_valid(self):
        budget = AnalysisBudget()
        assert budget.max_paths == 4096
        assert not budget.strict

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_paths=0),
            dict(max_wcrt_iterations=0),
            dict(wall_clock_seconds=0.0),
            dict(wall_clock_seconds=-1.0),
            dict(max_sim_steps=0),
            dict(max_sim_events=0),
        ],
    )
    def test_invalid_limits_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            AnalysisBudget(**kwargs)
        # ConfigError is also a ValueError for pre-taxonomy callers.
        with pytest.raises(ValueError):
            AnalysisBudget(**kwargs)

    def test_unlimited_never_trips(self):
        budget = AnalysisBudget.unlimited()
        clock = budget.start()
        assert not clock.expired
        clock.check("anything")  # must not raise

    def test_clock_expiry_raises_typed_budget_error(self):
        budget = AnalysisBudget(wall_clock_seconds=1e-6)
        clock = budget.start()
        time.sleep(0.002)
        assert clock.expired
        with pytest.raises(BudgetExceeded) as info:
            clock.check("wcet:demo")
        assert info.value.budget == "wall_clock_seconds"
        assert info.value.stage == "wcet:demo"
        assert info.value.exit_code == 3

    def test_clock_without_deadline_never_expires(self):
        clock = AnalysisBudget(wall_clock_seconds=None).start()
        assert not clock.expired
        clock.check("anywhere")


# ----------------------------------------------------------------------
# DegradationLedger
# ----------------------------------------------------------------------
class TestDegradationLedger:
    def test_fresh_ledger_is_exact(self):
        ledger = DegradationLedger()
        assert not ledger.degraded
        assert ledger.soundness == "exact"
        assert ledger.describe() == "exact: no degradations"
        assert ledger.tripped_budgets() == frozenset()

    def test_recording_flips_to_conservative(self):
        ledger = DegradationLedger()
        event = ledger.record(
            stage="crpd:a<-b",
            budget="max_paths",
            reason="too many paths",
            fallback="mumbs_ciip",
        )
        assert ledger.degraded
        assert ledger.soundness == "conservative"
        assert ledger.tripped_budgets() == frozenset({"max_paths"})
        assert "crpd:a<-b" in event.describe()
        assert "max_paths" in ledger.describe()

    def test_for_stage_matches_exact_and_colon_prefix(self):
        ledger = DegradationLedger()
        ledger.record(stage="crpd:a<-b", budget="x", reason="r", fallback="f")
        ledger.record(stage="crpd", budget="x", reason="r", fallback="f")
        ledger.record(stage="crpdx:y", budget="x", reason="r", fallback="f")
        assert len(ledger.for_stage("crpd")) == 2
        assert len(ledger.for_stage("crpd:a<-b")) == 1
        assert ledger.for_stage("paths") == []

    def test_merge_appends_and_returns_self(self):
        a, b = DegradationLedger(), DegradationLedger()
        b.record(stage="s", budget="b", reason="r", fallback="f")
        assert a.merge(b) is a
        assert a.degraded and len(a.events) == 1


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_kinds_and_exit_codes(self):
        cases = [
            (ReproError("x"), "error", 1),
            (ConfigError("x"), "config", 2),
            (BudgetExceeded("x"), "budget", 3),
            (PathExplosionError("x"), "budget", 3),
            (DivergenceError("x"), "divergence", 4),
            (SimulationError("x"), "simulation", 5),
        ]
        for error, kind, code in cases:
            assert error_kind(error) == kind
            assert error.exit_code == code
        # Exit codes are distinct per taxonomy branch.
        assert len({code for _, _, code in cases[1:]}) == 4

    def test_backward_compatible_bases(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(DivergenceError, RuntimeError)
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(PathExplosionError, BudgetExceeded)
        for klass in (ConfigError, BudgetExceeded, DivergenceError, SimulationError):
            assert issubclass(klass, ReproError)

    def test_budget_error_carries_axis_and_stage(self):
        error = PathExplosionError("boom", stage="paths:demo")
        assert error.budget == "max_paths"
        assert error.stage == "paths:demo"


# ----------------------------------------------------------------------
# Fault: path explosion
# ----------------------------------------------------------------------
class TestPathExplosionFault:
    def test_unbudgeted_enumeration_succeeds(self, shared_layouts, shared_config):
        artifacts = analyze_bomb(shared_layouts, shared_config)
        assert len(artifacts.path_profiles) == 2**BRANCHES
        assert artifacts.path_enumeration_complete

    def test_nonstrict_budget_degrades_with_ledger(
        self, shared_layouts, shared_config
    ):
        budget = AnalysisBudget(max_paths=16)
        ledger = DegradationLedger()
        artifacts = analyze_bomb(
            shared_layouts, shared_config, budget=budget, ledger=ledger
        )
        assert not artifacts.path_enumeration_complete
        assert artifacts.path_profiles == []
        assert ledger.soundness == "conservative"
        assert ledger.tripped_budgets() == frozenset({"max_paths"})
        assert ledger.for_stage("paths:bomb")

    def test_strict_budget_raises_typed_error(self, shared_layouts, shared_config):
        budget = AnalysisBudget(max_paths=16, strict=True)
        with pytest.raises(PathExplosionError):
            analyze_bomb(shared_layouts, shared_config, budget=budget)

    def test_degraded_crpd_uses_conservative_ladder(
        self, shared_layouts, shared_config
    ):
        budget = AnalysisBudget(max_paths=16)
        ledger = DegradationLedger()
        bomb = analyze_bomb(
            shared_layouts, shared_config, budget=budget, ledger=ledger
        )
        victim = analyze_victim(
            shared_layouts, shared_config, budget=budget, ledger=ledger
        )
        crpd = CRPDAnalyzer(
            {"bomb": bomb, "victim": victim}, budget=budget, ledger=ledger
        )
        estimate = crpd.estimate_pair("victim", "bomb")
        expected = conservative_approach4_lines(victim, bomb, "per_point")
        assert estimate.lines[Approach.COMBINED] == expected
        # Degraded Approach 4 never exceeds Approaches 2 and 3.
        assert estimate.lines[Approach.COMBINED] <= estimate.lines[Approach.INTERTASK]
        assert estimate.lines[Approach.COMBINED] <= estimate.lines[Approach.LEE]
        assert crpd.soundness == "conservative"
        assert ledger.for_stage("crpd:victim<-bomb")

    def test_strict_crpd_refuses_degradation(self, shared_layouts, shared_config):
        bomb = analyze_bomb(
            shared_layouts, shared_config, budget=AnalysisBudget(max_paths=16)
        )
        victim = analyze_victim(shared_layouts, shared_config)
        crpd = CRPDAnalyzer(
            {"bomb": bomb, "victim": victim},
            budget=AnalysisBudget(max_paths=16, strict=True),
        )
        with pytest.raises(BudgetExceeded) as info:
            crpd.lines_reloaded("victim", "bomb", Approach.COMBINED)
        assert info.value.budget == "max_paths"


# ----------------------------------------------------------------------
# Fault: wall-clock exhaustion
# ----------------------------------------------------------------------
class TestWallClockFault:
    def test_wcet_stage_has_no_fallback(self, shared_layouts, shared_config):
        budget = AnalysisBudget(wall_clock_seconds=1e-6)
        time.sleep(0.002)
        clock = budget.start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as info:
            analyze_victim(
                shared_layouts, shared_config, budget=budget, clock=clock
            )
        assert info.value.budget == "wall_clock_seconds"

    def test_crpd_degrades_on_expired_clock(self, shared_layouts, shared_config):
        victim = analyze_victim(shared_layouts, shared_config)
        bomb = analyze_bomb(shared_layouts, shared_config)
        budget = AnalysisBudget(wall_clock_seconds=1e-6)
        clock = budget.start()
        time.sleep(0.002)
        crpd = CRPDAnalyzer(
            {"bomb": bomb, "victim": victim}, budget=budget, clock=clock
        )
        estimate = crpd.estimate_pair("victim", "bomb")
        assert estimate.lines[Approach.COMBINED] == conservative_approach4_lines(
            victim, bomb, "per_point"
        )
        assert crpd.ledger.tripped_budgets() == frozenset({"wall_clock_seconds"})


# ----------------------------------------------------------------------
# Fault: degenerate and invalid cache geometries
# ----------------------------------------------------------------------
class TestGeometryFaults:
    @pytest.mark.parametrize(
        "config", DEGENERATE_GEOMETRIES, ids=lambda c: f"s{c.num_sets}w{c.ways}"
    )
    def test_degenerate_geometries_yield_sound_exact_bounds(self, config):
        layout = SystemLayout()
        low = layout.place(make_streaming_program("low", words=12, reps=2))
        high = layout.place(make_streaming_program("high", words=8, reps=1))
        low_art = analyze_task(low, {"d": {"data": list(range(12))}}, config)
        high_art = analyze_task(high, {"d": {"data": list(range(8))}}, config)
        crpd = CRPDAnalyzer({"low": low_art, "high": high_art})
        estimate = crpd.estimate_pair("low", "high")
        lines = estimate.lines
        assert all(count >= 0 for count in lines.values())
        assert lines[Approach.COMBINED] <= lines[Approach.INTERTASK]
        assert lines[Approach.COMBINED] <= lines[Approach.LEE]
        # No way can hold more reloads than the cache has lines.
        capacity = config.num_sets * config.ways
        assert lines[Approach.LEE] <= capacity
        assert lines[Approach.COMBINED] <= capacity
        assert crpd.soundness == "exact"

    @pytest.mark.parametrize("kwargs", INVALID_GEOMETRIES)
    def test_invalid_geometries_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)


# ----------------------------------------------------------------------
# Fault: empty path sets (zero-path preemptors)
# ----------------------------------------------------------------------
class TestEmptyPathSet:
    def make_pathless(self, shared_layouts, shared_config):
        artifacts = analyze_victim(shared_layouts, shared_config)
        return dataclasses.replace(artifacts, path_profiles=[])

    def test_zero_paths_contribute_zero_lines(self, shared_layouts, shared_config):
        preempted = analyze_bomb(shared_layouts, shared_config)
        pathless = self.make_pathless(shared_layouts, shared_config)
        for mode in ("paper", "per_point"):
            crpd = CRPDAnalyzer(
                {"bomb": preempted, "victim": pathless}, mumbs_mode=mode
            )
            assert crpd.lines_reloaded("bomb", "victim", Approach.COMBINED) == 0
            assert crpd.soundness == "exact"

    def test_strict_mode_keeps_it_fatal(self, shared_layouts, shared_config):
        preempted = analyze_bomb(shared_layouts, shared_config)
        pathless = self.make_pathless(shared_layouts, shared_config)
        crpd = CRPDAnalyzer(
            {"bomb": preempted, "victim": pathless},
            budget=AnalysisBudget(strict=True),
        )
        with pytest.raises(ConfigError, match="no feasible paths"):
            crpd.lines_reloaded("bomb", "victim", Approach.COMBINED)

    def test_empty_path_cost_result(self):
        result = PathCostResult(per_path=[])
        assert result.lines == 0
        with pytest.raises(ConfigError):
            result.lines_strict()
        with pytest.raises(ValueError):
            _ = result.worst


# ----------------------------------------------------------------------
# Fault: runaway simulation
# ----------------------------------------------------------------------
class TestSimulationFault:
    def build_simulator(self, shared_layouts, shared_config):
        spec = TaskSpec("victim", wcet=500, period=100_000, priority=1)
        binding = TaskBinding(
            spec=spec,
            layout=shared_layouts["victim"],
            inputs={"data": list(range(32))},
        )
        return Simulator([binding], CacheState(shared_config))

    def test_step_budget_raises_simulation_error(
        self, shared_layouts, shared_config
    ):
        simulator = self.build_simulator(shared_layouts, shared_config)
        with pytest.raises(SimulationError):
            simulator.run(1000, budget=AnalysisBudget(max_sim_steps=10))

    def test_event_budget_raises_simulation_error(
        self, shared_layouts, shared_config
    ):
        simulator = self.build_simulator(shared_layouts, shared_config)
        with pytest.raises(SimulationError):
            simulator.run(1000, budget=AnalysisBudget(max_sim_events=1))

    def test_generous_budget_completes(self, shared_layouts, shared_config):
        simulator = self.build_simulator(shared_layouts, shared_config)
        result = simulator.run(1000, budget=AnalysisBudget())
        assert result.jobs


# ----------------------------------------------------------------------
# run_pipeline end-to-end under one budget and ledger
# ----------------------------------------------------------------------
def placed_system(layouts, config, names=("bomb", "victim")) -> PlacedSystem:
    """The path bomb preempting a streaming victim, highest priority first."""
    scenarios = {
        "bomb": exploding_scenarios(BRANCHES),
        "victim": {"d": {"data": list(range(32))}},
    }
    return PlacedSystem(
        tasks=tuple(
            PlacedTask(
                name=name,
                layout=layouts[name],
                scenarios=scenarios[name],
                priority=index + 1,
                period_mult=(20, 40)[index],
            )
            for index, name in enumerate(names)
        ),
        config=config,
        mumbs_mode="per_point",
        context_switch=0,
    )


class TestRunPipeline:
    def test_empty_system_is_config_error(self, shared_config):
        empty = PlacedSystem(
            tasks=(), config=shared_config, mumbs_mode="per_point",
            context_switch=0,
        )
        with pytest.raises(ConfigError):
            run_pipeline(empty)

    def test_exact_end_to_end(self, shared_layouts, shared_config):
        result = run_pipeline(placed_system(shared_layouts, shared_config))
        wcrt = result.wcrt(Approach.COMBINED)
        assert wcrt.soundness == "exact"
        assert result.soundness == "exact"
        assert wcrt.ledger is result.ledger

    def test_degraded_end_to_end_carries_audit_trail(
        self, shared_layouts, shared_config
    ):
        result = run_pipeline(
            placed_system(shared_layouts, shared_config),
            budget=AnalysisBudget(max_paths=4),
        )
        wcrt = result.wcrt(Approach.COMBINED)
        assert wcrt.soundness == "conservative"
        assert "max_paths" in wcrt.ledger.tripped_budgets()
        assert wcrt.ledger.for_stage("paths:bomb")
        assert wcrt.ledger.for_stage("crpd:victim<-bomb")

    def test_exact_paths_recovers_eq4_past_max_paths(
        self, shared_layouts, shared_config
    ):
        placed = placed_system(shared_layouts, shared_config)
        exact = run_pipeline(placed)
        recovered = run_pipeline(
            placed, budget=AnalysisBudget(max_paths=4, exact_paths=True)
        )
        assert recovered.crpd.lines_reloaded(
            "victim", "bomb", Approach.COMBINED
        ) == exact.crpd.lines_reloaded("victim", "bomb", Approach.COMBINED)
        # Branch-and-bound answered Eq. 4 exactly, so the tripped path
        # enumeration degraded nothing: no event, and an exact tag.
        assert not recovered.ledger.for_stage("paths:bomb")
        assert not recovered.ledger.for_stage("crpd:victim<-bomb")
        assert recovered.soundness == "exact"
        assert recovered.wcrt(Approach.COMBINED).soundness == "exact"

    @pytest.mark.parametrize(
        "exact_first", [True, False], ids=["exact-first", "degraded-first"]
    )
    def test_exact_and_degraded_runs_share_a_store(
        self, shared_layouts, shared_config, tmp_path, exact_first
    ):
        """Neither the paths nor the task store key hashes exact_paths, so
        one stored enumeration record serves both budgets: each warm run
        (memory and disk hits) tells exactly its cold run's story."""
        from repro.analysis.store import ArtifactStore

        placed = placed_system(shared_layouts, shared_config)
        exact = AnalysisBudget(max_paths=4, exact_paths=True)
        degraded = AnalysisBudget(max_paths=4)

        def outcome(budget, store=None):
            result = run_pipeline(placed, budget=budget, store=store)
            return (
                [estimate.lines for estimate in result.estimates],
                list(result.ledger.events),
                result.soundness,
            )

        cold = {id(b): outcome(b) for b in (exact, degraded)}
        assert cold[id(exact)][1:] == ([], "exact")
        assert cold[id(degraded)][2] == "conservative"
        store = ArtifactStore(directory=tmp_path)
        for budget in (exact, degraded) if exact_first else (degraded, exact):
            assert outcome(budget, store) == cold[id(budget)]
            store.clear_memory()
            assert outcome(budget, store) == cold[id(budget)]


# ----------------------------------------------------------------------
# The acceptance invariant: every injected fault is guarded
# ----------------------------------------------------------------------
class TestRobustnessInvariant:
    """Every fault yields a ledger-audited sound result or a typed error."""

    def run_fault(self, run):
        try:
            return run()
        except ReproError as error:
            return error
        except Exception as error:  # pragma: no cover - the failure mode
            pytest.fail(f"unguarded failure escaped the pipeline: {error!r}")

    def test_all_faults_are_guarded(self, shared_layouts, shared_config):
        bomb_only = placed_system(shared_layouts, shared_config, ("bomb",))

        def path_explosion_degraded():
            return run_pipeline(
                bomb_only, budget=AnalysisBudget(max_paths=2)
            ).ledger

        def path_explosion_strict():
            return run_pipeline(
                bomb_only, budget=AnalysisBudget(max_paths=2, strict=True)
            ).ledger

        def divergent_task_set():
            return compute_system_wcrt(
                make_slow_system(),
                stop_at_deadline=False,
                budget=AnalysisBudget(max_wcrt_iterations=50),
            ).ledger

        def divergent_task_set_strict():
            return compute_system_wcrt(
                make_slow_system(),
                stop_at_deadline=False,
                budget=AnalysisBudget(max_wcrt_iterations=50, strict=True),
            ).ledger

        def runaway_simulation():
            simulator = TestSimulationFault().build_simulator(
                shared_layouts, shared_config
            )
            simulator.run(1000, budget=AnalysisBudget(max_sim_steps=5))

        def invalid_geometry():
            CacheConfig(num_sets=3, ways=2, line_size=16, miss_penalty=20)

        faults = [
            path_explosion_degraded,
            path_explosion_strict,
            divergent_task_set,
            divergent_task_set_strict,
            runaway_simulation,
            invalid_geometry,
        ]
        saw_degradation = saw_typed_error = False
        for fault in faults:
            outcome = self.run_fault(fault)
            if isinstance(outcome, ReproError):
                saw_typed_error = True
                assert error_kind(outcome) in (
                    "config",
                    "budget",
                    "divergence",
                    "simulation",
                )
            else:
                assert outcome is not None
                if outcome.soundness == "conservative":
                    saw_degradation = True
                    assert outcome.tripped_budgets()
                else:
                    assert outcome.soundness == "exact"
        assert saw_degradation and saw_typed_error
