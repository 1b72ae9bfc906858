"""Tests for experiment setup and the regenerated tables and figures.

These check the *shape* criteria from DESIGN.md section 6: estimate
orderings, soundness against the simulator and growth with the cache-miss
penalty.  Session-scoped fixtures keep the expensive analyses shared.
"""

import pytest

from repro.analysis import ALL_APPROACHES, Approach
from repro.analysis.store import ArtifactStore
from repro.experiments import (
    ALL_SPECS,
    EXPERIMENT_I_SPEC,
    EXPERIMENT_II_SPEC,
    ExperimentSuite,
    build_context,
    figure1_schedule,
    figure2_mapping,
    figure3_conflicts,
    figure4_ed_cfg,
    figure5_architecture,
    table1_tasks,
    table2_cache_lines,
    table_improvement,
    table_wcrt,
)
from repro.guard.budget import AnalysisBudget
from repro.obs import observed


class TestSpecs:
    def test_specs_well_formed(self):
        for spec in ALL_SPECS:
            assert set(spec.builders) == set(spec.priority_order)
            assert set(spec.periods) == set(spec.priority_order)
            assert sorted(spec.placement_order) == sorted(spec.priority_order)
            priorities = spec.priorities()
            assert priorities[spec.priority_order[0]] == 2

    def test_periods_rate_monotonic(self):
        for spec in ALL_SPECS:
            ordered = [spec.periods[name] for name in spec.priority_order]
            assert ordered == sorted(ordered)


class TestContext:
    def test_context_builds(self, experiment1_context):
        context = experiment1_context
        assert set(context.artifacts) == set(context.priority_order)
        assert context.system.utilization < 1.0
        for name, artifacts in context.artifacts.items():
            assert artifacts.wcet.cycles > 0
            assert len(artifacts.footprint) > 0

    def test_bindings_use_worst_scenario(self, experiment1_context):
        bindings = experiment1_context.bindings()
        assert [b.spec.name for b in bindings] == list(
            experiment1_context.priority_order
        )
        for binding in bindings:
            assert binding.inputs

    def test_simulation_cached(self, experiment1_context):
        first = experiment1_context.simulate()
        second = experiment1_context.simulate()
        assert first is second

    def test_custom_cache_override(self):
        from repro.cache import CacheConfig

        context = build_context(
            EXPERIMENT_I_SPEC, cache=CacheConfig.scaled_16k(miss_penalty=15)
        )
        assert context.config.miss_penalty == 15


class TestTable2Shape:
    @pytest.mark.parametrize("fixture", ["experiment1_context", "experiment2_context"])
    def test_approach_orderings(self, fixture, request):
        """App4 <= min(App2, App3) and App2 <= App1 for every pair."""
        context = request.getfixturevalue(fixture)
        order = list(context.priority_order)
        for estimate in context.crpd.estimate_all_pairs(order):
            lines = estimate.lines
            assert lines[Approach.COMBINED] <= lines[Approach.INTERTASK]
            assert lines[Approach.COMBINED] <= lines[Approach.LEE]
            assert lines[Approach.INTERTASK] <= lines[Approach.BUSQUETS]
            assert lines[Approach.COMBINED] > 0, "degenerate zero estimate"

    def test_combined_strictly_improves_somewhere(
        self, experiment1_context, experiment2_context
    ):
        for context in (experiment1_context, experiment2_context):
            estimates = context.crpd.estimate_all_pairs(
                list(context.priority_order)
            )
            assert any(
                e.lines[Approach.COMBINED]
                < min(e.lines[Approach.INTERTASK], e.lines[Approach.LEE])
                for e in estimates
            )

    def test_crossover_app3_beats_app2_exists(self, experiment2_context):
        """The paper's ADPCMC-by-ADPCMD cell: Lee beats pure inter-task."""
        estimates = experiment2_context.crpd.estimate_all_pairs(
            list(experiment2_context.priority_order)
        )
        assert any(
            e.lines[Approach.LEE] < e.lines[Approach.INTERTASK] for e in estimates
        )

    def test_table2_renders(self, experiment1_context):
        table = table2_cache_lines(experiment1_context)
        text = table.render()
        assert "OFDM by MR" in text
        assert len(table.rows) == 3


class TestTable1:
    def test_table1_contents(self, experiment1_context, experiment2_context):
        table = table1_tasks(
            {"exp1": experiment1_context, "exp2": experiment2_context}
        )
        assert len(table.rows) == 6
        tasks = table.column("Task")
        assert "OFDM" in tasks and "IDCT" in tasks
        for wcet, period in zip(
            table.column("WCET (cycles)"), table.column("Period (cycles)")
        ):
            assert wcet < period


@pytest.fixture(scope="session")
def suite1():
    return ExperimentSuite(EXPERIMENT_I_SPEC, penalties=(10, 40))


@pytest.fixture(scope="session")
def suite2():
    return ExperimentSuite(EXPERIMENT_II_SPEC, penalties=(10, 40))


class TestWCRTTables:
    @pytest.mark.parametrize("suite_name", ["suite1", "suite2"])
    def test_estimates_sound_vs_art(self, suite_name, request):
        """ART <= every approach's WCRT estimate, at every penalty."""
        suite = request.getfixturevalue(suite_name)
        for penalty in suite.penalties:
            art = suite.art(penalty)
            for task in suite.preempted_tasks():
                for approach in ALL_APPROACHES:
                    estimate = suite.wcrt(penalty, approach).wcrt(task)
                    assert art[task] <= estimate, (task, penalty, approach)

    @pytest.mark.parametrize("suite_name", ["suite1", "suite2"])
    def test_app4_never_worse(self, suite_name, request):
        suite = request.getfixturevalue(suite_name)
        for penalty in suite.penalties:
            for task in suite.preempted_tasks():
                ours = suite.wcrt(penalty, Approach.COMBINED).wcrt(task)
                for other in (
                    Approach.BUSQUETS,
                    Approach.INTERTASK,
                    Approach.LEE,
                ):
                    assert ours <= suite.wcrt(penalty, other).wcrt(task)

    @pytest.mark.parametrize("suite_name", ["suite1", "suite2"])
    def test_wcrt_grows_with_penalty(self, suite_name, request):
        suite = request.getfixturevalue(suite_name)
        for task in suite.preempted_tasks():
            for approach in ALL_APPROACHES:
                low = suite.wcrt(10, approach).wcrt(task)
                high = suite.wcrt(40, approach).wcrt(task)
                assert high > low, (task, approach)

    def test_improvement_table_positive_and_growing(self, suite2):
        """Tables IV/VI shape: improvements grow with the miss penalty for
        the lowest-priority task vs Approach 1."""
        table = table_improvement(suite2)
        for row in table.rows:
            baseline, task = row[0], row[1]
            cells = row[2:]
            assert all(c >= 0 for c in cells), row
        # The App.4-vs-App.1 row for the lowest-priority task grows.
        target = next(
            row
            for row in table.rows
            if row[0] == "App.4 vs App.1" and row[1] == "ADPCMC"
        )
        assert target[-1] > target[2]

    def test_wcrt_table_renders(self, suite1):
        table = table_wcrt(suite1, include_art=True)
        text = table.render()
        assert "ART" in text
        assert len(table.rows) == len(suite1.penalties) * 2


class TestPairStoreUnderEq7:
    @staticmethod
    def _ledgers(budget, store):
        """Every table context's ledger, as ``(stage, budget)`` pairs."""
        ledgers = {}
        for spec in ALL_SPECS:
            suite = ExperimentSuite(spec, budget=budget, store=store)
            table2_cache_lines(suite.context(20))
            table_wcrt(suite, include_art=False)
            for penalty in suite.penalties:
                ledgers[spec.key, penalty] = [
                    (event.stage, event.budget)
                    for event in suite.context(penalty).ledger.events
                ]
        return ledgers

    def test_warm_degraded_tables_recompute_no_pair_in_one_ledger_order(
        self, tmp_path
    ):
        """Eq. 7 reads CRPD pairs through the pair store, every pair in
        priority order before the fixpoints, so a second store-backed run
        of ``tables --no-art`` (a fresh handle on the same directory)
        computes no pair and records the cold run's ledger event for
        event, degraded pairs first, then the starved fixpoints.  A run
        without a store records the same ledgers."""
        budget = AnalysisBudget(max_paths=1, max_wcrt_iterations=3)
        runs = []
        for _ in range(2):
            store = ArtifactStore(directory=tmp_path)
            with observed() as (_, metrics):
                ledgers = self._ledgers(budget, store)
            counters = metrics.to_dict()["counters"]
            runs.append((ledgers, counters.get("crpd.pairs_computed", 0)))
        (cold, cold_pairs), (warm, warm_pairs) = runs
        # Three pairs x four approaches per experiment, once for all
        # penalties (pair counts never read the miss penalty).
        assert cold_pairs == 24
        assert warm_pairs == 0
        assert warm == cold
        # Without a store, Eq. 7 still estimates every pair first.
        assert self._ledgers(budget, store=None) == cold
        assert cold["exp1", 40] == [
            ("paths:ed", "max_paths"),
            ("crpd:ofdm<-ed", "max_paths"),
        ] + [("wcrt:ofdm", "max_wcrt_iterations")] * 4
        assert cold["exp2", 40] == [("wcrt:adpcmc", "max_wcrt_iterations")] * 4


class TestFigures:
    def test_figure1(self, experiment1_context):
        figure = figure1_schedule(experiment1_context)
        text = figure.render()
        assert "Eq.6" in text and "Eq.7" in text
        lowest = experiment1_context.priority_order[-1]
        # The no-cache-cost estimate must UNDERestimate the measured
        # response — the paper's Figure 1 message.
        assert figure.wcrt_without_cache[lowest] < figure.actual_response[lowest]
        assert figure.actual_response[lowest] <= figure.wcrt_with_cache[lowest]

    def test_figure2(self):
        text = figure2_mapping()
        assert "tag" in text and "index" in text and "offset" in text
        assert "cs(1)" in text  # 0x011 maps to set 1

    def test_figure3(self):
        figure = figure3_conflicts()
        assert figure.upper_bound == 4  # Example 4's bound
        assert figure.per_set_bound == {0: 1, 1: 3}
        assert "Equation 2" in figure.render()

    def test_figure4(self):
        text = figure4_ed_cfg()
        assert "feasible paths: 2" in text
        assert "SFP-PrS" in text

    def test_figure5(self):
        text = figure5_architecture()
        assert "Atalanta" in text and "XRAY" in text
