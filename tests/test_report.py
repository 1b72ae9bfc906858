"""Tests for the analysis report rendering."""

import pytest

from repro.analysis import CRPDAnalyzer, scenario_traces, system_report, task_report
from repro.wcrt import TaskSpec, TaskSystem


def _traces(analyzed_pair, name):
    art = analyzed_pair[name]
    return scenario_traces(art.layout, analyzed_pair["scenarios"][name], art.config)


class TestTaskReport:
    def test_sections_present(self, analyzed_pair):
        text = task_report(
            analyzed_pair["low"], traces=_traces(analyzed_pair, "low")
        )
        for header in ("[wcet]", "[memory footprint]",
                       "[useful memory blocks]", "[control structure]",
                       "[cache behaviour]"):
            assert header in text

    def test_reuse_section_optional(self, analyzed_pair):
        text = task_report(analyzed_pair["low"])
        assert "[cache behaviour]" not in text

    def test_numbers_consistent_with_artifacts(self, analyzed_pair):
        art = analyzed_pair["high"]
        text = task_report(art)
        assert str(art.wcet.cycles) in text
        assert f"{len(art.footprint)} blocks" in text
        assert f"{len(art.path_profiles)} feasible path" in text

    def test_multipath_task_lists_paths(self, analyzed_pair):
        text = task_report(analyzed_pair["high"])
        assert "then@" in text and "else@" in text

    def test_tripped_path_enumeration_is_named(self):
        from repro.analysis import analyze_task
        from repro.cache import CacheConfig
        from repro.guard import AnalysisBudget
        from repro.program import SystemLayout
        from repro.workloads import build_workload

        workload = build_workload("ed")  # two feasible paths
        art = analyze_task(
            SystemLayout().place(workload.program),
            workload.scenario_map(),
            CacheConfig.scaled_8k(),
            budget=AnalysisBudget(max_paths=1),
        )
        assert not art.path_enumeration_complete
        text = task_report(art, max_paths=1)
        assert "path enumeration stopped at max_paths=1" in text
        assert "feasible path(s)" not in text

    def test_experiment_task_report(self, experiment1_context):
        text = task_report(experiment1_context.artifacts["ed"])
        assert "'ed'" in text
        assert "decision" in text  # the operator branch shows up


class TestSystemReport:
    def test_full_system_report(self, analyzed_pair):
        crpd = CRPDAnalyzer(
            {"low": analyzed_pair["low"], "high": analyzed_pair["high"]}
        )
        system = TaskSystem(
            tasks=[
                TaskSpec(
                    name="high",
                    wcet=analyzed_pair["high"].wcet.cycles,
                    period=20_000,
                    priority=1,
                ),
                TaskSpec(
                    name="low",
                    wcet=analyzed_pair["low"].wcet.cycles,
                    period=100_000,
                    priority=2,
                ),
            ]
        )
        text = system_report(crpd, system, context_switch=100)
        assert "low by high" in text
        for approach in (1, 2, 3, 4):
            assert f"Approach {approach}:" in text
        assert "R=" in text
        assert "ok" in text

    def test_deadline_miss_flagged(self, analyzed_pair):
        crpd = CRPDAnalyzer(
            {"low": analyzed_pair["low"], "high": analyzed_pair["high"]}
        )
        high_wcet = analyzed_pair["high"].wcet.cycles
        low_wcet = analyzed_pair["low"].wcet.cycles
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=high_wcet,
                         period=int(high_wcet * 1.05), priority=1),
                TaskSpec(name="low", wcet=low_wcet,
                         period=low_wcet + high_wcet, priority=2),
            ]
        )
        text = system_report(crpd, system, context_switch=100)
        assert "MISSES DEADLINE" in text

    def test_unbounded_flagged(self, analyzed_pair):
        crpd = CRPDAnalyzer(
            {"low": analyzed_pair["low"], "high": analyzed_pair["high"]}
        )
        high_wcet = analyzed_pair["high"].wcet.cycles
        low_wcet = analyzed_pair["low"].wcet.cycles
        # high alone fills the processor (C = P), so low's U >= 1.
        system = TaskSystem(
            tasks=[
                TaskSpec(name="high", wcet=high_wcet, period=high_wcet,
                         priority=1),
                TaskSpec(name="low", wcet=low_wcet,
                         period=2 * (low_wcet + high_wcet), priority=2),
            ]
        )
        text = system_report(crpd, system, stop_at_deadline=False)
        assert "UNBOUNDED (U >= 1)" in text
        assert "MISSES DEADLINE" not in text
