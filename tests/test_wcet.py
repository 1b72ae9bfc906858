"""Unit tests for WCET measurement and the static all-miss bound."""

import pytest

from repro.analysis import measure_wcet, scenario_traces, static_wcet_bound
from repro.cache import CacheConfig
from repro.program import ProgramBuilder, SystemLayout


def place(program):
    return SystemLayout().place(program)


@pytest.fixture
def config():
    return CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=20)


def two_path_layout():
    b = ProgramBuilder("p")
    flag = b.scalar("flag")
    out = b.array("out", words=8)
    b.load("f", flag, index=0)
    with b.if_else("f") as arms:
        with arms.then_case():
            # Expensive arm.
            with b.loop(20) as i:
                b.binop("idx", "mod", i, 8)
                b.store(i, out, index="idx")
        with arms.else_case():
            b.const("x", 1)
    return place(b.build())


class TestMeasureWCET:
    def test_wcet_is_max_over_scenarios(self, config):
        layout = two_path_layout()
        result = measure_wcet(
            layout,
            {"slow": {"flag": [1]}, "fast": {"flag": [0]}},
            config,
        )
        assert result.worst_scenario == "slow"
        assert result.cycles == result.per_scenario_cycles["slow"]
        assert result.per_scenario_cycles["slow"] > result.per_scenario_cycles["fast"]
        assert result.scenario_count == 2

    def test_traces_returned_per_scenario(self, config):
        layout = two_path_layout()
        traces = scenario_traces(layout, {"a": {"flag": [1]}}, config)
        assert set(traces) == {"a"}
        assert len(traces["a"]) > 0

    def test_traces_are_recorded_without_a_replay(self, config, monkeypatch):
        """A diagnostic's traces charge no cache: nothing is replayed, and
        the columns equal those the WCET run records."""
        from repro.analysis import wcet

        layout = two_path_layout()
        scenarios = {"a": {"flag": [1]}, "b": {"flag": [0]}}
        recorded = wcet.measure_wcet_detailed(layout, scenarios)

        def no_replay(*args):
            raise AssertionError("scenario_traces replayed a trace")

        monkeypatch.setattr(wcet, "replay_counts", no_replay)
        traces = scenario_traces(layout, scenarios, config)
        assert traces == {name: trace for name, (_, trace) in recorded.items()}

    def test_each_scenario_gets_cold_cache(self, config):
        """Scenario order must not matter (no cache state leaks)."""
        layout = two_path_layout()
        forward = measure_wcet(
            layout, {"a": {"flag": [1]}, "b": {"flag": [0]}}, config
        )
        backward = measure_wcet(
            layout, {"b": {"flag": [0]}, "a": {"flag": [1]}}, config
        )
        assert forward.per_scenario_cycles == backward.per_scenario_cycles

    def test_empty_scenarios_rejected(self, config):
        with pytest.raises(ValueError, match="scenario"):
            measure_wcet(two_path_layout(), {}, config)

    def test_higher_miss_penalty_never_faster(self):
        layout = two_path_layout()
        slow = CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=40)
        fast = CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=10)
        high = measure_wcet(layout, {"a": {"flag": [1]}}, slow).cycles
        low = measure_wcet(layout, {"a": {"flag": [1]}}, fast).cycles
        assert high > low


class TestStaticBound:
    def test_static_dominates_measured(self, config):
        layout = two_path_layout()
        measured = measure_wcet(
            layout, {"a": {"flag": [1]}, "b": {"flag": [0]}}, config
        ).cycles
        assert static_wcet_bound(layout, config) >= measured

    def test_static_dominates_for_workloads(self):
        """The all-miss bound holds for every real benchmark task."""
        from repro.workloads import build_workload, workload_names

        config = CacheConfig.scaled_16k()
        for name in workload_names():
            workload = build_workload(name)
            layout = SystemLayout().place(workload.program)
            measured = measure_wcet(layout, workload.scenario_map(), config).cycles
            bound = static_wcet_bound(layout, config)
            assert bound >= measured, name

    def test_static_scales_with_penalty(self):
        layout = two_path_layout()
        low = static_wcet_bound(
            layout, CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=10)
        )
        high = static_wcet_bound(
            layout, CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=40)
        )
        assert high > low
