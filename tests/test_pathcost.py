"""Unit tests for Section VI path analysis (Equation 4) and Approach 4."""

import pytest

from repro.analysis import analyze_task, approach4_lines, eq3_lines
from repro.cache import CacheConfig
from repro.program import ProgramBuilder, SystemLayout

from tests.oracles.pathcost import PathCostResult, max_path_conflict, path_footprints


@pytest.fixture
def config():
    return CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)


def build_pair(config):
    """A streaming preempted task + a two-path preempting task whose arms
    touch different tables (the Example 5 situation)."""
    layout = SystemLayout()

    low = ProgramBuilder("low")
    data = low.array("data", words=96)
    with low.loop(2):
        with low.loop(96) as i:
            low.load("v", data, index=i)
    low_layout = layout.place(low.build())

    high = ProgramBuilder("high")
    table_a = high.array("table_a", words=48)
    table_b = high.array("table_b", words=48)
    flag = high.scalar("flag")
    high.load("f", flag, index=0)
    with high.if_else("f") as arms:
        with arms.then_case():
            with high.loop(48) as i:
                high.load("v", table_a, index=i)
        with arms.else_case():
            with high.loop(48) as i:
                high.load("v", table_b, index=i)
    high_layout = layout.place(high.build())

    low_art = analyze_task(
        low_layout, {"d": {"data": list(range(96))}}, config
    )
    high_art = analyze_task(
        high_layout,
        {
            "a": {"table_a": list(range(48)), "flag": [1]},
            "b": {"table_b": list(range(48)), "flag": [0]},
        },
        config,
    )
    return low_art, high_art


class TestPathCost:
    def test_costs_computed_per_feasible_path(self, config):
        low, high = build_pair(config)
        result = max_path_conflict(low.useful.mumbs_ciip(), high)
        assert len(result.per_path) == 2
        assert result.lines == result.worst.cost
        assert all(p.cost >= 0 for p in result.per_path)

    def test_path_restriction_tightens_eq3(self, config):
        """Approach 4 < Equation 3: each path sees only one of the tables."""
        low, high = build_pair(config)
        eq3 = eq3_lines(low, high)
        eq4 = approach4_lines(low, high)
        assert eq4 <= eq3
        # Both tables together cover more sets than either path alone; with
        # this geometry the single-path footprint is strictly smaller.
        full_blocks = len(high.footprint)
        per_path_blocks = [p.footprint_blocks for p in
                           max_path_conflict(low.useful.mumbs_ciip(), high).per_path]
        assert max(per_path_blocks) < full_blocks

    def test_single_path_preemptor_equals_eq3(self, config):
        """With one feasible path, Equation 4 degenerates to Equation 3."""
        layout = SystemLayout()
        low = ProgramBuilder("low")
        data = low.array("data", words=64)
        with low.loop(2):
            with low.loop(64) as i:
                low.load("v", data, index=i)
        low_layout = layout.place(low.build())
        high = ProgramBuilder("high")
        table = high.array("table", words=32)
        with high.loop(32) as i:
            high.load("v", table, index=i)
        high_layout = layout.place(high.build())
        low_art = analyze_task(low_layout, {"d": {"data": [0] * 64}}, config)
        high_art = analyze_task(
            high_layout, {"d": {"table": [0] * 32}}, config
        )
        assert approach4_lines(low_art, high_art) == eq3_lines(low_art, high_art)

    def test_per_point_mode_dominates_paper_mode(self, config):
        """per_point maximises over ALL execution points, so it is always
        >= the Definition-4 value — the sound direction (see pathcost)."""
        low, high = build_pair(config)
        paper = approach4_lines(low, high, mumbs_mode="paper")
        per_point = approach4_lines(low, high, mumbs_mode="per_point")
        assert per_point >= paper

    def test_unknown_mode_rejected(self, config):
        low, high = build_pair(config)
        with pytest.raises(ValueError, match="mumbs_mode"):
            approach4_lines(low, high, mumbs_mode="bogus")

    def test_empty_paths_raise(self):
        with pytest.raises(ValueError, match="no feasible paths"):
            PathCostResult(per_path=[]).worst

    def test_worst_path_footprint_dominates_cost(self, config):
        low, high = build_pair(config)
        result = max_path_conflict(low.useful.mumbs_ciip(), high)
        for path in result.per_path:
            assert path.cost <= path.footprint_blocks

    def test_ed_workload_paths_have_different_footprints(self):
        """The real ED workload's Sobel and Cauchy paths differ in blocks."""
        from repro.workloads import build_edge_detection

        config = CacheConfig.scaled_16k()
        workload = build_edge_detection()
        layout = SystemLayout().place(workload.program)
        art = analyze_task(layout, workload.scenario_map(), config)
        footprints = path_footprints(art)
        assert len(footprints) == 2
        assert footprints[0] != footprints[1]
        # Each path footprint is a strict subset of the task footprint.
        for fp in footprints:
            assert fp < art.footprint
