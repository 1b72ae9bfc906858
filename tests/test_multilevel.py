"""Tests for the multi-level CRPD analysis extension."""

import pytest

from repro.analysis import (
    ALL_APPROACHES,
    Approach,
    HierarchicalCRPD,
    analyze_task_hierarchy,
    measure_wcet_hierarchy,
)
from repro.analysis.wcet import measure_wcet
from repro.cache import CacheConfig, HierarchyConfig, MemoryHierarchy
from repro.errors import ConfigError
from repro.program import ProgramBuilder, SystemLayout

from tests.oracles.measurement import measure_preemption


def hierarchy():
    return HierarchyConfig(
        l1=CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=10),
        l2=CacheConfig(num_sets=32, ways=4, line_size=32, miss_penalty=40),
    )


def build_stream(name, words, reps=3):
    b = ProgramBuilder(name)
    data = b.array("data", words=words)
    with b.loop(reps):
        with b.loop(words) as i:
            b.load("v", data, index=i)
    return b.build(), {"d": {"data": list(range(words))}}


@pytest.fixture(scope="module")
def analyzed():
    layout = SystemLayout()
    low_program, low_scenarios = build_stream("low", 64)
    high_program, high_scenarios = build_stream("high", 48)
    low_layout = layout.place(low_program)
    high_layout = layout.place(high_program)
    h = hierarchy()
    return {
        "hierarchy": h,
        "layouts": {"low": low_layout, "high": high_layout},
        "scenarios": {"low": low_scenarios, "high": high_scenarios},
        "artifacts": {
            "low": analyze_task_hierarchy(low_layout, low_scenarios, h),
            "high": analyze_task_hierarchy(high_layout, high_scenarios, h),
        },
    }


class TestHierarchicalAnalysis:
    def test_wcet_measured_on_stack(self, analyzed):
        low = analyzed["artifacts"]["low"]
        # The stack WCET exceeds an L2-latency-free lower bound and is
        # below an every-access-misses-everything upper bound.
        assert low.wcet.cycles > 0
        assert low.l1.wcet.cycles > 0
        assert low.l2.wcet.cycles > 0

    def test_per_level_artifacts_use_their_geometry(self, analyzed):
        low = analyzed["artifacts"]["low"]
        h = analyzed["hierarchy"]
        # L2 blocks are 32B, so the L2 footprint has at most as many blocks.
        assert len(low.l2.footprint) <= len(low.l1.footprint)
        for block in low.l1.footprint:
            assert block % h.l1.line_size == 0
        for block in low.l2.footprint:
            assert block % h.l2.line_size == 0

    def test_cpre_combines_levels(self, analyzed):
        crpd = HierarchicalCRPD(analyzed["artifacts"])
        h = analyzed["hierarchy"]
        for approach in ALL_APPROACHES:
            l1_lines, l2_lines = crpd.lines_reloaded("low", "high", approach)
            assert crpd.cpre("low", "high", approach) == (
                l1_lines * h.l1.miss_penalty + l2_lines * h.l2.miss_penalty
            )
            assert crpd.cpre_l1_only("low", "high", approach) <= crpd.cpre(
                "low", "high", approach
            )

    def test_approach_ordering_per_level(self, analyzed):
        crpd = HierarchicalCRPD(analyzed["artifacts"])
        lines = {
            a: crpd.lines_reloaded("low", "high", a) for a in ALL_APPROACHES
        }
        for level in (0, 1):
            assert lines[Approach.COMBINED][level] <= lines[Approach.INTERTASK][level]
            assert lines[Approach.COMBINED][level] <= lines[Approach.LEE][level]
            assert lines[Approach.INTERTASK][level] <= lines[Approach.BUSQUETS][level]

    def test_mixed_hierarchies_rejected(self, analyzed):
        other = HierarchyConfig(
            l1=CacheConfig(num_sets=4, ways=2, line_size=16, miss_penalty=10),
            l2=CacheConfig(num_sets=32, ways=4, line_size=32, miss_penalty=40),
        )
        layout = SystemLayout(base_address=0x80000)
        program, scenarios = build_stream("odd", 16)
        odd = analyze_task_hierarchy(layout.place(program), scenarios, other)
        with pytest.raises(ValueError, match="hierarchy"):
            HierarchicalCRPD({**analyzed["artifacts"], "odd": odd})

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            HierarchicalCRPD({})

    def test_empty_scenarios_rejected(self, analyzed):
        """The same typed error as the single-level WCET (CLI exit 2)."""
        layout, h = analyzed["layouts"]["low"], analyzed["hierarchy"]
        for measure in (
            lambda: measure_wcet(layout, {}, h.l1),
            lambda: measure_wcet_hierarchy(layout, {}, h),
        ):
            with pytest.raises(ConfigError, match="at least one input scenario"):
                measure()


class TestEmpiricalSoundness:
    def test_cpre_bounds_measured_preemption_cost(self, analyzed):
        """Measured extra cycles of the preempted task caused by one real
        preemption never exceed the combined-level Cpre bound."""
        h = analyzed["hierarchy"]
        crpd = HierarchicalCRPD(analyzed["artifacts"])
        low_layout = analyzed["layouts"]["low"]
        high_layout = analyzed["layouts"]["high"]
        low_inputs = analyzed["scenarios"]["low"]["d"]
        high_inputs = analyzed["scenarios"]["high"]["d"]

        for preempt_at in (30, 120, 400):
            measurement = measure_preemption(
                low_layout, low_inputs, high_layout, high_inputs,
                lambda: MemoryHierarchy(h), preempt_at,
            )
            assert measurement is not None
            extra = measurement.extra_cycles
            for approach in ALL_APPROACHES:
                bound = crpd.cpre("low", "high", approach)
                assert extra <= bound, (preempt_at, approach, extra, bound)
