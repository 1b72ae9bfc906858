"""Tests for the multi-level CRPD analysis extension."""

import random
from dataclasses import replace

import pytest

import repro.analysis.artifacts as artifacts_module
from repro.analysis import (
    ALL_APPROACHES,
    Approach,
    HierarchicalCRPD,
    analyze_task_hierarchy,
)
from repro.analysis.pipeline import resolve_system
from repro.analysis.wcet import measure_wcet
from repro.cache import CacheConfig, HierarchyConfig
from repro.errors import ConfigError
from repro.experiments.setup import ALL_SPECS
from repro.fuzz.build import build_program, scenarios_for
from repro.fuzz.generator import (
    MISS_PENALTIES,
    RandomDraw,
    draw_cache_spec,
    draw_program_spec,
)
from repro.program import ProgramBuilder, SystemLayout

from tests.oracles.hierarchy import SteppedHierarchy, stepped_stack_wcet
from tests.oracles.measurement import measure_preemption

POLICY_MODES = [
    (policy, write_back)
    for policy in ("lru", "fifo", "plru")
    for write_back in (False, True)
]


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
        with pytest.raises(ConfigError, match="hierarchy"):
            HierarchicalCRPD({**analyzed["artifacts"], "odd": odd})

    def test_empty_tasks_rejected(self):
        with pytest.raises(ConfigError, match="no tasks"):
            HierarchicalCRPD({})

    def test_empty_scenarios_rejected(self, analyzed):
        """The same typed error as the single-level WCET (CLI exit 2)."""
        layout, h = analyzed["layouts"]["low"], analyzed["hierarchy"]
        for measure in (
            lambda: measure_wcet(layout, {}, h.l1),
            lambda: analyze_task_hierarchy(layout, {}, h),
        ):
            with pytest.raises(ConfigError, match="at least one input scenario"):
                measure()


def stack_of(l1: CacheConfig, policy, write_back, l2_penalty, ratio):
    """A hierarchy over *l1* in one policy/write mode: an L2 of 4x the
    sets, 4 ways and *ratio* x the line, in the same policy."""
    l1 = replace(l1, policy=policy, write_back=write_back)
    l2 = CacheConfig(
        num_sets=l1.num_sets * 4,
        ways=4,
        line_size=l1.line_size * ratio,
        miss_penalty=l2_penalty,
        policy=policy,
    )
    return HierarchyConfig(l1=l1, l2=l2)


class TestStackWCETEquivalence:
    """The stack WCET read off the recorded trace equals a VM stepped on
    the stack one reference at a time, in every policy and write mode."""

    @pytest.mark.parametrize("policy,write_back", POLICY_MODES, ids=str)
    def test_paper_tasks(self, policy, write_back):
        for spec in ALL_SPECS:
            placed = resolve_system(spec)
            for index, task in enumerate(placed.tasks):
                l1 = replace(placed.config, hit_cycles=index % 2)
                h = stack_of(l1, policy, write_back, 60, 2)
                analyzed = analyze_task_hierarchy(task.layout, task.scenarios, h)
                assert analyzed.wcet.per_scenario_cycles == stepped_stack_wcet(
                    task.layout, task.scenarios, h
                ), (spec.key, task.name)

    @pytest.mark.parametrize("chunk", range(4))
    def test_fuzz_drawn_programs(self, chunk):
        """48 draws, 8 per policy/write mode."""
        for index in range(chunk * 12, chunk * 12 + 12):
            draw = RandomDraw(random.Random(f"hierarchy:{index}"))
            program, inputs = build_program(draw_program_spec(draw), f"p{index}")
            cache = draw_cache_spec(draw)
            l1 = CacheConfig(
                num_sets=cache.num_sets,
                ways=cache.ways,
                line_size=cache.line_size,
                miss_penalty=cache.miss_penalty,
                hit_cycles=(index // len(POLICY_MODES)) % 2,
            )
            h = stack_of(
                l1,
                *POLICY_MODES[index % len(POLICY_MODES)],
                draw.choice(MISS_PENALTIES),
                draw.choice((1, 2, 4)),
            )
            layout = SystemLayout().place(program)
            scenarios = scenarios_for(inputs)
            analyzed = analyze_task_hierarchy(layout, scenarios, h)
            assert analyzed.wcet.per_scenario_cycles == stepped_stack_wcet(
                layout, scenarios, h
            ), index

    def test_one_vm_run_per_call(self, monkeypatch):
        """Both levels and the stack WCET read one recording."""
        calls = []
        record = artifacts_module.measure_wcet_detailed

        def counted(*args, **kwargs):
            calls.append(args)
            return record(*args, **kwargs)

        monkeypatch.setattr(artifacts_module, "measure_wcet_detailed", counted)
        placed = resolve_system(ALL_SPECS[0])
        task = next(task for task in placed.tasks if len(task.scenarios) > 1)
        h = stack_of(placed.config, "lru", False, 60, 2)
        analyze_task_hierarchy(task.layout, task.scenarios, h)
        assert len(calls) == 1


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
                lambda: SteppedHierarchy(h), preempt_at,
            )
            assert measurement is not None
            extra = measurement.extra_cycles
            for approach in ALL_APPROACHES:
                bound = crpd.cpre("low", "high", approach)
                assert extra <= bound, (preempt_at, approach, extra, bound)
