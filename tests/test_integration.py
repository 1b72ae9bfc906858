"""End-to-end integration: analysis bounds vs measured behaviour.

Builds a custom two/three-task system from scratch through the public API
and closes the loop the paper closes: CRPD estimates bound the measured
reloads, and Equation 7 WCRTs bound the simulator's response times while
Equation 6 (cache-blind) underestimates them.
"""

import pytest

from repro.analysis import ALL_APPROACHES, Approach, CRPDAnalyzer, analyze_task
from repro.cache import CacheConfig, CacheState
from repro.program import ProgramBuilder, SystemLayout
from repro.sched import Simulator, TaskBinding
from repro.wcrt import TaskSpec, TaskSystem, compute_system_wcrt

from tests.oracles.measurement import measure_preemption


def make_stream(name, words, reps):
    b = ProgramBuilder(name)
    data = b.array("data", words=words)
    out = b.array("out", words=words)
    with b.loop(reps):
        with b.loop(words) as i:
            b.load("v", data, index=i)
            b.binop("v", "add", "v", 1)
            b.store("v", out, index=i)
    return b.build(), {"data": list(range(words))}


@pytest.fixture(scope="module")
def three_task_system():
    config = CacheConfig(num_sets=64, ways=2, line_size=16, miss_penalty=20)
    layout = SystemLayout()
    programs = {}
    inputs = {}
    for name, words, reps in (("slow", 64, 40), ("mid", 48, 8), ("fast", 24, 4)):
        program, program_inputs = make_stream(name, words, reps)
        programs[name] = layout.place(program)
        inputs[name] = program_inputs
    artifacts = {
        name: analyze_task(programs[name], {"d": inputs[name]}, config)
        for name in programs
    }
    specs = {
        "fast": TaskSpec(
            name="fast", wcet=artifacts["fast"].wcet.cycles, period=8_000, priority=1
        ),
        "mid": TaskSpec(
            name="mid", wcet=artifacts["mid"].wcet.cycles, period=30_000, priority=2
        ),
        "slow": TaskSpec(
            name="slow", wcet=artifacts["slow"].wcet.cycles, period=150_000, priority=3
        ),
    }
    system = TaskSystem(tasks=list(specs.values()))
    crpd = CRPDAnalyzer(artifacts)
    bindings = [
        TaskBinding(spec=specs[name], layout=programs[name], inputs=inputs[name])
        for name in ("fast", "mid", "slow")
    ]
    ccs = 200
    sim = Simulator(bindings, cache=CacheState(config), context_switch_cycles=ccs)
    result = sim.run(horizon=300_000)
    return {
        "config": config,
        "artifacts": artifacts,
        "system": system,
        "crpd": crpd,
        "result": result,
        "ccs": ccs,
    }


class TestEndToEnd:
    def test_wcrt_eq7_bounds_measured_response(self, three_task_system):
        env = three_task_system
        for approach in ALL_APPROACHES:
            wcrt = compute_system_wcrt(
                env["system"],
                cpre=lambda low, high, a=approach: env["crpd"].cpre(low, high, a),
                context_switch=env["ccs"],
                stop_at_deadline=False,
            )
            for task in ("mid", "slow"):
                art = env["result"].actual_response_time(task)
                assert art <= wcrt.wcrt(task), (task, approach)

    def test_eq6_underestimates_when_preemptions_matter(self, three_task_system):
        env = three_task_system
        plain = compute_system_wcrt(env["system"])
        art = env["result"].actual_response_time("slow")
        assert plain.wcrt("slow") < art, (
            "cache-blind Eq.6 must underestimate the shared-cache reality"
        )

    def test_preemptions_observed(self, three_task_system):
        assert three_task_system["result"].preemption_count("slow") > 0

    def test_approach_ordering_end_to_end(self, three_task_system):
        env = three_task_system
        for low, high in (("slow", "fast"), ("slow", "mid"), ("mid", "fast")):
            lines = {
                a: env["crpd"].lines_reloaded(low, high, a) for a in ALL_APPROACHES
            }
            assert lines[Approach.COMBINED] <= lines[Approach.INTERTASK]
            assert lines[Approach.COMBINED] <= lines[Approach.LEE]
            assert lines[Approach.INTERTASK] <= lines[Approach.BUSQUETS]


class TestMeasuredReloadBound:
    def test_crpd_bounds_measured_reloads_per_preemption(self):
        """Directly measure reloads caused by one preemption and compare
        against all four approaches' line counts."""
        config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
        layout = SystemLayout()
        low_program, low_inputs = make_stream("low", 64, 6)
        high_program, high_inputs = make_stream("high", 32, 2)
        low_layout = layout.place(low_program)
        high_layout = layout.place(high_program)
        low_art = analyze_task(low_layout, {"d": low_inputs}, config)
        high_art = analyze_task(high_layout, {"d": high_inputs}, config)
        crpd = CRPDAnalyzer({"low": low_art, "high": high_art})

        # Preempt the low task at many points; at each, run the high task
        # to completion on the shared cache, then finish the low task and
        # count how many of its evicted-and-reused blocks reload.
        for preempt_step in (40, 160, 400, 900):
            measurement = measure_preemption(
                low_layout, low_inputs, high_layout, high_inputs,
                lambda: CacheState(config), preempt_step,
                victim_footprint=low_art.footprint,
            )
            if measurement is None:
                continue
            measured = measurement.reloaded
            for approach in ALL_APPROACHES:
                bound = crpd.lines_reloaded("low", "high", approach)
                assert measured <= bound, (preempt_step, approach)
