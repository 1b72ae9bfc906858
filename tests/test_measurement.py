"""Tests for the controlled preemption-cost measurement harness."""

import pytest

from repro.analysis import ALL_APPROACHES, CRPDAnalyzer, analyze_task
from repro.cache import CacheConfig, CacheState
from repro.program import ProgramBuilder, SystemLayout

from tests.oracles.measurement import measure_preemption, run_preemption_study


def build_stream(name, words, reps):
    b = ProgramBuilder(name)
    data = b.array("data", words=words)
    with b.loop(reps):
        with b.loop(words) as i:
            b.load("v", data, index=i)
    return b.build(), {"data": list(range(words))}


@pytest.fixture
def setup():
    # A small cache so the preemptor genuinely evicts victim lines.
    config = CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=20)
    layout = SystemLayout()
    victim_program, victim_inputs = build_stream("victim", 24, 4)
    preemptor_program, preemptor_inputs = build_stream("preemptor", 24, 1)
    victim_layout = layout.place(victim_program)
    preemptor_layout = layout.place(preemptor_program)
    victim_art = analyze_task(victim_layout, {"d": victim_inputs}, config)
    preemptor_art = analyze_task(preemptor_layout, {"d": preemptor_inputs}, config)
    return {
        "config": config,
        "victim": (victim_layout, victim_inputs, victim_art),
        "preemptor": (preemptor_layout, preemptor_inputs, preemptor_art),
    }


class TestMeasurePreemption:
    def test_measures_real_reloads(self, setup):
        victim_layout, victim_inputs, victim_art = setup["victim"]
        preemptor_layout, preemptor_inputs, _ = setup["preemptor"]
        measurement = measure_preemption(
            victim_layout,
            victim_inputs,
            preemptor_layout,
            preemptor_inputs,
            lambda: CacheState(setup["config"]),
            preempt_step=150,
            victim_footprint=victim_art.footprint,
        )
        assert measurement is not None
        assert measurement.resident_before > 0
        assert measurement.evicted > 0
        assert measurement.reloaded > 0
        assert 0 <= measurement.reloaded <= measurement.evicted

    def test_extra_cycles_account_for_reloads(self, setup):
        victim_layout, victim_inputs, victim_art = setup["victim"]
        preemptor_layout, preemptor_inputs, _ = setup["preemptor"]
        measurement = measure_preemption(
            victim_layout, victim_inputs,
            preemptor_layout, preemptor_inputs,
            lambda: CacheState(setup["config"]),
            preempt_step=150,
            victim_footprint=victim_art.footprint,
        )
        # Every reload is one extra miss of miss_penalty cycles; other
        # evicted-but-task-external blocks can add more.
        penalty = setup["config"].miss_penalty
        assert measurement.extra_cycles >= measurement.reloaded * penalty

    def test_past_end_returns_none(self, setup):
        victim_layout, victim_inputs, _ = setup["victim"]
        preemptor_layout, preemptor_inputs, _ = setup["preemptor"]
        assert measure_preemption(
            victim_layout, victim_inputs,
            preemptor_layout, preemptor_inputs,
            lambda: CacheState(setup["config"]),
            preempt_step=10**9,
        ) is None

    def test_study_collects_points(self, setup):
        victim_layout, victim_inputs, victim_art = setup["victim"]
        preemptor_layout, preemptor_inputs, _ = setup["preemptor"]
        study = run_preemption_study(
            victim_layout, victim_inputs,
            preemptor_layout, preemptor_inputs,
            lambda: CacheState(setup["config"]),
            preempt_steps=[50, 150, 300, 10**9],
            victim_footprint=victim_art.footprint,
        )
        assert len(study.measurements) == 3  # the last point is past the end
        assert study.worst_reloaded >= max(
            m.reloaded for m in study.measurements
        )
        assert study.worst_extra_cycles >= 0

    def test_every_approach_dominates_study(self, setup):
        """The library-level statement of the soundness property."""
        victim_layout, victim_inputs, victim_art = setup["victim"]
        preemptor_layout, preemptor_inputs, preemptor_art = setup["preemptor"]
        crpd = CRPDAnalyzer({"victim": victim_art, "preemptor": preemptor_art})
        study = run_preemption_study(
            victim_layout, victim_inputs,
            preemptor_layout, preemptor_inputs,
            lambda: CacheState(setup["config"]),
            preempt_steps=list(range(20, 400, 60)),
            victim_footprint=victim_art.footprint,
        )
        assert study.measurements
        for approach in ALL_APPROACHES:
            bound = crpd.lines_reloaded("victim", "preemptor", approach)
            assert study.worst_reloaded <= bound, approach

    def test_empty_study(self):
        from tests.oracles.measurement import PreemptionStudy

        study = PreemptionStudy()
        assert study.worst_reloaded == 0
        assert study.worst_extra_cycles == 0
