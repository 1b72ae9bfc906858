"""Structural properties of the benchmark workloads and the registry."""

import pytest

from repro.program import enumerate_path_profiles
from repro.workloads import (
    EXPERIMENT_I,
    EXPERIMENT_II,
    Scenario,
    Workload,
    build_experiment,
    build_workload,
    workload_names,
)


class TestRegistry:
    def test_registry_contents(self):
        assert set(workload_names()) == {
            "ofdm",
            "ed",
            "mr",
            "adpcmc",
            "adpcmd",
            "idct",
            "fir",  # the docs/extending.md user-style workload
        }

    def test_experiment_rosters(self):
        assert EXPERIMENT_I == ("mr", "ed", "ofdm")
        assert EXPERIMENT_II == ("idct", "adpcmd", "adpcmc")

    def test_build_all(self):
        for name in workload_names():
            workload = build_workload(name)
            assert workload.name == name
            workload.program.cfg.validate()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("quake")

    def test_build_experiment(self):
        tasks = build_experiment(EXPERIMENT_I)
        assert list(tasks) == list(EXPERIMENT_I)


class TestScenarioCoverage:
    def test_every_workload_has_scenarios(self):
        for name in workload_names():
            workload = build_workload(name)
            assert workload.scenarios
            for scenario in workload.scenarios:
                assert scenario.name

    def test_scenarios_cover_all_feasible_paths(self):
        """Each feasible path must be driven by at least one scenario —
        the requirement for simulation-based WCET (SYMTA method)."""
        from repro.analysis import scenario_traces
        from repro.cache import CacheConfig
        from repro.program import SystemLayout
        from repro.program.paths import path_footprint

        config = CacheConfig.scaled_16k()
        for name in workload_names():
            workload = build_workload(name)
            layout = SystemLayout().place(workload.program)
            profiles = enumerate_path_profiles(workload.program)
            assert len(workload.scenarios) >= min(len(profiles), 2) or len(profiles) == 1
            # Run every scenario; union of visited labels must cover the
            # union of all path labels.
            traces = scenario_traces(layout, workload.scenario_map(), config)
            visited: set[str] = set()
            for trace in traces.values():
                events = trace.expand()
                visited |= {events.node_table[node] for node in events.node_ids}
            for profile in profiles:
                expected = {
                    label for label in profile.labels()
                }
                uncovered = expected - visited
                assert not uncovered, f"{name}: labels never executed: {uncovered}"

    def test_scenario_inputs_reference_declared_arrays(self):
        for name in workload_names():
            workload = build_workload(name)
            for scenario in workload.scenarios:
                for array in scenario.inputs:
                    assert array in workload.program.arrays

    def test_scenario_input_sizes_fit(self):
        for name in workload_names():
            workload = build_workload(name)
            for scenario in workload.scenarios:
                for array, values in scenario.inputs.items():
                    decl = workload.program.array(array)
                    assert len(values) <= decl.words, (name, array)


class TestWorkloadValidation:
    def test_workload_requires_scenarios(self):
        program = build_workload("mr").program
        with pytest.raises(ValueError, match="no scenarios"):
            Workload(program=program, scenarios=[], description="x")

    def test_duplicate_scenario_names_rejected(self):
        program = build_workload("mr").program
        with pytest.raises(ValueError, match="duplicate scenario"):
            Workload(
                program=program,
                scenarios=[Scenario(name="s"), Scenario(name="s")],
                description="x",
            )

    def test_undeclared_scenario_arrays_rejected(self):
        program = build_workload("mr").program
        with pytest.raises(ValueError, match="undeclared"):
            Workload(
                program=program,
                scenarios=[Scenario(name="s", inputs={"bogus": [1]})],
                description="x",
            )

    def test_scenario_lookup(self):
        workload = build_workload("ed")
        assert workload.scenario("sobel").name == "sobel"
        with pytest.raises(KeyError):
            workload.scenario("prewitt")


class TestPathStructure:
    def test_ed_has_two_paths_others_single(self):
        for name in workload_names():
            workload = build_workload(name)
            profiles = enumerate_path_profiles(workload.program)
            if name == "ed":
                assert len(profiles) == 2
            else:
                assert len(profiles) == 1, name

    def test_all_paths_exact(self):
        """No workload has branches inside loops: all SFP-PrS segments."""
        for name in workload_names():
            workload = build_workload(name)
            for profile in enumerate_path_profiles(workload.program):
                assert profile.exact, name

    def test_descriptions_present(self):
        for name in workload_names():
            assert len(build_workload(name).description) > 30
