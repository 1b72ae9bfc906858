"""The fuzz subsystem's reproducibility and campaign contracts.

Pinned here (and documented in docs/fuzzing.md):

* ``case_from_seed(S, i)`` is a pure function — bit-identical specs on
  every call, round-trippable through the versioned JSON encoding;
* shard ``i/n`` owns indices ``i, i+n, ...`` and the shards partition
  the stream exactly;
* the campaign runner resumes from a corpus directory, counts every
  case exactly once, and turns engine crashes into ``crash`` violations
  instead of dying;
* a seeded smoke window of the full oracle bank stays green (the
  5000-case acceptance run is the nightly CI job; this is the PR-time
  slice of the same stream).
"""

from __future__ import annotations

import json
import shlex

import pytest

from repro.cli import main as repro_main
from repro.errors import ConfigError, ReproError
from repro.fuzz.build import build_case, cfg_node_count
from repro.fuzz.generator import case_from_seed
from repro.fuzz.spec import CacheSpec, SystemSpec, spec_weight

from tests.conftest import run_from_root
from tests.fuzz.oracles import ORACLES, Violation, run_oracles
from tests.fuzz.runner import (
    CaseFailure,
    replay_command,
    run_campaign,
    run_one_case,
    shard_indices,
)


class TestDeterminism:
    def test_case_from_seed_is_pure(self):
        for index in range(5):
            assert case_from_seed(11, index) == case_from_seed(11, index)

    def test_distinct_indices_differ(self):
        specs = [case_from_seed(11, i) for i in range(10)]
        assert len({json.dumps(s.to_json(), sort_keys=True) for s in specs}) > 1

    def test_json_round_trip(self):
        for index in range(8):
            spec = case_from_seed(3, index)
            assert SystemSpec.from_json(spec.to_json()) == spec

    def test_unknown_spec_version_rejected(self):
        payload = case_from_seed(3, 0).to_json()
        payload["version"] = 999
        with pytest.raises(ConfigError, match="version 999"):
            SystemSpec.from_json(payload)

    def test_build_is_deterministic(self):
        spec = case_from_seed(7, 1)
        first, second = build_case(spec), build_case(spec)
        assert [t.artifacts.wcet.cycles for t in first.tasks] == [
            t.artifacts.wcet.cycles for t in second.tasks
        ]
        assert [t.spec for t in first.tasks] == [t.spec for t in second.tasks]
        assert cfg_node_count(spec) > 0 and spec_weight(spec) > 0


class TestSharding:
    def test_shards_partition_the_stream(self):
        cases = 23
        owned = [list(shard_indices(cases, i, 4)) for i in range(4)]
        flat = sorted(index for shard in owned for index in shard)
        assert flat == list(range(cases))

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_indices(10, 4, 4)


class TestRunner:
    def test_smoke_window_is_clean(self):
        """PR-time slice of the acceptance stream: seed 4, first cases."""
        result = run_campaign(seed=4, cases=4)
        assert result.ok and result.ran == 4
        assert result.failures == [] and not result.stopped_early

    def test_corpus_resume_skips_completed_prefix(self, tmp_path):
        first = run_campaign(seed=4, cases=3, corpus_dir=tmp_path)
        assert first.ran == 3 and first.resumed == 0
        second = run_campaign(seed=4, cases=3, corpus_dir=tmp_path)
        assert second.ran == 0 and second.resumed == 3
        extended = run_campaign(seed=4, cases=4, corpus_dir=tmp_path)
        assert extended.ran == 1 and extended.resumed == 3

    def test_crash_becomes_a_violation_not_an_exception(self):
        """Hand-edited corpus entries can carry invalid geometry; the
        campaign reports that as a ``crash`` violation and keeps going."""
        bad = SystemSpec(
            cache=CacheSpec(num_sets=3, ways=2, line_size=16),
            tasks=case_from_seed(4, 0).tasks,
        )
        violations = run_one_case(0, 0, spec=bad)
        assert violations and violations[0].oracle == "crash"
        assert "ConfigError" in violations[0].message

    def test_unknown_oracle_is_a_config_error_not_a_crash(self):
        with pytest.raises(ConfigError, match="unknown fuzz oracle"):
            run_one_case(4, 0, oracle_names=["nope"])

    def test_failure_entry_carries_the_replay_line(self):
        failure = CaseFailure(
            index=17, seed=4, spec=case_from_seed(4, 17),
            violations=[Violation("crash", "boom")],
        )
        payload = failure.to_json()
        assert payload["replay"] == replay_command(4, 17) == (
            "python -m tests.fuzz replay --seed 4 --index 17"
        )
        assert SystemSpec.from_json(payload["spec"]) == failure.spec


class TestCommandLine:
    def test_printed_replay_line_runs(self):
        """The line a failure prints is a working command as written."""
        python, *argv = shlex.split(replay_command(4, 17))
        assert python == "python" and argv[:2] == ["-m", "tests.fuzz"]
        done = run_from_root(*argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("ok")

    def test_run_records_progress(self, tmp_path):
        done = run_from_root(
            "-m", "tests.fuzz",
            "run", "--cases", "3", "--seed", "4", "--corpus", str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert "3 case(s)" in done.stdout and "ok" in done.stdout
        progress = json.loads((tmp_path / "progress-4-0of1.json").read_text())
        assert progress["completed"] == 3
        assert (progress["seed"], progress["shard_count"]) == (4, 1)

    def test_campaign_imports_neither_pytest_nor_hypothesis(self):
        """CI's fuzz jobs install neither, so blocking both must not
        break any module of the campaign or of the references."""
        done = run_from_root("-c", (
            "import importlib, pkgutil, sys\n"
            "sys.modules['pytest'] = sys.modules['hypothesis'] = None\n"
            "for name in ('tests.fuzz', 'tests.oracles'):\n"
            "    package = importlib.import_module(name)\n"
            "    for info in pkgutil.iter_modules(package.__path__):\n"
            "        importlib.import_module(f'{name}.{info.name}')\n"
        ))
        assert done.returncode == 0, done.stderr

    def test_product_cli_has_no_fuzz_group(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["fuzz", "run"])
        assert exit_info.value.code == 2


class TestOracleBank:
    def test_bank_names_are_stable(self):
        """docs/fuzzing.md documents these names; renames must be loud."""
        assert list(ORACLES) == [
            "approach_ordering",
            "kernel_vs_naive",
            "replay_vs_reference",
            "prune_vs_enumerate",
            "useful_antichain",
            "wcrt_certificate",
            "front_doors",
            "wcet_soundness",
            "reload_soundness",
            "heap_vs_scan",
            "art_soundness",
            "store_parity",
            "relocation",
            "cmiss_monotonicity",
        ]

    def test_single_oracle_selection(self):
        case = build_case(case_from_seed(4, 0))
        assert run_oracles(case, names=["approach_ordering"]) == []

    def test_wcrt_certificate_sees_both_sides_of_u_one(self, monkeypatch):
        """The period rescaling makes every approach meet both an
        overloaded (``unbounded``) and a converging recurrence, and the
        three-round runs trip into ``diverged`` bounds."""
        from tests.fuzz import oracles

        seen = set()
        original = oracles.compute_task_wcrt

        def spy(system, name, cpre, **kwargs):
            result = original(system, name, cpre=cpre, **kwargs)
            approach = cpre.__defaults__[0]  # the oracle binds it there
            seen.add((approach, kwargs.get("max_iterations"), result.status))
            return result

        monkeypatch.setattr(oracles, "compute_task_wcrt", spy)
        for index in range(4):
            case = build_case(case_from_seed(4, index))
            assert run_oracles(case, names=["wcrt_certificate"]) == []
        for approach in oracles.ALL_APPROACHES:
            assert (approach, None, "unbounded") in seen
            assert (approach, None, "converged") in seen
            assert (approach, 3, "diverged") in seen

    def test_one_production_scheduler_run_per_case_and_budget(self, monkeypatch):
        """``heap_vs_scan`` and ``art_soundness`` share the production
        scheduler's run of a case, a raised budget error included."""
        from repro.guard.budget import AnalysisBudget
        from tests.fuzz import oracles

        runs = []

        class Counting(oracles.Simulator):
            def run(self, horizon, **kwargs):
                runs.append(kwargs.get("budget"))
                return super().run(horizon, **kwargs)

        monkeypatch.setattr(oracles, "Simulator", Counting)
        case = next(
            case for case in map(build_case, (case_from_seed(4, i) for i in range(20)))
            if case.config.policy == "lru" and not case.config.write_back
        )
        names = ["heap_vs_scan", "art_soundness"]
        starved = AnalysisBudget(max_sim_steps=1)
        for budget in (None, starved, None, starved):
            assert run_oracles(case, names=names, budget=budget) == []
        assert runs == [None, starved]
        with pytest.raises(ReproError):
            oracles._production_run(case, starved)
        assert runs == [None, starved]
