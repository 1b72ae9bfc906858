"""Shrinker unit tests against planted bugs with known ground truth.

The planted oracles in :mod:`tests.fuzz.shrink` "fail" on a structural
feature (a loop, a store) rather than a real bound violation, so the
minimal failing system is known a priori: one task, one trivial program
exhibiting just that feature, everything else stripped.  That gives the
three properties the satellite task demands sharp, assertable forms:

* **termination** — the strictly decreasing weight bounds the rounds;
* **determinism** — two fresh runs on the same input produce the same
  minimized spec, round count and attempt count;
* **minimality** — the acceptance bar: a planted engine bug shrinks to
  <= 6 CFG nodes.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.build import cfg_node_count
from repro.fuzz.generator import case_from_seed
from repro.fuzz.spec import SystemSpec, spec_weight

from tests.conftest import run_from_root
from tests.fuzz.shrink import (
    planted_predicate,
    repro_script,
    pytest_stub,
    shrink_case,
    write_artifacts,
)


def _shrink_planted(name: str, seed: int = 4, index: int = 0):
    spec = case_from_seed(seed, index)
    predicate = planted_predicate(name)
    assert predicate(spec), "seed must exhibit the planted feature"
    return spec, shrink_case(spec, predicate)


class TestPlantedShrinks:
    @pytest.mark.parametrize("planted", ["loop", "store"])
    def test_minimal_and_terminating(self, planted):
        spec, result = _shrink_planted(planted)
        assert result.weight_after < result.weight_before
        # Termination's witness: every accepted round strictly decreased
        # the integer weight, so rounds can never exceed the start weight.
        assert result.rounds <= result.weight_before
        # The acceptance bar: a planted bug reduces to a near-trivial
        # system (the ISSUE's threshold is <= 6 CFG nodes).
        assert cfg_node_count(result.spec) <= 6
        assert len(result.spec.tasks) == 1
        # The shrunk spec still exhibits the planted feature, and the
        # original is untouched (specs are immutable).
        assert planted_predicate(planted)(result.spec)
        assert spec_weight(spec) == result.weight_before

    @pytest.mark.parametrize("planted", ["loop", "store"])
    def test_deterministic_across_runs(self, planted):
        _, first = _shrink_planted(planted)
        _, second = _shrink_planted(planted)
        assert first.spec == second.spec
        assert first.spec.to_json() == second.spec.to_json()
        assert (first.rounds, first.attempts) == (second.rounds, second.attempts)


class TestShrinkContract:
    def test_rejects_non_failing_input(self):
        spec = case_from_seed(4, 0)
        with pytest.raises(ValueError, match="does not hold"):
            shrink_case(spec, lambda s: False)

    def test_crashing_candidates_never_count_as_the_bug(self):
        """ddmin's 'unresolved' rule: a candidate that makes the predicate
        raise is skipped, and the shrink still reaches a valid minimum."""
        spec = case_from_seed(4, 0)
        loop = planted_predicate("loop")

        def touchy(candidate: SystemSpec) -> bool:
            if candidate.cache.num_sets < spec.cache.num_sets:
                raise RuntimeError("injected validity failure")
            return loop(candidate)

        result = shrink_case(spec, touchy)
        # Cache shrinks were poisoned, so the geometry must survive...
        assert result.spec.cache.num_sets == spec.cache.num_sets
        # ...while everything else still minimized.
        assert result.weight_after < result.weight_before
        assert loop(result.spec)

    def test_result_weight_matches_spec(self):
        _, result = _shrink_planted("loop")
        assert spec_weight(result.spec) == result.weight_after


class TestArtifacts:
    def test_emitted_files_round_trip_and_run(self, tmp_path):
        _, result = _shrink_planted("loop")
        paths = write_artifacts(tmp_path, result, seed=4, index=0,
                                oracle_names=None)
        assert set(paths) == {"spec", "script", "pytest"}
        reloaded = SystemSpec.from_json(
            json.loads((tmp_path / "minimized_seed4_case0.json").read_text())
        )
        assert reloaded == result.spec
        # The planted bug is a test double: the real bank passes the
        # minimized case, so the script exits 0 and the stub passes.
        script = run_from_root(paths["script"])
        assert script.returncode == 0, script.stdout + script.stderr
        assert "no violations" in script.stdout
        stub = run_from_root(
            "-m", "pytest", "-q", "-p", "no:cacheprovider", paths["pytest"]
        )
        assert stub.returncode == 0, stub.stdout + stub.stderr
        assert "1 passed" in stub.stdout

    def test_scripts_embed_the_minimized_spec(self):
        _, result = _shrink_planted("store")
        script = repro_script(result.spec, 4, 0, None)
        stub = pytest_stub(result.spec, 4, 0, None)
        for text in (script, stub):
            payload = text.split('r"""', 1)[1].split('"""', 1)[0]
            assert SystemSpec.from_json(json.loads(payload)) == result.spec
