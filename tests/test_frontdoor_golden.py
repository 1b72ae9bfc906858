"""Front-door output goldens: ``repro sweep``, ``repro whatif`` and
``repro optimize`` JSON may not change by a byte.

Each case runs one CLI command in-process without a store, drops the
wall-time fields (they are the only non-deterministic values) and
compares the rest, key order included, with a committed file under
``tests/golden/frontdoor/``.  The whatif chain ends in a state with
``unbounded`` Eq. 7 statuses, so the divergence verdicts are pinned too.

Regenerate goldens with ``REPRO_UPDATE_GOLDENS=1 pytest
tests/test_frontdoor_golden.py``.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.analysis.pipeline import resolve_system
from repro.analysis.store import structure_digest
from repro.cache.config import CacheConfig
from repro.cli import main
from repro.experiments.setup import ALL_SPECS

GOLDEN_DIR = Path(__file__).parent / "golden" / "frontdoor"


def _drop_sweep_timing(document: dict) -> dict:
    del document["summary"]["elapsed_seconds"]
    for point in document["points"]:
        del point["analysis_seconds"]
    return document


def _drop_whatif_timing(states: list) -> list:
    for state in states:
        del state["elapsed_seconds"]
    return states


CASES = {
    "sweep_both_p10_p40.json": (
        ["--no-cache", "sweep", "--experiment", "both",
         "--penalties", "10", "40"],
        _drop_sweep_timing,
    ),
    "whatif_exp1_chain.json": (
        ["--no-cache", "whatif", "--base", "exp1",
         "--edit", "penalty=40", "--edit", "code:ed=0x8000",
         "--edit", "period:mr=40000"],
        _drop_whatif_timing,
    ),
    "optimize_exp1_seed3.json": (
        ["--no-cache", "optimize", "--experiment", "exp1", "--seed", "3",
         "--budget-evals", "24", "--generation", "4", "--patience", "6"],
        lambda document: document,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_front_door_json_matches_golden(name, tmp_path, capsys):
    argv, drop_timing = CASES[name]
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == 0
    capsys.readouterr()
    text = json.dumps(drop_timing(json.loads(out.read_text())), indent=2) + "\n"
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert text == path.read_text(), (
        f"golden {name} drifted; rerun with REPRO_UPDATE_GOLDENS=1 if the "
        "change is deliberate"
    )


def test_resolve_system_shares_each_experiments_programs():
    """Each experiment is built and placed once per process: every cache
    resolves to the same program, layout and scenario objects."""
    default = resolve_system("exp1")
    for other in (
        resolve_system("exp1"),
        resolve_system("exp1", miss_penalty=40),
        resolve_system("exp1", cache=CacheConfig(num_sets=64, ways=4, line_size=32)),
    ):
        for task, shared in zip(other.tasks, default.tasks):
            assert task.layout.program is shared.layout.program
            assert task.layout is shared.layout
            assert task.scenarios is shared.scenarios
    assert default.config == CacheConfig.scaled_8k(20)
    assert resolve_system("exp1", miss_penalty=40).config.miss_penalty == 40


def test_no_front_door_mutates_a_shared_program(tmp_path, capsys):
    """After every golden command and a what-if ``code:``/``swap:`` chain,
    each shared program still equals a fresh build: same structure digest
    (memoised and recomputed) and the same pickle bytes, so the memo never
    enters a pickle."""
    shared = {spec.key: resolve_system(spec.key) for spec in ALL_SPECS}
    for spec in shared.values():
        for task in spec.tasks:
            structure_digest(task.layout.program)  # memoise before use
    chain = ["--no-cache", "whatif", "--base", "exp1",
             "--edit", "code:ed=0x8000", "--edit", "swap:mr=ofdm"]
    for argv in [argv for argv, _ in CASES.values()] + [chain]:
        assert main([*argv, "--json", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    for spec in ALL_SPECS:
        for task in shared[spec.key].tasks:
            program = task.layout.program
            fresh = spec.builders[task.name]().program
            assert program == fresh
            assert structure_digest(program) == structure_digest(fresh)
            assert structure_digest(copy.copy(program)) == structure_digest(fresh)
            assert pickle.dumps(program) == pickle.dumps(fresh)
