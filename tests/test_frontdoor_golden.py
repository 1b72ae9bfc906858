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

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

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
