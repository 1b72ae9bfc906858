"""Fuzz-bank oracle for the optimizer's incremental evaluations.

Every layout the optimizer visits, generation candidates included, is
scored through a warm :class:`~repro.analysis.whatif.WhatIfSession`
jump.  This suite replays each visited assignment through a *cold*
:func:`~repro.analysis.pipeline.run_pipeline` call — no store, no
session state — and asserts the evaluation payloads are byte-identical.
That is the soundness contract that lets the search trust its cheap
evaluations.
"""

from __future__ import annotations

import json

import pytest

import repro.analysis.artifacts as artifacts
from repro.analysis.pipeline import resolve_system, run_pipeline
from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import WhatIfSession
from repro.batch import SweepPoint, analyze_batch
from repro.optimize import evaluation_payload, optimize
from repro.program.layout import LayoutAssignment


@pytest.fixture(scope="module")
def run():
    """One seeded exp1 run exercising every move kind and both phases."""
    store = ArtifactStore(directory=None, memory_slots=8192)
    session = WhatIfSession("exp1", store=store)
    try:
        config = session.placed.config
    finally:
        session.close()
    outcome = optimize(
        "exp1",
        seed=11,
        budget_evals=10,
        generation=4,
        patience=4,
        restarts=2,
        cache_budgets=[config],
        store=store,
    )
    return outcome, config


def visited(outcome):
    """Unique (assignment, payload) pairs from the move log, as dicts."""
    unique = {}
    for entry in outcome.move_log:
        if not entry["valid"]:
            continue
        key = json.dumps(entry["assignment"], sort_keys=True)
        unique.setdefault(key, entry)
    return list(unique.values())


class TestColdRecomputationOracle:
    def test_the_run_visited_enough_layouts(self, run):
        outcome, _ = run
        entries = visited(outcome)
        assert len(entries) >= 4  # baseline + generation + local moves
        kinds = {entry["kind"] for entry in outcome.move_log}
        assert "baseline" in kinds and "generation" in kinds

    def test_every_visited_layout_round_trips_cold(self, run):
        outcome, config = run
        for entry in visited(outcome):
            # Cold: no store, no session, the VM runs at this placement.
            placed = resolve_system(
                "exp1",
                cache=config,
                assignment=LayoutAssignment.from_dict(entry["assignment"]),
            )
            payload = run_pipeline(placed).payload()
            warm = json.dumps(entry["eval"], sort_keys=True)
            cold = json.dumps(evaluation_payload(payload), sort_keys=True)
            assert warm == cold, f"divergence at move {entry['move']!r}"

    def test_baseline_assignment_matches_the_default_placement(self, run):
        outcome, config = run
        baseline = outcome.move_log[0]
        assert baseline["kind"] == "baseline"
        plain = analyze_batch(
            [SweepPoint(experiment="exp1", cache=config)]
        ).results[0]
        assert json.dumps(baseline["eval"], sort_keys=True) == json.dumps(
            evaluation_payload(plain.payload), sort_keys=True
        )


class TestGenerationReadsStoredTraces:
    def test_optimizer_runs_the_vm_once_per_task(self, monkeypatch):
        """Generation candidates are session jumps: across every cache
        budget the VM runs only for the baseline session's tasks."""
        calls = []
        measure = artifacts.measure_wcet_detailed

        def counting(layout, *args, **kwargs):
            calls.append(layout.program.name)
            return measure(layout, *args, **kwargs)

        monkeypatch.setattr(artifacts, "measure_wcet_detailed", counting)
        WhatIfSession("exp1", store=ArtifactStore(directory=None)).result()
        baseline = list(calls)
        assert len(baseline) == len(resolve_system("exp1").tasks)
        calls.clear()
        outcome = optimize(
            "exp1", seed=3, budget_evals=24, generation=4, patience=6
        )
        assert any(e["kind"] == "generation" for e in outcome.move_log)
        assert calls == baseline
