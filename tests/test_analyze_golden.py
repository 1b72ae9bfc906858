"""The ``repro analyze --reuse`` report may not change by a byte, and it
reads the same from every path a task's traces can come by.

The goldens under ``tests/golden/analyze/`` hold the full report of each
built-in workload, ``[cache behaviour]`` diagnostics included.  The
trace-path tests render one task's report from a cold analysis, from a
warm disk store (whose traces load only when read) and from a what-if
layout move (whose traces relocate when read), and require the same text.

Regenerate goldens with ``REPRO_UPDATE_GOLDENS=1 pytest
tests/test_analyze_golden.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import analyze_task, task_report
from repro.analysis.store import ArtifactStore, StoreBackedTraces
from repro.analysis.whatif import WhatIfSession
from repro.cache import CacheConfig
from repro.cli import main
from repro.program import SystemLayout
from repro.vm.trace import CompactTrace, LazyTraces
from repro.workloads import build_workload, workload_names

GOLDEN_DIR = Path(__file__).parent / "golden" / "analyze"


def test_every_workload_has_a_golden():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.txt")) == sorted(
        workload_names()
    )


@pytest.mark.parametrize("workload", workload_names())
def test_analyze_report_matches_golden(workload, capsys):
    assert main(["--no-cache", "analyze", "--reuse", workload]) == 0
    text = capsys.readouterr().out
    path = GOLDEN_DIR / f"{workload}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.write_text(text)
    assert text == path.read_text(), (
        f"golden {path.name} drifted; rerun with REPRO_UPDATE_GOLDENS=1 if "
        "the change is deliberate"
    )


def _ed():
    workload = build_workload("ed")
    layout = SystemLayout().place(workload.program)
    return layout, workload.scenario_map(), CacheConfig.scaled_8k(miss_penalty=20)


def _assert_compact(traces, scenarios) -> None:
    assert list(traces) == list(scenarios)
    for trace in traces.values():
        assert isinstance(trace, CompactTrace)


class TestTracePaths:
    def test_cold_traces_are_compact(self):
        layout, scenarios, config = _ed()
        art = analyze_task(layout, scenarios, config)
        assert type(art.wcet.traces) is dict
        _assert_compact(art.wcet.traces, scenarios)

    def test_memory_store_traces_are_compact(self):
        layout, scenarios, config = _ed()
        store = ArtifactStore(directory=None)
        cold = analyze_task(layout, scenarios, config, store=store)
        moved = SystemLayout(base_address=0x40000).place(layout.program)
        warm = analyze_task(moved, scenarios, config, store=store)
        assert store.hits_by_kind.get("trace") == 1
        assert isinstance(warm.wcet.traces, LazyTraces)
        _assert_compact(cold.wcet.traces, scenarios)
        _assert_compact(warm.wcet.traces, scenarios)
        assert warm.wcet.traces != cold.wcet.traces  # relocated

    def test_disk_store_traces_are_compact(self, tmp_path):
        layout, scenarios, config = _ed()
        analyze_task(layout, scenarios, config, store=ArtifactStore(tmp_path))
        warm = analyze_task(layout, scenarios, config, store=ArtifactStore(tmp_path))
        assert isinstance(warm.wcet.traces, StoreBackedTraces)
        _assert_compact(warm.wcet.traces, scenarios)

    def test_report_is_the_same_from_a_warm_disk_store(self, tmp_path):
        layout, scenarios, config = _ed()
        cold = task_report(analyze_task(layout, scenarios, config))
        analyze_task(layout, scenarios, config, store=ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        warm = analyze_task(layout, scenarios, config, store=store)
        assert store.hits_by_kind.get("flow") == 1  # nothing recomputed
        assert isinstance(warm.wcet.traces, StoreBackedTraces)
        assert task_report(warm, include_reuse=True) == cold

    def test_report_is_the_same_after_a_what_if_move(self):
        with WhatIfSession("exp1") as session:
            session.result()
            session.apply("code:ed=0x8000")
            moved = session._pipeline.artifacts["ed"]
            (task,) = [task for task in session.placed.tasks if task.name == "ed"]
            config = session.placed.config
        assert task.layout.code_base == 0x8000
        assert isinstance(moved.wcet.traces, LazyTraces)
        cold = analyze_task(task.layout, task.scenarios, config)
        assert task_report(moved, include_reuse=True) == task_report(
            cold, include_reuse=True
        )
