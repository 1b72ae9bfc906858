"""The ``repro analyze --reuse`` report may not change by a byte, and it
reads the same from every path a task's artifacts can come by.

The goldens under ``tests/golden/analyze/`` hold the full report of each
built-in workload, ``[cache behaviour]`` diagnostics included.  The
artifacts carry no traces: the report renders that section from the
traces of one VM run its caller passes in.  The trace-path tests render
one task's report from a cold analysis, from a warm disk store (which
reads no trace entry) and from a what-if layout move, and require the
same text.

Regenerate goldens with ``REPRO_UPDATE_GOLDENS=1 pytest
tests/test_analyze_golden.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import analyze_task, scenario_traces, task_report
from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import WhatIfSession
from repro.cache import CacheConfig
from repro.cli import main
from repro.program import SystemLayout
from repro.vm.trace import CompactTrace
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


class TestTracePaths:
    def test_scenario_traces_are_compact(self):
        layout, scenarios, config = _ed()
        traces = scenario_traces(layout, scenarios, config)
        assert list(traces) == list(scenarios)
        for trace in traces.values():
            assert isinstance(trace, CompactTrace)
            events = trace.expand()
            assert len(events.regions) == len(events) == len(trace)

    def test_warm_disk_store_reads_no_trace(self, tmp_path):
        layout, scenarios, config = _ed()
        cold = analyze_task(layout, scenarios, config, store=ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        warm = analyze_task(layout, scenarios, config, store=store)
        assert store.hits_by_kind == {"sim": 1, "flow": 1, "paths": 1}
        assert "trace" not in store.misses_by_kind
        assert warm.wcet == cold.wcet

    def test_report_is_the_same_from_a_warm_disk_store(self, tmp_path):
        layout, scenarios, config = _ed()
        traces = scenario_traces(layout, scenarios, config)
        cold = task_report(analyze_task(layout, scenarios, config), traces=traces)
        analyze_task(layout, scenarios, config, store=ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        warm = analyze_task(layout, scenarios, config, store=store)
        assert store.hits_by_kind.get("flow") == 1  # nothing recomputed
        assert task_report(warm, traces=traces) == cold

    def test_report_is_the_same_after_a_what_if_move(self):
        with WhatIfSession("exp1") as session:
            session.result()
            session.apply("code:ed=0x8000")
            moved = session._pipeline.artifacts["ed"]
            (task,) = [task for task in session.placed.tasks if task.name == "ed"]
            config = session.placed.config
        assert task.layout.code_base == 0x8000
        cold = analyze_task(task.layout, task.scenarios, config)
        traces = scenario_traces(task.layout, task.scenarios, config)
        assert task_report(moved, traces=traces) == task_report(
            cold, traces=traces
        )
