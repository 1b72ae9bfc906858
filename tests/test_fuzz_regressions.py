"""Minimized regressions from the differential fuzzing campaign.

Each spec below was found by ``python -m tests.fuzz run``, root-caused,
fixed, and minimized by ``python -m tests.fuzz shrink`` (the JSON is the
shrinker's output, committed verbatim).  Keep these green: they are the smallest known
systems that distinguished a sound engine from an unsound one.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.analysis.artifacts import analyze_task
from repro.analysis.wcet import static_wcet_bound
from repro.fuzz.build import build_case, scenarios_for
from repro.fuzz.spec import SystemSpec

from tests.fuzz.runner import run_one_case

# Campaign seed 4, case 8, shrunk from weight 452 to 37 (4 CFG nodes):
# one single-word storing sweep on a one-line write-back cache.
# static_wcet_bound charged miss_penalty per miss but not the dirty-line
# writeback a write-back miss can trigger, so the "all-miss" bound
# undercut the measured WCET (6780 < 7260 on the unshrunk case).
WRITEBACK_STATIC_BOUND_SPEC = json.loads(r"""
{
    "version": 1,
    "cache": {"num_sets": 1, "ways": 1, "line_size": 4, "miss_penalty": 2,
              "policy": "lru", "write_back": true},
    "tasks": [{"program": {"arrays": [1], "body": [["mem", 0, 1, 1, 1, 1]]},
               "period_mult": 3, "jitter_pct": 0}],
    "context_switch": 0,
    "preempt_steps": [1],
    "stagger": false
}
""")


def test_fuzz_regression_seed4_case8_writeback_static_bound():
    spec = SystemSpec.from_json(WRITEBACK_STATIC_BOUND_SPEC)
    violations = run_one_case(4, 8, spec=spec)
    assert not violations, "\n".join(str(v) for v in violations)


def test_static_bound_charges_writebacks():
    """The direct form of the same bug: on the minimized system the
    all-miss bound must dominate the measured WCET, and the write-back
    geometry must price strictly above the write-through one (the
    program stores, so dirty evictions are reachable)."""
    spec = SystemSpec.from_json(WRITEBACK_STATIC_BOUND_SPEC)
    case = build_case(spec)
    (task,) = case.tasks
    assert static_wcet_bound(task.layout, case.config) >= task.artifacts.wcet.cycles

    write_through = replace(case.config, write_back=False)
    assert static_wcet_bound(task.layout, case.config) > static_wcet_bound(
        task.layout, write_through
    )
    # And the bound stays sound on the cheaper geometry too.
    art = analyze_task(task.layout, scenarios_for(task.inputs), write_through)
    assert static_wcet_bound(task.layout, write_through) >= art.wcet.cycles
