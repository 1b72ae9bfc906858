"""Serializable whole-system specs, their seeded generator and builder.

* :mod:`repro.fuzz.spec` — serializable case descriptions (whole random
  systems: programs, cache geometry, periods/jitter, preemption points);
  :class:`SystemSpec` is the input format of serve, what-if, the
  optimizer and the pipeline.
* :mod:`repro.fuzz.generator` — the seeded draw functions that produce
  specs.  One generator serves both the fuzz campaign (backed by
  :class:`random.Random`) and the Hypothesis property tests (backed by a
  ``draw`` adapter), so the two can't drift apart.
* :mod:`repro.fuzz.build` — a spec to a fully analysed, simulatable case.

The campaign itself (oracle bank, runner, shrinker) lives in
``tests/fuzz``; see ``docs/fuzzing.md``.
"""

from repro.fuzz.build import build_case
from repro.fuzz.generator import RandomDraw, case_from_seed, draw_case
from repro.fuzz.spec import (
    BranchSpec,
    CacheSpec,
    LoopSpec,
    MemSpec,
    ProgramSpec,
    SystemSpec,
    TaskDef,
)

__all__ = [
    "BranchSpec",
    "CacheSpec",
    "LoopSpec",
    "MemSpec",
    "ProgramSpec",
    "RandomDraw",
    "SystemSpec",
    "TaskDef",
    "build_case",
    "case_from_seed",
    "draw_case",
]
