"""Fault-injection harness: adversarial inputs for the guarded pipeline.

Factories here fabricate the failure modes the guard layer
(:mod:`repro.guard`) must absorb:

* :func:`make_exploding_program` — a CFG whose feasible-path count grows
  as ``2**branches``, blowing any path-enumeration budget,
* :func:`make_divergent_system` — a task set whose response-time
  recurrence (Eq. 6) never reaches a fixpoint (``unbounded``),
* :func:`make_slow_system` — a recurrence that converges, but only after
  more rounds than a small iteration budget allows (``diverged``),
* :func:`make_overloaded_system` — utilization > 1 with a *finite*
  fixpoint above the deadline, to pin the deadline-overrun /
  divergence distinction,
* :data:`DEGENERATE_GEOMETRIES` — legal-but-extreme cache shapes the
  analysis must handle without special-casing,
* :data:`INVALID_GEOMETRIES` — cache shapes that must be rejected with a
  typed :class:`~repro.errors.ConfigError`,
* :data:`PICKLE_CORRUPTIONS` — ways an on-disk artifact-cache entry can
  rot (truncation, garbage, an unrelated pickle, an empty file); the
  store must treat each as a miss, delete the entry and count it.

``tests/test_guard.py`` drives the pipeline with these and asserts the
robustness invariant from docs/robustness.md: every run returns either a
sound bound whose ledger names the tripped budget, or a typed
:class:`~repro.errors.ReproError` — never a bare traceback, never a
silently unsound number.
"""

from __future__ import annotations

import pickle

from repro.cache import CacheConfig
from repro.program import ProgramBuilder
from repro.wcrt import TaskSpec, TaskSystem


def make_exploding_program(
    name: str = "bomb", branches: int = 8, words: int = 4
):
    """A chain of *branches* sequential two-way branches: 2**branches paths.

    Each arm touches its own array so distinct paths have distinct memory
    footprints — the worst case for per-path analysis, the point of the
    ``max_paths`` budget.
    """
    b = ProgramBuilder(name)
    flags = b.array("flags", words=branches)
    out = b.array("out", words=branches)
    tables = [
        (b.array(f"then{i}", words=words), b.array(f"else{i}", words=words))
        for i in range(branches)
    ]
    for i, (table_then, table_else) in enumerate(tables):
        b.load("f", flags, index=i)
        with b.if_else("f") as arms:
            with arms.then_case():
                b.load("v", table_then, index=0)
            with arms.else_case():
                b.load("v", table_else, index=0)
        b.store("v", out, index=i)
    return b.build()


def exploding_scenarios(branches: int = 8) -> dict[str, dict[str, list[int]]]:
    """One concrete input steering the exploding program down one path."""
    return {"default": {"flags": [i % 2 for i in range(branches)]}}


def make_divergent_system() -> TaskSystem:
    """U = 1.01; the victim's recurrence gains >= 1 cycle per iteration.

    The hog saturates the processor (C = P), so ``R = 1 + ceil(R/5)*5``
    has no fixpoint: the victim's interferer demand is exactly 1, which
    Eq. 7 reports as ``unbounded`` once the response passes the deadline.
    Every task is individually legal (wcet <= deadline) — the fault only
    exists at the system level.
    """
    return TaskSystem(
        tasks=[
            TaskSpec("hog", wcet=5, period=5, priority=1),
            TaskSpec("victim", wcet=1, period=100, priority=2),
        ]
    )


def make_slow_system() -> TaskSystem:
    """Interferer demand 0.95 < 1: a fixpoint exists but is slow to reach.

    ``R = 200 + ceil(R/20)*19`` converges to 4000 after 59 rounds, so
    ``max_wcrt_iterations=40`` exhausts the budget on a recurrence that
    does converge (``diverged``).  The closed-form bound
    ``(200 + (0/20 + 1)*19) / (1 - 19/20)`` rounds up to 4380, which is
    below the 6000-cycle deadline.
    """
    return TaskSystem(
        tasks=[
            TaskSpec("hog", wcet=19, period=20, priority=1),
            TaskSpec("victim", wcet=200, period=6000, priority=2),
        ]
    )


def make_overloaded_system() -> TaskSystem:
    """U = 1.2 yet the recurrence *converges* — above the deadline.

    ``R = 6 + ceil(R/10)*6`` reaches its fixpoint at 18 > D = 10.  The
    victim misses its deadline but does NOT diverge; tests use this to
    prove deadline overrun and divergence stay distinguishable even when
    utilization exceeds one.
    """
    return TaskSystem(
        tasks=[
            TaskSpec("load", wcet=6, period=10, priority=1),
            TaskSpec("victim", wcet=6, period=10, deadline=10, priority=2),
        ]
    )


#: Legal-but-extreme cache geometries: a single direct-mapped line, a tiny
#: fully-associative cache, and a single-set direct-mapped column.  The
#: analysis must produce sound bounds on all of them with no special cases.
DEGENERATE_GEOMETRIES: tuple[CacheConfig, ...] = (
    CacheConfig(num_sets=1, ways=1, line_size=16, miss_penalty=20),
    CacheConfig(num_sets=1, ways=4, line_size=16, miss_penalty=20),
    CacheConfig(num_sets=64, ways=1, line_size=4, miss_penalty=20),
)

#: Constructor kwargs that must raise ConfigError (and hence ValueError).
INVALID_GEOMETRIES: tuple[dict, ...] = (
    dict(num_sets=3, ways=2, line_size=16, miss_penalty=20),
    dict(num_sets=8, ways=2, line_size=12, miss_penalty=20),
    dict(num_sets=8, ways=0, line_size=16, miss_penalty=20),
    dict(num_sets=8, ways=2, line_size=16, miss_penalty=-1),
)

#: name -> transform(valid pickle bytes) -> corrupted bytes.  Each models
#: a distinct on-disk failure: a write cut short mid-stream, random bit
#: rot, a file some other program wrote into the cache directory, and a
#: zero-length file left by a full disk.
PICKLE_CORRUPTIONS: dict = {
    "truncated": lambda payload: payload[: max(1, len(payload) // 2)],
    "garbage": lambda payload: b"\x00rotten" + payload[::-3],
    "foreign_pickle": lambda payload: pickle.dumps({"not": "an artifact"}),
    "empty": lambda payload: b"",
}
