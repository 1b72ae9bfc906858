"""Delta-debugging shrinker: reduce a failing case to a minimal system.

The algorithm is greedy structural descent: enumerate candidate
transformations of the current spec in a fixed order (drop a task, drop a
body node, hoist a loop or branch body, degrade a memory sweep, shrink
the cache, zero the timing knobs, ...), accept the first candidate that
(a) has a strictly smaller :func:`~repro.fuzz.spec.spec_weight` and
(b) still satisfies the failure predicate, then restart.  The strictly
decreasing integer weight guarantees termination; the fixed enumeration
order (and a predicate with no hidden randomness) makes the result a
pure function of the input spec — the same seed shrinks to the same
minimal system on every run.

A candidate that makes the predicate *raise* is treated as not
reproducing (validity errors never count as the bug), matching classic
ddmin's handling of unresolved outcomes.

``PLANTED`` holds deliberately unsound oracle doubles (they "fail" on a
structural feature rather than a real bound violation); the shrinker
unit tests and the ``python -m tests.fuzz shrink --planted`` self-test
use them to prove termination, determinism and minimality on a bug whose
ground truth is known.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from repro.fuzz.build import BuiltCase, build_case, cfg_node_count
from repro.fuzz.spec import (
    BranchSpec,
    LoopSpec,
    MemSpec,
    Node,
    SystemSpec,
    TaskDef,
    replace_task,
    spec_weight,
)
from repro.guard.budget import AnalysisBudget
from repro.program.builder import (
    IfElseNode,
    LoopNode as BuilderLoopNode,
    SeqNode,
    StructureNode,
)
from repro.program.instructions import Store

from tests.fuzz.oracles import Violation
from tests.fuzz.runner import CASE_BUDGET, replay_command, run_one_case

#: ``predicate(spec) -> True`` iff the failure still reproduces on spec.
Predicate = Callable[[SystemSpec], bool]


@dataclass
class ShrinkResult:
    """Outcome of one minimization."""

    spec: SystemSpec
    rounds: int
    attempts: int
    weight_before: int
    weight_after: int

    @property
    def cfg_nodes(self) -> int:
        return cfg_node_count(self.spec)


# ----------------------------------------------------------------------
# Candidate enumeration (fixed order => deterministic shrinks)
# ----------------------------------------------------------------------
def _body_variants(body: tuple[Node, ...]) -> Iterator[tuple[Node, ...]]:
    for i, node in enumerate(body):
        before, after = body[:i], body[i + 1 :]
        yield before + after  # drop the node outright
        if isinstance(node, LoopSpec):
            yield before + node.body + after  # hoist the body
            if node.bound > 0:
                yield before + (replace(node, bound=0),) + after
            if node.bound > 1:
                yield before + (replace(node, bound=1),) + after
            for variant in _body_variants(node.body):
                yield before + (replace(node, body=variant),) + after
        elif isinstance(node, BranchSpec):
            yield before + node.then + after  # hoist then
            if node.orelse:
                yield before + node.orelse + after  # hoist else
                yield before + (replace(node, orelse=()),) + after
            for variant in _body_variants(node.then):
                yield before + (replace(node, then=variant),) + after
            for variant in _body_variants(node.orelse):
                yield before + (replace(node, orelse=variant),) + after
        elif isinstance(node, MemSpec):
            # The smallest node still containing a loop: a bound-0 shell.
            yield before + (LoopSpec(bound=0, body=()),) + after
            if node.count > 0:
                yield before + (replace(node, count=0),) + after
            if node.count > 1:
                yield before + (replace(node, count=node.count // 2),) + after
            if node.reps > 1:
                yield before + (replace(node, reps=1),) + after
            if node.stride > 1:
                yield before + (replace(node, stride=1),) + after
            if node.store:
                yield before + (replace(node, store=False),) + after


def _task_variants(task: TaskDef) -> Iterator[TaskDef]:
    program = task.program
    for body in _body_variants(program.body):
        yield replace(task, program=replace(program, body=body))
    if program.arrays:
        yield replace(task, program=replace(program, arrays=program.arrays[:-1]))
    for i, words in enumerate(program.arrays):
        if words > 1:
            arrays = list(program.arrays)
            arrays[i] = words // 2
            yield replace(task, program=replace(program, arrays=tuple(arrays)))
    if task.jitter_pct > 0:
        yield replace(task, jitter_pct=0)
    if task.period_mult > 3:
        yield replace(task, period_mult=max(3, task.period_mult // 2))


def _candidates(spec: SystemSpec) -> Iterator[SystemSpec]:
    # 1. Whole tasks (largest reduction first).
    if len(spec.tasks) > 1:
        for i in range(len(spec.tasks)):
            yield replace(spec, tasks=spec.tasks[:i] + spec.tasks[i + 1 :])
    # 2. Inside each task.
    for i, task in enumerate(spec.tasks):
        for variant in _task_variants(task):
            yield replace_task(spec, i, variant)
    # 3. System knobs.
    if spec.stagger:
        yield replace(spec, stagger=False)
    if spec.context_switch > 0:
        yield replace(spec, context_switch=0)
    if len(spec.preempt_steps) > 1:
        for i in range(len(spec.preempt_steps)):
            yield replace(
                spec,
                preempt_steps=spec.preempt_steps[:i] + spec.preempt_steps[i + 1 :],
            )
    for i, step in enumerate(spec.preempt_steps):
        if step > 1:
            steps = list(spec.preempt_steps)
            steps[i] = step // 2
            yield replace(spec, preempt_steps=tuple(steps))
    # 4. Cache geometry.
    cache = spec.cache
    if cache.write_back:
        yield replace(spec, cache=replace(cache, write_back=False))
    if cache.policy != "lru":
        yield replace(spec, cache=replace(cache, policy="lru"))
    if cache.num_sets > 1:
        yield replace(spec, cache=replace(cache, num_sets=cache.num_sets // 2))
    if cache.ways > 1:
        yield replace(spec, cache=replace(cache, ways=cache.ways // 2))
    if cache.line_size > 4:
        yield replace(spec, cache=replace(cache, line_size=cache.line_size // 2))
    if cache.miss_penalty > 4:
        yield replace(spec, cache=replace(cache, miss_penalty=cache.miss_penalty // 2))


def shrink_case(
    spec: SystemSpec, predicate: Predicate, max_rounds: int = 10_000
) -> ShrinkResult:
    """Minimize *spec* while *predicate* keeps holding.

    Raises :class:`ValueError` if the predicate does not hold on the
    input — shrinking a non-failing case is always caller error.
    """
    if not _holds(predicate, spec):
        raise ValueError("predicate does not hold on the unshrunk spec")
    current = spec
    current_weight = spec_weight(spec)
    rounds = 0
    attempts = 0
    improved = True
    while improved and rounds < max_rounds:
        improved = False
        for candidate in _candidates(current):
            attempts += 1
            weight = spec_weight(candidate)
            if weight >= current_weight:
                continue
            if _holds(predicate, candidate):
                current = candidate
                current_weight = weight
                rounds += 1
                improved = True
                break
    return ShrinkResult(
        spec=current,
        rounds=rounds,
        attempts=attempts,
        weight_before=spec_weight(spec),
        weight_after=current_weight,
    )


def _holds(predicate: Predicate, spec: SystemSpec) -> bool:
    try:
        return bool(predicate(spec))
    except Exception:
        return False  # unresolved candidate: never counts as the bug


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def violation_predicate(
    oracle_names: Sequence[str] | None = None,
    budget: AnalysisBudget | None = None,
) -> Predicate:
    """Reproduces iff the case still yields a violation (of the named
    oracles, or of any oracle when none are named)."""
    case_budget = budget if budget is not None else CASE_BUDGET
    targets = set(oracle_names) if oracle_names else None

    def predicate(spec: SystemSpec) -> bool:
        violations = run_one_case(0, 0, budget=case_budget, spec=spec)
        if targets is None:
            return bool(violations)
        return any(v.oracle in targets for v in violations)

    return predicate


# ----------------------------------------------------------------------
# Planted bugs (deliberately unsound oracle doubles)
# ----------------------------------------------------------------------
def _structure_has(node: StructureNode, wanted: type) -> bool:
    if isinstance(node, wanted):
        return True
    if isinstance(node, SeqNode):
        return any(_structure_has(child, wanted) for child in node.children)
    if isinstance(node, IfElseNode):
        if _structure_has(node.then_tree, wanted):
            return True
        return node.else_tree is not None and _structure_has(node.else_tree, wanted)
    if isinstance(node, BuilderLoopNode):
        return _structure_has(node.body_tree, wanted)
    return False


def planted_loop_oracle(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Pretends any program containing a loop violates a bound."""
    return [
        Violation("planted_loop", f"{task.name} contains a loop")
        for task in case.tasks
        if _structure_has(task.program.structure, BuilderLoopNode)
    ]


def planted_store_oracle(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Pretends any program containing a store instruction is unsound."""
    violations = []
    for task in case.tasks:
        cfg = task.program.cfg
        if any(
            isinstance(instruction, Store)
            for label in cfg.labels()
            for instruction in cfg.block(label).instructions
        ):
            violations.append(
                Violation("planted_store", f"{task.name} contains a store")
            )
    return violations


PLANTED: dict[str, Callable[..., list[Violation]]] = {
    "loop": planted_loop_oracle,
    "store": planted_store_oracle,
}


def planted_predicate(
    name: str, budget: AnalysisBudget | None = None
) -> Predicate:
    oracle = PLANTED[name]

    def predicate(spec: SystemSpec) -> bool:
        return bool(oracle(build_case(spec, budget=budget), budget=budget))

    return predicate


# ----------------------------------------------------------------------
# Artifact emission
# ----------------------------------------------------------------------
def repro_script(
    spec: SystemSpec, seed: int, index: int, oracle_names: Sequence[str] | None
) -> str:
    """A self-contained script that rebuilds the minimized case and exits
    non-zero while the violation persists."""
    names = list(oracle_names) if oracle_names else None
    return f'''#!/usr/bin/env python3
"""Auto-generated repro: fuzz seed {seed}, case {index} (minimized).

Run from the repository root, with src/ and the root on PYTHONPATH:
    PYTHONPATH=src:. python DIR/{_script_name(seed, index)}
"""

import json
import sys

from tests.fuzz.runner import run_one_case
from repro.fuzz.spec import SystemSpec

SPEC = json.loads(r"""
{json.dumps(spec.to_json(), indent=4)}
""")

ORACLES = {names!r}


def main() -> int:
    violations = run_one_case(
        {seed}, {index}, oracle_names=ORACLES, spec=SystemSpec.from_json(SPEC)
    )
    for violation in violations:
        print(violation)
    if violations:
        print(f"{{len(violations)}} violation(s) — bug still present")
        return 1
    print("no violations — bug fixed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


def pytest_stub(
    spec: SystemSpec, seed: int, index: int, oracle_names: Sequence[str] | None
) -> str:
    """A regression test asserting the minimized case stays clean."""
    names = list(oracle_names) if oracle_names else None
    return f'''"""Regression: fuzz seed {seed}, case {index} (minimized).

Replay the original, unshrunk case with:
    {replay_command(seed, index)}
"""

import json

from tests.fuzz.runner import run_one_case
from repro.fuzz.spec import SystemSpec

SPEC = json.loads(r"""
{json.dumps(spec.to_json(), indent=4)}
""")


def test_fuzz_regression_seed{seed}_case{index}():
    violations = run_one_case(
        {seed}, {index}, oracle_names={names!r}, spec=SystemSpec.from_json(SPEC)
    )
    assert not violations, "\\n".join(str(v) for v in violations)
'''


def _script_name(seed: int, index: int) -> str:
    return f"repro_fuzz_seed{seed}_case{index}.py"


def write_artifacts(
    directory,
    result: ShrinkResult,
    seed: int,
    index: int,
    oracle_names: Sequence[str] | None,
) -> dict[str, str]:
    """Write the minimized spec, repro script and pytest stub; returns
    the path of each artifact keyed by kind."""
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / f"minimized_seed{seed}_case{index}.json"
    spec_path.write_text(json.dumps(result.spec.to_json(), indent=2) + "\n")
    script_path = out / _script_name(seed, index)
    script_path.write_text(repro_script(result.spec, seed, index, oracle_names))
    stub_path = out / f"test_fuzz_regression_seed{seed}_case{index}.py"
    stub_path.write_text(pytest_stub(result.spec, seed, index, oracle_names))
    return {
        "spec": str(spec_path),
        "script": str(script_path),
        "pytest": str(stub_path),
    }
