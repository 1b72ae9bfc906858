"""Turn a :class:`SystemSpec` into a fully analysed, simulatable case.

Building is total over the generator's output *and* over everything the
shrinker can produce: memory sweeps are clamped to their array's extent,
array references wrap modulo the declared arrays, and empty bodies are
legal.  A spec that still fails to build (e.g. an invalid cache geometry
introduced by hand-editing a corpus entry) raises
:class:`~repro.errors.ConfigError`, which the shrinker treats as
"candidate invalid", never as "bug reproduced".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.artifacts import TaskArtifacts
from repro.analysis.crpd import CRPDAnalyzer
from repro.analysis.pipeline import PipelineResult, resolve_system, run_pipeline
from repro.cache.config import CacheConfig
from repro.fuzz.spec import (
    BranchSpec,
    LoopSpec,
    MemSpec,
    Node,
    ProgramSpec,
    SystemSpec,
)
from repro.guard.budget import AnalysisBudget
from repro.program.builder import Program, ProgramBuilder
from repro.program.layout import ProgramLayout
from repro.sched.simulator import TaskBinding
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore


def _emit_body(b: ProgramBuilder, body: tuple[Node, ...], arrays) -> None:
    for node in body:
        if isinstance(node, MemSpec):
            if not arrays:
                continue
            decl = arrays[node.array % len(arrays)]
            stride = max(1, node.stride)
            count = max(0, min(node.count, decl.words // stride))

            def sweep() -> None:
                with b.loop(count) as i:
                    b.mul("idx", i, stride)
                    b.load("v", decl, index="idx")
                    b.binop("v", "add", "v", 1)
                    if node.store:
                        b.store("v", decl, index="idx")

            # A reps=1 wrapper would execute identically; eliding it keeps
            # shrunk cases at their true structural minimum.
            if node.reps > 1:
                with b.loop(node.reps):
                    sweep()
            else:
                sweep()
        elif isinstance(node, LoopSpec):
            with b.loop(node.bound):
                _emit_body(b, node.body, arrays)
        elif isinstance(node, BranchSpec):
            with b.if_else("f") as arms:
                with arms.then_case():
                    _emit_body(b, node.then, arrays)
                if node.orelse:
                    with arms.else_case():
                        _emit_body(b, node.orelse, arrays)
        else:  # pragma: no cover - spec layer rejects unknown kinds
            raise TypeError(f"unknown node {node!r}")


def build_program(spec: ProgramSpec, name: str) -> tuple[Program, dict[str, list[int]]]:
    """Build one program plus its base input map (flag defaults to 0)."""
    b = ProgramBuilder(name)
    arrays = [
        b.array(f"a{i}", words=max(1, words)) for i, words in enumerate(spec.arrays)
    ]
    flag = b.scalar("flag")
    b.load("f", flag, index=0)
    _emit_body(b, spec.body, arrays)
    program = b.build()
    inputs: dict[str, list[int]] = {"flag": [0]}
    for decl in arrays:
        inputs[decl.name] = list(range(decl.words))
    return program, inputs


def scenarios_for(inputs: dict[str, list[int]]) -> dict[str, dict[str, list[int]]]:
    """Both branch directions, so traces cover every feasible path."""
    zero = dict(inputs)
    zero["flag"] = [0]
    one = dict(inputs)
    one["flag"] = [1]
    return {"flag0": zero, "flag1": one}


def cfg_node_count(spec: SystemSpec) -> int:
    """Total CFG basic blocks across the spec's programs (the acceptance
    metric for shrink quality)."""
    total = 0
    for index, task in enumerate(spec.tasks):
        program, _ = build_program(task.program, f"t{index}")
        total += len(list(program.cfg.labels()))
    return total


@dataclass
class BuiltTask:
    """One placed, analysed task of a built case."""

    name: str
    program: Program
    layout: ProgramLayout
    scenarios: dict[str, dict[str, list[int]]]
    artifacts: TaskArtifacts
    spec: TaskSpec

    @property
    def inputs(self) -> dict[str, list[int]]:
        """The base input map (flag 0)."""
        return self.scenarios["flag0"]


@dataclass
class BuiltCase:
    """A spec realised into programs, layouts, artifacts and a task system.

    ``tasks`` is ordered highest priority first (priority ``i + 1`` for
    task ``i``), matching the spec's task order.
    """

    spec: SystemSpec
    pipeline: PipelineResult
    tasks: list[BuiltTask]

    @property
    def config(self) -> CacheConfig:
        return self.pipeline.placed.config

    @property
    def system(self) -> TaskSystem:
        return self.pipeline.system

    @property
    def analyzer(self) -> CRPDAnalyzer:
        return self.pipeline.crpd

    def bindings(self) -> list[TaskBinding]:
        return self.pipeline.bindings()

    def horizon(self) -> int:
        return 2 * max(task.spec.period for task in self.tasks)

    def pairs(self) -> list[tuple[BuiltTask, BuiltTask]]:
        """Every (preempted, preempting) pair, lower priority first."""
        out = []
        for low_index, low in enumerate(self.tasks):
            for high in self.tasks[:low_index]:
                out.append((low, high))
        return out


def build_case(
    spec: SystemSpec,
    budget: AnalysisBudget | None = None,
    store: "ArtifactStore | None" = None,
    config: CacheConfig | None = None,
) -> BuiltCase:
    """Build, place and analyse one fuzz case.

    The analysis runs :func:`~repro.analysis.pipeline.run_pipeline` with
    ``per_point`` MUMBS, the fuzz-spec convention.  ``config`` overrides
    the spec's cache — the Cmiss monotonicity oracle uses it to
    re-analyse at a doubled penalty.
    """
    result = run_pipeline(
        resolve_system(spec, cache=config), budget=budget, store=store
    )
    return BuiltCase(
        spec=spec,
        pipeline=result,
        tasks=[
            BuiltTask(
                name=task.name,
                program=task.layout.program,
                layout=task.layout,
                scenarios=task.scenarios,
                artifacts=result.artifacts[task.name],
                spec=result.system.task(task.name),
            )
            for task in result.placed.tasks
        ],
    )
