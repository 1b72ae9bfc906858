"""Serializable fuzz-case descriptions.

A :class:`SystemSpec` is a complete, self-contained description of one
random system: cache geometry, a handful of tasks (each a structured
program plus period/jitter knobs) and the preemption points probed by the
reload-soundness oracle.  Specs are plain frozen dataclasses with a
versioned JSON round-trip, so corpus entries survive engine changes, and
the shrinker can transform them structurally without touching builder
state.

Program bodies are trees of three node kinds:

* :class:`MemSpec` — the memory-access idiom shared with the Hypothesis
  strategies (an outer repetition loop around an inner strided
  load/add/store sweep over one array),
* :class:`LoopSpec` — a counted loop wrapping child nodes,
* :class:`BranchSpec` — an if/else diamond on the program's input flag.

Every program implicitly declares a one-word ``flag`` scalar and loads it
into register ``f`` at entry; scenarios ``flag0``/``flag1`` drive both
branch directions so traces cover every feasible path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from repro.cache.config import CacheConfig
from repro.errors import ConfigError

#: Bumped whenever the JSON encoding changes shape.
SPEC_VERSION = 1

Node = Union["MemSpec", "LoopSpec", "BranchSpec"]


@dataclass(frozen=True)
class MemSpec:
    """``reps`` outer iterations of a strided sweep over array ``array``.

    The inner loop runs ``count`` times touching ``array[i * stride]``;
    with ``store`` it writes the element back (exercising dirty lines
    under write-back geometries).
    """

    array: int
    count: int
    stride: int = 1
    store: bool = False
    reps: int = 1

    def to_json(self) -> list:
        return ["mem", self.array, self.count, self.stride, int(self.store), self.reps]


@dataclass(frozen=True)
class LoopSpec:
    """A counted loop executing ``body`` exactly ``bound`` times."""

    bound: int
    body: tuple[Node, ...]

    def to_json(self) -> list:
        return ["loop", self.bound, [child.to_json() for child in self.body]]


@dataclass(frozen=True)
class BranchSpec:
    """An if/else diamond on the input flag (``orelse`` may be empty)."""

    then: tuple[Node, ...]
    orelse: tuple[Node, ...] = ()

    def to_json(self) -> list:
        return [
            "branch",
            [child.to_json() for child in self.then],
            [child.to_json() for child in self.orelse],
        ]


def node_from_json(payload: list) -> Node:
    kind = payload[0]
    if kind == "mem":
        _, array, count, stride, store, reps = payload
        return MemSpec(
            array=array, count=count, stride=stride, store=bool(store), reps=reps
        )
    if kind == "loop":
        _, bound, body = payload
        return LoopSpec(bound=bound, body=tuple(node_from_json(c) for c in body))
    if kind == "branch":
        _, then, orelse = payload
        return BranchSpec(
            then=tuple(node_from_json(c) for c in then),
            orelse=tuple(node_from_json(c) for c in orelse),
        )
    raise ConfigError(f"unknown fuzz node kind {kind!r}")


@dataclass(frozen=True)
class ProgramSpec:
    """One task's program: array sizes (in words) plus a body tree."""

    arrays: tuple[int, ...]
    body: tuple[Node, ...]

    def to_json(self) -> dict:
        return {
            "arrays": list(self.arrays),
            "body": [node.to_json() for node in self.body],
        }

    @staticmethod
    def from_json(payload: dict) -> "ProgramSpec":
        return ProgramSpec(
            arrays=tuple(payload["arrays"]),
            body=tuple(node_from_json(node) for node in payload["body"]),
        )


@dataclass(frozen=True)
class TaskDef:
    """One task: a program plus timing knobs.

    ``period_mult`` scales the measured WCET into the period (period =
    WCET * period_mult), keeping generated systems schedulable-ish without
    knowing cycle counts up front.  ``jitter_pct`` is release jitter as a
    percentage of WCET (capped below the period by the builder).
    """

    program: ProgramSpec
    period_mult: int = 4
    jitter_pct: int = 0

    def to_json(self) -> dict:
        return {
            "program": self.program.to_json(),
            "period_mult": self.period_mult,
            "jitter_pct": self.jitter_pct,
        }

    @staticmethod
    def from_json(payload: dict) -> "TaskDef":
        return TaskDef(
            program=ProgramSpec.from_json(payload["program"]),
            period_mult=payload["period_mult"],
            jitter_pct=payload["jitter_pct"],
        )


@dataclass(frozen=True)
class CacheSpec:
    """Cache geometry, including the degenerate corners (1 set, 1 way)."""

    num_sets: int
    ways: int
    line_size: int
    miss_penalty: int = 20
    policy: str = "lru"
    write_back: bool = False

    def to_json(self) -> dict:
        return {
            "num_sets": self.num_sets,
            "ways": self.ways,
            "line_size": self.line_size,
            "miss_penalty": self.miss_penalty,
            "policy": self.policy,
            "write_back": self.write_back,
        }

    @staticmethod
    def from_json(payload: dict) -> "CacheSpec":
        spec = CacheSpec(**payload)
        spec.config()  # a bad geometry is a ConfigError at parse time
        return spec

    def config(self, miss_penalty: "int | None" = None) -> CacheConfig:
        """The validated :class:`CacheConfig` (a bad geometry is a
        :class:`ConfigError`); *miss_penalty* overrides the spec's."""
        return CacheConfig(
            num_sets=self.num_sets,
            ways=self.ways,
            line_size=self.line_size,
            miss_penalty=self.miss_penalty if miss_penalty is None else miss_penalty,
            policy=self.policy,
            write_back=self.write_back,
        )


@dataclass(frozen=True)
class SystemSpec:
    """A whole random system; the unit the generator draws and the
    shrinker minimizes."""

    cache: CacheSpec
    tasks: tuple[TaskDef, ...]
    context_switch: int = 0
    preempt_steps: tuple[int, ...] = (40,)
    stagger: bool = False

    def to_json(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "cache": self.cache.to_json(),
            "tasks": [task.to_json() for task in self.tasks],
            "context_switch": self.context_switch,
            "preempt_steps": list(self.preempt_steps),
            "stagger": self.stagger,
        }

    @staticmethod
    def from_json(payload: dict) -> "SystemSpec":
        version = payload.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"fuzz spec version {version} not supported (expected {SPEC_VERSION})"
            )
        try:
            return SystemSpec(
                cache=CacheSpec.from_json(payload["cache"]),
                tasks=tuple(TaskDef.from_json(task) for task in payload["tasks"]),
                context_switch=payload["context_switch"],
                preempt_steps=tuple(payload["preempt_steps"]),
                stagger=payload["stagger"],
            )
        except (KeyError, TypeError) as error:
            raise ConfigError(f"malformed spec: {error!r}") from error


# ----------------------------------------------------------------------
# Size metrics (the shrinker's strictly decreasing measure)
# ----------------------------------------------------------------------
def iter_nodes(body: tuple[Node, ...]) -> Iterator[Node]:
    """Depth-first iteration over a body tree."""
    for node in body:
        yield node
        if isinstance(node, LoopSpec):
            yield from iter_nodes(node.body)
        elif isinstance(node, BranchSpec):
            yield from iter_nodes(node.then)
            yield from iter_nodes(node.orelse)


def program_weight(program: ProgramSpec) -> int:
    """Structural size of one program (nodes + bounds + array words)."""
    weight = sum(program.arrays)
    for node in iter_nodes(program.body):
        weight += 4
        if isinstance(node, MemSpec):
            weight += node.count + node.reps + node.stride + (1 if node.store else 0)
        elif isinstance(node, LoopSpec):
            weight += node.bound
    return weight


def spec_weight(spec: SystemSpec) -> int:
    """Total structural size; every shrink transformation strictly
    decreases this, which is what guarantees termination."""
    weight = (
        spec.cache.num_sets
        + spec.cache.ways
        + spec.cache.line_size
        + spec.cache.miss_penalty // 4
        + spec.context_switch
        + len(spec.preempt_steps)
        + sum(spec.preempt_steps)
        + (1 if spec.stagger else 0)
        + (1 if spec.cache.write_back else 0)
        + (0 if spec.cache.policy == "lru" else 1)
    )
    for task in spec.tasks:
        weight += 16 + program_weight(task.program)
        weight += task.period_mult + task.jitter_pct
    return weight


def replace_task(spec: SystemSpec, index: int, task: TaskDef) -> SystemSpec:
    tasks = list(spec.tasks)
    tasks[index] = task
    return replace(spec, tasks=tuple(tasks))
