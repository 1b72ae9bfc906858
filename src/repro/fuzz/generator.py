"""Seeded draw functions producing :class:`SystemSpec` cases.

One generator serves two masters:

* the campaign runner, through :class:`RandomDraw` (a thin adapter over
  :class:`random.Random`, whose string seeding is stable across platforms
  and Python builds), and
* the Hypothesis property tests, through an adapter implementing the same
  three-method :class:`Draw` protocol with ``st.integers`` /
  ``st.sampled_from`` / ``st.booleans`` — see
  ``tests/test_soundness_properties.py``.

Because both paths run the *same* ``draw_*`` functions, the property
tests and the campaign explore the same case space by construction — the
drift the satellite task warns about can't happen.

The reproducibility contract: ``case_from_seed(master_seed, index)`` is a
pure function of its two arguments.  Shard ``i/n`` of a campaign owns the
indices ``i, i + n, i + 2n, ...`` of the same stream, so re-running any
shard, or replaying any single index, regenerates bit-identical specs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, TypeVar

from repro.fuzz.spec import (
    BranchSpec,
    CacheSpec,
    LoopSpec,
    MemSpec,
    Node,
    ProgramSpec,
    SystemSpec,
    TaskDef,
)

if TYPE_CHECKING:
    from repro.program.layout import ProgramLayout

T = TypeVar("T")

#: Array sizes in words — small enough that analysis stays fast, large
#: enough that footprints span multiple lines and sets.
ARRAY_WORDS = (8, 16, 24, 32)

#: Cache geometries sweep the degenerate corners deliberately: a single
#: set (fully associative behaviour per index), a single way (direct
#: mapped), and a 4-byte line (one word per block).
CACHE_SETS = (1, 2, 4, 8, 16, 32, 64)
CACHE_WAYS = (1, 2, 4)
CACHE_LINES = (4, 8, 16, 32)
MISS_PENALTIES = (5, 10, 20, 40)
POLICIES = ("lru", "lru", "lru", "fifo", "plru")
CONTEXT_SWITCHES = (0, 0, 1, 7, 23)


class Draw(Protocol):
    """The three primitives every draw function is written against."""

    def integer(self, low: int, high: int) -> int:
        """An integer in the inclusive range [low, high]."""
        ...

    def choice(self, options: Sequence[T]) -> T:
        """One element of *options*."""
        ...

    def boolean(self) -> bool:
        ...


class RandomDraw:
    """:class:`Draw` backed by :class:`random.Random` (campaign side)."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def integer(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        return options[self._rng.randrange(len(options))]

    def boolean(self) -> bool:
        return self._rng.random() < 0.5


def draw_mem(d: Draw, arrays: Sequence[int]) -> MemSpec:
    """The shared memory-access idiom: ``reps`` outer iterations of a
    strided load/add/(store) sweep — the Hypothesis ``emit_loop``."""
    index = d.integer(0, len(arrays) - 1)
    stride = d.choice((1, 2))
    return MemSpec(
        array=index,
        count=arrays[index] // stride,
        stride=stride,
        store=d.boolean(),
        reps=d.integer(1, 3),
    )


def draw_body(
    d: Draw, arrays: Sequence[int], depth: int = 0, max_branches: int = 2
) -> tuple[Node, ...]:
    """A body tree: always at least one memory sweep, optionally wrapped
    in counted loops and split by flag branches.  Branch count is capped
    so path enumeration stays trivially cheap (<= 2**max_branches paths).
    """
    nodes: list[Node] = [draw_mem(d, arrays)]
    branches_left = max_branches
    if branches_left > 0 and d.boolean():
        branches_left -= 1
        orelse: tuple[Node, ...] = ()
        if d.boolean():
            orelse = (draw_mem(d, arrays),)
        nodes.append(BranchSpec(then=(draw_mem(d, arrays),), orelse=orelse))
    if depth == 0 and d.boolean():
        nodes.append(draw_mem(d, arrays))
    if depth == 0 and d.boolean():
        # A general counted loop (possibly bound 0: a dead region) around
        # a nested body — shapes the plain idiom can't produce.
        bound = d.choice((0, 1, 2, 3))
        nodes.append(
            LoopSpec(bound=bound, body=draw_body(d, arrays, depth + 1, branches_left))
        )
    return tuple(nodes)


def draw_program_spec(d: Draw) -> ProgramSpec:
    arrays = tuple(
        d.choice(ARRAY_WORDS) for _ in range(d.integer(1, 3))
    )
    return ProgramSpec(arrays=arrays, body=draw_body(d, arrays))


def draw_task_def(d: Draw) -> TaskDef:
    return TaskDef(
        program=draw_program_spec(d),
        period_mult=d.integer(3, 10),
        jitter_pct=d.choice((0, 0, 5, 20, 45)),
    )


def draw_cache_spec(d: Draw) -> CacheSpec:
    ways = d.choice(CACHE_WAYS)
    policy = d.choice(POLICIES)
    return CacheSpec(
        num_sets=d.choice(CACHE_SETS),
        ways=ways,
        line_size=d.choice(CACHE_LINES),
        miss_penalty=d.choice(MISS_PENALTIES),
        policy=policy,
        write_back=d.boolean(),
    )


def draw_case(d: Draw) -> SystemSpec:
    """One whole system: cache + 2-3 tasks + probe points."""
    task_count = d.choice((2, 2, 2, 3))
    preempt_steps = tuple(
        d.integer(1, 400) for _ in range(d.integer(1, 3))
    )
    return SystemSpec(
        cache=draw_cache_spec(d),
        tasks=tuple(draw_task_def(d) for _ in range(task_count)),
        context_switch=d.choice(CONTEXT_SWITCHES),
        preempt_steps=preempt_steps,
        stagger=d.boolean(),
    )


#: The layout-edit kinds :func:`draw_layout_move` draws.
LAYOUT_MOVES = ("code", "data", "color", "swap")


def draw_layout_move(
    d: Draw, layouts: "Mapping[str, ProgramLayout]", page_colors: int
) -> str:
    """One ``code:``/``data:``/``color:``/``swap:`` what-if edit against the
    placement *layouts*, aimed at address space no task occupies (a swap
    of differently sized tasks may still overlap and be rejected)."""
    names = list(layouts)
    task = d.choice(names)
    kind = d.choice(LAYOUT_MOVES)
    if kind == "swap" and len(names) > 1:
        return f"swap:{task}={d.choice([name for name in names if name != task])}"
    arrays = layouts[task].program.arrays
    if kind == "color" and arrays:
        index = d.integer(0, len(arrays) - 1)
        return f"color:{task}:{index}={d.integer(0, page_colors - 1)}"
    top = max(
        hi for layout in layouts.values() for _, hi, _ in layout.intervals()
    )
    base = -(-top // 0x100) * 0x100 + 4 * d.integer(0, 63)
    return f"{'data' if kind == 'data' else 'code'}:{task}={base}"


def rng_for(master_seed: int, index: int) -> random.Random:
    """The deterministic per-case stream.  String seeding hashes via
    SHA-512 inside CPython, so the stream is identical on every platform
    regardless of ``PYTHONHASHSEED``."""
    return random.Random(f"repro-fuzz:{master_seed}:{index}")


def case_from_seed(master_seed: int, index: int) -> SystemSpec:
    """Pure function (master_seed, index) -> spec; the campaign's unit."""
    return draw_case(RandomDraw(rng_for(master_seed, index)))
