"""Seeded input generation for every workload.

One ``--seed`` drives everything: generated task systems, the edit
stream and the serve request mix.  The
program under measurement only ever receives the products — a
``SystemSpec``, an edit string or a request body.

Each stream is a ``random.Random`` seeded with a string (stable across
platforms and ``PYTHONHASHSEED``), and task programs come from the fuzz
generator's ``case_from_seed(seed, index)``.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.fuzz.generator import case_from_seed
from repro.fuzz.spec import CacheSpec, SystemSpec, program_weight

#: Fixed LRU geometries the generated systems cycle through.  The fuzz
#: generator's own cache draw spans 1-set/FIFO/PLRU corners whose cost
#: differs by an order of magnitude; fixing the family keeps one round's
#: cost comparable between seeds while still varying the geometry.
SYSTEM_CACHES = ((16, 2, 16), (32, 1, 32), (8, 4, 8), (64, 2, 16))

#: Accepted structural weight of a generated task (``program_weight``;
#: the middle half of the fuzz generator's draws).
TASK_WEIGHT = (90, 160)

#: Generated system sizes (tasks); every cold round holds each size once.
SYSTEM_SIZES = tuple(range(2, 17))

#: Total WCET utilisation band of the cold systems (CRPD comes on top,
#: so the upper part is overloaded, as design exploration produces).
COLD_UTILISATION = (0.5, 1.2)

#: Utilisation of the wide, overloaded system serve sends once after its
#: measured loop.  Above ~2 the diverged Eq. 7 window outgrows a float
#: within the 1000-iteration cap.
OVERLOAD_UTILISATION = 2.8

#: The four geometries the edit stream visits (the first is the
#: experiments' default 8KB cache, so a visit back is a revisit).
EDIT_GEOMETRIES = ("256x2x16", "64x2x32", "128x2x16", "128x4x16")
EDIT_PENALTIES = (10, 15, 20, 25, 30, 35, 40)
PERIOD_FACTORS = (0.8, 0.9, 1.0, 1.1, 1.25, 1.5)

#: The serve mix's warm point requests: experiment x penalty x geometry.
POINT_PENALTIES = (10, 20, 30, 40)
POINT_GEOMETRIES = (None, (64, 2, 32), (128, 2, 16))
REPEATED_SPECS = 12
#: Request kinds of one block of the serve request stream.
REQUEST_DECK = ("point",) * 14 + ("repeat",) * 3 + ("fresh",) * 3
WIDE_TASKS = 6


def rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{stream}:{seed}")


def generated_system(
    seed: int, index: int, size: int, utilisation: float
) -> SystemSpec:
    """A *size*-task system whose programs are fuzz draws.

    Tasks are taken in order from ``case_from_seed(seed, index * 256 + k)``
    for k = 0, 1, ..., keeping those whose structural weight lies in
    :data:`TASK_WEIGHT` so a system's cost depends on its size and load
    rather than on a lucky draw.  Every task gets the same period
    multiplier, chosen so the WCET utilisation is *utilisation*.
    """
    low, high = TASK_WEIGHT
    tasks = []
    k = 0
    while len(tasks) < size:
        tasks.extend(
            task for task in case_from_seed(seed, index * 256 + k).tasks
            if low <= program_weight(task.program) <= high
        )
        k += 1
    first = case_from_seed(seed, index * 256)
    mult = max(1, round(size / utilisation))
    sets, ways, line = SYSTEM_CACHES[index % len(SYSTEM_CACHES)]
    return SystemSpec(
        cache=CacheSpec(num_sets=sets, ways=ways, line_size=line, miss_penalty=20),
        tasks=tuple(replace(task, period_mult=mult) for task in tasks[:size]),
        context_switch=first.context_switch,
        preempt_steps=first.preempt_steps,
        stagger=first.stagger,
    )


def cold_round(seed: int, round_index: int) -> list:
    """One cold round: one generated system of every size in
    :data:`SYSTEM_SIZES` in a seeded order, with the paper experiments
    (analysed together) first.

    Returns ``("paper", None)`` / ``("system", spec)`` items.  Sizes come
    in a seeded order and utilisations are stratified over
    :data:`COLD_UTILISATION`, so every round carries the same mix.
    """
    r = rng(seed, f"cold:{round_index}")
    sizes = list(SYSTEM_SIZES)
    r.shuffle(sizes)
    count = len(SYSTEM_SIZES)
    low, high = COLD_UTILISATION
    items: list = []
    for size in sizes:
        # Size i gets utilisation stratum (i + 7 * round) mod 15 and cache
        # geometry (15 * round + i) mod 4: every seed pairs sizes with the
        # same load band and geometry in the same round.
        index = round_index * count + SYSTEM_SIZES.index(size)
        stratum = (SYSTEM_SIZES.index(size) + 7 * round_index) % count
        utilisation = low + (high - low) * (stratum + r.random()) / count
        items.append(("system", generated_system(seed, index, size, utilisation)))
    items.insert(0, ("paper", None))
    return items


#: Edit kinds of one block of the edit stream per session, besides one
#: layout move per (move, task) pair: 14 ``penalty=``, 14 ``period:`` and
#: 8 ``geometry=`` (two visits to each of :data:`EDIT_GEOMETRIES`).  With
#: a 3-task experiment that is 48 edits: 58% parameter edits, 17%
#: geometry edits and 25% layout moves.
EDIT_KINDS = ("penalty",) * 14 + ("period",) * 14 + ("geometry",) * 8
LAYOUT_MOVES = ("swap", "color", "code", "data")


class EditStream:
    """The seeded edit stream over the two warm sessions.

    Sessions alternate.  Each session deals its edits from shuffled
    blocks of :data:`EDIT_KINDS` plus one layout move per (move, task)
    pair, so a whole block carries the same mix for every seed: the same
    number of edits of each kind, every geometry visited twice and every
    task moved once by every kind of move.  Geometry edits cycle through
    :data:`EDIT_GEOMETRIES`; by the time a geometry comes back, layout
    moves have usually touched every task.  Layout moves are drawn
    against the session's current ``layout_assignment()`` so every one is
    valid: ``code:`` and ``data:`` moves go to fresh address space above
    every region, and a ``swap:`` whose regions would overlap becomes a
    ``code:`` move.
    """

    def __init__(self, seed: int, experiments: dict):
        self._rng = rng(seed, "edit")
        #: key -> (ExperimentSpec, {task: Program})
        self._experiments = experiments
        self._keys = sorted(experiments)
        self._count = 0
        self._decks: dict = {key: [] for key in experiments}
        self._geometry = {key: 0 for key in experiments}

    def block_size(self) -> int:
        """Edits in one block of every session."""
        return sum(
            len(EDIT_KINDS) + len(LAYOUT_MOVES) * len(spec.priority_order)
            for spec, _ in self._experiments.values()
        )

    def next(self, sessions: dict) -> tuple[str, str, str]:
        """``(session key, kind, edit string)``; kind is ``param``,
        ``geometry`` or ``layout``."""
        r = self._rng
        key = self._keys[self._count % len(self._keys)]
        self._count += 1
        spec, programs = self._experiments[key]
        tasks = list(spec.priority_order)
        deck = self._decks[key]
        if not deck:
            deck.extend(EDIT_KINDS)
            deck.extend((move, task) for move in LAYOUT_MOVES for task in tasks)
            r.shuffle(deck)
        card = deck.pop()
        if card == "penalty":
            return key, "param", f"penalty={r.choice(EDIT_PENALTIES)}"
        if card == "period":
            task = r.choice(tasks)
            period = int(spec.periods[task] * r.choice(PERIOD_FACTORS))
            return key, "param", f"period:{task}={period}"
        if card == "geometry":
            self._geometry[key] = (self._geometry[key] + 1) % len(EDIT_GEOMETRIES)
            return key, "geometry", f"geometry={EDIT_GEOMETRIES[self._geometry[key]]}"
        move, task = card
        return key, "layout", self._layout_edit(
            r, move, task, tasks, programs, sessions[key]
        )

    def _layout_edit(self, r, move, task, tasks, programs, session) -> str:
        from repro.program.layout import LayoutError, apply_assignment

        assignment = session.layout_assignment()
        if move == "swap":
            other = r.choice([name for name in tasks if name != task])
            a, b = assignment.placement(task), assignment.placement(other)
            candidate = assignment.replace(
                replace(a, code_base=b.code_base, data_base=b.data_base)
            ).replace(replace(b, code_base=a.code_base, data_base=a.data_base))
            try:
                apply_assignment(programs, candidate)
                return f"swap:{task}={other}"
            except LayoutError:
                move = "code"
        if move == "color":
            arrays = len(programs[task].arrays)
            colors = session.result().config.page_colors
            return f"color:{task}:{r.randrange(arrays)}={r.randrange(colors)}"
        top = 0
        for layout in apply_assignment(programs, assignment).values():
            for _, hi, _ in layout.intervals():
                top = max(top, hi)
        base = -(-top // 0x100) * 0x100 + 32 * r.randrange(128)
        return f"{move}:{task}={base:#x}"


def point_bodies() -> list[dict]:
    """The serve mix's point requests (all pre-warmed in set-up)."""
    bodies = []
    for experiment in ("exp1", "exp2"):
        for geometry in POINT_GEOMETRIES:
            for penalty in POINT_PENALTIES:
                body = {"kind": "point", "experiment": experiment,
                        "miss_penalty": penalty}
                if geometry is not None:
                    body["geometry"] = list(geometry)
                bodies.append(body)
    return bodies


def small_system(seed: int, index: int) -> SystemSpec:
    """A 2-task system at WCET utilisation 0.4-0.8 (fresh and repeated
    spec requests): the size of a typical fuzz case, without the
    overloaded draws whose diverging fixpoints would make the mix's cost
    depend on the seed."""
    r = rng(seed, f"small:{index}")
    return generated_system(seed, index, 2, r.uniform(0.4, 0.8))


def repeated_specs(seed: int) -> list[SystemSpec]:
    """Small systems the serve mix sends again and again."""
    return [small_system(seed, 900_000 + k) for k in range(REPEATED_SPECS)]


def fresh_spec(seed: int, index: int) -> SystemSpec:
    """The *index*-th fresh spec request: a small system."""
    return small_system(seed, 1_000_000 + index)


def overload_spec(seed: int) -> SystemSpec:
    """A wide overloaded system of :data:`WIDE_TASKS` tasks whose Eq. 7
    fixpoint diverges (see ``Serve.known_defect``)."""
    return generated_system(seed, 500_000, WIDE_TASKS, OVERLOAD_UTILISATION)


def requests(seed: int):
    """The serve client's endless request stream of ``(kind, index)``.

    Kinds come from shuffled copies of :data:`REQUEST_DECK`: 14 ``point``
    (an index into :func:`point_bodies`), 3 ``repeat`` (an index into
    :func:`repeated_specs`) and 3 ``fresh`` (the next fresh-spec index),
    so every seed sends the same mix.
    """
    r = rng(seed, "serve")
    points = len(point_bodies())
    fresh = 0
    while True:
        deck = list(REQUEST_DECK)
        r.shuffle(deck)
        for kind in deck:
            if kind == "point":
                yield kind, r.randrange(points)
            elif kind == "repeat":
                yield kind, r.randrange(REPEATED_SPECS)
            else:
                yield kind, fresh
                fresh += 1
