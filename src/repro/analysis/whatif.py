"""Incremental what-if re-analysis for interactive editing loops.

A :class:`WhatIfSession` holds one analysed system — a paper experiment
(``"exp1"``/``"exp2"``) or a fuzz :class:`~repro.fuzz.spec.SystemSpec` —
and re-analyses it after single-field edits (miss penalty, cache
geometry, one task's period, one task's array footprint) at interactive
latency.  The layout optimizer scores every candidate through a session.

The incremental machinery is the schema-3 content-addressed artifact
graph itself.  Every pipeline stage is keyed by exactly the inputs it
reads::

    trace(structure, scenarios, max_steps)
      -> sim(trace, placement, geometry)   # hit/miss counts
      -> flow(trace, placement, geometry)  # CIIP / RMB-LMB / useful blocks
    paths(structure, limit, strict)        # feasible path profiles
    pair(flow_a, paths_a, flow_b, paths_b, mode, exact_paths, strict)
    task(everything above + config)     # in-memory assembly memo

so the *reverse* dependency graph of an edit is computed by key diffing:
an edit invalidates precisely the sub-artifacts whose keys changed, and
every unchanged key is answered by the session's store — byte-identical
values and byte-identical replayed degradation events (the equivalence
suite pins this against cold sessions, >= 150 randomized cases).  The
per-edit invalidation/reuse counts are surfaced on the ``whatif.edit``
span and the ``whatif.invalidated.*`` / ``whatif.reused.*`` counters.
Eq. 7 is not part of the graph: every state runs its four fixpoints
cold, which takes a few rounds per task.

Edit impact over that graph:

==================  =====  ===  ====  =====  ====  ====
edit                trace  sim  flow  paths  pair  wcet
==================  =====  ===  ====  =====  ====  ====
``penalty=N``       keep   keep keep  keep   keep  redo
``geometry=SxWxL``  keep   redo redo  keep   redo  redo
``period:T=N``      keep   keep keep  keep   keep  keep
``array:T:J=W``     shift  ...  ...   T      T     T
``code:T=A``        keep   T    T     keep   T     T
``data:T=A``        keep   T    T     keep   T     T
``color:T:J=C``     keep   T    T     keep   T     T
``swap:T=U``        keep   T,U  T,U   keep   pairs both
==================  =====  ===  ====  =====  ====  ====

("shift": a footprint edit can move *other* tasks' layouts too — the
stagger stride depends on the largest program — so per-task key diffing,
not the edit's target, decides what actually recomputes.)

The layout edits (``code:``/``data:``/``color:``/``swap:``) are the
optimizer's neighbor moves: they pin explicit placements through a
:class:`~repro.program.layout.LayoutAssignment` and only invalidate the
moved task's sim/flow sub-artifacts: traces and path profiles are
placement-free, so a move reads the stored trace's block view instead
of re-running the VM.  Proposals that would overlap regions raise
:class:`~repro.program.layout.LayoutError` *before* any session state
changes, so a rejected move leaves the session untouched.

A batch of edits applied together must be conflict-free:
:func:`check_edit_conflicts` rejects two edits that write the same
target (two ``period:T1=`` edits, a ``swap:`` plus any placement edit of
a swapped task, ...) instead of silently letting the last one win.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

# analyze_task and compute_task_wcrt stay importable from this module:
# the traced benchmark run (perfbench/layers.py) patches them here.
from repro.analysis.artifacts import analyze_task  # noqa: F401
from repro.analysis.crpd import Approach
from repro.analysis.pipeline import (
    PipelineResult,
    PlacedSystem,
    resolve_base,
    resolve_system,
    run_pipeline,
)
from repro.analysis.store import ArtifactStore
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.obs import STATE as _OBS
from repro.wcrt.response_time import compute_task_wcrt  # noqa: F401

if TYPE_CHECKING:
    from repro.guard.budget import AnalysisBudget

#: Sub-artifact node classes reported by the invalidation counters.
GRAPH_NODES = ("trace", "sim", "flow", "paths", "task", "pair")


@dataclass(frozen=True)
class Edit:
    """One single-field edit of a what-if session's system.

    ``kind`` is one of ``"penalty"`` (new ``Cmiss``), ``"geometry"``
    (``(num_sets, ways, line_size)``), ``"period"`` (``task`` +
    cycles), ``"array"`` (``task`` + array ``index`` + new word
    count; fuzz-spec bases only), or a layout move: ``"code"`` /
    ``"data"`` (``task`` + new base address), ``"color"`` (``task`` +
    array ``index`` + page color) or ``"swap"`` (``task`` and ``value``
    name the two tasks whose regions trade places).
    """

    kind: str
    value: Union[int, tuple, str]
    task: "str | None" = None
    index: "int | None" = None

    def describe(self) -> str:
        if self.kind == "penalty":
            return f"penalty={self.value}"
        if self.kind == "geometry":
            sets, ways, line = self.value
            return f"geometry={sets}x{ways}x{line}"
        if self.kind == "period":
            return f"period:{self.task}={self.value}"
        if self.kind == "array":
            return f"array:{self.task}:{self.index}={self.value}"
        if self.kind in ("code", "data"):
            return f"{self.kind}:{self.task}={self.value:#x}"
        if self.kind == "color":
            return f"color:{self.task}:{self.index}={self.value}"
        if self.kind == "swap":
            return f"swap:{self.task}={self.value}"
        return f"{self.kind}={self.value!r}"


def parse_edit(text: str) -> Edit:
    """Parse the CLI edit grammar into an :class:`Edit`.

    ``penalty=N`` | ``geometry=SxWxL`` | ``period:TASK=N`` |
    ``array:TASK:INDEX=WORDS`` | ``code:TASK=ADDR`` | ``data:TASK=ADDR``
    | ``color:TASK:INDEX=COLOR`` | ``swap:TASK=TASK``
    """
    if "=" not in text:
        raise ConfigError(f"edit {text!r} is missing '=<value>'")
    head, _, raw = text.partition("=")
    head = head.strip()
    raw = raw.strip()
    if head == "penalty":
        return Edit(kind="penalty", value=_int(raw, text))
    if head == "geometry":
        parts = raw.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(
                f"edit {text!r}: geometry must be SETSxWAYSxLINE (e.g. 64x2x32)"
            )
        fields = ("num_sets", "ways", "line_size")
        values = []
        for name, part in zip(fields, parts):
            value = _int(part, text)
            if value < 1:
                raise ConfigError(
                    f"edit {text!r}: geometry {name} must be >= 1, got "
                    f"{value} (hex like 0x40 splits on its 'x'; write "
                    f"geometry fields in decimal)"
                )
            values.append(value)
        return Edit(kind="geometry", value=tuple(values))
    if head.startswith("period:"):
        task = head.split(":", 1)[1]
        if not task:
            raise ConfigError(f"edit {text!r}: missing task name")
        return Edit(kind="period", task=task, value=_int(raw, text))
    if head.startswith("array:"):
        parts = head.split(":")
        if len(parts) != 3 or not parts[1]:
            raise ConfigError(
                f"edit {text!r}: array edits are array:TASK:INDEX=WORDS"
            )
        return Edit(
            kind="array",
            task=parts[1],
            index=_int(parts[2], text),
            value=_int(raw, text),
        )
    if head.startswith("code:") or head.startswith("data:"):
        kind, task = head.split(":", 1)
        if not task:
            raise ConfigError(f"edit {text!r}: missing task name")
        return Edit(kind=kind, task=task, value=_int(raw, text))
    if head.startswith("color:"):
        parts = head.split(":")
        if len(parts) != 3 or not parts[1]:
            raise ConfigError(
                f"edit {text!r}: color edits are color:TASK:INDEX=COLOR"
            )
        return Edit(
            kind="color",
            task=parts[1],
            index=_int(parts[2], text),
            value=_int(raw, text),
        )
    if head.startswith("swap:"):
        task = head.split(":", 1)[1]
        if not task or not raw:
            raise ConfigError(f"edit {text!r}: swap edits are swap:TASK=TASK")
        return Edit(kind="swap", task=task, value=raw)
    raise ConfigError(
        f"unknown edit {text!r}; expected penalty=, geometry=, period:TASK=, "
        "array:TASK:INDEX=, code:TASK=, data:TASK=, color:TASK:INDEX= or "
        "swap:TASK="
    )


def _int(raw: str, context: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"edit {context!r}: {raw!r} is not an integer") from None


def edit_targets(edit: Edit) -> frozenset:
    """The (field, ...) targets *edit* writes, for conflict detection.

    A ``swap:`` writes both swapped tasks' ``code_base`` and
    ``data_base``, so it conflicts with any ``code:``/``data:`` edit (or
    other swap) touching either task.  It does not move pinned symbols,
    so ``color:`` edits of the swapped tasks are compatible.
    """
    if edit.kind == "penalty":
        return frozenset({("penalty",)})
    if edit.kind == "geometry":
        return frozenset({("geometry",)})
    if edit.kind == "period":
        return frozenset({("period", edit.task)})
    if edit.kind == "array":
        return frozenset({("array", edit.task, edit.index)})
    if edit.kind in ("code", "data"):
        return frozenset({(f"{edit.kind}_base", edit.task)})
    if edit.kind == "color":
        return frozenset({("symbol", edit.task, edit.index)})
    if edit.kind == "swap":
        targets = set()
        for task in (edit.task, edit.value):
            targets.update({("code_base", task), ("data_base", task)})
        return frozenset(targets)
    return frozenset({(edit.kind,)})


def _edits_conflict(a: Edit, b: Edit) -> bool:
    return bool(edit_targets(a) & edit_targets(b))


def check_edit_conflicts(edits) -> None:
    """Reject a batch where two edits write the same target.

    Without this check the last edit silently wins (two ``period:T1=``
    edits, say) — almost always a typo in an interactive loop and always
    ambiguous in a scripted one.  Raises :class:`ConfigError` naming the
    conflicting pair.
    """
    edits = list(edits)
    for i, first in enumerate(edits):
        for second in edits[i + 1 :]:
            if _edits_conflict(first, second):
                raise ConfigError(
                    f"conflicting edits in one batch: "
                    f"{first.describe()!r} and {second.describe()!r} write "
                    "the same target; apply them in separate batches if "
                    "the override is intended"
                )


@dataclass
class WhatIfResult:
    """One fully re-analysed state of a what-if session: its result
    :attr:`payload`, the typed ``config`` and ``events`` callers re-enter
    or print, and the edit's telemetry."""

    label: str
    config: CacheConfig
    payload: dict
    events: tuple
    elapsed_seconds: float = 0.0
    invalidated: dict = field(default_factory=dict)
    reused: dict = field(default_factory=dict)
    # Every state runs Eq. 7 cold; the traced benchmark run
    # (perfbench/layers.py) still reads this count.
    warm_started = 0

    @property
    def periods(self) -> dict:
        return self.payload["periods"]

    def schedulable(self, approach: Approach) -> bool:
        return self.payload["schedulable"][str(Approach(approach).value)]

    def signature(self) -> str:
        """Canonical JSON of every analysis *result* this state carries.

        Excludes timing, invalidation counters and iteration histories —
        everything an incremental recompute is allowed to differ in.  The
        equivalence suite asserts byte-identity of this string against a
        cold session's.
        """
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> dict:
        return {
            **self.payload,
            "label": self.label,
            "elapsed_seconds": self.elapsed_seconds,
            "invalidated": dict(self.invalidated),
            "reused": dict(self.reused),
        }


class WhatIfSession:
    """An editable, incrementally re-analysed system.

    Every state runs :func:`~repro.analysis.pipeline.run_pipeline` over
    the session's store; the session itself only key-diffs the result
    against the previous state.

    Args:
        base: ``"exp1"``/``"exp2"``, an
            :class:`~repro.experiments.setup.ExperimentSpec`, or a fuzz
            :class:`~repro.fuzz.spec.SystemSpec`.
        miss_penalty: initial ``Cmiss`` (experiments default to 20, fuzz
            specs to their own cache's penalty).
        cache: full initial :class:`CacheConfig` override.
        period_overrides: task name -> period in cycles, replacing the
            base's period (or the fuzz ``period_mult`` formula).
        budget: optional guarded-analysis budget, shared by every state.
        store: the session's artifact store.  Defaults to a private
            in-memory store sized for interactive editing; pass a disk
            store to share sub-artifacts with sweeps and the CLI.
    """

    def __init__(
        self,
        base,
        *,
        miss_penalty: "int | None" = None,
        cache: "CacheConfig | None" = None,
        period_overrides: "dict | None" = None,
        budget: "AnalysisBudget | None" = None,
        store: "ArtifactStore | None" = None,
    ):
        self._base = resolve_base(base)
        self.budget = budget
        self._store = store if store is not None else ArtifactStore(
            directory=None, memory_slots=1024
        )
        self._assignment = None
        self._placed = resolve_system(
            self._base,
            cache=cache,
            miss_penalty=miss_penalty,
            period_overrides=period_overrides,
        )
        # Previous-state snapshots driving invalidation accounting.
        self._prev_subkeys: dict = {}
        self._prev_artifacts: dict = {}
        self._prev_pair_keys: dict = {}
        self._last: "WhatIfResult | None" = None
        self._pipeline: "PipelineResult | None" = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WhatIfSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release; kept so sessions work as context managers."""

    # -- structure -----------------------------------------------------
    @property
    def placed(self) -> PlacedSystem:
        """The current placed system (tasks, layouts, cache, periods)."""
        return self._placed

    def layout_assignment(self):
        """The current placement as a hashable
        :class:`~repro.program.layout.LayoutAssignment`."""
        from repro.program.layout import assignment_of

        return assignment_of(self._placed.layouts())

    def set_assignment(self, assignment, label: "str | None" = None) -> WhatIfResult:
        """Jump the session's layout to *assignment* and re-analyse.

        The optimizer's bulk entry: rather than expressing a candidate as
        a chain of single-field layout edits, jump straight to its
        placement.  Overlapping assignments raise
        :class:`~repro.program.layout.LayoutError` before any session
        state changes.  Incremental reuse still applies — only tasks
        whose placement actually differs recompute their sim/flow
        sub-artifacts, from their stored traces' block views.
        """
        self._set_assignment(assignment)
        return self._run_state(label or "assignment")

    def _set_assignment(self, assignment) -> None:
        # Validate (and build) before mutating: a LayoutError here must
        # leave the session exactly as it was.
        self._placed = self._placed.with_assignment(assignment)
        self._assignment = assignment

    # -- edits ---------------------------------------------------------
    def apply(self, edit: "Edit | str") -> WhatIfResult:
        """Apply one edit and return the fully re-analysed state."""
        if isinstance(edit, str):
            edit = parse_edit(edit)
        self._apply_edit(edit)
        return self._run_state(edit.describe())

    def apply_all(self, edits) -> "list[WhatIfResult]":
        """Apply a batch of edits, rejecting conflicting pairs up front.

        Raises :class:`~repro.errors.ConfigError` (before any edit runs)
        if two edits in the batch write the same target — see
        :func:`check_edit_conflicts`.
        """
        parsed = [
            parse_edit(edit) if isinstance(edit, str) else edit for edit in edits
        ]
        check_edit_conflicts(parsed)
        return [self.apply(edit) for edit in parsed]

    def result(self) -> WhatIfResult:
        """The current state, analysing the base on first call."""
        if self._last is None:
            return self._run_state("base")
        return self._last

    def _apply_edit(self, edit: Edit) -> None:
        from dataclasses import replace

        placed = self._placed
        if edit.kind == "penalty":
            if edit.value < 0:
                raise ConfigError(f"miss penalty must be >= 0, got {edit.value}")
            config = replace(placed.config, miss_penalty=edit.value)
            self._placed = replace(placed, config=config)
            return
        if edit.kind == "geometry":
            sets, ways, line = edit.value
            config = replace(
                placed.config, num_sets=sets, ways=ways, line_size=line
            )
            self._placed = replace(placed, config=config)
            return
        if edit.kind == "period":
            self._check_task(edit.task)
            if edit.value < 1:
                raise ConfigError(f"period must be >= 1, got {edit.value}")
            self._placed = placed.with_periods({edit.task: edit.value})
            return
        if edit.kind == "array":
            from repro.fuzz.spec import SystemSpec, replace_task

            if not isinstance(self._base, SystemSpec):
                raise ConfigError(
                    "array edits need a fuzz SystemSpec base (experiment "
                    "workloads have fixed programs)"
                )
            self._check_task(edit.task)
            index = placed.order.index(edit.task)
            task_def = self._base.tasks[index]
            arrays = list(task_def.program.arrays)
            if not 0 <= edit.index < len(arrays):
                raise ConfigError(
                    f"task {edit.task!r} has arrays 0..{len(arrays) - 1}, "
                    f"got index {edit.index}"
                )
            if edit.value < 1:
                raise ConfigError(f"array words must be >= 1, got {edit.value}")
            arrays[edit.index] = edit.value
            program = replace(task_def.program, arrays=tuple(arrays))
            self._base = replace_task(
                self._base, index, replace(task_def, program=program)
            )
            # A footprint edit can move *other* tasks too (the stagger
            # stride depends on the largest program): re-resolve.
            self._placed = resolve_system(
                self._base,
                cache=placed.config,
                period_overrides={
                    task.name: task.period
                    for task in placed.tasks
                    if task.period is not None
                },
                assignment=self._assignment,
            )
            return
        if edit.kind in ("code", "data", "color", "swap"):
            self._apply_layout_edit(edit)
            return
        raise ConfigError(f"unknown edit kind {edit.kind!r}")

    def _apply_layout_edit(self, edit: Edit) -> None:
        from dataclasses import replace

        self._check_task(edit.task)
        assignment = self.layout_assignment()
        placement = assignment.placement(edit.task)
        if edit.kind in ("code", "data"):
            if edit.value < 0:
                raise ConfigError(
                    f"{edit.kind} base must be non-negative, got {edit.value}"
                )
            candidate = assignment.replace(
                replace(placement, **{f"{edit.kind}_base": edit.value})
            )
        elif edit.kind == "color":
            program = self._placed.layouts()[edit.task].program
            names = list(program.arrays)
            if not 0 <= edit.index < len(names):
                raise ConfigError(
                    f"task {edit.task!r} has arrays 0..{len(names) - 1}, "
                    f"got index {edit.index}"
                )
            colors = self._placed.config.page_colors
            if not 0 <= edit.value < colors:
                raise ConfigError(
                    f"color must be in 0..{colors - 1} for this geometry, "
                    f"got {edit.value}"
                )
            base = self._color_base(edit.value)
            symbols = dict(placement.symbols)
            symbols[names[edit.index]] = base
            candidate = assignment.replace(
                replace(placement, symbols=tuple(sorted(symbols.items())))
            )
        else:  # swap
            other_name = edit.value
            self._check_task(other_name)
            if other_name == edit.task:
                raise ConfigError(f"cannot swap task {edit.task!r} with itself")
            other = assignment.placement(other_name)
            # Trade region origins only: pinned symbols name arrays of
            # their own program, so they stay with their task.
            candidate = assignment.replace(
                replace(
                    placement,
                    code_base=other.code_base,
                    data_base=other.data_base,
                )
            ).replace(
                replace(
                    other,
                    code_base=placement.code_base,
                    data_base=placement.data_base,
                )
            )
        self._set_assignment(candidate)

    def _check_task(self, name: str) -> None:
        if name not in self._placed.order:
            raise ConfigError(
                f"unknown task {name!r}; tasks are {list(self._placed.order)}"
            )

    def _color_base(self, color: int) -> int:
        """A concrete address in *color*'s band, in fresh space.

        The band is computed against the *current* geometry; the pinned
        address is absolute, so a later geometry edit reinterprets (but
        never moves) it — exactly how a linker-placed symbol behaves.
        """
        top = 0
        for task in self._placed.tasks:
            for _, hi, _ in task.layout.intervals():
                top = max(top, hi)
        config = self._placed.config
        span = config.index_span
        aligned = (top + span - 1) // span * span
        return aligned + color * config.color_bytes

    # -- analysis ------------------------------------------------------
    def _run_state(self, label: str) -> WhatIfResult:
        started = time.perf_counter()
        invalidated = {node: 0 for node in GRAPH_NODES}
        reused = {node: 0 for node in GRAPH_NODES}
        with _OBS.tracer.span("whatif.edit", edit=label) as span:
            pipeline = run_pipeline(
                self._placed, budget=self.budget, store=self._store
            )
            # The payload estimates every pair before Eq. 7 runs, so the
            # ledger lists pair events ahead of fixpoint events.
            payload = pipeline.payload()
            self._diff_artifacts(pipeline, invalidated, reused)
            # The sensitivity helpers (critical scaling factor, breakdown
            # miss penalty) and the optimizer's breakdown objective
            # re-score the *current* state through this result.
            self._pipeline = pipeline
            elapsed = time.perf_counter() - started
            span.set(
                elapsed_ms=round(elapsed * 1e3, 3),
                **{f"invalidated_{k}": v for k, v in invalidated.items()},
            )
            if _OBS.enabled:
                metrics = _OBS.metrics
                metrics.counter("whatif.edits").inc()
                for node in GRAPH_NODES:
                    if invalidated[node]:
                        metrics.counter(f"whatif.invalidated.{node}").inc(
                            invalidated[node]
                        )
                    if reused[node]:
                        metrics.counter(f"whatif.reused.{node}").inc(reused[node])
        result = WhatIfResult(
            label=label,
            config=self._placed.config,
            payload=payload,
            events=tuple(pipeline.ledger.events),
            elapsed_seconds=elapsed,
            invalidated=invalidated,
            reused=reused,
        )
        self._last = result
        return result

    def _diff_artifacts(
        self, pipeline: "PipelineResult", invalidated: dict, reused: dict
    ) -> None:
        """Key-diff the new state's sub-artifacts against the previous one."""
        artifacts = pipeline.artifacts
        order = pipeline.placed.order
        new_subkeys = {}
        for name in order:
            new = dict(artifacts[name].subkeys or {})
            old = self._prev_subkeys.get(name, {})
            new_subkeys[name] = new
            for stage in ("trace", "sim", "flow", "paths"):
                if new.get(stage) is not None and new.get(stage) == old.get(stage):
                    reused[stage] += 1
                else:
                    invalidated[stage] += 1
            if artifacts[name] is self._prev_artifacts.get(name):
                reused["task"] += 1
            else:
                invalidated["task"] += 1
        new_pair_keys = {}
        for low_index, preempted in enumerate(order):
            for preempting in order[:low_index]:
                key = pipeline.crpd._pair_store_key(preempted, preempting)
                new_pair_keys[(preempted, preempting)] = key
                if key is not None and key == self._prev_pair_keys.get(
                    (preempted, preempting)
                ):
                    reused["pair"] += 1
                else:
                    invalidated["pair"] += 1
        self._prev_subkeys = new_subkeys
        self._prev_artifacts = dict(artifacts)
        self._prev_pair_keys = new_pair_keys
