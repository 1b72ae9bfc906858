"""The one analysis pipeline every front door runs: placed tasks -> WCRT.

The paper's chain per task set — traces -> CIIP / useful blocks
(Eqs. 1-3) -> per-path CRPD (Eq. 4) -> ``Cpre`` (Eq. 5) -> the WCRT
fixpoint (Eq. 7) — is wired here and nowhere else.
:func:`resolve_system` turns a base (a paper experiment or a fuzz
:class:`~repro.fuzz.spec.SystemSpec`) plus a cache, period overrides and
an optional layout assignment into a :class:`PlacedSystem`;
:func:`run_pipeline` analyses that into a :class:`PipelineResult`.
``build_context``, ``analyze_batch``, ``WhatIfSession`` and
``build_case`` are thin layers over these two functions, so every front
door reports the same lines, WCRTs and soundness for the same system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis import artifacts as _artifacts
from repro.analysis.crpd import Approach, CRPDAnalyzer, PreemptionEstimate
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.guard.ledger import DegradationLedger
from repro.obs import STATE as _OBS
from repro.wcrt.response_time import SystemWCRT, compute_system_wcrt
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.analysis.artifacts import TaskArtifacts
    from repro.analysis.store import ArtifactStore
    from repro.analysis.wcet import Scenarios
    from repro.batch.pool import WarmPool
    from repro.guard.budget import AnalysisBudget
    from repro.program.layout import LayoutAssignment, ProgramLayout
    from repro.sched.simulator import TaskBinding


@dataclass(frozen=True)
class PlacedTask:
    """One placed task and the rule that turns its WCET into a task spec.

    ``period`` is fixed in cycles; when ``None`` it derives from the
    measured WCET as ``max(wcet * period_mult, wcet + 1)``.  Release
    jitter is ``jitter_pct`` percent of the WCET, capped at the slack.
    """

    name: str
    layout: "ProgramLayout"
    scenarios: "Scenarios"
    priority: int
    period: "int | None" = None
    period_mult: int = 1
    jitter_pct: int = 0

    def task_spec(self, wcet: int) -> TaskSpec:
        period = self.period
        if period is None:
            period = max(wcet * self.period_mult, wcet + 1)
        jitter = min(wcet * self.jitter_pct // 100, max(period - wcet, 0))
        return TaskSpec(
            name=self.name,
            wcet=wcet,
            period=period,
            priority=self.priority,
            jitter=jitter,
        )


@dataclass(frozen=True)
class PlacedSystem:
    """Placed tasks (highest priority first) on one cache configuration."""

    tasks: tuple[PlacedTask, ...]
    config: CacheConfig
    mumbs_mode: str
    context_switch: int

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(task.name for task in self.tasks)

    def layouts(self) -> "dict[str, ProgramLayout]":
        return {task.name: task.layout for task in self.tasks}

    def with_periods(self, periods: dict) -> "PlacedSystem":
        """Fix the period of every task named in *periods*."""
        return replace(
            self,
            tasks=tuple(
                replace(task, period=periods.get(task.name, task.period))
                for task in self.tasks
            ),
        )

    def with_assignment(self, assignment: "LayoutAssignment") -> "PlacedSystem":
        """Re-place every task at *assignment*.

        Overlapping or incomplete assignments raise
        :class:`~repro.program.layout.LayoutError`.
        """
        from repro.program.layout import LayoutError, apply_assignment

        layouts = apply_assignment(
            {task.name: task.layout.program for task in self.tasks}, assignment
        )
        missing = [name for name in self.order if name not in layouts]
        if missing:
            raise LayoutError(f"assignment is missing tasks {missing}")
        return replace(
            self,
            tasks=tuple(
                replace(task, layout=layouts[task.name]) for task in self.tasks
            ),
        )


def resolve_base(base):
    """An experiment key, :class:`ExperimentSpec` or fuzz :class:`SystemSpec`
    as the spec object itself."""
    from repro.experiments.setup import ALL_SPECS, ExperimentSpec
    from repro.fuzz.spec import SystemSpec

    if isinstance(base, str):
        for spec in ALL_SPECS:
            if spec.key == base:
                return spec
        raise ConfigError(
            f"unknown experiment {base!r}; choose from "
            f"{[spec.key for spec in ALL_SPECS]}"
        )
    if isinstance(base, (ExperimentSpec, SystemSpec)):
        return base
    raise ConfigError(
        f"what-if base must be an experiment key, ExperimentSpec or fuzz "
        f"SystemSpec, got {type(base).__name__}"
    )


def resolve_system(
    base,
    *,
    cache: "CacheConfig | None" = None,
    miss_penalty: "int | None" = None,
    period_overrides: "dict | None" = None,
    assignment: "LayoutAssignment | None" = None,
) -> PlacedSystem:
    """Build and place *base*'s programs on one cache configuration.

    *cache* replaces the base's cache entirely; otherwise experiments run
    the scaled 8KB cache and fuzz specs their own, at *miss_penalty* when
    given (experiments default to 20).  *period_overrides* fix task
    periods by name; *assignment* replaces the default placement.
    """
    from repro.experiments.setup import ExperimentSpec

    base = resolve_base(base)
    if isinstance(base, ExperimentSpec):
        placed = _resolve_experiment(base, cache, miss_penalty)
    else:
        placed = _resolve_fuzz(base, cache, miss_penalty)
    if period_overrides:
        placed = placed.with_periods(period_overrides)
    if assignment is not None:
        placed = placed.with_assignment(assignment)
    return placed


def _resolve_experiment(spec, cache, miss_penalty) -> PlacedSystem:
    from repro.program.layout import SystemLayout

    if cache is None:
        cache = CacheConfig.scaled_8k(20 if miss_penalty is None else miss_penalty)
    workloads = {name: build() for name, build in spec.builders.items()}
    layout = SystemLayout(stride=spec.stride)
    for name in spec.placement_order:
        layout.place(workloads[name].program)
    priorities = spec.priorities()
    return PlacedSystem(
        tasks=tuple(
            PlacedTask(
                name=name,
                layout=layout.layout_of(name),
                scenarios=workloads[name].scenario_map(),
                priority=priorities[name],
                period=spec.periods[name],
            )
            for name in spec.priority_order
        ),
        config=cache,
        # Definition 4 verbatim, as the paper's tables use it.  The sound
        # per_point variant is compared in the MUMBS ablation bench.
        mumbs_mode="paper",
        context_switch=spec.context_switch_cycles,
    )


def _resolve_fuzz(spec, cache, miss_penalty) -> PlacedSystem:
    from repro.fuzz.build import build_program, scenarios_for
    from repro.program.layout import SystemLayout

    if cache is None:
        cache = spec.cache.config(miss_penalty)
    built = [
        build_program(task.program, f"t{index}")
        for index, task in enumerate(spec.tasks)
    ]
    layout = SystemLayout(
        stride=_stagger_stride([program for program, _ in built])
        if spec.stagger
        else None
    )
    return PlacedSystem(
        tasks=tuple(
            PlacedTask(
                name=program.name,
                layout=layout.place(program),
                scenarios=scenarios_for(inputs),
                priority=index + 1,
                period_mult=task.period_mult,
                jitter_pct=task.jitter_pct,
            )
            for index, (task, (program, inputs)) in enumerate(
                zip(spec.tasks, built)
            )
        ),
        config=cache,
        # The sound-by-construction variant: Definition 4 verbatim can
        # undercount a joint worst case (a documented reproduction
        # finding, not an engine bug).
        mumbs_mode="per_point",
        context_switch=spec.context_switch,
    )


def _stagger_stride(programs) -> int:
    """A stride that fits the largest program, offset past a packed
    placement so staggered and packed layouts genuinely differ."""
    from repro.program.layout import SystemLayout

    scratch = SystemLayout()
    extent = 0
    for program in programs:
        layout = scratch.place(program)
        extent = max(extent, max(layout.code_end, layout.data_end) - layout.code_base)
    alignment = SystemLayout.region_alignment
    extent = -(-extent // alignment) * alignment
    return extent + alignment


@dataclass
class PipelineResult:
    """One analysed system: artifacts, CRPD, task system and ledger.

    Pair estimates and Eq. 7 fixpoints are computed on first use and
    memoised; every stage writes into the one shared :attr:`ledger`.
    """

    placed: PlacedSystem
    artifacts: "dict[str, TaskArtifacts]"
    crpd: CRPDAnalyzer
    system: TaskSystem
    ledger: DegradationLedger
    budget: "AnalysisBudget | None" = None
    _estimates: "list[PreemptionEstimate] | None" = None
    _wcrt: dict = field(default_factory=dict)

    @property
    def soundness(self) -> str:
        return self.ledger.soundness

    @property
    def estimates(self) -> list[PreemptionEstimate]:
        """Every (preempted, preempting) pair's four reload-line counts."""
        if self._estimates is None:
            self._estimates = self.crpd.estimate_all_pairs(list(self.placed.order))
        return self._estimates

    def wcrt(self, approach: Approach) -> SystemWCRT:
        """Equation 7 for every task under *approach*'s ``Cpre``.

        The iteration runs past deadlines (``stop_at_deadline=False``) so
        above-period values are true fixpoints, as Tables III/V report.
        """
        approach = Approach(approach)
        if approach not in self._wcrt:

            def cpre(preempted: str, preempting: str) -> int:
                return self.crpd.cpre(preempted, preempting, approach)

            self._wcrt[approach] = compute_system_wcrt(
                self.system,
                cpre=cpre,
                context_switch=self.placed.context_switch,
                stop_at_deadline=False,
                budget=self.budget,
                ledger=self.ledger,
            )
        return self._wcrt[approach]

    def bindings(self) -> "list[TaskBinding]":
        """Simulator bindings, driving each task with its WCET scenario."""
        from repro.sched.simulator import TaskBinding

        return [
            TaskBinding(
                spec=self.system.task(task.name),
                layout=task.layout,
                inputs=dict(
                    task.scenarios[self.artifacts[task.name].wcet.worst_scenario]
                ),
            )
            for task in self.placed.tasks
        ]


def run_pipeline(
    placed: PlacedSystem,
    *,
    budget: "AnalysisBudget | None" = None,
    store: "ArtifactStore | None" = None,
    jobs: int = 1,
    pool: "WarmPool | None" = None,
) -> PipelineResult:
    """Analyse every task of *placed* and assemble the CRPD/WCRT chain.

    With a *budget* every stage shares one wall clock and one ledger.
    ``jobs > 1`` (or a caller's warm *pool*) fans the per-task analyses
    out across a :class:`~repro.batch.pool.WarmPool`; each worker re-arms
    the budget locally and the artifacts and ledger events merge back in
    priority order, so results are identical to the serial run.  *store*
    answers stages seen before (see :mod:`repro.analysis.store`) and
    caches CRPD pair counts.
    """
    ledger = DegradationLedger()
    clock = budget.start() if budget is not None else None
    if pool is not None or jobs > 1:
        artifacts = _analyze_pooled(placed, budget, ledger, store, jobs, pool)
    else:
        # Looked up on the module so instrumentation patching
        # ``artifacts.analyze_task`` sees every call.
        artifacts = {
            task.name: _artifacts.analyze_task(
                task.layout,
                task.scenarios,
                placed.config,
                budget=budget,
                ledger=ledger,
                clock=clock,
                store=store,
            )
            for task in placed.tasks
        }
    crpd = CRPDAnalyzer(
        artifacts,
        mumbs_mode=placed.mumbs_mode,
        budget=budget,
        ledger=ledger,
        clock=clock,
        store=store,
    )
    system = TaskSystem(
        tasks=[
            task.task_spec(artifacts[task.name].wcet.cycles)
            for task in placed.tasks
        ]
    )
    return PipelineResult(
        placed=placed,
        artifacts=artifacts,
        crpd=crpd,
        system=system,
        ledger=ledger,
        budget=budget,
    )


def _analyze_pooled(placed, budget, ledger, store, jobs, pool) -> dict:
    from repro.batch.pool import WarmPool, adopt_observed

    own_pool = None
    if pool is None:
        own_pool = pool = WarmPool(jobs)
    store_directory = store.directory if store is not None and store.enabled else None
    # The layouts and scenarios ship once per pool; items carry only what
    # varies between calls.
    shared = (
        "pipeline.tasks",
        {task.name: (task.layout, task.scenarios) for task in placed.tasks},
        store_directory,
    )
    items = [
        (task.name, placed.config, budget, _OBS.enabled)
        for task in placed.tasks
    ]
    current = _OBS.tracer.current_span()
    parent_id = current.span_id if current is not None else None
    artifacts = {}
    try:
        token = pool.seed(shared)
        # The pool yields in priority order, so worker spans are adopted
        # and metrics merged deterministically.
        for name, task_artifacts, events, records, snapshot in pool.map(
            _analyze_task_item, items, context=token
        ):
            artifacts[name] = task_artifacts
            ledger.events.extend(events)
            adopt_observed(records, snapshot, parent_id)
    finally:
        if own_pool is not None:
            own_pool.close()
    return artifacts


def _analyze_task_item(context, item):
    """Analyse one task in a :class:`~repro.batch.pool.WarmPool` worker.

    Also runs in-process on the pool's serial fallback path.  The worker
    re-arms the budget (its own wall clock) and records degradations into
    a private ledger whose events the parent merges in priority order.
    Artifacts carry columnar traces
    (:class:`~repro.vm.trace.LazyTraces`), which keeps the result pickle
    small enough for the fan-out to pay off.
    """
    from repro.batch.pool import run_observed, worker_store

    _, tasks, store_directory = context
    name, config, budget, obs_enabled = item
    ledger = DegradationLedger()
    store = worker_store(context, store_directory)
    layout, scenarios = tasks[name]
    artifacts, records, snapshot = run_observed(
        lambda: _artifacts.analyze_task(
            layout, scenarios, config, budget=budget, ledger=ledger, store=store
        ),
        obs_enabled,
    )
    return name, artifacts, ledger.events, records, snapshot
