"""The one analysis pipeline every front door runs: placed tasks -> WCRT.

The paper's chain per task set — traces -> CIIP / useful blocks
(Eqs. 1-3) -> per-path CRPD (Eq. 4) -> ``Cpre`` (Eq. 5) -> the WCRT
fixpoint (Eq. 7) — is wired here and nowhere else.
:func:`resolve_system` turns a base (a paper experiment or a fuzz
:class:`~repro.fuzz.spec.SystemSpec`) plus a cache, period overrides and
an optional layout assignment into a :class:`PlacedSystem`;
:func:`run_pipeline` analyses that into a :class:`PipelineResult`.
``build_context``, ``analyze_batch``, ``WhatIfSession`` and
``build_case`` are thin layers over these two functions, and
:meth:`PipelineResult.payload` is the one result record they all report
(sweep rows, what-if states, served results and optimizer evaluations
are key projections of it), so every front door reports the same lines,
WCRTs and soundness for the same system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis import artifacts as _artifacts
from repro.analysis.crpd import ALL_APPROACHES, Approach, CRPDAnalyzer
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.guard.ledger import DegradationLedger
from repro.wcrt.response_time import SystemWCRT, compute_system_wcrt
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.analysis.artifacts import TaskArtifacts
    from repro.analysis.crpd import PreemptionEstimate
    from repro.analysis.store import ArtifactStore
    from repro.analysis.wcet import Scenarios
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


#: Experiment key -> (spec, placed system), built once per process and
#: shared by every request (nothing mutates programs or scenarios).
_EXPERIMENTS: "dict[str, tuple]" = {}


def _resolve_experiment(spec, cache, miss_penalty) -> PlacedSystem:
    if cache is None:
        cache = CacheConfig.scaled_8k(20 if miss_penalty is None else miss_penalty)
    memo = _EXPERIMENTS.get(spec.key)
    if memo is None or memo[0] is not spec:
        memo = _EXPERIMENTS[spec.key] = (spec, _place_experiment(spec))
    return replace(memo[1], config=cache)


def _place_experiment(spec) -> PlacedSystem:
    from repro.program.layout import SystemLayout

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
        config=CacheConfig.scaled_8k(20),
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


#: The cache fields a result payload's ``config`` reports.
CONFIG_KEYS = ("num_sets", "ways", "line_size", "miss_penalty", "policy", "write_back")


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

    def payload(self) -> dict:
        """The system's canonical result record, as plain JSON data; every
        front door reports it or a key projection of it.

        ``config``; per-task ``periods``, ``jitters``, ``wcet`` (Table I);
        per-pair ``lines`` under Approaches "1"-"4" (Table II);
        per-approach Eq. 7 ``wcrt``, ``status``, ``schedulable`` (Tables
        III-VI); ``soundness`` and the ledger's ``events``.  The ledger is
        read last, so Eq. 7's entries are in it.
        """
        # Pairs before fixpoints: the ledger then lists pair events first,
        # and only a pair estimated whole is kept in the store.
        lines = {
            f"{e.preempted}<-{e.preempting}": {
                str(a.value): count for a, count in e.lines.items()
            }
            for e in self.estimates
        }
        wcrt = {a: self.wcrt(a).results for a in ALL_APPROACHES}
        config = self.placed.config
        specs = {task.name: task for task in self.system.tasks}
        order = self.placed.order
        return {
            "config": {key: getattr(config, key) for key in CONFIG_KEYS},
            "periods": {name: specs[name].period for name in order},
            "jitters": {name: specs[name].jitter for name in order},
            "wcet": {name: specs[name].wcet for name in order},
            "lines": lines,
            "wcrt": {
                str(a.value): {name: r.wcrt for name, r in results.items()}
                for a, results in wcrt.items()
            },
            "status": {
                str(a.value): {name: r.status for name, r in results.items()}
                for a, results in wcrt.items()
            },
            "schedulable": {
                str(a.value): all(r.schedulable for r in results.values())
                for a, results in wcrt.items()
            },
            "soundness": self.soundness,
            "events": [
                [e.stage, e.budget, e.reason, e.fallback]
                for e in self.ledger.events
            ],
        }

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
) -> PipelineResult:
    """Analyse every task of *placed* and assemble the CRPD/WCRT chain.

    The tasks are analysed one after another in priority order.  With a
    *budget* every stage shares one wall clock and one ledger.  *store*
    answers stages seen before (see :mod:`repro.analysis.store`) and
    caches CRPD pair counts.  Only independent systems run in parallel
    (:func:`~repro.batch.engine.analyze_batch`).
    """
    ledger = DegradationLedger()
    clock = budget.start() if budget is not None else None
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

