"""Experiment definitions: the paper's two task sets on our substrate.

Experiment I (Section VIII): OFDM transmitter + Edge Detection + Mobile
Robot control.  Experiment II: ADPCM coder + ADPCM decoder + IDCT.  Both
run on the scaled 8KB 2-way cache (DESIGN.md section 2: its 4KB index
span keeps footprint overlaps partial like the paper's 32KB cache, while
its capacity sits below the combined working set so the simulation shows
genuine inter-task evictions) with the paper's context-switch cost of
1049 cycles (Example 6).

Periods are fixed in cycles, chosen to mirror the paper's period/WCET
ratios and utilisations (~0.49 for Experiment I, ~0.74 for Experiment II);
priorities follow the paper's Table I numbering (smaller = higher, the
highest-priority task carries priority 2).  The placement stride staggers
the task images in cache-index space the way the paper's separately linked
binaries landed in their 32KB cache — chosen once, by a documented sweep,
so that footprint overlaps are partial rather than degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.analysis.artifacts import TaskArtifacts, analyze_task
from repro.analysis.crpd import CRPDAnalyzer
from repro.cache.config import CacheConfig

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
    from repro.batch.pool import WarmPool
from repro.cache.state import CacheState
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.obs import STATE as _OBS
from repro.program.layout import ProgramLayout, SystemLayout
from repro.sched.simulator import SimulationResult, Simulator, TaskBinding
from repro.wcrt.task import TaskSpec, TaskSystem
from repro.workloads.adpcm import build_adpcm_coder, build_adpcm_decoder
from repro.workloads.base import Workload
from repro.workloads.edge_detection import build_edge_detection
from repro.workloads.idct import build_idct
from repro.workloads.mobile_robot import build_mobile_robot
from repro.workloads.ofdm import build_ofdm

#: The paper's context-switch WCET (Example 6), in cycles.
CONTEXT_SWITCH_CYCLES = 1049

#: The cache-miss penalties swept by Tables III-VI.
MISS_PENALTIES = (10, 20, 30, 40)


@dataclass(frozen=True)
class ExperimentSpec:
    """Static description of one experiment's task set."""

    key: str
    title: str
    builders: dict[str, Callable[[], Workload]]
    priority_order: tuple[str, ...]  # highest priority first
    placement_order: tuple[str, ...]
    periods: dict[str, int]  # cycles
    stride: int
    context_switch_cycles: int = CONTEXT_SWITCH_CYCLES

    def priorities(self) -> dict[str, int]:
        """Paper-style priority numbers: highest-priority task gets 2."""
        return {
            name: index + 2 for index, name in enumerate(self.priority_order)
        }


EXPERIMENT_I_SPEC = ExperimentSpec(
    key="exp1",
    title="Experiment I: OFDM / ED / MR",
    builders={
        "mr": build_mobile_robot,
        "ed": build_edge_detection,
        "ofdm": build_ofdm,
    },
    priority_order=("mr", "ed", "ofdm"),
    placement_order=("mr", "ed", "ofdm"),
    periods={"mr": 76_000, "ed": 152_000, "ofdm": 608_000},
    stride=0x1C00,
)

EXPERIMENT_II_SPEC = ExperimentSpec(
    key="exp2",
    title="Experiment II: ADPCMC / ADPCMD / IDCT",
    builders={
        "idct": lambda: build_idct(num_blocks=1, block_dim=8),
        "adpcmd": build_adpcm_decoder,
        "adpcmc": build_adpcm_coder,
    },
    priority_order=("idct", "adpcmd", "adpcmc"),
    placement_order=("adpcmd", "adpcmc", "idct"),
    periods={"idct": 56_000, "adpcmd": 112_000, "adpcmc": 336_000},
    stride=0x1D00,
)

ALL_SPECS = (EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC)


@dataclass
class ExperimentContext:
    """A fully analysed experiment at one cache-miss penalty."""

    spec: ExperimentSpec
    config: CacheConfig
    workloads: dict[str, Workload]
    layouts: dict[str, ProgramLayout]
    artifacts: dict[str, TaskArtifacts]
    crpd: CRPDAnalyzer
    system: TaskSystem
    budget: AnalysisBudget | None = None
    ledger: DegradationLedger = field(default_factory=DegradationLedger)
    #: Wall-clock seconds spent building + analysing the task set (cache
    #: hits shrink this; see ``docs/performance.md``).
    build_seconds: float = 0.0
    _art_cache: dict[int, SimulationResult] = field(default_factory=dict)

    @property
    def priority_order(self) -> tuple[str, ...]:
        return self.spec.priority_order

    @property
    def soundness(self) -> str:
        """``"exact"`` unless any analysis stage degraded conservatively."""
        return self.ledger.soundness

    def bindings(self) -> list[TaskBinding]:
        """Simulator bindings, driving each task with its WCET scenario."""
        bindings = []
        for name in self.spec.priority_order:
            workload = self.workloads[name]
            worst = self.artifacts[name].wcet.worst_scenario
            bindings.append(
                TaskBinding(
                    spec=self.system.task(name),
                    layout=self.layouts[name],
                    inputs=dict(workload.scenario(worst).inputs),
                )
            )
        return bindings

    def simulate(self, horizon: int | None = None) -> SimulationResult:
        """Measure actual response times on the shared-cache simulator."""
        key = horizon if horizon is not None else -1
        if key not in self._art_cache:
            if horizon is None:
                horizon = 2 * self.system.hyperperiod
            simulator = Simulator(
                self.bindings(),
                cache=CacheState(self.config),
                context_switch_cycles=self.spec.context_switch_cycles,
            )
            self._art_cache[key] = simulator.run(horizon, budget=self.budget)
        return self._art_cache[key]


def _analyze_task_point(context, item):
    """Analyse one task of one sweep point (module level to pickle).

    Runs in a :class:`~repro.batch.pool.WarmPool` worker — or in-process
    on the serial fallback path.  The *context* (layouts and scenarios,
    invariant across an entire penalty/geometry sweep) ships once per
    pool; the *item* carries only what varies per point: the task name,
    the cache configuration and the budget.  The worker re-arms the
    budget (its own wall clock) and records degradations into a private
    ledger whose events are merged back into the parent context's ledger
    in priority order, so the merged ledger is identical to a sequential
    run's.  Artifacts carry columnar traces
    (:class:`~repro.vm.trace.LazyTraces`), which is what keeps the result
    pickle small enough for the fan-out to pay off.
    """
    from repro.batch.pool import derived, in_worker

    _, _, layouts, scenario_maps, store_directory = context
    name, config, budget, obs_enabled = item
    ledger = DegradationLedger()
    store = None
    if store_directory is not None:
        from repro.analysis.store import ArtifactStore

        # One store handle per worker per context: its in-memory LRU (and
        # the trace/flow entries it caches) stays warm across the points
        # of a sweep instead of being rebuilt per task.
        store = derived(
            context,
            "experiments.store",
            lambda: ArtifactStore(directory=store_directory),
        )
    layout, scenarios = layouts[name], scenario_maps[name]
    records: tuple = ()
    snapshot = None
    if obs_enabled and in_worker():
        # Fresh per-task observability; the parent adopts the spans
        # (re-parented under its build_context span) and merges the
        # metrics snapshot in priority order, so the merged trace is
        # deterministic.  On the serial path the caller's tracer is live
        # and records directly.
        from repro.obs import install, uninstall

        tracer, metrics = install()
        try:
            artifacts = analyze_task(
                layout, scenarios, config, budget=budget, ledger=ledger,
                store=store,
            )
        finally:
            uninstall()
        records = tuple(tracer.records)
        snapshot = metrics.to_dict()
    else:
        artifacts = analyze_task(
            layout, scenarios, config, budget=budget, ledger=ledger, store=store
        )
    return name, artifacts, ledger.events, records, snapshot


def build_context(
    spec: ExperimentSpec,
    miss_penalty: int = 20,
    cache: CacheConfig | None = None,
    budget: AnalysisBudget | None = None,
    jobs: int = 1,
    store: "ArtifactStore | None" = None,
    path_engine: str = "auto",
    pool: "WarmPool | None" = None,
) -> ExperimentContext:
    """Build, place and analyse one experiment's task set.

    Pass ``cache`` to override the default scaled 16KB geometry (the miss
    penalty of an explicit cache config wins over *miss_penalty*).  With
    a *budget* the whole analysis runs guarded: every stage shares one
    wall clock and writes degradations into the context's ledger.

    ``jobs > 1`` fans the per-task analyses out across the workers of a
    :class:`~repro.batch.pool.WarmPool` (each re-arming the budget
    locally; the wall clock then counts per task rather than across
    tasks); artifacts and ledger events merge back in priority order, so
    results are deterministic.  Pass *pool* to reuse an already-warm pool
    across the points of a sweep — the layouts and scenarios then ship to
    the workers once, not once per point (see
    :func:`repro.batch.engine.analyze_batch`).  ``store`` short-circuits
    analyses whose inputs were seen before (see
    :mod:`repro.analysis.store`) and enables pair-level CRPD caching;
    ``path_engine`` is forwarded to the :class:`CRPDAnalyzer`.
    """
    # The span brackets exactly the region build_seconds times, so trace
    # durations reconcile with the context's reported wall time.
    with _OBS.tracer.span(
        "experiments.build_context", experiment=spec.key, jobs=jobs
    ) as span:
        context = _build_context(
            spec, miss_penalty, cache, budget, jobs, store, path_engine,
            pool, span,
        )
        span.set(build_seconds=context.build_seconds)
        return context


def _build_context(
    spec: ExperimentSpec,
    miss_penalty: int,
    cache: "CacheConfig | None",
    budget: "AnalysisBudget | None",
    jobs: int,
    store: "ArtifactStore | None",
    path_engine: str,
    pool: "WarmPool | None",
    span,
) -> ExperimentContext:
    started = perf_counter()
    config = cache if cache is not None else CacheConfig.scaled_8k(miss_penalty)
    ledger = DegradationLedger()
    clock = budget.start() if budget is not None else None
    workloads = {name: build() for name, build in spec.builders.items()}
    layout = SystemLayout(stride=spec.stride)
    for name in spec.placement_order:
        layout.place(workloads[name].program)
    layouts = {name: layout.layout_of(name) for name in spec.priority_order}
    if pool is not None or jobs > 1:
        from repro.batch.pool import WarmPool

        own_pool: "WarmPool | None" = None
        if pool is None:
            own_pool = pool = WarmPool(jobs)
        store_directory = (
            store.directory if store is not None and store.enabled else None
        )
        shared = (
            "experiments.tasks",
            spec.key,
            layouts,
            {name: workloads[name].scenario_map() for name in spec.priority_order},
            store_directory,
        )
        items = [
            (name, config, budget, _OBS.enabled)
            for name in spec.priority_order
        ]
        artifacts = {}
        try:
            token = pool.seed(shared)
            # The pool yields in priority order, so worker spans are
            # adopted and metrics merged deterministically.
            for name, task_artifacts, events, records, snapshot in pool.map(
                _analyze_task_point, items, context=token
            ):
                artifacts[name] = task_artifacts
                ledger.events.extend(events)
                if _OBS.enabled:
                    if records:
                        _OBS.tracer.adopt(records, parent_id=span.span_id)
                    if snapshot is not None:
                        _OBS.metrics.merge(snapshot)
        finally:
            if own_pool is not None:
                own_pool.close()
    else:
        artifacts = {
            name: analyze_task(
                layouts[name],
                workloads[name].scenario_map(),
                config,
                budget=budget,
                ledger=ledger,
                clock=clock,
                store=store,
            )
            for name in spec.priority_order
        }
    priorities = spec.priorities()
    tasks = [
        TaskSpec(
            name=name,
            wcet=artifacts[name].wcet.cycles,
            period=spec.periods[name],
            priority=priorities[name],
        )
        for name in spec.priority_order
    ]
    return ExperimentContext(
        spec=spec,
        config=config,
        workloads=workloads,
        layouts=layouts,
        artifacts=artifacts,
        # Definition 4 verbatim, as the paper's tables use it.  The sound
        # per_point variant is compared in the MUMBS ablation bench.
        crpd=CRPDAnalyzer(
            artifacts,
            mumbs_mode="paper",
            budget=budget,
            ledger=ledger,
            clock=clock,
            path_engine=path_engine,
            store=store,
        ),
        system=TaskSystem(tasks=tasks),
        budget=budget,
        ledger=ledger,
        build_seconds=perf_counter() - started,
    )
