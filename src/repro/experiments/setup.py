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

from repro.analysis.artifacts import TaskArtifacts
from repro.analysis.crpd import CRPDAnalyzer
from repro.analysis.pipeline import PipelineResult, resolve_system, run_pipeline
from repro.cache.config import CacheConfig

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
from repro.cache.state import CacheState
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.obs import STATE as _OBS
from repro.sched.simulator import SimulationResult, Simulator, TaskBinding
from repro.wcrt.task import TaskSystem
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
    pipeline: PipelineResult
    #: Wall-clock seconds spent building + analysing the task set (cache
    #: hits shrink this; see ``docs/performance.md``).
    build_seconds: float = 0.0
    _art_cache: dict[int, SimulationResult] = field(default_factory=dict)

    @property
    def config(self) -> CacheConfig:
        return self.pipeline.placed.config

    @property
    def artifacts(self) -> dict[str, TaskArtifacts]:
        return self.pipeline.artifacts

    @property
    def crpd(self) -> CRPDAnalyzer:
        return self.pipeline.crpd

    @property
    def system(self) -> TaskSystem:
        return self.pipeline.system

    @property
    def ledger(self) -> DegradationLedger:
        return self.pipeline.ledger

    @property
    def priority_order(self) -> tuple[str, ...]:
        return self.spec.priority_order

    def bindings(self) -> list[TaskBinding]:
        """Simulator bindings, driving each task with its WCET scenario."""
        return self.pipeline.bindings()

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
            self._art_cache[key] = simulator.run(
                horizon, budget=self.pipeline.budget
            )
        return self._art_cache[key]


def build_context(
    spec: ExperimentSpec,
    miss_penalty: int = 20,
    cache: CacheConfig | None = None,
    budget: AnalysisBudget | None = None,
    store: "ArtifactStore | None" = None,
) -> ExperimentContext:
    """Build, place and analyse one experiment's task set.

    Pass ``cache`` to override the default scaled 8KB geometry (the miss
    penalty of an explicit cache config wins over *miss_penalty*).  With
    a *budget* the whole analysis runs guarded: every stage shares one
    wall clock and writes degradations into the context's ledger.
    ``store`` short-circuits analyses whose inputs were seen before (see
    :mod:`repro.analysis.store`) and enables pair-level CRPD caching.
    The chain itself is :func:`~repro.analysis.pipeline.run_pipeline`.
    """
    # The span brackets exactly the region build_seconds times, so trace
    # durations reconcile with the context's reported wall time.
    with _OBS.tracer.span(
        "experiments.build_context", experiment=spec.key
    ) as span:
        started = perf_counter()
        result = run_pipeline(
            resolve_system(spec, cache=cache, miss_penalty=miss_penalty),
            budget=budget,
            store=store,
        )
        context = ExperimentContext(
            spec=spec, pipeline=result, build_seconds=perf_counter() - started
        )
        span.set(build_seconds=context.build_seconds)
        return context
