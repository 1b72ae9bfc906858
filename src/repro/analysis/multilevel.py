"""Multi-level CRPD analysis — the paper's future-work extension.

The single-level analysis bounds, per preemption, the number of L1 lines
the preempted task must reload (Sections IV-VI).  With an L2 behind the
L1, each of those reloads costs the L1 refill latency, and *additionally*
pays the L2 miss latency when the block was also evicted from L2.  The
natural extension therefore runs the whole Tan/Mooney+Lee machinery once
per level, against each level's geometry, and charges

    Cpre(Ta, Tb) = lines_L1(Ta, Tb) * l1.miss_penalty
                 + lines_L2(Ta, Tb) * l2.miss_penalty          (Eq. 5')

where ``lines_Lk`` is the chosen approach's bound computed on level *k*'s
sets/ways/line size.  Soundness: every preemption-induced extra L1 fill is
counted by the L1 term, and every preemption-induced L2 miss needs the
block to be both useful and evicted *at L2*, which the L2 term bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.artifacts import TaskArtifacts, analyze_task
from repro.analysis.crpd import Approach, CRPDAnalyzer
from repro.analysis.wcet import Scenarios, WCETResult
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.errors import ConfigError
from repro.program.layout import ProgramLayout
from repro.vm.machine import run_isolated


@dataclass
class HierarchicalTaskArtifacts:
    """Per-task analysis against both cache levels, plus the hierarchy WCET."""

    name: str
    layout: ProgramLayout
    hierarchy: HierarchyConfig
    wcet: WCETResult  # measured on the full L1+L2 stack
    l1: TaskArtifacts
    l2: TaskArtifacts


def measure_wcet_hierarchy(
    layout: ProgramLayout,
    scenarios: Scenarios,
    hierarchy: HierarchyConfig,
    max_steps: int = 10_000_000,
) -> WCETResult:
    """Cold-stack WCET: every scenario starts with both levels empty."""
    if not scenarios:
        raise ConfigError("at least one input scenario is required")
    per_scenario: dict[str, int] = {}
    for name, inputs in scenarios.items():
        stack = MemoryHierarchy(hierarchy)
        machine = run_isolated(
            layout,
            stack,  # duck-typed: same access_stream() protocol as CacheState
            inputs={array: list(values) for array, values in inputs.items()},
            max_steps=max_steps,
        )
        per_scenario[name] = machine.cycles
    return WCETResult.of(per_scenario)


def analyze_task_hierarchy(
    layout: ProgramLayout,
    scenarios: Scenarios,
    hierarchy: HierarchyConfig,
    max_steps: int = 10_000_000,
) -> HierarchicalTaskArtifacts:
    """Run the per-task pipeline against both levels of the hierarchy.

    The L1 and L2 artifacts reuse the standard single-level analysis with
    the respective geometry (footprints, RMB/LMB and useful blocks are all
    geometry-dependent); the WCET is measured once on the full stack.
    """
    wcet = measure_wcet_hierarchy(layout, scenarios, hierarchy, max_steps)
    return HierarchicalTaskArtifacts(
        name=layout.program.name,
        layout=layout,
        hierarchy=hierarchy,
        wcet=wcet,
        l1=analyze_task(layout, scenarios, hierarchy.l1, max_steps=max_steps),
        l2=analyze_task(layout, scenarios, hierarchy.l2, max_steps=max_steps),
    )


class HierarchicalCRPD:
    """Per-preemption CRPD bounds for a two-level hierarchy (Eq. 5')."""

    def __init__(
        self,
        tasks: dict[str, HierarchicalTaskArtifacts],
        mumbs_mode: str = "per_point",
    ):
        if not tasks:
            raise ValueError("no tasks given")
        hierarchies = {artifacts.hierarchy for artifacts in tasks.values()}
        if len(hierarchies) != 1:
            raise ValueError("all tasks must share one hierarchy configuration")
        self.tasks = dict(tasks)
        self.hierarchy = next(iter(hierarchies))
        self._l1 = CRPDAnalyzer(
            {name: art.l1 for name, art in tasks.items()}, mumbs_mode=mumbs_mode
        )
        self._l2 = CRPDAnalyzer(
            {name: art.l2 for name, art in tasks.items()}, mumbs_mode=mumbs_mode
        )

    def lines_reloaded(
        self, preempted: str, preempting: str, approach: Approach
    ) -> tuple[int, int]:
        """(L1 lines, L2 lines) reload bounds for one preemption."""
        return (
            self._l1.lines_reloaded(preempted, preempting, approach),
            self._l2.lines_reloaded(preempted, preempting, approach),
        )

    def cpre(self, preempted: str, preempting: str, approach: Approach) -> int:
        """Equation 5': per-preemption reload cost across both levels."""
        l1_lines, l2_lines = self.lines_reloaded(preempted, preempting, approach)
        return (
            l1_lines * self.hierarchy.l1.miss_penalty
            + l2_lines * self.hierarchy.l2.miss_penalty
        )

    def cpre_l1_only(
        self, preempted: str, preempting: str, approach: Approach
    ) -> int:
        """What a single-level analysis would charge (ignores L2 misses).

        Provided for the ablation bench: on a machine with a slow memory
        behind the L2, ignoring the L2 term *under*-estimates.
        """
        l1_lines, _ = self.lines_reloaded(preempted, preempting, approach)
        return l1_lines * self.hierarchy.l1.miss_penalty
