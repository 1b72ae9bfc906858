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

Both levels' artifacts and the stack WCET read one recorded trace per
scenario.  L2 sees exactly L1's misses, in order, as reads (the access
filter of Hardy & Puaut), so the stack WCET is each scenario's L1 block
view replayed through :meth:`MemoryHierarchy.access_stream`; no VM runs
on the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.artifacts import TaskArtifacts, analyze_task
from repro.analysis.crpd import Approach, CRPDAnalyzer
from repro.analysis.store import ArtifactStore, TraceBundle
from repro.analysis.wcet import Scenarios, WCETResult
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.errors import ConfigError
from repro.program.layout import ProgramLayout


@dataclass
class HierarchicalTaskArtifacts:
    """Per-task analysis against both cache levels, plus the hierarchy WCET."""

    name: str
    layout: ProgramLayout
    hierarchy: HierarchyConfig
    wcet: WCETResult  # charged on the full L1+L2 stack
    l1: TaskArtifacts
    l2: TaskArtifacts


def analyze_task_hierarchy(
    layout: ProgramLayout,
    scenarios: Scenarios,
    hierarchy: HierarchyConfig,
    max_steps: int = 10_000_000,
) -> HierarchicalTaskArtifacts:
    """Run the per-task pipeline against both levels of the hierarchy.

    The L1 and L2 artifacts reuse the standard single-level analysis with
    the respective geometry (footprints, RMB/LMB and useful blocks are all
    geometry-dependent), run through one in-memory store: the trace key
    is cache-free, so the L2 run reads the traces the L1 run recorded and
    each scenario runs on the VM once.  The stack WCET is charged from
    the same traces, through the L1 block view (:func:`_stack_wcet`).
    """
    store = ArtifactStore()
    l1 = analyze_task(
        layout, scenarios, hierarchy.l1, max_steps=max_steps, store=store
    )
    l2 = analyze_task(
        layout, scenarios, hierarchy.l2, max_steps=max_steps, store=store
    )
    bundle = store.get(l1.subkeys["trace"], kind="trace")
    return HierarchicalTaskArtifacts(
        name=layout.program.name,
        layout=layout,
        hierarchy=hierarchy,
        wcet=_stack_wcet(bundle, layout, scenarios, hierarchy),
        l1=l1,
        l2=l2,
    )


def _stack_wcet(
    bundle: TraceBundle,
    layout: ProgramLayout,
    scenarios: Scenarios,
    hierarchy: HierarchyConfig,
) -> WCETResult:
    """Cold-stack WCET: each scenario's stream through an empty L1+L2.

    The L1 view's streams omit reads repeating the previous block: L1
    hits that change no state at either level, so each is charged the
    L1 hit time and nothing else.
    """
    bases = layout.region_bases()
    view = bundle.view(hierarchy.l1.line_size, bases, scenarios)
    moved = view.moved(bases)
    per_scenario: dict[str, int] = {}
    for scenario in scenarios:
        stream, writes, dropped = view.streams[scenario]
        stack = MemoryHierarchy(hierarchy)
        per_scenario[scenario] = (
            bundle.base_cycles[scenario]
            + stack.access_stream(map(moved.__getitem__, stream), writes)
            + dropped * hierarchy.l1.hit_cycles
        )
    return WCETResult.of(per_scenario)


class HierarchicalCRPD:
    """Per-preemption CRPD bounds for a two-level hierarchy (Eq. 5')."""

    def __init__(
        self,
        tasks: dict[str, HierarchicalTaskArtifacts],
        mumbs_mode: str = "per_point",
    ):
        if not tasks:
            raise ConfigError("no tasks given")
        hierarchies = {artifacts.hierarchy for artifacts in tasks.values()}
        if len(hierarchies) != 1:
            raise ConfigError("all tasks must share one hierarchy configuration")
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
