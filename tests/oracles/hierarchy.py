"""Per-reference two-level stack: the reference the stream route is checked against.

:class:`~repro.cache.hierarchy.MemoryHierarchy` charges a whole stream at
a time: one L1 pass collecting its misses, then one L2 pass over them.
:class:`SteppedHierarchy` adds the per-reference ``access()`` a
``Machine.step()`` calls, with the L2 lookup made inline on each L1
miss, plus the residency queries the preemption measurements read.
:func:`stepped_stack_wcet` steps the VM on it, one reference at a time,
for the WCET ``analyze_task_hierarchy`` reads off the recorded trace.
"""

from __future__ import annotations

from repro.analysis.wcet import Scenarios
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.state import AccessResult
from repro.program.layout import ProgramLayout
from repro.vm.machine import Machine, VMError


class SteppedHierarchy(MemoryHierarchy):
    """A :class:`MemoryHierarchy` a ``Machine.step()`` can drive."""

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Reference *address* through both levels; return the L1 outcome.

        ``AccessResult.hit`` reports the L1 outcome; ``cycles`` includes
        whatever the L2 lookup and memory fetch added.  Write-back dirty
        accounting (if enabled on the L1 config) happens at L1; L2 fills
        are reads.
        """
        l1_result = self.l1.access(address, write=write)
        if l1_result.hit:
            self.stats.hits += 1
            return l1_result
        self.stats.misses += 1
        l2_result = self.l2.access(address)
        cycles = l1_result.cycles  # hit_cycles + l1.miss_penalty
        if not l2_result.hit:
            cycles += self.config.l2.miss_penalty
        return AccessResult(
            hit=False, cycles=cycles, evicted_block=l1_result.evicted_block
        )

    def contains(self, address: int) -> bool:
        """True if the block is resident at any level."""
        return self.l1.contains(address) or self.l2.contains(address)

    def resident_blocks(self) -> set[int]:
        """L1-granularity blocks resident in L1, plus L2-resident regions.

        Returned at L1 block granularity so callers can intersect with
        footprints computed against the L1 geometry.
        """
        resident = set(self.l1.resident_blocks())
        ratio = self.config.l2.line_size // self.config.l1.line_size
        for l2_block in self.l2.resident_blocks():
            for sub in range(ratio):
                resident.add(l2_block + sub * self.config.l1.line_size)
        return resident


def stepped_stack_wcet(
    layout: ProgramLayout,
    scenarios: Scenarios,
    hierarchy: HierarchyConfig,
    max_steps: int = 10_000_000,
) -> dict[str, int]:
    """Each scenario's cycles from ``Machine.step()`` on a fresh stack."""
    per_scenario = {}
    for name, inputs in scenarios.items():
        machine = Machine(layout=layout, cache=SteppedHierarchy(hierarchy))
        for array, values in inputs.items():
            machine.write_array(array, list(values))
        while not machine.halted:
            if machine.steps >= max_steps:
                raise VMError(f"exceeded {max_steps} steps without halting")
            machine.step()
        per_scenario[name] = machine.cycles
    return per_scenario
