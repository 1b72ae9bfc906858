"""WCET estimation in the style the paper uses SYMTA.

The paper obtains each task's WCET ``Ci`` (and its memory traces) with
SYMTA's simulation method (Sections III-B and VII).  We do the same with
our substrate: run the task in isolation once per input scenario (each
scenario drives one feasible path), recording its memory trace and its
cache-free base cycles, charge each trace through a cold cache and take
the maximum cycle count.  A purely structural all-miss bound is provided as a
cross-check — it must always dominate the measured WCET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigError
from repro.cache.config import CacheConfig
from repro.obs import profiled
from repro.cache.state import CacheState
from repro.program.layout import ProgramLayout
from repro.program.paths import enumerate_path_profiles
from repro.vm.machine import Machine
from repro.vm.trace import CompactTrace, TraceRecorder

#: Input scenarios: scenario name -> {array name -> initial values}.
Scenarios = Mapping[str, Mapping[str, list[int]]]


@dataclass
class WCETResult:
    """Measured WCET plus the per-scenario breakdown.

    The traces the runs recorded are not part of the result: the store
    holds them (see :mod:`repro.analysis.store`), and
    :func:`scenario_traces` records them afresh for a diagnostic.
    """

    cycles: int
    worst_scenario: str
    per_scenario_cycles: dict[str, int]

    @classmethod
    def of(cls, per_scenario: dict[str, int]) -> "WCETResult":
        """The result whose scenarios took *per_scenario* cycles.  The
        worst is the first in insertion order on ties, so cached replays
        (which preserve scenario order) adopt the same winner."""
        worst = max(per_scenario, key=per_scenario.get)
        return cls(
            cycles=per_scenario[worst],
            worst_scenario=worst,
            per_scenario_cycles=per_scenario,
        )

    @property
    def scenario_count(self) -> int:
        return len(self.per_scenario_cycles)


def cycles_from_counts(
    config: CacheConfig, base_cycles: int, accesses: int, misses: int, writebacks: int
) -> int:
    """Reassemble a scenario's cycle count from its invariant parts."""
    return (
        base_cycles
        + accesses * config.hit_cycles
        + misses * config.miss_penalty
        + writebacks * config.effective_writeback_penalty
    )


def replay_counts(trace: CompactTrace, config: CacheConfig) -> tuple[int, int, int]:
    """``(accesses, misses, writebacks)`` of *trace* replayed through a
    cold *config* cache — how every path charges a scenario's cache."""
    cache = CacheState(config)
    trace.replay(cache)
    stats = cache.stats
    return stats.hits + stats.misses, stats.misses, stats.writebacks


def measure_wcet(
    layout: ProgramLayout,
    scenarios: Scenarios,
    config: CacheConfig,
    max_steps: int = 10_000_000,
) -> WCETResult:
    """Run every scenario in isolation on a cold cache; WCET = max cycles.

    Each scenario gets a fresh cache and a fresh memory image, matching the
    single-task WCET assumption (no useful cache contents at job start).

    Under LRU the cold start provably dominates any warm start (no
    cold-start anomalies; see ``tests/test_cache_state.py``), so the
    measured maximum is a true WCET for the covered paths.  FIFO and PLRU
    admit timing anomalies in principle; treat WCETs measured under those
    policies as high-water marks rather than guarantees.

    The scenarios are recorded (:func:`measure_wcet_detailed`) and each
    trace is then replayed through a cold *config* cache.
    """
    recorded = measure_wcet_detailed(layout, scenarios, max_steps)
    return WCETResult.of({
        name: cycles_from_counts(config, base_cycles, *replay_counts(trace, config))
        for name, (base_cycles, trace) in recorded.items()
    })


@profiled("analyze.wcet")
def measure_wcet_detailed(
    layout: ProgramLayout,
    scenarios: Scenarios,
    max_steps: int = 10_000_000,
) -> dict[str, tuple[int, CompactTrace]]:
    """One cache-free VM run per scenario: its base cycles and trace.

    The one simulation pass everything reads, as in SYMTA: the traces
    and base cycles are the store's trace sub-artifact, and every cache
    charge and the RMB/LMB flow read them (see
    :mod:`repro.analysis.store`).  Nothing is charged to a cache here:
    the stream and the base cycles are the same under every cache
    configuration.
    """
    if not scenarios:
        raise ConfigError("at least one input scenario is required")
    recorded = {}
    for name, inputs in scenarios.items():
        recorder = TraceRecorder()
        machine = Machine(layout=layout, cache=None, trace=recorder)
        for array, values in inputs.items():
            machine.write_array(array, values)
        machine.run(max_steps=max_steps)
        recorded[name] = (machine.cycles, recorder.compact())
    return recorded


def scenario_traces(
    layout: ProgramLayout,
    scenarios: Scenarios,
    config: CacheConfig,
    max_steps: int = 10_000_000,
) -> dict[str, CompactTrace]:
    """Each scenario's :class:`~repro.vm.trace.CompactTrace` at *layout*:
    what a diagnostic that reads events (``repro analyze --reuse``)
    renders from, through its :meth:`~repro.vm.trace.CompactTrace.expand`.
    Records only: the stream is the same under every
    cache configuration, so nothing is charged to *config*."""
    recorded = measure_wcet_detailed(layout, scenarios, max_steps)
    return {name: trace for name, (_, trace) in recorded.items()}


def static_wcet_bound(layout: ProgramLayout, config: CacheConfig) -> int:
    """Structural all-miss WCET bound (no cache hits assumed anywhere).

    Per feasible path profile: sum over blocks of (execution count ×
    all-miss block cost), maximised over paths.  Pessimistic by design;
    used as a soundness cross-check against :func:`measure_wcet`.
    """
    program = layout.program
    # Every miss may additionally evict a dirty line under write-back, so
    # the all-miss cost per access is penalty + writeback (0 when
    # write-through).  Without this term the bound undercounts any
    # storing program on a write-back cache.
    per_miss = config.miss_penalty + config.effective_writeback_penalty
    block_cost: dict[str, int] = {}
    for label in program.cfg.labels():
        block = program.cfg.block(label)
        cost = sum(instr.base_cycles for instr in block.instructions)
        if block.terminator is not None:
            cost += block.terminator.base_cycles
        # Every fetch misses...
        cost += block.size_instructions * per_miss
        # ...and every load/store misses too.
        memory_ops = sum(
            1
            for instr in block.instructions
            if instr.cost_key in ("load", "store")
        )
        cost += memory_ops * per_miss
        block_cost[label] = cost

    worst = 0
    for profile in enumerate_path_profiles(program):
        total = sum(
            block_cost.get(label, 0) * count
            for label, count in profile.counts.items()
        )
        worst = max(worst, total)
    return worst
