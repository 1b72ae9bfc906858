"""Two-level memory hierarchy — the paper's stated future work.

Section IX: "For future work, we plan to expand our analysis approach for
systems with more than two-level memory hierarchy."  This module provides
the substrate for that extension: an L1 + L2 cache stack charged a whole
reference stream at a time (:meth:`MemoryHierarchy.access_stream`, the
protocol :meth:`CacheState.access_stream` implements).  The analysis
extension in :mod:`repro.analysis.multilevel` charges recorded traces
through it.

Latency model (per access):

* L1 hit                — ``l1.hit_cycles``
* L1 miss, L2 hit       — ``l1.hit_cycles + l1.miss_penalty``
* L1 miss, L2 miss      — ``l1.hit_cycles + l1.miss_penalty + l2.miss_penalty``

i.e. each level's ``miss_penalty`` is the cost of fetching from the level
below it.  Fills are non-exclusive: an L1 fill also installs the block in
L2 (the common mostly-inclusive organisation); L1 evictions do not
invalidate L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.cache.config import CacheConfig
from repro.cache.state import CacheState, CacheStats


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of a two-level hierarchy.

    The L2 line size must be a multiple of the L1 line size (a refill
    never straddles L2 lines).
    """

    l1: CacheConfig
    l2: CacheConfig

    def __post_init__(self) -> None:
        if self.l2.line_size % self.l1.line_size:
            raise ConfigError(
                f"L2 line size {self.l2.line_size} must be a multiple of "
                f"L1 line size {self.l1.line_size}"
            )
        if self.l2.size_bytes < self.l1.size_bytes:
            raise ConfigError("L2 must be at least as large as L1")

    @property
    def worst_case_miss_penalty(self) -> int:
        """Cycles for an access missing every level."""
        return self.l1.miss_penalty + self.l2.miss_penalty


@dataclass
class MemoryHierarchy:
    """An L1+L2 stack exposing the single-cache stream protocol.

    Stands in for :class:`CacheState` wherever only ``access_stream()``
    and ``invalidate()`` are needed (a :meth:`Machine.run
    <repro.vm.machine.Machine.run>`).
    """

    config: HierarchyConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.l1 = CacheState(self.config.l1)
        self.l2 = CacheState(self.config.l2)

    def access_stream(self, addresses, writes) -> int:
        """Reference every address in order; return the cycles charged.

        Write-back dirty accounting (if enabled on the L1 config) happens
        at L1.  L1 state never depends on L2, and L2 sees exactly L1's
        misses, in order, as reads — so one L1 stream pass collecting its
        misses, then one L2 pass over them, is exact.
        """
        missed: list[int] = []
        l1_hits = self.l1.stats.hits
        l2_misses = self.l2.stats.misses
        cycles = self.l1.access_stream(addresses, writes, missed)
        self.l2.access_stream(missed, bytes(len(missed)))
        self.stats.hits += self.l1.stats.hits - l1_hits
        self.stats.misses += len(missed)
        l2_misses = self.l2.stats.misses - l2_misses
        return cycles + l2_misses * self.config.l2.miss_penalty

    def invalidate(self) -> None:
        self.l1.invalidate()
        self.l2.invalidate()

    def invalidate_l1(self) -> None:
        """Flush only the first level (e.g. modelling an L1-only flush)."""
        self.l1.invalidate()
