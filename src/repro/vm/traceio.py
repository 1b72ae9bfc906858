"""Cache-behaviour diagnostics of recorded traces.

Two diagnostics explain *why* a workload behaves the way it does in a
given cache:

* the **reuse-distance histogram** — under LRU an access hits iff its
  set-local reuse distance is below the associativity, so the histogram
  predicts the hit rate for any associativity at a glance, and
* the **set-pressure profile** — how many distinct blocks land in each
  cache set, the quantity the CIIP bounds (Equation 2) are built from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.cache.config import CacheConfig
from repro.vm.trace import CompactTrace


@dataclass(frozen=True)
class ReuseProfile:
    """Set-local reuse-distance histogram of one reference stream.

    ``histogram[d]`` counts re-references whose reuse distance (number of
    distinct same-set blocks touched since the previous reference to the
    same block) is ``d``; ``cold`` counts first-ever references.
    """

    histogram: dict[int, int]
    cold: int

    @property
    def accesses(self) -> int:
        return self.cold + sum(self.histogram.values())

    def predicted_hits(self, ways: int) -> int:
        """Hits an LRU cache of the given associativity would score."""
        return sum(
            count for distance, count in self.histogram.items() if distance < ways
        )

    def predicted_miss_rate(self, ways: int) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.predicted_hits(ways) / self.accesses


def reuse_profile(
    traces: Mapping[str, CompactTrace], config: CacheConfig
) -> ReuseProfile:
    """The set-local LRU reuse-distance histogram of *traces*, whose
    scenarios are read in order as one reference stream (each trace's
    :meth:`~repro.vm.trace.CompactTrace.expand`)."""
    line_mask = -config.line_size
    stacks: dict[int, list[int]] = {}
    histogram: Counter[int] = Counter()
    cold = 0
    for trace in traces.values():
        for address in trace.expand().addresses:
            block = address & line_mask
            stack = stacks.setdefault(config.index(block), [])
            if block in stack:
                distance = stack.index(block)
                histogram[distance] += 1
                del stack[distance]
            else:
                cold += 1
            stack.insert(0, block)
    return ReuseProfile(histogram=dict(histogram), cold=cold)


@dataclass(frozen=True)
class SetPressure:
    """Distinct blocks per cache set (CIIP group sizes)."""

    per_set: dict[int, int]
    ways: int

    @property
    def max_pressure(self) -> int:
        return max(self.per_set.values(), default=0)

    @property
    def sets_used(self) -> int:
        return len(self.per_set)

    def overcommitted_sets(self) -> list[int]:
        """Sets holding more distinct blocks than they have ways —
        the sets where intra-task conflict misses can occur."""
        return sorted(
            index for index, count in self.per_set.items() if count > self.ways
        )


def set_pressure(blocks: Iterable[int], config: CacheConfig) -> SetPressure:
    """Distinct-block count per cache set (the |m̂_i| of Definition 3) of
    the memory blocks (or addresses) *blocks*, such as a task's footprint."""
    blocks_per_set: dict[int, set[int]] = {}
    for address in blocks:
        block = config.block(address)
        blocks_per_set.setdefault(config.index(block), set()).add(block)
    return SetPressure(
        per_set={index: len(blocks) for index, blocks in blocks_per_set.items()},
        ways=config.ways,
    )
