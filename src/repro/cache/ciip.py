"""Cache Index Induced Partition (CIIP) and inter-task conflict bounds.

Implements Definition 3 and Equations 2/3 of the paper.  The CIIP of a set
of memory-block addresses groups the blocks by their cache-set index; only
blocks in the same group can ever evict one another.  Given the CIIPs of the
preempted task's blocks ``Ma`` and the preempting task's blocks ``Mb``, the
per-set bound

    S(Ma, Mb) = sum over sets r of min(|m̂a,r|, |m̂b,r|, L)

is an upper bound on the number of cache lines the preempted task may have
to reload after one preemption.

This sparse form serves Fig. 3, reports and the oracles; production
CRPD bounds run on dense vectors (:mod:`repro.cache.kernels`), and these
set counts are their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ConfigError
from repro.cache.config import CacheConfig
from repro.obs import STATE as _OBS
from repro.cache.kernels import (
    SetCounts,
    conflict_kernel,
    conflict_kernel_per_set,
    counts_of_groups,
    usage_kernel,
)


@dataclass(frozen=True)
class CIIP:
    """Cache Index Induced Partition of a memory-block address set.

    ``groups`` maps cache-set index -> frozenset of memory-block addresses
    with that index.  Empty groups are omitted, matching Definition 3 where
    the partition only contains the non-empty subsets.
    """

    config: CacheConfig
    groups: Mapping[int, frozenset[int]]

    @classmethod
    def from_addresses(cls, config: CacheConfig, addresses: Iterable[int]) -> "CIIP":
        """Build the CIIP of *addresses* (arbitrary byte addresses).

        Addresses are first normalised to their containing memory blocks,
        then partitioned by cache-set index.
        """
        shift, last = config.offset_bits, config.num_sets - 1
        line = -config.line_size
        groups: dict[int, set[int]] = {}
        for address in addresses:
            if address < 0:
                config._check_address(address)  # raises ConfigError
            groups.setdefault((address >> shift) & last, set()).add(address & line)
        frozen = {index: frozenset(blocks) for index, blocks in groups.items()}
        return cls(config=config, groups=frozen)

    # ------------------------------------------------------------------
    def blocks(self) -> frozenset[int]:
        """The underlying memory-block set ``M`` (union of all groups)."""
        merged: set[int] = set()
        for group in self.groups.values():
            merged.update(group)
        return frozenset(merged)

    def group(self, index: int) -> frozenset[int]:
        """Blocks mapping to cache set *index* (``m̂_i``); empty if none."""
        return self.groups.get(index, frozenset())

    @property
    def set_counts(self) -> SetCounts:
        """Per-set cardinality vector ``{r: |m̂_r|}``, computed once.

        This is the input to the counter kernels of
        :mod:`repro.cache.kernels`; the frozen dataclass memoises it in
        ``__dict__`` so repeated conflict bounds pay for the vector once.
        """
        cached = self.__dict__.get("_set_counts")
        if cached is None:
            cached = counts_of_groups(self.groups)
            object.__setattr__(self, "_set_counts", cached)
        return cached

    def indices(self) -> frozenset[int]:
        """Cache-set indices with at least one block."""
        return frozenset(self.groups)

    def __len__(self) -> int:
        """Total number of memory blocks in the partition."""
        return sum(len(group) for group in self.groups.values())

    def is_partition_of(self, addresses: Iterable[int]) -> bool:
        """Validate the partition property against a reference address set."""
        expected = {self.config.block(address) for address in addresses}
        seen: set[int] = set()
        for index, group in self.groups.items():
            if not group:
                return False
            for block in group:
                if self.config.index(block) != index or block in seen:
                    return False
                seen.add(block)
        return seen == expected


def conflict_bound(a: CIIP, b: CIIP) -> int:
    """Equation 2/3: upper bound on conflicting cache lines between two CIIPs.

    Both partitions must share the same cache geometry.  Returns
    ``S(Ma, Mb)`` — the maximum number of cache lines used by blocks of
    ``a`` that blocks of ``b`` can evict (and vice versa).  Evaluated with
    the per-set counter kernel; ``tests/oracles/ciip.py`` holds the
    set-algebra formulation the equivalence tests pin it to.
    """
    if a.config != b.config:
        raise ConfigError("CIIPs built for different cache configurations")
    if _OBS.enabled:
        _OBS.metrics.counter("kernels.conflict_bound.kernel").inc()
    return conflict_kernel(a.set_counts, b.set_counts, a.config.ways)


def conflict_bound_per_set(a: CIIP, b: CIIP) -> dict[int, int]:
    """Per-cache-set breakdown of :func:`conflict_bound` (for diagnostics)."""
    if a.config != b.config:
        raise ConfigError("CIIPs built for different cache configurations")
    return conflict_kernel_per_set(a.set_counts, b.set_counts, a.config.ways)


def line_usage_bound(ciip: CIIP) -> int:
    """Upper bound on the number of cache lines a block set can occupy.

    Each set can hold at most ``L`` lines, so the usage of set *r* is
    ``min(|m̂_r|, L)``.  This is Approach 1's per-preemption reload count:
    every line the preempting task can touch.
    """
    if _OBS.enabled:
        _OBS.metrics.counter("kernels.line_usage_bound.kernel").inc()
    return usage_kernel(ciip.set_counts, ciip.config.ways)
