"""Cycle-level set-associative cache simulator.

This is the hardware substrate the paper's experiments run on: every memory
reference issued by the virtual machine (:mod:`repro.vm.machine`) and by the
preemptive scheduler (:mod:`repro.sched.simulator`) flows through an instance
of :class:`CacheState`.  The replacement policy comes from the
:class:`~repro.cache.config.CacheConfig` — LRU by default, as assumed in
Section III-A of the paper, with FIFO and tree-PLRU available
(:data:`repro.cache.policies.POLICY_NAMES`).

Cache sets never interact, so each set is a plain list of ``ways`` slots
holding line-aligned block addresses, :data:`INVALID` marking an empty
line:

* **LRU** and **FIFO** keep the most recently used / newest block first
  and empty lines last, so a miss always replaces the last slot.  The two
  differ only on a hit: LRU moves the block to the front, FIFO does not.
* **PLRU** keeps its slots in way order, plus one ``int`` of tree bits per
  set (see :func:`_plru_masks`).

One loop per policy replays a reference stream over those lists — a
write-through loop that reads only the address column, and a write-back
loop that also tracks dirty lines.  :meth:`CacheState.access_stream`
picks the loop and :meth:`CacheState.access` runs it over a
one-reference stream, so each replacement rule is written once.  The
per-set policy objects the loops replaced are the per-reference
reference in ``tests/oracles/cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from repro.cache.config import CacheConfig
from repro.errors import ConfigError

#: An empty cache line.  Blocks are non-negative, so none compares equal.
INVALID = -1


@dataclass
class CacheStats:
    """Running hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0


@dataclass
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    cycles: int
    evicted_block: int | None = None


# ----------------------------------------------------------------------
# Replay kernels
#
# Each takes ``(cache, addresses, writes, missed)`` and returns ``(hits,
# misses, evictions, writebacks, evicted)``, *evicted* being what the
# last miss replaced (INVALID when it filled an empty line).  A reference
# to the block just referenced is a hit that changes no replacement state
# (LRU: already first; FIFO: hits never move; PLRU: the same tree bits),
# so it skips the set.  *missed*, when not None, receives each missing
# address in order.
# ----------------------------------------------------------------------


def _list_through(cache, addresses, writes, missed):
    """LRU/FIFO, write-through: *writes* is not read."""
    sets = cache._sets
    line_mask, offset_bits, set_mask = cache._geometry
    refresh = cache._refresh
    hits = misses = evictions = 0
    evicted = last = INVALID
    for address in addresses:
        block = address & line_mask
        if block == last:
            hits += 1
            continue
        last = block
        lines = sets[(address >> offset_bits) & set_mask]
        if lines[0] == block:
            hits += 1
        elif block in lines:
            hits += 1
            if refresh:
                lines.remove(block)
                lines.insert(0, block)
        else:
            misses += 1
            if missed is not None:
                missed.append(address)
            evicted = lines.pop()
            if evicted != INVALID:
                evictions += 1
            lines.insert(0, block)
    return hits, misses, evictions, 0, evicted


def _list_back(cache, addresses, writes, missed):
    """LRU/FIFO, write-back: a write dirties its line, and evicting a
    dirty line writes it back."""
    sets = cache._sets
    dirty = cache._dirty
    line_mask, offset_bits, set_mask = cache._geometry
    refresh = cache._refresh
    hits = misses = evictions = writebacks = 0
    evicted = last = INVALID
    for address, write in zip(addresses, writes):
        block = address & line_mask
        if block == last:
            hits += 1
        else:
            last = block
            lines = sets[(address >> offset_bits) & set_mask]
            if lines[0] == block:
                hits += 1
            elif block in lines:
                hits += 1
                if refresh:
                    lines.remove(block)
                    lines.insert(0, block)
            else:
                misses += 1
                if missed is not None:
                    missed.append(address)
                evicted = lines.pop()
                if evicted != INVALID:
                    evictions += 1
                    if evicted in dirty:
                        dirty.discard(evicted)
                        writebacks += 1
                lines.insert(0, block)
        if write:
            dirty.add(block)
    return hits, misses, evictions, writebacks, evicted


@lru_cache(maxsize=None)
def _plru_masks(ways: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-slot ``(keep, point)`` masks of a tree-PLRU set of *ways*.

    The tree bits form a complete binary tree over the slots, heap-indexed
    from 1 (bit ``n`` of the set's ``int``): node ``n`` has children
    ``2n`` and ``2n+1``, leaf ``ways + slot`` is way *slot*, and each bit
    points toward the pseudo-LRU side (0 = left, 1 = right).  Touching a
    slot points every bit on its root path away from it: ``bits & keep |
    point``.  The victim is found by following the bits from the root.
    ``ways == 1`` has no bits (direct mapped).
    """
    depth = ways.bit_length() - 1
    keep, point = [], []
    for slot in range(ways):
        path = away = 0
        node = 1
        for level in range(depth):
            direction = (slot >> (depth - 1 - level)) & 1
            path |= 1 << node
            if not direction:
                away |= 1 << node
            node = 2 * node + direction
        keep.append(~path)
        point.append(away)
    return tuple(keep), tuple(point)


def _plru_through(cache, addresses, writes, missed):
    """Tree-PLRU, write-through: *writes* is not read.  A miss fills the
    first empty slot, else the slot the tree bits lead to."""
    sets = cache._sets
    trees = cache._trees
    line_mask, offset_bits, set_mask = cache._geometry
    ways = cache.config.ways
    keep, point = _plru_masks(ways)
    hits = misses = evictions = 0
    evicted = last = INVALID
    for address in addresses:
        block = address & line_mask
        if block == last:
            hits += 1
            continue
        last = block
        index = (address >> offset_bits) & set_mask
        lines = sets[index]
        if block in lines:
            hits += 1
            slot = lines.index(block)
        else:
            misses += 1
            if missed is not None:
                missed.append(address)
            if INVALID in lines:
                slot = lines.index(INVALID)
                evicted = INVALID
            else:
                bits = trees[index]
                node = 1
                while node < ways:
                    node = 2 * node + (bits >> node & 1)
                slot = node - ways
                evicted = lines[slot]
                evictions += 1
            lines[slot] = block
        trees[index] = trees[index] & keep[slot] | point[slot]
    return hits, misses, evictions, 0, evicted


def _plru_back(cache, addresses, writes, missed):
    """Tree-PLRU, write-back (see :func:`_plru_through`, :func:`_list_back`)."""
    sets = cache._sets
    trees = cache._trees
    dirty = cache._dirty
    line_mask, offset_bits, set_mask = cache._geometry
    ways = cache.config.ways
    keep, point = _plru_masks(ways)
    hits = misses = evictions = writebacks = 0
    evicted = last = INVALID
    for address, write in zip(addresses, writes):
        block = address & line_mask
        if block == last:
            hits += 1
        else:
            last = block
            index = (address >> offset_bits) & set_mask
            lines = sets[index]
            if block in lines:
                hits += 1
                slot = lines.index(block)
            else:
                misses += 1
                if missed is not None:
                    missed.append(address)
                if INVALID in lines:
                    slot = lines.index(INVALID)
                    evicted = INVALID
                else:
                    bits = trees[index]
                    node = 1
                    while node < ways:
                        node = 2 * node + (bits >> node & 1)
                    slot = node - ways
                    evicted = lines[slot]
                    evictions += 1
                    if evicted in dirty:
                        dirty.discard(evicted)
                        writebacks += 1
                lines[slot] = block
            trees[index] = trees[index] & keep[slot] | point[slot]
        if write:
            dirty.add(block)
    return hits, misses, evictions, writebacks, evicted


#: ``(policy, write_back)`` -> replay kernel.
_KERNELS = {
    ("lru", False): _list_through,
    ("lru", True): _list_back,
    ("fifo", False): _list_through,
    ("fifo", True): _list_back,
    ("plru", False): _plru_through,
    ("plru", True): _plru_back,
}


@dataclass
class CacheState:
    """Mutable cache contents behind a replacement policy.

    Block addresses are always line aligned (every access normalises via
    :meth:`CacheConfig.block`).
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        config = self.config
        self._sets: list[list[int]] = [
            [INVALID] * config.ways for _ in range(config.num_sets)
        ]
        self._trees = [0] * config.num_sets  # PLRU tree bits per set
        self._dirty: set[int] = set()  # dirty blocks (write-back mode)
        self._refresh = config.policy == "lru"  # a hit moves to the front
        self._kernel = _KERNELS[config.policy, config.write_back]
        self._geometry = (-config.line_size, config.offset_bits, config.num_sets - 1)
        self._costs = (
            config.hit_cycles, config.miss_penalty, config.effective_writeback_penalty
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """True if the memory block of *address* currently resides in cache."""
        block = self.config.block(address)
        return block in self._sets[self.config.index(block)]

    def set_contents(self, index: int) -> tuple[int, ...]:
        """Blocks resident in set *index*, in policy priority order.

        For LRU this is most-recently-used first; for FIFO newest first;
        for PLRU the slot order.
        """
        if not 0 <= index < self.config.num_sets:
            raise IndexError(f"set index {index} out of range")
        return tuple(block for block in self._sets[index] if block != INVALID)

    def resident_blocks(self) -> set[int]:
        """All memory blocks currently resident anywhere in the cache."""
        resident: set[int] = set()
        for lines in self._sets:
            resident.update(lines)
        resident.discard(INVALID)
        return resident

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(lines) - lines.count(INVALID) for lines in self._sets)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def access(self, address: int, write: bool = False) -> AccessResult:
        """Reference *address*; update replacement state, return the outcome.

        A hit costs ``config.hit_cycles``; a miss additionally costs
        ``config.miss_penalty`` and loads the whole memory block, evicting
        a line chosen by the replacement policy if the set is full.  In
        write-back mode a ``write`` dirties the line, and evicting a dirty
        line adds ``config.effective_writeback_penalty`` cycles.
        """
        if address < 0:
            raise ConfigError(f"addresses must be non-negative, got {address}")
        hits, _, evictions, writebacks, evicted = self._kernel(
            self, (address,), (write,), None
        )
        stats = self.stats
        hit_cycles, miss_penalty, writeback_penalty = self._costs
        if hits:
            stats.hits += 1
            return AccessResult(True, hit_cycles)
        stats.misses += 1
        stats.evictions += evictions
        stats.writebacks += writebacks
        return AccessResult(
            False,
            hit_cycles + miss_penalty + writebacks * writeback_penalty,
            None if evicted == INVALID else evicted,
        )

    def access_stream(
        self,
        addresses: Iterable[int],
        writes: Iterable,
        missed: "list[int] | None" = None,
    ) -> int:
        """:meth:`access` every address in order; return the cycles charged.

        *writes* is index-aligned with *addresses*; a truthy entry marks a
        write (read only in write-back mode).  The kernel that charges a
        VM run's references and replays stored traces.  *missed*, when
        given, receives each missing address in order (what a next level
        sees).
        """
        return self._charge(self._kernel(self, addresses, writes, missed))

    def _charge(self, counts: tuple) -> int:
        """Add a kernel's counts to the statistics; return their cycles."""
        hits, misses, evictions, writebacks, _ = counts
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        hit_cycles, miss_penalty, writeback_penalty = self._costs
        return (
            (hits + misses) * hit_cycles
            + misses * miss_penalty
            + writebacks * writeback_penalty
        )

    def is_dirty(self, address: int) -> bool:
        """True when the block is resident and dirty (write-back mode)."""
        block = self.config.block(address)
        return block in self._dirty and self.contains(block)

    def dirty_blocks(self) -> set[int]:
        """All currently dirty blocks."""
        return set(self._dirty)

    def invalidate(self) -> None:
        """Flush the whole cache (cold state); statistics are preserved.

        Dirty contents are discarded without charging writebacks — this
        models a destructive invalidate, not a flush-and-clean.
        """
        for lines in self._sets:
            lines[:] = [INVALID] * len(lines)
        self._dirty.clear()

    def invalidate_block(self, address: int) -> bool:
        """Remove one memory block if present; return whether it was there."""
        block = self.config.block(address)
        self._dirty.discard(block)
        lines = self._sets[self.config.index(block)]
        if block not in lines:
            return False
        if self.config.policy == "plru":
            lines[lines.index(block)] = INVALID  # slots keep their ways
        else:
            lines.remove(block)
            lines.append(INVALID)  # empty lines stay last
        return True

    def snapshot(self) -> list[tuple[int, ...]]:
        """Immutable copy of all set contents (for assertions in tests)."""
        return [self.set_contents(index) for index in range(self.config.num_sets)]
