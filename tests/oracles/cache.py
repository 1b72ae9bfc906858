"""Per-reference cache reference: one replacement-policy object per set.

:class:`~repro.cache.state.CacheState` replays a stream with one inlined
loop per policy over plain per-set lists.  This is the model it is
checked against: each set is an object with ``lookup``/``insert``
methods, and :class:`ReferenceCache` calls them once per reference, with
the write-back rule and cycle accounting spelled out per reference too
(and without the kernels' shortcut for a repeated block).
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.cache.config import CacheConfig
from repro.cache.policies import POLICY_NAMES
from repro.cache.state import AccessResult, CacheStats
from repro.errors import ConfigError


class SetPolicy(Protocol):
    """Replacement state for a single cache set."""

    def lookup(self, block: int) -> bool:
        """True (and update recency metadata) if *block* is resident."""

    def insert(self, block: int) -> int | None:
        """Insert a missing *block*; return the evicted block, if any."""

    def resident(self) -> tuple[int, ...]:
        """Currently resident blocks, in policy-specific priority order."""

    def remove(self, block: int) -> bool:
        """Invalidate one block; True if it was resident."""

    def clear(self) -> None:
        """Invalidate the whole set."""


class LRUSet:
    """Least recently used: hits move the block to the front."""

    def __init__(self, ways: int):
        self._ways = ways
        self._lines: list[int] = []  # most recently used first

    def lookup(self, block: int) -> bool:
        if block in self._lines:
            self._lines.remove(block)
            self._lines.insert(0, block)
            return True
        return False

    def insert(self, block: int) -> int | None:
        evicted = None
        if len(self._lines) >= self._ways:
            evicted = self._lines.pop()
        self._lines.insert(0, block)
        return evicted

    def resident(self) -> tuple[int, ...]:
        return tuple(self._lines)

    def remove(self, block: int) -> bool:
        if block in self._lines:
            self._lines.remove(block)
            return True
        return False

    def clear(self) -> None:
        self._lines.clear()


class FIFOSet:
    """First-in first-out: eviction order fixed at insertion time."""

    def __init__(self, ways: int):
        self._ways = ways
        self._lines: list[int] = []  # newest first

    def lookup(self, block: int) -> bool:
        return block in self._lines

    def insert(self, block: int) -> int | None:
        evicted = None
        if len(self._lines) >= self._ways:
            evicted = self._lines.pop()
        self._lines.insert(0, block)
        return evicted

    def resident(self) -> tuple[int, ...]:
        return tuple(self._lines)

    def remove(self, block: int) -> bool:
        if block in self._lines:
            self._lines.remove(block)
            return True
        return False

    def clear(self) -> None:
        self._lines.clear()


class PLRUSet:
    """Tree-based pseudo-LRU for power-of-two associativity.

    A complete binary tree over the ``ways`` slots, heap-indexed from 1:
    node ``i`` has children ``2i`` (left) and ``2i+1`` (right); leaf
    ``ways + slot`` is way *slot*.  Each internal bit points toward the
    pseudo-LRU side (0 = left, 1 = right); touching a slot flips every bit
    on its root path to point *away* from it, and the victim is found by
    following the bits from the root.  ``ways == 1`` degenerates to
    direct-mapped behaviour.
    """

    def __init__(self, ways: int):
        if ways < 1 or ways & (ways - 1):
            raise ConfigError(f"plru requires power-of-two ways, got {ways}")
        self._ways = ways
        self._depth = ways.bit_length() - 1
        self._slots: list[int | None] = [None] * ways
        self._bits = [0] * (2 * ways)  # heap-indexed; leaves unused

    def _touch(self, slot: int) -> None:
        """Point every bit on the root path away from *slot*."""
        node = 1
        for level in range(self._depth):
            direction = (slot >> (self._depth - 1 - level)) & 1
            self._bits[node] = 1 - direction
            node = 2 * node + direction

    def _victim_slot(self) -> int:
        node = 1
        for _ in range(self._depth):
            node = 2 * node + self._bits[node]
        return node - self._ways

    def lookup(self, block: int) -> bool:
        for slot, resident in enumerate(self._slots):
            if resident == block:
                self._touch(slot)
                return True
        return False

    def insert(self, block: int) -> int | None:
        for slot, resident in enumerate(self._slots):
            if resident is None:
                self._slots[slot] = block
                self._touch(slot)
                return None
        victim_slot = self._victim_slot()
        evicted = self._slots[victim_slot]
        self._slots[victim_slot] = block
        self._touch(victim_slot)
        return evicted

    def resident(self) -> tuple[int, ...]:
        return tuple(block for block in self._slots if block is not None)

    def remove(self, block: int) -> bool:
        for slot, resident in enumerate(self._slots):
            if resident == block:
                self._slots[slot] = None
                return True
        return False

    def clear(self) -> None:
        self._slots = [None] * self._ways


def make_set_policy(policy: str, ways: int) -> SetPolicy:
    """Instantiate the per-set replacement state for *policy*."""
    if policy == "lru":
        return LRUSet(ways)
    if policy == "fifo":
        return FIFOSet(ways)
    if policy == "plru":
        return PLRUSet(ways)
    raise ConfigError(f"unknown replacement policy {policy!r}; "
                     f"choose from {POLICY_NAMES}")


class ReferenceCache:
    """A cache of :class:`SetPolicy` objects, charged one reference at a
    time, with the queries ``CacheState`` is compared on."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self.sets = [
            make_set_policy(config.policy, config.ways)
            for _ in range(config.num_sets)
        ]
        self.dirty: set[int] = set()

    def access(self, address: int, write: bool = False) -> AccessResult:
        """What ``CacheState.access`` returns for *address*."""
        config = self.config
        block = config.block(address)
        set_state = self.sets[config.index(block)]
        write_back = config.write_back
        if set_state.lookup(block):
            self.stats.hits += 1
            if write and write_back:
                self.dirty.add(block)
            return AccessResult(hit=True, cycles=config.hit_cycles)
        self.stats.misses += 1
        evicted = set_state.insert(block)
        cycles = config.hit_cycles + config.miss_penalty
        if evicted is not None:
            self.stats.evictions += 1
            if write_back and evicted in self.dirty:
                self.dirty.discard(evicted)
                self.stats.writebacks += 1
                cycles += config.effective_writeback_penalty
        if write and write_back:
            self.dirty.add(block)
        return AccessResult(hit=False, cycles=cycles, evicted_block=evicted)

    def access_stream(
        self,
        addresses: Iterable[int],
        writes: Iterable,
        missed: "list[int] | None" = None,
    ) -> int:
        """:meth:`access` every address in order; return the cycles
        charged (*missed* as in ``CacheState.access_stream``)."""
        cycles = 0
        for address, write in zip(addresses, writes):
            result = self.access(address, bool(write))
            cycles += result.cycles
            if missed is not None and not result.hit:
                missed.append(address)
        return cycles

    def invalidate(self) -> None:
        for set_state in self.sets:
            set_state.clear()
        self.dirty.clear()

    def invalidate_block(self, address: int) -> bool:
        block = self.config.block(address)
        self.dirty.discard(block)
        return self.sets[self.config.index(block)].remove(block)

    def snapshot(self) -> list[tuple[int, ...]]:
        return [set_state.resident() for set_state in self.sets]

    def dirty_blocks(self) -> set[int]:
        return set(self.dirty)


def touch_all(cache, addresses: Iterable[int]) -> int:
    """``cache.access()`` every address in order, one call each; return
    the total cycle cost."""
    return sum(cache.access(address).cycles for address in addresses)
