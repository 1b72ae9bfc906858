"""Cycle-level set-associative cache simulator.

This is the hardware substrate the paper's experiments run on: every memory
reference issued by the virtual machine (:mod:`repro.vm.machine`) and by the
preemptive scheduler (:mod:`repro.sched.simulator`) flows through an instance
of :class:`CacheState`.  The replacement policy comes from the
:class:`~repro.cache.config.CacheConfig` — LRU by default, as assumed in
Section III-A of the paper, with FIFO and tree-PLRU available
(:mod:`repro.cache.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cache.config import CacheConfig
from repro.cache.policies import SetPolicy, make_set_policy


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


@dataclass
class CacheState:
    """Mutable cache contents behind a replacement policy.

    Block addresses are always line aligned (every access normalises via
    :meth:`CacheConfig.block`).
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._sets: list[SetPolicy] = [
            make_set_policy(self.config.policy, self.config.ways)
            for _ in range(self.config.num_sets)
        ]
        self._dirty: set[int] = set()  # dirty blocks (write-back mode)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """True if the memory block of *address* currently resides in cache."""
        block = self.config.block(address)
        return block in self._sets[self.config.index(block)].resident()

    def set_contents(self, index: int) -> tuple[int, ...]:
        """Blocks resident in set *index*, in policy priority order.

        For LRU this is most-recently-used first; for FIFO newest first;
        for PLRU the slot order.
        """
        if not 0 <= index < self.config.num_sets:
            raise IndexError(f"set index {index} out of range")
        return self._sets[index].resident()

    def resident_blocks(self) -> set[int]:
        """All memory blocks currently resident anywhere in the cache."""
        resident: set[int] = set()
        for set_state in self._sets:
            resident.update(set_state.resident())
        return resident

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(set_state.resident()) for set_state in self._sets)

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
        block = self.config.block(address)
        set_state = self._sets[self.config.index(block)]
        write_back = self.config.write_back
        if set_state.lookup(block):
            self.stats.hits += 1
            if write and write_back:
                self._dirty.add(block)
            return AccessResult(hit=True, cycles=self.config.hit_cycles)

        self.stats.misses += 1
        evicted = set_state.insert(block)
        cycles = self.config.hit_cycles + self.config.miss_penalty
        if evicted is not None:
            self.stats.evictions += 1
            if write_back and evicted in self._dirty:
                self._dirty.discard(evicted)
                self.stats.writebacks += 1
                cycles += self.config.effective_writeback_penalty
        if write and write_back:
            self._dirty.add(block)
        return AccessResult(hit=False, cycles=cycles, evicted_block=evicted)

    def access_stream(
        self,
        addresses: Iterable[int],
        writes: Iterable,
        missed: "list[int] | None" = None,
    ) -> int:
        """:meth:`access` every address in order; return the cycles charged.

        *writes* is index-aligned with *addresses*; a truthy entry marks a
        write.  Drives the same set policies, write-back rule and cycle
        accounting as :meth:`access`, with the address split and the
        statistics hoisted out of the loop — the kernel that charges a
        VM run's references and replays stored traces.  *missed*, when
        given, receives each missing address in order (what a next level
        sees).
        """
        config = self.config
        line_mask = -config.line_size
        offset_bits = config.offset_bits
        set_mask = config.num_sets - 1
        sets = self._sets
        dirty = self._dirty
        write_back = config.write_back
        hits = misses = evictions = writebacks = 0
        last = -1
        for address, write in zip(addresses, writes):
            block = address & line_mask
            if block == last:
                # The block just referenced is resident and its set's
                # replacement state already records this touch (LRU: at
                # the front; FIFO: hits never move; PLRU: the same bits).
                hits += 1
                if write and write_back:
                    dirty.add(block)
                continue
            last = block
            set_state = sets[(address >> offset_bits) & set_mask]
            if set_state.lookup(block):
                hits += 1
            else:
                misses += 1
                if missed is not None:
                    missed.append(address)
                evicted = set_state.insert(block)
                if evicted is not None:
                    evictions += 1
                    if write_back and evicted in dirty:
                        dirty.discard(evicted)
                        writebacks += 1
            if write and write_back:
                dirty.add(block)
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return (
            (hits + misses) * config.hit_cycles
            + misses * config.miss_penalty
            + writebacks * config.effective_writeback_penalty
        )

    def is_dirty(self, address: int) -> bool:
        """True when the block is resident and dirty (write-back mode)."""
        block = self.config.block(address)
        return block in self._dirty and self.contains(block)

    def dirty_blocks(self) -> set[int]:
        """All currently dirty blocks."""
        return set(self._dirty)

    def touch_all(self, addresses: list[int]) -> int:
        """Access every address in order; return the total cycle cost."""
        return sum(self.access(address).cycles for address in addresses)

    def invalidate(self) -> None:
        """Flush the whole cache (cold state); statistics are preserved.

        Dirty contents are discarded without charging writebacks — this
        models a destructive invalidate, not a flush-and-clean.
        """
        for set_state in self._sets:
            set_state.clear()
        self._dirty.clear()

    def invalidate_block(self, address: int) -> bool:
        """Remove one memory block if present; return whether it was there."""
        block = self.config.block(address)
        self._dirty.discard(block)
        return self._sets[self.config.index(block)].remove(block)

    def snapshot(self) -> list[tuple[int, ...]]:
        """Immutable copy of all set contents (for assertions in tests)."""
        return [set_state.resident() for set_state in self._sets]
