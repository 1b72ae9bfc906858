"""Lee-style intra-task cache access analysis: RMB / LMB dataflow.

Section IV of the paper, following Lee et al. [21]:

* The **reaching memory blocks** ``RMB_s^i`` of cache set ``cs(i)`` at
  execution point ``s`` are all memory blocks that *may* reside in the set
  when the task reaches ``s`` — i.e. blocks that may be among the last ``L``
  distinct references to the set on some path reaching ``s``.
* The **living memory blocks** ``LMB_s^i`` are all blocks that may be among
  the first ``L`` distinct references to the set *after* ``s``.

Their per-set intersection is the superset of blocks whose eviction during
a preemption at ``s`` forces a reload — the *useful memory blocks*.

Both are "may" analyses over the task CFG.  Cache sets never interact,
so block sets are ``int`` masks over the footprint numbered in ``(set
index, block)`` order (:class:`BlockBits`): each set is one contiguous
bit slice, and all sets are solved at once.  Each node's transfer is
``out = gen | (in & keep)``, built once from its distinct visits
(:func:`~repro.vm.trace.distinct_visits`).  Under LRU ``gen`` holds each
visit's last (RMB) / first (LMB) ``L`` distinct blocks per set, and
``keep`` clears a set's slice only when *every* visit references ``>= L``
distinct blocks of it — they fully determine the set (a strong update);
otherwise incoming blocks survive (a weak update, a superset of reality).
FIFO/PLRU admit no truncation: ``gen`` is every reference, nothing is
killed.

Visits arrive as ids with a per-call table from id to block: the key
ids of a :class:`~repro.vm.trace.TraceView` and their blocks at the
analysed placement (:meth:`~repro.vm.trace.TraceView.moved`), the same
for a cold run, a geometry edit and a layout move.  The frozenset
oracle and the every-visit aggregate that feeds it live in
``tests/oracles/rmb_lmb.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.cache.config import CacheConfig
from repro.obs import profiled
from repro.program.cfg import ControlFlowGraph
from repro.vm.trace import Visit, distinct_visits


def last_distinct(sequence: Sequence[int], limit: int) -> tuple[int, ...]:
    """The last *limit* distinct values of *sequence*, most recent first."""
    seen: list[int] = []
    for value in reversed(sequence):
        if value not in seen:
            seen.append(value)
            if len(seen) == limit:
                break
    return tuple(seen)


def first_distinct(sequence: Sequence[int], limit: int) -> tuple[int, ...]:
    """The first *limit* distinct values of *sequence*, in first-use order."""
    seen: list[int] = []
    for value in sequence:
        if value not in seen:
            seen.append(value)
            if len(seen) == limit:
                break
    return tuple(seen)


@dataclass(frozen=True)
class BlockBits:
    """One bit per footprint block, the blocks of each cache set contiguous.

    ``blocks[bit]`` is the block at *bit*, ``sets[bit]`` its cache-set
    index, and ``slices[index]`` the ``(start, stop)`` bit range of one
    set.  :meth:`number` is the one place a block is mapped to its set;
    masks decode to blocks only on demand.
    """

    blocks: tuple[int, ...]
    sets: tuple[int, ...]
    slices: dict[int, tuple[int, int]]

    @classmethod
    def number(cls, config: CacheConfig, blocks: Iterable[int]) -> "BlockBits":
        shift, last = config.offset_bits, config.num_sets - 1
        ordered = sorted(((block >> shift) & last, block) for block in blocks)
        sets = tuple(index for index, _ in ordered)
        slices: dict[int, tuple[int, int]] = {}
        start = 0
        for index, stop in {index: bit + 1 for bit, index in enumerate(sets)}.items():
            slices[index] = (start, stop)
            start = stop
        return cls(
            blocks=tuple(block for _, block in ordered), sets=sets, slices=slices
        )

    @property
    def full(self) -> int:
        """The mask of every footprint block."""
        return (1 << len(self.blocks)) - 1

    def ones(self, mask: int) -> Iterator[int]:
        """Bit positions set in *mask*, ascending."""
        digits = bin(mask)[:1:-1]  # least significant bit first
        bit = digits.find("1")
        while bit >= 0:
            yield bit
            bit = digits.find("1", bit + 1)

    def decode(self, mask: int) -> frozenset[int]:
        blocks = self.blocks
        return frozenset(blocks[bit] for bit in self.ones(mask))

    def decode_set(self, mask: int, index: int) -> frozenset[int]:
        """The blocks of cache set *index* in *mask*."""
        start, stop = self.slices.get(index, (0, 0))
        return self.decode(mask & ((1 << stop) - (1 << start)))

    def per_set(self, mask: int) -> dict[int, frozenset[int]]:
        """``{set index: blocks}`` of *mask*, non-empty sets only."""
        groups: dict[int, set[int]] = {}
        for bit in self.ones(mask):
            groups.setdefault(self.sets[bit], set()).add(self.blocks[bit])
        return {index: frozenset(group) for index, group in groups.items()}


@dataclass
class RMBLMBResult:
    """Fixpoint solution of both analyses at block entry and exit points.

    Each mapping is ``label -> mask`` over :attr:`bits`; ``own`` is each
    node's referenced blocks.  The accessors decode one set's blocks, and
    :meth:`dense` gives a mask's capped per-set vector.
    """

    config: CacheConfig
    bits: BlockBits
    own: dict[str, int]
    entry_rmb: dict[str, int]
    exit_rmb: dict[str, int]
    entry_lmb: dict[str, int]
    exit_lmb: dict[str, int]

    def dense(self, mask: int) -> bytes:
        """The capped per-set vector of *mask*: ``num_sets`` bytes, entry
        ``r`` the number of *mask*'s blocks in set ``r`` capped at ``L``.

        Every per-set vector of the CRPD chain (footprint, useful points,
        path rows) comes from here; Eqs. 2-4 read nothing else.
        """
        vec = bytearray(self.config.num_sets)
        ways = self.config.ways
        for index, (start, stop) in self.bits.slices.items():
            count = bin(mask >> start & (1 << stop - start) - 1).count("1")
            if count:
                vec[index] = count if count < ways else ways
        return bytes(vec)

    def rmb_at_entry(self, label: str, index: int) -> frozenset[int]:
        return self.bits.decode_set(self.entry_rmb.get(label, 0), index)

    def rmb_at_exit(self, label: str, index: int) -> frozenset[int]:
        return self.bits.decode_set(self.exit_rmb.get(label, 0), index)

    def lmb_at_entry(self, label: str, index: int) -> frozenset[int]:
        return self.bits.decode_set(self.entry_lmb.get(label, 0), index)

    def lmb_at_exit(self, label: str, index: int) -> frozenset[int]:
        return self.bits.decode_set(self.exit_lmb.get(label, 0), index)


def _reverse_postorder(cfg: ControlFlowGraph, labels: Sequence[str]) -> list[str]:
    """Labels in reverse postorder from the entry; unreachable ones last."""
    seen = {cfg.entry}
    postorder: list[str] = []
    stack = [(cfg.entry, iter(cfg.successors(cfg.entry)))]
    while stack:
        label, successors = stack[-1]
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(cfg.successors(succ))))
                break
        else:
            stack.pop()
            postorder.append(label)
    postorder.reverse()
    return postorder + [label for label in labels if label not in seen]


def _fixpoint(
    order: list[int], sources: list[list[int]], gen: list[int], keep: list[int]
) -> tuple[list[int], list[int]]:
    """Least fixpoint of ``out = gen | (OR of sources' out & keep)``.

    Round-robin in *order* from bottom: monotone transfers make this the
    same least fixpoint any chaotic iteration reaches.  Returns the merged
    inputs and the outputs, index-aligned with *gen*.
    """
    merged = [0] * len(gen)
    out = list(gen)
    changed = True
    while changed:
        changed = False
        for node in order:
            incoming = 0
            for source in sources[node]:
                incoming |= out[source]
            merged[node] = incoming
            result = gen[node] | (incoming & keep[node])
            if result != out[node]:
                out[node] = result
                changed = True
    return merged, out


@profiled("analyze.dataflow")
def solve_rmb_lmb(
    cfg: ControlFlowGraph,
    visits: Mapping[str, Sequence[Visit]],
    config: CacheConfig,
    blocks: Sequence[int],
) -> RMBLMBResult:
    """Solve both dataflow problems for one task.

    *visits* maps each executed node to its distinct visits, whose ids
    index *blocks* (a view's key ids and
    :meth:`~repro.vm.trace.TraceView.moved`).  Where two ids share a
    block the visits are re-read with one id per block.

    The RMB analysis starts from an empty cache at the task entry (the
    task's own blocks cannot already be useful when it starts); the LMB
    analysis starts from the empty set at every Halt block (nothing is
    referenced after completion of the run).
    """
    ways = config.ways
    lru = config.policy == "lru"
    labels = cfg.labels()
    variants = [visits.get(label, ()) for label in labels]
    footprint = set(blocks)
    if len(footprint) < len(blocks):
        first: dict[int, int] = {}
        one_id = [first.setdefault(block, key) for key, block in enumerate(blocks)]
        variants = [
            distinct_visits(tuple(map(one_id.__getitem__, run)) for _, run in node)
            for node in variants
        ]
    bits = BlockBits.number(config, footprint)
    bit_of = {block: 1 << bit for bit, block in enumerate(bits.blocks)}
    set_of = dict(zip(bits.blocks, bits.sets))
    # id -> bit and set, one list lookup each
    bit = list(map(bit_of.__getitem__, blocks)).__getitem__
    set_index = list(map(set_of.__getitem__, blocks)).__getitem__

    def mask_of(distinct: Iterable[int]) -> int:
        return sum(map(bit, distinct))

    slice_of = {
        index: (1 << stop) - (1 << start)
        for index, (start, stop) in bits.slices.items()
    }
    full = bits.full
    own, gen_rmb, gen_lmb, keep = [], [], [], []
    for node in variants:
        referenced = recent = upcoming = 0
        # Slices every visit so far strongly updates; none without visits.
        strong = full if node and lru else 0
        for distinct, run in node:
            mask = sum(map(bit, distinct))  # distinct bits: the sum is the OR
            referenced |= mask
            if not lru:
                continue
            if not strong:
                if not mask & ~(recent & upcoming):
                    # Each gen is a subset of its visit's mask and strong
                    # only shrinks: this visit changes nothing.
                    continue
                if len(distinct) - len(set(map(set_index, distinct))) < ways:
                    # No set holds more than L of the distinct blocks:
                    # each keeps all of them.
                    recent |= mask
                    upcoming |= mask
                    continue
            counts = Counter(map(set_index, distinct))
            if max(counts.values()) <= ways:
                recent |= mask  # every set keeps all its blocks
                upcoming |= mask
            else:
                by_set: dict[int, list[int]] = {}
                for key in run:
                    by_set.setdefault(set_index(key), []).append(key)
                for sequence in by_set.values():
                    recent |= mask_of(last_distinct(sequence, ways))
                    upcoming |= mask_of(first_distinct(sequence, ways))
            if strong:
                strong &= sum(
                    slice_of[index] for index, n in counts.items() if n >= ways
                )
        own.append(referenced)
        gen_rmb.append(recent if lru else referenced)
        gen_lmb.append(upcoming if lru else referenced)
        keep.append(full ^ strong)

    position = {label: node for node, label in enumerate(labels)}
    preds_map = cfg.predecessor_map()
    preds = [[position[p] for p in preds_map[label]] for label in labels]
    succs = [[position[s] for s in cfg.successors(label)] for label in labels]
    order = [position[label] for label in _reverse_postorder(cfg, labels)]
    entry_rmb, exit_rmb = _fixpoint(order, preds, gen_rmb, keep)
    exit_lmb, entry_lmb = _fixpoint(order[::-1], succs, gen_lmb, keep)
    return RMBLMBResult(
        config=config,
        bits=bits,
        own=dict(zip(labels, own)),
        entry_rmb=dict(zip(labels, entry_rmb)),
        exit_rmb=dict(zip(labels, exit_rmb)),
        entry_lmb=dict(zip(labels, entry_lmb)),
        exit_lmb=dict(zip(labels, exit_lmb)),
    )
