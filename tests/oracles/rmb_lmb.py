"""Reference oracle: the frozenset RMB / LMB dataflow (Lee-style).

The executable specification that :mod:`repro.analysis.rmb_lmb` (bit
masks over set-grouped blocks) is checked against by
``tests/test_flow_equivalence.py``: ``dict[set index -> frozenset]``
states pushed through a LIFO worklist, one transfer per (node, set,
visit variant).  Not used by the package.  :func:`node_visit_sequences`
and :func:`every_visit_aggregate` keep *every* node visit as blocks,
duplicates included (:class:`NodeTraceAggregate`): the every-visit
reference the package's key-id view
(:class:`~repro.vm.trace.TraceView`), which keeps each distinct visit
once, is checked against.

Section IV of the paper, following Lee et al. [21]:

* The **reaching memory blocks** ``RMB_s^i`` of cache set ``cs(i)`` at
  execution point ``s`` are all memory blocks that *may* reside in the set
  when the task reaches ``s`` — i.e. blocks that may be among the last ``L``
  distinct references to the set on some path reaching ``s``.
* The **living memory blocks** ``LMB_s^i`` are all blocks that may be among
  the first ``L`` distinct references to the set *after* ``s``.

Their per-set intersection is the superset of blocks whose eviction during
a preemption at ``s`` forces a reload — the *useful memory blocks*.

Both analyses are "may" analyses solved by a worklist fixpoint over the
task CFG.  Per-node reference sequences come from trace aggregation
(:class:`NodeTraceAggregate`); when a node issued identical
reference sequences on every observed visit we apply strong updates (an
``>= L``-distinct reference sequence fully determines the set contents
under LRU), otherwise we fall back to conservative weak updates, keeping
the sets supersets of reality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import and_, ne
from typing import Iterable, Mapping, Sequence

from repro.analysis import rmb_lmb as package
from repro.cache.config import CacheConfig
from repro.program.cfg import ControlFlowGraph
from repro.vm.trace import CompactTrace, TraceEvents, Visit, distinct_visits

BlockSet = frozenset[int]
SetStates = dict[int, BlockSet]  # cache-set index -> blocks


def node_visit_sequences(
    trace: "CompactTrace | TraceEvents", config: CacheConfig
) -> dict[str, list[tuple[int, ...]]]:
    """Per node, the block-reference sequence of every visit, in order.

    A *visit* is a maximal run of consecutive references issued by the
    same node (read from the trace's per-event columns); repeated visits
    are all kept.
    """
    if isinstance(trace, CompactTrace):
        trace = trace.expand()
    ids = trace.node_ids
    if not ids:
        return {}
    blocks = list(map(and_, trace.addresses, repeat(-config.line_size)))
    cuts = compress(count(1), map(ne, ids, islice(ids, 1, None)))
    table = trace.node_table
    visits: dict[str, list[tuple[int, ...]]] = {}
    start = 0
    for end in chain(cuts, (len(ids),)):
        visits.setdefault(table[ids[start]], []).append(tuple(blocks[start:end]))
        start = end
    return visits


@dataclass(frozen=True)
class NodeRefs:
    """One CFG node's visits: the block sequence of each, in order."""

    label: str
    visit_sequences: tuple[tuple[int, ...], ...]

    def blocks(self) -> frozenset[int]:
        """All blocks referenced by any visit of this node."""
        return frozenset(chain.from_iterable(self.visit_sequences))


@dataclass
class NodeTraceAggregate:
    """Per-node block visits merged across one or more recorded runs."""

    config: CacheConfig
    node_refs: dict[str, NodeRefs] = field(default_factory=dict)

    def refs(self, label: str) -> NodeRefs:
        """Reference info for *label*; empty if the node never executed."""
        return self.node_refs.get(label, NodeRefs(label=label, visit_sequences=()))

    def keyed_visits(self) -> tuple[dict[str, tuple[Visit, ...]], list[int]]:
        """Each node's distinct visits as ids into a block table, and the
        table (ids in first-seen order): the package solver's input."""
        table: dict[int, int] = {}
        visits = {}
        for label, refs in self.node_refs.items():
            runs = dict.fromkeys(
                tuple(table.setdefault(block, len(table)) for block in sequence)
                for sequence in refs.visit_sequences
            )
            visits[label] = distinct_visits(runs)
        return visits, list(table)


def every_visit_aggregate(
    config: CacheConfig, traces: "Iterable[CompactTrace | TraceEvents]"
) -> NodeTraceAggregate:
    """The per-node aggregate of *traces* with every visit kept."""
    visits: dict[str, list[tuple[int, ...]]] = {}
    for trace in traces:
        for node, sequences in node_visit_sequences(trace, config).items():
            visits.setdefault(node, []).extend(sequences)
    return NodeTraceAggregate(
        config=config,
        node_refs={
            label: NodeRefs(label=label, visit_sequences=tuple(sequences))
            for label, sequences in visits.items()
        },
    )


def package_solve(
    cfg: ControlFlowGraph, aggregate: NodeTraceAggregate, config: CacheConfig
) -> "package.RMBLMBResult":
    """The package's mask solver on *aggregate*'s block visits."""
    visits, blocks = aggregate.keyed_visits()
    return package.solve_rmb_lmb(cfg, visits, config, blocks)


def per_node_blocks(aggregate: NodeTraceAggregate) -> dict[str, frozenset[int]]:
    """The blocks each node of *aggregate* referenced on any visit."""
    return {label: refs.blocks() for label, refs in aggregate.node_refs.items()}


def footprint(aggregate: NodeTraceAggregate) -> frozenset[int]:
    """Union of all blocks referenced by all nodes (the task's M)."""
    return frozenset().union(*per_node_blocks(aggregate).values())


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
class _NodeSetRefs:
    """Per-node, per-cache-set reference sequences (unique visit variants)."""

    variants: tuple[tuple[int, ...], ...]

    @property
    def touches(self) -> bool:
        return any(self.variants)


def _node_set_refs(
    aggregate: NodeTraceAggregate, config: CacheConfig, label: str
) -> dict[int, _NodeSetRefs]:
    """Split a node's visit sequences by cache-set index."""
    refs = aggregate.refs(label)
    visits = [
        _filter_by_set(visit, config) for visit in set(refs.visit_sequences)
    ]
    all_indices: set[int] = set()
    for filtered in visits:
        all_indices.update(filtered)
    per_set: dict[int, _NodeSetRefs] = {}
    for index in all_indices:
        # A visit that does not touch a set is still a behaviour variant for
        # that set (its transfer is the identity), hence the () default.
        variants = {filtered.get(index, ()) for filtered in visits}
        per_set[index] = _NodeSetRefs(variants=tuple(sorted(variants)))
    return per_set


def _filter_by_set(
    visit: tuple[int, ...], config: CacheConfig
) -> dict[int, tuple[int, ...]]:
    filtered: dict[int, list[int]] = {}
    for block in visit:
        filtered.setdefault(config.index(block), []).append(block)
    return {index: tuple(blocks) for index, blocks in filtered.items()}


def _transfer_rmb(
    state: BlockSet, sequence: tuple[int, ...], ways: int, lru: bool
) -> BlockSet:
    """Forward transfer of one visit variant over one cache set.

    LRU permits strong updates: >= L distinct references fully determine
    the set contents.  For other policies (FIFO/PLRU) only the weak,
    accumulate-everything update is sound.
    """
    if not sequence:
        return state
    if not lru:
        return state | frozenset(sequence)
    recent = last_distinct(sequence, ways)
    if len(recent) >= ways:
        return frozenset(recent)
    # Fewer than L distinct references: new blocks enter, incoming blocks
    # may survive (weak, superset-of-reality update).
    return state | frozenset(recent)


def _transfer_lmb(
    state: BlockSet, sequence: tuple[int, ...], ways: int, lru: bool
) -> BlockSet:
    """Backward transfer of one visit variant over one cache set.

    The "first L distinct references" truncation encodes that later
    references would miss anyway under LRU; without LRU no such truncation
    is sound, so everything referenced afterwards stays living.
    """
    if not sequence:
        return state
    if not lru:
        return state | frozenset(sequence)
    upcoming = first_distinct(sequence, ways)
    if len(upcoming) >= ways:
        return frozenset(upcoming)
    return state | frozenset(upcoming)


@dataclass
class RMBLMBResult:
    """Fixpoint solution of both analyses at block entry and exit points.

    Each mapping is ``label -> {cache-set index -> frozenset(blocks)}``;
    absent set indices mean the empty set.
    """

    config: CacheConfig
    entry_rmb: dict[str, SetStates]
    exit_rmb: dict[str, SetStates]
    entry_lmb: dict[str, SetStates]
    exit_lmb: dict[str, SetStates]

    def rmb_at_entry(self, label: str, index: int) -> BlockSet:
        return self.entry_rmb.get(label, {}).get(index, frozenset())

    def rmb_at_exit(self, label: str, index: int) -> BlockSet:
        return self.exit_rmb.get(label, {}).get(index, frozenset())

    def lmb_at_entry(self, label: str, index: int) -> BlockSet:
        return self.entry_lmb.get(label, {}).get(index, frozenset())

    def lmb_at_exit(self, label: str, index: int) -> BlockSet:
        return self.exit_lmb.get(label, {}).get(index, frozenset())


def _merge(states: list[SetStates]) -> SetStates:
    merged: dict[int, set[int]] = {}
    for state in states:
        for index, blocks in state.items():
            merged.setdefault(index, set()).update(blocks)
    return {index: frozenset(blocks) for index, blocks in merged.items()}


def _apply_node(
    in_state: SetStates,
    node_refs: Mapping[int, _NodeSetRefs],
    ways: int,
    transfer,
    lru: bool,
) -> SetStates:
    out: SetStates = dict(in_state)
    for index, refs in node_refs.items():
        if not refs.touches:
            continue
        incoming = in_state.get(index, frozenset())
        result: set[int] = set()
        for variant in refs.variants:
            result.update(transfer(incoming, variant, ways, lru))
        out[index] = frozenset(result)
    return out


def solve_rmb_lmb(
    cfg: ControlFlowGraph,
    aggregate: NodeTraceAggregate,
    config: CacheConfig,
) -> RMBLMBResult:
    """Solve both dataflow problems for one task.

    The RMB analysis starts from an empty cache at the task entry (the
    task's own blocks cannot already be useful when it starts); the LMB
    analysis starts from the empty set at every Halt block (nothing is
    referenced after completion of the run).
    """
    ways = config.ways
    lru = config.policy == "lru"
    labels = list(cfg.labels())
    node_refs = {label: _node_set_refs(aggregate, config, label) for label in labels}
    preds = cfg.predecessor_map()
    succs = {label: cfg.successors(label) for label in labels}

    # Forward RMB fixpoint ------------------------------------------------
    entry_rmb: dict[str, SetStates] = {label: {} for label in labels}
    exit_rmb: dict[str, SetStates] = {
        label: _apply_node({}, node_refs[label], ways, _transfer_rmb, lru)
        for label in labels
    }
    worklist = list(labels)
    while worklist:
        label = worklist.pop()
        in_state = _merge([exit_rmb[p] for p in preds[label]])
        if in_state == entry_rmb[label]:
            continue
        entry_rmb[label] = in_state
        out_state = _apply_node(in_state, node_refs[label], ways, _transfer_rmb, lru)
        if out_state != exit_rmb[label]:
            exit_rmb[label] = out_state
            worklist.extend(succs[label])

    # Backward LMB fixpoint ------------------------------------------------
    exit_lmb: dict[str, SetStates] = {label: {} for label in labels}
    entry_lmb: dict[str, SetStates] = {
        label: _apply_node({}, node_refs[label], ways, _transfer_lmb, lru)
        for label in labels
    }
    worklist = list(labels)
    while worklist:
        label = worklist.pop()
        out_state = _merge([entry_lmb[s] for s in succs[label]])
        if out_state == exit_lmb[label]:
            continue
        exit_lmb[label] = out_state
        in_state = _apply_node(out_state, node_refs[label], ways, _transfer_lmb, lru)
        if in_state != entry_lmb[label]:
            entry_lmb[label] = in_state
            worklist.extend(preds[label])

    return RMBLMBResult(
        config=config,
        entry_rmb=entry_rmb,
        exit_rmb=exit_rmb,
        entry_lmb=entry_lmb,
        exit_lmb=exit_lmb,
    )
