"""Reference oracle: useful memory blocks as per-set frozenset intersections.

The executable specification of :mod:`repro.analysis.useful`, consuming
the oracle dataflow of :mod:`tests.oracles.rmb_lmb`.  Not used by the
package.

Section IV / Definition 4 of the paper.  A memory block is *useful* at an
execution point ``s`` when it may be resident in the cache at ``s``
(``RMB_s``) and may be re-referenced afterwards (``LMB_s``) — evicting it
during a preemption at ``s`` therefore may force a reload.

Execution points evaluated per basic block ``b``:

* ``entry`` — preemption immediately before ``b``:  ``RMB_in(b) ∩ LMB_in(b)``
* ``exit``  — preemption immediately after ``b``:   ``RMB_out(b) ∩ LMB_out(b)``
* ``within`` — preemption inside ``b``:
  ``(RMB_in ∪ refs(b)) ∩ (refs(b) ∪ LMB_out)`` where ``refs(b)`` are all
  blocks the node references.  Any intra-block point's RMB is contained in
  ``RMB_in ∪ refs(b)`` (a block resident mid-block either survived from
  entry or was brought in by ``b`` itself — possibly evicted again before
  exit, so ``RMB_out`` alone would miss it), and its LMB is contained in
  ``refs(b) ∪ LMB_out`` (upcoming references are the node's remaining ones
  followed by the successors').  This over-approximates every intra-block
  point, including within-block reuse invisible at both boundaries.

Lee's per-preemption reload bound at a point caps each cache set at ``L``
lines, since at most ``L`` blocks of a set can be resident when the
preemption occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

from tests.oracles.rmb_lmb import NodeTraceAggregate, RMBLMBResult, SetStates
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.program.cfg import ControlFlowGraph


@dataclass(frozen=True)
class ExecutionPoint:
    """An execution point: a block label plus a position within it."""

    label: str
    position: str  # "entry", "within" or "exit"

    def __str__(self) -> str:
        return f"{self.position}@{self.label}"


@dataclass(frozen=True)
class UsefulBlocks:
    """Useful memory blocks at one execution point, grouped by cache set."""

    point: ExecutionPoint
    per_set: SetStates
    ways: int

    def blocks(self) -> frozenset[int]:
        cached = self.__dict__.get("_blocks")
        if cached is None:
            merged: set[int] = set()
            for group in self.per_set.values():
                merged.update(group)
            cached = frozenset(merged)
            object.__setattr__(self, "_blocks", cached)
        return cached

    def reload_bound(self) -> int:
        """Lee's bound on reloaded lines for a preemption at this point.

        ``sum over sets of min(|useful per set|, L)`` — at most ``L`` lines
        of one set can be resident, hence evicted-and-reloaded.  Memoised:
        the per-point bound is re-ranked for every preemption pair.
        """
        cached = self.__dict__.get("_reload_bound")
        if cached is None:
            ways = self.ways
            cached = sum(
                min(len(group), ways) for group in self.per_set.values()
            )
            object.__setattr__(self, "_reload_bound", cached)
        return cached


@dataclass
class UsefulBlocksAnalysis:
    """Per-execution-point useful blocks for one task, plus the MUMBS."""

    config: CacheConfig
    points: list[UsefulBlocks]

    def max_point(self) -> UsefulBlocks:
        """The execution point with the largest reload bound (Def. 4)."""
        if not self.points:
            raise ValueError("no execution points analysed")
        cached = getattr(self, "_max_point", None)
        if cached is None:
            cached = max(
                self.points, key=lambda u: (u.reload_bound(), len(u.blocks()))
            )
            self._max_point = cached
        return cached

    def mumbs(self) -> frozenset[int]:
        """The Maximum Useful Memory Blocks Set ``M̃`` of the task."""
        return self.max_point().blocks()

    def mumbs_ciip(self) -> CIIP:
        return CIIP.from_addresses(self.config, self.mumbs())

    def lee_reload_bound(self) -> int:
        """Approach 3's per-preemption reload count for this task."""
        return self.max_point().reload_bound()


def _intersect(a: SetStates, b: SetStates, config: CacheConfig) -> SetStates:
    # Probe the larger mapping with the smaller one's keys instead of
    # materialising both key sets.
    if len(a) > len(b):
        a, b = b, a
    lookup = b.get
    result: SetStates = {}
    for index, group in a.items():
        other = lookup(index)
        if other is None:
            continue
        common = group & other
        if common:
            result[index] = frozenset(common)
    return result


def _union(a: SetStates, b: SetStates) -> SetStates:
    result: dict[int, set[int]] = {index: set(blocks) for index, blocks in a.items()}
    for index, blocks in b.items():
        result.setdefault(index, set()).update(blocks)
    return {index: frozenset(blocks) for index, blocks in result.items()}


def _node_refs_by_set(
    aggregate: NodeTraceAggregate | None, config: CacheConfig, label: str
) -> SetStates:
    if aggregate is None:
        return {}
    refs: dict[int, set[int]] = {}
    for block in aggregate.refs(label).blocks():
        refs.setdefault(config.index(block), set()).add(block)
    return {index: frozenset(blocks) for index, blocks in refs.items()}


def compute_useful_blocks(
    cfg: ControlFlowGraph,
    dataflow: RMBLMBResult,
    aggregate: NodeTraceAggregate | None = None,
    include_within: bool = True,
) -> UsefulBlocksAnalysis:
    """Evaluate useful blocks at every block entry/exit (+ within) point.

    ``aggregate`` supplies each node's own references for the ``within``
    points; without it the within points fall back to the boundary unions
    (sound only for nodes whose references survive to the exit).
    """
    config = dataflow.config
    points: list[UsefulBlocks] = []
    for label in cfg.labels():
        entry = _intersect(
            dataflow.entry_rmb.get(label, {}),
            dataflow.entry_lmb.get(label, {}),
            config,
        )
        points.append(
            UsefulBlocks(
                point=ExecutionPoint(label, "entry"),
                per_set=entry,
                ways=config.ways,
            )
        )
        exit_useful = _intersect(
            dataflow.exit_rmb.get(label, {}),
            dataflow.exit_lmb.get(label, {}),
            config,
        )
        points.append(
            UsefulBlocks(
                point=ExecutionPoint(label, "exit"),
                per_set=exit_useful,
                ways=config.ways,
            )
        )
        if include_within:
            own_refs = _node_refs_by_set(aggregate, config, label)
            if own_refs or aggregate is not None:
                rmb_side = _union(dataflow.entry_rmb.get(label, {}), own_refs)
                lmb_side = _union(own_refs, dataflow.exit_lmb.get(label, {}))
            else:
                rmb_side = _union(
                    dataflow.entry_rmb.get(label, {}),
                    dataflow.exit_rmb.get(label, {}),
                )
                lmb_side = _union(
                    dataflow.entry_lmb.get(label, {}),
                    dataflow.exit_lmb.get(label, {}),
                )
            within = _intersect(rmb_side, lmb_side, config)
            points.append(
                UsefulBlocks(
                    point=ExecutionPoint(label, "within"),
                    per_set=within,
                    ways=config.ways,
                )
            )
    return UsefulBlocksAnalysis(config=config, points=points)
