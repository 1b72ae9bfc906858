"""Useful memory blocks and the Maximum Useful Memory Blocks Set (MUMBS).

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
preemption occurs.  Points are bit masks over the dataflow's
:class:`~repro.analysis.rmb_lmb.BlockBits`; each distinct mask's bound,
block count and capped dense per-set vector
(:meth:`~repro.analysis.rmb_lmb.RMBLMBResult.dense`) are computed once,
and its blocks are decoded only on demand.  The frozenset reference lives in
``tests/oracles/useful.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from repro.analysis.rmb_lmb import BlockBits, RMBLMBResult
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.obs import profiled
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
    """Useful memory blocks at one execution point, as a set-grouped mask.

    ``bound`` is Lee's reload bound ``sum over sets of min(|useful|, L)``,
    ``count`` the number of useful blocks and ``dense`` the capped
    per-set vector.
    """

    point: ExecutionPoint
    mask: int
    bits: BlockBits
    bound: int
    count: int
    dense: bytes

    @property
    def per_set(self) -> dict[int, frozenset[int]]:
        return self.bits.per_set(self.mask)

    def blocks(self) -> frozenset[int]:
        cached = self.__dict__.get("_blocks")
        if cached is None:
            cached = self.bits.decode(self.mask)
            object.__setattr__(self, "_blocks", cached)
        return cached

    def reload_bound(self) -> int:
        """Lee's bound on reloaded lines for a preemption at this point."""
        return self.bound


@dataclass
class UsefulBlocksAnalysis:
    """Per-execution-point useful blocks for one task, plus the MUMBS."""

    config: CacheConfig
    points: list[UsefulBlocks]

    def max_point(self) -> UsefulBlocks:
        """The first execution point with the largest reload bound (Def. 4),
        ties broken by block count."""
        if not self.points:
            raise ValueError("no execution points analysed")
        cached = getattr(self, "_max_point", None)
        if cached is None:
            cached = max(self.points, key=lambda u: (u.bound, u.count))
            self._max_point = cached
        return cached

    def mumbs(self) -> frozenset[int]:
        """The Maximum Useful Memory Blocks Set ``M̃`` of the task."""
        return self.max_point().blocks()

    def mumbs_ciip(self) -> CIIP:
        return CIIP(config=self.config, groups=self.max_point().per_set)

    def lee_reload_bound(self) -> int:
        """Approach 3's per-preemption reload count for this task."""
        return self.max_point().reload_bound()

    def dense_points(self) -> list[bytes]:
        """The distinct, pointwise non-dominated dense vectors of the
        non-empty points.

        If ``a <= b`` in every set, ``a``'s Equation-4 cost is ``<=``
        ``b``'s against every path row, so maximising over the kept
        vectors equals maximising over every point.  Memoised.
        """
        if "_dense_points" not in self.__dict__:
            sums: dict[bytes, int] = {}
            for point in self.points:
                if point.count:
                    sums.setdefault(point.dense, point.bound)
            # A dominated vector has a strictly smaller sum than its
            # dominator, so one pass in descending-sum order suffices.
            kept: list[bytes] = []
            for vec in sorted(sums, key=sums.__getitem__, reverse=True):
                if not any(all(map(le, vec, other)) for other in kept):
                    kept.append(vec)
            self._dense_points = kept
        return self._dense_points


@profiled("analyze.useful")
def compute_useful_blocks(
    cfg: ControlFlowGraph, dataflow: RMBLMBResult
) -> UsefulBlocksAnalysis:
    """Evaluate useful blocks at every block's entry, exit and within point
    (the within rule reads each node's own references from *dataflow*)."""
    bits = dataflow.bits
    stats: dict[int, tuple[int, int, bytes]] = {}
    points: list[UsefulBlocks] = []

    def add(label: str, position: str, mask: int) -> None:
        known = stats.get(mask)
        if known is None:
            vec = dataflow.dense(mask)
            known = stats[mask] = (sum(vec), bin(mask).count("1"), vec)
        points.append(UsefulBlocks(ExecutionPoint(label, position), mask, bits, *known))

    for label in cfg.labels():
        rmb_in = dataflow.entry_rmb.get(label, 0)
        lmb_out = dataflow.exit_lmb.get(label, 0)
        own = dataflow.own.get(label, 0)
        add(label, "entry", rmb_in & dataflow.entry_lmb.get(label, 0))
        add(label, "exit", dataflow.exit_rmb.get(label, 0) & lmb_out)
        add(label, "within", (rmb_in | own) & (own | lmb_out))
    return UsefulBlocksAnalysis(config=dataflow.config, points=points)
