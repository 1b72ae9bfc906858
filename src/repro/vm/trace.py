"""Memory-reference traces and the block view every analysis reads.

The paper derives "the memory trace of each task with the simulation method
as used in SYMTA" (Section III-B).  The VM records every code fetch and data
access it issues into :class:`TraceColumns`, whose :class:`CompactTrace` is
the one trace type every analysis and report reads.  A :class:`TraceView`
keeps a task's traces as key ids and a per-key block table: its streams
give the cache counts and its visits, each distinct node visit once
(:func:`distinct_visits`), the RMB/LMB flow, at the recorded placement
(a cold run) or at any placement a move by whole lines reaches.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice, repeat
from operator import and_, ne
from typing import Iterable, Mapping, Sequence

from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.obs import STATE as _OBS


#: CompactTrace kind codes: a code fetch, a data read, a data write.
_KIND_CODES = {"code": 0, "read": 1, "write": 2}
#: ``bytes.translate`` table turning kind codes into write flags.
_WRITE_FLAGS = bytes(1 if code == _KIND_CODES["write"] else 0 for code in range(256))


@dataclass(frozen=True)
class CompactTrace:
    """One run's memory references in columnar form.

    The VM's control flow is purely data-dependent — cache state only ever
    changes cycle *counts* — so the reference stream of a scenario is
    invariant across cache configurations.  That makes it the natural unit
    of cross-configuration reuse.  The stream is stored as three parallel
    columns (8-byte addresses, 1-byte kinds, 4-byte node-table indices),
    which pickle as a few flat byte buffers, not one object per reference:
    what makes shipping traces to pool workers and the artifact store
    affordable.

    Control flow never reads an address either, so the stream is also
    invariant across *placements* up to a per-region shift.  Every trace
    carries a fourth column, ``regions``: the index, in
    :meth:`~repro.program.layout.ProgramLayout.region_spans` order, of
    the region (code, or the array touched) each event falls in.
    :meth:`relocated` then moves it to any other placement in O(events).
    """

    addresses: array  # typecode "Q"
    kinds: bytes  # one _KIND_CODES byte per event
    node_table: tuple[str, ...]
    node_ids: array  # typecode "I", indices into node_table
    regions: array  # typecode "H"

    def relocated(self, deltas: Sequence[int]) -> "CompactTrace":
        """This trace with region *r*'s events shifted by ``deltas[r]``.

        Exact: the VM would issue the shifted stream at the shifted
        placement (see :meth:`~repro.program.layout.ProgramLayout.region_spans`).
        Returns ``self`` when nothing moves.
        """
        if not any(deltas):
            return self
        if _OBS.enabled:
            _OBS.metrics.counter("trace.relocations").inc()
        addresses = array(
            "Q", [address + deltas[region]
                  for address, region in zip(self.addresses, self.regions)]
        )
        return replace(self, addresses=addresses)

    def replay(self, cache) -> int:
        """Drive every reference through *cache* in order; return the
        cycles charged.

        Derives hit/miss/writeback counts straight from the columns — for
        a fresh VM run, a new geometry or a new placement alike.
        """
        return cache.access_stream(
            self.addresses, self.kinds.translate(_WRITE_FLAGS)
        )

    def __len__(self) -> int:
        return len(self.kinds)


class TraceColumns:
    """The columns of a :class:`CompactTrace` under construction.

    What the VM records into (:class:`~repro.vm.machine.Machine`): flat
    address, kind, node-id and region columns, and the node table in
    first-appearance order.  No per-event objects are built;
    :meth:`compact` is a copy of the columns.
    """

    __slots__ = ("addresses", "kinds", "node_ids", "node_table", "regions", "_runs")

    def __init__(self):
        self.addresses = array("Q")
        self.kinds = bytearray()
        self.node_ids = array("I")
        self.node_table: dict[str, int] = {}
        self.regions = array("H")
        self._runs: dict[tuple[str, int], array] = {}

    def node_id(self, label: str) -> int:
        """*label*'s index in the node table (added on first sight)."""
        return self.node_table.setdefault(label, len(self.node_table))

    def node_run(self, label: str, length: int) -> array:
        """*length* copies of *label*'s node id (one block visit's ids)."""
        key = (label, length)
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = array("I", [self.node_id(label)]) * length
        return run

    def append(self, address: int, kind: int, label: str, region: int) -> None:
        """Record one reference (kind code, :data:`_KIND_CODES`)."""
        self.addresses.append(address)
        self.kinds.append(kind)
        self.node_ids.append(self.node_id(label))
        self.regions.append(region)

    def extend(self, other: "TraceColumns") -> None:
        """Append *other*'s columns; its node ids index this table."""
        self.addresses += other.addresses
        self.kinds += other.kinds
        self.node_ids += other.node_ids
        self.regions += other.regions

    def compact(self) -> CompactTrace:
        """The recorded columns as a :class:`CompactTrace` (copied, so
        recording may continue)."""
        return CompactTrace(
            addresses=self.addresses[:],
            kinds=bytes(self.kinds),
            node_table=tuple(self.node_table),
            node_ids=self.node_ids[:],
            regions=self.regions[:],
        )


#: One node visit as the RMB/LMB transfer reads it: its distinct key ids
#: (of a :class:`TraceView`) in first-use order, and the run itself for
#: the rare set that one visit over-fills.
Visit = tuple[tuple[int, ...], tuple[int, ...]]


def distinct_visits(runs: Iterable[tuple[int, ...]]) -> tuple[Visit, ...]:
    """Each of *runs* as ``(its distinct values in first-use order, run)``."""
    visits = []
    for run in runs:
        distinct = tuple(dict.fromkeys(run))
        # A run that repeats nothing is its own distinct tuple: share it.
        visits.append((run if len(distinct) == len(run) else distinct, run))
    return tuple(visits)


class _KeyIds(dict):
    """Key -> id, a new key named on first sight (in C for known keys)."""

    __slots__ = ()

    def __missing__(self, key):
        self[key] = new = len(self)
        return new


class TraceView:
    """Relocatable traces as a per-block table: what every analysis reads.

    An event's *key* is the ``(block, region)`` it touches at region
    *bases* (two regions may share a block there, and part elsewhere).
    The recorded placement and any move by whole lines from it are one
    table of blocks, O(footprint):
    ``streams`` holds each scenario's key ids minus reads and fetches
    that repeat the previous id (hits that change no cache state under
    any policy), their write flags, and how many were dropped; ``visits``
    holds each node's distinct key-id runs as :func:`distinct_visits`,
    which the RMB/LMB solver reads through :meth:`moved` at any
    placement of the class (no block-level visit is built)."""

    __slots__ = ("bases", "keys", "streams", "visits")

    def __init__(self, traces: Mapping[str, CompactTrace], line_size: int, bases):
        if _OBS.enabled:
            _OBS.metrics.counter("trace.views_built").inc()
        self.bases = tuple(bases)
        index = _KeyIds()
        self.streams: dict[str, tuple[array, bytes, int]] = {}
        visits: dict[str, dict[tuple[int, ...], None]] = {}
        for name, trace in traces.items():
            blocks = map(and_, trace.addresses, repeat(-line_size))
            ids = tuple(map(index.__getitem__, zip(blocks, trace.regions)))
            writes = trace.kinds.translate(_WRITE_FLAGS)
            # Keep an event unless it repeats the previous id and is no
            # write: the two flag strings OR-ed as integers.
            fresh = bytes(map(ne, ids, chain((-1,), ids)))
            keep = (
                int.from_bytes(fresh, "little") | int.from_bytes(writes, "little")
            ).to_bytes(len(ids), "little")
            stream = array("I", compress(ids, keep))
            self.streams[name] = (
                stream, bytes(compress(writes, keep)), len(ids) - len(stream)
            )
            # Each node visit (a maximal run of one node's events) once.
            nodes, table, start = trace.node_ids, trace.node_table, 0
            cuts = compress(count(1), map(ne, nodes, islice(nodes, 1, None)))
            for end in chain(cuts, (len(ids),) if ids else ()):
                visits.setdefault(table[nodes[start]], {})[ids[start:end]] = None
                start = end
        self.keys = list(index)
        self.visits = {
            label: distinct_visits(runs) for label, runs in visits.items()
        }

    def moved(self, bases: Sequence[int]) -> list[int]:
        """Each key's block at region *bases* (whole lines from ours)."""
        deltas = [new - old for new, old in zip(bases, self.bases)]
        return [block + deltas[region] for block, region in self.keys]

    def counts(self, bases: Sequence[int], config: CacheConfig) -> dict:
        """Each scenario's ``(accesses, misses, writebacks)`` from a cold
        *config* cache at *bases*; the dropped repeats count as hits."""
        moved = self.moved(bases)
        counts = {}
        for scenario, (stream, writes, dropped) in self.streams.items():
            cache = CacheState(config)
            cache.access_stream(map(moved.__getitem__, stream), writes)
            stats = cache.stats
            counts[scenario] = (
                stats.hits + stats.misses + dropped, stats.misses, stats.writebacks
            )
        return counts
