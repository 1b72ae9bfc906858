"""Reference oracle: the per-event trace recorder and block view.

The executable specification of the block-visit trace
(:class:`repro.vm.trace.CompactTrace`) and its view
(:class:`repro.vm.trace.TraceView`):

* :class:`TraceColumns` records one address, kind, node and region per
  event, the way the VM recorded before traces became block visits;
  :class:`RecordingMachine` records every reference its ``step()``
  issues into them (and appends the expansion of what ``run()``
  records), so a stepped run is the per-event reference of a
  ``run()``'s block visits.
* :func:`block_trace` is the converse: per-event columns as block
  visits, one template per maximal node run, so hand-built event lists
  reach the package's view.
* :func:`relocated` moves every event of per-event columns by its
  region's delta: the per-event layout move.
* :class:`EventView` names every event's ``(block, region)`` key one by
  one, the view's reference; :func:`by_keys` puts either view in a form
  that does not depend on how key ids are numbered.

Not used by the package.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from itertools import chain, compress, count, islice, repeat
from operator import and_, ne
from typing import Mapping, Sequence

from repro.vm.machine import Machine
from repro.vm.trace import (
    _WRITE_FLAGS,
    CompactTrace,
    TraceEvents,
    TraceRecorder,
    distinct_visits,
)


class TraceColumns:
    """Per-event columns under construction: one address, kind code,
    node-table index and region per reference, the node table in
    first-appearance order."""

    __slots__ = ("addresses", "kinds", "node_ids", "node_table", "regions")

    def __init__(self):
        self.addresses = array("Q")
        self.kinds = bytearray()
        self.node_ids = array("I")
        self.node_table: dict[str, int] = {}
        self.regions = array("H")

    def append(self, address: int, kind: int, label: str, region: int) -> None:
        """Record one reference."""
        self.addresses.append(address)
        self.kinds.append(kind)
        self.node_ids.append(self.node_table.setdefault(label, len(self.node_table)))
        self.regions.append(region)

    def extend(self, events: TraceEvents) -> None:
        """Append *events*, one reference at a time."""
        for address, kind, node, region in zip(
            events.addresses, events.kinds, events.node_ids, events.regions
        ):
            self.append(address, kind, events.node_table[node], region)

    def compact(self) -> TraceEvents:
        """The recorded columns (copied, so recording may continue)."""
        return TraceEvents(
            addresses=self.addresses[:],
            kinds=bytes(self.kinds),
            node_table=tuple(self.node_table),
            node_ids=self.node_ids[:],
            regions=self.regions[:],
        )


class RecordingMachine(Machine):
    """A machine that records every reference into :attr:`columns`:
    each one ``step()`` issues as it issues it, and the expansion of the
    block visits each ``run()`` records."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.columns = TraceColumns()

    def _issue(self, block, first, last, data) -> int:
        feed = iter(data)
        for event in range(first, last):
            kind = block.kinds[event]
            address = next(feed) if kind else block.addresses[event]
            self.columns.append(address, kind, block.label, block.regions[event])
        return super()._issue(block, first, last, data)

    def run(self, max_steps: int = 10_000_000) -> int:
        self.trace = recorder = TraceRecorder()
        try:
            return super().run(max_steps=max_steps)
        finally:
            self.trace = None
            if recorder.templates is not None:
                self.columns.extend(recorder.compact().expand())


def block_trace(events: TraceEvents) -> CompactTrace:
    """*events* as block visits: each maximal run of one node's events
    visits a template of its own shape (code fetches' addresses fixed,
    reads and writes fed from the data column)."""
    templates: dict[tuple, int] = {}
    visits = array("I")
    nodes = events.node_ids
    start = 0
    cuts = compress(count(1), map(ne, nodes, islice(nodes, 1, None)))
    for end in chain(cuts, (len(nodes),) if len(nodes) else ()):
        kinds = events.kinds[start:end]
        template = (
            events.node_table[nodes[start]],
            tuple(0 if kind else address for address, kind in zip(
                events.addresses[start:end], kinds
            )),
            kinds,
            tuple(events.regions[start:end]),
        )
        visits.append(templates.setdefault(template, len(templates)))
        start = end
    return CompactTrace(
        templates=tuple(templates),
        partials=(),
        visits=visits,
        data=array("Q", compress(events.addresses, events.kinds)),
    )


def relocated(events: TraceEvents, deltas: Sequence[int]) -> TraceEvents:
    """*events* with region *r*'s events shifted by ``deltas[r]``."""
    return replace(events, addresses=array("Q", [
        address + deltas[region]
        for address, region in zip(events.addresses, events.regions)
    ]))


class EventView:
    """The block view named event by event: each event's key looked up
    in first-event order, each node run sliced out one by one.  The
    shape of :class:`~repro.vm.trace.TraceView` (``bases``, ``keys``,
    ``streams``, ``visits``) over per-event columns recorded at
    *bases*."""

    def __init__(self, traces: Mapping[str, TraceEvents], line_size: int, bases):
        self.bases = tuple(bases)
        index: dict[tuple[int, int], int] = {}
        self.streams = {}
        visits: dict[str, dict[tuple[int, ...], None]] = {}
        for name, trace in traces.items():
            blocks = map(and_, trace.addresses, repeat(-line_size))
            ids = tuple(
                index.setdefault(key, len(index))
                for key in zip(blocks, trace.regions)
            )
            writes = trace.kinds.translate(_WRITE_FLAGS)
            keep = [
                fresh or write
                for fresh, write in zip(map(ne, ids, chain((-1,), ids)), writes)
            ]
            stream = array("I", compress(ids, keep))
            self.streams[name] = (
                stream, bytes(compress(writes, keep)), len(ids) - len(stream)
            )
            nodes, table, start = trace.node_ids, trace.node_table, 0
            cuts = compress(count(1), map(ne, nodes, islice(nodes, 1, None)))
            for end in chain(cuts, (len(ids),) if ids else ()):
                visits.setdefault(table[nodes[start]], {})[ids[start:end]] = None
                start = end
        self.keys = list(index)
        self.visits = {
            label: distinct_visits(runs) for label, runs in visits.items()
        }


def by_keys(view) -> tuple:
    """*view*'s streams, write flags, dropped counts and distinct visits
    with every id replaced by its ``(block, region)`` key."""
    key = view.keys.__getitem__
    streams = {
        name: (tuple(map(key, stream)), writes, dropped)
        for name, (stream, writes, dropped) in view.streams.items()
    }
    visits = {
        label: tuple(
            (tuple(map(key, distinct)), tuple(map(key, run)))
            for distinct, run in node
        )
        for label, node in view.visits.items()
    }
    return view.bases, streams, list(visits.items())
