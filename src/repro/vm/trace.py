"""Memory-reference traces and the block view every analysis reads.

The paper derives "the memory trace of each task with the simulation method
as used in SYMTA" (Section III-B).  The VM runs decoded basic blocks, and a
block's code fetches are fixed by its decoding: only its loads' and
stores' addresses vary from visit to visit.  So a run is recorded
(:class:`TraceRecorder`) as its sequence of block visits plus one column
of data addresses: a :class:`CompactTrace`, the one trace type every
analysis and report reads.  :meth:`CompactTrace.expand` gives its
per-event columns (:class:`TraceEvents`) to a diagnostic that reads
events.  A :class:`TraceView` keeps a task's traces as key ids and a
per-key block table: its streams give the cache counts and its visits,
each distinct node visit once (:func:`distinct_visits`), the RMB/LMB
flow, at the recorded placement (a cold run) or at any placement a move
by whole lines reaches.  It names each visited block's code keys once
and each data event one by one.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, and_, ne, rshift
from typing import Iterable, Mapping, Sequence

from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.obs import STATE as _OBS


#: CompactTrace kind codes: a code fetch, a data read, a data write.
_KIND_CODES = {"code": 0, "read": 1, "write": 2}
#: ``bytes.translate`` table turning kind codes into write flags.
_WRITE_FLAGS = bytes(1 if code == _KIND_CODES["write"] else 0 for code in range(256))

#: One block's events, as every visit issues them: its node label, each
#: event's address (0 in a data slot, which the data column fills), kind
#: code and region.
Template = tuple[str, tuple[int, ...], bytes, tuple[int, ...]]


@dataclass(frozen=True)
class TraceEvents:
    """A trace's per-event columns (:meth:`CompactTrace.expand`).

    Addresses (8 bytes), kind codes, node-table indices (4 bytes) and
    regions (2 bytes) per event, with the node table in first-appearance
    order.
    """

    addresses: array  # typecode "Q"
    kinds: bytes  # one _KIND_CODES byte per event
    node_table: tuple[str, ...]
    node_ids: array  # typecode "I", indices into node_table
    regions: array  # typecode "H"

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class CompactTrace:
    """One run's memory references as block visits.

    The VM's control flow is purely data-dependent — cache state only ever
    changes cycle *counts* — so the reference stream of a scenario is
    invariant across cache configurations.  That makes it the natural unit
    of cross-configuration reuse.  ``templates`` holds each decoded
    block's events (one table per decoded layout, shared by every trace
    recorded there, so a bundle pickles it once); ``visits`` names the
    template of each visit in order, and ``data`` holds the addresses the
    visits' loads and stores filled in.  A visit cut short (a step budget,
    a fault, or a run resumed mid-block) names ``len(templates) + i``:
    events ``first:last`` of template ``block``, for
    ``partials[i] == (block, first, last)``.

    Control flow never reads an address either, so the stream is also
    invariant across *placements* up to a per-region shift: each event
    carries the index, in
    :meth:`~repro.program.layout.ProgramLayout.region_spans` order, of
    the region (code, or the array touched) it falls in.
    """

    templates: tuple[Template, ...]
    partials: tuple[tuple[int, int, int], ...]
    visits: array  # typecode "I"
    data: array  # typecode "Q"

    def expand(self) -> TraceEvents:
        """The per-event columns these visits issued."""
        rows = _rows(self.templates, self.partials)
        visits = self.visits
        addresses, kinds = _events(rows, visits, self.data)
        node_table = tuple(dict.fromkeys(
            map([label for label, *_ in rows].__getitem__, dict.fromkeys(visits))
        ))
        node_of = {label: node for node, label in enumerate(node_table)}
        nodes = [node_of.get(label, 0) for label, *_ in rows]
        lengths = [len(row[2]) for row in rows]
        return TraceEvents(
            addresses=addresses,
            kinds=kinds,
            node_table=node_table,
            node_ids=array("I", chain.from_iterable(map(
                repeat, map(nodes.__getitem__, visits), map(lengths.__getitem__, visits)
            ))),
            regions=array("H", chain.from_iterable(
                map([row[3] for row in rows].__getitem__, visits)
            )),
        )

    def replay(self, cache) -> int:
        """Drive every reference through *cache* in order; return the
        cycles charged."""
        rows = _rows(self.templates, self.partials)
        addresses, kinds = _events(rows, self.visits, self.data)
        return cache.access_stream(addresses, kinds.translate(_WRITE_FLAGS))

    def __len__(self) -> int:
        lengths = [len(row[2]) for row in _rows(self.templates, self.partials)]
        return sum(map(lengths.__getitem__, self.visits))


def _rows(templates: tuple[Template, ...], partials) -> tuple[Template, ...]:
    """Every template a visit names: *templates*, then the slice of each
    ``(block, first, last)`` of *partials*."""
    if not partials:
        return templates
    return templates + tuple(
        (label, addresses[first:last], kinds[first:last], regions[first:last])
        for (label, addresses, kinds, regions), first, last in (
            (templates[block], first, last) for block, first, last in partials
        )
    )


def _events(rows: Sequence[Template], visits, data) -> tuple[array, bytes]:
    """The addresses and kind codes of *visits* of *rows*, the data slots
    filled from *data* in order."""
    feed = iter(data)
    sources = [()] * len(rows)
    for template in dict.fromkeys(visits):
        _, addresses, kinds, _ = rows[template]
        sources[template] = tuple(
            feed if kind else repeat(address)
            for address, kind in zip(addresses, kinds)
        )
    addresses = array(
        "Q", map(next, chain.from_iterable(map(sources.__getitem__, visits)))
    )
    return addresses, b"".join(map([row[2] for row in rows].__getitem__, visits))


class TraceRecorder:
    """A :class:`CompactTrace` under construction: what
    :meth:`~repro.vm.machine.Machine.run` records into, one template id
    per block visit and one address per load or store."""

    __slots__ = ("templates", "partials", "visits", "data")

    def __init__(self):
        self.templates: tuple[Template, ...] | None = None
        self.partials: dict[tuple[int, int, int], int] = {}
        self.visits = array("I")
        self.data = array("Q")

    def bind(self, templates: tuple[Template, ...]) -> None:
        """Record visits of *templates* (a decoded layout's blocks)."""
        if self.templates is None:
            self.templates = templates
        elif self.templates is not templates:
            raise ValueError("a trace records the runs of one decoded layout")

    def partial(self, block: int, first: int, last: int) -> int:
        """The template id of a visit issuing events ``first:last`` of
        template *block*."""
        if first == 0 and last == len(self.templates[block][2]):
            return block
        key = (block, first, last)
        template = self.partials.get(key)
        if template is None:
            template = self.partials[key] = len(self.templates) + len(self.partials)
        return template

    def events(self, visit: int, datum: int) -> tuple[array, bytes]:
        """The addresses and kind codes of visits ``visit:`` (whose data
        addresses start at ``datum``)."""
        return _events(
            _rows(self.templates, self.partials),
            self.visits[visit:],
            self.data[datum:],
        )

    def compact(self) -> CompactTrace:
        """The recorded visits as a :class:`CompactTrace` (copied, so
        recording may continue)."""
        return CompactTrace(
            templates=self.templates or (),
            partials=tuple(self.partials),
            visits=self.visits[:],
            data=self.data[:],
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
    The traces were recorded at ``bases`` minus *shift* (region by
    region; no shift when ``None``).  The recorded placement and any move
    by whole lines from it are one table of blocks, O(footprint):
    ``streams`` holds each scenario's key ids minus reads and fetches
    that repeat the previous id (hits that change no cache state under
    any policy; in a VM trace, every such repeat), their write flags,
    and how many were dropped; ``visits`` holds each node's distinct
    key-id runs as :func:`distinct_visits`, which the RMB/LMB solver
    reads through :meth:`moved` at any placement of the class (no
    block-level visit is built); ``footprints`` holds each scenario's
    distinct key ids, named on the first :meth:`counts`.

    Each visited template's code keys are named once; only data events
    are named one by one (:func:`_read`)."""

    __slots__ = ("bases", "keys", "streams", "visits", "footprints")

    def __init__(
        self,
        traces: Mapping[str, CompactTrace],
        line_size: int,
        bases,
        shift: Sequence[int] | None = None,
    ):
        if _OBS.enabled:
            _OBS.metrics.counter("trace.views_built").inc()
        self.bases = tuple(bases)
        shift = tuple(shift) if shift is not None else (0,) * len(self.bases)
        name = _KeyIds().__getitem__
        self.streams, runs = _read(list(traces.items()), name, -line_size, shift)
        # Each node visit (a maximal run of one node's events) once.
        visits: dict[str, dict[tuple[int, ...], None]] = {}
        for label, run in runs:
            visits.setdefault(label, {})[run] = None
        self.keys = list(name.__self__)
        self.visits = {
            label: distinct_visits(runs) for label, runs in visits.items()
        }
        self.footprints = None

    def moved(self, bases: Sequence[int]) -> list[int]:
        """Each key's block at region *bases* (whole lines from ours)."""
        deltas = [new - old for new, old in zip(bases, self.bases)]
        return [block + deltas[region] for block, region in self.keys]

    def counts(self, bases: Sequence[int], config: CacheConfig) -> dict:
        """Each scenario's ``(accesses, misses, writebacks)`` from a cold
        cache of *config* (of the view's line size) at *bases*; the
        dropped repeats count as hits.

        A scenario whose distinct blocks put no more than ``ways`` in any
        set is counted from its footprint: from a cold cache every miss
        there fills an empty line (LRU/FIFO pop the ``INVALID`` tail,
        PLRU takes the first ``INVALID`` slot), so nothing is evicted or
        written back and each block misses once.  Any other scenario is
        replayed."""
        moved = self.moved(bases)
        footprints = self.footprints
        if footprints is None:
            footprints = self.footprints = {
                scenario: tuple(set(stream))
                for scenario, (stream, _, _) in self.streams.items()
            }
        ways, offset, set_mask = config.ways, config.offset_bits, config.num_sets - 1
        counts = {}
        for scenario, (stream, writes, dropped) in self.streams.items():
            blocks = set(map(moved.__getitem__, footprints[scenario]))
            if len(blocks) <= ways or max(Counter(map(
                and_, map(rshift, blocks, repeat(offset)), repeat(set_mask)
            )).values()) <= ways:
                if _OBS.enabled:
                    _OBS.metrics.counter("trace.counts_from_footprint").inc()
                counts[scenario] = (len(stream) + dropped, len(blocks), 0)
                continue
            if _OBS.enabled:
                _OBS.metrics.counter("trace.counts_replayed").inc()
            cache = CacheState(config)
            cache.access_stream(map(moved.__getitem__, stream), writes)
            stats = cache.stats
            counts[scenario] = (
                stats.hits + stats.misses + dropped, stats.misses, stats.writebacks
            )
        return counts


class _Transitions(dict):
    """``(previous template, template)`` -> which kept events a visit
    issues (:func:`_read`): ``2 * template``, plus 1 when its first event
    does not repeat the previous visit's last key.  Each transition is
    decided on first sight (in C once known)."""

    __slots__ = ("first", "last", "labels", "joined")

    def __init__(self, first, last, labels):
        self.first, self.last, self.labels = first, last, labels
        self.joined = False  # two consecutive visits of one node

    def __missing__(self, key):
        previous, template = key
        fresh = previous < 0 or self.last[previous] != self.first[template]
        if previous >= 0 and self.labels[previous] == self.labels[template]:
            self.joined = True
        self[key] = variant = 2 * template + fresh
        return variant


def _run(ids: list, holes: tuple[int, ...], data: tuple) -> tuple[int, ...]:
    """One visit's key ids: the template's *ids* with its data slots
    (positions *holes*) filled from *data*."""
    run = ids[:]
    for position, key in zip(holes, data):
        run[position] = key
    return tuple(run)


def _read(traces: list, name, line: int, shift: Sequence[int]):
    """The ``(scenario, trace)`` *traces*' streams (key ids named by
    *name* for blocks ``address & line`` moved by *shift*), and their
    distinct node visits as ``(label, key-id run)`` pairs in first-seen
    order.

    The traces are read as one sequence of visits over one template
    table (each trace's table once).  Each visited template's code keys
    are named once, and so is which of its events a visit keeps: all
    but a fetch right after a fetch of the same key.  A visit's first
    event is checked against the last of the visit before once per pair
    of templates, and only data events are named one by one.  A visit is
    told apart from the others of its template by its data keys alone.
    A data event, and a fetch right after one, is kept: in a VM trace
    its key is of another region than its neighbours', and where a
    hand-built trace repeats one there, a kept repeat is a hit that
    changes no state, so the counts stay exact.
    """
    rows, offsets, orders = [], {}, []
    for _, trace in traces:
        table = (id(trace.templates), trace.partials)
        if table not in offsets:
            offsets[table] = len(rows)
            rows.extend(_rows(trace.templates, trace.partials))
        offset = offsets[table]
        orders.append(
            array("I", map(add, trace.visits, repeat(offset)))
            if offset else trace.visits
        )
    order = list(chain.from_iterable(orders))
    size = len(rows)
    data: list[int] = []  # the data keys, named after the code keys
    stream_feed, sample_feed = iter(data), iter(data)
    codes = [None] * size  # each template's key ids, None in data slots
    holes = [()] * size  # each template's data-slot positions
    slots = [()] * size  # and their regions
    samples = [None] * size  # each template's visits' data key ids
    kept = [()] * (2 * size)  # 2t: the events a visit keeps after its first
    kept_writes = [b""] * (2 * size)  # 2t + 1: with its first
    # A data slot's first or last key is named per visit: -2 and -1
    # equal no id, so a visit keeps its first event.
    first, last = [-2] * size, [-1] * size
    for template in dict.fromkeys(order):
        _, addresses, kinds, regions = rows[template]
        ids, sources, writes, previous = [], [], bytearray(), None
        for address, kind, region in zip(addresses, kinds, regions):
            if kind:
                key = None
                sources.append(stream_feed)
                writes.append(kind == 2)
            else:
                key = name(((address + shift[region]) & line, region))
                if key != previous:
                    sources.append(repeat(key))
                    writes.append(0)
            ids.append(key)
            previous = key
        codes[template] = ids
        holes[template] = hole = tuple(compress(count(), kinds))
        slots[template] = tuple(compress(regions, kinds))
        samples[template] = zip(*[sample_feed] * len(hole)) if hole else repeat(())
        if ids[0] is not None:
            first[template] = ids[0]
        if ids[-1] is not None:
            last[template] = ids[-1]
        kept[2 * template + 1] = sources = tuple(sources)
        kept[2 * template] = sources[1:]
        kept_writes[2 * template + 1] = writes = bytes(writes)
        kept_writes[2 * template] = writes[1:]
    data_regions = chain.from_iterable(map(slots.__getitem__, order))
    addresses = chain.from_iterable(trace.data for _, trace in traces)
    if any(shift):
        data_regions = list(data_regions)
        addresses = map(add, addresses, map(shift.__getitem__, data_regions))
    data.extend(map(name, zip(map(and_, addresses, repeat(line)), data_regions)))
    labels = [row[0] for row in rows]
    transitions = _Transitions(first, last, labels)
    starts = chain.from_iterable(chain((-1,), part[:-1]) for part in orders if part)
    variants = list(map(transitions.__getitem__, zip(starts, order)))
    sampled = list(map(next, map(samples.__getitem__, order)))
    dropped = [
        len(rows[variant // 2][2]) - len(sources)
        for variant, sources in enumerate(kept)
    ]
    streams, visit = {}, 0
    for (scenario, _), part in zip(traces, orders):
        variant = variants[visit:visit + len(part)]
        streams[scenario] = (
            array("I", list(
                map(next, chain.from_iterable(map(kept.__getitem__, variant)))
            )),
            b"".join(map(kept_writes.__getitem__, variant)),
            sum(map(dropped.__getitem__, variant)),
        )
        visit += len(part)
    if not transitions.joined:
        return streams, [
            (labels[template], _run(codes[template], holes[template], keys))
            for template, keys in dict.fromkeys(zip(order, sampled))
        ]
    # Consecutive visits of one block are one node visit (within a trace).
    runs = list(map(
        _run, map(codes.__getitem__, order), map(holes.__getitem__, order), sampled
    ))
    visit_labels = list(map(labels.__getitem__, order))
    cuts = list(map(ne, visit_labels, islice(visit_labels, 1, None)))
    cuts.append(True)
    for end in accumulate(map(len, orders)):
        if end:
            cuts[end - 1] = True
    ends = list(compress(count(1), cuts))
    return streams, dict.fromkeys(zip(compress(visit_labels, cuts), (
        tuple(chain.from_iterable(runs[start:end]))
        for start, end in zip(chain((0,), ends), ends)
    )))
