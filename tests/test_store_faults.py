"""Fault injection against the on-disk artifact cache.

The docstring contract of :mod:`repro.analysis.store` says corrupt or
unreadable disk entries are treated as misses, never as errors, that the
offending row is deleted so the slot heals on the next ``put``, and
that every such event is counted (``ArtifactStore.corrupt`` instance
counter and the ``store.corrupt`` obs metric).  These tests rot cache
entries in every way :data:`tests.faults.PICKLE_CORRUPTIONS` knows and
assert all three promises, plus the honesty invariant that a corrupt
lookup still lands in ``misses`` (``gets == hits + misses``).

One analysis persists four sub-artifact entries (trace, sim, flow,
paths — see the decomposition in ``docs/performance.md``), so the tests
rot *every* entry.  On the rotten re-run the sim and flow lookups miss,
so the trace entry is read too and misses, which sends the WCET stage
down the cold path: four corrupt reads are counted and all four rows
heal.  A warm run whose sim and flow entries hit reads no trace.  The
entries are rows of the store's SQLite table, reached through
:mod:`tests.store_rows`; a database file SQLite cannot read at all is
covered by :mod:`tests.test_store_sqlite`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import analyze_task
from repro.analysis.store import ArtifactStore
from repro.obs import observed
from repro.program import SystemLayout

from tests.conftest import make_streaming_program
from tests.faults import PICKLE_CORRUPTIONS
from tests.store_rows import freeze, rows

#: Disk entries one analysis persists / corrupt reads on a rotten re-run.
PERSISTED_KINDS = 4
CORRUPT_READS = 4  # sim, flow, trace, paths


def _analyzed_once(tmp_path, config):
    """Analyze one program through a disk-backed store; return the layout,
    scenarios and the sub-artifact rows the run produced."""
    program = make_streaming_program("rot", words=16, reps=1)
    layout = SystemLayout().place(program)
    scenarios = {"s": {"data": list(range(16))}}
    store = ArtifactStore(directory=tmp_path)
    artifacts = analyze_task(layout, scenarios, config, store=store)
    entries = rows(tmp_path)
    assert len(entries) == PERSISTED_KINDS
    return layout, scenarios, entries, artifacts


@pytest.mark.parametrize("corruption", sorted(PICKLE_CORRUPTIONS))
def test_corrupt_entry_is_a_counted_miss_and_heals(
    tmp_path, tiny_cache_config, corruption
):
    layout, scenarios, entries, cold = _analyzed_once(
        tmp_path, tiny_cache_config
    )
    for entry in entries:
        entry.write_bytes(PICKLE_CORRUPTIONS[corruption](entry.read_bytes()))

    store = ArtifactStore(directory=tmp_path)  # fresh LRU: must go to disk
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)

    # Misses, not crashes — and the lookups stay honest.  Bytes that do
    # not unpickle count as *corrupt*; a loadable-but-foreign pickle is
    # a *stale* entry (the migration path, see test_store_migration.py).
    assert store.hits == 0
    assert store.corrupt + store.stale == CORRUPT_READS
    assert store.misses_by_kind == {
        "task": 1, "sim": 1, "flow": 1, "trace": 1, "paths": 1,
    }
    assert store.gets == store.hits + store.misses
    # Recomputation matches the cold run.
    assert warm.wcet.cycles == cold.wcet.cycles
    assert warm.footprint == cold.footprint
    # The rotten rows were replaced by the re-analysis puts...
    assert all(entry.exists() for entry in entries)
    # ...with loadable entries: the next disk lookups hit.
    retry = ArtifactStore(directory=tmp_path)
    analyze_task(layout, scenarios, tiny_cache_config, store=retry)
    assert retry.corrupt == 0
    assert retry.hits_by_kind == {"sim": 1, "flow": 1, "paths": 1}
    assert retry.misses_by_kind == {"task": 1}


def test_corrupt_entry_increments_obs_metric(tmp_path, tiny_cache_config):
    layout, scenarios, entries, _ = _analyzed_once(tmp_path, tiny_cache_config)
    for entry in entries:
        entry.write_bytes(b"")
    with observed() as (_, metrics):
        store = ArtifactStore(directory=tmp_path)
        analyze_task(layout, scenarios, tiny_cache_config, store=store)
    counters = metrics.to_dict()["counters"]
    assert counters["store.corrupt"] == CORRUPT_READS
    assert counters["store.misses"] == store.misses
    assert store.corrupt == CORRUPT_READS


def test_undeletable_entry_is_still_just_a_miss(tmp_path, tiny_cache_config):
    """Entries that can be neither read nor deleted (here: empty rows in
    a table whose triggers abort every delete and insert) degrade to
    plain counted misses."""
    layout, scenarios, entries, cold = _analyzed_once(
        tmp_path, tiny_cache_config
    )
    for entry in entries:
        entry.write_bytes(b"")  # unpickles to nothing: corrupt
    freeze(tmp_path)  # DELETE and INSERT OR REPLACE now abort

    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert store.hits == 0
    assert store.corrupt == CORRUPT_READS
    assert warm.wcet.cycles == cold.wcet.cycles
    # Undeletable: left in place (puts fail soft), analysis unharmed.
    assert all(entry.read_bytes() == b"" for entry in entries)


def test_mangled_tail_does_not_resurrect_stale_artifacts(
    tmp_path, tiny_cache_config
):
    """Appending junk after a valid pickle stream must not produce a hit
    with silently wrong provenance: pickle stops at the stream's STOP
    opcode, so the entries still load — this pins that behaviour as
    *hits* (the prefix is the genuine artifact) rather than corruption."""
    layout, scenarios, entries, _ = _analyzed_once(tmp_path, tiny_cache_config)
    for entry in entries:
        entry.write_bytes(entry.read_bytes() + b"trailing junk")
    store = ArtifactStore(directory=tmp_path)
    analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert store.corrupt == 0
    assert store.hits_by_kind == {"sim": 1, "flow": 1, "paths": 1}


def test_evicted_trace_is_recorded_again(tmp_path, tiny_cache_config, monkeypatch):
    """A sim hit with a flow miss needs the trace; when its entry is gone
    the VM runs again, once, and the trace entry is put back."""
    import repro.analysis.artifacts as artifacts

    layout, scenarios, entries, cold = _analyzed_once(tmp_path, tiny_cache_config)
    for entry in entries:
        if pickle.loads(entry.read_bytes()).kind in ("trace", "flow"):
            entry.unlink()
    runs = []
    measure = artifacts.measure_wcet_detailed
    monkeypatch.setattr(
        artifacts, "measure_wcet_detailed",
        lambda *args, **kwargs: runs.append(1) or measure(*args, **kwargs),
    )
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert runs == [1]
    assert store.hits_by_kind == {"sim": 1, "paths": 1}
    assert store.misses_by_kind == {"task": 1, "flow": 1, "trace": 1}
    assert all(entry.exists() for entry in entries)
    assert warm.wcet == cold.wcet
    assert warm.footprint == cold.footprint
    assert warm.useful.mumbs() == cold.useful.mumbs()
