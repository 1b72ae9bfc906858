"""Schema migration: v1 monolithic cache entries are stale, not fatal.

Schema 1 of the artifact store pickled bare ``CachedAnalysis`` bundles;
schema 2 wraps sub-artifacts in the :class:`StoredEntry` envelope.  A
cache directory written by an older version must degrade gracefully: a
v1 entry squatting on a current key is a *stale* counted miss (distinct
from ``corrupt``, so migrations show up in telemetry), the row is
deleted, the analysis recomputes, and the slot heals — never an error,
never a silently wrong result.  The entries are rows of the store's
SQLite table, rewritten through :mod:`tests.store_rows`.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

from repro.analysis import analyze_task
from repro.analysis.store import (
    ArtifactStore,
    CachedAnalysis,
    FlowBundle,
    SimBundle,
    StoredEntry,
    TraceBundle,
)
from repro.obs import observed
from repro.program import SystemLayout

from tests.conftest import make_streaming_program
from tests.oracles.pathcost import node_blocks
from tests.store_rows import rows


def _case(tmp_path, config):
    program = make_streaming_program("mig", words=16, reps=1)
    layout = SystemLayout().place(program)
    scenarios = {"s": {"data": list(range(16))}}
    store = ArtifactStore(directory=tmp_path)
    cold = analyze_task(layout, scenarios, config, store=store)
    entries = rows(tmp_path)
    assert len(entries) == 4  # trace, sim, flow, paths
    return layout, scenarios, entries, cold


def _plant_v1(entry) -> None:
    """Overwrite *entry* with what schema 1 wrote: a bare monolithic
    ``CachedAnalysis`` pickle, no envelope."""
    entry.write_bytes(
        pickle.dumps(
            CachedAnalysis(artifacts=None), protocol=pickle.HIGHEST_PROTOCOL
        )
    )


def test_v1_entries_are_counted_stale_misses_and_heal(
    tmp_path, tiny_cache_config
):
    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    for entry in entries:
        _plant_v1(entry)

    with observed() as (_, metrics):
        store = ArtifactStore(directory=tmp_path)
        warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)

    # Four stale reads (sim/flow/trace/paths), zero corruption, zero
    # hits — and honest counting.
    assert store.hits == 0
    assert (store.stale, store.corrupt) == (4, 0)
    assert store.gets == store.hits + store.misses
    assert metrics.to_dict()["counters"]["store.stale"] == 4
    # The recomputation is a full, correct cold run.
    assert warm.wcet.cycles == cold.wcet.cycles
    assert warm.footprint == cold.footprint
    # The v1 rows were replaced: the next lookup is all hits again.
    retry = ArtifactStore(directory=tmp_path)
    analyze_task(layout, scenarios, tiny_cache_config, store=retry)
    assert retry.stale == 0
    assert retry.hits_by_kind == {"sim": 1, "flow": 1, "paths": 1}


def test_wrong_schema_envelope_is_stale(tmp_path, tiny_cache_config):
    """A ``StoredEntry`` with a superseded schema number is equally stale
    — the envelope alone is not enough, the version must match."""
    layout, scenarios, entries, _ = _case(tmp_path, tiny_cache_config)
    for entry in entries:
        entry.write_bytes(
            pickle.dumps(
                StoredEntry(
                    schema=1,
                    kind="task",
                    payload=CachedAnalysis(artifacts=None),
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
    store = ArtifactStore(directory=tmp_path)
    analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert (store.stale, store.corrupt, store.hits) == (4, 0, 0)


def test_kind_collision_is_stale_not_a_wrong_payload(
    tmp_path, tiny_cache_config
):
    """An entry of the *right* schema but the wrong kind (e.g. a paths
    bundle squatting on a sim key) must never be returned as a hit."""
    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    payloads = [pickle.loads(e.read_bytes()) for e in entries]
    by_kind = {p.kind: (e, p) for e, p in zip(entries, payloads)}
    sim_entry, _ = by_kind["sim"]
    _, paths_payload = by_kind["paths"]
    sim_entry.write_bytes(
        pickle.dumps(paths_payload, protocol=pickle.HIGHEST_PROTOCOL)
    )

    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert store.stale == 1
    assert warm.wcet.cycles == cold.wcet.cycles


def test_schema3_flow_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 4 changed the flow payload (bit-mask RMB/LMB states and
    useful points), schema 5 the keys and the flow's visit lists: a flow
    entry stamped with schema 3 is a counted stale miss that recomputes
    the same analysis, while the other kinds hit."""
    from repro.analysis.store import SCHEMA_VERSION

    assert SCHEMA_VERSION == 10
    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    for entry in entries:
        stored = pickle.loads(entry.read_bytes())
        if stored.kind == "flow":
            entry.write_bytes(
                pickle.dumps(
                    StoredEntry(schema=3, kind="flow", payload=stored.payload),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.hits_by_kind == {"trace": 1, "sim": 1, "paths": 1}
    assert warm.useful.mumbs() == cold.useful.mumbs()
    assert warm.dataflow.entry_rmb == cold.dataflow.entry_rmb


def test_schema5_sim_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 6 stores the base cycles with the sim counts: a sim entry
    stamped with schema 5 (counts only) is a counted stale miss, read
    back from the trace entry into the same payload as a cold run's."""
    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    (sim_entry,) = [
        entry for entry in entries
        if pickle.loads(entry.read_bytes()).kind == "sim"
    ]
    current = pickle.loads(sim_entry.read_bytes())
    counts_only = SimBundle.__new__(SimBundle)  # what schema 5 pickled
    counts_only.counts = current.payload.counts
    sim_entry.write_bytes(
        pickle.dumps(
            StoredEntry(schema=5, kind="sim", payload=counts_only),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.hits_by_kind == {"flow": 1, "trace": 1, "paths": 1}
    assert store.misses_by_kind == {"task": 1, "sim": 1}
    assert warm.wcet == cold.wcet
    assert pickle.loads(sim_entry.read_bytes()) == current


def test_schema6_trace_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 7 dropped the trace bundle's ``scenario_names``: a trace
    entry stamped with schema 6 (which carried it) is a counted stale
    miss when a new geometry reads it, recorded afresh into the same
    payload as a cold run's."""
    layout, scenarios, entries, _ = _case(tmp_path, tiny_cache_config)
    (trace_entry,) = [
        entry for entry in entries
        if pickle.loads(entry.read_bytes()).kind == "trace"
    ]
    current = pickle.loads(trace_entry.read_bytes())
    named = TraceBundle.__new__(TraceBundle)  # what schema 6 pickled
    named.__dict__.update(
        scenario_names=tuple(scenarios), **vars(current.payload)
    )
    trace_entry.write_bytes(
        pickle.dumps(
            StoredEntry(schema=6, kind="trace", payload=named),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    wider = replace(tiny_cache_config, ways=2 * tiny_cache_config.ways)
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, wider, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.misses_by_kind.get("trace") == 1
    assert warm.wcet == analyze_task(layout, scenarios, wider).wcet
    assert pickle.loads(trace_entry.read_bytes()) == current


def test_schema8_trace_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 9 stores traces as block visits plus a data-address column:
    a trace entry stamped with schema 8, whose traces held five columns
    per event, is one counted stale miss when a new geometry reads it,
    recorded once afresh into the same payload as a cold run's."""
    layout, scenarios, entries, _ = _case(tmp_path, tiny_cache_config)
    (trace_entry,) = [
        entry for entry in entries
        if pickle.loads(entry.read_bytes()).kind == "trace"
    ]
    current = pickle.loads(trace_entry.read_bytes())
    per_event = TraceBundle(  # what schema 8 pickled: columns per event
        traces={
            name: trace.expand() for name, trace in current.payload.traces.items()
        },
        base_cycles=current.payload.base_cycles,
        bases=current.payload.bases,
    )
    trace_entry.write_bytes(
        pickle.dumps(
            StoredEntry(schema=8, kind="trace", payload=per_event),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    wider = replace(tiny_cache_config, ways=2 * tiny_cache_config.ways)
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, wider, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.misses_by_kind.get("trace") == 1
    assert warm.wcet == analyze_task(layout, scenarios, wider).wcet
    assert pickle.loads(trace_entry.read_bytes()) == current
    # Re-recorded once: the next geometry reads the new entry.
    again = ArtifactStore(directory=tmp_path)
    analyze_task(layout, scenarios, replace(wider, num_sets=4), store=again)
    assert (again.stale, again.hits_by_kind.get("trace")) == (0, 1)


def test_schema7_flow_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 8 dropped the flow's per-node aggregate and footprint (the
    RMB/LMB solution holds both): a flow entry stamped with schema 7,
    which carried them, is one counted stale miss, recomputed into the
    same decoded payload as a cold run's."""
    from tests.oracles.rmb_lmb import NodeTraceAggregate

    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    (flow_entry,) = [
        entry for entry in entries
        if pickle.loads(entry.read_bytes()).kind == "flow"
    ]
    current = pickle.loads(flow_entry.read_bytes())
    assert "aggregate" not in vars(current.payload)
    carried = FlowBundle.__new__(FlowBundle)  # what schema 7 pickled
    carried.__dict__.update(
        aggregate=NodeTraceAggregate(config=tiny_cache_config),
        footprint=cold.footprint,
        **vars(current.payload),
    )
    flow_entry.write_bytes(
        pickle.dumps(
            StoredEntry(schema=7, kind="flow", payload=carried),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.hits_by_kind == {"trace": 1, "sim": 1, "paths": 1}
    assert store.misses_by_kind == {"task": 1, "flow": 1}
    assert pickle.loads(flow_entry.read_bytes()) == current
    assert warm.footprint == cold.footprint
    assert node_blocks(warm) == node_blocks(cold)


def test_schema9_flow_entry_is_a_stale_miss(tmp_path, tiny_cache_config):
    """Schema 10 dropped the flow's footprint CIIP (the RMB/LMB bits hold
    it): a flow entry stamped with schema 9, which carried it, is one
    counted stale miss, recomputed into the same decoded payload as a
    cold run's."""
    from repro.cache.ciip import CIIP

    layout, scenarios, entries, cold = _case(tmp_path, tiny_cache_config)
    (flow_entry,) = [
        entry for entry in entries
        if pickle.loads(entry.read_bytes()).kind == "flow"
    ]
    current = pickle.loads(flow_entry.read_bytes())
    assert "footprint_ciip" not in vars(current.payload)
    carried = FlowBundle.__new__(FlowBundle)  # what schema 9 pickled
    carried.__dict__.update(
        footprint_ciip=CIIP.from_addresses(tiny_cache_config, cold.footprint),
        **vars(current.payload),
    )
    flow_entry.write_bytes(
        pickle.dumps(
            StoredEntry(schema=9, kind="flow", payload=carried),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    store = ArtifactStore(directory=tmp_path)
    warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
    assert (store.stale, store.corrupt) == (1, 0)
    assert store.hits_by_kind == {"trace": 1, "sim": 1, "paths": 1}
    assert store.misses_by_kind == {"task": 1, "flow": 1}
    assert pickle.loads(flow_entry.read_bytes()) == current
    assert warm.dataflow == cold.dataflow
    assert warm.useful == cold.useful
    assert warm.footprint_ciip == cold.footprint_ciip
    assert warm.footprint_ciip.blocks() == cold.footprint
