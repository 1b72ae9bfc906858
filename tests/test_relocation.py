"""Relocatable traces and the columnar kernels behind them.

A layout move no longer re-runs the VM: the stored trace is shifted
region by region to the new placement.  These tests pin the pieces that
make it exact:

* the columnar replay (``CompactTrace.replay``) counts exactly what
  per-access ``CacheState.access`` counts, for every policy and both
  write modes;
* the columnar per-node aggregation equals the ``MemRef``-based
  reference kept here as the oracle;
* a relocated trace is byte-identical to a VM re-execution at the new
  placement, in memory and through a disk store's pickled trace view.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.artifacts import analyze_task
from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import WhatIfSession
from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.program.layout import ProgramLayout, SystemLayout
from repro.vm.machine import run_isolated
from repro.vm.trace import (
    CompactTrace,
    NodeTraceAggregate,
    TraceColumns,
    TraceRecorder,
)
from repro.workloads import build_workload

POLICIES = ("lru", "fifo", "plru")


def random_recorder(seed: int, events: int = 600) -> TraceRecorder:
    """A random reference stream over a few hot and cold address bands,
    grouped into node visits like a VM trace."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(5)]
    recorder = TraceRecorder()
    node = rng.choice(nodes)
    for _ in range(events):
        if rng.random() < 0.2:
            node = rng.choice(nodes)
        band = rng.choice((0x1000, 0x1040, 0x2000, 0x8000))
        kind = rng.choice(("code", "read", "write"))
        recorder.record(band + rng.randrange(0, 512), kind, node)
    return recorder


def reference_visits(recorder: TraceRecorder, config: CacheConfig) -> dict:
    """The per-event ``MemRef`` aggregation the columnar kernel replaced."""
    visits: dict[str, list[tuple[int, ...]]] = {}
    current_node = None
    current_refs: list[int] = []
    for event in recorder.events:
        if event.node != current_node:
            if current_node is not None:
                visits.setdefault(current_node, []).append(tuple(current_refs))
            current_node = event.node
            current_refs = []
        current_refs.append(config.block(event.address))
    if current_node is not None:
        visits.setdefault(current_node, []).append(tuple(current_refs))
    return visits


def columns(trace: CompactTrace) -> tuple:
    return (
        trace.addresses.tobytes(),
        trace.kinds,
        trace.node_table,
        trace.node_ids.tobytes(),
    )


def vm_trace(layout: ProgramLayout, inputs, config: CacheConfig) -> CompactTrace:
    recorder = TraceRecorder()
    run_isolated(
        layout,
        CacheState(config),
        inputs={name: list(values) for name, values in inputs.items()},
        trace=recorder,
    )
    return CompactTrace.from_recorder(recorder)


class TestColumnarReplay:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_per_access_simulation(self, policy, write_back, seed):
        config = CacheConfig(
            num_sets=8, ways=2, line_size=16, policy=policy,
            write_back=write_back,
        )
        recorder = random_recorder(seed)
        reference = CacheState(config)
        for event in recorder.events:
            reference.access(event.address, write=event.kind == "write")
        replayed = CacheState(config)
        CompactTrace.from_recorder(recorder).replay(replayed)
        assert replayed.stats == reference.stats
        assert replayed.snapshot() == reference.snapshot()
        assert replayed.dirty_blocks() == reference.dirty_blocks()


class TestColumnarAggregate:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_memref_aggregation(self, policy, write_back, seed):
        config = CacheConfig(
            num_sets=8, ways=2, line_size=16, policy=policy,
            write_back=write_back,
        )
        recorders = [random_recorder(seed), random_recorder(seed + 100, 200)]
        expected: dict[str, dict[tuple[int, ...], None]] = {}
        for recorder in recorders:
            for node, sequences in reference_visits(recorder, config).items():
                # Distinct visits, each once, in first-seen order.
                expected.setdefault(node, {}).update(dict.fromkeys(sequences))
        aggregate = NodeTraceAggregate.from_compact(
            config, [CompactTrace.from_recorder(r) for r in recorders]
        )
        assert list(aggregate.node_refs) == list(expected)
        for node, sequences in expected.items():
            assert aggregate.node_refs[node].visit_sequences == tuple(sequences)

    def test_empty_trace_has_no_visits(self):
        config = CacheConfig(num_sets=8, ways=2, line_size=16)
        trace = CompactTrace.from_recorder(TraceRecorder())
        assert NodeTraceAggregate.from_compact(config, [trace]).node_refs == {}


class TestRelocation:
    @pytest.mark.parametrize("name", ("ed", "adpcmc"))
    def test_relocated_trace_equals_vm_reexecution(self, name):
        workload = build_workload(name)
        program = workload.program
        config = CacheConfig.scaled_8k(miss_penalty=20)
        home = SystemLayout().place(program)
        arrays = list(program.arrays)
        moved = ProgramLayout(
            program=program,
            code_base=home.code_base + 0x10004,
            data_base=home.data_base + 0x20010,
            symbol_overrides={arrays[0]: 0x80008},
        )
        for scenario, inputs in workload.scenario_map().items():
            recording = TraceColumns(relocatable=True)
            run_isolated(
                home, CacheState(config),
                inputs={k: list(v) for k, v in inputs.items()}, trace=recording,
            )
            recorded = recording.compact()
            deltas = [
                new - old
                for new, old in zip(moved.region_bases(), home.region_bases())
            ]
            assert columns(recorded.relocated(deltas)) == columns(
                vm_trace(moved, inputs, config)
            ), scenario

    def test_unmoved_trace_is_returned_as_is(self):
        recorder = random_recorder(1)
        trace = CompactTrace.from_recorder(recorder)
        assert trace.relocated((0, 0)) is trace
        with pytest.raises(ValueError, match="without its layout"):
            trace.relocated((4, 0))

    def test_layout_move_reuses_the_stored_trace(self):
        """A ``code:`` move hits the trace and paths entries; only the
        moved task's sim and flow recompute."""
        with WhatIfSession("exp1") as session:
            session.result()
            code_base = session.layout_assignment().placement("mr").code_base
            state = session.apply(f"code:mr={code_base + 0x44}")
        assert state.reused["trace"] == state.reused["paths"] == 3
        assert state.invalidated["sim"] == state.invalidated["flow"] == 1
        assert session._store.misses_by_kind.get("trace") == 3


class TestDiskStoreRelocation:
    def test_moved_task_traces_follow_the_move_through_pickle(self, tmp_path):
        workload = build_workload("ed")
        program = workload.program
        scenarios = workload.scenario_map()
        config = CacheConfig.scaled_8k(miss_penalty=20)
        home = SystemLayout().place(program)
        moved = ProgramLayout(
            program=program,
            code_base=home.code_base + 0x1000c,
            data_base=home.data_base + 0x20020,
        )
        analyze_task(home, scenarios, config, store=ArtifactStore(tmp_path))
        store = ArtifactStore(directory=tmp_path)
        artifacts = analyze_task(moved, scenarios, config, store=store)
        assert store.hits_by_kind.get("trace") == 1  # no VM run
        traces = pickle.loads(pickle.dumps(artifacts.wcet.traces))
        for scenario, inputs in scenarios.items():
            recorder = TraceRecorder()
            run_isolated(
                moved, CacheState(config),
                inputs={k: list(v) for k, v in inputs.items()}, trace=recorder,
            )
            assert traces[scenario].events == recorder.events
