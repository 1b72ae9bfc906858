"""Relocatable traces, their block view and the columnar kernels.

A layout move does not re-run the VM: it reads the trace recorded at
another placement.  These tests pin the pieces that make it exact:

* the columnar replay (``CompactTrace.replay``) counts exactly what
  per-access ``CacheState.access`` counts, for every policy and both
  write modes;
* the block view's per-node visits, read from the block visits, equal
  the per-event reference kept here as the oracle;
* a recorded trace's events, each shifted by its region's move, are
  byte-identical to a VM re-execution at the new placement, in memory
  and read back from a disk store's trace entry;
* a move through the block view (``TraceBundle.view``) gives the counts,
  per-node visits and flow bundle of the per-event path kept in
  ``tests/oracles/relocation.py``, byte for byte as stored, and the
  RMB/LMB solution solved from the view's key-id visits equals the
  block-level solve of the relocated every-visit aggregate at every
  placement.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest

from repro.analysis.artifacts import analyze_task
from repro.analysis.pipeline import resolve_system
from repro.analysis.rmb_lmb import solve_rmb_lmb
from repro.analysis.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    StoredEntry,
    TraceBundle,
)
from repro.analysis.whatif import WhatIfSession
from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.fuzz.build import build_case
from repro.fuzz.generator import case_from_seed
from repro.obs import observed
from repro.program import BasicBlock, Branch, Const, ControlFlowGraph, Halt, Jump
from repro.program.layout import ProgramLayout, SystemLayout
from repro.vm.machine import run_isolated
from repro.vm.trace import TraceEvents, TraceRecorder, TraceView
from repro.workloads import build_workload
from tests.conftest import compact_trace
from tests.oracles.trace import TraceColumns, block_trace, relocated
from tests.oracles.relocation import (
    relocated_aggregate,
    relocated_counts,
    relocated_flow,
    relocated_traces,
)
from tests.oracles.rmb_lmb import footprint, package_solve

POLICIES = ("lru", "fifo", "plru")


def random_events(seed: int, events: int = 600) -> list[tuple[int, str, str]]:
    """A random ``(address, kind, node)`` stream over a few hot and cold
    address bands, grouped into node visits like a VM trace."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(5)]
    stream = []
    node = rng.choice(nodes)
    for _ in range(events):
        if rng.random() < 0.2:
            node = rng.choice(nodes)
        band = rng.choice((0x1000, 0x1040, 0x2000, 0x8000))
        kind = rng.choice(("code", "read", "write"))
        stream.append((band + rng.randrange(0, 512), kind, node))
    return stream


def reference_visits(events, config: CacheConfig) -> dict:
    """The per-event aggregation the columnar kernel replaced."""
    visits: dict[str, list[tuple[int, ...]]] = {}
    current_node = None
    current_refs: list[int] = []
    for address, _, node in events:
        if node != current_node:
            if current_node is not None:
                visits.setdefault(current_node, []).append(tuple(current_refs))
            current_node = node
            current_refs = []
        current_refs.append(config.block(address))
    if current_node is not None:
        visits.setdefault(current_node, []).append(tuple(current_refs))
    return visits


def columns(trace: TraceEvents) -> tuple:
    return (
        trace.addresses.tobytes(),
        trace.kinds,
        trace.node_table,
        trace.node_ids.tobytes(),
    )


def vm_trace(layout: ProgramLayout, inputs, config: CacheConfig) -> TraceEvents:
    recording = TraceRecorder()
    run_isolated(
        layout,
        CacheState(config),
        inputs={name: list(values) for name, values in inputs.items()},
        trace=recording,
    )
    return recording.compact().expand()


class TestColumnarReplay:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_per_access_simulation(self, policy, write_back, seed):
        config = CacheConfig(
            num_sets=8, ways=2, line_size=16, policy=policy,
            write_back=write_back,
        )
        events = random_events(seed)
        reference = CacheState(config)
        for address, kind, _ in events:
            reference.access(address, write=kind == "write")
        replayed = CacheState(config)
        compact_trace(events).replay(replayed)
        assert replayed.stats == reference.stats
        assert replayed.snapshot() == reference.snapshot()
        assert replayed.dirty_blocks() == reference.dirty_blocks()


class TestColumnarAggregate:
    """A view's per-node visits, read from the columns, are the per-event
    reference's distinct visits, each once, in first-seen order."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_memref_aggregation(self, policy, write_back, seed):
        config = CacheConfig(
            num_sets=8, ways=2, line_size=16, policy=policy,
            write_back=write_back,
        )
        streams = [random_events(seed), random_events(seed + 100, 200)]
        expected: dict[str, dict[tuple[int, ...], None]] = {}
        for events in streams:
            for node, sequences in reference_visits(events, config).items():
                # Distinct visits, each once, in first-seen order.
                expected.setdefault(node, {}).update(dict.fromkeys(sequences))
        view = TraceView(
            {str(n): compact_trace(events) for n, events in enumerate(streams)},
            config.line_size, (0,),
        )
        visits = block_visits(view, view.moved(view.bases))
        assert list(visits) == list(expected)
        for node, sequences in expected.items():
            assert visits[node] == tuple(sequences)

    def test_empty_trace_has_no_visits(self):
        view = TraceView({"a": compact_trace([])}, 16, (0,))
        assert view.visits == {} and view.keys == []


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
            deltas = [
                new - old
                for new, old in zip(moved.region_bases(), home.region_bases())
            ]
            assert columns(
                relocated(vm_trace(home, inputs, config), deltas)
            ) == columns(vm_trace(moved, inputs, config)), scenario

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
        bundle = ArtifactStore(directory=tmp_path).get(
            artifacts.subkeys["trace"], kind="trace"
        )
        traces = relocated_traces(bundle, moved.region_bases())
        for scenario, inputs in scenarios.items():
            assert columns(traces[scenario]) == columns(
                vm_trace(moved, inputs, config)
            ), scenario
        assert artifacts.wcet == analyze_task(moved, scenarios, config).wcet


def _stored(kind: str, payload) -> bytes:
    """The bytes a disk store writes for *payload*."""
    return pickle.dumps(
        StoredEntry(schema=SCHEMA_VERSION, kind=kind, payload=payload),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def synthetic_bundle(
    seed: int, regions: int = 3, spacing: int = 0x10000
) -> TraceBundle:
    """Two random scenarios over *regions* regions recorded *spacing*
    bytes apart from 0x10000: each event references a random region at
    a random offset, from a node that changes now and then, with random
    kinds (so writes also repeat)."""
    rng = random.Random(seed)
    bases = tuple(0x10000 + spacing * region for region in range(regions))
    traces = {}
    for name, events in (("a", 500), ("b", 300)):
        columns = TraceColumns()
        node = "n0"
        for _ in range(events):
            if rng.random() < 0.2:
                node = f"n{rng.randrange(5)}"
            region = rng.randrange(regions)
            columns.append(
                bases[region] + 4 * rng.randrange(0x60), rng.randrange(3),
                node, region,
            )
        traces[name] = block_trace(columns.compact())
    return TraceBundle(
        traces=traces,
        base_cycles={name: 0 for name in traces},
        bases=bases,
    )


def block_visits(view, moved) -> dict[str, tuple[tuple[int, ...], ...]]:
    """The view's per-node visits as distinct block runs at the placement
    whose key blocks are *moved* (a move may make two runs one)."""
    visits = {}
    for label, node in view.visits.items():
        for distinct, run in node:
            assert distinct == tuple(dict.fromkeys(run))
        visits[label] = tuple(dict.fromkeys(
            tuple(map(moved.__getitem__, run)) for _, run in node
        ))
    return visits


def assert_view_matches_oracle(bundle, bases, config, scenarios=None):
    scenarios = tuple(scenarios or bundle.traces)
    view = bundle.view(config.line_size, bases, scenarios)
    assert view.counts(bases, config) == relocated_counts(
        bundle, bases, config, scenarios
    )
    moved = view.moved(bases)
    reference = relocated_aggregate(bundle, bases, config, scenarios)
    visits = block_visits(view, moved)
    assert list(visits) == list(reference.node_refs)
    assert visits == {
        label: tuple(dict.fromkeys(refs.visit_sequences))
        for label, refs in reference.node_refs.items()
    }
    return view, moved


class TestBlockView:
    """The view against the per-event oracle on hand-built traces, whose
    random kinds include the write repeats a VM trace never has."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_and_aggregate_equal_per_event_relocation(
        self, policy, write_back, seed
    ):
        config = CacheConfig(
            num_sets=8, ways=2, line_size=16, policy=policy,
            write_back=write_back,
        )
        bundle = synthetic_bundle(seed)
        rng = random.Random(seed)
        for _ in range(6):
            bases = tuple(
                base + rng.choice((0, 4, 16, 0x40, 0x1004, -0x800))
                for base in bundle.bases
            )
            assert_view_matches_oracle(bundle, bases, config)
        # Caller order decides first-seen order across scenarios.
        assert_view_matches_oracle(bundle, bundle.bases, config, ("b", "a"))

    def test_regions_sharing_blocks_at_recording_move_apart(self):
        config = CacheConfig(num_sets=8, ways=2, line_size=16)
        # Both regions recorded over the same addresses: a block is named
        # once per region.
        bundle = synthetic_bundle(3, regions=2, spacing=0)
        view = bundle.view(16, bundle.bases, "ab")
        assert len({block for block, _ in view.keys}) < len(view.keys)
        view, moved = assert_view_matches_oracle(bundle, (0x10000, 0x30000), config)
        assert len(set(moved)) == len(moved)

    def test_regions_moved_onto_one_block(self):
        config = CacheConfig(num_sets=8, ways=2, line_size=16)
        bundle = synthetic_bundle(5, regions=2)
        view = bundle.view(16, bundle.bases, "ab")
        assert len({block for block, _ in view.keys}) == len(view.keys)
        # Region 1 onto region 0's addresses, by whole lines.
        view, moved = assert_view_matches_oracle(bundle, (0x10000, 0x10000), config)
        assert len(set(moved)) < len(moved)

    def test_phase_classes_and_line_sizes_get_their_own_views(self):
        bundle = synthetic_bundle(1)
        with observed() as (_, metrics):
            bundle.view(16, bundle.bases, "ab")
            bundle.view(16, tuple(base + 0x40 for base in bundle.bases), "ab")
            bundle.view(16, (0x10004,) + bundle.bases[1:], "ab")
            bundle.view(32, bundle.bases, "ab")
            bundle.view(32, bundle.bases, "ba")
        counters = metrics.to_dict()["counters"]
        assert counters["trace.views_built"] == 4
        assert "trace.relocations" not in counters  # no event is moved
        assert len(bundle._views) == 4

    def test_pickle_is_unchanged_by_views(self):
        bundle = synthetic_bundle(2)
        before = _stored("trace", bundle)
        bundle.view(16, bundle.bases, "ab")
        bundle.view(16, (0x10008,) + bundle.bases[1:], "ab")
        assert bundle._views
        assert _stored("trace", bundle) == before
        assert "_views" not in vars(pickle.loads(pickle.dumps(bundle)))
        assert SCHEMA_VERSION == 10


def synthetic_cfg() -> ControlFlowGraph:
    """A CFG over the synthetic bundles' nodes ``n0``-``n4``, with joins
    and back edges for the fixpoints to iterate over."""
    cfg = ControlFlowGraph(name="synthetic", entry="n0")
    cfg.add_block(BasicBlock("n0", [Const("c", 1)], Branch("c", "n1", "n2")))
    cfg.add_block(BasicBlock("n1", [], Jump("n3")))
    cfg.add_block(BasicBlock("n2", [], Branch("c", "n3", "n0")))
    cfg.add_block(BasicBlock("n3", [], Branch("c", "n4", "n1")))
    cfg.add_block(BasicBlock("n4", [], Halt()))
    return cfg


class TestFlowFromView:
    """The RMB/LMB solve from a view's key-id visits equals the
    block-level solve of the per-event relocated every-visit aggregate."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    @pytest.mark.parametrize("ways", (1, 2, 4))
    def test_view_solve_equals_block_level_solve(self, policy, write_back, ways):
        config = CacheConfig(
            num_sets=4, ways=ways, line_size=16, policy=policy,
            write_back=write_back,
        )
        cfg = synthetic_cfg()
        shared = 0
        for seed in range(3):
            bundle = synthetic_bundle(seed)
            rng = random.Random(seed)
            placements = [bundle.bases]
            for _ in range(4):
                placements.append(tuple(
                    base + rng.choice((0, 4, 16, 0x40, 0x1004, -0x800))
                    for base in bundle.bases
                ))
            # Regions 0 and 1 on the same lines, region 1 off by a word.
            placements.append((0x10000, 0x10004, 0x30000))
            for bases in placements:
                view = bundle.view(config.line_size, bases, "ab")
                moved = view.moved(bases)
                shared += len(set(moved)) < len(moved)
                reference = relocated_aggregate(bundle, bases, config, "ab")
                expected = package_solve(cfg, reference, config)
                assert solve_rmb_lmb(cfg, view.visits, config, moved) == expected
                assert frozenset(expected.bits.blocks) == footprint(reference)
        assert shared == 3  # the forced placement is non-injective


def _moves(task, rng):
    """Random placements of *task*: shifts by whole and partial lines,
    and data packed straight after the code (sharing its last block)
    with an array pinned mid-line."""
    home = task.layout
    for move in range(4):
        code = home.code_base + rng.choice((0, 4, 16, 64, 0x1000, 0x10004))
        data = home.data_base + rng.choice((0, 4, 12, 32, 0x2000, 0x20010))
        overrides = {}
        if move == 3:
            data = code + task.program.cfg.total_instructions * 4
            arrays = list(task.program.arrays)
            if arrays:
                overrides = {arrays[-1]: data + 0x4000 + rng.choice((4, 8, 20))}
        yield ProgramLayout(
            program=task.program, code_base=code, data_base=data,
            symbol_overrides=overrides,
        )


class TestViewOnFuzzCases:
    """Moves of generated tasks through ``analyze_task``: the stored sim
    and flow entries are the per-event oracle's, byte for byte."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("write_back", (False, True))
    def test_stored_entries_equal_per_event_oracle(self, policy, write_back):
        for index in range(3):
            spec = case_from_seed(23, index)
            spec = replace(
                spec, cache=replace(spec.cache, policy=policy, write_back=write_back)
            )
            case = build_case(spec)
            rng = random.Random(index)
            for task in case.tasks:
                store = ArtifactStore(directory=None)
                home = analyze_task(
                    task.layout, task.scenarios, case.config, store=store
                )
                bundle = store.get(home.subkeys["trace"], kind="trace")
                for layout in _moves(task, rng):
                    moved = analyze_task(
                        layout, task.scenarios, case.config, store=store
                    )
                    bases = layout.region_bases()
                    sim = store.get(moved.subkeys["sim"], kind="sim")
                    flow = store.get(moved.subkeys["flow"], kind="flow")
                    assert sim.counts == relocated_counts(
                        bundle, bases, case.config, task.scenarios
                    )
                    reference = relocated_flow(
                        task.program, bundle, bases, case.config, task.scenarios
                    )
                    assert flow == reference
                    assert _stored("flow", flow) == _stored("flow", reference)
                assert store.misses_by_kind["trace"] == 1


class TestPaperWorkloadMoves:
    def test_adpcm_scenarios_sharing_kinds_and_nodes_keep_their_streams(self):
        """Both ADPCM inputs issue the same kinds from the same nodes at
        data-dependent addresses: each scenario keeps its own stream."""
        workload = build_workload("adpcmc")
        scenarios = workload.scenario_map()
        config = CacheConfig.scaled_8k(miss_penalty=20)
        home = SystemLayout().place(workload.program)
        store = ArtifactStore(directory=None)
        artifacts = analyze_task(home, scenarios, config, store=store)
        bundle = store.get(artifacts.subkeys["trace"], kind="trace")
        first, second = (bundle.traces[name] for name in scenarios)
        assert first.visits == second.visits and first.data != second.data
        moved = ProgramLayout(
            program=workload.program,
            code_base=home.code_base + 0x10000,
            data_base=home.data_base + 0x20000,
        )
        view, _ = assert_view_matches_oracle(
            bundle, moved.region_bases(), config, scenarios
        )
        assert view.streams["tone"] != view.streams["noise"]
        counts = relocated_counts(bundle, moved.region_bases(), config, scenarios)
        assert counts["tone"] != counts["noise"]
        result = analyze_task(moved, scenarios, config, store=store)
        cold = analyze_task(moved, scenarios, config)
        assert result.wcet.per_scenario_cycles == cold.wcet.per_scenario_cycles

    def test_whole_line_move_relocates_no_event(self):
        """The cold run builds each task's home view; a move by whole
        lines reads it, building no view and relocating no event."""
        with WhatIfSession("exp1") as session:
            with observed() as (_, cold):
                session.result()
            with observed() as (_, metrics):
                session.apply("code:ed=0x8000")
                session.apply("data:ed=0x9000")
        tasks = len(resolve_system("exp1").tasks)
        assert cold.to_dict()["counters"]["trace.views_built"] == tasks
        counters = metrics.to_dict()["counters"]
        assert counters.get("trace.relocations", 0) == 0
        assert counters.get("trace.views_built", 0) == 0

    def test_color_move_changing_a_phase_builds_a_second_view(self):
        """With 32-byte lines, ``sobel_gx`` (ed's array 2) sits half a
        line in; pinning it to a color band puts it on a line start."""
        with WhatIfSession("exp1") as session:
            session.result()
            session.apply("geometry=128x2x32")
            sobel_gx = session._placed.layouts()["ed"].symbol_base("sobel_gx")
            assert sobel_gx % 32 == 16
            with observed() as (_, metrics):
                state = session.apply("color:ed:2=1")
            assignment = session.layout_assignment()
        counters = metrics.to_dict()["counters"]
        assert counters["trace.views_built"] == 1
        assert "trace.relocations" not in counters  # no event is moved
        cold = WhatIfSession("exp1", cache=state.config).set_assignment(assignment)
        assert cold.signature() == state.signature()
