"""Traces as block visits, against the per-event reference.

``Machine.run()`` records each decoded-block visit and each data address
(:class:`repro.vm.trace.CompactTrace`); the per-event recorder it
replaced is the oracle in ``tests/oracles/trace.py``.  These tests pin
that the two forms are one trace:

* a run's block visits expand to exactly the per-event columns a
  stepped run records (addresses, kinds, node ids and regions), on the
  paper's experiments, on fuzz-drawn programs, and on the visits cut
  short by a step budget, a fault or a resumed run — also after a
  pickle round trip;
* the block view (:class:`repro.vm.trace.TraceView`) built from the
  visits of a VM trace equals the view named event by event
  (:class:`tests.oracles.trace.EventView`) through its keys: streams,
  write flags, dropped counts and distinct visits, for 16- and 32-byte
  lines, sub-line shifts and the layout-move what-if of the CLI smoke.
  On hand-built event lists it keeps the repeats its templates cannot
  decide, with the same counts.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.pipeline import resolve_system
from repro.analysis.store import TraceBundle
from repro.analysis.whatif import WhatIfSession
from repro.analysis.wcet import measure_wcet_detailed
from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.fuzz.build import build_program, scenarios_for
from repro.fuzz.generator import RandomDraw, case_from_seed, draw_program_spec
from repro.program.builder import ArrayDecl, LeafNode, Program, ProgramBuilder
from repro.program.cfg import BasicBlock, ControlFlowGraph
from repro.program.instructions import BinOp, Branch, Const, Halt, Jump, Load, Store
from repro.program.layout import SystemLayout
from repro.vm.machine import Machine, VMError
from repro.vm.trace import TraceRecorder, TraceView

from tests.conftest import compact_trace
from tests.oracles.trace import EventView, RecordingMachine, by_keys, relocated

EXPERIMENTS = ("exp1", "exp2")


def recorded(layout, inputs, max_steps=10_000_000, prefix=0):
    """``(error, block-visit trace, stepped per-event columns)`` of one
    run of *layout* on *inputs*: ``run()`` after *prefix* unrecorded
    steps, and the reference stepping every instruction."""
    machine = Machine(layout=layout, cache=None, trace=TraceRecorder())
    reference = RecordingMachine(layout=layout, cache=None)
    for each in (machine, reference):
        for name, values in inputs.items():
            each.write_array(name, list(values))
    for _ in range(prefix):
        machine.step()
    error = None
    try:
        machine.run(max_steps=max_steps)
    except VMError as exc:
        error = str(exc)
    for _ in range(prefix):
        reference.step()
    reference.columns = type(reference.columns)()  # run()'s events only
    expected = None
    try:
        while not reference.halted:
            if reference.steps >= max_steps:
                raise VMError(
                    f"exceeded {max_steps} steps without halting "
                    f"(program {reference.program.name!r})"
                )
            reference.step()
    except VMError as exc:
        expected = str(exc)
    assert error == expected
    return error, machine.trace.compact(), reference.columns.compact()


def assert_expands(layout, inputs, **kwargs):
    error, trace, events = recorded(layout, inputs, **kwargs)
    assert trace.expand() == events
    assert len(trace) == len(events)
    loaded = pickle.loads(pickle.dumps(trace))
    assert loaded == trace and loaded.expand() == events
    return error, trace


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_visits_expand_to_per_event_columns(experiment):
    for task in resolve_system(experiment).tasks:
        for inputs in task.scenarios.values():
            error, trace = assert_expands(task.layout, inputs)
            assert error is None and trace.partials == ()


@pytest.mark.parametrize("chunk", range(4))
def test_fuzz_drawn_visits_expand_to_per_event_columns(chunk):
    """48 draws, each scenario of each."""
    for index in range(chunk * 12, chunk * 12 + 12):
        draw = RandomDraw(random.Random(f"trace-visits:{index}"))
        program, inputs = build_program(draw_program_spec(draw), f"p{index}")
        layout = SystemLayout().place(program)
        for scenario in scenarios_for(inputs).values():
            error, _ = assert_expands(layout, scenario)
            assert error is None


def build(body, name="t"):
    builder = ProgramBuilder(name)
    body(builder)
    builder.halt()
    return SystemLayout().place(builder.build())


def streaming(b):
    data = b.array("data", words=40)
    with b.loop(40) as i:
        b.load("v", data, index=i)
        b.add("v", "v", 1)
        b.store("v", data, index=i)


@pytest.mark.parametrize("max_steps", [1, 2, 5, 17, 40, 41, 99])
def test_step_budget_cut_mid_block_round_trips(max_steps):
    layout = build(streaming)
    error, trace = assert_expands(layout, {}, max_steps=max_steps)
    assert error.startswith(f"exceeded {max_steps} steps")


def test_cuts_inside_a_block_are_partial_visits():
    layout = build(streaming)
    cut = [
        assert_expands(layout, {}, max_steps=steps)[1].partials
        for steps in range(1, 30)
    ]
    assert any(cut) and not all(cut)


@pytest.mark.parametrize("which", ["store-index", "store-source", "load"])
def test_fault_mid_block_round_trips(which):
    """A store out of bounds faults before its write is issued; an unset
    source register after it; a load out of bounds before its read."""

    def body(b):
        data = b.array("data", words=4)
        out = b.array("out", words=2)
        b.const("x", 3)
        with b.loop(6) as i:
            b.load("v", data, index=0)
            b.add("v", "v", 1)
            if which == "store-index":
                b.store("v", out, index=i)
            elif which == "store-source":
                b.store("ghost", out, index=0)
            else:
                b.load("w", data, index=i)
            b.store("x", data, index=1)

    error, trace = assert_expands(build(body), {})
    assert error is not None and trace.partials
    (block, first, last), = trace.partials
    assert 0 < last - first < len(trace.templates[block][2])


@pytest.mark.parametrize("prefix", [1, 2, 3, 5, 8, 13, 40])
def test_run_resumed_mid_block_round_trips(prefix):
    draw = RandomDraw(random.Random("trace-visits:7"))
    program, inputs = build_program(draw_program_spec(draw), "p7")
    assert_expands(SystemLayout().place(program), inputs, prefix=prefix)


def test_a_recorder_records_one_layout():
    first, second = build(streaming, "a"), build(streaming, "b")
    recorder = TraceRecorder()
    Machine(layout=first, cache=None, trace=recorder).run()
    with pytest.raises(ValueError):
        Machine(layout=second, cache=None, trace=recorder).run()


# ----------------------------------------------------------------------
# The view against the per-event reference
# ----------------------------------------------------------------------


def assert_view_equals_reference(bundle, line_size, bases, scenarios):
    """The bundle's view for *bases* equals the view named event by
    event over the traces moved into its phase class."""
    view = bundle.view(line_size, bases, scenarios)
    shift = [(new - old) % line_size for new, old in zip(bases, bundle.bases)]
    reference = EventView(
        {name: relocated(bundle.traces[name].expand(), shift) for name in scenarios},
        line_size,
        [old + delta for old, delta in zip(bundle.bases, shift)],
    )
    assert by_keys(view) == by_keys(reference)
    return view


def views_of(placed):
    """Each task of *placed* with a freshly recorded trace bundle."""
    for task in placed.tasks:
        recorded = measure_wcet_detailed(task.layout, task.scenarios)
        yield task, TraceBundle(
            traces={name: trace for name, (_, trace) in recorded.items()},
            base_cycles={name: base for name, (base, _) in recorded.items()},
            bases=task.layout.region_bases(),
        )


SHIFTS = ((0,), (4,), (8, 4), (12, 0, 4, 8))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("line_size", (16, 32))
def test_experiment_views_equal_per_event_views(experiment, line_size):
    for task, bundle in views_of(resolve_system(experiment)):
        scenarios = tuple(task.scenarios)
        for shift in SHIFTS:
            bases = tuple(
                base + shift[region % len(shift)]
                for region, base in enumerate(bundle.bases)
            )
            assert_view_equals_reference(bundle, line_size, bases, scenarios)
        assert_view_equals_reference(
            bundle, line_size, bundle.bases, scenarios[::-1]
        )


@pytest.mark.parametrize("index", range(12))
def test_fuzz_case_views_equal_per_event_views(index):
    placed = resolve_system(case_from_seed(4, index))
    rng = random.Random(index)
    for task, bundle in views_of(placed):
        for line_size in (16, 32):
            bases = tuple(base + rng.choice((0, 4, 8, 20)) for base in bundle.bases)
            for at in (bundle.bases, bases):
                assert_view_equals_reference(
                    bundle, line_size, at, tuple(task.scenarios)
                )


def test_layout_move_what_if_view_equals_per_event_view():
    """``whatif --base exp1 --edit code:ed=0x8000``, the CLI smoke's move,
    at the experiment's lines and at 32-byte ones."""
    with WhatIfSession("exp1") as session:
        session.result()
        session.apply("code:ed=0x8000")
        (moved,) = [task for task in session.placed.tasks if task.name == "ed"]
    (home,) = [task for task in resolve_system("exp1").tasks if task.name == "ed"]
    assert moved.layout.code_base == 0x8000 != home.layout.code_base
    ((_, bundle),) = [
        pair for pair in views_of(resolve_system("exp1")) if pair[0].name == "ed"
    ]
    for line_size in (16, 32):
        view = assert_view_equals_reference(
            bundle, line_size, moved.layout.region_bases(), tuple(home.scenarios)
        )
        assert len(view.moved(moved.layout.region_bases())) == len(view.keys)


@pytest.mark.parametrize("policy", ("lru", "fifo", "plru"))
@pytest.mark.parametrize("write_back", (False, True))
def test_hand_built_traces_keep_undecided_repeats(policy, write_back):
    """Event lists whose reads and writes share region 0 with the fetches:
    where a data slot may repeat its neighbour's key, the view keeps the
    event.  Every repeat it keeps is a hit that changes no state, so the
    counts and the visits are still the per-event view's."""
    rng = random.Random(3)
    events, node, pc = [], "n0", 0x1000
    for _ in range(400):
        if rng.random() < 0.2:
            node, pc = f"n{rng.randrange(4)}", 0x1000 + 4 * rng.randrange(64)
        kind = rng.choice(("code", "code", "read", "write"))
        if kind == "code":
            events.append((pc, kind, node))
            pc += 4
        else:
            events.append((0x1000 + 4 * rng.randrange(64), kind, node))
    trace = compact_trace(events)
    view = TraceView({"s": trace}, 16, (0,))
    reference = EventView({"s": trace.expand()}, 16, (0,))
    (_, streams, visits), (_, expected, expected_visits) = (
        by_keys(view), by_keys(reference)
    )
    assert visits == expected_visits
    (stream, _, dropped), (full, _, all_dropped) = streams["s"], expected["s"]
    assert 0 < dropped < all_dropped
    assert len(stream) + dropped == len(full) + all_dropped == len(events)
    config = CacheConfig(
        num_sets=8, ways=2, line_size=16, policy=policy, write_back=write_back
    )
    cache = CacheState(config)
    trace.replay(cache)
    stats = cache.stats
    assert view.counts((0,), config)["s"] == (
        stats.hits + stats.misses, stats.misses, stats.writebacks
    )


def self_loop():
    """A program whose loop is one block branching to itself."""
    cfg = ControlFlowGraph(name="s", entry="s.entry")
    cfg.add_block(BasicBlock("s.entry", [Const("i", 7)], Jump("s.loop")))
    cfg.add_block(BasicBlock("s.loop", [
        BinOp("i", "sub", "i", 1),
        Load("v", "data", index="i"),
        Store("v", "out", index="i"),
        BinOp("c", "gt", "i", 0),
    ], Branch("c", "s.loop", "s.exit")))
    cfg.add_block(BasicBlock("s.exit", [], Halt()))
    program = Program(
        name="s", cfg=cfg, structure=LeafNode("s.entry"),
        arrays={name: ArrayDecl(name, 8) for name in ("data", "out")},
    )
    return SystemLayout().place(program)


@pytest.mark.parametrize("line_size", (16, 32))
def test_consecutive_visits_of_one_block_are_one_node_visit(line_size):
    """A self-looping block, and a run resumed where a step budget cut
    it, visit one block twice in a row: one node visit, as the events
    show it."""
    layout = self_loop()
    looped = Machine(layout=layout, cache=None, trace=TraceRecorder())
    looped.run()
    resumed = Machine(layout=layout, cache=None, trace=TraceRecorder())
    with pytest.raises(VMError):
        resumed.run(max_steps=6)
    resumed.run()
    traces = {"looped": looped.trace.compact(), "resumed": resumed.trace.compact()}
    assert traces["resumed"].partials
    assert traces["looped"].expand() == traces["resumed"].expand()
    bases = layout.region_bases()
    view = TraceView(traces, line_size, bases)
    reference = EventView(
        {name: trace.expand() for name, trace in traces.items()}, line_size, bases
    )
    assert by_keys(view) == by_keys(reference)
    (loop,) = [node for label, node in view.visits.items() if label == "s.loop"]
    assert len(loop) == 1  # seven block visits, one node visit
