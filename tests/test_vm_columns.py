"""Block-decoded ``Machine.run()`` against a ``step()``-only loop.

``run()`` executes whole blocks cache-free, recording block visits, and
charges the cache once afterwards; ``step()`` charges every reference as
it issues it.  Both read one decoded table, so they must agree on
everything: the reference columns (``run()``'s block visits expanded,
against the per-event columns :class:`tests.oracles.trace.RecordingMachine`
records as ``step()`` issues; regions included), cycles, steps, cache
statistics and contents, the dirty set, the memory image — and, when a
program fails, on the first error and the state it leaves behind.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.state import CacheState
from repro.experiments.setup import ALL_SPECS
from repro.analysis.pipeline import resolve_system
from repro.fuzz.build import build_program, scenarios_for
from repro.fuzz.generator import RandomDraw, draw_cache_spec, draw_program_spec
from repro.program.builder import ProgramBuilder
from repro.program.layout import SystemLayout
from repro.vm.machine import Machine, VMError
from repro.vm.trace import TraceRecorder

from tests.oracles.hierarchy import SteppedHierarchy
from tests.oracles.trace import RecordingMachine

POLICY_MODES = [
    (policy, write_back)
    for policy in ("lru", "fifo", "plru")
    for write_back in (False, True)
]


def step_until_halt(machine: Machine, max_steps: int = 10_000_000) -> int:
    """The reference ``run()``: one ``step()`` at a time, with the same
    runaway guard."""
    while not machine.halted:
        if machine.steps >= max_steps:
            raise VMError(
                f"exceeded {max_steps} steps without halting "
                f"(program {machine.program.name!r})"
            )
        machine.step()
    return machine.cycles


def prepared(layout, cache, inputs) -> RecordingMachine:
    machine = RecordingMachine(layout=layout, cache=cache)
    for name, values in inputs.items():
        machine.write_array(name, list(values))
    return machine


def observed(machine: Machine) -> dict:
    """Everything a run can change, in comparable form."""
    cache = machine.cache
    state = {
        "trace": machine.columns.compact(),
        "cycles": machine.cycles,
        "steps": machine.steps,
        "halted": machine.halted,
        "node": machine.current_node,
        "registers": dict(machine.registers),
        "memory": dict(machine.memory),
    }
    if cache is not None:
        stats = cache.stats
        state["stats"] = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        if isinstance(cache, CacheState):
            state["snapshot"] = cache.snapshot()
            state["dirty"] = cache.dirty_blocks()
        else:
            state["snapshot"] = (cache.l1.snapshot(), cache.l2.snapshot())
    return state


def outcome(drive, machine: Machine):
    """``(error type and message or None, observed state)``."""
    try:
        drive(machine)
        error = None
    except Exception as exc:  # compared, not swallowed
        error = (type(exc), str(exc))
    return error, observed(machine)


def assert_same(make_machine, max_steps: int = 10_000_000):
    """``run()`` and the step loop agree on *make_machine()*'s program."""
    fast = outcome(lambda m: m.run(max_steps=max_steps), make_machine())
    slow = outcome(lambda m: step_until_halt(m, max_steps), make_machine())
    assert fast[0] == slow[0]
    for key in slow[1]:
        assert fast[1][key] == slow[1][key], key
    return fast


def warm(cache, layout, inputs):
    """Leave *cache* warm (and dirty) from a stepwise run of *layout*."""
    step_until_halt(prepared(layout, cache, inputs))


# ----------------------------------------------------------------------
# Paper workloads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.key)
@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_paper_workloads(spec, warm_start):
    placed = resolve_system(spec)
    for task in placed.tasks:
        others = [other for other in placed.tasks if other is not task]
        for inputs in task.scenarios.values():

            def make():
                cache = CacheState(placed.config)
                if warm_start:
                    intruder = others[0]
                    warm(cache, intruder.layout, next(iter(intruder.scenarios.values())))
                return prepared(task.layout, cache, inputs)

            error, state = assert_same(make)
            assert error is None and state["halted"]


def test_paper_workload_on_a_hierarchy():
    placed = resolve_system(ALL_SPECS[0])
    l1 = placed.config
    hierarchy = HierarchyConfig(
        l1=l1,
        l2=CacheConfig(num_sets=l1.num_sets * 4, ways=4, line_size=l1.line_size * 2),
    )
    task = placed.tasks[1]
    for inputs in task.scenarios.values():
        assert_same(lambda: prepared(task.layout, SteppedHierarchy(hierarchy), inputs))


# ----------------------------------------------------------------------
# Fuzz-drawn programs over every policy and write mode
# ----------------------------------------------------------------------


def drawn(index: int):
    """Program, inputs and a cache config of draw *index*; the policy and
    write mode cycle through :data:`POLICY_MODES`."""
    draw = RandomDraw(random.Random(f"vm-columns:{index}"))
    program, inputs = build_program(draw_program_spec(draw), f"p{index}")
    cache = draw_cache_spec(draw)
    policy, write_back = POLICY_MODES[index % len(POLICY_MODES)]
    config = CacheConfig(
        num_sets=cache.num_sets,
        ways=cache.ways,
        line_size=cache.line_size,
        miss_penalty=cache.miss_penalty,
        hit_cycles=index % 2,
        policy=policy,
        write_back=write_back,
    )
    return program, inputs, config


@pytest.mark.parametrize("chunk", range(6))
def test_fuzz_drawn_programs(chunk):
    """120 draws: each on a cold cache and on a cache left warm (and
    dirty) by another program sharing the address space."""
    for index in range(chunk * 20, chunk * 20 + 20):
        program, inputs, config = drawn(index)
        other, other_inputs, _ = drawn(index + 1000)
        system = SystemLayout()
        layout = system.place(program)
        other_layout = system.place(other)
        for scenario in scenarios_for(inputs).values():
            for warm_start in (False, True):

                def make():
                    cache = CacheState(config)
                    if warm_start:
                        warm(cache, other_layout, other_inputs)
                    return prepared(layout, cache, scenario)

                error, _ = assert_same(make)
                assert error is None


def test_fuzz_programs_cache_free_columns_match():
    """Without a cache ``run()`` counts base cycles only, and its columns
    replayed through a cache give exactly the step loop's counts."""
    for index in range(30):
        program, inputs, config = drawn(index)
        layout = SystemLayout().place(program)
        free = Machine(layout=layout, cache=None, trace=TraceRecorder())
        for name, values in inputs.items():
            free.write_array(name, list(values))
        free.run()
        charged = prepared(layout, CacheState(config), inputs)
        step_until_halt(charged)
        replayed = CacheState(config)
        cache_cycles = free.trace.compact().replay(replayed)
        assert free.trace.compact().expand() == charged.columns.compact()
        assert free.cycles + cache_cycles == charged.cycles
        assert replayed.snapshot() == charged.cache.snapshot()
        assert replayed.dirty_blocks() == charged.cache.dirty_blocks()


# ----------------------------------------------------------------------
# Resuming mid-block
# ----------------------------------------------------------------------


def test_run_resumes_mid_block_after_steps():
    program, inputs, config = drawn(7)
    layout = SystemLayout().place(program)
    reference = prepared(layout, CacheState(config), inputs)
    step_until_halt(reference)
    for prefix in (1, 2, 3, 5, 8, 13, 40):
        machine = prepared(layout, CacheState(config), inputs)
        for _ in range(prefix):
            if not machine.halted:
                machine.step()
        machine.run()
        assert observed(machine) == observed(reference)


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------


def build(body, name="e"):
    builder = ProgramBuilder(name)
    body(builder)
    builder.halt()
    return SystemLayout().place(builder.build())


def failing(body):
    layout = build(body)
    config = CacheConfig(num_sets=4, ways=2, line_size=16, write_back=True)
    return lambda: prepared(layout, CacheState(config), {})


def test_out_of_bounds_access():
    def body(b):
        data = b.array("data", words=4)
        out = b.array("out", words=2)
        b.const("x", 3)
        b.store("x", out, index=1)
        with b.loop(6) as i:
            b.load("v", data, index=i)
            b.store("v", out, index=0)

    error, state = assert_same(failing(body))
    assert error[0] is VMError and "out of bounds for 'data'" in error[1]
    assert state["steps"] > 0 and not state["halted"]


def test_out_of_bounds_static_address():
    def body(b):
        data = b.array("data", words=2)
        b.const("x", 1)
        b.store("x", data, index=2)

    error, _ = assert_same(failing(body))
    assert error[0] is VMError and "out of bounds" in error[1]


@pytest.mark.parametrize("which", ["alu", "index", "store-source", "branch", "same-register"])
def test_unset_register(which):
    def body(b):
        data = b.array("data", words=4)
        b.const("i", 1)
        b.store("i", data, index=0)
        if which == "alu":
            b.add("x", "i", "ghost")
        elif which == "index":
            b.load("v", data, index="ghost")
        elif which == "store-source":
            b.store("ghost", data, index="i")  # the write is issued first
        elif which == "same-register":
            b.store("ghost", data, index="ghost")  # the index read fails first
        else:
            with b.if_else("ghost") as arms:
                with arms.then_case():
                    b.const("x", 1)
                with arms.else_case():
                    b.const("x", 2)

    error, state = assert_same(failing(body))
    assert error == (VMError, "read of unset register 'ghost'")
    # The failing instruction's fetch is issued; a store also issues its
    # write before it reads the source register.
    issued = state["trace"].kinds[-2:]
    assert issued == (b"\x00\x02" if which == "store-source" else b"\x02\x00")
    assert state["stats"][0] + state["stats"][1] == len(state["trace"])


def test_division_by_zero():
    def body(b):
        b.const("z", 0)
        b.const("n", 7)
        with b.loop(3):
            b.binop("q", "div", "n", 2)
        b.binop("q", "mod", "n", "z")

    error, _ = assert_same(failing(body))
    assert error[0] is VMError and "division by zero" in error[1]


@pytest.mark.parametrize("max_steps", [0, 1, 2, 5, 17, 40, 41, 99])
def test_max_steps_runs_out_mid_block(max_steps):
    def body(b):
        data = b.array("data", words=40)
        with b.loop(40) as i:
            b.load("v", data, index=i)
            b.add("v", "v", 1)
            b.store("v", data, index=i)

    layout = build(body)
    config = CacheConfig(num_sets=4, ways=2, line_size=16)
    error, state = assert_same(
        lambda: prepared(layout, CacheState(config), {}), max_steps=max_steps
    )
    assert error == (
        VMError, f"exceeded {max_steps} steps without halting (program 'e')"
    )
    assert state["steps"] == max_steps


def test_error_inside_budget_comes_before_the_step_limit():
    def body(b):
        data = b.array("data", words=2)
        with b.loop(4) as i:
            b.load("v", data, index=i)

    layout = build(body)
    config = CacheConfig(num_sets=4, ways=2, line_size=16)
    error, _ = assert_same(
        lambda: prepared(layout, CacheState(config), {}), max_steps=1000
    )
    assert error[0] is VMError and "out of bounds" in error[1]


def hand_built(instructions, terminator, arrays=()):
    """A one-block program built without the builder's checks."""
    from repro.program.builder import ArrayDecl, LeafNode, Program
    from repro.program.cfg import BasicBlock, ControlFlowGraph

    cfg = ControlFlowGraph(name="h", entry="h.entry")
    cfg.add_block(BasicBlock("h.entry", list(instructions), terminator))
    program = Program(
        name="h",
        cfg=cfg,
        structure=LeafNode("h.entry"),
        arrays={name: ArrayDecl(name, 4) for name in arrays},
    )
    return SystemLayout().place(program)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("unknown-symbol", ("LayoutError", "no symbol 'nosuch' in layout")),
        ("jump-to-missing", ("CFGError", "no block labelled 'h.missing'")),
        ("branch-to-missing", ("CFGError", "no block labelled 'h.missing'")),
        ("unknown-instruction", ("VMError", "unknown instruction")),
    ],
)
def test_malformed_programs_fail_when_executed(case, expected):
    """Decoding never raises: a malformed instruction fails when (and
    only when) it executes, with the error the reference raises."""
    from repro.program.instructions import Branch, Const, Halt, Instruction, Jump, Load

    head = [Const("x", 1)]
    terminator = Halt()
    if case == "unknown-symbol":
        head.append(Load("v", "nosuch", index=0))
    elif case == "jump-to-missing":
        terminator = Jump("h.missing")
    elif case == "branch-to-missing":
        terminator = Branch("x", "h.missing", "h.entry")
    else:
        head.append(Instruction())
    layout = hand_built(head, terminator, arrays=("data",))
    config = CacheConfig(num_sets=4, ways=2, line_size=16)
    error, state = assert_same(lambda: prepared(layout, CacheState(config), {}))
    assert error[0].__name__ == expected[0] and expected[1] in error[1]
    assert state["steps"] == 1  # the Const ran; the failing fetch was issued
    assert len(state["trace"]) == 2
