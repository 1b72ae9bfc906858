"""Unit tests for the cycle-level virtual machine."""

import pytest

from repro.cache import CacheConfig, CacheState
from repro.program import ProgramBuilder, SystemLayout
from repro.program.instructions import BASE_CYCLES
from repro.vm import Machine, TraceRecorder, VMError, run_isolated


def build_and_place(builder_fn, name="p"):
    b = ProgramBuilder(name)
    builder_fn(b)
    program = b.build()
    return SystemLayout().place(program)


def fresh_cache(miss=20):
    return CacheState(CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=miss))


class TestExecutionSemantics:
    def test_arithmetic_program(self):
        def body(b):
            out = b.array("out", words=4)
            b.const("a", 10)
            b.const("b", 3)
            b.binop("s", "add", "a", "b")
            b.binop("d", "sub", "a", "b")
            b.binop("m", "mul", "a", "b")
            b.binop("q", "div", "a", "b")
            b.store("s", out, index=0)
            b.store("d", out, index=1)
            b.store("m", out, index=2)
            b.store("q", out, index=3)

        layout = build_and_place(body)
        machine = run_isolated(layout, fresh_cache())
        assert machine.read_array("out") == [13, 7, 30, 3]

    def test_load_store_roundtrip(self):
        def body(b):
            data = b.array("data", words=3)
            out = b.array("out", words=3)
            with b.loop(3) as i:
                b.load("v", data, index=i)
                b.binop("v", "mul", "v", "v")
                b.store("v", out, index=i)

        layout = build_and_place(body)
        machine = run_isolated(layout, fresh_cache(), inputs={"data": [2, 3, 4]})
        assert machine.read_array("out") == [4, 9, 16]

    def test_uninitialised_memory_reads_zero(self):
        def body(b):
            data = b.array("data", words=1)
            out = b.array("out", words=1)
            b.load("v", data, index=0)
            b.store("v", out, index=0)

        layout = build_and_place(body)
        machine = run_isolated(layout, fresh_cache())
        assert machine.read_array("out") == [0]

    def test_unset_register_raises(self):
        def body(b):
            out = b.array("out", words=1)
            b.store("ghost", out, index=0)

        layout = build_and_place(body)
        with pytest.raises(VMError, match="unset register"):
            run_isolated(layout, fresh_cache())

    def test_division_by_zero_raises(self):
        def body(b):
            b.const("z", 0)
            b.binop("x", "div", 1, "z")

        layout = build_and_place(body)
        with pytest.raises(VMError, match="division by zero"):
            run_isolated(layout, fresh_cache())

    def test_out_of_bounds_access_raises(self):
        def body(b):
            data = b.array("data", words=4)
            b.const("i", 10)
            b.load("v", data, index="i")

        layout = build_and_place(body)
        with pytest.raises(VMError, match="out of bounds"):
            run_isolated(layout, fresh_cache())

    def test_runaway_guard(self):
        def body(b):
            with b.loop(1000):
                b.const("x", 1)

        layout = build_and_place(body)
        with pytest.raises(VMError, match="exceeded"):
            run_isolated(layout, fresh_cache(), max_steps=100)

    def test_step_after_halt_raises(self):
        def body(b):
            b.const("x", 1)

        layout = build_and_place(body)
        machine = run_isolated(layout, fresh_cache())
        assert machine.halted
        with pytest.raises(VMError, match="halted"):
            machine.step()

    def test_write_array_too_long_rejected(self):
        def body(b):
            b.array("data", words=2)
            b.const("x", 1)

        layout = build_and_place(body)
        machine = Machine(layout=layout, cache=fresh_cache())
        with pytest.raises(VMError, match="exceed"):
            machine.write_array("data", [1, 2, 3])


class TestCycleAccounting:
    def test_single_instruction_cost(self):
        def body(b):
            b.const("x", 1)

        layout = build_and_place(body)
        machine = Machine(layout=layout, cache=fresh_cache(miss=20))
        result = machine.step()
        # Const base cost + one instruction-fetch miss.
        assert result.cycles == BASE_CYCLES["const"] + 20

    def test_second_fetch_in_same_block_hits(self):
        def body(b):
            b.const("x", 1)
            b.const("y", 2)

        layout = build_and_place(body)
        machine = Machine(layout=layout, cache=fresh_cache(miss=20))
        machine.step()
        second = machine.step()  # same 16B code block: fetch hits
        assert second.cycles == BASE_CYCLES["const"]

    def test_load_charges_fetch_and_data(self):
        def body(b):
            data = b.array("data", words=1)
            b.load("v", data, index=0)

        layout = build_and_place(body)
        machine = Machine(layout=layout, cache=fresh_cache(miss=20))
        result = machine.step()
        # load base + fetch miss + data miss.
        assert result.cycles == BASE_CYCLES["load"] + 20 + 20

    def test_zero_miss_penalty(self):
        def body(b):
            data = b.array("data", words=4)
            with b.loop(4) as i:
                b.load("v", data, index=i)

        layout = build_and_place(body)
        cache = CacheState(
            CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=0)
        )
        machine = run_isolated(layout, cache)
        # With zero penalty, cycles equal the sum of base costs.
        base_only = machine.cycles
        machine2 = run_isolated(build_and_place(body, "p"), fresh_cache(miss=20))
        assert machine2.cycles > base_only

    def test_warm_cache_never_slower(self):
        def body(b):
            data = b.array("data", words=32)
            with b.loop(32) as i:
                b.load("v", data, index=i)

        layout = build_and_place(body)
        cold = run_isolated(layout, fresh_cache())
        warm_cache = fresh_cache()
        run_isolated(layout, warm_cache)  # first run warms the cache
        warm = run_isolated(layout, warm_cache)
        assert warm.cycles <= cold.cycles

    def test_cycles_accumulate(self):
        def body(b):
            b.const("x", 1)
            b.const("y", 2)

        layout = build_and_place(body)
        machine = Machine(layout=layout, cache=fresh_cache())
        total = 0
        while not machine.halted:
            total += machine.step().cycles
        assert machine.cycles == total
        assert machine.steps == 3  # two consts + halt


class TestTracing:
    def test_trace_records_code_and_data(self):
        def body(b):
            data = b.array("data", words=1)
            out = b.array("out", words=1)
            b.load("v", data, index=0)
            b.store("v", out, index=0)

        layout = build_and_place(body)
        trace = TraceRecorder()
        run_isolated(layout, fresh_cache(), trace=trace)
        kinds = trace.compact().expand().kinds
        assert kinds.count(1) == 1  # read
        assert kinds.count(2) == 1  # write
        assert kinds.count(0) == 3  # code: load, store, halt

    def test_trace_nodes_match_blocks(self):
        def body(b):
            with b.loop(2):
                b.const("x", 1)

        layout = build_and_place(body)
        trace = TraceRecorder()
        run_isolated(layout, fresh_cache(), trace=trace)
        compact = trace.compact().expand()
        labels = {compact.node_table[node] for node in compact.node_ids}
        assert labels <= set(layout.program.cfg.labels())

    def test_trace_addresses_within_regions(self):
        def body(b):
            data = b.array("data", words=4)
            with b.loop(4) as i:
                b.load("v", data, index=i)

        layout = build_and_place(body)
        trace = TraceRecorder()
        run_isolated(layout, fresh_cache(), trace=trace)
        events = trace.compact().expand()
        for address, kind in zip(events.addresses, events.kinds):
            if kind == 0:  # code fetch
                assert layout.code_base <= address < layout.code_end
            else:
                assert layout.data_base <= address < layout.data_end


class TestResumability:
    def test_interleaved_execution_preserves_results(self):
        """Two machines stepped alternately produce the same results as
        isolated runs — the property preemptive scheduling relies on."""

        def body_a(b):
            out = b.array("out", words=1)
            b.const("acc", 0)
            with b.loop(10):
                b.add("acc", "acc", 2)
            b.store("acc", out, index=0)

        def body_b(b):
            out = b.array("out", words=1)
            b.const("acc", 1)
            with b.loop(10):
                b.mul("acc", "acc", 2)
            b.store("acc", out, index=0)

        layout_sys = SystemLayout()
        ba = ProgramBuilder("a")
        body_a(ba)
        bb = ProgramBuilder("b")
        body_b(bb)
        layout_a = layout_sys.place(ba.build())
        layout_b = layout_sys.place(bb.build())
        shared = fresh_cache()
        ma = Machine(layout=layout_a, cache=shared)
        mb = Machine(layout=layout_b, cache=shared)
        while not (ma.halted and mb.halted):
            if not ma.halted:
                ma.step()
            if not mb.halted:
                mb.step()
        assert ma.read_array("out") == [20]
        assert mb.read_array("out") == [1024]

    def test_shared_memory_dict_persists(self):
        def body(b):
            counter = b.array("counter", words=1)
            b.load("c", counter, index=0)
            b.add("c", "c", 1)
            b.store("c", counter, index=0)

        layout = build_and_place(body)
        memory: dict[int, int] = {}
        for expected in (1, 2, 3):
            machine = Machine(layout=layout, cache=fresh_cache(), memory=memory)
            machine.run()
            assert machine.read_array("counter") == [expected]
