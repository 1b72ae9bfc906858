"""Unit tests for the RMB/LMB dataflow (Lee-style intra-task analysis)."""

import pytest

from repro.analysis.rmb_lmb import (
    first_distinct,
    last_distinct,
    solve_rmb_lmb,
)
from repro.cache import CacheConfig, CacheState
from repro.program import (
    BasicBlock,
    Branch,
    Const,
    ControlFlowGraph,
    Halt,
    Jump,
)
from tests.oracles.rmb_lmb import (
    NodeRefs,
    NodeTraceAggregate,
    every_visit_aggregate,
    footprint as oracle_footprint,
    package_solve,
)

# Distinct blocks for a 16B-line, 8-set cache: set index = (addr >> 4) & 7.
SET0_A = 0x000
SET0_B = 0x080
SET0_C = 0x100
SET1_A = 0x010


def config(ways=2):
    return CacheConfig(num_sets=8, ways=ways, line_size=16)


def linear_cfg(labels=("a", "b", "c")):
    cfg = ControlFlowGraph(name="lin", entry=labels[0])
    for label, nxt in zip(labels, labels[1:]):
        cfg.add_block(BasicBlock(label, [], Jump(nxt)))
    cfg.add_block(BasicBlock(labels[-1], [], Halt()))
    return cfg


def diamond_cfg():
    cfg = ControlFlowGraph(name="dia", entry="entry")
    cfg.add_block(
        BasicBlock("entry", [Const("c", 1)], Branch("c", "left", "right"))
    )
    cfg.add_block(BasicBlock("left", [], Jump("join")))
    cfg.add_block(BasicBlock("right", [], Jump("join")))
    cfg.add_block(BasicBlock("join", [], Halt()))
    return cfg


def aggregate_for(cfg_config, refs_by_node):
    """Build a NodeTraceAggregate from {label: [visit tuples]}."""
    node_refs = {
        label: NodeRefs(label=label, visit_sequences=tuple(visits))
        for label, visits in refs_by_node.items()
    }
    return NodeTraceAggregate(config=cfg_config, node_refs=node_refs)


class TestDistinctHelpers:
    def test_last_distinct(self):
        assert last_distinct([1, 2, 1, 3], 2) == (3, 1)
        assert last_distinct([1, 2, 3], 10) == (3, 2, 1)
        assert last_distinct([], 2) == ()
        assert last_distinct([5, 5, 5], 2) == (5,)

    def test_first_distinct(self):
        assert first_distinct([1, 2, 1, 3], 2) == (1, 2)
        assert first_distinct([1, 1, 2], 10) == (1, 2)
        assert first_distinct([], 3) == ()


class TestRMB:
    def test_reaching_blocks_flow_forward(self):
        cfg = linear_cfg()
        cc = config()
        agg = aggregate_for(cc, {"a": [(SET0_A,)]})
        result = package_solve(cfg, agg, cc)
        assert SET0_A in result.rmb_at_exit("a", 0)
        assert SET0_A in result.rmb_at_entry("b", 0)
        assert SET0_A in result.rmb_at_entry("c", 0)
        assert result.rmb_at_entry("a", 0) == frozenset()

    def test_strong_update_fully_determines_set(self):
        """>= L distinct refs in a deterministic node kill incoming blocks."""
        cc = config(ways=1)
        cfg = linear_cfg()
        agg = aggregate_for(cc, {"a": [(SET0_A,)], "b": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        # After b, only SET0_B can reside in set 0 (1-way cache).
        assert result.rmb_at_exit("b", 0) == frozenset({SET0_B})
        assert result.rmb_at_entry("c", 0) == frozenset({SET0_B})

    def test_weak_update_keeps_incoming(self):
        """< L distinct refs: incoming blocks may survive (2-way cache)."""
        cc = config(ways=2)
        cfg = linear_cfg()
        agg = aggregate_for(cc, {"a": [(SET0_A,)], "b": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        assert result.rmb_at_entry("c", 0) == frozenset({SET0_A, SET0_B})

    def test_nondeterministic_node_unions_variants(self):
        cc = config(ways=1)
        cfg = linear_cfg(("a", "b"))
        agg = aggregate_for(cc, {"a": [(SET0_A,), (SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        assert result.rmb_at_exit("a", 0) == frozenset({SET0_A, SET0_B})

    def test_diamond_merges_paths(self):
        cc = config()
        cfg = diamond_cfg()
        agg = aggregate_for(cc, {"left": [(SET0_A,)], "right": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        assert result.rmb_at_entry("join", 0) == frozenset({SET0_A, SET0_B})

    def test_sets_are_independent(self):
        cc = config()
        cfg = linear_cfg(("a", "b"))
        agg = aggregate_for(cc, {"a": [(SET0_A, SET1_A)]})
        result = package_solve(cfg, agg, cc)
        assert result.rmb_at_entry("b", 0) == frozenset({SET0_A})
        assert result.rmb_at_entry("b", 1) == frozenset({SET1_A})

    def test_loop_reaches_fixpoint(self):
        cfg = ControlFlowGraph(name="loop", entry="pre")
        cfg.add_block(BasicBlock("pre", [Const("i", 0)], Jump("head")))
        cfg.add_block(BasicBlock("head", [], Branch("i", "body", "out")))
        cfg.add_block(BasicBlock("body", [], Jump("head")))
        cfg.add_block(BasicBlock("out", [], Halt()))
        cc = config()
        agg = aggregate_for(cc, {"body": [(SET0_A,), (SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        # Blocks referenced in the loop body may reside when leaving the loop.
        assert {SET0_A, SET0_B} <= set(result.rmb_at_entry("out", 0))


class TestVisitSkip:
    """A visit whose blocks a node's earlier visits already generate is
    skipped only once the node is weakly updated."""

    def test_covered_visit_still_weakens_a_strong_node(self):
        # b's first visit fills set 0 (2 ways) and kills incoming blocks;
        # its second visit touches one of those blocks only, so the node
        # no longer determines set 0 and a's block survives b.
        cc = config(ways=2)
        cfg = linear_cfg()
        agg = aggregate_for(
            cc, {"a": [(SET0_C,)], "b": [(SET0_A, SET0_B), (SET0_A,)]}
        )
        result = package_solve(cfg, agg, cc)
        assert result.rmb_at_entry("c", 0) == frozenset({SET0_A, SET0_B, SET0_C})
        only_first = aggregate_for(
            cc, {"a": [(SET0_C,)], "b": [(SET0_A, SET0_B)]}
        )
        result = package_solve(cfg, only_first, cc)
        assert result.rmb_at_entry("c", 0) == frozenset({SET0_A, SET0_B})

    def test_key_ids_read_through_a_block_table(self):
        # Ids 0-2 name blocks; ids 1 and 2 share a block at this placement.
        cc = config(ways=2)
        cfg = linear_cfg()
        blocks = [SET0_A, SET0_B, SET0_B]
        visits = {"a": (((0, 1), (0, 1)),), "b": (((2, 0), (2, 0)),)}
        expected = aggregate_for(cc, {"a": [(SET0_A, SET0_B)], "b": [(SET0_B, SET0_A)]})
        assert solve_rmb_lmb(cfg, visits, cc, blocks) == package_solve(
            cfg, expected, cc
        )


class TestLMB:
    def test_living_blocks_flow_backward(self):
        cfg = linear_cfg()
        cc = config()
        agg = aggregate_for(cc, {"c": [(SET0_A,)]})
        result = package_solve(cfg, agg, cc)
        assert SET0_A in result.lmb_at_entry("a", 0)
        assert SET0_A in result.lmb_at_entry("b", 0)
        assert result.lmb_at_exit("c", 0) == frozenset()

    def test_first_L_distinct_limits_lookahead(self):
        """With a 1-way cache only the first upcoming distinct ref lives."""
        cc = config(ways=1)
        cfg = linear_cfg()
        agg = aggregate_for(cc, {"b": [(SET0_A,)], "c": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        # At entry of b, the first distinct ref to set 0 is SET0_A; SET0_B
        # comes later than L distinct refs, so it is not living here.
        assert result.lmb_at_entry("b", 0) == frozenset({SET0_A})

    def test_two_way_sees_both_upcoming(self):
        cc = config(ways=2)
        cfg = linear_cfg()
        agg = aggregate_for(cc, {"b": [(SET0_A,)], "c": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        assert result.lmb_at_entry("b", 0) == frozenset({SET0_A, SET0_B})

    def test_diamond_merges_backward(self):
        cc = config()
        cfg = diamond_cfg()
        agg = aggregate_for(cc, {"left": [(SET0_A,)], "right": [(SET0_B,)]})
        result = package_solve(cfg, agg, cc)
        assert result.lmb_at_exit("entry", 0) == frozenset({SET0_A, SET0_B})


class TestSoundnessAgainstSimulation:
    def test_rmb_contains_actual_residency_at_block_entries(self):
        """Run a real program; at every block entry, the task's blocks that
        are actually resident must be contained in the RMB sets."""
        from repro.program import ProgramBuilder, SystemLayout
        from repro.vm import Machine, TraceRecorder
        from repro.vm.trace import TraceView

        b = ProgramBuilder("p")
        data = b.array("data", words=24)
        out = b.array("out", words=24)
        with b.loop(2):
            with b.loop(24) as i:
                b.load("v", data, index=i)
                b.store("v", out, index=i)
        program = b.build()
        layout = SystemLayout().place(program)
        cc = CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=10)

        # First pass: record the trace for analysis.
        trace = TraceRecorder()
        machine = Machine(layout=layout, cache=CacheState(cc), trace=trace)
        machine.write_array("data", list(range(24)))
        machine.run()
        # Solved as a cold run solves: from the trace's block view.
        recorded = trace.compact()
        view = TraceView({"run": recorded}, cc.line_size, layout.region_bases())
        result = solve_rmb_lmb(program.cfg, view.visits, cc, view.moved(view.bases))
        # The residency filter reads the oracle's footprint, not the
        # solver's numbering, so a resident block the solver left out
        # still reaches the RMB check.
        footprint = oracle_footprint(every_visit_aggregate(cc, [recorded]))
        assert frozenset(result.bits.blocks) == footprint

        # Second pass: step and compare actual residency with RMB.
        cache = CacheState(cc)
        machine = Machine(layout=layout, cache=cache, trace=None)
        machine.write_array("data", list(range(24)))
        previous_node = machine.current_node
        while not machine.halted:
            machine.step()
            if machine.halted:
                break
            node = machine.current_node
            if node != previous_node:
                for index in range(cc.num_sets):
                    resident = {
                        blk
                        for blk in cache.set_contents(index)
                        if blk in footprint
                    }
                    allowed = result.rmb_at_entry(node, index)
                    assert resident <= set(allowed), (
                        f"set {index} at {node}: {sorted(map(hex, resident))} "
                        f"not within RMB {sorted(map(hex, allowed))}"
                    )
                previous_node = node
