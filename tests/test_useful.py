"""Unit tests for useful-memory-block analysis and the MUMBS (Definition 4)."""

from repro.analysis import analyze_task, compute_useful_blocks, solve_rmb_lmb
from repro.cache import CacheConfig
from repro.program import ProgramBuilder, SystemLayout
from repro.vm.machine import run_isolated


def analyze(program, inputs, config):
    layout = SystemLayout().place(program)
    return analyze_task(layout, {"default": inputs}, config)


def config8(ways=2):
    return CacheConfig(num_sets=8, ways=ways, line_size=16, miss_penalty=10)


class TestUsefulBlocks:
    def test_reused_block_is_useful(self):
        """A block read before and after a point is useful there."""
        b = ProgramBuilder("p")
        data = b.array("data", words=4)
        spacer = b.array("spacer", words=4)
        b.load("v", data, index=0)
        b.load("w", spacer, index=0)
        b.load("v2", data, index=0)
        program = b.build()
        art = analyze(program, {"data": [1, 2, 3, 4], "spacer": [0] * 4}, config8())
        data_block = art.layout.symbol_base("data")
        assert data_block in art.useful.mumbs()

    def test_single_touch_block_not_useful_after_its_phase(self):
        """Blocks touched only in a one-shot phase drop out of the MUMBS
        when another phase has the larger working set."""
        b = ProgramBuilder("p")
        oneshot = b.array("oneshot", words=8)  # 2 blocks, touched once
        hot = b.array("hot", words=32)  # 8 blocks, touched repeatedly
        with b.loop(8) as i:
            b.store(0, oneshot, index=i)
        with b.loop(4):
            with b.loop(32) as j:
                b.load("v", hot, index=j)
        program = b.build()
        art = analyze(program, {"hot": list(range(32))}, config8(ways=4))
        mumbs = art.useful.mumbs()
        hot_base = art.layout.symbol_base("hot")
        hot_blocks = {hot_base + 16 * k for k in range(8)}
        oneshot_base = art.layout.symbol_base("oneshot")
        oneshot_blocks = {oneshot_base, oneshot_base + 16}
        assert hot_blocks <= mumbs
        assert not (oneshot_blocks & mumbs)

    def test_reload_bound_capped_at_ways_per_set(self):
        """At most L lines of one set can be useful (resident) at once."""
        config = CacheConfig(num_sets=1, ways=2, line_size=16, miss_penalty=10)
        b = ProgramBuilder("p")
        data = b.array("data", words=24)  # 6 blocks, all in the single set
        with b.loop(3):
            with b.loop(24) as i:
                b.load("v", data, index=i)
        program = b.build()
        art = analyze(program, {"data": list(range(24))}, config)
        # Useful *blocks* may exceed L, but the reload bound cannot.
        assert art.useful.lee_reload_bound() <= config.ways * config.num_sets

    def test_mumbs_subset_of_footprint(self, analyzed_pair):
        for art in (analyzed_pair["low"], analyzed_pair["high"]):
            assert art.useful.mumbs() <= art.footprint

    def test_lee_bound_le_footprint_line_bound(self, analyzed_pair):
        from repro.cache.ciip import line_usage_bound

        for art in (analyzed_pair["low"], analyzed_pair["high"]):
            assert art.useful.lee_reload_bound() <= line_usage_bound(
                art.footprint_ciip
            )

    def test_execution_points_cover_entry_exit_within(self):
        b = ProgramBuilder("p")
        data = b.array("data", words=4)
        b.load("v", data, index=0)
        program = b.build()
        art = analyze(program, {"data": [0] * 4}, config8())
        positions = {u.point.position for u in art.useful.points}
        assert positions == {"entry", "exit", "within"}
        labels = {u.point.label for u in art.useful.points}
        assert labels == set(program.cfg.labels())

    def test_within_point_captures_intra_block_reuse(self):
        """A block loaded and re-read inside one basic block is useful at
        the within point even if invisible at both boundaries."""
        config = config8(ways=1)
        b = ProgramBuilder("p")
        data = b.array("data", words=4)
        evictor = b.array("evictor", words=4)
        # Single block: load data, evict it (same set via 128-byte spacing
        # is not possible within one array here, so use two arrays), reload.
        b.load("v", data, index=0)
        b.load("w", evictor, index=0)
        b.load("v2", data, index=0)
        program = b.build()
        layout = SystemLayout().place(program)
        # Force the two arrays into the same cache set by checking geometry;
        # regardless, the data block is referenced before and after the
        # middle reference, so it must appear at the entry's within point.
        art = analyze_task(layout, {"default": {"data": [0] * 4, "evictor": [0] * 4}}, config)
        data_block = layout.symbol_base("data")
        within = [
            u
            for u in art.useful.points
            if u.point.position == "within" and u.point.label == "p.entry"
        ]
        assert within and data_block in within[0].blocks()

    def test_no_points_raises(self):
        import pytest

        from repro.analysis.useful import UsefulBlocksAnalysis

        empty = UsefulBlocksAnalysis(config=config8(), points=[])
        with pytest.raises(ValueError):
            empty.max_point()

    def test_useful_blocks_sound_against_measured_reloads(self):
        """Empirical Lee soundness: flush the cache at a block boundary and
        count how many task blocks actually get re-loaded afterwards that
        were resident before — never more than the Lee bound."""
        from repro.cache import CacheState
        from repro.program import ProgramBuilder
        from repro.vm import Machine

        config = config8(ways=2)
        b = ProgramBuilder("p")
        data = b.array("data", words=16)
        out = b.array("out", words=16)
        with b.loop(2):
            with b.loop(16) as i:
                b.load("v", data, index=i)
                b.store("v", out, index=i)
        program = b.build()
        layout = SystemLayout().place(program)
        inputs = {"data": list(range(16))}
        art = analyze_task(layout, {"default": inputs}, config)
        bound = art.useful.lee_reload_bound()

        # Interrupt the run at every 25th step, flush everything (worst-case
        # preemption), and count reloads of blocks that were resident.
        cache = CacheState(config)
        machine = Machine(layout=layout, cache=cache)
        machine.write_array("data", inputs["data"])
        step = 0
        while not machine.halted:
            machine.step()
            step += 1
            if step % 25 == 0 and not machine.halted:
                resident_before = cache.resident_blocks() & art.footprint
                cache.invalidate()
                # Run to completion counting reloads of evicted blocks.
                reloaded = set()
                while not machine.halted:
                    before = cache.resident_blocks()
                    machine.step()
                    added = cache.resident_blocks() - before
                    reloaded |= added & resident_before
                assert len(reloaded) <= bound
                return
