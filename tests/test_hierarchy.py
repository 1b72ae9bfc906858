"""Unit tests for the two-level memory hierarchy substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, CacheState, HierarchyConfig, MemoryHierarchy

from tests.oracles.cache import touch_all
from tests.oracles.hierarchy import SteppedHierarchy


def make_hierarchy(l1_penalty=10, l2_penalty=40, l2_line=32):
    return HierarchyConfig(
        l1=CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=l1_penalty),
        l2=CacheConfig(num_sets=64, ways=4, line_size=l2_line, miss_penalty=l2_penalty),
    )


class TestConfig:
    def test_valid(self):
        config = make_hierarchy()
        assert config.worst_case_miss_penalty == 50

    def test_l2_line_multiple_required(self):
        with pytest.raises(ValueError, match="multiple"):
            HierarchyConfig(
                l1=CacheConfig(num_sets=16, ways=2, line_size=32),
                l2=CacheConfig(num_sets=64, ways=4, line_size=16),
            )

    def test_l2_must_not_be_smaller(self):
        with pytest.raises(ValueError, match="at least as large"):
            HierarchyConfig(
                l1=CacheConfig(num_sets=64, ways=4, line_size=16),
                l2=CacheConfig(num_sets=16, ways=1, line_size=16),
            )


class TestLatencies:
    def test_three_latency_classes(self):
        stack = SteppedHierarchy(make_hierarchy())
        cold = stack.access(0x100)
        assert (cold.hit, cold.cycles) == (False, 50)  # miss both levels
        warm = stack.access(0x104)
        assert (warm.hit, warm.cycles) == (True, 0)  # L1 hit
        stack.invalidate_l1()
        l2_hit = stack.access(0x100)
        assert (l2_hit.hit, l2_hit.cycles) == (False, 10)  # L1 miss, L2 hit

    def test_l2_spatial_locality(self):
        """An L2 line covers two L1 lines: the neighbour L1 block hits L2."""
        stack = SteppedHierarchy(make_hierarchy())
        stack.access(0x100)  # fills L2 line [0x100, 0x120)
        result = stack.access(0x110)  # different L1 block, same L2 line
        assert not result.hit
        assert result.cycles == 10  # only the L1 refill from L2

    def test_stats_track_l1_outcomes(self):
        stack = SteppedHierarchy(make_hierarchy())
        stack.access(0x0)
        stack.access(0x0)
        assert stack.stats.hits == 1
        assert stack.stats.misses == 1

    def test_invalidate_clears_both(self):
        stack = SteppedHierarchy(make_hierarchy())
        stack.access(0x0)
        stack.invalidate()
        assert stack.access(0x0).cycles == 50

    def test_contains_any_level(self):
        stack = SteppedHierarchy(make_hierarchy())
        stack.access(0x0)
        stack.invalidate_l1()
        assert stack.contains(0x0)  # still in L2

    def test_resident_blocks_l1_granularity(self):
        stack = SteppedHierarchy(make_hierarchy())
        stack.access(0x100)
        resident = stack.resident_blocks()
        # L2 holds [0x100,0x120): both 16B sub-blocks reported.
        assert 0x100 in resident and 0x110 in resident


class TestVMIntegration:
    def test_machine_runs_on_hierarchy(self):
        from repro.program import ProgramBuilder, SystemLayout
        from repro.vm import run_isolated

        b = ProgramBuilder("p")
        data = b.array("data", words=32)
        with b.loop(2):
            with b.loop(32) as i:
                b.load("v", data, index=i)
        layout = SystemLayout().place(b.build())
        stack = MemoryHierarchy(make_hierarchy())
        machine = run_isolated(layout, stack, inputs={"data": list(range(32))})
        assert machine.halted
        # Second pass hits L1; the first pass paid the memory latency.
        assert stack.stats.hits > 0

    def test_hierarchy_faster_than_flat_memory(self):
        """With an L2, repeated misses to a working set larger than L1 are
        cheaper than paying the full memory latency every time."""
        from repro.program import ProgramBuilder, SystemLayout
        from repro.vm import run_isolated

        def build():
            b = ProgramBuilder("p")
            data = b.array("data", words=512)  # 2KB > L1 (512B)
            with b.loop(4):
                with b.loop(512) as i:
                    b.load("v", data, index=i)
            return SystemLayout().place(b.build())

        hierarchy = make_hierarchy(l1_penalty=10, l2_penalty=40)
        flat = CacheConfig(
            num_sets=16, ways=2, line_size=16, miss_penalty=50
        )  # same L1 geometry, full memory latency on every miss
        stacked = run_isolated(build(), MemoryHierarchy(hierarchy),
                               inputs={"data": [0] * 512})
        flat_run = run_isolated(build(), CacheState(flat),
                                inputs={"data": [0] * 512})
        assert stacked.cycles < flat_run.cycles


@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=0xFFF), min_size=1, max_size=150
    )
)
@settings(max_examples=50)
def test_hierarchy_cycles_bracketed(addresses):
    """Total cycles sit between the all-L1-hit and all-miss extremes, and
    equal the sum of per-level miss counts weighted by their penalties."""
    config = make_hierarchy()
    stack = SteppedHierarchy(config)
    total = touch_all(stack, addresses)
    l1_misses = stack.l1.stats.misses
    l2_misses = stack.l2.stats.misses
    expected = (
        l1_misses * config.l1.miss_penalty + l2_misses * config.l2.miss_penalty
    )
    assert total == expected
    assert total <= len(addresses) * config.worst_case_miss_penalty


@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=0xFFF), min_size=1, max_size=150
    )
)
@settings(max_examples=50)
def test_l2_misses_never_exceed_l1_misses(addresses):
    stack = SteppedHierarchy(make_hierarchy())
    touch_all(stack, addresses)
    assert stack.l2.stats.accesses == stack.l1.stats.misses
    assert stack.l2.stats.misses <= stack.l1.stats.misses


@given(
    references=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xFFF), st.booleans()),
        min_size=1,
        max_size=150,
    ),
    policy=st.sampled_from(["lru", "fifo", "plru"]),
    write_back=st.booleans(),
)
@settings(max_examples=50)
def test_access_stream_matches_per_reference(references, policy, write_back):
    """One L1 pass then one L2 pass over its misses charges a stream
    exactly as referencing each address through both levels in turn."""
    config = HierarchyConfig(
        l1=CacheConfig(num_sets=16, ways=2, line_size=16, miss_penalty=10,
                       hit_cycles=1, policy=policy, write_back=write_back),
        l2=CacheConfig(num_sets=64, ways=4, line_size=32, miss_penalty=40,
                       policy=policy),
    )
    addresses = [address for address, _ in references]
    writes = bytes(write for _, write in references)
    streamed = MemoryHierarchy(config)
    stepped = SteppedHierarchy(config)
    cycles = streamed.access_stream(addresses, writes)
    assert cycles == sum(
        stepped.access(address, write=write).cycles
        for address, write in references
    )
    assert streamed.stats == stepped.stats
    for level in ("l1", "l2"):
        assert getattr(streamed, level).snapshot() == getattr(stepped, level).snapshot()
        assert getattr(streamed, level).stats == getattr(stepped, level).stats
