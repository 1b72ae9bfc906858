"""Tests for trace persistence and cache-behaviour diagnostics."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, CacheState
from repro.vm.trace import TraceRecorder
from repro.vm.traceio import ReuseProfile, reuse_profile, set_pressure

from tests.conftest import compact_trace


def one(events):
    """A one-scenario trace mapping, as ``scenario_traces`` returns."""
    return {"s": compact_trace(events)}


@pytest.fixture
def config():
    return CacheConfig(num_sets=8, ways=2, line_size=16)


class TestPersistence:
    def test_roundtrip(self):
        trace = compact_trace(
            [(0x100, "read", "a"), (0x204, "write", "b"), (0x100, "code", "a")]
        )
        assert pickle.loads(pickle.dumps(trace)) == trace

    def test_roundtrip_of_real_run(self, config):
        from repro.program import ProgramBuilder, SystemLayout
        from repro.vm import run_isolated

        b = ProgramBuilder("p")
        data = b.array("data", words=16)
        with b.loop(16) as i:
            b.load("v", data, index=i)
        layout = SystemLayout().place(b.build())
        recorder = TraceRecorder()
        run_isolated(layout, CacheState(config), trace=recorder)
        trace = recorder.compact()
        loaded = pickle.loads(pickle.dumps(trace))
        assert loaded == trace
        assert loaded.expand() == trace.expand()
        assert reuse_profile({"s": loaded}, config) == reuse_profile(
            {"s": trace}, config
        )


class TestReuseProfile:
    def test_cold_references_counted(self, config):
        profile = reuse_profile(
            one([(0x000, "read", "a"), (0x100, "read", "a")]), config
        )
        assert profile.cold == 2
        assert profile.histogram == {}

    def test_immediate_reuse_distance_zero(self, config):
        profile = reuse_profile(
            one([(0x000, "read", "a"), (0x004, "read", "a")]), config
        )
        assert profile.cold == 1
        assert profile.histogram == {0: 1}

    def test_intervening_distinct_block_increases_distance(self, config):
        # 0x000 and 0x080 share set 0 in an 8-set cache.
        profile = reuse_profile(
            one([(0x000, "read", "a"), (0x080, "read", "a"), (0x000, "read", "a")]),
            config,
        )
        assert profile.cold == 2  # both blocks' first touches
        assert profile.histogram == {1: 1}  # re-reference past one distinct block

    def test_different_sets_do_not_interfere(self, config):
        profile = reuse_profile(
            one([(0x000, "read", "a"), (0x010, "read", "a"), (0x000, "read", "a")]),
            config,
        )
        assert profile.histogram[0] == 1  # 0x010 is in set 1, distance stays 0

    def test_prediction_matches_real_lru_cache(self, config):
        """The histogram's predicted hits equal a real LRU simulation —
        for every associativity."""
        import random

        rng = random.Random(7)
        addresses = [rng.randrange(0, 0x400) for _ in range(400)]
        traces = one([(a, "read", "n") for a in addresses])
        for ways in (1, 2, 4):
            cache_config = CacheConfig(num_sets=8, ways=ways, line_size=16)
            profile = reuse_profile(traces, cache_config)
            cache = CacheState(cache_config)
            hits = sum(1 for a in addresses if cache.access(a).hit)
            assert profile.predicted_hits(ways) == hits

    def test_miss_rate_bounds(self):
        profile = ReuseProfile(histogram={0: 8, 3: 2}, cold=10)
        assert profile.accesses == 20
        assert profile.predicted_miss_rate(1) == pytest.approx(0.6)
        assert profile.predicted_miss_rate(4) == pytest.approx(0.5)
        assert ReuseProfile(histogram={}, cold=0).predicted_miss_rate(2) == 0.0


class TestSetPressure:
    def test_counts_distinct_blocks_per_set(self, config):
        pressure = set_pressure(
            [
                0x000,
                0x004,  # same block
                0x080,  # same set, new block
                0x010,  # set 1
            ],
            config,
        )
        assert pressure.per_set == {0: 2, 1: 1}
        assert pressure.max_pressure == 2
        assert pressure.sets_used == 2

    def test_overcommitted_sets(self, config):
        # 4 blocks, all in set 0
        pressure = set_pressure([0x000 + i * 0x80 for i in range(4)], config)
        assert pressure.overcommitted_sets() == [0]

    def test_empty_trace(self, config):
        pressure = set_pressure(frozenset(), config)
        assert pressure.max_pressure == 0
        assert pressure.overcommitted_sets() == []


class TestMerge:
    def test_merge_concatenates(self, config):
        """Scenarios are read in order as one stream: the profile of two
        traces is that of their concatenation, reuse across them
        included."""
        a = [(0x0, "read", "a"), (0x80, "read", "a")]
        b = [(0x0, "write", "b"), (0x10, "read", "b")]
        merged = reuse_profile(
            {"a": compact_trace(a), "b": compact_trace(b)}, config
        )
        assert merged == reuse_profile(one(a + b), config)
        assert merged.accesses == 4
        assert merged.histogram == {1: 1}  # 0x0 again, past 0x80 in set 0


@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=0x7FF), min_size=0, max_size=200
    ),
    ways=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40)
def test_reuse_profile_predicts_lru_exactly(addresses, ways):
    config = CacheConfig(num_sets=4, ways=ways, line_size=16)
    profile = reuse_profile(one([(a, "read", "n") for a in addresses]), config)
    cache = CacheState(config)
    hits = sum(1 for a in addresses if cache.access(a).hit)
    assert profile.predicted_hits(ways) == hits
    assert profile.accesses == len(addresses)
