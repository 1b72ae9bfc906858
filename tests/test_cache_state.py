"""Unit and property tests for the LRU cache simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, CacheState

from tests.oracles.cache import touch_all


@pytest.fixture
def cache():
    return CacheState(CacheConfig(num_sets=4, ways=2, line_size=16, miss_penalty=20))


class TestBasicAccess:
    def test_first_access_misses(self, cache):
        result = cache.access(0x000)
        assert not result.hit
        assert result.cycles == 20
        assert cache.stats.misses == 1

    def test_second_access_hits(self, cache):
        cache.access(0x000)
        result = cache.access(0x000)
        assert result.hit
        assert result.cycles == 0
        assert cache.stats.hits == 1

    def test_same_block_different_offset_hits(self, cache):
        cache.access(0x000)
        assert cache.access(0x00F).hit  # same 16-byte block

    def test_adjacent_block_misses(self, cache):
        cache.access(0x000)
        assert not cache.access(0x010).hit

    def test_contains(self, cache):
        assert not cache.contains(0x000)
        cache.access(0x000)
        assert cache.contains(0x000)
        assert cache.contains(0x00C)
        assert not cache.contains(0x040)  # same set, different block

    def test_hit_cycles_charged(self):
        config = CacheConfig(
            num_sets=4, ways=2, line_size=16, miss_penalty=20, hit_cycles=1
        )
        cache = CacheState(config)
        assert cache.access(0x0).cycles == 21
        assert cache.access(0x0).cycles == 1


class TestLRUReplacement:
    def test_lru_evicts_least_recent(self, cache):
        # Set 0 blocks in a 2-way cache: 0x000, 0x040, 0x080 all map to set 0.
        cache.access(0x000)
        cache.access(0x040)
        result = cache.access(0x080)
        assert result.evicted_block == 0x000
        assert not cache.contains(0x000)
        assert cache.contains(0x040)
        assert cache.contains(0x080)

    def test_touch_refreshes_recency(self, cache):
        cache.access(0x000)
        cache.access(0x040)
        cache.access(0x000)  # refresh 0x000; 0x040 becomes LRU
        result = cache.access(0x080)
        assert result.evicted_block == 0x040
        assert cache.contains(0x000)

    def test_no_eviction_until_set_full(self, cache):
        assert cache.access(0x000).evicted_block is None
        assert cache.access(0x040).evicted_block is None
        assert cache.stats.evictions == 0

    def test_sets_are_independent(self, cache):
        cache.access(0x000)  # set 0
        cache.access(0x010)  # set 1
        cache.access(0x040)  # set 0
        cache.access(0x080)  # set 0 -> evicts from set 0 only
        assert cache.contains(0x010)

    def test_set_contents_mru_first(self, cache):
        cache.access(0x000)
        cache.access(0x040)
        assert cache.set_contents(0) == (0x040, 0x000)
        cache.access(0x000)
        assert cache.set_contents(0) == (0x000, 0x040)

    def test_set_contents_bad_index(self, cache):
        with pytest.raises(IndexError):
            cache.set_contents(99)


class TestMaintenance:
    def test_invalidate_clears_contents_keeps_stats(self, cache):
        cache.access(0x000)
        cache.invalidate()
        assert not cache.contains(0x000)
        assert cache.stats.misses == 1
        assert cache.occupancy() == 0

    def test_invalidate_block(self, cache):
        cache.access(0x000)
        assert cache.invalidate_block(0x004)  # same block
        assert not cache.contains(0x000)
        assert not cache.invalidate_block(0x000)  # already gone

    def test_occupancy_and_resident_blocks(self, cache):
        cache.access(0x000)
        cache.access(0x010)
        assert cache.occupancy() == 2
        assert cache.resident_blocks() == {0x000, 0x010}

    def test_touch_all_returns_total_cycles(self, cache):
        cycles = touch_all(cache, [0x000, 0x000, 0x010])
        assert cycles == 20 + 0 + 20

    def test_stats_reset(self, cache):
        cache.access(0x000)
        cache.stats.reset()
        assert cache.stats.accesses == 0
        assert cache.stats.miss_rate == 0.0

    def test_snapshot_is_immutable_copy(self, cache):
        cache.access(0x000)
        snap = cache.snapshot()
        cache.access(0x040)
        assert snap[0] == (0x000,)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def access_sequences(draw):
    config = CacheConfig(
        num_sets=draw(st.sampled_from([2, 4, 8])),
        ways=draw(st.integers(min_value=1, max_value=4)),
        line_size=16,
        miss_penalty=20,
    )
    addresses = draw(
        st.lists(st.integers(min_value=0, max_value=0x3FF), min_size=1, max_size=120)
    )
    return config, addresses


@given(access_sequences())
@settings(max_examples=60)
def test_occupancy_never_exceeds_capacity(case):
    config, addresses = case
    cache = CacheState(config)
    for address in addresses:
        cache.access(address)
        assert cache.occupancy() <= config.total_lines
        for index in range(config.num_sets):
            assert len(cache.set_contents(index)) <= config.ways


@given(access_sequences())
@settings(max_examples=60)
def test_most_recent_block_always_resident(case):
    config, addresses = case
    cache = CacheState(config)
    for address in addresses:
        cache.access(address)
        assert cache.contains(address)
        assert cache.set_contents(config.index(address))[0] == config.block(address)


@given(access_sequences())
@settings(max_examples=60)
def test_lru_reuse_distance_rule(case):
    """A re-reference hits iff < `ways` distinct same-set blocks intervened."""
    config, addresses = case
    cache = CacheState(config)
    history: list[int] = []
    for address in addresses:
        block = config.block(address)
        expected_hit = None
        if block in history:
            since = history[history.index(block) + 1 :]
            # history is kept most-recent-last; find the LAST occurrence.
            last = len(history) - 1 - history[::-1].index(block)
            since = history[last + 1 :]
            distinct_same_set = {
                b for b in since if config.index(b) == config.index(block)
            }
            expected_hit = len(distinct_same_set) < config.ways
        else:
            expected_hit = False
        result = cache.access(address)
        assert result.hit == expected_hit, (hex(block), history)
        history.append(block)


@given(access_sequences())
@settings(max_examples=60)
def test_stats_consistency(case):
    config, addresses = case
    cache = CacheState(config)
    total_cycles = touch_all(cache, addresses)
    assert cache.stats.accesses == len(addresses)
    assert total_cycles == cache.stats.misses * config.miss_penalty
    assert 0.0 <= cache.stats.miss_rate <= 1.0


@given(access_sequences())
@settings(max_examples=40)
def test_cold_start_dominates_warm_start_for_lru(case):
    """Starting from an empty cache never yields fewer misses than any
    warm start — the property that makes cold-cache WCET measurement sound
    (see repro.analysis.wcet)."""
    config, addresses = case
    cold = CacheState(config)
    warm = CacheState(config)
    # Pollute the warm cache with unrelated blocks.
    for address in range(0, config.size_bytes * 2, config.line_size):
        warm.access(0x10000 + address)
    warm.stats.reset()
    cold_cycles = touch_all(cold, addresses)
    warm_cycles = touch_all(warm, addresses)
    assert warm_cycles <= cold_cycles
