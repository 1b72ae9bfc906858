"""Unit and property tests for the replacement policies (LRU/FIFO/PLRU)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CIIP,
    POLICY_NAMES,
    CacheConfig,
    CacheState,
    conflict_bound,
)

from tests.oracles.cache import FIFOSet, LRUSet, PLRUSet, make_set_policy
from tests.oracles.measurement import measure_preemption


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_set_policy("lru", 2), LRUSet)
        assert isinstance(make_set_policy("fifo", 2), FIFOSet)
        assert isinstance(make_set_policy("plru", 2), PLRUSet)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_set_policy("random", 2)

    def test_config_validates_policy(self):
        with pytest.raises(ValueError, match="policy"):
            CacheConfig(num_sets=8, ways=2, line_size=16, policy="mru")

    def test_plru_requires_power_of_two_ways(self):
        with pytest.raises(ValueError, match="power-of-two"):
            CacheConfig(num_sets=8, ways=3, line_size=16, policy="plru")
        with pytest.raises(ValueError, match="power-of-two"):
            PLRUSet(3)


class TestFIFO:
    def test_hit_does_not_refresh(self):
        """The FIFO-defining behaviour: a hit must not save a block."""
        config = CacheConfig(num_sets=1, ways=2, line_size=16, policy="fifo")
        cache = CacheState(config)
        cache.access(0x00)   # inserts A (oldest)
        cache.access(0x10)   # inserts B
        cache.access(0x00)   # hit on A, but A stays oldest
        result = cache.access(0x20)  # inserts C -> evicts A
        assert result.evicted_block == 0x00
        assert not cache.contains(0x00)
        assert cache.contains(0x10)

    def test_lru_would_keep_the_touched_block(self):
        config = CacheConfig(num_sets=1, ways=2, line_size=16, policy="lru")
        cache = CacheState(config)
        cache.access(0x00)
        cache.access(0x10)
        cache.access(0x00)
        result = cache.access(0x20)
        assert result.evicted_block == 0x10  # LRU saves the re-touched A
        assert cache.contains(0x00)


class TestPLRU:
    def test_fills_invalid_slots_first(self):
        plru = PLRUSet(4)
        for block in (1, 2, 3, 4):
            assert plru.insert(block) is None
        assert set(plru.resident()) == {1, 2, 3, 4}

    def test_victim_is_not_most_recent(self):
        plru = PLRUSet(4)
        for block in (1, 2, 3, 4):
            plru.insert(block)
        plru.lookup(1)  # make 1 the most recently touched
        evicted = plru.insert(5)
        assert evicted is not None and evicted != 1

    def test_plru_approximates_lru_for_two_ways(self):
        """With 2 ways, tree PLRU is exactly LRU."""
        config_l = CacheConfig(num_sets=4, ways=2, line_size=16, policy="lru")
        config_p = CacheConfig(num_sets=4, ways=2, line_size=16, policy="plru")
        lru, plru = CacheState(config_l), CacheState(config_p)
        addresses = [0x00, 0x40, 0x00, 0x80, 0x40, 0xC0, 0x00, 0x40, 0x80]
        for address in addresses:
            assert lru.access(address).hit == plru.access(address).hit

    def test_single_way_plru_direct_mapped(self):
        plru = PLRUSet(1)
        assert plru.insert(1) is None
        assert plru.insert(2) == 1
        assert plru.resident() == (2,)

    def test_remove_and_clear(self):
        plru = PLRUSet(2)
        plru.insert(1)
        plru.insert(2)
        assert plru.remove(1)
        assert not plru.remove(1)
        plru.clear()
        assert plru.resident() == ()


@st.composite
def policy_cases(draw):
    policy = draw(st.sampled_from(POLICY_NAMES))
    ways = draw(st.sampled_from([1, 2, 4]))
    config = CacheConfig(
        num_sets=draw(st.sampled_from([2, 4, 8])),
        ways=ways,
        line_size=16,
        miss_penalty=20,
        policy=policy,
    )
    addresses = draw(
        st.lists(st.integers(min_value=0, max_value=0x3FF), min_size=1, max_size=100)
    )
    return config, addresses


@given(case=policy_cases())
@settings(max_examples=80)
def test_capacity_and_residency_invariants_all_policies(case):
    config, addresses = case
    cache = CacheState(config)
    for address in addresses:
        cache.access(address)
        assert cache.contains(address), "just-accessed block must be resident"
        assert cache.occupancy() <= config.total_lines
        for index in range(config.num_sets):
            contents = cache.set_contents(index)
            assert len(contents) <= config.ways
            assert len(set(contents)) == len(contents), "duplicate lines"
            for block in contents:
                assert config.index(block) == index


@given(case=policy_cases())
@settings(max_examples=60)
def test_eviction_accounting_all_policies(case):
    config, addresses = case
    cache = CacheState(config)
    for address in addresses:
        cache.access(address)
    # Every miss inserted one line; lines now resident + lines evicted
    # must equal total misses.
    assert cache.occupancy() + cache.stats.evictions == cache.stats.misses


@given(case=policy_cases(), other=st.lists(
    st.integers(min_value=0, max_value=0x3FF), min_size=0, max_size=60))
@settings(max_examples=60)
def test_conflict_bound_policy_independent(case, other):
    """Equation 2 holds under every policy: the number of A-blocks evicted
    by streaming B never exceeds S(A, B)."""
    config, a_addresses = case
    ca = CIIP.from_addresses(config, a_addresses)
    cb = CIIP.from_addresses(config, other)
    cache = CacheState(config)
    for address in a_addresses:
        cache.access(address)
    resident_before = cache.resident_blocks() & ca.blocks()
    for address in other:
        cache.access(address)
    evicted = resident_before - cache.resident_blocks()
    assert len(evicted) <= conflict_bound(ca, cb)


@given(case=policy_cases())
@settings(max_examples=40)
def test_analysis_pipeline_runs_under_every_policy(case):
    """analyze_task + CRPD bounds work (weak dataflow) for FIFO/PLRU too,
    and measured reloads stay below the Approach-4 bound."""
    from repro.analysis import Approach, CRPDAnalyzer, analyze_task
    from repro.program import ProgramBuilder, SystemLayout

    config, _ = case

    def build(name, words):
        b = ProgramBuilder(name)
        data = b.array("data", words=words)
        with b.loop(2):
            with b.loop(words) as i:
                b.load("v", data, index=i)
        return b.build(), {"data": list(range(words))}

    layout = SystemLayout()
    low_program, low_inputs = build("low", 24)
    high_program, high_inputs = build("high", 12)
    low_layout = layout.place(low_program)
    high_layout = layout.place(high_program)
    low_art = analyze_task(low_layout, {"d": low_inputs}, config)
    high_art = analyze_task(high_layout, {"d": high_inputs}, config)
    crpd = CRPDAnalyzer({"low": low_art, "high": high_art})
    bound = crpd.lines_reloaded("low", "high", Approach.COMBINED)

    measurement = measure_preemption(
        low_layout, low_inputs, high_layout, high_inputs,
        lambda: CacheState(config), 30, victim_footprint=low_art.footprint,
    )
    if measurement is not None:
        assert measurement.reloaded <= bound
