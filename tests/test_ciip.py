"""Unit and property tests for CIIP (Definition 3) and Equation 2/3 bounds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CIIP,
    CacheConfig,
    CacheState,
    conflict_bound,
    conflict_bound_per_set,
    line_usage_bound,
)

from tests.oracles.pathcost import restrict


@pytest.fixture
def config():
    return CacheConfig.example2_1k()


class TestCIIPConstruction:
    def test_example3_partition(self, config):
        """Example 3 of the paper, verbatim."""
        ciip = CIIP.from_addresses(
            config, [0x000, 0x100, 0x010, 0x110, 0x210]
        )
        assert ciip.group(0) == frozenset({0x000, 0x100})
        assert ciip.group(1) == frozenset({0x010, 0x110, 0x210})
        assert ciip.indices() == frozenset({0, 1})
        assert len(ciip) == 5

    def test_empty_groups_omitted(self, config):
        ciip = CIIP.from_addresses(config, [0x000])
        assert 1 not in ciip.groups
        assert ciip.group(1) == frozenset()

    def test_addresses_normalised_to_blocks(self, config):
        ciip = CIIP.from_addresses(config, [0x000, 0x001, 0x00F])
        assert len(ciip) == 1
        assert ciip.blocks() == frozenset({0x000})

    def test_empty_set(self, config):
        ciip = CIIP.from_addresses(config, [])
        assert len(ciip) == 0
        assert ciip.blocks() == frozenset()

    def test_is_partition_of(self, config):
        addresses = [0x000, 0x100, 0x010]
        ciip = CIIP.from_addresses(config, addresses)
        assert ciip.is_partition_of(addresses)
        assert not ciip.is_partition_of(addresses + [0x500])

    def test_restrict(self, config):
        ciip = CIIP.from_addresses(config, [0x000, 0x100, 0x010])
        narrowed = restrict(ciip, [0x000, 0x010])
        assert narrowed.blocks() == frozenset({0x000, 0x010})
        assert narrowed.is_partition_of([0x000, 0x010])

    def test_restrict_to_nothing(self, config):
        ciip = CIIP.from_addresses(config, [0x000])
        assert len(restrict(ciip, [0x500])) == 0


class TestConflictBound:
    def test_example4_upper_bound_is_4(self, config):
        """Example 4: S(M1, M2) = min(2,1,4) + min(3,3,4) = 1 + 3 = 4."""
        m1 = CIIP.from_addresses(config, [0x000, 0x100, 0x010, 0x110, 0x210])
        m2 = CIIP.from_addresses(config, [0x200, 0x310, 0x410, 0x510])
        assert conflict_bound(m1, m2) == 4
        assert conflict_bound_per_set(m1, m2) == {0: 1, 1: 3}

    def test_disjoint_indices_zero(self, config):
        """The paper's counterexample to Lee: disjoint cache lines -> zero."""
        a = CIIP.from_addresses(config, [0x000, 0x020])
        b = CIIP.from_addresses(config, [0x010, 0x030])
        assert conflict_bound(a, b) == 0

    def test_ways_cap(self):
        config = CacheConfig(num_sets=2, ways=2, line_size=16)
        # Six blocks each, all in set 0.
        a = CIIP.from_addresses(config, [i * 0x20 for i in range(6)])
        b = CIIP.from_addresses(config, [0x1000 + i * 0x20 for i in range(6)])
        assert conflict_bound(a, b) == 2  # capped at L

    def test_mismatched_configs_rejected(self, config):
        other = CacheConfig(num_sets=8, ways=2, line_size=16)
        a = CIIP.from_addresses(config, [0x0])
        b = CIIP.from_addresses(other, [0x0])
        with pytest.raises(ValueError, match="different cache"):
            conflict_bound(a, b)
        with pytest.raises(ValueError, match="different cache"):
            conflict_bound_per_set(a, b)

    def test_line_usage_bound(self, config):
        ciip = CIIP.from_addresses(config, [0x000, 0x100, 0x200, 0x300, 0x400])
        # Five blocks, one set, 4 ways -> at most 4 lines.
        assert line_usage_bound(ciip) == 4


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
block_sets = st.lists(
    st.integers(min_value=0, max_value=0x7FF), min_size=0, max_size=60
)


@given(a=block_sets, b=block_sets)
@settings(max_examples=80)
def test_conflict_bound_properties(a, b):
    config = CacheConfig(num_sets=16, ways=4, line_size=16)
    ca = CIIP.from_addresses(config, a)
    cb = CIIP.from_addresses(config, b)
    bound = conflict_bound(ca, cb)
    # Symmetry.
    assert bound == conflict_bound(cb, ca)
    # Bounded by each side's line usage.
    assert bound <= line_usage_bound(ca)
    assert bound <= line_usage_bound(cb)
    # Per-set decomposition sums to the total.
    assert sum(conflict_bound_per_set(ca, cb).values()) == bound
    # Self-conflict equals own line usage.
    assert conflict_bound(ca, ca) == line_usage_bound(ca)


@given(a=block_sets, b=block_sets, extra=block_sets)
@settings(max_examples=60)
def test_conflict_bound_monotone_in_operands(a, b, extra):
    """Adding blocks to either side never decreases the bound (Eq.3 <= Eq.2)."""
    config = CacheConfig(num_sets=16, ways=4, line_size=16)
    ca = CIIP.from_addresses(config, a)
    cb = CIIP.from_addresses(config, b)
    ca_bigger = CIIP.from_addresses(config, a + extra)
    assert conflict_bound(ca, cb) <= conflict_bound(ca_bigger, cb)


@given(a=block_sets)
@settings(max_examples=60)
def test_partition_property(a):
    config = CacheConfig(num_sets=16, ways=4, line_size=16)
    ciip = CIIP.from_addresses(config, a)
    assert ciip.is_partition_of(a)
    # Groups are disjoint and homogeneous in index.
    seen = set()
    for index, group in ciip.groups.items():
        assert group, "empty groups must be omitted (Definition 3)"
        for block in group:
            assert config.index(block) == index
            assert block not in seen
            seen.add(block)
    assert seen == {config.block(x) for x in a}


@given(a=block_sets, b=block_sets)
@settings(max_examples=40)
def test_bound_dominates_real_lru_interference(a, b):
    """Empirical Eq.2 soundness: load A, stream B, count A's evicted blocks.

    The number of A-blocks evicted by B in a real LRU cache never exceeds
    S(A, B).
    """
    config = CacheConfig(num_sets=16, ways=4, line_size=16)
    ca = CIIP.from_addresses(config, a)
    cb = CIIP.from_addresses(config, b)
    cache = CacheState(config)
    for address in a:
        cache.access(address)
    resident_before = cache.resident_blocks() & ca.blocks()
    for address in b:
        cache.access(address)
    still_resident = cache.resident_blocks() & ca.blocks()
    evicted = resident_before - still_resident
    assert len(evicted) <= conflict_bound(ca, cb)
