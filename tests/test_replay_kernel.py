"""The replay kernels against the per-reference cache reference.

``CacheState`` replays a stream with one inlined loop per policy over
plain per-set lists; ``tests/oracles/cache.py`` drives one policy object
per set, one call per reference.  Seeded random streams, with runs of
repeated blocks (the kernels' shortcut) and a share of writes, go through
both from a cold cache and from a pre-filled one with holes punched in
it; the cycles, statistics, missed addresses, final contents and dirty
blocks must agree.
"""

import random

import pytest

from repro.cache import POLICY_NAMES, CacheConfig, CacheState

from tests.oracles.cache import ReferenceCache


def _config(policy: str, write_back: bool, ways: int, num_sets: int) -> CacheConfig:
    return CacheConfig(
        num_sets=num_sets, ways=ways, line_size=16, miss_penalty=20,
        hit_cycles=1, policy=policy, write_back=write_back,
        writeback_penalty=7,
    )


def _stream(rng: random.Random, config: CacheConfig, length: int):
    """*length* references over three times the cache's capacity: each a
    random block, referenced up to five times in a row at random offsets,
    about a third of them writes."""
    blocks = 3 * config.num_sets * config.ways
    addresses: list[int] = []
    while len(addresses) < length:
        block = rng.randrange(blocks) * config.line_size
        for _ in range(rng.choice((1, 1, 1, 2, 5))):
            addresses.append(block + rng.randrange(config.line_size))
    addresses = addresses[:length]
    writes = bytes(rng.random() < 0.3 for _ in addresses)
    return addresses, writes


def _agree(cache: CacheState, reference: ReferenceCache) -> None:
    assert cache.stats == reference.stats
    assert cache.snapshot() == reference.snapshot()
    assert cache.dirty_blocks() == reference.dirty_blocks()


@pytest.mark.parametrize("with_missed", (False, True))
@pytest.mark.parametrize("start", ("cold", "prefilled"))
@pytest.mark.parametrize("num_sets", (1, 4, 16))
@pytest.mark.parametrize("ways", (1, 2, 4, 8))
@pytest.mark.parametrize("write_back", (False, True))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_access_stream_equals_reference(
    policy, write_back, ways, num_sets, start, with_missed
):
    config = _config(policy, write_back, ways, num_sets)
    rng = random.Random(f"{policy}:{write_back}:{ways}:{num_sets}:{start}")
    cache, reference = CacheState(config), ReferenceCache(config)
    if start == "prefilled":
        addresses, writes = _stream(rng, config, 200)
        assert cache.access_stream(addresses, writes) == reference.access_stream(
            addresses, writes
        )
        for address in rng.sample(addresses, 10):
            assert cache.invalidate_block(address) == reference.invalidate_block(
                address
            )
        _agree(cache, reference)
    addresses, writes = _stream(rng, config, 600)
    missed = [] if with_missed else None
    expected_missed = [] if with_missed else None
    cycles = cache.access_stream(addresses, writes, missed)
    assert cycles == reference.access_stream(addresses, writes, expected_missed)
    assert missed == expected_missed
    _agree(cache, reference)


@pytest.mark.parametrize("write_back", (False, True))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_single_accesses_equal_reference(policy, write_back):
    """``access()`` (the kernel over a one-reference stream) returns the
    reference's hit, cycles and evicted block on every reference."""
    config = _config(policy, write_back, 4, 4)
    rng = random.Random(f"single:{policy}:{write_back}")
    cache, reference = CacheState(config), ReferenceCache(config)
    addresses, writes = _stream(rng, config, 400)
    for address, write in zip(addresses, writes):
        assert cache.access(address, bool(write)) == reference.access(
            address, bool(write)
        )
    _agree(cache, reference)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_invalidate_then_refill_equals_reference(policy):
    """A flushed cache refills as the reference's cleared sets do (PLRU
    keeps its tree bits across a flush, as the reference does)."""
    config = _config(policy, True, 4, 4)
    rng = random.Random(f"flush:{policy}")
    cache, reference = CacheState(config), ReferenceCache(config)
    for _ in range(3):
        addresses, writes = _stream(rng, config, 150)
        cache.access_stream(addresses, writes)
        reference.access_stream(addresses, writes)
        _agree(cache, reference)
        cache.invalidate()
        reference.invalidate()
        _agree(cache, reference)


def test_write_through_kernel_reads_no_write_flag():
    """A write-through replay never looks at the write column: one that
    is too short, or not a sequence at all, changes nothing."""
    config = _config("lru", False, 2, 4)
    addresses, writes = _stream(random.Random(5), config, 300)
    cache, other = CacheState(config), CacheState(config)
    assert cache.access_stream(addresses, writes) == other.access_stream(
        iter(addresses), None
    )
    assert cache.stats == other.stats
    assert cache.snapshot() == other.snapshot()
