"""Unit tests for cache geometry and address decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.cache import CacheConfig
from repro.errors import ConfigError


class TestConstruction:
    def test_basic_geometry(self):
        config = CacheConfig(num_sets=16, ways=4, line_size=16)
        assert config.size_bytes == 1024
        assert config.total_lines == 64
        assert config.offset_bits == 4
        assert config.index_bits == 4
        assert config.max_index == 15

    def test_direct_mapped_is_one_way(self):
        config = CacheConfig(num_sets=64, ways=1, line_size=32)
        assert config.total_lines == 64
        assert config.size_bytes == 64 * 32

    def test_single_set_has_zero_index_bits(self):
        config = CacheConfig(num_sets=1, ways=4, line_size=16)
        assert config.index_bits == 0
        assert config.index(0x1234) == 0

    @pytest.mark.parametrize("num_sets", [0, 3, 12, -16])
    def test_rejects_non_power_of_two_sets(self, num_sets):
        with pytest.raises(ValueError, match="num_sets"):
            CacheConfig(num_sets=num_sets, ways=2, line_size=16)

    @pytest.mark.parametrize("line_size", [0, 3, 24])
    def test_rejects_non_power_of_two_line(self, line_size):
        with pytest.raises(ValueError, match="line_size"):
            CacheConfig(num_sets=8, ways=2, line_size=line_size)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError, match="ways"):
            CacheConfig(num_sets=8, ways=0, line_size=16)

    def test_rejects_ways_past_one_byte(self):
        # Dense set vectors hold one capped count per byte, so 255 is the
        # widest associativity; 256 is refused with the reason.
        assert CacheConfig(num_sets=8, ways=255, line_size=16).ways == 255
        with pytest.raises(ConfigError, match=r"ways must be in 1\.\.255 .*byte"):
            CacheConfig(num_sets=8, ways=256, line_size=16)

    def test_rejects_negative_miss_penalty(self):
        with pytest.raises(ValueError, match="miss_penalty"):
            CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=-1)

    def test_rejects_negative_hit_cycles(self):
        with pytest.raises(ValueError, match="hit_cycles"):
            CacheConfig(num_sets=8, ways=2, line_size=16, hit_cycles=-1)


class TestPaperGeometries:
    def test_arm9_32k_matches_section_viii(self):
        """32KB, 4-way, 16B lines -> 512 sets ('512 lines in each way')."""
        config = CacheConfig.arm9_32k()
        assert config.size_bytes == 32 * 1024
        assert config.num_sets == 512
        assert config.ways == 4
        assert config.line_size == 16
        assert config.miss_penalty == 20  # Example 6

    def test_example2_1k_matches_example_2(self):
        """1KB 4-way 16B lines -> max index 15, as in the paper's Example 2."""
        config = CacheConfig.example2_1k()
        assert config.size_bytes == 1024
        assert config.max_index == 15

    def test_example2_address_0x011(self):
        """Example 2: accessing 0x011 loads the 16-byte block at 0x010."""
        config = CacheConfig.example2_1k()
        assert config.block(0x011) == 0x010
        assert config.index(0x011) == 1
        assert config.offset(0x011) == 1

    def test_scaled_16k(self):
        config = CacheConfig.scaled_16k()
        assert config.size_bytes == 16 * 1024
        assert config.num_sets == 256


class TestDecomposition:
    def test_decompose_roundtrip(self, example2_config):
        tag, index, offset = example2_config.decompose(0x1234)
        reassembled = (
            (tag << (example2_config.index_bits + example2_config.offset_bits))
            | (index << example2_config.offset_bits)
            | offset
        )
        assert reassembled == 0x1234

    def test_example3_indices(self, example2_config):
        """Example 3 of the paper: indices of the five block addresses."""
        assert example2_config.index(0x000) == 0
        assert example2_config.index(0x100) == 0
        assert example2_config.index(0x010) == 1
        assert example2_config.index(0x110) == 1
        assert example2_config.index(0x210) == 1

    def test_block_number(self, example2_config):
        assert example2_config.block_number(0x000) == 0
        assert example2_config.block_number(0x010) == 1
        assert example2_config.block_number(0x1F) == 1

    def test_negative_address_rejected(self, example2_config):
        with pytest.raises(ValueError, match="non-negative"):
            example2_config.index(-1)

    def test_blocks_of_range_spans_lines(self, example2_config):
        blocks = example2_config.blocks_of_range(0x008, 0x20)
        assert blocks == [0x000, 0x010, 0x020]

    def test_blocks_of_range_empty(self, example2_config):
        assert example2_config.blocks_of_range(0x100, 0) == []

    def test_blocks_of_range_single_byte(self, example2_config):
        assert example2_config.blocks_of_range(0x013, 1) == [0x010]


@given(
    address=st.integers(min_value=0, max_value=2**32 - 1),
    sets_log=st.integers(min_value=0, max_value=10),
    line_log=st.integers(min_value=2, max_value=7),
    ways=st.integers(min_value=1, max_value=8),
)
def test_decomposition_properties(address, sets_log, line_log, ways):
    """tag/index/offset always reassemble; block is aligned and contains addr."""
    config = CacheConfig(num_sets=1 << sets_log, ways=ways, line_size=1 << line_log)
    tag, index, offset = config.decompose(address)
    assert 0 <= offset < config.line_size
    assert 0 <= index < config.num_sets
    reassembled = (
        (tag << (config.index_bits + config.offset_bits))
        | (index << config.offset_bits)
        | offset
    )
    assert reassembled == address
    block = config.block(address)
    assert block % config.line_size == 0
    assert block <= address < block + config.line_size
    assert config.index(block) == index


@given(
    start=st.integers(min_value=0, max_value=2**20),
    length=st.integers(min_value=1, max_value=4096),
)
def test_blocks_of_range_covers_exactly(start, length):
    config = CacheConfig(num_sets=64, ways=2, line_size=32)
    blocks = config.blocks_of_range(start, length)
    # Every byte of the range lies in exactly one returned block.
    assert blocks[0] <= start
    assert blocks[-1] + config.line_size >= start + length
    assert blocks == sorted(set(blocks))
    for first, second in zip(blocks, blocks[1:]):
        assert second - first == config.line_size
