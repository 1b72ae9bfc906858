"""Unit tests for memory-trace recording and per-node aggregation."""

import pytest

from repro.cache import CacheConfig
from repro.vm.trace import NodeRefs, NodeTraceAggregate

from tests.conftest import compact_trace
from tests.oracles.rmb_lmb import node_visit_sequences


@pytest.fixture
def config():
    return CacheConfig(num_sets=16, ways=2, line_size=16)


class TestRecorder:
    """What a recorded trace holds: the VM's columns, read back."""

    def test_block_addresses(self, config):
        """A trace's footprint is its distinct memory blocks."""
        trace = compact_trace(
            [(0x000, "read", "a"), (0x004, "read", "a"), (0x010, "write", "a")]
        )
        footprint = NodeTraceAggregate.from_compact(config, [trace]).footprint()
        assert footprint == frozenset({0x000, 0x010})

    def test_block_sequence_preserves_order(self, config):
        trace = compact_trace(
            [(0x010, "read", "a"), (0x000, "read", "a"), (0x013, "read", "a")]
        )
        aggregate = NodeTraceAggregate.from_compact(config, [trace])
        assert aggregate.refs("a").visit_sequences == ((0x010, 0x000, 0x010),)

    def test_visit_boundaries(self, config):
        """Consecutive same-node references form one visit; a node change
        starts a new visit even for a previously seen node."""
        trace = compact_trace(
            [
                (0x000, "read", "a"),
                (0x010, "read", "a"),
                (0x020, "read", "b"),
                (0x030, "read", "a"),
            ]
        )
        visits = node_visit_sequences(trace, config)
        assert visits["a"] == [(0x000, 0x010), (0x030,)]
        assert visits["b"] == [(0x020,)]

    def test_empty_recorder(self, config):
        trace = compact_trace([])
        assert node_visit_sequences(trace, config) == {}
        aggregate = NodeTraceAggregate.from_compact(config, [trace])
        assert aggregate.footprint() == frozenset()
        assert len(trace) == 0


class TestNodeRefs:
    def test_deterministic_detection(self):
        same = NodeRefs(label="n", visit_sequences=((0x0, 0x10), (0x0, 0x10)))
        assert same.deterministic
        assert same.representative_sequence() == (0x0, 0x10)
        differ = NodeRefs(label="n", visit_sequences=((0x0,), (0x10,)))
        assert not differ.deterministic
        assert differ.representative_sequence() == ()

    def test_blocks_union(self):
        refs = NodeRefs(label="n", visit_sequences=((0x0,), (0x10, 0x20)))
        assert refs.blocks() == frozenset({0x0, 0x10, 0x20})

    def test_empty_refs(self):
        refs = NodeRefs(label="n", visit_sequences=())
        assert refs.deterministic
        assert refs.blocks() == frozenset()
        assert refs.representative_sequence() == ()


class TestAggregate:
    def test_merges_multiple_recorders(self, config):
        r1 = compact_trace([(0x000, "read", "a")])
        r2 = compact_trace([(0x100, "read", "a"), (0x200, "read", "b")])
        aggregate = NodeTraceAggregate.from_compact(config, [r1, r2])
        assert aggregate.refs("a").blocks() == frozenset({0x000, 0x100})
        assert aggregate.footprint() == frozenset({0x000, 0x100, 0x200})

    def test_keeps_each_distinct_visit_once_in_first_seen_order(self, config):
        r1 = compact_trace(
            [
                (0x000, "read", "a"),
                (0x010, "read", "b"),
                (0x020, "read", "a"),
                (0x010, "read", "b"),
                (0x000, "read", "a"),
            ]
        )
        r2 = compact_trace([(0x030, "read", "c"), (0x020, "read", "a")])
        aggregate = NodeTraceAggregate.from_compact(config, [r1, r2])
        assert list(aggregate.node_refs) == ["a", "b", "c"]
        assert aggregate.refs("a").visit_sequences == ((0x000,), (0x020,))
        assert aggregate.refs("b").visit_sequences == ((0x010,),)
        assert aggregate.refs("b").deterministic
        assert not aggregate.refs("a").deterministic

    def test_unknown_node_is_empty(self, config):
        aggregate = NodeTraceAggregate.from_compact(config, [])
        assert aggregate.refs("ghost").blocks() == frozenset()

    def test_per_node_blocks(self, config):
        r = compact_trace([(0x000, "read", "a"), (0x100, "write", "b")])
        aggregate = NodeTraceAggregate.from_compact(config, [r])
        per_node = aggregate.per_node_blocks()
        assert per_node == {
            "a": frozenset({0x000}),
            "b": frozenset({0x100}),
        }

    def test_footprint_matches_union_of_nodes(self, config):
        r = compact_trace(
            [(0x000, "read", "a"), (0x010, "read", "b"), (0x000, "write", "b")]
        )
        aggregate = NodeTraceAggregate.from_compact(config, [r])
        union = set()
        for label in ("a", "b"):
            union |= aggregate.refs(label).blocks()
        assert aggregate.footprint() == frozenset(union)
