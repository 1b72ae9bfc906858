"""Unit tests for memory-trace recording and per-node aggregation."""

import pytest

from repro.cache import CacheConfig
from repro.vm.trace import NodeRefs, NodeTraceAggregate, distinct_visits

from tests.conftest import compact_trace
from tests.oracles.rmb_lmb import (
    deterministic,
    footprint,
    node_visit_sequences,
    per_node_blocks,
    representative_sequence,
)


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
        blocks = footprint(NodeTraceAggregate.from_compact(config, [trace]))
        assert blocks == frozenset({0x000, 0x010})

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
        assert footprint(aggregate) == frozenset()
        assert len(trace) == 0


class TestNodeRefs:
    def test_deterministic_detection(self):
        same = NodeRefs(label="n", visit_sequences=((0x0, 0x10), (0x0, 0x10)))
        assert deterministic(same)
        assert representative_sequence(same) == (0x0, 0x10)
        differ = NodeRefs(label="n", visit_sequences=((0x0,), (0x10,)))
        assert not deterministic(differ)
        assert representative_sequence(differ) == ()

    def test_blocks_union(self):
        refs = NodeRefs(label="n", visit_sequences=((0x0,), (0x10, 0x20)))
        assert refs.blocks() == frozenset({0x0, 0x10, 0x20})

    def test_empty_refs(self):
        refs = NodeRefs(label="n", visit_sequences=())
        assert deterministic(refs)
        assert refs.blocks() == frozenset()
        assert representative_sequence(refs) == ()

    def test_distinct_visits_keep_first_use_order(self):
        runs = ((0x10, 0x0, 0x10, 0x20), (0x30,))
        assert distinct_visits(runs) == (
            ((0x10, 0x0, 0x20), runs[0]),
            (runs[1], runs[1]),
        )
        refs = NodeRefs(label="n", visit_sequences=runs)
        config = CacheConfig(num_sets=16, ways=2, line_size=16)
        aggregate = NodeTraceAggregate(config=config, node_refs={"n": refs})
        assert aggregate.visits() == {"n": distinct_visits(runs)}


class TestAggregate:
    def test_merges_multiple_recorders(self, config):
        r1 = compact_trace([(0x000, "read", "a")])
        r2 = compact_trace([(0x100, "read", "a"), (0x200, "read", "b")])
        aggregate = NodeTraceAggregate.from_compact(config, [r1, r2])
        assert aggregate.refs("a").blocks() == frozenset({0x000, 0x100})
        assert footprint(aggregate) == frozenset({0x000, 0x100, 0x200})

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
        assert deterministic(aggregate.refs("b"))
        assert not deterministic(aggregate.refs("a"))

    def test_unknown_node_is_empty(self, config):
        aggregate = NodeTraceAggregate.from_compact(config, [])
        assert aggregate.refs("ghost").blocks() == frozenset()

    def test_per_node_blocks(self, config):
        r = compact_trace([(0x000, "read", "a"), (0x100, "write", "b")])
        aggregate = NodeTraceAggregate.from_compact(config, [r])
        per_node = per_node_blocks(aggregate)
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
        assert footprint(aggregate) == frozenset(union)
