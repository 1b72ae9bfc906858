"""Unit tests for memory-trace recording and per-node aggregation."""

import pytest

from repro.cache import CacheConfig
from repro.vm.trace import TraceView, distinct_visits

from tests.conftest import compact_trace
from tests.oracles.rmb_lmb import (
    NodeRefs,
    NodeTraceAggregate,
    every_visit_aggregate,
    footprint,
    node_visit_sequences,
    per_node_blocks,
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
        blocks = footprint(every_visit_aggregate(config, [trace]))
        assert blocks == frozenset({0x000, 0x010})

    def test_block_sequence_preserves_order(self, config):
        trace = compact_trace(
            [(0x010, "read", "a"), (0x000, "read", "a"), (0x013, "read", "a")]
        )
        aggregate = every_visit_aggregate(config, [trace])
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
        aggregate = every_visit_aggregate(config, [trace])
        assert footprint(aggregate) == frozenset()
        assert len(trace) == 0


class TestNodeRefs:
    def test_blocks_union(self):
        refs = NodeRefs(label="n", visit_sequences=((0x0,), (0x10, 0x20)))
        assert refs.blocks() == frozenset({0x0, 0x10, 0x20})

    def test_empty_refs(self):
        refs = NodeRefs(label="n", visit_sequences=())
        assert refs.blocks() == frozenset()

    def test_distinct_visits_keep_first_use_order(self):
        runs = ((0x10, 0x0, 0x10, 0x20), (0x30,))
        assert distinct_visits(runs) == (
            ((0x10, 0x0, 0x20), runs[0]),
            (runs[1], runs[1]),
        )
        refs = NodeRefs(label="n", visit_sequences=runs + runs)
        config = CacheConfig(num_sets=16, ways=2, line_size=16)
        aggregate = NodeTraceAggregate(config=config, node_refs={"n": refs})
        # Blocks 0x10, 0x0, 0x20, 0x30 are ids 0-3; repeats are dropped.
        assert aggregate.keyed_visits() == (
            {"n": distinct_visits(((0, 1, 0, 2), (3,)))}, [0x10, 0x0, 0x20, 0x30]
        )


class TestAggregate:
    def test_merges_multiple_recorders(self, config):
        r1 = compact_trace([(0x000, "read", "a")])
        r2 = compact_trace([(0x100, "read", "a"), (0x200, "read", "b")])
        aggregate = every_visit_aggregate(config, [r1, r2])
        assert aggregate.refs("a").blocks() == frozenset({0x000, 0x100})
        assert footprint(aggregate) == frozenset({0x000, 0x100, 0x200})

    def test_keeps_each_distinct_visit_once_in_first_seen_order(self, config):
        """The block view keeps each distinct visit once, in first-seen
        order across scenarios; the every-visit aggregate keeps them all."""
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
        view = TraceView({"r1": r1, "r2": r2}, config.line_size, (0,))
        blocks = view.moved(view.bases)
        assert list(view.visits) == ["a", "b", "c"]
        assert {
            label: tuple(tuple(blocks[key] for key in run) for _, run in node)
            for label, node in view.visits.items()
        } == {"a": ((0x000,), (0x020,)), "b": ((0x010,),), "c": ((0x030,),)}
        aggregate = every_visit_aggregate(config, [r1, r2])
        assert aggregate.refs("a").visit_sequences == (
            (0x000,), (0x020,), (0x000,), (0x020,)
        )

    def test_unknown_node_is_empty(self, config):
        aggregate = every_visit_aggregate(config, [])
        assert aggregate.refs("ghost").blocks() == frozenset()

    def test_per_node_blocks(self, config):
        r = compact_trace([(0x000, "read", "a"), (0x100, "write", "b")])
        aggregate = every_visit_aggregate(config, [r])
        per_node = per_node_blocks(aggregate)
        assert per_node == {
            "a": frozenset({0x000}),
            "b": frozenset({0x100}),
        }

    def test_footprint_matches_union_of_nodes(self, config):
        r = compact_trace(
            [(0x000, "read", "a"), (0x010, "read", "b"), (0x000, "write", "b")]
        )
        aggregate = every_visit_aggregate(config, [r])
        union = set()
        for label in ("a", "b"):
            union |= aggregate.refs(label).blocks()
        assert footprint(aggregate) == frozenset(union)
