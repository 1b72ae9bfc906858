"""Unit tests for the zero-dependency observability layer (``repro.obs``).

Covers span nesting and ordering, the JSONL schema contract, histogram
bucketing and merge, and the disabled-mode overhead bound.  Deterministic
span adoption across the ``jobs=2`` process fan-out is pinned on the
batch engine (``tests/test_batch_equivalence.py``).
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    SPAN_RECORD_KEYS,
    STATE,
    TRACE_SCHEMA_VERSION,
    Histogram,
    Metrics,
    NullTracer,
    Tracer,
    install,
    observed,
    profiled,
    read_trace,
    uninstall,
)


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    """Every test leaves the process-wide obs state back at its default."""
    yield
    uninstall()


class TestSpans:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_records_appear_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [record["name"] for record in tracer.records]
        assert names == ["inner", "outer"]  # inner finishes first

    def test_attrs_and_events_land_on_the_record(self):
        tracer = Tracer()
        with tracer.span("work", task="ed") as span:
            span.set(lines=42)
            span.event("checkpoint", stage="mid")
        (record,) = tracer.records
        assert record["attrs"] == {"task": "ed", "lines": 42}
        (event,) = record["events"]
        assert event["name"] == "checkpoint"
        assert event["attrs"] == {"stage": "mid"}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record["attrs"]["error"] == "ValueError"

    def test_event_without_open_span_is_standalone_record(self):
        tracer = Tracer()
        tracer.event("ledger.degradation", stage="paths:ed")
        (record,) = tracer.records
        assert record["type"] == "event"
        assert record["parent"] is None
        assert record["dur_us"] == 0

    def test_threads_get_independent_span_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("thread-root") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must not nest under this thread's stack.
        assert seen["parent"] is None

    def test_durations_are_monotonic_microseconds(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.002)
        (record,) = tracer.records
        assert record["dur_us"] >= 1000
        assert record["start_us"] >= 0


class TestJsonlSchema:
    def test_export_roundtrip_and_schema_keys(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", experiment="exp1"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta"
        assert meta["v"] == TRACE_SCHEMA_VERSION
        assert meta["records"] == 2
        for line in lines[1:]:
            record = json.loads(line)
            assert set(record) == SPAN_RECORD_KEYS
            assert record["v"] == TRACE_SCHEMA_VERSION
        assert [r["name"] for r in read_trace(path)] == ["inner", "outer"]

    def test_adopt_preserves_nesting_and_reassigns_ids(self):
        worker = Tracer()
        with worker.span("analyze.task"):
            with worker.span("analyze.wcet"):
                pass
        parent = Tracer()
        with parent.span("fan") as fan:
            fan_id = fan.span_id
            parent.adopt(worker.records, parent_id=fan_id)
        by_name = {r["name"]: r for r in parent.records}
        # Records arrive in completion order (child first), so adoption
        # must remap ids in two passes to keep the intra-batch nesting.
        assert by_name["analyze.wcet"]["parent"] == by_name["analyze.task"]["id"]
        assert by_name["analyze.task"]["parent"] == fan_id
        ids = [r["id"] for r in parent.records]
        assert len(ids) == len(set(ids))


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        metrics = Metrics()
        metrics.counter("hits").inc()
        metrics.counter("hits").inc(4)
        metrics.gauge("tripped").set(False)
        metrics.histogram("sizes").observe(3)
        snapshot = metrics.to_dict()
        assert snapshot["v"] == METRICS_SCHEMA_VERSION
        assert snapshot["counters"] == {"hits": 5}
        assert snapshot["gauges"] == {"tripped": False}
        assert snapshot["histograms"]["sizes"]["count"] == 1

    def test_histogram_bucketing_at_the_boundaries(self):
        histogram = Histogram("h", bounds=(1, 10, 100))
        for value in (0, 1, 2, 10, 11, 100, 101, 5000):
            histogram.observe(value)
        # bisect_left: value <= bound lands in that bound's bucket.
        assert histogram.bucket_counts == [2, 2, 2, 2]
        assert histogram.count == 8
        assert histogram.min == 0
        assert histogram.max == 5000
        assert histogram.total == sum((0, 1, 2, 10, 11, 100, 101, 5000))

    def test_histogram_sums_huge_ints_exactly(self):
        """A diverged Eq. 7 delta has hundreds of digits; observing it
        (and merging its snapshot) must neither raise nor round."""
        histogram = Histogram("h", bounds=(1, 10))
        histogram.observe(10**400)
        histogram.observe(1)
        assert histogram.total == 10**400 + 1
        assert histogram.max == 10**400
        histogram.observe(0.5)  # too large for a float sum: saturates
        assert histogram.total == float("inf")
        merged = Metrics()
        merged.histogram("h", (1, 10)).observe(2)
        merged.merge({"histograms": {"h": Histogram("h", (1, 10)).to_dict()
                                     | {"count": 1, "sum": 10**400}}})
        assert merged.histogram("h", (1, 10)).total == 10**400 + 2

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(10, 1))
        with pytest.raises(ValueError):
            Histogram("dup", bounds=(1, 1, 2))

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_merge_adds_counters_and_histogram_buckets(self):
        left, right = Metrics(), Metrics()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        right.counter("only_right").inc()
        left.histogram("h", bounds=(1, 2)).observe(1)
        right.histogram("h", bounds=(1, 2)).observe(5)
        right.gauge("g").set(7)
        left.merge(right.to_dict())
        snapshot = left.to_dict()
        assert snapshot["counters"] == {"c": 5, "only_right": 1}
        assert snapshot["gauges"] == {"g": 7}
        merged = snapshot["histograms"]["h"]
        assert merged["count"] == 2
        assert merged["counts"] == [1, 0, 1]
        assert merged["min"] == 1 and merged["max"] == 5

    def test_merge_rejects_mismatched_bounds(self):
        left, right = Metrics(), Metrics()
        left.histogram("h", bounds=(1, 2)).observe(1)
        right.histogram("h", bounds=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            left.merge(right.to_dict())

    def test_export_json(self, tmp_path):
        metrics = Metrics()
        metrics.counter("c").inc()
        path = tmp_path / "metrics.json"
        metrics.export_json(path)
        assert json.loads(path.read_text())["counters"] == {"c": 1}


class TestStateAndProfiled:
    def test_default_state_is_disabled_null_objects(self):
        assert STATE.enabled is False
        assert isinstance(STATE.tracer, NullTracer)
        assert STATE.tracer.span("anything").span_id is None

    def test_install_observed_uninstall_cycle(self):
        with observed() as (tracer, metrics):
            assert STATE.enabled is True
            assert STATE.tracer is tracer
            assert STATE.metrics is metrics
        assert STATE.enabled is False

    def test_profiled_records_span_and_counter_when_enabled(self):
        @profiled("unit.work", counter="unit.calls")
        def work(x):
            return x + 1

        with observed() as (tracer, metrics):
            assert work(1) == 2
        assert [r["name"] for r in tracer.records] == ["unit.work"]
        assert metrics.to_dict()["counters"] == {"unit.calls": 1}

    def test_profiled_is_transparent_when_disabled(self):
        @profiled()
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work.__wrapped__(21) == 42

    def test_disabled_overhead_under_five_percent(self):
        """The no-op guard costs < 5% of a kernel call's CPU time.

        The guard's cost does not depend on the body it wraps, so it is
        measured where it is not drowned by the body: N disabled-wrapper
        calls around a trivial body against N bare calls, in many
        interleaved pairs of ``process_time`` readings (the median pair
        ignores the pairs a busy host disturbs).  That per-call cost must
        stay within 5% of one call of a ~8 ms kernel microloop.
        """

        def kernel(n):
            total = 0
            for value in range(n):
                total += value
            return total

        def trivial(value):
            return value

        wrapped = profiled("bench.trivial")(trivial)
        calls = 2_000

        def cpu_seconds(fn, *args):
            started = time.process_time()
            fn(*args)
            return time.process_time() - started

        def loop(fn):
            for _ in range(calls):
                fn(0)

        assert STATE.enabled is False
        guard = statistics.median(
            (cpu_seconds(loop, wrapped) - cpu_seconds(loop, trivial)) / calls
            for _ in range(41)
        )
        body = statistics.median(cpu_seconds(kernel, 200_000) for _ in range(5))
        assert guard <= body * 0.05, (
            f"disabled instrumentation costs {guard * 1e9:.0f} ns per call, "
            f"over 5% of a {body * 1e3:.2f} ms kernel call"
        )



class TestViewCountRoutes:
    """``trace.counts_from_footprint`` / ``trace.counts_replayed``: how
    each scenario of a cold analysis was counted."""

    @staticmethod
    def counters(num_sets: int) -> dict:
        from repro.analysis.artifacts import analyze_task
        from repro.analysis.pipeline import resolve_system
        from repro.cache.config import CacheConfig

        config = CacheConfig(num_sets=num_sets, ways=2, line_size=16)
        with observed() as (_, metrics):
            for task in resolve_system("exp1").tasks:
                analyze_task(task.layout, task.scenarios, config)
        return metrics.to_dict()["counters"]

    def test_exp1_at_256x2x16_counts_from_footprints(self):
        assert self.counters(256)["trace.counts_from_footprint"] > 0

    def test_one_set_replays_every_scenario(self):
        counters = self.counters(1)
        assert counters["trace.counts_replayed"] > 0
        assert "trace.counts_from_footprint" not in counters
