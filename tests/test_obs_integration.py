"""Property tests that the observability numbers are *honest*.

A metric nobody cross-checks drifts into fiction.  These tests pin the
instrumentation to ground truth the pipeline already reports through
other channels: store counters against actual lookup calls, span
durations against the perf_counter wall times in tables and contexts,
pruned-search node counts against enumerated path counts, and simulator
preemption counters against the Gantt-derivable event stream.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_task
from repro.analysis.crpd import ALL_APPROACHES
from repro.analysis.store import ArtifactStore
from repro.cache import CacheConfig, CacheState
from repro.obs import observed
from repro.program import SystemLayout
from repro.sched.events import EventKind
from repro.sched.simulator import Simulator

from tests.conftest import make_streaming_program


@pytest.fixture(scope="module")
def traced_exp1():
    """One fully traced Experiment I run: build, CRPD pairs, WCRT, ART."""
    from repro.experiments import EXPERIMENT_I_SPEC, build_context
    from repro.wcrt.response_time import compute_system_wcrt

    with observed() as (tracer, metrics):
        context = build_context(EXPERIMENT_I_SPEC, miss_penalty=20, store=None)
        context.crpd.estimate_all_pairs(list(context.priority_order))
        simulation = context.simulate(horizon=160_000)
        compute_system_wcrt(
            context.system,
            cpre=lambda low, high: context.crpd.cpre(low, high, 4),
            context_switch=context.spec.context_switch_cycles,
        )
    return {
        "context": context,
        "simulation": simulation,
        "records": tracer.records,
        "metrics": metrics.to_dict(),
    }


def _spans(records, name):
    return [r for r in records if r.get("type") == "span" and r["name"] == name]


class TestStoreHonesty:
    def test_hits_plus_misses_equals_gets(self, tmp_path, tiny_cache_config):
        program = make_streaming_program("honest", words=16, reps=1)
        layout = SystemLayout().place(program)
        scenarios = {"s": {"data": list(range(16))}}

        with observed() as (_, metrics):
            cold = ArtifactStore(directory=tmp_path)
            analyze_task(layout, scenarios, tiny_cache_config, store=cold)
            analyze_task(layout, scenarios, tiny_cache_config, store=cold)
            warm = ArtifactStore(directory=tmp_path)  # disk entries only
            analyze_task(layout, scenarios, tiny_cache_config, store=warm)

        # Cold instance: first run misses every sub-artifact lookup
        # (task memo, trace, flow, paths), second run is answered whole
        # by the memory-only task memo.  Fresh instance: the four disk
        # sub-artifacts hit, only the task memo misses.
        for store, hits, misses in ((cold, 1, 4), (warm, 4, 1)):
            assert store.gets == store.hits + store.misses
            assert (store.hits, store.misses) == (hits, misses)
        assert cold.hits_by_kind == {"task": 1}
        assert warm.hits_by_kind == {
            "trace": 1, "sim": 1, "flow": 1, "paths": 1,
        }
        counters = metrics.to_dict()["counters"]
        assert counters["store.gets"] == counters["store.hits"] + counters[
            "store.misses"
        ]
        assert counters["store.gets"] == cold.gets + warm.gets
        assert counters["store.hits.memory"] == 1  # the task-memo hit
        assert counters["store.hits.disk"] == 4
        # Cold writes trace/sim/flow/paths plus the memory-only memo;
        # the warm instance re-memoizes its own task memo.
        assert counters["store.puts"] == 6
        assert counters["store.bytes_written"] == cold.bytes_written > 0
        assert counters["store.bytes_read"] == warm.bytes_read > 0

    def test_eviction_counter_matches_instance(self):
        from repro.analysis.store import CachedAnalysis

        with observed() as (_, metrics):
            store = ArtifactStore(directory=None, memory_slots=2)
            for key in ("a", "b", "c", "d"):
                store.put(key, CachedAnalysis(artifacts=None))
        assert store.evictions == 2
        assert metrics.to_dict()["counters"]["store.evictions"] == 2


class TestWallTimeReconciliation:
    def test_build_context_span_matches_build_seconds(self, traced_exp1):
        (span,) = _spans(traced_exp1["records"], "experiments.build_context")
        build_us = traced_exp1["context"].build_seconds * 1e6
        # The span brackets exactly the timed region; only the span's own
        # bookkeeping separates the two clocks.
        assert span["dur_us"] >= build_us * 0.99
        assert span["dur_us"] <= build_us * 1.25 + 50_000

    def test_pair_spans_sum_to_table2_wall_times(self, traced_exp1):
        crpd = traced_exp1["context"].crpd
        pair_spans = _spans(traced_exp1["records"], "crpd.pair")
        assert len(pair_spans) == 12  # 3 pairs x 4 approaches
        for approach in ALL_APPROACHES:
            reported_us = crpd.analysis_seconds[approach] * 1e6
            span_us = sum(
                span["dur_us"]
                for span in pair_spans
                if span["attrs"]["approach"] == approach.value
            )
            # Spans include the estimate plus span bookkeeping; Table II
            # reports the inner perf_counter region.
            assert span_us >= reported_us * 0.95
            assert span_us <= reported_us * 1.5 + 50_000

    def test_root_span_covers_the_whole_run(self, traced_exp1):
        records = traced_exp1["records"]
        spans = [r for r in records if r.get("type") == "span"]
        (build,) = _spans(records, "experiments.build_context")
        children = [s for s in spans if s["parent"] == build["id"]]
        assert sum(c["dur_us"] for c in children) <= build["dur_us"]


class TestPrunedSearchHonesty:
    def test_nodes_visited_bounded_by_feasible_paths(self, traced_exp1):
        from repro.analysis import approach4_lines

        context = traced_exp1["context"]
        artifacts = context.artifacts
        order = list(context.priority_order)
        # Production Approach 4 runs the dense kernels on exp1; drive the
        # branch-and-bound search over every pair directly.
        with observed() as (tracer, metrics):
            for low_index, preempted in enumerate(order):
                for preempting in order[:low_index]:
                    approach4_lines(
                        artifacts[preempted],
                        artifacts[preempting],
                        mumbs_mode="paper",
                    )
        pruned_spans = _spans(tracer.records, "pathcost.pruned")
        assert pruned_spans, "Approach 4 ran no pruned searches"
        for span in pruned_spans:
            task = span["attrs"]["task"]
            feasible = len(artifacts[task].path_profiles)
            assert span["attrs"]["nodes_visited"] <= feasible
            assert span["attrs"]["budget_tripped"] is False
        counters = metrics.to_dict()["counters"]
        assert counters["pathcost.nodes_visited"] <= sum(
            len(art.path_profiles) for art in artifacts.values()
        ) * counters["pathcost.searches"]

    def test_pruned_engine_reports_no_budget_trip_on_bomb(self):
        """Regression pin for the BENCH path_bomb section: the pruned
        engine finishes the enumeration-tripped bomb within its own node
        budget (``--exact-paths`` off leaves that budget at its default).
        """
        from repro.analysis import max_path_conflict_pruned
        from repro.guard.budget import AnalysisBudget
        from repro.guard.ledger import DegradationLedger
        from repro.program import ProgramBuilder

        config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
        b = ProgramBuilder("minibomb")
        flags = b.array("flags", words=2)
        table = b.array("t", words=16)
        b.load("f", flags, index=0)
        for _ in range(6):  # 2^6 = 64 paths > max_paths budget of 8
            with b.if_else("f") as arms:
                with arms.then_case():
                    b.load("v", table, index=0)
                with arms.else_case():
                    b.load("v", table, index=1)
        inputs = {"flags": [1, 0], "t": list(range(16))}
        layout = SystemLayout().place(b.build())
        ledger = DegradationLedger()
        tripped = analyze_task(
            layout, {"s": inputs}, config,
            budget=AnalysisBudget(max_paths=8), ledger=ledger,
        )
        assert not tripped.path_enumeration_complete

        useful = bytes([1]) * config.num_sets  # one useful block per set
        with observed() as (tracer, metrics):
            result = max_path_conflict_pruned(useful, tripped)
        snapshot = metrics.to_dict()
        assert snapshot["gauges"]["pathcost.budget_tripped"] is False
        assert "pathcost.budget_trips" not in snapshot["counters"]
        (span,) = _spans(tracer.records, "pathcost.pruned")
        assert span["attrs"]["budget_tripped"] is False
        assert result.cost >= 0


class TestSimulatorHonesty:
    @pytest.mark.parametrize(
        "fixture_name, horizon",
        [("experiment1_context", 160_000), ("experiment2_context", 112_000)],
    )
    def test_preemption_counter_matches_gantt(
        self, request, fixture_name, horizon
    ):
        context = request.getfixturevalue(fixture_name)
        simulator = Simulator(
            context.bindings(),
            cache=CacheState(context.config),
            context_switch_cycles=context.spec.context_switch_cycles,
        )
        with observed() as (tracer, metrics):
            result = simulator.run(horizon)
        from collections import Counter

        preempt_events = Counter(
            (event.task, event.job)
            for event in result.events
            if event.kind is EventKind.PREEMPT
        )
        gantt_preemptions = sum(preempt_events.values())
        counters = metrics.to_dict()["counters"]
        assert counters["sim.preemptions"] == gantt_preemptions
        # Per completed job, the Gantt-derivable event count equals the
        # job record's own tally.
        for job in result.jobs:
            assert preempt_events[(job.task, job.job)] == job.preemptions
        assert counters["sim.events"] == len(result.events)
        assert counters["sim.runs"] == 1
        (span,) = _spans(tracer.records, "sim.run")
        assert span["attrs"]["preemptions"] == gantt_preemptions
        assert span["attrs"]["end_time"] == result.end_time

    def test_wcrt_histograms_cover_every_task(self, traced_exp1):
        histograms = traced_exp1["metrics"]["histograms"]
        spans = _spans(traced_exp1["records"], "wcrt.task")
        assert len(spans) == 3
        assert histograms["wcrt.iterations"]["count"] == 3
        assert histograms["wcrt.iterations"]["min"] >= 1
        # One delta observation per iteration step past the first.
        expected_deltas = sum(s["attrs"]["iterations"] - 1 for s in spans)
        assert histograms["wcrt.delta"]["count"] == expected_deltas
