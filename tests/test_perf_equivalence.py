"""Equivalence of the fast analysis engine with its naive references.

The performance work (``docs/performance.md``) replaced four slow paths
with fast ones that must be *observationally identical*:

* per-set counter kernels vs frozenset-intersection ``conflict_bound``,
* branch-and-bound Equation-4 search vs full path enumeration
  (``tests/oracles/pathcost.py``),
* artifact-cache hits vs cold analyses (including replayed ledger events),
* heap-based scheduler queues vs the original linear scans.

Each is checked here on 200+ randomized cases plus every built-in
workload.  All randomness is seeded, so failures reproduce exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import analyze_task, max_path_conflict_pruned
from repro.analysis.store import ArtifactStore
from repro.cache import CacheConfig, CacheState, CIIP
from repro.cache.ciip import conflict_bound
from repro.cache.kernels import dense_from_ciip_counts
from repro.experiments import EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC, build_context
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.program import ProgramBuilder, SystemLayout
from repro.sched.simulator import Simulator
from repro.workloads import build_workload, workload_names

from tests.oracles.ciip import conflict_bound_naive
from tests.oracles.pathcost import approach4_lines as enumerated_approach4
from tests.oracles.pathcost import max_path_conflict
from tests.oracles.scheduler import ScanSimulator

KERNEL_CASES = 120
PRUNE_CASES = 60
CACHE_CASES = 20


# ----------------------------------------------------------------------
# Per-set counter kernels vs the frozenset-intersection reference
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    def test_randomized(self):
        rng = random.Random(20040216)
        for case in range(KERNEL_CASES):
            config = CacheConfig(
                num_sets=rng.choice((8, 16, 32, 64)),
                ways=rng.choice((1, 2, 4)),
                line_size=16,
                miss_penalty=20,
            )
            span = config.num_sets * config.line_size * 4
            addresses_a = [rng.randrange(span) for _ in range(rng.randrange(0, 80))]
            addresses_b = [rng.randrange(span) for _ in range(rng.randrange(0, 80))]
            a = CIIP.from_addresses(config, addresses_a)
            b = CIIP.from_addresses(config, addresses_b)
            assert conflict_bound(a, b) == conflict_bound_naive(a, b), (
                f"case {case}: kernel disagrees with naive bound"
            )
            # The bound is symmetric in both implementations.
            assert conflict_bound(b, a) == conflict_bound(a, b)

    def test_workload_footprints(self):
        """Kernel == naive on every built-in workload's real footprint."""
        config = CacheConfig.scaled_8k(miss_penalty=20)
        layout = SystemLayout()
        ciips = []
        for name in workload_names():
            workload = build_workload(name)
            art = analyze_task(
                layout.place(workload.program), workload.scenario_map(), config
            )
            ciips.append(art.footprint_ciip)
            ciips.append(art.useful.mumbs_ciip())
        for a in ciips:
            for b in ciips:
                assert conflict_bound(a, b) == conflict_bound_naive(a, b)


# ----------------------------------------------------------------------
# Branch-and-bound Equation 4 vs full enumeration
# ----------------------------------------------------------------------
def _random_preemptor(rng: random.Random, name: str):
    """A small branchy program plus one scenario exercising it."""
    b = ProgramBuilder(name)
    flags = b.array("flags", words=4)
    tables = [
        b.array(f"t{i}", words=rng.randrange(8, 33))
        for i in range(rng.randrange(2, 5))
    ]
    b.load("f", flags, index=0)

    def touch():
        table = rng.choice(tables)
        with b.loop(rng.randrange(2, 7)) as i:
            b.load("v", table, index=i)

    for _ in range(rng.randrange(1, 4)):  # sequential branch points
        with b.if_else("f") as arms:
            with arms.then_case():
                touch()
            if rng.random() < 0.7:
                with arms.else_case():
                    touch()
    if rng.random() < 0.5:  # a branch under a loop (SFP-PrS collapse)
        with b.loop(rng.randrange(1, 4)):
            with b.if_else("f") as arms:
                with arms.then_case():
                    touch()
                with arms.else_case():
                    touch()
    program = b.build()
    inputs = {"flags": [1, 0, 1, 0]}
    for table in tables:
        inputs[table.name] = list(range(table.words))
    return program, inputs


def _dense(ciip):
    config = ciip.config
    return dense_from_ciip_counts(ciip.set_counts, config.num_sets, config.ways)


class TestPruningEquivalence:
    def test_randomized(self):
        rng = random.Random(1049)
        for case in range(PRUNE_CASES):
            config = CacheConfig(
                num_sets=rng.choice((16, 32)),
                ways=rng.choice((1, 2, 4)),
                line_size=16,
                miss_penalty=20,
            )
            program, inputs = _random_preemptor(rng, f"rand{case}")
            layout = SystemLayout().place(program)
            art = analyze_task(layout, {"s": inputs}, config)
            assert art.path_enumeration_complete
            span = config.num_sets * config.line_size * 2
            useful = CIIP.from_addresses(
                config, [rng.randrange(span) for _ in range(rng.randrange(0, 64))]
            )
            naive = max_path_conflict(useful, art).lines
            pruned = max_path_conflict_pruned(_dense(useful), art)
            assert pruned.cost == naive, (
                f"case {case}: pruned {pruned.cost} != enumerated {naive}"
            )

    def test_exact_past_tripped_budget(self):
        """B&B recovers the exact bound on a program whose path count
        trips the enumeration budget (the ``--exact-paths`` guarantee)."""
        config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
        b = ProgramBuilder("bomb")
        flags = b.array("flags", words=4)
        tables = [b.array(f"t{i}", words=16) for i in range(4)]
        b.load("f", flags, index=0)
        for branch in range(10):  # 2^10 = 1024 feasible paths
            with b.if_else("f") as arms:
                with arms.then_case():
                    with b.loop(3) as i:
                        b.load("v", tables[branch % 4], index=i)
                with arms.else_case():
                    with b.loop(3) as i:
                        b.load("v", tables[(branch + 1) % 4], index=i)
        program = b.build()
        inputs = {"flags": [1, 0, 1, 0]}
        for table in tables:
            inputs[table.name] = list(range(16))

        layout = SystemLayout().place(program)
        tripped_ledger = DegradationLedger()
        tripped = analyze_task(
            layout,
            {"s": inputs},
            config,
            budget=AnalysisBudget(max_paths=64),
            ledger=tripped_ledger,
        )
        assert not tripped.path_enumeration_complete
        assert tripped_ledger.degraded
        full = analyze_task(layout, {"s": inputs}, config)
        assert full.path_enumeration_complete
        assert len(full.path_profiles) == 1024

        useful = CIIP.from_addresses(config, range(0, 2048, 16))
        exact = max_path_conflict(useful, full).lines
        pruned = max_path_conflict_pruned(_dense(useful), tripped)
        assert pruned.cost == exact
        # Pruning must have paid for itself: far fewer than 1024 paths.
        assert pruned.explored_paths < 1024

    def test_experiment_pairs(self):
        """Production == pruned == enumerated on every real preemption pair."""
        from repro.analysis.crpd import Approach, CRPDAnalyzer
        from repro.analysis.pathcost import approach4_lines

        for spec in (EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC):
            context = build_context(spec)
            order = list(context.priority_order)
            for mode in ("paper", "per_point"):
                production = CRPDAnalyzer(context.artifacts, mumbs_mode=mode)
                exact = CRPDAnalyzer(
                    context.artifacts,
                    mumbs_mode=mode,
                    budget=AnalysisBudget(exact_paths=True),
                )
                for low_index in range(1, len(order)):
                    for preempting in order[:low_index]:
                        preempted = order[low_index]
                        low = context.artifacts[preempted]
                        high = context.artifacts[preempting]
                        lines = production.lines_reloaded(
                            preempted, preempting, Approach.COMBINED
                        )
                        assert lines == exact.lines_reloaded(
                            preempted, preempting, Approach.COMBINED
                        )
                        where = f"{spec.key}/{mode}: {preempted} by {preempting}"
                        assert lines == approach4_lines(
                            low, high, mumbs_mode=mode
                        ), where
                        assert lines == enumerated_approach4(
                            low, high, mumbs_mode=mode
                        ), where


# ----------------------------------------------------------------------
# Artifact cache: hits indistinguishable from cold runs
# ----------------------------------------------------------------------
def _artifact_fingerprint(art):
    return (
        art.name,
        art.wcet.cycles,
        dict(art.wcet.per_scenario_cycles),
        art.footprint,
        art.useful.mumbs(),
        art.path_profiles,
        art.path_enumeration_complete,
    )


class TestCacheEquivalence:
    def test_randomized(self, tmp_path):
        from repro.workloads.synthetic import SyntheticTaskSpec, build_synthetic_task

        rng = random.Random(7)
        config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
        for case in range(CACHE_CASES):
            spec = SyntheticTaskSpec(
                name=f"syn{case}",
                stream_words=rng.randrange(4, 48),
                hot_words=rng.randrange(4, 32),
                hot_passes=rng.randrange(1, 3),
                table_words=rng.randrange(4, 16),
                lookups=rng.randrange(1, 16),
                seed=case + 1,
            )
            workload = build_synthetic_task(spec)
            layout = SystemLayout().place(workload.program)
            cold_store = ArtifactStore(directory=tmp_path)
            cold = analyze_task(
                layout, workload.scenario_map(), config, store=cold_store
            )
            # Cold: every sub-artifact lookup misses.
            assert cold_store.hits == 0
            assert cold_store.misses_by_kind == {
                "task": 1, "sim": 1, "flow": 1, "trace": 1, "paths": 1,
            }
            warm_store = ArtifactStore(directory=tmp_path)  # disk only
            warm = analyze_task(
                layout, workload.scenario_map(), config, store=warm_store
            )
            # Warm from disk: the sim, flow and paths entries hit and the
            # trace is never read; only the memory-only assembly memo
            # misses.
            assert warm_store.hits_by_kind == {
                "sim": 1, "flow": 1, "paths": 1,
            }, f"case {case}: expected three disk hits"
            assert warm_store.misses_by_kind == {"task": 1}
            assert _artifact_fingerprint(cold) == _artifact_fingerprint(warm)

    def test_ledger_parity_under_tripped_budget(self, tmp_path):
        """A cache hit replays the degradation events a cold run records."""
        workload = build_workload("ed")
        config = CacheConfig.scaled_8k(miss_penalty=20)
        layout = SystemLayout().place(workload.program)
        budget = AnalysisBudget(max_paths=1)

        cold_ledger = DegradationLedger()
        cold = analyze_task(
            layout,
            workload.scenario_map(),
            config,
            budget=budget,
            ledger=cold_ledger,
            store=ArtifactStore(directory=tmp_path),
        )
        assert cold_ledger.degraded and not cold.path_enumeration_complete

        warm_ledger = DegradationLedger()
        warm_store = ArtifactStore(directory=tmp_path)
        warm = analyze_task(
            layout,
            workload.scenario_map(),
            config,
            budget=budget,
            ledger=warm_ledger,
            store=warm_store,
        )
        assert warm_store.hits_by_kind == {"sim": 1, "flow": 1, "paths": 1}
        assert warm_ledger.events == cold_ledger.events
        assert warm_ledger.soundness == cold_ledger.soundness == "conservative"
        assert _artifact_fingerprint(cold) == _artifact_fingerprint(warm)

    def test_budget_is_part_of_the_key(self, tmp_path):
        """Different path budgets never share a *paths* entry — but they
        do share the budget-independent trace/sim/flow sub-artifacts,
        which is exactly the cross-scenario reuse the decomposition
        buys."""
        workload = build_workload("ed")
        config = CacheConfig.scaled_8k(miss_penalty=20)
        layout = SystemLayout().place(workload.program)
        store = ArtifactStore(directory=tmp_path)
        analyze_task(
            layout, workload.scenario_map(), config,
            budget=AnalysisBudget(max_paths=1),
            ledger=DegradationLedger(), store=store,
        )
        full = analyze_task(
            layout, workload.scenario_map(), config, store=store
        )
        # The second run re-enumerates paths (new budget => new key) and
        # re-misses the budget-keyed assembly memo, but reuses the sim and
        # flow sub-artifacts (and so never reads the trace).
        assert store.misses_by_kind == {
            "task": 2, "sim": 1, "flow": 1, "trace": 1, "paths": 2,
        }
        assert store.hits_by_kind == {"sim": 1, "flow": 1}
        assert full.path_enumeration_complete


# ----------------------------------------------------------------------
# Heap scheduler queues vs the linear-scan reference
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("spec", [EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC])
    def test_identical_schedules(self, spec):
        context = build_context(spec)
        horizon = context.system.hyperperiod // 2
        results = {}
        for impl, simulator_class in (("heap", Simulator), ("scan", ScanSimulator)):
            simulator = simulator_class(
                context.bindings(),
                cache=CacheState(context.config),
                context_switch_cycles=context.spec.context_switch_cycles,
            )
            results[impl] = simulator.run(horizon)
        heap, scan = results["heap"], results["scan"]
        assert heap.events == scan.events
        assert heap.jobs == scan.jobs
        assert heap.end_time == scan.end_time
        assert heap.unfinished_jobs == scan.unfinished_jobs
