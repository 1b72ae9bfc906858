"""Perf bench: cold vs warm vs parallel analysis engine timings.

Times the guarded analysis pipeline on the paper's two experiments —

* **cold**: empty artifact store, every task analysed from scratch,
* **warm**: fresh in-memory state over the same on-disk store, so every
  task analysis is answered by disk sub-artifact hits,
* **parallel sweep**: a 4-penalty sweep at ``--jobs 2`` through the warm
  :class:`~repro.batch.pool.WarmPool` batch engine, against the old
  per-call-pool loop that forked fresh workers for every point (the
  regression this engine exists to fix: per-call pools made ``--jobs 2``
  *slower* than serial),
* **geometry sweep**: a penalty × geometry grid re-run against a
  populated store, against full per-point recompute — the sub-artifact
  decomposition gate —

and demonstrates the branch-and-bound path engine on a synthetic task
whose 8192 feasible paths trip the default ``--max-paths`` budget (4096):
``--exact-paths`` recovers the exact Equation-4 bound from the tripped
artifacts, matching full enumeration at a fraction of the work.

Results land in ``BENCH_perf.json`` at the repo root (uploaded by the CI
perf-smoke job, diffed against the committed baseline by
``scripts/bench_gate_diff.py``) and ``benchmarks/out/perf_engine.txt``.
The assertions at the end are the CI gates: warm >= 2x on Experiment I,
``parallel_speedup >= 1.3`` on the exp1 jobs=2 sweep, and >= 3x
warm-sweep speedup on the geometry grid.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from time import perf_counter

from conftest import write_artifact

from repro.analysis import analyze_task, max_path_conflict_pruned
from repro.analysis.store import ArtifactStore
from repro.cache import CacheConfig, CIIP
from repro.cache.kernels import dense_from_ciip_counts
from repro.experiments import EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC, build_context
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.program import ProgramBuilder, SystemLayout

from tests.oracles.pathcost import max_path_conflict

REPO_ROOT = pathlib.Path(__file__).parent.parent
WARM_SPEEDUP_GATE = 2.0  # CI fails below this, Experiment I only
PARALLEL_SPEEDUP_GATE = 1.3  # warm-pool jobs=2 sweep vs per-call pools
SWEEP_WARM_SPEEDUP_GATE = 3.0  # geometry grid: warm store vs recompute
WHATIF_P50_GATE_SECONDS = 0.050  # single-edit re-analysis, warm, ROADMAP 2
SERVE_P99_GATE_MS = 500.0  # submit-to-result, 16 clients on a warm grid
OPTIMIZE_EVALS_PER_SEC_GATE = 0.5  # layout-search evaluation throughput
SERVE_CLIENTS = 16
SERVE_REQUESTS_PER_CLIENT = 4
WARM_REPEATS = 3
SWEEP_PENALTIES = (10, 20, 30, 40)
SWEEP_GEOMETRIES = ((64, 4, 32), (128, 2, 32), (32, 4, 16))


def _time_build(spec, store=None, jobs=1):
    started = perf_counter()
    context = build_context(spec, miss_penalty=20, store=store, jobs=jobs)
    return perf_counter() - started, context


def _bench_experiment(spec):
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        cold_seconds, cold = _time_build(spec, store=ArtifactStore(directory))
        # Warm: new store object on the same directory, so only the
        # on-disk entries survive — every analysis must be a disk hit.
        warm_seconds = None
        for _ in range(WARM_REPEATS):
            store = ArtifactStore(directory)
            seconds, warm = _time_build(spec, store=store)
            # Every persisted sub-artifact (trace/sim/flow/paths) of every
            # task must come back from disk.
            assert store.hits == 4 * len(spec.priority_order), (
                "expected all disk hits"
            )
            warm_seconds = seconds if warm_seconds is None else min(warm_seconds, seconds)
        parallel_seconds, parallel = _time_build(spec, jobs=2)

    for name in spec.priority_order:
        assert (
            cold.artifacts[name].wcet.cycles
            == warm.artifacts[name].wcet.cycles
            == parallel.artifacts[name].wcet.cycles
        ), f"{spec.key}/{name}: engines disagree on WCET"
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
        "parallel_jobs2_seconds": round(parallel_seconds, 4),
        "tasks": list(spec.priority_order),
    }


def _old_style_point(spec, penalty):
    """One sweep point the pre-batch way: fresh per-call pools for the
    task fan-out and the pair fan-out, full CRPD + WCRT downstream."""
    from repro.analysis.crpd import ALL_APPROACHES
    from repro.wcrt.response_time import compute_system_wcrt

    context = build_context(spec, miss_penalty=penalty, jobs=2)
    context.crpd.estimate_all_pairs(list(context.priority_order), jobs=2)
    for approach in ALL_APPROACHES:
        compute_system_wcrt(
            context.system,
            cpre=lambda low, high, _a=approach: context.crpd.cpre(
                low, high, _a
            ),
            context_switch=spec.context_switch_cycles,
            stop_at_deadline=False,
        )
    return context


def _bench_parallel_sweep(spec):
    """Warm-pool jobs=2 sweep vs the per-call-pool jobs=2 loop.

    Both sides run the identical four-penalty workload (task analyses,
    all preemption pairs, all four WCRT fixpoints) with no store, so the
    measured gap is purely pool lifecycle: worker start-up and context
    shipping once per batch instead of twice per point.
    """
    from repro.batch import analyze_batch, sweep_grid

    points = sweep_grid((spec.key,), SWEEP_PENALTIES)

    started = perf_counter()
    contexts = [
        _old_style_point(spec, penalty) for penalty in SWEEP_PENALTIES
    ]
    per_call_seconds = perf_counter() - started

    started = perf_counter()
    batch = analyze_batch(points, jobs=2)
    warm_pool_seconds = perf_counter() - started

    for context, result in zip(contexts, batch):
        for name in spec.priority_order:
            assert (
                result.wcet[name] == context.artifacts[name].wcet.cycles
            ), f"{spec.key}: sweep WCET diverged from per-point loop"
    return {
        "points": len(points),
        "per_call_pool_jobs2_seconds": round(per_call_seconds, 4),
        "warm_pool_jobs2_seconds": round(warm_pool_seconds, 4),
        "parallel_speedup": round(per_call_seconds / warm_pool_seconds, 2),
        "pool_reuse": batch.pool_reuse,
        "pool_ship_bytes": batch.pool_ship_bytes,
    }


def _bench_geometry_sweep():
    """Penalty x geometry grid: warm sub-artifact reuse vs recompute."""
    from repro.batch import analyze_batch, sweep_grid

    points = sweep_grid(("exp1",), SWEEP_PENALTIES, SWEEP_GEOMETRIES)

    started = perf_counter()
    recompute = analyze_batch(points, jobs=1)
    recompute_seconds = perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        analyze_batch(points, jobs=1, store=ArtifactStore(directory))
        warm_seconds = None
        warm = None
        for _ in range(WARM_REPEATS):
            store = ArtifactStore(directory)  # disk entries only
            started = perf_counter()
            warm = analyze_batch(points, jobs=1, store=store)
            seconds = perf_counter() - started
            warm_seconds = (
                seconds if warm_seconds is None else min(warm_seconds, seconds)
            )
        assert warm.store_hits > 0, "geometry sweep never touched the store"

    for cold_result, warm_result in zip(recompute, warm):
        assert cold_result.wcrt == warm_result.wcrt, (
            f"{cold_result.point.label()}: warm sweep diverged from recompute"
        )
        assert cold_result.events == warm_result.events
    return {
        "points": len(points),
        "recompute_seconds": round(recompute_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_sweep_speedup": round(recompute_seconds / warm_seconds, 2),
        "store_hits": warm.store_hits,
        "store_misses": warm.store_misses,
    }


def _bench_path_bomb():
    """8192-path task: exact B&B on tripped artifacts vs full enumeration."""
    config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
    b = ProgramBuilder("bomb")
    flags = b.array("flags", words=4)
    tables = [b.array(f"t{i}", words=16) for i in range(4)]
    b.load("f", flags, index=0)
    for branch in range(13):  # 2^13 = 8192 paths > default max_paths 4096
        with b.if_else("f") as arms:
            with arms.then_case():
                with b.loop(3) as i:
                    b.load("v", tables[branch % 4], index=i)
            with arms.else_case():
                with b.loop(3) as i:
                    b.load("v", tables[(branch + 1) % 4], index=i)
    inputs = {"flags": [1, 0, 1, 0]}
    for table in tables:
        inputs[table.name] = list(range(16))

    layout = SystemLayout().place(b.build())
    ledger = DegradationLedger()
    tripped = analyze_task(
        layout, {"s": inputs}, config,
        budget=AnalysisBudget(),  # default max_paths=4096 — trips
        ledger=ledger,
    )
    assert ledger.degraded and not tripped.path_enumeration_complete
    useful_ciip = CIIP.from_addresses(config, range(0, 2048, 16))
    useful = dense_from_ciip_counts(
        useful_ciip.set_counts, config.num_sets, config.ways
    )

    started = perf_counter()
    pruned = max_path_conflict_pruned(useful, tripped)
    exact_seconds = perf_counter() - started

    # Separate traced run (timings above stay tracing-free, see
    # docs/performance.md): the pruned engine must finish within its own
    # node budget on the bomb — budget_tripped=False is a regression pin.
    from repro.obs import observed

    with observed() as (_, metrics):
        max_path_conflict_pruned(useful, tripped)
    budget_tripped = metrics.to_dict()["gauges"]["pathcost.budget_tripped"]
    assert budget_tripped is False, "pruned engine tripped its node budget"

    full = analyze_task(  # raised budget: enumerate all 8192 paths
        layout, {"s": inputs}, config, budget=AnalysisBudget(max_paths=16384)
    )
    started = perf_counter()
    enumerated = max_path_conflict(useful_ciip, full).lines
    enumerate_seconds = perf_counter() - started

    assert pruned.cost == enumerated, "exact engine diverged from enumeration"
    return {
        "feasible_paths": len(full.path_profiles),
        "default_max_paths": AnalysisBudget().max_paths,
        "lines": pruned.cost,
        "explored_paths": pruned.explored_paths,
        "pruned_branches": pruned.pruned_branches,
        "exact_engine_seconds": round(exact_seconds, 4),
        "enumerate_seconds": round(enumerate_seconds, 4),
        "budget_tripped": budget_tripped,
    }


def _bench_whatif(experiment):
    """Warm single-edit latency of the incremental what-if engine.

    One session per experiment: analyse the base cold, run an edit grid
    once to populate the session store and the WCRT memo (the geometry
    states' sub-artifacts land in the store on this pass), then measure
    a second pass over the same grid — every edit is now answered by
    sub-artifact reuse plus warm-started fixpoints.  The p50 of that
    warm pass is the interactive-latency gate (< 50 ms, ROADMAP item 2).
    """
    from statistics import median

    from repro.analysis.whatif import WhatIfSession

    with WhatIfSession(experiment) as session:
        base = session.result()
        task = next(iter(base.periods))
        period = base.periods[task]
        edits = [
            "penalty=10",
            "penalty=40",
            f"period:{task}={period * 2}",
            f"period:{task}={period}",
            "geometry=64x2x32",
            "geometry=128x4x32",
            "penalty=20",
        ]
        for edit in edits:  # population pass: cold geometry states
            session.apply(edit)
        warm_seconds = [session.apply(edit).elapsed_seconds for edit in edits]
    p50 = median(warm_seconds)
    return {
        "base_cold_seconds": round(base.elapsed_seconds, 4),
        "edits": len(edits),
        "warm_p50_ms": round(p50 * 1e3, 3),
        "warm_max_ms": round(max(warm_seconds) * 1e3, 3),
        "edits_per_sec": round(1.0 / p50, 1),
    }


def _bench_optimize():
    """Evaluation throughput of the layout/coloring search (ROADMAP 3).

    A seeded ``optimize`` run on Experiment I at its own geometry: a
    generation batch plus greedy/annealing restarts, every candidate
    scored through a warm :class:`WhatIfSession` jump.  Each evaluation
    is a *new* layout (the moved tasks' sim/flow sub-artifacts recompute
    against their relocated traces), so the throughput sits between the
    cold-build and single-edit extremes the other sections measure; the
    gate is a conservative floor.
    """
    from repro.analysis.store import ArtifactStore
    from repro.analysis.whatif import WhatIfSession
    from repro.optimize import optimize

    store = ArtifactStore(directory=None, memory_slots=8192)
    with WhatIfSession("exp1", store=store) as probe:
        config = probe.placed.config
    started = perf_counter()
    outcome = optimize(
        "exp1",
        seed=1,
        budget_evals=16,
        generation=4,
        patience=8,
        restarts=2,
        cache_budgets=[config],
        store=store,
    )
    elapsed = perf_counter() - started
    budget = outcome.default_budget
    return {
        "evals": outcome.evals_used,
        "wall_seconds": round(elapsed, 4),
        "evals_per_sec": round(outcome.evals_used / elapsed, 2),
        "moves_logged": len(outcome.move_log),
        "baseline_score": budget.baseline_score,
        "best_score": budget.best_score,
        "improvement_pct": budget.improvement_pct(),
    }


def _bench_serve():
    """Load-test the multi-tenant serve layer on a warm point grid.

    16 concurrent clients × 4 requests against an
    :class:`~repro.serve.service.AnalysisService` (workers=4) sharing one
    pre-warmed store: p50/p99 submit-to-result latency, throughput, and
    two correctness counters the gates watch — non-byte-identical
    responses (must be 0, vs directly computed references) and sheds
    (must be 0 while the queue has capacity for the whole burst; a
    second pass with a capacity-2 queue and a wedged worker demonstrates
    shedding *does* engage once capacity is exceeded).
    """
    import random
    import threading
    from statistics import median

    from repro.batch.engine import SweepPoint, analyze_batch
    from repro.experiments.setup import ALL_SPECS
    from repro.serve.protocol import canonical_json, point_payload
    from repro.serve.service import AnalysisService

    bodies = [
        {"kind": "point", "experiment": "exp1", "miss_penalty": p}
        for p in (10, 20, 40)
    ] + [{"kind": "point", "experiment": "exp2", "miss_penalty": 20}]
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        expected = {}
        specs = {s.key: s for s in ALL_SPECS}
        for body in bodies:  # warm the store + compute references
            point = SweepPoint(
                experiment=body["experiment"],
                miss_penalty=body["miss_penalty"],
            )
            batch = analyze_batch([point], store=ArtifactStore(directory))
            expected[canonical_json(body)] = canonical_json(
                point_payload(
                    batch.results[0],
                    periods=specs[body["experiment"]].periods,
                )
            )

        total = SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT
        service = AnalysisService(
            workers=4,
            queue_capacity=total,
            store=ArtifactStore(directory),
        )
        latencies: list = []
        mismatches = [0]
        lock = threading.Lock()

        def client(index):
            rng = random.Random(1000 + index)
            for _ in range(SERVE_REQUESTS_PER_CLIENT):
                body = rng.choice(bodies)
                started = perf_counter()
                job = service.submit(body, client=f"bench-{index}")
                service.wait(job.id, timeout=300)
                elapsed = perf_counter() - started
                env = service.job_envelope(job)
                with lock:
                    latencies.append(elapsed)
                    if (
                        env["state"] != "done"
                        or canonical_json(env["result"])
                        != expected[canonical_json(body)]
                    ):
                        mismatches[0] += 1

        with service:
            started = perf_counter()
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_seconds = perf_counter() - started
            shed_under_capacity = service.stats()["shed"]

        # Shedding engages exactly when capacity is exceeded: one wedged
        # worker, a 2-slot queue, 4 concurrent submits -> 1 shed.
        started_event = threading.Event()
        gate = threading.Event()

        def wedge(job):
            started_event.set()
            gate.wait(timeout=60)

        overload = AnalysisService(
            workers=1,
            queue_capacity=2,
            store=ArtifactStore(directory),
            job_hook=wedge,
        )
        with overload:
            statuses = [overload.submit_envelope(bodies[0])[0]]
            started_event.wait(timeout=60)
            for _ in range(3):
                statuses.append(overload.submit_envelope(bodies[0])[0])
            gate.set()
            shed_over_capacity = overload.stats()["shed"]

    latencies.sort()
    p50_ms = median(latencies) * 1e3
    p99_ms = latencies[int(0.99 * (len(latencies) - 1))] * 1e3
    return {
        "clients": SERVE_CLIENTS,
        "requests": total,
        "workers": 4,
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "wall_seconds": round(wall_seconds, 4),
        "requests_per_sec": round(total / wall_seconds, 1),
        "mismatches": mismatches[0],
        "shed_under_capacity": shed_under_capacity,
        "overload_statuses": statuses,
        "shed_over_capacity": shed_over_capacity,
    }


def test_perf_engine():
    results = {
        "bench": "perf_engine",
        "gate": {
            "exp1_warm_speedup_min": WARM_SPEEDUP_GATE,
            "exp1_parallel_speedup_min": PARALLEL_SPEEDUP_GATE,
            "sweep_warm_speedup_min": SWEEP_WARM_SPEEDUP_GATE,
            "whatif_warm_p50_max_ms": WHATIF_P50_GATE_SECONDS * 1e3,
            "serve_p99_max_ms": SERVE_P99_GATE_MS,
            "optimize_evals_per_sec_min": OPTIMIZE_EVALS_PER_SEC_GATE,
        },
        "exp1": _bench_experiment(EXPERIMENT_I_SPEC),
        "exp2": _bench_experiment(EXPERIMENT_II_SPEC),
        "parallel_sweep": {
            "exp1": _bench_parallel_sweep(EXPERIMENT_I_SPEC),
            "exp2": _bench_parallel_sweep(EXPERIMENT_II_SPEC),
        },
        "geometry_sweep": _bench_geometry_sweep(),
        "path_bomb": _bench_path_bomb(),
        "whatif": {
            "exp1": _bench_whatif("exp1"),
            "exp2": _bench_whatif("exp2"),
        },
        "optimize": _bench_optimize(),
        "serve": _bench_serve(),
    }
    # The metrics the gates (and scripts/bench_gate_diff.py) watch.
    # ``whatif_edits_per_sec`` is the p50 edit latency inverted so the
    # diff script's higher-is-better convention applies; the slower
    # experiment is the one gated.
    results["gated"] = {
        "exp1_warm_speedup": results["exp1"]["warm_speedup"],
        "exp1_parallel_speedup": results["parallel_sweep"]["exp1"][
            "parallel_speedup"
        ],
        "sweep_warm_speedup": results["geometry_sweep"]["warm_sweep_speedup"],
        "whatif_edits_per_sec": min(
            results["whatif"][key]["edits_per_sec"] for key in ("exp1", "exp2")
        ),
        "serve_requests_per_sec": results["serve"]["requests_per_sec"],
        "optimize_evals_per_sec": results["optimize"]["evals_per_sec"],
    }
    (REPO_ROOT / "BENCH_perf.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    lines = ["perf engine bench", ""]
    for key in ("exp1", "exp2"):
        r = results[key]
        lines.append(
            f"{key}: cold {r['cold_seconds'] * 1000:.0f} ms, "
            f"warm {r['warm_seconds'] * 1000:.0f} ms "
            f"({r['warm_speedup']}x), "
            f"jobs=2 {r['parallel_jobs2_seconds'] * 1000:.0f} ms"
        )
    for key in ("exp1", "exp2"):
        r = results["parallel_sweep"][key]
        lines.append(
            f"{key} jobs=2 sweep ({r['points']} pts): per-call pools "
            f"{r['per_call_pool_jobs2_seconds'] * 1000:.0f} ms, warm pool "
            f"{r['warm_pool_jobs2_seconds'] * 1000:.0f} ms "
            f"({r['parallel_speedup']}x)"
        )
    sweep = results["geometry_sweep"]
    lines.append(
        f"geometry sweep ({sweep['points']} pts): recompute "
        f"{sweep['recompute_seconds'] * 1000:.0f} ms, warm store "
        f"{sweep['warm_seconds'] * 1000:.0f} ms "
        f"({sweep['warm_sweep_speedup']}x)"
    )
    for key in ("exp1", "exp2"):
        r = results["whatif"][key]
        lines.append(
            f"{key} what-if: base {r['base_cold_seconds'] * 1000:.0f} ms cold, "
            f"{r['edits']} warm edits p50 {r['warm_p50_ms']:.2f} ms / "
            f"max {r['warm_max_ms']:.2f} ms ({r['edits_per_sec']} edits/s)"
        )
    serve = results["serve"]
    lines.append(
        f"serve: {serve['clients']} clients x "
        f"{serve['requests'] // serve['clients']} warm requests, "
        f"p50 {serve['p50_ms']:.1f} ms / p99 {serve['p99_ms']:.1f} ms, "
        f"{serve['requests_per_sec']} req/s, "
        f"{serve['mismatches']} mismatches, "
        f"{serve['shed_under_capacity']} shed (overload pass: "
        f"{serve['shed_over_capacity']} shed)"
    )
    opt = results["optimize"]
    lines.append(
        f"optimize: {opt['evals']} layout evals in "
        f"{opt['wall_seconds'] * 1000:.0f} ms ({opt['evals_per_sec']} "
        f"evals/s), score {opt['baseline_score']} -> {opt['best_score']} "
        f"({opt['improvement_pct']:+.2f}%)"
    )
    bomb = results["path_bomb"]
    lines.append(
        f"path bomb: {bomb['feasible_paths']} paths "
        f"(budget {bomb['default_max_paths']}), exact engine "
        f"{bomb['exact_engine_seconds'] * 1000:.1f} ms over "
        f"{bomb['explored_paths']} explored / {bomb['pruned_branches']} pruned, "
        f"enumeration {bomb['enumerate_seconds'] * 1000:.1f} ms, "
        f"both -> {bomb['lines']} lines"
    )
    write_artifact("perf_engine.txt", "\n".join(lines))

    # The CI gates: warm analysis >= 2x on Exp I, the warm-pool jobs=2
    # sweep >= 1.3x over per-call pools, and the geometry sweep >= 3x
    # warm over recompute.
    assert results["exp1"]["warm_speedup"] >= WARM_SPEEDUP_GATE, (
        f"warm speedup {results['exp1']['warm_speedup']}x below the "
        f"{WARM_SPEEDUP_GATE}x gate (see BENCH_perf.json)"
    )
    exp1_parallel = results["parallel_sweep"]["exp1"]["parallel_speedup"]
    assert exp1_parallel >= PARALLEL_SPEEDUP_GATE, (
        f"jobs=2 sweep speedup {exp1_parallel}x below the "
        f"{PARALLEL_SPEEDUP_GATE}x gate (see BENCH_perf.json)"
    )
    assert sweep["warm_sweep_speedup"] >= SWEEP_WARM_SPEEDUP_GATE, (
        f"geometry-sweep warm speedup {sweep['warm_sweep_speedup']}x below "
        f"the {SWEEP_WARM_SPEEDUP_GATE}x gate (see BENCH_perf.json)"
    )
    for key in ("exp1", "exp2"):
        p50_ms = results["whatif"][key]["warm_p50_ms"]
        assert p50_ms < WHATIF_P50_GATE_SECONDS * 1e3, (
            f"{key} what-if warm p50 {p50_ms} ms breaches the "
            f"{WHATIF_P50_GATE_SECONDS * 1e3:.0f} ms interactive gate "
            f"(see BENCH_perf.json)"
        )
    assert opt["evals_per_sec"] >= OPTIMIZE_EVALS_PER_SEC_GATE, (
        f"optimize throughput {opt['evals_per_sec']} evals/s below the "
        f"{OPTIMIZE_EVALS_PER_SEC_GATE} evals/s gate (see BENCH_perf.json)"
    )
    assert opt["best_score"] <= opt["baseline_score"], (
        "optimizer returned a best layout worse than the baseline"
    )
    # Serve gates: p99 under the latency ceiling, every response
    # byte-identical, shedding only once queue capacity is exceeded.
    assert serve["p99_ms"] < SERVE_P99_GATE_MS, (
        f"serve p99 {serve['p99_ms']} ms breaches the "
        f"{SERVE_P99_GATE_MS:.0f} ms gate (see BENCH_perf.json)"
    )
    assert serve["mismatches"] == 0, (
        f"{serve['mismatches']} served responses diverged from the "
        "direct analyze_batch references"
    )
    assert serve["shed_under_capacity"] == 0, (
        "service shed requests while the queue had capacity"
    )
    assert serve["overload_statuses"] == [202, 202, 202, 429], (
        f"overload pass admitted/shed wrongly: {serve['overload_statuses']}"
    )
    assert serve["shed_over_capacity"] == 1
