"""Equivalence of the warm-pool batch engine with the one-at-a-time loop.

``analyze_batch`` promises to be a drop-in replacement for analysing
each sweep point by hand: dedup, the warm worker pool, shipped contexts
and the sub-artifact store must all be *observationally invisible*.
These tests draw 100+ randomized sweep points through the fuzz
generator's :class:`~repro.fuzz.generator.Draw` protocol (the same
primitives the campaign runner uses, so the point space is seeded and
platform-stable) and assert the batch results are byte-identical —
response times, reload-line estimates, soundness verdicts *and* the
degradation-ledger event streams — against a hand-written per-point
reference loop, across jobs∈{1,2} and cold vs warm stores.

The trace-adoption contract rides along: with observability enabled, a
``jobs=2`` batch adopts worker spans in request order, so two identical
batches produce identical span trees.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import analyze_task
from repro.analysis.crpd import ALL_APPROACHES, CRPDAnalyzer
from repro.analysis.store import ArtifactStore
from repro.batch import SweepPoint, analyze_batch, sweep_grid
from repro.cache import CacheConfig
from repro.fuzz.generator import RandomDraw, rng_for
from repro.guard.ledger import DegradationLedger
from repro.obs import observed
from repro.program import SystemLayout
from repro.wcrt.response_time import compute_system_wcrt
from repro.wcrt.task import TaskSpec, TaskSystem

DRAWS = 120

#: Small pools so the 120 draws collapse onto a manageable unique set —
#: exactly the duplicate-heavy shape real sweeps have.
PENALTIES = (10, 20, 40)
GEOMETRIES = ((64, 4, 32), (32, 4, 16))


def draw_point(d) -> SweepPoint:
    """One randomized sweep point through the fuzz Draw primitives."""
    experiment = d.choice(("exp1", "exp2"))
    penalty = d.choice(PENALTIES)
    if d.boolean():
        return SweepPoint(experiment=experiment, miss_penalty=penalty)
    num_sets, ways, line_size = d.choice(GEOMETRIES)
    return SweepPoint(
        experiment=experiment,
        miss_penalty=penalty,
        cache=CacheConfig(
            num_sets=num_sets,
            ways=ways,
            line_size=line_size,
            miss_penalty=penalty,
        ),
    )


@pytest.fixture(scope="module")
def sweep_points() -> list[SweepPoint]:
    draw = RandomDraw(rng_for(20040216, 0))
    return [draw_point(draw) for _ in range(DRAWS)]


def reference_point(point: SweepPoint, store=None) -> str:
    """The naive per-point loop ``analyze_batch`` must be equal to:
    place the experiment, analyse every task, estimate every pair,
    run the four WCRT fixpoints — no pool, no batch dedup — written out
    as the payload it must produce, in its key order (see
    :func:`ordered_json`)."""
    from repro.experiments.setup import ALL_SPECS

    spec = {s.key: s for s in ALL_SPECS}[point.experiment]
    workloads = {name: build() for name, build in spec.builders.items()}
    layout = SystemLayout(stride=spec.stride)
    for name in spec.placement_order:
        layout.place(workloads[name].program)
    config = point.config()
    ledger = DegradationLedger()
    artifacts = {
        name: analyze_task(
            layout.layout_of(name),
            workloads[name].scenario_map(),
            config,
            ledger=ledger,
            store=store,
        )
        for name in spec.priority_order
    }
    analyzer = CRPDAnalyzer(
        artifacts, mumbs_mode="paper", ledger=ledger, store=store
    )
    estimates = analyzer.estimate_all_pairs(list(spec.priority_order))
    priorities = spec.priorities()
    system = TaskSystem(
        tasks=[
            TaskSpec(
                name=name,
                wcet=artifacts[name].wcet.cycles,
                period=spec.periods[name],
                priority=priorities[name],
            )
            for name in spec.priority_order
        ]
    )
    wcrt = {
        str(approach.value): compute_system_wcrt(
            system,
            cpre=lambda low, high, _a=approach: analyzer.cpre(low, high, _a),
            context_switch=spec.context_switch_cycles,
            stop_at_deadline=False,
            ledger=ledger,
        ).results
        for approach in ALL_APPROACHES
    }
    order = spec.priority_order
    return ordered_json(
        {
            "config": {
                "num_sets": config.num_sets,
                "ways": config.ways,
                "line_size": config.line_size,
                "miss_penalty": config.miss_penalty,
                "policy": config.policy,
                "write_back": config.write_back,
            },
            "periods": {name: spec.periods[name] for name in order},
            "jitters": {name: 0 for name in order},
            "wcet": {name: artifacts[name].wcet.cycles for name in order},
            "lines": {
                f"{e.preempted}<-{e.preempting}": {
                    str(a.value): e.lines[a] for a in ALL_APPROACHES
                }
                for e in estimates
            },
            "wcrt": {
                a: {name: results[name].wcrt for name in order}
                for a, results in wcrt.items()
            },
            "status": {
                a: {name: results[name].status for name in order}
                for a, results in wcrt.items()
            },
            "schedulable": {
                a: all(r.schedulable for r in results.values())
                for a, results in wcrt.items()
            },
            "soundness": ledger.soundness,
            "events": [
                [e.stage, e.budget, e.reason, e.fallback] for e in ledger.events
            ],
        }
    )


def ordered_json(payload: dict) -> str:
    """*payload* as JSON in its own key order.  Unlike ``canonical_json``
    this keeps the order of pairs in ``lines`` and of tasks in ``wcrt``/
    ``status`` checked: ``repro sweep --json`` writes them unsorted."""
    return json.dumps(payload)


def point_fingerprint(result) -> str:
    """Everything a :class:`PointResult` asserts about the system: its
    payload in key order — timing and store telemetry live outside it,
    they legitimately vary."""
    return ordered_json(result.payload)


class TestBatchEquivalence:
    def test_batch_matches_reference_cold_warm_serial_parallel(
        self, sweep_points, tmp_path
    ):
        unique = list(dict.fromkeys(sweep_points))
        assert len(unique) >= 12  # the draw pool really gets exercised
        reference = {
            point: reference_point(point) for point in unique
        }

        store_a = ArtifactStore(directory=tmp_path / "a")
        store_b = ArtifactStore(directory=tmp_path / "b")
        batches = {
            "serial-cold": analyze_batch(sweep_points, jobs=1, store=store_a),
            "jobs2-cold": analyze_batch(sweep_points, jobs=2, store=store_b),
            "serial-warm": analyze_batch(sweep_points, jobs=1, store=store_a),
        }
        for mode, batch in batches.items():
            assert len(batch) == len(sweep_points)
            assert batch.unique_points == len(unique)
            assert batch.deduplicated == len(sweep_points) - len(unique)
            for point, result in zip(sweep_points, batch):
                assert result.point == point
                assert point_fingerprint(result) == reference[point], (
                    f"{mode}: {point.label()} diverged from the "
                    f"one-at-a-time loop"
                )
        # The warm batch really was answered from the store.
        assert batches["serial-warm"].store_hits > 0
        assert (
            batches["serial-warm"].elapsed_seconds
            < batches["serial-cold"].elapsed_seconds
        )

    def test_duplicates_share_the_unique_result(self, sweep_points):
        points = [sweep_points[0], sweep_points[1], sweep_points[0]]
        batch = analyze_batch(points, jobs=1)
        assert batch.deduplicated == 1
        assert batch.results[0] is batch.results[2]
        assert point_fingerprint(batch.results[0]) == point_fingerprint(
            batch.results[2]
        )

    def test_grid_sweep_matches_reference_with_shared_store(self, tmp_path):
        """A geometry grid through one shared store equals per-point
        recomputation — the cross-scenario reuse never changes results."""
        points = sweep_grid(
            experiments=("exp1",),
            penalties=(10, 30),
            geometries=((64, 4, 32), (128, 2, 32)),
        )
        store = ArtifactStore(directory=tmp_path)
        batch = analyze_batch(points, jobs=2, store=store)
        for point, result in zip(points, batch):
            assert point_fingerprint(result) == reference_point(point)


class TestBatchTraceDeterminism:
    def test_jobs2_adoption_order_is_request_order(self, sweep_points):
        points = sweep_points[:6]
        unique_labels = [p.label() for p in dict.fromkeys(points)]

        def run():
            with observed() as (tracer, metrics):
                analyze_batch(points, jobs=2)
            point_spans = [
                r
                for r in tracer.records
                if r.get("type") == "span" and r["name"] == "batch.point"
            ]
            shape = [
                (r["name"], r["parent"], r["id"], r["attrs"].get("label"))
                for r in tracer.records
            ]
            counters = {
                # Pool health telemetry (batch.pool.reuse et al.)
                # depends on which warm worker picked up which point —
                # scheduling, not analysis — so it is exempt from the
                # determinism contract.
                name: value
                for name, value in metrics.to_dict()["counters"].items()
                if not name.startswith("batch.pool.")
            }
            return point_spans, shape, counters

        spans1, shape1, counters1 = run()
        spans2, shape2, counters2 = run()
        # Worker spans are adopted in request order, not completion order.
        assert [s["attrs"]["label"] for s in spans1] == unique_labels
        assert shape1 == shape2
        assert counters1 == counters2
        # Every adopted point span hangs off the batch span.
        batch_span = next(s for s in shape1 if s[0] == "batch.analyze")
        assert {s["parent"] for s in spans1} == {batch_span[2]}
