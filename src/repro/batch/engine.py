"""Sweep-point batch engine on top of the warm pool and artifact store.

``repro sweep`` and the benches analyse grids of configurations — every
miss penalty × every geometry × both experiments.  Doing that with a
per-point ``build_context`` call pays worker start-up and context
shipping per point and recomputes everything the points share.  This
engine instead:

* **dedups** the requested points (an identical point is analysed once;
  duplicates receive the same result, including its replayed degradation
  events — exactly what a cold run would have produced),
* ships each experiment's layouts and scenarios to the pool **once**
  (the :class:`~repro.batch.pool.WarmPool` seeds them by content), and
* lets the store's sub-artifact decomposition (see
  :mod:`repro.analysis.store`) turn the grid into mostly cache hits: a
  penalty sweep re-costs cached counts arithmetically, a geometry sweep
  replays cached traces instead of re-simulating, and CRPD pair counts
  are reused wherever both tasks' flow/paths keys match.

Results come back in request order regardless of worker scheduling, so a
batch is a drop-in replacement for the equivalent per-point loop — the
equivalence suite (``tests/test_batch_equivalence.py``) pins that down
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cache.config import CacheConfig
from repro.obs import STATE as _OBS

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
    from repro.batch.pool import WarmPool
    from repro.guard.budget import AnalysisBudget

__all__ = [
    "BatchResult",
    "PointResult",
    "SweepPoint",
    "analyze_batch",
    "sweep_grid",
]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration to analyse: an experiment at one cache config.

    ``cache`` overrides the default scaled 8KB geometry entirely (its
    miss penalty then wins over *miss_penalty*), mirroring
    :func:`~repro.experiments.setup.build_context`.
    """

    experiment: str
    miss_penalty: int = 20
    cache: CacheConfig | None = None

    def config(self) -> CacheConfig:
        if self.cache is not None:
            return self.cache
        return CacheConfig.scaled_8k(self.miss_penalty)

    def label(self) -> str:
        config = self.config()
        return (
            f"{self.experiment}"
            f"/s{config.num_sets}w{config.ways}l{config.line_size}"
            f"p{config.miss_penalty}"
        )


@dataclass
class PointResult:
    """Everything one sweep point produces, compact enough to ship.

    ``payload`` is the point's canonical result record
    (:meth:`~repro.analysis.pipeline.PipelineResult.payload`), plain
    JSON data built in the worker.  Its ``events`` are replayed from the
    store on warm runs, so warm and cold batches report identically.
    """

    point: SweepPoint
    payload: dict
    analysis_seconds: float
    #: Store lookups this point answered warm/cold (0/0 without a store).
    store_hits: int = 0
    store_misses: int = 0

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``repro sweep`` output row)."""
        payload = self.payload
        config = payload["config"]
        return {
            "experiment": self.point.experiment,
            "label": self.point.label(),
            "miss_penalty": config["miss_penalty"],
            "geometry": {
                key: config[key] for key in ("num_sets", "ways", "line_size")
            },
            "wcet": payload["wcet"],
            "lines": {
                pair: {f"approach{a}": count for a, count in counts.items()}
                for pair, counts in payload["lines"].items()
            },
            "wcrt": {f"approach{a}": per for a, per in payload["wcrt"].items()},
            "schedulable": {
                f"approach{a}": verdict
                for a, verdict in payload["schedulable"].items()
            },
            "soundness": payload["soundness"],
            "degradations": len(payload["events"]),
            "analysis_seconds": self.analysis_seconds,
            # Per-point store traffic: a regressing point is attributable
            # (cold recompute vs cache-answered) straight from the sweep
            # JSON, no trace file needed.
            "store": {"hits": self.store_hits, "misses": self.store_misses},
        }


@dataclass
class BatchResult:
    """Results of one batch, aligned with the requested point order."""

    results: list[PointResult]
    unique_points: int
    deduplicated: int
    elapsed_seconds: float
    pool_tasks: int = 0
    pool_reuse: int = 0
    pool_ship_bytes: int = 0
    pool_fallbacks: int = 0
    store_hits: int = 0
    store_misses: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def summary(self) -> dict:
        return {
            "points": len(self.results),
            "unique_points": self.unique_points,
            "deduplicated": self.deduplicated,
            "elapsed_seconds": self.elapsed_seconds,
            "pool": {
                "tasks": self.pool_tasks,
                "reuse": self.pool_reuse,
                "ship_bytes": self.pool_ship_bytes,
                "fallbacks": self.pool_fallbacks,
            },
            "store": {"hits": self.store_hits, "misses": self.store_misses},
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "points": [result.to_dict() for result in self.results],
        }


def sweep_grid(
    experiments: Iterable[str] = ("exp1",),
    penalties: Iterable[int] = (10, 20, 30, 40),
    geometries: Iterable[tuple[int, int, int]] | None = None,
) -> list[SweepPoint]:
    """The cross product of experiments × penalties × geometries.

    *geometries* are ``(num_sets, ways, line_size)`` triples; ``None``
    keeps the default scaled 8KB geometry (a pure penalty sweep).
    """
    points = []
    for experiment in experiments:
        for penalty in penalties:
            if geometries is None:
                points.append(
                    SweepPoint(experiment=experiment, miss_penalty=penalty)
                )
                continue
            for num_sets, ways, line_size in geometries:
                points.append(
                    SweepPoint(
                        experiment=experiment,
                        miss_penalty=penalty,
                        cache=CacheConfig(
                            num_sets=num_sets,
                            ways=ways,
                            line_size=line_size,
                            miss_penalty=penalty,
                        ),
                    )
                )
    return points


def analyze_batch(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    store: "ArtifactStore | None" = None,
    budget: "AnalysisBudget | None" = None,
    pool: "WarmPool | None" = None,
) -> BatchResult:
    """Analyse every sweep point; results in request order.

    Identical points are analysed once and share one
    :class:`PointResult` (dedup happens before any work is scheduled).
    ``jobs > 1`` fans unique points out across a
    :class:`~repro.batch.pool.WarmPool` — one shipped context per
    experiment, workers' derived state and store handles warm across
    points; pass *pool* to reuse a caller-managed pool.  A serial pool
    runs every point in-process on *store* itself.  With a *store*,
    repeat batches are assembled almost entirely from cached
    sub-artifacts.  A broken pool degrades to an identical serial
    computation; analysis errors propagate unchanged.
    """
    from repro.analysis.pipeline import resolve_base, resolve_system
    from repro.batch.pool import WarmPool, adopt_observed

    # Resolving every key up front rejects unknown experiments before any
    # work is scheduled.
    specs = {point.experiment: resolve_base(point.experiment) for point in points}
    started = perf_counter()
    unique: dict[SweepPoint, int] = {}
    for point in points:
        unique.setdefault(point, len(unique))
    order = list(unique)

    own_pool: "WarmPool | None" = None
    if pool is None:
        own_pool = pool = WarmPool(jobs)
    try:
        with _OBS.tracer.span(
            "batch.analyze",
            points=len(points),
            unique=len(order),
            jobs=pool.jobs,
        ) as span:
            tasks_before = pool.tasks
            reuse_before = pool.reuse
            ship_before = pool.ship_bytes
            fallbacks_before = pool.fallbacks
            unique_results: list[PointResult] = []
            by_spec: dict[str, list[SweepPoint]] = {}
            for point in order:
                by_spec.setdefault(point.experiment, []).append(point)
            results_by_point: dict[SweepPoint, PointResult] = {}
            # A serial pool runs points here, on the caller's own store.
            store_slot = store if pool.serial else (
                store.directory if store is not None and store.enabled else None
            )
            # One context per experiment; every point of that experiment
            # is an item against it.  Specs iterate in the deterministic
            # order their points first appeared.
            for key, spec_points in by_spec.items():
                context = (
                    "batch.point",
                    resolve_system(specs[key]),
                    store_slot,
                    budget,
                    _OBS.enabled,
                )
                token = pool.seed(context)
                for result, records, snapshot in pool.map(
                    _point_task, spec_points, context=token
                ):
                    results_by_point[result.point] = result
                    unique_results.append(result)
                    adopt_observed(records, snapshot, span.span_id)
            results = [results_by_point[point] for point in points]
            deduplicated = len(points) - len(order)
            if _OBS.enabled and deduplicated:
                _OBS.metrics.counter("batch.points_deduplicated").inc(
                    deduplicated
                )
            span.set(deduplicated=deduplicated)
            return BatchResult(
                results=results,
                unique_points=len(order),
                deduplicated=deduplicated,
                elapsed_seconds=perf_counter() - started,
                pool_tasks=pool.tasks - tasks_before,
                pool_reuse=pool.reuse - reuse_before,
                pool_ship_bytes=pool.ship_bytes - ship_before,
                pool_fallbacks=pool.fallbacks - fallbacks_before,
                # Per-point deltas, measured around whichever store handle
                # actually answered (workers use their own warm handle).
                store_hits=sum(r.store_hits for r in unique_results),
                store_misses=sum(r.store_misses for r in unique_results),
            )
    finally:
        if own_pool is not None:
            own_pool.close()


def _point_task(context: tuple, point: SweepPoint):
    """Analyse one sweep point end to end (worker or serial fallback)."""
    from repro.batch.pool import run_observed

    return run_observed(lambda: _analyze_point(context, point), context[-1])


def _analyze_point(context: tuple, point: SweepPoint) -> PointResult:
    from dataclasses import replace

    from repro.analysis.pipeline import run_pipeline
    from repro.analysis.store import ArtifactStore
    from repro.batch.pool import worker_store

    _, placed, store, budget, _ = context
    placed = replace(placed, config=point.config())
    if store is not None and not isinstance(store, ArtifactStore):
        # A shipped store directory: one warm handle per context here.
        store = worker_store(context, store)
    started = perf_counter()
    hits_before = store.hits if store is not None else 0
    misses_before = store.misses if store is not None else 0
    with _OBS.tracer.span(
        "batch.point", experiment=point.experiment, label=point.label()
    ) as span:
        pipeline = run_pipeline(placed, budget=budget, store=store)
        result = PointResult(
            point=point,
            payload=pipeline.payload(),
            analysis_seconds=perf_counter() - started,
            store_hits=(store.hits - hits_before) if store is not None else 0,
            store_misses=(
                store.misses - misses_before
            ) if store is not None else 0,
        )
        span.set(soundness=result.payload["soundness"])
    return result
