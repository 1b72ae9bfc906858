"""The serve core: bounded job queue, worker threads, scoped obs, drain.

Transport-free on purpose: :class:`AnalysisService` speaks dicts and
envelopes, so the whole multi-tenant behaviour — admission, queueing,
shedding, request-scoped observability, draining — is testable without
a socket, and the HTTP shell (:mod:`repro.serve.daemon`) stays a thin
adapter.

Concurrency model
-----------------
Handler threads call :meth:`AnalysisService.submit`; a bounded
``queue.Queue`` hands jobs to a fixed set of worker threads.  Every
worker runs its job *serially in-thread* through the shared
:class:`~repro.batch.pool.WarmPool` (held at ``jobs=1``), so
parallelism across clients comes from the worker threads while each
job's analysis stays deterministic.  All workers share one
:class:`~repro.analysis.store.ArtifactStore` (thread-safe), the one
handle every job reads, so a result any client computed warms every
later client's request; the serial pool ships and keeps nothing.

Observability isolation
-----------------------
``start()`` swaps the process-wide obs STATE for
:class:`~repro.obs.scope.ScopedTracer` / ``ScopedMetrics`` facades
whose fallback is whatever was installed before (the CLI's
``--trace-out`` tracer, typically).  Around each job the worker pushes
a fresh request-scoped Tracer/Metrics pair, so the job's spans and
store counters are exactly its own; afterwards the request trace is
adopted under a server-level ``serve.request`` span and the metrics
merge into the server registry.  The per-request snapshot is also where
the envelope's per-stage store hit/miss counts come from — per-request
attribution of traffic against a shared store.

Shedding and draining
---------------------
A full queue sheds at submit time (:class:`~repro.errors.ShedError`,
429) after refunding the client's quota token.  ``shutdown(drain=True)``
— the SIGTERM path — stops admissions (new submits shed), lets workers
finish everything already queued, then joins them; results of drained
jobs remain fetchable while retained.

Retention
---------
Finished jobs stay fetchable while among the newest :data:`JOB_RETENTION`
and younger than :data:`JOB_TTL_S`; queued and running jobs are never
evicted.  An evicted id answers 410 ``expired``, not 404 ``unknown``.
"""

from __future__ import annotations

import queue
import threading
from time import perf_counter
from typing import Callable, Optional

from repro.errors import ReproError, ShedError, error_kind
from repro.serve.protocol import (
    AnalyzeRequest,
    envelope,
    http_status,
    parse_request,
    point_payload,
    store_counts_from,
    whatif_payload,
)
from repro.serve.quota import QuotaConfig, TokenBuckets

__all__ = ["AnalysisService", "JobRecord", "JOB_RETENTION", "JOB_TTL_S"]

#: Finished jobs kept fetchable (newest by finish time), and for how long.
JOB_RETENTION = 1024
JOB_TTL_S = 3600.0

_SENTINEL = object()


class JobRecord:
    """One submitted job's full lifecycle, owned by the service."""

    __slots__ = (
        "id",
        "client",
        "request",
        "state",
        "error_kind",
        "error",
        "result",
        "store",
        "submitted_at",
        "started_at",
        "finished_at",
        "done",
    )

    def __init__(self, job_id: str, client: str, request: AnalyzeRequest):
        self.id = job_id
        self.client = client
        self.request = request
        self.state = "queued"
        self.error_kind: Optional[str] = None
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.store: Optional[dict] = None
        self.submitted_at = perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = threading.Event()


class AnalysisService:
    """Bounded-queue analysis service over one warm pool and store."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_capacity: int = 16,
        quota: Optional[QuotaConfig] = None,
        quota_clock=None,
        store=None,
        budget=None,
        job_hook: Optional[Callable] = None,
    ):
        """``store`` is the shared :class:`ArtifactStore` (``None`` runs
        uncached); ``budget`` is the default
        :class:`~repro.guard.budget.AnalysisBudget` for requests that do
        not carry their own.  ``job_hook(job)`` runs in the worker
        thread right before a job executes — the lifecycle tests use it
        to wedge workers deterministically."""
        from repro.batch.pool import WarmPool

        self.workers = max(1, int(workers))
        self.queue_capacity = max(1, int(queue_capacity))
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_capacity)
        self._quota = TokenBuckets(
            quota if quota is not None else QuotaConfig(capacity=0),
            **({"clock": quota_clock} if quota_clock is not None else {}),
        )
        self._store = store
        self._budget = budget
        self._job_hook = job_hook
        self._pool = WarmPool(jobs=1)
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        #: Finished job ids in finish order -> finish time (lock held).
        self._finished: dict[str, float] = {}
        self._issued = 0
        self._threads: list[threading.Thread] = []
        self._accepting = False
        self._started = False
        self.shed = 0
        self._saved_obs = None
        self.server_tracer = None
        self.server_metrics = None
        self._scoped_tracer = None
        self._scoped_metrics = None

    @property
    def quota(self) -> TokenBuckets:
        return self._quota

    @property
    def store(self):
        return self._store

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AnalysisService":
        """Install scoped observability and spawn the worker threads."""
        from repro.obs import (
            STATE,
            Metrics,
            ScopedMetrics,
            ScopedTracer,
            Tracer,
            install,
        )

        if self._started:
            return self
        self._saved_obs = (STATE.enabled, STATE.tracer, STATE.metrics)
        fallback_tracer = (
            STATE.tracer
            if STATE.enabled and isinstance(STATE.tracer, Tracer)
            else Tracer()
        )
        fallback_metrics = (
            STATE.metrics
            if STATE.enabled and isinstance(STATE.metrics, Metrics)
            else Metrics()
        )
        self.server_tracer = fallback_tracer
        self.server_metrics = fallback_metrics
        self._scoped_tracer = ScopedTracer(fallback_tracer)
        self._scoped_metrics = ScopedMetrics(fallback_metrics)
        install(self._scoped_tracer, self._scoped_metrics)
        self._accepting = True
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admissions, finish (or discard) queued work, restore obs.

        ``drain=True`` (the SIGTERM path) lets workers complete every
        job already queued; ``drain=False`` marks still-queued jobs as
        shed errors and stops after in-flight jobs finish.
        """
        from repro.obs import STATE

        if not self._started:
            return
        self._accepting = False
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is _SENTINEL:
                    continue
                with self._lock:
                    job.state = "error"
                    job.error_kind = "shed"
                    job.error = "service shut down before this job ran"
                    job.finished_at = perf_counter()
                    self._retire(job)
                job.done.set()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._saved_obs is not None:
            STATE.enabled, STATE.tracer, STATE.metrics = self._saved_obs
            self._saved_obs = None
        self._started = False

    def __enter__(self) -> "AnalysisService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- submission ----------------------------------------------------
    def submit(self, payload, client: str = "anon") -> JobRecord:
        """Validate, admit and enqueue; raises typed errors on refusal.

        Raises :class:`~repro.errors.ConfigError` (malformed request),
        :class:`~repro.errors.QuotaExceeded` (client bucket dry) or
        :class:`~repro.errors.ShedError` (queue full / shutting down).
        """
        request = parse_request(payload)
        if not self._accepting:
            raise ShedError("service is shutting down", capacity=0)
        self._quota.take(client)
        with self._lock:
            self._issued += 1
            job_id = f"j{self._issued:06d}"
            job = JobRecord(job_id, client, request)
            self._jobs[job_id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job_id]
                self.shed += 1
            self._quota.refund(client)
            if self.server_metrics is not None:
                self.server_metrics.counter("serve.shed").inc()
            raise ShedError(
                f"job queue is full ({self.queue_capacity} queued); "
                "retry after a job completes",
                capacity=self.queue_capacity,
            ) from None
        return job

    def submit_envelope(self, payload, client: str = "anon") -> tuple[int, dict]:
        """:meth:`submit` with typed errors folded into an envelope."""
        try:
            job = self.submit(payload, client=client)
        except ReproError as error:
            kind = error_kind(error)
            return (
                http_status("error", kind),
                envelope(
                    job=None,
                    client=client,
                    kind=payload.get("kind", "point")
                    if isinstance(payload, dict)
                    else "point",
                    state="error",
                    error_kind=kind,
                    error=str(error),
                ),
            )
        return 202, self.job_envelope(job)

    # -- status --------------------------------------------------------
    def get_job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes (or *timeout*); False if unknown."""
        job = self.get_job(job_id)
        if job is None:
            return False
        return job.done.wait(timeout)

    def job_envelope(self, job: JobRecord) -> dict:
        with self._lock:
            queued_ms = (
                ((job.started_at or perf_counter()) - job.submitted_at) * 1e3
            )
            run_ms = (
                (job.finished_at - job.started_at) * 1e3
                if job.started_at is not None and job.finished_at is not None
                else 0.0
            )
            return envelope(
                job=job.id,
                client=job.client,
                kind=job.request.kind,
                state=job.state,
                error_kind=job.error_kind,
                error=job.error,
                result=job.result,
                store=job.store,
                timing={
                    "queued_ms": round(queued_ms, 3),
                    "run_ms": round(run_ms, 3),
                },
            )

    def _retire(self, job: JobRecord) -> None:
        """Record *job* as finished and evict past retention (lock held)."""
        self._finished[job.id] = job.finished_at
        horizon = job.finished_at - JOB_TTL_S
        while self._finished:
            oldest, finished_at = next(iter(self._finished.items()))
            if len(self._finished) <= JOB_RETENTION and finished_at >= horizon:
                break
            del self._finished[oldest]
            del self._jobs[oldest]

    def _missing(self, job_id: str) -> tuple[int, dict]:
        """410 for an issued id no longer retained, else 404."""
        number = job_id[1:]
        if job_id[:1] == "j" and number.isdigit() and 0 < int(number) <= self._issued:
            status, kind, error = 410, "expired", (
                f"job {job_id!r} expired: finished jobs are kept for "
                f"{JOB_TTL_S:g} s, the newest {JOB_RETENTION} only"
            )
        else:
            status, kind, error = 404, "config", f"unknown job {job_id!r}"
        return status, envelope(
            job=job_id, client="", kind="", state="error", error_kind=kind,
            error=error,
        )

    def status_envelope(self, job_id: str) -> tuple[int, dict]:
        """``GET /v1/jobs/<id>``: (HTTP status, envelope)."""
        job = self.get_job(job_id)
        if job is None:
            return self._missing(job_id)
        return http_status(job.state, job.error_kind), self.job_envelope(job)

    def compare(self, left_id: str, right_id: str) -> tuple[int, dict]:
        """``POST /v1/compare``: diff two *completed* jobs' results."""
        from repro.serve.protocol import compare_payloads

        results = []
        for job_id in (left_id, right_id):
            job = self.get_job(job_id)
            if job is None:
                return self._missing(job_id)
            if job.state != "done":
                return 409, self.job_envelope(job)
            results.append(job.result)
        return 200, compare_payloads(*results)

    def stats(self) -> dict:
        """Server-level counters (``GET /v1/stats``)."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "accepting": self._accepting,
                "workers": self.workers,
                "queue_capacity": self.queue_capacity,
                "queue_depth": self._queue.qsize(),
                "jobs": by_state,
                "shed": self.shed,
                "quota": {
                    "granted": self._quota.granted,
                    "refused": self._quota.refused,
                },
                "pool": {
                    "tasks": self._pool.tasks,
                    "reuse": self._pool.reuse,
                    "ship_bytes": self._pool.ship_bytes,
                },
                "store": (
                    {
                        "gets": self._store.gets,
                        "hits": self._store.hits,
                        "misses": self._store.misses,
                    }
                    if self._store is not None
                    else None
                ),
            }

    # -- workers -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            self._run_job(job)

    def _run_job(self, job: JobRecord) -> None:
        from repro.obs import Metrics, Tracer

        with self._lock:
            job.state = "running"
            job.started_at = perf_counter()
        request_tracer = Tracer()
        request_metrics = Metrics()
        self._scoped_tracer.push(request_tracer)
        self._scoped_metrics.push(request_metrics)
        try:
            with request_tracer.span(
                "serve.job",
                job=job.id,
                client=job.client,
                kind=job.request.kind,
                label=job.request.label,
            ):
                if self._job_hook is not None:
                    self._job_hook(job)
                result = self._execute(job.request)
            with self._lock:
                job.result = result
                job.state = "done"
        except ReproError as error:
            with self._lock:
                job.state = "error"
                job.error_kind = error_kind(error)
                job.error = str(error)
        except Exception as error:  # internal: taxonomy root "error"
            with self._lock:
                job.state = "error"
                job.error_kind = "error"
                job.error = f"{type(error).__name__}: {error}"
        finally:
            self._scoped_metrics.pop()
            self._scoped_tracer.pop()
            snapshot = request_metrics.to_dict()
            with self._lock:
                job.store = store_counts_from(snapshot)
                job.finished_at = perf_counter()
                self._retire(job)
            # Merge the request view into the server view: the request
            # trace re-parents under one server-level span per job, and
            # counters accumulate, so daemon-level exports stay whole.
            with self.server_tracer.span(
                "serve.request",
                job=job.id,
                client=job.client,
                state=job.state,
            ) as span:
                self.server_tracer.adopt(
                    request_tracer.records, parent_id=span.span_id
                )
            self.server_metrics.merge(snapshot)
            self.server_metrics.counter(f"serve.jobs.{job.state}").inc()
            job.done.set()

    def _execute(self, request: AnalyzeRequest) -> dict:
        budget = request.budget if request.budget is not None else self._budget
        if request.kind == "point":
            from repro.batch.engine import SweepPoint, analyze_batch

            point = SweepPoint(
                experiment=request.experiment,
                miss_penalty=request.miss_penalty,
                cache=request.cache,
            )
            batch = analyze_batch(
                [point], store=self._store, budget=budget, pool=self._pool
            )
            return point_payload(batch.results[0])
        from repro.analysis.whatif import WhatIfSession
        from repro.fuzz.spec import SystemSpec

        session = WhatIfSession(
            SystemSpec.from_json(request.spec), budget=budget, store=self._store
        )
        return whatif_payload(session.result(), label=request.label)
