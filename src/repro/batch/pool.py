"""Warm persistent worker pool with once-per-context seeding.

Every parallel entry point used to create a fresh ``ProcessPoolExecutor``
per call — ``build_context(jobs=2)`` forked workers, analysed three tasks
and tore the pool down again; the next penalty point paid worker start-up,
context pickling and cold per-context state all over.  :class:`WarmPool` keeps
one set of workers alive for the lifetime of a batch and ships shared
*context* (task artifacts, layouts, oracle configuration) exactly once:

* :meth:`WarmPool.seed` pickles the context a single time, content-hashes
  it and spools it to a temp file; seeding the same value twice is free
  (dedup by digest).  The bytes written are counted by the
  ``batch.pool.ship_bytes`` metric.
* Workers load a spooled context on first use and keep it in a bounded
  per-process cache, so every later task against the same token is served
  warm — no unpickling, and the worker's per-context derived state (see
  :func:`derived`) and its store handles stay hot.  Warm serves are
  counted by ``batch.pool.reuse``, cold loads by
  ``batch.pool.context_loads``.
* :meth:`WarmPool.map` preserves item order, so merges downstream are
  deterministic regardless of which worker finishes first.

Failure handling follows the error taxonomy: analysis errors raised by a
task function (:class:`~repro.errors.ReproError`,
:class:`~repro.errors.BudgetExceeded`, ...) propagate to the caller
unchanged, while *pool infrastructure* failures — a killed worker
(``BrokenProcessPool``), an unpicklable payload, an ``OSError`` forking —
degrade the pool to in-process serial execution (counted by
``batch.pool.fallbacks``), which runs the identical task function against
the identical context object and therefore produces identical results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.obs import STATE as _OBS

__all__ = ["WarmPool", "derived", "in_worker"]

#: Exceptions that mean "the pool broke", not "the analysis failed".
#: Only these trigger the serial fallback; everything else propagates.
#: AttributeError and TypeError are included because that is what the
#: fork pickler actually raises for unpicklable payloads ("Can't pickle
#: local object ...", "cannot pickle '_thread.lock' object"); a task
#: function that genuinely raises one of these re-raises it unchanged
#: from the serial rerun, so no analysis bug is masked.
_POOL_FAILURES = (
    BrokenProcessPool,
    OSError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)

#: Distinct contexts a single worker keeps unpickled at once.  Sweeps
#: seed one context per experiment spec, so a handful suffices; the bound
#: only matters for pathological churn.
_WORKER_CONTEXT_SLOTS = 4


class WarmPool:
    """A persistent fork pool whose workers cache shipped context.

    Use as a context manager (workers and spool files are released on
    exit)::

        with WarmPool(jobs=2) as pool:
            token = pool.seed(big_shared_state)
            results = pool.map(task_fn, items, context=token)

    ``task_fn`` must be a module-level callable of ``(context, item)``;
    it runs in a worker with the unpickled context (or in-process with
    the original object when ``jobs <= 1`` or after a fallback — the two
    paths are observationally identical).
    """

    def __init__(self, jobs: int = 1):
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None
        self._spool_dir: Path | None = None
        self._contexts: dict[str, tuple[Path, Any]] = {}
        self._serial = self.jobs <= 1
        self._closed = False
        # The serve daemon shares one pool across handler threads; seed
        # dedup, the context registry and the counters go under a lock
        # (map's serial path itself runs outside it, concurrently).
        self._lock = threading.RLock()
        #: Tasks executed through this pool (parallel or serial path).
        self.tasks = 0
        #: Tasks served by a worker whose context was already warm.
        self.reuse = 0
        #: Bytes of context pickled and spooled (once per distinct value).
        self.ship_bytes = 0
        #: Pool-infrastructure failures that degraded this pool to serial.
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def seed(self, context: Any) -> str:
        """Register *context* for shipping; returns its content token.

        The value is pickled exactly once; re-seeding an equal value (same
        pickle bytes) returns the existing token without writing anything.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        raw = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        token = hashlib.sha256(raw).hexdigest()[:24]
        with self._lock:
            if token not in self._contexts:
                path = self._spool() / f"{token}.ctx"
                with tempfile.NamedTemporaryFile(
                    mode="wb", dir=str(path.parent), delete=False
                ) as handle:
                    handle.write(raw)
                os.replace(handle.name, path)
                self.ship_bytes += len(raw)
                if _OBS.enabled:
                    _OBS.metrics.counter("batch.pool.ship_bytes").inc(len(raw))
                    _OBS.metrics.counter("batch.pool.contexts").inc()
                self._contexts[token] = (path, context)
        return token

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Iterable[Any],
        context: str | None = None,
    ) -> list[Any]:
        """``[fn(ctx, item) for item in items]``, fanned out, in order.

        *context* is a token from :meth:`seed` (``None`` ships no shared
        state).  Results come back in item order.  A broken pool falls
        back to running the remaining work serially in-process; analysis
        errors raised by *fn* propagate unchanged either way.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        items = list(items)
        if context is not None and context not in self._contexts:
            raise KeyError(f"unknown context token {context!r}")
        if not items:
            return []
        with self._lock:
            self.tasks += len(items)
        if _OBS.enabled:
            _OBS.metrics.counter("batch.pool.tasks").inc(len(items))
        if not self._serial:
            try:
                return self._map_parallel(fn, items, context)
            except _POOL_FAILURES as error:
                self._fall_back(error)
        return self._map_serial(fn, items, context)

    # ------------------------------------------------------------------
    def _map_parallel(
        self, fn, items: Sequence[Any], context: str | None
    ) -> list[Any]:
        path = self._contexts[context][0] if context is not None else None
        executor = self._ensure_executor()
        work = [(fn, context, path, item) for item in items]
        results = []
        for warm, result in executor.map(_worker_call, work):
            if warm:
                with self._lock:
                    self.reuse += 1
                if _OBS.enabled:
                    _OBS.metrics.counter("batch.pool.reuse").inc()
            results.append(result)
        return results

    def _map_serial(
        self, fn, items: Sequence[Any], context: str | None
    ) -> list[Any]:
        value = self._contexts[context][1] if context is not None else None
        return [fn(value, item) for item in items]

    def _fall_back(self, error: BaseException) -> None:
        with self._lock:
            self._serial = True
            self.fallbacks += 1
            executor, self._executor = self._executor, None
        if _OBS.enabled:
            _OBS.metrics.counter("batch.pool.fallbacks").inc()
            _OBS.tracer.event(
                "batch.pool.fallback",
                reason=f"{type(error).__name__}: {error}",
            )
        if executor is not None:
            # No cancel_futures here: on 3.11 terminate_broken() calls
            # set_exception() on every pending future *before* it
            # terminates the workers, so cancelling those futures from
            # this thread makes it raise InvalidStateError mid-loop —
            # workers never get reaped and interpreter exit hangs
            # joining the wedged manager thread.  The broken-pool
            # machinery fails pending futures and kills workers itself.
            executor.shutdown(wait=False)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
                if _OBS.enabled:
                    _OBS.metrics.counter("batch.pool.starts").inc()
            return self._executor

    def _spool(self) -> Path:
        # Callers hold self._lock (seed); reentrant, so direct use works.
        with self._lock:
            if self._spool_dir is None:
                self._spool_dir = Path(
                    tempfile.mkdtemp(prefix="repro-warmpool-")
                )
            return self._spool_dir

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and delete spooled context files."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None
        self._contexts.clear()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side.  Module-level state so it survives across tasks within one
# worker process — that persistence is the whole point of the warm pool.
# ----------------------------------------------------------------------

_CONTEXT_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_DERIVED_CACHE: "OrderedDict[tuple[str, str], Any]" = OrderedDict()
_CONTEXT_IDS: dict[int, str] = {}

#: Guards the three module caches above.  Worker processes are
#: single-threaded, but the serial path runs in the caller's threads —
#: under the serve daemon, several at once against one shared context.
#: Held across ``derived`` factories so concurrent callers observe one
#: derived instance per (context, name), never two racing halves.
_WORKER_LOCK = threading.RLock()

#: Derived-state entries kept per process; see :func:`derived`.  Bounds
#: the serial path too, where contexts come and go with their pools.
_DERIVED_SLOTS = 32

_IN_WORKER = False


def in_worker() -> bool:
    """True when running inside a :class:`WarmPool` worker process.

    Task functions branch on this to decide whether to install fresh
    per-call observability (worker: records must be shipped back) or to
    record straight into the caller's live tracer (serial path: the
    context runs in the caller's process and its obs state must not be
    disturbed).
    """
    return _IN_WORKER


def run_observed(fn: Callable[[], Any], obs_enabled: bool) -> tuple:
    """``(fn(), records, snapshot)`` for one task function's work.

    In a worker with observability on, *fn* runs under fresh tracing and
    its spans and metrics snapshot ship back for :func:`adopt_observed`.
    On the serial path the caller's tracer is live and records directly,
    so nothing ships.
    """
    if not (obs_enabled and in_worker()):
        return fn(), (), None
    from repro.obs import install, uninstall

    tracer, metrics = install()
    try:
        result = fn()
    finally:
        uninstall()
    return result, tuple(tracer.records), metrics.to_dict()


def worker_store(context: Any, directory: "str | None"):
    """One :class:`~repro.analysis.store.ArtifactStore` handle on
    *directory* per shipped context (``None`` without a directory), so
    its in-memory LRU stays warm across every item of the context."""
    if directory is None:
        return None
    from repro.analysis.store import ArtifactStore

    return derived(context, "store", lambda: ArtifactStore(directory=directory))


def adopt_observed(records: tuple, snapshot, parent_id) -> None:
    """Merge one task's shipped spans (re-parented under *parent_id*) and
    metrics into the caller's observability state.  Callers adopt in item
    order, which keeps merged traces deterministic."""
    if _OBS.enabled:
        if records:
            _OBS.tracer.adopt(records, parent_id=parent_id)
        if snapshot is not None:
            _OBS.metrics.merge(snapshot)


def _worker_call(work: tuple) -> tuple[bool, Any]:
    global _IN_WORKER
    _IN_WORKER = True
    fn, token, path, item = work
    if token is None:
        return False, fn(None, item)
    context = _CONTEXT_CACHE.get(token)
    warm = context is not None
    if warm:
        _CONTEXT_CACHE.move_to_end(token)
    else:
        with open(path, "rb") as handle:
            context = pickle.load(handle)
        _remember_context(token, context)
        if _OBS.enabled:
            _OBS.metrics.counter("batch.pool.context_loads").inc()
    return warm, fn(context, item)


def _remember_context(token: str, context: Any) -> None:
    with _WORKER_LOCK:
        _CONTEXT_CACHE[token] = context
        _CONTEXT_IDS[id(context)] = token
        while len(_CONTEXT_CACHE) > _WORKER_CONTEXT_SLOTS:
            evicted_token, evicted = _CONTEXT_CACHE.popitem(last=False)
            _CONTEXT_IDS.pop(id(evicted), None)
            for key in [k for k in _DERIVED_CACHE if k[0] == evicted_token]:
                del _DERIVED_CACHE[key]


def derived(context: Any, name: str, factory: Callable[[], Any]) -> Any:
    """Per-context memo for state derived from a shipped context.

    Task functions use this to build expensive per-context objects (a
    :class:`~repro.analysis.crpd.CRPDAnalyzer` over the shipped
    artifacts, say) once per worker instead of once per task::

        def _pair_task(context, pair):
            analyzer = derived(context, "analyzer", lambda: make(context))
            return analyzer.estimate_pair(*pair)

    Keyed by the context's cache token inside workers, and by object
    identity on the serial path (where the context object is long-lived
    in the caller), so warm and serial execution share the semantics.
    """
    with _WORKER_LOCK:
        token = _CONTEXT_IDS.get(id(context))
        if token is None:
            token = f"local-{id(context):x}"
        key = (token, name)
        value = _DERIVED_CACHE.get(key)
        if value is None:
            value = factory()
            _DERIVED_CACHE[key] = value
            while len(_DERIVED_CACHE) > _DERIVED_SLOTS:
                _DERIVED_CACHE.popitem(last=False)
        else:
            _DERIVED_CACHE.move_to_end(key)
        return value
