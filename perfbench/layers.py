"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps public entry points of each ``repro`` layer,
patching every wrapper where its caller looks the name up (a class
attribute, or the module global a caller imported by name), and restores
the originals afterwards.  ``repro.obs`` is never installed, so the code
under measurement runs unchanged.

Each wrapped call is a span: name, start, end, parent span and op id.
Spans of coarse calls are kept in memory and written out once the run
ends; hot calls (one per simulated cache access, kernel call or Cpre
lookup) only add to per-thread totals.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import weakref
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

#: Layer of a span, by span-name prefix (``analysis.store`` is ``store``).
LAYERS = ("vm", "cache", "program", "analysis", "store", "whatif", "wcrt",
          "batch", "serve")


class _ThreadState:
    def __init__(self):
        self.stack: list = []
        self.op = None
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()


class LayerTrace:
    """In-memory spans and counts around calls into each layer."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list = []
        self.records: list = []
        self._seen_results = weakref.WeakValueDictionary()

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def set_op(self, op) -> None:
        """Tag every span this thread opens from now on with *op*."""
        self._state().op = op

    def count(self, name: str, amount: int = 1) -> None:
        self._state().counts[name] += amount

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn, keep: bool = True, before=None, after=None):
        """*fn* inside a span; ``after(trace, args, result, token)`` runs
        outside the span with ``token = before(args)``."""
        trace = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            state = trace._state()
            stack = state.stack
            token = before(args) if before is not None else None
            span_id = next(trace._ids) if keep else 0
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                state.self_s[name] += duration - frame[1]
                state.calls[name] += 1
                if keep:
                    parent = next((f[2] for f in reversed(stack) if f[2]), 0)
                    trace.records.append(
                        (name, frame[0], end, span_id, parent, state.op)
                    )
            if after is not None:
                after(trace, args, result, token)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        # A class attribute is read from the class dict, so restoring it
        # puts back exactly what was there.
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **options))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.unpatch()

    def first_time(self, obj) -> bool:
        """True the first time *obj* is seen (results returned twice,
        such as a cached ``WhatIfSession.result()``, count once)."""
        with self._lock:
            if self._seen_results.get(id(obj)) is obj:
                return False
            self._seen_results[id(obj)] = obj
            return True

    # -- totals --------------------------------------------------------
    def totals(self) -> tuple[dict, Counter, Counter]:
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        with self._lock:
            for state in self._threads:
                for key, value in state.self_s.items():
                    self_s[key] += value
                calls.update(state.calls)
                counts.update(state.counts)
        return dict(self_s), calls, counts

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines (once, after the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, span_id, parent, op in self.records:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "id": span_id,
                    "parent": parent, "op": op,
                }) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(trace: LayerTrace, wall_s: float) -> dict:
    """The per-layer metric values (seconds are self times)."""
    self_s, calls, counts = trace.totals()

    def seconds(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[layer_of(name)] += value
    accesses = calls["cache.access"]
    gets = calls["store.get"]
    explored = counts["pathcost.explored"]
    whatif_total = counts["whatif.reused"] + counts["whatif.invalidated"]
    metrics = {
        "vm.runs": calls["vm.run"],
        "vm.self_s": seconds("vm.run"),
        "cache.accesses": accesses,
        "cache.miss_ratio": _ratio(counts["cache.misses"], accesses),
        "cache.self_s": seconds("cache.access"),
        "cache.replays": calls["cache.replay"],
        "cache.replay_s": seconds("cache.replay"),
        "cache.kernel_calls": calls["cache.kernel"],
        "cache.kernel_s": seconds("cache.kernel"),
        "program.paths_calls": calls["program.paths"],
        "program.feasible_paths": counts["program.feasible_paths"],
        "program.paths_s": seconds("program.paths"),
        "program.layout_s": seconds("program.layout"),
        "analysis.task_s": seconds("analysis.task"),
        "analysis.wcet_s": seconds("analysis.wcet"),
        "analysis.rmb_lmb_s": seconds("analysis.rmb_lmb"),
        "analysis.useful_s": seconds("analysis.useful"),
        "analysis.pathcost_s": seconds("analysis.pathcost"),
        "analysis.pathcost.explored_ratio": _ratio(
            explored, explored + counts["pathcost.pruned"]
        ),
        "analysis.pairs": calls["analysis.pair"],
        "analysis.pair_s": seconds("analysis.pair"),
        "analysis.cpre_calls": calls["analysis.cpre"],
        "store.gets": gets,
        "store.hit_ratio": _ratio(counts["store.hits"], gets),
        "store.puts": calls["store.put"],
        "store.put_bytes": counts["store.put_bytes"],
        "store.self_s": seconds("store.get", "store.put"),
        "whatif.reuse_ratio": _ratio(counts["whatif.reused"], whatif_total),
        "whatif.warm_start_ratio": _ratio(
            counts["whatif.warm_started"], counts["whatif.wcrt_recomputed"]
        ),
        "whatif.self_s": layer_self["whatif"],
        "wcrt.fixpoints": calls["wcrt.fixpoint"],
        "wcrt.iterations": counts["wcrt.iterations"],
        "wcrt.diverged": counts["wcrt.diverged"],
        "wcrt.self_s": seconds("wcrt.fixpoint"),
        "batch.calls": calls["batch.analyze"],
        "batch.self_s": layer_self["batch"],
        "batch.ship_bytes": counts["batch.ship_bytes"],
        "serve.serialize_s": seconds("serve.serialize"),
        "serve.self_s": layer_self["serve"],
    }
    metrics["bench.self_s"] = wall_s - sum(layer_self.values())
    metrics["trace.wall_s"] = wall_s
    return metrics


def self_shares(trace: LayerTrace, wall_s: float) -> dict:
    """Each layer's share of the traced wall time, plus the remainder
    spent in the benchmark itself (negative remainder: worker threads
    overlapped)."""
    self_s, _, _ = trace.totals()
    shares = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        shares[layer_of(name)] += value / wall_s
    shares["bench"] = 1.0 - sum(shares.values())
    return shares


# ----------------------------------------------------------------------
# Where each layer is entered
# ----------------------------------------------------------------------


def _count_miss(trace, args, result, token):
    if not result.hit:
        trace.count("cache.misses")


def _count_paths(trace, args, result, token):
    trace.count("program.feasible_paths", len(result))


def _count_pruned(trace, args, result, token):
    trace.count("pathcost.explored", result.explored_paths)
    trace.count("pathcost.pruned", result.pruned_branches)


def _count_store_hit(trace, args, result, token):
    if result is not None:
        trace.count("store.hits")


def _bytes_before(args):
    return args[0].bytes_written


def _count_put_bytes(trace, args, result, token):
    trace.count("store.put_bytes", args[0].bytes_written - token)


def _count_whatif(trace, args, result, token):
    if trace.first_time(result):
        trace.count("whatif.reused", sum(result.reused.values()))
        trace.count("whatif.invalidated", sum(result.invalidated.values()))
        trace.count("whatif.warm_started", result.warm_started)
        trace.count("whatif.wcrt_recomputed", result.invalidated.get("wcrt", 0))


def _count_fixpoint(trace, args, result, token):
    trace.count("wcrt.iterations", result.iteration_count)
    if result.status == "diverged":
        trace.count("wcrt.diverged")


def _count_ship(trace, args, result, token):
    trace.count("batch.ship_bytes", result.pool_ship_bytes)


def _job_op(trace):
    def before(args):
        trace.set_op(args[1].id)
    return before


def install(trace: LayerTrace) -> None:
    """Patch every layer entry point with *trace*'s wrappers."""
    import repro.analysis.artifacts as artifacts
    import repro.analysis.crpd as crpd
    import repro.analysis.pathcost as pathcost
    import repro.analysis.wcet as wcet
    import repro.analysis.whatif as whatif
    import repro.batch.engine as engine
    import repro.cache.ciip as ciip
    import repro.cache.kernels as kernels
    import repro.program.layout as layout
    import repro.serve.protocol as protocol
    import repro.serve.service as service
    import repro.wcrt.response_time as response_time
    from repro.analysis.store import ArtifactStore
    from repro.batch.pool import WarmPool
    from repro.cache.state import CacheState
    from repro.vm.machine import Machine
    from repro.vm.trace import CompactTrace

    p = trace.patch
    p(Machine, "run", "vm.run")
    p(CacheState, "access", "cache.access", keep=False, after=_count_miss)
    p(CompactTrace, "replay", "cache.replay")
    for name in ("dense_conflict", "dense_max_conflict", "dense_usage"):
        p(crpd, name, "cache.kernel", keep=False)
    for name in ("dense_from_ciip_counts", "dense_rows"):
        p(kernels, name, "cache.kernel", keep=False)
    for name in ("conflict_kernel", "conflict_kernel_per_set", "usage_kernel",
                 "counts_of_groups"):
        p(ciip, name, "cache.kernel", keep=False)
    p(artifacts, "enumerate_path_profiles", "program.paths", after=_count_paths)
    p(wcet, "enumerate_path_profiles", "program.paths", after=_count_paths)
    p(layout.SystemLayout, "place", "program.layout")
    p(layout, "apply_assignment", "program.layout")
    p(whatif, "analyze_task", "analysis.task")
    p(artifacts, "analyze_task", "analysis.task")
    p(artifacts, "measure_wcet_detailed", "analysis.wcet")
    p(artifacts, "solve_rmb_lmb", "analysis.rmb_lmb")
    p(artifacts, "compute_useful_blocks", "analysis.useful")
    p(crpd, "approach4_lines", "analysis.pathcost")
    p(pathcost, "max_path_conflict_pruned", "analysis.pathcost",
      after=_count_pruned)
    p(crpd.CRPDAnalyzer, "estimate_pair", "analysis.pair")
    p(crpd.CRPDAnalyzer, "cpre", "analysis.cpre", keep=False)
    p(ArtifactStore, "get", "store.get", after=_count_store_hit)
    p(ArtifactStore, "put", "store.put", before=_bytes_before,
      after=_count_put_bytes)
    p(whatif.WhatIfSession, "result", "whatif.result", after=_count_whatif)
    p(whatif.WhatIfSession, "apply", "whatif.apply", after=_count_whatif)
    p(whatif, "compute_task_wcrt", "wcrt.fixpoint", after=_count_fixpoint)
    p(response_time, "compute_task_wcrt", "wcrt.fixpoint", after=_count_fixpoint)
    p(engine, "analyze_batch", "batch.analyze", after=_count_ship)
    p(WarmPool, "map", "batch.pool_map")
    p(service.AnalysisService, "_run_job", "serve.job", before=_job_op(trace))
    p(protocol, "canonical_json", "serve.serialize", keep=False)
    p(service, "point_payload", "serve.serialize")
    p(service, "whatif_payload", "serve.serialize")
