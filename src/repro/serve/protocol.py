"""The serve wire protocol: requests, envelopes, status mapping, compare.

Everything on the wire is versioned and pinned the same way the trace
schema is (:data:`repro.obs.trace.SPAN_RECORD_KEYS`): the exact key sets
of the result envelope (:data:`ENVELOPE_KEYS`), the canonical result
payload (:data:`RESULT_KEYS`) and the compare report
(:data:`COMPARE_KEYS`) are frozensets asserted by the protocol golden
tests, so any schema drift fails tier-1 before it reaches a client.

The **canonical result payload** is the part of an analysis result that
is a pure function of the submitted system — configuration, per-task
WCET, per-pair reload lines, per-approach WCRT and schedulability,
soundness and the degradation ledger.  Timing and store telemetry are
deliberately *not* in it (they live in separate envelope fields), so a
served result is byte-identical — via :func:`canonical_json` — to the
same system analysed directly through
:func:`~repro.batch.engine.analyze_batch` or
:class:`~repro.analysis.whatif.WhatIfSession`.  The concurrency suite
holds the daemon to exactly that.

``status``/``error_kind`` map 1:1 onto the error taxonomy
(:mod:`repro.errors`) via :data:`STATUS_BY_KIND`: ConfigError→400,
BudgetExceeded (and the other analysis failures)→422, QuotaExceeded and
ShedError→429, anything unclassified→500.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cache.config import CacheConfig
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.analysis.whatif import WhatIfResult
    from repro.batch.engine import PointResult
    from repro.guard.budget import AnalysisBudget

__all__ = [
    "COMPARE_KEYS",
    "ENVELOPE_KEYS",
    "PROTOCOL_VERSION",
    "RESULT_KEYS",
    "STATUS_BY_KIND",
    "AnalyzeRequest",
    "canonical_json",
    "compare_payloads",
    "envelope",
    "http_status",
    "parse_request",
    "point_payload",
    "whatif_payload",
]

#: Bump when any pinned key set or field meaning changes incompatibly.
PROTOCOL_VERSION = 1

#: Exact key set of every job envelope (pinned by the protocol tests).
ENVELOPE_KEYS = frozenset(
    {
        "v",
        "job",
        "client",
        "kind",
        "state",
        "error_kind",
        "error",
        "result",
        "store",
        "timing",
    }
)

#: Exact key set of the canonical result payload, shared by both job
#: kinds (experiment points and fuzz SystemSpecs).
RESULT_KEYS = frozenset(
    {
        "kind",
        "label",
        "config",
        "periods",
        "wcet",
        "lines",
        "wcrt",
        "schedulable",
        "soundness",
        "events",
    }
)

#: Exact key set of a compare report.
COMPARE_KEYS = frozenset(
    {
        "v",
        "left",
        "right",
        "wcet_delta",
        "wcrt_delta",
        "schedulable_changes",
        "lines_delta",
        "soundness",
        "events",
    }
)

#: error taxonomy branch tag -> HTTP status.  400 bad request, 422 the
#: request was well-formed but the analysis could not complete, 429
#: admission control (quota or shed), 500 unclassified.
STATUS_BY_KIND = {
    "config": 400,
    "budget": 422,
    "divergence": 422,
    "simulation": 422,
    "quota": 429,
    "shed": 429,
    "error": 500,
}

#: Job lifecycle states (queued and running answer 202/200 on GET).
JOB_STATES = ("queued", "running", "done", "error")


def canonical_json(payload) -> str:
    """The one serialization used for byte-identity claims: sorted keys,
    no whitespace.  Two payloads are *the same result* iff their
    canonical JSON strings are equal."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeRequest:
    """A validated ``POST /v1/analyze`` body.

    ``kind`` is ``"point"`` (an experiment at one cache configuration,
    the unit :func:`~repro.batch.engine.analyze_batch` works in) or
    ``"spec"`` (a full fuzz :class:`~repro.fuzz.spec.SystemSpec`,
    analysed through :class:`~repro.analysis.whatif.WhatIfSession`).
    """

    kind: str
    experiment: str = ""
    miss_penalty: int = 20
    geometry: Optional[tuple] = None
    #: The point's validated cache configuration (``None``: the default).
    cache: Optional[CacheConfig] = field(default=None, compare=False)
    spec: Optional[dict] = None
    budget: "AnalysisBudget | None" = None
    label: str = field(default="", compare=False)


def _parse_budget(payload) -> "AnalysisBudget | None":
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ConfigError(f"budget must be an object, got {type(payload).__name__}")
    from repro.guard.budget import AnalysisBudget

    allowed = {
        "max_paths",
        "max_iterations",
        "time_budget",
        "max_sim_steps",
        "strict",
    }
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"unknown budget field(s): {', '.join(unknown)}")
    try:
        return AnalysisBudget(
            max_paths=int(payload.get("max_paths", 4096)),
            max_wcrt_iterations=int(payload.get("max_iterations", 1000)),
            wall_clock_seconds=(
                float(payload["time_budget"])
                if payload.get("time_budget") is not None
                else None
            ),
            max_sim_steps=int(payload.get("max_sim_steps", 50_000_000)),
            strict=bool(payload.get("strict", False)),
        )
    except (TypeError, ValueError) as error:
        if isinstance(error, ConfigError):
            raise
        raise ConfigError(f"invalid budget: {error}") from error


def parse_request(payload) -> AnalyzeRequest:
    """Validate an analyze body; raises :class:`ConfigError` on any junk.

    Validation happens at submit time, so malformed requests are
    rejected with 400 before consuming a queue slot or a quota token.
    """
    if not isinstance(payload, dict):
        raise ConfigError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    known = {"kind", "experiment", "miss_penalty", "geometry", "spec",
             "budget", "wait", "timeout"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown request field(s): {', '.join(unknown)}")
    timeout = payload.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not math.isfinite(timeout)
        or timeout < 0
    ):
        raise ConfigError(
            f"timeout must be a finite number of seconds >= 0, got {timeout!r}"
        )
    kind = payload.get("kind", "point")
    budget = _parse_budget(payload.get("budget"))
    if kind == "point":
        experiment = payload.get("experiment")
        if experiment not in ("exp1", "exp2"):
            raise ConfigError(
                f"experiment must be 'exp1' or 'exp2', got {experiment!r}"
            )
        miss_penalty = payload.get("miss_penalty", 20)
        if not isinstance(miss_penalty, int) or miss_penalty < 1:
            raise ConfigError(
                f"miss_penalty must be a positive integer, got {miss_penalty!r}"
            )
        geometry = payload.get("geometry")
        cache = None
        if geometry is not None:
            if (
                not isinstance(geometry, (list, tuple))
                or len(geometry) != 3
                or not all(isinstance(part, int) and part > 0 for part in geometry)
            ):
                raise ConfigError(
                    "geometry must be [num_sets, ways, line_size] of "
                    f"positive integers, got {geometry!r}"
                )
            geometry = tuple(geometry)
            cache = CacheConfig(*geometry, miss_penalty=miss_penalty)
        label = (
            f"{experiment}/p{miss_penalty}"
            + (f"/g{'x'.join(map(str, geometry))}" if geometry else "")
        )
        return AnalyzeRequest(
            kind="point",
            experiment=experiment,
            miss_penalty=miss_penalty,
            geometry=geometry,
            cache=cache,
            budget=budget,
            label=label,
        )
    if kind == "spec":
        spec_payload = payload.get("spec")
        if not isinstance(spec_payload, dict):
            raise ConfigError("spec requests need a 'spec' object (SystemSpec JSON)")
        from repro.fuzz.spec import SystemSpec

        # Parse eagerly: a malformed spec (a bad cache geometry included)
        # is a 400 at submit, not a deferred failure in a worker.  The validated dict (round-tripped so
        # equal specs share one canonical form) rides in the request.
        spec = SystemSpec.from_json(spec_payload)
        spec_json = spec.to_json()
        digest = hashlib.sha256(canonical_json(spec_json).encode()).hexdigest()
        return AnalyzeRequest(
            kind="spec",
            spec=spec_json,
            budget=budget,
            label=f"spec/{digest[:12]}",
        )
    raise ConfigError(f"kind must be 'point' or 'spec', got {kind!r}")


# ----------------------------------------------------------------------
# Canonical result payloads
# ----------------------------------------------------------------------


def point_payload(result: "PointResult", periods: dict) -> dict:
    """Canonical payload of one analysed sweep point.

    Pure content only: ``analysis_seconds`` and the per-point store
    telemetry of :class:`~repro.batch.engine.PointResult` are excluded
    so warm, cold and served runs of the same point serialize
    identically.
    """
    config = result.point.config()
    return {
        "kind": "point",
        "label": result.point.label(),
        "config": {
            "num_sets": config.num_sets,
            "ways": config.ways,
            "line_size": config.line_size,
            "miss_penalty": config.miss_penalty,
            "policy": config.policy,
            "write_back": config.write_back,
        },
        "periods": {name: periods[name] for name in sorted(periods)},
        "wcet": dict(result.wcet),
        "lines": {
            f"{e.preempted}<-{e.preempting}": {
                str(a.value): count for a, count in e.lines.items()
            }
            for e in result.estimates
        },
        "wcrt": {
            str(approach): dict(per_task)
            for approach, per_task in result.wcrt.items()
        },
        "schedulable": {
            str(approach): verdict
            for approach, verdict in result.schedulable.items()
        },
        "soundness": result.soundness,
        "events": [
            [e.stage, e.budget, e.reason, e.fallback] for e in result.events
        ],
    }


def whatif_payload(result: "WhatIfResult", label: str) -> dict:
    """Canonical payload of one analysed fuzz SystemSpec.

    Derived from :meth:`~repro.analysis.whatif.WhatIfResult._payload`
    (the session's own byte-identity surface) and reshaped onto
    :data:`RESULT_KEYS`, so point and spec results diff uniformly in
    :func:`compare_payloads`.
    """
    payload = result._payload()
    return {
        "kind": "spec",
        "label": label,
        "config": payload["config"],
        "periods": payload["periods"],
        "wcet": payload["wcet"],
        "lines": payload["lines"],
        "wcrt": payload["wcrt"],
        "schedulable": payload["schedulable"],
        "soundness": payload["soundness"],
        "events": payload["events"],
    }


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


def envelope(
    *,
    job: Optional[str],
    client: str,
    kind: str,
    state: str,
    error_kind: Optional[str] = None,
    error: Optional[str] = None,
    result: Optional[dict] = None,
    store: Optional[dict] = None,
    timing: Optional[dict] = None,
) -> dict:
    """Build one response envelope with exactly :data:`ENVELOPE_KEYS`."""
    return {
        "v": PROTOCOL_VERSION,
        "job": job,
        "client": client,
        "kind": kind,
        "state": state,
        "error_kind": error_kind,
        "error": error,
        "result": result,
        "store": store if store is not None else empty_store_counts(),
        "timing": timing if timing is not None else {"queued_ms": 0.0, "run_ms": 0.0},
    }


def empty_store_counts() -> dict:
    return {"gets": 0, "hits": 0, "misses": 0, "by_kind": {}}


def store_counts_from(snapshot: Optional[dict]) -> dict:
    """Per-request store traffic out of a request-scoped metrics snapshot.

    The store emits ``store.hits.kind.<kind>`` / ``store.misses.kind.<kind>``
    counters; scoped to the request's own
    :class:`~repro.obs.metrics.Metrics`, those give exact per-request
    attribution of traffic against the *shared* store — something the
    store instance's own (global) counters cannot.
    """
    if not snapshot:
        return empty_store_counts()
    counters = snapshot.get("counters", {})
    by_kind: dict = {}
    for name, value in counters.items():
        if name.startswith("store.hits.kind."):
            kind = name[len("store.hits.kind."):]
            by_kind.setdefault(kind, {"hits": 0, "misses": 0})["hits"] = value
        elif name.startswith("store.misses.kind."):
            kind = name[len("store.misses.kind."):]
            by_kind.setdefault(kind, {"hits": 0, "misses": 0})["misses"] = value
    return {
        "gets": counters.get("store.gets", 0),
        "hits": counters.get("store.hits", 0),
        "misses": counters.get("store.misses", 0),
        "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
    }


def http_status(state: str, error_kind: Optional[str] = None) -> int:
    """HTTP status for a job envelope: the taxonomy mapping on errors."""
    if state == "error":
        return STATUS_BY_KIND.get(error_kind or "error", 500)
    if state == "queued":
        return 202
    return 200


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------


def _dict_delta(left: dict, right: dict) -> dict:
    common = {
        key: right[key] - left[key]
        for key in sorted(set(left) & set(right))
    }
    return {
        "common": common,
        "only_left": sorted(set(left) - set(right)),
        "only_right": sorted(set(right) - set(left)),
    }


def _event_multiset_diff(left: list, right: list) -> dict:
    left_counts: dict = {}
    for event in left:
        key = canonical_json(event)
        left_counts[key] = left_counts.get(key, 0) + 1
    right_counts: dict = {}
    for event in right:
        key = canonical_json(event)
        right_counts[key] = right_counts.get(key, 0) + 1
    left_only = []
    for key in sorted(left_counts):
        for _ in range(left_counts[key] - right_counts.get(key, 0)):
            left_only.append(json.loads(key))
    right_only = []
    for key in sorted(right_counts):
        for _ in range(right_counts[key] - left_counts.get(key, 0)):
            right_only.append(json.loads(key))
    return {"left_only": left_only, "right_only": right_only}


def compare_payloads(left: dict, right: dict) -> dict:
    """Diff two canonical result payloads (the ``/v1/compare`` body).

    Mirrors the rtos-sim exemplar's ``compare --left-metrics
    --right-metrics`` verb: per-task WCET deltas, per-approach/per-task
    WCRT deltas, schedulability flips, per-pair reload-line deltas, the
    soundness pair and the degradation-ledger divergence (multiset diff
    of events).  Deltas are ``right - left``.
    """
    wcrt_delta = {}
    for approach in sorted(set(left["wcrt"]) & set(right["wcrt"])):
        delta = _dict_delta(left["wcrt"][approach], right["wcrt"][approach])
        wcrt_delta[approach] = delta["common"]
    schedulable_changes = {
        approach: [left["schedulable"][approach], right["schedulable"][approach]]
        for approach in sorted(set(left["schedulable"]) & set(right["schedulable"]))
        if left["schedulable"][approach] != right["schedulable"][approach]
    }
    lines_delta: dict = {}
    for pair in sorted(set(left["lines"]) & set(right["lines"])):
        delta = _dict_delta(left["lines"][pair], right["lines"][pair])["common"]
        if any(delta.values()):
            lines_delta[pair] = delta
    return {
        "v": PROTOCOL_VERSION,
        "left": left["label"],
        "right": right["label"],
        "wcet_delta": _dict_delta(left["wcet"], right["wcet"]),
        "wcrt_delta": wcrt_delta,
        "schedulable_changes": schedulable_changes,
        "lines_delta": lines_delta,
        "soundness": [left["soundness"], right["soundness"]],
        "events": _event_multiset_diff(left["events"], right["events"]),
    }
