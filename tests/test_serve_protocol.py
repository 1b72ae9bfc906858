"""Protocol golden tests: the serve wire schema may not drift silently.

The envelope key set, the canonical result payload key set, the compare
report key set and the taxonomy→HTTP mapping are all pinned here the
same way the trace schema is pinned by ``SPAN_RECORD_KEYS`` — plus
committed golden files (``tests/golden/serve/``) for a full envelope, a
submit-time error envelope and a compare report, so even a *compatible*
reshaping of the JSON fails tier-1 until the goldens (and
``PROTOCOL_VERSION``) are updated deliberately.

Regenerate goldens with ``REPRO_UPDATE_GOLDENS=1 pytest
tests/test_serve_protocol.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.errors import (
    BudgetExceeded,
    ConfigError,
    DivergenceError,
    QuotaExceeded,
    ReproError,
    ShedError,
    SimulationError,
    error_kind,
)
from repro.serve.protocol import (
    COMPARE_KEYS,
    ENVELOPE_KEYS,
    PROTOCOL_VERSION,
    RESULT_KEYS,
    STATUS_BY_KIND,
    canonical_json,
    compare_payloads,
    envelope,
    http_status,
    parse_request,
    store_counts_from,
)
from repro.serve.service import AnalysisService

GOLDEN_DIR = Path(__file__).parent / "golden" / "serve"


def assert_matches_golden(name: str, payload: dict) -> None:
    """Compare against (or, under REPRO_UPDATE_GOLDENS=1, rewrite) a
    committed golden file, via the canonical serialization."""
    path = GOLDEN_DIR / name
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    committed = json.loads(path.read_text())
    assert canonical_json(payload) == canonical_json(committed), (
        f"golden {name} drifted; rerun with REPRO_UPDATE_GOLDENS=1 "
        "if the change is deliberate (and bump PROTOCOL_VERSION if "
        "it is incompatible)"
    )


# ----------------------------------------------------------------------
# Pinned schemas
# ----------------------------------------------------------------------


def test_protocol_version_pinned():
    assert PROTOCOL_VERSION == 1


def test_envelope_keys_pinned():
    assert ENVELOPE_KEYS == frozenset(
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


def test_result_keys_pinned():
    assert RESULT_KEYS == frozenset(
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


def test_compare_keys_pinned():
    assert COMPARE_KEYS == frozenset(
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


def test_status_mapping_pinned():
    assert STATUS_BY_KIND == {
        "config": 400,
        "budget": 422,
        "divergence": 422,
        "simulation": 422,
        "quota": 429,
        "shed": 429,
        "error": 500,
    }


def test_status_mapping_covers_whole_taxonomy():
    """Every error the taxonomy can produce has an HTTP status."""
    errors = [
        ReproError("x"),
        ConfigError("x"),
        BudgetExceeded("x"),
        DivergenceError("x"),
        SimulationError("x"),
        QuotaExceeded("x"),
        ShedError("x"),
    ]
    for error in errors:
        assert error_kind(error) in STATUS_BY_KIND


def test_http_status_by_state():
    assert http_status("queued") == 202
    assert http_status("running") == 200
    assert http_status("done") == 200
    assert http_status("error", "config") == 400
    assert http_status("error", "budget") == 422
    assert http_status("error", "quota") == 429
    assert http_status("error", "shed") == 429
    assert http_status("error", "never-heard-of-it") == 500
    assert http_status("error", None) == 500


def test_envelope_has_exactly_the_pinned_keys():
    env = envelope(job="j1", client="c", kind="point", state="done")
    assert set(env) == ENVELOPE_KEYS
    assert env["v"] == PROTOCOL_VERSION


def test_error_exit_codes_distinct():
    codes = {
        cls.exit_code
        for cls in (
            ReproError,
            ConfigError,
            BudgetExceeded,
            DivergenceError,
            SimulationError,
            QuotaExceeded,
            ShedError,
        )
    }
    assert len(codes) == 7


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------


def test_parse_point_request_defaults():
    request = parse_request({"kind": "point", "experiment": "exp1"})
    assert request.kind == "point"
    assert request.experiment == "exp1"
    assert request.miss_penalty == 20
    assert request.geometry is None
    assert request.budget is None


def test_parse_point_request_geometry():
    request = parse_request(
        {"kind": "point", "experiment": "exp2", "miss_penalty": 10,
         "geometry": [64, 4, 32]}
    )
    assert request.geometry == (64, 4, 32)
    assert "g64x4x32" in request.label


def test_parse_request_kind_defaults_to_point():
    assert parse_request({"experiment": "exp1"}).kind == "point"


def test_parse_request_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        parse_request({"kind": "point", "experiment": "exp3"})


def test_parse_request_rejects_bad_penalty_and_geometry():
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "miss_penalty": 0})
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "miss_penalty": "20"})
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "geometry": [64, 4]})
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "geometry": [64, 4, -1]})
    # Geometries CacheConfig refuses fail here too, with its reason.
    with pytest.raises(ConfigError, match="num_sets must be a power of two"):
        parse_request({"experiment": "exp1", "geometry": [3, 2, 16]})
    with pytest.raises(ConfigError, match=r"ways must be in 1\.\.255"):
        parse_request({"experiment": "exp1", "geometry": [64, 256, 16]})


def test_parse_request_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="bogus"):
        parse_request({"experiment": "exp1", "bogus": 1})


def test_parse_request_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_request([1, 2, 3])
    with pytest.raises(ConfigError):
        parse_request(None)


def test_parse_request_budget():
    request = parse_request(
        {
            "experiment": "exp1",
            "budget": {"max_paths": 7, "max_iterations": 9,
                       "time_budget": 1.5, "strict": True},
        }
    )
    assert request.budget.max_paths == 7
    assert request.budget.max_wcrt_iterations == 9
    assert request.budget.wall_clock_seconds == 1.5
    assert request.budget.strict is True


def test_parse_request_rejects_bad_budget():
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "budget": {"max_paths": 0}})
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "budget": {"nope": 1}})
    with pytest.raises(ConfigError):
        parse_request({"experiment": "exp1", "budget": 7})


def test_parse_spec_request_labels_by_content_hash():
    from repro.fuzz.generator import case_from_seed

    spec = case_from_seed(4, 1).to_json()
    first = parse_request({"kind": "spec", "spec": spec})
    second = parse_request({"kind": "spec", "spec": dict(spec)})
    assert first.label == second.label
    assert first.label.startswith("spec/")


def test_bad_geometry_is_a_400_and_queues_no_job():
    """Rejected at submit: the client gets a 400, no job is queued."""
    from repro.fuzz.generator import case_from_seed

    spec = case_from_seed(4, 1).to_json()
    spec["cache"]["num_sets"] = 3
    bodies = [
        {"experiment": "exp1", "geometry": [3, 2, 16]},
        {"experiment": "exp1", "geometry": [64, 256, 16]},
        {"kind": "spec", "spec": spec},
    ]
    with AnalysisService(workers=1, queue_capacity=8, store=None) as service:
        for body in bodies:
            status, env = service.submit_envelope(body)
            assert status == 400, body
            assert env["state"] == "error" and env["error_kind"] == "config"
        stats = service.stats()
        assert stats["jobs"] == {} and stats["queue_depth"] == 0


def test_parse_spec_request_rejects_junk():
    from repro.fuzz.generator import case_from_seed

    with pytest.raises(ConfigError):
        parse_request({"kind": "spec"})
    with pytest.raises(ConfigError):
        parse_request({"kind": "spec", "spec": {"version": 999}})
    with pytest.raises(ConfigError):
        parse_request({"kind": "what"})
    spec = case_from_seed(4, 1).to_json()
    spec["cache"]["num_sets"] = 3
    with pytest.raises(ConfigError, match="num_sets must be a power of two"):
        parse_request({"kind": "spec", "spec": spec})
    # Missing keys and wrongly typed fields are config errors too, not
    # KeyError/TypeError escaping the submit path.
    spec = case_from_seed(4, 1).to_json()
    del spec["tasks"]
    with pytest.raises(ConfigError, match="malformed spec"):
        parse_request({"kind": "spec", "spec": spec})
    spec = case_from_seed(4, 1).to_json()
    spec["cache"]["bogus"] = 1
    with pytest.raises(ConfigError, match="malformed spec"):
        parse_request({"kind": "spec", "spec": spec})


# ----------------------------------------------------------------------
# Store-count extraction
# ----------------------------------------------------------------------


def test_store_counts_from_snapshot():
    snapshot = {
        "counters": {
            "store.gets": 10,
            "store.hits": 6,
            "store.misses": 4,
            "store.hits.kind.trace": 2,
            "store.misses.kind.trace": 1,
            "store.hits.kind.pair": 4,
            "store.misses.kind.flow": 3,
        }
    }
    counts = store_counts_from(snapshot)
    assert counts == {
        "gets": 10,
        "hits": 6,
        "misses": 4,
        "by_kind": {
            "flow": {"hits": 0, "misses": 3},
            "pair": {"hits": 4, "misses": 0},
            "trace": {"hits": 2, "misses": 1},
        },
    }
    assert counts["gets"] == counts["hits"] + counts["misses"]


def test_store_counts_from_empty():
    assert store_counts_from(None) == {
        "gets": 0, "hits": 0, "misses": 0, "by_kind": {},
    }


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------


def _payload(label, wcet, wcrt1, sched1, lines, soundness="exact", events=()):
    return {
        "kind": "point",
        "label": label,
        "config": {},
        "periods": {},
        "wcet": wcet,
        "lines": lines,
        "wcrt": {"1": wcrt1},
        "schedulable": {"1": sched1},
        "soundness": soundness,
        "events": list(events),
    }


def test_compare_payloads_deltas():
    left = _payload(
        "L", {"a": 100, "b": 10}, {"a": 120, "b": 40}, True,
        {"b<-a": {"1": 3}},
    )
    right = _payload(
        "R", {"a": 150, "c": 1}, {"a": 130, "b": 35}, False,
        {"b<-a": {"1": 5}},
        soundness="conservative",
        events=[["paths:a", "max_paths", "limit", "mumbs"]],
    )
    report = compare_payloads(left, right)
    assert set(report) == COMPARE_KEYS
    assert report["left"] == "L" and report["right"] == "R"
    assert report["wcet_delta"]["common"] == {"a": 50}
    assert report["wcet_delta"]["only_left"] == ["b"]
    assert report["wcet_delta"]["only_right"] == ["c"]
    assert report["wcrt_delta"]["1"] == {"a": 10, "b": -5}
    assert report["schedulable_changes"] == {"1": [True, False]}
    assert report["lines_delta"] == {"b<-a": {"1": 2}}
    assert report["soundness"] == ["exact", "conservative"]
    assert report["events"]["left_only"] == []
    assert report["events"]["right_only"] == [
        ["paths:a", "max_paths", "limit", "mumbs"]
    ]


def test_compare_payloads_identical_is_all_zero():
    payload = _payload("X", {"a": 1}, {"a": 2}, True, {"b<-a": {"1": 3}})
    report = compare_payloads(payload, payload)
    assert report["wcet_delta"]["common"] == {"a": 0}
    assert report["schedulable_changes"] == {}
    assert report["lines_delta"] == {}
    assert report["events"] == {"left_only": [], "right_only": []}


def test_canonical_json_is_order_insensitive_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


# ----------------------------------------------------------------------
# Golden files: a full served envelope, an error envelope, a compare.
# Run uncached (store=None) so the envelopes carry no machine state;
# timing is normalized before comparing (it is the one whole-envelope
# field that legitimately varies run to run).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_service():
    with AnalysisService(workers=1, queue_capacity=8, store=None) as service:
        yield service


def _normalized(env: dict) -> dict:
    normalized = dict(env)
    normalized["timing"] = {"queued_ms": 0.0, "run_ms": 0.0}
    return normalized


def test_golden_point_envelope(golden_service):
    job = golden_service.submit({"kind": "point", "experiment": "exp1"})
    assert golden_service.wait(job.id, timeout=120)
    status, env = golden_service.status_envelope(job.id)
    assert status == 200
    assert set(env) == ENVELOPE_KEYS
    assert set(env["result"]) == RESULT_KEYS
    assert_matches_golden("envelope_point_exp1_p20.json", _normalized(env))


def test_golden_error_envelope(golden_service):
    status, env = golden_service.submit_envelope(
        {"kind": "point", "experiment": "exp9"}, client="golden"
    )
    assert status == 400
    assert set(env) == ENVELOPE_KEYS
    assert_matches_golden("envelope_config_error.json", _normalized(env))


def test_golden_compare(golden_service):
    left = golden_service.submit(
        {"kind": "point", "experiment": "exp1", "miss_penalty": 10}
    )
    right = golden_service.submit(
        {"kind": "point", "experiment": "exp1", "miss_penalty": 40}
    )
    assert golden_service.wait(left.id, timeout=120)
    assert golden_service.wait(right.id, timeout=120)
    status, report = golden_service.compare(left.id, right.id)
    assert status == 200
    assert set(report) == COMPARE_KEYS
    assert_matches_golden("compare_exp1_p10_p40.json", report)
