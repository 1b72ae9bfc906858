"""Concurrency campaign against a live service/daemon.

The contract under test: many clients hammering the shared-warm-pool
daemon get **byte-identical** results (via
:func:`~repro.serve.protocol.canonical_json`) to running the same
systems directly through :func:`~repro.batch.engine.analyze_batch` /
:class:`~repro.analysis.whatif.WhatIfSession`; every per-request store
attribution obeys ``gets == hits + misses``; and the two 429 behaviours
(quota, shed) are exactly deterministic given their configuration — no
sleeps, no tolerances.

≥16 threads both at the service layer (no socket, workers=4) and over
real HTTP (ThreadingHTTPServer in-process).  The request pool mixes
experiment points (both experiments, several penalties, a custom
geometry) with Draw-protocol fuzz SystemSpecs, all with directly
computed reference payloads.
"""

from __future__ import annotations

import http.client
import json
import random
import threading

import pytest

from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import WhatIfSession
from repro.batch.engine import SweepPoint, analyze_batch
from repro.cache.config import CacheConfig
from repro.fuzz.generator import case_from_seed
from repro.serve.daemon import make_server
from repro.serve.protocol import (
    ENVELOPE_KEYS,
    canonical_json,
    parse_request,
    point_payload,
    whatif_payload,
)
from repro.serve.quota import QuotaConfig
from repro.serve.service import AnalysisService

THREADS = 16
REQUESTS_PER_THREAD = 4

#: The request pool: every distinct system the campaign may submit.
POINT_BODIES = [
    {"kind": "point", "experiment": "exp1", "miss_penalty": 10},
    {"kind": "point", "experiment": "exp1", "miss_penalty": 40},
    {"kind": "point", "experiment": "exp2", "miss_penalty": 20},
    {
        "kind": "point",
        "experiment": "exp1",
        "miss_penalty": 20,
        "geometry": [32, 4, 16],
    },
]
SPEC_SEEDS = [(20040216, 1), (20040216, 2)]


def _point_reference(body: dict, store: ArtifactStore) -> str:
    cache = None
    if body.get("geometry"):
        num_sets, ways, line_size = body["geometry"]
        cache = CacheConfig(
            num_sets=num_sets,
            ways=ways,
            line_size=line_size,
            miss_penalty=body["miss_penalty"],
        )
    point = SweepPoint(
        experiment=body["experiment"],
        miss_penalty=body["miss_penalty"],
        cache=cache,
    )
    result = analyze_batch([point], store=store).results[0]
    return canonical_json(point_payload(result))


def _spec_reference(body: dict, store: ArtifactStore) -> str:
    from repro.fuzz.spec import SystemSpec

    label = parse_request(body).label
    session = WhatIfSession(SystemSpec.from_json(body["spec"]), store=store)
    return canonical_json(whatif_payload(session.result(), label=label))


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Request pool + directly computed reference payloads + warm store.

    The references run through the exact same store directory the
    service will use, so the campaign exercises the warm path — which is
    precisely where byte-identity could break if telemetry leaked into
    the canonical payload.
    """
    store_dir = tmp_path_factory.mktemp("serve-campaign-store")
    store = ArtifactStore(directory=store_dir)
    bodies = []
    expected = {}
    for body in POINT_BODIES:
        bodies.append(body)
        expected[canonical_json(body)] = _point_reference(body, store)
    for master, index in SPEC_SEEDS:
        body = {"kind": "spec", "spec": case_from_seed(master, index).to_json()}
        bodies.append(body)
        expected[canonical_json(body)] = _spec_reference(body, store)
    return {"bodies": bodies, "expected": expected, "store_dir": store_dir}


def _check_envelope(env: dict, body: dict, campaign: dict) -> None:
    assert set(env) == ENVELOPE_KEYS
    assert env["state"] == "done", env["error"]
    got = canonical_json(env["result"])
    assert got == campaign["expected"][canonical_json(body)], (
        "served result is not byte-identical to the direct run for "
        f"{body.get('experiment', body['kind'])!r}"
    )
    store = env["store"]
    assert store["gets"] == store["hits"] + store["misses"]
    assert store["hits"] == sum(k["hits"] for k in store["by_kind"].values())
    assert store["misses"] == sum(k["misses"] for k in store["by_kind"].values())


def test_service_concurrent_byte_identity(campaign):
    """16 threads × 4 randomized submissions, all byte-identical."""
    service = AnalysisService(
        workers=4,
        queue_capacity=THREADS * REQUESTS_PER_THREAD,
        store=ArtifactStore(directory=campaign["store_dir"]),
    )
    failures: list = []
    checked = [0] * THREADS

    def client(index: int) -> None:
        rng = random.Random(0xC0FFEE + index)
        try:
            for _ in range(REQUESTS_PER_THREAD):
                body = rng.choice(campaign["bodies"])
                job = service.submit(body, client=f"client-{index}")
                assert service.wait(job.id, timeout=180)
                _check_envelope(service.job_envelope(job), body, campaign)
                checked[index] += 1
        except BaseException as error:  # noqa: BLE001 - collected for report
            failures.append((index, repr(error)))

    with service:
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        stats = service.stats()
    assert failures == []
    assert sum(checked) == THREADS * REQUESTS_PER_THREAD
    # Server-level coherence after the stampede.
    assert stats["jobs"] == {"done": THREADS * REQUESTS_PER_THREAD}
    assert stats["shed"] == 0
    assert stats["store"]["gets"] == (
        stats["store"]["hits"] + stats["store"]["misses"]
    )


def test_http_concurrent_byte_identity(campaign):
    """Same campaign over real HTTP with wait=true submits."""
    service = AnalysisService(
        workers=4,
        queue_capacity=THREADS * 2,
        store=ArtifactStore(directory=campaign["store_dir"]),
    )
    service.start()
    server = make_server("127.0.0.1", 0, service)
    listener = threading.Thread(target=server.serve_forever, daemon=True)
    listener.start()
    port = server.server_address[1]
    failures: list = []

    def client(index: int) -> None:
        rng = random.Random(0xBEEF + index)
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=180)
            for _ in range(2):
                body = rng.choice(campaign["bodies"])
                request = dict(body)
                request["wait"] = True
                request["timeout"] = 180
                connection.request(
                    "POST",
                    "/v1/analyze",
                    body=json.dumps(request),
                    headers={
                        "Content-Type": "application/json",
                        "X-Client": f"http-{index}",
                    },
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200, payload
                assert payload["client"] == f"http-{index}"
                _check_envelope(payload, body, campaign)
            connection.close()
        except BaseException as error:  # noqa: BLE001
            failures.append((index, repr(error)))

    try:
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True)
    assert failures == []


def test_warm_resubmission_is_all_hits(campaign):
    """A repeated system is answered entirely from the shared store —
    and still byte-identical."""
    body = POINT_BODIES[0]
    with AnalysisService(
        workers=1, store=ArtifactStore(directory=campaign["store_dir"])
    ) as service:
        first = service.submit(body)
        assert service.wait(first.id, timeout=180)
        second = service.submit(body)
        assert service.wait(second.id, timeout=180)
        first_env = service.job_envelope(first)
        second_env = service.job_envelope(second)
    _check_envelope(first_env, body, campaign)
    _check_envelope(second_env, body, campaign)
    assert second_env["store"]["misses"] == 0
    assert second_env["store"]["hits"] > 0
    assert canonical_json(first_env["result"]) == canonical_json(
        second_env["result"]
    )


class SteppedClock:
    """Deterministic quota clock: advances only when told to."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_quota_is_deterministic(campaign):
    """Given capacity=2, refill=1/s and a stepped clock, admission is an
    exact function of the submission sequence — no timing slack."""
    clock = SteppedClock()
    body = POINT_BODIES[0]
    with AnalysisService(
        workers=1,
        queue_capacity=16,
        quota=QuotaConfig(capacity=2, refill_per_second=1.0),
        quota_clock=clock,
        store=ArtifactStore(directory=campaign["store_dir"]),
    ) as service:
        statuses = [
            service.submit_envelope(body, client="tenant")[0] for _ in range(4)
        ]
        assert statuses == [202, 202, 429, 429]
        status, env = service.submit_envelope(body, client="tenant")
        assert status == 429
        assert env["error_kind"] == "quota"
        assert env["job"] is None
        assert "retry in" in env["error"]
        # Another client has an untouched bucket.
        assert service.submit_envelope(body, client="other")[0] == 202
        # Half a token is not a token.
        clock.advance(0.5)
        assert service.submit_envelope(body, client="tenant")[0] == 429
        # One full second -> exactly one admission, then dry again.
        clock.advance(0.5)
        assert service.submit_envelope(body, client="tenant")[0] == 202
        assert service.submit_envelope(body, client="tenant")[0] == 429
        stats = service.stats()
        assert stats["quota"]["granted"] == 4
        assert stats["quota"]["refused"] == 5


def test_shed_is_deterministic(campaign):
    """With 1 wedged worker and capacity 2, the 4th concurrent submit —
    and exactly the 4th — sheds; quota is refunded on shed."""
    started = threading.Event()
    gate = threading.Event()

    def wedge(job):
        started.set()
        assert gate.wait(timeout=60)

    clock = SteppedClock()
    body = POINT_BODIES[0]
    service = AnalysisService(
        workers=1,
        queue_capacity=2,
        quota=QuotaConfig(capacity=10, refill_per_second=1.0),
        quota_clock=clock,
        store=ArtifactStore(directory=campaign["store_dir"]),
        job_hook=wedge,
    )
    with service:
        first = service.submit_envelope(body, client="burst")
        assert first[0] == 202
        # Wait for the worker to *dequeue* job 1 before filling the
        # queue, otherwise job 1 may still occupy a slot and the shed
        # boundary would race.
        assert started.wait(timeout=60)
        statuses = [first[0]]
        envs = [first[1]]
        for _ in range(3):
            status, env = service.submit_envelope(body, client="burst")
            statuses.append(status)
            envs.append(env)
        assert statuses == [202, 202, 202, 429]
        assert envs[-1]["error_kind"] == "shed"
        assert "queue is full" in envs[-1]["error"]
        # Shed refunded the token: 4 submitted, only 3 admitted count.
        assert service.quota.available("burst") == pytest.approx(10 - 3)
        stats = service.stats()
        assert stats["shed"] == 1
        assert stats["quota"]["granted"] == 4  # grants are not rewound...
        assert stats["quota"]["refused"] == 0  # ...and shed is not a refusal
        gate.set()
        for env in envs[:3]:
            assert service.wait(env["job"], timeout=180)
            assert service.get_job(env["job"]).state == "done"


def test_queued_envelope_reports_202(campaign):
    """A queued job's GET answers 202 with a result-free envelope."""
    started = threading.Event()
    gate = threading.Event()

    def wedge(job):
        started.set()
        assert gate.wait(timeout=60)

    body = POINT_BODIES[0]
    service = AnalysisService(
        workers=1,
        queue_capacity=4,
        store=ArtifactStore(directory=campaign["store_dir"]),
        job_hook=wedge,
    )
    with service:
        running = service.submit(body)
        assert started.wait(timeout=60)
        queued = service.submit(body)
        status, env = service.status_envelope(queued.id)
        assert status == 202
        assert env["state"] == "queued"
        assert env["result"] is None
        status, env = service.status_envelope(running.id)
        assert status == 200
        assert env["state"] == "running"
        gate.set()
        assert service.wait(queued.id, timeout=180)
        assert service.status_envelope(queued.id)[0] == 200
