"""Daemon lifecycle: SIGTERM drain, shutdown semantics, budget trips.

The operational claims of ``repro serve``:

* SIGTERM drains — every job admitted before the signal completes, and
  the daemon's ``--trace-out`` / ``--metrics-out`` exports are flushed
  whole (counted, parseable), then the process exits 0.
* ``shutdown(drain=False)`` sheds still-queued jobs with a typed state
  instead of leaving clients waiting on events that never fire.
* A wedged analysis (runaway path enumeration, blown wall-clock) comes
  back as a 422 envelope over a live socket — a typed refusal, not a
  hung connection — because the guard budgets trip inside the worker.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz.generator import case_from_seed
from repro.fuzz.spec import CacheSpec, SystemSpec
from repro.serve.daemon import make_server
from repro.serve.service import AnalysisService

REPO = Path(__file__).resolve().parent.parent
FAST = {"kind": "point", "experiment": "exp1"}


# ----------------------------------------------------------------------
# In-process shutdown semantics
# ----------------------------------------------------------------------


def _wedged_service(**kwargs):
    """A 1-worker service whose first job blocks on a gate (set by the
    test); ``started`` fires once the worker has dequeued it."""
    started = threading.Event()
    gate = threading.Event()

    def wedge(job):
        started.set()
        assert gate.wait(timeout=60)

    service = AnalysisService(workers=1, job_hook=wedge, **kwargs)
    return service, started, gate


def test_shutdown_drains_queued_jobs():
    service, started, gate = _wedged_service(queue_capacity=8)
    service.start()
    jobs = [service.submit(FAST) for _ in range(3)]
    assert started.wait(timeout=60)

    finisher = threading.Thread(target=service.shutdown, kwargs={"drain": True})
    finisher.start()
    # Admissions close immediately, even while the drain is in flight.
    time.sleep(0.05)
    from repro.errors import ShedError

    with pytest.raises(ShedError, match="shutting down"):
        service.submit(FAST)
    gate.set()
    finisher.join(timeout=180)
    assert not finisher.is_alive()
    for job in jobs:
        assert job.done.is_set()
        assert job.state == "done"
    # Results of drained jobs remain fetchable after shutdown.
    assert service.status_envelope(jobs[-1].id)[0] == 200


def test_shutdown_without_drain_sheds_queued_jobs():
    service, started, gate = _wedged_service(queue_capacity=8)
    service.start()
    jobs = [service.submit(FAST) for _ in range(3)]
    assert started.wait(timeout=60)

    finisher = threading.Thread(
        target=service.shutdown, kwargs={"drain": False}
    )
    finisher.start()
    # The queued (never-started) jobs resolve as shed errors promptly,
    # even while the in-flight job is still wedged.
    for job in jobs[1:]:
        assert job.done.wait(timeout=60)
        assert job.state == "error"
        assert job.error_kind == "shed"
    gate.set()
    finisher.join(timeout=180)
    assert not finisher.is_alive()
    # The job that was already running still finished properly.
    assert jobs[0].state == "done"


def test_shutdown_restores_observability_state():
    from repro.obs import STATE

    before = (STATE.enabled, STATE.tracer, STATE.metrics)
    service = AnalysisService(workers=1)
    service.start()
    assert STATE.tracer is service._scoped_tracer
    service.shutdown()
    assert (STATE.enabled, STATE.tracer, STATE.metrics) == before


def test_shutdown_is_idempotent_and_restartable():
    service = AnalysisService(workers=1)
    service.shutdown()  # never started: no-op
    with service:
        job = service.submit(FAST)
        assert service.wait(job.id, timeout=180)
    service.shutdown()  # second shutdown: no-op
    with service:  # restart works
        job = service.submit(FAST)
        assert service.wait(job.id, timeout=180)
        assert job.state == "done"


# ----------------------------------------------------------------------
# Budget trips answer the socket instead of hanging it
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "budget",
    [
        {"max_paths": 1, "strict": True},
        {"time_budget": 1e-6, "strict": True},
        {"time_budget": 1e-6},
    ],
    ids=["strict-paths", "strict-wallclock", "lax-wallclock"],
)
def test_budget_trip_is_422_not_hang(budget):
    with AnalysisService(workers=1) as service:
        job = service.submit(dict(FAST, budget=budget))
        assert service.wait(job.id, timeout=180)
        status, env = service.status_envelope(job.id)
        assert status == 422
        assert env["state"] == "error"
        assert env["error_kind"] == "budget"
        assert env["result"] is None


def test_budget_trip_over_live_socket():
    """A runaway request answered 422 on the wire while the same daemon
    keeps serving healthy requests."""
    with AnalysisService(workers=2) as service:
        server = make_server("127.0.0.1", 0, service)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        try:
            port = server.server_address[1]
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=180
            )
            connection.request(
                "POST",
                "/v1/analyze",
                body=json.dumps(
                    dict(
                        FAST,
                        budget={"time_budget": 1e-6, "strict": True},
                        wait=True,
                        timeout=120,
                    )
                ),
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 422
            assert payload["error_kind"] == "budget"
            # Daemon is still healthy afterwards.
            connection.request(
                "POST",
                "/v1/analyze",
                body=json.dumps(dict(FAST, wait=True, timeout=120)),
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["state"] == "done"
            connection.close()
        finally:
            server.shutdown()
            server.server_close()


def test_overloaded_spec_is_answered_done():
    """A diverged Eq. 7 fixpoint grows to ints of hundreds of digits; the
    metrics the service installs must absorb them, not fail the job."""
    tasks = []
    index = 0
    while len(tasks) < 6:
        tasks.extend(case_from_seed(4, index).tasks)
        index += 1
    spec = SystemSpec(
        cache=CacheSpec(num_sets=16, ways=2, line_size=16),
        tasks=tuple(replace(task, period_mult=2) for task in tasks[:6]),
    )
    with AnalysisService(workers=1, store=None) as service:
        job = service.submit({"kind": "spec", "spec": spec.to_json()})
        assert service.wait(job.id, timeout=180)
        assert job.state == "done", job.error
        status, env = service.status_envelope(job.id)
        assert status == 200


@pytest.mark.parametrize("length", ["twelve", "-5", "1.5"])
def test_malformed_content_length_is_a_400_envelope(length):
    with AnalysisService(workers=1) as service:
        server = make_server("127.0.0.1", 0, service)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
            )
            connection.putrequest("POST", "/v1/analyze")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            connection.close()
            assert response.status == 400
            assert payload["state"] == "error"
            assert payload["error_kind"] == "config"
            assert "Content-Length" in payload["error"]
            # The daemon keeps serving on a fresh connection.
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
            )
            connection.request("GET", "/v1/health")
            assert connection.getresponse().status == 200
            connection.close()
        finally:
            server.shutdown()
            server.server_close()


def test_malformed_timeout_is_a_400_before_enqueue():
    """A non-numeric ``timeout`` is refused at submit: no job is queued
    and no quota token is charged."""
    from repro.serve.quota import QuotaConfig

    with AnalysisService(workers=1, quota=QuotaConfig(capacity=8)) as service:
        server = make_server("127.0.0.1", 0, service)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
            )
            for timeout in ("soon", -1, float("inf"), True):
                body = json.dumps(dict(FAST, wait=True, timeout=timeout))
                connection.request("POST", "/v1/analyze", body=body)
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400, timeout
                assert payload["error_kind"] == "config"
                assert "timeout" in payload["error"]
            connection.close()
            stats = service.stats()
            assert stats["jobs"] == {}
            assert stats["quota"]["granted"] == 0
        finally:
            server.shutdown()
            server.server_close()


def test_oversized_body_is_a_413_envelope():
    """A declared body over the cap is refused unread and the connection
    closes; a normal request on a fresh connection still succeeds."""
    from repro.serve.daemon import MAX_BODY_BYTES

    with AnalysisService(workers=1) as service:
        server = make_server("127.0.0.1", 0, service)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
            )
            connection.putrequest("POST", "/v1/analyze")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert payload["state"] == "error"
            assert payload["error_kind"] == "config"
            connection.close()
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=180
            )
            connection.request(
                "POST", "/v1/analyze",
                body=json.dumps(dict(FAST, wait=True, timeout=120)),
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["state"] == "done"
            connection.close()
        finally:
            server.shutdown()
            server.server_close()


def test_stalled_client_is_disconnected_while_others_are_served(monkeypatch):
    """A client that sends half its headers and stalls is dropped within
    the per-connection read timeout; meanwhile other clients get their
    answers on their own connections."""
    import socket

    from repro.serve import daemon

    bound = 0.5
    monkeypatch.setattr(daemon._Handler, "timeout", bound)
    with AnalysisService(workers=1) as service:
        server = make_server("127.0.0.1", 0, service)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        port = server.server_address[1]
        try:
            stalled = socket.create_connection(("127.0.0.1", port), timeout=30)
            stalled.sendall(b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Le")
            started = time.monotonic()
            for _ in range(3):
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"ok": True}
                connection.close()
            assert stalled.recv(1024) == b""  # closed by the server
            elapsed = time.monotonic() - started
            assert elapsed < bound + 10
            stalled.close()
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# SIGTERM drain of the real CLI daemon (subprocess)
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="POSIX signal semantics required",
)
def test_sigterm_drains_and_flushes_exports(tmp_path):
    trace_path = tmp_path / "serve-trace.jsonl"
    metrics_path = tmp_path / "serve-metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
            "serve",
            "--port",
            "0",
            "--serve-workers",
            "1",
        ],
        cwd=str(REPO),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        port = int(banner.rsplit(":", 1)[1])

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=180)
        # One completed round-trip, plus one job left *queued* when the
        # signal lands — the drain must finish it anyway.
        connection.request(
            "POST", "/v1/analyze", body=json.dumps(dict(FAST, wait=True,
                                                        timeout=120))
        )
        first = json.loads(connection.getresponse().read())
        assert first["state"] == "done"
        connection.request(
            "POST",
            "/v1/analyze",
            body=json.dumps({"kind": "point", "experiment": "exp2"}),
        )
        second = json.loads(connection.getresponse().read())
        assert second["state"] in ("queued", "running", "done")
        connection.close()

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=180)
        assert process.returncode == 0, stderr
        assert "drained and stopped" in stdout
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)

    # Flushed, parseable trace: every line a span/event record, with the
    # server-level serve.request spans re-parented under it.
    lines = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if line.strip()
    ]
    names = {record.get("name") for record in lines}
    assert "serve.request" in names
    assert "serve.job" in names

    # Flushed metrics registry: both jobs drained to completion.
    registry = json.loads(metrics_path.read_text())
    assert registry["counters"]["serve.jobs.done"] == 2
    assert registry["counters"].get("store.gets", 0) == (
        registry["counters"].get("store.hits", 0)
        + registry["counters"].get("store.misses", 0)
    )


# ----------------------------------------------------------------------
# Job retention: a long-running daemon's job table stays bounded
# ----------------------------------------------------------------------


class _InstantService(AnalysisService):
    """Runs no analysis: every job finishes at once with a tiny result."""

    def _execute(self, request):
        return {"label": request.label}


def _finish(service, count):
    jobs = []
    for _ in range(count):
        job = service.submit(FAST)
        assert job.done.wait(timeout=60)
        jobs.append(job)
    return jobs


def test_job_table_stays_bounded_over_many_submits(monkeypatch):
    import repro.serve.service as service_module

    monkeypatch.setattr(service_module, "JOB_RETENTION", 5)
    with _InstantService(workers=2, queue_capacity=4) as service:
        sizes = []
        for _ in range(40):
            _finish(service, 5)
            sizes.append(len(service._jobs))
        jobs = _finish(service, 5)
        assert max(sizes) <= 5
        assert sum(service.stats()["jobs"].values()) <= 5
        # The newest finished jobs are still fetchable ...
        assert service.status_envelope(jobs[-1].id)[0] == 200
        # ... an evicted one answers a distinct "expired" envelope ...
        status, payload = service.status_envelope("j000001")
        assert status == 410
        assert payload["state"] == "error"
        assert payload["error_kind"] == "expired"
        assert service.compare("j000001", jobs[-1].id)[0] == 410
        # ... and an id never issued is still unknown.
        status, payload = service.status_envelope("j999999")
        assert status == 404
        assert payload["error"] == "unknown job 'j999999'"


def test_finished_jobs_expire_after_the_ttl(monkeypatch):
    import repro.serve.service as service_module

    with _InstantService(workers=1) as service:
        first = _finish(service, 2)
        monkeypatch.setattr(service_module, "JOB_TTL_S", 0.0)
        time.sleep(0.01)
        last = _finish(service, 1)[0]
        for job in first:
            assert service.status_envelope(job.id)[0] == 410
        assert service.status_envelope(last.id)[0] == 200


def test_queued_and_running_jobs_are_never_evicted(monkeypatch):
    import repro.serve.service as service_module

    monkeypatch.setattr(service_module, "JOB_RETENTION", 1)
    started = threading.Event()
    gate = threading.Event()

    def wedge(job):
        if job.id == "j000001":
            started.set()
            assert gate.wait(timeout=60)

    service = _InstantService(workers=2, queue_capacity=8, job_hook=wedge)
    with service:
        running = service.submit(FAST)
        assert started.wait(timeout=60)
        _finish(service, 4)  # finish around the wedged job
        assert service.status_envelope(running.id)[0] == 200
        assert running.state == "running"
        gate.set()
        assert running.done.wait(timeout=60)
        assert service.status_envelope(running.id)[0] == 200
        assert len(service._jobs) == 1


def test_point_requests_leave_the_serial_pool_nothing(tmp_path):
    """Every job runs serially on the service's own store, so point
    requests with 200 distinct budgets leave no pool context, no spool
    directory and no shipped byte behind."""
    from repro.analysis.store import ArtifactStore

    store = ArtifactStore(directory=tmp_path)
    with AnalysisService(workers=2, store=store) as service:
        for index in range(200):
            job = service.submit({**FAST, "budget": {"max_paths": 8 + index}})
            assert job.done.wait(timeout=120)
            assert job.state == "done", job.error
        assert service._pool._contexts == {}
        assert service._pool._spool_dir is None
        stats = service.stats()
        assert stats["pool"]["ship_bytes"] == 0
        assert stats["pool"]["tasks"] == 200


class _BusyStats:
    """A service stand-in whose ``/v1/stats`` blocks until released."""

    def __init__(self):
        self.release = threading.Event()

    def stats(self):
        self.release.wait(timeout=60)
        return {"ok": True}


def test_connect_burst_to_busy_handlers_is_answered():
    """64 clients connect at once while the listener accepts none of them
    (as when its thread waits for the interpreter lock) and every handler
    it later starts blocks: each connect completes in the listen backlog,
    and every client gets its answer."""
    clients = 64
    service = _BusyStats()
    server = make_server("127.0.0.1", 0, service)
    address = server.server_address[:2]
    connected = threading.Barrier(clients + 1)
    answers: list = []
    failures: list = []

    def client() -> None:
        try:
            sock = socket.create_connection(address, timeout=5)
        except OSError as error:
            failures.append(repr(error))
            connected.abort()
            return
        connection = http.client.HTTPConnection(*address, timeout=60)
        connection.sock = sock
        try:
            connected.wait()
            connection.request("GET", "/v1/stats")
            response = connection.getresponse()
            answers.append((response.status, json.loads(response.read())))
        except BaseException as error:  # noqa: BLE001
            failures.append(repr(error))
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    listener = threading.Thread(target=server.serve_forever, daemon=True)
    try:
        try:
            connected.wait(timeout=30)
        except threading.BrokenBarrierError:
            pass
        listener.start()
        time.sleep(0.2)  # the accepted handlers pile up on the busy service
        service.release.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        service.release.set()
        if listener.is_alive():
            server.shutdown()
        server.server_close()
    assert failures == []
    assert answers == [(200, {"ok": True})] * clients
