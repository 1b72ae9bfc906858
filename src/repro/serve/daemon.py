"""Stdlib HTTP shell over :class:`~repro.serve.service.AnalysisService`.

Endpoints (all JSON, UTF-8; see ``docs/serving.md``):

* ``POST /v1/analyze`` — submit a system; 202 with a queued envelope,
  or — when the body carries ``"wait": true`` — block (up to
  ``"timeout"`` seconds, default 30) and answer with the finished
  envelope and its taxonomy-mapped status.
* ``GET /v1/jobs/<id>`` — the job's current envelope: 202 while queued,
  200 while running or done, the taxonomy status once failed, 410 once
  evicted past retention, 404 for an unknown id.
* ``POST /v1/compare`` — ``{"left": "<job>", "right": "<job>"}``; 200
  with the compare report, 404/409 for unknown/unfinished jobs.
* ``GET /v1/stats`` — server counters; ``GET /v1/health`` — liveness.

The server is a ``ThreadingHTTPServer``: handler threads do admission
and waiting, the service's worker threads do the analysis.  SIGTERM and
SIGINT stop the listener and then drain the service — every job already
queued completes, which is what makes ``--trace-out`` exports from a
terminated daemon complete rather than torn.

Client identity for quota purposes is the ``X-Client`` header
(``"anon"`` when absent) — deliberately trust-based, like the rest of
the tooling: quotas here are about fairness between cooperating
clients, not security.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.service import AnalysisService

__all__ = ["run_daemon", "make_server"]

#: Longest a single ``wait=true`` submit may block, seconds.
MAX_WAIT_SECONDS = 300.0

#: Largest request body accepted, in bytes; a larger declared
#: ``Content-Length`` is refused with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Longest one socket read or write on a connection may block, seconds.
#: A client that stalls mid-request (or idles on a kept-alive
#: connection) this long is disconnected, so it cannot pin a handler
#: thread; waiting for a job (``wait=true``) is not a socket read.
READ_TIMEOUT_SECONDS = 30.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Applied to the connection socket by StreamRequestHandler.setup();
    # a read that times out closes the connection.
    timeout = READ_TIMEOUT_SECONDS

    # The service is attached to the server object by make_server().
    @property
    def service(self) -> AnalysisService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "repro-serve: %s %s\n" % (self.address_string(), format % args)
            )

    # -- helpers -------------------------------------------------------
    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        """``(body, None)``, or ``(None, (status, message))`` on refusal."""
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused
            # for another request.
            self.close_connection = True
            if length < 0:
                return None, (400, f"malformed Content-Length header {header!r}")
            return None, (
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None, (400, "empty request body")
        try:
            return json.loads(raw), None
        except json.JSONDecodeError as error:
            return None, (400, f"request body is not valid JSON: {error}")

    def _client(self) -> str:
        return self.headers.get("X-Client") or "anon"

    def _bad_request(self, message: str, status: int = 400) -> None:
        from repro.serve.protocol import envelope

        self._send_json(
            status,
            envelope(
                job=None,
                client=self._client(),
                kind="",
                state="error",
                error_kind="config",
                error=message,
            ),
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/v1/health":
            self._send_json(200, {"ok": True})
            return
        if self.path == "/v1/stats":
            self._send_json(200, self.service.stats())
            return
        if self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            status, payload = self.service.status_envelope(job_id)
            self._send_json(status, payload)
            return
        self._bad_request(f"unknown path {self.path!r}")

    def do_POST(self) -> None:
        if self.path == "/v1/analyze":
            body, error = self._read_body()
            if error is not None:
                self._bad_request(error[1], status=error[0])
                return
            status, payload = self.service.submit_envelope(
                body, client=self._client()
            )
            wait = isinstance(body, dict) and bool(body.get("wait"))
            if status == 202 and wait:
                timeout = min(
                    float(body.get("timeout") or 30.0), MAX_WAIT_SECONDS
                )
                self.service.wait(payload["job"], timeout=timeout)
                status, payload = self.service.status_envelope(payload["job"])
            self._send_json(status, payload)
            return
        if self.path == "/v1/compare":
            body, error = self._read_body()
            if error is not None:
                self._bad_request(error[1], status=error[0])
                return
            if not isinstance(body, dict) or "left" not in body or "right" not in body:
                self._bad_request("compare body needs 'left' and 'right' job ids")
                return
            status, payload = self.service.compare(
                str(body["left"]), str(body["right"])
            )
            self._send_json(status, payload)
            return
        self._bad_request(f"unknown path {self.path!r}")


class _Server(ThreadingHTTPServer):
    request_queue_size = 128  # socketserver's 5 refuses bursts of clients
    daemon_threads = True


def make_server(
    host: str, port: int, service: AnalysisService, verbose: bool = False
) -> ThreadingHTTPServer:
    """A bound (not yet serving) threaded HTTP server over *service*."""
    server = _Server((host, port), _Handler)
    server.service = service
    server.verbose = verbose
    return server


def run_daemon(
    host: str,
    port: int,
    service: AnalysisService,
    *,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    stop: Optional[threading.Event] = None,
    install_signals: bool = True,
) -> int:
    """Serve until SIGTERM/SIGINT (or *stop*), then drain and exit 0.

    Prints ``serving on http://host:port`` (the *bound* port — pass
    ``port=0`` to let the OS pick) so wrappers can parse the address.
    The listener runs on a background thread; the calling thread parks
    on the stop event, which the signal handlers set — that keeps
    ``server.shutdown()`` off the serving thread, where it would
    deadlock.
    """
    service.start()
    server = make_server(host, port, service, verbose=verbose)
    stop_event = stop if stop is not None else threading.Event()
    if install_signals:

        def _handle(signum, frame):
            stop_event.set()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
    listener = threading.Thread(
        target=server.serve_forever, name="serve-listener", daemon=True
    )
    listener.start()
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        stop_event.wait()
    finally:
        server.shutdown()
        server.server_close()
        listener.join(timeout=5)
        service.shutdown(drain=True)
    print("drained and stopped", flush=True)
    return 0
