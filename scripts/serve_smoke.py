#!/usr/bin/env python
"""End-to-end smoke of the ``repro serve`` daemon for CI.

Boots the real CLI daemon as a subprocess (OS-picked port, tracing and
metrics exports on), runs two concurrent clients through the full
protocol — health, concurrent ``wait=true`` submits at two miss
penalties, a ``/v1/compare`` round-trip, ``/v1/stats`` — then sends
SIGTERM and verifies the drain: exit code 0, the ``drained and
stopped`` banner, and flushed, parseable trace/metrics exports.  Each
served ``result`` must also be byte-identical (canonical JSON) to the
same point analysed in-process through ``analyze_batch`` and
``point_payload``, the identity docs/serving.md promises.

Artifacts (``serve-trace.jsonl``, ``serve-metrics.json``,
``serve-compare.json``) are left in the working directory for the CI
job to upload.

Exit codes: 0 ok, 1 any protocol or drain failure.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
TRACE_PATH = Path("serve-trace.jsonl")
METRICS_PATH = Path("serve-metrics.json")
COMPARE_PATH = Path("serve-compare.json")


def fail(message: str) -> None:
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(port: int, method: str, path: str, body=None, client="smoke"):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        connection.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"X-Client": client},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--trace-out",
            str(TRACE_PATH.resolve()),
            "--metrics-out",
            str(METRICS_PATH.resolve()),
            "serve",
            "--port",
            "0",
            "--serve-workers",
            "2",
        ],
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            fail(f"unexpected banner: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        print(f"serve_smoke: daemon up on port {port}")

        status, health = request(port, "GET", "/v1/health")
        if status != 200 or health != {"ok": True}:
            fail(f"health: {status} {health}")

        # Two concurrent clients, two penalties; both block to done.
        envelopes: dict = {}
        errors: list = []

        penalties = {"client-a": 10, "client-b": 40}

        def client(name: str, penalty: int) -> None:
            try:
                status, payload = request(
                    port,
                    "POST",
                    "/v1/analyze",
                    {
                        "kind": "point",
                        "experiment": "exp1",
                        "miss_penalty": penalty,
                        "wait": True,
                        "timeout": 240,
                    },
                    client=name,
                )
                if status != 200 or payload["state"] != "done":
                    raise RuntimeError(f"{name}: {status} {payload}")
                envelopes[name] = payload
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(f"{name}: {error!r}")

        threads = [
            threading.Thread(target=client, args=item)
            for item in penalties.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        if errors:
            fail("; ".join(errors))
        for name, payload in envelopes.items():
            store = payload["store"]
            if store["gets"] != store["hits"] + store["misses"]:
                fail(f"{name}: store counts dishonest: {store}")
        print(
            "serve_smoke: 2 concurrent clients done "
            f"(jobs {sorted(e['job'] for e in envelopes.values())})"
        )

        from repro.batch.engine import SweepPoint, analyze_batch
        from repro.serve.protocol import canonical_json, point_payload

        for name, penalty in penalties.items():
            point = SweepPoint(experiment="exp1", miss_penalty=penalty)
            direct = canonical_json(
                point_payload(analyze_batch([point]).results[0])
            )
            if canonical_json(envelopes[name]["result"]) != direct:
                fail(f"{name}: served result differs from the in-process run")
        print("serve_smoke: served results byte-identical to in-process runs")

        status, compare = request(
            port,
            "POST",
            "/v1/compare",
            {
                "left": envelopes["client-a"]["job"],
                "right": envelopes["client-b"]["job"],
            },
        )
        if status != 200:
            fail(f"compare: {status} {compare}")
        if not any(compare["wcet_delta"]["common"].values()):
            fail(f"compare shows no WCET movement: {compare['wcet_delta']}")
        COMPARE_PATH.write_text(json.dumps(compare, indent=2) + "\n")
        print(
            "serve_smoke: compare ok "
            f"({compare['left']} vs {compare['right']})"
        )

        status, stats = request(port, "GET", "/v1/stats")
        if status != 200 or stats["jobs"].get("done") != 2:
            fail(f"stats: {status} {stats}")

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=300)
        if process.returncode != 0:
            fail(f"daemon exit {process.returncode}: {stderr[-2000:]}")
        if "drained and stopped" not in stdout:
            fail(f"no drain banner in stdout: {stdout!r}")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)

    # The exports must be flushed and parseable after the drain.
    records = [
        json.loads(line)
        for line in TRACE_PATH.read_text().splitlines()
        if line.strip()
    ]
    names = {record.get("name") for record in records}
    if "serve.request" not in names or "serve.job" not in names:
        fail(f"trace missing serve spans: {sorted(filter(None, names))[:20]}")
    registry = json.loads(METRICS_PATH.read_text())
    if registry["counters"].get("serve.jobs.done") != 2:
        fail(f"metrics counters wrong: {registry['counters']}")
    print(
        f"serve_smoke: OK ({len(records)} trace records, "
        f"{len(registry['counters'])} counters)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
