"""The three workloads: ``cold``, ``edit`` and ``serve``.

Each workload has ``setup()`` (input generation and warm-up, timed by the
runner), ``run(count, wall_limit_s, speed)`` (the measured loop over a
fixed number of operations, returning a :class:`Pass`, with a
``hostspeed.HostSpeed`` sampled between operations) and ``finish()``
(output checks that need extra analysis, plus cleanup).
:func:`op_count` turns a run's ``--seconds`` into that number, so every
seed runs the same amount of work however busy the host is.

Operations are timed in process CPU time (``time.process_time``: every
thread of the process, so serve's worker threads count while the client
waits); on a shared virtual machine wall time also counts the time the
host runs someone else.  Latencies of failed operations are ``inf``:
they miss every percentile and mean and add no work to a throughput.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import inputs
from checks import approach_order_ok, paper_ok

INF = math.inf


@dataclass
class Op:
    kind: str
    latency_s: float  # inf when the operation failed
    work: int = 1


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    #: Seconds the throughput divides by: CPU time inside the operations.
    busy_s: float = 0.0
    #: Wall time of the measured loop, generation and checks included.
    wall_s: float = 0.0
    #: Output-check mismatches (already counted as failed ops).
    mismatches: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.latency_s == INF)


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (``inf`` entries sort last, and a
    percentile that reaches one is ``inf``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[low] == ordered[high]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def op_count(workload, seconds: float) -> int:
    """Operations a run of *seconds* makes: whole blocks of the
    workload's input stream (each block carries the same mix for every
    seed), as many as take about *seconds* on a 2-core x86-64 host.  The
    count is fixed for every seed and host, so no metric depends on how
    fast the host happened to be."""
    return workload.block_ops() * max(1, round(seconds / workload.BLOCK_S))


def latency_ms(ops, q: float, kinds=None) -> float:
    return 1e3 * percentile(
        [op.latency_s for op in ops if kinds is None or op.kind in kinds], q
    )


#: Share of a class's operations :func:`trimmed_mean_ms` drops at each end.
TRIM = 0.2


def trimmed_mean_ms(ops, kinds=None) -> float:
    """Mean latency of the middle 60% of the operations of *kinds*.

    A class can mix clusters (edit's layout moves are half exp1, half
    exp2 moves, which cost differently); its median then sits on the gap
    between them and jumps with the seed, while this mean moves smoothly.
    Dropping the ends keeps a rare collector pause out of it."""
    ordered = sorted(
        op.latency_s for op in ops if kinds is None or op.kind in kinds
    )
    cut = int(TRIM * len(ordered))
    middle = ordered[cut:len(ordered) - cut]
    return 1e3 * sum(middle) / len(middle) if middle else 0.0


# ----------------------------------------------------------------------
# cold: closed loop, one task system at a time, no store
# ----------------------------------------------------------------------


class Cold:
    """Every user's first analysis of a task set: full 4-approach verdict
    from nothing.  Rounds of 16 operations (both paper experiments in one
    ``analyze_batch`` call, one generated system per size 2..16 through
    ``WhatIfSession``) run back to back."""

    name = "cold"
    #: Nominal CPU seconds of one block (see :func:`op_count`).
    BLOCK_S = 5.0

    def __init__(self, seed: int):
        self.seed = seed
        self._rounds: dict = {}

    def _round(self, index: int) -> list:
        if index not in self._rounds:
            self._rounds[index] = inputs.cold_round(self.seed, index)
        return self._rounds[index]

    @staticmethod
    def block_ops() -> int:
        """One round: the paper batch plus one system per size."""
        return 1 + len(inputs.SYSTEM_SIZES)

    def setup(self) -> None:
        from repro.analysis.whatif import WhatIfSession

        self._rounds = {}
        warm = self._round(0)
        self._round(1)
        smallest = min(
            (spec for kind, spec in warm if kind == "system"),
            key=lambda spec: len(spec.tasks),
        )
        WhatIfSession(smallest).result()

    def run(self, count: int, wall_limit_s: float, speed) -> Pass:
        import repro.batch.engine as engine
        from repro.analysis.whatif import WhatIfSession
        from repro.errors import ReproError
        from repro.experiments.setup import ALL_SPECS
        from repro.serve.protocol import point_payload, whatif_payload

        periods = {spec.key: spec.periods for spec in ALL_SPECS}
        result = Pass()
        started = perf_counter()
        for round_index in range(-(-count // self.block_ops())):
            for kind, item in self._round(round_index):
                if (len(result.ops) >= count
                        or perf_counter() - started >= wall_limit_s):
                    break
                if kind == "paper":
                    tasks = sum(len(periods[key]) for key in periods)
                    op_kind = "paper"
                else:
                    tasks = len(item.tasks)
                    op_kind = "small" if tasks <= 8 else "large"
                t0 = process_time()
                try:
                    if kind == "paper":
                        batch = engine.analyze_batch(
                            [engine.SweepPoint(key) for key in periods]
                        )
                        payload = {
                            point.point.experiment: point_payload(
                                point, periods[point.point.experiment]
                            )
                            for point in batch.results
                        }
                    else:
                        state = WhatIfSession(item).result()
                        payload = whatif_payload(state, "cold")
                except ReproError:
                    payload = None
                elapsed = process_time() - t0
                result.busy_s += elapsed
                if payload is not None:
                    ok = (all(paper_ok(key, payload[key]) for key in payload)
                          if kind == "paper"
                          else approach_order_ok(payload["lines"]))
                    result.mismatches += not ok
                else:
                    ok = False
                result.ops.append(Op(op_kind, elapsed if ok else INF, tasks))
                speed.tick()
            self._rounds.pop(round_index, None)
        result.wall_s = perf_counter() - started
        return result

    def finish(self, result: Pass) -> None:
        pass


# ----------------------------------------------------------------------
# edit: closed loop, one interactive client on two warm sessions
# ----------------------------------------------------------------------


class Edit:
    """An interactive client editing the two paper experiments: parameter
    edits, geometry edits and layout moves, each re-analysed
    incrementally by a warm ``WhatIfSession``."""

    name = "edit"
    #: Nominal CPU seconds of one block (see :func:`op_count`).
    BLOCK_S = 14.0

    def __init__(self, seed: int):
        self.seed = seed
        self.sessions: dict = {}

    def block_ops(self) -> int:
        return self.stream.block_size()

    def setup(self) -> None:
        from repro.analysis.whatif import WhatIfSession
        from repro.experiments.setup import ALL_SPECS

        experiments = {
            spec.key: (
                spec,
                {name: build().program for name, build in spec.builders.items()},
            )
            for spec in ALL_SPECS
        }
        self.sessions = {key: WhatIfSession(key) for key in experiments}
        self._seen = {}
        for key, session in self.sessions.items():
            self._remember(key, session, session.result())
        self.stream = inputs.EditStream(self.seed, experiments)

    def _remember(self, key, session, state) -> bool:
        """Record *state*'s signature; False if a revisit disagrees or the
        approach order is broken."""
        inputs_key = (
            key,
            state.config,
            tuple(sorted(state.periods.items())),
            session.layout_assignment(),
        )
        signature = state.signature()
        first = self._seen.setdefault(inputs_key, signature)
        return first == signature and approach_order_ok(
            json.loads(signature)["lines"]
        )

    def run(self, count: int, wall_limit_s: float, speed) -> Pass:
        from repro.errors import ReproError

        result = Pass()
        started = perf_counter()
        while (len(result.ops) < count
               and perf_counter() - started < wall_limit_s):
            key, kind, text = self.stream.next(self.sessions)
            session = self.sessions[key]
            t0 = process_time()
            try:
                state = session.apply(text)
            except ReproError:
                state = None
            elapsed = process_time() - t0
            result.busy_s += elapsed
            ok = state is not None and self._remember(key, session, state)
            result.mismatches += state is not None and not ok
            result.ops.append(Op(kind, elapsed if ok else INF))
            speed.tick()
        result.wall_s = perf_counter() - started
        return result

    def finish(self, result: Pass) -> None:
        """A cold session at each warm session's final state must give
        the byte-identical signature."""
        from repro.analysis.whatif import WhatIfSession

        for key, session in self.sessions.items():
            state = session.result()
            cold = WhatIfSession(
                key, cache=state.config, period_overrides=dict(state.periods)
            ).set_assignment(session.layout_assignment())
            if cold.signature() != state.signature():
                result.mismatches += 1
                result.ops.append(Op("check", INF))


# ----------------------------------------------------------------------
# serve: closed loop, one client of the in-process service
# ----------------------------------------------------------------------


class Serve:
    """One client of the in-process ``AnalysisService`` (2 worker
    threads, disk ``ArtifactStore`` in a scratch directory) sending ~70%
    warm point requests, ~15% repeated specs and ~15% fresh small specs,
    each after the previous reply."""

    name = "serve"
    #: Nominal CPU seconds of one block (see :func:`op_count`).
    BLOCK_S = 0.4

    @staticmethod
    def block_ops() -> int:
        return len(inputs.REQUEST_DECK)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._workdir_root = workdir
        self.service = None
        self._tmp = None
        self._fresh: dict = {}

    def _stop(self) -> None:
        if self.service is not None:
            self.service.shutdown(drain=True, timeout=120)
            self.service = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def setup(self) -> None:
        from repro.analysis.store import ArtifactStore
        from repro.serve.protocol import canonical_json
        from repro.serve.service import AnalysisService

        self._stop()
        self._workdir_root.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix="serve-", dir=self._workdir_root)
        self.service = AnalysisService(
            workers=2, store=ArtifactStore(directory=Path(self._tmp))
        ).start()
        self.points = inputs.point_bodies()
        self.repeated = [
            {"kind": "spec", "spec": spec.to_json()}
            for spec in inputs.repeated_specs(self.seed)
        ]
        self.expected: dict = {}
        for index, body in enumerate(self.points + self.repeated):
            job = self.service.submit(body)
            job.done.wait(120)
            self.expected[index] = (
                canonical_json(job.result) if job.state == "done" else None
            )

    def _references(self) -> int:
        """Mismatches between the warm-up payloads and direct cold
        computations (``analyze_batch`` without a store for the paper
        points at Cmiss=20, a fresh ``WhatIfSession`` per repeated spec)."""
        import repro.batch.engine as engine
        from repro.analysis.whatif import WhatIfSession
        from repro.experiments.setup import ALL_SPECS
        from repro.fuzz.spec import SystemSpec
        from repro.serve.protocol import (
            canonical_json,
            parse_request,
            point_payload,
            whatif_payload,
        )

        mismatches = 0
        periods = {spec.key: spec.periods for spec in ALL_SPECS}
        for index, body in enumerate(self.points):
            if body["miss_penalty"] != 20 or "geometry" in body:
                continue
            experiment = body["experiment"]
            batch = engine.analyze_batch([engine.SweepPoint(experiment)])
            payload = point_payload(batch.results[0], periods[experiment])
            mismatches += not paper_ok(experiment, payload)
            mismatches += canonical_json(payload) != self.expected[index]
        for offset, body in enumerate(self.repeated):
            label = parse_request(body).label
            state = WhatIfSession(SystemSpec.from_json(body["spec"])).result()
            payload = canonical_json(whatif_payload(state, label))
            mismatches += payload != self.expected[len(self.points) + offset]
        return mismatches

    def _body(self, kind: str, index: int) -> dict:
        if kind == "point":
            return self.points[index]
        if kind == "repeat":
            return self.repeated[index]
        if index not in self._fresh:
            spec = inputs.fresh_spec(self.seed, index)
            self._fresh[index] = {"kind": "spec", "spec": spec.to_json()}
        return self._fresh[index]

    def run(self, count: int, wall_limit_s: float, speed) -> Pass:
        from repro.errors import ShedError
        from repro.serve.protocol import canonical_json

        result = Pass()
        started = perf_counter()
        waits = []
        services = []
        shed = 0
        for kind, index in inputs.requests(self.seed):
            if (len(result.ops) >= count
                    or perf_counter() - started >= wall_limit_s):
                break
            body = self._body(kind, index)
            t0 = process_time()
            try:
                job = self.service.submit(body)
                job.done.wait(120)
            except ShedError:
                job = None
                shed += 1
            elapsed = process_time() - t0
            result.busy_s += elapsed
            ok = job is not None and job.state == "done"
            if ok:
                waits.append(job.started_at - job.submitted_at)
                services.append(job.finished_at - job.started_at)
                if kind == "fresh":
                    ok = approach_order_ok(job.result["lines"])
                else:
                    offset = 0 if kind == "point" else len(self.points)
                    ok = canonical_json(job.result) == self.expected[offset + index]
                result.mismatches += not ok
            result.ops.append(Op(kind, elapsed if ok else INF))
            speed.tick()
        result.wall_s = perf_counter() - started
        result.extra = {
            "serve.queue_wait_p50_ms": 1e3 * percentile(waits, 0.5),
            "serve.queue_wait_p95_ms": 1e3 * percentile(waits, 0.95),
            "serve.service_p50_ms": 1e3 * percentile(services, 0.5),
            "serve.service_p95_ms": 1e3 * percentile(services, 0.95),
            "serve.shed": shed,
        }
        return result

    def known_defect(self) -> str:
        """Send one wide overloaded system (kept out of the measured mix,
        where every operation must succeed) and describe the reply.

        A diverged Eq. 7 fixpoint grows to integers of hundreds of digits
        and ``Histogram.observe`` raises ``OverflowError`` from
        ``compute_task_wcrt`` once metrics are installed, as the service
        does, so today the reply is an ``error`` envelope."""
        body = {"kind": "spec", "spec": inputs.overload_spec(self.seed).to_json()}
        job = self.service.submit(body)
        job.done.wait(120)
        if job.state == "done":
            return "overloaded spec analysed (known defect no longer shows)"
        return f"overloaded spec -> {job.state}: {job.error}"

    def finish(self, result: Pass) -> None:
        try:
            mismatches = self._references()
            print(f"known defect: {self.known_defect()}")
        finally:
            self._stop()
        result.mismatches += mismatches
        result.ops += [Op("check", INF)] * mismatches
