"""Cycle-level preemptive fixed-priority scheduler simulator.

This is the reproduction's stand-in for the paper's Seamless CVE + Atalanta
RTOS testbed (Figure 5): periodic tasks run on one processor behind a
*shared* LRU cache, a fixed-priority preemptive dispatcher interleaves
them, and every context switch costs a constant ``Ccs`` cycles (the WCET
of the non-preemptible switch routine, Example 6).  Because the cache
carries state across preemptions, the measured response times genuinely
include cache reload misses — these are the paper's Actual Response Times
(the ART columns of Tables III and V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.cache.state import CacheState
from repro.errors import ConfigError, SimulationError
from repro.obs import STATE as _OBS
from repro.program.layout import ProgramLayout
from repro.sched.events import EventKind, JobRecord, SchedulerEvent
from repro.vm.machine import Machine
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.guard.budget import AnalysisBudget


@dataclass
class TaskBinding:
    """Couples a task's scheduling parameters to its executable program.

    ``offset`` phases the task: job *k* is nominally released at
    ``offset + k * period``.  Zero offsets for every task give the
    critical-instant scenario the WCRT analysis assumes.
    """

    spec: TaskSpec
    layout: ProgramLayout
    inputs: dict[str, list[int]] = field(default_factory=dict)
    offset: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ConfigError(f"{self.spec.name}: offset must be >= 0")


@dataclass
class _Job:
    task: str
    index: int
    release: int  # nominal release (period boundary)
    ready: int  # release + this job's jitter
    priority: int
    machine: Machine
    preemptions: int = 0
    started: bool = False


def _jitter_offset(max_jitter: int, job_index: int) -> int:
    """Deterministic per-job jitter in ``[0, max_jitter]`` (Weyl sequence)."""
    if max_jitter == 0:
        return 0
    return (job_index * 2654435761) % (max_jitter + 1)


# ----------------------------------------------------------------------
# Scheduler queues: O(log n) heaps.  The original linear scans survive as
# the executable specification in ``tests/oracles/scheduler.py``;
# the heap_vs_scan oracle and the equivalence tests assert both produce
# identical event streams.
#
# Tie-breaking contract (what makes the heaps observably identical to the
# scans): the ready queue orders by (priority, release, index) exactly as
# ``min`` did, with a monotone sequence number standing in for "first in
# list order" on full ties; the release queue orders same-instant releases
# by task declaration order, which is where the scan's per-binding loop
# put them after the final stable sort by time.
# ----------------------------------------------------------------------
class _HeapReadyQueue:
    """Priority-ordered ready jobs: O(log n) push/pop, O(1) peek."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, job: "_Job") -> None:
        heappush(
            self._heap,
            (job.priority, job.release, job.index, self._seq, job),
        )
        self._seq += 1

    def peek(self) -> "_Job | None":
        return self._heap[0][4] if self._heap else None

    def remove(self, job: "_Job") -> None:
        if self._heap and self._heap[0][4] is job:
            heappop(self._heap)
            return
        # Unreachable through the dispatch protocol (only the minimum is
        # ever dispatched), but stay correct if that invariant moves.
        self._heap = [entry for entry in self._heap if entry[4] is not job]
        heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class _HeapWaitingQueue:
    """Released but jitter-delayed jobs, ordered by when they become ready."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, job: "_Job") -> None:
        heappush(self._heap, (job.ready, self._seq, job))
        self._seq += 1

    def pop_due(self, time: int) -> list["_Job"]:
        due: list = []
        while self._heap and self._heap[0][0] <= time:
            due.append(heappop(self._heap))
        # Hand jobs over in insertion order (the scan walked its list),
        # not readiness order, so ready-queue tie-breaking is unchanged.
        due.sort(key=lambda entry: entry[1])
        return [entry[2] for entry in due]

    def earliest(self) -> "int | None":
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class _HeapReleaseQueue:
    """Upcoming period boundaries of every task, as a single time heap."""

    __slots__ = ("_heap", "horizon")

    def __init__(self, bindings: "dict[str, TaskBinding]", horizon: int) -> None:
        self._heap: list = []
        for order, (name, binding) in enumerate(bindings.items()):
            if binding.offset < horizon:
                self._heap.append((binding.offset, order, name, binding))
        heapify(self._heap)
        self.horizon = horizon

    def pop_due(self, time: int) -> list[tuple[int, str, "TaskBinding"]]:
        due = []
        while self._heap and self._heap[0][0] <= time:
            release_time, order, name, binding = heappop(self._heap)
            due.append((release_time, name, binding))
            next_time = release_time + binding.spec.period
            if next_time < self.horizon:
                heappush(self._heap, (next_time, order, name, binding))
        return due

    def earliest(self) -> "int | None":
        return self._heap[0][0] if self._heap else None


@dataclass
class SimulationResult:
    """Outcome of one scheduler run."""

    jobs: list[JobRecord]
    events: list[SchedulerEvent]
    end_time: int
    unfinished_jobs: int

    def response_times(self, task: str) -> list[int]:
        return [job.response_time for job in self.jobs if job.task == task]

    def actual_response_time(self, task: str) -> int:
        """ART: the maximum observed response time of *task*."""
        times = self.response_times(task)
        if not times:
            raise ConfigError(f"task {task!r} completed no jobs")
        return max(times)

    def deadline_misses(self) -> list[JobRecord]:
        return [job for job in self.jobs if not job.met_deadline]

    def preemption_count(self, task: str) -> int:
        return sum(job.preemptions for job in self.jobs if job.task == task)


class Simulator:
    """Preemptive FPS simulation of several tasks over a shared cache.

    Args:
        bindings: the tasks to run (periods/priorities from their specs).
        cache: the shared L1 cache; pass a fresh one for a cold start.
        context_switch_cycles: ``Ccs``; charged on every dispatch that
            changes the running job (twice per preemption: once switching
            to the preempting job, once resuming the preempted one).  The
            switch from idle is free, matching Equation 7 which charges
            switches only against preempting jobs.
    """

    def __init__(
        self,
        bindings: list[TaskBinding],
        cache: CacheState,
        context_switch_cycles: int = 0,
    ):
        if not bindings:
            raise ConfigError("no tasks to simulate")
        names = [binding.spec.name for binding in bindings]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate task names: {names}")
        self.bindings = {binding.spec.name: binding for binding in bindings}
        self.system = TaskSystem(tasks=[binding.spec for binding in bindings])
        self.cache = cache
        self.ccs = context_switch_cycles
        if self.ccs < 0:
            raise ConfigError("context_switch_cycles must be >= 0")
        # Per-task data memory persists across jobs, like static task data.
        self._memories: dict[str, dict[int, int]] = {name: {} for name in names}

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: int,
        max_steps: int = 50_000_000,
        max_events: int | None = None,
        budget: "AnalysisBudget | None" = None,
    ) -> SimulationResult:
        """Simulate from t=0 (the critical instant when offsets are zero).

        Jobs are released every period (phased by each binding's offset)
        until *horizon*; the run continues past the horizon only to drain
        jobs already released.  Returns the job records, the event stream
        and the end time.

        ``max_steps`` and ``max_events`` bound the simulation; exceeding
        either raises a typed :class:`SimulationError` (measurement has no
        sound partial substitute).  A *budget* supplies both caps from its
        ``max_sim_steps`` / ``max_sim_events`` axes.
        """
        if horizon <= 0:
            raise ConfigError("horizon must be positive")
        if budget is not None:
            max_steps = min(max_steps, budget.max_sim_steps)
            if budget.max_sim_events is not None:
                max_events = (
                    budget.max_sim_events
                    if max_events is None
                    else min(max_events, budget.max_sim_events)
                )
        with _OBS.tracer.span("sim.run", horizon=horizon) as span:
            result = self._run(horizon, max_steps, max_events, span)
        return result

    def _queues(self, horizon: int):
        """The (ready, waiting, release) queues for one run."""
        return (
            _HeapReadyQueue(),
            _HeapWaitingQueue(),
            _HeapReleaseQueue(self.bindings, horizon),
        )

    def _run(
        self,
        horizon: int,
        max_steps: int,
        max_events: "int | None",
        span,
    ) -> SimulationResult:
        time = 0
        steps = 0
        queue_ops = 0
        preempt_count = 0
        events: list[SchedulerEvent] = []
        records: list[JobRecord] = []
        ready, waiting, releases = self._queues(horizon)
        job_counter = {name: 0 for name in self.bindings}
        running: _Job | None = None

        def release_due() -> None:
            nonlocal queue_ops
            for release_time, name, binding in releases.pop_due(time):
                job = self._make_job(binding, job_counter[name], release_time)
                job_counter[name] += 1
                waiting.push(job)
                queue_ops += 1
                events.append(
                    SchedulerEvent(release_time, EventKind.RELEASE, name, job.index)
                )
            for job in waiting.pop_due(time):
                ready.push(job)
                queue_ops += 1

        def earliest_release() -> int | None:
            candidates = [
                t for t in (releases.earliest(), waiting.earliest()) if t is not None
            ]
            return min(candidates) if candidates else None

        pick = ready.peek

        dispatched_before = False
        while True:
            release_due()
            job = pick()
            if job is None and running is None:
                upcoming = earliest_release()
                if upcoming is None:
                    break
                events.append(SchedulerEvent(time, EventKind.IDLE, "<idle>", -1))
                time = upcoming
                continue

            if running is not None:
                if job is None or job.priority >= running.priority:
                    job = running  # keep running; nothing preempts it
                else:
                    running.preemptions += 1
                    preempt_count += 1
                    events.append(
                        SchedulerEvent(
                            time, EventKind.PREEMPT, running.task, running.index
                        )
                    )
                    ready.push(running)
                    queue_ops += 1
                    running = None

            if running is None:
                assert job is not None
                ready.remove(job)  # always the minimum: O(log n) on the heap
                queue_ops += 1
                if self.ccs and dispatched_before:
                    events.append(
                        SchedulerEvent(
                            time, EventKind.CONTEXT_SWITCH, job.task, job.index
                        )
                    )
                    time += self.ccs
                kind = EventKind.RESUME if job.started else EventKind.START
                events.append(SchedulerEvent(time, kind, job.task, job.index))
                job.started = True
                dispatched_before = True
                running = job

            # Run the job until completion, preemption or horizon drain.
            while True:
                result = running.machine.step()
                time += result.cycles
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"simulation exceeded {max_steps} steps at t={time}"
                    )
                if max_events is not None and len(events) > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} scheduler events "
                        f"at t={time}"
                    )
                if result.halted:
                    spec = self.bindings[running.task].spec
                    deadline = running.release + spec.effective_deadline
                    record = JobRecord(
                        task=running.task,
                        job=running.index,
                        release_time=running.release,
                        completion_time=time,
                        preemptions=running.preemptions,
                        deadline=deadline,
                    )
                    records.append(record)
                    events.append(
                        SchedulerEvent(
                            time, EventKind.COMPLETE, running.task, running.index
                        )
                    )
                    if not record.met_deadline:
                        events.append(
                            SchedulerEvent(
                                time,
                                EventKind.DEADLINE_MISS,
                                running.task,
                                running.index,
                            )
                        )
                    running = None
                    break
                release_due()
                contender = pick()
                if contender is not None and contender.priority < running.priority:
                    break  # preemption handled at the top of the outer loop

        # Releases are stamped with their nominal time but may be appended
        # after later events (discovered once the clock passed them); a
        # stable sort restores global time order without disturbing the
        # logical order of same-instant events.
        events.sort(key=lambda event: event.time)
        if _OBS.enabled:
            span.set(
                end_time=time,
                steps=steps,
                events=len(events),
                preemptions=preempt_count,
            )
            metrics = _OBS.metrics
            metrics.counter("sim.runs").inc()
            metrics.counter("sim.steps").inc(steps)
            metrics.counter("sim.events").inc(len(events))
            metrics.counter("sim.preemptions").inc(preempt_count)
            metrics.counter("sim.queue_ops").inc(queue_ops)
        return SimulationResult(
            jobs=records,
            events=events,
            end_time=time,
            unfinished_jobs=len(ready)
            + len(waiting)
            + (1 if running is not None else 0),
        )

    # ------------------------------------------------------------------
    def _make_job(self, binding: TaskBinding, index: int, release: int) -> _Job:
        memory = self._memories[binding.spec.name]
        machine = Machine(
            layout=binding.layout,
            cache=self.cache,
            memory=memory,
        )
        # (Re-)initialise the task's inputs at each release so every job
        # takes the same path regardless of what the previous job wrote.
        for array, values in binding.inputs.items():
            machine.write_array(array, values)
        return _Job(
            task=binding.spec.name,
            index=index,
            release=release,
            ready=release + _jitter_offset(binding.spec.jitter, index),
            priority=binding.spec.priority,
            machine=machine,
        )


