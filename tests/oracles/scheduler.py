"""The linear-scan scheduler: the specification of the heap queues.

:class:`ScanSimulator` is :class:`~repro.sched.simulator.Simulator` on
the original list-backed queues.  The heap queues must be observably
identical to it (the tie-break contract in :mod:`repro.sched.simulator`);
the ``heap_vs_scan`` fuzz oracle, ``tests/test_perf_equivalence.py`` and
``tests/test_tiebreak_fuzz.py`` assert that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sched.simulator import Simulator

if TYPE_CHECKING:
    from repro.sched.simulator import TaskBinding, _Job


class _ScanReadyQueue:
    """Reference list-backed ready queue (the original linear scan)."""

    __slots__ = ("_jobs",)

    def __init__(self) -> None:
        self._jobs: list["_Job"] = []

    def push(self, job: "_Job") -> None:
        self._jobs.append(job)

    def peek(self) -> "_Job | None":
        if not self._jobs:
            return None
        return min(self._jobs, key=lambda job: (job.priority, job.release, job.index))

    def remove(self, job: "_Job") -> None:
        self._jobs.remove(job)

    def __len__(self) -> int:
        return len(self._jobs)


class _ScanWaitingQueue:
    """Reference list-backed waiting queue."""

    __slots__ = ("_jobs",)

    def __init__(self) -> None:
        self._jobs: list["_Job"] = []

    def push(self, job: "_Job") -> None:
        self._jobs.append(job)

    def pop_due(self, time: int) -> list["_Job"]:
        due = [job for job in self._jobs if job.ready <= time]
        for job in due:
            self._jobs.remove(job)
        return due

    def earliest(self) -> "int | None":
        if not self._jobs:
            return None
        return min(job.ready for job in self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)


class _ScanReleaseQueue:
    """Reference dict-of-next-release queue (the original while loops)."""

    __slots__ = ("_bindings", "_next", "horizon")

    def __init__(self, bindings: "dict[str, TaskBinding]", horizon: int) -> None:
        self._bindings = bindings
        self._next = {name: binding.offset for name, binding in bindings.items()}
        self.horizon = horizon

    def pop_due(self, time: int) -> list[tuple[int, str, "TaskBinding"]]:
        due = []
        for name, binding in self._bindings.items():
            while self._next[name] <= time and self._next[name] < self.horizon:
                due.append((self._next[name], name, binding))
                self._next[name] += binding.spec.period
        return due

    def earliest(self) -> "int | None":
        pending = [t for t in self._next.values() if t < self.horizon]
        return min(pending) if pending else None


class ScanSimulator(Simulator):
    """The simulator on the original linear-scan queues (reference only)."""

    def _queues(self, horizon: int):
        return (
            _ScanReadyQueue(),
            _ScanWaitingQueue(),
            _ScanReleaseQueue(self.bindings, horizon),
        )
