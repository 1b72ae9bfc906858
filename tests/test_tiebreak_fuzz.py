"""Same-instant tie-breaking: heap queues vs the scan specification.

The equivalence contract (module comment in :mod:`repro.sched.simulator`)
says the heap queues are *observably identical* to the linear scans, with
"first in spec list order" as the tie-break of last resort.  Three layers
pin that here:

* **System level** — ``TaskSystem`` rejects duplicate priorities, so an
  equal-priority dispatch tie is unconstructible through the public API;
  the first test documents that as the contract's load-bearing premise.
* **Queue level** — equal-priority full ties *are* constructible against
  the queue classes directly; both implementations must resolve them to
  the first-pushed job (the scan's stable ``min``, the heap's sequence
  number).
* **Fuzz level** — seeded random systems engineered for coincident
  events: zero offsets (every task releases at t=0), periods sharing a
  base so boundaries collide, jitters that make distinct releases become
  ready at the same instant, context switches on and off, and runtimes
  long enough that one ``release_due`` batch spans several period
  boundaries.  Heap and scan must produce identical event streams, job
  records and end times.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import CacheConfig, CacheState
from repro.errors import ConfigError
from repro.program import SystemLayout
from repro.sched.simulator import (
    Simulator,
    TaskBinding,
    _HeapReadyQueue,
    _HeapReleaseQueue,
    _HeapWaitingQueue,
    _Job,
)
from repro.wcrt import TaskSpec, TaskSystem

from tests.conftest import make_streaming_program
from tests.oracles.scheduler import (
    ScanSimulator,
    _ScanReadyQueue,
    _ScanReleaseQueue,
    _ScanWaitingQueue,
)


def test_equal_priority_ties_are_unconstructible():
    """The dispatch tie-break never has to order equal priorities because
    TaskSystem (which every Simulator builds) rejects them outright."""
    with pytest.raises(ConfigError, match="duplicate priorities"):
        TaskSystem(
            tasks=[
                TaskSpec("a", wcet=5, period=50, priority=1),
                TaskSpec("b", wcet=5, period=50, priority=1),
            ]
        )


def _job(task: str, index: int = 0, release: int = 0, ready: int = 0,
         priority: int = 1) -> _Job:
    # The queues never touch the machine; a placeholder keeps these tests
    # free of VM setup.
    return _Job(task=task, index=index, release=release, ready=ready,
                priority=priority, machine=None)


class TestReadyQueueTieContract:
    def test_full_tie_resolves_to_first_pushed(self):
        """Identical (priority, release, index): the scan's stable min
        picks the earlier list entry; the heap's sequence number must
        agree."""
        for queue in (_HeapReadyQueue(), _ScanReadyQueue()):
            first, second = _job("a"), _job("b")
            queue.push(first)
            queue.push(second)
            assert queue.peek() is first, type(queue).__name__
            queue.remove(first)
            assert queue.peek() is second, type(queue).__name__

    def test_release_time_breaks_priority_ties_before_list_order(self):
        for queue in (_HeapReadyQueue(), _ScanReadyQueue()):
            late = _job("late", release=10, ready=10)
            early = _job("early", release=5, ready=10)
            queue.push(late)
            queue.push(early)  # pushed second, released earlier
            assert queue.peek() is early, type(queue).__name__


class TestWaitingQueueTieContract:
    def test_same_instant_handover_is_insertion_order(self):
        """Jobs becoming ready at the same instant must reach the ready
        queue in push order in both implementations (the heap re-sorts
        its pops by sequence number for exactly this reason)."""
        for queue in (_HeapWaitingQueue(), _ScanWaitingQueue()):
            jobs = [_job(f"t{i}", ready=7) for i in range(4)]
            for job in jobs:
                queue.push(job)
            assert queue.pop_due(7) == jobs, type(queue).__name__

    def test_pop_due_leaves_future_jobs(self):
        for queue in (_HeapWaitingQueue(), _ScanWaitingQueue()):
            due, future = _job("due", ready=3), _job("future", ready=9)
            queue.push(future)
            queue.push(due)
            assert queue.pop_due(5) == [due]
            assert queue.earliest() == 9


class TestReleaseQueueBatches:
    def _bindings(self):
        program = make_streaming_program("tie", words=4, reps=1)
        layout = SystemLayout().place(program)
        return {
            name: TaskBinding(
                spec=TaskSpec(name, wcet=1, period=period, priority=priority),
                layout=layout,
            )
            for name, period, priority in (("a", 10, 1), ("b", 15, 2))
        }

    def test_multi_boundary_batches_agree_after_time_sort(self):
        """A batch spanning several boundaries (the clock jumped while a
        job ran) may come out of the two queues in different raw orders —
        the scan walks per task, the heap walks per time — but the
        simulator's stable sort by event time must make the observable
        streams identical: time-ordered, declaration order at any single
        instant."""
        bindings = self._bindings()
        heap = _HeapReleaseQueue(bindings, horizon=31)
        scan = _ScanReleaseQueue(bindings, horizon=31)
        batches = (heap.pop_due(30), scan.pop_due(30))
        expected = [
            (0, "a"), (0, "b"), (10, "a"), (15, "b"), (20, "a"),
            (30, "a"), (30, "b"),
        ]
        for batch in batches:
            stable = sorted(
                [(t, name) for t, name, _ in batch], key=lambda item: item[0]
            )
            assert stable == expected
        assert heap.earliest() is None and scan.earliest() is None


CONFIG = CacheConfig(num_sets=8, ways=2, line_size=8, miss_penalty=10)


def _random_system(rng: random.Random):
    """2-3 tasks engineered for coincident instants: zero offsets, periods
    on a shared base, jitters that can collide distinct releases."""
    base = rng.choice((32, 64, 128))
    tasks = []
    for i in range(rng.randrange(2, 4)):
        words = rng.randrange(4, 17)
        program = make_streaming_program(f"t{i}", words=words, reps=1)
        period = base * rng.randrange(1, 5)
        jitter = rng.choice((0, 0, 1, base // 2, period - 2))
        tasks.append(
            TaskBinding(
                spec=TaskSpec(
                    f"t{i}", wcet=1, period=period, priority=i + 1,
                    jitter=min(jitter, period - 1),
                ),
                layout=SystemLayout().place(program),
                inputs={"data": list(range(words))},
            )
        )
    horizon = base * 8
    ccs = rng.choice((0, 0, 3))
    return tasks, horizon, ccs


@pytest.mark.parametrize("seed", range(25))
def test_fuzzed_tie_systems_heap_equals_scan(seed):
    rng = random.Random(f"tiebreak:{seed}")
    tasks, horizon, ccs = _random_system(rng)
    results = {}
    for impl, simulator_class in (("heap", Simulator), ("scan", ScanSimulator)):
        simulator = simulator_class(
            [
                TaskBinding(spec=b.spec, layout=b.layout, inputs=b.inputs)
                for b in tasks
            ],
            cache=CacheState(CONFIG),
            context_switch_cycles=ccs,
        )
        results[impl] = simulator.run(horizon)
    heap, scan = results["heap"], results["scan"]
    assert heap.events == scan.events
    assert heap.jobs == scan.jobs
    assert heap.end_time == scan.end_time
    assert heap.unfinished_jobs == scan.unfinished_jobs
