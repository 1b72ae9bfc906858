"""How fast the host runs right now, from a fixed reference workload.

On a shared virtual machine the same analysis (the paper batch) took
anywhere from 1.1 to 2.0 CPU seconds from one minute to the next: the
host's other tenants share the hardware, and CPU time only leaves out the
time the CPU is handed to them.  :class:`HostSpeed` times a fixed piece
of pure-Python work that uses nothing from ``repro`` — random look-ups in
a table too large for the caches — every :data:`EVERY_S` CPU seconds of
the run, and :meth:`HostSpeed.factor` says how much slower than nominal
the host was.  Dividing a run's CPU times by that factor removes most of
the host's drift; a change to the program still moves them in full,
because the reference work does not run any of it.
"""

from __future__ import annotations

import gc
import statistics
from time import process_time

#: CPU seconds one :func:`reference_work` call takes on a quiet 2-core
#: x86-64 host; a factor of 1 means the host ran at that speed.
NOMINAL_S = 0.015
#: CPU seconds of measured work between two reference samples.
EVERY_S = 0.25
#: Reference samples taken around set-up.
SETUP_SAMPLES = 5

TABLE_SIZE = 200_000


def reference_table() -> dict:
    return {i: (i * 2654435761) & 0xFFFF for i in range(TABLE_SIZE)}


def reference_work(table: dict) -> int:
    """Fixed work: 20000 pseudo-random look-ups in *table*."""
    x = 12345
    total = 0
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x % TABLE_SIZE]
    return total


class HostSpeed:
    """Reference samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._table = reference_table()
        self._last = process_time()

    def sample(self) -> None:
        """Time one :func:`reference_work` call (with the cyclic garbage
        collector held off, so it never collects the program's heap)."""
        gc.disable()
        try:
            t0 = process_time()
            reference_work(self._table)
            self._last = process_time()
        finally:
            gc.enable()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Sample if :data:`EVERY_S` CPU seconds passed since the last one;
        call between operations, outside their timing."""
        if process_time() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start: int = 0) -> float:
        """Median time of the samples from index *start* on over
        :data:`NOMINAL_S` (above 1 when the host ran slower than nominal)."""
        if len(self.samples) <= start:
            self.sample()
        return statistics.median(self.samples[start:]) / NOMINAL_S
