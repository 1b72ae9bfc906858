"""Counters, gauges and fixed-boundary histograms, exported as JSON.

A :class:`Metrics` registry hands out named instruments on first use and
serialises the whole collection with :meth:`Metrics.to_dict` /
:meth:`Metrics.export_json`.  Worker processes ship their registry
snapshot back with their results and the parent folds it in with
:meth:`Metrics.merge` — counters add, gauges keep the latest write,
histograms add bucket-wise (boundaries must match).

Histograms use *fixed* bucket boundaries chosen at creation: ``bounds``
of length N produce N+1 buckets (value <= bounds[0], ..., value >
bounds[-1]), so bucket counts from different processes are always
mergeable and the JSON shape never depends on the data.

The disabled default is :data:`NULL_METRICS`, whose instruments are
shared do-nothing objects — instrumentation guarded by the obs enabled
flag pays one branch when metrics are off.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Bump when the exported JSON layout changes incompatibly.
METRICS_SCHEMA_VERSION = 1

#: Default histogram boundaries: roughly logarithmic, good for counts.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value) -> None:
        self.value = value


def _add(total, value):
    """``total + value``, exact while both are ints.

    Eq. 7 deltas of a diverged fixpoint grow to ints of hundreds of
    digits; mixing one with a float would raise ``OverflowError``, so the
    float sum saturates to an infinity instead.
    """
    try:
        return total + value
    except OverflowError:
        big, small = (total, value) if isinstance(total, int) else (value, total)
        return small if math.isinf(small) else math.inf if big > 0 else -math.inf


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max summary.

    The sum stays an exact int while every observation is one.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total = _add(self.total, value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every instrument is a shared no-op."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def to_dict(self) -> dict:
        return {}

    def merge(self, snapshot) -> None:
        pass

    def export_json(self, path) -> None:
        pass


NULL_METRICS = NullMetrics()


class Metrics:
    """Registry of named instruments; create-or-get, export, merge."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, bounds)
                )
        return instrument

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every instrument (stable key order)."""
        return {
            "v": METRICS_SCHEMA_VERSION,
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) into this one."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, tuple(data["bounds"]))
            if histogram.bounds != tuple(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge mismatched bounds"
                )
            for index, count in enumerate(data["counts"]):
                histogram.bucket_counts[index] += count
            histogram.count += data["count"]
            histogram.total = _add(histogram.total, data["sum"])
            for side, pick in (("min", min), ("max", max)):
                value = data[side]
                if value is not None:
                    current = getattr(histogram, side)
                    setattr(
                        histogram,
                        side,
                        value if current is None else pick(current, value),
                    )

    def export_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")
