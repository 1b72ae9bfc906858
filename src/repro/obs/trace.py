"""Nested-span tracer with a JSONL export and a free no-op default.

A :class:`Tracer` produces *spans* — named, attributed intervals measured
on the monotonic clock — nested via a per-thread stack so instrumented
call sites never pass context explicitly.  Finished spans are appended,
under a lock, to an in-memory record list in *completion* order and
written out as one JSON object per line by :meth:`Tracer.export_jsonl`.

The process fan-out of independent systems (``--jobs`` on sweeps,
optimizer generations and fuzz campaigns) is handled by *adoption*:
worker processes run their own tracer, ship their finished records back
with the result, and the parent re-parents them under its fan-out span
(``batch.analyze``, say) with :meth:`Tracer.adopt`.  Because workers are
merged in submission order and ids are reassigned sequentially, the
merged span tree is deterministic — only the durations vary between
runs.

The default tracer is :data:`NULL_TRACER`: every ``span()`` returns one
shared no-op context manager and every ``event()`` is a single attribute
check, so instrumentation left in hot paths costs ~nothing when tracing
is off (measured < 5% on a kernel microloop; see ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

#: Bump when the JSONL record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Exact key set of every span record (pinned by the schema tests).
SPAN_RECORD_KEYS = frozenset(
    {"v", "type", "name", "id", "parent", "start_us", "dur_us", "attrs", "events"}
)


class ActiveSpan:
    """One live span: a context manager that records itself when it exits."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "attrs", "events")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: dict,
    ):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.events: list = []
        self.start = 0.0

    def __enter__(self) -> "ActiveSpan":
        self.tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self.tracer._pop(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._record(self._to_record(end))
        return False

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Attach a timestamped point event to the span."""
        at = time.perf_counter() - self.tracer._epoch
        self.events.append({"name": name, "at_us": round(at * 1e6), "attrs": attrs})

    def _to_record(self, end: float) -> dict:
        epoch = self.tracer._epoch
        return {
            "v": TRACE_SCHEMA_VERSION,
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_us": round((self.start - epoch) * 1e6),
            "dur_us": round((end - self.start) * 1e6),
            "attrs": self.attrs,
            "events": self.events,
        }


class _NullSpan:
    """Shared do-nothing stand-in for :class:`ActiveSpan` when tracing is off."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    __slots__ = ()
    enabled = False
    records: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def current_span(self) -> None:
        return None

    def adopt(self, records, parent_id=None) -> int:
        return 0

    def export_jsonl(self, path) -> int:
        return 0


NULL_TRACER = NullTracer()


class Tracer:
    """Collects nested spans; thread-safe, merged across processes by adoption."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._wall_epoch = time.time()
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        #: Finished span/event record dicts, in completion order.
        self.records: list[dict] = []

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: ActiveSpan) -> None:
        self._stack().append(span)

    def _pop(self, span: ActiveSpan) -> None:
        stack = self._stack()
        # Exits normally come in LIFO order; stay robust if a generator
        # or exception unwinds spans out of order.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def _record(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # -- public API ----------------------------------------------------
    def span(self, name: str, **attrs) -> ActiveSpan:
        """Open a span nested under the current thread's innermost span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return ActiveSpan(self, name, self._allocate_id(), parent_id, attrs)

    def current_span(self) -> Optional[ActiveSpan]:
        stack = self._stack()
        return stack[-1] if stack else None

    def event(self, name: str, **attrs) -> None:
        """Point event on the current span, or a standalone record if none."""
        span = self.current_span()
        if span is not None:
            span.event(name, **attrs)
            return
        at = time.perf_counter() - self._epoch
        self._record(
            {
                "v": TRACE_SCHEMA_VERSION,
                "type": "event",
                "name": name,
                "id": self._allocate_id(),
                "parent": None,
                "start_us": round(at * 1e6),
                "dur_us": 0,
                "attrs": attrs,
                "events": [],
            }
        )

    def adopt(self, records, parent_id: Optional[int] = None) -> int:
        """Merge records from another tracer (typically a worker process).

        Ids are reassigned sequentially in input order and intra-batch
        parent links are preserved; batch roots are re-parented under
        *parent_id*.  Called once per worker in submission order, this
        makes the merged span tree deterministic.
        """
        # Two passes: records arrive in completion order, so a nested
        # span's parent appears *after* it — ids must all be assigned
        # before any parent link is remapped.
        records = list(records)
        id_map = {record["id"]: self._allocate_id() for record in records}
        for record in records:
            fresh = dict(record)
            fresh["id"] = id_map[record["id"]]
            fresh["parent"] = id_map.get(record["parent"], parent_id)
            self._record(fresh)
        return len(records)

    def export_jsonl(self, path) -> int:
        """Write one meta line plus every record; returns the record count."""
        path = Path(path)
        with self._lock:
            records = list(self.records)
        lines = [
            json.dumps(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "type": "meta",
                    "wall_epoch": self._wall_epoch,
                    "pid": os.getpid(),
                    "records": len(records),
                },
                sort_keys=True,
            )
        ]
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
        path.write_text("\n".join(lines) + "\n")
        return len(records)


def read_trace(path) -> list[dict]:
    """Parse a JSONL trace back into record dicts (meta line excluded)."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") != "meta":
            records.append(record)
    return records
