"""Content-addressed cache of analysis results, decomposed by stage.

Analysing a task — simulating every scenario, solving the RMB/LMB
dataflow, enumerating paths — is the dominant cost of every experiment
run.  Schema 1 of this store cached the *finished* ``TaskArtifacts``
bundle under one monolithic key, so changing any input (a different miss
penalty, a different set count) recomputed everything from scratch even
though most stages never read the changed input.

Schema 2 decomposes the result into **sub-artifacts**, each keyed only by
the inputs its stage actually reads.  Schema 3 takes the placement out of
the trace and path keys.  Traces live here alone: analysis results never
carry them.

========  =============================================================
kind      key inputs
========  =============================================================
trace     program structure + scenarios digest (memoised per program,
          the one the task key hashes too) + ``max_steps`` — the VM's
          control flow is data-dependent, so the memory-reference stream
          and the cache-cost-free base cycles are invariant across
          *every* cache configuration; no address ever feeds back into
          control flow either, so the stream is invariant across
          placements up to a per-region shift (the bundle records each
          event's region and the placement it ran at, and is read at
          another placement through its :meth:`TraceBundle.view`)
sim       trace key + placement + ``num_sets, ways, line_size, policy,
          write_back`` — per-scenario access/miss/writeback counts and
          the trace's base cycles; cycle counts reassemble from these in
          O(1) for any cost parameters, so a sim and flow hit reads no
          trace
flow      trace key + placement + ``num_sets, ways, line_size, policy`` —
          the RMB/LMB solution (whose bits name the footprint, grouped
          by cache set, and each node's blocks) and useful-block
          analysis (cost fields are re-stamped on reuse)
paths     program structure + ``path_limit, strict`` — feasible path
          profiles, fully cache- and placement-independent
pair      both tasks' flow/paths keys + ``mumbs_mode, exact_paths,
          strict`` — the four per-pair reload-line counts
task      composite of everything (in-memory assembly memo only)
========  =============================================================

"Placement" is the code base and every resolved array base, packed or
pinned.  A miss-penalty sweep therefore recomputes *nothing* but the
pair/task assembly; a geometry sweep re-runs only the set-index-dependent
kernels (sim replay + flow) against the cached trace; and a layout move
re-runs the same kernels for the moved task only, against its trace's
block view — never the VM.

Every key additionally covers ``SCHEMA_VERSION`` and a fingerprint of the
installed ``repro`` source code, so editing any module of this package
automatically invalidates prior entries — a stale-cache bug can never
survive a code change.  On disk each entry is wrapped in a
:class:`StoredEntry` envelope carrying its schema and kind; an entry that
unpickles to anything else (e.g. a schema-1 ``CachedAnalysis`` written by
an older version, or a foreign pickle) is a *stale* counted miss
(``ArtifactStore.stale`` / ``store.stale`` metric): the row is deleted
so the slot heals on the next put, never an error.  Unreadable bytes are
likewise a counted miss (``ArtifactStore.corrupt`` / ``store.corrupt``),
and so is a database file SQLite cannot read (garbage, truncated): it is
removed and recreated empty.

Degradation events recorded while a sub-artifact was first computed are
stored alongside it and replayed into the caller's ledger on every hit,
so a cached run reports the identical soundness status as a cold one.

The store is two-level: a per-process LRU of deserialised payloads and
one SQLite table of pickled entries, ``entries(key, payload)`` in
``<directory>/store.sqlite3`` (directory default ``~/.cache/repro``,
override with ``REPRO_CACHE_DIR``, disable with ``REPRO_NO_CACHE=1`` or
``--no-cache``).  A put is one ``INSERT OR REPLACE`` in autocommit, a
get one ``SELECT``; the database runs in WAL mode, so the processes of a
``--jobs`` sweep or a ``serve`` daemon share one file, each through its
own connection.  The disk tier is best-effort: a failed SQLite statement
is a counted miss or a dropped put, never an error.  The ``*.pkl`` files
of the one-file-per-entry layout before it are never read (a cold miss,
as after any schema change) and may be deleted.  Statistics are kept
per instance, overall and per kind, and the honesty invariant
``gets == hits + misses`` is preserved: every lookup — including the
memory-only ``task`` assembly memo — is counted exactly once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.analysis.wcet import Scenarios
from repro.cache.config import CacheConfig
from repro.obs import STATE as _OBS
from repro.program.builder import Program
from repro.program.layout import ProgramLayout
from repro.vm.trace import CompactTrace, TraceView

if TYPE_CHECKING:
    from repro.analysis.artifacts import TaskArtifacts
    from repro.analysis.rmb_lmb import RMBLMBResult
    from repro.analysis.useful import UsefulBlocksAnalysis
    from repro.guard.ledger import DegradationEvent
    from repro.program.paths import PathProfile

__all__ = [
    "ArtifactStore",
    "CachedAnalysis",
    "DATABASE_NAME",
    "FlowBundle",
    "PairLines",
    "PathsBundle",
    "SCHEMA_VERSION",
    "SimBundle",
    "StoredEntry",
    "TraceBundle",
    "artifact_key",
    "default_store",
    "flow_key",
    "pair_key",
    "paths_key",
    "sim_key",
    "structure_digest",
    "trace_key",
]

#: Bump whenever the pickled entry layout changes incompatibly.
#: Schema 1 stored monolithic ``CachedAnalysis`` bundles; schema 2 stores
#: :class:`StoredEntry`-wrapped sub-artifacts; schema 3 stores region-tagged
#: traces under placement-free keys; schema 4 stores the flow's RMB/LMB
#: states and useful points as bit masks; schema 5 keys structure by one
#: digest and stores each node's distinct visits once in the flow;
#: schema 6 stores the base cycles with the sim counts; schema 7 drops the
#: trace bundle's scenario-name tuple; schema 8 drops the flow's per-node
#: aggregate and footprint (the RMB/LMB solution holds both); schema 9
#: stores traces as block visits plus a data-address column; schema 10
#: drops the flow's footprint CIIP (the RMB/LMB bits hold it).
SCHEMA_VERSION = 10

_SOURCE_FINGERPRINT: Optional[str] = None


def _source_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file, computed once per process.

    Makes the package's own code part of every cache key: any edit to the
    analysis pipeline silently invalidates all previously stored artifacts.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


class _Digest:
    """Tiny helper around the ``feed`` pattern every key builder uses."""

    def __init__(self, kind: str):
        self._digest = hashlib.sha256()
        self.feed(f"kind={kind}")
        self.feed(f"schema={SCHEMA_VERSION}")
        self.feed(f"source={_source_fingerprint()}")

    def feed(self, text: str) -> None:
        self._digest.update(text.encode())
        self._digest.update(b"\x00")

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def structure_digest(program: Program) -> str:
    """Program identity: blocks, structure and arrays — no addresses.

    Hashes ``repr()`` of every instruction once per program object: the
    digest is memoised on the (never mutated) :class:`Program`, outside
    its pickled state.
    """
    cached = getattr(program, "_structure_digest", None)
    if cached is not None:
        return cached
    digest = _Digest("structure")
    cfg = program.cfg
    feed = digest.feed
    feed(f"program={program.name}")
    feed(f"entry={cfg.entry}")
    for label in cfg.labels():
        block = cfg.block(label)
        feed(f"block={label}")
        for instruction in block.instructions:
            feed(repr(instruction))
        feed(repr(block.terminator))
    feed(f"structure={program.structure!r}")
    for name in sorted(program.arrays):
        decl = program.arrays[name]
        feed(f"array={decl.name}:{decl.words}:{decl.element_size}")
    program._structure_digest = digest.hexdigest()
    return program._structure_digest


def _feed_placement(digest: _Digest, layout: ProgramLayout) -> None:
    """Where the program sits: the code base and every resolved array base
    (packed or pinned), which is all the address stream depends on."""
    digest.feed(f"placement={layout.region_bases()}")


def _scenarios_digest(program: Program, scenarios: Scenarios) -> str:
    """Digest of *scenarios*, memoised on *program* for the one scenarios
    object it last saw (held, so its identity stays valid)."""
    memo = getattr(program, "_scenarios_digest", None)
    if memo is None or memo[0] is not scenarios:
        digest = _Digest("scenarios")
        for scenario_name in sorted(scenarios):
            digest.feed(f"scenario={scenario_name}")
            inputs = scenarios[scenario_name]
            for array_name in sorted(inputs):
                digest.feed(f"input={array_name}:{tuple(inputs[array_name])!r}")
        memo = program._scenarios_digest = (scenarios, digest.hexdigest())
    return memo[1]


def trace_key(program: Program, scenarios: Scenarios, max_steps: int) -> str:
    """Key of the cache- and placement-independent reference streams of
    *program* (its :func:`structure_digest`) under *scenarios* (their
    memoised digest)."""
    digest = _Digest("trace")
    digest.feed(f"structure={structure_digest(program)}")
    digest.feed(f"scenarios={_scenarios_digest(program, scenarios)}")
    digest.feed(f"max_steps={max_steps}")
    return digest.hexdigest()


def sim_key(trace: str, layout: ProgramLayout, config: CacheConfig) -> str:
    """Key of the per-scenario hit/miss/writeback counts.

    Only the fields that shape *which* accesses hit participate — cost
    parameters (``miss_penalty``, ``hit_cycles``, ``writeback_penalty``)
    deliberately do not, so penalty sweeps share one entry.
    """
    digest = _Digest("sim")
    digest.feed(f"trace={trace}")
    _feed_placement(digest, layout)
    digest.feed(
        f"geometry={config.num_sets}:{config.ways}:{config.line_size}"
        f":{config.policy}:{config.write_back}"
    )
    return digest.hexdigest()


def flow_key(trace: str, layout: ProgramLayout, config: CacheConfig) -> str:
    """Key of the RMB-LMB / useful analyses.

    These read only the block mapping (``line_size``), set indexing
    (``num_sets``), associativity and replacement policy; neither cost
    parameters nor write-allocation behaviour change them.
    """
    digest = _Digest("flow")
    digest.feed(f"trace={trace}")
    _feed_placement(digest, layout)
    digest.feed(
        f"geometry={config.num_sets}:{config.ways}:{config.line_size}"
        f":{config.policy}"
    )
    return digest.hexdigest()


def paths_key(structure: str, path_limit: int, strict: bool) -> str:
    """Key of the feasible-path profiles (cache- and placement-independent)
    of the program whose :func:`structure_digest` is *structure*."""
    digest = _Digest("paths")
    digest.feed(f"structure={structure}")
    digest.feed(f"path_limit={path_limit}")
    digest.feed(f"strict={strict}")
    return digest.hexdigest()


def pair_key(
    low_flow: str,
    low_paths: str,
    high_flow: str,
    high_paths: str,
    mumbs_mode: str,
    exact_paths: bool,
    strict: bool,
) -> str:
    """Key of one (preempted, preempting) pair's four reload-line counts.

    Built from the tasks' flow/paths keys rather than their full artifact
    keys so the counts — which never read cost parameters — survive
    penalty sweeps.
    """
    digest = _Digest("pair")
    digest.feed(f"low_flow={low_flow}")
    digest.feed(f"low_paths={low_paths}")
    digest.feed(f"high_flow={high_flow}")
    digest.feed(f"high_paths={high_paths}")
    digest.feed(f"mumbs_mode={mumbs_mode}")
    digest.feed(f"exact_paths={exact_paths}")
    digest.feed(f"strict={strict}")
    return digest.hexdigest()


def artifact_key(
    layout: ProgramLayout,
    scenarios: Scenarios,
    config: CacheConfig,
    max_steps: int,
    path_limit: int,
    strict: bool,
    structure: str,
) -> str:
    """Composite hash identifying one ``analyze_task`` invocation's result.

    Covers every analysis input (including cost parameters; *structure* is
    the laid-out program's :func:`structure_digest`); used for the
    in-process assembly memo, not for disk sub-artifacts.
    """
    digest = _Digest("task")
    digest.feed(f"structure={structure}")
    _feed_placement(digest, layout)
    digest.feed(f"config={config!r}")
    digest.feed(f"scenarios={_scenarios_digest(layout.program, scenarios)}")
    digest.feed(f"max_steps={max_steps}")
    digest.feed(f"path_limit={path_limit}")
    digest.feed(f"strict={strict}")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Stored payloads, one dataclass per sub-artifact kind.
# ----------------------------------------------------------------------


@dataclass
class StoredEntry:
    """On-disk envelope: schema + kind + the stage's payload.

    ``get`` validates the envelope before trusting the payload, so a
    schema bump or a kind collision degrades to a counted *stale* miss
    instead of handing a caller a payload of the wrong shape.
    """

    schema: int
    kind: str
    payload: Any


@dataclass
class TraceBundle:
    """kind="trace": region-tagged reference streams + invariant base cycles.

    The store is the only holder of traces: analysis results carry
    none.  ``traces`` keeps the caller's scenario order.  The traces
    hold the addresses of the placement the VM ran at, whose
    :meth:`~repro.program.layout.ProgramLayout.region_bases` are
    ``bases``; :meth:`view` reads them at any other.
    """

    traces: dict[str, CompactTrace]
    base_cycles: dict[str, int]
    bases: tuple[int, ...]

    def view(self, line_size: int, bases: tuple[int, ...], scenarios) -> TraceView:
        """The :class:`~repro.vm.trace.TraceView` of the *scenarios* (in
        order) for the phase class of *bases*, each mod *line_size*: built
        once, naming the traces' keys moved into that class by less than
        a line, and kept outside the pickled state."""
        shift = tuple((new - old) % line_size for new, old in zip(bases, self.bases))
        key = (line_size, shift, tuple(scenarios))
        views = self.__dict__.setdefault("_views", {})
        if key not in views:
            views[key] = TraceView(
                {name: self.traces[name] for name in key[2]},
                line_size,
                [old + s for old, s in zip(self.bases, shift)],
                shift,
            )
        return views[key]

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items() if key != "_views"}


@dataclass
class SimBundle:
    """kind="sim": per-scenario ``(accesses, misses, writebacks)`` and the
    trace's base cycles, all a WCET reassembles from (so a sim hit
    reads no trace)."""

    counts: dict[str, tuple[int, int, int]]
    base_cycles: dict[str, int]


@dataclass
class FlowBundle:
    """kind="flow": every geometry-dependent, cost-independent analysis.

    The footprint and its CIIP are the dataflow's bits
    (:attr:`~repro.analysis.artifacts.TaskArtifacts.footprint_ciip`)."""

    dataflow: "RMBLMBResult"
    useful: "UsefulBlocksAnalysis"


@dataclass
class PathsBundle:
    """kind="paths": feasible paths + the degradations enumerating them."""

    profiles: list["PathProfile"]
    complete: bool
    events: tuple["DegradationEvent", ...] = ()


@dataclass
class PairLines:
    """kind="pair": Approach value -> reload lines, plus degradations."""

    lines: dict[int, int]
    events: tuple["DegradationEvent", ...] = ()


@dataclass
class CachedAnalysis:
    """Schema 1's monolithic entry format.

    Retained so that pre-migration pickles still *unpickle* — which is
    exactly what lets :meth:`ArtifactStore.get` recognise them as stale
    (counted, deleted, recomputed) rather than crashing on them.  Also
    reused as the in-memory payload of the ``task`` assembly memo.
    """

    artifacts: "TaskArtifacts"
    events: tuple["DegradationEvent", ...] = ()


#: The disk tier: one SQLite database in the store's directory.
DATABASE_NAME = "store.sqlite3"

#: Tries, 10 ms apart, at switching a new database file to WAL.
_WAL_TRIES = 100

_PRAGMAS = (
    "PRAGMA synchronous=NORMAL",
    # 256 KiB of pages instead of SQLite's ~2 MB: the memory tier already
    # holds the decoded payloads.
    "PRAGMA cache_size=-256",
    "CREATE TABLE IF NOT EXISTS entries"
    " (key TEXT PRIMARY KEY, payload BLOB) WITHOUT ROWID",
)


@dataclass
class ArtifactStore:
    """Two-level (memory LRU + SQLite) cache of analysis sub-artifacts.

    Statistics are kept per instance — overall and per kind — so
    benchmarks and tests can assert hit/miss behaviour precisely.

    Instances are thread-safe: the serve daemon (and the warm pool's
    serial path under it) share one store across request-handler and
    worker threads, so the memory-LRU mutation (``move_to_end`` +
    eviction), every statement on the database connection, and every
    statistic update happen under one reentrant lock.  The lock and the
    connection are per instance and never pickled: worker processes
    rebuild their own, and a forked child opens its own connection.
    """

    directory: Optional[Path] = None
    memory_slots: int = 192
    enabled: bool = True
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0
    stale: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    hits_by_kind: dict = field(default_factory=dict, repr=False)
    misses_by_kind: dict = field(default_factory=dict, repr=False)
    _memory: "OrderedDict[str, Any]" = field(default_factory=OrderedDict, repr=False)
    _lock: Any = field(default_factory=threading.RLock, repr=False, compare=False)
    #: ``(pid, sqlite3.Connection)`` of the process that opened it.
    _db: Any = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]  # locks don't pickle; workers make their own
        state["_db"] = None  # ...and open their own connection
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    @property
    def gets(self) -> int:
        """Lookups answered (hit or miss) — the honesty invariant is
        ``gets == hits + misses``, asserted by the obs property tests."""
        return self.hits + self.misses

    def _database(self):
        """This process's connection to the disk tier, opened on first use
        (callers hold the lock and have a directory).  A connection must
        not cross a fork, so a child process opens its own."""
        pid = os.getpid()
        if self._db is None or self._db[0] != pid:
            import sqlite3

            self._db = None
            directory = Path(self.directory)
            directory.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                str(directory / DATABASE_NAME),
                isolation_level=None,  # autocommit: a put is one transaction
                check_same_thread=False,  # threads share it under the lock
            )
            try:
                # Switching a new file to WAL fails at once, without the
                # busy timeout, while another connection is writing it, so
                # processes opening one new database (a ``--jobs`` sweep's
                # workers) retry.
                for attempt in range(1, _WAL_TRIES + 1):
                    try:
                        connection.execute("PRAGMA journal_mode=WAL")
                        break
                    except sqlite3.OperationalError:
                        if attempt == _WAL_TRIES:
                            raise
                        time.sleep(0.01)
                for statement in _PRAGMAS:
                    connection.execute(statement)
            except BaseException:
                connection.close()
                raise
            self._db = (pid, connection)
        return self._db[1]

    def _recover(self, error: Exception) -> None:
        """After a failed disk statement: a file SQLite cannot read as a
        database (garbage, truncated — exactly ``sqlite3.DatabaseError``)
        is removed with its WAL files, so the next statement recreates it
        empty.  Other failures (busy, read-only, I/O, an aborting trigger)
        leave the file alone."""
        import sqlite3

        if type(error) is not sqlite3.DatabaseError:
            return
        if self._db is not None:
            self._db[1].close()
            self._db = None
        path = Path(self.directory) / DATABASE_NAME
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{path}{suffix}")
            except OSError:
                pass

    def get(self, key: str, kind: str = "task", memory_only: bool = False):
        """Look *key* up, memory first, then disk; ``None`` on miss.

        *kind* must match the kind the entry was stored under (validated
        against the disk envelope).  ``memory_only`` entries (the ``task``
        assembly memo) never touch the disk tier.
        """
        if not self.enabled:
            return None
        if _OBS.enabled:
            _OBS.metrics.counter("store.gets").inc()
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                return self._hit(payload, kind, tier="memory")
            if not memory_only and self.directory is not None:
                payload = self._read(key, kind)
                if payload is not None:
                    return self._hit(payload, kind, tier="disk")
            self.misses += 1
            self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1
            if _OBS.enabled:
                _OBS.metrics.counter("store.misses").inc()
                _OBS.metrics.counter(f"store.misses.kind.{kind}").inc()
            return None

    def _read(self, key: str, kind: str):
        """The *kind* payload stored on disk under *key*, else ``None``
        (callers hold the lock).  A row that holds no such payload is
        counted and deleted, so the slot heals on the next put."""
        import sqlite3

        raw = entry = None
        try:
            row = self._database().execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return None
            raw = row[0]
            entry = pickle.loads(raw)
        except (sqlite3.Error, OSError) as error:
            self._recover(error)  # an unreadable disk tier: corrupt
        except Exception:
            pass  # unreadable bytes: corrupt, treat as a miss
        if (
            isinstance(entry, StoredEntry)
            and entry.schema == SCHEMA_VERSION
            and entry.kind == kind
        ):
            self._remember(key, entry.payload)
            self.bytes_read += len(raw)
            if _OBS.enabled:
                _OBS.metrics.counter("store.bytes_read").inc(len(raw))
            return entry.payload
        if entry is not None:
            # The row unpickled but is not a current-schema entry of this
            # kind: a schema-1 monolith, a foreign pickle, or a kind
            # collision.  Stale, not corrupt — count it apart so
            # migrations are visible, then delete so the slot heals.
            self.stale += 1
            if _OBS.enabled:
                _OBS.metrics.counter("store.stale").inc()
                _OBS.tracer.event("store.stale", key=key, kind=kind)
        else:
            # Truncated write, bit rot: delete so the slot is rewritten on
            # the next put instead of failing every lookup.
            self.corrupt += 1
            if _OBS.enabled:
                _OBS.metrics.counter("store.corrupt").inc()
                _OBS.tracer.event("store.corrupt", key=key)
        try:
            self._database().execute("DELETE FROM entries WHERE key = ?", (key,))
        except (sqlite3.Error, OSError) as error:
            self._recover(error)  # unreadable *and* undeletable: still a miss
        return None

    def _hit(self, payload, kind: str, tier: str):
        self.hits += 1
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1
        if _OBS.enabled:
            _OBS.metrics.counter("store.hits").inc()
            _OBS.metrics.counter(f"store.hits.{tier}").inc()
            _OBS.metrics.counter(f"store.hits.kind.{kind}").inc()
            _OBS.tracer.event("store.hit", tier=tier, kind=kind)
        return payload

    def put(
        self, key: str, payload, kind: str = "task", memory_only: bool = False
    ) -> None:
        """Store *payload* in memory and (one transaction) on disk."""
        if not self.enabled:
            return
        if _OBS.enabled:
            _OBS.metrics.counter("store.puts").inc()
        raw = None
        if not memory_only and self.directory is not None:
            # Pickled before taking the lock, which serve's workers share.
            raw = pickle.dumps(
                StoredEntry(schema=SCHEMA_VERSION, kind=kind, payload=payload),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        with self._lock:
            self._remember(key, payload)
            if raw is None:
                return
            import sqlite3

            try:
                self._database().execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, raw)
                )
            except (sqlite3.Error, OSError) as error:
                self._recover(error)
                return  # disk cache is best-effort; the result is still returned
            self.bytes_written += len(raw)
            if _OBS.enabled:
                _OBS.metrics.counter("store.bytes_written").inc(len(raw))

    def _remember(self, key: str, payload) -> None:
        # Callers hold self._lock (get/put); the reentrant lock makes the
        # direct internal calls cheap to keep symmetric.
        with self._lock:
            memory = self._memory
            memory[key] = payload
            memory.move_to_end(key)
            while len(memory) > self.memory_slots:
                memory.popitem(last=False)
                self.evictions += 1
                if _OBS.enabled:
                    _OBS.metrics.counter("store.evictions").inc()

    def clear_memory(self) -> None:
        """Drop the in-process LRU (disk entries survive)."""
        with self._lock:
            self._memory.clear()


_DEFAULT_STORE: Optional[ArtifactStore] = None


def default_directory() -> Path:
    """Resolve the on-disk cache root (``REPRO_CACHE_DIR`` overrides)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def default_store() -> ArtifactStore:
    """The process-wide store singleton.

    Honours ``REPRO_NO_CACHE=1`` (store disabled: every get misses, every
    put is dropped) and ``REPRO_CACHE_DIR`` at first use.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        disabled = os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")
        _DEFAULT_STORE = ArtifactStore(
            directory=default_directory(),
            enabled=not disabled,
        )
    return _DEFAULT_STORE
