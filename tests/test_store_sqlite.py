"""The store's disk tier is one SQLite database per directory.

Its contract (see :mod:`repro.analysis.store`): a database file SQLite
cannot read is a counted corrupt miss, removed and recreated, never an
error; each process (a pickled copy's, a forked child's) opens its own
connection; processes sharing one directory write one database without
losing or mangling an entry, even while one of them is creating it; and
a store with no directory never imports ``sqlite3`` at all.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sqlite3
import threading

import pytest

from repro.analysis.store import DATABASE_NAME, ArtifactStore

from tests.conftest import run_from_root
from tests.faults import PICKLE_CORRUPTIONS
from tests.store_rows import rows

KEYS = [f"key-{index}" for index in range(16)]


def _payload(key: str) -> dict:
    """What every writer stores under *key*: equal whoever wrote last."""
    return {"key": key, "blob": key.encode() * 64}


def _filled(directory) -> None:
    """Put every key through a store whose connection is then closed, so
    the database file holds every row and no WAL is left beside it."""
    store = ArtifactStore(directory=directory)
    for key in KEYS:
        store.put(key, _payload(key), kind="pair")
    store._db[1].close()


@pytest.mark.parametrize("corruption", ["garbage", "truncated"])
def test_unreadable_database_is_a_counted_miss_and_heals(tmp_path, corruption):
    _filled(tmp_path)
    database = tmp_path / DATABASE_NAME
    assert not (tmp_path / f"{DATABASE_NAME}-wal").exists()
    database.write_bytes(PICKLE_CORRUPTIONS[corruption](database.read_bytes()))

    store = ArtifactStore(directory=tmp_path)
    assert [store.get(key, kind="pair") for key in KEYS] == [None] * len(KEYS)
    assert store.corrupt == 1  # the file went; the other keys simply miss
    assert store.gets == store.hits + store.misses == len(KEYS)
    for key in KEYS:
        store.put(key, _payload(key), kind="pair")
    assert store.bytes_written > 0

    retry = ArtifactStore(directory=tmp_path)
    assert [retry.get(key, kind="pair") for key in KEYS] == [
        _payload(key) for key in KEYS
    ]
    assert (retry.hits, retry.corrupt) == (len(KEYS), 0)
    assert len(rows(tmp_path)) == len(KEYS)


def test_pickled_store_opens_its_own_connection(tmp_path):
    store = ArtifactStore(directory=tmp_path)
    store.put("key", _payload("key"), kind="pair")
    clone = pickle.loads(pickle.dumps(store))
    assert clone._db is None
    clone.clear_memory()
    assert clone.get("key", kind="pair") == _payload("key")
    assert clone._db[1] is not store._db[1]


def _forked_child(store, results) -> None:
    store.clear_memory()
    found = store.get("key", kind="pair")
    store.put("child", _payload("child"), kind="pair")
    results.put((found, store._db[0] == os.getpid(), store.bytes_written))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
)
def test_forked_store_opens_its_own_connection(tmp_path):
    store = ArtifactStore(directory=tmp_path)
    store.put("key", _payload("key"), kind="pair")
    written = store.bytes_written
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_forked_child, args=(store, results))
    child.start()
    found, own_connection, child_written = results.get(timeout=60)
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert found == _payload("key")
    assert own_connection
    assert child_written > written  # the child's put reached the disk
    # The parent's connection still works and sees the child's row.
    assert store._db[0] == os.getpid()
    assert store.get("child", kind="pair") == _payload("child")


ROUNDS = 200


def _churn(directory: str, start) -> None:
    """Put and read back (from disk) every key, over and over, while the
    other process does the same; exits non-zero on any lost put."""
    store = ArtifactStore(directory=directory, memory_slots=4)
    start.wait(timeout=60)
    for round_number in range(ROUNDS):
        key = KEYS[round_number % len(KEYS)]
        written = store.bytes_written
        store.put(key, _payload(key), kind="pair")
        assert store.bytes_written > written, "a put was dropped"
        store.clear_memory()
        assert store.get(key, kind="pair") == _payload(key)
    assert (store.misses, store.corrupt, store.stale) == (0, 0, 0)


def test_two_processes_share_one_database(tmp_path):
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(2)
    workers = [
        context.Process(target=_churn, args=(str(tmp_path), start))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.is_alive() for worker in workers] == [False, False]
    assert [worker.exitcode for worker in workers] == [0, 0]
    store = ArtifactStore(directory=tmp_path)
    assert [store.get(key, kind="pair") for key in KEYS] == [
        _payload(key) for key in KEYS
    ]
    assert sorted(row.key for row in rows(tmp_path)) == sorted(KEYS)


def test_opening_waits_for_a_new_database_another_connection_writes(tmp_path):
    """Switching a new file to WAL needs it to itself, and SQLite's busy
    timeout does not wait while another connection holds the write lock
    (it fails at once): a store opening such a database retries until it
    is let go, as when two workers open one new database."""
    holder = sqlite3.connect(
        str(tmp_path / DATABASE_NAME),
        isolation_level=None,
        check_same_thread=False,  # the timer thread commits
    )
    holder.execute("CREATE TABLE held (x)")  # a rollback-journal file
    holder.execute("BEGIN IMMEDIATE")  # holds the write lock
    release = threading.Timer(0.1, holder.execute, ("COMMIT",))
    release.start()
    try:
        store = ArtifactStore(directory=tmp_path)
        store.put("key", _payload("key"), kind="pair")
    finally:
        release.join(timeout=60)
        holder.close()
    assert store.bytes_written > 0
    store.clear_memory()
    assert store.get("key", kind="pair") == _payload("key")


def test_in_memory_store_never_imports_sqlite():
    result = run_from_root(
        "-c",
        "import sys\n"
        "from repro.analysis.store import ArtifactStore\n"
        "store = ArtifactStore()\n"
        "store.put('sim', 1, kind='sim')\n"
        "store.put('task', 2, memory_only=True)\n"
        "assert store.get('sim', kind='sim') == 1\n"
        "assert store.get('task', memory_only=True) == 2\n"
        "assert store.get('none', kind='flow') is None\n"
        "print('sqlite3' in sys.modules)\n",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
