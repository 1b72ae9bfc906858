"""Regression tests for the ArtifactStore thread-safety fix.

The latent race this PR fixed: the memory-LRU mutation in ``get()``
(``move_to_end`` + eviction in ``_remember``) and the corrupt/stale
delete-on-get path ran unsynchronized, so two serve workers hitting the
shared store concurrently could corrupt the ``OrderedDict`` mid-reorder
(``RuntimeError``/``KeyError`` under mutation) or double-count the
honesty statistics.  The store now takes a per-instance reentrant lock
around get/put/_remember; these tests reproduce the original interleaved
access patterns with barrier-synchronized threads and assert the
invariants the serve layer depends on: no exceptions, correct payloads,
and ``gets == hits + misses`` exactly.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from tests.faults import PICKLE_CORRUPTIONS
from tests.store_rows import StoreRow
from repro.analysis.store import ArtifactStore

THREADS = 8
ROUNDS = 200


def _hammer(threads: int, work) -> list:
    """Run *work(index)* on *threads* barrier-synchronized threads and
    collect raised exceptions (the old code raised under contention)."""
    barrier = threading.Barrier(threads)
    errors: list = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            work(index)
        except BaseException as error:  # noqa: BLE001 - collected for report
            errors.append(repr(error))

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    return errors


def test_concurrent_gets_with_tiny_lru(tmp_path):
    """Barrier-synchronized gets against a 4-slot LRU: every lookup both
    reorders and (via disk refill) evicts, the exact interleaving that
    corrupted the unsynchronized OrderedDict."""
    store = ArtifactStore(directory=tmp_path, memory_slots=4)
    keys = [f"artifact-{index}" for index in range(16)]
    for index, key in enumerate(keys):
        store.put(key, {"value": index}, kind="flow")
    store.clear_memory()  # force the disk->memory refill path

    def work(index: int) -> None:
        for round_number in range(ROUNDS):
            key_index = (index * 31 + round_number * 7) % len(keys)
            payload = store.get(keys[key_index], kind="flow")
            assert payload == {"value": key_index}

    errors = _hammer(THREADS, work)
    assert errors == []
    assert store.gets == store.hits + store.misses
    assert store.gets == THREADS * ROUNDS
    assert store.misses == 0  # disk tier answers everything
    assert len(store._memory) <= 4


def test_concurrent_mixed_get_put(tmp_path):
    """Writers churn the LRU while readers traverse it."""
    store = ArtifactStore(directory=tmp_path, memory_slots=8)

    def work(index: int) -> None:
        for round_number in range(ROUNDS):
            key = f"k-{(index + round_number) % 32}"
            if index % 2 == 0:
                store.put(key, {"writer": index}, kind="pair")
            else:
                payload = store.get(key, kind="pair")
                assert payload is None or "writer" in payload

    errors = _hammer(THREADS, work)
    assert errors == []
    assert store.gets == store.hits + store.misses


@pytest.mark.parametrize("corruption", sorted(PICKLE_CORRUPTIONS))
def test_concurrent_delete_on_get_of_corrupt_entry(tmp_path, corruption):
    """All threads race the corrupt/stale delete-on-get of one entry.

    Unsynchronized, two threads could interleave between the failed
    unpickle and the row's ``DELETE`` — now exactly every lookup is a
    counted miss and the slot heals (a later put+get works)."""
    store = ArtifactStore(directory=tmp_path, memory_slots=4)
    store.put("damaged", {"ok": True}, kind="sim")
    store.clear_memory()
    row = StoreRow(tmp_path, "damaged")
    row.write_bytes(PICKLE_CORRUPTIONS[corruption](row.read_bytes()))

    def work(index: int) -> None:
        for _ in range(20):
            assert store.get("damaged", kind="sim") is None

    errors = _hammer(THREADS, work)
    assert errors == []
    assert store.gets == store.hits + store.misses
    assert store.hits == 0
    assert store.misses == THREADS * 20
    assert not row.exists()
    assert store.corrupt + store.stale >= 1
    # The slot healed: a rewrite is served normally again.
    store.put("damaged", {"ok": True}, kind="sim")
    assert store.get("damaged", kind="sim") == {"ok": True}


def test_wrong_kind_lookup_under_threads(tmp_path):
    """Kind collisions (stale path) deleting concurrently stay misses."""
    store = ArtifactStore(directory=tmp_path)
    store.put("entry", {"ok": True}, kind="trace")
    store.clear_memory()

    def work(index: int) -> None:
        assert store.get("entry", kind="pair") is None

    errors = _hammer(THREADS, work)
    assert errors == []
    assert store.gets == store.hits + store.misses
    assert store.misses == THREADS


def test_store_pickles_without_its_lock(tmp_path):
    """The lock is per-instance and never pickled; a round-tripped store
    rebuilds a working one (the worker-process shipping path)."""
    store = ArtifactStore(directory=tmp_path, memory_slots=4)
    store.put("key", {"v": 1}, kind="task")
    clone = pickle.loads(pickle.dumps(store))
    assert clone.get("key", kind="task") == {"v": 1}
    # And the rebuilt lock actually synchronizes.
    errors = _hammer(4, lambda index: clone.get("key", kind="task"))
    assert errors == []
    assert clone.gets == clone.hits + clone.misses
