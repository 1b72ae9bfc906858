"""``TraceView.counts`` against a per-event reference replay.

``TraceView.counts`` answers a scenario from its footprint when no cache
set gets more than ``ways`` of its distinct blocks (each block misses
once, nothing is evicted or written back), and replays its kept stream
through a cold ``CacheState`` otherwise.  These tests hold both routes
equal to :class:`tests.oracles.cache.ReferenceCache` charged event by
event over the expanded trace (``CompactTrace.expand``) moved to the
placement, where a repeat the view dropped is a hit like any other:

* lru/fifo/plru x write-through/write-back x 1/2/4 ways x 1/4/16/256
  sets, each cache on an Experiment I/II task and on fuzz draws;
* at the recorded bases, at a move by whole lines, and at a move with a
  sub-line shift (a second phase class);
* an empty stream, and two arrays in one line (two keys on one block,
  which a count of keys instead of blocks gets wrong).

Each per-event replay is a few microseconds, so every cache meets a few
of the inputs rather than all of them: ``CACHES[i]`` runs on the
``i % 6``-th Experiment I/II task, at placement ``i // 6 % 3``, and each
fuzz draw runs six ``(placement, cache)`` pairs, which covers the grid
four times over.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.pipeline import resolve_system
from repro.analysis.store import TraceBundle
from repro.analysis.wcet import measure_wcet_detailed
from repro.cache.config import CacheConfig
from repro.fuzz.generator import case_from_seed
from repro.obs import observed
from repro.vm.trace import TraceView

from tests.conftest import compact_trace
from tests.oracles.cache import ReferenceCache
from tests.oracles.trace import TraceColumns, block_trace, relocated

LINE = 16
CACHES = tuple(
    CacheConfig(
        num_sets=sets, ways=ways, line_size=LINE, policy=policy, write_back=write_back
    )
    for policy in ("lru", "fifo", "plru")
    for write_back in (False, True)
    for ways in (1, 2, 4)
    for sets in (1, 4, 16, 256)
)
PLACEMENTS = ("recorded", "moved", "shifted")
FUZZ_DRAWS = 48


def placed_bases(bases: tuple[int, ...], placement: str) -> tuple[int, ...]:
    """*bases* as recorded, moved region by region by whole lines, or
    moved and shifted by part of a line (a new phase class)."""
    if placement == "recorded":
        return bases
    shifts = (4, 8, 12) if placement == "shifted" else (0,)
    return tuple(
        base + LINE * ((7 * region + 3) % 11) + shifts[region % len(shifts)]
        for region, base in enumerate(bases)
    )


def reference_counts(
    bundle: TraceBundle, bases: tuple[int, ...], config: CacheConfig
) -> dict[str, tuple[int, int, int]]:
    """Each scenario's ``(accesses, misses, writebacks)``: every event of
    its expanded trace, moved to *bases*, through a cold reference
    cache."""
    deltas = [new - old for new, old in zip(bases, bundle.bases)]
    counts = {}
    for scenario, trace in bundle.traces.items():
        events = relocated(trace.expand(), deltas)
        cache = ReferenceCache(config)
        cache.access_stream(events.addresses, [kind == 2 for kind in events.kinds])
        stats = cache.stats
        counts[scenario] = (stats.hits + stats.misses, stats.misses, stats.writebacks)
    return counts


def assert_counts_equal_reference(bundle, placement, config):
    bases = placed_bases(bundle.bases, placement)
    view = bundle.view(LINE, bases, tuple(bundle.traces))
    assert view.counts(bases, config) == reference_counts(bundle, bases, config), (
        f"{placement} at {config}"
    )


def bundle_of(task) -> TraceBundle:
    recorded = measure_wcet_detailed(task.layout, task.scenarios)
    return TraceBundle(
        traces={name: trace for name, (_, trace) in recorded.items()},
        base_cycles={name: base for name, (base, _) in recorded.items()},
        bases=task.layout.region_bases(),
    )


@functools.cache
def experiment_bundles() -> tuple[TraceBundle, ...]:
    return tuple(
        bundle_of(task)
        for experiment in ("exp1", "exp2")
        for task in resolve_system(experiment).tasks
    )


def experiment_case(index: int) -> tuple[TraceBundle, str]:
    """The Experiment I/II task and placement ``CACHES[index]`` runs on."""
    bundles = experiment_bundles()
    return (
        bundles[index % len(bundles)],
        PLACEMENTS[index // len(bundles) % len(PLACEMENTS)],
    )


@pytest.mark.parametrize("index", range(len(CACHES)))
def test_experiment_counts_equal_reference(index):
    assert_counts_equal_reference(*experiment_case(index), CACHES[index])


@pytest.mark.parametrize("draw", range(FUZZ_DRAWS))
def test_fuzz_counts_equal_reference(draw):
    bundles = [bundle_of(task) for task in resolve_system(case_from_seed(4, draw)).tasks]
    for pair in range(6):
        placement = PLACEMENTS[pair % len(PLACEMENTS)]
        config = CACHES[(6 * draw + pair) % len(CACHES)]
        for bundle in bundles:
            assert_counts_equal_reference(bundle, placement, config)


def test_the_grid_takes_both_routes():
    """Over the experiments' caches and placements, some scenarios are
    counted from their footprint and some are replayed."""
    with observed() as (_, metrics):
        for index, config in enumerate(CACHES):
            bundle, placement = experiment_case(index)
            bases = placed_bases(bundle.bases, placement)
            bundle.view(LINE, bases, tuple(bundle.traces)).counts(bases, config)
    counters = metrics.to_dict()["counters"]
    assert counters["trace.counts_from_footprint"] > 0
    assert counters["trace.counts_replayed"] > 0


def test_an_empty_stream_counts_nothing():
    view = TraceView({"empty": compact_trace([]), "one": compact_trace([
        (0x1000, "code", "n"), (0x1004, "code", "n"),
    ])}, LINE, (0,))
    for config in CACHES:
        assert view.counts((0,), config) == {"empty": (0, 0, 0), "one": (2, 1, 0)}


def two_arrays_in_one_line() -> TraceBundle:
    """Code (region 0) reading ``a`` (region 1, at 0x2000) and writing
    ``b`` (region 2, at 0x2008): their words share the line at 0x2000."""
    columns = TraceColumns()
    for step in range(24):
        node = f"n{step % 3}"
        for fetch in range(3):
            columns.append(0x1000 + 0x40 * (step % 3) + 4 * fetch, 0, node, 0)
        columns.append(0x2000 + 4 * (step % 2), 1, node, 1)
        columns.append(0x2008 + 4 * (step % 2), 2, node, 2)
    return TraceBundle(
        traces={"s": block_trace(columns.compact())},
        base_cycles={"s": 0},
        bases=(0x1000, 0x2000, 0x2008),
    )


def cache_id(config: CacheConfig) -> str:
    mode = "wb" if config.write_back else "wt"
    return f"{config.policy}-{mode}-{config.num_sets}x{config.ways}"


@pytest.mark.parametrize("config", CACHES, ids=cache_id)
def test_two_keys_on_one_block_miss_once(config):
    bundle = two_arrays_in_one_line()
    view = bundle.view(LINE, bundle.bases, ("s",))
    blocks = view.moved(bundle.bases)
    assert len(set(blocks)) < len(blocks) == len(view.keys)
    for placement in PLACEMENTS:
        assert_counts_equal_reference(bundle, placement, config)
