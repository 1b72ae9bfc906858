"""One per-set vector method: ``RMBLMBResult.dense`` against its references.

Every conflict bound of Eqs. 2-4 reads capped per-set vectors, and every
vector the CRPD chain evaluates is :meth:`RMBLMBResult.dense
<repro.analysis.rmb_lmb.RMBLMBResult.dense>` of a mask over the
dataflow's set-grouped bits: the footprint, each useful point and each
feasible path (the OR of its nodes' ``own`` masks).  These tests hold it
equal to two references that never read those masks' set slices:

* the sparse route, ``dense_from_ciip_counts`` of the decoded blocks'
  ``CIIP.from_addresses`` set counts (and ``dense_rows`` for the path
  matrix), on the footprint, every path mask and every useful point;
* each path-matrix row against the capped vector of ``path_footprint``
  over the every-visit oracle's per-node blocks
  (``tests/oracles/rmb_lmb.py``), which reads the traces again.

Inputs: every Experiment I/II task under lru/fifo/plru at 1, 2 and 4 ways,
48 fuzz draws, and a one-set cache where every count caps at ``L``.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_task
from repro.analysis.pipeline import resolve_system
from repro.analysis.store import ArtifactStore
from repro.analysis.wcet import scenario_traces
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.cache.kernels import dense_from_ciip_counts, dense_rows
from repro.fuzz.build import build_case
from repro.fuzz.generator import case_from_seed
from repro.program.paths import path_footprint

from tests.oracles import rmb_lmb as oracle_rmb_lmb

FUZZ_SEED = 13
FUZZ_DRAWS = 48

#: 32 sets of 16-byte lines: the experiment footprints crowd most sets
#: past every associativity checked.
CACHES = tuple(
    CacheConfig(num_sets=32, ways=ways, line_size=16, policy=policy)
    for policy in ("lru", "fifo", "plru")
    for ways in (1, 2, 4)
)
#: Every count caps: one set holds each task's whole footprint.
ONE_SET = CacheConfig(num_sets=1, ways=4, line_size=16)


def reference_vector(config: CacheConfig, blocks) -> bytes:
    """The capped per-set vector of *blocks* by the sparse CIIP route."""
    return dense_from_ciip_counts(
        CIIP.from_addresses(config, blocks).set_counts, config.num_sets, config.ways
    )


def oracle_node_blocks(layout, scenarios, config) -> dict[str, frozenset[int]]:
    """Each node's blocks over every visit of freshly recorded traces."""
    traces = scenario_traces(layout, scenarios, config)
    aggregate = oracle_rmb_lmb.every_visit_aggregate(config, traces.values())
    return oracle_rmb_lmb.per_node_blocks(aggregate)


@pytest.fixture(scope="module")
def tasks() -> tuple:
    """``(tag, artifacts, oracle per-node blocks)`` of every input."""
    tasks = []
    store = ArtifactStore(directory=None, memory_slots=1024)
    for experiment in ("exp1", "exp2"):
        placed = resolve_system(experiment).tasks
        oracle = {
            task.name: oracle_node_blocks(task.layout, task.scenarios, ONE_SET)
            for task in placed
        }
        for config in CACHES + (ONE_SET,):
            for task in placed:
                art = analyze_task(task.layout, task.scenarios, config, store=store)
                tag = f"{experiment}/{task.name}@{config.policy}x{config.ways}"
                if config is ONE_SET:
                    tag += "/1set"
                tasks.append((tag, art, oracle[task.name]))
    for index in range(FUZZ_DRAWS):
        case = build_case(case_from_seed(FUZZ_SEED, index))
        for task in case.tasks:
            tasks.append((
                f"fuzz{index}/{task.name}@{case.config.policy}x{case.config.ways}",
                task.artifacts,
                oracle_node_blocks(task.layout, task.scenarios, case.config),
            ))
    return tuple(tasks)


def test_inputs_cover_policies_ways_and_capped_sets(tasks):
    combos = {(art.config.policy, art.config.ways) for _, art, _ in tasks}
    assert combos >= {(p, w) for p in ("lru", "fifo", "plru") for w in (1, 2, 4)}
    assert sum(tag.startswith("fuzz") for tag, _, _ in tasks) >= FUZZ_DRAWS
    capped = 0
    for _, art, _ in tasks:
        counts = CIIP.from_addresses(art.config, art.footprint).set_counts
        capped += any(count > art.config.ways for count in counts.values())
    assert capped > len(tasks) // 2  # the cap matters on most inputs


def test_dense_equals_the_sparse_route(tasks):
    """Footprint, every path mask and every useful point."""
    for tag, art, _ in tasks:
        flow, config = art.dataflow, art.config
        bits = flow.bits
        masks = [bits.full, *art.path_masks()]
        masks.extend(point.mask for point in art.useful.points)
        for mask in masks:
            expected = reference_vector(config, bits.decode(mask))
            assert flow.dense(mask) == expected, f"{tag} mask {mask:#x}"
        for point in art.useful.points:
            assert point.dense == flow.dense(point.mask), f"{tag} {point.point}"
            assert point.bound == sum(point.dense), f"{tag} {point.point}"


def test_footprint_vector_and_ciip_come_from_the_bits(tasks):
    for tag, art, oracle in tasks:
        footprint = frozenset().union(*oracle.values())
        assert art.footprint == footprint, tag
        assert art.dense_footprint() == reference_vector(art.config, footprint), tag
        assert art.footprint_ciip == CIIP.from_addresses(art.config, footprint), tag


def test_path_rows_equal_the_every_visit_oracle(tasks):
    """Row *i* of the path matrix is the capped vector of path *i*'s
    footprint over the oracle's per-node blocks, and ``path_masks()``
    decodes to that footprint."""
    paths = 0
    for tag, art, oracle in tasks:
        config = art.config
        footprints = [path_footprint(p, oracle) for p in art.path_profiles]
        expected = dense_rows([reference_vector(config, fp) for fp in footprints])
        assert art.dense_path_matrix() == expected, tag
        assert [art.dataflow.bits.decode(m) for m in art.path_masks()] == footprints
        paths += len(footprints)
    assert paths > len(tasks)  # some tasks have more than one path


def test_one_set_caps_every_count(tasks):
    corner = [(tag, art) for tag, art, _ in tasks if tag.endswith("/1set")]
    assert len(corner) == 6
    for tag, art in corner:
        assert art.dense_footprint() == bytes([ONE_SET.ways]), tag
        for row in art.dense_path_matrix():
            assert row == ONE_SET.ways, tag
