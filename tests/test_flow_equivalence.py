"""The bit-mask intra-task analysis equals its frozenset oracle.

``repro.analysis.rmb_lmb`` / ``repro.analysis.useful`` solve RMB/LMB as one
gen/kill problem over set-grouped block bits and keep useful points as
masks; ``tests/oracles`` holds the per-set frozenset implementation they
replaced.  The package's cold path reads each node's *distinct* visits
as key ids of the traces' block view (:class:`~repro.vm.trace.TraceView`);
the oracle is fed every visit of every scenario's trace as blocks,
duplicates included (``every_visit_aggregate``), so the checks also prove
that dropping repeated visits and naming blocks by key ids change
nothing.  Checked here on
Experiments I/II at the experiments' and the paper's cache geometries,
and on fuzz-drawn programs covering lru/fifo/plru x
write-through/write-back:

* RMB/LMB at every block entry and exit, per (label, set);
* per-point useful sets, reload bounds, block counts and the
  ``max_point()`` identity (hence MUMBS and Approach 3);
* all four approaches' pair lines in both ``mumbs_mode``\\ s, against the
  oracle footprints through the sparse CIIP kernels and the oracle useful
  points and per-node blocks pushed through the enumerate engine.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    CRPDAnalyzer,
    ExecutionPoint,
    UsefulBlocks,
    UsefulBlocksAnalysis,
    scenario_traces,
)
from repro.analysis.crpd import Approach
from repro.analysis.rmb_lmb import BlockBits
from repro.analysis.store import TraceBundle
from repro.cache import CacheConfig
from repro.cache.ciip import CIIP, conflict_bound, line_usage_bound
from repro.experiments import EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC, build_context
from repro.fuzz.build import build_case
from repro.fuzz.generator import case_from_seed
from tests.oracles import rmb_lmb as oracle_rmb_lmb
from tests.oracles import useful as oracle_useful
from tests.oracles.pathcost import approach4_lines, node_blocks

#: Fuzz cases drawn for the equivalence check (seed 11); 48 cases give
#: more than 100 task programs over all six policy x write-mode combos.
FUZZ_SEED = 11
FUZZ_CASES = 48

GEOMETRIES = {
    "scaled_8k": CacheConfig.scaled_8k(),  # the experiments' cache
    "arm9_32k": CacheConfig.arm9_32k(),  # the paper's cache
}


def _task_sets():
    """(tag, {name: artifacts}, priority order, {name: scenarios}) of every
    checked system."""
    systems = []
    for spec in (EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC):
        for geometry, cache in GEOMETRIES.items():
            context = build_context(spec, cache=cache)
            systems.append((
                f"{spec.key}@{geometry}", context.artifacts, spec.priority_order,
                {task.name: task.scenarios for task in context.pipeline.placed.tasks},
            ))
    for index in range(FUZZ_CASES):
        case = build_case(case_from_seed(FUZZ_SEED, index))
        systems.append(
            (
                f"fuzz{index}:{case.config.policy}"
                f"{'/wb' if case.config.write_back else '/wt'}",
                {task.name: task.artifacts for task in case.tasks},
                tuple(task.name for task in case.tasks),
                {task.name: task.scenarios for task in case.tasks},
            )
        )
    return systems


def _inputs(art, scenarios):
    """*art*'s every-visit aggregate of every scenario's trace (the
    oracle's input) and the block view its cold run solved from."""
    traces = scenario_traces(art.layout, scenarios, art.config)
    bases = art.layout.region_bases()
    bundle = TraceBundle(
        traces=traces, base_cycles=dict.fromkeys(traces, 0), bases=bases
    )
    return (
        oracle_rmb_lmb.every_visit_aggregate(art.config, traces.values()),
        bundle.view(art.config.line_size, bases, scenarios),
    )


@pytest.fixture(scope="module")
def systems():
    built = []
    for tag, artifacts, order, scenarios in _task_sets():
        oracles = {}
        for name, art in artifacts.items():
            cfg = art.program.cfg
            every, view = _inputs(art, scenarios[name])
            flow = oracle_rmb_lmb.solve_rmb_lmb(cfg, every, art.config)
            useful = oracle_useful.compute_useful_blocks(cfg, flow, every)
            oracles[name] = (flow, useful, every, view)
        built.append((tag, artifacts, order, oracles))
    return built


def _nonempty(groups) -> dict:
    return {index: blocks for index, blocks in groups.items() if blocks}


def test_inputs_cover_every_policy_and_write_mode(systems):
    fuzz = [tag for tag, *_ in systems if tag.startswith("fuzz")]
    combos = {tag.split(":")[1] for tag in fuzz}
    assert combos == {
        f"{policy}/{mode}"
        for policy in ("lru", "fifo", "plru")
        for mode in ("wt", "wb")
    }
    programs = sum(len(artifacts) for tag, artifacts, *_ in systems if tag in fuzz)
    assert programs >= 100


def test_aggregate_is_every_visit_deduplicated(systems):
    """The cold path's view keeps each distinct visit once (its key-id
    runs, read as blocks, are the every-visit oracle's runs deduplicated),
    and the per-node blocks and footprint the artifacts read off the
    dataflow are the every-visit oracle's."""
    repeated = 0
    for tag, artifacts, _, oracles in systems:
        for name, art in artifacts.items():
            every, view = oracles[name][2:]
            block = view.moved(art.layout.region_bases()).__getitem__
            assert list(view.visits) == list(every.node_refs)
            for label, refs in every.node_refs.items():
                distinct = tuple(dict.fromkeys(refs.visit_sequences))
                runs = dict.fromkeys(
                    tuple(map(block, run)) for _, run in view.visits[label]
                )
                assert tuple(runs) == distinct, f"{tag} {name} {label}"
                repeated += len(refs.visit_sequences) - len(distinct)
            assert node_blocks(art) == oracle_rmb_lmb.per_node_blocks(every), (
                f"{tag} {name}"
            )
            assert art.footprint == oracle_rmb_lmb.footprint(every), f"{tag} {name}"
            assert art.footprint_ciip.blocks() == art.footprint
    assert repeated  # the inputs really do repeat visits


def test_rmb_lmb_per_label_and_set(systems):
    states = ("entry_rmb", "exit_rmb", "entry_lmb", "exit_lmb")
    for tag, artifacts, _, oracles in systems:
        for name, art in artifacts.items():
            flow = art.dataflow
            oracle = oracles[name][0]
            for label in art.program.cfg.labels():
                for state in states:
                    decoded = flow.bits.per_set(getattr(flow, state)[label])
                    expected = _nonempty(getattr(oracle, state).get(label, {}))
                    assert decoded == expected, f"{tag} {name} {state}@{label}"
                for index in expected:  # the per-set accessors agree too
                    assert flow.lmb_at_exit(label, index) == oracle.lmb_at_exit(
                        label, index
                    )


def test_useful_points_bounds_and_max_point(systems):
    for tag, artifacts, _, oracles in systems:
        for name, art in artifacts.items():
            useful = art.useful
            oracle = oracles[name][1]
            assert [(p.point.label, p.point.position) for p in useful.points] == [
                (p.point.label, p.point.position) for p in oracle.points
            ], f"{tag} {name}"
            for point, expected in zip(useful.points, oracle.points):
                where = f"{tag} {name} {point.point}"
                assert point.blocks() == expected.blocks(), where
                assert point.per_set == _nonempty(expected.per_set), where
                assert point.reload_bound() == expected.reload_bound(), where
                assert point.count == len(expected.blocks()), where
            assert useful.points.index(useful.max_point()) == oracle.points.index(
                oracle.max_point()
            ), f"{tag} {name}"
            assert useful.mumbs() == oracle.mumbs(), f"{tag} {name}"
            assert useful.lee_reload_bound() == oracle.lee_reload_bound()


@pytest.mark.parametrize("mumbs_mode", ["per_point", "paper"])
def test_pair_lines_all_approaches(systems, mumbs_mode):
    """Every approach from the oracles alone: footprints, per-node blocks
    and useful points of the every-visit oracle, counted per set by the
    sparse CIIP kernels."""
    for tag, artifacts, order, oracles in systems:
        analyzer = CRPDAnalyzer(artifacts, mumbs_mode=mumbs_mode)
        ciips = {
            name: CIIP.from_addresses(
                art.config, oracle_rmb_lmb.footprint(oracles[name][2])
            )
            for name, art in artifacts.items()
        }
        for low_index, low in enumerate(order):
            reference = replace(
                artifacts[low],
                dataflow=oracles[low][0],
                useful=oracles[low][1],
            )
            for high in order[:low_index]:
                lines = analyzer.estimate_pair(low, high).lines
                expected = {
                    Approach.BUSQUETS: line_usage_bound(ciips[high]),
                    Approach.INTERTASK: conflict_bound(ciips[low], ciips[high]),
                    Approach.LEE: oracles[low][1].lee_reload_bound(),
                    Approach.COMBINED: approach4_lines(
                        reference, artifacts[high], mumbs_mode=mumbs_mode,
                        per_node=oracle_rmb_lmb.per_node_blocks(oracles[high][2]),
                    ),
                }
                assert lines == expected, f"{tag} {low}<-{high} ({mumbs_mode})"


class TestMaxPointTieBreak:
    """Def. 4's MUMBS is the first point maximising (bound, block count)."""

    def _analysis(self):
        config = CacheConfig(num_sets=4, ways=2, line_size=16)
        # Three blocks in set 0 and one in each of sets 1-3.
        blocks = [0x000, 0x040, 0x080, 0x010, 0x020, 0x030]
        bits = BlockBits.number(config, blocks)
        bit = {block: 1 << n for n, block in enumerate(bits.blocks)}

        def point(label, position, members, bound):
            mask = sum(bit[block] for block in members)
            return UsefulBlocks(
                ExecutionPoint(label, position), mask, bits, bound,
                len(members), None,
            )

        points = [
            # bound 2: set 0's three blocks capped at L = 2
            point("a", "entry", [0x000, 0x040, 0x080], 2),
            # the first bound-3 point, but with only three blocks ...
            point("a", "exit", [0x010, 0x020, 0x030], 3),
            # ... so this bound-3, four-block point wins on count ...
            point("b", "entry", [0x000, 0x040, 0x080, 0x010], 3),
            # ... and this exact tie comes later in label order
            point("c", "entry", [0x000, 0x040, 0x080, 0x020], 3),
        ]
        return config, UsefulBlocksAnalysis(config=config, points=points)

    def test_first_of_equal_bound_and_count_wins(self):
        _, analysis = self._analysis()
        winner = analysis.max_point()
        assert winner.point == ExecutionPoint("b", "entry")
        assert analysis.lee_reload_bound() == 3
        assert analysis.mumbs() == frozenset({0x000, 0x040, 0x080, 0x010})

    def test_matches_the_oracle_rule(self):
        config, analysis = self._analysis()
        reference = oracle_useful.UsefulBlocksAnalysis(
            config=config,
            points=[
                oracle_useful.UsefulBlocks(
                    point=oracle_useful.ExecutionPoint(
                        p.point.label, p.point.position
                    ),
                    per_set=p.per_set,
                    ways=config.ways,
                )
                for p in analysis.points
            ],
        )
        for point, expected in zip(analysis.points, reference.points):
            assert point.reload_bound() == expected.reload_bound()
        assert analysis.points.index(analysis.max_point()) == (
            reference.points.index(reference.max_point())
        )
