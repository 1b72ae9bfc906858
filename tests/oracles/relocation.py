"""Reference oracle: a layout move by per-event relocation.

The executable specification of the block view
(:class:`repro.vm.trace.TraceView`, read through
:meth:`repro.analysis.store.TraceBundle.view`).  A move shifts every
event of the stored traces to the new placement at once
(:func:`relocated_traces`, by
:meth:`~repro.vm.trace.CompactTrace.relocated`), replays every shifted
event through a cold cache and aggregates every node visit over the
shifted blocks; the flow analyses then run on that aggregate's
block-level visits.  Not used by the package.
"""

from __future__ import annotations

from repro.analysis.store import FlowBundle, TraceBundle
from repro.analysis.useful import compute_useful_blocks
from repro.analysis.wcet import replay_counts
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.program.builder import Program
from repro.vm.trace import CompactTrace
from tests.oracles.rmb_lmb import (
    NodeTraceAggregate,
    every_visit_aggregate,
    footprint,
    package_solve,
)


def relocated_traces(
    bundle: TraceBundle, bases: tuple[int, ...]
) -> dict[str, CompactTrace]:
    """Every stored trace at the placement with region *bases*, each
    event shifted by its region's move."""
    deltas = [new - old for new, old in zip(bases, bundle.bases)]
    return {
        scenario: trace.relocated(deltas)
        for scenario, trace in bundle.traces.items()
    }


def relocated_counts(
    bundle: TraceBundle, bases: tuple[int, ...], config: CacheConfig, scenarios
) -> dict[str, tuple[int, int, int]]:
    """Each scenario's ``(accesses, misses, writebacks)`` at *bases*."""
    placed = relocated_traces(bundle, bases)
    return {scenario: replay_counts(placed[scenario], config) for scenario in scenarios}


def relocated_aggregate(
    bundle: TraceBundle, bases: tuple[int, ...], config: CacheConfig, scenarios
) -> NodeTraceAggregate:
    """The every-visit aggregate of the *scenarios* at *bases*."""
    placed = relocated_traces(bundle, bases)
    return every_visit_aggregate(
        config, [placed[scenario] for scenario in scenarios]
    )


def relocated_flow(
    program: Program,
    bundle: TraceBundle,
    bases: tuple[int, ...],
    config: CacheConfig,
    scenarios,
) -> FlowBundle:
    """The flow sub-artifact (footprint CIIP, RMB/LMB, useful blocks) of
    the *scenarios* at *bases*, solved over the relocated aggregate's
    block-level visits."""
    aggregate = relocated_aggregate(bundle, bases, config, scenarios)
    dataflow = package_solve(program.cfg, aggregate, config)
    # Set-grouped order, as the package numbers blocks, so the pickled
    # CIIP is byte-identical.
    blocks = sorted(
        footprint(aggregate), key=lambda block: (config.index(block), block)
    )
    return FlowBundle(
        footprint_ciip=CIIP.from_addresses(config, blocks),
        dataflow=dataflow,
        useful=compute_useful_blocks(program.cfg, dataflow),
    )
