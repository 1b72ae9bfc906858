"""Reference oracle: a layout move by per-event relocation.

The executable specification of the block view
(:class:`repro.vm.trace.TraceView`, read through
:meth:`repro.analysis.store.TraceBundle.view`).  A move expands every
stored trace into its per-event columns and shifts each event to the
new placement (:func:`relocated_traces`, by
:func:`tests.oracles.trace.relocated`), replays every shifted event
through a cold cache and aggregates every node visit over the shifted
blocks; the flow analyses then run on that aggregate's block-level
visits.  Not used by the package.
"""

from __future__ import annotations

from repro.analysis.store import FlowBundle, TraceBundle
from repro.analysis.useful import compute_useful_blocks
from repro.cache.config import CacheConfig
from repro.cache.state import CacheState
from repro.program.builder import Program
from repro.vm.trace import _WRITE_FLAGS, TraceEvents
from tests.oracles.rmb_lmb import (
    NodeTraceAggregate,
    every_visit_aggregate,
    package_solve,
)
from tests.oracles.trace import relocated


def relocated_traces(
    bundle: TraceBundle, bases: tuple[int, ...]
) -> dict[str, TraceEvents]:
    """Every stored trace's events at the placement with region *bases*,
    each shifted by its region's move."""
    deltas = [new - old for new, old in zip(bases, bundle.bases)]
    return {
        scenario: relocated(trace.expand(), deltas)
        for scenario, trace in bundle.traces.items()
    }


def relocated_counts(
    bundle: TraceBundle, bases: tuple[int, ...], config: CacheConfig, scenarios
) -> dict[str, tuple[int, int, int]]:
    """Each scenario's ``(accesses, misses, writebacks)`` at *bases*."""
    placed = relocated_traces(bundle, bases)
    counts = {}
    for scenario in scenarios:
        events = placed[scenario]
        cache = CacheState(config)
        cache.access_stream(events.addresses, events.kinds.translate(_WRITE_FLAGS))
        stats = cache.stats
        counts[scenario] = (stats.hits + stats.misses, stats.misses, stats.writebacks)
    return counts


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
    """The flow sub-artifact (RMB/LMB, useful blocks) of the *scenarios*
    at *bases*, solved over the relocated aggregate's block-level visits."""
    aggregate = relocated_aggregate(bundle, bases, config, scenarios)
    dataflow = package_solve(program.cfg, aggregate, config)
    return FlowBundle(
        dataflow=dataflow, useful=compute_useful_blocks(program.cfg, dataflow)
    )
