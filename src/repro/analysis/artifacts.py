"""Per-task analysis artifacts: one simulation pass feeding every analysis.

``analyze_task`` is the front door used by experiments and examples: given
a laid-out program and its input scenarios it measures the WCET, aggregates
memory traces, computes the task footprint and its CIIP, solves the RMB/LMB
dataflow, derives the useful-block analysis and enumerates feasible paths.
The resulting :class:`TaskArtifacts` bundle is what the CRPD estimators
(:mod:`repro.analysis.crpd`) consume.

When an :class:`~repro.guard.budget.AnalysisBudget` is supplied the
pipeline is *guarded*: path enumeration past ``max_paths`` no longer kills
the analysis but marks the artifacts path-incomplete (Approach 4 then
degrades to the MUMBS∩CIIP bound, which needs no path profiles), and a
wall-clock overrun raises the typed
:class:`~repro.errors.BudgetExceeded` — the WCET measurement underlying
everything has no sound shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis.rmb_lmb import RMBLMBResult, solve_rmb_lmb
from repro.analysis.useful import UsefulBlocksAnalysis, compute_useful_blocks
from repro.analysis.wcet import (
    Scenarios,
    WCETResult,
    cycles_from_counts,
    measure_wcet_detailed,
    replay_counts,
    worst_of,
)
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.errors import PathExplosionError
from repro.obs import STATE as _OBS
from repro.program.builder import Program
from repro.program.layout import ProgramLayout
from repro.program.paths import PathProfile, enumerate_path_profiles
from repro.vm.trace import LazyTraces, NodeTraceAggregate

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore, FlowBundle
    from repro.guard.budget import AnalysisBudget, BudgetClock
    from repro.guard.ledger import DegradationLedger


@dataclass
class TaskArtifacts:
    """Everything the CRPD and WCRT analyses need to know about one task."""

    name: str
    layout: ProgramLayout
    config: CacheConfig
    wcet: WCETResult
    aggregate: NodeTraceAggregate
    footprint: frozenset[int]
    footprint_ciip: CIIP
    dataflow: RMBLMBResult
    useful: UsefulBlocksAnalysis
    path_profiles: list[PathProfile]
    #: False when path enumeration was cut off by a budget: the (empty)
    #: profile list is then NOT a sound basis for Eq. 4 and path-level
    #: CRPD must fall back to bounds that need no paths.
    path_enumeration_complete: bool = True
    #: Content keys of the sub-artifacts these artifacts were assembled
    #: from (``trace``/``sim``/``flow``/``paths``); ``None`` when analysed
    #: without a store.  Pair-level caching keys off these (see
    #: :func:`repro.analysis.store.pair_key`).
    subkeys: "dict[str, str] | None" = field(default=None, compare=False)

    @property
    def program(self) -> Program:
        return self.layout.program

    def per_node_blocks(self) -> dict[str, frozenset[int]]:
        """Memory blocks referenced per CFG node (for path footprints).

        Memoised: the aggregate is immutable after analysis, and every
        preemption pair re-derives path footprints from this map.
        """
        cached = getattr(self, "_per_node_blocks", None)
        if cached is None:
            cached = self.aggregate.per_node_blocks()
            self._per_node_blocks = cached
        return cached

    def path_footprints(self) -> list[frozenset[int]]:
        """Footprint block set of each feasible path, computed once.

        Aligned with :attr:`path_profiles`; the naive Equation 4 evaluator
        previously rebuilt every footprint for every preemption pair.
        """
        cached = getattr(self, "_path_footprints", None)
        if cached is None:
            from repro.program.paths import path_footprint

            per_node = self.per_node_blocks()
            cached = [
                path_footprint(profile, per_node)
                for profile in self.path_profiles
            ]
            self._path_footprints = cached
        return cached

    def dense_footprint(self) -> bytes:
        """Capped dense per-set vector of the task footprint, memoised."""
        cached = getattr(self, "_dense_footprint", None)
        if cached is None:
            from repro.cache.kernels import dense_from_ciip_counts

            cached = dense_from_ciip_counts(
                self.footprint_ciip.set_counts,
                self.config.num_sets,
                self.config.ways,
            )
            self._dense_footprint = cached
        return cached

    def dense_mumbs(self) -> bytes:
        """Capped dense vector of the MUMBS (Eq. 3's ``M̃``): its point's."""
        return self.useful.max_point().dense

    def dense_path_matrix(self) -> bytes:
        """All path-footprint vectors stacked into one flat row matrix.

        Row *i* counts the blocks of ``path_footprints()[i]`` per cache
        set, capped at ``L``; the Approach-4 maximisation over paths
        against one preemptee vector is then a single
        :func:`repro.cache.kernels.dense_max_conflict` call.  Memoised.
        """
        cached = getattr(self, "_dense_path_matrix", None)
        if cached is None:
            from repro.cache.kernels import dense_from_ciip_counts, dense_rows

            config = self.config
            rows = []
            for footprint in self.path_footprints():
                counts: dict[int, int] = {}
                for block in footprint:
                    index = config.index(block)
                    counts[index] = counts.get(index, 0) + 1
                rows.append(
                    dense_from_ciip_counts(counts, config.num_sets, config.ways)
                )
            cached = self._dense_path_matrix = dense_rows(rows)
        return cached

    def dense_useful_points(self) -> list[bytes]:
        """The ``per_point`` MUMBS mode's preemptee vectors: the distinct,
        non-dominated dense vectors of the non-empty useful points
        (:meth:`UsefulBlocksAnalysis.dense_points`)."""
        return self.useful.dense_points()

    def summary(self) -> dict[str, int]:
        """Headline numbers for reports and quick sanity checks."""
        return {
            "wcet_cycles": self.wcet.cycles,
            "footprint_blocks": len(self.footprint),
            "mumbs_blocks": len(self.useful.mumbs()),
            "feasible_paths": len(self.path_profiles),
            "cfg_blocks": len(self.program.cfg.labels()),
        }


def analyze_task(
    layout: ProgramLayout,
    scenarios: Scenarios,
    config: CacheConfig,
    max_steps: int = 10_000_000,
    budget: "AnalysisBudget | None" = None,
    ledger: "DegradationLedger | None" = None,
    clock: "BudgetClock | None" = None,
    store: "ArtifactStore | None" = None,
) -> TaskArtifacts:
    """Run the full single-task analysis pipeline (Section III-B steps 1-2).

    Step 1 — derive memory traces by simulation (one cold-cache run per
    input scenario); the WCET falls out of the same runs.  Step 2 — solve
    the intra-task RMB/LMB dataflow and the useful-block analysis.  Path
    profiles for the inter-task path analysis (step 4) are enumerated here
    too, since they only depend on the program structure.

    With a *budget*, path enumeration uses ``budget.max_paths`` and a
    blow-up degrades (non-strict) to path-incomplete artifacts instead of
    raising; simulation steps are capped by ``budget.max_sim_steps`` and
    the wall-clock deadline is enforced between stages.  *ledger* receives
    a record of any degradation (a tripped enumeration only when
    ``budget.exact_paths`` is off); *clock* lets a caller share one
    wall-clock countdown across several tasks.

    With a *store* (see :mod:`repro.analysis.store`), every pipeline stage
    is looked up / persisted as a **sub-artifact** keyed only by the
    inputs that stage reads: the reference traces (cache- and
    placement-independent), the per-scenario hit/miss counts (geometry-
    and placement-dependent, cost-free), the RMB/LMB/CIIP/useful analyses
    (likewise) and the path profiles (structure-only).  A penalty sweep
    therefore re-costs cached counts in O(1); a geometry sweep or a layout
    move replays cached traces instead of re-simulating; and a full hit
    assembles artifacts without touching the trace entry at all.
    Degradation events stored with a stage are replayed into *ledger* on
    every hit, so cached and cold runs are indistinguishable to callers.

    ``wcet.traces`` is always a lazy columnar view, decoded into
    recorders only when a consumer reads it.
    """
    program = layout.program
    program.cfg.validate()
    path_limit = 4096
    if budget is not None:
        max_steps = min(max_steps, budget.max_sim_steps)
        path_limit = budget.max_paths
        if clock is None:
            clock = budget.start()
    strict = budget.strict if budget is not None else False
    use_store = store is not None and store.enabled
    if budget is not None and budget.exact_paths:
        # A tripped path enumeration then degrades nothing: the CRPD stage
        # answers Eq. 4 exactly by branch-and-bound.  The event is still
        # stored with the paths and task entries, whose keys do not hash
        # exact_paths, so cached and cold runs agree in both directions.
        ledger = None

    def replay(span, event) -> None:
        # Replayed degradations become ledger entries and span events, so
        # a cached trace tells the same story as a cold one.
        if ledger is not None:
            ledger.events.append(event)
        span.event(
            "ledger.degradation",
            stage=event.stage,
            budget=event.budget,
            fallback=event.fallback,
            replayed=True,
        )

    with _OBS.tracer.span("analyze.task", task=program.name) as span:
        task_key = None
        if use_store:
            from repro.analysis.store import artifact_key

            task_key = artifact_key(
                layout, scenarios, config, max_steps, path_limit, strict
            )
            memo = store.get(task_key, kind="task", memory_only=True)
            if memo is not None:
                for event in memo.events:
                    replay(span, event)
                span.set(cache_hit=True)
                return memo.artifacts
        span.set(cache_hit=False)

        wcet, placed, keys = _wcet_stage(
            layout, scenarios, config, max_steps, store if use_store else None,
            clock, program.name,
        )
        if use_store:
            from repro.analysis.store import flow_key, paths_key

            keys["flow"] = flow_key(keys["trace"], layout, config)
            keys["paths"] = paths_key(program, path_limit, strict)
        flow = _flow_stage(
            program, scenarios, config, store if use_store else None,
            keys.get("flow"), placed, clock,
        )
        path_profiles, path_complete, local_events = _paths_stage(
            program, path_limit, budget, ledger, span,
            store if use_store else None, keys.get("paths"),
        )
        artifacts = TaskArtifacts(
            name=program.name,
            layout=layout,
            config=config,
            wcet=wcet,
            aggregate=flow.aggregate,
            footprint=flow.footprint,
            footprint_ciip=flow.footprint_ciip,
            dataflow=flow.dataflow,
            useful=flow.useful,
            path_profiles=path_profiles,
            path_enumeration_complete=path_complete,
            subkeys=keys or None,
        )
        span.set(
            wcet_cycles=wcet.cycles,
            feasible_paths=len(path_profiles),
            path_enumeration_complete=path_complete,
        )
        if task_key is not None:
            from repro.analysis.store import CachedAnalysis

            store.put(
                task_key,
                CachedAnalysis(artifacts, tuple(local_events)),
                kind="task",
                memory_only=True,
            )
        return artifacts


def _wcet_stage(
    layout: ProgramLayout,
    scenarios: Scenarios,
    config: CacheConfig,
    max_steps: int,
    store: "ArtifactStore | None",
    clock: "BudgetClock | None",
    name: str,
):
    """Trace + sim sub-artifacts -> (wcet, traces at *layout*, keys).

    Every path charges the cache the same way: by replaying columns.
    Cold: one cache-free VM run per scenario records its columns and
    base cycles (the trace sub-artifact), then one replay of those
    columns through a fresh cache yields the counts (the sim
    sub-artifact).  The trace key is placement-free, so a hit may come
    from another placement of the same program: the columnar traces are
    then relocated to this one — lazily, only if a sim or flow miss
    reads the addresses.  Trace hit with a sim miss (new geometry or
    placement): replay the relocated columns — no VM.  Both hits (new
    costs only): reassemble cycle counts arithmetically and defer trace
    decoding entirely.
    """
    from repro.analysis.store import (
        SimBundle,
        StoreBackedTraces,
        TraceBundle,
        sim_key,
        trace_key,
    )

    keys: dict[str, str] = {}
    trace_bundle = None
    if store is not None:
        t_key = trace_key(layout.program, scenarios, max_steps)
        s_key = sim_key(t_key, layout, config)
        keys["trace"] = t_key
        keys["sim"] = s_key
        trace_bundle = store.get(t_key, kind="trace")
    if trace_bundle is None:
        if clock is not None:
            clock.check(f"wcet:{name}")
        wcet, runs = measure_wcet_detailed(
            layout, scenarios, config, max_steps=max_steps,
            relocatable=store is not None,
        )
        placed = wcet.traces
        if store is not None:
            store.put(
                t_key,
                TraceBundle(
                    scenario_names=tuple(scenarios),
                    traces=placed.compact(),
                    base_cycles={
                        scenario: run.base_cycles
                        for scenario, run in runs.items()
                    },
                    bases=layout.region_bases(),
                ),
                kind="trace",
            )
            store.put(
                s_key,
                SimBundle(
                    counts={
                        scenario: (run.accesses, run.misses, run.writebacks)
                        for scenario, run in runs.items()
                    }
                ),
                kind="sim",
            )
        return wcet, placed, keys
    bases = layout.region_bases()
    placed = trace_bundle.placed(bases)
    sim_bundle = store.get(s_key, kind="sim")
    if sim_bundle is None:
        # New geometry or placement against a known trace: replay, don't
        # re-simulate.
        if clock is not None:
            clock.check(f"wcet:{name}")
        traces = placed.compact()
        sim_bundle = SimBundle(counts={
            scenario: replay_counts(traces[scenario], config)
            for scenario in scenarios
        })
        store.put(s_key, sim_bundle, kind="sim")
    # Iterate in the *caller's* scenario order (identical content hashes
    # regardless of order), so worst-scenario tie-breaking matches what a
    # cold run with these scenarios would pick.
    per_scenario = {
        scenario: cycles_from_counts(
            config,
            trace_bundle.base_cycles[scenario],
            *sim_bundle.counts[scenario],
        )
        for scenario in scenarios
    }
    worst = worst_of(per_scenario)
    if store.directory is not None:
        traces = StoreBackedTraces(store.directory, t_key, tuple(scenarios), bases)
    else:
        traces = placed
    wcet = WCETResult(
        cycles=per_scenario[worst],
        worst_scenario=worst,
        per_scenario_cycles=per_scenario,
        traces=traces,
    )
    return wcet, placed, keys


def _flow_stage(
    program: Program,
    scenarios: Scenarios,
    config: CacheConfig,
    store: "ArtifactStore | None",
    f_key: "str | None",
    placed: LazyTraces,
    clock: "BudgetClock | None",
) -> "FlowBundle":
    """Aggregate/CIIP/RMB-LMB/useful sub-artifact, restamped to *config*."""
    from repro.analysis.store import FlowBundle

    flow = None
    if store is not None and f_key is not None:
        flow = store.get(f_key, kind="flow")
    if flow is not None:
        return _restamp_flow(flow, config)
    if clock is not None:
        clock.check(f"dataflow:{program.name}")
    traces = placed.compact()
    aggregate = NodeTraceAggregate.from_compact(
        config, [traces[scenario] for scenario in scenarios]
    )
    footprint = aggregate.footprint()
    dataflow = solve_rmb_lmb(program.cfg, aggregate, config)
    useful = compute_useful_blocks(program.cfg, dataflow)
    flow = FlowBundle(
        aggregate=aggregate,
        footprint=footprint,
        footprint_ciip=CIIP.from_addresses(config, footprint),
        dataflow=dataflow,
        useful=useful,
    )
    if store is not None and f_key is not None:
        store.put(f_key, flow, kind="flow")
    return flow


def _restamp_flow(flow: "FlowBundle", config: CacheConfig) -> "FlowBundle":
    """Re-stamp a cached flow bundle with the caller's full config.

    Flow entries are keyed by geometry only, so a hit may carry a config
    differing in cost fields (or write-allocation mode).  None of the
    bundle's *data* reads those fields, but the embedded config objects
    must compare equal across every task of an analysis (the CRPD kernels
    insist on one shared configuration), so wrap the shared immutable
    innards in fresh carriers stamped with the requested config.
    """
    from repro.analysis.store import FlowBundle

    if flow.aggregate.config == config:
        return flow
    return FlowBundle(
        aggregate=NodeTraceAggregate(
            config=config, node_refs=flow.aggregate.node_refs
        ),
        footprint=flow.footprint,
        footprint_ciip=CIIP(config=config, groups=flow.footprint_ciip.groups),
        dataflow=replace(flow.dataflow, config=config),
        useful=replace(flow.useful, config=config),
    )


def _paths_stage(
    program: Program,
    path_limit: int,
    budget: "AnalysisBudget | None",
    ledger: "DegradationLedger | None",
    span,
    store: "ArtifactStore | None",
    p_key: "str | None",
):
    """Path-profile sub-artifact with full degradation replay semantics."""
    bundle = None
    if store is not None and p_key is not None:
        bundle = store.get(p_key, kind="paths")
    if bundle is not None:
        if not bundle.complete and (budget is None or budget.strict):
            # A cold run under this caller's (absent or strict) budget
            # would have raised out of enumeration; reproduce that from
            # the stored degradation record.
            reason = (
                bundle.events[0].reason
                if bundle.events
                else "path enumeration exceeded the stored limit"
            )
            raise PathExplosionError(reason, stage=f"paths:{program.name}")
        for event in bundle.events:
            if ledger is not None:
                ledger.events.append(event)
            span.event(
                "ledger.degradation",
                stage=event.stage,
                budget=event.budget,
                fallback=event.fallback,
                replayed=True,
            )
        return bundle.profiles, bundle.complete, list(bundle.events)
    path_profiles: list[PathProfile] = []
    path_complete = True
    local_events = []
    try:
        path_profiles = enumerate_path_profiles(program, limit=path_limit)
    except PathExplosionError as error:
        if budget is None or budget.strict:
            raise
        path_complete = False
        from repro.guard.ledger import DegradationEvent

        event = DegradationEvent(
            stage=f"paths:{program.name}",
            budget="max_paths",
            reason=str(error),
            fallback="path-incomplete artifacts (Eq. 4 -> MUMBS∩CIIP)",
        )
        local_events.append(event)
        if ledger is not None:
            ledger.events.append(event)
        span.event(
            "ledger.degradation",
            stage=event.stage,
            budget=event.budget,
            fallback=event.fallback,
        )
    if store is not None and p_key is not None:
        from repro.analysis.store import PathsBundle

        store.put(
            p_key,
            PathsBundle(
                profiles=path_profiles,
                complete=path_complete,
                events=tuple(local_events),
            ),
            kind="paths",
        )
    return path_profiles, path_complete, local_events
