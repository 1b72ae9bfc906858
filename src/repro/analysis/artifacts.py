"""Per-task analysis artifacts: one simulation pass feeding every analysis.

``analyze_task`` is the front door used by experiments and examples: given
a laid-out program and its input scenarios it records one trace per
scenario, reads the traces' block view once for the cache counts (hence
the WCET) and for each node's distinct visits, solves the RMB/LMB
dataflow over those visits (whose blocks are the task footprint, numbered
once by cache set), derives the useful-block analysis and enumerates
feasible paths.
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
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.rmb_lmb import RMBLMBResult, solve_rmb_lmb
from repro.analysis.useful import UsefulBlocksAnalysis, compute_useful_blocks
from repro.analysis.wcet import (
    Scenarios,
    WCETResult,
    cycles_from_counts,
    measure_wcet_detailed,
)
from repro.cache.ciip import CIIP
from repro.cache.config import CacheConfig
from repro.errors import PathExplosionError
from repro.obs import STATE as _OBS
from repro.program.builder import Program
from repro.program.layout import ProgramLayout
from repro.program.paths import PathProfile, enumerate_path_profiles
from repro.vm.trace import Visit

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

    @property
    def footprint(self) -> frozenset[int]:
        """The task's blocks (its M): those the RMB/LMB solution numbers."""
        return frozenset(self.dataflow.bits.blocks)

    @property
    def footprint_ciip(self) -> CIIP:
        """The footprint's CIIP (Definition 3), decoded from the dataflow's
        set-grouped bits (reports and diagnostics; no bound reads it)."""
        bits = self.dataflow.bits
        return CIIP(config=self.config, groups=bits.per_set(bits.full))

    def path_masks(self) -> list[int]:
        """Each feasible path's footprint as a mask over the dataflow's
        bits: the OR of ``dataflow.own`` over the path's labels.

        Aligned with :attr:`path_profiles`.  Memoised.
        """
        cached = getattr(self, "_path_masks", None)
        if cached is None:
            own = self.dataflow.own
            cached = []
            for profile in self.path_profiles:
                mask = 0
                for label in profile.labels():
                    mask |= own.get(label, 0)
                cached.append(mask)
            self._path_masks = cached
        return cached

    def dense_footprint(self) -> bytes:
        """Capped dense per-set vector of the task footprint, memoised."""
        cached = getattr(self, "_dense_footprint", None)
        if cached is None:
            cached = self.dataflow.dense(self.dataflow.bits.full)
            self._dense_footprint = cached
        return cached

    def dense_mumbs(self) -> bytes:
        """Capped dense vector of the MUMBS (Eq. 3's ``M̃``): its point's."""
        return self.useful.max_point().dense

    def dense_path_matrix(self) -> bytes:
        """All path-footprint vectors stacked into one flat row matrix.

        Row *i* is the capped per-set vector of ``path_masks()[i]``; the
        Approach-4 maximisation over paths against one preemptee vector
        is then a single :func:`repro.cache.kernels.dense_max_conflict`
        call.  Memoised.
        """
        cached = getattr(self, "_dense_path_matrix", None)
        if cached is None:
            cached = b"".join(map(self.dataflow.dense, self.path_masks()))
            self._dense_path_matrix = cached
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

    Step 1 — derive memory traces by simulation (one cache-free run per
    input scenario); the WCET falls out of the same runs, their traces
    charged through a cold cache.  Step 2 — solve
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
    and placement-dependent, cost-free), the RMB/LMB/useful analyses
    (likewise) and the path profiles (structure-only).  A penalty sweep
    therefore re-costs cached counts in O(1); a geometry sweep or a layout
    move replays cached traces instead of re-simulating (a cold run reads
    its fresh traces the same way); and when the sim and flow entries
    both hit, the trace entry is not read at all.
    Degradation events stored with a stage are replayed into *ledger* on
    every hit, so cached and cold runs are indistinguishable to callers.

    The artifacts carry no traces: the store holds them, and
    :func:`~repro.analysis.wcet.scenario_traces` records them for a
    diagnostic that reads events.
    """
    program = layout.program
    if not getattr(program, "_validated", False):
        program.cfg.validate()
        program._validated = True
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
        task_key = structure = None
        if use_store:
            from repro.analysis.store import artifact_key, structure_digest

            structure = structure_digest(program)
            task_key = artifact_key(
                layout, scenarios, config, max_steps, path_limit, strict,
                structure,
            )
            memo = store.get(task_key, kind="task", memory_only=True)
            if memo is not None:
                for event in memo.events:
                    replay(span, event)
                span.set(cache_hit=True)
                return memo.artifacts
        span.set(cache_hit=False)

        keys: dict[str, str] = {}
        if use_store:
            from repro.analysis.store import flow_key, paths_key, sim_key, trace_key

            t_key = trace_key(program, scenarios, max_steps)
            keys = {
                "trace": t_key,
                "sim": sim_key(t_key, layout, config),
                "flow": flow_key(t_key, layout, config),
                "paths": paths_key(structure, path_limit, strict),
            }
        wcet, flow = _wcet_stage(
            layout, scenarios, config, max_steps, store if use_store else None,
            keys, clock,
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
    keys: dict[str, str],
    clock: "BudgetClock | None",
) -> "tuple[WCETResult, FlowBundle]":
    """Sim and flow sub-artifacts, and the trace one when either misses.

    A sim entry holds each scenario's counts and base cycles, so when the
    sim and flow entries both hit (new costs only) the WCET reassembles
    arithmetically and no trace is read.  Otherwise both are read off
    the trace bundle's block view
    (:meth:`~repro.analysis.store.TraceBundle.view`) through this
    placement's block table: the counts by one replay of its key-id
    streams, the flow by solving its key-id visits.  The bundle comes
    from the store (new geometry or placement; the trace key is
    placement-free, so it may come from another placement of the same
    program: no VM, no event relocated) or, on a miss, from one
    cache-free VM run per scenario, which records its trace and base
    cycles (:func:`~repro.analysis.wcet.measure_wcet_detailed`).
    """
    from repro.analysis.store import SimBundle, TraceBundle

    program = layout.program
    sim = flow = None
    if store is not None:
        sim = store.get(keys["sim"], kind="sim")
        flow = store.get(keys["flow"], kind="flow")
    if sim is None or flow is None:
        bundle = None if store is None else store.get(keys["trace"], kind="trace")
        if clock is not None and (bundle is None or sim is None):
            clock.check(f"wcet:{program.name}")
        bases = layout.region_bases()
        if bundle is None:
            recorded = measure_wcet_detailed(layout, scenarios, max_steps)
            bundle = TraceBundle(
                traces={name: trace for name, (_, trace) in recorded.items()},
                base_cycles={name: base for name, (base, _) in recorded.items()},
                bases=bases,
            )
            if store is not None:
                store.put(keys["trace"], bundle, kind="trace")
        view = bundle.view(config.line_size, bases, scenarios)
        if sim is None:
            sim = SimBundle(
                counts=view.counts(bases, config), base_cycles=bundle.base_cycles
            )
            if store is not None:
                store.put(keys["sim"], sim, kind="sim")
        if flow is None:
            if clock is not None:
                clock.check(f"dataflow:{program.name}")
            flow = _flow_stage(program, config, view.visits, view.moved(bases))
            if store is not None:
                store.put(keys["flow"], flow, kind="flow")
    # Iterate in the *caller's* scenario order (identical content hashes
    # regardless of order), so worst-scenario tie-breaking matches what a
    # cold run with these scenarios would pick.
    wcet = WCETResult.of({
        scenario: cycles_from_counts(
            config, sim.base_cycles[scenario], *sim.counts[scenario]
        )
        for scenario in scenarios
    })
    return wcet, _restamp_flow(flow, config)


def _flow_stage(
    program: Program,
    config: CacheConfig,
    visits: "Mapping[str, Sequence[Visit]]",
    blocks: Sequence[int],
) -> "FlowBundle":
    """The RMB-LMB/useful sub-artifact of *visits*, whose ids index
    *blocks* (see :func:`solve_rmb_lmb`)."""
    from repro.analysis.store import FlowBundle

    dataflow = solve_rmb_lmb(program.cfg, visits, config, blocks)
    return FlowBundle(
        dataflow=dataflow, useful=compute_useful_blocks(program.cfg, dataflow)
    )


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

    if flow.dataflow.config == config:
        return flow
    return FlowBundle(
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
