"""Unified cache-related preemption delay (CRPD) estimation.

Brings the four approaches of Section VIII together behind one interface:

* Approach 1 — Busquets-Mataix et al. [20]: all lines of the preempting task.
* Approach 2 — Tan & Mooney [1]: footprint intersection, Equation 2.
* Approach 3 — Lee et al. [21]: useful memory blocks of the preempted task.
* Approach 4 — this paper: useful blocks × per-path preempting footprint,
  Equations 3/4, the combination the paper contributes.

``Cpre(Ta, Tb) = lines × Cmiss`` (Equation 5) converts a line count into
the cache reload cost charged per preemption in the WCRT recurrence.

Guarded operation: give the analyzer an
:class:`~repro.guard.budget.AnalysisBudget` and a
:class:`~repro.guard.ledger.DegradationLedger` and Approach 4 degrades
along the sound ladder — exact Eq. 4 path cost → MUMBS∩CIIP (Eq. 3) →
|MUMBS| capped per set (Lee's bound) — whenever path profiles are
unavailable (enumeration budget tripped) or the wall clock ran out,
instead of raising.  Every degradation lands in the ledger; strict mode
raises :class:`~repro.errors.BudgetExceeded` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

from repro.analysis.artifacts import TaskArtifacts
from repro.analysis.intertask import approach2_lines, eq3_lines
from repro.analysis.pathcost import approach4_lines
from repro.cache.kernels import dense_conflict, dense_max_conflict, dense_usage
from repro.errors import BudgetExceeded, ConfigError
from repro.obs import STATE as _OBS

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
    from repro.guard.budget import AnalysisBudget, BudgetClock
    from repro.guard.ledger import DegradationLedger


class Approach(IntEnum):
    """The four CRPD estimation approaches compared in the paper."""

    BUSQUETS = 1
    INTERTASK = 2
    LEE = 3
    COMBINED = 4


ALL_APPROACHES = tuple(Approach)


def conservative_approach4_lines(
    preempted: TaskArtifacts,
    preempting: TaskArtifacts,
    mumbs_mode: str = "per_point",
) -> int:
    """Sound over-approximation of Approach 4 needing *no* path profiles.

    The degradation ladder below exact Eq. 4: Lee's per-point bound
    (|MUMBS| capped at ``L`` per set, Approach 3) and the footprint
    intersection (Eq. 2, Approach 2) both dominate every per-point,
    per-path conflict; in ``"paper"`` mode the MUMBS∩CIIP bound
    ``S(M̃a, Mb)`` (Eq. 3) additionally dominates Definition 4's
    path-maximised cost because every path footprint ``Mb^k ⊆ Mb``.
    The minimum of the applicable bounds is returned — still an upper
    bound on the exact value, but never looser than Approaches 2/3.
    """
    bound = min(
        preempted.useful.lee_reload_bound(),
        approach2_lines(preempted, preempting),
    )
    if mumbs_mode == "paper":
        bound = min(bound, eq3_lines(preempted, preempting))
    return bound


@dataclass(frozen=True)
class PreemptionEstimate:
    """Reload-line estimates for one (preempted, preempting) pair."""

    preempted: str
    preempting: str
    lines: dict[Approach, int]

    def describe(self) -> str:
        parts = ", ".join(f"App{a.value}={self.lines[a]}" for a in ALL_APPROACHES)
        return f"{self.preempted} by {self.preempting}: {parts}"


class CRPDAnalyzer:
    """Computes reload-line counts and ``Cpre`` for a set of analysed tasks.

    Args:
        tasks: task name -> :class:`TaskArtifacts`; all must share one
            cache configuration.
        mumbs_mode: Approach 4 variant.  The default ``"per_point"`` is the
            sound joint maximisation over execution points and paths;
            ``"paper"`` is Definition 4 verbatim, which can underestimate
            when the conflict-maximising execution point differs from the
            useful-count-maximising one (see
            :func:`repro.analysis.pathcost.approach4_lines`).
        budget: optional :class:`AnalysisBudget` enabling guarded
            operation (sound Approach 4 degradation instead of failure).
        ledger: receives a :class:`DegradationEvent` per fallback fired;
            a fresh ledger is created when omitted.
        clock: optional shared wall-clock countdown; created from
            *budget* on first use when omitted.
        store: optional :class:`~repro.analysis.store.ArtifactStore`.
            When given, :meth:`estimate_pair` caches each pair's four
            reload-line counts as a ``pair`` sub-artifact keyed by both
            tasks' flow/paths content keys (never by cost parameters), so
            penalty sweeps and repeat batch points skip the Eq. 4 path
            search entirely.  Wall-clock-degraded values are never
            stored — only deterministic results and their (replayable)
            ``max_paths`` degradations.

    Approach 4 has one rule per input: the flat dense kernel
    (:func:`~repro.cache.kernels.dense_max_conflict` over
    :meth:`TaskArtifacts.dense_path_matrix`) when paths were enumerated;
    branch-and-bound (:func:`~repro.analysis.pathcost.approach4_lines`)
    when enumeration tripped ``max_paths`` and ``budget.exact_paths``
    asks for the exact answer (no ledger event is then recorded); the
    sound degradation ladder when it tripped otherwise; and 0 for a
    preemptor with no feasible paths (a :class:`ConfigError` when
    strict).
    """

    def __init__(
        self,
        tasks: dict[str, TaskArtifacts],
        mumbs_mode: str = "per_point",
        budget: "AnalysisBudget | None" = None,
        ledger: "DegradationLedger | None" = None,
        clock: "BudgetClock | None" = None,
        store: "ArtifactStore | None" = None,
    ):
        if not tasks:
            raise ConfigError("no tasks given")
        configs = {artifacts.config for artifacts in tasks.values()}
        if len(configs) != 1:
            raise ConfigError("all tasks must share one cache configuration")
        self.tasks = dict(tasks)
        self.config = next(iter(configs))
        self.mumbs_mode = mumbs_mode
        self.budget = budget
        if ledger is None:
            from repro.guard.ledger import DegradationLedger

            ledger = DegradationLedger()
        self.ledger = ledger
        if clock is None and budget is not None:
            clock = budget.start()
        self.clock = clock
        self.store = store
        self._lines_cache: dict[tuple[str, str, Approach], int] = {}
        #: Wall-clock seconds spent computing estimates, per approach
        #: (cached lookups add nothing).  Surfaced by tables and reports.
        self.analysis_seconds: dict[Approach, float] = {
            approach: 0.0 for approach in ALL_APPROACHES
        }

    def _artifacts(self, name: str) -> TaskArtifacts:
        try:
            return self.tasks[name]
        except KeyError:
            raise KeyError(f"unknown task {name!r}") from None

    # ------------------------------------------------------------------
    def lines_reloaded(
        self, preempted: str, preempting: str, approach: Approach
    ) -> int:
        """Estimated cache lines reloaded when *preempting* preempts *preempted*."""
        approach = Approach(approach)  # accept plain ints like 4
        key = (preempted, preempting, approach)
        if key not in self._lines_cache:
            # The span brackets exactly the region analysis_seconds times,
            # so trace durations reconcile with the reported wall times
            # (pinned by the obs integration property tests).
            with _OBS.tracer.span(
                "crpd.pair",
                preempted=preempted,
                preempting=preempting,
                approach=approach.value,
            ) as span:
                started = time.perf_counter()
                lines = self._compute_lines(
                    self._artifacts(preempted),
                    self._artifacts(preempting),
                    approach,
                )
                self.analysis_seconds[approach] += time.perf_counter() - started
                span.set(lines=lines)
            if _OBS.enabled:
                _OBS.metrics.counter("crpd.pairs_computed").inc()
            self._lines_cache[key] = lines
        return self._lines_cache[key]

    def _compute_lines(
        self, low: TaskArtifacts, high: TaskArtifacts, approach: Approach
    ) -> int:
        # Approaches 1/2 are flat min-sums over the tasks' memoised dense
        # vectors.
        if approach is Approach.BUSQUETS:
            return dense_usage(high.dense_footprint())
        if approach is Approach.INTERTASK:
            return dense_conflict(low.dense_footprint(), high.dense_footprint())
        if approach is Approach.LEE:
            return low.useful.lee_reload_bound()
        if approach is Approach.COMBINED:
            return self._combined_lines(low, high)
        raise ConfigError(f"unknown approach {approach!r}")

    def _combined_lines(self, low: TaskArtifacts, high: TaskArtifacts) -> int:
        """Approach 4, degrading along the sound ladder under a budget."""
        stage = f"crpd:{low.name}<-{high.name}"
        if self.clock is not None and self.clock.expired:
            return self._degrade(
                low,
                high,
                stage=stage,
                tripped="wall_clock_seconds",
                reason=(
                    f"wall-clock budget exhausted after "
                    f"{self.clock.elapsed():.3f}s; skipping Eq. 4 path "
                    "maximisation"
                ),
            )
        if not high.path_enumeration_complete:
            if self.budget is not None and self.budget.exact_paths:
                # Branch-and-bound needs only the structure tree, so the
                # exact Eq. 4 answer is available even past max_paths.
                return approach4_lines(low, high, mumbs_mode=self.mumbs_mode)
            return self._degrade(
                low,
                high,
                stage=stage,
                tripped="max_paths",
                reason=(
                    f"path enumeration of {high.name!r} exceeded the budget; "
                    "Eq. 4 path analysis unavailable"
                ),
            )
        if not high.path_profiles:
            # A preemptor with no feasible paths executes nothing.
            if self.budget is not None and self.budget.strict:
                raise ConfigError(
                    f"preempting task {high.name!r} has no feasible paths"
                )
            return 0
        # Eq. 4 over the flat path matrix: one kernel call per preemptee
        # vector.  Capping at L while densifying keeps every min(., ., L)
        # term, and a dominated useful vector never sets the maximum.
        rows = high.dense_path_matrix()
        if self.mumbs_mode == "paper":
            return dense_max_conflict(rows, low.dense_mumbs())
        if self.mumbs_mode == "per_point":
            return max(
                (dense_max_conflict(rows, vec) for vec in low.dense_useful_points()),
                default=0,
            )
        raise ConfigError(f"unknown mumbs_mode {self.mumbs_mode!r}")

    def _degrade(
        self,
        low: TaskArtifacts,
        high: TaskArtifacts,
        stage: str,
        tripped: str,
        reason: str,
    ) -> int:
        if self.budget is not None and self.budget.strict:
            raise BudgetExceeded(
                f"{stage}: {reason} (strict mode forbids degradation)",
                budget=tripped,
                stage=stage,
            )
        self.ledger.record(
            stage=stage,
            budget=tripped,
            reason=reason,
            fallback="min(MUMBS∩CIIP, |MUMBS| per-set cap, Eq. 2)",
        )
        return conservative_approach4_lines(low, high, self.mumbs_mode)

    @property
    def soundness(self) -> str:
        """``"exact"`` when no Approach 4 estimate was degraded."""
        return self.ledger.soundness

    def cpre(
        self,
        preempted: str,
        preempting: str,
        approach: Approach,
        miss_penalty: int | None = None,
    ) -> int:
        """Equation 5: cache reload cost in cycles for one preemption.

        ``miss_penalty`` defaults to the analysis cache's ``Cmiss``; pass an
        override to sweep the penalty as Tables III/V do.

        For a write-back cache (``config.write_back``) an extra term covers
        the dirty victim lines the preemption forces out: *any* evicted
        line of the preempted task may be dirty — not only the useful ones
        — so the writeback term is bounded by the footprint intersection
        ``S(Ma, Mb)`` (Equation 2) regardless of the reload approach.
        """
        approach = Approach(approach)
        lines = self._lines_cache.get((preempted, preempting, approach))
        if lines is None:
            order = list(self.tasks)
            if preempted in self.tasks and (
                preempting in order[: order.index(preempted)]
            ):
                # Every pair (through the pair store, when there is one)
                # in priority order on the first uncached one, so runs
                # with and without a store record one ledger order.
                self.estimate_all_pairs(order)
            lines = self.lines_reloaded(preempted, preempting, approach)
        penalty = self.config.miss_penalty if miss_penalty is None else miss_penalty
        cost = lines * penalty
        writeback = self.config.effective_writeback_penalty
        if writeback:
            dirty_bound = self.lines_reloaded(
                preempted, preempting, Approach.INTERTASK
            )
            cost += dirty_bound * writeback
        return cost

    def _pair_store_key(self, preempted: str, preempting: str) -> str | None:
        """The pair sub-artifact key, or ``None`` when uncacheable."""
        if self.store is None or not self.store.enabled:
            return None
        low = self._artifacts(preempted)
        high = self._artifacts(preempting)
        if not low.subkeys or not high.subkeys:
            return None  # analysed without a store: no content identity
        from repro.analysis.store import pair_key

        budget = self.budget
        return pair_key(
            low.subkeys["flow"],
            low.subkeys["paths"],
            high.subkeys["flow"],
            high.subkeys["paths"],
            self.mumbs_mode,
            budget is not None and budget.exact_paths,
            budget is not None and budget.strict,
        )

    def estimate_pair(self, preempted: str, preempting: str) -> PreemptionEstimate:
        """All four approaches for one preemption pair (a Table II row).

        With a store, the result is cached as a ``pair`` sub-artifact
        keyed by both tasks' flow/paths content keys — cost parameters
        never participate, so a penalty sweep reuses every pair.  A hit
        replays the stored degradation events into the ledger; values
        produced under a wall-clock degradation (timing-dependent, hence
        unreproducible) are never stored.
        """
        key = self._pair_store_key(preempted, preempting)
        if key is not None:
            bundle = self.store.get(key, kind="pair")
            if bundle is not None:
                lines = {
                    Approach(approach): count
                    for approach, count in bundle.lines.items()
                }
                for approach, count in lines.items():
                    self._lines_cache.setdefault(
                        (preempted, preempting, approach), count
                    )
                for event in bundle.events:
                    self.ledger.events.append(event)
                    if _OBS.enabled:
                        _OBS.tracer.event(
                            "ledger.degradation",
                            stage=event.stage,
                            budget=event.budget,
                            fallback=event.fallback,
                            replayed=True,
                        )
                return PreemptionEstimate(
                    preempted=preempted, preempting=preempting, lines=lines
                )
        # Only a fully fresh computation may be stored: if some approach
        # was already answered through lines_reloaded, its degradation
        # events (if any) predate this window and the stored bundle would
        # replay incompletely.
        fresh = key is not None and all(
            (preempted, preempting, approach) not in self._lines_cache
            for approach in ALL_APPROACHES
        )
        events_before = len(self.ledger.events)
        estimate = PreemptionEstimate(
            preempted=preempted,
            preempting=preempting,
            lines={
                approach: self.lines_reloaded(preempted, preempting, approach)
                for approach in ALL_APPROACHES
            },
        )
        if fresh:
            events = tuple(self.ledger.events[events_before:])
            if not any(e.budget == "wall_clock_seconds" for e in events):
                from repro.analysis.store import PairLines

                self.store.put(
                    key,
                    PairLines(
                        lines={
                            approach.value: count
                            for approach, count in estimate.lines.items()
                        },
                        events=events,
                    ),
                    kind="pair",
                )
        return estimate

    def estimate_all_pairs(
        self, priority_order: list[str]
    ) -> list[PreemptionEstimate]:
        """Every feasible preemption pair of a priority-ordered task list.

        ``priority_order`` lists task names from highest to lowest priority;
        each task can be preempted by every earlier (higher-priority) task.
        The pairs are estimated in that order, lowest-priority task last.
        """
        return [
            self.estimate_pair(preempted, preempting)
            for low_index, preempted in enumerate(priority_order)
            for preempting in priority_order[:low_index]
        ]
