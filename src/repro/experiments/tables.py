"""Regeneration of the paper's Tables I-VI on the reproduction substrate.

Each ``tableN_*`` function returns a :class:`~repro.experiments.reporting.Table`
holding the same rows/columns the paper reports.  Absolute cycle counts
differ from the paper (our substrate is a scaled simulator, DESIGN.md
section 2); the *shape* — orderings between approaches, growth with the
cache-miss penalty, who wins where — is what the tests and EXPERIMENTS.md
check against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.crpd import Approach

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
from repro.experiments.reporting import Table, percent_improvement
from repro.experiments.setup import (
    ALL_SPECS,
    MISS_PENALTIES,
    ExperimentContext,
    ExperimentSpec,
    build_context,
)
from repro.guard.budget import AnalysisBudget
from repro.wcrt.response_time import SystemWCRT

_APPROACH_HEADERS = ["App. 1", "App. 2", "App. 3", "App. 4"]


@dataclass
class ExperimentSuite:
    """Caches analysed contexts, WCRTs and ART runs across miss penalties."""

    spec: ExperimentSpec
    penalties: tuple[int, ...] = MISS_PENALTIES
    horizon: int | None = None
    budget: AnalysisBudget | None = None
    store: "ArtifactStore | None" = None
    _contexts: dict[int, ExperimentContext] = field(default_factory=dict)

    def context(self, penalty: int) -> ExperimentContext:
        if penalty not in self._contexts:
            self._contexts[penalty] = build_context(
                self.spec,
                miss_penalty=penalty,
                budget=self.budget,
                store=self.store,
            )
        return self._contexts[penalty]

    def wcrt(self, penalty: int, approach: Approach) -> SystemWCRT:
        # The pipeline shares the context ledger, so CRPD degradations and
        # divergence entries both reach the SystemWCRT soundness tag.
        return self.context(penalty).pipeline.wcrt(approach)

    def soundness(self) -> str:
        """Worst soundness across every context analysed so far."""
        if any(c.ledger.degraded for c in self._contexts.values()):
            return "conservative"
        return "exact"

    def analysis_seconds(self) -> dict[Approach, float]:
        """CRPD analysis wall-time per approach, summed over penalties."""
        totals = {approach: 0.0 for approach in Approach}
        for context in self._contexts.values():
            for approach, spent in context.crpd.analysis_seconds.items():
                totals[approach] += spent
        return totals

    def build_seconds(self) -> float:
        """Context build + per-task analysis wall-time, summed."""
        return sum(c.build_seconds for c in self._contexts.values())

    def art(self, penalty: int) -> dict[str, int]:
        """Actual response time per task from the shared-cache simulation."""
        context = self.context(penalty)
        result = context.simulate(self.horizon)
        return {
            name: result.actual_response_time(name)
            for name in context.priority_order
        }

    def preempted_tasks(self) -> tuple[str, ...]:
        """Tasks the paper tabulates: everything below the top priority."""
        return self.spec.priority_order[1:]


# ----------------------------------------------------------------------
# Table I — task parameters
# ----------------------------------------------------------------------
def table1_tasks(
    contexts: dict[str, ExperimentContext] | None = None,
    miss_penalty: int = 20,
) -> Table:
    """Table I: WCET, period and priority of every task, both experiments."""
    if contexts is None:
        contexts = {
            spec.key: build_context(spec, miss_penalty=miss_penalty)
            for spec in ALL_SPECS
        }
    table = Table(
        title="Table I: Tasks",
        headers=["Experiment", "Task", "WCET (cycles)", "Period (cycles)", "Priority"],
        notes=[
            f"WCET measured by isolated cold-cache simulation, Cmiss={miss_penalty}",
            "priority: smaller number = higher priority (paper Table I numbering)",
        ],
    )
    for context in contexts.values():
        # The paper lists lowest-priority task first.
        for task in reversed(context.system.tasks):
            table.add_row(
                context.spec.title.split(":")[0],
                task.name.upper(),
                task.wcet,
                task.period,
                task.priority,
            )
    return table


# ----------------------------------------------------------------------
# Table II — cache lines to be reloaded
# ----------------------------------------------------------------------
def table2_cache_lines(context: ExperimentContext) -> Table:
    """Table II: reload-line estimates for every preemption pair."""
    table = Table(
        title=f"Table II: Number of cache lines to be reloaded ({context.spec.title})",
        headers=["Preemption"] + _APPROACH_HEADERS,
    )
    order = list(context.priority_order)
    for low_index in range(len(order) - 1, 0, -1):
        preempted = order[low_index]
        for preempting in order[:low_index]:
            estimate = context.crpd.estimate_pair(preempted, preempting)
            table.add_row(
                f"{preempted.upper()} by {preempting.upper()}",
                *[estimate.lines[a] for a in Approach],
            )
    # Estimates are computed lazily by the rows above, so the ledger is
    # only complete once they exist — append the soundness notes last.
    table.notes.append(f"soundness: {context.ledger.soundness}")
    table.notes.extend(event.describe() for event in context.ledger.events)
    table.notes.append(_timing_note(context.crpd.analysis_seconds))
    table.notes.append(
        f"task analysis wall-time: {context.build_seconds * 1000:.1f} ms"
    )
    return table


def _timing_note(seconds: dict[Approach, float]) -> str:
    """Render per-approach CRPD analysis wall-time as one table note."""
    parts = ", ".join(
        f"App{approach.value}={seconds[approach] * 1000:.2f} ms"
        for approach in Approach
    )
    return f"analysis wall-time per approach: {parts}"


# ----------------------------------------------------------------------
# Tables III / V — WCRT estimates vs actual response times
# ----------------------------------------------------------------------
def table_wcrt(suite: ExperimentSuite, include_art: bool = True) -> Table:
    """Tables III/V: WCRT per approach and ART, swept over Cmiss."""
    number = "III" if suite.spec.key == "exp1" else "V"
    headers = ["Cmiss", "Task"] + _APPROACH_HEADERS + (["ART"] if include_art else [])
    table = Table(
        title=f"Table {number}: Comparison of WCRT estimate ({suite.spec.title})",
        headers=headers,
        notes=["all times in cycles; ART measured on the shared-cache simulator"],
    )
    for penalty in suite.penalties:
        art = suite.art(penalty) if include_art else {}
        for task in reversed(suite.preempted_tasks()):
            row: list = [penalty, task.upper()]
            for approach in Approach:
                row.append(suite.wcrt(penalty, approach).wcrt(task))
            if include_art:
                row.append(art[task])
            table.add_row(*row)
    table.notes.append(f"soundness: {suite.soundness()}")
    table.notes.append(_timing_note(suite.analysis_seconds()))
    table.notes.append(
        f"task analysis wall-time: {suite.build_seconds() * 1000:.1f} ms "
        "(all penalties)"
    )
    return table


# ----------------------------------------------------------------------
# Tables IV / VI — improvement of Approach 4 over the others
# ----------------------------------------------------------------------
def table_improvement(suite: ExperimentSuite) -> Table:
    """Tables IV/VI: % WCRT reduction of Approach 4 vs Approaches 1-3."""
    number = "IV" if suite.spec.key == "exp1" else "VI"
    headers = ["Baseline", "Task"] + [f"Cmiss={p}" for p in suite.penalties]
    table = Table(
        title=f"Table {number}: Improvement of Approach 4 ({suite.spec.title})",
        headers=headers,
        notes=["cells are % reduction in WCRT estimate: (other - App4) / other"],
    )
    for baseline in (Approach.BUSQUETS, Approach.INTERTASK, Approach.LEE):
        for task in reversed(suite.preempted_tasks()):
            row: list = [f"App.4 vs App.{baseline.value}", task.upper()]
            for penalty in suite.penalties:
                other = suite.wcrt(penalty, baseline).wcrt(task)
                ours = suite.wcrt(penalty, Approach.COMBINED).wcrt(task)
                row.append(percent_improvement(other, ours))
            table.add_row(*row)
    return table


def generate_all_tables(
    penalties: tuple[int, ...] = MISS_PENALTIES,
    horizon: int | None = None,
    include_art: bool = True,
    budget: AnalysisBudget | None = None,
    store: "ArtifactStore | None" = None,
) -> dict[str, Table]:
    """Regenerate every table of the paper; keys 'table1' .. 'table6'."""
    suites = {
        spec.key: ExperimentSuite(
            spec, penalties=penalties, horizon=horizon, budget=budget,
            store=store,
        )
        for spec in ALL_SPECS
    }
    contexts = {key: suite.context(20) for key, suite in suites.items()}
    return {
        "table1": table1_tasks(contexts),
        "table2_exp1": table2_cache_lines(contexts["exp1"]),
        "table2_exp2": table2_cache_lines(contexts["exp2"]),
        "table3": table_wcrt(suites["exp1"], include_art=include_art),
        "table4": table_improvement(suites["exp1"]),
        "table5": table_wcrt(suites["exp2"], include_art=include_art),
        "table6": table_improvement(suites["exp2"]),
    }
