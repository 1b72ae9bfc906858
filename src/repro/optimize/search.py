"""Seeded layout/coloring search: greedy descent + simulated annealing.

One :func:`optimize` run searches, per cache budget (geometry), the
space of :class:`~repro.program.layout.LayoutAssignment` placements:

1. **Generation phase** — a seeded batch of random candidates fans out
   through :func:`~repro.batch.engine.analyze_batch` on the shared
   :class:`~repro.batch.pool.WarmPool` (one shipped context, cached
   sub-artifacts); the best candidate seeds the local search.
2. **Restart 0** — greedy descent: accept only strictly improving
   neighbors, stop after *patience* proposals without improving the
   best-ever score.  With ``method="greedy"`` this is the whole search.
3. **Restarts 1..R** — simulated annealing from the best-ever point
   with a geometrically cooling temperature and Metropolis acceptance.

Restart 0 of an annealing run draws the *same* RNG stream and applies
the same zero-temperature acceptance rule as a greedy run with the same
seed, so ``anneal best <= greedy best <= baseline`` holds by
construction (lower scores are better).

Every neighbor is evaluated through a
:class:`~repro.analysis.whatif.WhatIfSession` jump
(:meth:`~repro.analysis.whatif.WhatIfSession.set_assignment`): only the
moved task's sim/flow sub-artifacts recompute, from its stored trace's
block view at the new placement (the VM never re-runs, no event is
relocated), and rejected moves revert warm out of the session's store.
The move log records, for every visited layout,
the assignment and its evaluation payload — byte-comparable against a
cold :func:`analyze_batch` recomputation, which the equivalence suite
pins.  Nothing in the log or the Pareto front carries timing, so a run
is byte-reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as _dc_replace
from random import Random
from typing import TYPE_CHECKING, Optional

from repro.analysis.crpd import Approach
from repro.analysis.sensitivity import critical_scaling_factor
from repro.analysis.store import ArtifactStore
from repro.analysis.pipeline import resolve_base, resolve_system
from repro.analysis.whatif import WhatIfSession
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.obs import STATE as _OBS
from repro.optimize.moves import MoveProposer
from repro.optimize.pareto import pareto_front
from repro.program.layout import LayoutAssignment, LayoutError

if TYPE_CHECKING:
    from repro.batch.pool import WarmPool

METHODS = ("greedy", "anneal")
OBJECTIVES = ("wcrt", "breakdown")

#: Cooling rate per evaluated annealing move.
COOLING = 0.95


def evaluation_payload(payload: dict) -> dict:
    """A layout's evaluation: its result payload (see
    :meth:`~repro.analysis.pipeline.PipelineResult.payload`) restricted
    to ``wcet``, ``wcrt`` and ``schedulable``."""
    return {key: payload[key] for key in ("wcet", "wcrt", "schedulable")}


def wcrt_score(payload: dict, approach: Approach, periods: dict) -> int:
    """Total WCRT under *approach*, with a deadline-miss penalty term.

    Unschedulable layouts stay comparable (the search can climb out of
    them) but never beat a schedulable one: each missed deadline adds
    the sum of all periods, which exceeds any feasible WCRT total.
    """
    per = payload["wcrt"][str(int(approach))]
    weight = sum(periods.values())
    unsched = sum(1 for name, wcrt in per.items() if wcrt > periods[name])
    if not payload["schedulable"][str(int(approach))] and unsched == 0:
        unsched = 1  # jitter/deadline subtleties the period test misses
    return sum(per.values()) + weight * unsched


@dataclass
class BudgetOutcome:
    """Search result for one cache budget."""

    cache: CacheConfig
    evals: int
    baseline_score: float
    baseline_payload: dict
    baseline_assignment: LayoutAssignment
    best_score: float
    best_payload: dict
    best_assignment: LayoutAssignment

    def improvement_pct(self) -> float:
        if self.baseline_score == 0:
            return 0.0
        return round(
            (self.baseline_score - self.best_score)
            / abs(self.baseline_score)
            * 100.0,
            4,
        )

    def to_dict(self) -> dict:
        return {
            "cache": {
                "num_sets": self.cache.num_sets,
                "ways": self.cache.ways,
                "line_size": self.cache.line_size,
                "miss_penalty": self.cache.miss_penalty,
            },
            "cache_bytes": self.cache.size_bytes,
            "evals": self.evals,
            "baseline": {
                "score": self.baseline_score,
                "payload": self.baseline_payload,
                "assignment": self.baseline_assignment.to_dict(),
            },
            "best": {
                "score": self.best_score,
                "payload": self.best_payload,
                "assignment": self.best_assignment.to_dict(),
            },
            "improvement_pct": self.improvement_pct(),
        }


@dataclass
class OptimizeOutcome:
    """Everything one :func:`optimize` run produced (timing-free)."""

    experiment: Optional[str]
    seed: int
    method: str
    objective: str
    approach: Approach
    budget_evals: int
    evals_used: int
    budgets: list = field(default_factory=list)
    move_log: list = field(default_factory=list)
    pareto: list = field(default_factory=list)

    @property
    def default_budget(self) -> BudgetOutcome:
        """The first budget — the system's own geometry."""
        return self.budgets[0]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "method": self.method,
            "objective": self.objective,
            "approach": int(self.approach),
            "budget_evals": self.budget_evals,
            "evals_used": self.evals_used,
            "budgets": [outcome.to_dict() for outcome in self.budgets],
            "pareto": self.pareto,
            "move_log": self.move_log,
        }


def default_cache_budgets(config: CacheConfig) -> list:
    """The budget axis: the given geometry plus two halvings of its sets."""
    budgets = [config]
    num_sets = config.num_sets
    while len(budgets) < 3 and num_sets > 2:
        num_sets //= 2
        budgets.append(_dc_replace(config, num_sets=num_sets))
    return budgets


def optimize(
    base,
    *,
    seed: int = 0,
    budget_evals: int = 200,
    method: str = "anneal",
    objective: str = "wcrt",
    approach=Approach.COMBINED,
    restarts: int = 3,
    generation: int = 6,
    patience: int = 25,
    cache_budgets=None,
    miss_penalty: "int | None" = None,
    jobs: int = 1,
    pool: "WarmPool | None" = None,
    store: "ArtifactStore | None" = None,
    budget=None,
) -> OptimizeOutcome:
    """Search code/data placement and page colors for *base*.

    *base* is an experiment key (``"exp1"``/``"exp2"``), an
    :class:`~repro.experiments.setup.ExperimentSpec` or a fuzz
    :class:`~repro.fuzz.spec.SystemSpec`.  ``budget_evals`` bounds the
    total number of layout evaluations, split evenly across the cache
    budgets; invalid (overlapping) proposals cost no evaluation.
    Deterministic for a fixed ``(base, seed, parameters)`` tuple.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"objective must be one of {OBJECTIVES}, got {objective!r}"
        )
    if budget_evals < 1:
        raise ConfigError(f"budget_evals must be >= 1, got {budget_evals}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    approach = Approach(approach)
    from repro.fuzz.spec import SystemSpec

    base_obj = resolve_base(base)
    exp_spec = None if isinstance(base_obj, SystemSpec) else base_obj
    if store is None:
        store = ArtifactStore(directory=None, memory_slots=4096)
    if cache_budgets is None:
        cache_budgets = default_cache_budgets(
            resolve_system(base_obj, miss_penalty=miss_penalty).config
        )
    cache_budgets = list(cache_budgets)
    per_budget_evals = max(1, budget_evals // len(cache_budgets))

    outcome = OptimizeOutcome(
        experiment=exp_spec.key if exp_spec is not None else None,
        seed=seed,
        method=method,
        objective=objective,
        approach=approach,
        budget_evals=budget_evals,
        evals_used=0,
    )
    with _OBS.tracer.span(
        "optimize.run",
        seed=seed,
        method=method,
        objective=objective,
        budget_evals=budget_evals,
        budgets=len(cache_budgets),
    ) as span:
        for budget_index, cache in enumerate(cache_budgets):
            budget_outcome = _optimize_budget(
                base_obj,
                exp_spec,
                cache,
                budget_index,
                seed=seed,
                eval_cap=per_budget_evals,
                method=method,
                objective=objective,
                approach=approach,
                restarts=restarts,
                generation=generation,
                patience=patience,
                jobs=jobs,
                pool=pool,
                store=store,
                budget=budget,
                move_log=outcome.move_log,
            )
            outcome.budgets.append(budget_outcome)
            outcome.evals_used += budget_outcome.evals
        outcome.pareto = pareto_front(
            [
                {
                    "cache_bytes": b.cache.size_bytes,
                    "score": b.best_score,
                    "cache": b.to_dict()["cache"],
                    "payload": b.best_payload,
                    "assignment": b.best_assignment.to_dict(),
                }
                for b in outcome.budgets
            ]
        )
        span.set(
            evals=outcome.evals_used,
            pareto_points=len(outcome.pareto),
            best_score=outcome.default_budget.best_score,
        )
    return outcome


def _optimize_budget(
    base_obj,
    exp_spec,
    cache: CacheConfig,
    budget_index: int,
    *,
    seed,
    eval_cap,
    method,
    objective,
    approach,
    restarts,
    generation,
    patience,
    jobs,
    pool,
    store,
    budget,
    move_log,
) -> BudgetOutcome:
    return _search(
        WhatIfSession(base_obj, cache=cache, store=store, budget=budget),
        exp_spec,
        cache,
        budget_index,
        seed=seed,
        eval_cap=eval_cap,
        method=method,
        objective=objective,
        approach=approach,
        restarts=restarts,
        generation=generation,
        patience=patience,
        jobs=jobs,
        pool=pool,
        move_log=move_log,
    )


def _score(session, payload, objective, approach, periods):
    if objective == "wcrt":
        return wcrt_score(payload, approach, periods)
    pipeline = session._pipeline
    csf = critical_scaling_factor(
        pipeline.system,
        cpre=lambda low, high: pipeline.crpd.cpre(low, high, approach),
        context_switch=pipeline.placed.context_switch,
    )
    return round(-csf, 6)  # lower is better everywhere in the search


def _search(
    session,
    exp_spec,
    cache,
    budget_index,
    *,
    seed,
    eval_cap,
    method,
    objective,
    approach,
    restarts,
    generation,
    patience,
    jobs,
    pool,
    move_log,
) -> BudgetOutcome:
    counters = _OBS.metrics if _OBS.enabled else None

    def log_entry(kind, detail, assignment, payload, score, accepted, **extra):
        entry = {
            "budget": budget_index,
            "kind": kind,
            "move": detail,
            "valid": payload is not None,
            "accepted": accepted,
            "score": score,
            "assignment": assignment.to_dict() if assignment is not None else None,
            "eval": payload,
        }
        entry.update(extra)
        move_log.append(entry)

    baseline = session.result()
    periods = dict(baseline.periods)
    baseline_assignment = session.layout_assignment()
    baseline_payload = evaluation_payload(baseline.payload)
    baseline_score = _score(session, baseline_payload, objective, approach, periods)
    evals = 1
    log_entry(
        "baseline", "baseline", baseline_assignment, baseline_payload,
        baseline_score, True, restart=None,
    )

    proposer = MoveProposer(
        {task.name: task.layout.program for task in session.placed.tasks}, cache
    )
    best_score = baseline_score
    best_payload = baseline_payload
    best_assignment = baseline_assignment

    # -- generation phase: seeded random candidates through the batch
    # engine (experiments + wcrt objective only; the breakdown objective
    # needs the live analyzer, and the batch engine speaks experiments).
    if exp_spec is not None and objective == "wcrt" and generation > 1:
        from repro.batch.engine import SweepPoint, analyze_batch

        rng = Random(f"optimize:{seed}:{budget_index}:gen")
        candidates = []
        wanted = min(generation - 1, max(0, eval_cap - evals))
        for _ in range(wanted):
            candidate = baseline_assignment
            for _ in range(3):
                move = proposer.propose(rng, candidate)
                try:
                    proposer.materialize(move.assignment)
                except LayoutError:
                    continue
                candidate = move.assignment
            if candidate != baseline_assignment and candidate not in candidates:
                candidates.append(candidate)
        if candidates:
            batch = analyze_batch(
                [
                    SweepPoint(
                        experiment=exp_spec.key, cache=cache, layout=candidate
                    )
                    for candidate in candidates
                ],
                jobs=jobs,
                pool=pool,
            )
            for candidate, point_result in zip(candidates, batch.results):
                payload = evaluation_payload(point_result.payload)
                score = _score(session, payload, objective, approach, periods)
                evals += 1
                improved = score < best_score
                if improved:
                    best_score = score
                    best_payload = payload
                    best_assignment = candidate
                log_entry(
                    "generation", "generation", candidate, payload, score,
                    improved, restart=None,
                )
                if counters:
                    counters.counter("optimize.evals").inc()

    # -- local search restarts ----------------------------------------
    # Temperature scale: a few percent of the baseline WCRT mass, so
    # early annealing crosses small barriers without teleporting.
    wcrt_mass = sum(baseline_payload["wcrt"][str(int(approach))].values())
    t0 = max(1.0, 0.02 * wcrt_mass)
    effective_restarts = 1 if method == "greedy" else restarts

    for restart in range(effective_restarts):
        if evals >= eval_cap:
            break
        rng = Random(f"optimize:{seed}:{budget_index}:r{restart}")
        temperature = 0.0 if restart == 0 else t0 * (0.5 ** (restart - 1))
        with _OBS.tracer.span(
            "optimize.restart",
            restart=restart,
            budget=budget_index,
            temperature=round(temperature, 3),
        ) as restart_span:
            accepted_count = rejected_count = invalid_count = 0
            if best_assignment != session.layout_assignment():
                session.set_assignment(best_assignment, label="restart-seed")
            current_assignment = best_assignment
            current_score = best_score
            stall = 0
            while evals < eval_cap and stall < patience:
                move = proposer.propose(rng, current_assignment)
                if move.assignment == current_assignment:
                    stall += 1
                    continue
                try:
                    result = session.set_assignment(
                        move.assignment, label=move.detail
                    )
                except LayoutError:
                    invalid_count += 1
                    stall += 1
                    log_entry(
                        move.kind, move.detail, None, None, None, False,
                        restart=restart,
                    )
                    if counters:
                        counters.counter("optimize.moves.invalid").inc()
                    continue
                evals += 1
                payload = evaluation_payload(result.payload)
                score = _score(session, payload, objective, approach, periods)
                delta = score - current_score
                if temperature > 0:
                    accepted = delta <= 0 or rng.random() < math.exp(
                        -delta / temperature
                    )
                else:
                    accepted = delta < 0
                if score < best_score:
                    best_score = score
                    best_payload = payload
                    best_assignment = move.assignment
                    stall = 0
                else:
                    stall += 1
                log_entry(
                    move.kind, move.detail, move.assignment, payload, score,
                    accepted, restart=restart,
                )
                if accepted:
                    accepted_count += 1
                    current_assignment = move.assignment
                    current_score = score
                else:
                    rejected_count += 1
                    session.set_assignment(current_assignment, label="revert")
                if counters:
                    counters.counter("optimize.evals").inc()
                    counters.counter(
                        "optimize.moves.accepted"
                        if accepted
                        else "optimize.moves.rejected"
                    ).inc()
                if temperature > 0:
                    temperature *= COOLING
            restart_span.set(
                accepted=accepted_count,
                rejected=rejected_count,
                invalid=invalid_count,
                best_score=best_score,
            )

    return BudgetOutcome(
        cache=cache,
        evals=evals,
        baseline_score=baseline_score,
        baseline_payload=baseline_payload,
        baseline_assignment=baseline_assignment,
        best_score=best_score,
        best_payload=best_payload,
        best_assignment=best_assignment,
    )
