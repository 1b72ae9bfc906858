"""Path analysis of the preempting task (Section VI, Equation 4).

Only one feasible path of the preempting task executes during a given
preemption, so only the memory blocks on that path can evict cache lines.
The cost of a path ``Pa_b^k`` is ``C(Pa) = S(M̃a, Mb^k)`` (Equation 4); the
per-preemption reload bound is the cost of the most expensive ("longest")
path.  Loops with fixed bounds are collapsed into SFP-PrS segments by
:mod:`repro.program.paths`, so enumeration is over a small DAG of choices.

When the paths were enumerated, production maximises Equation 4 with one
dense kernel call over the path matrix (:mod:`repro.analysis.crpd`).
This module holds the branch-and-bound search that needs no enumeration;
the enumerating reference lives in ``tests/oracles/pathcost.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.artifacts import TaskArtifacts
from repro.errors import ConfigError, PathExplosionError
from repro.obs import STATE as _OBS
from repro.program.paths import UnconditionalStep, flatten_path_steps


@dataclass(frozen=True)
class PrunedPathResult:
    """Result of the branch-and-bound evaluation of Equation 4.

    ``cost`` is the most expensive path's Equation-4 cost (0 when the
    program has no feasible path); the remaining fields are search
    diagnostics (how much work pruning and saturation avoided).
    """

    cost: int
    explored_paths: int
    pruned_branches: int
    expansions: int
    saturated: bool


class _Saturated(Exception):
    """Internal: the incumbent hit the global cap; no path can beat it."""


def max_path_conflict_pruned(
    useful: bytes,
    preempting: TaskArtifacts,
    node_budget: int = 1_000_000,
) -> PrunedPathResult:
    """Branch-and-bound evaluation of ``max_k S(M̃a, Mb^k)`` (Equation 4).

    *useful* is the capped dense vector of the preempted task's useful
    blocks (M̃a).  Searches the preempting task's structure tree directly
    instead of enumerating its feasible paths, so it completes even on
    programs whose path count trips the enumeration budget.  Three
    devices keep the search near-linear on the paper's benchmarks:

    * **Admissible bound** — for a partial path, each cache set *r* can
      contribute at most ``min(cap_r, n_r + potential_r)`` where ``cap_r``
      is *useful*'s (already capped) entry, ``n_r`` counts distinct
      preempting blocks accumulated so far, and ``potential_r``
      over-approximates the distinct blocks the remaining steps could
      still add.  Branches whose bound
      cannot beat the incumbent are pruned.
    * **Saturation** — once the incumbent reaches ``sum_r cap_r`` no path
      can improve it, and the search stops immediately.
    * **Step coalescing** — straight-line stretches and collapsed loops are
      single steps, so backtracking happens only at real choice points.

    ``node_budget`` bounds step expansions; exceeding it raises
    :class:`PathExplosionError` so callers degrade exactly as they would
    for enumeration overflow.
    """
    config = preempting.config
    if len(useful) != config.num_sets:
        raise ConfigError("useful vector built for a different cache geometry")
    caps = {index: cap for index, cap in enumerate(useful) if cap}
    total_cap = sum(caps.values())
    steps = flatten_path_steps(preempting.layout.program)

    # Per-label (block, set) pairs, restricted to sets the preempted task
    # actually uses — blocks elsewhere can never conflict.
    per_node = preempting.per_node_blocks()
    label_pairs: Dict[str, Tuple[Tuple[int, int], ...]] = {}
    for label, addresses in per_node.items():
        pairs = []
        for address in set(addresses):
            block = config.block(address)
            index = config.index(block)
            if index in caps:
                pairs.append((block, index))
        if pairs:
            label_pairs[label] = tuple(sorted(set(pairs)))

    # Potentials: sparse per-set upper bounds on distinct blocks a step (or
    # step suffix) can still add, each entry capped at cap_r.
    pot_memo: Dict[int, Dict[int, int]] = {}
    suffix_memo: Dict[int, list] = {}
    keep_alive = []  # pin id()-keyed tuples for the memo lifetime

    def step_pot(step) -> Dict[int, int]:
        cached = pot_memo.get(id(step))
        if cached is not None:
            return cached
        pot: Dict[int, int] = {}
        if isinstance(step, UnconditionalStep):
            blocks_by_set: Dict[int, set] = {}
            for label in step.labels:
                for block, index in label_pairs.get(label, ()):
                    blocks_by_set.setdefault(index, set()).add(block)
            for index, blocks in blocks_by_set.items():
                pot[index] = min(len(blocks), caps[index])
        else:
            for alt in step.alternatives:
                alt_pot = seq_pots(alt)[0]
                for index, value in alt_pot.items():
                    if value > pot.get(index, 0):
                        pot[index] = value
        pot_memo[id(step)] = pot
        keep_alive.append(step)
        return pot

    def seq_pots(seq) -> list:
        """Suffix potentials of a step tuple: pots[i] bounds steps[i:]."""
        cached = suffix_memo.get(id(seq))
        if cached is not None:
            return cached
        pots = [dict() for _ in range(len(seq) + 1)]
        for i in range(len(seq) - 1, -1, -1):
            merged = dict(pots[i + 1])
            for index, value in step_pot(seq[i]).items():
                total = merged.get(index, 0) + value
                merged[index] = total if total < caps[index] else caps[index]
            pots[i] = merged
        suffix_memo[id(seq)] = pots
        keep_alive.append(seq)
        return pots

    seen: set = set()
    counts: Dict[int, int] = {}
    state = {"cost": 0, "best": -1, "explored": 0, "pruned": 0, "expanded": 0}

    def apply_step(step: UnconditionalStep) -> list:
        added = []
        cost = state["cost"]
        for label in step.labels:
            for block, index in label_pairs.get(label, ()):
                if block not in seen:
                    seen.add(block)
                    tally = counts.get(index, 0) + 1
                    counts[index] = tally
                    if tally <= caps[index]:
                        cost += 1
                    added.append((block, index))
        state["cost"] = cost
        return added

    def undo(added: list) -> None:
        cost = state["cost"]
        for block, index in added:
            seen.discard(block)
            tally = counts[index] - 1
            counts[index] = tally
            if tally < caps[index]:
                cost -= 1
        state["cost"] = cost

    def bound_with(*pots: Dict[int, int]) -> int:
        extra: Dict[int, int] = {}
        for pot in pots:
            for index, value in pot.items():
                extra[index] = extra.get(index, 0) + value
        bound = state["cost"]
        for index, value in extra.items():
            cap = caps[index]
            used = counts.get(index, 0)
            room = cap - (used if used < cap else cap)
            bound += value if value < room else room
        return bound

    def walk(seq, i, after, cont) -> None:
        if i == len(seq):
            if cont is None:
                state["explored"] += 1
                if state["cost"] > state["best"]:
                    state["best"] = state["cost"]
                    if state["best"] >= total_cap:
                        raise _Saturated
            else:
                cont()
            return
        state["expanded"] += 1
        if state["expanded"] > node_budget:
            raise PathExplosionError(
                f"branch-and-bound exceeded {node_budget} step expansions"
            )
        step = seq[i]
        if isinstance(step, UnconditionalStep):
            added = apply_step(step)
            try:
                walk(seq, i + 1, after, cont)
            finally:
                undo(added)
            return
        suffix_next = seq_pots(seq)[i + 1]
        for alt in step.alternatives:
            if bound_with(seq_pots(alt)[0], suffix_next, *after) <= state["best"]:
                state["pruned"] += 1
                continue
            walk(
                alt, 0, (suffix_next,) + after,
                lambda: walk(seq, i + 1, after, cont),
            )

    saturated = False
    with _OBS.tracer.span("pathcost.pruned", task=preempting.name) as span:
        try:
            walk(steps, 0, (), None)
        except _Saturated:
            saturated = True
        except PathExplosionError:
            # The search's own node budget tripped — distinct from the path
            # *enumeration* budget, which this engine exists to sidestep.
            if _OBS.enabled:
                _OBS.metrics.counter("pathcost.budget_trips").inc()
                _OBS.metrics.gauge("pathcost.budget_tripped").set(True)
            span.set(budget_tripped=True)
            raise
        span.set(
            cost=max(state["best"], 0),
            nodes_visited=state["explored"],
            pruned_branches=state["pruned"],
            expansions=state["expanded"],
            saturated=saturated,
            budget_tripped=False,
        )
    if _OBS.enabled:
        metrics = _OBS.metrics
        # "Nodes visited" are completed feasible paths, so the invariant
        # nodes_visited <= feasible_paths holds (the integration property
        # tests pin it); expansions counts step expansions of the search.
        metrics.counter("pathcost.nodes_visited").inc(state["explored"])
        metrics.counter("pathcost.pruned_branches").inc(state["pruned"])
        metrics.counter("pathcost.expansions").inc(state["expanded"])
        metrics.counter("pathcost.searches").inc()
        if saturated:
            metrics.counter("pathcost.saturations").inc()
        metrics.gauge("pathcost.budget_tripped").set(False)
    return PrunedPathResult(
        cost=max(state["best"], 0),
        explored_paths=state["explored"],
        pruned_branches=state["pruned"],
        expansions=state["expanded"],
        saturated=saturated,
    )


def approach4_lines(
    preempted: TaskArtifacts,
    preempting: TaskArtifacts,
    mumbs_mode: str = "paper",
) -> int:
    """Approach 4 by branch-and-bound: combined intra-task + inter-task +
    path analysis, exact even when path enumeration tripped ``max_paths``.

    ``mumbs_mode``:

    * ``"paper"`` — Definition 4 verbatim: take the single execution point
      with the most useful blocks (the MUMBS M̃a), then maximise Equation 4
      over the preempting task's paths.
    * ``"per_point"`` — maximise ``S(useful(s), Mb^path)`` jointly over
      execution points *s* and paths.

    Reproduction finding: the two are *not* interchangeable.  The point
    that maximises the raw useful-block count (Definition 4's M̃a) need not
    maximise the per-set conflict with the preempting task, so the paper
    mode can *under*-estimate the worst preemption point — ``per_point``
    is the sound-by-construction variant and always >= the paper mode.
    Both stay below Approaches 2 and 3 (each per-point cost is bounded by
    the footprint intersection and by Lee's per-point count).  See
    DESIGN.md and ``benchmarks/test_ablation_mumbs.py``.

    The search derives paths from the program structure, not from
    ``path_profiles``; :class:`~repro.analysis.crpd.CRPDAnalyzer` runs it
    only for ``--exact-paths`` past ``max_paths`` (enumerated paths go
    through the dense kernels) and itself answers a preemptor with zero
    feasible paths.  Per-point mode searches only the non-dominated
    useful vectors (:meth:`TaskArtifacts.dense_useful_points`): a
    dominated vector never sets the maximum.
    """
    if mumbs_mode == "paper":
        vectors = [preempted.dense_mumbs()]
    elif mumbs_mode == "per_point":
        vectors = preempted.dense_useful_points()
    else:
        raise ConfigError(f"unknown mumbs_mode {mumbs_mode!r}")
    return max(
        (max_path_conflict_pruned(vec, preempting).cost for vec in vectors),
        default=0,
    )
