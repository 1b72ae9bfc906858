"""The oracle bank: every check the campaign runs on each built case.

Three families:

* **soundness** — measured behaviour never exceeds an analytical bound:
  post-preemption reloads vs every approach's line count, simulated ART
  vs every approach's WCRT, measured WCET vs the static all-miss bound.
* **paper invariants** — App4 <= min(App2, App3) <= App1 (Sections V-VI),
  Definition-4 vs per-point MUMBS dominance, monotonicity in Cmiss.
* **engine differentials** — kernel vs naive conflict math and dense
  vectors, the per-policy replay kernel and the block view's counts vs
  per-set policy objects,
  branch-and-bound vs the dense kernel over the enumerated path
  matrix, non-dominated useful vectors vs every
  execution point, heap vs scan scheduler identity,
  warm-vs-cold artifact + ledger parity through the :class:`ArtifactStore`,
  block-view moves vs VM re-execution after random layout moves, one
  result payload across the front doors (``build_case``, what-if, serve,
  optimizer) with period edits vs cold sessions.

Soundness oracles that depend on assumptions the paper itself makes are
gated accordingly, so a violation is always an engine bug and never a
known modelling caveat:

* ART and cold-dominates-warm require **LRU** (FIFO/PLRU admit timing
  anomalies where a warmer cache runs slower — Berg's FIFO anomaly);
* ART additionally requires **write-through** (under write-back a
  preemptor pays the victim's dirty writebacks, which Equation 7 assigns
  to neither side's WCET).

Reload-count soundness, the static WCET bound, path-footprint coverage
and all differential oracles hold for every geometry and policy the
generator draws, degenerate corners included.
"""

from __future__ import annotations

import functools
import json
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from operator import le
from typing import Callable, Iterable

from repro.analysis import ALL_APPROACHES, Approach, CRPDAnalyzer
from repro.analysis.artifacts import analyze_task
from repro.analysis.pathcost import approach4_lines, max_path_conflict_pruned
from repro.analysis.store import ArtifactStore, TraceBundle
from repro.analysis.wcet import scenario_traces, static_wcet_bound
from repro.cache.ciip import (
    CIIP,
    conflict_bound,
    conflict_bound_per_set,
    line_usage_bound,
)
from repro.cache.config import CacheConfig
from repro.cache.kernels import dense_max_conflict
from repro.cache.state import CacheState
from repro.errors import ConfigError, ReproError
from repro.fuzz.build import BuiltCase, BuiltTask, build_case
from repro.fuzz.generator import RandomDraw, draw_layout_move
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.obs import STATE as _OBS
from repro.program.layout import LayoutError, apply_assignment
from repro.sched.simulator import Simulator
from repro.vm.trace import TraceEvents
from repro.wcrt.response_time import (
    compute_task_wcrt,
    dispatch_blocking_bound,
)
from repro.wcrt.task import TaskSpec, TaskSystem

from tests.oracles.cache import ReferenceCache
from tests.oracles.ciip import conflict_bound_naive, naive_dense, naive_usage
from tests.oracles.measurement import measure_preemption, prepared_machine
from tests.oracles.pathcost import path_footprints
from tests.oracles.relocation import relocated_counts, relocated_traces
from tests.oracles.response_time import reference_task_wcrt
from tests.oracles.scheduler import ScanSimulator
from tests.oracles.trace import RecordingMachine


@dataclass(frozen=True)
class Violation:
    """One oracle failure on one case."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


class _Check:
    """Collects violations for one oracle without stopping at the first."""

    def __init__(self, oracle: str):
        self.oracle = oracle
        self.violations: list[Violation] = []

    def expect(self, condition: bool, message: Callable[[], str] | str) -> None:
        if not condition:
            text = message() if callable(message) else message
            self.violations.append(Violation(self.oracle, text))


def _worst_inputs(task: BuiltTask) -> dict:
    """The inputs of *task*'s worst-case scenario."""
    return task.scenarios[task.artifacts.wcet.worst_scenario]


def _simulate(case: BuiltCase, simulator_class, budget: AnalysisBudget | None):
    simulator = simulator_class(
        case.bindings(),
        cache=CacheState(case.config),
        context_switch_cycles=case.spec.context_switch,
    )
    return simulator.run(case.horizon(), budget=budget)


def _production_run(case: BuiltCase, budget: AnalysisBudget | None):
    """The production :class:`Simulator`'s run of *case*, made once per
    case and budget and shared by ``heap_vs_scan`` and ``art_soundness``;
    a :class:`ReproError` the run raised is raised again."""
    runs = case.__dict__.setdefault("_production_runs", {})
    if budget not in runs:
        try:
            runs[budget] = _simulate(case, Simulator, budget)
        except ReproError as error:
            runs[budget] = error
    run = runs[budget]
    if isinstance(run, ReproError):
        raise run
    return run


# ----------------------------------------------------------------------
# Soundness oracles
# ----------------------------------------------------------------------
def oracle_reload_soundness(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Measured post-preemption reloads <= every approach's line bound."""
    check = _Check("reload_soundness")
    for victim, intruder in case.pairs():
        bounds = {
            approach: case.analyzer.lines_reloaded(
                victim.name, intruder.name, approach
            )
            for approach in ALL_APPROACHES
        }
        for step in case.spec.preempt_steps:
            measurement = measure_preemption(
                victim.layout, _worst_inputs(victim),
                intruder.layout, _worst_inputs(intruder),
                lambda: CacheState(case.config), step,
                victim_footprint=victim.artifacts.footprint,
            )
            if measurement is None:
                continue
            measured = measurement.reloaded
            for approach, bound in bounds.items():
                check.expect(
                    measured <= bound,
                    f"{victim.name} preempted by {intruder.name} at step {step}: "
                    f"measured {measured} reloads > App{approach.value} bound {bound}",
                )
    return check.violations


def oracle_wcet_soundness(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Static all-miss bound >= measured WCET; LRU cold >= warm; path
    footprints cover the observed footprint; Lee bound dominates points."""
    check = _Check("wcet_soundness")
    for task in case.tasks:
        art = task.artifacts
        static = static_wcet_bound(task.layout, case.config)
        check.expect(
            static >= art.wcet.cycles,
            f"{task.name}: static bound {static} < measured WCET {art.wcet.cycles}",
        )
        union: set[int] = set()
        for fp in path_footprints(art):
            check.expect(
                fp <= art.footprint,
                f"{task.name}: path footprint escapes the task footprint",
            )
            union |= fp
        if art.path_enumeration_complete:
            check.expect(
                union == set(art.footprint),
                f"{task.name}: path footprints miss "
                f"{len(set(art.footprint) - union)} observed block(s)",
            )
        lee = art.useful.lee_reload_bound()
        for point in art.useful.points:
            if point.reload_bound() > lee:
                check.expect(
                    False,
                    f"{task.name}: execution point exceeds Lee bound "
                    f"({point.reload_bound()} > {lee})",
                )
                break
    # Cold-dominates-warm needs LRU (no replacement anomalies) AND a
    # clean cache: under write-back a warm victim pays writebacks for the
    # intruder's dirty lines, which its cold WCET never sees.
    if case.config.policy == "lru" and not case.config.write_back:
        for victim, intruder in case.pairs():
            cache = CacheState(case.config)
            prepared_machine(intruder.layout, cache, _worst_inputs(intruder)).run()
            warm = prepared_machine(victim.layout, cache, _worst_inputs(victim))
            warm.run()
            check.expect(
                warm.cycles <= victim.artifacts.wcet.cycles,
                f"{victim.name}: warm run ({warm.cycles} cycles) exceeds "
                f"cold WCET {victim.artifacts.wcet.cycles}",
            )
    return check.violations


def _inflated_system(case: BuiltCase, name: str, blocking: int) -> TaskSystem:
    """The case's task system with *name*'s WCET inflated by the dispatch
    blocking bound, so the recurrence covers the simulator's
    instruction-boundary preemption and dispatch context switch."""
    tasks = []
    for task in case.system.tasks:
        if task.name == name:
            task = TaskSpec(
                name=task.name,
                wcet=task.wcet + blocking,
                period=task.period,
                priority=task.priority,
                deadline=task.period + blocking,
                jitter=task.jitter,
            )
        tasks.append(task)
    return TaskSystem(tasks=tasks)


def oracle_art_soundness(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Simulated ART <= every approach's WCRT (LRU + write-through only;
    see the module docstring for why).

    The bound asserted is Equation 7 over the busy window of a task whose
    WCET is inflated by :func:`dispatch_blocking_bound` — the simulator
    preempts only at instruction boundaries and charges ``Ccs`` on every
    dispatch that changes the running job, costs Equation 7 assigns to no
    one.  The claim is only valid while the single-busy-period argument
    holds, so tasks whose recurrence diverges or exceeds their period are
    skipped (and counted in the ``fuzz.oracle_skips`` metric).
    """
    if case.config.policy != "lru" or case.config.write_back:
        return []
    check = _Check("art_soundness")
    try:
        result = _production_run(case, budget)
    except ReproError:
        return check.violations  # budget-capped runs are not evidence
    observed: dict[str, int] = {}
    for record in result.jobs:
        previous = observed.get(record.task, -1)
        observed[record.task] = max(previous, record.response_time)
    blocking = dispatch_blocking_bound(case.config, case.spec.context_switch)
    for task in case.tasks:
        art_measured = observed.get(task.name)
        if art_measured is None:
            continue
        try:
            system = _inflated_system(case, task.name, blocking)
        except ConfigError:
            _skip("art_soundness")
            continue
        for approach in ALL_APPROACHES:
            wcrt = compute_task_wcrt(
                system,
                task.name,
                cpre=lambda victim, intr, a=approach: case.analyzer.cpre(
                    victim, intr, a
                ),
                context_switch=case.spec.context_switch,
                stop_at_deadline=False,
            )
            if not wcrt.converged or wcrt.wcrt > task.spec.period:
                _skip("art_soundness")
                continue
            check.expect(
                art_measured <= wcrt.wcrt,
                f"{task.name}: simulated ART {art_measured} > App{approach.value} "
                f"WCRT {wcrt.wcrt}",
            )
    return check.violations


def _skip(oracle: str) -> None:
    if _OBS.enabled:
        _OBS.metrics.counter(f"fuzz.oracle_skips.{oracle}").inc()


# ----------------------------------------------------------------------
# Paper invariants
# ----------------------------------------------------------------------
def oracle_approach_ordering(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """App4 <= min(App2, App3) <= App1, all non-negative, and the
    Definition-4 ("paper") Approach 4 never exceeds the per-point value."""
    check = _Check("approach_ordering")
    for victim, intruder in case.pairs():
        lines = {
            approach: case.analyzer.lines_reloaded(
                victim.name, intruder.name, approach
            )
            for approach in ALL_APPROACHES
        }
        label = f"{victim.name}<-{intruder.name}"
        for approach, value in lines.items():
            check.expect(
                value >= 0, f"{label}: App{approach.value} negative ({value})"
            )
        check.expect(
            lines[Approach.COMBINED] <= lines[Approach.INTERTASK],
            f"{label}: App4 {lines[Approach.COMBINED]} > App2 "
            f"{lines[Approach.INTERTASK]}",
        )
        check.expect(
            lines[Approach.COMBINED] <= lines[Approach.LEE],
            f"{label}: App4 {lines[Approach.COMBINED]} > App3 {lines[Approach.LEE]}",
        )
        check.expect(
            lines[Approach.INTERTASK] <= lines[Approach.BUSQUETS],
            f"{label}: App2 {lines[Approach.INTERTASK]} > App1 "
            f"{lines[Approach.BUSQUETS]}",
        )
        paper = approach4_lines(
            victim.artifacts, intruder.artifacts, mumbs_mode="paper"
        )
        per_point = approach4_lines(
            victim.artifacts, intruder.artifacts, mumbs_mode="per_point"
        )
        check.expect(
            paper <= per_point,
            f"{label}: Definition-4 App4 {paper} > per-point {per_point}",
        )
    return check.violations


def oracle_cmiss_monotonicity(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Doubling the miss penalty must not shrink anything: WCET grows,
    reload-line counts are penalty-independent, WCRT grows per approach.

    The doubled variant keeps the base case's periods and jitters (they
    derive from the base WCET), so the recurrences are comparable.
    """
    check = _Check("cmiss_monotonicity")
    doubled_config = case.config.__class__(
        num_sets=case.config.num_sets,
        ways=case.config.ways,
        line_size=case.config.line_size,
        miss_penalty=case.config.miss_penalty * 2,
        policy=case.config.policy,
        write_back=case.config.write_back,
    )
    doubled = build_case(case.spec, budget=budget, config=doubled_config)
    for base_task, doubled_task in zip(case.tasks, doubled.tasks):
        check.expect(
            doubled_task.artifacts.wcet.cycles >= base_task.artifacts.wcet.cycles,
            f"{base_task.name}: WCET shrank when Cmiss doubled "
            f"({base_task.artifacts.wcet.cycles} -> "
            f"{doubled_task.artifacts.wcet.cycles})",
        )
    for victim, intruder in case.pairs():
        for approach in ALL_APPROACHES:
            base_lines = case.analyzer.lines_reloaded(
                victim.name, intruder.name, approach
            )
            doubled_lines = doubled.analyzer.lines_reloaded(
                victim.name, intruder.name, approach
            )
            check.expect(
                base_lines == doubled_lines,
                f"{victim.name}<-{intruder.name}: App{approach.value} line count "
                f"depends on Cmiss ({base_lines} vs {doubled_lines})",
            )
    # WCRT at doubled penalty and WCETs, over the base case's periods.
    comparable_tasks = [
        TaskSpec(
            name=base.spec.name,
            wcet=doubled_task.artifacts.wcet.cycles,
            period=base.spec.period,
            priority=base.spec.priority,
            jitter=base.spec.jitter,
        )
        for base, doubled_task in zip(case.tasks, doubled.tasks)
    ]
    try:
        doubled_system = TaskSystem(tasks=comparable_tasks)
    except ConfigError:
        _skip("cmiss_monotonicity")
        return check.violations
    ccs = case.spec.context_switch
    for task in case.tasks:
        for approach in ALL_APPROACHES:
            base_wcrt = compute_task_wcrt(
                case.system,
                task.name,
                cpre=lambda v, i, a=approach: case.analyzer.cpre(v, i, a),
                context_switch=ccs,
                stop_at_deadline=False,
            )
            doubled_wcrt = compute_task_wcrt(
                doubled_system,
                task.name,
                cpre=lambda v, i, a=approach: doubled.analyzer.cpre(v, i, a),
                context_switch=ccs,
                stop_at_deadline=False,
            )
            if not (base_wcrt.converged and doubled_wcrt.converged):
                _skip("cmiss_monotonicity")
                continue
            check.expect(
                doubled_wcrt.wcrt >= base_wcrt.wcrt,
                f"{task.name}: App{approach.value} WCRT shrank when Cmiss "
                f"doubled ({base_wcrt.wcrt} -> {doubled_wcrt.wcrt})",
            )
    return check.violations


# ----------------------------------------------------------------------
# Engine differentials
# ----------------------------------------------------------------------
def oracle_kernel_vs_naive(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Counter kernels agree with the set-algebra reference on every CIIP
    the case produces (footprints, MUMBS, path footprints), and every
    dense vector production evaluates — footprint, each useful point's,
    each path-matrix row — is its CIIP's naive per-set count capped at
    ``L``."""
    check = _Check("kernel_vs_naive")
    config = case.config
    ciips = []
    for task in case.tasks:
        art = task.artifacts
        paths = [CIIP.from_addresses(config, fp) for fp in path_footprints(art)]
        # Grouped from the blocks, not from the bits the vectors come from.
        footprint = CIIP.from_addresses(config, art.footprint)
        ciips.append((f"{task.name}.footprint", footprint))
        ciips.append((f"{task.name}.mumbs", art.useful.mumbs_ciip()))
        ciips.extend((f"{task.name}.path{i}", c) for i, c in enumerate(paths))
        rows = art.dense_path_matrix()
        width = config.num_sets
        vectors = [(f"{task.name}.footprint", art.dense_footprint(), footprint)]
        vectors.extend(
            (f"{task.name}.{point.point}", point.dense,
             CIIP.from_addresses(config, point.blocks()))
            for point in {p.mask: p for p in art.useful.points}.values()
        )
        vectors.extend(
            (f"{task.name}.path{i}", rows[i * width:(i + 1) * width], c)
            for i, c in enumerate(paths)
        )
        check.expect(
            len(rows) == width * len(paths),
            f"{task.name}: path matrix has {len(rows)} bytes for "
            f"{len(paths)} path(s) of {width} sets",
        )
        for name, vec, ciip in vectors:
            check.expect(
                vec == naive_dense(ciip),
                f"{name}: dense vector differs from the capped naive counts",
            )
    for name, ciip in ciips:
        kernel_usage = line_usage_bound(ciip)
        check.expect(
            kernel_usage == naive_usage(ciip),
            f"{name}: usage kernel {kernel_usage} != naive {naive_usage(ciip)}",
        )
    for name_a, a in ciips:
        for name_b, b in ciips:
            kernel = conflict_bound(a, b)
            naive = conflict_bound_naive(a, b)
            check.expect(
                kernel == naive,
                f"S({name_a}, {name_b}): kernel {kernel} != naive {naive}",
            )
            per_set = sum(conflict_bound_per_set(a, b).values())
            check.expect(
                per_set == kernel,
                f"S({name_a}, {name_b}): per-set sum {per_set} != kernel {kernel}",
            )
    return check.violations


def _replay_state(cache) -> tuple:
    return cache.stats, cache.snapshot(), cache.dirty_blocks()


def _covering(config: CacheConfig, blocks) -> CacheConfig:
    """*config* with enough ways (and, past 128 of them, sets) that no set
    gets more of *blocks* than it holds."""
    sets = config.num_sets
    while True:
        per_set = Counter(config.block_number(block) % sets for block in blocks)
        widest = max(per_set.values(), default=1)
        if widest <= 128:
            return replace(config, num_sets=sets, ways=1 << (widest - 1).bit_length())
        sets *= 2


def oracle_replay_vs_reference(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """The per-policy replay kernel equals the per-reference reference
    (:class:`tests.oracles.cache.ReferenceCache`) on every scenario trace
    of every task: the cycles, statistics, missed addresses, final
    contents and dirty blocks, from a cold cache per trace and from the
    warm cache all the case's traces so far have left.  The task's
    block view counts (:meth:`~repro.vm.trace.TraceView.counts`) equal
    the reference's cold counts at the case's geometry, at one set
    (which replays) and at a geometry that holds the whole footprint
    (which counts from it); and, with the task's first array moved by
    whole lines onto the code's last line (two regions' keys on one
    block), the relocated per-event counts
    (:func:`tests.oracles.relocation.relocated_counts`) at the case's
    geometry and at one that holds the moved footprint."""
    check = _Check("replay_vs_reference")
    config = case.config
    max_steps = 10_000_000  # analyze_task's default, capped the same way
    if budget is not None:
        max_steps = min(max_steps, budget.max_sim_steps)
    warm, warm_reference = CacheState(config), ReferenceCache(config)
    for task in case.tasks:
        traces = scenario_traces(
            task.layout, task.scenarios, config, max_steps=max_steps
        )
        expanded = {scenario: trace.expand() for scenario, trace in traces.items()}
        for scenario, trace in expanded.items():
            writes = bytes(kind == 2 for kind in trace.kinds)
            for start, cache, reference in (
                ("cold", CacheState(config), ReferenceCache(config)),
                ("warm", warm, warm_reference),
            ):
                missed: list[int] = []
                expected_missed: list[int] = []
                cycles = cache.access_stream(trace.addresses, writes, missed)
                expected = reference.access_stream(
                    trace.addresses, writes, expected_missed
                )
                where = f"{task.name}/{scenario} ({start})"
                check.expect(
                    cycles == expected,
                    f"{where}: kernel charged {cycles} cycles, the "
                    f"reference {expected}",
                )
                check.expect(
                    missed == expected_missed,
                    f"{where}: missed addresses differ",
                )
                check.expect(
                    _replay_state(cache) == _replay_state(reference),
                    f"{where}: kernel {cache.stats} against reference "
                    f"{reference.stats}, or their contents or dirty blocks "
                    "differ",
                )
        bases = task.layout.region_bases()
        bundle = TraceBundle(
            traces=traces, base_cycles=dict.fromkeys(traces, 0), bases=bases
        )
        view = bundle.view(config.line_size, bases, tuple(traces))
        footprint = {
            config.block(address)
            for trace in expanded.values()
            for address in trace.addresses
        }
        for geometry in (
            config, replace(config, num_sets=1), _covering(config, footprint)
        ):
            counts = view.counts(bases, geometry)
            for scenario, trace in expanded.items():
                reference = ReferenceCache(geometry)
                reference.access_stream(
                    trace.addresses, [kind == 2 for kind in trace.kinds]
                )
                stats = reference.stats
                expected = (stats.hits + stats.misses, stats.misses, stats.writebacks)
                check.expect(
                    counts[scenario] == expected,
                    f"{task.name}/{scenario} at {geometry.num_sets}x"
                    f"{geometry.ways}: view counts {counts[scenario]}, the "
                    f"reference {expected}",
                )
        spans = task.layout.region_spans()
        if len(spans) < 2:
            continue
        # A whole-line move of the first array onto the code's last line:
        # a code key and a data key then name one block, which no
        # recorded placement shows.
        line = -config.line_size
        shared = list(bases)
        shared[1] += ((spans[0][1] - 1) & line) - (bases[1] & line)
        shared = tuple(shared)
        placed = relocated_traces(bundle, shared)
        footprint = {
            config.block(address)
            for events in placed.values()
            for address in events.addresses
        }
        view = bundle.view(config.line_size, shared, tuple(traces))
        for geometry in (config, _covering(config, footprint)):
            counts = view.counts(shared, geometry)
            expected = relocated_counts(bundle, shared, geometry, traces)
            check.expect(
                counts == expected,
                f"{task.name} with its first array on the code's last line, "
                f"at {geometry.num_sets}x{geometry.ways}: view counts "
                f"{counts}, the relocated reference {expected}",
            )
    return check.violations


def oracle_prune_vs_enumerate(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """The branch-and-bound Equation-4 search equals the dense kernel over
    the fully enumerated path matrix, in both MUMBS modes."""
    check = _Check("prune_vs_enumerate")
    for victim, intruder in case.pairs():
        if not intruder.artifacts.path_enumeration_complete:
            continue  # no matrix to compare against
        rows = intruder.artifacts.dense_path_matrix()
        vectors = {
            "paper": [victim.artifacts.dense_mumbs()],
            "per_point": victim.artifacts.dense_useful_points(),
        }
        for mode, vecs in vectors.items():
            enumerated = max(
                (dense_max_conflict(rows, vec) for vec in vecs), default=0
            )
            pruned = approach4_lines(
                victim.artifacts, intruder.artifacts, mumbs_mode=mode
            )
            check.expect(
                enumerated == pruned,
                f"{victim.name}<-{intruder.name} ({mode}): enumerate "
                f"{enumerated} != prune {pruned}",
            )
    return check.violations


def oracle_useful_antichain(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Keeping only non-dominated useful vectors loses no point: each
    non-empty point's vector lies below a kept one, and per-point
    Approach 4 through :class:`CRPDAnalyzer` equals branch-and-bound over
    every non-empty point."""
    check = _Check("useful_antichain")
    for task in case.tasks:
        kept = task.artifacts.dense_useful_points()
        for point in task.artifacts.useful.points:
            check.expect(
                not point.count or any(all(map(le, point.dense, v)) for v in kept),
                f"{task.name}: {point.point} is below no kept vector",
            )
    analyzer = CRPDAnalyzer({task.name: task.artifacts for task in case.tasks})
    for low, high in case.pairs():
        if high.artifacts.path_enumeration_complete:  # else degraded, not Eq. 4
            fast = analyzer.lines_reloaded(low.name, high.name, Approach.COMBINED)
            every = max(
                (
                    max_path_conflict_pruned(vec, high.artifacts).cost
                    for vec in {p.dense for p in low.artifacts.useful.points if p.count}
                ),
                default=0,
            )
            check.expect(
                fast == every,
                f"{low.name}<-{high.name}: App4 over kept vectors {fast} != "
                f"over every point {every}",
            )
    return check.violations


#: Rounds the plain Eq. 7 loop runs before an overloaded recurrence
#: counts as never converging.
CERTIFICATE_ROUNDS = 20_000


def _plain(system: TaskSystem, name: str, cpre, ccs: int, rounds: int,
           stop_at_deadline: bool):
    """The reference Eq. 7 loop with no budget (its ledger is dropped).
    *cpre* is memoised: the loop asks for it in each of up to 20,000
    rounds."""
    return reference_task_wcrt(
        system, name, functools.cache(cpre), ccs, rounds, stop_at_deadline,
        budget=None, ledger=DegradationLedger(),
    )


def _demand(terms: Iterable[tuple[int, int, int]]) -> tuple[int, int]:
    """``sum cost / period`` over ``(jitter, period, cost)`` terms as a
    plain ``(numerator, denominator)`` fraction sum."""
    numerator, denominator = 0, 1
    for _, period, cost in terms:
        numerator = numerator * period + cost * denominator
        denominator *= period
    return numerator, denominator


def _period_variants(system: TaskSystem, cost: Callable[[str, str], int]):
    """*system* plus two rescalings of every period, around the lowest
    task's interferer demand ``U0``: by ``U0`` (``U >= 1`` unless a period
    is clamped) and by ``5/4 * U0`` (``U`` near 0.8).  Periods never drop
    below ``wcet + jitter``, which keeps every task legal."""
    lowest = system.tasks[-1]
    numerator, denominator = _demand(
        (other.jitter, other.period, cost(lowest.name, other.name))
        for other in system.higher_priority(lowest.name)
    )
    variants = [system]
    if numerator:
        for scale, over in ((numerator, denominator),
                            (5 * numerator, 4 * denominator)):
            variants.append(TaskSystem(tasks=[
                replace(task, period=max(
                    task.wcet + task.jitter, task.period * scale // over
                ))
                for task in system.tasks
            ]))
    return variants


def oracle_wcrt_certificate(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Eq. 7's overload verdict is exact and its fixpoint bound is sound.

    For every approach, on the drawn periods and on two rescalings that
    push the interferer demand ``U`` to about 1 and 0.8: ``unbounded``
    holds iff exact ``U >= 1`` (every task has ``C > 0``), and then a
    plain 20,000-round loop never converges; converged and
    deadline-stopped results equal the plain loop's; and with three
    rounds and ``U < 1`` the reported WCRT is at least the fixpoint."""
    check = _Check("wcrt_certificate")
    ccs = case.spec.context_switch
    seen: set = set()
    for approach in ALL_APPROACHES:
        def cpre(low: str, high: str, _approach=approach) -> int:
            return case.analyzer.cpre(low, high, _approach)

        def cost(low: str, high: str) -> int:
            return case.system.task(high).wcet + cpre(low, high) + 2 * ccs

        for system in _period_variants(case.system, cost):
            for task in system.tasks:
                terms = [
                    (other.jitter, other.period, cost(task.name, other.name))
                    for other in system.higher_priority(task.name)
                ]
                signature = (task, tuple(terms))
                if signature in seen:
                    continue
                seen.add(signature)
                numerator, denominator = _demand(terms)
                overloaded = numerator >= denominator
                label = (
                    f"App{approach.value} {task.name} "
                    f"(periods {[t.period for t in system.tasks]})"
                )
                result = compute_task_wcrt(
                    system, task.name, cpre=cpre, context_switch=ccs,
                    stop_at_deadline=False,
                )
                check.expect(
                    result.unbounded == overloaded,
                    f"{label}: unbounded={result.unbounded} but U >= 1 is "
                    f"{overloaded}",
                )
                plain = _plain(
                    system, task.name, cpre, ccs, CERTIFICATE_ROUNDS, False
                )
                converged, history = plain.converged, plain.iterations
                if overloaded:
                    check.expect(
                        not converged,
                        f"{label}: U >= 1 yet the plain loop converged",
                    )
                if overloaded or not converged:
                    continue  # nothing to compare against
                fixpoint = history[-1]
                if result.converged:
                    check.expect(
                        result.iterations == history,
                        f"{label}: converged {result.iterations[-1]} != "
                        f"plain {fixpoint}",
                    )
                else:
                    check.expect(
                        result.diverged and result.wcrt >= fixpoint,
                        f"{label}: {result.status} WCRT {result.wcrt} below "
                        f"the fixpoint {fixpoint}",
                    )
                stopped = compute_task_wcrt(
                    system, task.name, cpre=cpre, context_switch=ccs,
                    stop_at_deadline=True,
                )
                plain_stopped = _plain(
                    system, task.name, cpre, ccs, 1000, True
                ).iterations
                if stopped.converged or stopped.deadline_stopped:
                    check.expect(
                        stopped.iterations == plain_stopped,
                        f"{label}: {stopped.status} responses differ from "
                        "the plain loop's",
                    )
                short = compute_task_wcrt(
                    system, task.name, cpre=cpre, context_switch=ccs,
                    max_iterations=3, stop_at_deadline=False,
                )
                if short.converged:
                    check.expect(
                        short.wcrt == fixpoint,
                        f"{label}: 3-round fixpoint {short.wcrt} != {fixpoint}",
                    )
                else:
                    check.expect(
                        short.diverged and short.wcrt >= fixpoint,
                        f"{label}: 3-round {short.status} WCRT {short.wcrt} "
                        f"below the fixpoint {fixpoint}",
                    )
    return check.violations


def oracle_front_doors(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Every front door reports one result payload for the spec.

    A fresh ``build_case``'s ``pipeline.payload()`` and a fresh
    :class:`~repro.analysis.whatif.WhatIfSession`'s state are equal as
    canonical JSON (the served and optimizer views are key projections
    of that payload, so they follow).  Then an edited session meets a
    cold one: doubling the top task's period must equal a session built
    cold at that period (sub-artifacts shared), and restoring it must
    return the identical ``signature()``."""
    from repro.analysis.whatif import Edit, WhatIfSession
    from repro.serve.protocol import canonical_json

    check = _Check("front_doors")
    built = build_case(case.spec, budget=budget).pipeline.payload()
    store = ArtifactStore(directory=None)
    with WhatIfSession(case.spec, budget=budget, store=store) as session:
        state = session.result()
        check.expect(
            state.signature() == canonical_json(built),
            "WhatIfSession payload differs from build_case's",
        )
        top = case.tasks[0].name
        period = state.periods[top]
        doubled = session.apply(Edit(kind="period", task=top, value=2 * period))
        with WhatIfSession(
            case.spec,
            budget=budget,
            store=store,
            period_overrides={top: 2 * period},
        ) as cold:
            check.expect(
                doubled.signature() == cold.result().signature(),
                f"period:{top}={2 * period} differs from a cold session",
            )
        restored = session.apply(Edit(kind="period", task=top, value=period))
        check.expect(
            restored.signature() == state.signature(),
            f"period:{top}={2 * period} and back changed the signature",
        )
    return check.violations


def oracle_heap_vs_scan(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Heap- and scan-backed schedulers produce identical runs."""
    check = _Check("heap_vs_scan")
    try:
        heap = _production_run(case, budget)
        scan = _simulate(case, ScanSimulator, budget)
    except ReproError:
        return check.violations
    check.expect(
        heap.jobs == scan.jobs,
        lambda: f"job records diverge: {_first_diff(heap.jobs, scan.jobs)}",
    )
    check.expect(
        heap.events == scan.events,
        lambda: f"event streams diverge: {_first_diff(heap.events, scan.events)}",
    )
    check.expect(
        heap.end_time == scan.end_time,
        f"end times diverge: heap {heap.end_time} != scan {scan.end_time}",
    )
    return check.violations


def _first_diff(a: list, b: list) -> str:
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return f"at {index}: heap={left!r} scan={right!r}"
    return f"length {len(a)} vs {len(b)}"


def _fingerprint(art) -> tuple:
    return (
        art.name,
        art.wcet.cycles,
        dict(art.wcet.per_scenario_cycles),
        art.footprint,
        art.useful.mumbs(),
        art.path_profiles,
        art.path_enumeration_complete,
    )


def oracle_store_parity(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """A disk-tier store hit replays the cold run exactly: identical
    artifacts (through a pickle round-trip) and identical ledger events."""
    check = _Check("store_parity")
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as tmp:
        store = ArtifactStore(directory=tmp)
        for task in case.tasks:
            cold_ledger = DegradationLedger()
            cold = analyze_task(
                task.layout, task.scenarios, case.config,
                budget=budget, ledger=cold_ledger, store=store,
            )
            store.clear_memory()
            warm_ledger = DegradationLedger()
            warm = analyze_task(
                task.layout, task.scenarios, case.config,
                budget=budget, ledger=warm_ledger, store=store,
            )
            check.expect(
                _fingerprint(cold) == _fingerprint(warm),
                f"{task.name}: warm artifacts differ from cold",
            )
            check.expect(
                cold_ledger.events == warm_ledger.events,
                f"{task.name}: warm ledger replay differs "
                f"({cold_ledger.events} vs {warm_ledger.events})",
            )
            check.expect(
                _fingerprint(cold) == _fingerprint(task.artifacts),
                f"{task.name}: store-path artifacts differ from the "
                f"store-free build",
            )
    return check.violations


#: Layout moves the relocation oracle applies to each case.
RELOCATION_MOVES = 3


def _columns(trace: TraceEvents) -> tuple:
    return (
        trace.addresses.tobytes(),
        trace.kinds,
        trace.node_table,
        trace.node_ids.tobytes(),
    )


def oracle_relocation(
    case: BuiltCase, budget: AnalysisBudget | None = None
) -> list[Violation]:
    """Layout moves read the stored trace instead of re-running the VM.

    Applies random ``code:``/``data:``/``color:``/``swap:`` moves to a
    warm session, then checks that every task's stored trace, expanded
    from its block visits and relocated event by event
    (:func:`tests.oracles.relocation.relocated_traces`), and the counts
    and cycles read through its block view, equal a
    ``step()``-by-``step()`` re-execution at its new placement, recorded
    per event (:class:`tests.oracles.trace.RecordingMachine`; the stored
    trace came from ``run()``), that its sim and flow entries
    equal a cold run's there, and that the warm session's signature
    equals a cold session's.
    """
    from repro.analysis.whatif import WhatIfSession

    check = _Check("relocation")
    draw = RandomDraw(random.Random(
        "relocation:" + json.dumps(case.spec.to_json(), sort_keys=True)
    ))
    programs = {task.name: task.program for task in case.tasks}
    with WhatIfSession(case.spec, budget=budget) as warm:
        warm.result()
        for _ in range(RELOCATION_MOVES):
            layouts = apply_assignment(programs, warm.layout_assignment())
            try:
                warm.apply(
                    draw_layout_move(draw, layouts, case.config.page_colors)
                )
            except LayoutError:
                pass  # a swap between differently sized tasks may overlap
        state = warm.result()
        assignment = warm.layout_assignment()
    with WhatIfSession(case.spec, budget=budget) as cold:
        cold_state = cold.set_assignment(assignment)
    check.expect(
        state.signature() == cold_state.signature(),
        f"warm session after moves differs from a cold one at {assignment}",
    )

    store = ArtifactStore(directory=None)
    for task in case.tasks:
        analyze_task(
            task.layout, task.scenarios, case.config, budget=budget, store=store
        )
    layouts = apply_assignment(programs, assignment)
    max_steps = 10_000_000  # analyze_task's default, capped the same way
    if budget is not None:
        max_steps = min(max_steps, budget.max_sim_steps)
    for task in case.tasks:
        layout = layouts[task.name]
        moved = analyze_task(
            layout, task.scenarios, case.config, budget=budget, store=store,
        )
        relocated = relocated_traces(
            store.get(moved.subkeys["trace"], kind="trace"), layout.region_bases()
        )
        counts = store.get(moved.subkeys["sim"], kind="sim").counts
        for scenario, inputs in task.scenarios.items():
            machine = RecordingMachine(layout=layout, cache=CacheState(case.config))
            for name, values in inputs.items():
                machine.write_array(name, list(values))
            while not machine.halted and machine.steps < max_steps:
                machine.step()
            stats = machine.cache.stats
            where = f"{task.name}/{scenario} at {layout.region_bases()}"
            check.expect(
                _columns(relocated[scenario]) == _columns(machine.columns.compact()),
                f"{where}: relocated trace differs from a VM re-execution",
            )
            stepped = (stats.hits + stats.misses, stats.misses, stats.writebacks)
            check.expect(
                tuple(counts[scenario]) == stepped,
                f"{where}: counts {counts[scenario]} differ from a VM "
                f"re-execution's {stepped}",
            )
            check.expect(
                moved.wcet.per_scenario_cycles[scenario] == machine.cycles,
                f"{where}: {moved.wcet.per_scenario_cycles[scenario]} cycles "
                f"differ from a VM re-execution's {machine.cycles}",
            )
        fresh = ArtifactStore(directory=None)
        cold = analyze_task(
            layout, task.scenarios, case.config, budget=budget, store=fresh
        )
        for kind in ("sim", "flow"):  # flow: RMB/LMB, useful, CIIP
            check.expect(
                store.get(moved.subkeys[kind], kind=kind)
                == fresh.get(cold.subkeys[kind], kind=kind),
                f"{task.name} at {layout.region_bases()}: {kind} entry "
                "differs from a cold run's",
            )
    check.expect(
        store.misses_by_kind.get("trace") == len(case.tasks),
        f"layout moves re-ran the VM ({store.misses_by_kind} trace misses)",
    )
    return check.violations


#: Ordered oracle registry: cheap invariants first, re-analysis last.
ORACLES: dict[str, Callable[..., list[Violation]]] = {
    "approach_ordering": oracle_approach_ordering,
    "kernel_vs_naive": oracle_kernel_vs_naive,
    "replay_vs_reference": oracle_replay_vs_reference,
    "prune_vs_enumerate": oracle_prune_vs_enumerate,
    "useful_antichain": oracle_useful_antichain,
    "wcrt_certificate": oracle_wcrt_certificate,
    "front_doors": oracle_front_doors,
    "wcet_soundness": oracle_wcet_soundness,
    "reload_soundness": oracle_reload_soundness,
    "heap_vs_scan": oracle_heap_vs_scan,
    "art_soundness": oracle_art_soundness,
    "store_parity": oracle_store_parity,
    "relocation": oracle_relocation,
    "cmiss_monotonicity": oracle_cmiss_monotonicity,
}


def validate_oracle_names(names: Iterable[str] | None) -> None:
    """Reject unknown oracle names up front (a config error, not a case
    failure — the campaign's crash-to-violation net must not catch it)."""
    for name in names or ():
        if name not in ORACLES:
            raise ConfigError(
                f"unknown fuzz oracle {name!r} (known: {', '.join(ORACLES)})"
            )


def run_oracles(
    case: BuiltCase,
    names: Iterable[str] | None = None,
    budget: AnalysisBudget | None = None,
) -> list[Violation]:
    """Run the selected oracles (all by default) and collect violations."""
    validate_oracle_names(names)
    violations: list[Violation] = []
    for name in names if names is not None else ORACLES:
        oracle = ORACLES[name]
        with _OBS.tracer.span("fuzz.oracle", oracle=name):
            found = oracle(case, budget=budget)
        if found and _OBS.enabled:
            _OBS.metrics.counter(f"fuzz.violations.{name}").inc(len(found))
        violations.extend(found)
    return violations
