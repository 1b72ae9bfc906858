"""Worst Case Response Time iteration (Section VII, Equations 6 and 7).

The classic fixed-priority response-time recurrence [19]::

    Ri = Ci + sum over j in hp(i) of ceil(Ri / Pj) * Cj            (Eq. 6)

extended with the per-preemption cache reload cost ``Cpre(Ti, Tj)`` and
two context switches (``Ccs`` each) per preemption::

    Ri = Ci + sum over j in hp(i) of
              ceil(Ri / Pj) * (Cj + Cpre(Ti, Tj) + 2 * Ccs)        (Eq. 7)

The iteration starts at ``Ri = Ci`` and terminates on convergence, once
``Ri`` exceeds the task's deadline (the task is then unschedulable), or
when the iteration budget runs out.  Overload is decided, not budgeted:
with ``U = sum_j (Cj + Cpre(Ti, Tj) + 2 * Ccs) / Pj`` the right-hand side
is ``>= Ci + U * Ri``, so ``U >= 1`` (and ``Ci > 0``, which every task
has) means no fixpoint exists at all (:attr:`WCRTResult.unbounded`, an
exact verdict), while ``U < 1`` bounds the least fixpoint by
``(Ci + sum_j (Jj / Pj + 1) * cj) / (1 - U)`` (see ``docs/theory.md``).
``U`` is tested in exact integer arithmetic, and only once the window
first passes the deadline or the budget runs out, so fixpoints that
converge below the deadline never pay for it.  A budget that runs out
with ``U < 1`` (:attr:`WCRTResult.diverged`) reports that closed-form
bound as a sound upper bound and records a ``DivergenceError`` entry in
the supplied :class:`~repro.guard.ledger.DegradationLedger`; strict
budgets raise :class:`~repro.errors.DivergenceError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import TYPE_CHECKING, Callable

from repro.errors import DivergenceError
from repro.guard.ledger import DegradationLedger
from repro.obs import STATE as _OBS
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.guard.budget import AnalysisBudget

#: Cache reload cost callback: (preempted name, preempting name) -> cycles.
CpreFunction = Callable[[str, str], int]


def _ceil_div(numerator: int, denominator: int) -> int:
    """Exact integer ceiling division (float ceil overflows when a divergent
    iteration drives the response into astronomically large integers)."""
    return -(-numerator // denominator)


def zero_cpre(_preempted: str, _preempting: str) -> int:
    """The no-cache-interference cost model (plain Equation 6)."""
    return 0


def interferer_demand(terms: list[tuple[int, int, int]]) -> tuple[int, int]:
    """``U`` over ``(jitter, period, cost)`` terms as an exact ratio
    ``(numerator, denominator)``: the interferers' share of the processor,
    ``sum cost / period``, over the periods' least common multiple."""
    common = lcm(*(period for _, period, _ in terms))
    return sum(cost * (common // period) for _, period, cost in terms), common


def _overloaded(terms: list[tuple[int, int, int]]) -> bool:
    """``U >= 1``: with ``Ci > 0``, Eq. 7 then has no fixpoint."""
    demand, common = interferer_demand(terms)
    return demand >= common


def fixpoint_bound(wcet: int, terms: list[tuple[int, int, int]]) -> int:
    """Smallest integer ``>= (wcet + sum (J/P + 1) * cost) / (1 - U)``, an
    upper bound on Eq. 7's least busy-window fixpoint; needs ``U < 1``."""
    demand, common = interferer_demand(terms)
    offset = sum(
        (jitter + period) * cost * (common // period)
        for jitter, period, cost in terms
    )
    return _ceil_div(wcet * common + offset, common - demand)


@dataclass
class WCRTResult:
    """Outcome of the response-time iteration for one task.

    Exactly one of four terminal states holds:

    * ``converged`` — the recurrence reached its fixpoint; ``wcrt`` is exact.
    * ``deadline_stopped`` — the response crossed the deadline and
      ``stop_at_deadline`` cut the iteration short; ``wcrt`` is a valid
      lower bound that already proves unschedulability.
    * ``unbounded`` — the interferers' demand ``U`` is at least 1, so no
      fixpoint exists (an exact verdict); ``wcrt`` is the first response
      past the deadline (the last one if the budget ran out first), a
      lower bound like ``deadline_stopped``'s.
    * ``diverged`` — the iteration budget ran out with ``U < 1``; ``wcrt``
      is the closed-form upper bound on the fixpoint and ``schedulable``
      its deadline verdict (sound, not exact).
    """

    task: TaskSpec
    wcrt: int
    converged: bool
    schedulable: bool
    iterations: list[int] = field(default_factory=list)
    deadline_stopped: bool = False
    diverged: bool = False
    unbounded: bool = False

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def status(self) -> str:
        """``"converged"``, ``"deadline_overrun"``, ``"unbounded"`` or
        ``"diverged"``."""
        if self.converged:
            return "converged"
        if self.deadline_stopped:
            return "deadline_overrun"
        if self.unbounded:
            return "unbounded"
        return "diverged"


@dataclass
class SystemWCRT:
    """Per-task WCRT results for a whole task system.

    ``ledger`` collects every degradation the analysis behind these
    numbers performed (CRPD fallbacks, divergence verdicts);
    :attr:`soundness` summarises it for tables, reports and the CLI.
    """

    results: dict[str, WCRTResult]
    ledger: DegradationLedger = field(default_factory=DegradationLedger)

    def wcrt(self, name: str) -> int:
        return self.results[name].wcrt

    @property
    def schedulable(self) -> bool:
        return all(result.schedulable for result in self.results.values())

    @property
    def soundness(self) -> str:
        """``"exact"`` when every number is exact, else ``"conservative"``."""
        return self.ledger.soundness

    def unschedulable_tasks(self) -> list[str]:
        return [
            name for name, result in self.results.items() if not result.schedulable
        ]

    def diverged_tasks(self) -> list[str]:
        """Tasks whose iteration exhausted its budget without converging."""
        return [name for name, result in self.results.items() if result.diverged]


def compute_task_wcrt(
    system: TaskSystem,
    name: str,
    cpre: CpreFunction = zero_cpre,
    context_switch: int = 0,
    max_iterations: int = 1000,
    stop_at_deadline: bool = True,
    budget: "AnalysisBudget | None" = None,
    ledger: DegradationLedger | None = None,
) -> WCRTResult:
    """Iterate Equation 7 for one task until fixpoint or deadline overrun.

    With ``cpre=zero_cpre`` and ``context_switch=0`` this is exactly
    Equation 6.  ``context_switch`` is ``Ccs``; each preemption charges two
    switches (to the preempting task and back), per Section VII.

    Release jitter follows Tindell's extendible framework (the paper's
    [19]): the busy window ``w`` iterates with ``ceil((w + Jj)/Pj)``
    releases per interferer and the response is ``w + Ji``.  With all
    jitters zero this reduces to the paper's Equation 7 exactly.  The
    boundary is exclusive on both axes — an interferer release landing
    exactly at the busy window's end belongs to the next busy period
    (``ceil`` of an exact multiple, no ``+1``), and a response exactly
    equal to the deadline is schedulable — see
    ``tests/test_wcrt_boundaries.py`` for the pinned cases.

    ``stop_at_deadline=True`` terminates as soon as the response exceeds
    the deadline (sufficient for a schedulability verdict); ``False`` keeps
    iterating to the true fixpoint even past the deadline, which is how the
    paper's tables report WCRT values far above the period (e.g. Approach 1
    at Cmiss=40 in Table V).

    Once the window passes the deadline without ``stop_at_deadline``, or
    the iteration budget runs out, the interferers' demand ``U`` is
    tested exactly: ``U >= 1`` ends the iteration as ``unbounded`` (no
    fixpoint exists, no ledger entry).  *budget* caps the iteration count
    (``max_wcrt_iterations``); exhausting it with ``U < 1`` yields a
    ``diverged`` result carrying the closed-form fixpoint bound and a
    ledger entry, or, in strict mode, a raised :class:`DivergenceError`.
    """
    task = system.task(name)
    interferers = system.higher_priority(name)
    deadline = task.effective_deadline
    if budget is not None:
        max_iterations = min(max_iterations, budget.max_wcrt_iterations)

    # Each interferer's (jitter, period, per-preemption cost) is fixed for
    # the whole fixpoint, so Cpre is asked once per interferer — on the
    # first round, in interferer order, so a zero-round budget asks none.
    terms: list[tuple[int, int, int]] = []

    def interference(window: int) -> int:
        if len(terms) < len(interferers):
            terms[:] = [
                (
                    other.jitter,
                    other.period,
                    other.wcet + cpre(task.name, other.name) + 2 * context_switch,
                )
                for other in interferers
            ]
        # Tindell's jitter extension: a jittery interferer can squeeze one
        # extra release into the busy window.
        return sum(
            _ceil_div(window + jitter, period) * cost
            for jitter, period, cost in terms
        )

    # Iterate on the busy window w; the response time is w + own jitter.
    with _OBS.tracer.span("wcrt.task", task=task.name) as span:
        window = task.wcet
        history = [window + task.jitter]
        # U is tested at most once: where the window first passes the
        # deadline, or where the rounds run out.
        converged = deadline_stopped = unbounded = tested = False
        for _ in range(max_iterations):
            updated = task.wcet + interference(window)
            if updated == window:
                converged = True
                break
            window = updated
            history.append(window + task.jitter)
            if window + task.jitter > deadline:
                if stop_at_deadline:
                    deadline_stopped = True
                    break
                if not tested:
                    tested = True
                    unbounded = _overloaded(terms)
                    if unbounded:
                        break
        if not (converged or deadline_stopped or tested) and max_iterations > 0:
            unbounded = _overloaded(terms)  # else no round built the terms
        response = window + task.jitter
        diverged = not (converged or deadline_stopped or unbounded)
        schedulable = converged and response <= deadline
        if diverged:
            message = (
                f"WCRT recurrence for {task.name!r} did not converge within "
                f"{max_iterations} iteration(s); last response "
                f"{response} (utilization {system.utilization:.3f})"
            )
            if budget is not None and budget.strict:
                raise DivergenceError(message, task=task.name)
            if max_iterations > 0:
                response = fixpoint_bound(task.wcet, terms) + task.jitter
                schedulable = response <= deadline
                fallback = (
                    f"reported the closed-form bound {response} "
                    "(interferer utilization < 1; converged=False, "
                    "diverged=True)"
                )
            else:
                fallback = "reported unschedulable (converged=False, diverged=True)"
            if ledger is not None:
                ledger.record(
                    stage=f"wcrt:{task.name}",
                    budget="max_wcrt_iterations",
                    reason=f"DivergenceError: {message}",
                    fallback=fallback,
                )
        result = WCRTResult(
            task=task,
            wcrt=response,
            converged=converged,
            schedulable=schedulable,
            iterations=history,
            deadline_stopped=deadline_stopped,
            diverged=diverged,
            unbounded=unbounded,
        )
        if _OBS.enabled:
            span.set(iterations=result.iteration_count, status=result.status)
            metrics = _OBS.metrics
            metrics.histogram("wcrt.iterations").observe(result.iteration_count)
            for earlier, later in zip(history, history[1:]):
                # Per-round response growth: how fast the fixpoint closed.
                metrics.histogram("wcrt.delta").observe(later - earlier)
    return result


def compute_system_wcrt(
    system: TaskSystem,
    cpre: CpreFunction = zero_cpre,
    context_switch: int = 0,
    max_iterations: int = 1000,
    stop_at_deadline: bool = True,
    budget: "AnalysisBudget | None" = None,
    ledger: DegradationLedger | None = None,
) -> SystemWCRT:
    """Equation 7 for every task; the highest-priority task's WCRT = WCET.

    The returned :class:`SystemWCRT` carries the degradation ledger (the
    one given, or a fresh one) so its :attr:`~SystemWCRT.soundness` tag
    reflects everything that happened while producing these numbers —
    pass the ledger of the :class:`~repro.analysis.crpd.CRPDAnalyzer`
    feeding ``cpre`` to propagate CRPD degradations too.
    """
    if ledger is None:
        ledger = DegradationLedger()
    results = {
        task.name: compute_task_wcrt(
            system,
            task.name,
            cpre=cpre,
            context_switch=context_switch,
            max_iterations=max_iterations,
            stop_at_deadline=stop_at_deadline,
            budget=budget,
            ledger=ledger,
        )
        for task in system.tasks
    }
    return SystemWCRT(results=results, ledger=ledger)


def dispatch_blocking_bound(config, context_switch: int = 0) -> int:
    """Worst-case dispatch latency a newly released top-priority job sees.

    The scheduler preempts only at instruction boundaries and the context
    switch is non-preemptible, so even the highest-priority task's
    response can exceed its WCET by (a) the longest single instruction of
    any lower-priority task — bounded by the worst base cost plus an
    instruction fetch miss and a data miss, each possibly paying a dirty
    writeback — plus (b) one context switch.  Add this as a blocking term
    when comparing the top task's measured response against its WCET.
    """
    from repro.program.instructions import BASE_CYCLES

    worst_base = max(BASE_CYCLES.values())
    worst_miss = config.miss_penalty + config.effective_writeback_penalty
    return worst_base + 2 * worst_miss + context_switch


def utilization_bound_test(system: TaskSystem) -> bool:
    """Liu & Layland sufficient test: U <= n(2^(1/n) - 1).

    Provided for completeness; the paper's schedulability verdicts come
    from the exact WCRT iteration, which subsumes this test.
    """
    n = len(system.tasks)
    bound = n * (2 ** (1.0 / n) - 1)
    return system.utilization <= bound
