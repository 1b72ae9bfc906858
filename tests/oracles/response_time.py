"""Equation 7 iterated until fixpoint, deadline or budget: the plain loop.

The executable specification of
:func:`repro.wcrt.response_time.compute_task_wcrt` before it decided
overload: Cpre is asked for every interferer in every round, nothing but
the round budget stops a recurrence without a fixpoint, and a budget that
runs out reports the last iterate as ``diverged``.  Converged and
deadline-stopped results of the production loop must equal this one's
exactly; ``unbounded`` and ``diverged`` results are checked against it in
``tests/test_response_time.py`` and ``tests/test_divergence.py``.
"""

from __future__ import annotations

from repro.errors import DivergenceError
from repro.wcrt import WCRTResult


def reference_task_wcrt(
    system, name, cpre, context_switch, max_iterations, stop_at_deadline,
    budget, ledger,
):
    """Iterate Eq. 7 for *name* the way the pre-certificate loop did."""
    task = system.task(name)
    interferers = system.higher_priority(name)
    if budget is not None:
        max_iterations = min(max_iterations, budget.max_wcrt_iterations)
    window = task.wcet
    history = [window + task.jitter]
    converged = deadline_stopped = False
    for _ in range(max_iterations):
        updated = task.wcet + sum(
            -(-(window + other.jitter) // other.period)
            * (other.wcet + cpre(task.name, other.name) + 2 * context_switch)
            for other in interferers
        )
        if updated == window:
            converged = True
            break
        window = updated
        history.append(window + task.jitter)
        if stop_at_deadline and window + task.jitter > task.effective_deadline:
            deadline_stopped = True
            break
    diverged = not converged and not deadline_stopped
    if diverged:
        message = (
            f"WCRT recurrence for {task.name!r} did not converge within "
            f"{max_iterations} iteration(s); last response "
            f"{window + task.jitter} (utilization {system.utilization:.3f})"
        )
        if budget is not None and budget.strict:
            raise DivergenceError(message, task=task.name)
        ledger.record(
            stage=f"wcrt:{task.name}",
            budget="max_wcrt_iterations",
            reason=f"DivergenceError: {message}",
            fallback="reported unschedulable (converged=False, diverged=True)",
        )
    response = window + task.jitter
    return WCRTResult(
        task=task,
        wcrt=response,
        converged=converged,
        schedulable=converged and response <= task.effective_deadline,
        iterations=history,
        deadline_stopped=deadline_stopped,
        diverged=diverged,
    )
