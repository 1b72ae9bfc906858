"""Layout/coloring co-design optimizer (``repro optimize``).

Searches code/data placement and page colors for a task set, minimizing
system WCRT (or maximizing the critical scaling factor) under the CRPD
analysis — the workload ROADMAP item 3 names as the heavy consumer of
the what-if engine and the warm-pool batch backend.
"""

from repro.optimize.moves import MOVE_KINDS, SHIFT_STEPS, Move, MoveProposer
from repro.optimize.pareto import dominates, pareto_front
from repro.optimize.report import before_after_table, pareto_table
from repro.optimize.search import (
    METHODS,
    OBJECTIVES,
    BudgetOutcome,
    OptimizeOutcome,
    default_cache_budgets,
    evaluation_payload,
    optimize,
    wcrt_score,
)

__all__ = [
    "MOVE_KINDS",
    "SHIFT_STEPS",
    "Move",
    "MoveProposer",
    "dominates",
    "pareto_front",
    "before_after_table",
    "pareto_table",
    "METHODS",
    "OBJECTIVES",
    "BudgetOutcome",
    "OptimizeOutcome",
    "default_cache_budgets",
    "evaluation_payload",
    "optimize",
    "wcrt_score",
]
