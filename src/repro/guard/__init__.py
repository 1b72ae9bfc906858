"""Guard layer: budgets and degradation ledgers.

See ``docs/robustness.md`` for the budget model, the degradation ladder
(Eq. 4 → MUMBS∩CIIP → |MUMBS|) and the error taxonomy this layer reports
through.
"""

from repro.guard.budget import AnalysisBudget, BudgetClock
from repro.guard.ledger import (
    SOUNDNESS_CONSERVATIVE,
    SOUNDNESS_EXACT,
    DegradationEvent,
    DegradationLedger,
)
__all__ = [
    "AnalysisBudget",
    "BudgetClock",
    "SOUNDNESS_CONSERVATIVE",
    "SOUNDNESS_EXACT",
    "DegradationEvent",
    "DegradationLedger",
]

