"""Robustness subsystem: solve budgets, deadlines, diagnostics.

Production callers want "the best feasible answer within N ms", not an
open-ended solver run.  This package provides the three pieces that
make every flow budget-aware:

* :class:`SolveBudget` / :class:`BudgetToken` — a frozen effort budget
  and the cooperative cancellation token threaded through the ILP
  kernel, both connection engines, and both schedulers;
* :class:`Deadline` — the shared monotonic wall clock;
* :class:`BudgetExhausted` — the typed give-up signal carrying
  structured progress (phase, iterations, best incumbent);
* :class:`Diagnostics` — the auditable trail of dispatch decisions,
  exhaustions, and graceful fallbacks attached to every
  :class:`repro.core.flow.SynthesisResult`.
"""

from repro.robustness.budget import (BudgetExhausted, BudgetToken,
                                     PHASE_CAPS, SolveBudget, as_token,
                                     carve_deadline_ms)
from repro.robustness.deadline import Deadline
from repro.robustness.diagnostics import (DiagnosticEvent, Diagnostics,
                                          EVENT_EXHAUSTED, EVENT_FALLBACK)

__all__ = [
    "SolveBudget",
    "BudgetToken",
    "BudgetExhausted",
    "Deadline",
    "Diagnostics",
    "DiagnosticEvent",
    "PHASE_CAPS",
    "EVENT_FALLBACK",
    "EVENT_EXHAUSTED",
    "as_token",
    "carve_deadline_ms",
]
