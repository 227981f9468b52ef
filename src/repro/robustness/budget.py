"""Solve budgets and the cooperative cancellation token.

:class:`SolveBudget` is the caller-facing, frozen description of how
much effort a synthesis call may spend: a wall-clock deadline plus
optional per-phase iteration caps.  Starting a budget yields a
:class:`BudgetToken` — the mutable cancellation token that is threaded
through every solver in the pipeline.  Each solver calls
:meth:`BudgetToken.tick` at its natural iteration boundary (a cutting
plane, a branch-&-bound node, a DFS step, a control step, an FDS move);
when a cap or the deadline is hit the tick raises
:class:`BudgetExhausted` carrying structured progress diagnostics.

Iteration caps and the wall clock are both checked on every tick, so
cap-starved runs are deterministic and a solver stops within one
iteration of its deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import ReproError
from repro.robustness.deadline import Deadline


class BudgetExhausted(ReproError):
    """A solver ran out of budget; carries structured progress.

    Attributes
    ----------
    phase:        the phase whose tick tripped the budget;
    iterations:   iterations completed in that phase;
    elapsed_ms:   wall time since the budget was started;
    deadline_ms:  the configured deadline (``None`` if cap-limited);
    counts:       iterations per phase across the whole token;
    incumbent:    best partial progress noted by the solver (or None).
    """

    def __init__(self, phase: str, iterations: int,
                 elapsed_ms: float,
                 deadline_ms: Optional[float] = None,
                 counts: Optional[Dict[str, int]] = None,
                 incumbent: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(
            f"solve budget exhausted in phase {phase!r} after "
            f"{iterations} iterations ({elapsed_ms:.1f} ms elapsed)")
        self.phase = phase
        self.iterations = iterations
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms
        self.counts = dict(counts or {})
        self.incumbent = incumbent
        #: Filled in by the flow layer when the exception escapes a
        #: budgeted synthesis call: the Diagnostics trail so far.
        self.diagnostics = None

    def progress(self) -> Dict[str, Any]:
        """JSON-ready snapshot for diagnostics trails."""
        out: Dict[str, Any] = {
            "phase": self.phase,
            "iterations": self.iterations,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "counts": dict(self.counts),
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        if self.incumbent is not None:
            out["incumbent"] = self.incumbent
        return out


@dataclass(frozen=True)
class SolveBudget:
    """Frozen effort budget for one synthesis call.

    ``deadline_ms`` bounds wall time across *all* phases; the ``max_*``
    fields cap iterations at each solver's natural boundary.  ``None``
    means unlimited.  The default budget is fully unlimited, so passing
    ``SolveBudget()`` is equivalent to passing no budget at all.
    """

    deadline_ms: Optional[float] = None
    max_gomory_iters: Optional[int] = None   # cutting-plane pivots/cuts
    max_lp_solves: Optional[int] = None      # simplex LP relaxations
    max_bnb_nodes: Optional[int] = None      # branch & bound nodes
    max_search_steps: Optional[int] = None   # connection-search DFS steps
    max_sched_steps: Optional[int] = None    # list-scheduler control steps
    max_fds_moves: Optional[int] = None      # force-directed placements

    def start(self, deadline: Optional[Deadline] = None) -> "BudgetToken":
        """Begin the clock; returns the cancellation token."""
        return BudgetToken(self, deadline)


#: phase name -> SolveBudget cap field consulted by BudgetToken.tick.
PHASE_CAPS: Dict[str, str] = {
    "gomory": "max_gomory_iters",
    "simplex": "max_lp_solves",
    "bnb": "max_bnb_nodes",
    "connection_search": "max_search_steps",
    "list_scheduler": "max_sched_steps",
    "fds": "max_fds_moves",
}


class BudgetToken:
    """Mutable cancellation token shared by the solvers of one run."""

    __slots__ = ("budget", "deadline", "counts", "incumbent")

    def __init__(self, budget: SolveBudget,
                 deadline: Optional[Deadline] = None) -> None:
        self.budget = budget
        self.deadline = deadline if deadline is not None \
            else Deadline(budget.deadline_ms)
        self.counts: Dict[str, int] = {}
        self.incumbent: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def child(self) -> "BudgetToken":
        """Fresh iteration counters, same wall clock.

        Used by the graceful-degradation chain: each fallback rung gets
        a clean slate of iteration caps but cannot outlive the original
        deadline.
        """
        return BudgetToken(self.budget, self.deadline)

    def note_incumbent(self, **progress: Any) -> None:
        """Record best-partial-progress to embed in BudgetExhausted."""
        self.incumbent = progress

    # ------------------------------------------------------------------
    def tick(self, phase: str, amount: int = 1) -> None:
        """Count ``amount`` iterations of ``phase``; raise if exhausted."""
        n = self.counts.get(phase, 0) + amount
        self.counts[phase] = n
        cap_field = PHASE_CAPS.get(phase)
        if cap_field is not None:
            cap = getattr(self.budget, cap_field)
            if cap is not None and n > cap:
                self._raise(phase)
        if self.deadline.expired():
            self._raise(phase)

    def check(self, phase: str) -> None:
        """Unconditional wall-clock check (no iteration counted)."""
        if self.deadline.expired():
            self._raise(phase)

    # ------------------------------------------------------------------
    def _raise(self, phase: str) -> None:
        raise BudgetExhausted(
            phase=phase,
            iterations=self.counts.get(phase, 0),
            elapsed_ms=self.deadline.elapsed_ms(),
            deadline_ms=self.budget.deadline_ms,
            counts=self.counts,
            incumbent=self.incumbent,
        )


#: The least slice :func:`carve_deadline_ms` hands a job, time allowing.
SLICE_FLOOR_MS = 25.0


def carve_deadline_ms(remaining_ms: Optional[float],
                      jobs_left: int,
                      workers: int = 1) -> Optional[float]:
    """Fair per-job slice of a global deadline across a worker pool.

    With ``jobs_left`` jobs still to run on ``workers`` parallel
    workers, each job may spend roughly ``remaining * workers /
    jobs_left`` before the pool as a whole busts the global deadline.
    The slice is clamped to ``[SLICE_FLOOR_MS, remaining_ms]`` — the
    floor keeps tail jobs from being handed unusably small budgets, and
    no job may outlive the global clock.  ``None`` remaining means
    unlimited.
    """
    if remaining_ms is None:
        return None
    remaining_ms = max(0.0, remaining_ms)
    if jobs_left <= 0:
        return remaining_ms
    share = remaining_ms * max(1, workers) / jobs_left
    return max(min(SLICE_FLOOR_MS, remaining_ms),
               min(share, remaining_ms))


BudgetLike = Union[SolveBudget, BudgetToken, None]


def as_token(budget: BudgetLike) -> Optional[BudgetToken]:
    """Normalize a budget argument to a started token (or ``None``).

    Solvers accept either a :class:`SolveBudget` (its clock starts on
    the spot) or an already-running :class:`BudgetToken` (shared across
    phases by the flow layer).
    """
    if budget is None:
        return None
    if isinstance(budget, BudgetToken):
        return budget
    if isinstance(budget, SolveBudget):
        return budget.start()
    raise TypeError(
        f"budget must be a SolveBudget or BudgetToken, got "
        f"{type(budget).__name__}")
