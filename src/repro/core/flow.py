"""End-to-end synthesis flows and the :func:`synthesize` front door.

* :func:`synthesize` — the single entry point: dispatches on the
  partitioning (``flow="auto"``) to the right chapter flow, threads an
  optional :class:`repro.robustness.budget.SolveBudget` through every
  solver, and degrades gracefully when the budget runs out.
* :func:`synthesize_simple` — Chapter 3: list scheduling with the ILP
  pin-allocation feasibility checker, then the constructive Theorem 3.1
  interchip connection.
* :func:`synthesize_connection_first` — Chapter 4 (and 6 with
  ``subbus_sharing=True``): heuristic connection synthesis, then list
  scheduling with dynamic bus reassignment.
* :func:`synthesize_schedule_first` — Chapter 5: force-directed
  scheduling, then connection synthesis by clique partitioning.

Every flow is a declarative pass list in the pass-pipeline registry
(:mod:`repro.pipeline.registry`): this module owns the options/result
types and the dispatch/degradation policy, while the flow *bodies*
live as passes in :mod:`repro.pipeline.passes` running over a typed
:class:`repro.pipeline.context.FlowContext`.  Scheduler backends
(``list`` for the simple and connection-first flows, ``fds`` for
schedule-first) are registry entries too —
:func:`repro.pipeline.register_scheduler` plugs new ones into the
flows, the CLI, the explorer, and the differential oracle.

Every flow ends in one run of the design-rule checker
(:func:`repro.check.check_result`) over its :class:`SynthesisResult` —
precedence, chaining, recursion, functional units, pin budgets, and bus
conflict freedom — keeps the report as ``result.check``, and raises
:class:`repro.check.CheckError` on any violation it does not tolerate.
Budgeted runs additionally carry a
:class:`repro.robustness.diagnostics.Diagnostics` trail recording
dispatch decisions, budget exhaustions, and fallbacks, so a degraded
answer is auditable.

The graceful-degradation lattice (see DESIGN.md §8):

* connection-first search exhausts its budget → retry with a greedy
  ``branching_factor=1`` pass (fresh iteration counters, same wall
  clock) → fall back to the schedule-first flow;
* the Gomory cutting planes stall → the pin checker latches onto exact
  branch & bound → onto the conservative LP-relaxation bound (inside
  :class:`repro.core.pin_allocation.PinAllocationChecker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional

from repro.cdfg.graph import Cdfg
from repro.core.interconnect import BusAssignment, Interconnect
from repro.core.simple_connection import SimpleConnectionResult
from repro.errors import ReproError
from repro.modules.allocation import ResourceVector
from repro.modules.library import DesignTiming
from repro.partition.model import Partitioning
from repro.partition.simple import is_simple_partitioning
from repro.pipeline.context import (STAT_COUNTERS as _STAT_COUNTERS,
                                    normalized_stats as
                                    _normalized_stats)
from repro.obs import TRACER
from repro.robustness.budget import (BudgetExhausted, BudgetToken,
                                     as_token)
from repro.robustness.diagnostics import Diagnostics
from repro.scheduling.base import Schedule

#: Flow names accepted by :func:`synthesize`.
FLOWS = ("auto", "simple", "connection-first", "schedule-first")


@dataclass(frozen=True)
class SynthesisOptions:
    """Frozen bag of every per-flow tuning knob.

    One options type replaces the per-flow kwargs that had drifted
    apart; each flow reads the fields it understands and ignores the
    rest (the CLI sets them all uniformly).  Defaults match the
    historical per-flow defaults exactly.
    """

    flow: str = "auto"
    resources: Optional[ResourceVector] = None
    pin_method: str = "gomory"              # simple flow
    branching_factor: int = 2               # connection-first
    reassignment: bool = True               # connection-first
    subbus_sharing: bool = False            # connection-first (Ch 6)
    share_groups: Optional[Mapping[str, str]] = None
    slot_reserve: int = 0                   # connection-first
    conditional_sharing: bool = False       # connection-first (Sec 7.2)
    scheduler: str = "list"                 # connection-first
    pipe_length: Optional[int] = None       # schedule-first
    bidirectional: Optional[bool] = None    # schedule-first

    def __post_init__(self) -> None:
        if self.flow not in FLOWS:
            raise ReproError(
                f"unknown flow {self.flow!r}; expected one of {FLOWS}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (resources excluded — they are keyed by
        tuples and travel separately as ``{"chip:op": n}``).

        Used by the design-space explorer to ship options across
        process boundaries and to build canonical cache keys.
        """
        return {
            "flow": self.flow,
            "pin_method": self.pin_method,
            "branching_factor": self.branching_factor,
            "reassignment": self.reassignment,
            "subbus_sharing": self.subbus_sharing,
            "share_groups": (None if self.share_groups is None
                             else dict(self.share_groups)),
            "slot_reserve": self.slot_reserve,
            "conditional_sharing": self.conditional_sharing,
            "scheduler": self.scheduler,
            "pipe_length": self.pipe_length,
            "bidirectional": self.bidirectional,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object],
                  resources: Optional[ResourceVector] = None
                  ) -> "SynthesisOptions":
        """Rebuild options from :meth:`to_dict` data (tolerant of
        missing keys, so older archives keep loading)."""
        known = {f for f in cls.__dataclass_fields__ if f != "resources"}
        kwargs = {k: v for k, v in dict(data).items() if k in known}
        return cls(resources=resources, **kwargs)


@dataclass
class SynthesisResult:
    """Everything a multi-chip synthesis run produces."""

    graph: Cdfg
    partitioning: Partitioning
    initiation_rate: int
    schedule: Schedule
    resources: ResourceVector
    interconnect: Optional[Interconnect] = None
    assignment: Optional[BusAssignment] = None
    simple_allocation: Optional[SimpleConnectionResult] = None
    stats: Dict[str, float] = field(default_factory=dict)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    #: Warm-start hand-off for structurally-identical re-solves: a
    #: :class:`repro.core.pin_allocation.PinWarmStart` with the pin
    #: checker's exported :class:`repro.ilp.WarmBasis` and the finished
    #: schedule's trajectory (simple flow only; None elsewhere).
    #: Deliberately not serialized with the result — it travels between
    #: neighboring solves in one process, not to archives.
    warm_basis: Optional[object] = None
    #: The flow's :class:`repro.check.CheckReport`, from its one
    #: design-rule check; not serialized either.
    check: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def pipe_length(self) -> int:
        return self.schedule.pipe_length

    @property
    def degraded(self) -> bool:
        """True when any phase fell back to a cheaper strategy."""
        return self.diagnostics.degraded

    def pins_used(self) -> Dict[int, int]:
        if self.interconnect is not None:
            return self.interconnect.pin_report(self.partitioning.indices())
        if self.simple_allocation is not None:
            return {p: self.simple_allocation.pins_used(p)
                    for p in self.partitioning.indices()}
        return {p: 0 for p in self.partitioning.indices()}

    def verify(self) -> List[str]:
        """Every violation message of a fresh
        :func:`repro.check.check_result` run (empty = valid)."""
        from repro.check.rules import check_result
        return [v.message for v in check_result(self).violations]

    def require_valid(self) -> "SynthesisResult":
        """``self``, or :class:`repro.check.CheckError` on any violation."""
        from repro.check.rules import check_result
        check_result(self).raise_if_violations(self)
        return self


def _default_pipe_length(graph: Cdfg, timing: DesignTiming,
                         initiation_rate: int) -> int:
    """Pipe budget for schedule-first runs that did not specify one.

    The critical path is the floor; the ``2 L`` margin gives FDS slack
    to balance concurrency (the same headroom the Section 7.2 heuristic
    grants itself).
    """
    from repro.cdfg.analysis import critical_path_length
    return critical_path_length(graph, timing) + 2 * initiation_rate


# ---------------------------------------------------------------------
def _run_flow(flow: str, graph: Cdfg, partitioning: Partitioning,
              timing: DesignTiming, initiation_rate: int,
              opts: SynthesisOptions,
              token: Optional[BudgetToken],
              diag: Diagnostics, *,
              warm_basis=None,
              strict_verify: bool = False,
              pipe_length: Optional[int] = None) -> SynthesisResult:
    """Run one registered flow's pass list (see
    :mod:`repro.pipeline.registry`) over a fresh context."""
    # Imported here, not at module top: the registry's pass modules
    # import the solver layers this module sits below.
    from repro.pipeline.context import FlowContext
    from repro.pipeline.registry import run_flow
    ctx = FlowContext(graph=graph, partitioning=partitioning,
                      timing=timing, initiation_rate=initiation_rate,
                      options=opts, token=token, diag=diag,
                      warm_basis=warm_basis, strict_verify=strict_verify,
                      pipe_length=pipe_length)
    return run_flow(flow, ctx)


# ---------------------------------------------------------------------
# Public per-chapter entry points: thin wrappers over the flow bodies,
# signature- and default-compatible with the historical functions.
def synthesize_simple(graph: Cdfg,
                      partitioning: Partitioning,
                      timing: DesignTiming,
                      initiation_rate: int,
                      resources: Optional[ResourceVector] = None,
                      pin_method: str = "gomory",
                      budget=None, warm_basis=None) -> SynthesisResult:
    """Chapter 3 flow for designs with a simple partitioning."""
    opts = SynthesisOptions(flow="simple", resources=resources,
                            pin_method=pin_method)
    return _run_flow("simple", graph, partitioning, timing,
                     initiation_rate, opts, as_token(budget),
                     Diagnostics(), warm_basis=warm_basis)


def synthesize_connection_first(graph: Cdfg,
                                partitioning: Partitioning,
                                timing: DesignTiming,
                                initiation_rate: int,
                                resources: Optional[ResourceVector] = None,
                                branching_factor: int = 2,
                                reassignment: bool = True,
                                subbus_sharing: bool = False,
                                share_groups: Optional[
                                    Mapping[str, str]] = None,
                                slot_reserve: int = 0,
                                conditional_sharing: bool = False,
                                scheduler: str = "list",
                                budget=None,
                                ) -> SynthesisResult:
    """Chapter 4 flow (Chapter 6 with ``subbus_sharing=True``).

    ``slot_reserve`` holds back communication slots per bus during
    connection synthesis (more buses, higher bandwidth — the
    Objective-4.6 lever), useful on latency-critical recursive designs.
    ``conditional_sharing=True`` runs the Section 7.2 heuristic first:
    mutually exclusive guarded transfers are grouped and enter the
    connection search as shared values.
    """
    opts = SynthesisOptions(flow="connection-first",
                            resources=resources,
                            branching_factor=branching_factor,
                            reassignment=reassignment,
                            subbus_sharing=subbus_sharing,
                            share_groups=share_groups,
                            slot_reserve=slot_reserve,
                            conditional_sharing=conditional_sharing,
                            scheduler=scheduler)
    return _run_flow("connection-first", graph, partitioning, timing,
                     initiation_rate, opts, as_token(budget),
                     Diagnostics())


def synthesize_schedule_first(graph: Cdfg,
                              partitioning: Partitioning,
                              timing: DesignTiming,
                              initiation_rate: int,
                              pipe_length: int,
                              bidirectional: Optional[bool] = None,
                              budget=None,
                              ) -> SynthesisResult:
    """Chapter 5 flow: FDS then clique-partitioning connection."""
    opts = SynthesisOptions(flow="schedule-first",
                            pipe_length=pipe_length,
                            bidirectional=bidirectional)
    return _run_flow("schedule-first", graph, partitioning, timing,
                     initiation_rate, opts, as_token(budget),
                     Diagnostics(), pipe_length=pipe_length)


# ---------------------------------------------------------------------
def synthesize(graph: Cdfg,
               partitioning: Partitioning,
               timing: DesignTiming,
               initiation_rate: int,
               *,
               flow: str = "auto",
               budget=None,
               check: bool = False,
               pin_warm_basis=None,
               **opts) -> SynthesisResult:
    """The front door: dispatch, budget, and graceful degradation.

    ``flow="auto"`` picks the Chapter 3 flow for simple partitionings
    with unidirectional pins and the Chapter 4 flow otherwise; the
    remaining keyword arguments are :class:`SynthesisOptions` fields.

    ``pin_warm_basis`` hands the simple flow an earlier solve's
    ``result.warm_basis``, a
    :class:`repro.core.pin_allocation.PinWarmStart` or ``None``; the
    simple flow raises :class:`TypeError` on anything else.  The
    hand-off lives in memory only.  Its basis warm-starts the pin
    checker's solver when this solve's budgets are a tightening of the
    earlier solve's (each at most the earlier one) and is ignored
    otherwise.  Its trajectory, the earlier solve's finished
    schedule, is adopted with no scheduling at all when every pin
    verdict provably carries over: same graph, rate, port pattern,
    timing, module vector and scheduler; the earlier schedule's pin
    usage fits this solve's budgets; and the earlier solve had no "no"
    verdict, or these budgets are component-wise <= the ones it was
    proved at.  The result then records a ``schedule``/``reused``
    diagnostics event naming those budgets.  Either way the answer
    equals a cold solve's.  Other flows ignore it.

    Every flow checks its result once with
    :func:`repro.check.check_result` (the report is ``result.check``)
    and raises :class:`repro.check.CheckError` on a violation.  The
    schedule-first flow tolerates the pin overruns it declares in
    ``stats["budget_overruns"]``; ``check=True`` makes it strict, like
    the other flows.

    With a :class:`repro.robustness.budget.SolveBudget`, every solver
    in the chosen flow cooperates with the deadline/caps, and the
    connection-first flow degrades gracefully instead of failing:
    budget-starved search retries greedily (``branching_factor=1``),
    then falls back to the schedule-first flow.  Each fallback rung
    restarts the iteration counters but shares the original wall clock,
    and every transition is recorded on ``result.diagnostics``.
    Degraded results are checked strictly, exactly like full-effort
    ones; when no rung fits the budget, the final
    :class:`BudgetExhausted` carries the diagnostics trail.
    """
    options = SynthesisOptions(flow=flow, **opts)
    token = as_token(budget)
    diag = Diagnostics()
    with TRACER.span("synthesize", layer="pipeline", flow=flow,
                     rate=initiation_rate) as sp:
        diag.bind_span(sp)
        try:
            return _dispatch(graph, partitioning, timing,
                             initiation_rate, options, token, diag,
                             warm_basis=pin_warm_basis, strict=check)
        except BudgetExhausted as exc:
            if exc.diagnostics is None:
                exc.diagnostics = diag
            raise


def _dispatch(graph: Cdfg, partitioning: Partitioning,
              timing: DesignTiming, initiation_rate: int,
              options: SynthesisOptions,
              token: Optional[BudgetToken],
              diag: Diagnostics,
              warm_basis=None,
              strict: bool = False) -> SynthesisResult:
    chosen = options.flow
    auto = chosen == "auto"
    if auto:
        if is_simple_partitioning(graph) \
                and not partitioning.any_bidirectional():
            chosen = "simple"
        else:
            chosen = "connection-first"
        diag.record("dispatch", "selected", flow=chosen,
                    simple_partitioning=is_simple_partitioning(graph),
                    bidirectional=partitioning.any_bidirectional())

    if chosen == "simple":
        try:
            return _run_flow("simple", graph, partitioning, timing,
                             initiation_rate, options,
                             token.child() if token else None, diag,
                             warm_basis=warm_basis)
        except BudgetExhausted as exc:
            # Auto-dispatch may retreat to the general flow (and its
            # own fallback chain); an explicit flow="simple" must not.
            if not auto:
                raise
            diag.record_exhaustion(exc)
            diag.record_fallback("flow", frm="simple",
                                 to="connection-first")
    if chosen == "schedule-first":
        return _run_flow("schedule-first", graph, partitioning,
                         timing, initiation_rate, options, token,
                         diag, strict_verify=strict)

    # connection-first, with the graceful-degradation chain when a
    # budget is in force (without one, BudgetExhausted cannot occur).
    def child() -> Optional[BudgetToken]:
        return token.child() if token is not None else None

    try:
        return _run_flow("connection-first", graph, partitioning,
                         timing, initiation_rate, options, child(),
                         diag)
    except BudgetExhausted as exc:
        diag.record_exhaustion(exc)
        if options.branching_factor > 1:
            diag.record_fallback(
                "flow",
                frm=f"connection-first(b={options.branching_factor})",
                to="connection-first(greedy)")
            greedy = replace(options, branching_factor=1)
            try:
                return _run_flow("connection-first", graph,
                                 partitioning, timing,
                                 initiation_rate, greedy, child(),
                                 diag)
            except BudgetExhausted as exc2:
                diag.record_exhaustion(exc2)
    diag.record_fallback("flow", frm="connection-first",
                         to="schedule-first")
    # A degraded answer must verify exactly like a full-effort one —
    # including pin budgets, which the standalone schedule-first flow
    # merely reports on (strict_verify).
    return _run_flow("schedule-first", graph, partitioning, timing,
                     initiation_rate, options, child(), diag,
                     strict_verify=True)
