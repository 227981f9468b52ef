"""Cross-flow differential oracle.

The three chapter flows answer the same question — does this design
admit a pin-feasible pipelined implementation at rate ``L``? — by very
different machinery (ILP feasibility + Theorem 3.1 construction,
heuristic connection search, FDS + clique partitioning).  Running them
against each other on one design catches two bug classes no single
flow can see:

* **feasibility disagreements** — one flow *proves* the design
  infeasible (:class:`repro.errors.InfeasibleError` out of the ILP)
  while another produces a result that passes the unified checker.  A
  heuristic merely *giving up* (``ConnectionError_``,
  ``SchedulingError``) proves nothing and never counts as
  disagreement.  Proofs are model-scoped: the Chapter 3 ILP bakes in
  the Theorem 3.1 interconnect shape (dedicated external bundles,
  star interchip bundles — a chip's pins facing the outside world
  never double as interchip pins), so its "infeasible" only covers
  that restricted model and is *not* refuted by a general-bus-model
  result that time-shares one port between external and interchip
  traffic across control-step groups.  The reverse direction has
  teeth: Chapter 3 interconnects are a subset of general ones, so a
  general-flow infeasibility proof is refuted by *any* clean result;
* **checker gaps** — a result that is clean under
  :func:`repro.check.check_result` but fails the cycle-accurate
  simulation (:func:`repro.sim.pipeline.simulate_result`), the
  independent reference the checker is held to: a rule with a blind
  spot.

A flow whose own design-rule check fails (:class:`CheckError`)
produced a dirty result, not a give-up: its outcome carries the
failing report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.report import CheckError, CheckReport
from repro.check.rules import PIN_RULES
from repro.errors import InfeasibleError, ReproError
from repro.partition.simple import is_simple_partitioning
from repro.robustness.budget import BudgetExhausted, SolveBudget

#: Flow outcome classifications.
OK = "ok"                      #: produced a result
INFEASIBLE = "infeasible"      #: proved there is no solution
GAVE_UP = "gave-up"            #: heuristic failure — proves nothing
BUDGET = "budget"              #: ran out of solve budget

#: Interconnect model each flow's results/proofs live in.  A proof in
#: the "chapter3" model (disjoint external/interchip pin nets) does not
#: refute a "general" result; a "general" proof refutes everything.
FLOW_MODEL = {
    "simple": "chapter3",
    "connection-first": "general",
    "schedule-first": "general",
}


def proof_refutes(prover_flow: str, producer_flow: str) -> bool:
    """Whether ``prover_flow``'s infeasibility proof covers results the
    ``producer_flow`` can emit (see the module docstring)."""
    prover = FLOW_MODEL.get(prover_flow, "general")
    producer = FLOW_MODEL.get(producer_flow, "general")
    return prover == "general" or producer == "chapter3"


@dataclass
class FlowOutcome:
    """What one flow (under one scheduler backend) did with the design."""

    flow: str
    outcome: str
    error: Optional[str] = None
    #: The simulator's complaint about a checker-clean result, if any.
    simulation: Optional[str] = None
    report: Optional[CheckReport] = None
    declared_overruns: bool = False
    result: Optional[object] = None
    scheduler: Optional[str] = None

    @property
    def label(self) -> str:
        """Participant name for messages: flow, plus the scheduler
        backend when the run pinned a non-default one."""
        if self.scheduler is None:
            return self.flow
        return f"{self.flow}[{self.scheduler}]"

    @property
    def produced_clean(self) -> bool:
        """Produced a result the unified checker fully accepts.

        Declared pin overruns do *not* count as clean: a result that
        ignores the pin budgets cannot refute an ILP infeasibility
        proof made under those budgets.
        """
        return self.outcome == OK and self.report is not None \
            and self.report.ok

    @property
    def acceptable(self) -> bool:
        """No violations beyond openly-declared pin overruns."""
        if self.outcome != OK or self.report is None:
            return True
        if self.report.ok:
            return True
        if self.declared_overruns:
            return all(v.rule in PIN_RULES
                       for v in self.report.violations)
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "flow": self.flow,
            "scheduler": self.scheduler,
            "outcome": self.outcome,
            "error": self.error,
            "simulation": self.simulation,
            "declared_overruns": self.declared_overruns,
            "report": None if self.report is None
            else self.report.to_dict(),
        }


@dataclass
class OracleReport:
    """Everything one differential run produced."""

    outcomes: List[FlowOutcome] = field(default_factory=list)
    disagreements: List[str] = field(default_factory=list)
    checker_gaps: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.checker_gaps \
            and all(o.acceptable for o in self.outcomes)

    def violations(self) -> List[str]:
        """Unified-checker violations not covered by a flow's openly
        declared pin overruns."""
        out = []
        for outcome in self.outcomes:
            if outcome.report is None:
                continue
            for violation in outcome.report.violations:
                if outcome.declared_overruns \
                        and violation.rule in PIN_RULES:
                    continue
                out.append(f"{outcome.label}: [{violation.rule}] "
                           f"{violation.message}")
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "disagreements": list(self.disagreements),
            "checker_gaps": list(self.checker_gaps),
        }


def applicable_flows(graph, partitioning) -> List[str]:
    """Flows that can run the design at all.

    The Chapter 3 flow requires a simple partitioning with
    unidirectional pins; the other two take anything.
    """
    flows = []
    if is_simple_partitioning(graph) \
            and not partitioning.any_bidirectional():
        flows.append("simple")
    flows.extend(["connection-first", "schedule-first"])
    return flows


def _participants(flows: Sequence[str],
                  schedulers: Optional[Sequence[str]]
                  ) -> List[tuple]:
    """Expand flows into ``(flow, scheduler_or_None)`` participants.

    Without ``schedulers`` each flow runs once under its default
    backend (``None``).  With ``schedulers``, each flow runs once per
    named backend that supports it (aliases resolve to their canonical
    name first); a flow no requested backend supports still runs once
    under its default so the cross-comparison keeps its baseline.
    """
    if not schedulers:
        return [(flow, None) for flow in flows]
    from repro.pipeline.registry import resolve_scheduler, scheduler_backend
    out: List[tuple] = []
    for flow in flows:
        matched = False
        seen = set()
        for name in schedulers:
            canonical = resolve_scheduler(name)
            if canonical in seen:
                continue
            seen.add(canonical)
            backend = scheduler_backend(canonical)
            if backend is not None and flow in backend.flows:
                out.append((flow, canonical))
                matched = True
        if not matched:
            out.append((flow, None))
    return out


def run_differential(graph, partitioning, timing, initiation_rate,
                     flows: Optional[Sequence[str]] = None,
                     timeout_ms: Optional[float] = None,
                     resources=None,
                     keep_results: bool = False,
                     schedulers: Optional[Sequence[str]] = None
                     ) -> OracleReport:
    """Run every applicable flow on one design and cross-compare.

    ``schedulers`` widens the participant set along the backend axis:
    each flow runs once per requested scheduler backend that supports
    it (see :func:`repro.pipeline.scheduler_names`), so e.g.
    ``schedulers=("list", "heap", "modulo")`` pits the heap and modulo
    schedulers against the list baseline — and, through the flow axis,
    against FDS — on one design.

    Returns an :class:`OracleReport`; ``report.ok`` means no flow
    produced a dirty result, no feasibility disagreement, and no clean
    result the simulator rejects.
    """
    from repro.core.flow import synthesize

    if flows is None:
        flows = applicable_flows(graph, partitioning)
    report = OracleReport()
    for flow, sched in _participants(flows, schedulers):
        budget = (None if timeout_ms is None
                  else SolveBudget(deadline_ms=timeout_ms))
        extra = {} if sched is None else {"scheduler": sched}
        try:
            result = synthesize(graph, partitioning, timing,
                                initiation_rate, flow=flow,
                                budget=budget, resources=resources,
                                **extra)
            checked = result.check
        except CheckError as exc:
            result, checked = exc.result, exc.report
        except InfeasibleError as exc:
            report.outcomes.append(FlowOutcome(
                flow, INFEASIBLE, error=str(exc), scheduler=sched))
            continue
        except BudgetExhausted as exc:
            report.outcomes.append(FlowOutcome(
                flow, BUDGET, error=str(exc), scheduler=sched))
            continue
        except ReproError as exc:
            report.outcomes.append(FlowOutcome(
                flow, GAVE_UP, error=str(exc), scheduler=sched))
            continue
        outcome = FlowOutcome(
            flow, OK,
            simulation=_simulation_error(result) if checked.ok else None,
            report=checked,
            declared_overruns=bool(
                result.stats.get("budget_overruns")),
            result=result if keep_results else None,
            scheduler=sched)
        report.outcomes.append(outcome)

    _cross_compare(report)
    return report


def _simulation_error(result) -> Optional[str]:
    """Why the cycle-accurate simulation rejects ``result`` (None when
    it passes)."""
    from repro.sim.pipeline import simulate_result
    try:
        simulate_result(result)
    except ReproError as exc:
        return str(exc)
    return None


def _cross_compare(report: OracleReport) -> None:
    proved_infeasible = [o for o in report.outcomes
                         if o.outcome == INFEASIBLE]
    clean = [o for o in report.outcomes if o.produced_clean]
    for loser in proved_infeasible:
        for winner in clean:
            if not proof_refutes(loser.flow, winner.flow):
                continue
            report.disagreements.append(
                f"{loser.label} proved the design infeasible but "
                f"{winner.label} produced a result the unified "
                f"checker accepts")
    for outcome in report.outcomes:
        if outcome.simulation is not None:
            report.checker_gaps.append(
                f"{outcome.label}: clean under the unified checker but "
                f"the cycle-accurate simulation fails: "
                f"{outcome.simulation}")
