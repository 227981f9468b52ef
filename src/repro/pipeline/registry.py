"""The pass-pipeline registry: declarative flows, pluggable backends.

Two registries live here:

* **Flow registry** — each chapter flow is a :class:`FlowSpec`: a
  named list of passes split into *setup* (validation, resource
  defaulting — before the flow's PERF phase), *phased* (the solver
  passes, timed under one ``flow.*`` PERF phase), and *finish*
  (result assembly and the flow's one design-rule check).
  :func:`run_flow` executes a spec over a
  :class:`repro.pipeline.context.FlowContext`, checking the budget
  deadline at every pass boundary.
  :func:`repro.core.flow.synthesize` dispatches exclusively through
  this table — there is no bespoke per-flow call path left.

* **Scheduler backend registry** — every scheduler the Chapter 3/4/6
  flows can drive is a :class:`SchedulerBackend` entry; the built-ins
  are ``list`` (Figure 3.4 list scheduling on one (step, round)
  heap), ``postpone`` (iterative postponement rounds on the same
  engine), ``modulo`` (IMS placement legalized by the same engine),
  and ``fds`` (the time-constrained Chapter 5 scheduler).  ``heap``
  is a deprecated alias of ``list``.  Third parties add their own
  with :func:`register_scheduler`; registered names are
  automatically valid ``--scheduler`` / explorer-axis values and
  differential-oracle participants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import TRACER
from repro.perf import PERF
from repro.pipeline import passes as P
from repro.pipeline.context import FlowContext

# ---------------------------------------------------------------------
# Scheduler backends
# ---------------------------------------------------------------------

#: Deprecated scheduler spellings -> canonical registry names.  Kept
#: working so pre-registry archives, sweep specs, and scripts load
#: unchanged; resolving one records a diagnostics warning.
DEPRECATED_SCHEDULER_ALIASES = {
    "list_scheduler": "list",
    "list-scheduler": "list",
    "postponement": "postpone",
    "postponed": "postpone",
    "force-directed": "fds",
    "force_directed": "fds",
    "heap": "list",
}


@dataclass(frozen=True)
class SchedulerBackend:
    """One registered scheduler.

    The flow decides how ``factory`` is called:

    * the ``simple`` and ``connection-first`` schedule passes call
      :meth:`run_scheduler`, i.e. ``factory(graph, timing, rate,
      resources, hooks_factory, budget, diagnostics)``, which must
      return a finished :class:`Schedule`.  ``hooks_factory`` yields a
      fresh :class:`IoHooks` per call; backends that run several
      attempts (postponement rounds, modulo legalization retries) call
      it once per attempt.
    * the ``schedule-first`` flow calls :meth:`run_time_scheduler` on
      the ``fds`` entry, i.e. ``factory(graph, timing, rate,
      pipe_length, budget, diagnostics)``.
    """

    name: str
    factory: Callable
    flows: Tuple[str, ...] = ("simple", "connection-first")
    description: str = ""

    def run_scheduler(self, graph, timing, rate, resources,
                      hooks_factory, budget, diagnostics):
        return self.factory(graph, timing, rate, resources,
                            hooks_factory, budget, diagnostics)

    def run_time_scheduler(self, graph, timing, rate, pipe_length,
                           budget, diagnostics):
        return self.factory(graph, timing, rate, pipe_length,
                            budget, diagnostics)


_SCHEDULERS: Dict[str, SchedulerBackend] = {}


def register_scheduler(name: str, factory: Callable, *,
                       flows: Tuple[str, ...] = ("simple",
                                                 "connection-first"),
                       description: str = "",
                       replace: bool = False) -> SchedulerBackend:
    """Register a scheduler backend under ``name``.

    The name immediately becomes a valid ``SynthesisOptions.scheduler``
    value, ``repro synthesize --scheduler`` choice, explorer
    ``scheduler`` axis value, and differential-oracle participant for
    the flows it supports.  Re-registering an existing name requires
    ``replace=True`` (guards against accidental shadowing).
    """
    if name in _SCHEDULERS and not replace:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            f"(pass replace=True to override)")
    if name in DEPRECATED_SCHEDULER_ALIASES:
        raise ValueError(
            f"{name!r} is a deprecated alias of "
            f"{DEPRECATED_SCHEDULER_ALIASES[name]!r}; register the "
            f"canonical name instead")
    backend = SchedulerBackend(name=name, factory=factory,
                               flows=tuple(flows),
                               description=description)
    _SCHEDULERS[name] = backend
    return backend


def scheduler_backend(name: str) -> Optional[SchedulerBackend]:
    """The backend registered under ``name`` (``None`` if absent)."""
    return _SCHEDULERS.get(name)


def scheduler_names(flow: Optional[str] = None) -> List[str]:
    """Registered backend names, optionally only those a flow accepts."""
    names = [name for name, backend in _SCHEDULERS.items()
             if flow is None or flow in backend.flows]
    return sorted(names)


def resolve_scheduler(name: str, diag=None) -> str:
    """Canonicalize a scheduler spelling.

    Deprecated aliases map to their registry names; when a
    diagnostics trail is given the substitution is recorded as a
    warning so degraded-compat spellings are auditable.  Unknown
    names pass through (the flow's validation pass rejects them).
    """
    canonical = DEPRECATED_SCHEDULER_ALIASES.get(name, name)
    if canonical != name and diag is not None:
        diag.record("scheduler", "deprecated_alias",
                    alias=name, canonical=canonical)
    return canonical


# -- built-in backends -------------------------------------------------
def _run_list(graph, timing, rate, resources, hooks_factory, budget,
              diagnostics):
    from repro.scheduling.list_scheduler import ListScheduler
    return ListScheduler(graph, timing, rate, resources,
                         io_hooks=hooks_factory(), budget=budget).run()


def _run_postpone(graph, timing, rate, resources, hooks_factory,
                  budget, diagnostics):
    from repro.scheduling.postpone import schedule_with_postponement
    return schedule_with_postponement(graph, timing, rate, resources,
                                      hooks_factory=hooks_factory,
                                      budget=budget)


def _run_modulo(graph, timing, rate, resources, hooks_factory, budget,
                diagnostics):
    from repro.scheduling.modulo import ModuloScheduler
    return ModuloScheduler(graph, timing, rate, resources,
                           hooks_factory=hooks_factory, budget=budget,
                           diagnostics=diagnostics).run()


def _run_fds(graph, timing, rate, pipe_length, budget, diagnostics):
    from repro.scheduling.fds import ForceDirectedScheduler
    return ForceDirectedScheduler(graph, timing, rate, pipe_length,
                                  budget=budget).run()


register_scheduler(
    "list", _run_list,
    description="priority list scheduling on a (step, round) heap "
                "(Figure 3.4)")
register_scheduler(
    "postpone", _run_postpone,
    flows=("connection-first",),
    description="list scheduling with iterative postponement rounds")
register_scheduler(
    "modulo", _run_modulo,
    description="IMS modulo placement at II=L, legalized by list "
                "scheduling")
register_scheduler(
    "fds", _run_fds, flows=("schedule-first",),
    description="time-constrained force-directed scheduling "
                "(Section 5.2)")


# ---------------------------------------------------------------------
# Flow specs
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class FlowSpec:
    """One chapter flow as a declarative pass list."""

    name: str
    perf_phase: str
    setup: Tuple[P.Pass, ...]
    phased: Tuple[P.Pass, ...]
    finish: Tuple[P.Pass, ...]

    def pass_names(self) -> List[str]:
        return [p.name for p in
                (*self.setup, *self.phased, *self.finish)]


_FLOW_SPECS: Dict[str, FlowSpec] = {}


def register_flow(spec: FlowSpec, replace: bool = False) -> FlowSpec:
    if spec.name in _FLOW_SPECS and not replace:
        raise ValueError(
            f"flow {spec.name!r} is already registered "
            f"(pass replace=True to override)")
    _FLOW_SPECS[spec.name] = spec
    return spec


def flow_spec(name: str) -> FlowSpec:
    try:
        return _FLOW_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown flow {name!r}; registered: "
            f"{sorted(_FLOW_SPECS)}") from None


def registered_flows() -> List[str]:
    return sorted(_FLOW_SPECS)


register_flow(FlowSpec(
    name="simple",
    perf_phase="flow.simple",
    setup=(P.ValidateDesign(), P.RequireSimplePartitioning(),
           P.BuildResourceTable(), P.ValidateScheduler("simple")),
    phased=(P.SchedulePinChecked(), P.ConnectSimple()),
    finish=(P.BuildSimpleResult(), P.VerifyResult()),
))

register_flow(FlowSpec(
    name="connection-first",
    perf_phase="flow.connection_first",
    setup=(P.ValidateDesign(), P.BuildResourceTable(),
           P.ResolveShareGroups(),
           P.ValidateScheduler("connection-first")),
    phased=(P.SearchConnections(), P.ScheduleBusAllocated()),
    finish=(P.BuildConnectionFirstResult(), P.VerifyResult()),
))

register_flow(FlowSpec(
    name="schedule-first",
    perf_phase="flow.schedule_first",
    setup=(P.ValidateDesign(), P.ResolvePipeLength(),
           P.BuildResourceTable(default_modules=False)),
    phased=(P.ScheduleForceDirected(), P.ConnectPostSchedule()),
    finish=(P.MeasureResources(), P.BuildScheduleFirstResult(),
            P.VerifyTolerantPins(), P.VerifyStrictOnFallback()),
))


# ---------------------------------------------------------------------
def _pass_boundary(ctx: FlowContext, p) -> None:
    """Uniform per-pass budget gate: the wall clock is consulted at
    every pass boundary (deadline only — iteration caps belong to the
    solvers' own ticks, so capped runs stay deterministic)."""
    if ctx.token is not None:
        ctx.token.check(f"pass.{p.name}")


def run_flow(name: str, ctx: FlowContext):
    """Execute a registered flow's pass list over ``ctx``.

    Setup passes run first; the phased passes run under the flow's
    PERF phase; finish passes assemble and verify the result.  From the
    phased passes on, this flow's solver effort counts into its own
    scope of ``PERF`` (``ctx.perf``), so every flow reports it the same
    way and solves running beside it on other threads never leak in.
    """
    spec = flow_spec(name)

    def run_pass(p) -> None:
        _pass_boundary(ctx, p)
        with TRACER.span(f"pass.{p.name}", layer="pipeline"):
            p.run(ctx)

    for p in spec.setup:
        run_pass(p)
    with PERF.scope() as ctx.perf:
        # The flow's PERF phase is a pipeline-layer span, so the pass
        # spans below nest under it.
        with PERF.phase(spec.perf_phase):
            for p in spec.phased:
                run_pass(p)
        for p in spec.finish:
            run_pass(p)
    return ctx.result
