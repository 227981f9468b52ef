"""Concrete passes composing the three chapter flows.

Each pass is a small named object with a ``run(ctx)`` method over a
:class:`repro.pipeline.context.FlowContext`; the registry strings them
into per-flow pass lists (see :mod:`repro.pipeline.registry`).  The
pass bodies are the exact phase bodies of the historical monolithic
flow functions — the refactor moved the sequencing out, not the
semantics — so a registry-dispatched run is byte-identical to the old
bespoke call path.

Scheduling passes resolve ``options.scheduler`` against the backend
registry, so third-party schedulers plug into the Chapter 3 and
Chapter 4/6 flows without any flow-specific wiring.
"""

from __future__ import annotations

from typing import Protocol

from repro.cdfg.validate import validate_cdfg
from repro.core.bus_assignment import BusAllocator
from repro.core.connection_search import ConnectionSearch
from repro.core.oracle_store import budget_vector
from repro.core.pin_allocation import (PinAllocationChecker, PinWarmStart,
                                       design_signature)
from repro.core.post_sched import PostScheduleConnector
from repro.core.simple_connection import build_simple_connection
from repro.core.subbus import SubBusConnectionSearch
from repro.errors import ConnectionError_, SchedulingError
from repro.partition.simple import is_simple_partitioning
from repro.pipeline.context import FlowContext, normalized_stats
from repro.pipeline.resource_table import ResourceTable
from repro.scheduling.base import measured_resources


class Pass(Protocol):
    """One step of a flow: consumes and produces a FlowContext."""

    name: str

    def run(self, ctx: FlowContext) -> None:
        """Read inputs and earlier products off ``ctx``, write own."""


# ---------------------------------------------------------------------
# Shared setup passes
# ---------------------------------------------------------------------
class ValidateDesign:
    """CDFG well-formedness (every flow's first gate)."""

    name = "validate"

    def run(self, ctx: FlowContext) -> None:
        validate_cdfg(ctx.graph, require_partitions=False)


class RequireSimplePartitioning:
    """Chapter 3 applies only to simple partitionings (Def 3.2)."""

    name = "require-simple"

    def run(self, ctx: FlowContext) -> None:
        if not is_simple_partitioning(ctx.graph):
            raise ConnectionError_(
                "synthesize_simple requires a simple partitioning "
                "(Definition 3.2); use synthesize_connection_first "
                "instead")


class BuildResourceTable:
    """Create the run's :class:`ResourceTable`; module counts default
    to the rate-feasible minimum when the caller gave none."""

    name = "resource-table"

    def __init__(self, default_modules: bool = True) -> None:
        self.default_modules = default_modules

    def run(self, ctx: FlowContext) -> None:
        ctx.table = ResourceTable(ctx.graph, ctx.partitioning,
                                  ctx.timing, ctx.initiation_rate,
                                  modules=ctx.options.resources)
        if self.default_modules:
            ctx.table.modules  # resolve eagerly, before the PERF phase


class ResolveShareGroups:
    """Section 7.2 conditional sharing (connection-first setup)."""

    name = "share-groups"

    def run(self, ctx: FlowContext) -> None:
        opts = ctx.options
        share_groups = opts.share_groups
        if opts.conditional_sharing:
            if share_groups is not None:
                raise ConnectionError_(
                    "give either explicit share_groups or "
                    "conditional_sharing=True, not both")
            from repro.cdfg.analysis import critical_path_length
            from repro.core.conditional import share_conditionally
            pipe_budget = critical_path_length(ctx.graph, ctx.timing) \
                + 2 * ctx.initiation_rate
            sharing = share_conditionally(
                ctx.graph, ctx.timing, pipe_budget,
                initiation_rate=ctx.initiation_rate)
            share_groups = sharing.share_groups()
        ctx.share_groups = share_groups


class ValidateScheduler:
    """Resolve ``options.scheduler`` against the backend registry for
    this flow; deprecated spellings canonicalize with a diagnostics
    warning, unknown or inapplicable names fail fast."""

    name = "validate-scheduler"

    def __init__(self, flow: str) -> None:
        self.flow = flow

    def run(self, ctx: FlowContext) -> None:
        from repro.pipeline.registry import (resolve_scheduler,
                                             scheduler_backend)
        resolved = resolve_scheduler(ctx.options.scheduler,
                                     diag=ctx.diag)
        backend = scheduler_backend(resolved)
        if backend is None:
            raise SchedulingError(
                f"unknown scheduler {ctx.options.scheduler!r}")
        if self.flow not in backend.flows:
            raise SchedulingError(
                f"scheduler {resolved!r} is not available in the "
                f"{self.flow} flow (supports: "
                f"{', '.join(backend.flows)})")
        ctx.stats_extra["_scheduler"] = resolved


def _resolved_backend(ctx: FlowContext, flow: str):
    from repro.pipeline.registry import (resolve_scheduler,
                                         scheduler_backend)
    name = ctx.stats_extra.pop("_scheduler", None)
    if name is None:
        name = resolve_scheduler(ctx.options.scheduler)
    return scheduler_backend(name)


# ---------------------------------------------------------------------
# Chapter 3 (simple) passes
# ---------------------------------------------------------------------
class SchedulePinChecked:
    """List scheduling gated by the ILP pin-allocation checker.

    The selected backend draws its functional-unit pool from the
    resource table and its I/O feasibility from the run's one
    :class:`PinAllocationChecker`.  When the warm hand-off
    (``ctx.warm_basis``, a :class:`PinWarmStart`) holds a trajectory
    whose every pin verdict carries over to this solve
    (:meth:`PinTrajectory.carries_over`), its schedule is adopted
    instead: no scheduler, no checker, no store lookup.  Either way the
    pass leaves the hand-off for the next solve in ``ctx.warm_export``.
    """

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        backend = _resolved_backend(ctx, "simple")
        warm = PinWarmStart() if ctx.warm_basis is None \
            else ctx.warm_basis
        if not isinstance(warm, PinWarmStart):
            raise TypeError(
                f"pin_warm_basis must be a PinWarmStart or None, got "
                f"{type(warm).__name__}")
        context = (ctx.timing, dict(ctx.table.modules), backend.name)
        adopted = warm.trajectory
        if adopted is not None and adopted.carries_over(
                (design_signature(ctx.graph, ctx.partitioning,
                                  ctx.initiation_rate), *context),
                budget_vector(ctx.partitioning)):
            ctx.schedule = adopted.schedule(ctx.graph, ctx.timing,
                                            ctx.initiation_rate)
            ctx.diag.record("schedule", "reused",
                            proved_at=list(adopted.budgets))
            ctx.warm_export = warm
            return
        ctx.checker = PinAllocationChecker(
            ctx.graph, ctx.partitioning, ctx.initiation_rate,
            method=ctx.options.pin_method, budget=ctx.token,
            diagnostics=ctx.diag, warm_basis=warm.basis)
        ctx.schedule = backend.run_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.table.modules, ctx.checker, ctx.token, ctx.diag)
        ctx.checker.finalize()
        basis = ctx.checker.export_warm_basis()
        trajectory = ctx.checker.trajectory(ctx.schedule, context)
        if basis is not None or trajectory is not None:
            ctx.warm_export = PinWarmStart(basis, trajectory)


class ConnectSimple:
    """Theorem 3.1 constructive interchip connection."""

    name = "simple-connect"

    def run(self, ctx: FlowContext) -> None:
        ctx.simple_allocation = build_simple_connection(ctx.graph,
                                                        ctx.schedule)


class BuildSimpleResult:
    """Assemble the Chapter 3 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        checker = ctx.checker
        # A reused schedule ran no checker: its pin counts are 0.
        counts = {} if checker is None else {
            "pin_checks": checker.checks,
            "pin_cache_hits": checker.cache_hits,
            "pin_store_hits": checker.store_hits}
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            simple_allocation=ctx.simple_allocation,
            stats=normalized_stats(ctx.perf, **counts),
            diagnostics=ctx.diag,
            warm_basis=ctx.warm_export,
        )


# ---------------------------------------------------------------------
# Chapter 4/6 (connection-first) passes
# ---------------------------------------------------------------------
class SearchConnections:
    """Heuristic connection synthesis before scheduling (Fig 4.3)."""

    name = "connect-search"

    def run(self, ctx: FlowContext) -> None:
        opts = ctx.options
        search_cls = SubBusConnectionSearch if opts.subbus_sharing \
            else ConnectionSearch
        search = search_cls(ctx.graph, ctx.partitioning,
                            ctx.initiation_rate,
                            branching_factor=opts.branching_factor,
                            share_groups=ctx.share_groups,
                            slot_reserve=opts.slot_reserve,
                            budget=ctx.token)
        ctx.interconnect, ctx.initial = search.run()


class ScheduleBusAllocated:
    """Scheduling with dynamic bus (re)assignment hooks.

    The selected backend receives the run's one :class:`BusAllocator`
    over the searched interconnect; its assignment is final.
    """

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        backend = _resolved_backend(ctx, "connection-first")
        # BusAllocator copies the initial assignment and never writes
        # to it, so ctx.initial stays the search's answer.
        ctx.allocator = BusAllocator(
            ctx.graph, ctx.interconnect, ctx.initial,
            ctx.initiation_rate, reassignment=ctx.options.reassignment)
        ctx.schedule = backend.run_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.table.modules, ctx.allocator, ctx.token, ctx.diag)


class BuildConnectionFirstResult:
    """Assemble the Chapter 4/6 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            interconnect=ctx.interconnect,
            assignment=ctx.allocator.final_assignment(),
            stats=normalized_stats(ctx.perf,
                                   initial_assignment=ctx.initial),
            diagnostics=ctx.diag,
        )


# ---------------------------------------------------------------------
# Chapter 5 (schedule-first) passes
# ---------------------------------------------------------------------
class ResolvePipeLength:
    """Bidirectional default + pipe budget for FDS runs without one."""

    name = "pipe-length"

    def run(self, ctx: FlowContext) -> None:
        bidirectional = ctx.options.bidirectional
        if bidirectional is None:
            bidirectional = ctx.partitioning.any_bidirectional()
        ctx.stats_extra["_bidirectional"] = bidirectional
        if ctx.pipe_length is None:
            ctx.pipe_length = ctx.options.pipe_length
        if ctx.pipe_length is None:
            from repro.core.flow import _default_pipe_length
            ctx.pipe_length = _default_pipe_length(
                ctx.graph, ctx.timing, ctx.initiation_rate)


class ScheduleForceDirected:
    """Time-constrained force-directed scheduling (Section 5.2)."""

    name = "schedule"

    def run(self, ctx: FlowContext) -> None:
        from repro.pipeline.registry import scheduler_backend
        backend = scheduler_backend("fds")
        ctx.schedule = backend.run_time_scheduler(
            ctx.graph, ctx.timing, ctx.initiation_rate,
            ctx.pipe_length, ctx.token, ctx.diag)


class ConnectPostSchedule:
    """Clique-partitioning connection synthesis after scheduling."""

    name = "post-connect"

    def run(self, ctx: FlowContext) -> None:
        connector = PostScheduleConnector(
            ctx.graph, ctx.schedule, partitioning=None,
            bidirectional=ctx.stats_extra.pop("_bidirectional"))
        ctx.interconnect, ctx.assignment = connector.run()


class MeasureResources:
    """Module usage is an output of the Chapter 5 flow, not an input."""

    name = "measure-resources"

    def run(self, ctx: FlowContext) -> None:
        ctx.table.set_modules(measured_resources(ctx.schedule))


class BuildScheduleFirstResult:
    """Assemble the Chapter 5 :class:`SynthesisResult`."""

    name = "build-result"

    def run(self, ctx: FlowContext) -> None:
        from repro.core.flow import SynthesisResult
        ctx.result = SynthesisResult(
            graph=ctx.graph,
            partitioning=ctx.partitioning,
            initiation_rate=ctx.initiation_rate,
            schedule=ctx.schedule,
            resources=ctx.table.modules,
            interconnect=ctx.interconnect,
            assignment=ctx.assignment,
            stats=normalized_stats(ctx.perf),
            diagnostics=ctx.diag,
        )


# ---------------------------------------------------------------------
# Verification passes
# ---------------------------------------------------------------------
def _checked(ctx: FlowContext):
    """The flow's one design-rule check, kept as ``result.check``."""
    # Imported here: repro.check is a layer above the flows.
    from repro.check.rules import check_result
    ctx.result.check = check_result(ctx.result)
    return ctx.result.check


class VerifyResult:
    """Check the result; any violation raises ``CheckError``."""

    name = "verify"

    def run(self, ctx: FlowContext) -> None:
        _checked(ctx).raise_if_violations(ctx.result)


#: The check pass's older name, which ``perfbench/ledger.py`` still
#: constructs.
CheckRules = VerifyResult


class VerifyTolerantPins:
    """Chapter 5 verification: the flow minimizes pins rather than
    respecting a fixed budget, so it declares its overruns in
    ``stats["budget_overruns"]`` and tolerates the pin-rule violations
    they cover; any other violation raises ``CheckError``."""

    name = "verify-tolerant"

    def run(self, ctx: FlowContext) -> None:
        from repro.check.report import CheckError
        from repro.check.rules import enforceable_violations
        result = ctx.result
        report = _checked(ctx)
        overruns = result.interconnect.check_budget(result.partitioning)
        result.stats["budget_overruns"] = overruns
        if overruns:
            ctx.diag.record("schedule_first", "pin_budget_overruns",
                            count=len(overruns))
        if enforceable_violations(result, report):
            raise CheckError(report, result)


class VerifyStrictOnFallback:
    """Degradation rungs and ``check=True`` runs (``strict_verify``)
    answer like the other flows: a schedule-first result must then pass
    every rule, pin budgets included, which the standalone Chapter 5
    flow merely reports on."""

    name = "verify-strict"

    def run(self, ctx: FlowContext) -> None:
        if ctx.strict_verify:
            ctx.result.check.raise_if_violations(ctx.result)
