"""The typed state every pass consumes and produces.

A :class:`FlowContext` is created once per flow invocation by
:func:`repro.pipeline.registry.run_flow` and threaded through the
flow's pass list.  Inputs (graph, partitioning, timing, rate, options,
budget token, diagnostics, warm-start basis) are filled by the caller;
products (resource table, interconnect, schedule, assignment, the
finished :class:`repro.core.flow.SynthesisResult`) are filled by
passes as they run.  A pass communicates with its successors only
through the context — that is what makes the pass lists declarative
and lets backends plug in without touching the flow code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.perf import PerfRegistry
from repro.pipeline.resource_table import ResourceTable

#: PERF counters reported under the same stats key by ALL flows,
#: so callers can diff effort across flows without key juggling.
STAT_COUNTERS = {
    "pin_checks": "pin.checks",
    "pin_cache_hits": "pin.cache_hits",
    "pin_cache_misses": "pin.cache_misses",
    "pin_store_hits": "pin.store_hits",
    "tableau_pivots": "tableau.pivots",
    "gomory_cuts": "gomory.cuts",
    "simplex_solves": "simplex.solves",
    "bnb_nodes": "bnb.nodes",
    "search_steps": "search.steps",
    "reassignments": "bus.reassignments",
}


def normalized_stats(perf: PerfRegistry, **extra) -> Dict[str, float]:
    """The cross-flow stats contract: the flow's counters + extras.

    Every flow reports the solver-effort counters of its ``PERF`` scope
    (zero when a solver was not exercised) — including
    ``search_steps``/``reassignments``, which the chapter-4/5 engines
    tick as PERF counters — so the key set is identical across flows;
    flow-specific extras ride along.
    """
    counters = perf.snapshot()["counters"]
    stats: Dict[str, float] = {
        key: counters.get(counter, 0)
        for key, counter in STAT_COUNTERS.items()
    }
    stats.update(extra)
    return stats


@dataclass
class FlowContext:
    """Everything one flow invocation reads and produces.

    ``options`` is a :class:`repro.core.flow.SynthesisOptions`;
    ``token`` a started :class:`repro.robustness.budget.BudgetToken`
    (or ``None``); ``diag`` the run's diagnostics trail.  The
    remaining fields are pass products, ``None`` until the producing
    pass has run.
    """

    # --- inputs -------------------------------------------------------
    graph: Any
    partitioning: Any
    timing: Any
    initiation_rate: int
    options: Any
    token: Any = None
    diag: Any = None
    warm_basis: Any = None
    #: Set for ``synthesize(check=True)`` and by the dispatcher's
    #: degradation chain: a schedule-first result must then verify
    #: strictly (pin budgets included) before it may answer.
    strict_verify: bool = False

    # --- pass products ------------------------------------------------
    table: Optional[ResourceTable] = None
    share_groups: Any = None
    pipe_length: Optional[int] = None
    interconnect: Any = None
    initial: Any = None          # initial BusAssignment from the search
    checker: Any = None          # PinAllocationChecker (simple flow)
    warm_export: Any = None      # PinWarmStart for the next solve
    allocator: Any = None        # BusAllocator (connection-first flow)
    schedule: Any = None
    assignment: Any = None
    simple_allocation: Any = None
    stats_extra: Dict[str, Any] = field(default_factory=dict)
    perf: Any = None             # the flow's scope of PERF (run_flow)
    result: Any = None           # the finished SynthesisResult

    # ------------------------------------------------------------------
    @property
    def resources(self):
        """The run's module vector (via the resource table)."""
        return self.table.modules if self.table is not None else None
