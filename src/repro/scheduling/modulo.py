"""Pipeline (modulo) scheduling against the fixed initiation rate.

The initiation rate ``L`` of a multi-chip pipeline *is* an initiation
interval: control steps fold into groups modulo ``L`` and operations
in the same group compete for hardware.  This backend treats
scheduling as classic modulo scheduling at ``II = L``:

1. **MII check** — the resource-minimum initiation interval
   ``max_type(ceil(ops * cycles / units))`` is computed from the
   module vector; if it exceeds ``L`` no schedule exists at this rate
   and the backend fails fast instead of burning the step budget.
2. **Modulo placement** — an iterative-modulo-scheduling pass places
   operations in height order into a modulo reservation table (the
   same :class:`repro.scheduling.base.ResourcePool` the other
   backends place against), scanning the ``L`` candidate offsets from
   each operation's earliest start and evicting lower-priority
   occupants when no offset is free, polyphony-style.  The placement
   loop escalates its lateness horizon on failure — the
   initiation-interval search of a classic modulo scheduler, mapped
   onto the only axis this problem leaves free (the pipe latency).
3. **Legalization** — the placement is handed to a
   :class:`repro.scheduling.list_scheduler.ListScheduler` as
   ``min_steps`` lower bounds, so chaining windows, recursion
   deadlines, allocation-wheel safety, and the I/O hooks (pin
   checker / bus allocator) are enforced by the proven machinery.  If
   the guided run fails — the modulo placement can be too aggressive
   once I/O feasibility enters — the backend retries unguided with
   fresh hooks and records the fallback on the diagnostics trail.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.cdfg.analysis import TimingSpec, topological_order
from repro.cdfg.graph import Cdfg
from repro.errors import SchedulingError
from repro.modules.allocation import ResourceVector
from repro.robustness.budget import as_token
from repro.scheduling.base import ResourcePool, Schedule, _pipelined
from repro.scheduling.list_scheduler import (ListScheduler,
                                             NullIoHooks,
                                             critical_path_ns)


def resource_mii(graph: Cdfg, timing: TimingSpec,
                 resources: ResourceVector) -> int:
    """Resource-minimum initiation interval of a design.

    For every (partition, op type): ``ceil(ops * cycles / units)``
    cycles of wheel capacity are needed per initiation (pipelined
    units count one cycle per op).  The largest such quotient bounds
    the rate from below; a schedule at ``L < MII`` cannot exist.
    """
    demand: Dict[Tuple[int, str], int] = {}
    for node in graph.functional_nodes():
        cycles = max(1, timing.cycles(node))
        if cycles > 1 and _pipelined(timing, node):
            cycles = 1
        key = (node.partition, node.op_type)
        demand[key] = demand.get(key, 0) + cycles
    mii = 1
    for key, need in demand.items():
        units = resources.get(key, 0)
        if units <= 0:
            raise SchedulingError(
                f"no functional units of type {key[1]!r} on "
                f"partition {key[0]}")
        mii = max(mii, math.ceil(need / units))
    return mii


class ModuloScheduler:
    """One-shot scheduler; construct, then call :meth:`run`.

    ``hooks_factory`` must return fresh :class:`IoHooks` on every
    call — the legalization retry consumes a second instance.  The
    default factory produces permissive hooks (no pin/bus gating).
    """

    #: Eviction budget multiplier of the IMS placement loop.
    PLACEMENT_BUDGET = 8
    #: Lateness-horizon escalations before giving up on guidance.
    MAX_ROUNDS = 3

    def __init__(self,
                 graph: Cdfg,
                 timing: TimingSpec,
                 initiation_rate: int,
                 resources: ResourceVector,
                 hooks_factory: Optional[Callable] = None,
                 budget=None,
                 diagnostics=None) -> None:
        self.graph = graph
        self.timing = timing
        self.L = initiation_rate
        self.resources = dict(resources)
        self.hooks_factory = hooks_factory or NullIoHooks
        self.budget = as_token(budget)
        self.diag = diagnostics
        self.mii = resource_mii(graph, timing, resources)

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        if self.mii > self.L:
            raise SchedulingError(
                f"initiation rate L={self.L} is below the resource "
                f"MII {self.mii}; no modulo schedule exists at this "
                f"rate")
        guide = self._modulo_place()
        if guide is not None:
            try:
                return ListScheduler(
                    self.graph, self.timing, self.L, self.resources,
                    io_hooks=self.hooks_factory(),
                    min_steps=guide, budget=self.budget).run()
            except SchedulingError:
                if self.diag is not None:
                    self.diag.record("modulo", "legalization_fallback",
                                     guided_ops=len(guide))
        elif self.diag is not None:
            self.diag.record("modulo", "placement_gave_up",
                             mii=self.mii, rate=self.L)
        # Unguided rung: plain list scheduling with fresh hooks keeps
        # the backend total on every design its siblings can solve.
        return ListScheduler(
            self.graph, self.timing, self.L, self.resources,
            io_hooks=self.hooks_factory(), budget=self.budget).run()

    # ------------------------------------------------------------------
    def _earliest_steps(self) -> Dict[str, int]:
        """ASAP start steps over the forward DAG (chain-agnostic, so
        a safe *guide* — the legalizer may only push later)."""
        est: Dict[str, int] = {}
        for name in topological_order(self.graph):
            node = self.graph.node(name)
            start = 0
            for edge in self.graph.in_edges(name):
                if edge.is_recursive():
                    continue
                src = self.graph.node(edge.src)
                gap = 0 if src.is_free() \
                    else max(1, self.timing.cycles(src))
                start = max(start, est[edge.src] + gap)
            est[name] = start
        return est

    # ------------------------------------------------------------------
    def _modulo_place(self) -> Optional[Dict[str, int]]:
        """IMS placement of the functional operations.

        Returns ``{op: step}`` lower bounds for the legalizer, or
        ``None`` when no horizon within :attr:`MAX_ROUNDS` escalations
        admits a full placement.  I/O operations are left unguided —
        their feasibility belongs to the hooks, which the modulo table
        cannot see.
        """
        est = self._earliest_steps()
        height = critical_path_ns(self.graph, self.timing)
        ops = [n for n in self.graph.functional_nodes()]
        if not ops:
            return {}
        span = max(est[n.name] for n in ops) + self.L
        for round_no in range(self.MAX_ROUNDS):
            horizon = span * (round_no + 1)
            placed = self._place_round(ops, est, height, horizon)
            if placed is not None:
                if self.diag is not None and round_no:
                    self.diag.record("modulo", "horizon_escalated",
                                     rounds=round_no + 1,
                                     horizon=horizon)
                return placed
        return None

    def _place_round(self, ops, est, height,
                     horizon: int) -> Optional[Dict[str, int]]:
        order = sorted(ops, key=lambda n: (-height[n.name],
                                           est[n.name], n.name))
        time: Dict[str, int] = {}
        worklist: List = list(order)
        iterations = 0
        budget = self.PLACEMENT_BUDGET * len(order) + 8
        while worklist:
            iterations += 1
            if iterations > budget:
                return None
            if self.budget is not None:
                self.budget.tick("list_scheduler")
            node = worklist.pop(0)
            lo = self._dynamic_estart(node, est, time)
            slot = self._free_slot(node, lo, time, horizon)
            if slot is None:
                # Evict the lowest-priority same-type occupants of the
                # target group and take the slot, polyphony-style.
                slot = lo
                victims = self._victims(node, slot, time, height)
                if victims is None:
                    return None
                for victim in victims:
                    del time[victim.name]
                    worklist.append(victim)
            if slot > horizon:
                return None
            time[node.name] = slot
        return time

    def _dynamic_estart(self, node, est, time) -> int:
        """Earliest start honoring already-placed predecessors."""
        lo = est[node.name]
        for edge in self.graph.in_edges(node.name):
            if edge.is_recursive():
                continue
            src = self.graph.node(edge.src)
            if src.is_free() or edge.src not in time:
                continue
            lo = max(lo, time[edge.src]
                     + max(1, self.timing.cycles(src)))
        return lo

    def _free_slot(self, node, lo: int, time,
                   horizon: int) -> Optional[int]:
        """First of the ``L`` candidate offsets with table capacity."""
        pool = self._rebuild_pool(time)
        for offset in range(self.L):
            step = lo + offset
            if step > horizon:
                break
            if pool.can_place(node, step):
                return step
        return None

    def _victims(self, node, step: int, time, height):
        """Same-type occupants of the target group, cheapest first;
        ``None`` when eviction cannot free the slot."""
        group = step % self.L
        key = (node.partition, node.op_type)
        occupants = [self.graph.node(name)
                     for name, s in time.items()
                     if s % self.L == group]
        occupants = [o for o in occupants
                     if (o.partition, o.op_type) == key
                     and height[o.name] <= height[node.name]]
        if not occupants:
            return None
        occupants.sort(key=lambda o: (height[o.name], o.name))
        return occupants[:1]

    def _rebuild_pool(self, time) -> ResourcePool:
        pool = ResourcePool(self.resources, self.timing, self.L)
        for name, step in sorted(time.items(),
                                 key=lambda kv: (kv[1], kv[0])):
            pool.try_place(self.graph.node(name), step)
        return pool
