"""Resource-constrained pipelined list scheduling (Figure 3.4).

Ready operations are prioritized by criticality (longest path to a sink)
and placed step by step.  Before each I/O operation is placed the
pluggable :class:`IoHooks` decide whether the placement keeps the design
realizable — the Chapter 3 flow plugs in the ILP pin-allocation
feasibility checker, the Chapter 4 flow plugs in communication-bus
availability with dynamic reassignment.  If the hook says no, the I/O
operation is postponed to a later control step, exactly as in the
dissertation's flow chart.

The ready list is one heap keyed ``(step, round, deadline,
-criticality, name)``.  An operation enters it when its last
(non-recursive) predecessor is placed, at its data-ready step.  A
control step runs in *rounds* because a chained placement can make
more operations ready in the same step: round 0 of step *s* holds the
operations that were ready when *s* opened, an operation released by a
placement in round *r* joins round *r* + 1 (or round 0 of its later
data-ready step), and the operations a round could not place are
retried in the next round if that round placed anything, else in
round 0 of *s* + 1.  Within a round the earliest recursive deadline
goes first, then the most critical operation.  Steps are visited in
order, which is what the stateful hooks rely on for their commits.

Multi-cycle operations pass the allocation-wheel *safety check* of
Section 7.4: a tentative placement is undone (postponed) if the
fragmentation it causes leaves too little wheel capacity for the
remaining operations of that type.

The engine reads the design's budget-independent facts from a
:class:`CompiledDesign`, memoized on the graph, so a pin-budget sweep
compiles it once.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.cdfg.analysis import (TimingSpec, asap_schedule,
                                 topological_order, _EPS)
from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import IO_KINDS
from repro.errors import SchedulingError
from repro.modules.allocation import ResourceVector
from repro.robustness.budget import as_token
from repro.scheduling.base import ResourcePool, Schedule
from repro.scheduling.constraints import recursive_edge_bounds


class IoHooks(Protocol):
    """Feasibility gate for scheduling I/O operations."""

    def can_schedule(self, node: Node, step: int,
                     schedule: Schedule) -> bool:
        """Whether placing the I/O op in ``step`` keeps the design valid."""

    def commit(self, node: Node, step: int, schedule: Schedule) -> None:
        """Record the placement (called right before Schedule.place)."""


class NullIoHooks:
    """Hooks that accept everything (no pin/bus constraints)."""

    def can_schedule(self, node: Node, step: int,
                     schedule: Schedule) -> bool:
        return True

    def commit(self, node: Node, step: int, schedule: Schedule) -> None:
        return None


class DeadlineMissed(SchedulingError):
    """A recursive max-time deadline was missed; ``failed_op`` names
    the producer that missed it."""

    def __init__(self, message: str, failed_op: str) -> None:
        super().__init__(message)
        self.failed_op = failed_op


def critical_path_ns(graph: Cdfg, timing: TimingSpec) -> Dict[str, float]:
    """Longest ns path from each node to any sink (its criticality)."""
    height: Dict[str, float] = {}
    for name in reversed(topological_order(graph)):
        below = 0.0
        for edge in graph.out_edges(name):
            if not edge.is_recursive():
                below = max(below, height[edge.dst])
        height[name] = below + timing.delay_ns(graph.node(name))
    return height


class CompiledDesign:
    """The budget-independent scheduling facts of one (graph, timing,
    rate), read by every :class:`ListScheduler` on it (DESIGN §13):
    per-op delay, steps and chaining/I-O flags, effective predecessors
    (through free nodes) and users, recursive edges as ``(other end,
    slack)`` per consumer and producer, type counts, recursion
    deadlines, priorities and the default step cap."""

    def __init__(self, graph: Cdfg, timing: TimingSpec,
                 initiation_rate: int) -> None:
        chain = timing.chaining_allowed()
        nodes = list(graph.nodes())
        self.ops: Tuple[str, ...] = tuple(n.name for n in nodes
                                          if not n.is_free())
        self.cycles: Dict[str, int] = {n.name: max(1, timing.cycles(n))
                                       for n in nodes}
        self.delay: Dict[str, float] = {
            name: timing.delay_ns(graph.node(name)) for name in self.ops}
        self.at_boundary: Dict[str, bool] = {
            name: (timing.must_start_at_boundary(graph.node(name))
                   or not chain or self.cycles[name] > 1)
            for name in self.ops}
        self.io = frozenset(n.name for n in nodes if n.kind in IO_KINDS)

        def effective(name: str) -> Set[str]:
            out: Set[str] = set()
            for edge in graph.in_edges(name):
                if edge.is_recursive():
                    continue
                if graph.node(edge.src).is_free():
                    out |= effective(edge.src)
                else:
                    out.add(edge.src)
            return out

        self.preds: Dict[str, Tuple[str, ...]] = {
            name: tuple(sorted(effective(name))) for name in self.ops}
        self.users: Dict[str, List[str]] = {name: [] for name in self.ops}
        for user in self.ops:
            for pred in self.preds[user]:
                self.users[pred].append(user)

        self.rec_in: Dict[str, List[Tuple[str, int]]] = {}
        self.rec_out: Dict[str, List[Tuple[str, int]]] = {}
        for producer, consumer, slack in recursive_edge_bounds(
                graph, timing, initiation_rate):
            self.rec_in.setdefault(consumer, []).append((producer, slack))
            self.rec_out.setdefault(producer, []).append((consumer, slack))

        self.type_counts = Counter((node.partition, node.op_type)
                                   for node in graph.functional_nodes())

        self.priority = critical_path_ns(graph, timing)
        self.deadline = self._deadlines(graph, timing, initiation_rate)
        self.max_steps = (sum(self.cycles.values())
                          + 8 * initiation_rate + 8)

    def recursive_deadline(self, name: str,
                           steps: Dict[str, int]) -> Optional[int]:
        """Latest start step of producer ``name`` imposed by its
        recursive consumers placed in ``steps``, or None."""
        limits = [steps[consumer] + slack
                  for consumer, slack in self.rec_out.get(name, ())
                  if consumer in steps]
        return min(limits) if limits else None

    def _deadlines(self, graph: Cdfg, timing: TimingSpec,
                   initiation_rate: int) -> Dict[str, float]:
        """Static deadlines from recursive max-time constraints.

        The loop-entry transfer of a recursive value has no forward
        predecessors and is scheduled near step 0, so anchoring it at
        its ASAP step gives the producer a deadline of
        ``asap(io) + d*L - c`` (Section 7.1); propagating deadlines
        backwards through the DAG makes the whole loop chain urgent.
        This is a *priority* heuristic — the hard checks stay in
        :meth:`ListScheduler._recursion_allows`.
        """
        deadline: Dict[str, float] = {name: float("inf")
                                      for name in graph.node_names()}
        asap = asap_schedule(graph, timing)
        for producer, outs in self.rec_out.items():
            for consumer_io, slack in outs:
                deadline[producer] = min(deadline[producer],
                                         float(asap[consumer_io] + slack))
        chain = timing.chaining_allowed()
        for name in reversed(topological_order(graph)):
            node = graph.node(name)
            for edge in graph.out_edges(name):
                if edge.is_recursive():
                    continue
                succ = graph.node(edge.dst)
                gap = 0 if (chain and timing.cycles(node) <= 1
                            and not timing.must_start_at_boundary(succ)) \
                    else self.cycles[name] if not node.is_free() else 0
                candidate = deadline[edge.dst] - gap
                if candidate < deadline[name]:
                    deadline[name] = candidate
        return deadline


def compile_design(graph: Cdfg, timing: TimingSpec,
                   initiation_rate: int) -> CompiledDesign:
    """The graph's :class:`CompiledDesign`, memoized in one slot: a hit
    needs the same rate and an equal timing (identity for timings
    without value equality); any graph mutation drops it."""
    return graph.memo("compiled", (initiation_rate, timing),
                      lambda: CompiledDesign(graph, timing,
                                             initiation_rate))


class ListScheduler:
    """One-shot scheduler; construct, then call :meth:`run`."""

    def __init__(self,
                 graph: Cdfg,
                 timing: TimingSpec,
                 initiation_rate: int,
                 resources: ResourceVector,
                 io_hooks: Optional[IoHooks] = None,
                 max_steps: Optional[int] = None,
                 budget=None) -> None:
        self.graph = graph
        self.timing = timing
        self.L = initiation_rate
        self.resources = dict(resources)
        self.hooks: IoHooks = io_hooks or NullIoHooks()
        self.design = compile_design(graph, timing, initiation_rate)
        self.max_steps = max_steps or self.design.max_steps
        #: Cooperative cancellation token, ticked once per control step.
        self.budget = as_token(budget)

    # ------------------------------------------------------------------
    def _candidate_step(self, name: str, schedule: Schedule) -> int:
        """First step worth trying: the data-ready step."""
        ready = self._data_ready_ns(name, schedule)
        return int(math.floor(ready / self.timing.clock_period + _EPS))

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        design = self.design
        schedule = Schedule(self.graph, self.timing, self.L)
        pool = ResourcePool(self.resources, self.timing, self.L)
        remaining_by_type = dict(design.type_counts)
        pending: Set[str] = set(design.ops)
        waiting = {name: len(preds) for name, preds in design.preds.items()}
        deadline, priority = design.deadline, design.priority

        heap: List[Tuple[int, int, float, float, str]] = []

        def queue(name: str, step: int, round_: int) -> None:
            heapq.heappush(heap, (step, round_, deadline[name],
                                  -priority[name], name))

        for name in design.ops:
            if not waiting[name]:
                queue(name, self._candidate_step(name, schedule), 0)

        total_ops = len(pending)
        step = 0
        while pending:
            if self.budget is not None:
                self.budget.note_incumbent(
                    solver="list_scheduler", step=step,
                    scheduled=total_ops - len(pending),
                    total=total_ops)
                self.budget.tick("list_scheduler")
            if step > self.max_steps:
                raise SchedulingError(
                    f"could not schedule within {self.max_steps} steps; "
                    f"{len(pending)} operations left "
                    f"(e.g. {sorted(pending)[:4]})")
            while heap and heap[0][0] == step:
                round_ = heap[0][1]
                batch: List[str] = []
                while heap and heap[0][:2] == (step, round_):
                    batch.append(heapq.heappop(heap)[-1])
                failed: List[str] = []
                for name in batch:
                    if not self._try_place(name, step, schedule, pool,
                                           remaining_by_type):
                        failed.append(name)
                        continue
                    pending.discard(name)
                    for user in design.users[name]:
                        waiting[user] -= 1
                        if not waiting[user]:
                            ready = self._candidate_step(user, schedule)
                            if ready > step:
                                queue(user, ready, 0)
                            else:
                                queue(user, step, round_ + 1)
                # A round that placed nothing ends the step.
                retry = (step, round_ + 1) if len(failed) < len(batch) \
                    else (step + 1, 0)
                for name in failed:
                    queue(name, *retry)
            self._check_recursive_deadlines(pending, schedule, step)
            step += 1
        return schedule

    # ------------------------------------------------------------------
    def _data_ready_ns(self, name: str, schedule: Schedule) -> float:
        """When the last effective predecessor's result is available."""
        start, delay = schedule.start_ns, self.design.delay
        ready = 0.0
        for pred in self.design.preds[name]:
            finish = start[pred] + delay[pred]
            if finish > ready:
                ready = finish
        return ready

    # ------------------------------------------------------------------
    def _try_place(self, name: str, step: int, schedule: Schedule,
                   pool: ResourcePool,
                   remaining_by_type: Dict[Tuple[int, str], int]) -> bool:
        ready_ns = self._data_ready_ns(name, schedule)
        start_ns = self._start_in_step(name, step, ready_ns)
        if start_ns is None:
            return False

        # Recursive-edge checks (Section 7.1).
        if not self._recursion_allows(name, step, schedule):
            return False

        node = self.graph.node(name)
        if name in self.design.io:
            if not self._io_step_allowed(step):
                return False
            if not self.hooks.can_schedule(node, step, schedule):
                return False
            self.hooks.commit(node, step, schedule)
            schedule.place(name, step, start_ns)
            return True

        # Functional operation: units + allocation-wheel safety.
        if not pool.can_place(node, step):
            return False
        key = (node.partition, node.op_type)
        if self.design.cycles[name] > 1:
            if not self._wheel_safe(node, step, pool, remaining_by_type):
                return False
        pool.try_place(node, step)
        remaining_by_type[key] -= 1
        schedule.place(name, step, start_ns)
        return True

    def _io_step_allowed(self, step: int) -> bool:
        """Minor-clock gating for transfers (Section 2.2's two-clock
        scheme); timing models without the feature allow every step."""
        probe = getattr(self.timing, "io_step_allowed", None)
        return True if probe is None else probe(step)

    def _start_in_step(self, name: str, step: int,
                       ready_ns: float) -> Optional[float]:
        """ns start placing ``name`` in ``step``, or None if impossible."""
        period = self.timing.clock_period
        boundary = step * period
        if self.design.at_boundary[name]:
            # Multi-cycle ops are not chained either (Section 7.4).
            if ready_ns > boundary + _EPS:
                return None
            return boundary
        start = max(ready_ns, boundary)
        if start >= (step + 1) * period - _EPS:
            return None
        if start + self.design.delay[name] > (step + 1) * period + _EPS:
            return None  # would cross the latch boundary; wait a step
        return start

    def _recursion_allows(self, name: str, step: int,
                          schedule: Schedule) -> bool:
        """Max-time constraints on producers/consumers of recursive edges."""
        # As a producer: must respect deadlines from scheduled consumers.
        steps = schedule.start_step
        deadline = self.design.recursive_deadline(name, steps)
        if deadline is not None and step > deadline:
            return False
        # As a consumer: placing it at `step` gives every unscheduled
        # producer a deadline; refuse if a producer clearly cannot make
        # it (its data-ready step is already past the deadline).
        for producer, slack in self.design.rec_in.get(name, ()):
            limit = step + slack
            if producer in steps:
                if steps[producer] > limit:
                    return False
            else:
                earliest = self._earliest_step(producer, schedule)
                if earliest is not None and earliest > limit:
                    return False
        return True

    def _earliest_step(self, name: str,
                       schedule: Schedule) -> Optional[int]:
        """Crude earliest start from *scheduled* predecessors only."""
        period = self.timing.clock_period
        ready = 0.0
        for edge in self.graph.in_edges(name):
            if edge.is_recursive():
                continue
            if schedule.is_scheduled(edge.src):
                ready = max(ready, schedule.finish_ns(edge.src))
        return int(math.floor(ready / period + _EPS))

    def _wheel_safe(self, node: Node, step: int, pool: ResourcePool,
                    remaining_by_type: Dict[Tuple[int, str], int]) -> bool:
        """Fragmentation safety check for multi-cycle units (Section 7.4)."""
        key = (node.partition, node.op_type)
        capacity = pool.capacity_after_place(node, step)
        if capacity is None:
            return False
        still_needed = remaining_by_type[key] - 1
        return capacity >= still_needed

    def _check_recursive_deadlines(self, pending: Set[str],
                                   schedule: Schedule, step: int) -> None:
        """Fail fast when a pending producer already missed a deadline.

        Of several missed producers the one with the smallest
        ``(deadline, name)`` is named, so the error does not depend on
        set iteration order.
        """
        design, missed = self.design, []
        for name in design.rec_out:
            if name in pending:
                deadline = design.recursive_deadline(name,
                                                     schedule.start_step)
                if deadline is not None and step >= deadline:
                    missed.append((deadline, name))
        if missed:
            # It had to be placed by `deadline`; the greedy choice
            # earlier made the schedule infeasible (Section 4.4.2
            # observes exactly this failure mode at tight rates).
            deadline, name = min(missed)
            raise DeadlineMissed(
                f"recursive max-time deadline missed for {name!r} "
                f"(deadline step {deadline}, now past step {step})",
                failed_op=name)
