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
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.cdfg.analysis import TimingSpec, topological_order, _EPS
from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import IO_KINDS
from repro.errors import SchedulingError
from repro.modules.allocation import ResourceVector
from repro.robustness.budget import as_token
from repro.scheduling.base import ResourcePool, Schedule
from repro.scheduling.constraints import recursive_deadline


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
    """A recursive max-time deadline was missed; carries diagnostics
    for :mod:`repro.scheduling.postpone`."""

    def __init__(self, message: str, failed_op: str, deadline: int,
                 partial: Schedule) -> None:
        super().__init__(message)
        self.failed_op = failed_op
        self.deadline = deadline
        self.partial = partial


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


class ListScheduler:
    """One-shot scheduler; construct, then call :meth:`run`."""

    def __init__(self,
                 graph: Cdfg,
                 timing: TimingSpec,
                 initiation_rate: int,
                 resources: ResourceVector,
                 io_hooks: Optional[IoHooks] = None,
                 max_steps: Optional[int] = None,
                 min_steps: Optional[Dict[str, int]] = None,
                 budget=None) -> None:
        self.graph = graph
        self.timing = timing
        self.L = initiation_rate
        self.resources = dict(resources)
        self.min_steps = dict(min_steps or {})
        self.hooks: IoHooks = io_hooks or NullIoHooks()
        self.max_steps = max_steps or self._default_max_steps()
        #: Cooperative cancellation token, ticked once per control step.
        self.budget = as_token(budget)
        self._priority = critical_path_ns(graph, timing)
        self._deadline = self._compute_deadlines()

    # ------------------------------------------------------------------
    def _default_max_steps(self) -> int:
        worst = 0
        for node in self.graph.nodes():
            worst += max(1, self.timing.cycles(node))
        return worst + 8 * self.L + 8

    def _compute_deadlines(self) -> Dict[str, float]:
        """Static deadlines from recursive max-time constraints.

        The loop-entry transfer of a recursive value has no forward
        predecessors and is scheduled near step 0, so anchoring it at
        its ASAP step gives the producer a deadline of
        ``asap(io) + d*L - c`` (Section 7.1); propagating deadlines
        backwards through the DAG makes the whole loop chain urgent.
        This is a *priority* heuristic — the hard checks stay in
        :meth:`_recursion_allows`.
        """
        from repro.cdfg.analysis import asap_schedule

        deadline: Dict[str, float] = {name: float("inf")
                                      for name in self.graph.node_names()}
        asap = asap_schedule(self.graph, self.timing)
        for edge in self.graph.recursive_edges():
            producer = edge.src
            consumer_io = edge.dst
            c_src = max(1, self.timing.cycles(self.graph.node(producer)))
            limit = asap[consumer_io] + edge.degree * self.L - c_src
            deadline[producer] = min(deadline[producer], float(limit))
        chain = self.timing.chaining_allowed()
        for name in reversed(topological_order(self.graph)):
            node = self.graph.node(name)
            for edge in self.graph.out_edges(name):
                if edge.is_recursive():
                    continue
                succ = self.graph.node(edge.dst)
                gap = 0 if (chain and self.timing.cycles(node) <= 1
                            and not self.timing.must_start_at_boundary(
                                succ)) \
                    else max(1, self.timing.cycles(node)) \
                    if not node.is_free() else 0
                candidate = deadline[edge.dst] - gap
                if candidate < deadline[name]:
                    deadline[name] = candidate
        return deadline

    def _effective_preds(self, name: str) -> Set[str]:
        """Non-free predecessors, reached through any free nodes.

        Free nodes (constants, split/merge) are never scheduled; an
        operation is released once all of these are placed.
        """
        out: Set[str] = set()
        for edge in self.graph.in_edges(name):
            if edge.is_recursive():
                continue
            if self.graph.node(edge.src).is_free():
                out |= self._effective_preds(edge.src)
            else:
                out.add(edge.src)
        return out

    def _candidate_step(self, name: str, schedule: Schedule) -> int:
        """First step worth trying: the data-ready step, raised to any
        caller-imposed ``min_steps`` (Sec 5.3)."""
        ready = self._data_ready_ns(name, schedule)
        step = int(math.floor(ready / self.timing.clock_period + _EPS))
        return max(step, self.min_steps.get(name, 0))

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        schedule = Schedule(self.graph, self.timing, self.L)
        pool = ResourcePool(self.resources, self.timing, self.L)

        remaining_by_type: Dict[Tuple[int, str], int] = {}
        for node in self.graph.functional_nodes():
            key = (node.partition, node.op_type)
            remaining_by_type[key] = remaining_by_type.get(key, 0) + 1

        pending: Set[str] = {n.name for n in self.graph.nodes()
                             if not n.is_free()}
        waiting = {name: self._effective_preds(name) for name in pending}
        users: Dict[str, List[str]] = {name: [] for name in pending}
        for name, preds in waiting.items():
            for pred in preds:
                users[pred].append(name)

        heap: List[Tuple[int, int, float, float, str]] = []

        def queue(name: str, step: int, round_: int) -> None:
            heapq.heappush(heap, (step, round_, self._deadline[name],
                                  -self._priority[name], name))

        for name, preds in waiting.items():
            if not preds:
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
                    if not self._try_place(self.graph.node(name), step,
                                           schedule, pool,
                                           remaining_by_type):
                        failed.append(name)
                        continue
                    pending.discard(name)
                    for user in users[name]:
                        waiting[user].discard(name)
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
        ready = 0.0
        for edge in self.graph.in_edges(name):
            if edge.is_recursive():
                continue
            src_node = self.graph.node(edge.src)
            if src_node.is_free():
                ready = max(ready, self._data_ready_ns(edge.src, schedule))
            else:
                ready = max(ready, schedule.finish_ns(edge.src))
        return ready

    # ------------------------------------------------------------------
    def _try_place(self, node: Node, step: int, schedule: Schedule,
                   pool: ResourcePool,
                   remaining_by_type: Dict[Tuple[int, str], int]) -> bool:
        period = self.timing.clock_period
        ready_ns = self._data_ready_ns(node.name, schedule)
        start_ns = self._start_in_step(node, step, ready_ns)
        if start_ns is None:
            return False

        # Recursive-edge checks (Section 7.1).
        if not self._recursion_allows(node, step, schedule):
            return False

        if node.kind in IO_KINDS:
            if not self._io_step_allowed(step):
                return False
            if not self.hooks.can_schedule(node, step, schedule):
                return False
            self.hooks.commit(node, step, schedule)
            schedule.place(node.name, step, start_ns)
            return True

        # Functional operation: units + allocation-wheel safety.
        cycles = max(1, self.timing.cycles(node))
        if not pool.can_place(node, step):
            return False
        key = (node.partition, node.op_type)
        if cycles > 1:
            if not self._wheel_safe(node, step, pool, remaining_by_type):
                return False
        pool.try_place(node, step)
        remaining_by_type[key] -= 1
        schedule.place(node.name, step, start_ns)
        return True

    def _io_step_allowed(self, step: int) -> bool:
        """Minor-clock gating for transfers (Section 2.2's two-clock
        scheme); timing models without the feature allow every step."""
        probe = getattr(self.timing, "io_step_allowed", None)
        return True if probe is None else probe(step)

    def _start_in_step(self, node: Node, step: int,
                       ready_ns: float) -> Optional[float]:
        """ns start placing ``node`` in ``step``, or None if impossible."""
        period = self.timing.clock_period
        boundary = step * period
        delay = self.timing.delay_ns(node)
        if self.timing.must_start_at_boundary(node) \
                or not self.timing.chaining_allowed():
            if ready_ns > boundary + _EPS:
                return None
            return boundary
        start = max(ready_ns, boundary)
        if start >= (step + 1) * period - _EPS:
            return None
        cycles = max(1, self.timing.cycles(node))
        if cycles > 1:
            # Multi-cycle ops are not chained (Section 7.4).
            if ready_ns > boundary + _EPS:
                return None
            return boundary
        if start + delay > (step + 1) * period + _EPS:
            return None  # would cross the latch boundary; wait a step
        return start

    def _recursion_allows(self, node: Node, step: int,
                          schedule: Schedule) -> bool:
        """Max-time constraints on producers/consumers of recursive edges."""
        # As a producer: must respect deadlines from scheduled consumers.
        deadline = recursive_deadline(self.graph, self.timing, self.L,
                                      node.name, schedule.start_step)
        if deadline is not None and step > deadline:
            return False
        # As a consumer: placing it at `step` gives every unscheduled
        # producer a deadline; refuse if a producer clearly cannot make
        # it (its data-ready step is already past the deadline).
        for edge in self.graph.recursive_edges():
            if edge.dst != node.name:
                continue
            producer = edge.src
            c_src = max(1, self.timing.cycles(self.graph.node(producer)))
            limit = step + edge.degree * self.L - c_src
            if schedule.is_scheduled(producer):
                if schedule.step(producer) > limit:
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
        """Fail fast when a pending producer already missed a deadline."""
        for name in pending:
            deadline = recursive_deadline(self.graph, self.timing, self.L,
                                          name, schedule.start_step)
            if deadline is not None and step >= deadline:
                # It had to be placed by `deadline`; the greedy choice
                # earlier made the schedule infeasible (Section 4.4.2
                # observes exactly this failure mode at tight rates).
                raise DeadlineMissed(
                    f"recursive max-time deadline missed for {name!r} "
                    f"(deadline step {deadline}, now past step {step})",
                    failed_op=name, deadline=deadline, partial=schedule)
