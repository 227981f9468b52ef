"""Schedule representation and functional-resource tracking.

A :class:`Schedule` records, for every node, the control step in which
it starts and the exact nanosecond start within that step (for chained
operations).  Control steps fold into *groups* modulo the initiation
rate ``L``: operations in the same group execute overlapped across
pipeline instances and therefore compete for hardware (Section 2.3.1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.cdfg.analysis import TimingSpec, _EPS
from repro.cdfg.graph import Cdfg, Node
from repro.errors import CdfgError, SchedulingError
from repro.modules.allocation import ResourceVector
from repro.scheduling.constraints import AllocationWheel


class Schedule:
    """Start steps (and ns offsets) of every scheduled node."""

    def __init__(self, graph: Cdfg, timing: TimingSpec,
                 initiation_rate: int) -> None:
        if initiation_rate < 1:
            raise SchedulingError("initiation rate must be >= 1")
        self.graph = graph
        self.timing = timing
        self.initiation_rate = initiation_rate
        self.start_step: Dict[str, int] = {}
        self.start_ns: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def place(self, name: str, step: int,
              start_ns: Optional[float] = None) -> None:
        if name in self.start_step:
            raise SchedulingError(f"{name!r} is already scheduled")
        node = self.graph.node(name)
        period = self.timing.clock_period
        if start_ns is None:
            start_ns = step * period
        if int(math.floor(start_ns / period + _EPS)) != step:
            raise SchedulingError(
                f"{name!r}: ns start {start_ns} is not inside step {step}")
        self.start_step[name] = step
        self.start_ns[name] = start_ns

    def is_scheduled(self, name: str) -> bool:
        return name in self.start_step

    def step(self, name: str) -> int:
        try:
            return self.start_step[name]
        except KeyError:
            raise SchedulingError(f"{name!r} is not scheduled") from None

    def group(self, name: str) -> int:
        return self.step(name) % self.initiation_rate

    def finish_ns(self, name: str) -> float:
        delay = _delay(self._delays(), name)
        return self.start_ns[name] + delay

    def _delays(self) -> Dict[str, float]:
        """Every node's delay under this timing: one ``Cdfg.memo`` slot,
        keyed like :func:`repro.scheduling.list_scheduler.compile_design`
        (an equal timing hits)."""
        graph, timing = self.graph, self.timing
        return graph.memo("delays", timing, lambda: {
            node.name: timing.delay_ns(node) for node in graph.nodes()})

    def end_step(self, name: str) -> int:
        """Last control step occupied by the node."""
        node = self.graph.node(name)
        return self.step(name) + max(1, self.timing.cycles(node)) - 1

    # ------------------------------------------------------------------
    @property
    def pipe_length(self) -> int:
        """Number of control steps from the first start to the last finish.

        Negative steps (values prefetched from earlier instances, as in
        the elliptic-filter schedules of Section 4.4.2) extend the pipe
        backwards.
        """
        if not self.start_step:
            return 0
        period = self.timing.clock_period
        first = min(self.start_step.values())
        delays = self._delays()
        last = 0.0
        for name in self.start_step:
            delay = _delay(delays, name)
            last = max(last, self.start_ns[name] + delay)
        return int(math.ceil(last / period - _EPS)) - min(first, 0)

    def ops_in_group(self, group: int) -> List[str]:
        L = self.initiation_rate
        return sorted(n for n, s in self.start_step.items()
                      if s % L == group)

    # ------------------------------------------------------------------
    def verify(self,
               resources: Optional[ResourceVector] = None) -> List[str]:
        """Schedule-rule messages of :mod:`repro.check.rules` ([] = valid)."""
        from repro.check.rules import schedule_violations
        return [v.message for v in schedule_violations(self, resources)]


class ResourcePool:
    """Functional-unit occupancy per (partition, op type).

    Single-cycle (or pipelined) units are counted per control-step
    group; non-pipelined multi-cycle units each carry an
    :class:`AllocationWheel` (Section 7.4) and an operation needs a unit
    whose wheel has the required contiguous free cells.
    """

    def __init__(self, resources: ResourceVector, timing: TimingSpec,
                 initiation_rate: int) -> None:
        self.resources = dict(resources)
        self.timing = timing
        self.L = initiation_rate
        self._counts: Dict[Tuple[int, str, int], int] = {}
        self._wheels: Dict[Tuple[int, str], List[AllocationWheel]] = {}

    def _units(self, partition: int, op_type: str) -> int:
        return self.resources.get((partition, op_type), 0)

    def _is_multicycle(self, node: Node) -> bool:
        return (self.timing.cycles(node) > 1
                and not _pipelined(self.timing, node))

    def can_place(self, node: Node, step: int) -> bool:
        return self._place(node, step, commit=False)

    def try_place(self, node: Node, step: int) -> bool:
        return self._place(node, step, commit=True)

    def _place(self, node: Node, step: int, commit: bool) -> bool:
        units = self._units(node.partition, node.op_type)
        if units <= 0:
            return False
        cycles = max(1, self.timing.cycles(node))
        if self._is_multicycle(node):
            key = (node.partition, node.op_type)
            wheels = self._wheels.setdefault(
                key, [AllocationWheel(self.L) for _ in range(units)])
            for wheel in wheels:
                if wheel.fits(step, cycles):
                    if commit:
                        wheel.occupy(step, cycles)
                    return True
            return False
        group = step % self.L
        key3 = (node.partition, node.op_type, group)
        if self._counts.get(key3, 0) >= units:
            return False
        if commit:
            self._counts[key3] = self._counts.get(key3, 0) + 1
        return True

    def capacity_after_place(self, node: Node, step: int) -> Optional[int]:
        """Wheel capacity left if ``node`` were placed at ``step``.

        Returns ``None`` when the operation does not fit any unit's
        wheel at that step.  Used by the Section 7.4 safety check
        without mutating the pool.
        """
        units = self._units(node.partition, node.op_type)
        if units <= 0:
            return None
        cycles = max(1, self.timing.cycles(node))
        key = (node.partition, node.op_type)
        wheels = self._wheels.setdefault(
            key, [AllocationWheel(self.L) for _ in range(units)])
        for wheel in wheels:
            if wheel.fits(step, cycles):
                wheel.occupy(step, cycles)
                capacity = sum(w.capacity(cycles) for w in wheels)
                wheel.release(step, cycles)
                return capacity
        return None


def measured_resources(schedule: Schedule) -> ResourceVector:
    """Functional units a schedule actually needs, per partition/type.

    Single-cycle (and pipelined) units: the maximum concurrency over
    control-step groups.  Non-pipelined multi-cycle units: first-fit
    packing of the allocation wheels (Section 7.4), reporting the number
    of wheels opened.
    """
    graph = schedule.graph
    timing = schedule.timing
    L = schedule.initiation_rate
    single: Dict[Tuple[int, str, int], int] = {}
    wheels: Dict[Tuple[int, str], List[AllocationWheel]] = {}
    usage: ResourceVector = {}

    order = sorted((n for n in graph.functional_nodes()
                    if schedule.is_scheduled(n.name)),
                   key=lambda n: (schedule.step(n.name), n.name))
    for node in order:
        step = schedule.step(node.name)
        cycles = max(1, timing.cycles(node))
        key = (node.partition, node.op_type)
        if cycles > 1 and not _pipelined(timing, node):
            bank = wheels.setdefault(key, [])
            for wheel in bank:
                if wheel.fits(step, cycles):
                    wheel.occupy(step, cycles)
                    break
            else:
                wheel = AllocationWheel(L)
                wheel.occupy(step, cycles)
                bank.append(wheel)
            usage[key] = len(bank)
        else:
            group_key = (node.partition, node.op_type, step % L)
            single[group_key] = single.get(group_key, 0) + 1
            usage[key] = max(usage.get(key, 0), single[group_key])
    return usage


def _delay(delays: Dict[str, float], name: str) -> float:
    try:
        return delays[name]
    except KeyError:
        raise CdfgError(f"unknown node {name!r}") from None


def _pipelined(timing: TimingSpec, node: Node) -> bool:
    probe = getattr(timing, "is_pipelined_unit", None)
    if probe is None:
        return False
    return probe(node)
