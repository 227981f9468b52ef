"""Iterative rescheduling with operation postponement.

The dissertation repeatedly notes that its greedy list schedules
improve "by postponing some of the operations as we have done here by
constraining some of the operations and rerun[ning] the program"
(Sections 5.3, 6.3), and names replacing plain list scheduling with a
more advanced technique as future work (Section 8.2).  This module
automates that manual loop:

* :class:`ListScheduler` already accepts ``min_steps`` constraints
  (the "constraining some of the operations" device);
* :func:`schedule_with_postponement` runs rounds of list scheduling;
  when a round dies on a recursive-loop deadline, the operations that
  greedily grabbed resources inside the failing window — ready early,
  no deadline of their own — get pushed behind the loop's traffic and
  the schedule is retried.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cdfg.analysis import TimingSpec
from repro.cdfg.graph import Cdfg
from repro.errors import SchedulingError
from repro.modules.allocation import ResourceVector
from repro.scheduling.base import Schedule
from repro.scheduling.list_scheduler import (DeadlineMissed, IoHooks,
                                             ListScheduler)


def _competitors(graph: Cdfg, scheduler: ListScheduler,
                 partial: Schedule, failed_op: str,
                 deadline: int) -> List[str]:
    """Operations to blame for a missed loop deadline.

    Blame operations that (a) were scheduled inside the failing window,
    (b) have no deadline of their own (infinite slack), and (c) compete
    for the same scarce things as the loop — the same functional-unit
    class or any communication bus.
    """
    failed = graph.node(failed_op)
    blamed: List[Tuple[int, str]] = []
    for name, step in partial.start_step.items():
        if step > deadline:
            continue
        if scheduler.design.deadline[name] != float("inf"):
            continue  # loop members are victims, not culprits
        node = graph.node(name)
        same_unit = (node.is_functional() and failed.is_functional()
                     and node.partition == failed.partition
                     and node.op_type == failed.op_type)
        is_transfer = node.is_io()
        if same_unit or is_transfer:
            blamed.append((step, name))
    blamed.sort()
    return [name for _step, name in blamed]


def schedule_with_postponement(
        graph: Cdfg,
        timing: TimingSpec,
        initiation_rate: int,
        resources: ResourceVector,
        hooks_factory: Callable[[], Optional[IoHooks]] = lambda: None,
        max_rounds: int = 6,
        push: int = 1,
        budget=None) -> Schedule:
    """Run list scheduling, postponing greedy ops after each failure.

    ``hooks_factory`` must build a *fresh* IoHooks per round (bus
    allocators and pin checkers are stateful).  Raises the final
    round's :class:`SchedulingError` if no round succeeds.  ``budget``
    is handed to each round's :class:`ListScheduler`; the control-step
    counter accumulates across rounds (one shared token).
    """
    min_steps: Dict[str, int] = {}
    last_error: Optional[SchedulingError] = None
    for round_index in range(max_rounds):
        scheduler = ListScheduler(graph, timing, initiation_rate,
                                  resources,
                                  io_hooks=hooks_factory(),
                                  min_steps=dict(min_steps),
                                  budget=budget)
        try:
            return scheduler.run()
        except DeadlineMissed as exc:
            last_error = exc
            culprits = _competitors(graph, scheduler, exc.partial,
                                    exc.failed_op, exc.deadline)
            if not culprits:
                raise
            progressed = False
            for name in culprits:
                was = exc.partial.step(name)
                target = was + push + round_index
                if min_steps.get(name, 0) < target:
                    min_steps[name] = target
                    progressed = True
            if not progressed:
                raise
        except SchedulingError as exc:
            last_error = exc
            raise
    assert last_error is not None
    raise last_error
