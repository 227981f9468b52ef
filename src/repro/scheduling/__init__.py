"""Schedulers for multi-chip pipelined designs.

All partitions are scheduled *together* (Sections 3.2 and 5.1): I/O
operations couple the chips because the output and input halves of every
transfer must land in the same control step.

* :mod:`repro.scheduling.list_scheduler` — resource-constrained list
  scheduling with pluggable I/O feasibility hooks (the pin-allocation
  checker of Chapter 3 or the bus-availability/reassignment logic of
  Chapter 4), chaining, multi-cycle allocation wheels and
  recursive-edge deadline checks.  One heap keyed by (step, round)
  drives it; it is the ``list`` backend of the simple and
  connection-first flows.
* :mod:`repro.scheduling.fds` — force-directed scheduling (Chapter 5)
  minimizing resource concurrency under a pipe-length constraint; the
  ``fds`` backend of the schedule-first flow.
"""

from repro.scheduling.base import Schedule, ResourcePool, measured_resources
from repro.scheduling.constraints import (
    AllocationWheel,
    recursive_edge_bounds,
)
from repro.scheduling.list_scheduler import (
    ListScheduler,
    IoHooks,
    NullIoHooks,
    DeadlineMissed,
)
from repro.scheduling.fds import ForceDirectedScheduler

__all__ = [
    "Schedule",
    "ResourcePool",
    "measured_resources",
    "AllocationWheel",
    "recursive_edge_bounds",
    "ListScheduler",
    "IoHooks",
    "NullIoHooks",
    "DeadlineMissed",
    "ForceDirectedScheduler",
]
