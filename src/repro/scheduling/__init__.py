"""Schedulers for multi-chip pipelined designs.

All partitions are scheduled *together* (Sections 3.2 and 5.1): I/O
operations couple the chips because the output and input halves of every
transfer must land in the same control step.

* :mod:`repro.scheduling.list_scheduler` — resource-constrained list
  scheduling with pluggable I/O feasibility hooks (the pin-allocation
  checker of Chapter 3 or the bus-availability/reassignment logic of
  Chapter 4), chaining, multi-cycle allocation wheels and
  recursive-edge deadline checks.  One heap keyed by (step, round)
  drives it; the ``list``, ``postpone`` and ``modulo`` backends all
  run on it.
* :mod:`repro.scheduling.fds` — force-directed scheduling (Chapter 5)
  minimizing resource concurrency under a pipe-length constraint.
* :mod:`repro.scheduling.modulo` — pipeline/modulo scheduling at
  ``II = L`` with MII fail-fast and list-scheduler legalization (the
  ``modulo`` backend).
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
from repro.scheduling.postpone import schedule_with_postponement
from repro.scheduling.fds import ForceDirectedScheduler
from repro.scheduling.modulo import ModuloScheduler, resource_mii

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
    "schedule_with_postponement",
    "ForceDirectedScheduler",
    "ModuloScheduler",
    "resource_mii",
]
