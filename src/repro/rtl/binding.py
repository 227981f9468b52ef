"""Functional-unit binding and pipelined register allocation.

Binding happens *after* scheduling (the classical ordering the thesis
assumes, Chapter 1).  Operations in the same control-step group overlap
across pipeline instances and must take different units; non-pipelined
multi-cycle units follow their allocation wheels (Section 7.4).

Register allocation works on *modular* lifetimes: a value born at step
``b`` and dead at step ``d`` occupies its register during steps
``b..d-1`` of every instance; instances repeat every ``L`` steps, so
the occupied cells are ``{t mod L}``.  A value whose span reaches ``L``
is alive in every cell simultaneously for ``ceil(span / L)`` concurrent
instances and receives that many dedicated registers; shorter values
pack into shared registers first-fit (the left-edge idea on circular
intervals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cdfg.graph import Cdfg
from repro.cdfg.ops import OpKind
from repro.scheduling.base import Schedule, _pipelined
from repro.scheduling.constraints import AllocationWheel

#: unit id: (partition, op_type, instance index)
UnitId = Tuple[int, str, int]
#: register id: (partition, index)
RegId = Tuple[int, int]


@dataclass
class FuBinding:
    """op name -> unit, plus per-unit occupancy for reporting."""

    unit_of: Dict[str, UnitId] = field(default_factory=dict)

    def units(self) -> List[UnitId]:
        return sorted(set(self.unit_of.values()))

    def unit_counts(self) -> Dict[Tuple[int, str], int]:
        counts: Dict[Tuple[int, str], int] = {}
        for partition, op_type, index in self.units():
            key = (partition, op_type)
            counts[key] = max(counts.get(key, 0), index + 1)
        return counts


def bind_functional_units(schedule: Schedule) -> FuBinding:
    """First-fit binding consistent with the schedule's overlap."""
    graph = schedule.graph
    timing = schedule.timing
    L = schedule.initiation_rate
    binding = FuBinding()
    wheels: Dict[Tuple[int, str], List[AllocationWheel]] = {}
    group_use: Dict[Tuple[int, str], List[Set[int]]] = {}

    order = sorted((n for n in graph.functional_nodes()
                    if schedule.is_scheduled(n.name)),
                   key=lambda n: (schedule.step(n.name), n.name))
    for node in order:
        step = schedule.step(node.name)
        cycles = max(1, timing.cycles(node))
        key = (node.partition, node.op_type)
        if cycles > 1 and not _pipelined(timing, node):
            bank = wheels.setdefault(key, [])
            for index, wheel in enumerate(bank):
                if wheel.fits(step, cycles):
                    wheel.occupy(step, cycles)
                    binding.unit_of[node.name] = (*key, index)
                    break
            else:
                wheel = AllocationWheel(L)
                wheel.occupy(step, cycles)
                bank.append(wheel)
                binding.unit_of[node.name] = (*key, len(bank) - 1)
        else:
            bank2 = group_use.setdefault(key, [])
            group = step % L
            for index, used in enumerate(bank2):
                if group not in used:
                    used.add(group)
                    binding.unit_of[node.name] = (*key, index)
                    break
            else:
                bank2.append({group})
                binding.unit_of[node.name] = (*key, len(bank2) - 1)
    return binding


# ---------------------------------------------------------------------
@dataclass
class ValueLifetime:
    """One storage requirement inside a chip."""

    producer: str          # node whose result is stored
    partition: int
    bit_width: int
    birth: int             # first step the register holds the value
    death: int             # first step it is no longer needed

    @property
    def span(self) -> int:
        return max(1, self.death - self.birth)


@dataclass
class RegisterAllocation:
    """producer name -> registers, plus per-chip register counts."""

    regs_of: Dict[str, List[RegId]] = field(default_factory=dict)
    widths: Dict[RegId, int] = field(default_factory=dict)
    lifetimes: Dict[str, ValueLifetime] = field(default_factory=dict)

    def count(self, partition: int) -> int:
        return sum(1 for (p, _i) in self.widths if p == partition)

    def total_bits(self, partition: int) -> int:
        return sum(w for (p, _i), w in self.widths.items()
                   if p == partition)


def _value_lifetimes(graph: Cdfg, schedule: Schedule) -> List[ValueLifetime]:
    """Storage needs per chip: computed results and latched inputs."""
    L = schedule.initiation_rate
    timing = schedule.timing
    out: List[ValueLifetime] = []
    for node in graph.nodes():
        if not schedule.is_scheduled(node.name):
            continue
        if node.kind is OpKind.FUNCTIONAL:
            partition = node.partition
        elif node.kind is OpKind.IO:
            # The destination chip latches the incoming value once
            # (Section 2.2.1); partition 0 is the outside world.
            partition = node.dest_partition
            if partition == 0:
                continue
        else:
            continue
        birth = schedule.end_step(node.name) + 1 \
            if node.kind is OpKind.FUNCTIONAL \
            else schedule.step(node.name) + 1
        death = birth
        for edge in graph.out_edges(node.name):
            consumer = edge.dst
            if not schedule.is_scheduled(consumer):
                continue
            consumer_node = graph.node(consumer)
            if node.kind is OpKind.FUNCTIONAL \
                    and consumer_node.kind is OpKind.IO \
                    and consumer_node.source_partition != partition:
                continue
            use = schedule.step(consumer) + edge.degree * L
            death = max(death, use + 1)
        if death <= birth:
            continue  # consumed by chaining only; no register needed
        out.append(ValueLifetime(node.name, partition, node.bit_width,
                                 birth, death))
    return out


def allocate_registers(graph: Cdfg, schedule: Schedule
                       ) -> RegisterAllocation:
    """Modular-interval first-fit register allocation per chip."""
    L = schedule.initiation_rate
    allocation = RegisterAllocation()
    per_chip: Dict[int, List[ValueLifetime]] = {}
    for lifetime in _value_lifetimes(graph, schedule):
        per_chip.setdefault(lifetime.partition, []).append(lifetime)
        allocation.lifetimes[lifetime.producer] = lifetime

    for partition in sorted(per_chip):
        #: register index -> occupied cells (None = fully dedicated)
        occupied: List[Optional[Set[int]]] = []
        widths: List[int] = []

        def new_register(cells: Optional[Set[int]], width: int) -> int:
            occupied.append(cells)
            widths.append(width)
            return len(occupied) - 1

        # Left-edge flavour: longest spans first, then birth order.
        for lifetime in sorted(per_chip[partition],
                               key=lambda lt: (-lt.span, lt.birth,
                                               lt.producer)):
            regs: List[RegId] = []
            if lifetime.span >= L:
                copies = math.ceil(lifetime.span / L)
                for _ in range(copies):
                    index = new_register(None, lifetime.bit_width)
                    regs.append((partition, index))
            else:
                cells = {t % L for t in range(lifetime.birth,
                                              lifetime.death)}
                for index, used in enumerate(occupied):
                    if used is None:
                        continue
                    if used & cells:
                        continue
                    used |= cells
                    widths[index] = max(widths[index],
                                        lifetime.bit_width)
                    regs.append((partition, index))
                    break
                else:
                    index = new_register(set(cells), lifetime.bit_width)
                    regs.append((partition, index))
            allocation.regs_of[lifetime.producer] = regs
        for index, width in enumerate(widths):
            allocation.widths[(partition, index)] = width
    return allocation
