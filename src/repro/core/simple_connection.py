"""Constructive interchip connection for simple partitionings (Thm 3.1).

Given a pin-feasible schedule of a *simple* partitioning, the proof of
Theorem 3.1 constructs a conflict-free connection from at most three
bundles per communication star (Figure 3.3):

* fan-out star ``f -> {a, b}``: dedicated bundles ``A`` (to ``a``) and
  ``B`` (to ``b``) plus, when ``M_a + M_b > O_f``, a shared bundle ``C``
  reaching both destinations through which multi-destination values and
  overflow bits travel;
* fan-in star ``{a, b} -> f``: the mirror image on ``f``'s input pins;
* plain pair: a single bundle sized to the peak per-group bit count.

The builder also produces the *bit-level* allocation (which value puts
how many bits on which bundle in each control-step group), mirroring
Figure 3.7; the ``simple-alloc`` rule of :mod:`repro.check.rules`
verifies its no-conflict property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.core.interconnect import Bus, Interconnect
from repro.errors import ConnectionError_
from repro.partition.simple import (driver_graph, invert_drivers,
                                    is_simple_partitioning)
from repro.scheduling.base import Schedule


@dataclass
class SimpleConnectionResult:
    """Connection bundles plus per-group bit-level allocation.

    ``allocation`` maps I/O op name -> list of (bus index, bit count);
    an operation's bits may straddle a dedicated bundle and the shared
    bundle ``C`` (the proof routes overflow bits through ``C``).
    """

    interconnect: Interconnect
    allocation: Dict[str, List[Tuple[int, int]]] = field(
        default_factory=dict)

    def pins_used(self, partition: int) -> int:
        return self.interconnect.pins_used(partition)


def build_simple_connection(graph: Cdfg,
                            schedule: Schedule) -> SimpleConnectionResult:
    """Apply the Theorem 3.1 construction to a finished schedule.

    Everything the construction reads that does not depend on the
    schedule is derived once per graph and memoized on it: the
    Definition 3.2 verdict, the driver relation (with and without the
    outside world) and the I/O transfers grouped by (source chip,
    destination chip).  Only the per-group bucketing and the bundle
    sizing run per call.
    """
    if not is_simple_partitioning(graph):
        raise ConnectionError_(
            "Theorem 3.1 requires a simple partitioning (Definition 3.2)")
    drives = driver_graph(graph)
    driven_by = invert_drivers(drives)

    interconnect = Interconnect(bidirectional=False)
    result = SimpleConnectionResult(interconnect)
    next_bus = [1]
    handled_edges: Set[Tuple[int, int]] = set()

    # Fan-out stars: f drives exactly {a, b}.
    for f, dsts in sorted(drives.items()):
        if len(dsts) == 2:
            a, b = sorted(dsts)
            _build_fanout_star(graph, schedule, f, a, b, result, next_bus)
            handled_edges.update({(f, a), (f, b)})

    # Fan-in stars: f driven by exactly {a, b} (drivers drive only f).
    for f, srcs in sorted(driven_by.items()):
        if len(srcs) == 2:
            a, b = sorted(srcs)
            if (a, f) in handled_edges or (b, f) in handled_edges:
                continue
            _build_fanin_star(graph, schedule, a, b, f, result, next_bus)
            handled_edges.update({(a, f), (b, f)})

    # Remaining plain pairs — including the dedicated bundles to and
    # from the outside world (system pins are point-to-point wiring).
    all_drives = driver_graph(graph, include_world=True)
    for src, dsts in sorted(all_drives.items()):
        for dst in sorted(dsts):
            if (src, dst) in handled_edges:
                continue
            _build_pair(graph, schedule, src, dst, result, next_bus)
            handled_edges.add((src, dst))
    return result


# ---------------------------------------------------------------------
def _transfers(graph: Cdfg) -> Dict[Tuple[int, int], Tuple[Node, ...]]:
    """The graph's I/O nodes grouped by (source chip, destination chip),
    each group in node order; one memo slot on the graph (read-only)."""

    def build() -> Dict[Tuple[int, int], Tuple[Node, ...]]:
        groups: Dict[Tuple[int, int], List[Node]] = {}
        for node in graph.io_nodes():
            groups.setdefault((node.source_partition, node.dest_partition),
                              []).append(node)
        return {pair: tuple(nodes) for pair, nodes in groups.items()}

    return graph.memo("transfers", None, build)


def _entries_per_group(graph: Cdfg, schedule: Schedule, src: int,
                       dst: int) -> Dict[int, List[Node]]:
    per_group: Dict[int, List[Node]] = {}
    for node in _transfers(graph).get((src, dst), ()):
        per_group.setdefault(schedule.group(node.name), []).append(node)
    for members in per_group.values():
        members.sort(key=lambda n: n.name)
    return per_group


def _build_pair(graph: Cdfg, schedule: Schedule, src: int, dst: int,
                result: SimpleConnectionResult, next_bus: List[int]) -> None:
    per_group = _entries_per_group(graph, schedule, src, dst)
    peak = max((sum(n.bit_width for n in members)
                for members in per_group.values()), default=0)
    if peak == 0:
        return
    bus = Bus(next_bus[0], out_widths={src: peak}, in_widths={dst: peak})
    next_bus[0] += 1
    result.interconnect.add_bus(bus)
    for members in per_group.values():
        for node in members:
            result.allocation[node.name] = [(bus.index, node.bit_width)]


def _build_fanout_star(graph: Cdfg, schedule: Schedule, f: int, a: int,
                       b: int, result: SimpleConnectionResult,
                       next_bus: List[int]) -> None:
    to_a = _entries_per_group(graph, schedule, f, a)
    to_b = _entries_per_group(graph, schedule, f, b)
    L = schedule.initiation_rate

    def shared(group: int) -> List[Tuple[Node, Node]]:
        """Same value to both partitions in the same control *step*."""
        pairs = []
        for na in to_a.get(group, []):
            for nb in to_b.get(group, []):
                if na.value == nb.value and \
                        schedule.step(na.name) == schedule.step(nb.name):
                    pairs.append((na, nb))
        return pairs

    a_k = {k: sum(n.bit_width for n in v) for k, v in to_a.items()}
    b_k = {k: sum(n.bit_width for n in v) for k, v in to_b.items()}
    c_k = {k: sum(p[0].bit_width for p in shared(k)) for k in range(L)}
    M_a = max(a_k.values(), default=0)
    M_b = max(b_k.values(), default=0)
    O_f = max((a_k.get(k, 0) + b_k.get(k, 0) - c_k.get(k, 0))
              for k in range(L)) if (to_a or to_b) else 0

    if M_a == 0 and M_b == 0:
        return
    N_c = max(0, M_a + M_b - O_f)
    N_a = M_a - N_c
    N_b = M_b - N_c

    bus_a = bus_b = bus_c = None
    if N_a > 0:
        bus_a = Bus(next_bus[0], out_widths={f: N_a}, in_widths={a: N_a})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_a)
    if N_b > 0:
        bus_b = Bus(next_bus[0], out_widths={f: N_b}, in_widths={b: N_b})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_b)
    if N_c > 0:
        bus_c = Bus(next_bus[0], out_widths={f: N_c},
                    in_widths={a: N_c, b: N_c})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_c)

    # Allocate per group following the proof's case analysis.
    for k in range(L):
        pairs = shared(k)
        shared_names = {n.name for p in pairs for n in p}
        c_used = 0
        # Shared values ride C first; overflow pairs use A and B slots.
        for na, nb in pairs:
            width = na.bit_width
            cap_c = (bus_c.width if bus_c else 0) - c_used
            on_c = min(width, cap_c)
            alloc_a: List[Tuple[int, int]] = []
            alloc_b: List[Tuple[int, int]] = []
            if on_c > 0:
                alloc_a.append((bus_c.index, on_c))
                alloc_b.append((bus_c.index, on_c))
                c_used += on_c
            rest = width - on_c
            if rest > 0:
                alloc_a.append((bus_a.index, rest))
                alloc_b.append((bus_b.index, rest))
            result.allocation[na.name] = alloc_a
            result.allocation[nb.name] = alloc_b
        # Exclusive values: dedicated bundle first, spill into C.
        for nodes, bus_main in ((to_a.get(k, []), bus_a),
                                (to_b.get(k, []), bus_b)):
            used_main = 0
            for node in nodes:
                if node.name in shared_names:
                    continue
                width = node.bit_width
                cap_main = (bus_main.width if bus_main else 0) - used_main
                on_main = min(width, cap_main)
                alloc: List[Tuple[int, int]] = []
                if on_main > 0:
                    alloc.append((bus_main.index, on_main))
                    used_main += on_main
                rest = width - on_main
                if rest > 0:
                    alloc.append((bus_c.index, rest))
                    c_used += rest
                result.allocation[node.name] = alloc


def _build_fanin_star(graph: Cdfg, schedule: Schedule, a: int, b: int,
                      f: int, result: SimpleConnectionResult,
                      next_bus: List[int]) -> None:
    from_a = _entries_per_group(graph, schedule, a, f)
    from_b = _entries_per_group(graph, schedule, b, f)
    L = schedule.initiation_rate
    a_k = {k: sum(n.bit_width for n in v) for k, v in from_a.items()}
    b_k = {k: sum(n.bit_width for n in v) for k, v in from_b.items()}
    M_a = max(a_k.values(), default=0)
    M_b = max(b_k.values(), default=0)
    I_f = max((a_k.get(k, 0) + b_k.get(k, 0)) for k in range(L)) \
        if (from_a or from_b) else 0

    if M_a == 0 and M_b == 0:
        return
    N_c = max(0, M_a + M_b - I_f)
    N_a = M_a - N_c
    N_b = M_b - N_c

    bus_a = bus_b = bus_c = None
    if N_a > 0:
        bus_a = Bus(next_bus[0], out_widths={a: N_a}, in_widths={f: N_a})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_a)
    if N_b > 0:
        bus_b = Bus(next_bus[0], out_widths={b: N_b}, in_widths={f: N_b})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_b)
    if N_c > 0:
        bus_c = Bus(next_bus[0], out_widths={a: N_c, b: N_c},
                    in_widths={f: N_c})
        next_bus[0] += 1
        result.interconnect.add_bus(bus_c)

    for k in range(L):
        c_used = 0
        for nodes, bus_main in ((from_a.get(k, []), bus_a),
                                (from_b.get(k, []), bus_b)):
            used_main = 0
            for node in nodes:
                width = node.bit_width
                cap_main = (bus_main.width if bus_main else 0) - used_main
                on_main = min(width, cap_main)
                alloc: List[Tuple[int, int]] = []
                if on_main > 0:
                    alloc.append((bus_main.index, on_main))
                    used_main += on_main
                rest = width - on_main
                if rest > 0:
                    alloc.append((bus_c.index, rest))
                    c_used += rest
                result.allocation[node.name] = alloc

