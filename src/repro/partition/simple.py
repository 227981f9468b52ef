"""Simple-partitioning classification (Definitions 3.1 and 3.2).

A partitioning is *simple* when the driver relation between partitions
is so sparse that pin feasibility alone guarantees a conflict-free
interchip connection (Theorem 3.1):

1. every partition drives at most two partitions;
2. every partition is driven by at most two partitions;
3. if a partition is driven by two partitions, its drivers drive no
   other partitions;
4. if a partition drives two partitions, it is the only driver of those
   two partitions.

The driver relation and the verdict depend on the graph alone, so both
are memoized on it (``Cdfg.memo``) and any graph mutation drops them;
the public functions hand out copies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.cdfg.graph import Cdfg
from repro.partition.model import OUTSIDE_WORLD


def driver_graph(graph: Cdfg,
                 include_world: bool = False) -> Dict[int, Set[int]]:
    """Map each partition to the set of partitions it *drives*.

    Partition ``a`` drives partition ``b`` when a value produced in ``a``
    is required in ``b`` (Definition 3.1), i.e. when an I/O node runs
    from ``a`` to ``b``.  The outside-world pseudo partition is excluded
    by default: transfers to/from the system's own pins use dedicated
    board wiring, not shared interchip buses, so it does not constrain
    the Definition 3.2 classification.  Both forms are derived once per
    graph (one ``Cdfg.memo`` slot); each call returns a fresh copy.
    """
    both = graph.memo("drivers", None, lambda: (_drivers(graph, False),
                                                 _drivers(graph, True)))
    return {part: set(dsts)
            for part, dsts in both[bool(include_world)].items()}


def _drivers(graph: Cdfg, include_world: bool) -> Dict[int, FrozenSet[int]]:
    drives: Dict[int, Set[int]] = {}
    for node in graph.io_nodes():
        src = node.source_partition
        dst = node.dest_partition
        if not include_world and OUTSIDE_WORLD in (src, dst):
            continue
        drives.setdefault(src, set()).add(dst)
        drives.setdefault(dst, set())
    return {part: frozenset(dsts) for part, dsts in drives.items()}


def invert_drivers(drives: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    """Invert a driver relation: partition -> the partitions driving it."""
    out: Dict[int, Set[int]] = {p: set() for p in drives}
    for src, dsts in drives.items():
        for dst in dsts:
            out.setdefault(dst, set()).add(src)
    return out


def simple_partitioning_violations(graph: Cdfg) -> List[str]:
    """All reasons the partitioning is not simple (empty = simple).

    Derived once per graph (a ``Cdfg.memo`` slot); each call returns a
    fresh list.
    """
    return list(graph.memo("simple-partitioning", None,
                           lambda: _violations(graph)))


def _violations(graph: Cdfg) -> Tuple[str, ...]:
    drives = driver_graph(graph)
    driven_by = invert_drivers(drives)

    problems: List[str] = []
    for part, dsts in sorted(drives.items()):
        if len(dsts) > 2:
            problems.append(
                f"partition {part} drives {len(dsts)} partitions "
                f"{sorted(dsts)} (> 2)")
    for part, srcs in sorted(driven_by.items()):
        if len(srcs) > 2:
            problems.append(
                f"partition {part} is driven by {len(srcs)} partitions "
                f"{sorted(srcs)} (> 2)")

    # Condition 3: a partition driven by two partitions has exclusive
    # drivers (those drivers drive nothing else).
    for part, srcs in sorted(driven_by.items()):
        if len(srcs) == 2:
            for src in sorted(srcs):
                others = drives.get(src, set()) - {part}
                if others:
                    problems.append(
                        f"partition {part} is driven by two partitions but "
                        f"driver {src} also drives {sorted(others)}")

    # Condition 4: a partition driving two partitions is their only driver.
    for part, dsts in sorted(drives.items()):
        if len(dsts) == 2:
            for dst in sorted(dsts):
                others = driven_by.get(dst, set()) - {part}
                if others:
                    problems.append(
                        f"partition {part} drives two partitions but "
                        f"{dst} is also driven by {sorted(others)}")
    return tuple(problems)


def is_simple_partitioning(graph: Cdfg) -> bool:
    """Whether the partitioned CDFG satisfies Definition 3.2.

    Reads the memoized :func:`simple_partitioning_violations`, so a
    graph is classified once until it is mutated.
    """
    return not simple_partitioning_violations(graph)


def fanout_fanin_shape(graph: Cdfg) -> Dict[int, Tuple[int, int]]:
    """Per-partition ``(#driven, #drivers)`` counts, for reporting."""
    drives = driver_graph(graph)
    driven_by = invert_drivers(drives)
    return {p: (len(drives[p]), len(driven_by[p])) for p in sorted(drives)}
