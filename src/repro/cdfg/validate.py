"""CDFG validation against the Section 2.2 model assumptions.

The checks are deliberately strict: synthesis algorithms downstream rely
on these invariants (flat acyclic graph, I/O nodes between distinct
partitions, consistent bit widths within a value, ...), and a clear
early error beats a confusing mid-schedule failure.

The verdict depends on the graph alone, so it is memoized on it
(``Cdfg.memo``) and any graph mutation drops it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cdfg.analysis import topological_order
from repro.cdfg.graph import Cdfg
from repro.cdfg.ops import OpKind
from repro.errors import ValidationError


def validate_cdfg(graph: Cdfg, require_partitions: bool = True) -> None:
    """Raise :class:`ValidationError` describing every violation found.

    The problem list is derived once per graph and ``require_partitions``
    (one ``Cdfg.memo`` slot, dropped by any mutation), so a warm chain
    that solves one graph many times validates it once; every call on
    an invalid graph raises an error with the same text.
    """
    problems = graph.memo("validation", bool(require_partitions),
                          lambda: _problems(graph, require_partitions))
    if problems:
        raise ValidationError(
            "CDFG validation failed:\n  " + "\n  ".join(problems))


def _problems(graph: Cdfg, require_partitions: bool) -> Tuple[str, ...]:
    problems: List[str] = []

    # Acyclic over non-recursive edges (also detects dangling names).
    try:
        topological_order(graph)
    except Exception as exc:  # CdfgError carries the cycle info
        problems.append(str(exc))

    for node in graph.nodes():
        if node.kind is OpKind.IO:
            if node.source_partition is None or node.dest_partition is None:
                problems.append(
                    f"I/O node {node.name!r} lacks source/dest partition")
            elif node.source_partition == node.dest_partition:
                problems.append(
                    f"I/O node {node.name!r} connects partition "
                    f"{node.source_partition} to itself")
            if node.bit_width <= 0:
                problems.append(
                    f"I/O node {node.name!r} has bit width {node.bit_width}")
            if not node.value:
                problems.append(f"I/O node {node.name!r} has no value name")
        elif node.kind is OpKind.FUNCTIONAL:
            if require_partitions and node.partition is None:
                problems.append(
                    f"functional node {node.name!r} has no partition")
            if not node.op_type:
                problems.append(
                    f"functional node {node.name!r} has no op_type")
        elif node.kind in (OpKind.INPUT, OpKind.OUTPUT):
            if require_partitions and node.partition is None:
                problems.append(
                    f"{node.kind.value} node {node.name!r} has no partition")

    # I/O nodes transferring the same value must agree on the source
    # partition and the bit width (they are the same physical value).
    for value, nodes in graph.values_map().items():
        sources = {n.source_partition for n in nodes}
        if len(sources) > 1:
            problems.append(
                f"value {value!r} output from several partitions: "
                f"{sorted(sources)}")
        widths = {n.bit_width for n in nodes}
        if len(widths) > 1:
            problems.append(
                f"value {value!r} transferred at inconsistent widths "
                f"{sorted(widths)}")
        dests = [n.dest_partition for n in nodes]
        if len(dests) != len(set(dests)):
            problems.append(
                f"value {value!r} has duplicate I/O nodes to one partition")

    # Edges incident to I/O nodes must respect partition boundaries:
    # producers live in the source partition, consumers in the dest.
    for node in graph.io_nodes():
        for edge in graph.in_edges(node.name):
            if edge.is_recursive():
                continue
            pred = graph.node(edge.src)
            if pred.kind is OpKind.IO:
                problems.append(
                    f"I/O node {node.name!r} fed directly by I/O node "
                    f"{pred.name!r} (values transfer directly, not through "
                    f"other partitions)")
            elif (pred.partition is not None
                  and pred.partition != node.source_partition):
                problems.append(
                    f"I/O node {node.name!r} claims source partition "
                    f"{node.source_partition} but producer {pred.name!r} "
                    f"is in partition {pred.partition}")
        for edge in graph.out_edges(node.name):
            if edge.is_recursive():
                continue
            succ = graph.node(edge.dst)
            if succ.kind is OpKind.IO:
                problems.append(
                    f"I/O node {node.name!r} feeds I/O node {succ.name!r} "
                    f"directly")
            elif (succ.partition is not None
                  and succ.partition != node.dest_partition):
                problems.append(
                    f"I/O node {node.name!r} claims dest partition "
                    f"{node.dest_partition} but consumer {succ.name!r} "
                    f"is in partition {succ.partition}")

    # Non-I/O edges must stay inside one partition: every cross-partition
    # transfer needs an explicit I/O node.
    for edge in graph.edges():
        src = graph.node(edge.src)
        dst = graph.node(edge.dst)
        if src.kind is OpKind.IO or dst.kind is OpKind.IO:
            continue
        if (src.partition is not None and dst.partition is not None
                and src.partition != dst.partition):
            problems.append(
                f"edge {edge.src!r} -> {edge.dst!r} crosses partitions "
                f"{src.partition} -> {dst.partition} without an I/O node")
    return tuple(problems)
