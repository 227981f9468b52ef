"""CDFG transformations.

* :func:`insert_time_division_multiplexing` — Section 7.3 / Figure 7.8:
  replace one wide I/O operation by a SPLIT node, several narrower I/O
  operations, and a MERGE node, so the transfer can be spread over
  several cycles on fewer pins.
* :func:`unroll_fixed_loop` — Section 2.2 requires a flat CDFG; loops
  with a fixed iteration count are unwound before synthesis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import OpKind
from repro.errors import CdfgError


def insert_time_division_multiplexing(graph: Cdfg,
                                      io_name: str,
                                      widths: Sequence[int]) -> List[str]:
    """Split I/O operation ``io_name`` into ``len(widths)`` transfers.

    Returns the names of the new I/O nodes.  A single SPLIT node feeds
    all sub-transfers (only one split is needed even for multi-fanout
    values, Section 7.3) and a MERGE node on the destination partition
    reassembles the value for the original consumers.

    The decision of *which* operations to split and into how many
    components is the designer's (the dissertation leaves automating the
    trade-off as future work); this transform just applies it.
    """
    node = graph.node(io_name)
    if node.kind is not OpKind.IO:
        raise CdfgError(f"{io_name!r} is not an I/O operation")
    if sum(widths) != node.bit_width:
        raise CdfgError(
            f"split widths {list(widths)} do not sum to the value width "
            f"{node.bit_width}")
    if any(w <= 0 for w in widths):
        raise CdfgError("split widths must be positive")
    if len(widths) < 2:
        raise CdfgError("time-division multiplexing needs >= 2 components")

    producers = [e.src for e in graph.in_edges(io_name)
                 if not e.is_recursive()]
    consumers = [e.dst for e in graph.out_edges(io_name)
                 if not e.is_recursive()]

    split_name = f"{io_name}.split"
    merge_name = f"{io_name}.merge"
    graph.add_node(Node(
        name=split_name, kind=OpKind.SPLIT, op_type="split",
        partition=node.source_partition, bit_width=node.bit_width))
    graph.add_node(Node(
        name=merge_name, kind=OpKind.MERGE, op_type="merge",
        partition=node.dest_partition, bit_width=node.bit_width))

    new_ios: List[str] = []
    for idx, width in enumerate(widths):
        sub = Node(
            name=f"{io_name}.{idx}",
            kind=OpKind.IO,
            op_type="io",
            bit_width=width,
            value=f"{node.value}.{idx}",
            source_partition=node.source_partition,
            dest_partition=node.dest_partition,
            guard=node.guard,
        )
        graph.add_node(sub)
        graph.add_edge(split_name, sub.name)
        graph.add_edge(sub.name, merge_name)
        new_ios.append(sub.name)

    for producer in producers:
        graph.add_edge(producer, split_name)
    for consumer in consumers:
        graph.add_edge(merge_name, consumer)

    _remove_node(graph, io_name)
    return new_ios


def unroll_fixed_loop(body: Cdfg,
                      iterations: int,
                      carried: Optional[Dict[str, str]] = None,
                      name: Optional[str] = None) -> Cdfg:
    """Unroll a loop body ``iterations`` times into one flat CDFG.

    ``carried`` maps a producer node in iteration ``i`` to the consumer
    node it feeds in iteration ``i + 1`` (loop-carried dependence).
    Node names gain an ``@k`` iteration suffix.
    """
    if iterations < 1:
        raise CdfgError("iterations must be >= 1")
    carried = carried or {}
    for producer, consumer in carried.items():
        if producer not in body:
            raise CdfgError(f"carried producer {producer!r} not in body")
        if consumer not in body:
            raise CdfgError(f"carried consumer {consumer!r} not in body")

    flat = Cdfg(name or f"{body.name}_x{iterations}")
    for k in range(iterations):
        for node in body.nodes():
            renamed = Node(
                name=f"{node.name}@{k}",
                kind=node.kind,
                op_type=node.op_type,
                partition=node.partition,
                bit_width=node.bit_width,
                value=f"{node.value}@{k}" if node.value else "",
                source_partition=node.source_partition,
                dest_partition=node.dest_partition,
                guard=node.guard,
            )
            flat.add_node(renamed)
        for edge in body.edges():
            flat.add_edge(f"{edge.src}@{k}", f"{edge.dst}@{k}", edge.degree)
    for k in range(iterations - 1):
        for producer, consumer in carried.items():
            flat.add_edge(f"{producer}@{k}", f"{consumer}@{k + 1}")
    return flat


def _remove_edge(graph: Cdfg, edge) -> None:
    """Remove one edge instance from the graph (internal helper)."""
    graph._edges.remove(edge)
    graph._succs[edge.src].remove(edge)
    graph._preds[edge.dst].remove(edge)
    graph._invalidate()


def _remove_node(graph: Cdfg, name: str) -> None:
    """Remove a node and all incident edges (internal helper)."""
    # Cdfg keeps private dicts; this module is part of the package and
    # may touch them — external callers should treat graphs as append-only.
    graph._edges = [e for e in graph._edges
                    if e.src != name and e.dst != name]
    for key in list(graph._succs):
        graph._succs[key] = [e for e in graph._succs[key] if e.dst != name]
    for key in list(graph._preds):
        graph._preds[key] = [e for e in graph._preds[key] if e.src != name]
    del graph._nodes[name]
    del graph._succs[name]
    del graph._preds[name]
    graph._invalidate()
