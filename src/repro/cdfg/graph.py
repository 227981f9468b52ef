"""CDFG data structures: nodes, edges and the graph itself.

Design notes
------------
* Node identity is a user-chosen string (``"+1"``, ``"X3"``, ``"Ia"`` ...)
  mirroring the labels used throughout the dissertation's figures.
* Edges carry a ``degree``; ``degree == 0`` is intra-instance dependence,
  ``degree == d > 0`` is a data-recursive edge: the consumer uses the value
  produced ``d`` execution instances earlier (Section 7.1).  Recursive
  edges do not constrain topological order — only the pipelined maximum
  time constraint ``t_dst_producer - t_src_consumer < d*L - (c-1)``.
* I/O operation nodes (kind ``IO``) record the source and destination
  partitions and the transferred value's name and bit width; several I/O
  nodes may transfer the *same* value to different partitions
  (Section 2.2.1) — they share the value name.
* Conditional execution is modelled with *guards*: a guard is a mapping
  from branch-variable name to the branch taken (``True``/``False``);
  two operations are mutually exclusive iff their guards disagree on some
  branch variable (the condition-vector technique cited in Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator,
                    List, Mapping, Optional, Tuple)

from repro.cdfg.ops import OpKind, FREE_KINDS
from repro.errors import CdfgError

#: A guard assigns outcomes to branch variables, e.g. ``{"c1": True}``.
Guard = Mapping[str, bool]


def _freeze_guard(guard: Optional[Guard]) -> FrozenSet[Tuple[str, bool]]:
    if not guard:
        return frozenset()
    return frozenset((str(k), bool(v)) for k, v in guard.items())


def guards_mutually_exclusive(a: FrozenSet[Tuple[str, bool]],
                              b: FrozenSet[Tuple[str, bool]]) -> bool:
    """True iff two frozen guards disagree on at least one branch variable."""
    vars_a = dict(a)
    for var, taken in b:
        if var in vars_a and vars_a[var] != taken:
            return True
    return False


@dataclass(frozen=True)
class Node:
    """A CDFG operation node.

    Attributes
    ----------
    name:
        Unique identifier within the graph.
    kind:
        Classification of the node (functional, io, input, ...).
    op_type:
        For functional nodes, the operation type resolved against the
        module library (``"add"``, ``"mul"``, ...).  For I/O nodes the
        conventional value is ``"io"``.
    partition:
        Partition (chip) index the node belongs to.  For I/O nodes this
        is ``None`` — they live *between* partitions.
    bit_width:
        Width of the produced/transferred value in bits.
    value:
        Name of the transferred value for I/O nodes.  I/O nodes
        transferring the same value to different partitions share this
        name (set ``W_v`` in the formulations).
    source_partition / dest_partition:
        For I/O nodes, producer and consumer chips.  The pseudo
        partition 0 models the outside world (Section 3.1.1).
    guard:
        Frozen condition assignment for conditional operations.
    """

    name: str
    kind: OpKind
    op_type: str = ""
    partition: Optional[int] = None
    bit_width: int = 8
    value: str = ""
    source_partition: Optional[int] = None
    dest_partition: Optional[int] = None
    guard: FrozenSet[Tuple[str, bool]] = frozenset()

    def is_io(self) -> bool:
        return self.kind is OpKind.IO

    def is_functional(self) -> bool:
        return self.kind is OpKind.FUNCTIONAL

    def is_free(self) -> bool:
        """Nodes that consume neither functional units nor pins."""
        return self.kind in FREE_KINDS

    def mutually_exclusive_with(self, other: "Node") -> bool:
        """Whether the two operations can never execute in one instance."""
        return guards_mutually_exclusive(self.guard, other.guard)


@dataclass(frozen=True)
class Edge:
    """A dependence edge ``src -> dst`` with a recursion degree."""

    src: str
    dst: str
    degree: int = 0

    def is_recursive(self) -> bool:
        return self.degree > 0


class Cdfg:
    """A flat control/data-flow graph (Section 2.2 assumptions).

    The graph must be acyclic when data-recursive edges are ignored;
    :func:`repro.cdfg.validate.validate_cdfg` enforces this and the other
    model assumptions.
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._edges: List[Edge] = []
        self._succs: Dict[str, List[Edge]] = {}
        self._preds: Dict[str, List[Edge]] = {}
        #: Derived data, one ``(key, value)`` per slot (see :meth:`memo`).
        self._memo: Dict[str, Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise CdfgError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._succs[node.name] = []
        self._preds[node.name] = []
        self._invalidate()
        return node

    def add_edge(self, src: str, dst: str, degree: int = 0) -> Edge:
        if src not in self._nodes:
            raise CdfgError(f"edge source {src!r} is not a node")
        if dst not in self._nodes:
            raise CdfgError(f"edge destination {dst!r} is not a node")
        if degree < 0:
            raise CdfgError(f"edge degree must be >= 0, got {degree}")
        edge = Edge(src, dst, degree)
        self._edges.append(edge)
        self._succs[src].append(edge)
        self._preds[dst].append(edge)
        self._invalidate()
        return edge

    def replace_node(self, node: Node) -> None:
        """Replace a node's attributes in place, keeping its edges."""
        if node.name not in self._nodes:
            raise CdfgError(f"cannot replace unknown node {node.name!r}")
        self._nodes[node.name] = node
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop everything derived from the graph.  Every mutator (here
        and in :mod:`repro.cdfg.transform`) calls this, so no derived
        data outlives a change."""
        self._memo = {}

    def memo(self, slot: str, key: Any, build: Callable[[], Any]) -> Any:
        """Derived data kept on the graph until its next mutation.

        One entry per ``slot``: a call whose ``key`` equals the stored
        one returns the stored value; any other key rebuilds it and
        replaces the entry, so the memo stays bounded however many keys
        are asked for.
        """
        hit = self._memo.get(slot)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = build()
        self._memo[slot] = (key, value)
        return value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise CdfgError(f"unknown node {name!r}") from None

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Iterator[str]:
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def out_edges(self, name: str) -> List[Edge]:
        return list(self._succs[name])

    def in_edges(self, name: str) -> List[Edge]:
        return list(self._preds[name])

    def successors(self, name: str, include_recursive: bool = False) -> List[str]:
        return [e.dst for e in self._succs[name]
                if include_recursive or not e.is_recursive()]

    def predecessors(self, name: str, include_recursive: bool = False) -> List[str]:
        return [e.src for e in self._preds[name]
                if include_recursive or not e.is_recursive()]

    def functional_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_functional()]

    def io_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_io()]

    def recursive_edges(self) -> List[Edge]:
        """The data-recursive subset of the edges (memoized)."""
        return list(self.memo("recursive", None, lambda: [
            e for e in self._edges if e.is_recursive()]))

    def values_map(self) -> Dict[str, List[Node]]:
        """Group I/O nodes by transferred value name (the sets ``W_v``).

        Memoized: the pin checker consults this per placement attempt.
        """

        def build() -> Dict[str, List[Node]]:
            groups: Dict[str, List[Node]] = {}
            for node in self.io_nodes():
                groups.setdefault(node.value or node.name,
                                  []).append(node)
            return groups

        return self.memo("values", None, build)

    def partitions(self) -> List[int]:
        """Sorted list of partition indices referenced by any node."""
        seen = set()
        for node in self._nodes.values():
            if node.partition is not None:
                seen.add(node.partition)
            if node.source_partition is not None:
                seen.add(node.source_partition)
            if node.dest_partition is not None:
                seen.add(node.dest_partition)
        return sorted(seen)

    def op_type_counts(self) -> Dict[str, int]:
        """Histogram of functional ``op_type`` values (for reporting)."""
        counts: Dict[str, int] = {}
        for node in self.functional_nodes():
            counts[node.op_type] = counts.get(node.op_type, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # convenience copies
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Cdfg":
        clone = Cdfg(name or self.name)
        for node in self._nodes.values():
            clone.add_node(node)
        for edge in self._edges:
            clone.add_edge(edge.src, edge.dst, edge.degree)
        return clone

    def subgraph(self, names: Iterable[str], name: str = "sub") -> "Cdfg":
        keep = set(names)
        clone = Cdfg(name)
        for node_name in keep:
            clone.add_node(self.node(node_name))
        for edge in self._edges:
            if edge.src in keep and edge.dst in keep:
                clone.add_edge(edge.src, edge.dst, edge.degree)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cdfg({self.name!r}, nodes={len(self._nodes)}, "
                f"edges={len(self._edges)})")


def make_io_node(name: str,
                 value: str,
                 source_partition: int,
                 dest_partition: int,
                 bit_width: int = 8,
                 guard: Optional[Guard] = None) -> Node:
    """Convenience constructor for an interchip I/O operation node."""
    return Node(
        name=name,
        kind=OpKind.IO,
        op_type="io",
        bit_width=bit_width,
        value=value,
        source_partition=source_partition,
        dest_partition=dest_partition,
        guard=_freeze_guard(guard),
    )


def make_functional_node(name: str,
                         op_type: str,
                         partition: int,
                         bit_width: int = 8,
                         guard: Optional[Guard] = None) -> Node:
    """Convenience constructor for a functional operation node."""
    return Node(
        name=name,
        kind=OpKind.FUNCTIONAL,
        op_type=op_type,
        partition=partition,
        bit_width=bit_width,
        guard=_freeze_guard(guard),
    )
