"""Heuristic interchip-connection synthesis before scheduling (Fig 4.3).

A branch-limited depth-first search assigns I/O operations (widest
first) to communication buses.  At each level only the few buses with
the best *gain* are explored:

    ``g = 10000*g1 + 100*g2 + g3``

* ``g1`` rewards reusing an existing communication path, weighted by
  how pin-starved the touched partitions are
  (``wf_i = unassigned I/O bits of P_i / unallocated pins of P_i``);
* ``g2`` rewards putting transfers of the same value on one bus (they
  then consume a single communication slot);
* ``g3`` balances utilization (free slots on the bus).

Buses with identical topology (same connected partitions) are explored
only once per level.  The branching factor trades run time against the
chance of finding a solution; the worst case stays exponential
(Section 4.1.2).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cdfg.graph import Cdfg, Node
from repro.core.bus_bounds import max_buses_pipelined
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import ConnectionError_
from repro.partition.model import Partitioning
from repro.perf import PERF
from repro.pipeline.resource_table import PinLedger
from repro.robustness.budget import as_token

#: Priority weights of the gain factors (values from Section 4.1.2,
#: "chosen arbitrarily" to order g1 > g2 > g3).
G1_WEIGHT = 10_000.0
G2_WEIGHT = 100.0


class _BusState:
    """Mutable bus under construction."""

    __slots__ = ("index", "out_w", "in_w", "bi_w", "values", "ops")

    def __init__(self, index: int) -> None:
        self.index = index
        self.out_w: Dict[int, int] = {}
        self.in_w: Dict[int, int] = {}
        self.bi_w: Dict[int, int] = {}
        self.values: Set[str] = set()
        self.ops: List[str] = []

    def topology(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if self.bi_w:
            parts = tuple(sorted(self.bi_w))
            return parts, parts
        return tuple(sorted(self.out_w)), tuple(sorted(self.in_w))


class ConnectionSearch:
    """One-shot search; construct then call :meth:`run`."""

    def __init__(self,
                 graph: Cdfg,
                 partitioning: Partitioning,
                 initiation_rate: int,
                 branching_factor: int = 2,
                 max_buses: Optional[int] = None,
                 share_groups: Optional[Mapping[str, str]] = None,
                 weighting: Optional[Mapping[int, float]] = None,
                 slot_reserve: int = 0,
                 step_limit: int = 300_000,
                 budget=None) -> None:
        self.graph = graph
        self.partitioning = partitioning
        self.L = initiation_rate
        #: Values a bus may carry during search.  The physical capacity
        #: is L (Constraint 4.5); reserving slots implements the
        #: Objective-4.6 push toward more buses / higher bandwidth,
        #: which loosens scheduling on latency-critical designs.
        self.capacity = max(1, initiation_rate - slot_reserve)
        self.branching = max(1, branching_factor)
        self.bidirectional = partitioning.any_bidirectional()
        self.R = max_buses if max_buses is not None else \
            max_buses_pipelined(graph, partitioning, initiation_rate)
        self.share_groups = dict(share_groups or {})
        self.weighting = dict(weighting or {})
        self.steps = 0
        self.step_limit = step_limit
        #: Cooperative cancellation token, ticked once per DFS step.
        self.budget = as_token(budget)

        self._ops = sorted(graph.io_nodes(),
                           key=lambda n: (-n.bit_width, n.name))
        self._buses: List[_BusState] = []
        #: Booked pins per chip — the unified direction-split ledger
        #: (honours fixed input/output splits) shared with the rest of
        #: the pipeline's pin accounting.
        self.pins = PinLedger(partitioning)
        self._unassigned_bits: Dict[int, int] = {
            index: 0 for index in partitioning.indices()}
        for node in self._ops:
            self._unassigned_bits[node.source_partition] += node.bit_width
            self._unassigned_bits[node.dest_partition] += node.bit_width

    # ------------------------------------------------------------------
    # The historical attribute name, kept as a view of the ledger (the
    # gain tests poke it directly).
    @property
    def _pins_used(self) -> Dict[int, int]:
        return self.pins.used

    # ------------------------------------------------------------------
    def value_key(self, node: Node) -> str:
        return self.share_groups.get(node.name, node.value or node.name)

    def _wf(self, partition: int) -> float:
        free = self.pins.free_pins(partition)
        bits = self._unassigned_bits[partition]
        base = bits / free if free > 0 else bits * 1e6 + 1.0
        return base * self.weighting.get(partition, 1.0)

    # ------------------------------------------------------------------
    def run(self) -> Tuple[Interconnect, BusAssignment]:
        assignment: Dict[str, Tuple[int, int]] = {}
        if not self._assign(0, assignment):
            raise ConnectionError_(
                f"no interchip connection found with branching factor "
                f"{self.branching} and at most {self.R} buses")
        interconnect = Interconnect(bidirectional=self.bidirectional)
        index_map: Dict[int, int] = {}
        for state in self._buses:
            if not state.ops:
                continue
            new_index = len(interconnect.buses) + 1
            index_map[state.index] = new_index
            interconnect.add_bus(self._finish_bus(new_index, state))
        result = BusAssignment()
        for op, (bus_index, segment) in assignment.items():
            result.assign(op, index_map[bus_index], segment)
        return interconnect, result

    def _finish_bus(self, index: int, state: _BusState) -> Bus:
        return Bus(
            index,
            out_widths=dict(state.out_w),
            in_widths=dict(state.in_w),
            bi_widths=dict(state.bi_w),
        )

    # ------------------------------------------------------------------
    def _assign(self, position: int,
                assignment: Dict[str, Tuple[int, int]]) -> bool:
        if position == len(self._ops):
            return True
        node = self._ops[position]
        for candidate in self._candidates(node):
            self.steps += 1
            PERF.inc("search.steps")
            if self.budget is not None:
                self.budget.note_incumbent(
                    solver="connection_search",
                    ops_assigned=position, ops_total=len(self._ops),
                    buses_open=len(self._buses))
                self.budget.tick("connection_search")
            if self.steps > self.step_limit:
                raise ConnectionError_(
                    f"connection search exceeded {self.step_limit} "
                    f"steps; raise step_limit or loosen the pin "
                    f"budgets / branching factor")
            undo = self._apply(node, candidate)
            assignment[node.name] = self._position_of(candidate)
            if self._assign(position + 1, assignment):
                return True
            del assignment[node.name]
            self._undo(node, candidate, undo)
        return False

    def _position_of(self, candidate) -> Tuple[int, int]:
        """(bus index, starting segment) of a candidate placement."""
        return candidate.index, 0

    # ------------------------------------------------------------------
    def _slot_free(self, state: _BusState, node: Node) -> bool:
        if self.value_key(node) in state.values:
            return True
        return len(state.values) < self.capacity

    def _pin_delta(self, state: _BusState,
                   node: Node) -> Optional[Dict[int, Tuple[int, int]]]:
        """Extra (output, input) pins per partition, or None if over
        budget — including a chip's fixed input/output split."""
        width = node.bit_width
        src, dst = node.source_partition, node.dest_partition
        delta: Dict[int, Tuple[int, int]] = {}
        if self.bidirectional:
            # Bidirectional ports have no direction; book the extra
            # width on the "output" side of the pooled tracker.
            delta[src] = (max(0, width - state.bi_w.get(src, 0)), 0)
            prev = delta.get(dst, (0, 0))
            delta[dst] = (prev[0]
                          + max(0, width - state.bi_w.get(dst, 0)),
                          prev[1])
        else:
            delta[src] = (max(0, width - state.out_w.get(src, 0)), 0)
            prev = delta.get(dst, (0, 0))
            delta[dst] = (prev[0], prev[1] + max(
                0, width - state.in_w.get(dst, 0)))
        return delta if self._budget_ok(delta) else None

    def _budget_ok(self, delta: Mapping[int, Tuple[int, int]]) -> bool:
        """Whether the extra pins fit every touched chip's budget —
        the total pool, and the fixed split when one is declared
        (delegated to the unified :class:`PinLedger`)."""
        return self.pins.delta_fits(delta)

    def _gain(self, state: _BusState, node: Node) -> float:
        src, dst = node.source_partition, node.dest_partition
        if self.bidirectional:
            src_connected = state.bi_w.get(src, 0) > 0
            dst_connected = state.bi_w.get(dst, 0) > 0
        else:
            src_connected = state.out_w.get(src, 0) > 0
            dst_connected = state.in_w.get(dst, 0) > 0
        g1 = 0.0
        if src_connected:
            g1 += self._wf(src)
        if dst_connected:
            g1 += self._wf(dst)
        g2 = 1.0 if self.value_key(node) in state.values else 0.0
        g3 = float(self.capacity - len(state.values))
        return G1_WEIGHT * g1 + G2_WEIGHT * g2 + g3

    def _candidates(self, node: Node) -> List[_BusState]:
        scored: List[Tuple[float, int, _BusState]] = []
        seen_topologies: Dict[Tuple, float] = {}
        for state in self._buses:
            if not self._slot_free(state, node):
                continue
            if self._pin_delta(state, node) is None:
                continue
            gain = self._gain(state, node)
            topo = state.topology()
            # Same-topology dedup: explore only the best-gain instance.
            if topo in seen_topologies and seen_topologies[topo] >= gain:
                continue
            seen_topologies[topo] = gain
            scored.append((gain, -state.index, state))
        fresh: Optional[_BusState] = None
        if len(self._buses) < self.R:
            fresh = _BusState(len(self._buses) + 1)
            if self._pin_delta(fresh, node) is not None:
                scored.append((self._gain(fresh, node), -fresh.index, fresh))
            else:
                fresh = None
        scored.sort(key=lambda item: (-item[0], item[1]))
        picked = [state for _g, _i, state in scored[:self.branching]]
        # A fresh bus stays available as a fallback even when it did not
        # make the gain cut: dropping it loses completeness cheaply.
        if fresh is not None and fresh not in picked:
            picked.append(fresh)
        return picked

    # ------------------------------------------------------------------
    def _apply(self, node: Node, state: _BusState):
        is_new = state not in self._buses
        if is_new:
            self._buses.append(state)
        src, dst = node.source_partition, node.dest_partition
        width = node.bit_width
        record = {
            "new": is_new,
            "out": dict(state.out_w), "in": dict(state.in_w),
            "bi": dict(state.bi_w),
            "had_value": self.value_key(node) in state.values,
            "pins": self.pins.snapshot(),
        }
        delta = self._pin_delta(state, node)
        assert delta is not None
        self._book_pins(delta)
        if self.bidirectional:
            state.bi_w[src] = max(state.bi_w.get(src, 0), width)
            state.bi_w[dst] = max(state.bi_w.get(dst, 0), width)
        else:
            state.out_w[src] = max(state.out_w.get(src, 0), width)
            state.in_w[dst] = max(state.in_w.get(dst, 0), width)
        state.values.add(self.value_key(node))
        state.ops.append(node.name)
        self._unassigned_bits[src] -= width
        self._unassigned_bits[dst] -= width
        return record

    def _undo(self, node: Node, state: _BusState, record) -> None:
        src, dst = node.source_partition, node.dest_partition
        width = node.bit_width
        state.ops.pop()
        if not record["had_value"]:
            state.values.discard(self.value_key(node))
        state.out_w = record["out"]
        state.in_w = record["in"]
        state.bi_w = record["bi"]
        self.pins.restore(record["pins"])
        self._unassigned_bits[src] += width
        self._unassigned_bits[dst] += width
        if record["new"]:
            self._buses.pop()

    def _book_pins(self, delta: Mapping[int, Tuple[int, int]]) -> None:
        self.pins.book(delta)

