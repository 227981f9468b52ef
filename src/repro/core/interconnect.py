"""Interchip connection model: buses, ports, sub-buses, pin accounting.

No switching devices exist off-chip (Section 2.3.2): a communication
bus is a passive bundle of wires tying output ports of some chips to
input ports of others.  A chip's port onto a bus has a width — possibly
narrower than the bus when the chip only ever sends/receives narrow
values over it (Figure 4.2).  With bidirectional ports (Section 4.3) a
single port serves both directions.  Chapter 6 logically divides a bus
into consecutive *sub-buses* so two values can ride the bus in one
cycle; a chip connected to sub-bus ``s`` is connected to every earlier
sub-bus too (Equation 6.9), so a port width plus the segment layout
fully determines reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cdfg.graph import Node
from repro.errors import ConnectionError_
from repro.partition.model import Partitioning


@dataclass
class Bus:
    """One communication bus.

    For unidirectional designs ``out_widths``/``in_widths`` give
    ``p_{i,h}``/``q_{i,h}``; for bidirectional designs ``bi_widths``
    gives ``r_{i,h}``.  ``segments`` lists sub-bus widths in order; a
    plain bus has one segment equal to its width.
    """

    index: int
    out_widths: Dict[int, int] = field(default_factory=dict)
    in_widths: Dict[int, int] = field(default_factory=dict)
    bi_widths: Dict[int, int] = field(default_factory=dict)
    segments: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def bidirectional(self) -> bool:
        return bool(self.bi_widths)

    @property
    def width(self) -> int:
        if self.segments:
            return sum(self.segments)
        widths = list(self.out_widths.values()) \
            + list(self.in_widths.values()) + list(self.bi_widths.values())
        return max(widths, default=0)

    def effective_segments(self) -> List[int]:
        return self.segments or [self.width]

    @property
    def n_segments(self) -> int:
        return len(self.effective_segments())

    def segment_offset(self, index: int) -> int:
        return sum(self.effective_segments()[:index])

    # ------------------------------------------------------------------
    def source_width(self, partition: int) -> int:
        if self.bidirectional:
            return self.bi_widths.get(partition, 0)
        return self.out_widths.get(partition, 0)

    def dest_width(self, partition: int) -> int:
        if self.bidirectional:
            return self.bi_widths.get(partition, 0)
        return self.in_widths.get(partition, 0)

    def capable(self, io: Node, segment: Optional[int] = None) -> bool:
        """Whether the bus can carry the transfer (optionally at a
        specific starting segment)."""
        if segment is None:
            return any(self.capable(io, s) for s in self.fitting_segments(io))
        need = self.segment_offset(segment) + io.bit_width
        if need > self.width:
            return False
        return (self.source_width(io.source_partition) >= need
                and self.dest_width(io.dest_partition) >= need)

    def fitting_segments(self, io: Node) -> List[int]:
        """Starting segments whose suffix can hold the value's bits."""
        segments = self.effective_segments()
        out = []
        for start in range(len(segments)):
            room = sum(segments[start:])
            if room >= io.bit_width:
                out.append(start)
        return out

    def segments_spanned(self, io: Node, start: int) -> List[int]:
        """Segment indices the value occupies when starting at ``start``."""
        segments = self.effective_segments()
        spanned = []
        remaining = io.bit_width
        for idx in range(start, len(segments)):
            if remaining <= 0:
                break
            spanned.append(idx)
            remaining -= segments[idx]
        if remaining > 0:
            raise ConnectionError_(
                f"value of {io.bit_width} bits does not fit bus "
                f"{self.index} from segment {start}")
        return spanned

    def connected_partitions(self) -> List[int]:
        parts = (set(self.out_widths) | set(self.in_widths)
                 | set(self.bi_widths))
        return sorted(parts)

    def topology(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(source partitions, destination partitions) — Section 4.1.2's
        notion of two buses having the same topology."""
        if self.bidirectional:
            parts = tuple(sorted(self.bi_widths))
            return parts, parts
        return (tuple(sorted(self.out_widths)),
                tuple(sorted(self.in_widths)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.bidirectional:
            body = " ".join(f"P{p}:{w}" for p, w in
                            sorted(self.bi_widths.items()))
        else:
            outs = " ".join(f"P{p}:{w}" for p, w in
                            sorted(self.out_widths.items()))
            ins = " ".join(f"P{p}:{w}" for p, w in
                           sorted(self.in_widths.items()))
            body = f"out[{outs}] in[{ins}]"
        seg = f" segs={self.segments}" if self.segments else ""
        return f"Bus{self.index}({body}{seg})"


class Interconnect:
    """A set of communication buses plus pin accounting."""

    def __init__(self, buses: Optional[Iterable[Bus]] = None,
                 bidirectional: bool = False) -> None:
        self.buses: List[Bus] = list(buses or [])
        self.bidirectional = bidirectional

    def add_bus(self, bus: Bus) -> Bus:
        self.buses.append(bus)
        return bus

    def bus(self, index: int) -> Bus:
        for bus in self.buses:
            if bus.index == index:
                return bus
        raise ConnectionError_(f"no bus with index {index}")

    def __len__(self) -> int:
        return len(self.buses)

    # ------------------------------------------------------------------
    def pins_used(self, partition: int) -> int:
        total = 0
        for bus in self.buses:
            if bus.bidirectional:
                total += bus.bi_widths.get(partition, 0)
            else:
                total += bus.out_widths.get(partition, 0)
                total += bus.in_widths.get(partition, 0)
        return total

    def pin_report(self, partitions: Iterable[int]) -> Dict[int, int]:
        return {p: self.pins_used(p) for p in partitions}

    def capable_buses(self, io: Node) -> List[Bus]:
        return [bus for bus in self.buses if bus.capable(io)]

    def pins_used_split(self, partition: int) -> Tuple[int, int]:
        """(output, input) pins used — meaningful for unidirectional
        ports; bidirectional widths count on the output side."""
        out_used = in_used = 0
        for bus in self.buses:
            if bus.bidirectional:
                out_used += bus.bi_widths.get(partition, 0)
            else:
                out_used += bus.out_widths.get(partition, 0)
                in_used += bus.in_widths.get(partition, 0)
        return out_used, in_used

    def check_budget(self, partitioning: Partitioning) -> List[str]:
        """Pin-budget violation report (delegated to the unified
        :class:`repro.pipeline.resource_table.PinLedger`, whose
        message strings are the stable contract here)."""
        # Imported here: the pipeline layer sits above the bus model.
        from repro.pipeline.resource_table import PinLedger
        return PinLedger.from_interconnect(self, partitioning).violations()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interconnect({len(self.buses)} buses)"


@dataclass
class BusAssignment:
    """Assignment of I/O operations to buses (and starting segments).

    ``bus_of`` maps op name -> bus index; ``segment_of`` maps op name ->
    starting segment (0 for unsplit buses).
    """

    bus_of: Dict[str, int] = field(default_factory=dict)
    segment_of: Dict[str, int] = field(default_factory=dict)

    def assign(self, op: str, bus: int, segment: int = 0) -> None:
        self.bus_of[op] = bus
        self.segment_of[op] = segment

    def of(self, op: str) -> Tuple[int, int]:
        return self.bus_of[op], self.segment_of.get(op, 0)

    def copy(self) -> "BusAssignment":
        return BusAssignment(dict(self.bus_of), dict(self.segment_of))

    def by_bus(self) -> Dict[int, List[str]]:
        out: Dict[int, List[str]] = {}
        for op, bus in sorted(self.bus_of.items()):
            out.setdefault(bus, []).append(op)
        return out

