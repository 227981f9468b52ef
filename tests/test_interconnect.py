"""Tests for the bus/port/sub-bus interconnect model."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.check import check_result
from repro.core.flow import SynthesisResult
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import ConnectionError_
from repro.modules.library import ar_filter_timing
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning
from repro.scheduling.base import Schedule


class TestBus:
    def test_capability_unidirectional(self):
        bus = Bus(1, out_widths={1: 16, 2: 8}, in_widths={3: 16})
        wide = make_io_node("w", "v", 1, 3, bit_width=16)
        narrow = make_io_node("n", "u", 2, 3, bit_width=8)
        too_wide = make_io_node("t", "t", 2, 3, bit_width=16)
        assert bus.capable(wide)
        assert bus.capable(narrow)
        assert not bus.capable(too_wide)  # P2's port is 8 wide

    def test_capability_bidirectional(self):
        bus = Bus(1, bi_widths={1: 8, 2: 8})
        fwd = make_io_node("f", "v", 1, 2, bit_width=8)
        bwd = make_io_node("b", "u", 2, 1, bit_width=8)
        assert bus.capable(fwd) and bus.capable(bwd)

    def test_width_from_ports(self):
        bus = Bus(1, out_widths={1: 16}, in_widths={2: 12})
        assert bus.width == 16

    def test_segments(self):
        bus = Bus(1, out_widths={1: 16}, in_widths={2: 16},
                  segments=[8, 8])
        assert bus.n_segments == 2
        assert bus.segment_offset(1) == 8
        narrow = make_io_node("n", "v", 1, 2, bit_width=8)
        wide = make_io_node("w", "u", 1, 2, bit_width=16)
        assert bus.fitting_segments(narrow) == [0, 1]
        assert bus.fitting_segments(wide) == [0]
        assert bus.segments_spanned(narrow, 1) == [1]
        assert bus.segments_spanned(wide, 0) == [0, 1]

    def test_segment_overflow_raises(self):
        bus = Bus(1, out_widths={1: 16}, in_widths={2: 16},
                  segments=[8, 8])
        wide = make_io_node("w", "v", 1, 2, bit_width=16)
        with pytest.raises(ConnectionError_):
            bus.segments_spanned(wide, 1)

    def test_second_segment_needs_prefix_ports(self):
        # Eq 6.9: using segment 1 requires ports covering segment 0.
        bus = Bus(1, out_widths={1: 16, 3: 8}, in_widths={2: 16},
                  segments=[8, 8])
        narrow_full = make_io_node("n", "v", 1, 2, bit_width=8)
        narrow_partial = make_io_node("m", "u", 3, 2, bit_width=8)
        assert bus.capable(narrow_full, segment=1)
        assert not bus.capable(narrow_partial, segment=1)  # 8 < 16
        assert bus.capable(narrow_partial, segment=0)

    def test_topology(self):
        a = Bus(1, out_widths={1: 8}, in_widths={2: 8})
        b = Bus(2, out_widths={1: 16}, in_widths={2: 16})
        c = Bus(3, out_widths={2: 8}, in_widths={1: 8})
        assert a.topology() == b.topology()
        assert a.topology() != c.topology()


class TestInterconnect:
    def test_pin_accounting_unidirectional(self):
        ic = Interconnect([
            Bus(1, out_widths={1: 8}, in_widths={2: 8}),
            Bus(2, out_widths={1: 16}, in_widths={2: 16, 3: 16}),
        ])
        assert ic.pins_used(1) == 24
        assert ic.pins_used(2) == 24
        assert ic.pins_used(3) == 16

    def test_pin_accounting_bidirectional(self):
        ic = Interconnect([Bus(1, bi_widths={1: 8, 2: 8})],
                          bidirectional=True)
        assert ic.pins_used(1) == 8

    def test_budget_check(self):
        ic = Interconnect([Bus(1, out_widths={1: 32},
                               in_widths={2: 32})])
        p = Partitioning({OUTSIDE_WORLD: ChipSpec(0),
                          1: ChipSpec(16), 2: ChipSpec(64)})
        problems = ic.check_budget(p)
        assert len(problems) == 1 and "partition 1" in problems[0]

    def test_unknown_bus(self):
        with pytest.raises(ConnectionError_):
            Interconnect([]).bus(7)


def bus_problems(graph, interconnect, assignment, steps, L):
    """Messages of the bus-allocation rules over a bare schedule."""
    schedule = Schedule(graph, ar_filter_timing(), L)
    for name, step in steps.items():
        schedule.place(name, step)
    result = SynthesisResult(graph, None, L, schedule, {},
                             interconnect=interconnect,
                             assignment=assignment)
    report = check_result(result, rules=("assignment", "bus-capable",
                                         "bus-conflict"))
    return [v.message for v in report.violations]


class TestVerifyAllocation:
    def setup_case(self):
        g = Cdfg()
        g.add_node(make_io_node("w0", "v0", 1, 2, bit_width=8))
        g.add_node(make_io_node("w1", "v1", 1, 2, bit_width=8))
        ic = Interconnect([Bus(1, out_widths={1: 8}, in_widths={2: 8})])
        assignment = BusAssignment()
        assignment.assign("w0", 1)
        assignment.assign("w1", 1)
        return g, ic, assignment

    def test_clean_allocation(self):
        g, ic, assignment = self.setup_case()
        steps = {"w0": 0, "w1": 1}
        assert bus_problems(g, ic, assignment, steps, 2) == []

    def test_group_conflict_detected(self):
        g, ic, assignment = self.setup_case()
        steps = {"w0": 0, "w1": 2}  # same group at L=2
        problems = bus_problems(g, ic, assignment, steps, 2)
        assert any("conflicts" in p for p in problems)

    def test_same_value_same_step_allowed(self):
        g = Cdfg()
        g.add_node(make_io_node("wa", "v", 1, 2, bit_width=8))
        g.add_node(make_io_node("wb", "v", 1, 3, bit_width=8))
        ic = Interconnect([Bus(1, out_widths={1: 8},
                               in_widths={2: 8, 3: 8})])
        assignment = BusAssignment()
        assignment.assign("wa", 1)
        assignment.assign("wb", 1)
        steps = {"wa": 0, "wb": 0}
        assert bus_problems(g, ic, assignment, steps, 2) == []

    def test_incapable_bus_detected(self):
        g = Cdfg()
        g.add_node(make_io_node("w", "v", 1, 2, bit_width=16))
        ic = Interconnect([Bus(1, out_widths={1: 8}, in_widths={2: 8})])
        assignment = BusAssignment()
        assignment.assign("w", 1)
        problems = bus_problems(g, ic, assignment, {"w": 0}, 2)
        assert any("cannot carry" in p for p in problems)

    def test_missing_assignment_detected(self):
        g = Cdfg()
        g.add_node(make_io_node("w", "v", 1, 2))
        ic = Interconnect([])
        problems = bus_problems(g, ic, BusAssignment(), {"w": 0}, 2)
        assert any("no bus" in p for p in problems)
