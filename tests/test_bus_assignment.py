"""Tests for dynamic bus (re)assignment during scheduling (Sec 4.2/6.2)."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.core.bus_assignment import BusAllocator
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import BusAssignmentError
from repro.modules.library import ar_filter_timing
from repro.scheduling.base import Schedule


def two_bus_setup():
    """The Figure 4.4 example: w1..w4 over buses C1, C2."""
    g = Cdfg()
    for i in range(1, 5):
        g.add_node(make_io_node(f"w{i}", f"v{i}", 1, 2, bit_width=8))
    ic = Interconnect([
        Bus(1, out_widths={1: 8}, in_widths={2: 8}),
        Bus(2, out_widths={1: 8}, in_widths={2: 8}),
    ])
    initial = BusAssignment()
    initial.assign("w1", 1)
    initial.assign("w2", 1)
    initial.assign("w3", 2)
    initial.assign("w4", 2)
    return g, ic, initial


def make_schedule(g, L=2):
    return Schedule(g, ar_filter_timing(), L)


class TestReassignment:
    def test_figure_4_4_preemption(self):
        # w1 scheduled on C1 step s; w2 (also on C1) wants step s:
        # reassignment moves w2 to C2 (w3/w4 have slack).
        g, ic, initial = two_bus_setup()
        alloc = BusAllocator(g, ic, initial, initiation_rate=2)
        schedule = make_schedule(g)
        w1, w2 = g.node("w1"), g.node("w2")
        assert alloc.can_schedule(w1, 0, schedule)
        alloc.commit(w1, 0, schedule)
        assert alloc.can_schedule(w2, 0, schedule)
        alloc.commit(w2, 0, schedule)
        assert alloc.final_assignment().bus_of["w2"] == 2
        assert alloc.reassignments >= 1
        # The allocator works on its own copy: allocators built from
        # the same initial assignment (one per attempt) never see it.
        assert initial.bus_of["w2"] == 1

    def test_static_mode_postpones_instead(self):
        g, ic, initial = two_bus_setup()
        alloc = BusAllocator(g, ic, initial, initiation_rate=2,
                             reassignment=False)
        schedule = make_schedule(g)
        alloc.commit(g.node("w1"), 0, schedule)
        assert not alloc.can_schedule(g.node("w2"), 0, schedule)
        assert alloc.can_schedule(g.node("w2"), 1, schedule)

    def test_same_value_same_step_shares_slot(self):
        g = Cdfg()
        g.add_node(make_io_node("wa", "v", 1, 2, bit_width=8))
        g.add_node(make_io_node("wb", "v", 1, 3, bit_width=8))
        ic = Interconnect([Bus(1, out_widths={1: 8},
                               in_widths={2: 8, 3: 8})])
        initial = BusAssignment()
        initial.assign("wa", 1)
        initial.assign("wb", 1)
        alloc = BusAllocator(g, ic, initial, initiation_rate=1)
        schedule = make_schedule(g, L=1)
        alloc.commit(g.node("wa"), 0, schedule)
        # Same value, same step: allowed on the same (bus, group).
        assert alloc.can_schedule(g.node("wb"), 0, schedule)
        alloc.commit(g.node("wb"), 0, schedule)
        # A different value cannot share that slot.
        g2, ic2, initial2 = two_bus_setup()
        alloc2 = BusAllocator(g2, ic2, initial2, initiation_rate=1)
        sched2 = make_schedule(g2, L=1)
        alloc2.commit(g2.node("w1"), 0, sched2)
        assert not alloc2.can_schedule(g2.node("w2"), 0, sched2)

    def test_capacity_counts_unscheduled_demand(self):
        # Four ops, one 2-slot bus: only two can ever live there; the
        # allocator must refuse to strand the others.
        g = Cdfg()
        for i in range(3):
            g.add_node(make_io_node(f"w{i}", f"v{i}", 1, 2, bit_width=8))
        ic = Interconnect([Bus(1, out_widths={1: 8}, in_widths={2: 8})])
        initial = BusAssignment()
        for i in range(3):
            initial.assign(f"w{i}", 1)
        alloc = BusAllocator(g, ic, initial, initiation_rate=2)
        schedule = make_schedule(g)
        alloc.commit(g.node("w0"), 0, schedule)
        alloc.commit(g.node("w1"), 1, schedule)
        # Both groups taken; w2 has nowhere to go.
        assert not alloc.can_schedule(g.node("w2"), 0, schedule)
        assert not alloc.can_schedule(g.node("w2"), 1, schedule)

    def test_incapable_initial_assignment_rejected(self):
        g = Cdfg()
        g.add_node(make_io_node("w", "v", 1, 2, bit_width=16))
        ic = Interconnect([Bus(1, out_widths={1: 8}, in_widths={2: 8})])
        initial = BusAssignment()
        initial.assign("w", 1)
        with pytest.raises(BusAssignmentError):
            BusAllocator(g, ic, initial, initiation_rate=2)

    def test_missing_assignment_rejected(self):
        g = Cdfg()
        g.add_node(make_io_node("w", "v", 1, 2))
        ic = Interconnect([Bus(1, out_widths={1: 8}, in_widths={2: 8})])
        with pytest.raises(BusAssignmentError):
            BusAllocator(g, ic, BusAssignment(), initiation_rate=2)


class TestSubBusAllocation:
    def split_setup(self):
        g = Cdfg()
        g.add_node(make_io_node("small1", "s1", 1, 2, bit_width=8))
        g.add_node(make_io_node("small2", "s2", 1, 2, bit_width=8))
        g.add_node(make_io_node("wide", "wd", 1, 2, bit_width=16))
        ic = Interconnect([Bus(1, out_widths={1: 16}, in_widths={2: 16},
                               segments=[8, 8])])
        initial = BusAssignment()
        initial.assign("small1", 1, segment=0)
        initial.assign("small2", 1, segment=1)
        initial.assign("wide", 1, segment=0)
        return g, ic, initial

    def test_two_values_share_a_cycle(self):
        g, ic, initial = self.split_setup()
        alloc = BusAllocator(g, ic, initial, initiation_rate=2)
        schedule = make_schedule(g)
        alloc.commit(g.node("small1"), 0, schedule)
        # Different segment, same step: fine.
        assert alloc.can_schedule(g.node("small2"), 0, schedule)
        alloc.commit(g.node("small2"), 0, schedule)
        # The wide value needs both segments: group 0 is full.
        assert not alloc.can_schedule(g.node("wide"), 0, schedule)
        assert alloc.can_schedule(g.node("wide"), 1, schedule)

    def test_wide_op_blocks_whole_cycle(self):
        g, ic, initial = self.split_setup()
        alloc = BusAllocator(g, ic, initial, initiation_rate=2)
        schedule = make_schedule(g)
        alloc.commit(g.node("wide"), 0, schedule)
        assert not alloc.can_schedule(g.node("small1"), 0, schedule)
        assert alloc.can_schedule(g.node("small1"), 1, schedule)
