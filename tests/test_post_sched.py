"""Tests for Chapter 5 connection synthesis after scheduling."""

from fractions import Fraction

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.core.post_sched import (PostScheduleConnector,
                                   connect_after_scheduling, pair_weight)
from repro.check import check_result
from repro.check.rules import enforceable_violations
from repro.core.flow import SynthesisResult
from repro.errors import ConnectionError_
from repro.modules.library import ar_filter_timing
from repro.scheduling.base import Schedule


def scheduled_graph(specs, placements, L=2):
    g = Cdfg()
    for name, value, src, dst, width in specs:
        g.add_node(make_io_node(name, value, src, dst, bit_width=width))
    s = Schedule(g, ar_filter_timing(), L)
    for name, step in placements.items():
        s.place(name, step)
    return g, s


class TestPairWeight:
    def n(self, name, src, dst, width=8):
        return make_io_node(name, name, src, dst, bit_width=width)

    def test_both_ends_shared(self):
        w = pair_weight(self.n("a", 1, 2), self.n("b", 1, 2), False, {})
        assert w == 16  # 8 output + 8 input pins shareable

    def test_source_only(self):
        w = pair_weight(self.n("a", 1, 2), self.n("b", 1, 3), False, {})
        assert w == 8

    def test_nothing_shared(self):
        w = pair_weight(self.n("a", 1, 2), self.n("b", 3, 4), False, {})
        assert w == 0

    def test_min_width_rule(self):
        w = pair_weight(self.n("a", 1, 2, 16), self.n("b", 1, 2, 8),
                        False, {})
        assert w == 16  # min(16, 8) per shared end

    def test_bidirectional_reversed_pair_shares(self):
        # w=(P1,P2) and w'=(P2,P1) share both ports with bidi pins.
        w = pair_weight(self.n("a", 1, 2), self.n("b", 2, 1), True, {})
        assert w == 16

    def test_weighting_factor(self):
        w = pair_weight(self.n("a", 1, 2), self.n("b", 1, 2), False,
                        {1: Fraction(3)})
        assert w == 8 * 3 + 8


class TestCliquePartitioning:
    def test_different_groups_merge(self):
        g, s = scheduled_graph(
            [("w0", "v0", 1, 2, 8), ("w1", "v1", 1, 2, 8)],
            {"w0": 0, "w1": 1})
        ic, assignment = connect_after_scheduling(g, s)
        # Same route, different groups: one shared bus.
        assert len(ic.buses) == 1
        assert ic.pins_used(1) == 8

    def test_same_group_cannot_merge(self):
        g, s = scheduled_graph(
            [("w0", "v0", 1, 2, 8), ("w1", "v1", 1, 2, 8)],
            {"w0": 0, "w1": 2})  # both group 0
        ic, _ = connect_after_scheduling(g, s)
        assert len(ic.buses) == 2
        assert ic.pins_used(1) == 16

    def test_same_value_same_step_is_one_supernode(self):
        g, s = scheduled_graph(
            [("wa", "v", 1, 2, 8), ("wb", "v", 1, 3, 8)],
            {"wa": 0, "wb": 0})
        ic, assignment = connect_after_scheduling(g, s)
        assert assignment.bus_of["wa"] == assignment.bus_of["wb"]
        bus = ic.bus(assignment.bus_of["wa"])
        assert bus.out_widths[1] == 8
        assert bus.in_widths == {2: 8, 3: 8}

    def test_port_widths_cover_members(self):
        g, s = scheduled_graph(
            [("w0", "v0", 1, 2, 16), ("w1", "v1", 1, 2, 8)],
            {"w0": 0, "w1": 1})
        ic, assignment = connect_after_scheduling(g, s)
        bus = ic.bus(assignment.bus_of["w0"])
        assert bus.out_widths[1] == 16

    def test_allocation_conflict_free(self):
        specs = [(f"w{i}", f"v{i}", 1 + i % 2, 3, 8) for i in range(6)]
        placements = {f"w{i}": i for i in range(6)}
        g, s = scheduled_graph(specs, placements, L=3)
        ic, assignment = connect_after_scheduling(g, s)
        result = SynthesisResult(g, None, 3, s, {}, interconnect=ic,
                                 assignment=assignment)
        report = check_result(result, rules=("assignment", "bus-capable",
                                             "bus-conflict"))
        assert report.violations == []

    def test_unscheduled_op_rejected(self):
        g, s = scheduled_graph([("w0", "v0", 1, 2, 8)], {})
        with pytest.raises(ConnectionError_):
            connect_after_scheduling(g, s)

    def test_bidirectional_reduces_pins(self):
        specs = [("fwd", "a", 1, 2, 8), ("bwd", "b", 2, 1, 8)]
        placements = {"fwd": 0, "bwd": 1}
        g, s = scheduled_graph(specs, placements)
        uni_ic, _ = connect_after_scheduling(g, s, bidirectional=False)
        g2, s2 = scheduled_graph(specs, placements)
        bi_ic, _ = connect_after_scheduling(g2, s2, bidirectional=True)
        assert bi_ic.pins_used(1) < uni_ic.pins_used(1)


class TestEndToEnd:
    def test_ar_flow(self):
        from repro import synthesize_schedule_first
        from repro.designs import AR_GENERAL_PINS_UNIDIR, ar_general_design
        result = synthesize_schedule_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3, pipe_length=9)
        assert result.pipe_length <= 9
        assert enforceable_violations(result, result.check) == []

    def test_elliptic_flow_at_boundary_rate(self):
        from repro import synthesize_schedule_first
        from repro.designs import ELLIPTIC_PINS_UNIDIR, elliptic_design
        from repro.modules.library import elliptic_filter_timing
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 5, pipe_length=24)
        assert enforceable_violations(result, result.check) == []
