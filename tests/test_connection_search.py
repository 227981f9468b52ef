"""Tests for the Figure 4.3 heuristic connection search."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.core.connection_search import ConnectionSearch
from repro.errors import ConnectionError_
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning


def pins(bidirectional=False, **totals):
    chips = {OUTSIDE_WORLD: ChipSpec(totals.pop("world", 256),
                                     bidirectional=bidirectional)}
    for key, total in totals.items():
        chips[int(key[1:])] = ChipSpec(total, bidirectional=bidirectional)
    return Partitioning(chips)


def transfers(*specs):
    """specs: (name, value, src, dst, width)"""
    g = Cdfg()
    for name, value, src, dst, width in specs:
        g.add_node(make_io_node(name, value, src, dst, bit_width=width))
    return g


class TestBasics:
    def test_every_op_assigned_to_capable_bus(self):
        g = transfers(("w0", "a", 1, 2, 8), ("w1", "b", 1, 2, 16),
                      ("w2", "c", 2, 3, 8))
        ic, assignment = ConnectionSearch(g, pins(p1=64, p2=64, p3=64),
                                          2).run()
        for node in g.io_nodes():
            bus = ic.bus(assignment.bus_of[node.name])
            assert bus.capable(node)

    def test_pin_budgets_respected(self):
        g = transfers(*[(f"w{i}", f"v{i}", 1, 2, 8) for i in range(4)])
        p = pins(p1=16, p2=16)
        ic, _ = ConnectionSearch(g, p, 2).run()
        assert ic.check_budget(p) == []
        assert len(ic.buses) == 2  # 4 ops / 2 slots each

    def test_same_value_lands_on_one_bus(self):
        # g2 pushes sibling transfers onto a shared bus.
        g = transfers(("wa", "v", 1, 2, 8), ("wb", "v", 1, 3, 8),
                      ("wc", "u", 1, 2, 8))
        ic, assignment = ConnectionSearch(g, pins(p1=24, p2=16, p3=8),
                                          1).run()
        assert assignment.bus_of["wa"] == assignment.bus_of["wb"]

    def test_capacity_limits_values_per_bus(self):
        g = transfers(*[(f"w{i}", f"v{i}", 1, 2, 8) for i in range(6)])
        ic, assignment = ConnectionSearch(g, pins(p1=256, p2=256),
                                          3).run()
        per_bus = {}
        for op, bus in assignment.bus_of.items():
            per_bus.setdefault(bus, set()).add(g.node(op).value)
        assert all(len(v) <= 3 for v in per_bus.values())

    def test_infeasible_budget_raises(self):
        g = transfers(("w0", "a", 1, 2, 16))
        with pytest.raises(ConnectionError_):
            ConnectionSearch(g, pins(p1=8, p2=8), 2).run()

    def test_slot_reserve_opens_more_buses(self):
        g = transfers(*[(f"w{i}", f"v{i}", 1, 2, 8) for i in range(6)])
        base_ic, _ = ConnectionSearch(g, pins(p1=256, p2=256), 6).run()
        wide_ic, _ = ConnectionSearch(g, pins(p1=256, p2=256), 6,
                                      slot_reserve=4).run()
        assert len(wide_ic.buses) > len(base_ic.buses)


class TestBidirectional:
    def test_bidirectional_ports_shared_between_directions(self):
        g = transfers(("fwd", "a", 1, 2, 8), ("bwd", "b", 2, 1, 8))
        p = pins(bidirectional=True, p1=8, p2=8)
        ic, assignment = ConnectionSearch(g, p, 2).run()
        # One 8-bit bidirectional bus serves both transfers.
        assert len(ic.buses) == 1
        assert ic.pins_used(1) == 8
        assert ic.pins_used(2) == 8

    def test_unidirectional_needs_double(self):
        g = transfers(("fwd", "a", 1, 2, 8), ("bwd", "b", 2, 1, 8))
        with pytest.raises(ConnectionError_):
            ConnectionSearch(g, pins(p1=8, p2=8), 2).run()
        ic, _ = ConnectionSearch(g, pins(p1=16, p2=16), 2).run()
        assert ic.pins_used(1) == 16


class TestPortWidths:
    def test_port_narrower_than_bus(self):
        # The Figure 4.2 case: a bus carries 16-bit values from P1 and
        # 8-bit values from P2 to P3 — P2's output port stays 8 wide.
        g = transfers(("wide", "a", 1, 3, 16), ("narrow", "b", 2, 3, 8))
        ic, assignment = ConnectionSearch(g, pins(p1=16, p2=8, p3=24),
                                          2).run()
        if assignment.bus_of["wide"] == assignment.bus_of["narrow"]:
            bus = ic.bus(assignment.bus_of["wide"])
            assert bus.out_widths[1] == 16
            assert bus.out_widths[2] == 8

    def test_share_groups_treated_as_one_value(self):
        g = transfers(("c1", "u", 1, 2, 8), ("c2", "w", 1, 2, 8))
        groups = {"c1": "grp", "c2": "grp"}
        ic, assignment = ConnectionSearch(g, pins(p1=8, p2=8), 1,
                                          share_groups=groups).run()
        # One slot at L=1 suffices because the two conditional
        # transfers share it.
        assert assignment.bus_of["c1"] == assignment.bus_of["c2"]


class TestEndToEndAllocation:
    def test_full_flow_verifies(self):
        from repro import synthesize_connection_first
        from repro.check import check_result
        from repro.designs import (AR_GENERAL_PINS_UNIDIR,
                                   ar_general_design)
        from repro.modules.library import ar_filter_timing
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3)
        assert result.verify() == []
        report = check_result(result, rules=("assignment", "bus-capable",
                                             "bus-conflict"))
        assert report.violations == []
