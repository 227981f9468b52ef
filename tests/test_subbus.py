"""Tests for Chapter 6 sub-bus sharing."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.core.subbus import (SubBusConnectionSearch,
                               synthesize_connection_subbus)
from repro.errors import ConnectionError_
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning


def pins(bidirectional=True, **totals):
    chips = {OUTSIDE_WORLD: ChipSpec(totals.pop("world", 256),
                                     bidirectional=bidirectional)}
    for key, total in totals.items():
        chips[int(key[1:])] = ChipSpec(total, bidirectional=bidirectional)
    return Partitioning(chips)


def transfers(*specs):
    g = Cdfg()
    for name, value, src, dst, width in specs:
        g.add_node(make_io_node(name, value, src, dst, bit_width=width))
    return g


class TestSplitting:
    def test_split_shares_bus_under_pin_pressure(self):
        # Values of 16, 8, 8 bits at L=2 on a 16-pin budget: without
        # sharing, three values need three slots but only one 16-wide
        # bus (2 slots) fits the pins; splitting the bus 8/8 lets the
        # two narrow values share one cycle.
        g = transfers(("wide", "a", 1, 2, 16), ("w1", "b", 1, 2, 8),
                      ("w2", "c", 1, 2, 8))
        p = pins(p1=16, p2=16)
        with pytest.raises(ConnectionError_):
            from repro.core.connection_search import ConnectionSearch
            ConnectionSearch(g, p, 2).run()
        ic, assignment = synthesize_connection_subbus(g, p, 2)
        assert ic.check_budget(p) == []
        split = [b for b in ic.buses if len(b.effective_segments()) > 1]
        assert split, "expected at least one split bus"

    def test_segment_geometry(self):
        g = transfers(("wide", "a", 1, 2, 16), ("narrow", "b", 1, 2, 8),
                      ("narrow2", "c", 1, 2, 8))
        p = pins(p1=16, p2=16)
        ic, assignment = synthesize_connection_subbus(g, p, 2)
        assert ic.check_budget(p) == []
        for bus in ic.buses:
            assert sum(bus.effective_segments()) == bus.width

    def test_assignment_capability_holds(self):
        g = transfers(("w0", "a", 1, 2, 12), ("w1", "b", 1, 2, 8),
                      ("w2", "c", 2, 3, 8), ("w3", "d", 1, 3, 16))
        p = pins(p1=40, p2=36, p3=28)
        ic, assignment = synthesize_connection_subbus(g, p, 2)
        for node in g.io_nodes():
            bus_index, segment = assignment.of(node.name)
            assert ic.bus(bus_index).capable(node, segment)

    def test_port_prefix_rule(self):
        # An op on the second segment needs ports spanning segment 1
        # too (Equation 6.9).
        g = transfers(("w0", "a", 1, 2, 8), ("w1", "b", 1, 2, 8),
                      ("w2", "c", 3, 2, 8))
        p = pins(p1=16, p2=24, p3=16)
        ic, assignment = synthesize_connection_subbus(g, p, 1)
        for node in g.io_nodes():
            bus_index, segment = assignment.of(node.name)
            bus = ic.bus(bus_index)
            if segment > 0:
                need = bus.segment_offset(segment) + node.bit_width
                assert bus.bi_widths[node.source_partition] >= need
                assert bus.bi_widths[node.dest_partition] >= need


class TestEndToEnd:
    def test_ch6_flow_on_ar(self):
        from repro import synthesize_connection_first
        from repro.designs import AR_GENERAL_PINS_BIDIR, ar_general_design
        from repro.modules.library import ar_filter_timing
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_BIDIR,
            ar_filter_timing(), 5, subbus_sharing=True)
        assert result.verify() == []

    def test_full_flow_fits_where_plain_does_not(self):
        # Table 6.4's core claim end-to-end: with sub-bus sharing the
        # same design fits a pin budget the unsplit flow cannot.
        from repro import synthesize_connection_first
        from repro.errors import ReproError
        from repro.modules.library import DesignTiming, HardwareModule, \
            ModuleSet
        b_timing = DesignTiming(
            clock_period=100.0,
            default=ModuleSet.of(
                HardwareModule("adder", "add", delay_ns=40.0)),
            io_delay_ns=10.0, chaining=False)
        from repro.cdfg.builder import CdfgBuilder
        bld = CdfgBuilder("t64")
        src16 = bld.op("s16", "add", 1, bit_width=16)
        src8a = bld.op("s8a", "add", 1, bit_width=8)
        src8b = bld.op("s8b", "add", 1, bit_width=8)
        bld.io("wide", "a", source=src16, dests=[], source_partition=1,
               dest_partition=2, bit_width=16)
        bld.io("n1", "b", source=src8a, dests=[], source_partition=1,
               dest_partition=2, bit_width=8)
        bld.io("n2", "c", source=src8b, dests=[], source_partition=1,
               dest_partition=2, bit_width=8)
        graph = bld.build()
        tight = Partitioning({
            OUTSIDE_WORLD: ChipSpec(0, bidirectional=True),
            1: ChipSpec(16, bidirectional=True),
            2: ChipSpec(16, bidirectional=True),
        })
        with pytest.raises(ReproError):
            synthesize_connection_first(graph, tight, b_timing, 2)
        shared = synthesize_connection_first(graph, tight, b_timing, 2,
                                             subbus_sharing=True)
        assert shared.verify() == []
        assert shared.pins_used()[1] <= 16
