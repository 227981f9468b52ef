"""Tests for the related-work baselines (Section 1.3 comparisons)."""

import pytest

from repro.core.baselines import (gebotys_connection, gebotys_pin_cost,
                                  no_sharing_pin_cost)
from repro.designs import (AR_GENERAL_PINS_UNIDIR, ar_general_design)
from repro.errors import ConnectionError_
from repro.modules.library import ar_filter_timing
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning
from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node


def two_chip_graph():
    g = Cdfg()
    g.add_node(make_io_node("w0", "a", 1, 2, bit_width=8))
    g.add_node(make_io_node("w1", "b", 1, 2, bit_width=16))
    g.add_node(make_io_node("w2", "c", 2, 1, bit_width=8))
    return g


class TestGebotysBaseline:
    def test_uniform_width_and_full_fanout(self):
        g = two_chip_graph()
        p = Partitioning({OUTSIDE_WORLD: ChipSpec(0),
                          1: ChipSpec(128), 2: ChipSpec(128)})
        ic, assignment = gebotys_connection(g, p, 2)
        # 3 values / 2 slots -> 2 buses, all 16 bits wide, both chips
        # on both sides of every bus.
        assert len(ic.buses) == 2
        for bus in ic.buses:
            assert bus.width == 16
            assert set(bus.out_widths) == {1, 2}
            assert set(bus.in_widths) == {1, 2}
        assert set(assignment.bus_of) == {"w0", "w1", "w2"}

    def test_budget_violation_raises(self):
        g = two_chip_graph()
        p = Partitioning({OUTSIDE_WORLD: ChipSpec(0),
                          1: ChipSpec(32), 2: ChipSpec(32)})
        with pytest.raises(ConnectionError_):
            gebotys_connection(g, p, 2)

    def test_pin_cost_grows_with_chip_count(self):
        # The dissertation's critique: "the larger number of chips in a
        # system, the more I/O pins are likely to be wasted".
        def chain_graph(n_chips):
            g = Cdfg()
            for i in range(1, n_chips):
                g.add_node(make_io_node(f"w{i}", f"v{i}", i, i + 1,
                                        bit_width=8))
            return g

        def total(n_chips):
            chips = {OUTSIDE_WORLD: ChipSpec(0)}
            chips.update({i: ChipSpec(10_000)
                          for i in range(1, n_chips + 1)})
            p = Partitioning(chips)
            return sum(gebotys_pin_cost(chain_graph(n_chips), p,
                                        2).values())

        # Our heuristic's cost for a chain is linear in chips; the
        # uniform-bus baseline is quadratic-ish.
        assert total(6) / total(3) > 6 / 3

    def test_paper_comparison_on_ar_filter(self):
        from repro import synthesize_connection_first
        graph = ar_general_design()
        ours = synthesize_connection_first(
            graph, AR_GENERAL_PINS_UNIDIR, ar_filter_timing(), 3)
        baseline = gebotys_pin_cost(graph, AR_GENERAL_PINS_UNIDIR, 3)
        assert sum(baseline.values()) > sum(ours.pins_used().values())


class TestNoSharingBaseline:
    def test_sums_all_transfers(self):
        g = two_chip_graph()
        p = Partitioning({OUTSIDE_WORLD: ChipSpec(0),
                          1: ChipSpec(64), 2: ChipSpec(64)})
        costs = no_sharing_pin_cost(g, p)
        # chip1: outputs a(8)+b(16)=24, input c(8)=8 -> 32.
        assert costs[1] == 32
        # chip2: inputs 8+16=24, output 8 -> 32.
        assert costs[2] == 32

    def test_multifanout_output_counted_once(self):
        g = Cdfg()
        g.add_node(make_io_node("wa", "v", 1, 2, bit_width=8))
        g.add_node(make_io_node("wb", "v", 1, 3, bit_width=8))
        p = Partitioning({OUTSIDE_WORLD: ChipSpec(0), 1: ChipSpec(64),
                          2: ChipSpec(64), 3: ChipSpec(64)})
        costs = no_sharing_pin_cost(g, p)
        assert costs[1] == 8

    def test_exceeds_time_shared_design(self):
        from repro import synthesize_connection_first
        graph = ar_general_design()
        ours = synthesize_connection_first(
            graph, AR_GENERAL_PINS_UNIDIR, ar_filter_timing(), 5)
        baseline = no_sharing_pin_cost(graph, AR_GENERAL_PINS_UNIDIR)
        # At rate 5 the heuristic multiplexes five transfers per pin
        # group; the no-sharing cost must be far larger.
        assert sum(baseline.values()) > sum(ours.pins_used().values())
