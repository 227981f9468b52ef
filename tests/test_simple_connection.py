"""Tests for the Theorem 3.1 constructive connection builder."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.check import check_result
from repro.core.flow import SynthesisResult
from repro.core.simple_connection import build_simple_connection
from repro.errors import ConnectionError_
from repro.modules.library import ar_filter_timing
from repro.scheduling.base import Schedule


def schedule_for(graph, placements, L=2):
    s = Schedule(graph, ar_filter_timing(), L)
    for name, step in placements.items():
        s.place(name, step)
    return s


def alloc_problems(graph, schedule, allocation):
    """Messages of the Theorem 3.1 ``simple-alloc`` rule."""
    result = SynthesisResult(graph, None, schedule.initiation_rate,
                             schedule, {}, simple_allocation=allocation)
    report = check_result(result, rules=("simple-alloc",))
    return [v.message for v in report.violations]


class TestPlainPair:
    def test_bundle_sized_to_peak_group(self):
        g = Cdfg()
        g.add_node(make_io_node("w0", "v0", 1, 2, bit_width=8))
        g.add_node(make_io_node("w1", "v1", 1, 2, bit_width=8))
        g.add_node(make_io_node("w2", "v2", 1, 2, bit_width=8))
        # Two transfers in group 0, one in group 1 -> 16-wire bundle.
        s = schedule_for(g, {"w0": 0, "w1": 2, "w2": 1})
        result = build_simple_connection(g, s)
        assert result.pins_used(1) == 16
        assert result.pins_used(2) == 16
        assert alloc_problems(g, s, result) == []


class TestFanoutStar:
    def graph(self):
        g = Cdfg()
        # P4 -> {P1, P2}: two values, each to both destinations.
        g.add_node(make_io_node("a1", "v5", 4, 1, bit_width=8))
        g.add_node(make_io_node("a2", "v5", 4, 2, bit_width=8))
        g.add_node(make_io_node("b1", "v6", 4, 1, bit_width=8))
        g.add_node(make_io_node("b2", "v6", 4, 2, bit_width=8))
        return g

    def test_shared_values_share_bundle(self):
        g = self.graph()
        # v5 in step 0 (both transfers), v6 in step 1: one shared
        # 8-wire bundle C suffices (M_a = M_b = O_f = 8).
        s = schedule_for(g, {"a1": 0, "a2": 0, "b1": 1, "b2": 1})
        result = build_simple_connection(g, s)
        assert result.pins_used(4) == 8
        assert result.pins_used(1) == 8
        assert result.pins_used(2) == 8
        assert alloc_problems(g, s, result) == []

    def test_unshared_schedule_needs_more_output(self):
        g = self.graph()
        # v5 to P1 in step 0 but to P2 in step 1 (and vice versa for
        # v6): nothing shares, so O_f = 16.
        s = schedule_for(g, {"a1": 0, "a2": 1, "b1": 1, "b2": 0})
        result = build_simple_connection(g, s)
        assert result.pins_used(4) == 16
        assert alloc_problems(g, s, result) == []


class TestFaninStar:
    def test_shared_input_bundle(self):
        g = Cdfg()
        # {P1, P2} -> P3, two transfers each.
        g.add_node(make_io_node("x1", "v1", 1, 3, bit_width=8))
        g.add_node(make_io_node("x2", "v2", 1, 3, bit_width=8))
        g.add_node(make_io_node("x3", "v3", 2, 3, bit_width=8))
        g.add_node(make_io_node("x4", "v4", 2, 3, bit_width=8))
        # Peak per group into P3: 16 bits (one from each driver).
        s = schedule_for(g, {"x1": 0, "x2": 1, "x3": 0, "x4": 1})
        result = build_simple_connection(g, s)
        assert result.pins_used(3) == 16
        assert alloc_problems(g, s, result) == []

    def test_overflow_rides_shared_bundle(self):
        g = Cdfg()
        g.add_node(make_io_node("x1", "v1", 1, 3, bit_width=8))
        g.add_node(make_io_node("x2", "v2", 1, 3, bit_width=8))
        g.add_node(make_io_node("x3", "v3", 2, 3, bit_width=8))
        # Group 0 carries x1+x3 (16 bits), group 1 carries x2 (8).
        # M_a = 16? No: from P1 peak is 8 (x1 g0, x2 g1); from P2 8.
        s = schedule_for(g, {"x1": 0, "x2": 1, "x3": 0})
        result = build_simple_connection(g, s)
        assert alloc_problems(g, s, result) == []
        assert result.pins_used(3) == 16


class TestRejections:
    def test_non_simple_partitioning_rejected(self):
        g = Cdfg()
        for i, dst in enumerate((2, 3, 4)):
            g.add_node(make_io_node(f"w{i}", f"v{i}", 1, dst))
        s = schedule_for(g, {"w0": 0, "w1": 0, "w2": 1})
        with pytest.raises(ConnectionError_):
            build_simple_connection(g, s)


class TestEndToEnd:
    def test_ar_simple_flow_fits_budgets(self):
        from repro import synthesize_simple
        from repro.designs import AR_SIMPLE_PINS, ar_simple_design
        result = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                                   ar_filter_timing(), 2)
        pins = result.pins_used()
        assert pins[1] <= 48 and pins[2] <= 48
        assert pins[3] <= 32 and pins[4] <= 32
        assert result.verify() == []
        # The budgets are tight: the design uses them fully.
        assert pins[1] == 48 and pins[3] == 32
