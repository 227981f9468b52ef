"""Tests for allocation wheels and recursive-edge bounds (Section 7.4/7.1)."""

import pytest

from repro.cdfg import CdfgBuilder
from repro.cdfg.analysis import UnitTiming
from repro.errors import SchedulingError
from repro.scheduling.constraints import (AllocationWheel,
                                          recursive_edge_bounds)
from repro.scheduling.list_scheduler import compile_design


class TestAllocationWheel:
    def test_contiguous_occupancy(self):
        wheel = AllocationWheel(6)
        assert wheel.fits(0, 2)
        wheel.occupy(0, 2)
        assert not wheel.fits(1, 2)
        assert wheel.fits(2, 2)

    def test_wraparound(self):
        wheel = AllocationWheel(4)
        wheel.occupy(3, 2)  # cells 3, 0
        assert not wheel.fits(0, 1)
        assert wheel.fits(1, 2)

    def test_double_booking_raises(self):
        wheel = AllocationWheel(4)
        wheel.occupy(0, 2)
        with pytest.raises(SchedulingError):
            wheel.occupy(1, 2)

    def test_release(self):
        wheel = AllocationWheel(4)
        wheel.occupy(0, 2)
        wheel.release(0, 2)
        assert wheel.fits(0, 4)

    def test_op_longer_than_wheel_rejected(self):
        wheel = AllocationWheel(2)
        with pytest.raises(SchedulingError):
            wheel.fits(0, 3)

    def test_capacity_empty_wheel(self):
        assert AllocationWheel(6).capacity(2) == 3
        assert AllocationWheel(5).capacity(2) == 2

    def test_capacity_fragmentation(self):
        # The Section 7.4 example: L=6, 2-cycle ops at steps 0 and 3
        # strand the remaining capacity (cells 2 and 5 are isolated).
        wheel = AllocationWheel(6)
        wheel.occupy(0, 2)
        wheel.occupy(3, 2)
        assert wheel.capacity(2) == 0
        # Packed placement keeps a usable run instead.
        packed = AllocationWheel(6)
        packed.occupy(0, 2)
        packed.occupy(2, 2)
        assert packed.capacity(2) == 1

    def test_capacity_wrapping_run(self):
        wheel = AllocationWheel(6)
        wheel.occupy(2, 2)  # free: 4,5,0,1 contiguous around the wrap
        assert wheel.capacity(2) == 2
        assert wheel.capacity(4) == 1

    def test_free_cells(self):
        wheel = AllocationWheel(4)
        wheel.occupy(1, 2)
        assert wheel.free_cells() == [0, 3]


class TestRecursiveBounds:
    def graph(self):
        b = CdfgBuilder()
        x = b.op("x", "add", 1)
        y = b.op("y", "mul", 1, inputs=[x])
        b.recursive(y, x, degree=2)
        return b.build()

    def test_bounds_formula(self):
        g = self.graph()
        timing = UnitTiming(cycles_by_op_type={"mul": 3})
        bounds = recursive_edge_bounds(g, timing, initiation_rate=4)
        # slack = d*L - c_producer = 2*4 - 3 = 5
        assert bounds == [("y", "x", 5)]

    def test_deadline_from_scheduled_consumer(self):
        g = self.graph()
        timing = UnitTiming(cycles_by_op_type={"mul": 3})
        deadline = compile_design(g, timing, 4).recursive_deadline(
            "y", {"x": 2})
        assert deadline == 2 + 2 * 4 - 3

    def test_no_deadline_when_consumer_unscheduled(self):
        g = self.graph()
        timing = UnitTiming()
        assert compile_design(g, timing, 4).recursive_deadline(
            "y", {}) is None

    def test_non_producer_has_no_deadline(self):
        g = self.graph()
        timing = UnitTiming()
        assert compile_design(g, timing, 4).recursive_deadline(
            "x", {"x": 0}) is None
