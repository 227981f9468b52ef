"""Tests for the behavioral and cycle-accurate simulators."""

import pytest

from repro import synthesize_connection_first, synthesize_schedule_first
from repro.cdfg import CdfgBuilder
from repro.designs import (AR_GENERAL_PINS_UNIDIR, ELLIPTIC_PINS_UNIDIR,
                           ar_general_design, elliptic_design)
from repro.modules.library import ar_filter_timing, elliptic_filter_timing
from repro.sim import PipelineSimulator, evaluate_behavior, simulate_result
from repro.sim.behavioral import external_input_names
from repro.sim.pipeline import SimulationError


class TestBehavioral:
    def graph(self):
        b = CdfgBuilder("beh")
        a = b.io("a", "v.a", source=b.const("s", partition=0, bit_width=8),
                 dests=[], source_partition=0, dest_partition=1,
                 bit_width=8)
        m = b.op("m", "mul", 1, inputs=[a, a], bit_width=8)
        s = b.op("s1", "add", 1, inputs=[m, a], bit_width=8)
        b.io("o", "v.o", source=s, dests=[], source_partition=1,
             dest_partition=0, bit_width=8)
        return b.build()

    def test_arithmetic(self):
        g = self.graph()
        trace = evaluate_behavior(g, {"a": [3, 5]}, 2)
        assert trace[0]["m"] == 9 and trace[0]["s1"] == 12
        assert trace[1]["m"] == 25 and trace[1]["s1"] == 30
        assert trace[0]["o"] == 12

    def test_masking_to_bit_width(self):
        g = self.graph()
        trace = evaluate_behavior(g, {"a": [200]}, 1)
        assert trace[0]["m"] == (200 * 200) % 256

    def test_recursive_edge_reads_past_instance(self):
        b = CdfgBuilder("rec")
        x = b.op("x", "add", 1, bit_width=8)
        y = b.op("y", "add", 1, inputs=[x], bit_width=8)
        b.recursive(y, x, degree=1)  # x also consumes y from n-1
        g = b.build()
        trace = evaluate_behavior(g, {}, 3)
        # instance 0: x = 0 (no past y); y = x.
        assert trace[0]["x"] == 0
        # instance 1: x = y[0]; y = x + ...
        assert trace[1]["x"] == trace[0]["y"]
        assert trace[2]["x"] == trace[1]["y"]

    def test_missing_input_raises(self):
        g = self.graph()
        with pytest.raises(Exception):
            evaluate_behavior(g, {"a": [1]}, 2)

    def test_external_input_names(self):
        g = self.graph()
        assert external_input_names(g) == ["a"]


class TestPipelineSimulation:
    def test_ar_general_full_check(self):
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3)
        report = simulate_result(result, n_instances=5, seed=1)
        assert report.transfers_checked > 0
        assert report.bus_drives > 0

    def test_elliptic_with_recursion(self):
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 6, pipe_length=24)
        report = simulate_result(result, n_instances=6, seed=2)
        # 18 transfers per instance.
        assert report.transfers_checked == 18 * 6

    def test_subbus_design_simulates(self):
        from repro.designs import AR_GENERAL_PINS_BIDIR
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_BIDIR,
            ar_filter_timing(), 5, subbus_sharing=True)
        report = simulate_result(result, n_instances=4, seed=3)
        assert report.bus_drives > 0

    def test_corrupted_assignment_detected(self):
        # Force two different values onto one bus slot: the simulator
        # must catch the conflict the bus-conflict rule would.
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3)
        # Find two transfers of different values in the same group on
        # different buses and force them onto one bus.
        schedule = result.schedule
        by_group = {}
        for node in result.graph.io_nodes():
            by_group.setdefault(schedule.group(node.name), []).append(
                node)
        victim = None
        for group, nodes in by_group.items():
            wide_enough = [n for n in nodes
                           if n.bit_width <= 8 and len(nodes) > 1]
            if len(wide_enough) >= 2:
                a, b = wide_enough[:2]
                if (a.value != b.value and result.assignment.bus_of[
                        a.name] != result.assignment.bus_of[b.name]):
                    victim = (a, b)
                    break
        if victim is None:
            pytest.skip("no overlapping pair found in this schedule")
        a, b = victim
        bus_a = result.interconnect.bus(result.assignment.bus_of[a.name])
        # Widen the bus so capability holds, then alias b onto it.
        bus_a.out_widths[b.source_partition] = max(
            bus_a.out_widths.get(b.source_partition, 0), b.bit_width)
        bus_a.in_widths[b.dest_partition] = max(
            bus_a.in_widths.get(b.dest_partition, 0), b.bit_width)
        result.assignment.assign(b.name, bus_a.index)
        if schedule.step(a.name) % 3 != schedule.step(b.name) % 3:
            pytest.skip("pair no longer aligned")
        with pytest.raises(SimulationError, match="simultaneously"):
            simulate_result(result, n_instances=4)

    def test_interconnect_and_assignment_must_pair(self):
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 4)
        with pytest.raises(SimulationError):
            PipelineSimulator(result.graph, result.schedule,
                              result.interconnect, None)


class TestSimpleBundleSimulation:
    def test_ch3_flow_simulates(self):
        from repro import synthesize_simple
        from repro.designs import AR_SIMPLE_PINS, ar_simple_design
        result = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                                   ar_filter_timing(), 2)
        report = simulate_result(result, n_instances=5, seed=4)
        assert report.transfers_checked == 34 * 5
        assert report.bus_drives > 0

    def test_bundle_overflow_detected(self):
        from repro import synthesize_simple
        from repro.designs import AR_SIMPLE_PINS, ar_simple_design
        result = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                                   ar_filter_timing(), 2)
        # Corrupt the allocation: pile a transfer onto an unrelated,
        # already-busy bundle.
        alloc = result.simple_allocation.allocation
        donors = sorted(alloc)
        victim = donors[0]
        other = next(n for n in donors
                     if alloc[n] and alloc[n][0][0] != alloc[victim][0][0]
                     and result.schedule.group(n)
                     == result.schedule.group(victim))
        bus_index = alloc[other][0][0]
        width = result.simple_allocation.interconnect.bus(bus_index).width
        alloc[victim] = [(bus_index, width)]  # guaranteed overflow
        with pytest.raises(SimulationError):
            simulate_result(result, n_instances=3)

    def test_cannot_mix_modes(self):
        from repro import synthesize_simple, synthesize_connection_first
        from repro.designs import (AR_GENERAL_PINS_UNIDIR,
                                   AR_SIMPLE_PINS, ar_general_design,
                                   ar_simple_design)
        ch3 = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                                ar_filter_timing(), 2)
        ch4 = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3)
        with pytest.raises(SimulationError):
            PipelineSimulator(ch4.graph, ch4.schedule,
                              ch4.interconnect, ch4.assignment,
                              simple_allocation=ch3.simple_allocation)


class TestRegisterLevelSimulation:
    def test_ar_design_register_reads_verified(self):
        from repro.sim import simulate_result_registers
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3)
        report = simulate_result_registers(result, n_instances=6)
        assert report.register_reads > 0
        assert report.register_writes > 0

    def test_deep_pipeline_needs_register_copies(self):
        # Elliptic at its minimum rate: lifetimes exceed L, so some
        # values carry several register copies — and they must all be
        # exercised cleanly.
        from repro.rtl import allocate_registers
        from repro.sim import simulate_result_registers
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 5, pipe_length=24)
        regs = allocate_registers(result.graph, result.schedule)
        assert any(len(r) > 1 for r in regs.regs_of.values())
        report = simulate_result_registers(result, n_instances=8)
        assert report.register_reads > 0

    def test_underallocation_detected(self):
        # Strip a long-lived value down to one register copy: the
        # pipeline must trip an overwrite hazard.
        from repro.rtl import allocate_registers
        from repro.sim.rtl_sim import (RegisterHazard,
                                       simulate_registers)
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 5, pipe_length=24)
        regs = allocate_registers(result.graph, result.schedule)
        victim = next(name for name, r in regs.regs_of.items()
                      if len(r) > 1)
        regs.regs_of[victim] = regs.regs_of[victim][:1]
        inputs = {n.name: [1] * 8 for n in result.graph.io_nodes()
                  if n.source_partition == 0}
        with pytest.raises(RegisterHazard):
            simulate_registers(result.graph, result.schedule, inputs,
                               8, registers=regs)


class TestConditionalSimulation:
    def cond_design(self):
        b = CdfgBuilder("cond")
        a = b.io("a", "v.a", source=b.const("src", partition=0),
                 dests=[], source_partition=0, dest_partition=1)
        cond = b.op("cond", "add", 1, inputs=[a])
        for idx, guard in enumerate(({"c": True}, {"c": False})):
            op = b.op(f"br{idx}", "add", 1, inputs=[cond], guard=guard)
            b.io(f"w{idx}", f"v{idx}", source=op, dests=[],
                 source_partition=1, dest_partition=2, guard=guard)
        b.op("join", "add", 2, inputs=["w0", "w1"])
        return b.build()

    def test_behavioral_skips_untaken_branch(self):
        g = self.cond_design()
        trace = evaluate_behavior(
            g, {"a": [5, 5]}, 2,
            branch_outcome=lambda i, var: i == 0)
        assert "br0" in trace[0] and "br1" not in trace[0]
        assert "br1" in trace[1] and "br0" not in trace[1]
        # The join consumes whichever branch executed.
        assert trace[0]["join"] == trace[0]["w0"]
        assert trace[1]["join"] == trace[1]["w1"]

    def test_shared_slot_design_simulates(self):
        # Conditionally shared transfers on one bus, same step: the
        # exclusivity guarantees at most one drive per instance.
        from repro.partition.model import (ChipSpec, OUTSIDE_WORLD,
                                           Partitioning)
        g = self.cond_design()
        pins = Partitioning({OUTSIDE_WORLD: ChipSpec(32),
                             1: ChipSpec(24), 2: ChipSpec(24)})
        result = synthesize_connection_first(
            g, pins, ar_filter_timing(), 2, conditional_sharing=True)
        assert result.assignment.bus_of["w0"] \
            == result.assignment.bus_of["w1"]
        report = simulate_result(result, n_instances=8, seed=11)
        assert report.values_checked > 0
