"""Property-based tests of the synthesis theorems on random designs.

* Theorem 3.1: for any pin-feasible schedule of a simple partitioning,
  the constructive interchip connection is conflict-free.
* Chapter 4/5 flows: whatever they produce must verify statically *and*
  survive cycle-accurate simulation with random stimuli.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.check import CheckError, check_result
from repro.check.rules import enforceable_violations
from repro.core.flow import SynthesisResult
from repro.core.post_sched import connect_after_scheduling
from repro.core.simple_connection import build_simple_connection
from repro.designs import random_partitioned_design
from repro.errors import ReproError
from repro.modules.allocation import min_module_counts
from repro.modules.library import (DesignTiming, HardwareModule,
                                   ModuleSet)
from repro.partition.simple import is_simple_partitioning
from repro.scheduling.base import Schedule
from repro.sim import simulate_result

settings.register_profile(
    "repro-flows", deadline=None, max_examples=20,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro-flows")


def timing():
    return DesignTiming(
        clock_period=250.0,
        default=ModuleSet.of(
            HardwareModule("adder", "add", 30.0),
            HardwareModule("multiplier", "mul", 210.0)),
        io_delay_ns=10.0)


def rule_problems(graph, schedule, rules, **parts):
    """Messages of the named rules over a bare schedule plus the
    interconnect ``parts`` (``interconnect``/``assignment`` or
    ``simple_allocation``)."""
    result = SynthesisResult(graph, None, schedule.initiation_rate,
                             schedule, {}, **parts)
    report = check_result(result, rules=rules)
    return [v.message for v in report.violations]


# ---------------------------------------------------------------------
@st.composite
def simple_star_design(draw):
    """Random fan-out star P3 -> {P1, P2} with random widths/schedule."""
    g = Cdfg()
    L = draw(st.integers(2, 4))
    n_values = draw(st.integers(1, 5))
    placements = {}
    for v in range(n_values):
        width = draw(st.sampled_from([4, 8, 16]))
        dests = draw(st.sampled_from([(1,), (2,), (1, 2)]))
        step_a = draw(st.integers(0, 2 * L - 1))
        for dst in dests:
            name = f"w{v}d{dst}"
            g.add_node(make_io_node(name, f"v{v}", 3, dst,
                                    bit_width=width))
            if len(dests) == 2:
                placements[name] = step_a  # shared: same step
            else:
                placements[name] = draw(st.integers(0, 2 * L - 1))
    return g, placements, L


@given(simple_star_design())
def test_theorem_3_1_construction_conflict_free(case):
    graph, placements, L = case
    assert is_simple_partitioning(graph)
    schedule = Schedule(graph, timing(), L)
    for name, step in placements.items():
        schedule.place(name, step)
    result = build_simple_connection(graph, schedule)
    assert rule_problems(graph, schedule, ("simple-alloc",),
                         simple_allocation=result) == []


@given(simple_star_design())
def test_post_schedule_connection_conflict_free(case):
    graph, placements, L = case
    schedule = Schedule(graph, timing(), L)
    for name, step in placements.items():
        schedule.place(name, step)
    interconnect, assignment = connect_after_scheduling(graph, schedule)
    assert rule_problems(graph, schedule,
                         ("assignment", "bus-capable", "bus-conflict"),
                         interconnect=interconnect,
                         assignment=assignment) == []


# ---------------------------------------------------------------------
@given(st.integers(0, 30), st.integers(2, 3))
def test_connection_first_flow_simulates(seed, rate):
    from repro import synthesize_connection_first
    graph, partitioning = random_partitioned_design(seed, n_chips=3,
                                                    n_ops=10)
    try:
        result = synthesize_connection_first(graph, partitioning,
                                             timing(), rate)
    except CheckError:
        raise  # the flow's own check failed: a dirty result
    except ReproError:
        return  # tight random instance; fine
    assert result.verify() == []
    report = simulate_result(result, n_instances=4,
                             seed=seed)
    assert report.values_checked > 0


@given(st.integers(0, 30))
def test_schedule_first_flow_simulates(seed):
    from repro import synthesize_schedule_first
    from repro.cdfg.analysis import critical_path_length
    graph, partitioning = random_partitioned_design(seed, n_chips=2,
                                                    n_ops=8)
    pipe = critical_path_length(graph, timing()) + 4
    try:
        result = synthesize_schedule_first(graph, partitioning,
                                           timing(), 3,
                                           pipe_length=pipe)
    except CheckError:
        raise  # the flow's own check failed: a dirty result
    except ReproError:
        return
    assert enforceable_violations(result, check_result(result)) == []
    report = simulate_result(result, n_instances=3, seed=seed)
    assert report.transfers_checked > 0


# ---------------------------------------------------------------------
@st.composite
def subbus_instance(draw):
    """Random transfer mixes for the sub-bus search."""
    g = Cdfg()
    n = draw(st.integers(2, 6))
    for i in range(n):
        width = draw(st.sampled_from([4, 8, 12, 16]))
        src = draw(st.integers(1, 2))
        dst = 3 if src == 2 else draw(st.integers(2, 3))
        g.add_node(make_io_node(f"w{i}", f"v{i}", src, dst,
                                bit_width=width))
    L = draw(st.integers(1, 3))
    budget = draw(st.sampled_from([24, 32, 48]))
    return g, L, budget


@given(subbus_instance())
def test_subbus_search_invariants(case):
    from repro.core.subbus import SubBusConnectionSearch
    from repro.partition.model import ChipSpec, Partitioning
    graph, L, budget = case
    chips = {0: ChipSpec(0, bidirectional=True)}
    for chip in (1, 2, 3):
        chips[chip] = ChipSpec(budget, bidirectional=True)
    partitioning = Partitioning(chips)
    try:
        interconnect, assignment = SubBusConnectionSearch(
            graph, partitioning, L).run()
    except ReproError:
        return  # infeasible instances are fine
    # Invariants: budgets hold; every op rides a capable position;
    # the Eq 6.9 prefix rule holds on split buses.
    assert interconnect.check_budget(partitioning) == []
    for node in graph.io_nodes():
        bus_index, segment = assignment.of(node.name)
        bus = interconnect.bus(bus_index)
        assert bus.capable(node, segment)
        if segment > 0:
            need = bus.segment_offset(segment) + node.bit_width
            assert bus.bi_widths[node.source_partition] >= need
            assert bus.bi_widths[node.dest_partition] >= need
    for bus in interconnect.buses:
        assert sum(bus.effective_segments()) == bus.width
