"""E7.1-E7.4 — Chapter 7 extensions.

* E7.1 (Figure 7.4): an interchip connection that forces two
  loop-coupled transfers onto one bus admits no pipelined schedule,
  while a two-bus connection does.
* E7.2 (Figure 7.7): conditional I/O sharing groups mutually exclusive
  transfers; the connection synthesizer then shares slots and pins.
* E7.3 (Eq 7.5 / Figure 7.10): the multi-cycle lower bound is tight and
  the allocation-wheel safety check prevents fragmentation losses.
* E7.4 (Figure 7.8): time-division multiplexing halves transfer pins at
  the cost of extra cycles.
"""

import pytest

from conftest import one_shot
from repro import CdfgBuilder, synthesize_connection_first
from repro.cdfg.analysis import UnitTiming
from repro.cdfg.transform import insert_time_division_multiplexing
from repro.core.bus_assignment import BusAllocator
from repro.core.conditional import share_conditionally
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import ReproError, SchedulingError
from repro.modules.allocation import min_units_multi_cycle
from repro.modules.library import (DesignTiming, HardwareModule,
                                   ModuleSet)
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning
from repro.reporting import TextTable
from repro.scheduling.list_scheduler import ListScheduler

UNIT = DesignTiming(
    clock_period=100.0,
    default=ModuleSet.of(HardwareModule("adder", "add", delay_ns=90.0)),
    io_delay_ns=10.0,
    chaining=False,
)


def loop_design():
    """Figure 7.4's shape: transfers X and Y coupled by a recursive
    loop whose slack is exactly zero, forcing ``t_Y = t_X + L`` — the
    same control-step group.  A connection that makes X and Y share
    one bus then excludes every pipelined schedule."""
    b = CdfgBuilder("fig7.4")
    x = b.io("X", "v.x", source=b.op("p1op", "add", 1), dests=[],
             source_partition=1, dest_partition=2)
    mid1 = b.op("mid1", "add", 2, inputs=[x])
    mid2 = b.op("mid2", "add", 2, inputs=[mid1])
    y = b.io("Y", "v.y", source=mid2, dests=[], source_partition=2,
             dest_partition=1)
    tail = b.op("tail", "add", 1, inputs=[y])
    # Degree-2 feedback at L=3: t_tail <= t_p1op + 2*3 - 1 = +5, and
    # the forward chain needs exactly +5 -> zero slack.
    b.edge("tail", "p1op", degree=2)
    return b.build()


def test_e7_1_connection_can_exclude_all_schedules(benchmark,
                                                   record_table):
    graph = loop_design()
    L = 3
    resources = {(1, "add"): 2, (2, "add"): 2}

    shared_bus = Interconnect([
        Bus(1, out_widths={1: 8, 2: 8}, in_widths={1: 8, 2: 8}),
    ])
    shared_assignment = BusAssignment()
    shared_assignment.assign("X", 1)
    shared_assignment.assign("Y", 1)

    split_buses = Interconnect([
        Bus(1, out_widths={1: 8}, in_widths={2: 8}),
        Bus(2, out_widths={2: 8}, in_widths={1: 8}),
    ])
    split_assignment = BusAssignment()
    split_assignment.assign("X", 1)
    split_assignment.assign("Y", 2)

    def attempt(interconnect, assignment):
        allocator = BusAllocator(graph, interconnect, assignment, L,
                                 reassignment=True)
        try:
            ListScheduler(graph, UNIT, L, resources,
                          io_hooks=allocator, max_steps=24).run()
            return "schedules"
        except SchedulingError:
            return "no schedule"

    def run():
        return (attempt(shared_bus, shared_assignment),
                attempt(split_buses, split_assignment))

    shared_out, split_out = one_shot(benchmark, run)
    table = TextTable(["interchip connection", "outcome"],
                      title="Figure 7.4 — a bad connection excludes "
                            "every pipelined schedule")
    table.add("one shared bus for X and Y", shared_out)
    table.add("dedicated bus per transfer", split_out)
    record_table("fig7.4_connection_exclusion", table.render())
    assert shared_out == "no schedule"
    assert split_out == "schedules"


def test_e7_2_conditional_sharing(benchmark, record_table):
    b = CdfgBuilder("cond")
    W = OUTSIDE_WORLD
    a = b.io("a", "v.a", source=b.const("src", partition=W), dests=[],
             source_partition=W, dest_partition=1)
    cond = b.op("cond", "add", 1, inputs=[a])
    for idx, guard in enumerate(({"c": True}, {"c": False})):
        op = b.op(f"br{idx}", "add", 1, inputs=[cond], guard=guard)
        b.io(f"w{idx}", f"v{idx}", source=op, dests=[],
             source_partition=1, dest_partition=2, guard=guard)
    b.op("join", "add", 2, inputs=["w0", "w1"])
    graph = b.build()

    pins = Partitioning({OUTSIDE_WORLD: ChipSpec(32),
                         1: ChipSpec(24), 2: ChipSpec(16)})

    def run():
        sharing = share_conditionally(graph, UNIT, pipe_length=8,
                                      initiation_rate=2)
        return synthesize_connection_first(
            graph, pins, UNIT, 2, share_groups=sharing.share_groups())

    result = one_shot(benchmark, run)
    shared = (result.assignment.bus_of["w0"]
              == result.assignment.bus_of["w1"])
    table = TextTable(["metric", "value"],
                      title="Figure 7.7 — conditional transfers share "
                            "a communication slot")
    table.add("branch transfers on one bus", shared)
    table.add("pins P1", result.pins_used()[1])
    record_table("fig7.7_conditional_sharing", table.render())
    assert shared


@pytest.mark.parametrize("rate,cycles,n_ops,expected", [
    (6, 2, 3, 1),   # floor(6/2)=3 slots -> one unit
    (5, 2, 3, 2),   # floor(5/2)=2 slots -> two units
    (4, 3, 2, 2),   # floor(4/3)=1 slot  -> two units
])
def test_e7_3_eq_7_5_bound_is_achievable(rate, cycles, n_ops, expected,
                                         benchmark, record_table):
    bound = min_units_multi_cycle(n_ops, rate, cycles)
    assert bound == expected

    timing = DesignTiming(
        clock_period=1.0,
        default=ModuleSet.of(HardwareModule(
            "mul", "mul", delay_ns=float(cycles), cycles=cycles)),
        io_delay_ns=1.0, chaining=False)
    b = CdfgBuilder("wheel")
    src = b.op("src", "mul", 1)
    for i in range(n_ops - 1):
        b.op(f"m{i}", "mul", 1, inputs=["src"])
    graph = b.build()

    def run():
        return ListScheduler(graph, timing, rate,
                             {(1, "mul"): bound}).run()

    schedule = one_shot(benchmark, run)
    assert schedule.verify({(1, "mul"): bound}) == []
    record_table(
        f"eq7.5_L{rate}_m{cycles}_n{n_ops}",
        f"Eq 7.5: {n_ops} non-pipelined {cycles}-cycle ops at rate "
        f"{rate} need {bound} unit(s); the allocation-wheel scheduler "
        f"achieves the bound (pipe {schedule.pipe_length}).")


def test_e7_4_time_division_multiplexing(benchmark, record_table):
    def build(split):
        b = CdfgBuilder("tdm")
        W = OUTSIDE_WORLD
        a = b.io("a", "v.a", source=b.const("src", partition=W),
                 dests=[], source_partition=W, dest_partition=1,
                 bit_width=8)
        acc = b.op("acc", "add", 1, inputs=[a], bit_width=32)
        wide = b.io("wide", "v.w", source=acc, dests=[],
                    source_partition=1, dest_partition=2, bit_width=32)
        b.op("sink", "add", 2, inputs=[wide], bit_width=32)
        graph = b.build()
        if split:
            insert_time_division_multiplexing(graph, "wide", [16, 16])
        return graph

    roomy = Partitioning({OUTSIDE_WORLD: ChipSpec(16),
                          1: ChipSpec(48), 2: ChipSpec(40)})
    tight = Partitioning({OUTSIDE_WORLD: ChipSpec(16),
                          1: ChipSpec(32), 2: ChipSpec(24)})

    def run():
        whole = synthesize_connection_first(build(False), roomy, UNIT, 2)
        try:
            synthesize_connection_first(build(False), tight, UNIT, 2)
            tight_whole = "fits"
        except ReproError:
            tight_whole = "does not fit"
        multiplexed = synthesize_connection_first(build(True), tight,
                                                  UNIT, 2)
        return whole, tight_whole, multiplexed

    whole, tight_whole, multiplexed = one_shot(benchmark, run)
    table = TextTable(["variant", "pins P1", "pipe"],
                      title="Figure 7.8 — time-division multiplexing "
                            "trades cycles for pins")
    table.add("32-bit whole transfer (roomy pins)",
              whole.pins_used()[1], whole.pipe_length)
    table.add("32-bit whole transfer (tight pins)", tight_whole, "-")
    table.add("2 x 16-bit multiplexed (tight pins)",
              multiplexed.pins_used()[1], multiplexed.pipe_length)
    record_table("fig7.8_tdm", table.render())
    assert tight_whole == "does not fit"
    assert multiplexed.pins_used()[1] < whole.pins_used()[1]
    assert multiplexed.pipe_length >= whole.pipe_length


def test_e7_5_tdm_advisor(benchmark, record_table):
    """Automated Section 7.3 decision-making (thesis future work)."""
    from repro.core.tdm_advisor import advise_tdm, apply_advice
    from repro.cdfg.builder import CdfgBuilder

    def build():
        b = CdfgBuilder("adv")
        a = b.io("a", "v.a", source=b.const("s", partition=OUTSIDE_WORLD,
                                            bit_width=8),
                 dests=[], source_partition=OUTSIDE_WORLD,
                 dest_partition=1, bit_width=8)
        acc = b.op("acc", "add", 1, inputs=[a], bit_width=32)
        b.io("wide", "v.w", source=acc, dests=[], source_partition=1,
             dest_partition=2, bit_width=32)
        b.op("sink", "add", 2, inputs=["wide"], bit_width=32)
        return b.build()

    tight = Partitioning({OUTSIDE_WORLD: ChipSpec(16),
                          1: ChipSpec(40), 2: ChipSpec(24)})

    def run():
        graph = build()
        plan = advise_tdm(graph, tight, 2)
        apply_advice(graph, plan)
        return plan, synthesize_connection_first(graph, tight, UNIT, 2)

    plan, result = one_shot(benchmark, run)
    table = TextTable(["metric", "value"],
                      title="Section 7.3 advisor: automatic TDM "
                            "decision")
    table.add("splits proposed", dict(plan.splits))
    table.add("demand before (chip 2)", plan.demand_before.get(2))
    table.add("demand after (chip 2)", plan.demand_after.get(2))
    table.add("pipe length", result.pipe_length)
    record_table("sec7.3_tdm_advisor", table.render())
    assert plan.splits
    assert result.verify() == []


def test_e7_6_postponement_not_reproduced(benchmark, record_table):
    """The Section 5.3 'constrain and rerun' loop has nothing to do on
    its own experiment: plain list scheduling meets the elliptic loop
    deadline at rate 6 in one run."""
    from repro.core.connection_search import ConnectionSearch
    from repro.designs import (ELLIPTIC_PINS_UNIDIR, elliptic_design,
                               elliptic_resources)
    from repro.modules.library import elliptic_filter_timing

    graph = elliptic_design()
    timing = elliptic_filter_timing()
    ic, init = ConnectionSearch(graph, ELLIPTIC_PINS_UNIDIR, 6).run()

    def run():
        return ListScheduler(graph, timing, 6, elliptic_resources(6),
                             io_hooks=BusAllocator(graph, ic, init,
                                                   6)).run()

    schedule = one_shot(benchmark, run)
    assert schedule.verify(elliptic_resources(6)) == []
    assert schedule.pipe_length == 24
    record_table(
        "sec5.3_postponement",
        f"elliptic rate 6, plain list scheduling in one run: pipe "
        f"{schedule.pipe_length}. The automated postponement loop is "
        f"not reproduced: list scheduling already meets the loop "
        f"deadline, so there is nothing to postpone.")
