"""Tests for the resource-constrained pipelined list scheduler."""

import pytest

from repro.cdfg import CdfgBuilder
from repro.cdfg.analysis import UnitTiming
from repro.cdfg.graph import Node
from repro.cdfg.ops import OpKind
from repro.errors import SchedulingError
from repro.modules.library import ar_filter_timing
from repro.scheduling import DeadlineMissed, ListScheduler
from repro.scheduling.list_scheduler import NullIoHooks


def diamond():
    b = CdfgBuilder()
    a = b.op("a", "add", 1)
    x = b.op("x", "add", 1, inputs=[a])
    y = b.op("y", "add", 1, inputs=[a])
    b.op("z", "add", 1, inputs=[x, y])
    return b.build()


class TestBasics:
    def test_diamond_respects_resources(self):
        s = ListScheduler(diamond(), UnitTiming(), 4,
                          {(1, "add"): 1}).run()
        assert s.verify({(1, "add"): 1}) == []
        # Serialized on one adder: 4 distinct steps.
        assert len(set(s.start_step.values())) == 4

    def test_two_adders_parallelize(self):
        s = ListScheduler(diamond(), UnitTiming(), 4,
                          {(1, "add"): 2}).run()
        assert s.step("x") == s.step("y") == 1
        assert s.pipe_length == 3

    def test_pipelined_group_conflict(self):
        # L=2: steps 0 and 2 are the same group; with one adder the
        # four ops need four distinct groups -> steps 0,1,2,3 with 2
        # units, or fail with 1 unit within default horizon? With L=2
        # only 2 groups exist, so 1 adder serves at most 2 ops.
        with pytest.raises(SchedulingError):
            ListScheduler(diamond(), UnitTiming(), 2,
                          {(1, "add"): 1}).run()
        s = ListScheduler(diamond(), UnitTiming(), 2,
                          {(1, "add"): 2}).run()
        assert s.verify({(1, "add"): 2}) == []

    def test_missing_resource_entry_fails(self):
        with pytest.raises(SchedulingError):
            ListScheduler(diamond(), UnitTiming(), 4, {}).run()


class TestChaining:
    def test_mul_add_chain_in_one_step(self):
        b = CdfgBuilder()
        i = b.inp("i", partition=1)
        m = b.op("m", "mul", 1, inputs=[i])
        a = b.op("a", "add", 1, inputs=[m])
        g = b.build()
        s = ListScheduler(g, ar_filter_timing(), 2,
                          {(1, "mul"): 1, (1, "add"): 1}).run()
        assert s.step("m") == 0 and s.step("a") == 0
        assert s.start_ns["a"] == pytest.approx(220.0)

    def test_io_waits_for_boundary(self):
        # An I/O op fed by a mid-cycle chain starts at the next edge.
        b = CdfgBuilder()
        i = b.inp("i", partition=1)
        a = b.op("a", "add", 1, inputs=[i])
        b.out("o", a, partition=1)
        g = b.build()
        s = ListScheduler(g, ar_filter_timing(), 2,
                          {(1, "add"): 1}).run()
        assert s.step("a") == 0          # chains after the input
        assert s.step("o") == 1          # boundary-start I/O


class TestMultiCycle:
    def timing(self):
        return UnitTiming(cycles_by_op_type={"mul": 2})

    def test_nonpipelined_multicycle_blocks_unit(self):
        b = CdfgBuilder()
        b.op("m1", "mul", 1)
        b.op("m2", "mul", 1)
        g = b.build()
        s = ListScheduler(g, self.timing(), 4, {(1, "mul"): 1}).run()
        steps = sorted(s.start_step.values())
        assert steps[1] - steps[0] >= 2  # no overlap on one unit

    def test_wheel_safety_postpones_fragmenting_placement(self):
        # L=6, one 2-cycle unit, three ops: naive placement at 0,2,4
        # works; placement at 0,3 would strand capacity — the safety
        # check (Section 7.4) must keep all three schedulable.
        b = CdfgBuilder()
        src = b.op("s", "add", 1)
        b.op("m1", "mul", 1, inputs=[src])
        b.op("m2", "mul", 1, inputs=[src])
        b.op("m3", "mul", 1, inputs=[src])
        g = b.build()
        s = ListScheduler(g, self.timing(), 6,
                          {(1, "add"): 1, (1, "mul"): 1}).run()
        assert s.verify({(1, "add"): 1, (1, "mul"): 1}) == []
        groups = sorted(s.step(n) % 6 for n in ("m1", "m2", "m3"))
        assert groups in ([0, 2, 4], [1, 3, 5])


class TestRecursion:
    def test_loop_scheduled_within_deadline(self):
        b = CdfgBuilder()
        x = b.op("x", "add", 1)
        y = b.op("y", "add", 1, inputs=[x])
        z = b.op("z", "add", 1, inputs=[y])
        b.recursive(z, x, degree=1)
        g = b.build()
        # L=4: t_z <= t_x + 3.
        s = ListScheduler(g, UnitTiming(), 4, {(1, "add"): 1}).run()
        assert s.step("z") - s.step("x") <= 3
        assert s.verify() == []

    def test_impossible_loop_raises(self):
        b = CdfgBuilder()
        prev = b.op("n0", "add", 1)
        for i in range(1, 6):
            prev = b.op(f"n{i}", "add", 1, inputs=[prev])
        b.recursive("n5", "n0", degree=1)
        g = b.build()
        with pytest.raises(SchedulingError):
            ListScheduler(g, UnitTiming(), 4, {(1, "add"): 6}).run()


class TestIoHooks:
    def test_hooks_can_postpone(self):
        class OddStepsOnly:
            def can_schedule(self, node, step, schedule):
                return step % 2 == 1

            def commit(self, node, step, schedule):
                pass

        b = CdfgBuilder()
        i = b.inp("i", partition=1)
        b.op("a", "add", 1, inputs=[i])
        g = b.build()
        s = ListScheduler(g, UnitTiming(), 2, {(1, "add"): 1},
                          io_hooks=OddStepsOnly()).run()
        assert s.step("i") == 1

    def test_hooks_commit_called(self):
        committed = []

        class Spy(NullIoHooks):
            def commit(self, node, step, schedule):
                committed.append((node.name, step))

        b = CdfgBuilder()
        i = b.inp("i", partition=1)
        b.op("a", "add", 1, inputs=[i])
        g = b.build()
        ListScheduler(g, UnitTiming(), 2, {(1, "add"): 1},
                      io_hooks=Spy()).run()
        assert committed == [("i", 0)]


class TestDesigns:
    def test_ar_simple_schedules_without_pin_hooks(self):
        from repro.designs import ar_simple_design
        from repro.modules.allocation import min_module_counts
        g = ar_simple_design()
        t = ar_filter_timing()
        res = min_module_counts(g, t, 2)
        s = ListScheduler(g, t, 2, res).run()
        assert s.verify(res) == []


class TestRecursionDeadlines:
    """Loop deadlines (Section 7.1) on one list-scheduling run."""

    def test_deadline_missed_names_the_failed_op(self):
        class RefuseEarly:
            def can_schedule(self, node, step, schedule):
                return step >= 5

            def commit(self, node, step, schedule):
                pass

        b = CdfgBuilder()
        x = b.io("X", "v", source=b.op("p", "add", 1), dests=[],
                 source_partition=1, dest_partition=2)
        b.op("t", "add", 2, inputs=[x])
        b.recursive("t", "p", degree=1)
        with pytest.raises(DeadlineMissed) as excinfo:
            ListScheduler(b.build(), UnitTiming(), 2,
                          {(1, "add"): 1, (2, "add"): 1},
                          io_hooks=RefuseEarly()).run()
        assert excinfo.value.failed_op == "t"

    @staticmethod
    def _elliptic(rate, slot_reserve=0):
        from repro.core.bus_assignment import BusAllocator
        from repro.core.connection_search import ConnectionSearch
        from repro.designs import (ELLIPTIC_PINS_UNIDIR,
                                   elliptic_design, elliptic_resources)
        from repro.modules.library import elliptic_filter_timing
        graph = elliptic_design()
        ic, init = ConnectionSearch(graph, ELLIPTIC_PINS_UNIDIR, rate,
                                    slot_reserve=slot_reserve).run()
        resources = elliptic_resources(rate)
        schedule = ListScheduler(
            graph, elliptic_filter_timing(), rate, resources,
            io_hooks=BusAllocator(graph, ic, init, rate)).run()
        assert schedule.verify(resources) == []
        return schedule

    def test_elliptic_rate_6_meets_its_loop_deadline(self):
        assert self._elliptic(6).pipe_length == 24

    def test_elliptic_rate_5_needs_reserved_bus_slots(self):
        # A zero-slack loop on serialized buses misses its deadline;
        # reserved bus slots give the loop's traffic the bandwidth.
        with pytest.raises(SchedulingError):
            self._elliptic(5)
        assert self._elliptic(5, slot_reserve=3).pipe_length == 22


class TestEngineOrder:
    """The (step, round) order of the one list-scheduling engine."""

    def test_chained_release_waits_for_next_round(self):
        # a0 -> b -> d is the critical chain, c is independent.  Round
        # 0 of step 0 holds a0 and c, which take both adders; b, freed
        # by a0's placement, only joins round 1 and finds no adder.
        b = CdfgBuilder()
        a0 = b.op("a0", "add", 1)
        mid = b.op("b", "add", 1, inputs=[a0])
        b.op("d", "add", 1, inputs=[mid])
        b.op("c", "add", 1)
        s = ListScheduler(b.build(), ar_filter_timing(), 4,
                          {(1, "add"): 2}).run()
        assert s.step("a0") == s.step("c") == 0
        assert s.step("b") == 1

    def test_round_failure_retries_in_same_step(self):
        # o2 feeds a chain of two adds, so it sorts before o1; the hook
        # takes o2 only once o1 is committed in the same step.  Round
        # 0 places o1, so o2 is retried in round 1 of step 0.
        class AfterO1:
            def can_schedule(self, node, step, schedule):
                return node.name != "o2" or (
                    schedule.is_scheduled("o1")
                    and schedule.step("o1") == step)

            def commit(self, node, step, schedule):
                pass

        b = CdfgBuilder()
        b.inp("o1", partition=1)
        o2 = b.inp("o2", partition=1)
        x = b.op("x", "add", 1, inputs=[o2])
        b.op("y", "add", 1, inputs=[x])
        s = ListScheduler(b.build(), ar_filter_timing(), 4,
                          {(1, "add"): 1}, io_hooks=AfterO1()).run()
        assert s.step("o1") == s.step("o2") == 0

    def test_one_budget_tick_per_control_step(self):
        # Extends the cap-0 exhaustion test in test_synthesize_api:
        # ar-simple L2 starts its last op in step 7, and steps 0..7
        # are eight ticks, so a cap of 7 runs out and 8 completes.
        from repro import synthesize
        from repro.designs import AR_SIMPLE_PINS, ar_simple_design
        from repro.robustness import BudgetExhausted, SolveBudget

        def run(cap):
            return synthesize(ar_simple_design(), AR_SIMPLE_PINS,
                              ar_filter_timing(), 2, flow="simple",
                              budget=SolveBudget(max_sched_steps=cap))
        with pytest.raises(BudgetExhausted) as info:
            run(7)
        assert info.value.phase == "list_scheduler"
        assert info.value.iterations == 8
        assert max(run(8).schedule.start_step.values()) == 7


#: sha256 of the sorted ``[op, start_step, round(start_ns, 6)]`` rows
#: of five catalog solves, recorded before the engine became one heap.
GOLDEN_SCHEDULES = [
    ("ar-stacked-2", {"rate": 2, "flow": "simple", "pin_scale": 1.75},
     "d4f64eab4a63699365663f8e82f163264b48316b5b84f80328e54a633bbad730"),
    ("ar-general", {"rate": 3, "flow": "connection-first"},
     "db4179e645cc7491c86fb19da1919cf59e9017e47f89bed5d094944fe49e1663"),
    ("elliptic", {"rate": 6, "flow": "connection-first"},
     "7eb661cf37501d11c8bc1edec588d300310a390dc17db2f2dcceb345b05d2eda"),
    ("fir", {"rate": 3, "flow": "connection-first"},
     "9301d7f5340bcde61a2ed6f76edf2710fd2c863ccf28b4b4b70ad4d0dc8adc3d"),
    ("dct", {"rate": 2, "flow": "simple"},
     "07e40236f850678a4e1d904b732e1751b43f95840943e5e9a6672f725b3126fc"),
]


@pytest.mark.parametrize("design,params,digest", GOLDEN_SCHEDULES,
                         ids=[g[0] for g in GOLDEN_SCHEDULES])
def test_golden_schedule(design, params, digest):
    import hashlib
    import json

    from repro import synthesize
    from repro.explore.spec import SweepSpec
    from repro.explore.worker import resolve_timing
    from repro.service import catalog

    space = catalog.design_space(design)
    job = SweepSpec(base=params).expand(space)[0]
    resources = (space.resources_for(job.rate)
                 if space.resources_for is not None else None)
    result = synthesize(job.graph, job.partitioning,
                        resolve_timing(job.timing), job.rate,
                        resources=resources, **job.options.to_dict())
    s = result.schedule
    rows = sorted([op, s.start_step[op], round(s.start_ns[op], 6)]
                  for op in s.start_step)
    assert hashlib.sha256(
        json.dumps(rows).encode()).hexdigest() == digest


_MISSED_SCRIPT = """
import json
from repro import synthesize
from repro.explore.worker import resolve_timing
from repro.scheduling import DeadlineMissed
from repro.service import catalog

space = catalog.design_space("elliptic")
try:
    synthesize(space.graph, space.partitioning,
               resolve_timing(space.timing), 2,
               flow="connection-first", scheduler="list")
    print(json.dumps(None))
except DeadlineMissed as exc:
    print(json.dumps(exc.failed_op))
"""


def test_deadline_missed_names_one_op_under_every_hash_seed():
    """Several producers miss at once on elliptic L2; the error must
    not follow set iteration order."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    named = set()
    for seed in ("1", "3", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", _MISSED_SCRIPT],
                             capture_output=True, text=True, env=env,
                             check=True)
        named.add(json.loads(out.stdout))
    assert len(named) == 1 and None not in named, named
