"""End-to-end tests of the three synthesis flows."""

import pytest

from repro import (synthesize_connection_first, synthesize_schedule_first,
                   synthesize_simple)
from repro.designs import (AR_GENERAL_PINS_BIDIR, AR_GENERAL_PINS_UNIDIR,
                           AR_SIMPLE_PINS, ELLIPTIC_PINS_UNIDIR,
                           ar_general_design, ar_simple_design,
                           elliptic_design, elliptic_resources)
from repro.errors import ConnectionError_, ReproError, SchedulingError
from repro.modules.library import ar_filter_timing, elliptic_filter_timing


class TestSimpleFlow:
    def test_ar_simple(self):
        result = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                                   ar_filter_timing(), 2)
        assert result.verify() == []
        assert result.stats["pin_checks"] > 0
        # Inputs every 2 cycles with chained mul+add: short pipe.
        assert result.pipe_length <= 10

    def test_general_partition_rejected(self):
        with pytest.raises(ConnectionError_):
            synthesize_simple(ar_general_design(),
                              AR_GENERAL_PINS_UNIDIR,
                              ar_filter_timing(), 3)


class TestConnectionFirstFlow:
    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_ar_unidirectional(self, L):
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), L)
        assert result.verify() == []
        assert result.pins_used()[1] <= 135

    def test_ar_bidirectional_fewer_pins_overall(self):
        # The dissertation's observation: bidirectional ports need
        # fewer pins (Section 4.4.1.2).  The heuristic can wobble at a
        # single rate, so the claim is checked across the sweep.
        uni_total = bi_total = 0
        for L in (3, 4, 5):
            uni = synthesize_connection_first(
                ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                ar_filter_timing(), L)
            bi = synthesize_connection_first(
                ar_general_design(), AR_GENERAL_PINS_BIDIR,
                ar_filter_timing(), L)
            assert bi.verify() == []
            uni_total += sum(uni.pins_used().values())
            bi_total += sum(bi.pins_used().values())
        assert bi_total < uni_total

    def test_reassignment_helps_overall(self):
        # Table 4.2's columns: schedules with reassignment are never
        # longer in aggregate than static-assignment schedules.
        dynamic_total = static_total = 0
        for L in (3, 4, 5):
            dynamic = synthesize_connection_first(
                ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                ar_filter_timing(), L, reassignment=True)
            dynamic_total += dynamic.pipe_length
            try:
                static = synthesize_connection_first(
                    ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                    ar_filter_timing(), L, reassignment=False)
                static_total += static.pipe_length
            except SchedulingError:
                # Static assignment failing outright is the strongest
                # form of "reassignment helps".
                static_total += dynamic.pipe_length + 5
        assert dynamic_total <= static_total

    def test_elliptic_fails_at_rate_5_succeeds_at_6(self):
        # Section 4.4.2: list scheduling cannot meet the critical loop
        # at the minimum rate even though a schedule exists.
        with pytest.raises(ReproError):
            synthesize_connection_first(
                elliptic_design(), ELLIPTIC_PINS_UNIDIR,
                elliptic_filter_timing(), 5,
                resources=elliptic_resources(5))
        ok = synthesize_connection_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 6,
            resources=elliptic_resources(6))
        assert ok.verify() == []

    def test_slot_reserve_recovers_rate_5(self):
        result = synthesize_connection_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 5,
            resources=elliptic_resources(5), slot_reserve=3)
        assert result.verify() == []


class TestScheduleFirstFlow:
    def test_elliptic_at_minimum_rate(self):
        result = synthesize_schedule_first(
            elliptic_design(), ELLIPTIC_PINS_UNIDIR,
            elliptic_filter_timing(), 5, pipe_length=24)
        hard = [p for p in result.verify() if "budget" not in p]
        assert hard == []
        assert result.interconnect is not None

    def test_longer_pipe_never_more_constrained(self):
        short = synthesize_schedule_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3, pipe_length=7)
        long = synthesize_schedule_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 3, pipe_length=10)
        assert short.pipe_length <= 7
        assert long.pipe_length <= 10


class TestResultInvariants:
    def test_pins_report_covers_all_partitions(self):
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 4)
        assert sorted(result.pins_used()) == [0, 1, 2, 3]

    def test_stats_present(self):
        result = synthesize_connection_first(
            ar_general_design(), AR_GENERAL_PINS_UNIDIR,
            ar_filter_timing(), 4)
        assert "search_steps" in result.stats
        assert "reassignments" in result.stats


class TestConditionalSharingFlag:
    def design(self):
        from repro.cdfg import CdfgBuilder
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

    def pins(self):
        from repro.partition.model import (ChipSpec, OUTSIDE_WORLD,
                                           Partitioning)
        return Partitioning({OUTSIDE_WORLD: ChipSpec(32),
                             1: ChipSpec(24), 2: ChipSpec(24)})

    def test_flag_shares_branch_transfers(self):
        result = synthesize_connection_first(
            self.design(), self.pins(), ar_filter_timing(), 2,
            conditional_sharing=True)
        assert result.assignment.bus_of["w0"] \
            == result.assignment.bus_of["w1"]
        assert result.verify() == []

    def test_flag_conflicts_with_explicit_groups(self):
        with pytest.raises(ConnectionError_):
            synthesize_connection_first(
                self.design(), self.pins(), ar_filter_timing(), 2,
                conditional_sharing=True,
                share_groups={"w0": "g", "w1": "g"})


class TestSchedulerOption:
    def test_postpone_scheduler_through_flow(self):
        # ``postpone`` is a deprecated alias: it gets list's answer.
        from repro.designs import elliptic_resources

        def solve(scheduler):
            return synthesize_connection_first(
                elliptic_design(), ELLIPTIC_PINS_UNIDIR,
                elliptic_filter_timing(), 6,
                resources=elliptic_resources(6), scheduler=scheduler)
        result = solve("postpone")
        assert result.verify() == []
        assert result.schedule.start_step == solve("list").schedule.start_step
        assert any(e.event == "deprecated_alias"
                   for e in result.diagnostics.events)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SchedulingError):
            synthesize_connection_first(
                ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                ar_filter_timing(), 3, scheduler="magic")
