"""The pass-pipeline API: the flow registry, the scheduler-backend
registry, and the shared :class:`ResourceTable`/:class:`PinLedger`
accounting every pass reads."""

import pytest

from repro import synthesize
from repro.designs import (AR_GENERAL_PINS_UNIDIR, AR_SIMPLE_PINS,
                           ar_general_design, ar_simple_design)
from repro.errors import SchedulingError
from repro.modules.allocation import min_module_counts
from repro.modules.library import ar_filter_timing
from repro.partition.model import OUTSIDE_WORLD, ChipSpec, Partitioning
from repro.pipeline import (DEPRECATED_SCHEDULER_ALIASES, FlowContext,
                            PinLedger, ResourceTable, fits, flow_spec,
                            pin_caps, register_scheduler,
                            registered_flows, resolve_scheduler,
                            run_flow, scheduler_backend,
                            scheduler_names, usage_row)
from repro.pipeline.registry import _SCHEDULERS
from repro.robustness.diagnostics import Diagnostics


# ---------------------------------------------------------------------
# Flow registry
# ---------------------------------------------------------------------
class TestFlowRegistry:

    def test_all_three_chapter_flows_registered(self):
        assert registered_flows() == ["connection-first",
                                      "schedule-first", "simple"]

    def test_unknown_flow_raises(self):
        with pytest.raises(KeyError, match="unknown flow"):
            flow_spec("chapter-9")

    @pytest.mark.parametrize("flow,phased_subset", [
        ("simple", {"schedule", "simple-connect"}),
        ("connection-first", {"connect-search", "schedule"}),
        ("schedule-first", {"schedule", "post-connect"}),
    ])
    def test_pass_lists(self, flow, phased_subset):
        spec = flow_spec(flow)
        names = spec.pass_names()
        assert names[0] == "validate"
        assert phased_subset <= set(p.name for p in spec.phased)
        assert spec.perf_phase.startswith("flow.")

    def test_run_flow_matches_front_door(self):
        graph, timing = ar_simple_design(), ar_filter_timing()
        front = synthesize(graph, AR_SIMPLE_PINS, timing, 2,
                           flow="simple")
        from repro.core.flow import SynthesisOptions
        ctx = FlowContext(graph=ar_simple_design(),
                          partitioning=AR_SIMPLE_PINS,
                          timing=ar_filter_timing(), initiation_rate=2,
                          options=SynthesisOptions(flow="simple"),
                          token=None, diag=Diagnostics())
        result = run_flow("simple", ctx)
        assert result is ctx.result
        assert result.schedule.start_step == front.schedule.start_step
        assert result.pins_used() == front.pins_used()


# ---------------------------------------------------------------------
# One design-rule check per solve
# ---------------------------------------------------------------------
@pytest.fixture()
def check_calls(monkeypatch):
    """Every :func:`repro.check.rules.check_result` call, recorded."""
    from repro.check import rules
    calls = []
    real = rules.check_result

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rules, "check_result", counting)
    return calls


class TestOneCheckPerSolve:

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("flow,graph_fn,pins,rate", [
        ("auto", ar_simple_design, AR_SIMPLE_PINS, 2),
        ("simple", ar_simple_design, AR_SIMPLE_PINS, 2),
        ("connection-first", ar_general_design, AR_GENERAL_PINS_UNIDIR,
         3),
        ("schedule-first", ar_general_design, AR_GENERAL_PINS_UNIDIR,
         3),
    ])
    def test_synthesize(self, check_calls, flow, graph_fn, pins, rate,
                        check):
        result = synthesize(graph_fn(), pins, ar_filter_timing(), rate,
                            flow=flow, check=check)
        assert len(check_calls) == 1
        assert check_calls[0][0] is result
        assert result.check.ok

    def test_fallback_chain(self, check_calls):
        from repro.robustness import SolveBudget
        result = synthesize(ar_general_design(), AR_GENERAL_PINS_UNIDIR,
                            ar_filter_timing(), 3,
                            budget=SolveBudget(max_search_steps=3))
        assert result.diagnostics.fallbacks()[-1].detail["to"] \
            == "schedule-first"
        assert len(check_calls) == 1

    @staticmethod
    def _run_job(**params):
        from repro.explore.spec import DesignSpace, SweepSpec
        from repro.explore.worker import run_job
        space = DesignSpace(name="ar-general", graph=ar_general_design(),
                            partitioning=AR_GENERAL_PINS_UNIDIR,
                            timing="ar")
        job = SweepSpec(base=dict(params, rate=3,
                                  flow="connection-first")
                        ).expand(space)[0]
        return run_job(dict(job.payload(), check=True))

    def test_explorer_job(self, check_calls):
        record = self._run_job()
        assert record["status"] == "ok"
        assert record["check"]["ok"]
        assert len(check_calls) == 1

    def test_explorer_job_failing_its_check_is_invalid(
            self, check_calls, early_consumer_backend):
        record = self._run_job(scheduler=early_consumer_backend)
        assert record["status"] == "invalid"
        assert record["error"].startswith("design-rule check failed: ")
        assert not record["check"]["ok"]
        assert record["metrics"]["total_pins"] > 0
        assert len(check_calls) == 1


# ---------------------------------------------------------------------
# Scheduler-backend registry
# ---------------------------------------------------------------------
class TestSchedulerRegistry:

    def test_builtins_registered(self):
        assert scheduler_names() == ["fds", "list"]
        # ``heap`` survives only as a deprecated spelling of ``list``.
        diag = Diagnostics()
        assert resolve_scheduler("heap", diag) == "list"
        events = [e for e in diag.events
                  if e.event == "deprecated_alias"]
        assert [e.detail for e in events] == [
            {"alias": "heap", "canonical": "list"}]

    def test_names_filtered_by_flow(self):
        assert scheduler_names("simple") == ["list"]
        assert scheduler_names("connection-first") == ["list"]
        assert scheduler_names("schedule-first") == ["fds"]
        # A point spelled ``heap`` shares the ``list`` point's cache key.
        from repro.core.flow import SynthesisOptions
        from repro.explore.keys import job_key
        keys = {job_key(ar_simple_design(), AR_SIMPLE_PINS, 2,
                        SynthesisOptions(flow="simple", scheduler=name))
                for name in ("list", "heap")}
        assert len(keys) == 1

    def test_resolve_alias_records_diagnostics(self):
        diag = Diagnostics()
        assert resolve_scheduler("postponement", diag) == "list"
        events = [e for e in diag.events
                  if e.event == "deprecated_alias"]
        assert len(events) == 1
        assert events[0].detail == {"alias": "postponement",
                                    "canonical": "list"}

    def test_resolve_canonical_is_silent(self):
        diag = Diagnostics()
        assert resolve_scheduler("list", diag) == "list"
        assert not diag.events

    def test_every_alias_resolves_to_a_registered_backend(self):
        for alias, canonical in DEPRECATED_SCHEDULER_ALIASES.items():
            assert resolve_scheduler(alias) == canonical
            assert scheduler_backend(canonical) is not None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("list", lambda *a: None)

    def test_alias_name_registration_rejected(self):
        with pytest.raises(ValueError, match="deprecated alias"):
            register_scheduler("postponement", lambda *a: None)

    def test_third_party_backend_end_to_end(self):
        """A freshly registered backend is immediately usable through
        the front door and produces a checkable result."""
        from repro.scheduling.list_scheduler import ListScheduler

        def tutorial(graph, timing, rate, resources, hooks, budget,
                     diagnostics):
            return ListScheduler(graph, timing, rate, resources,
                                 io_hooks=hooks, budget=budget).run()

        register_scheduler("tutorial-backend", tutorial,
                           description="docs example")
        try:
            graph, timing = ar_general_design(), ar_filter_timing()
            baseline = synthesize(graph, AR_GENERAL_PINS_UNIDIR,
                                  timing, 3, flow="connection-first")
            result = synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing,
                                3, flow="connection-first",
                                scheduler="tutorial-backend")
            assert not result.verify()
            assert (result.schedule.start_step
                    == baseline.schedule.start_step)
        finally:
            _SCHEDULERS.pop("tutorial-backend")

    def test_unknown_scheduler_fails_fast(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing, 3,
                       flow="connection-first", scheduler="sjf")

    def test_flow_mismatch_fails_fast(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        with pytest.raises(SchedulingError, match="not available"):
            synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing, 3,
                       flow="connection-first", scheduler="fds")

    def test_deprecated_spelling_still_synthesizes(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        canonical = synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing,
                               3, flow="connection-first",
                               scheduler="list")
        aliased = synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing, 3,
                             flow="connection-first",
                             scheduler="list-scheduler")
        assert (aliased.schedule.start_step
                == canonical.schedule.start_step)
        assert any(e.event == "deprecated_alias"
                   for e in aliased.diagnostics.events)

    @pytest.mark.parametrize("alias", ["modulo", "postpone",
                                       "postponement", "postponed"])
    @pytest.mark.parametrize("flow,rate", [("connection-first", 3),
                                           ("simple", 2)])
    def test_deleted_backend_name_gets_lists_answer(self, alias, flow,
                                                    rate):
        from repro.core.flow import SynthesisOptions
        from repro.explore.keys import job_key
        graph, pins = ((ar_general_design(), AR_GENERAL_PINS_UNIDIR)
                       if flow == "connection-first"
                       else (ar_simple_design(), AR_SIMPLE_PINS))

        def solve(name):
            return synthesize(graph, pins, ar_filter_timing(), rate,
                              flow=flow, scheduler=name)

        def key(name):
            return job_key(graph, pins, rate,
                           SynthesisOptions(flow=flow, scheduler=name))

        baseline, aliased = solve("list"), solve(alias)
        assert (aliased.schedule.start_step
                == baseline.schedule.start_step)
        assert [e.detail for e in aliased.diagnostics.events
                if e.event == "deprecated_alias"] == [
            {"alias": alias, "canonical": "list"}]
        assert key(alias) == key("list")


# ---------------------------------------------------------------------
# Pin accounting primitives
# ---------------------------------------------------------------------
def _mixed_partitioning():
    return Partitioning({
        OUTSIDE_WORLD: ChipSpec(64),
        1: ChipSpec(32),                                   # pooled
        2: ChipSpec(32, input_pins=12, output_pins=20),    # split
    })


class TestPinPrimitives:

    def test_pin_caps(self):
        pins = _mixed_partitioning()
        assert pin_caps(pins.chip(1)) == (32, None, None)
        assert pin_caps(pins.chip(2)) == (32, 20, 12)

    def test_fits_pooled_only_bounds_total(self):
        spec = _mixed_partitioning().chip(1)
        assert fits(spec, 32, 0)
        assert fits(spec, 0, 32)
        assert not fits(spec, 20, 13)

    def test_fits_split_bounds_each_side(self):
        spec = _mixed_partitioning().chip(2)
        assert fits(spec, 20, 12)
        assert not fits(spec, 21, 0)
        assert not fits(spec, 0, 13)

    def test_usage_row_encodings(self):
        pins = _mixed_partitioning()
        assert usage_row(pins.chip(1), 5, 7) == [12, -1, -1]
        assert usage_row(pins.chip(2), 5, 7) == [0, 5, 7]


class TestPinLedger:

    def test_book_and_free_pins(self):
        ledger = PinLedger(_mixed_partitioning())
        assert ledger.free_pins(1) == 32
        ledger.book({1: (8, 4), 2: (16, 0)})
        assert ledger.free_pins(1) == 20
        assert ledger.used[2] == 16
        assert ledger.out_used[2] == 16

    def test_delta_fits_respects_split(self):
        ledger = PinLedger(_mixed_partitioning())
        assert ledger.delta_fits({2: (20, 12)})
        assert not ledger.delta_fits({2: (21, 0)})
        ledger.book({2: (20, 0)})
        assert not ledger.delta_fits({2: (1, 0)})
        assert ledger.delta_fits({2: (0, 12)})

    def test_snapshot_restore_roundtrip(self):
        ledger = PinLedger(_mixed_partitioning())
        ledger.book({1: (3, 3)})
        snap = ledger.snapshot()
        ledger.book({1: (10, 10), 2: (5, 5)})
        ledger.restore(snap)
        assert ledger.used[1] == 6 and ledger.used[2] == 0

    def test_violation_messages_are_the_checker_contract(self):
        ledger = PinLedger(_mixed_partitioning())
        ledger.book({1: (33, 0), 2: (21, 13)})
        problems = ledger.violations()
        assert "partition 1 uses 33 pins (> budget 32)" in problems
        assert ("partition 2 uses 21 output pins "
                "(> output-pin budget 20)") in problems
        assert ("partition 2 uses 13 input pins "
                "(> input-pin budget 12)") in problems

    def test_from_interconnect_matches_check_budget(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        result = synthesize(graph, AR_GENERAL_PINS_UNIDIR, timing, 3,
                            flow="connection-first")
        ledger = PinLedger.from_interconnect(result.interconnect,
                                             AR_GENERAL_PINS_UNIDIR)
        assert ledger.violations() == \
            result.interconnect.check_budget(AR_GENERAL_PINS_UNIDIR)
        for index in AR_GENERAL_PINS_UNIDIR.indices():
            out_used, in_used = \
                result.interconnect.pins_used_split(index)
            assert ledger.used[index] == out_used + in_used


class TestResourceTable:

    def test_modules_default_lazily(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        table = ResourceTable(graph, AR_GENERAL_PINS_UNIDIR, timing, 3)
        assert table._modules is None
        assert table.modules == min_module_counts(graph, timing, 3)

    def test_explicit_modules_win(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        vector = min_module_counts(graph, timing, 3)
        table = ResourceTable(graph, AR_GENERAL_PINS_UNIDIR, timing, 3,
                              modules=vector)
        assert table.modules == vector
        override = dict(vector)
        first = next(iter(override))
        override[first] += 1
        table.set_modules(override)
        assert table.modules[first] == vector[first] + 1

    def test_module_pool_is_fresh_per_call(self):
        graph, timing = ar_general_design(), ar_filter_timing()
        table = ResourceTable(graph, AR_GENERAL_PINS_UNIDIR, timing, 3)
        assert table.module_pool() is not table.module_pool()
