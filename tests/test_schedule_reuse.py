"""Schedule reuse along a warm chain never changes an answer.

A simple-flow solve hands the next one its finished schedule
(``result.warm_basis``, a :class:`PinWarmStart`), and the next solve
adopts it only when every pin verdict provably carries over (DESIGN
§12, "Schedule reuse"): same design, timing, module vector and
scheduler; the schedule's pin usage fits the new budgets; and no "no"
verdict, or new budgets component-wise <= the ones it was proved at.
Every answer must equal a cold solve's.
"""

import pytest

from repro import synthesize
from repro.check.fuzz import generate_cases
from repro.core.oracle_store import OracleStore, activate
from repro.core.pin_allocation import PinWarmStart
from repro.designs import (AR_SIMPLE_PINS, ar_simple_design,
                           ar_stacked_design, ar_stacked_pins)
from repro.errors import ReproError
from repro.explore import Executor, ResultCache, SweepSpec
from repro.explore.spec import DesignSpace, scale_pins
from repro.explore.worker import resolve_timing, run_job
from repro.ilp import WarmBasis
from repro.modules.library import ar_filter_timing
from repro.partition.simple import is_simple_partitioning
from repro.robustness import BudgetExhausted, SolveBudget


@pytest.fixture(autouse=True)
def no_shared_store():
    """Each solve here gets a private pin-oracle store, whatever store
    an earlier test left active."""
    previous = activate(None)
    yield
    activate(previous)


def _reused(result):
    return [e for e in result.diagnostics.events
            if (e.phase, e.event) == ("schedule", "reused")]


def _answer(result):
    return (result.schedule.start_step, sum(result.pins_used().values()),
            result.pipe_length)


def _chain(graph, pins, timing, rate, scales, **kwargs):
    """Solve ``scales`` in order, each handed its predecessor's
    ``warm_basis``; returns ``(scale, warm result, cold result)``."""
    out, warm = [], None
    for scale in scales:
        budgets = scale_pins(pins, scale)
        result = synthesize(graph, budgets, timing, rate, flow="simple",
                            pin_warm_basis=warm, **kwargs)
        cold = synthesize(graph, budgets, timing, rate, flow="simple",
                          **kwargs)
        out.append((scale, result, cold))
        warm = result.warm_basis or warm
    return out


class TestArSimpleChains:
    def test_descending_chain_reuses_where_verdicts_carry_over(self):
        graph, timing = ar_simple_design(), ar_filter_timing()
        chain = _chain(graph, AR_SIMPLE_PINS, timing, 2,
                       [2.0, 1.75, 1.5, 1.25, 1.1, 1.0])
        for scale, warm, cold in chain:
            assert _answer(warm) == _answer(cold), scale
            assert not warm.degraded
        assert [scale for scale, warm, _ in chain if _reused(warm)] \
            == [1.75, 1.0]
        # The event names the budgets the schedule was proved at: 2.0's
        # and 1.1's.
        proved = {scale: _reused(warm)[0].detail["proved_at"]
                  for scale, warm, _ in chain if _reused(warm)}
        assert proved == {
            1.75: list(chain[0][1].warm_basis.trajectory.budgets),
            1.0: list(chain[4][1].warm_basis.trajectory.budgets)}
        assert [(sum(w.pins_used().values()), w.pipe_length)
                for _, w, _ in chain] == [
            (456, 7), (456, 7), (408, 7), (328, 7), (264, 8), (264, 8)]

    def test_reused_point_runs_no_pin_check(self):
        graph, timing = ar_simple_design(), ar_filter_timing()
        (_, head, _), (_, reused, _) = _chain(
            graph, AR_SIMPLE_PINS, timing, 2, [2.0, 1.75])
        assert head.stats["pin_checks"] > 0
        assert reused.stats["pin_checks"] == 0
        assert reused.stats["pin_store_hits"] == 0
        # Handed on unchanged: the same trajectory and basis.
        assert reused.warm_basis is head.warm_basis

    def test_ascending_chain_reschedules_after_a_no_verdict(self):
        """1.0 rejected pin checks (latency 8, 264 pins); every looser
        point must reschedule, since a "no" at 1.0 says nothing there
        (cold 1.25 gives 7 / 328)."""
        graph, timing = ar_simple_design(), ar_filter_timing()
        chain = _chain(graph, AR_SIMPLE_PINS, timing, 2,
                       [1.0, 1.25, 1.5, 2.0])
        assert chain[0][1].warm_basis.trajectory.rejected
        for scale, warm, cold in chain:
            assert _answer(warm) == _answer(cold), scale
            assert not _reused(warm)
        assert [(sum(w.pins_used().values()), w.pipe_length)
                for _, w, _ in chain] == [
            (264, 8), (328, 7), (408, 7), (456, 7)]

    def test_usage_that_does_not_fit_reschedules(self):
        """1.5's schedule uses 408 pins, more than 1.25 allows."""
        graph, timing = ar_simple_design(), ar_filter_timing()
        (_, _, _), (_, warm, cold) = _chain(
            graph, AR_SIMPLE_PINS, timing, 2, [1.5, 1.25])
        assert not _reused(warm)
        assert _answer(warm) == _answer(cold)
        assert sum(warm.pins_used().values()) == 328

    def test_bare_basis_and_its_dict_form_still_work(self):
        graph, timing = ar_simple_design(), ar_filter_timing()
        head = synthesize(graph, AR_SIMPLE_PINS, timing, 2, flow="simple")
        basis = head.warm_basis.basis
        assert isinstance(basis, WarmBasis)
        for handed in (basis, basis.to_dict()):
            result = synthesize(graph, AR_SIMPLE_PINS, timing, 2,
                                flow="simple", pin_warm_basis=handed)
            assert not _reused(result)
            assert _answer(result) == _answer(head)
            assert isinstance(result.warm_basis, PinWarmStart)


class TestKey:
    """A trajectory from any other solve is ignored."""

    def test_other_design_is_not_reused(self):
        """ar-stacked-2 at pin scale 2.0 rejects no pin check, and its
        usage fits ar-stacked-4's budgets: only the key tells them
        apart."""
        timing = ar_filter_timing()
        two = synthesize(ar_stacked_design(2),
                         scale_pins(ar_stacked_pins(2), 2.0), timing, 2,
                         flow="simple")
        assert not two.warm_basis.trajectory.rejected
        graph = ar_stacked_design(4)
        pins = scale_pins(ar_stacked_pins(4), 2.0)
        warm = synthesize(graph, pins, timing, 2, flow="simple",
                          pin_warm_basis=two.warm_basis)
        cold = synthesize(graph, pins, timing, 2, flow="simple")
        assert not _reused(warm)
        assert _answer(warm) == _answer(cold)

    @pytest.mark.parametrize("change", ["timing", "modules"])
    def test_other_context_is_not_reused(self, change):
        graph, timing = ar_simple_design(), ar_filter_timing()
        head = synthesize(graph, AR_SIMPLE_PINS, timing, 2, flow="simple")
        kwargs = {}
        if change == "timing":
            # Timings compare by identity, as compiled designs do.
            timing = ar_filter_timing()
        else:
            kwargs["resources"] = {
                key: count + 1 for key, count in head.resources.items()}
        warm = synthesize(graph, AR_SIMPLE_PINS, timing, 2,
                          flow="simple", pin_warm_basis=head.warm_basis,
                          **kwargs)
        cold = synthesize(graph, AR_SIMPLE_PINS, timing, 2,
                          flow="simple", **kwargs)
        assert not _reused(warm)
        assert _answer(warm) == _answer(cold)

    def test_backend_that_probes_without_committing_exports_nothing(
            self, monkeypatch):
        """A "yes" the schedule never committed is not witnessed by it,
        so a run that left one exports no trajectory."""
        from repro.pipeline import registry
        from repro.scheduling.list_scheduler import ListScheduler

        class Lookahead:
            def __init__(self, hooks):
                self.hooks = hooks

            def can_schedule(self, node, step, schedule):
                self.hooks.can_schedule(node, step + 1, schedule)
                return self.hooks.can_schedule(node, step, schedule)

            def commit(self, node, step, schedule):
                self.hooks.commit(node, step, schedule)

        def lookahead(graph, timing, rate, resources, hooks, budget,
                      diagnostics):
            return ListScheduler(graph, timing, rate, resources,
                                 io_hooks=Lookahead(hooks),
                                 budget=budget).run()

        backend = registry.SchedulerBackend("lookahead", lookahead,
                                            flows=("simple",))
        monkeypatch.setitem(registry._SCHEDULERS, backend.name, backend)
        graph, timing = ar_simple_design(), ar_filter_timing()
        head = synthesize(graph, AR_SIMPLE_PINS, timing, 2, flow="simple",
                          scheduler="lookahead")
        assert head.warm_basis.trajectory is None
        again = synthesize(graph, AR_SIMPLE_PINS, timing, 2,
                           flow="simple", scheduler="lookahead",
                           pin_warm_basis=head.warm_basis)
        assert not _reused(again)

    def test_same_key_is_reused(self):
        graph, timing = ar_simple_design(), ar_filter_timing()
        head = synthesize(graph, AR_SIMPLE_PINS, timing, 2, flow="simple")
        again = synthesize(ar_simple_design(), AR_SIMPLE_PINS, timing, 2,
                           flow="simple", pin_warm_basis=head.warm_basis)
        assert len(_reused(again)) == 1
        assert not again.degraded
        assert _answer(again) == _answer(head)


#: Iteration caps, not a wall clock, keep every fuzz solve short and
#: deterministic (some fuzz designs stall the cutting planes).
FUZZ_BUDGET = SolveBudget(max_gomory_iters=500, max_bnb_nodes=50)


def _outcome(graph, budgets, timing, rate, warm):
    try:
        result = synthesize(graph, budgets, timing, rate, flow="simple",
                            pin_warm_basis=warm, budget=FUZZ_BUDGET)
    except (ReproError, BudgetExhausted) as exc:
        return type(exc).__name__, None
    return (result.degraded, *_answer(result)), result


def test_fuzz_descending_chains_equal_cold():
    """Over the simple-partition designs of the fuzz stream, a
    descending three-point warm chain answers exactly as cold solves.
    The one exception the caps allow: where a cold solve runs out of
    iterations, a point that adopted its predecessor's schedule still
    answers, since it runs no solver."""
    designs = reused = 0
    timing = resolve_timing("ar")
    for case in generate_cases("schedule-reuse", 40):
        graph, pins = case.build()
        if not is_simple_partitioning(graph) or pins.any_bidirectional():
            continue
        designs += 1
        warm = None
        for scale in (1.0, 0.8, 0.6):
            budgets = scale_pins(pins, scale)
            answer, result = _outcome(graph, budgets, timing, case.rate,
                                      warm)
            cold, _ = _outcome(graph, budgets, timing, case.rate, None)
            adopted = result is not None and bool(_reused(result))
            reused += adopted
            if cold == "BudgetExhausted" and adopted:
                continue
            assert answer == cold, (case, scale)
            if result is not None:
                warm = result.warm_basis or warm
    assert designs >= 8
    assert reused >= 5


def _neighbors_jobs():
    """The sweep-neighbors points: 60 pin scales of ar-stacked-2 and 40
    of ar-stacked-4 from 1.75 in steps of 0.0125, simple flow, L2."""
    jobs = []
    for copies, points in ((2, 60), (4, 40)):
        space = DesignSpace(name=f"ar-stacked-{copies}",
                            graph=ar_stacked_design(copies),
                            partitioning=ar_stacked_pins(copies))
        spec = SweepSpec(axes={"pin_scale": [
            round(1.75 + 0.0125 * step, 4) for step in range(points)]},
            base={"rate": 2, "flow": "simple"})
        jobs.extend(spec.expand(space))
    for index, job in enumerate(jobs):
        job.index = index
    return jobs


def test_sweep_store_equals_store_without_hand_offs():
    """Every verdict a reused point would have recorded is covered by
    its chain's, so the warm sweep's oracle store holds exactly what
    solving the same points in the same order, with no hand-off,
    leaves there."""
    jobs = _neighbors_jobs()
    warm_store = OracleStore()
    result = Executor(workers=1, cache=ResultCache(), warm=True,
                      oracle_store=warm_store).run(jobs)
    assert all(p["status"] == "ok" for p in result.points)
    reused = [p for p in result.points
              if any(e["event"] == "reused"
                     for e in p["diagnostics"]["events"])]
    assert len(reused) == 98  # all but the two chain heads

    plain_store = OracleStore()
    previous = activate(plain_store)
    try:
        for chain in Executor(warm=True)._chains(jobs):
            for job in chain:
                record = run_job(job.payload())
                assert record["status"] == "ok"
                assert not record["diagnostics"]["events"]
    finally:
        activate(previous)
    assert len(warm_store) == len(plain_store) > 0
    assert dict(warm_store.items()) == dict(plain_store.items())
