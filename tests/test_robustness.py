"""Unit tests for the robustness subsystem: deadlines, budgets, tokens,
diagnostics, and the budget threading through each solver."""

import pytest

from repro import synthesize
from repro.designs import (AR_GENERAL_PINS_UNIDIR, AR_SIMPLE_PINS,
                           ar_general_design, ar_simple_design)
from repro.core.connection_search import ConnectionSearch
from repro.core.oracle_store import activate
from repro.errors import ReproError
from repro.ilp import DualAllIntegerSolver, Model, solve_ilp, solve_lp
from repro.modules.library import ar_filter_timing
from repro.perf import PERF
from repro.robustness import (BudgetExhausted, BudgetToken, Deadline,
                              DiagnosticEvent, Diagnostics, PHASE_CAPS,
                              SolveBudget, as_token)
from repro.robustness.diagnostics import EVENT_EXHAUSTED, EVENT_FALLBACK


class FakeClock:
    """Deterministic monotonic clock for deadline tests (seconds)."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_unlimited_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        assert deadline.unlimited
        assert deadline.remaining_ms() is None
        clock.advance(1e9)
        assert not deadline.expired()

    def test_elapsed_and_remaining(self):
        clock = FakeClock(5.0)
        deadline = Deadline.after_ms(100.0, clock=clock)
        assert deadline.elapsed_ms() == 0.0
        assert deadline.remaining_ms() == pytest.approx(100.0)
        clock.advance(0.06)
        assert deadline.elapsed_ms() == pytest.approx(60.0)
        assert deadline.remaining_ms() == pytest.approx(40.0)
        assert not deadline.expired()
        clock.advance(0.05)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0.0  # clamped


class TestBudgetToken:
    def test_default_budget_is_unlimited(self):
        token = SolveBudget().start()
        for _ in range(10_000):
            token.tick("gomory")
        assert token.counts["gomory"] == 10_000

    def test_iteration_cap_is_exact(self):
        token = SolveBudget(max_gomory_iters=5).start()
        for _ in range(5):
            token.tick("gomory")  # exactly the cap: allowed
        with pytest.raises(BudgetExhausted) as info:
            token.tick("gomory")
        exc = info.value
        assert exc.phase == "gomory"
        assert exc.iterations == 6
        assert exc.counts == {"gomory": 6}
        assert exc.deadline_ms is None

    def test_caps_are_per_phase(self):
        token = SolveBudget(max_gomory_iters=1, max_bnb_nodes=2).start()
        token.tick("gomory")
        token.tick("bnb")
        token.tick("bnb")
        with pytest.raises(BudgetExhausted):
            token.tick("bnb")

    def test_first_tick_checks_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        token = SolveBudget(deadline_ms=10.0).start(deadline)
        clock.advance(1.0)  # already past the deadline
        with pytest.raises(BudgetExhausted):
            token.tick("connection_search")

    def test_first_tick_after_expiry_raises(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        token = SolveBudget(deadline_ms=10.0).start(deadline)
        for _ in range(100):
            token.tick("fds")  # not expired yet
        clock.advance(1.0)  # expire
        with pytest.raises(BudgetExhausted) as info:
            token.tick("fds")  # every tick reads the clock
        assert info.value.deadline_ms == 10.0
        assert info.value.iterations == 101

    def test_check_is_unstrided(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        token = SolveBudget(deadline_ms=10.0).start(deadline)
        token.check("flow")
        clock.advance(1.0)
        with pytest.raises(BudgetExhausted):
            token.check("flow")
        assert token.counts == {}  # check() never counts iterations

    def test_child_resets_counters_but_shares_clock(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        token = SolveBudget(deadline_ms=100.0,
                            max_search_steps=2).start(deadline)
        token.tick("connection_search")
        token.tick("connection_search")
        child = token.child()
        assert child.counts == {}
        assert child.deadline is token.deadline
        child.tick("connection_search")
        child.tick("connection_search")
        with pytest.raises(BudgetExhausted):
            child.tick("connection_search")
        clock.advance(0.2)  # past the shared deadline
        with pytest.raises(BudgetExhausted):
            token.child().tick("connection_search")

    def test_incumbent_rides_along(self):
        token = SolveBudget(max_bnb_nodes=1).start()
        token.tick("bnb")
        token.note_incumbent(solver="bnb", objective=7.0)
        with pytest.raises(BudgetExhausted) as info:
            token.tick("bnb")
        assert info.value.incumbent == {"solver": "bnb",
                                        "objective": 7.0}
        assert info.value.progress()["incumbent"]["objective"] == 7.0

    def test_as_token(self):
        assert as_token(None) is None
        budget = SolveBudget(max_fds_moves=3)
        token = as_token(budget)
        assert isinstance(token, BudgetToken)
        assert as_token(token) is token
        with pytest.raises(TypeError):
            as_token(42)

    def test_phase_caps_cover_every_solver_phase(self):
        assert set(PHASE_CAPS) == {"gomory", "simplex", "bnb",
                                   "connection_search",
                                   "list_scheduler", "fds"}
        for field in PHASE_CAPS.values():
            assert hasattr(SolveBudget(), field)


class TestDiagnostics:
    def test_trail_and_degraded(self):
        diag = Diagnostics()
        assert not diag.degraded
        diag.record("dispatch", "selected", flow="simple")
        assert not diag.degraded
        diag.record_fallback("flow", frm="a", to="b")
        assert diag.degraded
        assert diag.trail == ["dispatch: selected",
                              "flow: fallback a -> b"]
        assert len(diag.fallbacks()) == 1

    def test_record_exhaustion_pops_phase(self):
        token = SolveBudget(max_gomory_iters=0).start()
        with pytest.raises(BudgetExhausted) as info:
            token.tick("gomory")
        diag = Diagnostics()
        event = diag.record_exhaustion(info.value)
        assert event.phase == "gomory"
        assert event.event == EVENT_EXHAUSTED
        assert "phase" not in event.detail
        assert event.detail["iterations"] == 1

    def test_round_trip(self):
        diag = Diagnostics()
        diag.record_fallback("flow", frm="x", to="y", extra=1)
        clone = Diagnostics.from_dict(diag.to_dict())
        assert clone.to_dict() == diag.to_dict()
        assert clone.degraded
        assert Diagnostics.from_dict(None).to_dict() == \
            {"degraded": False, "events": []}
        event = DiagnosticEvent.from_dict(
            {"phase": "p", "event": EVENT_FALLBACK,
             "detail": {"frm": "a", "to": "b"}})
        assert event.describe() == "p: fallback a -> b"


def _tiny_model():
    """max x + y s.t. x + 2y <= 4, 3x + y <= 6 (fractional LP optimum)."""
    model = Model()
    x = model.add_var("x", 0, None)
    y = model.add_var("y", 0, None)
    model.add(x + 2 * y <= 4)
    model.add(3 * x + y <= 6)
    model.maximize(x + y)
    return model


class TestSolverThreading:
    """Each solver trips BudgetExhausted at its natural boundary."""

    def test_simplex_counts_lp_solves(self):
        with pytest.raises(BudgetExhausted) as info:
            solve_lp(_tiny_model(),
                     budget=SolveBudget(max_lp_solves=0))
        assert info.value.phase == "simplex"

    def test_branch_bound_counts_nodes(self):
        with pytest.raises(BudgetExhausted) as info:
            solve_ilp(_tiny_model(),
                      budget=SolveBudget(max_bnb_nodes=0))
        assert info.value.phase == "bnb"

    def test_connection_search_counts_steps(self):
        graph = ar_general_design()
        search = ConnectionSearch(
            graph, AR_GENERAL_PINS_UNIDIR, 3,
            budget=SolveBudget(max_search_steps=2))
        with pytest.raises(BudgetExhausted) as info:
            search.run()
        exc = info.value
        assert exc.phase == "connection_search"
        assert exc.iterations == 3
        assert exc.incumbent["solver"] == "connection_search"

    def test_unbudgeted_solvers_unchanged(self):
        result = solve_ilp(_tiny_model())
        assert result.objective == 2


def _simple_ar(budget):
    """ar-simple L2 through the simple flow on a private pin-oracle
    store, so every pin probe runs a solver."""
    previous = activate(None)
    try:
        return synthesize(ar_simple_design(), AR_SIMPLE_PINS,
                          ar_filter_timing(), 2, flow="simple",
                          budget=budget)
    finally:
        activate(previous)


class TestPinCheckerLadder:
    """The pin checker latches down its ladder on an iteration cap and
    stops on an expired clock."""

    def test_expired_clock_inside_gomory_raises(self, monkeypatch):
        clock = FakeClock()
        token = SolveBudget(deadline_ms=1000.0).start(
            Deadline(1000.0, clock=clock))
        probe = DualAllIntegerSolver.probe_lower_bound

        def expiring_probe(self, var, amount=1):
            clock.advance(2.0)  # the clock runs out inside this probe
            return probe(self, var, amount)

        monkeypatch.setattr(DualAllIntegerSolver, "probe_lower_bound",
                            expiring_probe)
        before = PERF.snapshot()
        with pytest.raises(BudgetExhausted) as info:
            _simple_ar(token)
        counters = PERF.delta_since(before)["counters"]
        assert info.value.phase == "gomory"
        assert [e.phase for e in info.value.diagnostics.fallbacks()] == []
        assert counters.get("simplex.solves", 0) == 0
        assert counters.get("bnb.nodes", 0) == 0

    def test_iteration_caps_latch_to_bnb_then_lp(self):
        # The cold build's first solve takes 102 cutting-plane
        # iterations; the first probe trips the cap.
        result = _simple_ar(SolveBudget(max_gomory_iters=102,
                                        max_bnb_nodes=1))
        assert result.degraded
        assert [(e.phase, e.detail["frm"], e.detail["to"],
                 e.detail["iterations"], e.detail["counts"])
                for e in result.diagnostics.fallbacks()] == [
            ("pin_allocation", "gomory", "bnb", 103,
             {"gomory": 103, "list_scheduler": 1}),
            ("pin_allocation", "bnb", "lp", 2,
             {"gomory": 103, "list_scheduler": 1, "bnb": 2,
              "simplex": 1})]
