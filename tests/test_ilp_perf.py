"""Properties of the fast ILP kernel: oracle cache, undo log, shadow.

Three guarantees the performance work must not erode:

1. the memoized feasibility oracle in :class:`PinAllocationChecker`
   returns exactly what a cold, from-scratch solve returns, at every
   point of a randomized commit walk;
2. rejected probes roll the solver tableau back to byte-identical
   sparse state (not merely equivalent values);
3. cross-check mode — every sparse mutation mirrored onto the dense
   Fraction reference tableau — passes on small models end to end.
"""

from fractions import Fraction

import pytest

from repro.core.pin_allocation import PinAllocationChecker
from repro.designs import (AR_SIMPLE_PINS, ar_simple_design,
                           random_partitioned_design)
from repro.errors import ReproError
from repro.ilp import (DualAllIntegerSolver, Model, SolveStatus,
                       cross_check_enabled, lsum, set_cross_check,
                       solve_ilp, solve_lp)
from repro.modules.library import ar_filter_timing
from repro.scheduling.base import Schedule


def _packing_model(n_items, caps):
    m = Model()
    xs = {}
    for w in range(n_items):
        for k in range(len(caps)):
            xs[w, k] = m.binary(f"x{w}_{k}")
        m.add(lsum(xs[w, k] for k in range(len(caps))) >= 1)
    for k, cap in enumerate(caps):
        m.add(lsum(xs[w, k] for w in range(n_items)) <= cap)
    m.minimize(0)
    return m, xs


# ---------------------------------------------------------------------
class TestOracleCache:
    def _walk(self, graph, partitioning, L):
        """Greedy commit walk over io nodes, probing twice per state."""
        checker = PinAllocationChecker(graph, partitioning, L)
        schedule = Schedule(graph, ar_filter_timing(), L)
        for node in graph.io_nodes():
            for step in range(2 * L):
                cached = checker.can_schedule(node, step, schedule)
                again = checker.can_schedule(node, step, schedule)
                assert again == cached, "cache is not idempotent"
                # Independent reference: a cold branch & bound solve of
                # the same model with the same committed + probed bounds.
                tentative = dict(checker.fixed)
                tentative[node.name] = step % L
                cold = checker.problem.solve_with_fixed(tentative)
                assert cached == cold, (
                    f"oracle/cold disagreement at {node.name} "
                    f"step {step} with fixed={checker.fixed}")
                if cached:
                    checker.commit(node, step, schedule)
                    break
        assert checker.cache_hits > 0

    def test_ar_simple_walk(self):
        self._walk(ar_simple_design(), AR_SIMPLE_PINS, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_design_walk(self, seed):
        graph, partitioning = random_partitioned_design(seed, n_chips=2,
                                                        n_ops=8)
        try:
            self._walk(graph, partitioning, 2)
        except ReproError:
            pytest.skip("random instance infeasible from the start")

    def test_cache_distinguishes_commit_states(self):
        """Same probe, different committed set -> separate entries."""
        graph = ar_simple_design()
        checker = PinAllocationChecker(graph, AR_SIMPLE_PINS, 2)
        schedule = Schedule(graph, ar_filter_timing(), 2)
        ios = list(graph.io_nodes())
        probe = ios[0]
        checker.can_schedule(probe, 0, schedule)
        checker.commit(ios[1], 0, schedule)
        before = len(checker._oracle)
        checker.can_schedule(probe, 0, schedule)
        assert len(checker._oracle) == before + 1


# ---------------------------------------------------------------------
def _sparse_state(tableau):
    """The complete internal sparse representation, for byte-equality."""
    return (list(tableau._nums), list(tableau._rhs_num),
            list(tableau._dens), dict(tableau._cost_nums),
            tableau._cost_rhs, tableau._cost_den, list(tableau.basis))


class TestUndoLog:
    def test_rejected_probes_restore_identical_state(self):
        m, xs = _packing_model(3, [2, 1])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        solver.commit_lower_bound(xs[1, 0])
        state = _sparse_state(solver.tableau)
        shifts = dict(solver._shifts)
        # Feasible and infeasible probes alike must leave no trace.
        assert not solver.try_lower_bound(xs[2, 0])
        assert solver.try_lower_bound(xs[2, 1])
        assert not solver.try_lower_bound(xs[2, 0])
        assert _sparse_state(solver.tableau) == state
        assert solver._shifts == shifts

    def test_failed_commit_rolls_back(self):
        m, xs = _packing_model(2, [1, 1])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        state = _sparse_state(solver.tableau)
        with pytest.raises(ReproError):
            solver.commit_lower_bound(xs[1, 0])  # bin 0 is full
        assert _sparse_state(solver.tableau) == state
        # ... and the solver is still usable afterwards.
        assert solver.try_lower_bound(xs[1, 1])

    def test_journal_truncated_after_commit(self):
        """Commits are permanent: the undo journal must not keep them."""
        m, xs = _packing_model(3, [2, 2])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        solver.commit_lower_bound(xs[0, 0])
        assert not solver.tableau._journal, \
            "journal should be empty right after a commit"

    def test_journal_logs_each_row_once_per_mark(self):
        """First-touch journaling: within one mark a row, or the cost
        row, is logged once however many pivots change it."""
        m, xs = _packing_model(6, [2, 2, 2])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        tab = solver.tableau
        token = solver._mark()
        solver.add_lower_bound(xs[0, 2])
        assert solver.reoptimize()
        entries = tab._journal[token[0]:]
        rows = [entry[1] for entry in entries if entry[0] == "row"]
        assert rows and len(rows) == len(set(rows))
        assert sum(entry[0] == "cost" for entry in entries) <= 1
        assert {entry[0] for entry in entries} <= {"row", "cost",
                                                   "addrow", "addcol"}

    def test_nested_marks_restore_exactly(self):
        m, xs = _packing_model(6, [2, 2, 2])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        tab = solver.tableau
        outer_state = _sparse_state(tab)
        outer = solver._mark()
        solver.add_lower_bound(xs[0, 2])
        assert solver.reoptimize()
        inner_state = _sparse_state(tab)
        inner = solver._mark()
        # Rows first logged under the outer mark change again here and
        # must be logged again, or the inner rollback could not undo it.
        for w in (1, 2):
            solver.add_lower_bound(xs[w, 2])
            solver.reoptimize()
            solver._undo(inner)
            assert _sparse_state(tab) == inner_state
        solver._undo(outer)
        assert _sparse_state(tab) == outer_state


# ---------------------------------------------------------------------
class TestJournalBound:
    def test_tight_cold_solve_keeps_journal_bounded(self):
        """The cold simple-flow ar-stacked-4 L2 solve at pin scale 1.75
        runs one long cutting-plane probe; logging every pivot's rows
        grew the journal to about 148k entries under this iteration
        cap (and hundreds of MiB under longer deadlines)."""
        from repro import synthesize
        from repro.core.oracle_store import OracleStore, activate
        from repro.designs import ar_stacked_design, ar_stacked_pins
        from repro.ilp.tableau import Tableau
        from repro.robustness.budget import SolveBudget

        peak = [0]
        pivot = Tableau.pivot

        def watched(self, row, col):
            pivot(self, row, col)
            peak[0] = max(peak[0], len(self._journal or ()))

        previous = activate(OracleStore())
        try:
            Tableau.pivot = watched
            result = synthesize(
                ar_stacked_design(4), ar_stacked_pins(4, scale=1.75),
                ar_filter_timing(), 2, flow="simple",
                budget=SolveBudget(max_gomory_iters=2000,
                                   max_bnb_nodes=1, max_lp_solves=50))
        finally:
            Tableau.pivot = pivot
            activate(previous)
        assert result.degraded
        assert 0 < peak[0] <= 5000, peak[0]


# ---------------------------------------------------------------------
class TestCrossCheck:
    """Shadow-verified runs on small models (the debug mode itself)."""

    def _with_shadow(self, fn):
        was_on = cross_check_enabled()
        set_cross_check(True)
        try:
            return fn()
        finally:
            set_cross_check(was_on)

    def test_gomory_probe_cycle(self):
        def run():
            m, xs = _packing_model(3, [2, 1])
            solver = DualAllIntegerSolver(m)
            assert solver.reoptimize()
            solver.commit_lower_bound(xs[0, 0])
            assert not solver.try_lower_bound(xs[1, 0]) \
                or solver.try_lower_bound(xs[1, 0])
            solver.commit_lower_bound(xs[1, 1])
            assert solver.check_feasible()
        self._with_shadow(run)

    def test_lp_and_ilp(self):
        def run():
            m, xs = _packing_model(3, [2, 2])
            lp = solve_lp(m)
            assert lp.status is SolveStatus.OPTIMAL
            ilp = solve_ilp(m)
            assert ilp.status is SolveStatus.OPTIMAL
            assert all(v.denominator == 1 for v in ilp.values.values())
        self._with_shadow(run)

    def test_fractional_pivot_path(self):
        """An LP whose optimum is fractional exercises den != 1 rows."""
        def run():
            m = Model()
            x = m.add_var("x", lb=0)
            y = m.add_var("y", lb=0)
            m.add(2 * x + y <= 3)
            m.add(x + 2 * y <= 3)
            m.maximize(x + y)
            lp = solve_lp(m)
            assert lp.status is SolveStatus.OPTIMAL
            assert lp.objective == Fraction(2)
        self._with_shadow(run)
