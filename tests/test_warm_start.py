"""Warm-start tier: basis reuse, the shared pin-oracle store, and the
monotonicity/witness shortcuts (DESIGN.md §12).

The soundness contract under test: every warm-started or
store-answered solve must be *bit-identical* to a cold solve — the
warm tier may only skip work, never change answers.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import synthesize
from repro.core.oracle_store import (INIT_GROUP, INIT_NODE, OracleStore,
                                     activate, budget_vector)
from repro.core.pin_allocation import (PinAllocationProblem,
                                       assignment_usage,
                                       design_signature)
from repro.designs import (AR_SIMPLE_PINS, ar_simple_design,
                           ar_stacked_design, ar_stacked_pins)
from repro.explore import DesignSpace, Executor, ResultCache, SweepSpec
from repro.ilp import DualAllIntegerSolver, Model, lsum
from repro.modules.library import ar_filter_timing
from repro.perf import PERF
from repro.service.catalog import design_space


def _packing_model(n_items, caps):
    """Assign each item to one bin under capacity; minimize 0."""
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


KEY = ("a" * 32, (("op1", 0),), "op2", 1)


# ---------------------------------------------------------------------
class TestOracleStore:
    def test_exact_hit(self):
        store = OracleStore()
        store.record(KEY, (10, -1, -1), True)
        assert store.lookup(KEY, (10, -1, -1)) == (True, "exact")
        assert store.exact_hits == 1

    def test_miss_on_unknown_key_and_budgets(self):
        store = OracleStore()
        store.record(KEY, (10, -1, -1), True)
        other = (KEY[0], KEY[1], "op3", 1)
        assert store.lookup(other, (10, -1, -1)) is None
        assert store.lookup(KEY, (9, -1, -1)) is None
        assert store.misses == 2

    def test_feasible_transfers_to_larger_budgets(self):
        store = OracleStore()
        store.record(KEY, (10, 4, 4), True)
        assert store.lookup(KEY, (12, 4, 5)) == (True, "dominance")
        assert store.dominance_hits == 1

    def test_infeasible_transfers_to_smaller_budgets(self):
        store = OracleStore()
        store.record(KEY, (10, 4, 4), False)
        assert store.lookup(KEY, (9, 4, 3)) == (False, "dominance")

    def test_no_unsound_transfer(self):
        store = OracleStore()
        store.record(KEY, (10, 4, 4), True)
        store.record(KEY, (4, 2, 2), False)
        # Feasible does not transfer down, infeasible not up; (6, 3, 3)
        # sits strictly between the two recorded vectors.
        assert store.lookup(KEY, (6, 3, 3)) is None
        # Incomparable vectors transfer nothing either.
        assert store.lookup(KEY, (20, 1, 20)) is None

    def test_witness_transfers_beyond_budget_dominance(self):
        store = OracleStore()
        # Proved feasible at a big budget, but the feasible point only
        # used (3, 1, 2): the verdict travels to every budget vector
        # the *usage* fits, far below the proving budget.
        store.record(KEY, (100, 50, 50), True, witness=(3, 1, 2))
        assert store.lookup(KEY, (4, 1, 2)) == (True, "dominance")
        assert store.lookup(KEY, (2, 1, 2)) is None  # usage too big

    def test_witness_skips_unconstrained_slots(self):
        store = OracleStore()
        store.record(KEY, (100, -1, -1), True, witness=(3, -1, -1))
        # -1 on either side means "unconstrained": only the total-pin
        # slot participates in the fit.
        assert store.lookup(KEY, (5, 2, 2)) == (True, "dominance")

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "oracle.jsonl")
        store = OracleStore(path)
        store.record(KEY, (10, -1, -1), True, witness=(3, -1, -1))
        store.record(KEY, (2, -1, -1), False)
        reloaded = OracleStore(path)
        assert len(reloaded) == 2
        assert reloaded.lookup(KEY, (10, -1, -1)) == (True, "exact")
        assert reloaded.lookup(KEY, (1, -1, -1)) == (False, "dominance")
        # The witness survived the roundtrip.
        assert reloaded.lookup(KEY, (4, -1, -1)) == (True, "dominance")

    def test_corrupt_lines_tolerated(self, tmp_path):
        path = str(tmp_path / "oracle.jsonl")
        store = OracleStore(path)
        store.record(KEY, (10, -1, -1), True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"v": 999, "sig": "x"}) + "\n")
            handle.write(json.dumps({"v": 1, "sig": "x"}) + "\n")
        reloaded = OracleStore(path)
        assert len(reloaded) == 1
        assert reloaded.corrupt_lines == 3
        assert reloaded.lookup(KEY, (10, -1, -1)) == (True, "exact")

    def test_duplicate_records_collapse(self):
        store = OracleStore()
        store.record(KEY, (10, -1, -1), True)
        store.record(KEY, (10, -1, -1), True)
        assert len(store) == 1

    def test_delta_and_merge(self):
        worker = OracleStore()
        worker.record(KEY, (10, -1, -1), True)
        mark = worker.mark()
        worker.record(KEY, (2, -1, -1), False)
        delta = worker.delta_since(mark)
        assert len(delta) == 1

        parent = OracleStore()
        assert parent.merge(delta) == 1
        assert parent.merge(delta) == 0  # idempotent
        assert parent.lookup(KEY, (2, -1, -1)) == (False, "exact")
        # Merged entries are re-logged, so deltas propagate one more
        # level up (worker -> sweep store -> service store).
        grandparent = OracleStore()
        assert grandparent.merge(parent.delta_since(0)) == 1

    def test_merge_tolerates_garbage_entries(self):
        parent = OracleStore()
        assert parent.merge([{"nonsense": 1}]) == 0
        assert parent.corrupt_lines == 1

    def test_stats_shape(self):
        store = OracleStore()
        store.record(KEY, (10, -1, -1), True)
        store.lookup(KEY, (10, -1, -1))
        store.lookup(KEY, (99, 99, 99))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["exact_hits"] == 1
        assert stats["dominance_hits"] == 1  # witnessless dominance
        assert 0.0 <= stats["hit_rate"] <= 1.0


# ---------------------------------------------------------------------
class TestCoveragePruning:
    def test_covered_feasible_record_is_dropped(self):
        store = OracleStore()
        store.record(KEY, (10, 4, 4), True, witness=(3, 1, 2))
        mark = store.mark()
        # Answered by witness fit, and its witness is no tighter.
        store.record(KEY, (6, 2, 3), True, witness=(3, 1, 2))
        store.record(KEY, (12, 5, 5), True)
        assert len(store) == 1
        assert store.delta_since(mark) == []
        # A pruned entry's own budgets answer by dominance instead.
        assert store.lookup(KEY, (6, 2, 3)) == (True, "dominance")

    def test_tighter_witness_is_kept(self):
        store = OracleStore()
        store.record(KEY, (10, 4, 4), True, witness=(3, 1, 2))
        store.record(KEY, (10, 4, 4), True, witness=(2, 1, 2))
        assert len(store) == 2
        assert store.lookup(KEY, (2, 1, 2)) == (True, "dominance")

    def test_unbounded_witness_slot_is_not_covered(self):
        store = OracleStore()
        store.record(KEY, (4, 4, 4), True, witness=(2, 0, 0))
        # The new witness leaves slot 0 unbounded; the older one bounds
        # it, so it cannot answer (0, 0, 0) and does not cover.
        store.record(KEY, (3, 0, 0), True, witness=(-1, 0, 0))
        assert len(store) == 2
        assert store.lookup(KEY, (0, 0, 0)) == (True, "dominance")

    def test_witnessless_entry_does_not_cover_a_witness(self):
        store = OracleStore()
        store.record(KEY, (6, 3, 3), True)
        store.record(KEY, (8, 4, 4), True, witness=(2, 1, 1))
        assert len(store) == 2
        assert store.lookup(KEY, (2, 1, 1)) == (True, "dominance")

    def test_infeasible_covered_only_from_above(self):
        store = OracleStore()
        store.record(KEY, (6, 3, 3), False)
        store.record(KEY, (5, 3, 2), False)
        assert len(store) == 1
        store.record(KEY, (7, 3, 3), False)
        assert len(store) == 2

    def test_verdicts_never_cover_each_other(self):
        store = OracleStore()
        store.record(KEY, (6, 3, 3), False)
        store.record(KEY, (6, 3, 3), True)
        assert len(store) == 2


#: The property test's budget vectors: one chip's (total, input,
#: output) slots over a few pin values, so the query grid stays
#: exhaustive and small.
SLOTS = 3
PINS = range(0, 4)


def _fits(usage, budgets):
    return all(u <= b for u, b in zip(usage, budgets) if u >= 0 and b >= 0)


def _le(small, large):
    return all(a <= b for a, b in zip(small, large))


def _reference(records, budgets):
    """What a store that keeps every record answers (verdict or None)."""
    for vec, verdict, witness in records:
        if verdict and (_le(vec, budgets)
                        or (witness is not None and _fits(witness, budgets))):
            return True
        if not verdict and _le(budgets, vec):
            return False
    return None


def _grid(pattern):
    """Every budget vector of one split pattern (-1 in unbounded slots)."""
    vectors = [()]
    for unbounded in pattern:
        values = (-1,) if unbounded else PINS
        vectors = [vec + (v,) for vec in vectors for v in values]
    return vectors


@st.composite
def sound_records(draw):
    """Records proved against a hidden monotone rule.

    The rule is "feasible iff one of the hidden usage vectors fits the
    budgets", with ``-1`` meaning an unbounded slot on either side; the
    split pattern (which budget slots are ``-1``) is fixed per key, as
    the design signature fixes it.  Feasible records carry no witness,
    a fitting usage vector, or one loosened up to the budgets.
    """
    pattern = draw(st.lists(st.booleans(), min_size=SLOTS,
                            max_size=SLOTS))
    slot = st.one_of(st.just(-1), st.integers(0, PINS[-1]))
    usages = draw(st.lists(st.tuples(*[slot] * SLOTS), max_size=4))
    records = []
    for _ in range(draw(st.integers(1, 16))):
        budgets = tuple(-1 if unbounded else draw(st.sampled_from(PINS))
                        for unbounded in pattern)
        fitting = [u for u in usages if _fits(u, budgets)]
        if not fitting:
            records.append((budgets, False, None))
            continue
        witness = draw(st.sampled_from([None] + fitting))
        if witness is not None and draw(st.booleans()):
            witness = tuple(b if u >= 0 and b >= 0 and draw(st.booleans())
                            else u for u, b in zip(witness, budgets))
        records.append((budgets, True, witness))
    return pattern, usages, records


class TestCoveragePreservesAnswers:
    @given(sound_records())
    @settings(max_examples=200, deadline=None)
    def test_pruning_never_changes_an_answer(self, drawn):
        pattern, usages, records = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "oracle.jsonl")
            store = OracleStore(path)
            for budgets, verdict, witness in records:
                store.record(KEY, budgets, verdict, witness=witness)
            for query in _grid(pattern):
                expected = _reference(records, query)
                if expected is not None:  # the records are sound
                    assert expected == any(_fits(u, query) for u in usages)
                hit = store.lookup(KEY, query)
                assert (None if hit is None else hit[0]) == expected, query

            kept = dict(store.items())
            assert dict(OracleStore(path).items()) == kept
            merged = OracleStore()
            merged.merge(store.delta_since(0))
            assert dict(merged.items()) == kept


# ---------------------------------------------------------------------
class TestWarmBasis:
    def test_roundtrip_and_refusal_after_commit(self):
        m, xs = _packing_model(3, [2, 2])
        solver = DualAllIntegerSolver(m)
        assert solver.reoptimize()
        warm = solver.export_warm_basis()
        assert warm is not None
        clone = type(warm).from_dict(
            json.loads(json.dumps(warm.to_dict())))
        assert clone == warm
        # After a committed bound the tableau is parent-specific and
        # the export must refuse.
        solver.commit_lower_bound(xs[0, 0])
        assert solver.export_warm_basis() is None

    def test_tightening_is_sound_relaxation_is_suspect(self):
        m, _ = _packing_model(3, [2, 2])
        parent = DualAllIntegerSolver(m)
        assert parent.reoptimize()
        warm = parent.export_warm_basis()

        tighter, _ = _packing_model(3, [2, 1])
        ws = DualAllIntegerSolver.warm_start(tighter, warm)
        assert ws is not None and ws.warm_sound

        looser, _ = _packing_model(3, [2, 3])
        ws = DualAllIntegerSolver.warm_start(looser, warm)
        assert ws is not None and not ws.warm_sound

    def test_structure_mismatch_rejected(self):
        m, _ = _packing_model(3, [2, 2])
        parent = DualAllIntegerSolver(m)
        assert parent.reoptimize()
        warm = parent.export_warm_basis()
        other, _ = _packing_model(4, [2, 2])
        before = PERF.snapshot()
        assert DualAllIntegerSolver.warm_start(other, warm) is None
        counters = PERF.delta_since(before)["counters"]
        assert counters.get("gomory.warm_rejected", 0) == 1

    def test_warm_feasibility_matches_cold(self):
        m, _ = _packing_model(4, [3, 2])
        parent = DualAllIntegerSolver(m)
        assert parent.reoptimize()
        warm = parent.export_warm_basis()
        for caps in ([3, 2], [3, 1], [2, 2], [4, 3], [1, 1]):
            sibling, _ = _packing_model(4, caps)
            cold = DualAllIntegerSolver(sibling).check_feasible()
            ws = DualAllIntegerSolver.warm_start(sibling, warm)
            if ws is None:
                # Rejection is only allowed when the model really is
                # infeasible (inherited cuts cannot prove it).
                assert not cold, caps
            else:
                assert cold, caps


# ---------------------------------------------------------------------
def _solve_simple(store):
    previous = activate(store)
    try:
        return synthesize(ar_simple_design(), AR_SIMPLE_PINS,
                          ar_filter_timing(), 2, flow="simple")
    finally:
        activate(previous)


class TestCheckerStoreIntegration:
    def test_second_solve_replays_from_store(self):
        store = OracleStore()
        first = _solve_simple(store)
        before = PERF.snapshot()
        second = _solve_simple(store)
        counters = PERF.delta_since(before)["counters"]
        # Same budgets, hot store: every probe is answered from the
        # store and no tableau is ever materialized.
        assert counters.get("tableau.pivots", 0) == 0
        assert counters.get("pin.store_hits", 0) > 0
        assert second.stats["pin_store_hits"] > 0
        assert second.pipe_length == first.pipe_length
        assert second.pins_used() == first.pins_used()

    def test_flow_stats_surface_cache_misses(self):
        result = _solve_simple(OracleStore())
        assert result.stats["pin_cache_misses"] > 0
        assert result.stats["pin_checks"] >= (
            result.stats["pin_cache_hits"]
            + result.stats["pin_cache_misses"])

    def test_finalize_records_full_trajectory(self):
        graph = ar_simple_design()
        store = OracleStore()
        result = _solve_simple(store)
        sig = design_signature(graph, AR_SIMPLE_PINS, 2)
        budgets = budget_vector(AR_SIMPLE_PINS)
        io_names = {n.name for n in graph.io_nodes()}

        entries = dict(store.items())
        init_key = (sig, (), INIT_NODE, INIT_GROUP)
        assert init_key in entries
        # The finalize pass re-records the init verdict with the
        # finished schedule's usage as witness.
        witnessed = [w for vec, v, w in entries[init_key]
                     if v and w is not None]
        assert witnessed
        for witness in witnessed:
            assert all(w <= b for w, b in zip(witness, budgets)
                       if w >= 0 and b >= 0)
        # Every io op appears as a commit step of the trajectory.
        committed = {key[2] for key in entries
                     if key[0] == sig and key[2] != INIT_NODE}
        assert io_names <= committed
        assert result.schedule is not None

    def test_store_verdicts_match_direct_solves(self):
        graph = ar_simple_design()
        store = OracleStore()
        _solve_simple(store)
        problem = PinAllocationProblem(graph, AR_SIMPLE_PINS, 2)
        checked = 0
        for key, bucket in store.items():
            _sig, fingerprint, node, group = key
            if node == INIT_NODE or checked >= 8:
                continue
            fixed = dict(fingerprint)
            fixed[node] = group
            for _budgets, verdict, _witness in bucket:
                assert problem.solve_with_fixed(fixed) == verdict, key
            checked += 1
        assert checked >= 4

    def test_assignment_usage_fits_budgets(self):
        graph = ar_simple_design()
        result = _solve_simple(OracleStore())
        assignment = {n.name: result.schedule.group(n.name)
                      for n in graph.io_nodes()}
        usage = assignment_usage(graph, AR_SIMPLE_PINS, 2, assignment)
        budgets = budget_vector(AR_SIMPLE_PINS)
        assert len(usage) == len(budgets)
        assert all(u <= b for u, b in zip(usage, budgets)
                   if u >= 0 and b >= 0)


# ---------------------------------------------------------------------
class TestWarmExecutorEqualsCold:
    def test_warm_chain_is_bit_identical_to_cold(self):
        copies = 2
        space = DesignSpace(name=f"ar-stacked-{copies}",
                            graph=ar_stacked_design(copies),
                            partitioning=ar_stacked_pins(copies),
                            timing="ar")
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                               "pin_scale": [1.8, 1.9, 2.0]})
        jobs = spec.expand(space)

        def run(warm):
            executor = Executor(
                workers=1, cache=ResultCache(), warm=warm,
                oracle_store=OracleStore() if warm else None)
            points = executor.run(jobs).points
            out = {}
            for record in points:
                metrics = {k: v for k, v in record["metrics"].items()
                           if k != "wall_ms"}
                out[record["key"]] = (record["status"], metrics)
            return out

        cold = run(False)
        warm = run(True)
        assert warm == cold
        assert len(cold) == len(jobs)
        assert all(status == "ok" for status, _ in cold.values())

    def test_each_design_gets_its_own_chain(self):
        """Two designs at equal sweep params: one chain per design (a
        merged chain hands each warm basis to the other design), and
        warm answers equal cold ones.  Inline here; CI's explore-smoke
        list cell runs the same sweep on two forked workers."""
        jobs = []
        for name in ("ar-stacked-2", "ar-stacked-4"):
            spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                                   "pin_scale": [2.0, 1.95, 1.9]})
            jobs.extend(spec.expand(design_space(name)))
        for index, job in enumerate(jobs):
            job.index = index
        chains = Executor(warm=True)._chains(jobs)
        assert sorted({job.graph.name for job in chain}
                      for chain in chains) == [{"ar-stacked-2"},
                                               {"ar-stacked-4"}]

        def answers(warm):
            executor = Executor(
                workers=1, cache=ResultCache(), warm=warm,
                oracle_store=OracleStore() if warm else None)
            return {p["key"]: (p["status"], p["metrics"]["total_pins"],
                               p["metrics"]["latency"])
                    for p in executor.run(jobs).points}

        cold = answers(False)
        assert len(cold) == len(jobs)
        assert all(status == "ok" for status, _, _ in cold.values())
        assert answers(True) == cold

    def test_designs_sharing_a_graph_get_their_own_chains(self):
        """ar-general and ar-general-bidir share one graph and differ
        in port model: still one chain each."""
        from repro.explore.keys import graph_digest

        jobs = []
        for name in ("ar-general", "ar-general-bidir"):
            spec = SweepSpec(axes={"rate": [3], "pin_scale": [1.0, 0.9]})
            jobs.extend(spec.expand(design_space(name)))
        assert graph_digest(jobs[0].graph) == graph_digest(jobs[-1].graph)
        chains = Executor(warm=True)._chains(jobs)
        assert [[job.partitioning.chip(1).bidirectional for job in chain]
                for chain in chains] == [[False, False], [True, True]]

    def test_chain_keys_hash_each_graph_once(self, monkeypatch):
        """The graph's canonical form is memoized on the graph, so
        keying a sweep over two port models and chaining it serializes
        the graph once, not once per job key plus once for the chain
        key.  The space is built fresh: the catalog's shared graph may
        already be serialized by an earlier test."""
        from repro import io_json

        hashed = []
        serialize = io_json.graph_to_dict
        monkeypatch.setattr(io_json, "graph_to_dict", lambda graph: (
            hashed.append(graph.name), serialize(graph))[1])
        spec = SweepSpec(axes={
            "rate": [2], "flow": ["simple"],
            "port_model": ["unidirectional", "bidirectional"],
            "pin_scale": [2.0, 1.9]})
        jobs = spec.expand(DesignSpace(
            name="ar-stacked-2", graph=ar_stacked_design(2),
            partitioning=ar_stacked_pins(2)))
        assert len(jobs) == 4
        chains = Executor(warm=True)._chains(jobs)
        assert [len(chain) for chain in chains] == [2, 2]
        assert hashed == ["ar-stacked-2"]

    def test_inline_warm_chain_compiles_the_design_once(self,
                                                         monkeypatch):
        """An inline warm chain runs through ``run_chain`` too, so its
        points share one parsed graph and its compiled design."""
        from repro.scheduling.list_scheduler import CompiledDesign

        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                               "pin_scale": [2.0, 1.95, 1.9, 1.85, 1.8]})
        jobs = spec.expand(design_space("ar-stacked-2"))
        built = []
        init = CompiledDesign.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CompiledDesign, "__init__", counting_init)
        result = Executor(workers=1, cache=ResultCache(), warm=True,
                          oracle_store=OracleStore()).run(jobs)
        assert [p["status"] for p in result.points] == ["ok"] * 5
        assert len(built) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_drop_oracle_deltas_after_merge(self, workers):
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                               "pin_scale": [2.0, 1.9]})
        jobs = spec.expand(design_space("ar-stacked-2"))
        store = OracleStore()
        result = Executor(workers=workers, cache=ResultCache(), warm=True,
                          oracle_store=store).run(jobs)
        assert all(p["status"] == "ok" for p in result.points)
        assert not any("oracle_delta" in p for p in result.points)
        # The verdicts live on in the sweep's store, merged from the
        # pool worker or recorded inline.
        assert len(store) > 0
        assert store.lookup(
            (design_signature(jobs[0].graph, jobs[0].partitioning, 2),
             (), INIT_NODE, INIT_GROUP),
            budget_vector(jobs[0].partitioning)) == (True, "exact")


# ---------------------------------------------------------------------
class TestStackedDesign:
    def test_copies_scale_structure(self):
        one = ar_stacked_design(1)
        three = ar_stacked_design(3)
        assert len(list(three.nodes())) == 3 * len(list(one.nodes()))

    def test_invalid_copies_rejected(self):
        with pytest.raises(ValueError):
            ar_stacked_design(0)

    def test_pins_scale_with_copies_and_scale(self):
        pins = ar_stacked_pins(2, scale=1.0)
        assert pins.chip(1).total_pins == 96
        scaled = ar_stacked_pins(2, scale=1.5)
        assert scaled.chip(1).total_pins == 144

    def test_catalog_resolves_stacked_names(self):
        space = design_space("ar-stacked-3")
        assert space.name == "ar-stacked-3"
        assert len(list(space.graph.nodes())) == \
            3 * len(list(ar_stacked_design(1).nodes()))

    def test_catalog_rejects_bad_suffix(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            design_space("ar-stacked-zero")
