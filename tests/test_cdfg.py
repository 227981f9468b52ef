"""Tests for the CDFG graph structure and builder."""

import pytest

from repro.cdfg import Cdfg, CdfgBuilder, OpKind
from repro.cdfg.graph import (Node, guards_mutually_exclusive,
                              make_functional_node, make_io_node)
from repro.cdfg.transform import _remove_edge, _remove_node
from repro.errors import CdfgError


class TestGraphBasics:
    def test_add_and_query_nodes(self):
        g = Cdfg("t")
        g.add_node(make_functional_node("a", "add", 1))
        assert "a" in g
        assert g.node("a").op_type == "add"
        assert len(g) == 1

    def test_duplicate_node_rejected(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        with pytest.raises(CdfgError):
            g.add_node(make_functional_node("a", "mul", 1))

    def test_edge_endpoints_must_exist(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        with pytest.raises(CdfgError):
            g.add_edge("a", "missing")
        with pytest.raises(CdfgError):
            g.add_edge("missing", "a")

    def test_negative_degree_rejected(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_functional_node("b", "add", 1))
        with pytest.raises(CdfgError):
            g.add_edge("a", "b", degree=-1)

    def test_successors_exclude_recursive_by_default(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_functional_node("b", "add", 1))
        g.add_edge("a", "b", degree=1)
        assert g.successors("a") == []
        assert g.successors("a", include_recursive=True) == ["b"]
        assert g.predecessors("b") == []
        assert g.predecessors("b", include_recursive=True) == ["a"]

    def test_values_map_groups_same_value(self):
        g = Cdfg()
        g.add_node(make_io_node("w1", "v", 1, 2))
        g.add_node(make_io_node("w2", "v", 1, 3))
        g.add_node(make_io_node("w3", "u", 2, 3))
        groups = g.values_map()
        assert sorted(n.name for n in groups["v"]) == ["w1", "w2"]
        assert len(groups["u"]) == 1

    def test_partitions_collects_all_references(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_io_node("w", "v", 2, 3))
        assert g.partitions() == [1, 2, 3]

    def test_copy_is_independent(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        clone = g.copy()
        clone.add_node(make_functional_node("b", "add", 1))
        assert "b" not in g

    def test_subgraph(self):
        g = Cdfg()
        for name in "abc":
            g.add_node(make_functional_node(name, "add", 1))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        sub = g.subgraph(["a", "b"])
        assert "c" not in sub
        assert len(list(sub.edges())) == 1

    def test_op_type_counts(self):
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_functional_node("b", "add", 1))
        g.add_node(make_functional_node("c", "mul", 1))
        assert g.op_type_counts() == {"add": 2, "mul": 1}


class TestGuards:
    def test_conflicting_guards_are_exclusive(self):
        a = frozenset({("c", True)})
        b = frozenset({("c", False)})
        assert guards_mutually_exclusive(a, b)

    def test_same_branch_not_exclusive(self):
        a = frozenset({("c", True)})
        b = frozenset({("c", True), ("d", False)})
        assert not guards_mutually_exclusive(a, b)

    def test_unguarded_never_exclusive(self):
        a = frozenset()
        b = frozenset({("c", True)})
        assert not guards_mutually_exclusive(a, b)

    def test_node_api(self):
        n1 = make_io_node("w1", "v", 1, 2, guard={"c": True})
        n2 = make_io_node("w2", "u", 1, 2, guard={"c": False})
        assert n1.mutually_exclusive_with(n2)


class TestBuilder:
    def test_builder_wires_inputs(self):
        b = CdfgBuilder()
        x = b.inp("x", partition=1)
        y = b.op("y", "add", 1, inputs=[x])
        b.out("o", y, partition=1)
        g = b.build()
        assert g.successors("x") == ["y"]
        assert g.successors("y") == ["o"]

    def test_io_splices_between_partitions(self):
        b = CdfgBuilder()
        x = b.op("x", "add", 1)
        y = b.op("y", "add", 2)
        b.io("w", "v", source=x, dests=[y], source_partition=1,
             dest_partition=2)
        g = b.build()
        node = g.node("w")
        assert node.kind is OpKind.IO
        assert g.successors("x") == ["w"]
        assert g.predecessors("y") == ["w"]

    def test_recursive_edge(self):
        b = CdfgBuilder()
        x = b.op("x", "add", 1)
        y = b.op("y", "add", 1, inputs=[x])
        b.recursive(y, x, degree=2)
        g = b.build()
        (edge,) = g.recursive_edges()
        assert edge.degree == 2

    def test_const_autonames(self):
        b = CdfgBuilder()
        c1 = b.const()
        c2 = b.const()
        assert c1 != c2


class TestDerivedDataInvalidation:
    """Every mutator drops everything derived from the graph."""

    @staticmethod
    def _loop():
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_functional_node("b", "add", 1))
        g.add_edge("a", "b")
        g.add_edge("b", "a", degree=1)
        return g

    def test_removed_edge_leaves_recursive_edges(self):
        g = self._loop()
        (edge,) = g.recursive_edges()
        _remove_edge(g, edge)
        assert g.recursive_edges() == []

    def test_removed_node_leaves_values_map(self):
        g = self._loop()
        g.add_node(make_io_node("w", "v", 1, 2))
        assert list(g.values_map()) == ["v"]
        _remove_node(g, "w")
        assert g.values_map() == {}

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_node(make_functional_node("c", "add", 1)),
        lambda g: g.add_edge("a", "b", degree=2),
        lambda g: g.replace_node(make_functional_node("a", "mul", 1)),
        lambda g: _remove_edge(g, g.recursive_edges()[0]),
        lambda g: _remove_node(g, "b"),
    ], ids=["add_node", "add_edge", "replace_node", "_remove_edge",
            "_remove_node"])
    def test_every_mutator_drops_the_compiled_design(self, mutate):
        from repro.cdfg.analysis import UnitTiming
        from repro.scheduling.list_scheduler import compile_design

        g = self._loop()
        timing = UnitTiming()
        compiled = compile_design(g, timing, 2)
        assert compile_design(g, timing, 2) is compiled
        mutate(g)
        assert compile_design(g, timing, 2) is not compiled

    @staticmethod
    def _two_chips():
        """a (chip 1) -> x (I/O 1 -> 2) -> b (chip 2): valid, simple."""
        g = Cdfg()
        g.add_node(make_functional_node("a", "add", 1))
        g.add_node(make_io_node("x", "v", 1, 2))
        g.add_node(make_functional_node("b", "add", 2))
        g.add_edge("a", "x")
        g.add_edge("x", "b")
        return g

    @staticmethod
    def _derive_everything(g, timing):
        """Fill every budget-independent slot a solve fills."""
        from types import SimpleNamespace

        from repro.cdfg.validate import validate_cdfg
        from repro.check.rules import _table
        from repro.core.simple_connection import _transfers
        from repro.partition.simple import (driver_graph,
                                            is_simple_partitioning)
        from repro.scheduling.base import Schedule

        validate_cdfg(g, require_partitions=False)
        is_simple_partitioning(g)
        driver_graph(g)
        _transfers(g)
        schedule = Schedule(g, timing, 1)
        schedule.place("a", 0)
        schedule.finish_ns("a")
        _table(SimpleNamespace(graph=g, schedule=schedule))

    #: Each slot with the key a solve under ``UnitTiming()`` stores.
    SLOTS = (("validation", False), ("simple-partitioning", None),
             ("drivers", None), ("transfers", None),
             ("delays", "timing"), ("check", "timing"))

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_node(make_functional_node("c", "add", 1)),
        lambda g: g.add_edge("a", "b"),
        lambda g: g.replace_node(make_functional_node("a", "mul", 1)),
        lambda g: _remove_edge(g, next(g.edges())),
        lambda g: _remove_node(g, "b"),
    ], ids=["add_node", "add_edge", "replace_node", "_remove_edge",
            "_remove_node"])
    def test_every_mutator_drops_every_derived_fact(self, mutate):
        from repro.cdfg.analysis import UnitTiming

        g = self._two_chips()
        timing = UnitTiming()
        self._derive_everything(g, timing)
        miss = object()
        keys = [(slot, timing if key == "timing" else key)
                for slot, key in self.SLOTS]
        for slot, key in keys:
            assert g.memo(slot, key, lambda: miss) is not miss, slot
        mutate(g)
        for slot, key in keys:
            assert g.memo(slot, key, lambda: miss) is miss, slot

    def test_edge_across_chips_after_a_clean_solve_fails_validation(self):
        from repro import synthesize
        from repro.designs import AR_SIMPLE_PINS, ar_simple_design
        from repro.errors import ValidationError
        from repro.modules.library import ar_filter_timing

        g = ar_simple_design()
        timing = ar_filter_timing()
        synthesize(g, AR_SIMPLE_PINS, timing, 2, flow="simple")
        src, dst = next((a.name, b.name)
                        for a in g.functional_nodes()
                        for b in g.functional_nodes()
                        if a.partition != b.partition)
        g.add_edge(src, dst)
        with pytest.raises(ValidationError, match="crosses partitions"):
            synthesize(g, AR_SIMPLE_PINS, timing, 2, flow="simple")

    def test_validation_raises_the_same_text_every_call(self):
        from repro.cdfg.validate import validate_cdfg
        from repro.errors import ValidationError

        g = self._two_chips()
        g.add_edge("a", "b")
        messages = set()
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                validate_cdfg(g)
            messages.add(str(info.value))
        assert len(messages) == 1
        # The memo keeps one verdict per require_partitions value.
        g.add_node(make_functional_node("f", "add", None))
        with pytest.raises(ValidationError, match="has no partition"):
            validate_cdfg(g, require_partitions=True)
        with pytest.raises(ValidationError) as info:
            validate_cdfg(g, require_partitions=False)
        assert "has no partition" not in str(info.value)

    def test_definition_3_2_is_rederived_after_a_mutation(self):
        from repro.core.simple_connection import _transfers
        from repro.partition.simple import (driver_graph,
                                            is_simple_partitioning,
                                            simple_partitioning_violations)

        g = self._two_chips()
        assert is_simple_partitioning(g)
        assert driver_graph(g) == {1: {2}, 2: set()}
        assert list(_transfers(g)) == [(1, 2)]
        for index, dst in enumerate((3, 4, 5)):
            g.add_node(make_io_node(f"y{index}", f"w{index}", 1, dst))
        assert not is_simple_partitioning(g)
        assert simple_partitioning_violations(g) == [
            "partition 1 drives 4 partitions [2, 3, 4, 5] (> 2)"]
        assert driver_graph(g)[1] == {2, 3, 4, 5}
        assert [n.name for n in _transfers(g)[(1, 3)]] == ["y0"]

    def test_memoized_def_3_2_products_are_handed_out_as_copies(self):
        from repro.partition.simple import (driver_graph,
                                            simple_partitioning_violations)

        g = self._two_chips()
        drives = driver_graph(g, include_world=True)
        drives[1].add(7)
        drives[9] = {1}
        assert driver_graph(g, include_world=True) == {1: {2}, 2: set()}
        problems = simple_partitioning_violations(g)
        problems.append("tampered")
        assert simple_partitioning_violations(g) == []

    def test_check_table_memo_key(self):
        """Keyed like the compiled design: an equal timing hits."""
        from types import SimpleNamespace

        from repro.cdfg.analysis import UnitTiming
        from repro.check.rules import _table
        from repro.modules.library import ar_filter_timing

        def table(g, timing):
            view = SimpleNamespace(graph=g,
                                   schedule=SimpleNamespace(timing=timing))
            return _table(view)

        g = self._two_chips()
        timing = ar_filter_timing()
        first = table(g, timing)
        assert table(g, timing) is first
        # DesignTiming has no value equality: another instance rebuilds.
        assert table(g, ar_filter_timing()) is not first
        unit = table(g, UnitTiming())
        assert table(g, UnitTiming()) is unit
        assert table(g, UnitTiming(cycles_by_op_type={"add": 2})) \
            is not unit

    def test_compiled_design_memo_key(self):
        """One slot: a hit needs the same rate and an equal timing."""
        from repro.cdfg.analysis import UnitTiming
        from repro.modules.library import ar_filter_timing
        from repro.scheduling.list_scheduler import compile_design

        g = self._loop()
        timing = ar_filter_timing()
        compiled = compile_design(g, timing, 2)
        # DesignTiming has no value equality: another instance misses.
        assert compile_design(g, ar_filter_timing(), 2) is not compiled
        unit = compile_design(g, UnitTiming(), 2)
        assert compile_design(g, UnitTiming(), 2) is unit
        assert compile_design(g, UnitTiming(), 3) is not unit
