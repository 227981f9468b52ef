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
