"""Tests for the Chapter 4/6 ILP generators (verification scale)."""

import pytest

from repro.cdfg import Cdfg
from repro.cdfg.graph import make_io_node
from repro.core.connection_ilp import (build_connection_model,
                                       build_subbus_model)
from repro.core.connection_search import ConnectionSearch
from repro.ilp import SolveStatus, solve_ilp
from repro.partition.model import ChipSpec, OUTSIDE_WORLD, Partitioning


def pins(bidirectional=False, **totals):
    chips = {OUTSIDE_WORLD: ChipSpec(totals.pop("world", 64),
                                     bidirectional=bidirectional)}
    for key, total in totals.items():
        chips[int(key[1:])] = ChipSpec(total, bidirectional=bidirectional)
    return Partitioning(chips)


def tiny_graph():
    g = Cdfg()
    g.add_node(make_io_node("w0", "a", 1, 2, bit_width=4))
    g.add_node(make_io_node("w1", "b", 1, 2, bit_width=4))
    g.add_node(make_io_node("w2", "c", 2, 1, bit_width=4))
    return g


class TestChapter4Ilp:
    def test_solves_and_decodes(self):
        g = tiny_graph()
        p = pins(p1=16, p2=16)
        ilp = build_connection_model(g, p, initiation_rate=2,
                                     max_buses=3)
        solution = solve_ilp(ilp.model, node_limit=20_000)
        assert solution.status is SolveStatus.OPTIMAL
        interconnect, assignment = ilp.decode(solution, g)
        assert set(assignment.bus_of) == {"w0", "w1", "w2"}
        for node in g.io_nodes():
            bus = interconnect.bus(assignment.bus_of[node.name])
            assert bus.capable(node)
        assert interconnect.check_budget(p) == []

    def test_infeasible_budget(self):
        g = tiny_graph()
        p = pins(p1=4, p2=4)  # cannot carry both directions
        ilp = build_connection_model(g, p, 1, max_buses=3)
        solution = solve_ilp(ilp.model, node_limit=20_000)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_heuristic_within_budgets_of_ilp(self):
        # The ILP verifies the heuristic (Section 4.1.2's stated role).
        g = tiny_graph()
        p = pins(p1=16, p2=16)
        interconnect, _ = ConnectionSearch(g, p, 2).run()
        assert interconnect.check_budget(p) == []
        ilp = build_connection_model(g, p, 2, max_buses=3)
        assert solve_ilp(ilp.model, node_limit=20_000).feasible

    def test_bidirectional_model(self):
        g = Cdfg()
        g.add_node(make_io_node("fwd", "a", 1, 2, bit_width=4))
        g.add_node(make_io_node("bwd", "b", 2, 1, bit_width=4))
        p = pins(bidirectional=True, p1=4, p2=4)
        ilp = build_connection_model(g, p, 2, max_buses=2)
        solution = solve_ilp(ilp.model, node_limit=20_000)
        assert solution.feasible
        interconnect, assignment = ilp.decode(solution, g)
        # 4 pins per chip: both transfers must share one bidi bus.
        assert assignment.bus_of["fwd"] == assignment.bus_of["bwd"]


class TestChapter6Ilp:
    def test_model_builds_with_expected_scale(self):
        g = Cdfg()
        g.add_node(make_io_node("w0", "a", 1, 2, bit_width=4))
        g.add_node(make_io_node("w1", "b", 1, 2, bit_width=4))
        p = pins(bidirectional=True, p1=8, p2=8)
        ilp = build_subbus_model(g, p, initiation_rate=1, max_buses=1,
                                 n_segments=2)
        n_vars, n_int, n_cons = ilp.model.stats()
        # x and z per (op, bus, group, segment): 2*1*1*2 each.
        assert len(ilp.x) == 4 and len(ilp.z) == 4
        assert n_cons > 10

    def test_sharing_feasible_where_unshared_is_not(self):
        # Two 4-bit values, one 8-bit bus, one cycle: only sub-bus
        # sharing fits both.
        g = Cdfg()
        g.add_node(make_io_node("w0", "a", 1, 2, bit_width=4))
        g.add_node(make_io_node("w1", "b", 1, 2, bit_width=4))
        p = pins(bidirectional=True, p1=8, p2=8)
        ilp = build_subbus_model(g, p, initiation_rate=1, max_buses=1,
                                 n_segments=2)
        solution = solve_ilp(ilp.model, node_limit=60_000)
        assert solution.feasible
        # Both assigned, necessarily to different segments of the one
        # slot: check the x variables directly.
        seg_of = {}
        for (op, h, l, s), var in ilp.x.items():
            if solution.as_int(var):
                seg_of.setdefault(op, []).append(s)
        assert seg_of["w0"] != seg_of["w1"]

    def test_bits_conserved(self):
        g = Cdfg()
        g.add_node(make_io_node("w0", "a", 1, 2, bit_width=6))
        p = pins(bidirectional=True, p1=8, p2=8)
        ilp = build_subbus_model(g, p, 1, max_buses=1, n_segments=2)
        solution = solve_ilp(ilp.model, node_limit=60_000)
        assert solution.feasible
        total_bits = sum(solution.as_int(var)
                         for key, var in ilp.z.items())
        assert total_bits == 6


class TestOptimalityGap:
    """Heuristic pin usage vs the exact pin-minimizing ILP."""

    @pytest.mark.parametrize("seed", range(4))
    def test_heuristic_near_optimal_on_tiny_instances(self, seed):
        import random
        rng = random.Random(seed)
        g = Cdfg()
        n = rng.randrange(2, 4)
        for i in range(n):
            src = rng.choice([1, 2])
            dst = 2 if src == 1 else 1
            g.add_node(make_io_node(f"w{i}", f"v{i}", src, dst,
                                    bit_width=rng.choice([4, 8])))
        p = pins(p1=48, p2=48)
        L = 2
        ilp = build_connection_model(g, p, L, max_buses=n,
                                     objective="pins")
        optimum = solve_ilp(ilp.model, node_limit=40_000)
        if not optimum.feasible:
            return
        interconnect, _ = ConnectionSearch(g, p, L).run()
        heuristic_pins = sum(interconnect.pins_used(i)
                             for i in p.indices())
        # The heuristic may pay for bandwidth, but never more than
        # twice the optimum on these toy instances.
        assert heuristic_pins <= 2 * int(optimum.objective)

    def test_pins_objective_tighter_than_buses(self):
        g = tiny_graph()
        p = pins(p1=24, p2=24)
        by_pins = build_connection_model(g, p, 2, max_buses=3,
                                         objective="pins")
        best = solve_ilp(by_pins.model, node_limit=40_000)
        assert best.feasible
        interconnect, _ = by_pins.decode(best, g)
        assert sum(interconnect.pins_used(i)
                   for i in p.indices()) == int(best.objective)
