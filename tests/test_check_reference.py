"""The design-rule checker against its reference rules.

The checker reads the per-op facts its rules need (delays, occupied
steps, boundary starts, unit keys, non-free edges, I/O nodes) from a
table it derives once per (graph, timing).  This module keeps the six
rules that read that table as they read before it existed, each
walking the graph and calling the timing itself, and demands the same
reports from both: equal ``CheckReport.to_dict()`` and equal
``Schedule.verify()`` messages over every built-in design and flow,
the fuzz stream's designs, and corrupted copies of their results.  The
reference bodies are verbatim but for ``Schedule.finish_ns``, which
they compute with the formula it had then (:func:`_finish_ns`), so the
reference shares no code with the table.
"""

import copy
import math
import random
from types import SimpleNamespace
from typing import Dict, List, Set, Tuple

import pytest

from repro import synthesize
from repro.cdfg.analysis import _EPS
from repro.check import CheckError
from repro.check.fuzz import generate_cases
from repro.check.report import CheckReport, Violation
from repro.check.rules import RULES, SCHEDULE_RULES, check_result
from repro.errors import CdfgError, ConnectionError_, ReproError
from repro.explore.spec import SweepSpec
from repro.explore.worker import resolve_timing
from repro.partition.model import ChipSpec, Partitioning
from repro.robustness import SolveBudget
from repro.scheduling.base import ResourcePool
from repro.service import catalog


# ---------------------------------------------------------------------
# The reference rules
# ---------------------------------------------------------------------
def _finish_ns(schedule, name: str) -> float:
    node = schedule.graph.node(name)
    return schedule.start_ns[name] + schedule.timing.delay_ns(node)


def _rule_scheduled(result) -> List[Violation]:
    out = []
    for name in result.graph.node_names():
        if name not in result.schedule.start_step:
            node = result.graph.node(name)
            if not node.is_free():
                out.append(Violation.at(
                    "scheduled", f"{name!r} is unscheduled", op=name))
    return out


def _rule_precedence(result) -> List[Violation]:
    out = []
    schedule = result.schedule
    graph = result.graph
    for edge in graph.edges():
        if edge.is_recursive():
            continue
        if edge.src not in schedule.start_step or \
                edge.dst not in schedule.start_step:
            continue
        src = graph.node(edge.src)
        dst = graph.node(edge.dst)
        if src.is_free() or dst.is_free():
            continue
        if _finish_ns(schedule, edge.src) > \
                schedule.start_ns[edge.dst] + _EPS:
            out.append(Violation.at(
                "precedence",
                f"{edge.dst!r} starts at "
                f"{schedule.start_ns[edge.dst]} ns before "
                f"{edge.src!r} finishes at "
                f"{_finish_ns(schedule, edge.src)} ns",
                op=edge.dst, producer=edge.src))
    return out


def _rule_chaining(result) -> List[Violation]:
    out = []
    schedule = result.schedule
    period = schedule.timing.clock_period
    for name, step in schedule.start_step.items():
        node = result.graph.node(name)
        if node.is_free():
            continue
        cycles = max(1, schedule.timing.cycles(node))
        if _finish_ns(schedule, name) > (step + cycles) * period + _EPS:
            out.append(Violation.at(
                "chaining",
                f"{name!r} overruns its {cycles}-cycle window",
                op=name, step=step))
        if schedule.timing.must_start_at_boundary(node):
            if abs(schedule.start_ns[name] - step * period) > 1e-6:
                out.append(Violation.at(
                    "chaining",
                    f"{name!r} must start at a clock boundary",
                    op=name, step=step))
    return out


def _rule_resources(result) -> List[Violation]:
    out = []
    schedule = result.schedule
    pool = ResourcePool(result.resources, schedule.timing,
                        result.initiation_rate)
    order = sorted(schedule.start_step.items(), key=lambda kv: kv[1])
    for name, step in order:
        node = result.graph.node(name)
        if not node.is_functional():
            continue
        if not pool.try_place(node, step):
            out.append(Violation.at(
                "resources",
                f"{name!r} exceeds the functional units of partition "
                f"{node.partition} ({node.op_type}) in group "
                f"{step % result.initiation_rate}",
                op=name, chip=node.partition,
                group=step % result.initiation_rate))
    return out


def _step_bits(result) -> Tuple[Dict[Tuple[int, int], int],
                                Dict[Tuple[int, int], int]]:
    """(chip, group) -> transferred bits, split by direction.

    Same-value transfers leaving one chip in the same control *step*
    count once on the source side (one output port drives all readers,
    the ILP's ``y`` treatment); each destination pays its own bits.
    """
    L = result.initiation_rate
    schedule = result.schedule
    out_bits: Dict[Tuple[int, int], int] = {}
    in_bits: Dict[Tuple[int, int], int] = {}
    out_seen: Set[Tuple[int, str, int]] = set()
    for node in result.graph.io_nodes():
        if node.name not in schedule.start_step:
            continue
        step = schedule.step(node.name)
        group = step % L
        src, dst = node.source_partition, node.dest_partition
        src_key = (src, node.value or node.name, step)
        if src_key not in out_seen:
            out_seen.add(src_key)
            out_bits[(src, group)] = out_bits.get((src, group), 0) \
                + node.bit_width
        in_bits[(dst, group)] = in_bits.get((dst, group), 0) \
            + node.bit_width
    return out_bits, in_bits


def _rule_pin_step(result) -> List[Violation]:
    """Per-chip per-control-step pin budgets under both port models.

    A necessary condition independent of any interconnect: the bits a
    chip moves in one control-step group must fit its pins.  With a
    fixed split each direction pays its own pins per group; with a
    free split some single split must cover every group's peaks; with
    bidirectional pins both directions share the pool *within* each
    group (a pin drives or samples in a given cycle, never both).
    """
    out: List[Violation] = []
    out_bits, in_bits = _step_bits(result)
    L = result.initiation_rate
    for index in result.partitioning.indices():
        spec = result.partitioning.chip(index)
        per_group = [(g, out_bits.get((index, g), 0),
                      in_bits.get((index, g), 0)) for g in range(L)]
        if spec.bidirectional:
            for group, o_bits, i_bits in per_group:
                if o_bits + i_bits > spec.total_pins:
                    out.append(Violation.at(
                        "pin-step",
                        f"partition {index} moves {o_bits + i_bits} "
                        f"bits in group {group} over "
                        f"{spec.total_pins} bidirectional pins",
                        chip=index, group=group,
                        bits=o_bits + i_bits))
        elif spec.split_fixed:
            for group, o_bits, i_bits in per_group:
                if o_bits > spec.output_pins:
                    out.append(Violation.at(
                        "pin-step",
                        f"partition {index} drives {o_bits} bits in "
                        f"group {group} over {spec.output_pins} "
                        f"output pins",
                        chip=index, group=group, bits=o_bits))
                if i_bits > spec.input_pins:
                    out.append(Violation.at(
                        "pin-step",
                        f"partition {index} samples {i_bits} bits in "
                        f"group {group} over {spec.input_pins} "
                        f"input pins",
                        chip=index, group=group, bits=i_bits))
        else:
            peak_out = max((o for _g, o, _i in per_group), default=0)
            peak_in = max((i for _g, _o, i in per_group), default=0)
            if peak_out + peak_in > spec.total_pins:
                out.append(Violation.at(
                    "pin-step",
                    f"partition {index} needs {peak_out} output + "
                    f"{peak_in} input pins at its per-group peaks "
                    f"(> pool of {spec.total_pins})",
                    chip=index, bits=peak_out + peak_in))
    return out


def _rule_simple_alloc(result) -> List[Violation]:
    out = []
    if result.simple_allocation is None:
        return out
    allocation = result.simple_allocation
    interconnect = allocation.interconnect
    schedule = result.schedule
    L = result.initiation_rate
    usage: Dict[Tuple[int, int], int] = {}
    shared_seen: Dict[Tuple[int, int, str, int], int] = {}
    for node in result.graph.io_nodes():
        name = node.name
        alloc = allocation.allocation.get(name)
        if alloc is None:
            out.append(Violation.at(
                "simple-alloc", f"I/O op {name!r} has no allocation",
                op=name))
            continue
        if name not in schedule.start_step:
            out.append(Violation.at(
                "simple-alloc", f"I/O op {name!r} is unscheduled",
                op=name))
            continue
        total = sum(bits for _bus, bits in alloc)
        if total != node.bit_width:
            out.append(Violation.at(
                "simple-alloc",
                f"{name!r}: allocated {total} bits != width "
                f"{node.bit_width}",
                op=name, bits=total))
        group = schedule.group(name)
        step = schedule.step(name)
        for bus_index, bits in alloc:
            try:
                bus = interconnect.bus(bus_index)
            except ConnectionError_:
                out.append(Violation.at(
                    "simple-alloc",
                    f"{name!r} uses nonexistent bundle {bus_index}",
                    op=name, bus=bus_index))
                continue
            if bus.out_widths.get(node.source_partition, 0) < bits or \
                    bus.in_widths.get(node.dest_partition, 0) < bits:
                out.append(Violation.at(
                    "simple-alloc",
                    f"bundle {bus_index} cannot carry {bits} bits of "
                    f"{name!r} from P{node.source_partition} to "
                    f"P{node.dest_partition}",
                    op=name, bus=bus_index, bits=bits))
            # Same value, same step, same bundle counts once.
            key = (bus_index, group, node.value or name, step)
            already = shared_seen.get(key, 0)
            extra = max(0, bits - already)
            shared_seen[key] = max(already, bits)
            usage[(bus_index, group)] = usage.get(
                (bus_index, group), 0) + extra
    for (bus_index, group), bits in sorted(usage.items()):
        width = interconnect.bus(bus_index).width
        if bits > width:
            out.append(Violation.at(
                "simple-alloc",
                f"bundle {bus_index} group {group}: {bits} bits on "
                f"{width} wires",
                bus=bus_index, group=group, bits=bits))
    return out


_REFERENCE = {"scheduled": _rule_scheduled,
              "precedence": _rule_precedence,
              "chaining": _rule_chaining,
              "resources": _rule_resources,
              "pin-step": _rule_pin_step,
              "simple-alloc": _rule_simple_alloc}


def reference_check(result, names=None) -> CheckReport:
    """``check_result`` with the reference bodies of the table rules."""
    report = CheckReport()
    for rule in RULES:
        if names is None or rule.name in names:
            report.rules_run.append(rule.name)
            report.violations.extend(
                _REFERENCE.get(rule.name, rule.check)(result))
    return report


def reference_verify(schedule, resources=None) -> List[str]:
    """``Schedule.verify`` over the reference bodies."""
    view = SimpleNamespace(graph=schedule.graph, schedule=schedule,
                           initiation_rate=schedule.initiation_rate,
                           resources=resources)
    names = SCHEDULE_RULES + (("resources",) if resources is not None
                              else ())
    return [v.message for v in reference_check(view, names).violations]


# ---------------------------------------------------------------------
# Results to check
# ---------------------------------------------------------------------
#: (design, rate, flow): every built-in design under each flow that
#: answers it, at a rate where it answers in well under a second.  Not
#: here: ar-stacked-4 (ar-stacked-2 is the same design, half the
#: size), ar-stacked-2 schedule-first (seconds) and elliptic-bidir
#: connection-first (misses its recursion deadline at L6).
BUILTIN_SOLVES = (
    ("ar-simple", 2, "simple"),
    ("ar-simple", 3, "connection-first"),
    ("ar-simple", 3, "schedule-first"),
    ("ar-general", 3, "connection-first"),
    ("ar-general", 3, "schedule-first"),
    ("ar-general-bidir", 3, "connection-first"),
    ("ar-general-bidir", 3, "schedule-first"),
    ("ar-stacked-2", 2, "simple"),
    ("ar-stacked-2", 3, "connection-first"),
    ("elliptic", 6, "connection-first"),
    ("elliptic", 6, "schedule-first"),
    ("elliptic-bidir", 6, "schedule-first"),
    ("fir", 3, "simple"),
    ("fir", 3, "connection-first"),
    ("fir", 3, "schedule-first"),
    ("dct", 3, "simple"),
    ("dct", 3, "connection-first"),
    ("dct", 3, "schedule-first"),
)

#: Iteration caps, not a wall clock, keep every fuzz solve short and
#: deterministic.
FUZZ_BUDGET = SolveBudget(max_gomory_iters=500, max_bnb_nodes=50)


def _solve(graph, partitioning, timing, rate, flow, **kwargs):
    """The flow's result whether or not it passed its own check, or
    None when the flow gave no result."""
    try:
        return synthesize(graph, partitioning, timing, rate, flow=flow,
                          **kwargs)
    except CheckError as exc:
        return exc.result
    except ReproError:
        return None


@pytest.fixture(scope="module")
def builtin_results():
    out = {}
    for design, rate, flow in BUILTIN_SOLVES:
        space = catalog.design_space(design)
        job = SweepSpec(base={"rate": rate, "flow": flow}).expand(space)[0]
        options = job.options.to_dict()
        options.pop("flow")
        resources = (space.resources_for(rate)
                     if space.resources_for is not None else None)
        result = _solve(job.graph, job.partitioning,
                        resolve_timing(job.timing), rate, flow,
                        resources=resources, **options)
        assert result is not None, (design, rate, flow)
        out[f"{design}-L{rate}-{flow}"] = result
    return out


@pytest.fixture(scope="module")
def fuzz_results():
    from repro.check.oracle import applicable_flows

    timing = resolve_timing("ar")
    out = {}
    for index, case in enumerate(generate_cases("check-reference", 12)):
        graph, partitioning = case.build()
        for flow in applicable_flows(graph, partitioning):
            result = _solve(graph, partitioning, timing, case.rate, flow,
                            budget=FUZZ_BUDGET)
            if result is not None:
                out[f"fuzz{index}-{flow}"] = result
    assert len({label.split("-")[0] for label in out}) >= 8
    return out


def _fork(result):
    """A copy of ``result`` whose schedule, module counts, pin budgets
    and simple allocation can be corrupted without touching it; the
    graph and timing stay shared, as along a warm chain."""
    out = copy.copy(result)
    out.schedule = copy.copy(result.schedule)
    out.schedule.start_step = dict(result.schedule.start_step)
    out.schedule.start_ns = dict(result.schedule.start_ns)
    out.resources = dict(result.resources)
    if result.simple_allocation is not None:
        out.simple_allocation = copy.copy(result.simple_allocation)
        out.simple_allocation.allocation = dict(
            result.simple_allocation.allocation)
    return out


# ---------------------------------------------------------------------
# Corruptions: each returns False when it does not apply
# ---------------------------------------------------------------------
def _victim(result, rng):
    return rng.choice(sorted(result.schedule.start_step))


def shift_step(result, rng):
    """Move one placement a whole step, ns start included."""
    schedule = result.schedule
    name, delta = _victim(result, rng), rng.choice((-1, 1))
    schedule.start_step[name] += delta
    schedule.start_ns[name] += delta * schedule.timing.clock_period


def shift_ns(result, rng):
    """Move one ns start inside or across its step."""
    schedule = result.schedule
    name = _victim(result, rng)
    schedule.start_ns[name] += (rng.choice((-0.3, 0.3, 0.9))
                                * schedule.timing.clock_period)


def drop_op(result, rng):
    schedule = result.schedule
    name = _victim(result, rng)
    del schedule.start_step[name]
    del schedule.start_ns[name]


def lower_modules(result, rng):
    """One fewer unit of one (chip, type)."""
    if not result.resources:
        return False
    key = rng.choice(sorted(result.resources))
    result.resources[key] -= 1


def shrink_chip(result, rng):
    """A quarter fewer pins on one chip (its output side when the
    split is fixed)."""
    partitioning = result.partitioning
    index = rng.choice(partitioning.indices())
    spec = partitioning.chip(index)
    cut = max(1, spec.total_pins // 4)
    if spec.split_fixed:
        cut = min(cut, spec.output_pins)
        shrunk = ChipSpec(spec.total_pins - cut, spec.input_pins,
                          spec.output_pins - cut)
    else:
        shrunk = ChipSpec(max(0, spec.total_pins - cut),
                          bidirectional=spec.bidirectional)
    result.partitioning = Partitioning(
        {i: shrunk if i == index else partitioning.chip(i)
         for i in partitioning.indices()})


def missing_bundle(result, rng):
    """Route one transfer's first bits over a bundle that does not
    exist."""
    if result.simple_allocation is None:
        return False
    allocation = result.simple_allocation.allocation
    name = rng.choice(sorted(allocation))
    bits = allocation[name][0][1] if allocation[name] else 1
    allocation[name] = [(999, bits)] + list(allocation[name][1:])


CORRUPTIONS = (shift_step, shift_ns, drop_op, lower_modules, shrink_chip,
               missing_bundle)


def _assert_same(label, result):
    assert check_result(result).to_dict() == \
        reference_check(result).to_dict(), label
    schedule = result.schedule
    assert schedule.verify() == reference_verify(schedule), label
    assert schedule.verify(result.resources) == \
        reference_verify(schedule, result.resources), label


def _corrupted(results, seeds):
    for label, result in sorted(results.items()):
        for corrupt in CORRUPTIONS:
            for seed in range(seeds):
                copy_ = _fork(result)
                rng = random.Random(f"{label}:{corrupt.__name__}:{seed}")
                if corrupt(copy_, rng) is not False:
                    yield f"{label}:{corrupt.__name__}:{seed}", copy_


# ---------------------------------------------------------------------
class TestSameReports:
    def test_builtin_results(self, builtin_results):
        for label, result in sorted(builtin_results.items()):
            _assert_same(label, result)

    def test_fuzz_results(self, fuzz_results):
        for label, result in sorted(fuzz_results.items()):
            _assert_same(label, result)

    def test_corrupted_results(self, builtin_results, fuzz_results):
        hit: Set[str] = set()
        cases = 0
        for results, seeds in ((builtin_results, 3), (fuzz_results, 2)):
            for label, result in _corrupted(results, seeds):
                _assert_same(label, result)
                hit.update(check_result(result).by_rule())
                cases += 1
        assert cases >= 400
        # The corruptions reach every rule that reads the table.
        assert set(_REFERENCE) <= hit, sorted(set(_REFERENCE) - hit)


class TestUnknownScheduledName:
    """A name in ``start_step`` that is not a graph node still raises
    the graph's error, from the same rules as before."""

    @staticmethod
    def _outcome(run):
        try:
            return run().to_dict()
        except CdfgError as exc:
            return ("CdfgError", str(exc))

    def test_same_outcome_rule_by_rule(self, builtin_results):
        for label in ("ar-simple-L2-simple", "elliptic-L6-connection-first",
                      "fir-L3-schedule-first"):
            result = _fork(builtin_results[label])
            result.schedule.start_step["ghost"] = 0
            result.schedule.start_ns["ghost"] = 0.0
            for rule in RULES:
                got = self._outcome(
                    lambda: check_result(result, rules=[rule.name]))
                want = self._outcome(
                    lambda: reference_check(result, {rule.name}))
                assert got == want, (label, rule.name)
            assert self._outcome(lambda: check_result(result)) == \
                ("CdfgError", "unknown node 'ghost'")


class TestScheduleTiming:
    """``Schedule.finish_ns`` and ``pipe_length`` read a per-(graph,
    timing) delay table and give the formula's floats."""

    def test_finish_and_pipe_length_equal_the_formula(self, builtin_results,
                                                      fuzz_results):
        for results in (builtin_results, fuzz_results):
            for label, result in sorted(results.items()):
                schedule = result.schedule
                finishes = []
                for name in schedule.start_step:
                    finish = _finish_ns(schedule, name)
                    assert schedule.finish_ns(name) == finish, label
                    finishes.append(finish)
                period = schedule.timing.clock_period
                first = min(schedule.start_step.values())
                expected = int(math.ceil(max([0.0, *finishes]) / period
                                         - _EPS)) - min(first, 0)
                assert schedule.pipe_length == expected, label

    def test_unknown_name_raises(self, builtin_results):
        schedule = builtin_results["ar-simple-L2-simple"].schedule
        with pytest.raises(CdfgError, match="unknown node 'ghost'"):
            schedule.finish_ns("ghost")
        copy_ = _fork(builtin_results["ar-simple-L2-simple"]).schedule
        copy_.start_step["ghost"] = 0
        copy_.start_ns["ghost"] = 0.0
        with pytest.raises(CdfgError, match="unknown node 'ghost'"):
            copy_.pipe_length
