"""The design-rule checker: the one definition of a valid result.

:func:`check_result` runs every invariant over a
:class:`repro.core.flow.SynthesisResult`.  Each flow runs it exactly
once, in its verify pass, and keeps the report as ``result.check``;
``SynthesisResult.verify()``/``require_valid()`` and
``Schedule.verify()`` are shims over these rules.  Each invariant is a
named :class:`Rule` that can be toggled off individually, and every
violation is a structured :class:`~repro.check.report.Violation`
rather than a bare string.

Rule catalogue (see DESIGN.md §11 for the full table):

``scheduled``       every non-free node has a start step;
``precedence``      producers finish before consumers start;
``recursion``       data-recursive edges meet the max-time constraint;
``chaining``        ops fit their cycle window / boundary starts;
``resources``       functional-unit budgets per (chip, type, group);
``pin-budget``      port widths fit each chip's total pin budget;
``pin-split``       fixed input/output pin splits are respected;
``pin-step``        per-chip per-control-step transferred bits fit the
                    pin budget under the chip's port model;
``port-model``      buses do not mix bidirectional and unidirectional
                    port widths;
``assignment``      schedule/bus-assignment cross-consistency;
``bus-capable``     every transfer rides a bus that can carry it;
``bus-conflict``    conflict-free (bus, segment, group) occupancy over
                    each transfer's full lifetime (Thm 3.1);
``subbus``          sub-bus segment geometry: positive widths, port
                    widths within the segment sum, segments in range;
``simple-alloc``    Theorem 3.1 bit-level allocation: widths add up,
                    per-(bundle, group) bits fit, bundles reach both
                    endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.cdfg.analysis import _EPS
from repro.check.report import CheckReport, Violation
from repro.errors import ConnectionError_, ReproError
from repro.partition.model import OUTSIDE_WORLD
from repro.scheduling.base import ResourcePool


@dataclass(frozen=True)
class Rule:
    """One named, individually-toggleable invariant check."""

    name: str
    description: str
    check: Callable[["object"], List[Violation]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({self.name!r})"


# ---------------------------------------------------------------------
# Schedule-level rules
# ---------------------------------------------------------------------
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
        if schedule.finish_ns(edge.src) > \
                schedule.start_ns[edge.dst] + _EPS:
            out.append(Violation.at(
                "precedence",
                f"{edge.dst!r} starts at "
                f"{schedule.start_ns[edge.dst]} ns before "
                f"{edge.src!r} finishes at "
                f"{schedule.finish_ns(edge.src)} ns",
                op=edge.dst, producer=edge.src))
    return out


def _rule_recursion(result) -> List[Violation]:
    out = []
    schedule = result.schedule
    graph = result.graph
    L = result.initiation_rate
    for edge in graph.edges():
        if not edge.is_recursive():
            continue
        if edge.src not in schedule.start_step or \
                edge.dst not in schedule.start_step:
            continue
        src = graph.node(edge.src)
        c_src = max(1, schedule.timing.cycles(src))
        if schedule.step(edge.src) > (schedule.step(edge.dst)
                                      + edge.degree * L - c_src):
            out.append(Violation.at(
                "recursion",
                f"recursive edge {edge.src!r}->{edge.dst!r} "
                f"(degree {edge.degree}) violates the max-time "
                f"constraint at L={L}",
                op=edge.src, consumer=edge.dst, degree=edge.degree))
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
        if schedule.finish_ns(name) > (step + cycles) * period + _EPS:
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


# ---------------------------------------------------------------------
# Pin-accounting rules
# ---------------------------------------------------------------------
def _interconnects(result) -> List:
    """Every interconnect a result carries (0, 1, or 2 of them)."""
    out = []
    if result.interconnect is not None:
        out.append(result.interconnect)
    if result.simple_allocation is not None:
        out.append(result.simple_allocation.interconnect)
    return out


def _rule_pin_budget(result) -> List[Violation]:
    out = []
    for interconnect in _interconnects(result):
        for index in result.partitioning.indices():
            used = interconnect.pins_used(index)
            budget = result.partitioning.total_pins(index)
            if used > budget:
                out.append(Violation.at(
                    "pin-budget",
                    f"partition {index} uses {used} pins "
                    f"(> budget {budget})",
                    chip=index, used=used, budget=budget))
    return out


def _rule_pin_split(result) -> List[Violation]:
    """Fixed input/output splits: per-direction port sums must fit."""
    out = []
    for interconnect in _interconnects(result):
        for index in result.partitioning.indices():
            spec = result.partitioning.chip(index)
            if not spec.split_fixed:
                continue
            in_used = sum(b.in_widths.get(index, 0)
                          for b in interconnect.buses)
            out_used = sum(b.out_widths.get(index, 0)
                           for b in interconnect.buses)
            if in_used > spec.input_pins:
                out.append(Violation.at(
                    "pin-split",
                    f"partition {index} uses {in_used} input pins "
                    f"(> fixed split {spec.input_pins})",
                    chip=index, used=in_used,
                    budget=spec.input_pins))
            if out_used > spec.output_pins:
                out.append(Violation.at(
                    "pin-split",
                    f"partition {index} uses {out_used} output pins "
                    f"(> fixed split {spec.output_pins})",
                    chip=index, used=out_used,
                    budget=spec.output_pins))
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


# ---------------------------------------------------------------------
# Bus-level rules (connection-first / schedule-first results)
# ---------------------------------------------------------------------
def _rule_port_model(result) -> List[Violation]:
    out = []
    for interconnect in _interconnects(result):
        for bus in interconnect.buses:
            if bus.bi_widths and (bus.out_widths or bus.in_widths):
                out.append(Violation.at(
                    "port-model",
                    f"bus {bus.index} mixes bidirectional and "
                    f"unidirectional port widths",
                    bus=bus.index))
    return out


def _rule_assignment(result) -> List[Violation]:
    """Schedule <-> bus-assignment cross-consistency."""
    out = []
    if result.assignment is None:
        return out
    schedule = result.schedule
    io_names = {n.name for n in result.graph.io_nodes()}
    for node in result.graph.io_nodes():
        if node.name not in result.assignment.bus_of:
            out.append(Violation.at(
                "assignment", f"I/O op {node.name!r} has no bus",
                op=node.name))
        elif node.name not in schedule.start_step:
            out.append(Violation.at(
                "assignment", f"I/O op {node.name!r} is unscheduled",
                op=node.name))
    for op in result.assignment.bus_of:
        if op not in io_names:
            out.append(Violation.at(
                "assignment",
                f"bus assignment names unknown I/O op {op!r}",
                op=op))
    return out


def _rule_bus_capable(result) -> List[Violation]:
    out = []
    if result.interconnect is None or result.assignment is None:
        return out
    for node in result.graph.io_nodes():
        name = node.name
        if name not in result.assignment.bus_of:
            continue
        bus_index, segment = result.assignment.of(name)
        try:
            bus = result.interconnect.bus(bus_index)
        except ConnectionError_:
            out.append(Violation.at(
                "bus-capable",
                f"{name!r} is assigned to nonexistent bus {bus_index}",
                op=name, bus=bus_index))
            continue
        if not bus.capable(node, segment):
            out.append(Violation.at(
                "bus-capable",
                f"bus {bus_index} cannot carry {name!r} "
                f"({node.bit_width} bits from "
                f"P{node.source_partition} to "
                f"P{node.dest_partition} at segment {segment})",
                op=name, bus=bus_index, segment=segment))
    return out


def _rule_bus_conflict(result) -> List[Violation]:
    """Conflict-free occupancy over each transfer's full lifetime.

    Two transfers may hold the same (bus, segment, control-step group)
    only if, in the same control step, they move the same value — or
    are mutually exclusive by their guards.  Different steps in one
    group always mean different pipeline instances, where neither
    sharing nor exclusivity can help (Thm 3.1).  Multi-cycle transfers
    occupy every group their lifetime crosses, not just the start.
    """
    out = []
    if result.interconnect is None or result.assignment is None:
        return out
    graph = result.graph
    schedule = result.schedule
    L = result.initiation_rate
    occupancy: Dict[Tuple[int, int, int], List[Tuple[int, str]]] = {}
    for node in graph.io_nodes():
        name = node.name
        if name not in result.assignment.bus_of or \
                name not in schedule.start_step:
            continue  # the assignment rule reports these
        bus_index, segment = result.assignment.of(name)
        try:
            bus = result.interconnect.bus(bus_index)
            spanned = bus.segments_spanned(node, segment)
        except ConnectionError_:
            continue  # the bus-capable rule reports these
        step = schedule.step(name)
        cycles = max(1, schedule.timing.cycles(node))
        for offset in range(cycles):
            group = (step + offset) % L
            for seg in spanned:
                key = (bus_index, seg, group)
                for other_step, other in occupancy.get(key, []):
                    other_node = graph.node(other)
                    same_value = ((node.value or name)
                                  == (other_node.value or other)
                                  and other_step == step)
                    exclusive = (other_step == step
                                 and node.mutually_exclusive_with(
                                     other_node))
                    if not (same_value or exclusive):
                        out.append(Violation.at(
                            "bus-conflict",
                            f"bus {bus_index} segment {seg} group "
                            f"{group}: {name!r} conflicts with "
                            f"{other!r}",
                            op=name, other=other, bus=bus_index,
                            segment=seg, group=group))
                occupancy.setdefault(key, []).append((step, name))
    return out


def _rule_subbus(result) -> List[Violation]:
    """Sub-bus geometry: segment widths, sums, and index ranges."""
    out = []
    for interconnect in _interconnects(result):
        for bus in interconnect.buses:
            if not bus.segments:
                continue
            if any(s <= 0 for s in bus.segments):
                out.append(Violation.at(
                    "subbus",
                    f"bus {bus.index} has a non-positive sub-bus "
                    f"segment in {bus.segments}",
                    bus=bus.index))
            width = sum(bus.segments)
            ports = list(bus.out_widths.items()) \
                + list(bus.in_widths.items()) \
                + list(bus.bi_widths.items())
            for chip, port in ports:
                if port > width:
                    out.append(Violation.at(
                        "subbus",
                        f"bus {bus.index}: partition {chip}'s port of "
                        f"{port} bits exceeds the segment sum {width}",
                        bus=bus.index, chip=chip))
    if result.assignment is not None and result.interconnect is not None:
        for op, segment in result.assignment.segment_of.items():
            bus_index = result.assignment.bus_of.get(op)
            if bus_index is None:
                continue
            try:
                bus = result.interconnect.bus(bus_index)
            except ConnectionError_:
                continue  # the bus-capable rule reports these
            if segment < 0 or segment >= bus.n_segments:
                out.append(Violation.at(
                    "subbus",
                    f"{op!r} starts at segment {segment} of bus "
                    f"{bus_index} which has {bus.n_segments} segments",
                    op=op, bus=bus_index, segment=segment))
    return out


# ---------------------------------------------------------------------
# Simple-flow (Theorem 3.1 bundle) rules
# ---------------------------------------------------------------------
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


# ---------------------------------------------------------------------
#: Every rule, in the order they run and report.
RULES: Tuple[Rule, ...] = (
    Rule("scheduled", "every non-free node has a start step",
         _rule_scheduled),
    Rule("precedence", "producers finish before consumers start",
         _rule_precedence),
    Rule("recursion", "recursive edges meet the max-time constraint",
         _rule_recursion),
    Rule("chaining", "ops fit their cycle windows / boundary starts",
         _rule_chaining),
    Rule("resources", "functional-unit budgets per chip/type/group",
         _rule_resources),
    Rule("pin-budget", "port widths fit each chip's total pin budget",
         _rule_pin_budget),
    Rule("pin-split", "fixed input/output pin splits are respected",
         _rule_pin_split),
    Rule("pin-step", "per-chip per-step transferred bits fit the pins",
         _rule_pin_step),
    Rule("port-model", "buses do not mix port models",
         _rule_port_model),
    Rule("assignment", "schedule and bus assignment cross-check",
         _rule_assignment),
    Rule("bus-capable", "every transfer rides a capable bus",
         _rule_bus_capable),
    Rule("bus-conflict", "conflict-free bus occupancy (Thm 3.1)",
         _rule_bus_conflict),
    Rule("subbus", "sub-bus segment geometry and width sums",
         _rule_subbus),
    Rule("simple-alloc", "Theorem 3.1 bit-level allocation invariants",
         _rule_simple_alloc),
)

_RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in RULES}


def rule_names() -> List[str]:
    return [rule.name for rule in RULES]


def check_result(result, rules: Optional[Sequence[str]] = None,
                 disable: Iterable[str] = ()) -> CheckReport:
    """Run the unified design-rule checker over one synthesis result.

    ``rules`` restricts the run to the named rules (default: all);
    ``disable`` removes individual rules from whatever set is selected.
    Unknown rule names raise :class:`repro.errors.ReproError` so typos
    cannot silently skip checks.
    """
    selected = list(RULES) if rules is None else [
        _lookup(name) for name in rules]
    disabled = {name for name in disable}
    for name in disabled:
        _lookup(name)  # validate
    report = CheckReport()
    for rule in selected:
        if rule.name in disabled:
            report.rules_skipped.append(rule.name)
            continue
        report.rules_run.append(rule.name)
        report.violations.extend(rule.check(result))
    return report


#: The rules a bare schedule can be held to; ``resources`` joins them
#: when a module vector is given.
SCHEDULE_RULES: Tuple[str, ...] = ("scheduled", "precedence", "recursion",
                                   "chaining")


def schedule_violations(schedule, resources=None) -> List[Violation]:
    """:data:`SCHEDULE_RULES` over a schedule outside any result (what
    :meth:`repro.scheduling.base.Schedule.verify` reports)."""
    view = SimpleNamespace(graph=schedule.graph, schedule=schedule,
                           initiation_rate=schedule.initiation_rate,
                           resources=resources)
    names = SCHEDULE_RULES + (("resources",) if resources is not None
                              else ())
    return [v for name in names for v in _RULES_BY_NAME[name].check(view)]


def _lookup(name: str) -> Rule:
    try:
        return _RULES_BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"unknown check rule {name!r}; expected one of "
            f"{rule_names()}") from None


#: Pin-accounting rules the schedule-first flow may violate *openly*:
#: it minimizes pins instead of respecting a budget and declares every
#: overrun in ``stats["budget_overruns"]`` (the Chapter 5 contract).
PIN_RULES: Tuple[str, ...] = ("pin-budget", "pin-step", "pin-split")


def enforceable_violations(result, report: CheckReport) -> List[Violation]:
    """Violations a caller should act on.

    Pin-accounting violations covered by the result's openly declared
    overruns (``stats["budget_overruns"]``, schedule-first contract)
    are degradations, not bugs; everything else is enforceable.
    """
    if not result.stats.get("budget_overruns"):
        return list(report.violations)
    return [v for v in report.violations if v.rule not in PIN_RULES]
