"""The unified per-chip module/pin accounting behind every flow.

Before the pass pipeline, three modules each kept their own copy of
the same bookkeeping: :mod:`repro.core.flow` defaulted module counts
and re-measured them, :class:`repro.core.connection_search.ConnectionSearch`
tracked booked pins per chip (with the fixed input/output split), and
:mod:`repro.core.pin_allocation` re-derived the very same per-chip
limits when building ILP rows and witness vectors.  This module owns
that accounting once:

* :func:`pin_caps` — a chip's effective (total, output, input) pin
  limits under its port model;
* :func:`fits` — the single feasibility predicate ("does this usage
  fit this chip?") shared by the search, the checker rows, and the
  design-rule checker;
* :func:`usage_row` — the canonical 3-slot encoding of a chip's pin
  usage used by the pin-oracle witness vectors;
* :class:`PinLedger` — a mutable booked-pins table with delta checks,
  booking, snapshot/restore (the connection search's inner loop), and
  budget-violation reporting (``Interconnect.check_budget``);
* :class:`ResourceTable` — the pass-pipeline facade combining the pin
  ledger with functional-module accounting (defaulting via
  :func:`repro.modules.allocation.min_module_counts`, occupancy via
  :class:`repro.scheduling.base.ResourcePool`).

Scheduler backends draw their :class:`ResourcePool` from the table, so
any schedule they emit is accounted against the same module vector the
rest of the flow (and the design-rule checker) sees.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.modules.allocation import ResourceVector, min_module_counts
from repro.partition.model import ChipSpec, Partitioning
from repro.scheduling.base import ResourcePool

#: Snapshot of a :class:`PinLedger`: (used, out, in) dict copies.
LedgerSnapshot = Tuple[Dict[int, int], Dict[int, int], Dict[int, int]]


def pin_caps(spec: ChipSpec) -> Tuple[int, Optional[int], Optional[int]]:
    """A chip's effective pin limits: ``(total, out_cap, in_cap)``.

    Pooled chips bound only the total (``None`` per side — any split
    is allowed); split-fixed chips additionally cap each direction.
    """
    if spec.split_fixed:
        return spec.total_pins, spec.output_pins, spec.input_pins
    return spec.total_pins, None, None


def fits(spec: ChipSpec, out_used: int, in_used: int) -> bool:
    """Whether ``out_used``/``in_used`` pins fit the chip's budget.

    The single feasibility predicate: total pool always applies;
    per-side caps apply only when the chip declares a fixed split.
    """
    total, out_cap, in_cap = pin_caps(spec)
    if out_used + in_used > total:
        return False
    if out_cap is not None and out_used > out_cap:
        return False
    if in_cap is not None and in_used > in_cap:
        return False
    return True


def usage_row(spec: ChipSpec, in_use: int, out_use: int) -> List[int]:
    """Canonical 3-slot usage encoding for pin-oracle witness vectors.

    Mirrors the ILP rows exactly: split-fixed chips bound each side
    separately and never reference the total, pooled chips bound only
    ``in + out <= total``.  Slots the model never bounds come back as
    ``0``/``-1`` so they never block a transfer.
    """
    if spec.split_fixed:
        return [0, in_use, out_use]
    return [in_use + out_use, -1, -1]


class PinLedger:
    """Booked pins per chip, with delta checks and cheap undo.

    The mutable half of the pin accounting: the connection search books
    candidate placements and rolls them back on backtrack; the checker
    reports violations of a finished interconnect through the same
    arithmetic.  Usage is direction-split (out/in); bidirectional
    widths are booked on the out side of the pooled tracker, matching
    the historical convention everywhere in the code base.
    """

    def __init__(self, partitioning: Partitioning) -> None:
        self.partitioning = partitioning
        self.used: Dict[int, int] = {
            index: 0 for index in partitioning.indices()}
        self.out_used: Dict[int, int] = {
            index: 0 for index in partitioning.indices()}
        self.in_used: Dict[int, int] = {
            index: 0 for index in partitioning.indices()}

    # ------------------------------------------------------------------
    @classmethod
    def from_interconnect(cls, interconnect,
                          partitioning: Partitioning) -> "PinLedger":
        """Ledger reflecting a finished interconnect's pin usage."""
        ledger = cls(partitioning)
        for index in partitioning.indices():
            out_used, in_used = interconnect.pins_used_split(index)
            ledger.used[index] = out_used + in_used
            ledger.out_used[index] = out_used
            ledger.in_used[index] = in_used
        return ledger

    # ------------------------------------------------------------------
    def free_pins(self, partition: int) -> int:
        """Unbooked pins of the chip's total pool."""
        return (self.partitioning.total_pins(partition)
                - self.used[partition])

    def delta_fits(self,
                   delta: Mapping[int, Tuple[int, int]]) -> bool:
        """Whether booking ``{chip: (extra_out, extra_in)}`` fits every
        touched chip's budget — the total pool, and the fixed split
        when one is declared."""
        for partition, (extra_out, extra_in) in delta.items():
            spec = self.partitioning.chip(partition)
            if not fits(spec,
                        self.out_used[partition] + extra_out,
                        self.in_used[partition] + extra_in):
                return False
        return True

    def book(self, delta: Mapping[int, Tuple[int, int]]) -> None:
        """Record the extra pins (no feasibility check — callers gate
        with :meth:`delta_fits` first)."""
        for partition, (extra_out, extra_in) in delta.items():
            self.used[partition] += extra_out + extra_in
            self.out_used[partition] += extra_out
            self.in_used[partition] += extra_in

    # ------------------------------------------------------------------
    def snapshot(self) -> LedgerSnapshot:
        return dict(self.used), dict(self.out_used), dict(self.in_used)

    def restore(self, snap: LedgerSnapshot) -> None:
        self.used, self.out_used, self.in_used = snap

    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """Budget-violation report, one string per broken limit.

        The message format is the stable contract of
        ``Interconnect.check_budget`` (tests and the design-rule
        checker match on it).
        """
        problems: List[str] = []
        for index in self.partitioning.indices():
            used = self.used[index]
            budget = self.partitioning.total_pins(index)
            if used > budget:
                problems.append(
                    f"partition {index} uses {used} pins "
                    f"(> budget {budget})")
            spec = self.partitioning.chip(index)
            if spec.split_fixed:
                out_used, in_used = (self.out_used[index],
                                     self.in_used[index])
                if out_used > spec.output_pins:
                    problems.append(
                        f"partition {index} uses {out_used} output "
                        f"pins (> output-pin budget "
                        f"{spec.output_pins})")
                if in_used > spec.input_pins:
                    problems.append(
                        f"partition {index} uses {in_used} input "
                        f"pins (> input-pin budget {spec.input_pins})")
        return problems


class ResourceTable:
    """Per-chip module *and* pin accounting for one synthesis run.

    The pass pipeline builds one table per flow invocation and hands
    it to every pass: resource defaulting, the connection search's pin
    ledger, and the scheduler backends' functional-unit pools all read
    and write the same object, so no pass can disagree with another
    about what a chip has left.
    """

    def __init__(self, graph, partitioning: Partitioning, timing,
                 initiation_rate: int,
                 modules: Optional[ResourceVector] = None) -> None:
        self.graph = graph
        self.partitioning = partitioning
        self.timing = timing
        self.initiation_rate = initiation_rate
        self._modules: Optional[ResourceVector] = (
            dict(modules) if modules is not None else None)
        self.pins = PinLedger(partitioning)

    # ------------------------------------------------------------------
    @property
    def modules(self) -> ResourceVector:
        """The module vector, defaulted lazily to the rate-feasible
        minimum (:func:`min_module_counts`) when none was given.  The
        minimum is memoized on the graph, keyed like
        :func:`repro.scheduling.list_scheduler.compile_design` (the
        rate and an equal timing); each table gets its own copy, since
        a result hands this dict out as ``result.resources``."""
        if self._modules is None:
            graph, timing = self.graph, self.timing
            rate = self.initiation_rate
            self._modules = dict(graph.memo(
                "min-modules", (rate, timing),
                lambda: min_module_counts(graph, timing, rate)))
        return self._modules

    def set_modules(self, modules: ResourceVector) -> None:
        """Fix the module vector (the schedule-first flow *measures*
        module usage from the finished schedule rather than taking it
        as an input)."""
        self._modules = dict(modules)

    def module_pool(self) -> ResourcePool:
        """A fresh functional-unit occupancy pool over the table's
        module vector — what scheduler backends place against."""
        return ResourcePool(self.modules, self.timing,
                            self.initiation_rate)
