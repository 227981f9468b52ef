"""Hardware modules and per-partition module sets.

The AR-filter experiments (Section 3.4) use a 250 ns stage with 30 ns
adders, 210 ns multipliers and 10 ns I/O transfers, with chaining
allowed; the elliptic-filter experiments (Section 4.4.2) use 1-cycle
adders/I/O and 2-cycle non-pipelined multipliers with no chaining.  Both
timing styles are expressible here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.cdfg.graph import Node
from repro.cdfg.ops import OpKind
from repro.errors import ModuleLibraryError

#: Estimated I/O operation delay (output driver + interchip wire) when a
#: design does not override it (Section 2.2.1 assumes one estimate for
#: all I/O operations because the real delays are unknown a priori).
IO_DELAY_DEFAULT_NS = 10.0


@dataclass(frozen=True)
class HardwareModule:
    """One functional unit type.

    ``delay_ns`` is the combinational propagation delay; ``cycles`` the
    number of control steps the unit is busy (``None`` derives it from
    the delay and the clock period).  ``pipelined`` marks internally
    pipelined multi-cycle units (a new operation may start every cycle);
    the dissertation's multipliers are *non*-pipelined (Section 7.4).
    """

    name: str
    op_type: str
    delay_ns: float
    cost: float = 1.0
    cycles: Optional[int] = None
    pipelined: bool = False

    def cycles_at(self, clock_period: float) -> int:
        if self.cycles is not None:
            return self.cycles
        return max(1, int(math.ceil(self.delay_ns / clock_period - 1e-9)))


class ModuleSet:
    """Maps operation types to modules for one partition (or globally)."""

    def __init__(self, modules: Mapping[str, HardwareModule]) -> None:
        self._modules: Dict[str, HardwareModule] = dict(modules)
        for op_type, module in self._modules.items():
            if module.op_type != op_type:
                raise ModuleLibraryError(
                    f"module {module.name!r} registered under {op_type!r} "
                    f"but implements {module.op_type!r}")

    @classmethod
    def of(cls, *modules: HardwareModule) -> "ModuleSet":
        return cls({m.op_type: m for m in modules})

    def module(self, op_type: str) -> HardwareModule:
        try:
            return self._modules[op_type]
        except KeyError:
            raise ModuleLibraryError(
                f"no module implements operation type {op_type!r}") from None

    def __contains__(self, op_type: str) -> bool:
        return op_type in self._modules


class DesignTiming:
    """TimingSpec implementation backed by module sets.

    ``module_sets`` maps a partition index to its :class:`ModuleSet`;
    the ``default`` set covers partitions without an entry.  I/O
    operations get ``io_delay_ns`` and always start at a clock boundary
    and complete within their cycle (Section 2.2 I/O transfer model).
    """

    def __init__(self,
                 clock_period: float,
                 default: ModuleSet,
                 module_sets: Optional[Mapping[int, ModuleSet]] = None,
                 io_delay_ns: float = IO_DELAY_DEFAULT_NS,
                 chaining: bool = True,
                 io_step_multiple: int = 1) -> None:
        """``io_step_multiple`` models the two-minor-clock scheme of
        Section 2.2: when the I/O transfer clock is slower than the
        data clock, transfers may only start at control steps that are
        multiples of this factor (both clocks derive from the global
        clock, and the initiation interval must stay a multiple of it).
        """
        if clock_period <= 0:
            raise ModuleLibraryError("clock period must be positive")
        if io_delay_ns > clock_period:
            raise ModuleLibraryError(
                "I/O transfers must complete within one cycle "
                "(Section 2.2); io_delay_ns exceeds the clock period")
        if io_step_multiple < 1:
            raise ModuleLibraryError("io_step_multiple must be >= 1")
        self.clock_period = float(clock_period)
        self._default = default
        self._sets: Dict[int, ModuleSet] = dict(module_sets or {})
        self.io_delay_ns = float(io_delay_ns)
        self._chaining = bool(chaining)
        self.io_step_multiple = int(io_step_multiple)

    def io_step_allowed(self, step: int) -> bool:
        """Whether an I/O transfer may start at this control step."""
        return step % self.io_step_multiple == 0

    # -- TimingSpec ----------------------------------------------------
    def delay_ns(self, node: Node) -> float:
        if node.is_free():
            return 0.0
        if node.kind in (OpKind.IO, OpKind.INPUT, OpKind.OUTPUT):
            return self.io_delay_ns
        return self._module_for(node).delay_ns

    def cycles(self, node: Node) -> int:
        if node.is_free():
            return 0
        if node.kind in (OpKind.IO, OpKind.INPUT, OpKind.OUTPUT):
            return 1
        return self._module_for(node).cycles_at(self.clock_period)

    def must_start_at_boundary(self, node: Node) -> bool:
        if node.is_free():
            return False
        if node.kind in (OpKind.IO, OpKind.INPUT, OpKind.OUTPUT):
            # I/O transfers activate at the beginning of a clock cycle
            # (Section 2.2).
            return True
        return self.cycles(node) > 1

    def chaining_allowed(self) -> bool:
        return self._chaining

    # -- extras used by schedulers --------------------------------------
    def module_set(self, partition: Optional[int]) -> ModuleSet:
        if partition is not None and partition in self._sets:
            return self._sets[partition]
        return self._default

    def _module_for(self, node: Node) -> HardwareModule:
        return self.module_set(node.partition).module(node.op_type)

    def is_pipelined_unit(self, node: Node) -> bool:
        if node.kind is not OpKind.FUNCTIONAL:
            return True
        return self._module_for(node).pipelined


def ar_filter_timing(chaining: bool = True) -> DesignTiming:
    """The Section 3.4 timing: 250 ns stage, 30 ns add, 210 ns mul."""
    default = ModuleSet.of(
        HardwareModule("adder", "add", delay_ns=30.0),
        HardwareModule("multiplier", "mul", delay_ns=210.0),
        HardwareModule("subtractor", "sub", delay_ns=30.0),
    )
    return DesignTiming(clock_period=250.0, default=default,
                        io_delay_ns=10.0, chaining=chaining)


def elliptic_filter_timing() -> DesignTiming:
    """Section 4.4.2 timing: 1-cycle adds/I/O, 2-cycle non-pipelined mul."""
    default = ModuleSet.of(
        HardwareModule("adder", "add", delay_ns=1.0, cycles=1),
        HardwareModule("multiplier", "mul", delay_ns=2.0, cycles=2,
                       pipelined=False),
    )
    return DesignTiming(clock_period=1.0, default=default,
                        io_delay_ns=1.0, chaining=False)
