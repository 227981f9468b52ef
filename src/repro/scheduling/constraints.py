"""Allocation wheels and recursive-edge timing bounds.

* :class:`AllocationWheel` (Figure 7.10): a non-pipelined multi-cycle
  unit in a pipelined design with initiation rate ``L`` has an
  ``L``-cell circular occupancy pattern; an ``m``-cycle operation
  starting at step ``s`` occupies cells ``s % L .. (s+m-1) % L``
  contiguously (wrapping).  Fragmentation of the wheel can strand
  capacity, which the list scheduler's safety check guards against.
* :func:`recursive_edge_bounds` packages the Section 7.1 maximum time
  constraint ``t_producer - t_consumer < d*L - (c_producer - 1)``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cdfg.graph import Cdfg
from repro.cdfg.analysis import TimingSpec
from repro.errors import SchedulingError


class AllocationWheel:
    """Circular occupancy of one non-pipelined multi-cycle unit."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise SchedulingError("wheel length must be >= 1")
        self.length = length
        self._used = [False] * length

    def cells(self, step: int, cycles: int) -> List[int]:
        if cycles > self.length:
            raise SchedulingError(
                f"a {cycles}-cycle operation cannot fit a wheel of "
                f"length {self.length} (no such pipelined design exists)")
        return [(step + k) % self.length for k in range(cycles)]

    def fits(self, step: int, cycles: int) -> bool:
        return all(not self._used[c] for c in self.cells(step, cycles))

    def occupy(self, step: int, cycles: int) -> None:
        cells = self.cells(step, cycles)
        for c in cells:
            if self._used[c]:
                raise SchedulingError(f"wheel cell {c} double-booked")
        for c in cells:
            self._used[c] = True

    def release(self, step: int, cycles: int) -> None:
        for c in self.cells(step, cycles):
            self._used[c] = False

    def capacity(self, cycles: int) -> int:
        """Max additional ``cycles``-cycle ops this wheel can take.

        Computed over the circular free runs: a free run of length ``r``
        holds ``r // cycles`` operations.
        """
        if cycles > self.length:
            return 0
        if not any(self._used):
            return self.length // cycles
        # Walk the circle starting just after some used cell so runs
        # never wrap.
        start = next(i for i, used in enumerate(self._used) if used)
        total = 0
        run = 0
        for k in range(1, self.length + 1):
            cell = (start + k) % self.length
            if self._used[cell]:
                total += run // cycles
                run = 0
            else:
                run += 1
        total += run // cycles
        return total

    def free_cells(self) -> List[int]:
        return [i for i, used in enumerate(self._used) if not used]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pattern = "".join("#" if u else "." for u in self._used)
        return f"AllocationWheel[{pattern}]"


def recursive_edge_bounds(graph: Cdfg, timing: TimingSpec,
                          initiation_rate: int
                          ) -> List[Tuple[str, str, int]]:
    """(producer, consumer, slack) for every data-recursive edge.

    ``slack`` is the maximum allowed ``t_producer - t_consumer``, i.e.
    ``d*L - c_producer`` in steps: the producer may start at most that
    many steps after the consumer.
    """
    bounds = []
    for edge in graph.recursive_edges():
        c_src = max(1, timing.cycles(graph.node(edge.src)))
        slack = edge.degree * initiation_rate - c_src
        bounds.append((edge.src, edge.dst, slack))
    return bounds
