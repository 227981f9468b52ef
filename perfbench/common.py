"""Shared pieces of the two workloads: solving one point, statistics,
memory, and the per-phase record the runner turns into metrics."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Requests/solves may take this long before the service degrades them;
#: every point in the workloads finishes far inside it.
TIMEOUT_MS = 30000.0


@dataclass
class Point:
    """One synthesis job, materialized once and solved many times."""

    design: str
    params: Dict[str, Any]
    graph: Any
    partitioning: Any
    timing: Any
    rate: int
    flow: str
    resources: Optional[Mapping]
    options: Dict[str, Any]
    #: The explorer/service content key of this job.
    key: str

    @property
    def label(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in sorted(self.params.items())
                        if k not in ("rate", "flow"))
        return f"{self.design} L{self.rate} {self.flow}{extra}"


def make_point(space, params: Mapping[str, Any]) -> Point:
    """Materialize ``params`` over a catalog design space."""
    from repro.explore.spec import SweepSpec
    from repro.explore.worker import resolve_timing

    job = SweepSpec(base=dict(params)).expand(space)[0]
    options = job.options.to_dict()
    flow = options.pop("flow")
    resources = (space.resources_for(job.rate)
                 if space.resources_for is not None else None)
    return Point(design=space.name, params=dict(params), graph=job.graph,
                 partitioning=job.partitioning,
                 timing=resolve_timing(job.timing), rate=job.rate,
                 flow=flow, resources=resources, options=options,
                 key=job.key)


def solve(point: Point, warm_basis=None):
    """``repro.synthesize(..., check=True)`` on one point."""
    import repro
    return repro.synthesize(point.graph, point.partitioning, point.timing,
                            point.rate, flow=point.flow, check=True,
                            resources=point.resources,
                            pin_warm_basis=warm_basis, **point.options)


def qor(result) -> Tuple[int, int]:
    """(total pins, pipe latency in control steps) of a result."""
    return sum(result.pins_used().values()), result.pipe_length


def validate(result) -> List[str]:
    """Correctness gate for one finished result: zero enforceable
    design-rule violations, and the cycle-accurate pipeline simulation
    agrees with the independent behavioural evaluator."""
    from repro.check.rules import check_result, enforceable_violations
    from repro.errors import ReproError
    from repro.sim.pipeline import simulate_result

    problems = [f"[{v.rule}] {v.message}" for v in
                enforceable_violations(result, check_result(result))]
    try:
        simulate_result(result)
    except ReproError as exc:
        problems.append(f"simulation mismatch: {exc}")
    return problems


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: Denominator of ops_per_s: time the workload's caller waited.
    busy_s: float = 0.0
    passes: int = 0
    qor_pins: int = 0
    qor_latency: int = 0
    #: Counters that must repeat exactly from pass to pass (None when
    #: the workload's counters depend on request interleaving).
    pass_counters: Optional[List[Dict[str, Any]]] = None
    #: ``PERF`` delta over the phase (set by the runner).
    perf: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Sum of operation latencies, as the traced run's wall time.
    traced_wall_ms: float = 0.0
    #: Layer metrics only the workload can see (front/service/explore).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Layer self time, in ms, not reported through ``PERF`` timings.
    extra_self_ms: float = 0.0
    messages: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s if self.busy_s > 0 else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in
    MiB (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
