"""Declarative sweep specifications and their expansion into jobs.

A :class:`SweepSpec` names *axes* (grid dimensions: each a list of
values) plus optional *explicit points* (dicts of overrides appended
after the grid), over a fixed :class:`DesignSpace` (graph +
partitioning + timing library).  Expansion is pure and deterministic:
axes multiply in their declaration order, every point gets a stable
``index``, human-readable ``params``, a materialized
:class:`repro.core.flow.SynthesisOptions`, and a canonical content
hash (:func:`repro.explore.keys.job_key`) that the result cache is
keyed by.

Recognized axes
---------------
``rate``              initiation rate (latency axis);
``flow``              ``auto`` / ``simple`` / ``connection-first`` /
                      ``schedule-first``;
``pin_scale``         multiply every chip's pin budget (port model and
                      chip set preserved);
``pin_budgets``       explicit ``{chip: pins}`` override;
``port_model``        ``unidirectional`` / ``bidirectional`` — rebuild
                      every chip spec with the given port model;
``subbus_sharing``    Chapter 6 sub-bus segments on/off;
``slot_reserve``      bus slots held back during connection synthesis;
``branching_factor``  connection-search beam width;
``scheduler``         any registered backend name (``list`` /
                      ``postpone`` / ``modulo`` plus third-party
                      registrations — see
                      :func:`repro.pipeline.scheduler_names`); a
                      deprecated alias such as ``heap`` resolves to
                      its canonical name and shares its cache keys;
``pipe_length``       schedule-first pipe budget;
``auto_partition``    ``{"n_chips": k, "seed": s, ["pins": p,
                      "world_pins": w]}`` — run the
                      :func:`repro.partition.auto.partition_cdfg`
                      front end on a *flat* (unpartitioned, no I/O
                      nodes) graph and sweep partitioning variants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.cdfg.graph import Cdfg
from repro.core.flow import SynthesisOptions
from repro.errors import ReproError
from repro.explore.keys import job_key, resources_fingerprint
from repro.explore.worker import resolve_timing
from repro.io_json import graph_to_dict, partitioning_to_dict
from repro.partition.model import (ChipSpec, OUTSIDE_WORLD,
                                   Partitioning)


class SweepError(ReproError):
    """Invalid sweep specification."""


#: Axis names :meth:`SweepSpec.expand` understands.
KNOWN_AXES = frozenset({
    "rate", "flow", "pin_scale", "pin_budgets", "port_model",
    "subbus_sharing", "slot_reserve", "branching_factor", "scheduler",
    "pipe_length", "auto_partition",
})

#: Params that become SynthesisOptions fields verbatim.
_OPTION_PARAMS = ("flow", "subbus_sharing", "slot_reserve",
                  "branching_factor", "scheduler", "pipe_length")


@dataclass(frozen=True)
class DesignSpace:
    """The fixed inputs a sweep varies around.

    ``resources_for`` (rate -> resource vector) covers designs whose
    module allocation depends on the initiation rate (the elliptic
    filter's published experiments fix resources per rate).
    """

    name: str
    graph: Cdfg
    partitioning: Partitioning
    timing: str = "ar"
    resources_for: Optional[Callable[[int], Mapping]] = None


@dataclass
class SweepJob:
    """One concrete, content-addressed synthesis job."""

    index: int
    params: Dict[str, Any]
    graph: Cdfg
    partitioning: Partitioning
    rate: int
    options: SynthesisOptions
    timing: str
    resources: Optional[Dict[str, int]]
    key: str
    #: Optimistic (lower-bound) metrics for dominance pruning.
    optimistic: Dict[str, float] = field(default_factory=dict)

    def payload(self, deadline_ms: Optional[float] = None
                ) -> Dict[str, Any]:
        """The plain-data form shipped to a pool worker."""
        return {
            "index": self.index,
            "key": self.key,
            "params": dict(self.params),
            "design": {
                "graph": graph_to_dict(self.graph),
                "partitioning": partitioning_to_dict(self.partitioning),
            },
            "rate": self.rate,
            "timing": self.timing,
            "options": self.options.to_dict(),
            "resources": self.resources,
            "deadline_ms": deadline_ms,
        }


class SweepSpec:
    """Grid axes + explicit points, expandable over a design space."""

    def __init__(self,
                 axes: Optional[Mapping[str, Sequence[Any]]] = None,
                 points: Sequence[Mapping[str, Any]] = (),
                 base: Optional[Mapping[str, Any]] = None) -> None:
        self.axes: Dict[str, List[Any]] = {}
        for name, values in (axes or {}).items():
            if name not in KNOWN_AXES:
                raise SweepError(
                    f"unknown sweep axis {name!r}; expected one of "
                    f"{sorted(KNOWN_AXES)}")
            values = list(values)
            if not values:
                raise SweepError(f"axis {name!r} has no values")
            self.axes[name] = values
        self.points: List[Dict[str, Any]] = [dict(p) for p in points]
        for point in self.points:
            for name in point:
                if name not in KNOWN_AXES:
                    raise SweepError(
                        f"unknown parameter {name!r} in explicit point")
        self.base: Dict[str, Any] = dict(base or {})
        for name in self.base:
            if name not in KNOWN_AXES:
                raise SweepError(f"unknown base parameter {name!r}")

    # ------------------------------------------------------------------
    def size(self) -> int:
        grid = 1
        for values in self.axes.values():
            grid *= len(values)
        if not self.axes:
            grid = 1 if not self.points else 0
        return grid + len(self.points)

    def param_points(self) -> List[Dict[str, Any]]:
        """Every point's params, grid first then explicit points."""
        out: List[Dict[str, Any]] = []
        if self.axes:
            names = list(self.axes)
            for combo in itertools.product(
                    *(self.axes[n] for n in names)):
                params = dict(self.base)
                params.update(zip(names, combo))
                out.append(params)
        elif not self.points:
            out.append(dict(self.base))
        for point in self.points:
            params = dict(self.base)
            params.update(point)
            out.append(params)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data summary for reports."""
        return {
            "axes": {name: list(values)
                     for name, values in self.axes.items()},
            "explicit_points": [dict(p) for p in self.points],
            "base": dict(self.base),
            "n_points": self.size(),
        }

    # ------------------------------------------------------------------
    def expand(self, design: DesignSpace) -> List[SweepJob]:
        """Materialize every point into a content-addressed job."""
        resolve_timing(design.timing)  # fail fast on unknown libraries
        jobs: List[SweepJob] = []
        for index, params in enumerate(self.param_points()):
            jobs.append(_materialize(design, params, index))
        return jobs


# ---------------------------------------------------------------------
def _materialize(design: DesignSpace, params: Mapping[str, Any],
                 index: int) -> SweepJob:
    graph = design.graph
    partitioning = design.partitioning

    auto = params.get("auto_partition")
    if auto is not None:
        graph, partitioning = _auto_partition(design, dict(auto))

    port_model = params.get("port_model")
    if port_model is not None:
        partitioning = with_port_model(partitioning, port_model)
    scale = params.get("pin_scale")
    if scale is not None:
        partitioning = scale_pins(partitioning, float(scale))
    budgets = params.get("pin_budgets")
    if budgets is not None:
        partitioning = partitioning.with_pins(
            {int(k): int(v) for k, v in dict(budgets).items()})

    rate = int(params.get("rate", 3))
    opt_kwargs = {name: params[name] for name in _OPTION_PARAMS
                  if params.get(name) is not None}
    opt_kwargs.setdefault("flow", "auto")
    options = SynthesisOptions(**opt_kwargs)

    resources = None
    if design.resources_for is not None:
        resources = resources_fingerprint(design.resources_for(rate))

    key = job_key(graph, partitioning, rate, options,
                  timing=design.timing, resources=resources)
    job = SweepJob(index=index, params=dict(params), graph=graph,
                   partitioning=partitioning, rate=rate,
                   options=options, timing=design.timing,
                   resources=resources, key=key)
    job.optimistic = optimistic_metrics(job)
    return job


def with_port_model(partitioning: Partitioning,
                    model: str) -> Partitioning:
    """Rebuild every chip spec under the given port model.

    ``bidirectional`` chips have no fixed input/output split, so fixed
    splits are dropped when switching models; totals are preserved.
    """
    if model not in ("unidirectional", "bidirectional"):
        raise SweepError(
            f"unknown port model {model!r}; expected "
            f"'unidirectional' or 'bidirectional'")
    bidirectional = model == "bidirectional"
    chips = {index: ChipSpec(partitioning.total_pins(index),
                             bidirectional=bidirectional)
             for index in partitioning.indices()}
    return Partitioning(chips)


def scale_pins(partitioning: Partitioning,
               scale: float) -> Partitioning:
    """Multiply every chip's total pin budget (port model preserved)."""
    if scale <= 0:
        raise SweepError(f"pin_scale must be positive, got {scale}")
    return partitioning.with_pins({
        index: max(1, int(round(partitioning.total_pins(index) * scale)))
        for index in partitioning.indices()})


def _auto_partition(design: DesignSpace, spec: Dict[str, Any]
                    ) -> Tuple[Cdfg, Partitioning]:
    """Apply the CHOP-role partitioner for an ``auto_partition`` point."""
    from repro.partition.auto import partition_cdfg

    if design.graph.io_nodes():
        raise SweepError(
            "auto_partition sweeps need a flat graph (no I/O nodes); "
            f"design {design.name!r} is already partitioned")
    n_chips = int(spec.pop("n_chips"))
    seed = int(spec.pop("seed", 0))
    real = design.partitioning.real_chips()
    default_pins = max(
        (design.partitioning.total_pins(i) for i in real), default=256)
    pins = int(spec.pop("pins", default_pins))
    world_pins = int(spec.pop("world_pins",
                              design.partitioning.total_pins(
                                  OUTSIDE_WORLD)))
    if spec:
        raise SweepError(
            f"unknown auto_partition keys {sorted(spec)}")
    plan = partition_cdfg(design.graph, n_chips, seed=seed)
    graph = plan.apply(design.graph)
    chips = {OUTSIDE_WORLD: ChipSpec(world_pins)}
    for chip in range(1, n_chips + 1):
        chips[chip] = ChipSpec(pins)
    return graph, Partitioning(chips)


def auto_partition_axis(graph: Cdfg, n_chips: int,
                        seeds: Sequence[int],
                        **kwargs: Any) -> List[Dict[str, Any]]:
    """``auto_partition`` axis values for the *distinct* partitionings.

    Different seeds often converge on identical assignments; this runs
    :func:`repro.partition.auto.partition_variants` to dedupe them, so
    the sweep only synthesizes each partitioning once.  Extra keyword
    arguments (``pins``, ``world_pins``) are copied into every axis
    value.
    """
    from repro.partition.auto import partition_variants

    if graph.io_nodes():
        raise SweepError(
            "auto_partition_axis needs a flat graph (no I/O nodes)")
    variants = partition_variants(graph, n_chips, seeds)
    return [dict({"n_chips": n_chips, "seed": seed}, **kwargs)
            for seed in variants]


# ---------------------------------------------------------------------
def optimistic_metrics(job: SweepJob) -> Dict[str, float]:
    """Cheap lower bounds on a job's metrics, for dominance pruning.

    A pending job whose *best possible* outcome is already dominated by
    a finished point cannot extend the Pareto front, so the executor
    may skip it.  Bounds must be sound, never tight: chip count is
    exact; latency is the critical path; every chip (and the outside
    world) needs at least one port as wide as its widest crossing
    value; one bus suffices only if anything crosses at all.
    """
    timing = resolve_timing(job.timing)
    from repro.cdfg.analysis import critical_path_length

    widest: Dict[int, int] = {}
    for node in job.graph.io_nodes():
        for chip in (node.source_partition, node.dest_partition):
            if chip is None:
                continue
            widest[chip] = max(widest.get(chip, 0), node.bit_width)
    return {
        "chips": len(job.partitioning.real_chips()),
        "buses": 1 if widest else 0,
        "total_pins": sum(widest.values()),
        "latency": critical_path_length(job.graph, timing),
    }
