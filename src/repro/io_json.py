"""JSON (de)serialization of designs and synthesis results.

Lets users author partitioned CDFGs and pin budgets as data files, and
archive synthesis outputs (schedule + interconnect + bus assignment)
for diffing between tool versions.  The format is versioned and
round-trip tested.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.cdfg.graph import Cdfg, Node
from repro.cdfg.ops import OpKind
from repro.core.interconnect import Bus, BusAssignment, Interconnect
from repro.errors import ReproError
from repro.partition.model import ChipSpec, Partitioning
from repro.robustness.diagnostics import Diagnostics

FORMAT_VERSION = 1

#: Version of the machine-readable payload *schemas* (synthesize
#: result archives and ``--json`` output, explore reports, service
#: responses).  Producers stamp it as ``schema_version``; consumers
#: tolerate its absence (payloads written before versioning) and
#: reject versions newer than they understand.
SCHEMA_VERSION = 1


class FormatError(ReproError):
    """Malformed or incompatible JSON input."""


def check_schema_version(data: Dict[str, Any], what: str) -> None:
    """Validate a payload's optional ``schema_version`` stamp.

    Missing means the pre-versioning form of the same schema — always
    accepted.  A newer version than this build understands is refused
    with a clear error instead of a downstream KeyError.
    """
    version = data.get("schema_version")
    if version is None:
        return
    if not isinstance(version, int) or version < 1:
        raise FormatError(
            f"{what} has malformed schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise FormatError(
            f"{what} uses schema_version {version}, newer than the "
            f"supported {SCHEMA_VERSION}; upgrade the tool to read it")


def canonical_dumps(data: Any) -> str:
    """Serialize plain data to a canonical JSON string.

    Keys are sorted and separators fixed, so two structurally equal
    dicts built in different insertion orders (or in different
    processes, under different ``PYTHONHASHSEED``\\ s) produce the same
    bytes.  The explorer's content-addressed result cache hashes this
    form; reports and cache files also write it so diffs are stable.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


# ---------------------------------------------------------------------
def graph_to_dict(graph: Cdfg) -> Dict[str, Any]:
    """Serialize a CDFG (nodes, edges, guards) to plain data."""
    return {
        "version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind.value,
                "op_type": n.op_type,
                "partition": n.partition,
                "bit_width": n.bit_width,
                "value": n.value,
                "source_partition": n.source_partition,
                "dest_partition": n.dest_partition,
                "guard": sorted([list(g) for g in n.guard]),
            }
            for n in sorted(graph.nodes(), key=lambda n: n.name)
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "degree": e.degree}
            for e in graph.edges()
        ],
    }


def shared_graph_dict(graph: Cdfg) -> Dict[str, Any]:
    """:func:`graph_to_dict` of ``graph``, memoized on the graph (one
    slot, dropped by any mutation), so a graph is serialized once
    however many keys, signatures and job payloads read it.  The dict
    is shared: read it, never change it."""
    return graph.memo("dict", None, lambda: graph_to_dict(graph))


def graph_from_dict(data: Dict[str, Any]) -> Cdfg:
    """Rebuild a CDFG from :func:`graph_to_dict` data."""
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported graph format version {data.get('version')!r}")
    graph = Cdfg(data.get("name", "cdfg"))
    for raw in data["nodes"]:
        try:
            kind = OpKind(raw["kind"])
        except ValueError:
            raise FormatError(f"unknown node kind {raw['kind']!r}")
        graph.add_node(Node(
            name=raw["name"],
            kind=kind,
            op_type=raw.get("op_type", ""),
            partition=raw.get("partition"),
            bit_width=raw.get("bit_width", 8),
            value=raw.get("value", ""),
            source_partition=raw.get("source_partition"),
            dest_partition=raw.get("dest_partition"),
            guard=frozenset((str(k), bool(v))
                            for k, v in raw.get("guard", [])),
        ))
    for raw in data["edges"]:
        graph.add_edge(raw["src"], raw["dst"], raw.get("degree", 0))
    return graph


# ---------------------------------------------------------------------
def partitioning_to_dict(partitioning: Partitioning) -> Dict[str, Any]:
    """Serialize chip pin budgets to plain data."""
    return {
        "version": FORMAT_VERSION,
        "chips": {
            str(index): {
                "total_pins": spec.total_pins,
                "input_pins": spec.input_pins,
                "output_pins": spec.output_pins,
                "bidirectional": spec.bidirectional,
            }
            for index, spec in (
                (i, partitioning.chip(i))
                for i in partitioning.indices())
        },
    }


def partitioning_from_dict(data: Dict[str, Any]) -> Partitioning:
    """Rebuild a Partitioning from :func:`partitioning_to_dict` data."""
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported partitioning format version "
            f"{data.get('version')!r}")
    chips = {}
    for key, raw in data["chips"].items():
        chips[int(key)] = ChipSpec(
            total_pins=raw["total_pins"],
            input_pins=raw.get("input_pins"),
            output_pins=raw.get("output_pins"),
            bidirectional=raw.get("bidirectional", False),
        )
    return Partitioning(chips)


# ---------------------------------------------------------------------
def interconnect_to_dict(interconnect: Interconnect) -> Dict[str, Any]:
    """Serialize buses (ports, widths, segments) to plain data."""
    return {
        "version": FORMAT_VERSION,
        "bidirectional": interconnect.bidirectional,
        "buses": [
            {
                "index": bus.index,
                "out_widths": {str(k): v
                               for k, v in bus.out_widths.items()},
                "in_widths": {str(k): v
                              for k, v in bus.in_widths.items()},
                "bi_widths": {str(k): v
                              for k, v in bus.bi_widths.items()},
                "segments": list(bus.segments),
            }
            for bus in interconnect.buses
        ],
    }


def interconnect_from_dict(data: Dict[str, Any]) -> Interconnect:
    """Rebuild an Interconnect from :func:`interconnect_to_dict` data."""
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported interconnect format version "
            f"{data.get('version')!r}")
    buses = []
    for raw in data["buses"]:
        buses.append(Bus(
            index=raw["index"],
            out_widths={int(k): v
                        for k, v in raw.get("out_widths", {}).items()},
            in_widths={int(k): v
                       for k, v in raw.get("in_widths", {}).items()},
            bi_widths={int(k): v
                       for k, v in raw.get("bi_widths", {}).items()},
            segments=list(raw.get("segments", [])),
        ))
    return Interconnect(buses,
                        bidirectional=data.get("bidirectional", False))


# ---------------------------------------------------------------------
def _stats_to_dict(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Make a stats dict JSON-clean (BusAssignment values are tagged)."""
    out: Dict[str, Any] = {}
    for key, value in stats.items():
        if isinstance(value, BusAssignment):
            out[key] = {"__type__": "bus_assignment",
                        "bus_of": dict(value.bus_of),
                        "segment_of": dict(value.segment_of)}
        else:
            out[key] = value
    return out


def _stats_from_dict(data: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in (data or {}).items():
        if isinstance(value, dict) \
                and value.get("__type__") == "bus_assignment":
            out[key] = BusAssignment(dict(value["bus_of"]),
                                     dict(value["segment_of"]))
        else:
            out[key] = value
    return out


def result_to_dict(result) -> Dict[str, Any]:
    """Serialize a SynthesisResult (schedule, structure, stats, trail)."""
    out: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "initiation_rate": result.initiation_rate,
        "graph": graph_to_dict(result.graph),
        "partitioning": partitioning_to_dict(result.partitioning),
        "schedule": {
            "start_step": dict(result.schedule.start_step),
            "start_ns": dict(result.schedule.start_ns),
        },
        "resources": {f"{p}:{t}": n
                      for (p, t), n in result.resources.items()},
        "stats": _stats_to_dict(result.stats),
        "diagnostics": result.diagnostics.to_dict(),
    }
    if result.interconnect is not None:
        out["interconnect"] = interconnect_to_dict(result.interconnect)
    if result.assignment is not None:
        out["assignment"] = {
            "bus_of": dict(result.assignment.bus_of),
            "segment_of": dict(result.assignment.segment_of),
        }
    return out


def result_from_dict(data: Dict[str, Any], timing) -> "object":
    """Rebuild a SynthesisResult from :func:`result_to_dict` data.

    ``timing`` (a :class:`repro.modules.library.DesignTiming`) is needed
    because schedules validate ns starts against the clock period; it is
    deliberately not archived (module libraries are code, not data).
    The Chapter 3 flow's ``simple_allocation`` is reconstructible from
    the schedule and therefore not archived either.
    """
    from repro.core.flow import SynthesisResult
    from repro.scheduling.base import Schedule

    if data.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported result format version {data.get('version')!r}")
    check_schema_version(data, "result archive")
    for key in ("graph", "partitioning", "schedule", "initiation_rate"):
        if key not in data:
            raise FormatError(f"result archive needs {key!r}")
    graph = graph_from_dict(data["graph"])
    partitioning = partitioning_from_dict(data["partitioning"])
    rate = data["initiation_rate"]
    schedule = Schedule(graph, timing, rate)
    start_ns = data["schedule"].get("start_ns", {})
    for name, step in sorted(data["schedule"]["start_step"].items()):
        schedule.place(name, step, start_ns.get(name))
    resources: Dict = {}
    for key, count in data.get("resources", {}).items():
        part, _, op_type = key.partition(":")
        resources[(int(part), op_type)] = count
    interconnect = None
    if "interconnect" in data:
        interconnect = interconnect_from_dict(data["interconnect"])
    assignment = None
    if "assignment" in data:
        assignment = BusAssignment(
            dict(data["assignment"]["bus_of"]),
            dict(data["assignment"].get("segment_of", {})))
    return SynthesisResult(
        graph=graph,
        partitioning=partitioning,
        initiation_rate=rate,
        schedule=schedule,
        resources=resources,
        interconnect=interconnect,
        assignment=assignment,
        stats=_stats_from_dict(data.get("stats")),
        diagnostics=Diagnostics.from_dict(data.get("diagnostics")),
    )


def dump_result(result, path: str) -> None:
    """Write a SynthesisResult archive as JSON."""
    with open(path, "w") as handle:
        json.dump(result_to_dict(result), handle, indent=1,
                  sort_keys=True)


def load_result(path: str, timing):
    """Load a SynthesisResult archive written by :func:`dump_result`."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read result file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"result file {path!r} is not JSON: {exc}")
    return result_from_dict(data, timing)


def load_design(path: str):
    """Load a (graph, partitioning) pair from a design JSON file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read design file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"design file {path!r} is not JSON: {exc}")
    if "graph" not in data or "partitioning" not in data:
        raise FormatError("design file needs 'graph' and 'partitioning'")
    return (graph_from_dict(data["graph"]),
            partitioning_from_dict(data["partitioning"]))


def dump_design(graph: Cdfg, partitioning: Partitioning,
                path: str) -> None:
    """Write a (graph, partitioning) design file as JSON."""
    with open(path, "w") as handle:
        json.dump({
            "version": FORMAT_VERSION,
            "graph": graph_to_dict(graph),
            "partitioning": partitioning_to_dict(partitioning),
        }, handle, indent=1, sort_keys=True)
