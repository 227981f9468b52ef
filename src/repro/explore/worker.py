"""The explorer's worker: a chain of sweep points per call.

:func:`run_chain` is the entry point the explorer's pool dispatches to,
inline or in a forked process; :func:`run_job`, the service's entry
point, is a chain of one.  The contract is deliberately plain-data-in,
plain-data-out: each payload is a JSON-able dict (graph and
partitioning in their :mod:`repro.io_json` forms, options as a field
dict, the point's share of the chain's deadline in ms), and each
returned record is a JSON-able dict too — status, metrics, stats,
diagnostics, and the worker's :mod:`repro.perf` counter delta, ready
to be merged by the parent and appended verbatim to the on-disk
result cache.

Workers never raise: every failure mode is folded into the record's
``status`` (``error`` / ``budget_exhausted`` / ``invalid``) so one
pathological point cannot take down the sweep.

Within a chain, each point's warm hand-off (``result.warm_basis``: its
pin checker's tableau basis and its finished schedule's trajectory) is
passed to the next point in-process, so a later point warm-starts its
solver or, when every pin verdict provably carries over, adopts the
schedule outright.  The graph and timing are parsed once, so later
points reuse the graph and the compiled design and signature memoized
on it, and the timing that schedule reuse compares by identity (DESIGN
§12, §13).
"""

from __future__ import annotations

import time
import traceback
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.check.report import CheckError
from repro.core.flow import SynthesisOptions, synthesize
from repro.core.oracle_store import OracleStore, get_active
from repro.errors import ReproError
from repro.io_json import (_stats_to_dict, graph_from_dict,
                           partitioning_from_dict)
from repro.modules.library import (ar_filter_timing,
                                   elliptic_filter_timing)
from repro.obs import TRACER, extract_payload
from repro.perf import PERF
from repro.robustness.budget import (BudgetExhausted, SolveBudget,
                                     carve_deadline_ms)
from repro.robustness.deadline import Deadline

#: Named timing libraries (module libraries are code, not data, so jobs
#: reference them by name — the same convention as result archives).
TIMINGS: Dict[str, Callable[[], Any]] = {
    "ar": ar_filter_timing,
    "elliptic": elliptic_filter_timing,
}


def resolve_timing(name: str):
    try:
        return TIMINGS[name]()
    except KeyError:
        raise ReproError(
            f"unknown timing library {name!r}; "
            f"expected one of {sorted(TIMINGS)}") from None


def _resources_from_payload(data: Optional[Mapping[str, int]]):
    if data is None:
        return None
    out: Dict[tuple, int] = {}
    for key, count in data.items():
        chip, _, op_type = key.partition(":")
        out[(int(chip), op_type)] = int(count)
    return out


def result_metrics(result, wall_ms: float) -> Dict[str, float]:
    """The explorer's five minimization objectives for one result."""
    interconnect = result.interconnect
    if interconnect is None and result.simple_allocation is not None:
        interconnect = result.simple_allocation.interconnect
    return {
        "chips": len(result.partitioning.real_chips()),
        "buses": 0 if interconnect is None else len(interconnect.buses),
        "total_pins": sum(result.pins_used().values()),
        "latency": result.pipe_length,
        "wall_ms": round(wall_ms, 3),
    }


def run_job(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Synthesize one sweep point; always returns a record dict.

    A chain of one: ``run_chain([payload])[0]``.  When a process-wide
    oracle store is active (see :mod:`repro.core.oracle_store`), the
    entries this job appended are returned as ``record["oracle_delta"]``
    for the parent to merge — forked pool workers mutate only their
    copy of the store.
    """
    return run_chain([payload])[0]


def _run_point(payload: Mapping[str, Any], parsed: Dict[str, Any],
               warm: Any, deadline_ms: Optional[float]
               ) -> Tuple[Dict[str, Any], Any]:
    """One point of :func:`run_chain`: its record and its warm
    hand-off (``None`` if it exported none).  ``parsed`` carries the
    last point's parsed ``(graph, timing)`` and source; ``warm`` is the
    hand-off the simple flow starts from; ``deadline_ms`` is the
    point's slice of the chain's clock."""
    basis = None
    record = _record(payload)
    start = time.perf_counter()
    store = get_active()
    mark = store.mark() if store is not None else 0
    # Re-activate the submitter's trace context (rides in the payload
    # across the fork/thread boundary) so this job's spans parent
    # under it; the delta ships back in the record for the merge.
    # The perf scope counts exactly this solve's work, even beside
    # other solves on a thread pool.
    span_mark = TRACER.mark()
    with PERF.scope() as solve_perf, \
            TRACER.attach(extract_payload(payload)), \
            TRACER.span("job.solve", layer="worker",
                        index=record["index"]) as job_span:
        try:
            source = (payload["design"]["graph"],
                      payload.get("timing", "ar"))
            if parsed.get("source") != source:
                parsed["inputs"] = (graph_from_dict(source[0]),
                                    resolve_timing(source[1]))
                parsed["source"] = source
            graph, timing = parsed["inputs"]
            partitioning = partitioning_from_dict(
                payload["design"]["partitioning"])
            options = SynthesisOptions.from_dict(payload["options"])
            resources = _resources_from_payload(payload.get("resources"))
            budget = (None if deadline_ms is None
                      else SolveBudget(deadline_ms=deadline_ms))
            kwargs = options.to_dict()
            flow = kwargs.pop("flow")
            try:
                result = synthesize(
                    graph, partitioning, timing, int(payload["rate"]),
                    flow=flow, budget=budget, resources=resources,
                    pin_warm_basis=warm, **kwargs)
                report = result.check
                record["status"] = "degraded" if result.degraded \
                    else "ok"
            except CheckError as exc:
                # The flow's own design-rule check failed: the record
                # is non-cacheable, so a bad result is never served.
                result, report = exc.result, exc.report
                record["status"] = "invalid"
                record["error"] = ("design-rule check failed: "
                                   + "; ".join(report.messages()[:5]))
            wall_ms = (time.perf_counter() - start) * 1000.0
            record["metrics"] = result_metrics(result, wall_ms)
            record["stats"] = _jsonable(_stats_to_dict(result.stats))
            record["diagnostics"] = result.diagnostics.to_dict()
            basis = result.warm_basis
            if payload.get("check") or record["status"] == "invalid":
                record["check"] = report.to_dict()
        except BudgetExhausted as exc:
            record["status"] = "budget_exhausted"
            record["error"] = str(exc)
            record["progress"] = exc.progress()
        except ReproError as exc:
            record["status"] = "error"
            record["error"] = str(exc)
        except Exception as exc:  # pragma: no cover - defensive
            record["status"] = "error"
            record["error"] = (f"{type(exc).__name__}: {exc}\n"
                               + traceback.format_exc(limit=5))
        job_span.set(status=record.get("status", "error"),
                     key=record["key"][:12])
    record.setdefault(
        "wall_ms", round((time.perf_counter() - start) * 1000.0, 3))
    record["perf"] = solve_perf.delta_since({})
    spans = TRACER.spans_since(span_mark)
    if spans:
        record["spans"] = spans
    if store is not None:
        record["oracle_delta"] = store.delta_since(mark)
    return record, basis


def merge_worker_record(record: Dict[str, Any], forked: bool,
                        store: Optional[OracleStore]) -> None:
    """Pop a record's ``spans`` and ``oracle_delta`` and, for a record
    from a forked worker, merge them and its ``perf`` into this process
    (``PERF``, ``TRACER``, ``store``).  A thread-pool or inline worker
    already recorded into this process's globals, so merging its record
    would count everything twice."""
    spans = record.pop("spans", None)
    oracle_delta = record.pop("oracle_delta", None)
    if forked:
        PERF.merge(record.get("perf") or {})
        if store is not None:
            store.merge(oracle_delta)
        TRACER.merge(spans)


def run_chain(payloads: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Run neighboring sweep points back-to-back in this process.

    In warm mode the executor groups points that differ only in their
    pin budgets into a chain (ordered by *descending* ``pin_scale``, so
    every step is a tightening, the only kind of step whose inherited
    tableau basis the pin checker accepts) and dispatches the whole
    chain to one worker, so each point inherits its predecessor's warm
    hand-off (tableau basis and schedule trajectory) without any
    serialization and the (inherited) oracle store stays hot; a cold
    point is a chain of one.  The hand-off
    never leaves this function.  The graph and timing
    are parsed again only when a point's graph dict or timing name
    differs from its predecessor's.

    The chain runs on one clock, the sum of its points' ``deadline_ms``
    shares, and carves each point's slice from what is left of it; once
    the clock has run out, the points left are ``deadline_skipped``.
    The first point always runs, so a chain of one keeps its deadline.
    """
    shares = [payload.get("deadline_ms") for payload in payloads]
    clock = Deadline(None if None in shares else sum(shares))
    records: List[Dict[str, Any]] = []
    warm = None
    parsed: Dict[str, Any] = {}
    for left, payload in zip(range(len(payloads), 0, -1), payloads):
        if records and clock.expired():
            records.append(_record(payload, status="deadline_skipped",
                                   wall_ms=0.0))
            continue
        record, basis = _run_point(
            payload, parsed, warm,
            carve_deadline_ms(clock.remaining_ms(), left))
        if basis is not None:
            warm = basis
        records.append(record)
    return records


def _record(payload: Mapping[str, Any], **fields: Any) -> Dict[str, Any]:
    """A point's record: its identity from ``payload``, then ``fields``."""
    return {"index": payload.get("index", -1), "key": payload.get("key", ""),
            "params": dict(payload.get("params", {})), "cached": False,
            **fields}


def _jsonable(data: Dict[str, Any]) -> Dict[str, Any]:
    """Drop stats values that are not plain JSON data (e.g. verbatim
    solver objects some flows stash for debugging)."""
    out: Dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [v for v in value
                        if isinstance(v, (str, int, float, bool))]
        elif isinstance(value, dict):
            out[key] = {str(k): v for k, v in value.items()
                        if isinstance(v, (str, int, float, bool,
                                          dict, list))}
    return out
