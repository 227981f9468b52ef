"""The explorer's process-pool worker: one sweep point per call.

:func:`run_job` is the single importable entry point a
``ProcessPoolExecutor`` dispatches to.  Its contract is deliberately
plain-data-in, plain-data-out: the payload is a JSON-able dict (graph
and partitioning in their :mod:`repro.io_json` forms, options as a
field dict, a carved per-job deadline in ms), and the returned record
is a JSON-able dict too — status, metrics, stats, diagnostics, and the
worker's :mod:`repro.perf` counter delta, ready to be merged by the
parent and appended verbatim to the on-disk result cache.

Workers never raise: every failure mode is folded into the record's
``status`` (``error`` / ``budget_exhausted`` / ``invalid``) so one
pathological point cannot take down the sweep.

:func:`run_chain` runs a warm chain through the same per-point body but
parses its graph and timing once, so later points reuse the graph and
the compiled design and signature memoized on it (DESIGN §12, §13).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.check.report import CheckError
from repro.core.flow import SynthesisOptions, synthesize
from repro.core.oracle_store import get_active
from repro.errors import ReproError
from repro.io_json import (_stats_to_dict, graph_from_dict,
                           partitioning_from_dict)
from repro.modules.library import (ar_filter_timing,
                                   elliptic_filter_timing)
from repro.obs import HUB, TRACER, extract_payload
from repro.perf import PERF
from repro.robustness.budget import BudgetExhausted, SolveBudget

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

    Warm-start extensions to the payload contract (all optional):

    * ``warm_basis`` — a :class:`repro.ilp.WarmBasis` (or its dict
      form) from a structurally-identical neighbor; handed to
      :func:`synthesize` as ``pin_warm_basis``;
    * ``export_warm`` — when truthy, the result's exported basis rides
      along as ``record["warm_basis"]`` (an in-process object — callers
      that archive records must drop it; :meth:`ResultCache.put` does).

    When a process-wide oracle store is active (see
    :mod:`repro.core.oracle_store`), the entries this job appended are
    returned as ``record["oracle_delta"]`` for the parent to merge —
    forked pool workers mutate only their copy of the store.
    """
    return _run_point(payload, {})


def _run_point(payload: Mapping[str, Any],
               parsed: Dict[str, Any]) -> Dict[str, Any]:
    """The body of :func:`run_job` and :func:`run_chain`; ``parsed``
    carries the last point's parsed ``(graph, timing)`` and source."""
    record: Dict[str, Any] = {
        "index": payload.get("index", -1),
        "key": payload.get("key", ""),
        "params": dict(payload.get("params", {})),
        "cached": False,
    }
    start = time.perf_counter()
    before = PERF.snapshot()
    hub_before = HUB.snapshot()
    store = get_active()
    mark = store.mark() if store is not None else 0
    # Re-activate the submitter's trace context (rides in the payload
    # across the fork/thread boundary) so this job's spans parent
    # under it; the delta ships back in the record for the merge.
    span_mark = TRACER.mark()
    with TRACER.attach(extract_payload(payload)), \
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
            deadline_ms = payload.get("deadline_ms")
            budget = (None if deadline_ms is None
                      else SolveBudget(deadline_ms=deadline_ms))
            kwargs = options.to_dict()
            flow = kwargs.pop("flow")
            try:
                result = synthesize(
                    graph, partitioning, timing, int(payload["rate"]),
                    flow=flow, budget=budget, resources=resources,
                    pin_warm_basis=payload.get("warm_basis"), **kwargs)
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
            if payload.get("export_warm") \
                    and result.warm_basis is not None:
                record["warm_basis"] = result.warm_basis
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
    HUB.observe("worker.solve_ms", record["wall_ms"])
    record["perf"] = PERF.delta_since(before)
    hub_delta = HUB.delta_since(hub_before)
    if hub_delta:
        record["hub"] = hub_delta
    spans = TRACER.spans_since(span_mark)
    if spans:
        record["spans"] = spans
    if store is not None:
        record["oracle_delta"] = store.delta_since(mark)
    return record


def run_chain(payloads: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Run neighboring sweep points back-to-back in this process.

    The executor groups points that differ only in their pin budgets
    into a chain (ordered by *descending* ``pin_scale``, so every step
    is a tightening and the inherited cuts stay sound) and dispatches
    the whole chain to one worker, so each point inherits its
    predecessor's :class:`WarmBasis` without any serialization and the
    (inherited) oracle store stays hot.  The exported basis is threaded
    internally and stripped from the returned records.  The graph and
    timing are parsed again only when a point's graph dict or timing
    name differs from its predecessor's.
    """
    records: List[Dict[str, Any]] = []
    warm = None
    parsed: Dict[str, Any] = {}
    for payload in payloads:
        job = dict(payload)
        job["export_warm"] = True
        if warm is not None and "warm_basis" not in job:
            job["warm_basis"] = warm
        record = _run_point(job, parsed)
        basis = record.pop("warm_basis", None)
        if basis is not None:
            warm = basis
        records.append(record)
    return records


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
