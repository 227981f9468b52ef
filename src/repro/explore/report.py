"""Machine-readable explore reports (schema: ``repro-explore-report/1``).

:func:`build_report` folds an :class:`repro.explore.executor.ExploreResult`
into one JSON-able document: the sweep spec, every point record, the
Pareto front, status/cache/throughput summaries, and the merged solver
perf counters.  The document validates against
``docs/schema/explore_report.schema.json`` (CI enforces this via
``tools/validate_synth_json.py``, which accepts any schema path).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.explore.executor import ExploreResult
from repro.explore.pareto import (COMPLETED_STATUSES, OBJECTIVES,
                                  front_summary, sweep_summary)
from repro.explore.spec import SweepSpec
from repro.io_json import SCHEMA_VERSION

REPORT_SCHEMA = "repro-explore-report/1"

#: Keys every point record carries into the report.
_POINT_KEYS = ("index", "key", "params", "status", "cached", "wall_ms",
               "metrics", "stats", "diagnostics", "error", "progress")


def _clean_point(record: Dict[str, Any]) -> Dict[str, Any]:
    out = {key: record[key] for key in _POINT_KEYS if key in record}
    out.setdefault("cached", False)
    if "wall_ms" not in out and "metrics" in out:
        out["wall_ms"] = out["metrics"].get("wall_ms", 0.0)
    out.setdefault("wall_ms", 0.0)
    return out


def build_report(design: str, spec: SweepSpec,
                 result: ExploreResult) -> Dict[str, Any]:
    """The full sweep report document."""
    points = [_clean_point(p) for p in result.points]
    completed = [p for p in points
                 if p.get("status") in COMPLETED_STATUSES]
    summary = sweep_summary(result.points, result.objectives)
    resolved = len(completed)
    seconds = result.wall_ms / 1000.0
    return {
        "schema": REPORT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "design": design,
        "workers": result.workers,
        "spec": spec.to_dict(),
        "objectives": list(OBJECTIVES),
        "points": points,
        "pareto": summary["pareto"],
        "pareto_summary": front_summary(
            [p["metrics"] for p in completed]),
        "status_counts": summary["status_counts"],
        "cache": result.cache_stats,
        "perf": result.perf.snapshot(),
        "wall_ms": round(result.wall_ms, 3),
        "points_per_sec": (round(resolved / seconds, 3)
                           if seconds > 0 else 0.0),
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def explore(design: str, spec: SweepSpec, design_space,
            workers: int = 1,
            cache_path: Optional[str] = None,
            deadline_ms: Optional[float] = None,
            prune_dominated: bool = True) -> Dict[str, Any]:
    """One-call convenience: expand, execute, report."""
    from repro.explore.cache import ResultCache
    from repro.explore.executor import Executor

    jobs = spec.expand(design_space)
    executor = Executor(workers=workers,
                        cache=ResultCache(cache_path),
                        deadline_ms=deadline_ms,
                        prune_dominated=prune_dominated)
    result = executor.run(jobs)
    return build_report(design, spec, result)
