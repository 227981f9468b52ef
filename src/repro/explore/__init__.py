"""Parallel design-space exploration: spec -> jobs -> pool -> cache ->
Pareto frontier.

The dissertation's experiment tables are themselves sweeps — the same
design synthesized across pin budgets, port models, flows, initiation
rates, and sub-bus configurations.  This package makes that the
first-class workload:

* :class:`SweepSpec` / :class:`DesignSpace` — declarative grid +
  explicit-point axes, expanded deterministically into
  content-addressed :class:`SweepJob`\\ s (:mod:`repro.explore.spec`);
* :class:`Executor` — one dispatch loop that runs every point as a
  chain (a cold point is a chain of one) inline or over a process
  worker pool, with per-job deadline carving, dominated points skipped
  at dispatch, and cross-process perf merging
  (:mod:`repro.explore.executor`);
* :class:`ResultCache` — persistent JSON-lines cache keyed by the
  canonical content hash of (graph, partitioning, rate, options), so
  re-runs and overlapping sweeps skip solved points
  (:mod:`repro.explore.cache`);
* :func:`pareto_front` — non-dominated extraction over (chips, buses,
  total pins, latency, wall time) (:mod:`repro.explore.pareto`);
* :func:`build_report` / :func:`explore` — the machine-readable report
  the ``repro explore`` CLI emits, validated against
  ``docs/schema/explore_report.schema.json``
  (:mod:`repro.explore.report`).
"""

from repro.explore.cache import ResultCache
from repro.explore.executor import ExploreResult, Executor
from repro.explore.keys import job_key, options_fingerprint
from repro.explore.pareto import (OBJECTIVES, dominates, front_summary,
                                  pareto_front)
from repro.explore.report import (REPORT_SCHEMA, build_report, explore,
                                  write_report)
from repro.explore.spec import (DesignSpace, SweepError, SweepJob,
                                SweepSpec, auto_partition_axis)

__all__ = [
    "DesignSpace",
    "SweepSpec",
    "SweepJob",
    "SweepError",
    "auto_partition_axis",
    "Executor",
    "ExploreResult",
    "ResultCache",
    "OBJECTIVES",
    "dominates",
    "pareto_front",
    "front_summary",
    "job_key",
    "options_fingerprint",
    "build_report",
    "write_report",
    "explore",
    "REPORT_SCHEMA",
]
