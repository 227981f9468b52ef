"""Fan-out execution of sweep jobs over a process worker pool.

The :class:`Executor` turns a list of :class:`repro.explore.spec.SweepJob`
into one record per point, using four cooperating mechanisms:

* **result cache** — points whose content hash is already in the
  :class:`repro.explore.cache.ResultCache` are served without running;
* **worker pool** — remaining jobs fan out over a
  ``ProcessPoolExecutor`` (``workers=1`` runs inline, no pool tax);
* **deadline carving** — a global ``deadline_ms`` is divided into
  per-job :class:`repro.robustness.budget.SolveBudget` slices via
  :func:`repro.robustness.budget.carve_deadline_ms`, so the sweep as a
  whole lands near the deadline while each job degrades gracefully
  rather than being killed mid-solve;
* **dominance pruning** — after every completion the running Pareto
  front is compared against the *optimistic* (lower-bound) metrics of
  still-queued jobs; a queued job that provably cannot extend the
  front is cancelled cooperatively (recorded as ``pruned``).

Worker :mod:`repro.perf` counter deltas are merged back into both the
parent's global ``PERF`` registry and a per-sweep registry, so solver
effort is attributable exactly as in single-process runs.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (CancelledError, ProcessPoolExecutor,
                                as_completed)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.oracle_store import OracleStore, activate
from repro.core.pin_allocation import port_pattern
from repro.explore.cache import ResultCache
from repro.explore.keys import graph_digest
from repro.explore.pareto import (COMPLETED_STATUSES, OBJECTIVES,
                                  PRUNE_OBJECTIVES, dominates,
                                  sweep_summary)
from repro.explore.spec import SweepJob
from repro.explore.worker import merge_worker_record, run_chain, run_job
from repro.obs import TRACER, inject_payload
from repro.perf import PerfRegistry
from repro.robustness.budget import carve_deadline_ms
from repro.robustness.deadline import Deadline

#: Sweep-point parameters that perturb only the pin budgets: jobs that
#: agree on every *other* parameter are warm-start neighbors.
NEIGHBOR_AXES = ("pin_scale", "pin_budgets")


@dataclass
class ExploreResult:
    """Everything one sweep run produced, in job-index order."""

    points: List[Dict[str, Any]]
    workers: int
    wall_ms: float
    perf: PerfRegistry
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    objectives: Sequence[str] = OBJECTIVES

    # ------------------------------------------------------------------
    def pareto_indices(self) -> List[int]:
        """``index`` values of the non-dominated completed points."""
        return sweep_summary(self.points, self.objectives)["pareto"]

    def status_counts(self) -> Dict[str, int]:
        return sweep_summary(self.points,
                             self.objectives)["status_counts"]

    @property
    def all_ok(self) -> bool:
        return all(p.get("status") == "ok" for p in self.points)


class Executor:
    """Runs sweep jobs: cache, fan out, carve deadlines, prune."""

    def __init__(self,
                 workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 deadline_ms: Optional[float] = None,
                 prune_dominated: bool = True,
                 min_job_ms: float = 25.0,
                 warm: bool = False,
                 oracle_store: Optional[OracleStore] = None) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else ResultCache(None)
        self.deadline_ms = deadline_ms
        self.prune_dominated = prune_dominated
        self.min_job_ms = min_job_ms
        #: Warm mode: group pin-budget neighbors into chains that run
        #: back-to-back on one worker, each point reusing its
        #: predecessor's tableau basis and the shared oracle store.
        self.warm = bool(warm)
        self.oracle_store = oracle_store

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[SweepJob]) -> ExploreResult:
        with TRACER.span("explore.sweep", layer="explore",
                         jobs=len(jobs), workers=self.workers) as sp:
            result = self._run(jobs, deadline=Deadline(self.deadline_ms))
            sp.set(cache_hits=result.cache_stats.get("hits", 0))
            return result

    def _run(self, jobs: Sequence[SweepJob],
             deadline: Deadline) -> ExploreResult:
        start = time.perf_counter()
        sweep_perf = PerfRegistry()
        records: Dict[int, Dict[str, Any]] = {}
        front: List[Dict[str, float]] = []

        pending: List[SweepJob] = []
        for job in jobs:
            cached = self.cache.get(job.key)
            if cached is not None:
                cached["index"] = job.index
                cached["params"] = dict(job.params)
                cached["cached"] = True
                records[job.index] = cached
                if cached.get("status") in COMPLETED_STATUSES:
                    front.append(cached["metrics"])
                sweep_perf.merge(cached.get("perf") or {})
            else:
                pending.append(job)

        # Activate the shared store *before* the pool forks, so worker
        # processes inherit it and can answer oracle queries locally.
        previous_store = (activate(self.oracle_store)
                          if self.oracle_store is not None else None)
        try:
            if pending:
                if self.warm:
                    chains = self._chains(pending)
                    if self.workers == 1:
                        self._run_chains_inline(chains, deadline,
                                                records, front,
                                                sweep_perf)
                    else:
                        self._run_chains_pool(chains, deadline,
                                              records, front,
                                              sweep_perf)
                elif self.workers == 1:
                    self._run_inline(pending, deadline, records, front,
                                     sweep_perf)
                else:
                    self._run_pool(pending, deadline, records, front,
                                   sweep_perf)
        finally:
            if self.oracle_store is not None:
                activate(previous_store)

        wall_ms = (time.perf_counter() - start) * 1000.0
        points = [records[job.index] for job in jobs]
        return ExploreResult(points=points, workers=self.workers,
                             wall_ms=wall_ms, perf=sweep_perf,
                             cache_stats=self.cache.stats())

    # ------------------------------------------------------------------
    def _chains(self, pending: List[SweepJob]) -> List[List[SweepJob]]:
        """Group pending jobs into warm-start chains.

        Chain key = the design — its graph's :func:`graph_digest`
        (memoized on the graph: one hash per graph object, whatever the
        rate or port model) and its chips' :func:`port_pattern`
        (ar-general and ar-general-bidir share one graph) — plus every
        sweep parameter except the pin-budget axes (another design,
        rate or flow alters the ILP's *structure*, so those points
        cannot share a basis).  Within a chain, points run in
        *descending* ``pin_scale`` order: every successor is then a
        tightening of its predecessor (component-wise smaller RHS), so
        the inherited cut set stays valid outright and warm verdicts —
        including "infeasible" — are sound without confirmation solves.
        Infeasible verdicts proved at the larger budget also answer
        smaller-budget oracle queries by dominance.
        """
        groups: Dict[tuple, List[SweepJob]] = {}
        for job in pending:
            key = (graph_digest(job.graph), port_pattern(job.partitioning),
                   *sorted((k, repr(v)) for k, v in job.params.items()
                           if k not in NEIGHBOR_AXES))
            groups.setdefault(key, []).append(job)

        def scale_of(job: SweepJob):
            value = job.params.get("pin_scale")
            return (0, -float(value)) if isinstance(value, (int, float)) \
                else (1, float(job.index))

        return [sorted(chain, key=scale_of)
                for chain in groups.values()]

    # ------------------------------------------------------------------
    def _prunable(self, job: SweepJob,
                  front: List[Dict[str, float]]) -> bool:
        if not self.prune_dominated or not job.optimistic:
            return False
        return any(dominates(done, job.optimistic, PRUNE_OBJECTIVES)
                   for done in front)

    def _absorb(self, record: Dict[str, Any], job: SweepJob,
                records: Dict[int, Dict[str, Any]],
                front: List[Dict[str, float]],
                sweep_perf: PerfRegistry,
                forked: bool) -> None:
        records[job.index] = record
        record.pop("warm_basis", None)
        sweep_perf.merge(record.get("perf") or {})
        merge_worker_record(record, forked, self.oracle_store)
        if record.get("status") in COMPLETED_STATUSES:
            front.append(record["metrics"])
            self.cache.put(job.key, record)

    @staticmethod
    def _skipped(job: SweepJob, status: str) -> Dict[str, Any]:
        return {"index": job.index, "key": job.key,
                "params": dict(job.params), "status": status,
                "cached": False, "wall_ms": 0.0}

    # ------------------------------------------------------------------
    def _run_inline(self, pending: List[SweepJob], deadline: Deadline,
                    records: Dict[int, Dict[str, Any]],
                    front: List[Dict[str, float]],
                    sweep_perf: PerfRegistry) -> None:
        for position, job in enumerate(pending):
            if deadline.expired():
                records[job.index] = self._skipped(
                    job, "deadline_skipped")
                continue
            if self._prunable(job, front):
                records[job.index] = self._skipped(job, "pruned")
                continue
            slice_ms = carve_deadline_ms(
                deadline.remaining_ms(), len(pending) - position,
                workers=1, floor_ms=self.min_job_ms)
            record = run_job(inject_payload(
                job.payload(deadline_ms=slice_ms)))
            self._absorb(record, job, records, front, sweep_perf,
                         forked=False)

    def _run_pool(self, pending: List[SweepJob], deadline: Deadline,
                  records: Dict[int, Dict[str, Any]],
                  front: List[Dict[str, float]],
                  sweep_perf: PerfRegistry) -> None:
        slice_ms = carve_deadline_ms(
            deadline.remaining_ms(), len(pending),
            workers=self.workers, floor_ms=self.min_job_ms)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        skip_reason: Dict[int, str] = {}
        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=context) as pool:
            futures = {
                pool.submit(run_job, inject_payload(
                    job.payload(deadline_ms=slice_ms))):
                job
                for job in pending
            }
            for future in as_completed(futures):
                job = futures[future]
                try:
                    record = future.result()
                except CancelledError:
                    records[job.index] = self._skipped(
                        job, skip_reason.get(job.index, "pruned"))
                    continue
                except Exception as exc:  # pool infrastructure failure
                    records[job.index] = {
                        "index": job.index, "key": job.key,
                        "params": dict(job.params), "status": "error",
                        "cached": False, "wall_ms": 0.0,
                        "error": f"worker failed: {exc}"}
                    continue
                self._absorb(record, job, records, front, sweep_perf,
                             forked=True)
                # Cooperative cancellation of queued work that can no
                # longer matter: everything once the global deadline is
                # gone, dominated points always.
                expired = deadline.expired()
                for other, other_job in futures.items():
                    if other.done() or other_job.index in skip_reason:
                        continue
                    if expired:
                        reason = "deadline_skipped"
                    elif self._prunable(other_job, front):
                        reason = "pruned"
                    else:
                        continue
                    if other.cancel():
                        skip_reason[other_job.index] = reason

    # ------------------------------------------------------------------
    def _run_chains_inline(self, chains: List[List[SweepJob]],
                           deadline: Deadline,
                           records: Dict[int, Dict[str, Any]],
                           front: List[Dict[str, float]],
                           sweep_perf: PerfRegistry) -> None:
        remaining = sum(len(chain) for chain in chains)
        for chain in chains:
            warm = None
            for job in chain:
                if deadline.expired():
                    records[job.index] = self._skipped(
                        job, "deadline_skipped")
                    remaining -= 1
                    continue
                if self._prunable(job, front):
                    records[job.index] = self._skipped(job, "pruned")
                    remaining -= 1
                    continue
                slice_ms = carve_deadline_ms(
                    deadline.remaining_ms(), remaining,
                    workers=1, floor_ms=self.min_job_ms)
                payload = inject_payload(
                    job.payload(deadline_ms=slice_ms))
                payload["export_warm"] = True
                if warm is not None:
                    payload["warm_basis"] = warm
                record = run_job(payload)
                basis = record.pop("warm_basis", None)
                if basis is not None:
                    warm = basis
                self._absorb(record, job, records, front, sweep_perf,
                             forked=False)
                remaining -= 1

    def _run_chains_pool(self, chains: List[List[SweepJob]],
                         deadline: Deadline,
                         records: Dict[int, Dict[str, Any]],
                         front: List[Dict[str, float]],
                         sweep_perf: PerfRegistry) -> None:
        total = sum(len(chain) for chain in chains)
        slice_ms = carve_deadline_ms(
            deadline.remaining_ms(), total,
            workers=self.workers, floor_ms=self.min_job_ms)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=context) as pool:
            futures = {}
            for chain in chains:
                payloads = [inject_payload(
                    job.payload(deadline_ms=slice_ms))
                    for job in chain]
                futures[pool.submit(run_chain, payloads)] = chain
            for future in as_completed(futures):
                chain = futures[future]
                try:
                    chain_records = future.result()
                except CancelledError:
                    for job in chain:
                        records[job.index] = self._skipped(
                            job, "deadline_skipped")
                    continue
                except Exception as exc:  # pool infrastructure failure
                    for job in chain:
                        records[job.index] = {
                            "index": job.index, "key": job.key,
                            "params": dict(job.params),
                            "status": "error", "cached": False,
                            "wall_ms": 0.0,
                            "error": f"worker failed: {exc}"}
                    continue
                for job, record in zip(chain, chain_records):
                    self._absorb(record, job, records, front,
                                 sweep_perf, forked=True)
                # Chains are the cancellation granularity in warm mode:
                # once the deadline is gone, unstarted chains are cut.
                if deadline.expired():
                    for other, other_chain in futures.items():
                        other.cancel()
