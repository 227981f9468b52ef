"""Fan-out execution of sweep jobs over a process worker pool.

The :class:`Executor` turns a list of :class:`repro.explore.spec.SweepJob`
into one record per point, in one dispatch loop:

* **result cache** — points whose content hash is already in the
  :class:`repro.explore.cache.ResultCache` are served without running;
* **one solve per key** — of the points that share a content hash
  (say, a scheduler axis that spells one backend two ways) only the
  first runs, and the others get its record under their own
  ``index`` and ``params``;
* **chains** — the rest run as chains through
  :func:`repro.explore.worker.run_chain`: pin-budget neighbours in warm
  mode, one point each otherwise;
* **one pool** — a fork ``ProcessPoolExecutor`` with one chain queued
  ahead of its ``workers``, or for ``workers=1`` this process, one
  chain at a time (no pool tax);
* **one skip rule, at dispatch** — points the running Pareto front
  already dominates (by their *optimistic*, lower-bound metrics) are
  ``pruned``, and every point is ``deadline_skipped`` once the global
  ``deadline_ms`` has passed;
* **one clock per chain** — a dispatched chain gets its points' share
  of the time left (:func:`repro.robustness.budget.carve_deadline_ms`)
  and carves each point's slice from it, so each job degrades
  gracefully rather than being killed mid-solve, and the points left
  when it runs out are ``deadline_skipped``.

Worker :mod:`repro.perf` counter deltas are merged back into both the
parent's global ``PERF`` registry and a per-sweep registry, so solver
effort is attributable exactly as in single-process runs.
"""

from __future__ import annotations

import concurrent.futures
import copy
import multiprocessing
import time
from collections import deque
from concurrent.futures import (BrokenExecutor, Future,
                                ProcessPoolExecutor, as_completed)
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
from repro.explore.worker import merge_worker_record, run_chain
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


class _InlinePool(concurrent.futures.Executor):
    """The one-worker pool: :meth:`submit` runs the call on the spot,
    in this process, and returns its finished future."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class Executor:
    """Runs sweep jobs: cache, chain, dispatch, skip."""

    def __init__(self,
                 workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 deadline_ms: Optional[float] = None,
                 prune_dominated: bool = True,
                 warm: bool = False,
                 oracle_store: Optional[OracleStore] = None) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else ResultCache(None)
        self.deadline_ms = deadline_ms
        self.prune_dominated = prune_dominated
        #: Warm mode: group pin-budget neighbors into chains that run
        #: back-to-back on one worker, each point reusing its
        #: predecessor's tableau basis and the shared oracle store.
        self.warm = bool(warm)
        self.oracle_store = oracle_store

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[SweepJob]) -> ExploreResult:
        with TRACER.span("explore.sweep", layer="explore",
                         jobs=len(jobs), workers=self.workers) as sp:
            start = time.perf_counter()
            deadline = Deadline(self.deadline_ms)
            sweep_perf = PerfRegistry()
            records: Dict[int, Dict[str, Any]] = {}
            front: List[Dict[str, float]] = []
            pending: List[SweepJob] = []
            #: Content key -> the index of the one pending job that
            #: runs it; later jobs of the key copy its record.
            runner: Dict[str, int] = {}
            for job in jobs:
                cached = self.cache.get(job.key)
                if cached is None:
                    if job.key not in runner:
                        runner[job.key] = job.index
                        pending.append(job)
                    continue
                cached["index"] = job.index
                cached["params"] = dict(job.params)
                cached["cached"] = True
                records[job.index] = cached
                if cached.get("status") in COMPLETED_STATUSES:
                    front.append(cached["metrics"])
                sweep_perf.merge(cached.get("perf") or {})

            # Activate the shared store *before* the pool forks, so
            # worker processes inherit it and answer oracle queries
            # locally.
            previous_store = (activate(self.oracle_store)
                              if self.oracle_store is not None else None)
            try:
                if pending:
                    self._dispatch(self._chains(pending) if self.warm
                                   else [[job] for job in pending],
                                   deadline, records, front, sweep_perf)
            finally:
                if self.oracle_store is not None:
                    activate(previous_store)
            for job in jobs:
                if job.index not in records:
                    records[job.index] = dict(
                        copy.deepcopy(records[runner[job.key]]),
                        index=job.index, params=dict(job.params))
            wall_ms = (time.perf_counter() - start) * 1000.0
            stats = self.cache.stats()
            sp.set(cache_hits=stats.get("hits", 0))
            return ExploreResult(
                points=[records[job.index] for job in jobs],
                workers=self.workers, wall_ms=wall_ms, perf=sweep_perf,
                cache_stats=stats)

    # ------------------------------------------------------------------
    def _pool(self) -> concurrent.futures.Executor:
        if self.workers == 1:
            return _InlinePool()
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=context)

    def _dispatch(self, chains: List[List[SweepJob]], deadline: Deadline,
                  records: Dict[int, Dict[str, Any]],
                  front: List[Dict[str, float]],
                  sweep_perf: PerfRegistry) -> None:
        """Run ``chains`` in order.  The skip rule and the carving of
        each chain's clock run as the chain is dispatched."""
        queue = deque(chains)
        running: Dict[Future, List[SweepJob]] = {}
        # One chain queued ahead of the process pool's workers, so a
        # worker that finishes need not wait on this process.
        in_flight = self.workers + 1 if self.workers > 1 else 1
        with self._pool() as pool:
            while queue or running:
                while queue and len(running) < in_flight:
                    chain = self._admit(queue.popleft(), deadline,
                                        records, front)
                    if not chain:
                        continue
                    # Every point not yet finished shares the time left;
                    # the chain's clock is its points' shares, within it.
                    remaining = deadline.remaining_ms()
                    share = carve_deadline_ms(
                        remaining,
                        sum(map(len, [chain, *queue, *running.values()])),
                        workers=self.workers)
                    if share is not None:
                        share = min(share * len(chain), remaining) \
                            / len(chain)
                    payloads = [inject_payload(
                        job.payload(deadline_ms=share)) for job in chain]
                    try:
                        future = pool.submit(run_chain, payloads)
                    except BrokenExecutor as exc:  # a worker died
                        future = Future()
                        future.set_exception(exc)
                    running[future] = chain
                if not running:
                    break
                future = next(as_completed(running))
                chain = running.pop(future)
                try:
                    chain_records = future.result()
                except Exception as exc:  # pool infrastructure failure
                    for job in chain:
                        records[job.index] = self._unrun(
                            job, "error", error=f"worker failed: {exc}")
                    continue
                for job, record in zip(chain, chain_records):
                    self._absorb(record, job, records, front, sweep_perf,
                                 forked=self.workers > 1)

    def _admit(self, chain: List[SweepJob], deadline: Deadline,
               records: Dict[int, Dict[str, Any]],
               front: List[Dict[str, float]]) -> List[SweepJob]:
        """The skip rule: record the points of ``chain`` that will not
        run, and return the rest in their chain order."""
        expired = deadline.expired()
        for job in chain:
            if expired or self._prunable(job, front):
                records[job.index] = self._unrun(
                    job, "deadline_skipped" if expired else "pruned")
        return [job for job in chain if job.index not in records]

    @staticmethod
    def _unrun(job: SweepJob, status: str, **extra: Any) -> Dict[str, Any]:
        return {"index": job.index, "key": job.key,
                "params": dict(job.params), "status": status,
                "cached": False, "wall_ms": 0.0, **extra}

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
        sweep_perf.merge(record.get("perf") or {})
        merge_worker_record(record, forked, self.oracle_store)
        if record.get("status") in COMPLETED_STATUSES:
            front.append(record["metrics"])
            self.cache.put(job.key, record)

