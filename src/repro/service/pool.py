"""Persistent warm worker pool for the synthesis service.

One pool outlives every request, which is the whole point of serving:
fork-mode workers inherit the parent's already-imported solver stack
(no per-request interpreter or import cost), and :meth:`warmup`
pre-forks every worker *before* the server accepts traffic so no fork
happens while other threads hold locks (the classic fork-vs-threads
hazard) and the first real request pays no pool spin-up.

``mode="thread"`` runs the same job function on an in-process thread
pool — what the test suite uses (runners are injectable closures
there) and the fallback for platforms without ``fork``.  Jobs are the
explorer's plain-data payloads executed by
:func:`repro.explore.worker.run_job`, a chain of one through the same
:func:`repro.explore.worker.run_chain` the explorer dispatches, so the
service, the explorer, and the process boundary all share one job
contract.  The pool itself stays the service's own: unlike the
explorer's per-sweep pool it outlives every request, is warmed before
the socket opens, and has a thread mode.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ReproError
from repro.explore.worker import run_job


def _warm_probe() -> int:
    """No-op task that forces a worker to exist (and pre-imports the
    solver stack in spawn-mode children; fork children are born warm)."""
    import repro.core.flow  # noqa: F401
    return os.getpid()


class WorkerPool:
    """A warm executor with an async job interface."""

    def __init__(self, workers: int = 2, mode: str = "process",
                 job_runner: Optional[Callable[[Mapping[str, Any]],
                                               Dict[str, Any]]] = None
                 ) -> None:
        self.workers = max(1, int(workers))
        self.mode = mode
        self.run_job = job_runner if job_runner is not None else run_job
        #: Readiness signal: True once :meth:`warmup` has pre-spawned
        #: every worker.  ``/healthz`` reports 503 until then.
        self.warmed = False
        if mode == "process":
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-worker")
        else:
            raise ReproError(
                f"unknown pool mode {mode!r}; expected "
                f"'process' or 'thread'")

    # ------------------------------------------------------------------
    def warmup(self, timeout_s: float = 30.0) -> None:
        """Pre-spawn every worker before traffic arrives."""
        futures = [self._executor.submit(_warm_probe)
                   for _ in range(self.workers)]
        wait(futures, timeout=timeout_s)
        self.warmed = True

    async def run(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one job on the pool without blocking the loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.run_job, payload)

    def shutdown(self, wait_for_jobs: bool = True) -> None:
        self._executor.shutdown(wait=wait_for_jobs)
