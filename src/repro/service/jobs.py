"""Service configuration, the job model, and the bounded job store.

A :class:`Job` is one admitted unit of work.  ``kind="synthesize"``
jobs wrap a single content-addressed solve (the same payload shape the
explorer ships to pool workers); ``kind="sweep"`` jobs aggregate a set
of child synthesize jobs and complete when the last child does.
Coalescing happens at the job layer: the service keeps one Job per
in-flight content hash, and every identical request — standalone or a
sweep point — attaches to it instead of solving again.

Jobs are created and completed on the event-loop thread, so their
state transitions need no locking; cross-thread readers only ever see
a consistent (status, record) pair because ``finish()`` assigns the
record before setting the done event.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import asyncio

from repro.explore.worker import run_job


@dataclass(frozen=True)
class ShardIdentity:
    """This server's seat on the cluster's consistent-hash ring.

    Set by ``repro serve --shard-name/--shard-index/--shard-count``
    (the cluster supervisor passes all three).  A shard is *ready*
    only when its seat is coherent — the ring can only have assigned
    it a key range if its index actually falls inside the fleet —
    which is what ``/healthz`` readiness checks in shard mode.
    """

    name: str
    index: int
    count: int

    def valid(self) -> bool:
        return bool(self.name) and 0 <= self.index < self.count

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "index": self.index,
                "count": self.count}


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen knobs for one server instance.

    ``pool_mode`` selects how solves run: ``"process"`` (default) forks
    a warm worker pool for true parallelism; ``"thread"`` keeps workers
    in-process (tests, and platforms without fork).  ``job_runner`` is
    the function the pool executes per job — injectable so tests can
    substitute gated or canned runners without patching modules; in
    process mode it must be picklable (module-level).
    """

    host: str = "127.0.0.1"
    port: int = 8764
    workers: int = 2
    max_queue: int = 64
    cache_path: Optional[str] = None
    cache_sync: bool = True
    #: JSONL path for the shared pin-oracle store (None = in-memory).
    #: The store is activated process-wide before the pool forks, so
    #: workers inherit it warm and ship their deltas back.
    oracle_path: Optional[str] = None
    default_timeout_ms: float = 30000.0
    pool_mode: str = "process"
    job_runner: Callable[[Dict[str, Any]], Dict[str, Any]] = run_job
    max_body_bytes: int = 8 << 20
    retained_jobs: int = 1024
    #: Cluster seat (None = standalone).  ``cache_path`` may name the
    #: cluster's shared cache server as ``remote://host:port``.
    shard: Optional[ShardIdentity] = None


_JOB_IDS = itertools.count(1)


@dataclass
class Job:
    """One admitted unit of work and its completion event."""

    key: str
    params: Dict[str, Any]
    payload: Dict[str, Any] = field(default_factory=dict)
    kind: str = "synthesize"
    id: str = field(default_factory=lambda: f"j{next(_JOB_IDS):08d}")
    status: str = "queued"          # queued -> running -> <terminal>
    record: Optional[Dict[str, Any]] = None
    cached: bool = False
    coalesced: int = 0              # followers that attached to this job
    children: List["Job"] = field(default_factory=list)
    _done: asyncio.Event = field(default_factory=asyncio.Event,
                                 repr=False)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def finish(self, record: Dict[str, Any]) -> None:
        self.record = record
        self.status = record.get("status", "error")
        self._done.set()

    async def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Await completion; False if ``timeout_s`` elapsed first."""
        if timeout_s is None:
            await self._done.wait()
            return True
        try:
            await asyncio.wait_for(self._done.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return False


class JobStore:
    """Bounded id -> Job map; evicts oldest *finished* jobs first."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = max(1, int(capacity))
        self._jobs: Dict[str, Job] = {}

    def add(self, job: Job) -> None:
        self._jobs[job.id] = job
        if len(self._jobs) > self.capacity:
            for jid in [j.id for j in self._jobs.values() if j.done]:
                if len(self._jobs) <= self.capacity:
                    break
                del self._jobs[jid]

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)
