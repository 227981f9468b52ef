"""The synthesis service: admission -> coalesce -> pool -> cache.

:class:`SynthesisService` owns every piece of serving state — the warm
:class:`~repro.service.pool.WorkerPool`, the shared persistent
:class:`~repro.explore.cache.ResultCache`, the in-flight coalescing
map, the bounded job store, and the metrics — and implements the
request lifecycle:

1. **cache** — a request whose content hash is already cached is
   answered without queueing (``cache_hits``);
2. **coalesce** — identical to an in-flight job, it attaches to that
   job's completion event instead of solving again (``coalesced``);
3. **admission** — otherwise it must pass load shedding: queue depth
   below ``max_queue`` *and* projected queue wait (depth x EMA job
   time / workers) within the request deadline, else 429 with a
   ``Retry-After`` hint (``shed``);
4. **execute** — admitted jobs run on the pool under a worker-count
   semaphore; the per-request deadline rides into the worker as a
   :class:`repro.robustness.budget.SolveBudget`, so overloaded solves
   degrade gracefully instead of being killed;
5. **complete** — the record lands in the cache (making later
   identical requests free), its perf delta is merged, and every
   waiter — coalesced followers included — is released at once.

All state transitions happen on the event-loop thread; the pool is the
only concurrency boundary and crosses it with plain-data records.
"""

from __future__ import annotations

import asyncio
import math
import time
import uuid
from typing import (Any, Awaitable, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.oracle_store import OracleStore, activate
from repro.errors import ReproError
from repro.explore.cache import open_result_cache
from repro.explore.pareto import sweep_summary
from repro.explore.spec import SweepJob, SweepSpec
from repro.explore.worker import merge_worker_record
from repro.io_json import SCHEMA_VERSION
from repro.obs import TRACER, extract_headers, inject_payload
from repro.obs.prometheus import render_service_metrics
from repro.perf import PerfRegistry
from repro.robustness.budget import carve_deadline_ms
from repro.service import catalog
from repro.service.jobs import Job, JobStore, ServiceConfig
from repro.service.pool import WorkerPool

#: Version tag stamped on every job response object.
RESPONSE_SCHEMA = "repro-service-response/1"

#: Monotonic counters the service increments; ``/metrics`` reports all
#: of them even when still zero, so dashboards never see missing keys.
COUNTER_NAMES = (
    "accepted",            # requests admitted (incl. coalesced + cached)
    "coalesced",           # joined an identical in-flight job
    "cache_hits",          # served from the persistent result cache
    "shed",                # rejected with 429 by admission control
    "executed",            # jobs actually dispatched to the worker pool
    "completed",           # executed jobs that reached a terminal state
    "degraded",            # completed with budget fallbacks fired
    "errors",              # completed with status error
    "invalid",             # completed but failed the design-rule check
    "budget_exhausted",    # completed with the budget fully spent
)


class ShedRequest(ReproError):
    """Admission control rejected the request (HTTP 429)."""

    def __init__(self, reason: str, retry_after_s: int) -> None:
        super().__init__(reason)
        self.retry_after_s = max(1, int(retry_after_s))


class SynthesisService:
    """Long-running serving state shared by every connection."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # This tier's own counters, latency histograms and gauges; the
        # workers' merged solver counts stay apart, in ``perf``.
        self.metrics = PerfRegistry(counters=COUNTER_NAMES)
        self.metrics.gauge("service.ema_job_ms", 0.0)
        self.perf = PerfRegistry()
        # A path opens the local JSONL cache; a remote://host:port
        # spec mounts the cluster's shared cache server read-through.
        self.cache = open_result_cache(config.cache_path,
                                       sync=config.cache_sync)
        # Activate the shared pin-oracle store BEFORE the pool exists:
        # forked workers inherit the active store (warm, read-only from
        # the file's point of view) and ship back only their deltas.
        self.oracle = OracleStore(config.oracle_path)
        self._previous_oracle = activate(self.oracle)
        self.pool = WorkerPool(workers=config.workers,
                               mode=config.pool_mode,
                               job_runner=config.job_runner)
        self.store = JobStore(config.retained_jobs)
        self.inflight: Dict[str, Job] = {}
        self.queue_depth = 0
        self.draining = False
        self._slots = asyncio.Semaphore(self.pool.workers)
        self._tasks: set = set()

    # -- readiness -----------------------------------------------------
    @property
    def ready(self) -> bool:
        """Readiness (distinct from liveness): the pool is warm and, in
        shard mode, this server's ring seat is coherent.  ``/healthz``
        answers 503 until this is True, so load balancers and the
        cluster supervisor never route to a shard that would queue
        behind its own fork storm or sit outside the key space."""
        if self.draining or not self.pool.warmed:
            return False
        shard = self.config.shard
        return shard is None or shard.valid()

    # -- admission -----------------------------------------------------
    def projected_wait_ms(self, new_jobs: int = 1) -> float:
        """Expected queue wait for a request arriving now."""
        ema = self.metrics.gauge_value("service.ema_job_ms")
        depth = self.queue_depth + max(0, new_jobs - 1)
        return depth * ema / self.pool.workers

    def check_admission(self, deadline_ms: Optional[float],
                        new_jobs: int = 1) -> None:
        """Raise :class:`ShedRequest` unless the work can be admitted."""
        ema_s = max(0.001,
                    self.metrics.gauge_value("service.ema_job_ms") / 1000.0)
        if self.queue_depth + new_jobs > self.config.max_queue:
            self.metrics.inc("shed")
            raise ShedRequest(
                f"queue full ({self.queue_depth}/"
                f"{self.config.max_queue})",
                retry_after_s=math.ceil(ema_s))
        projected = self.projected_wait_ms(new_jobs)
        if deadline_ms is not None and projected > deadline_ms:
            self.metrics.inc("shed")
            raise ShedRequest(
                f"projected queue wait {projected:.0f}ms exceeds "
                f"deadline {deadline_ms:.0f}ms",
                retry_after_s=math.ceil(projected / 1000.0))

    # -- submission ----------------------------------------------------
    def submit_point(self, point: SweepJob,
                     deadline_ms: Optional[float],
                     slice_ms: Optional[float] = None,
                     preadmitted: bool = False) -> Tuple[Job, str]:
        """Admit one content-addressed solve; returns (job, how) where
        ``how`` is ``cached`` / ``coalesced`` / ``new``."""
        existing = self.inflight.get(point.key)
        if existing is not None:
            existing.coalesced += 1
            self.metrics.inc("accepted")
            self.metrics.inc("coalesced")
            return existing, "coalesced"
        cached = self.cache.get(point.key)
        if cached is not None:
            job = Job(key=point.key, params=dict(point.params),
                      cached=True)
            job.finish(cached)
            self.store.add(job)
            self.metrics.inc("accepted")
            self.metrics.inc("cache_hits")
            return job, "cached"
        if not preadmitted:
            self.check_admission(deadline_ms)
        budget_ms = slice_ms if slice_ms is not None else deadline_ms
        payload = inject_payload(point.payload(deadline_ms=budget_ms))
        # Served results are design-rule-checked in the worker; a
        # violating result comes back ``invalid`` (non-cacheable), so
        # the cache and coalesced followers only ever see clean ones.
        payload["check"] = True
        job = Job(key=point.key, params=dict(point.params),
                  payload=payload)
        self.inflight[point.key] = job
        self.store.add(job)
        self.queue_depth += 1
        self.metrics.inc("accepted")
        self.metrics.inc("executed")
        self._spawn(self._execute(job))
        return job, "new"

    def submit_sweep(self, spec: SweepSpec, points: Sequence[SweepJob],
                     design_name: str,
                     deadline_ms: Optional[float]) -> Job:
        """Admit a whole sweep atomically (all points or a 429)."""
        fresh = {p.key for p in points
                 if p.key not in self.inflight and p.key not in self.cache}
        self.check_admission(deadline_ms, new_jobs=len(fresh))
        slice_ms = carve_deadline_ms(deadline_ms, max(1, len(fresh)),
                                     workers=self.pool.workers)
        sweep = Job(key="", kind="sweep",
                    params={"design": design_name,
                            "spec": spec.to_dict()})
        # No awaits between point submissions, so the upfront capacity
        # check still holds for every per-point admission below.
        sweep.children = [
            self.submit_point(p, deadline_ms, slice_ms=slice_ms,
                              preadmitted=True)[0]
            for p in points]
        self.store.add(sweep)
        self._spawn(self._finish_sweep(sweep))
        return sweep

    # -- execution -----------------------------------------------------
    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute(self, job: Job) -> None:
        start = time.perf_counter()
        try:
            async with self._slots:
                job.status = "running"
                # This task inherited the submitting request's trace
                # context at _spawn time, so the execute span parents
                # under the request span (and under it, the worker's
                # job.solve span after the delta merge below).
                with TRACER.span("service.execute", layer="service",
                                 job_id=job.id) as sp:
                    record = await self.pool.run(job.payload)
                    if isinstance(record, dict):
                        sp.set(status=record.get("status", "error"))
            if not isinstance(record, dict):
                record = {"status": "error",
                          "error": "job runner returned "
                                   f"{type(record).__name__}"}
        except Exception as exc:  # pool infrastructure failure
            record = {"status": "error",
                      "error": f"worker pool failure: {exc}"}
        wall_ms = (time.perf_counter() - start) * 1000.0
        record.setdefault("wall_ms", round(wall_ms, 3))
        self.perf.merge(record.get("perf") or {})
        # A forked worker's pin-oracle entries also warm the next
        # request (on any worker after a respawn, or answered inline).
        merge_worker_record(record, self.pool.mode == "process",
                            self.oracle)
        self.cache.put(job.key, record)
        self.metrics.observe("worker.solve_ms", record["wall_ms"])
        self.metrics.observe("service.job_wall_ms", wall_ms)
        self.metrics.ema("service.ema_job_ms", wall_ms)
        self.queue_depth -= 1
        self.inflight.pop(job.key, None)
        self.metrics.inc("completed")
        status = record.get("status")
        if status == "degraded":
            self.metrics.inc("degraded")
        elif status == "error":
            self.metrics.inc("errors")
        elif status == "invalid":
            self.metrics.inc("invalid")
        elif status == "budget_exhausted":
            self.metrics.inc("budget_exhausted")
        job.finish(record)

    async def _finish_sweep(self, sweep: Job) -> None:
        for child in sweep.children:
            await child.wait()
        points: List[Dict[str, Any]] = []
        for index, child in enumerate(sweep.children):
            record = child.record or {}
            point = {"index": index, "key": child.key,
                     "params": child.params, "status": child.status,
                     "cached": child.cached, "job_id": child.id,
                     "wall_ms": record.get("wall_ms", 0.0)}
            for name in ("metrics", "error"):
                if name in record:
                    point[name] = record[name]
            points.append(point)
        sweep.finish({
            **sweep_summary(points),
            "points": points,
            "wall_ms": round(sum(p["wall_ms"] for p in points), 3),
        })

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Warm the pool; the listener runs this before it opens the
        socket, so every fork happens while the process is quiet."""
        self.pool.warmup()

    async def handle(self, method: str, path: str,
                     body: Optional[Dict[str, Any]],
                     headers: Optional[Dict[str, str]] = None,
                     query: str = "") -> Handled:
        """Route one parsed request; returns (status, payload, headers).

        ``headers`` are the lowercase request headers (used for trace
        propagation and /metrics content negotiation); ``query`` is the
        raw query string.
        """
        if path == "/healthz":
            if method != "GET":
                return _error(405, "method not allowed")
            # Liveness is the TCP answer itself; the status code carries
            # readiness, so one endpoint serves both probes.
            if self.ready:
                return 200, health_payload(self), {}
            return 503, health_payload(self), {"Retry-After": "1"}
        if path == "/metrics":
            if method != "GET":
                return _error(405, "method not allowed")
            payload = metrics_payload(self)
            if wants_prometheus(headers, query):
                return 200, render_service_metrics(payload), {}
            return 200, payload, {}
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return _error(405, "method not allowed")
            job = self.store.get(path[len("/v1/jobs/"):])
            if job is None:
                return _error(404, "no such job")
            return 200, job_response(job), {}
        if path in ("/v1/synthesize", "/v1/sweep"):
            if method != "POST":
                return _error(405, "method not allowed")
            return await traced_submit(
                "service", path, headers,
                lambda sp: self._handle_submit(path, body, sp))
        return _error(404, f"no such endpoint {path!r}")

    async def _handle_submit(self, path: str,
                             body: Optional[Dict[str, Any]],
                             sp: Any) -> Handled:
        """The /v1/synthesize | /v1/sweep body, inside the request
        span."""
        if self.draining:
            return _error(503, "service is draining", retry_after_s=1)
        if body is None:
            return _error(400, "request body must be a JSON object")
        try:
            deadline_ms = _deadline_ms(body,
                                       self.config.default_timeout_ms)
            wait = bool(body.get("wait", True))
            if path == "/v1/synthesize":
                _space, point = catalog.synthesize_job(body)
                job, how = self.submit_point(point, deadline_ms)
                sp.set(how=how, design=body.get("design"))
            else:
                space, spec, points = catalog.sweep_jobs(body)
                job = self.submit_sweep(spec, points, space.name,
                                        deadline_ms)
                sp.set(design=space.name, points=len(points))
            sp.set(job_id=job.id)
        except ShedRequest as exc:
            sp.set(shed=True)
            return _error(429, str(exc), retry_after_s=exc.retry_after_s)
        except (ReproError, ValueError, TypeError) as exc:
            return _error(400, str(exc))
        return await _respond_job(job, wait, deadline_ms)

    async def drain(self) -> None:
        """Stop admitting, finish every in-flight job, stop the pool."""
        self.draining = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self.pool.shutdown()
        activate(self._previous_oracle)


# ---------------------------------------------------------------------
# Response building
# ---------------------------------------------------------------------
def job_response(job: Job) -> Dict[str, Any]:
    """The schema-governed JSON object for a job's current state."""
    out: Dict[str, Any] = {
        "schema": RESPONSE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "job_id": job.id,
        "kind": job.kind,
        "status": job.status,
        "cached": job.cached,
        "coalesced": job.coalesced,
        "params": job.params,
    }
    if job.key:
        out["key"] = job.key
    if not job.done:
        out["location"] = f"/v1/jobs/{job.id}"
        return out
    record = job.record or {}
    for name in ("metrics", "stats", "diagnostics", "check", "wall_ms",
                 "error", "progress", "points", "pareto",
                 "status_counts"):
        if name in record:
            out[name] = record[name]
    return out


def health_payload(service: SynthesisService) -> Dict[str, Any]:
    if service.draining:
        status = "draining"
    elif service.ready:
        status = "ok"
    else:
        status = "warming"
    out = {
        "schema": "repro-service-health/1",
        "status": status,
        "ready": service.ready,
        "live": True,
        "queue_depth": service.queue_depth,
        "workers": service.pool.workers,
        "jobs": len(service.store),
    }
    if service.config.shard is not None:
        out["shard"] = service.config.shard.to_dict()
    return out


def metrics_payload(service: SynthesisService) -> Dict[str, Any]:
    metrics = service.metrics
    counters = metrics.snapshot()["counters"]
    accepted = counters["accepted"]
    # Scrape-time gauges; the Prometheus text renders them from "obs".
    metrics.gauges({
        "service.queue_depth": service.queue_depth,
        "service.inflight": len(service.inflight),
        "service.cache_hit_ratio": (
            counters["cache_hits"] / accepted if accepted else 0.0),
    })
    out = {
        "schema": "repro-service-metrics/1",
        "service": {
            "counters": counters,
            "latency": metrics.latency("service.job_wall_ms"),
            "ema_job_ms": round(
                metrics.gauge_value("service.ema_job_ms"), 3),
            "queue_depth": service.queue_depth,
            "inflight": len(service.inflight),
            "draining": service.draining,
            "jobs_retained": len(service.store),
        },
        "workers": {"count": service.pool.workers,
                    "mode": service.pool.mode},
        "cache": service.cache.stats(),
        "oracle": service.oracle.stats(),
        # The workers' merged solver counters/timings.
        "perf": service.perf.snapshot(),
        "obs": metrics.obs_snapshot(),
        "tracer": TRACER.stats(),
    }
    if service.config.shard is not None:
        out["shard"] = service.config.shard.to_dict()
    return out


# ---------------------------------------------------------------------
# Request handlers (HTTP status, payload, extra headers).  The payload
# is normally the JSON document; a ``str`` payload is a pre-rendered
# text body (Prometheus exposition) the server sends as text/plain.
# ---------------------------------------------------------------------
Handled = Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]


def wants_prometheus(headers: Optional[Dict[str, str]],
                     query: str = "") -> bool:
    """Content negotiation for ``/metrics``: explicit
    ``?format=prometheus`` / ``?format=json`` wins, else the Accept
    header decides (JSON stays the default)."""
    query = query or ""
    if "format=prometheus" in query:
        return True
    if "format=json" in query:
        return False
    accept = (headers or {}).get("accept", "")
    return "text/plain" in accept or "openmetrics" in accept


def _error(status: int, message: str, **extra: Any) -> Handled:
    """An error answer; ``retry_after_s`` also sets ``Retry-After``."""
    payload: Dict[str, Any] = {"schema": "repro-service-error/1",
                               "error": message}
    payload.update(extra)
    headers = ({"Retry-After": str(extra["retry_after_s"])}
               if "retry_after_s" in extra else {})
    return status, payload, headers


def _deadline_ms(body: Dict[str, Any],
                 default_ms: Optional[float]) -> Optional[float]:
    raw = body.get("timeout_ms", default_ms)
    if raw is None:
        return None
    deadline = float(raw)
    if deadline <= 0:
        raise ReproError(f"timeout_ms must be positive, got {raw!r}")
    return deadline


async def traced_submit(layer: str, path: str,
                        headers: Optional[Dict[str, str]],
                        submit: Callable[[Any], Awaitable[Handled]]
                        ) -> Handled:
    """Run ``submit(span)`` inside the ``<layer>.request`` span.

    Every submission gets a request id; sampled requests also carry
    their trace id back, so client-side failures are correlatable with
    server logs and trace exports.  The caller's trace context (if
    any) is adopted, so a front hop, the shard's admission and the
    worker's solve land on one connected trace.
    """
    request_id = uuid.uuid4().hex[:12]
    with TRACER.attach(extract_headers(headers)), \
            TRACER.span(f"{layer}.request", layer=layer,
                        endpoint=path) as sp:
        sp.set(request_id=request_id)
        status, payload, extra = await submit(sp)
    extra = dict(extra)
    extra["X-Repro-Request-Id"] = request_id
    if sp.sampled:
        extra["X-Repro-Trace-Id"] = sp.trace_id
    return status, payload, extra


def _wait_limit_s(deadline_ms: Optional[float]) -> Optional[float]:
    """How long a waiting caller is held before it gets a 202 to poll.

    The job's own budget bounds the solve; double it (plus slack) to
    cover queue wait.  No deadline means no limit.
    """
    if deadline_ms is None:
        return None
    return (2.0 * deadline_ms + 2000.0) / 1000.0


async def _respond_job(job: Job, wait: bool,
                       deadline_ms: Optional[float]) -> Handled:
    """200 with the finished job, or 202 once the wait limit passes
    (or at once when the caller did not ask to wait)."""
    if wait and not job.done:
        await job.wait(_wait_limit_s(deadline_ms))
    status = 200 if job.done else 202
    return status, job_response(job), {}
