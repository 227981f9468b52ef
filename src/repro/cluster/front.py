"""The cluster front tier: a ring-routed proxy.

One front process owns the fleet's request routing:

* **ring routing** — every ``/v1/synthesize`` request and every sweep
  point is materialized through :mod:`repro.service.catalog` into a
  content-addressed :class:`~repro.explore.spec.SweepJob`, and its key
  is routed to the owner shard on the :class:`HashRing`.  A synthesize
  request peeks at the shared cache, then goes straight to its owner
  as its own request.  Each shard's in-process coalescing therefore
  composes to *fleet-wide* exactly-once solving: two identical
  requests always land on the same shard, which runs the solve once.
* **failover** — a dead or draining owner is marked down and the key
  re-routed on the reduced ring (only the down shard's keys move).
  Re-sending after a connection drop is safe because jobs are
  idempotent by content key: the retry coalesces or hits cache on
  whichever shard owns the key now.  429s are *not* failed over — the
  owner shed deliberately — but are relayed with the ``Retry-After``
  header plus a ``redirect`` hint naming the owner, which
  :class:`repro.service.ServiceClient` retries honor.
* **observability** — ``/metrics`` aggregates per-shard counters with
  the front's own, and ``/cluster/ring`` reports ring shares and
  shard health.

Shard-proxied job ids are rewritten to ``<shard>.<job id>`` so
``GET /v1/jobs/<id>`` on the front can route polls back to the shard
that owns the job.

:class:`FrontTier` is a tier of the listener the service uses
(:mod:`repro.service.server`); :class:`ThreadedFrontTier` runs it
in a daemon thread.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.explore.pareto import sweep_summary
from repro.explore.spec import SweepJob
from repro.io_json import SCHEMA_VERSION
from repro.obs import TRACER
from repro.obs.prometheus import render_cluster_metrics
from repro.perf import PerfRegistry
from repro.service import catalog
from repro.service.app import (Handled, _deadline_ms, _error,
                               _respond_job, _wait_limit_s,
                               job_response, traced_submit,
                               wants_prometheus)
from repro.service.jobs import Job, JobStore
from repro.service.server import ThreadedListener
from repro.cluster.cache_client import ReadThroughCache
from repro.cluster.http import request_json
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing

#: Front-tier counters (shard counters are aggregated separately).
FRONT_COUNTERS = (
    "requests",          # /v1/* requests received
    "proxied",           # forwarded to a shard (non-error answer)
    "front_cache_hits",  # answered from the shared cache at tier 0
    "failovers",         # re-routes after a dead/draining owner
    "shard_errors",      # shard connections that failed outright
    "shed_relayed",      # shard 429s relayed to the caller
    "errors",            # front-level 5xx answers
)


class ShardDown(ReproError):
    """A shard connection failed; the caller should fail over."""


@dataclass(frozen=True)
class ShardAddress:
    name: str
    host: str
    port: int


@dataclass(frozen=True)
class ClusterConfig:
    """Frozen knobs for one front-tier instance."""

    shards: Tuple[ShardAddress, ...]
    host: str = "127.0.0.1"
    port: int = 8770
    replicas: int = DEFAULT_REPLICAS
    #: ``host:port`` of the shared cache server; None disables the
    #: front's own read-through tier (shards still share the cache).
    cache_address: Optional[str] = None
    default_timeout_ms: float = 30000.0
    proxy_timeout_s: float = 300.0
    probe_interval_s: float = 2.0
    max_body_bytes: int = 8 << 20
    retained_jobs: int = 1024


class ShardState:
    """Mutable health the front tracks per shard."""

    def __init__(self, address: ShardAddress) -> None:
        self.address = address
        self.healthy: Optional[bool] = None   # None = never probed
        self.draining = False
        self.last_error: Optional[str] = None

    @property
    def up(self) -> bool:
        return bool(self.healthy) and not self.draining

    def snapshot(self) -> Dict[str, Any]:
        return {"host": self.address.host, "port": self.address.port,
                "healthy": bool(self.healthy),
                "draining": self.draining,
                "last_error": self.last_error}


# ---------------------------------------------------------------------
class FrontTier:
    """Routing and aggregation state for one cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        if not config.shards:
            raise ReproError("cluster needs at least one shard")
        self.config = config
        self.metrics = PerfRegistry(counters=FRONT_COUNTERS)
        self.metrics.gauge("front.ema_job_ms", 0.0)
        self.shards: Dict[str, ShardState] = {
            a.name: ShardState(a) for a in config.shards}
        if len(self.shards) != len(config.shards):
            raise ReproError("duplicate shard names in cluster config")
        self.ring = HashRing([a.name for a in config.shards],
                             replicas=config.replicas)
        self.cache = (ReadThroughCache(config.cache_address)
                      if config.cache_address else None)
        self.store = JobStore(config.retained_jobs)
        self.draining = False
        self._ring_cache: Dict[frozenset, HashRing] = {}
        self._tasks: set = set()
        self._prober: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await self.probe_all()
        self._prober = asyncio.get_running_loop().create_task(
            self._probe_loop())

    async def drain(self) -> None:
        """Stop admitting, finish in-flight work."""
        self.draining = True
        if self._prober is not None:
            self._prober.cancel()
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        if self.cache is not None:
            self.cache.client.close()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- health probing ------------------------------------------------
    async def probe(self, state: ShardState) -> bool:
        try:
            status, payload, _ = await request_json(
                state.address.host, state.address.port, "GET",
                "/healthz", timeout_s=5.0)
        except (OSError, asyncio.TimeoutError) as exc:
            state.healthy = False
            state.last_error = str(exc)
            return False
        state.draining = payload.get("status") == "draining"
        state.healthy = status == 200 and not state.draining
        state.last_error = None if state.healthy else payload.get(
            "status", f"HTTP {status}")
        return state.up

    async def probe_all(self) -> None:
        await asyncio.gather(*(self.probe(s)
                               for s in self.shards.values()))

    async def _probe_loop(self) -> None:
        # Background reinstatement: a shard marked down by a failed
        # request comes back automatically once it answers /healthz
        # again (rolling restarts need no front-tier restart).
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            await self.probe_all()

    # -- ring routing --------------------------------------------------
    def live_ring(self) -> HashRing:
        down = frozenset(name for name, s in self.shards.items()
                         if s.healthy is False or s.draining)
        if not down:
            return self.ring
        cached = self._ring_cache.get(down)
        if cached is None:
            if len(down) >= len(self.shards):
                raise ReproError("every shard is down or draining")
            cached = self.ring.without(*down)
            self._ring_cache[down] = cached
        return cached

    # -- shard RPC -----------------------------------------------------
    async def call_shard(self, state: ShardState, method: str,
                         path: str, body: Optional[Dict[str, Any]],
                         timeout_s: Optional[float] = None
                         ) -> Tuple[int, Dict[str, Any],
                                    Dict[str, str]]:
        try:
            # Trace context rides on the hop's headers, so the shard's
            # request span parents under the front's (one trace across
            # the whole cluster).
            return await request_json(
                state.address.host, state.address.port, method, path,
                body, timeout_s or self.config.proxy_timeout_s,
                headers=TRACER.current_headers())
        except (OSError, asyncio.TimeoutError) as exc:
            state.healthy = False
            state.last_error = str(exc)
            self.metrics.inc("shard_errors")
            raise ShardDown(
                f"shard {state.address.name} at {state.address.host}:"
                f"{state.address.port} unreachable: {exc}") from None

    def _proxy_timeout_s(self, deadline_ms: Optional[float]) -> float:
        limit_s = _wait_limit_s(deadline_ms)
        if limit_s is None:
            return self.config.proxy_timeout_s
        # The shard itself holds a waiting caller up to that limit;
        # give the proxy hop headroom so the shard times out first.
        return limit_s + 30.0

    def _rewrite(self, payload: Dict[str, Any],
                 shard_name: str) -> Dict[str, Any]:
        out = dict(payload)
        job_id = out.get("job_id")
        if isinstance(job_id, str) and job_id:
            out["job_id"] = f"{shard_name}.{job_id}"
            if "location" in out:
                out["location"] = f"/v1/jobs/{out['job_id']}"
        points = out.get("points")
        if isinstance(points, list):
            rewritten = []
            for point in points:
                if isinstance(point, dict) and "job_id" in point:
                    point = dict(point)
                    point["job_id"] = f"{shard_name}.{point['job_id']}"
                rewritten.append(point)
            out["points"] = rewritten
        out["shard"] = shard_name
        return out

    # -- single-point routing with failover ----------------------------
    async def route_point(self, body: Dict[str, Any], point: SweepJob,
                          deadline_ms: Optional[float]) -> Handled:
        with TRACER.span("front.route", layer="front",
                         key=point.key[:12]) as sp:
            status, payload, headers = await self._route_point(
                body, point, deadline_ms, sp)
            sp.set(status=status)
            return status, payload, headers

    async def _route_point(self, body: Dict[str, Any], point: SweepJob,
                           deadline_ms: Optional[float],
                           sp: Any) -> Handled:
        start = time.perf_counter()
        tried: set = set()
        while True:
            try:
                owner = self.live_ring().owner(point.key)
            except ReproError as exc:
                self.metrics.inc("errors")
                return _error(503, str(exc), retry_after_s=1)
            if owner in tried:
                self.metrics.inc("errors")
                return _error(503,
                              f"every candidate shard failed for key "
                              f"{point.key[:12]}...", retry_after_s=1)
            state = self.shards[owner]
            try:
                status, payload, headers = await self.call_shard(
                    state, "POST", "/v1/synthesize", body,
                    self._proxy_timeout_s(deadline_ms))
            except ShardDown:
                tried.add(owner)
                self.metrics.inc("failovers")
                continue
            if status == 503:
                # Draining shard: take it off the ring and re-route.
                state.draining = True
                tried.add(owner)
                self.metrics.inc("failovers")
                continue
            if status == 429:
                # Deliberate shed by the owner — relay, don't reroute
                # (another shard would break exactly-once ownership).
                # The redirect hint lets retrying clients go straight
                # to the owner.
                self.metrics.inc("shed_relayed")
                out = dict(payload)
                out["redirect"] = {"host": state.address.host,
                                   "port": state.address.port}
                retry_after = headers.get("retry-after")
                return status, out, (
                    {"Retry-After": retry_after} if retry_after else {})
            self.metrics.inc("proxied")
            route_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.observe("front.route_ms", route_ms)
            self.metrics.ema("front.ema_job_ms", route_ms)
            sp.set(owner=owner, failovers=len(tried))
            return status, self._rewrite(payload, owner), {}

    async def _cache_lookup(self, key: str) -> Optional[Dict[str, Any]]:
        if self.cache is None:
            return None
        # The read-through may do a blocking RPC on miss; keep it off
        # the event loop.
        return await asyncio.get_running_loop().run_in_executor(
            None, self.cache.get, key)

    # -- synthesize: cache peek, then the owner shard -----------------
    async def handle_synthesize(self, body: Dict[str, Any],
                                point: SweepJob,
                                deadline_ms: Optional[float]
                                ) -> Handled:
        record = await self._cache_lookup(point.key)
        if record is not None:
            self.metrics.inc("front_cache_hits")
            job = Job(key=point.key, params=dict(point.params),
                      cached=True)
            job.finish(record)
            self.store.add(job)
            return 200, job_response(job), {}
        return await self.route_point(body, point, deadline_ms)

    # -- split sweeps --------------------------------------------------
    async def handle_sweep(self, body: Dict[str, Any],
                           design_name: str, spec, points, wait: bool,
                           deadline_ms: Optional[float]) -> Handled:
        composite = Job(key="", kind="sweep",
                        params={"design": design_name,
                                "spec": spec.to_dict()})
        self.store.add(composite)
        self._spawn(self._run_split_sweep(composite, body, points,
                                          deadline_ms))
        return await _respond_job(composite, wait, deadline_ms)

    async def _run_split_sweep(self, composite: Job,
                               body: Dict[str, Any], points,
                               deadline_ms: Optional[float]) -> None:
        indexed = list(enumerate(points))
        groups: Dict[str, List[Tuple[int, SweepJob]]] = {}
        orphans: List[Tuple[int, SweepJob]] = []
        for index, point in indexed:
            try:
                owner = self.live_ring().owner(point.key)
            except ReproError:
                orphans.append((index, point))
                continue
            groups.setdefault(owner, []).append((index, point))
        results: Dict[int, Dict[str, Any]] = {}
        for index, point in orphans:
            results[index] = self._point_failure(
                index, point, "every shard is down or draining")
        await asyncio.gather(*(
            self._sweep_group(owner, body, group, results, deadline_ms)
            for owner, group in groups.items()))
        point_dicts = [results[i] for i, _ in indexed]
        composite.finish({
            **sweep_summary(point_dicts),
            "points": point_dicts,
            "wall_ms": round(sum(p.get("wall_ms", 0.0)
                                 for p in point_dicts), 3),
        })

    def _point_failure(self, index: int, point: SweepJob,
                       message: str) -> Dict[str, Any]:
        return {"index": index, "key": point.key,
                "params": dict(point.params), "status": "error",
                "cached": False, "wall_ms": 0.0, "error": message}

    async def _sweep_group(self, owner: str, body: Dict[str, Any],
                           group: List[Tuple[int, SweepJob]],
                           results: Dict[int, Dict[str, Any]],
                           deadline_ms: Optional[float]) -> None:
        state = self.shards[owner]
        sweep_body: Dict[str, Any] = {
            "design": body["design"], "wait": True,
            "points": [dict(p.params) for _, p in group]}
        if "timeout_ms" in body:
            sweep_body["timeout_ms"] = body["timeout_ms"]
        try:
            status, payload, _ = await self.call_shard(
                state, "POST", "/v1/sweep", sweep_body,
                self._proxy_timeout_s(deadline_ms))
            if status == 202 and payload.get("job_id"):
                status, payload = await self._wait_shard_job(
                    state, payload["job_id"], deadline_ms)
        except ShardDown:
            self.metrics.inc("failovers")
            await self._sweep_group_fallback(body, group, results,
                                             deadline_ms)
            return
        sweep_points = payload.get("points")
        if status != 200 or not isinstance(sweep_points, list):
            await self._sweep_group_fallback(body, group, results,
                                             deadline_ms)
            return
        self.metrics.inc("proxied")
        by_key = {p.get("key"): p for p in sweep_points
                  if isinstance(p, dict)}
        for index, point in group:
            got = by_key.get(point.key)
            if got is None:
                results[index] = self._point_failure(
                    index, point, "missing from shard sweep response")
                continue
            entry = dict(got)
            entry["index"] = index
            if isinstance(entry.get("job_id"), str):
                entry["job_id"] = f"{owner}.{entry['job_id']}"
            results[index] = entry

    async def _wait_shard_job(self, state: ShardState, job_id: str,
                              deadline_ms: Optional[float]
                              ) -> Tuple[int, Dict[str, Any]]:
        limit_s = _wait_limit_s(deadline_ms)
        limit = time.monotonic() + (
            self.config.proxy_timeout_s if limit_s is None else limit_s)
        while True:
            status, payload, _ = await self.call_shard(
                state, "GET", f"/v1/jobs/{job_id}", None,
                timeout_s=30.0)
            if status != 200 \
                    or payload.get("status") not in ("queued",
                                                     "running"):
                return status, payload
            if time.monotonic() >= limit:
                return status, payload
            await asyncio.sleep(0.05)

    async def _sweep_group_fallback(self, body: Dict[str, Any],
                                    group: List[Tuple[int, SweepJob]],
                                    results: Dict[int, Dict[str, Any]],
                                    deadline_ms: Optional[float]
                                    ) -> None:
        async def one(index: int, point: SweepJob) -> None:
            point_body: Dict[str, Any] = {"design": body["design"],
                                          "wait": True}
            if "timeout_ms" in body:
                point_body["timeout_ms"] = body["timeout_ms"]
            point_body.update(point.params)
            status, payload, _ = await self.route_point(
                point_body, point, deadline_ms)
            if status not in (200, 202):
                results[index] = self._point_failure(
                    index, point,
                    str(payload.get("error", f"HTTP {status}")))
                return
            entry = {"index": index, "key": point.key,
                     "params": dict(point.params),
                     "status": payload.get("status", "error"),
                     "cached": bool(payload.get("cached")),
                     "wall_ms": payload.get("wall_ms", 0.0)}
            if isinstance(payload.get("job_id"), str):
                entry["job_id"] = payload["job_id"]
            for name in ("metrics", "error"):
                if name in payload:
                    entry[name] = payload[name]
            results[index] = entry

        await asyncio.gather(*(one(i, p) for i, p in group))

    # -- observability -------------------------------------------------
    def ring_payload(self) -> Dict[str, Any]:
        out = self.ring.to_dict()
        for entry in out["shards"]:
            entry.update(self.shards[entry["name"]].snapshot())
        return {"schema": "repro-cluster-ring/1",
                "schema_version": SCHEMA_VERSION,
                "ring": out,
                "down": sorted(name for name, s in self.shards.items()
                               if not s.up)}

    async def _scrape(self, state: ShardState
                      ) -> Optional[Dict[str, Any]]:
        try:
            status, payload, _ = await self.call_shard(
                state, "GET", "/metrics", None, timeout_s=10.0)
        except ShardDown:
            return None
        return payload if status == 200 else None

    async def build_metrics(self) -> Dict[str, Any]:
        states = list(self.shards.values())
        payloads = await asyncio.gather(*(self._scrape(s)
                                          for s in states))
        totals: Dict[str, int] = {}
        queue_depth = 0
        inflight = 0
        workers = 0
        p95 = 0.0
        shards: Dict[str, Any] = {}
        healthy = 0
        for state, payload in zip(states, payloads):
            entry = state.snapshot()
            if payload is not None:
                healthy += 1
                svc = payload.get("service", {})
                counters = svc.get("counters", {})
                for name, value in counters.items():
                    if isinstance(value, int):
                        totals[name] = totals.get(name, 0) + value
                queue_depth += int(svc.get("queue_depth", 0))
                inflight += int(svc.get("inflight", 0))
                workers += int(payload.get("workers", {})
                               .get("count", 0))
                latency = svc.get("latency", {})
                p95 = max(p95, float(latency.get("p95_ms", 0.0)))
                entry.update({
                    "counters": counters,
                    "queue_depth": svc.get("queue_depth", 0),
                    "inflight": svc.get("inflight", 0),
                    "workers": payload.get("workers", {})
                                      .get("count", 0),
                    "ema_job_ms": svc.get("ema_job_ms", 0.0),
                })
            shards[state.address.name] = entry
        # Scrape-time gauges; the Prometheus text renders them from
        # "obs".
        self.metrics.gauges({
            "front.tasks_inflight": len(self._tasks),
            "cluster.queue_depth": queue_depth,
            "cluster.inflight": inflight,
            "cluster.shards_healthy": healthy,
        })
        out: Dict[str, Any] = {
            "schema": "repro-cluster-metrics/2",
            "schema_version": SCHEMA_VERSION,
            "front": {
                "counters": self.metrics.snapshot()["counters"],
                "latency": self.metrics.latency("front.route_ms"),
                "ema_job_ms": round(
                    self.metrics.gauge_value("front.ema_job_ms"), 3),
            },
            "cluster": {"counters": totals,
                        "queue_depth": queue_depth,
                        "inflight": inflight,
                        "workers": workers,
                        "latency_p95_ms": round(p95, 3),
                        "shards": len(states),
                        "shards_healthy": healthy},
            "shards": shards,
            "ring": self.ring.to_dict(),
            "obs": self.metrics.obs_snapshot(),
            "tracer": TRACER.stats(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    def health(self) -> Handled:
        ready = any(s.up for s in self.shards.values()) \
            and not self.draining
        payload = {
            "schema": "repro-cluster-health/1",
            "schema_version": SCHEMA_VERSION,
            "status": ("draining" if self.draining
                       else "ok" if ready else "starting"),
            "ready": ready,
            "live": True,
            "shards": {name: s.snapshot()
                       for name, s in self.shards.items()},
        }
        if ready:
            return 200, payload, {}
        return 503, payload, {"Retry-After": "1"}

    # -- request routing -----------------------------------------------
    async def handle(self, method: str, path: str,
                     body: Optional[Dict[str, Any]],
                     headers: Optional[Dict[str, str]] = None,
                     query: str = "") -> Handled:
        """Route one parsed request; a route that raises counts in
        ``errors`` (the listener answers it with a 500)."""
        try:
            return await self._route(method, path, body, headers, query)
        except Exception:
            self.metrics.inc("errors")
            raise

    async def _route(self, method: str, path: str,
                     body: Optional[Dict[str, Any]],
                     headers: Optional[Dict[str, str]],
                     query: str) -> Handled:
        if path == "/healthz":
            if method != "GET":
                return _error(405, "method not allowed")
            return self.health()
        if path == "/metrics":
            if method != "GET":
                return _error(405, "method not allowed")
            payload = await self.build_metrics()
            if wants_prometheus(headers, query):
                return 200, render_cluster_metrics(payload), {}
            return 200, payload, {}
        if path == "/cluster/ring":
            if method != "GET":
                return _error(405, "method not allowed")
            return 200, self.ring_payload(), {}
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return _error(405, "method not allowed")
            self.metrics.inc("requests")
            return await self._handle_job(path[len("/v1/jobs/"):])
        if path in ("/v1/synthesize", "/v1/sweep"):
            if method != "POST":
                return _error(405, "method not allowed")
            self.metrics.inc("requests")
            return await traced_submit(
                "front", path, headers,
                lambda sp: self._handle_submit(path, body, sp))
        return _error(404, f"no such endpoint {path!r}")

    async def _handle_submit(self, path: str,
                             body: Optional[Dict[str, Any]],
                             sp: Any) -> Handled:
        if self.draining:
            return _error(503, "cluster front tier is draining",
                          retry_after_s=1)
        if body is None:
            return _error(400, "request body must be a JSON object")
        try:
            deadline_ms = _deadline_ms(body,
                                       self.config.default_timeout_ms)
            if path == "/v1/synthesize":
                _space, point = catalog.synthesize_job(body)
                sp.set(design=str(body.get("design", ""))[:64],
                       key=point.key[:12])
                return await self.handle_synthesize(body, point,
                                                    deadline_ms)
            space, spec, points = catalog.sweep_jobs(body)
            sp.set(design=space.name, points=len(points))
            return await self.handle_sweep(
                body, space.name, spec, points,
                bool(body.get("wait", True)), deadline_ms)
        except (ReproError, ValueError, TypeError) as exc:
            return _error(400, str(exc))

    async def _handle_job(self, job_id: str) -> Handled:
        shard_name, sep, shard_job = job_id.partition(".")
        if sep and shard_name in self.shards:
            state = self.shards[shard_name]
            try:
                status, payload, _ = await self.call_shard(
                    state, "GET", f"/v1/jobs/{shard_job}", None,
                    timeout_s=30.0)
            except ShardDown as exc:
                return _error(503, str(exc), retry_after_s=1)
            return status, self._rewrite(payload, shard_name), {}
        job = self.store.get(job_id)
        if job is None:
            return _error(404, "no such job")
        return 200, job_response(job), {}


# ---------------------------------------------------------------------
class ThreadedFrontTier(ThreadedListener):
    """Run a front tier in a daemon thread (tests and benchmarks)."""

    def __init__(self, config: ClusterConfig) -> None:
        super().__init__(lambda: FrontTier(config), config.host,
                         config.port, "front tier")

    @property
    def front(self) -> FrontTier:
        return self.tier
