#!/usr/bin/env python
"""Solver benchmark runner — emits machine-readable ``BENCH_ilp.json``,
``BENCH_explore.json``, ``BENCH_schedulers.json``, and
``BENCH_service.json`` (service + cluster sections).

Runs the ILP-heavy synthesis flows plus a pin-allocation checker
microbenchmark, recording wall time and the :mod:`repro.perf` counter
deltas (pivots, cuts, rollbacks, cache hits) for each, then a
design-space-explorer sweep measured cold (empty result cache) and
warm (second identical run), recording points/sec and the cache hit
rate, then a synthesis-service storm (concurrent clients, repeated
design points) against a live ``repro serve`` instance, recording the
throughput gain coalescing buys over sequential ``synthesize()``
calls, then the cluster tier (shard-count scaling, rolling drain)
against in-process fleets.  The JSON lands
at the repo root by default so successive PRs accumulate a perf
trajectory that CI can archive.

Usage::

    python benchmarks/run_all.py              # full set
    python benchmarks/run_all.py --smoke      # quick subset (CI)
    python benchmarks/run_all.py --cross-check  # shadow-verified (slow)

``--cross-check`` runs every benchmark with the dense-Fraction shadow
tableau enabled (``repro.ilp.set_cross_check``): each sparse tableau
mutation is mirrored and compared cell-for-cell, so a passing run is a
machine-checked proof that the fast path computes the same tableaus as
the reference implementation.  Wall times are meaningless in that mode;
the JSON marks them as such.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.flow import (synthesize_connection_first,  # noqa: E402
                             synthesize_simple)
from repro.core.pin_allocation import PinAllocationChecker  # noqa: E402
from repro.designs import (AR_GENERAL_PINS_UNIDIR,  # noqa: E402
                           AR_SIMPLE_PINS, ar_general_design,
                           ar_simple_design)
from repro.ilp import set_cross_check  # noqa: E402
from repro.modules.library import ar_filter_timing  # noqa: E402
from repro.perf import PERF  # noqa: E402
from repro.scheduling.base import Schedule  # noqa: E402


# ---------------------------------------------------------------------
def bench_ch3_ar_simple_L2():
    result = synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                               ar_filter_timing(), 2)
    return {"pipe_length": result.pipe_length,
            "pin_checks": result.stats["pin_checks"],
            "pin_cache_hits": result.stats["pin_cache_hits"]}


def _bench_ch4_unidir(rate):
    result = synthesize_connection_first(
        ar_general_design(), AR_GENERAL_PINS_UNIDIR, ar_filter_timing(),
        rate)
    return {"pipe_length": result.pipe_length,
            "total_pins": sum(result.pins_used().values()),
            "search_steps": result.stats["search_steps"]}


def bench_ch4_ar_unidir_L3():
    return _bench_ch4_unidir(3)


def bench_ch4_ar_unidir_L4():
    return _bench_ch4_unidir(4)


def bench_ch4_ar_unidir_L5():
    return _bench_ch4_unidir(5)


def _bench_kernel(graph, pins, rate):
    from repro.core.flow import synthesize
    result = synthesize(graph, pins, ar_filter_timing(), rate)
    return {"pipe_length": result.pipe_length,
            "total_pins": sum(result.pins_used().values())}


def bench_kernel_fir_L2():
    """16-tap transposed FIR over its 4-chip tap chain (rate 2 is the
    floor: the degree-1 delay edges cannot close at rate 1)."""
    from repro.designs import FIR_PINS, fir_design
    return _bench_kernel(fir_design(), FIR_PINS, 2)


def bench_kernel_dct_L2():
    """8-point DCT (Loeffler op profile: 29 adds, 11 muls) over
    3 chips; pure feed-forward, so any rate schedules."""
    from repro.designs import DCT_PINS, dct_design
    return _bench_kernel(dct_design(), DCT_PINS, 2)


def bench_micro_pin_checker():
    """Pin-allocation checker microbench: repeated probe passes.

    Probes every (io node, step) pair against an empty schedule for
    several passes.  Pass 1 is all cache misses (cold cutting-plane
    probes); later passes replay the identical committed-bound state and
    should be near-total cache hits — the list scheduler's actual access
    pattern in miniature.
    """
    graph = ar_simple_design()
    timing = ar_filter_timing()
    L = 2
    checker = PinAllocationChecker(graph, AR_SIMPLE_PINS, L)
    schedule = Schedule(graph, timing, L)
    ios = list(graph.io_nodes())
    verdicts = 0
    for _ in range(5):
        for node in ios:
            for step in range(2 * L):
                if checker.can_schedule(node, step, schedule):
                    verdicts += 1
    return {"probes": checker.checks,
            "cache_hits": checker.cache_hits,
            "feasible_verdicts": verdicts}


def bench_obs_overhead():
    """Tracing-on vs tracing-off wall for a fixed solve workload.

    The two modes are interleaved *per solve* — pairs of identical
    ar-simple Chapter 3 solves, one traced and one not, with the order
    inside each pair alternating — and the gated number is ``ratio``
    = total-on / total-off.  Machine-wide drift (noisy neighbours,
    CPU frequency scaling) moves on timescales much longer than one
    ~40 ms solve, so adjacent paired solves see the same conditions
    and the drift cancels in the totals; coarser designs (whole legs
    per mode, even min- or median-over-legs) compare measurements
    from different moments and were observed to turn several percent
    of ambient wall noise into false breaches of the hard cap.
    Tracing on means sample rate 1.0 with no exporter — every solver
    phase becomes a recorded span — which is the worst case the
    "<5% overhead" budget promises; benchmarks/compare.py enforces a
    hard 1.05 cap on the ratio.
    """
    from repro.obs import TRACER

    pairs = 24

    def solve():
        start = time.perf_counter()
        synthesize_simple(ar_simple_design(), AR_SIMPLE_PINS,
                          ar_filter_timing(), 2)
        return time.perf_counter() - start

    def traced_solve():
        TRACER.configure(enabled=True, sample_rate=1.0,
                         export_path="")
        TRACER.reset()
        elapsed = solve()
        recorded = TRACER.stats()["recorded"]
        TRACER.configure(enabled=False)
        return elapsed, recorded

    solve()  # warm-up: fault in both code paths before timing either
    off_s = on_s = 0.0
    spans_per_solve = 0
    try:
        for index in range(pairs):
            if index % 2:  # alternate order to cancel ordering bias
                on, recorded = traced_solve()
                off = solve()
            else:
                off = solve()
                on, recorded = traced_solve()
            off_s += off
            on_s += on
            spans_per_solve = max(spans_per_solve, recorded)
    finally:
        TRACER.configure(enabled=False, sample_rate=1.0,
                         export_path="")
        TRACER.reset()
    ratio = round(on_s / off_s, 4) if off_s else 0.0
    print(f"  obs_overhead  off={off_s:.4f}s  on={on_s:.4f}s  "
          f"ratio={ratio} ({pairs} interleaved pairs)  "
          f"spans/solve={spans_per_solve}")
    return {"pairs": pairs, "off_s": round(off_s, 4),
            "on_s": round(on_s, 4),
            "spans_per_solve": spans_per_solve, "ratio": ratio}


FULL = [bench_ch3_ar_simple_L2, bench_micro_pin_checker,
        bench_ch4_ar_unidir_L3, bench_ch4_ar_unidir_L4,
        bench_ch4_ar_unidir_L5, bench_kernel_fir_L2,
        bench_kernel_dct_L2, bench_obs_overhead]
SMOKE = [bench_ch3_ar_simple_L2, bench_micro_pin_checker,
         bench_ch4_ar_unidir_L3, bench_kernel_fir_L2,
         bench_kernel_dct_L2, bench_obs_overhead]


# ---------------------------------------------------------------------
def bench_explore(smoke: bool, workers: int):
    """Explorer sweep benchmarked cold (empty cache) then warm.

    The warm run replays the identical sweep against the cache the cold
    run populated, so its hit rate is the fraction of points whose
    content hash survived the round trip — 1.0 unless a point failed
    (failures are deliberately never cached).
    """
    import tempfile

    from repro.designs import AR_GENERAL_PINS_UNIDIR, ar_general_design
    from repro.explore import (DesignSpace, Executor, ResultCache,
                               SweepSpec)

    design = DesignSpace(name="ar-general", graph=ar_general_design(),
                         partitioning=AR_GENERAL_PINS_UNIDIR,
                         timing="ar")
    axes = {"rate": [3, 4] if smoke else [3, 4, 5],
            "flow": ["connection-first", "schedule-first"],
            "pin_scale": [1.0, 0.9]}
    spec = SweepSpec(axes=axes)
    jobs = spec.expand(design)

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        for label in ("cold", "warm"):
            executor = Executor(workers=workers,
                                cache=ResultCache(path))
            result = executor.run(jobs)
            seconds = result.wall_ms / 1000.0
            stats = result.cache_stats
            runs[label] = {
                "seconds": round(seconds, 4),
                "points": len(result.points),
                "points_per_sec": round(
                    len(result.points) / seconds, 2) if seconds else 0.0,
                "statuses": result.status_counts(),
                "cache_hit_rate": stats["hit_rate"],
                "pareto_size": len(result.pareto_indices()),
            }
            print(f"  explore[{label}]  {seconds:8.3f}s  "
                  f"{runs[label]['points_per_sec']:8.1f} points/s  "
                  f"hit_rate={stats['hit_rate']}")
    return {"design": "ar-general", "workers": workers,
            "axes": spec.to_dict()["axes"], "n_points": len(jobs),
            "runs": runs}


# ---------------------------------------------------------------------
def bench_warm_neighbors(smoke: bool):
    """The warm-start tier on near-duplicate solves, cold vs warm.

    Sweeps the stacked AR design (four copies sharing one chip set, so
    the pin ILP dominates each solve) over 21 neighboring pin budgets —
    non-identical points whose content hashes all differ, so the result
    cache never helps.  The cold run solves every point from scratch;
    the warm run chains the points onto one worker in descending budget
    order with a shared pin-oracle store, so after the chain head the
    store's witness/dominance shortcuts answer whole solve trajectories
    without building a tableau.  Both runs use one worker: the metric
    is per-point work, not parallelism.

    The budget grid starts at 1.75x: below that the budgets constrain
    the schedule, each point takes a different commit trajectory, and
    the warm tier degrades toward cold (by design — warm answers must
    stay bit-identical, so divergent points re-solve).
    """
    from repro.core.oracle_store import OracleStore
    from repro.designs import ar_stacked_design, ar_stacked_pins
    from repro.explore import (DesignSpace, Executor, ResultCache,
                               SweepSpec)

    copies = 4
    design = DesignSpace(name=f"ar-stacked-{copies}",
                         graph=ar_stacked_design(copies),
                         partitioning=ar_stacked_pins(copies),
                         timing="ar")
    scales = [round(1.75 + 0.025 * i, 4) for i in range(21)]
    spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                           "pin_scale": scales})
    jobs = spec.expand(design)

    runs = {}
    for label in ("cold", "warm_neighbors"):
        warm = label != "cold"
        executor = Executor(workers=1, cache=ResultCache(),
                            warm=warm,
                            oracle_store=OracleStore() if warm else None)
        before = PERF.snapshot()
        start = time.perf_counter()
        result = executor.run(jobs)
        seconds = time.perf_counter() - start
        counters = PERF.delta_since(before)["counters"]
        runs[label] = {
            "seconds": round(seconds, 4),
            "points": len(result.points),
            "points_per_sec": round(
                len(result.points) / seconds, 2) if seconds else 0.0,
            "statuses": result.status_counts(),
            "counters": {
                "warm_accepted": counters.get("gomory.warm_accepted", 0),
                "warm_rejected": counters.get("gomory.warm_rejected", 0),
                "pin_store_hits": counters.get("pin.store_hits", 0),
                "pin_store_dominance_hits": counters.get(
                    "pin.store_dominance_hits", 0),
                "tableau_pivots": counters.get("tableau.pivots", 0),
            },
        }
        print(f"  warm_neighbors[{label}]  {seconds:8.3f}s  "
              f"{runs[label]['points_per_sec']:8.1f} points/s  "
              f"pivots={runs[label]['counters']['tableau_pivots']}")
    cold_pps = runs["cold"]["points_per_sec"]
    warm_pps = runs["warm_neighbors"]["points_per_sec"]
    speedup = round(warm_pps / cold_pps, 2) if cold_pps else 0.0
    print(f"  warm_neighbors speedup {speedup}x")
    return {"design": design.name, "workers": 1,
            "axes": spec.to_dict()["axes"], "n_points": len(jobs),
            "speedup": speedup, "runs": runs}


# ---------------------------------------------------------------------
def bench_schedulers(smoke: bool):
    """Every registered scheduler backend on two fixed workloads.

    Drives each backend through the flow it supports — ``ar-general``
    under connection-first (rate 3), ``ar-stacked-4`` under the
    Chapter 3 simple flow (rate 2, four AR copies so the pin ILP
    dominates) — and records solve throughput (points/sec over
    ``repeats`` identical solves) plus the quality metrics that
    distinguish backends: schedule latency (pipe length) and total
    pins.  Throughput is wall-based; latency and pins are
    deterministic for a fixed workload, so the regression gate holds
    backends to their QoR, not just their speed.
    """
    from repro.core.flow import synthesize
    from repro.designs import ar_stacked_design, ar_stacked_pins
    from repro.pipeline import scheduler_names

    repeats = 2 if smoke else 5
    workloads = [
        ("ar-general", ar_general_design(), AR_GENERAL_PINS_UNIDIR,
         "connection-first", 3),
        ("ar-stacked-4", ar_stacked_design(4), ar_stacked_pins(4),
         "simple", 2),
    ]
    timing = ar_filter_timing()
    out = {}
    for name, graph, pins, flow, rate in workloads:
        backends = {}
        for backend in scheduler_names(flow):
            start = time.perf_counter()
            for _ in range(repeats):
                result = synthesize(graph, pins, timing, rate,
                                    flow=flow, scheduler=backend)
            seconds = time.perf_counter() - start
            backends[backend] = {
                "seconds": round(seconds, 4),
                "points_per_sec": round(repeats / seconds, 2)
                if seconds else 0.0,
                "latency": result.pipe_length,
                "total_pins": sum(result.pins_used().values()),
            }
            print(f"  schedulers[{name}/{backend}]  {seconds:8.3f}s  "
                  f"{backends[backend]['points_per_sec']:8.1f} "
                  f"points/s  latency={result.pipe_length}")
        out[name] = {"flow": flow, "rate": rate, "repeats": repeats,
                     "backends": backends}
    return out


# ---------------------------------------------------------------------
def bench_service(smoke: bool, workers: int):
    """The serving layer vs sequential ``synthesize()`` calls.

    Fires N requests (round-robin over 5 distinct design points, so
    identical requests arrive interleaved from 16 client threads) at a
    live ``repro serve`` instance and times the storm end-to-end over
    HTTP.  Request coalescing collapses the storm to 5 solves shared
    across the warm worker pool; the baseline is the same N solves run
    sequentially in-process with no service in the way.  Server startup
    (pool fork + warmup) happens before the clock starts — the
    benchmark measures serving, not booting.
    """
    import threading

    from repro.core.flow import synthesize
    from repro.explore.worker import resolve_timing
    from repro.service import ServiceClient, ServiceConfig, \
        ThreadedServer
    from repro.service.catalog import design_space

    combos = [("ar-simple", 2, "simple"),
              ("ar-general", 3, "connection-first"),
              ("ar-general", 4, "connection-first"),
              ("ar-general", 3, "schedule-first"),
              ("ar-general", 4, "schedule-first")]
    repeats = 4 if smoke else 10
    requests = combos * repeats
    client_threads = 16

    spaces = {name: design_space(name) for name, _, _ in combos}
    start = time.perf_counter()
    for name, rate, flow in requests:
        space = spaces[name]
        synthesize(space.graph, space.partitioning,
                   resolve_timing(space.timing), rate, flow=flow)
    sequential_s = time.perf_counter() - start
    print(f"  service[sequential]  {sequential_s:8.3f}s  "
          f"{len(requests) / sequential_s:8.1f} req/s")

    config = ServiceConfig(port=0, workers=workers, max_queue=128,
                           pool_mode="process", cache_sync=False)
    statuses = {}
    lock = threading.Lock()
    with ThreadedServer(config) as server:
        client = ServiceClient(port=server.port, timeout_s=300.0)
        client.wait_until_ready()
        work = list(requests)

        def pump():
            while True:
                with lock:
                    if not work:
                        return
                    name, rate, flow = work.pop()
                response = client.synthesize(name, rate=rate,
                                             flow=flow,
                                             timeout_ms=120000)
                with lock:
                    outcome = response["status"]
                    statuses[outcome] = statuses.get(outcome, 0) + 1

        pumps = [threading.Thread(target=pump)
                 for _ in range(client_threads)]
        start = time.perf_counter()
        for thread in pumps:
            thread.start()
        for thread in pumps:
            thread.join()
        service_s = time.perf_counter() - start
        payload = client.metrics()
        metrics = payload["service"]
        oracle = payload.get("oracle", {})
        perf_counters = payload.get("perf", {}).get("counters", {})
    print(f"  service[coalesced]   {service_s:8.3f}s  "
          f"{len(requests) / service_s:8.1f} req/s  "
          f"speedup={sequential_s / service_s:.1f}x  "
          f"coalesced={metrics['counters']['coalesced']}  "
          f"shed={metrics['counters']['shed']}")

    return {
        "combos": [{"design": name, "rate": rate, "flow": flow}
                   for name, rate, flow in combos],
        "requests": len(requests),
        "distinct_jobs": len(combos),
        "client_threads": client_threads,
        "service_workers": workers,
        "sequential": {
            "seconds": round(sequential_s, 4),
            "requests_per_sec": round(len(requests) / sequential_s, 2),
        },
        "service": {
            "seconds": round(service_s, 4),
            "requests_per_sec": round(len(requests) / service_s, 2),
            "statuses": statuses,
            "latency": metrics["latency"],
        },
        "speedup": round(sequential_s / service_s, 2),
        "counters": metrics["counters"],
        "oracle_store": oracle,
        "pin_counters": {
            "pin_store_hits": perf_counters.get("pin.store_hits", 0),
            "pin_store_dominance_hits": perf_counters.get(
                "pin.store_dominance_hits", 0),
            "pin_cache_hits": perf_counters.get("pin.cache_hits", 0),
            "pin_cache_misses": perf_counters.get("pin.cache_misses", 0),
        },
    }


# ---------------------------------------------------------------------
class _SleepSolve:
    """Synthetic job runner for the cluster scaling benchmark.

    Sleeping instead of solving makes shard-count scaling measurable
    on any machine: ``time.sleep`` releases the GIL, so N shards'
    worker threads genuinely overlap even on one core, while a real
    ILP solve would serialize on the interpreter lock and measure the
    CPU, not the cluster.  The sleep length is recorded in the output
    (``synthetic_solve_ms``) so nobody mistakes the req/s figures for
    solver throughput; what IS real is every other hop — HTTP framing,
    ring routing, coalescing, and the shared-cache frames.
    """

    def __init__(self, solve_s: float) -> None:
        import threading
        self.solve_s = solve_s
        self.keys = []
        self._lock = threading.Lock()

    def __call__(self, payload):
        with self._lock:
            self.keys.append(payload.get("key", ""))
        time.sleep(self.solve_s)
        return {"status": "ok", "key": payload.get("key", ""),
                "metrics": {"chips": 2, "buses": 3, "total_pins": 100,
                            "latency": 6,
                            "wall_ms": self.solve_s * 1000.0},
                "stats": {}, "wall_ms": self.solve_s * 1000.0,
                "diagnostics": {"degraded": False, "events": []}}

    @property
    def calls(self) -> int:
        with self._lock:
            return len(self.keys)


def bench_cluster(smoke: bool):
    """Shard-count scaling and rolling drain.

    Spins a complete in-process cluster per shard count — one shared
    cache server, N single-worker thread-pool shards mounting it
    ``remote://``, one front tier — and storms it with a 50-request
    mixed workload (20 distinct design points) from 16 client
    threads.  Fleet-wide coalescing means each distinct point solves
    exactly once no matter the shard count, so aggregate req/s scales
    with how evenly the ring spreads the 20 keys.  A second section
    runs a rolling drain (one shard stopped mid-storm; the front's
    failover must lose zero requests).
    """
    import threading

    from repro.cluster import (ClusterConfig, ShardAddress,
                               ThreadedCacheServer, ThreadedFrontTier)
    from repro.service import (ServiceClient, ServiceConfig,
                               ShardIdentity, ThreadedServer)

    solve_s = 0.15 if smoke else 0.3
    designs = ["ar-simple", "ar-general", "ar-general-bidir",
               "elliptic", "elliptic-bidir"]
    rates = [3, 4, 5, 6]
    keys = [(design, rate) for design in designs for rate in rates]
    requests = (keys * 3)[:50]
    client_threads = 16
    shard_counts = [1, 2] if smoke else [1, 2, 4]

    def build(n_shards, runner, probe_interval_s=0.5):
        cache = ThreadedCacheServer().start()
        shards = []
        for index in range(n_shards):
            shard = ThreadedServer(ServiceConfig(
                port=0, workers=1, pool_mode="thread",
                cache_sync=False,
                cache_path=f"remote://{cache.address}",
                job_runner=runner,
                shard=ShardIdentity(f"shard-{index}", index, n_shards)))
            shard.start()
            shards.append(shard)
        front = ThreadedFrontTier(ClusterConfig(
            shards=tuple(ShardAddress(f"shard-{i}", "127.0.0.1",
                                      s.port)
                         for i, s in enumerate(shards)),
            port=0, cache_address=cache.address,
            probe_interval_s=probe_interval_s)).start()
        return cache, shards, front

    def teardown(cache, shards, front):
        front.stop()
        for shard in shards:
            shard.stop()
        cache.stop()

    def storm(port, work, retries=0, failures=None, threads=None):
        client = ServiceClient(port=port, timeout_s=120.0,
                               retries=retries)
        lock = threading.Lock()
        statuses = {}

        def pump():
            while True:
                with lock:
                    if not work:
                        return
                    design, rate = work.pop()
                try:
                    response = client.synthesize(
                        design, rate=rate, timeout_ms=60000)
                    outcome = response["status"]
                except Exception as exc:
                    outcome = f"lost:{type(exc).__name__}"
                    if failures is not None:
                        failures.append(exc)
                with lock:
                    statuses[outcome] = statuses.get(outcome, 0) + 1

        pumps = [threading.Thread(target=pump)
                 for _ in range(threads or client_threads)]
        start = time.perf_counter()
        for thread in pumps:
            thread.start()
        for thread in pumps:
            thread.join()
        return time.perf_counter() - start, statuses

    # -- shard-count scaling -------------------------------------------
    scaling = {}
    for n_shards in shard_counts:
        runner = _SleepSolve(solve_s)
        cache, shards, front = build(n_shards, runner)
        try:
            seconds, statuses = storm(front.port, list(requests))
            counters = front.front.metrics.snapshot()["counters"]
        finally:
            teardown(cache, shards, front)
        label = f"shards-{n_shards}"
        scaling[label] = {
            "shards": n_shards,
            "seconds": round(seconds, 4),
            "requests_per_sec": round(len(requests) / seconds, 2),
            "statuses": statuses,
            "executed": runner.calls,
            "exactly_once": runner.calls <= len(keys),
            "front_counters": counters,
        }
        print(f"  cluster[{label}]  {seconds:8.3f}s  "
              f"{scaling[label]['requests_per_sec']:8.1f} req/s  "
              f"executed={runner.calls}/{len(keys)} distinct")

    base = scaling[f"shards-{shard_counts[0]}"]["requests_per_sec"]
    peak_label = f"shards-{shard_counts[-1]}"
    peak = scaling[peak_label]["requests_per_sec"]
    speedup = round(peak / base, 2) if base else 0.0
    print(f"  cluster scaling {speedup}x "
          f"({peak_label} vs shards-{shard_counts[0]})")

    # -- rolling drain -------------------------------------------------
    # Stop one of two shards mid-storm.  The front's failover re-aims
    # that shard's keys at the survivor; with client retries as a
    # backstop for any 503 caught in the closing door, zero requests
    # may be lost.
    # A slow prober forces the REACTIVE path: the front discovers the
    # dead shard by tripping over it mid-request, not by probing.
    runner = _SleepSolve(0.15)
    cache, shards, front = build(2, runner, probe_interval_s=60.0)
    try:
        failures = []
        work = list((keys * 2)[:40])
        stopper = threading.Timer(0.4, shards[0].stop)
        stopper.start()
        # Only 4 pumps, so the tail of the storm arrives after the
        # shard dies and must be re-routed, not just drained.
        seconds, statuses = storm(front.port, work, retries=5,
                                  failures=failures, threads=4)
        stopper.join()
        counters = front.front.metrics.snapshot()["counters"]
    finally:
        teardown(cache, shards, front)
    lost = sum(count for status, count in statuses.items()
               if status.startswith("lost:"))
    drain = {
        "requests": 40,
        "seconds": round(seconds, 4),
        "statuses": statuses,
        "lost": lost,
        "failovers": counters.get("failovers", 0),
    }
    print(f"  cluster[rolling-drain]  {seconds:8.3f}s  lost={lost}  "
          f"failovers={drain['failovers']}")

    return {
        "workload": {
            "requests": len(requests),
            "distinct_jobs": len(keys),
            "designs": designs,
            "rates": rates,
            "client_threads": client_threads,
            "workers_per_shard": 1,
            "synthetic_solve_ms": solve_s * 1000.0,
        },
        "scaling": scaling,
        "speedup": speedup,
        "rolling_drain": drain,
    }


# ---------------------------------------------------------------------
def run(benches, cross_check: bool):
    results = {}
    for fn in benches:
        name = fn.__name__.removeprefix("bench_")
        before = PERF.snapshot()
        start = time.perf_counter()
        payload = fn()
        elapsed = time.perf_counter() - start
        delta = PERF.delta_since(before)
        results[name] = {
            "seconds": round(elapsed, 4),
            "result": payload,
            "counters": delta["counters"],
            "timings": {k: round(v, 4)
                        for k, v in delta["timings"].items()},
        }
        print(f"  {name:28s} {elapsed:8.3f}s  "
              f"pivots={delta['counters'].get('tableau.pivots', 0)}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI subset")
    parser.add_argument("--cross-check", action="store_true",
                        help="mirror every tableau op onto the dense "
                             "Fraction reference and compare (slow)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_ilp.json"),
                        help="output JSON path")
    parser.add_argument("--explore-out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_explore.json"),
                        help="explorer benchmark output JSON path")
    parser.add_argument("--explore-workers", type=int,
                        default=min(2, os.cpu_count() or 1),
                        help="worker processes for the explorer sweep")
    parser.add_argument("--schedulers-out",
                        default=os.path.join(
                            REPO_ROOT, "BENCH_schedulers.json"),
                        help="scheduler-backend benchmark output JSON "
                             "path")
    parser.add_argument("--service-out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_service.json"),
                        help="service benchmark output JSON path")
    parser.add_argument("--service-workers", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the service pool")
    args = parser.parse_args(argv)

    benches = SMOKE if args.smoke else FULL
    mode = "smoke" if args.smoke else "full"
    if args.cross_check:
        set_cross_check(True)
        print("cross-check mode: shadow tableau enabled "
              "(timings not representative)")
    try:
        print(f"running {len(benches)} benchmarks ({mode}) ...")
        results = run(benches, args.cross_check)
    finally:
        if args.cross_check:
            set_cross_check(False)

    doc = {
        "schema": "repro-bench-ilp/1",
        "mode": mode,
        "cross_check": args.cross_check,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not args.cross_check:  # shadow tableaus make sweeps crawl
        print("running explorer benchmark (cold + warm cache) ...")
        explore_doc = {
            "schema": "repro-bench-explore/1",
            "mode": mode,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "explore": bench_explore(args.smoke, args.explore_workers),
            "warm_neighbors": bench_warm_neighbors(args.smoke),
        }
        with open(args.explore_out, "w", encoding="utf-8") as fh:
            json.dump(explore_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.explore_out}")

        print("running scheduler-backend benchmark ...")
        schedulers_doc = {
            "schema": "repro-bench-schedulers/1",
            "mode": mode,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "schedulers": bench_schedulers(args.smoke),
        }
        with open(args.schedulers_out, "w", encoding="utf-8") as fh:
            json.dump(schedulers_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.schedulers_out}")

        print("running service benchmark "
              "(coalescing vs sequential) ...")
        service_doc = {
            "schema": "repro-bench-service/1",
            "mode": mode,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "service": bench_service(args.smoke, args.service_workers),
        }
        print("running cluster benchmark "
              "(shard scaling + drain) ...")
        service_doc["cluster"] = bench_cluster(args.smoke)
        with open(args.service_out, "w", encoding="utf-8") as fh:
            json.dump(service_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.service_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
