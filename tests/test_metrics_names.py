"""The ``/metrics`` names a scraper reads survive, each series once.

Two real scrapes — a thread-pool service after one real solve, and a
cluster front over one such shard — must keep every JSON key path and
every Prometheus ``# TYPE`` family pinned below.  A name is dropped or
renamed only under a ``schema`` bump: the service is still at ``/1``;
the front went to ``/2`` when its batched admission went, with three
counters and a gauge.  Open-ended maps (the merged ``perf`` counters
and timings) are pinned as maps, not entry by entry.

The text exposition (format 0.0.4) requires every line to have a
unique combination of metric name and labels, so no series line may
repeat in either document.
"""

import http.client

import pytest

from repro.cluster import (ClusterConfig, ShardAddress,
                           ThreadedCacheServer, ThreadedFrontTier)
from repro.service import (ServiceClient, ServiceConfig, ShardIdentity,
                           ThreadedServer)

HISTOGRAM = ("buckets", "count", "counts", "sum")
LATENCY = ("count", "max_ms", "mean_ms", "p50_ms", "p95_ms")
CACHE = ("corrupt_lines", "entries", "hit_rate", "hits", "misses")
TRACER = ("buffered", "dropped", "enabled", "export_path", "recorded",
          "sample_rate")
SERVICE_COUNTERS = ("accepted", "budget_exhausted", "cache_hits",
                    "coalesced", "completed", "degraded", "errors",
                    "executed", "invalid", "shed")
FRONT_COUNTERS = ("errors", "failovers", "front_cache_hits", "proxied",
                  "requests", "shard_errors", "shed_relayed")

#: Document shapes: a dict nests, a tuple lists leaf keys, None is a leaf.
SERVICE_JSON = {
    "schema": None,
    "service": {"counters": SERVICE_COUNTERS, "latency": LATENCY,
                "ema_job_ms": None, "queue_depth": None,
                "inflight": None, "draining": None,
                "jobs_retained": None},
    "workers": ("count", "mode"),
    "cache": CACHE,
    "oracle": ("corrupt_lines", "dominance_hits", "entries",
               "exact_hits", "hit_rate", "keys", "misses"),
    "perf": ("counters", "timings"),
    "obs": {"histograms": {"service.job_wall_ms": HISTOGRAM,
                           "worker.solve_ms": HISTOGRAM},
            "gauges": ("service.cache_hit_ratio", "service.ema_job_ms",
                       "service.inflight", "service.queue_depth")},
    "tracer": TRACER,
}
FRONT_JSON = {
    "schema": None,
    "schema_version": None,
    "front": {"counters": FRONT_COUNTERS, "latency": LATENCY,
              "ema_job_ms": None},
    "cluster": {"counters": SERVICE_COUNTERS, "inflight": None,
                "latency_p95_ms": None, "queue_depth": None,
                "shards": None, "shards_healthy": None,
                "workers": None},
    "shards": {"shard-0": {"counters": SERVICE_COUNTERS,
                           "draining": None, "ema_job_ms": None,
                           "healthy": None, "host": None,
                           "inflight": None, "last_error": None,
                           "port": None, "queue_depth": None,
                           "workers": None}},
    "ring": ("replicas", "shards", "vnodes"),
    "cache": {**dict.fromkeys(CACHE),
              "remote": ("address", "down", "errors", "hits",
                         "unshipped")},
    "obs": {"histograms": {"front.route_ms": HISTOGRAM},
            "gauges": ("cluster.inflight", "cluster.queue_depth",
                       "cluster.shards_healthy",
                       "front.tasks_inflight")},
    "tracer": TRACER,
}

SERVICE_FAMILIES = {
    **{f"repro_service_{name}_total": "counter"
       for name in SERVICE_COUNTERS},
    **{f"repro_cache_{name}": "gauge" for name in CACHE},
    **{f"repro_oracle_{name}": "gauge"
       for name in SERVICE_JSON["oracle"]},
    "repro_perf_counter_total": "counter",
    "repro_perf_phase_seconds_total": "counter",
    "repro_service_cache_hit_ratio": "gauge",
    "repro_service_draining": "gauge",
    "repro_service_ema_job_ms": "gauge",
    "repro_service_inflight": "gauge",
    "repro_service_job_wall_ms": "histogram",
    "repro_service_jobs_retained": "gauge",
    "repro_service_latency_max_ms": "gauge",
    "repro_service_latency_ms": "gauge",
    "repro_service_latency_window_count": "gauge",
    "repro_service_queue_depth": "gauge",
    "repro_service_workers": "gauge",
    "repro_tracer_dropped_total": "counter",
    "repro_tracer_enabled": "gauge",
    "repro_tracer_spans_total": "counter",
    "repro_worker_solve_ms": "histogram",
}
FRONT_FAMILIES = {
    **{f"repro_front_{name}_total": "counter"
       for name in FRONT_COUNTERS},
    **{f"repro_cluster_{name}_total": "counter"
       for name in SERVICE_COUNTERS},
    **{f"repro_front_cache_{name}": "gauge" for name in CACHE},
    **{f"repro_shard_{name}": "gauge"
       for name in ("draining", "ema_job_ms", "inflight",
                    "queue_depth", "up", "workers")},
    **{f"repro_cluster_{name}": "gauge"
       for name in ("inflight", "latency_p95_ms", "queue_depth",
                    "shards", "shards_healthy", "workers")},
    "repro_front_ema_job_ms": "gauge",
    "repro_front_latency_max_ms": "gauge",
    "repro_front_latency_ms": "gauge",
    "repro_front_latency_window_count": "gauge",
    "repro_front_route_ms": "histogram",
    "repro_front_tasks_inflight": "gauge",
}


def expand(shape, prefix=""):
    """Key paths of a document shape (see ``SERVICE_JSON``)."""
    if isinstance(shape, tuple):
        shape = dict.fromkeys(shape)
    out = set()
    for key, sub in (shape or {}).items():
        path = f"{prefix}.{key}" if prefix else key
        out.add(path)
        out |= expand(sub, path)
    return out


def key_paths(document, prefix=""):
    out = set()
    if isinstance(document, dict):
        for key, value in document.items():
            path = f"{prefix}.{key}" if prefix else key
            out.add(path)
            out |= key_paths(value, path)
    return out


def families(text):
    return {line.split()[2]: line.split()[3]
            for line in text.splitlines() if line.startswith("# TYPE ")}


def repeated_series(text):
    """Series (name + labels) that appear on more than one line."""
    seen, repeated = set(), set()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series = line.rsplit(" ", 1)[0]
            (repeated if series in seen else seen).add(series)
    return repeated


def scrape(port):
    """(JSON document, Prometheus text) of one ``/metrics`` endpoint."""
    document = ServiceClient(port=port).metrics()
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=60)
    try:
        connection.request("GET", "/metrics",
                           headers={"Accept": "text/plain"})
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    return document, text


def solve_one(port):
    answer = ServiceClient(port=port).synthesize(
        "ar-simple", rate=2, flow="simple", timeout_ms=60000)
    assert answer["status"] == "ok", answer


@pytest.fixture(scope="module")
def scrapes():
    """Both real scrapes, taken once for the module."""
    config = ServiceConfig(port=0, workers=2, pool_mode="thread",
                           cache_sync=False)
    with ThreadedServer(config) as server:
        solve_one(server.port)
        service = scrape(server.port)
    cache = ThreadedCacheServer()
    cache.start()
    shard = ThreadedServer(ServiceConfig(
        port=0, workers=1, pool_mode="thread", cache_sync=False,
        cache_path=f"remote://{cache.address}",
        shard=ShardIdentity("shard-0", 0, 1))).start()
    front = ThreadedFrontTier(ClusterConfig(
        shards=(ShardAddress("shard-0", "127.0.0.1", shard.port),),
        port=0, cache_address=cache.address,
        probe_interval_s=0.2)).start()
    try:
        solve_one(front.port)
        cluster = scrape(front.port)
    finally:
        front.stop()
        shard.stop()
        cache.stop()
    return {"service": service, "front": cluster}


class TestMetricsNames:
    @pytest.mark.parametrize("tier,shape", [("service", SERVICE_JSON),
                                            ("front", FRONT_JSON)])
    def test_json_key_paths_survive(self, scrapes, tier, shape):
        document, _text = scrapes[tier]
        missing = expand(shape) - key_paths(document)
        assert not missing, sorted(missing)

    @pytest.mark.parametrize("tier,pinned", [
        ("service", SERVICE_FAMILIES), ("front", FRONT_FAMILIES)])
    def test_prometheus_families_survive(self, scrapes, tier, pinned):
        _document, text = scrapes[tier]
        found = families(text)
        lost = {name: kind for name, kind in pinned.items()
                if found.get(name) != kind}
        assert not lost, lost

    def test_schemas_stay_version_one(self, scrapes):
        # The service dropped no name, so its schema stays /1.
        assert scrapes["service"][0]["schema"] == \
            "repro-service-metrics/1"

    def test_front_schema_is_version_two(self, scrapes):
        front = scrapes["front"][0]
        assert front["schema"] == "repro-cluster-metrics/2"
        # The front's counters are exactly the pinned /2 set.
        assert sorted(front["front"]["counters"]) == list(FRONT_COUNTERS)

    @pytest.mark.parametrize("tier", ["service", "front"])
    def test_no_series_line_repeats(self, scrapes, tier):
        _document, text = scrapes[tier]
        assert not repeated_series(text)
