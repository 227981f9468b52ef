"""End-to-end trace propagation across the two boundary kinds.

* explorer ``Executor`` → **fork pool worker** (context rides in the
  payload, spans ship back in the result record and merge onto the
  submitter's trace);
* client → **cluster front** → shard (context rides in HTTP headers;
  all tiers run in this process — thread-mode shards plus a
  ``ThreadedFrontTier`` — so every hop's spans land in the one global
  ``TRACER`` and the parent/child chain is checkable directly).

Plus the client-side correlation contract: ``ServiceError`` carries the
server-assigned request/trace ids, and both ``/metrics`` endpoints
serve the Prometheus exposition under content negotiation, and each
tier's latency histograms count every job exactly once whichever pool
runs it.
"""

import http.client
import threading
import time

import pytest

from repro.cluster import (ClusterConfig, ShardAddress,
                           ThreadedCacheServer, ThreadedFrontTier)
from repro.designs import AR_SIMPLE_PINS, ar_simple_design
from repro.explore import DesignSpace, Executor, SweepSpec
from repro.obs import TRACER
from repro.service import (ServiceClient, ServiceConfig, ServiceError,
                           ShardIdentity, ThreadedServer)


@pytest.fixture(autouse=True)
def _clean_obs():
    TRACER.configure(enabled=False, sample_rate=1.0, export_path="")
    TRACER.reset()
    yield
    TRACER.configure(enabled=False, sample_rate=1.0, export_path="")
    TRACER.reset()


def enable_tracing():
    # Direct tracer configuration: no REPRO_TRACE* env mutation, so
    # nothing leaks into other tests or subprocesses they spawn.
    TRACER.configure(enabled=True, sample_rate=1.0, export_path="")


def canned_runner(payload):
    record = {"status": "ok",
              "metrics": {"chips": 2, "buses": 3, "total_pins": 100,
                          "latency": 6, "wall_ms": 1.0},
              "stats": {}, "wall_ms": 1.0,
              "diagnostics": {"degraded": False, "events": []}}
    record["key"] = payload.get("key", "")
    return record


def spans_by_name(timeout_s=10.0, **required):
    """Poll the global ring until every required span name appears
    at least ``count`` times (async execute tasks may finish a beat
    after the HTTP response); returns {name: [span, ...]}."""
    deadline = time.monotonic() + timeout_s
    while True:
        grouped = {}
        for span in TRACER.spans():
            grouped.setdefault(span["name"], []).append(span)
        if all(len(grouped.get(name, [])) >= count
               for name, count in required.items()):
            return grouped
        assert time.monotonic() < deadline, (
            f"needed {required}, ring has "
            f"{ {k: len(v) for k, v in grouped.items()} }")
        time.sleep(0.02)


def scrape(port, path="/metrics", accept=None):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30)
    try:
        headers = {"Accept": accept} if accept else {}
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        body = response.read().decode("utf-8")
        return response.status, response.getheader("Content-Type"), body
    finally:
        connection.close()


# ---------------------------------------------------------------------
class TestForkWorkerBoundary:
    def test_worker_spans_merge_onto_submitter_trace(self):
        enable_tracing()
        space = DesignSpace(name="ar-simple", graph=ar_simple_design(),
                            partitioning=AR_SIMPLE_PINS, timing="ar")
        # Two identical points (one via axes, one explicit): both are
        # the known-fast ar-simple solve, and with workers=2 they fan
        # out over a real fork pool.
        point = {"rate": 2, "flow": "simple"}
        spec = SweepSpec(axes={"rate": [2]}, base={"flow": "simple"},
                         points=[dict(point)])
        jobs = spec.expand(space)
        assert len(jobs) == 2
        executor = Executor(workers=2, prune_dominated=False,
                            deadline_ms=120000)
        result = executor.run(jobs)
        assert all(p["status"] in ("ok", "degraded")
                   for p in result.points)

        spans = TRACER.spans()
        sweep = next(s for s in spans if s["name"] == "explore.sweep")
        assert sweep["parent_id"] is None
        assert sweep["layer"] == "explore"
        solves = [s for s in spans if s["name"] == "job.solve"]
        assert len(solves) == 2
        for span in solves:
            # Recorded in a forked worker, merged back, parented under
            # the sweep span whose context rode in the payload.
            assert span["trace_id"] == sweep["trace_id"]
            assert span["parent_id"] == sweep["span_id"]
            assert span["layer"] == "worker"
        # The workers' inner spans (pipeline stages, solver phases)
        # came along on the same trace.
        inner = [s for s in spans
                 if s["trace_id"] == sweep["trace_id"]
                 and s["layer"] in ("pipeline", "solver")]
        assert inner, "no pipeline/solver spans crossed the boundary"

    def test_unsampled_sweep_ships_nothing(self):
        TRACER.configure(enabled=True, sample_rate=0.0,
                         export_path="")
        space = DesignSpace(name="ar-simple", graph=ar_simple_design(),
                            partitioning=AR_SIMPLE_PINS, timing="ar")
        jobs = SweepSpec(axes={"rate": [2]},
                         base={"flow": "simple"}).expand(space)
        result = Executor(workers=2, prune_dominated=False,
                          deadline_ms=120000).run(jobs)
        assert result.points[0]["status"] in ("ok", "degraded")
        assert TRACER.spans() == []


# ---------------------------------------------------------------------
class TestOneRecordingPerJob:
    @pytest.mark.parametrize("pool_mode", ["process", "thread"])
    def test_each_histogram_counts_each_job_once(self, pool_mode):
        config = ServiceConfig(port=0, workers=2, pool_mode=pool_mode,
                               cache_sync=False)
        with ThreadedServer(config) as server:
            client = ServiceClient(port=server.port)
            jobs = [client.synthesize(design, rate=rate, flow=flow,
                                      timeout_ms=60000)
                    for design, rate, flow in (
                        ("ar-simple", 2, "simple"),
                        ("ar-general", 3, "connection-first"),
                        ("ar-general", 4, "connection-first"))]
            assert [job["status"] for job in jobs] == ["ok"] * 3
            metrics = client.metrics()
            records = [server.service.store.get(job["job_id"]).record
                       for job in jobs]
        histograms = metrics["obs"]["histograms"]
        assert metrics["service"]["counters"]["completed"] == 3
        assert metrics["service"]["latency"]["count"] == 3
        assert histograms["service.job_wall_ms"]["count"] == 3
        assert histograms["worker.solve_ms"]["count"] == 3
        # The worker's own wall time is what the worker histogram holds.
        assert histograms["worker.solve_ms"]["sum"] == pytest.approx(
            sum(record["wall_ms"] for record in records))
        for record in records:
            assert {"hub", "spans", "oracle_delta"}.isdisjoint(record)
            assert set(record["perf"]) == {"counters", "timings"}


# ---------------------------------------------------------------------
class Cluster:
    """Cache server + two thread-mode shards + front, one process."""

    def __enter__(self):
        self.cache = ThreadedCacheServer()
        self.cache.start()
        self.shards = []
        for index in range(2):
            shard = ThreadedServer(ServiceConfig(
                port=0, workers=2, pool_mode="thread",
                cache_sync=False,
                cache_path=f"remote://{self.cache.address}",
                job_runner=canned_runner,
                shard=ShardIdentity(f"shard-{index}", index, 2)))
            shard.start()
            self.shards.append(shard)
        config = ClusterConfig(
            shards=tuple(ShardAddress(f"shard-{i}", "127.0.0.1",
                                      s.port)
                         for i, s in enumerate(self.shards)),
            port=0, cache_address=self.cache.address,
            probe_interval_s=0.2)
        self.front = ThreadedFrontTier(config).start()
        return self

    def __exit__(self, *exc_info):
        self.front.stop()
        for shard in self.shards:
            shard.stop()
        self.cache.stop()


class TestClusterHopBoundary:
    def test_front_span_is_parent_of_shard_span(self):
        enable_tracing()
        with Cluster() as cluster:
            client = ServiceClient(port=cluster.front.port)
            response = client.synthesize("ar-simple", rate=3)
            assert response["status"] == "ok"

            grouped = spans_by_name(**{"front.request": 1,
                                       "front.route": 1,
                                       "service.request": 1,
                                       "service.execute": 1})
            front_request = grouped["front.request"][0]
            front_route = grouped["front.route"][0]
            service_request = grouped["service.request"][0]
            service_execute = grouped["service.execute"][0]

            # One connected trace across the HTTP hop: the shard's
            # request span hangs off the front's routing span, whose
            # context rode in the x-repro-* headers.
            trace_id = front_request["trace_id"]
            assert front_request["parent_id"] is None
            assert front_route["trace_id"] == trace_id
            assert front_route["parent_id"] == front_request["span_id"]
            assert service_request["trace_id"] == trace_id
            assert service_request["parent_id"] == \
                front_route["span_id"]
            assert service_execute["trace_id"] == trace_id
            assert service_execute["parent_id"] == \
                service_request["span_id"]
            assert front_request["layer"] == "front"
            assert service_request["layer"] == "service"

    def test_concurrent_callers_each_get_their_own_chain(self):
        # Two callers at once, same design, different keys: each
        # caller's own trace must carry its route, its shard hop and
        # its solve — none of them recorded on the other's trace.
        enable_tracing()
        with Cluster() as cluster:
            barrier = threading.Barrier(2)
            answers = [None, None]

            def call(index):
                client = ServiceClient(port=cluster.front.port)
                barrier.wait()
                answers[index] = client.synthesize("ar-simple",
                                                   rate=3 + index)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert [a["status"] for a in answers] == ["ok", "ok"]
            assert answers[0]["key"] != answers[1]["key"]

            grouped = spans_by_name(**{"front.request": 2,
                                       "front.route": 2,
                                       "service.request": 2,
                                       "service.execute": 2})

            def child(name, parent):
                found = [s for s in grouped.get(name, [])
                         if s["trace_id"] == parent["trace_id"]
                         and s["parent_id"] == parent["span_id"]]
                assert len(found) == 1, (name, parent["name"], found)
                return found[0]

            roots = {s["attrs"].get("key"): s
                     for s in grouped["front.request"]}
            for answer in answers:
                root = roots[answer["key"][:12]]
                assert root["parent_id"] is None
                route = child("front.route", root)
                assert route["attrs"]["key"] == answer["key"][:12]
                request = child("service.request", route)
                child("service.execute", request)
            assert len({s["trace_id"] for s in roots.values()}) == 2

    def test_metrics_exposition_on_both_tiers(self):
        with Cluster() as cluster:
            client = ServiceClient(port=cluster.front.port)
            answer = client.synthesize("ar-simple", rate=3)
            assert answer["status"] == "ok"
            # Each shard keeps its own histograms: scrape the owner.
            owner = cluster.shards[int(answer["shard"].split("-")[1])]

            # Front: Accept negotiation.
            status, ctype, text = scrape(cluster.front.port,
                                         accept="text/plain")
            assert status == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            assert "# TYPE" in text
            assert 'repro_shard_up{shard="shard-0"} 1' in text
            assert 'repro_shard_up{shard="shard-1"} 1' in text
            assert 'repro_shard_queue_depth{shard="shard-0"}' in text
            assert 'repro_shard_inflight{shard="shard-0"}' in text
            assert "repro_cluster_queue_depth" in text
            assert "repro_cluster_inflight" in text

            # Shard: ?format=prometheus wins without an Accept header,
            # and at least one histogram family is exposed.
            status, ctype, text = scrape(
                owner.port, "/metrics?format=prometheus")
            assert status == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            assert "repro_service_queue_depth" in text
            assert "# TYPE repro_service_job_wall_ms histogram" in text
            assert "repro_service_job_wall_ms_bucket" in text

            # JSON stays the default representation on both tiers.
            assert client.metrics()["schema"] == \
                "repro-cluster-metrics/2"
            shard_client = ServiceClient(port=cluster.shards[0].port)
            assert shard_client.metrics()["schema"] == \
                "repro-service-metrics/1"


# ---------------------------------------------------------------------
class TestClientCorrelation:
    def test_service_error_carries_request_and_trace_ids(self):
        enable_tracing()
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               cache_sync=False,
                               job_runner=canned_runner)
        with ThreadedServer(config) as server:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceError) as err:
                client.request("POST", "/v1/synthesize",
                               {"design": "no-such-design"})
            assert err.value.status == 400
            assert err.value.request_id
            assert len(err.value.request_id) == 12
            assert err.value.trace_id
            assert len(err.value.trace_id) == 16
            # Both ids are in the message, so a bare str(exc) in a log
            # is enough to find the server-side spans.
            assert err.value.request_id in str(err.value)
            assert err.value.trace_id in str(err.value)

            # Tracing off: the request id survives, the trace id goes.
            TRACER.configure(enabled=False)
            with pytest.raises(ServiceError) as err:
                client.request("POST", "/v1/synthesize",
                               {"design": "no-such-design"})
            assert err.value.request_id
            assert err.value.trace_id is None

            # Non-submission endpoints assign no ids.
            with pytest.raises(ServiceError) as err:
                client.job("no-such-job")
            assert err.value.status == 404
            assert err.value.request_id is None
