"""Synthesis service: coalescing, load shedding, drain, schema.

Runs the real asyncio HTTP server in a background thread
(:class:`repro.service.ThreadedServer`) with a *thread*-mode pool so
the suite stays fast and runners are injectable: a
:class:`GatedRunner` blocks every solve until the test releases it,
which makes coalescing and queue-pressure scenarios deterministic —
the test holds N requests in flight, inspects ``/metrics``, then lets
the pool go.
"""

import importlib.util
import json
import os
import threading

import pytest

from repro.service import (ServiceClient, ServiceConfig, ServiceError,
                           ServiceUnavailable, ThreadedServer)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(REPO, "docs", "schema",
                           "service_response.schema.json")


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_synth_json",
        os.path.join(REPO, "tools", "validate_synth_json.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate


validate = _load_validator()
SCHEMA = json.loads(open(SCHEMA_PATH).read())


def assert_schema(payload):
    problems = validate(payload, SCHEMA)
    assert not problems, problems


# ---------------------------------------------------------------------
def canned_record(status="ok", pins=100):
    return {"status": status,
            "metrics": {"chips": 2, "buses": 3, "total_pins": pins,
                        "latency": 6, "wall_ms": 1.0},
            "stats": {}, "wall_ms": 1.0,
            "diagnostics": {"degraded": status == "degraded",
                            "events": []}}


class GatedRunner:
    """Pool runner that blocks until released; counts executions."""

    def __init__(self, record=None, released=False):
        self.calls = 0
        self._lock = threading.Lock()
        self.started = threading.Event()
        self.release = threading.Event()
        if released:
            self.release.set()
        self._record = record or canned_record()

    def __call__(self, payload):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(30.0), "gate never released"
        record = json.loads(json.dumps(self._record))
        record["key"] = payload.get("key", "")
        return record


def make_server(runner=None, **overrides):
    kwargs = dict(port=0, workers=2, pool_mode="thread",
                  cache_sync=False, max_queue=32)
    if runner is not None:
        kwargs["job_runner"] = runner
    kwargs.update(overrides)
    return ThreadedServer(ServiceConfig(**kwargs))


def counters(client):
    return client.metrics()["service"]["counters"]


def wait_until(predicate, timeout_s=10.0, poll_s=0.01):
    import time
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(poll_s)


# ---------------------------------------------------------------------
class TestEndpoints:
    def test_health_metrics_and_errors(self):
        with make_server(GatedRunner(released=True)) as server:
            client = ServiceClient(port=server.port)
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"] == 2
            metrics = client.metrics()
            assert metrics["schema"] == "repro-service-metrics/1"
            assert metrics["service"]["counters"]["accepted"] == 0
            assert metrics["service"]["latency"]["count"] == 0
            with pytest.raises(ServiceError) as err:
                client.job("no-such-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/v1/nothing-here")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/v1/synthesize")
            assert err.value.status == 405

    def test_bad_requests_are_400(self):
        with make_server(GatedRunner(released=True)) as server:
            client = ServiceClient(port=server.port)
            for body in (
                    {"rate": 2},                      # no design
                    {"design": "no-such-design"},
                    {"design": "ar-simple",
                     "options": {"bogus": 1}},
                    {"design": "ar-simple", "timeout_ms": -5},
            ):
                with pytest.raises(ServiceError) as err:
                    client.request("POST", "/v1/synthesize", body)
                assert err.value.status == 400, body

    def test_real_solve_conforms_to_schema(self):
        # Default runner = the explorer's run_job: a genuine solve.
        with make_server() as server:
            client = ServiceClient(port=server.port)
            response = client.synthesize("ar-simple", rate=2,
                                         flow="simple",
                                         timeout_ms=60000)
            assert response["status"] == "ok"
            assert response["kind"] == "synthesize"
            assert response["metrics"]["total_pins"] > 0
            assert response["diagnostics"]["degraded"] is False
            assert_schema(response)
            # The job endpoint shows the same terminal object.
            again = client.job(response["job_id"])
            assert_schema(again)
            assert again["status"] == "ok"
            perf = client.metrics()["perf"]
            assert perf["counters"], "solver counters never merged"

    def test_result_failing_its_check_is_invalid(
            self, early_consumer_backend):
        with make_server() as server:
            client = ServiceClient(port=server.port)
            response = client.synthesize(
                "ar-general", rate=3, flow="connection-first",
                scheduler=early_consumer_backend, timeout_ms=60000)
            assert response["status"] == "invalid"
            assert not response["check"]["ok"]
            rules = {v["rule"] for v in response["check"]["violations"]}
            assert "precedence" in rules
            assert_schema(response)
            assert counters(client)["invalid"] == 1


# ---------------------------------------------------------------------
class TestCoalescing:
    def test_identical_inflight_requests_share_one_solve(self):
        runner = GatedRunner()
        with make_server(runner) as server:
            client = ServiceClient(port=server.port)
            n = 6
            results = [None] * n

            def fire(i):
                results[i] = client.synthesize(
                    "ar-simple", rate=2, flow="simple",
                    timeout_ms=30000)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            # Hold the gate until every request has been admitted, so
            # all of them are provably in flight together.
            wait_until(lambda: counters(client)["accepted"] == n)
            runner.release.set()
            for thread in threads:
                thread.join(30.0)

            assert runner.calls == 1
            assert {r["status"] for r in results} == {"ok"}
            assert len({r["job_id"] for r in results}) == 1
            stats = counters(client)
            assert stats["executed"] == 1
            assert stats["coalesced"] == n - 1
            assert stats["completed"] == 1

    def test_completed_jobs_hit_the_shared_cache(self, tmp_path):
        path = str(tmp_path / "service-cache.jsonl")
        runner = GatedRunner(released=True)
        with make_server(runner, cache_path=path,
                         cache_sync=True) as server:
            client = ServiceClient(port=server.port)
            first = client.synthesize("ar-simple", rate=2,
                                      flow="simple", timeout_ms=30000)
            assert first["cached"] is False
            second = client.synthesize("ar-simple", rate=2,
                                       flow="simple", timeout_ms=30000)
            assert second["cached"] is True
            stats = counters(client)
            assert stats["executed"] == 1
            assert stats["cache_hits"] == 1
        assert runner.calls == 1
        assert os.path.exists(path)
        # A restarted server serves the same request from disk without
        # executing anything (sync=True made the append durable).
        runner2 = GatedRunner(released=False)  # would hang if executed
        with make_server(runner2, cache_path=path,
                         cache_sync=True) as server:
            client = ServiceClient(port=server.port)
            replay = client.synthesize("ar-simple", rate=2,
                                       flow="simple", timeout_ms=30000)
            assert replay["cached"] is True
            assert replay["status"] == "ok"
        assert runner2.calls == 0

    def test_sweep_points_coalesce_with_standalone_requests(self):
        runner = GatedRunner()
        with make_server(runner) as server:
            client = ServiceClient(port=server.port)
            solo = client.synthesize("ar-simple", rate=2,
                                     flow="simple", wait=False,
                                     timeout_ms=30000)
            assert solo["status"] in ("queued", "running")
            assert_schema(solo)
            sweep = client.sweep("ar-simple", axes={"rate": [2, 3]},
                                 flow="simple", wait=False,
                                 timeout_ms=30000)
            wait_until(lambda: counters(client)["coalesced"] >= 1)
            runner.release.set()
            done = client.wait_job(sweep["job_id"], timeout_s=30)
            assert done["kind"] == "sweep"
            assert done["status"] == "ok"
            assert len(done["points"]) == 2
            assert done["status_counts"] == {"ok": 2}
            assert done["pareto"]
            assert_schema(done)
            stats = counters(client)
            # rate=2 ran once (shared with the solo request), rate=3
            # ran once: 3 logical requests, 2 solves.
            assert stats["executed"] == 2
            assert stats["coalesced"] == 1


# ---------------------------------------------------------------------
class TestLoadShedding:
    def test_queue_full_returns_429_with_retry_after(self):
        runner = GatedRunner()
        with make_server(runner, workers=1, max_queue=1) as server:
            client = ServiceClient(port=server.port)
            held = client.synthesize("ar-simple", rate=2,
                                     flow="simple", wait=False,
                                     timeout_ms=30000)
            runner.started.wait(10.0)
            with pytest.raises(ServiceUnavailable) as err:
                client.synthesize("ar-simple", rate=3, flow="simple",
                                  wait=False, timeout_ms=30000)
            assert err.value.status == 429
            assert err.value.retry_after_s >= 1
            assert counters(client)["shed"] == 1
            runner.release.set()
            finished = client.wait_job(held["job_id"], timeout_s=30)
            assert finished["status"] == "ok"

    def test_projected_wait_beyond_deadline_sheds(self):
        runner = GatedRunner()
        with make_server(runner, workers=1, max_queue=100) as server:
            client = ServiceClient(port=server.port)
            client.synthesize("ar-simple", rate=2, flow="simple",
                              wait=False, timeout_ms=600000)
            runner.started.wait(10.0)
            # Pretend history says a job takes a minute: a request that
            # only has 100ms to live cannot be served behind one job.
            server.service.metrics.gauge("service.ema_job_ms", 60000.0)
            with pytest.raises(ServiceUnavailable) as err:
                client.synthesize("ar-simple", rate=3, flow="simple",
                                  wait=False, timeout_ms=100)
            assert err.value.status == 429
            assert err.value.retry_after_s >= 30
            runner.release.set()

    def test_sweeps_are_admitted_atomically(self):
        runner = GatedRunner()
        with make_server(runner, workers=1, max_queue=2) as server:
            client = ServiceClient(port=server.port)
            client.synthesize("ar-simple", rate=2, flow="simple",
                              wait=False, timeout_ms=30000)
            # A 3-point sweep cannot fit behind one held job in a
            # 2-deep queue: the whole sweep is shed, nothing partial.
            with pytest.raises(ServiceUnavailable):
                client.sweep("ar-simple", axes={"rate": [3, 4, 5]},
                             flow="simple", wait=False,
                             timeout_ms=30000)
            assert counters(client)["executed"] == 1
            runner.release.set()


# ---------------------------------------------------------------------
class TestAsyncJobs:
    def test_wait_false_returns_202_and_polls_to_completion(self):
        runner = GatedRunner()
        with make_server(runner) as server:
            client = ServiceClient(port=server.port)
            status, payload = client.request(
                "POST", "/v1/synthesize",
                {"design": "ar-simple", "rate": 2, "flow": "simple",
                 "wait": False, "timeout_ms": 30000})
            assert status == 202
            assert payload["status"] in ("queued", "running")
            assert payload["location"].endswith(payload["job_id"])
            assert_schema(payload)
            pending = client.job(payload["job_id"])
            assert pending["status"] in ("queued", "running")
            runner.release.set()
            done = client.wait_job(payload["job_id"], timeout_s=30)
            assert done["status"] == "ok"
            assert done["metrics"]["total_pins"] == 100


# ---------------------------------------------------------------------
class TestDrain:
    def test_drain_completes_inflight_work_before_exit(self):
        runner = GatedRunner()
        server = make_server(runner).start()
        client = ServiceClient(port=server.port)
        pending = client.synthesize("ar-simple", rate=2,
                                    flow="simple", wait=False,
                                    timeout_ms=30000)
        runner.started.wait(10.0)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stopper.join(0.3)
        # Drain must wait for the gated job, not abandon it.
        assert stopper.is_alive()
        runner.release.set()
        stopper.join(30.0)
        assert not stopper.is_alive()

        job = server.service.store.get(pending["job_id"])
        assert job is not None and job.status == "ok"
        assert server.service.metrics.counters["completed"] == 1
        with pytest.raises((OSError, ServiceError)):
            client.health()
