"""Front tier: routing, fleet-wide coalescing, sweeps, failover.

Runs a real in-process cluster — a :class:`ThreadedCacheServer`, two
(or more) thread-pool :class:`ThreadedServer` shards mounting it
``remote://``, and a :class:`ThreadedFrontTier` routing over them —
and drives it over real sockets with :class:`ServiceClient`, so every
hop (HTTP framing, ring routing, cache frames) is the production code
path.
"""

import threading
import time

import pytest

from repro.cluster import (ClusterConfig, ShardAddress,
                           ThreadedCacheServer, ThreadedFrontTier)
from repro.service import (ServiceClient, ServiceConfig, ServiceError,
                           ServiceUnavailable, ShardIdentity,
                           ThreadedServer)


def canned_record(status="ok", pins=100):
    return {"status": status,
            "metrics": {"chips": 2, "buses": 3, "total_pins": pins,
                        "latency": 6, "wall_ms": 1.0},
            "stats": {}, "wall_ms": 1.0,
            "diagnostics": {"degraded": status == "degraded",
                            "events": []}}


class CountingRunner:
    """Sleeps briefly per solve; records every key it executed."""

    def __init__(self, solve_s=0.03):
        self.solve_s = solve_s
        self.keys = []
        self._lock = threading.Lock()

    def __call__(self, payload):
        with self._lock:
            self.keys.append(payload.get("key", ""))
        time.sleep(self.solve_s)
        record = canned_record()
        record["key"] = payload.get("key", "")
        return record

    @property
    def calls(self):
        with self._lock:
            return len(self.keys)


class Cluster:
    """Cache server + N shards + front, as one context manager."""

    def __init__(self, shards=2, runner=None, workers=2,
                 **front_overrides):
        self.runner = runner or CountingRunner()
        self.cache = ThreadedCacheServer()
        self.n = shards
        self.workers = workers
        self.shards = []
        self.front = None
        self.front_overrides = front_overrides

    def __enter__(self):
        self.cache.start()
        for index in range(self.n):
            shard = ThreadedServer(ServiceConfig(
                port=0, workers=self.workers, pool_mode="thread",
                cache_sync=False,
                cache_path=f"remote://{self.cache.address}",
                job_runner=self.runner,
                shard=ShardIdentity(f"shard-{index}", index, self.n)))
            shard.start()
            self.shards.append(shard)
        config = ClusterConfig(
            shards=tuple(ShardAddress(f"shard-{i}", "127.0.0.1",
                                      s.port)
                         for i, s in enumerate(self.shards)),
            port=0, cache_address=self.cache.address,
            **{"probe_interval_s": 0.2, **self.front_overrides})
        self.front = ThreadedFrontTier(config).start()
        return self

    def __exit__(self, *exc_info):
        if self.front is not None:
            self.front.stop()
        for shard in self.shards:
            shard.stop()
        self.cache.stop()

    def client(self, **kwargs):
        return ServiceClient(port=self.front.port, **kwargs)


# ---------------------------------------------------------------------
class TestRouting:
    def test_health_metrics_and_ring(self):
        with Cluster() as cluster:
            client = cluster.client()
            health = client.health()
            assert health["schema"] == "repro-cluster-health/1"
            assert health["ready"] is True
            assert set(health["shards"]) == {"shard-0", "shard-1"}
            metrics = client.metrics()
            assert metrics["schema"] == "repro-cluster-metrics/2"
            assert metrics["cluster"]["shards_healthy"] == 2
            assert metrics["cluster"]["workers"] == 4
            _status, ring = client.request("GET", "/cluster/ring")
            assert ring["down"] == []
            assert len(ring["ring"]["shards"]) == 2
            shares = [s["share"] for s in ring["ring"]["shards"]]
            assert abs(sum(shares) - 1.0) < 0.01

    def test_response_carries_shard_and_prefixed_job_id(self):
        with Cluster() as cluster:
            client = cluster.client()
            response = client.synthesize("ar-simple", rate=3)
            assert response["status"] == "ok"
            shard = response["shard"]
            assert shard in ("shard-0", "shard-1")
            assert response["job_id"].startswith(f"{shard}.")
            # The prefixed id routes a poll back to the owner shard.
            polled = client.job(response["job_id"])
            assert polled["status"] == "ok"
            assert polled["key"] == response["key"]

    def test_bad_requests_are_400_at_the_front(self):
        with Cluster() as cluster:
            client = cluster.client()
            for body in ({"rate": 2}, {"design": "no-such"},
                         {"design": "ar-simple", "timeout_ms": -5}):
                with pytest.raises(ServiceError) as err:
                    client.request("POST", "/v1/synthesize", body)
                assert err.value.status == 400, body

    def test_unknown_job_and_endpoint(self):
        with Cluster() as cluster:
            client = cluster.client()
            with pytest.raises(ServiceError) as err:
                client.job("no-such-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/v1/nothing")
            assert err.value.status == 404


class TestFleetCoalescing:
    def test_identical_requests_solve_once_fleet_wide(self):
        runner = CountingRunner()
        with Cluster(runner=runner) as cluster:
            results = [None] * 6
            def hit(i):
                results[i] = cluster.client().synthesize(
                    "ar-simple", rate=3)
            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r["status"] == "ok" for r in results)
            # One key, one owner shard, ONE solve — everyone else
            # coalesced on the owner or read the shared cache.
            assert runner.calls == 1
            assert len({r["key"] for r in results}) == 1
            assert len({r["shard"] for r in results}) == 1

    def test_cache_hit_after_first_solve(self):
        runner = CountingRunner()
        with Cluster(runner=runner) as cluster:
            client = cluster.client()
            first = client.synthesize("ar-simple", rate=4)
            assert first["cached"] is False
            again = client.synthesize("ar-simple", rate=4)
            assert again["cached"] is True
            assert runner.calls == 1
            hits = cluster.front.front.metrics.counters["front_cache_hits"]
            assert hits >= 1

    def test_one_shards_solve_is_the_fleets_cache_hit(self):
        # Bypass the front: solve on the owner shard directly, then
        # ask the OTHER shard — the shared cache answers.
        runner = CountingRunner()
        with Cluster(runner=runner) as cluster:
            front = cluster.front.front
            key = None
            import repro.service.catalog as catalog
            _space, point = catalog.synthesize_job(
                {"design": "ar-simple", "rate": 5})
            key = point.key
            owner = front.ring.owner(key)
            other = ("shard-1" if owner == "shard-0" else "shard-0")
            ports = {f"shard-{i}": s.port
                     for i, s in enumerate(cluster.shards)}
            ServiceClient(port=ports[owner]).synthesize(
                "ar-simple", rate=5)
            assert runner.calls == 1
            second = ServiceClient(port=ports[other]).synthesize(
                "ar-simple", rate=5)
            assert second["cached"] is True
            assert runner.calls == 1


class TestSweepSplit:
    def test_sweep_splits_across_shards_and_aggregates(self):
        runner = CountingRunner()
        with Cluster(runner=runner) as cluster:
            sweep = cluster.client().sweep(
                "ar-simple", axes={"rate": [3, 4, 5, 6]})
            assert sweep["status"] == "ok"
            assert sweep["kind"] == "sweep"
            points = sweep["points"]
            assert [p["index"] for p in points] == [0, 1, 2, 3]
            assert all(p["status"] == "ok" for p in points)
            assert sweep["status_counts"] == {"ok": 4}
            assert sweep["pareto"]  # non-empty over 4 ok points
            # Each point's job id is prefixed with its owner shard,
            # and the owners match the ring.
            front = cluster.front.front
            for p in points:
                shard, _sep, _jid = p["job_id"].partition(".")
                assert shard == front.ring.owner(p["key"])
            assert runner.calls == 4

    def test_sweep_point_poll_through_front(self):
        with Cluster() as cluster:
            client = cluster.client()
            sweep = client.sweep("ar-simple", axes={"rate": [3, 4]})
            for point in sweep["points"]:
                child = client.job(point["job_id"])
                assert child["status"] == "ok"
                assert child["key"] == point["key"]


class TestFailover:
    def test_drained_shard_fails_over_without_lost_requests(self):
        runner = CountingRunner()
        # A prober that never fires: only a request routed to the
        # stopped shard can mark it down, so the failover is counted.
        with Cluster(runner=runner, probe_interval_s=3600.0) as cluster:
            client = cluster.client()
            # Stop shard-0 (graceful drain); every key it owned must
            # be re-routed to shard-1 with zero caller-visible errors.
            cluster.shards[0].stop()
            for rate in (3, 4, 5, 6):
                response = client.synthesize("ar-simple", rate=rate)
                assert response["status"] == "ok"
                assert response["shard"] == "shard-1"
            front = cluster.front.front
            assert front.metrics.counters["failovers"] >= 1
            metrics = client.metrics()
            assert metrics["cluster"]["shards_healthy"] == 1

    def test_all_shards_down_is_503_with_retry_after(self):
        with Cluster(shards=1) as cluster:
            cluster.shards[0].stop()
            with pytest.raises(ServiceUnavailable) as err:
                cluster.client().synthesize("ar-simple", rate=3)
            assert err.value.status == 503
            assert err.value.retry_after_hint == 1

    def test_recovered_shard_is_reinstated_by_prober(self):
        with Cluster() as cluster:
            front = cluster.front.front
            client = cluster.client()
            cluster.shards[1].stop()
            with pytest.raises((OSError, ServiceError)):
                ServiceClient(port=cluster.shards[1].port).health()
            # Drive traffic so the front notices the death.
            for rate in (3, 4, 5):
                client.synthesize("ar-simple", rate=rate)
            assert front.shards["shard-1"].healthy is False
            # Restart a shard on the same port (rolling restart).
            replacement = ThreadedServer(ServiceConfig(
                port=cluster.shards[1].port, workers=1,
                pool_mode="thread", cache_sync=False,
                cache_path=f"remote://{cluster.cache.address}",
                job_runner=cluster.runner,
                shard=ShardIdentity("shard-1", 1, 2)))
            replacement.start()
            try:
                deadline = time.monotonic() + 10.0
                while not front.shards["shard-1"].up:
                    assert time.monotonic() < deadline, \
                        "prober never reinstated the shard"
                    time.sleep(0.05)
            finally:
                replacement.stop()

    def test_owner_death_mid_solve_is_exactly_once(self):
        """Concurrent identical requests all go to one owner shard,
        which dies while the solve is in flight.  Every caller must
        still get a terminal answer, and the fleet may execute the key
        at most twice — the original admit plus one legitimate
        re-execution after the owner's death — never once per
        caller."""
        from repro.service import catalog

        runner = CountingRunner(solve_s=0.4)
        with Cluster(runner=runner) as cluster:
            front = cluster.front.front
            body = {"design": "ar-simple", "rate": 7}
            _space, point = catalog.synthesize_job(body)
            owner = front.ring.owner(point.key)
            owner_index = int(owner.split("-")[1])

            answers = [None] * 4
            errors = [None] * 4

            def call(index):
                client = cluster.client(retries=6,
                                        backoff_base_s=0.05,
                                        backoff_cap_s=0.2)
                try:
                    answers[index] = client.synthesize(
                        "ar-simple", rate=7, timeout_ms=20000)
                except (OSError, ServiceError) as exc:
                    errors[index] = exc

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            # Kill the owner while its solve is in flight (the solve
            # takes 400ms).
            time.sleep(0.06)
            cluster.shards[owner_index].stop()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)

            assert errors == [None] * 4, [str(e) for e in errors]
            for payload in answers:
                assert payload["status"] == "ok"
                assert payload["key"] == point.key
            executions = runner.keys.count(point.key)
            assert 1 <= executions <= 2, \
                (f"exactly-once violated: {executions} executions "
                 f"for one key after a single owner death")


class TestShardReadiness:
    def test_invalid_seat_is_not_ready(self):
        shard = ThreadedServer(ServiceConfig(
            port=0, workers=1, pool_mode="thread", cache_sync=False,
            job_runner=CountingRunner(),
            shard=ShardIdentity("shard-9", 9, 2)))  # index >= count
        with shard:
            client = ServiceClient(port=shard.port)
            with pytest.raises(ServiceUnavailable) as err:
                client.health()
            assert err.value.status == 503
            payload = err.value.payload
            assert payload["ready"] is False
            assert payload["live"] is True
            assert payload["shard"] == {"name": "shard-9", "index": 9,
                                        "count": 2}

    def test_valid_seat_is_ready_and_visible(self):
        shard = ThreadedServer(ServiceConfig(
            port=0, workers=1, pool_mode="thread", cache_sync=False,
            job_runner=CountingRunner(),
            shard=ShardIdentity("shard-0", 0, 2)))
        with shard:
            client = ServiceClient(port=shard.port)
            health = client.health()
            assert health["status"] == "ok"
            assert health["shard"]["name"] == "shard-0"
            metrics = client.metrics()
            assert metrics["shard"]["index"] == 0
