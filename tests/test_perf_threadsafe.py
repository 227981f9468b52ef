"""PerfRegistry must be safe under concurrent mutation.

The serving layer merges worker perf deltas, observes job latencies
and scrapes ``/metrics`` snapshots while solves are running, so
``inc``/``phase``/``observe``/``gauge``/``snapshot``/``merge`` race by
design.  Before the registry grew its lock, the failure modes were lost
increments (read-modify-write on a plain dict) and ``RuntimeError:
dictionary changed size during iteration`` from snapshotting
mid-insert; these tests pin both down.  Solves running side by side on
a thread pool must also each count only their own work.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.oracle_store import activate
from repro.explore.worker import run_job
from repro.perf import PerfRegistry
from repro.service import catalog


def _run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()


def test_concurrent_increments_are_exact():
    registry = PerfRegistry()
    workers, per_worker = 8, 4000
    barrier = threading.Barrier(workers)

    def hammer():
        barrier.wait()
        for _ in range(per_worker):
            registry.inc("shared")
            with registry.phase("busy"):
                pass

    _run_all([threading.Thread(target=hammer) for _ in range(workers)])
    assert registry.counters["shared"] == workers * per_worker
    assert registry.timings["busy"] >= 0.0


def test_snapshot_while_keys_are_being_added():
    registry = PerfRegistry()
    fresh_keys = 20000

    def writer():
        for i in range(fresh_keys):
            registry.inc(f"key_{i}")
            with registry.phase(f"t_{i}"):
                pass

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        # Unlocked dict iteration here raises RuntimeError as the
        # writer resizes the dicts underneath the snapshot.
        while thread.is_alive():
            snap = registry.snapshot()
            assert all(isinstance(v, int)
                       for v in snap["counters"].values())
            registry.delta_since(snap)
    finally:
        thread.join(30.0)
    assert not thread.is_alive()
    assert len(registry.counters) == fresh_keys


def test_concurrent_merges_accumulate_exactly():
    target = PerfRegistry()
    workers, per_worker = 6, 300

    def merger():
        for _ in range(per_worker):
            target.merge({"counters": {"jobs": 1},
                          "timings": {"solve_s": 0.001}})

    _run_all([threading.Thread(target=merger) for _ in range(workers)])
    assert target.counters["jobs"] == workers * per_worker
    expected = workers * per_worker * 0.001
    assert abs(target.timings["solve_s"] - expected) < 1e-6


def test_concurrent_observations_and_gauges_are_exact():
    registry = PerfRegistry()
    workers, per_worker = 8, 2000
    barrier = threading.Barrier(workers)

    def hammer(index):
        barrier.wait()
        for i in range(per_worker):
            registry.observe("job_ms", float(i % 50))
            registry.gauge(f"depth_{index}", i)
            registry.ema("ema_ms", 10.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-update, often
    try:
        _run_all([threading.Thread(target=hammer, args=(i,))
                  for i in range(workers)])
    finally:
        sys.setswitchinterval(interval)
    snap = registry.obs_snapshot()
    hist = snap["histograms"]["job_ms"]
    assert hist["count"] == sum(hist["counts"]) == workers * per_worker
    assert registry.latency("job_ms")["count"] == workers * per_worker
    expected = {f"depth_{i}": per_worker - 1.0 for i in range(workers)}
    expected["ema_ms"] = 10.0
    assert snap["gauges"] == expected


def test_scrape_while_histograms_and_gauges_are_being_added():
    registry = PerfRegistry()
    fresh_names = 2000
    scraping = threading.Event()

    def writer():
        scraping.wait(30.0)
        for i in range(fresh_names):
            registry.observe(f"h_{i}", i)
            registry.gauges({f"g_{i}": i})

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        while thread.is_alive():
            scraping.set()
            snap = registry.obs_snapshot()
            assert all(h["count"] == 1
                       for h in snap["histograms"].values())
            registry.latency("h_0")
    finally:
        thread.join(30.0)
    assert not thread.is_alive()
    assert len(registry.obs_snapshot()["gauges"]) == fresh_names


def test_side_by_side_solves_count_only_their_own_work():
    """Two solves released together on a 2-thread pool: each record's
    ``stats`` and ``perf`` counters equal the same solve run alone."""
    bodies = [{"design": "ar-stacked-2", "rate": 2, "flow": "simple"},
              {"design": "ar-general", "rate": 3,
               "flow": "connection-first"}]
    payloads = [catalog.synthesize_job(body)[1].payload()
                for body in bodies]
    previous = activate(None)  # no shared oracle store between them
    try:
        alone = [run_job(payload) for payload in payloads]
        for _trial in range(3):
            barrier = threading.Barrier(2)

            def at_barrier(payload):
                barrier.wait(30.0)
                return run_job(payload)

            with ThreadPoolExecutor(2) as pool:
                together = list(pool.map(at_barrier, payloads))
            for solo, record in zip(alone, together):
                assert record["status"] == solo["status"] == "ok"
                assert record["stats"] == solo["stats"]
                assert record["perf"]["counters"] \
                    == solo["perf"]["counters"]
    finally:
        activate(previous)
