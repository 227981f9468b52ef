"""``serve-fleet``: an in-process copy of ``repro cluster`` driven by two
closed-loop clients over a seeded Zipf stream of ``/v1/synthesize``
requests.

The fleet is a cache server, two service shards (process pool, one
worker each, mounting the cache ``remote://``) and a front tier with
the shipped defaults (10 ms batch window).  The loop is closed because
the fleet's real callers (``ServiceClient``, the explorer CLI, CI)
block on each reply.

The stream runs in cycles, and every cycle is the same work: a freshly
booted fleet (cold caches, new worker processes) serves four passes,
pass ``p`` over slice ``p`` of the key space -- the same 20 cheap and
medium (design, rate, flow) points at pin scale ``1 + 0.25 p``, so no
pass repeats a key of an earlier one.  A pass sends 6 requests per key:
each key's first sighting once, at seeded positions, and five
Zipf-distributed repeats of keys already seen in the pass, so about one
request in six is a real solve and the rest exercise the read-through
cache and coalescing.  A run repeats whole cycles until its time is up,
so faster code serves more cycles of the same work, never other work.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import TIMEOUT_MS, Phase, make_point, qor, solve

NAME = "serve-fleet"

CLIENTS = 2
SHARDS = 2
REQUESTS_PER_KEY = 6
ZIPF_S = 1.1
SCALE_STEP = 0.25
#: Passes (key-space slices) per cycle.
SLICES = 4
#: How long a booting fleet member may take to report ready.
READY_TIMEOUT_S = 60.0

COMBOS = (
    [("ar-general", rate, "connection-first") for rate in (3, 4, 5, 6)]
    + [("ar-general-bidir", rate, "connection-first")
       for rate in (3, 4, 5)]
    + [("elliptic", rate, "connection-first") for rate in (7, 8, 9)]
    + [("dct", rate, "connection-first") for rate in (2, 3, 4)]
    + [("fir", rate, "connection-first") for rate in (2, 3, 4)]
    + [("ar-simple", 2, "simple"), ("fir", 2, "simple"),
       ("dct", 2, "simple")]
    + [("fir", 3, "schedule-first")]
)

Key = Tuple[str, int, str, float]


def slice_keys(index: int) -> List[Key]:
    scale = round(1.0 + SCALE_STEP * index, 2)
    return [(design, rate, flow, scale) for design, rate, flow in COMBOS]


def pass_requests(seed: int, index: int) -> List[Key]:
    """The seeded request order of one pass over slice ``index``."""
    rng = random.Random(f"{seed}:{index}")
    fresh = slice_keys(index)
    rng.shuffle(fresh)
    total = REQUESTS_PER_KEY * len(fresh)
    new_slots = {0} | set(rng.sample(range(1, total), len(fresh) - 1))
    seen: List[Key] = []
    weights: List[float] = []
    out: List[Key] = []
    for slot in range(total):
        if slot in new_slots:
            key = fresh[len(seen)]
            seen.append(key)
            weights.append(1.0 / (len(seen) ** ZIPF_S))
        else:
            key = rng.choices(seen, weights)[0]
        out.append(key)
    return out


class Fleet:
    """Cache server + shards + front, all in this process."""

    def __init__(self) -> None:
        from repro.cluster import (ClusterConfig, ShardAddress,
                                   ThreadedCacheServer, ThreadedFrontTier)
        from repro.explore.cache import ResultCache
        from repro.service import (ServiceConfig, ShardIdentity,
                                   ThreadedServer)

        host = "127.0.0.1"
        self.cache = None
        self.shards: List[Any] = []
        self.front = None
        try:
            self.cache = ThreadedCacheServer(ResultCache(None),
                                             host=host).start()
            for index in range(SHARDS):
                self.shards.append(ThreadedServer(ServiceConfig(
                    host=host, port=0, workers=1, pool_mode="process",
                    default_timeout_ms=TIMEOUT_MS,
                    cache_path=f"remote://{self.cache.address}",
                    shard=ShardIdentity(f"shard-{index}", index,
                                        SHARDS))).start())
            self.front = ThreadedFrontTier(ClusterConfig(
                shards=tuple(ShardAddress(f"shard-{i}", host, s.port)
                             for i, s in enumerate(self.shards)),
                host=host, port=0, cache_address=self.cache.address,
                default_timeout_ms=TIMEOUT_MS)).start()
            for port in [s.port for s in self.shards] + [self.front.port]:
                _wait_ready(port)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.front is not None:
            self.front.stop()
        for shard in self.shards:
            shard.stop()
        if self.cache is not None:
            self.cache.stop()

    def counters(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(front counters, service counters summed over shards)."""
        front = dict(self.front.front.metrics.snapshot()["counters"])
        service: Dict[str, int] = {}
        for shard in self.shards:
            counters = shard.service.metrics.snapshot()["counters"]
            for name, value in counters.items():
                service[name] = service.get(name, 0) + int(value)
        return front, service


def _wait_ready(port: int) -> None:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout_s=5.0)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        try:
            status, _ = client.request("GET", "/healthz")
            if status == 200:
                return
        except (OSError, ReproError):
            pass
        if time.monotonic() > deadline:
            raise ReproError(f"fleet member on port {port} never ready")
        time.sleep(0.02)


class Serve:
    def __init__(self, seed: int) -> None:
        from repro.service import catalog
        self.seed = seed
        self.spaces = {name: catalog.design_space(name)
                       for name in sorted({d for d, _, _ in COMBOS})}
        #: The seeded request order of each pass of a cycle.
        self.passes = [pass_requests(seed, index) for index in range(SLICES)]
        self.responses: List[Tuple[Key, Dict[str, Any]]] = []


def build(seed: int) -> Serve:
    return Serve(seed)


def measure(serve: Serve, seconds: float, between=None) -> Phase:
    """Whole cycles, each on a freshly booted fleet, until ``seconds``
    of serving have passed; only the clients' waiting is timed.
    ``between`` (if given) runs after each cycle's fleet has stopped."""
    phase = Phase()
    serve.responses = []
    counters = {name: 0 for name in _COUNTERS}
    while not phase.passes or phase.busy_s < seconds:
        fleet = Fleet()
        try:
            for requests in serve.passes:
                _serve_pass(fleet, requests, phase, serve.responses)
                phase.passes += 1
            front, service = fleet.counters()
        finally:
            fleet.stop()
        for name, (source, key) in _COUNTERS.items():
            counters[name] += (front if source == "front" else service) \
                .get(key, 0)
        if between is not None:
            between()
    phase.traced_wall_ms = sum(phase.latencies_ms)

    # Every cycle asks for the same keys; verify() checks each answer.
    distinct = {key: (metrics.get("total_pins", 0),
                      metrics.get("latency", 0))
                for key, metrics in serve.responses}
    phase.qor_pins = sum(pins for pins, _ in distinct.values())
    phase.qor_latency = sum(lat for _, lat in distinct.values())
    phase.layers.update(counters)
    return phase


#: Layer metric -> (fleet member, its counter), summed over cycles.
_COUNTERS = {
    "cluster.front.proxied": ("front", "proxied"),
    "cluster.front.cache_hits": ("front", "front_cache_hits"),
    "cluster.front.coalesced": ("front", "front_coalesced"),
    "cluster.front.failovers": ("front", "failovers"),
    "service.executed": ("service", "executed"),
    "service.coalesced": ("service", "coalesced"),
    "service.shed": ("service", "shed"),
}


def _serve_pass(fleet: Fleet, requests: List[Key], phase: Phase,
                responses: List[Tuple[Key, Dict[str, Any]]]) -> None:
    """Two closed-loop clients share one pass's requests in order."""
    from repro.errors import ReproError
    from repro.service import ServiceClient

    pending = iter(requests)
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(port=fleet.front.port, timeout_s=120.0)
        while True:
            with lock:
                key = next(pending, None)
            if key is None:
                return
            design, rate, flow, scale = key
            t0 = time.perf_counter()
            try:
                payload = client.synthesize(design, rate=rate, flow=flow,
                                            pin_scale=scale,
                                            timeout_ms=TIMEOUT_MS)
                error = None
            except (OSError, ReproError) as exc:
                payload, error = {}, f"{type(exc).__name__}: {exc}"
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                phase.attempted += 1
                if error is not None or payload.get("status") != "ok":
                    phase.fail(f"{key}: {error or payload.get('status')} "
                               f"{payload.get('error', '')}")
                    continue
                phase.latencies_ms.append(elapsed_ms)
                responses.append((key, payload.get("metrics", {})))

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.busy_s += time.perf_counter() - start


def verify(serve: Serve, phase: Phase) -> None:
    """Every response must equal the same point solved in process."""
    from repro.errors import ReproError

    reference: Dict[Key, Optional[Tuple[int, int]]] = {}
    for key, metrics in serve.responses:
        if key not in reference:
            design, rate, flow, scale = key
            point = make_point(serve.spaces[design],
                               {"rate": rate, "flow": flow,
                                "pin_scale": scale})
            try:
                reference[key] = qor(solve(point))
            except ReproError as exc:
                reference[key] = None
                phase.fail(f"{key}: in-process solve failed: {exc}")
        if reference[key] is None:
            continue
        got = (metrics.get("total_pins"), metrics.get("latency"))
        if got != reference[key]:
            phase.fail(f"{key}: fleet answered pins/latency {got}, "
                       f"in-process {reference[key]}")
    serve.responses = []
