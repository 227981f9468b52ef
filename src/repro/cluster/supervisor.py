"""``repro cluster``: spawn and supervise a whole cluster locally.

One command brings up the full tree on one machine:

* a **cache server** subprocess (``repro cache-server``) backed by the
  shared JSONL result cache;
* N **shard** subprocesses (``repro serve``) with their ring seat
  flags set and their caches mounted ``remote://`` on the cache
  server, so every shard reads through — and writes back to — the same
  store;
* the **front tier** in this process, ring-routing requests over the
  shards.

SIGTERM/SIGINT drain the tree in dependency order: the front stops
admitting and finishes in-flight proxying, then each shard drains its
pool, then the cache server flushes and exits.  Ports default to
OS-assigned free ports so parallel clusters (CI matrix jobs, tests)
never collide; only the front port is user-facing.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import repro
from repro.errors import ReproError
from repro.cluster.cache_client import CacheClient, CacheClientError
from repro.cluster.front import ClusterConfig, FrontTier, ShardAddress
from repro.service.client import ServiceClient
from repro.service.server import run_until_signalled


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for an unused TCP port (bind-to-zero trick)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _child_env() -> dict:
    """Child processes must resolve ``repro`` the same way we did.

    The full environment rides along, which is also how observability
    config reaches the shards: ``repro cluster --trace`` mirrors its
    settings into ``REPRO_TRACE*`` (see :func:`repro.obs.configure`),
    so every shard subprocess traces with the same sample rate and
    appends to the same JSONL export (O_APPEND keeps lines atomic).
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    return env


def _spawn(argv: List[str]) -> subprocess.Popen:
    # Children inherit stdout/stderr so one `repro cluster` log carries
    # the whole tree (the CI smoke job greps it).
    return subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                            env=_child_env())


def _wait_cache(host: str, port: int, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            client = CacheClient(host, port, timeout_s=2.0)
            try:
                client.ping()
                return
            finally:
                client.close()
        except (OSError, CacheClientError):
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"cache server at {host}:{port} not ready after "
                    f"{timeout_s:.0f}s") from None
            time.sleep(0.1)


def _terminate(label: str, proc: subprocess.Popen,
               timeout_s: float = 60.0) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(10.0)
        print(f"warning: {label} did not drain within "
              f"{timeout_s:.0f}s; killed", flush=True)
        return 1


def serve_cluster(shards: int = 2, host: str = "127.0.0.1",
                  port: int = 8770, workers_per_shard: int = 1,
                  max_queue: int = 64, pool: str = "process",
                  timeout_ms: float = 30000.0,
                  cache_path: Optional[str] = None,
                  oracle_path: Optional[str] = None,
                  batch_window_ms: float = 10.0) -> int:
    """Blocking entry point for ``repro cluster``; 0 on clean drain."""
    if shards < 1:
        raise ReproError(f"need at least one shard, got {shards}")
    children: List[Tuple[str, subprocess.Popen]] = []

    def _fail_fast(message: str) -> None:
        for _label, proc in reversed(children):
            if proc.poll() is None:
                proc.kill()
                proc.wait(10.0)
        raise ReproError(message)

    cache_port = free_port(host)
    cache_argv = ["cache-server", "--host", host,
                  "--port", str(cache_port)]
    if cache_path:
        cache_argv += ["--path", cache_path]
    children.append(("cache-server", _spawn(cache_argv)))
    try:
        _wait_cache(host, cache_port)
    except ReproError as exc:
        _fail_fast(str(exc))

    addresses: List[ShardAddress] = []
    for index in range(shards):
        shard_port = free_port(host)
        name = f"shard-{index}"
        argv = ["serve", "--host", host, "--port", str(shard_port),
                "--workers", str(workers_per_shard),
                "--max-queue", str(max_queue), "--pool", pool,
                "--timeout-ms", str(timeout_ms),
                "--cache", f"remote://{host}:{cache_port}",
                "--shard-name", name, "--shard-index", str(index),
                "--shard-count", str(shards)]
        if oracle_path:
            argv += ["--oracle-cache", f"{oracle_path}.{name}"]
        children.append((name, _spawn(argv)))
        addresses.append(ShardAddress(name, host, shard_port))
    for address in addresses:
        try:
            ServiceClient(address.host, address.port).wait_until_ready(
                timeout_s=120.0)
        except (OSError, ReproError):
            _fail_fast(f"shard {address.name} at {address.host}:"
                       f"{address.port} never became ready")

    config = ClusterConfig(shards=tuple(addresses), host=host,
                           port=port,
                           cache_address=f"{host}:{cache_port}",
                           batch_window_ms=batch_window_ms,
                           default_timeout_ms=timeout_ms)

    def drained(front: FrontTier) -> str:
        counters = front.metrics.snapshot()["counters"]
        return (f"cluster drained cleanly: "
                f"requests={counters['requests']} "
                f"proxied={counters['proxied']} "
                f"batched={counters['batched']} "
                f"front_coalesced={counters['front_coalesced']} "
                f"failovers={counters['failovers']}")

    exit_code = 0
    try:
        run_until_signalled(
            lambda: FrontTier(config), config.host, config.port,
            banner=lambda bound: (
                f"repro cluster listening on {config.host}:{bound} "
                f"(shards={shards}, workers_per_shard="
                f"{workers_per_shard}, pool={pool}, "
                f"cache={host}:{cache_port} "
                f"[{cache_path or 'memory'}])"),
            draining=("draining cluster: front first, then shards, "
                      "then cache ..."),
            drained=drained)
    finally:
        # Drain in reverse dependency order: shards before the cache
        # server they write through.
        for label, proc in reversed(children):
            if _terminate(label, proc) != 0:
                exit_code = 1
    return exit_code
