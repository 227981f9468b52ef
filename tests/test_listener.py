"""The one listener every tier shares: malformed input, blocking runner.

Malformed requests go over raw sockets to a real service and a real
front (both behind :func:`repro.service.server.serve_http`), and
malformed frames to a real cache server: each must get an error answer
and leave the listener serving, with nothing for asyncio to log.  The
blocking runner is driven as ``repro serve`` and ``repro
cache-server`` subprocesses: read the port from the banner, make one
request, SIGTERM, and expect the drain line and exit 0.
"""

import logging
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.core.oracle_store import get_active
from repro.errors import ReproError
from repro.cluster import (CacheClient, ClusterConfig, ShardAddress,
                           ThreadedCacheServer, ThreadedFrontTier,
                           recv_frame)
from repro.service import ServiceClient, ServiceConfig, ThreadedServer

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def canned_runner(payload):
    return {"status": "ok", "key": payload.get("key", ""),
            "metrics": {"chips": 2, "buses": 3, "total_pins": 100,
                        "latency": 6, "wall_ms": 1.0},
            "stats": {}, "wall_ms": 1.0}


def exchange(port, request):
    """Send one raw request; return every byte until the server
    closes the connection."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post(body):
    return (b"POST /v1/synthesize HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n"
            % len(body)) + body


MALFORMED = {
    # One header line past the 64 KiB stream limit.
    "long-header-line": (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                         b"X-Padding: " + b"a" * 70_000 + b"\r\n\r\n"),
    "body-not-utf8": post(b'{"design": "\xff"}'),
    "body-nested-too-deep": post(b"[" * 100_000),
}


@pytest.fixture(params=["service", "front"])
def port(request):
    shard = ThreadedServer(ServiceConfig(
        port=0, workers=1, pool_mode="thread", cache_sync=False,
        job_runner=canned_runner)).start()
    front = None
    try:
        if request.param == "front":
            front = ThreadedFrontTier(ClusterConfig(
                shards=(ShardAddress("shard-0", "127.0.0.1",
                                     shard.port),),
                port=0)).start()
            yield front.port
        else:
            yield shard.port
    finally:
        if front is not None:
            front.stop()
        shard.stop()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_is_400_and_listener_lives(port, case,
                                                     caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    response = exchange(port, MALFORMED[case])
    assert response.startswith(b"HTTP/1.1 400 "), response[:200]
    assert b"repro-service-error/1" in response
    # The listener still answers, and asyncio had nothing to log.
    assert ServiceClient(port=port).health()["live"] is True
    assert not [r for r in caplog.records if r.name == "asyncio"]


@pytest.mark.parametrize("body", [b"not json", b"[" * 100_000],
                         ids=["not-json", "nested-too-deep"])
def test_malformed_frame_is_one_error_and_listener_lives(body, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    with ThreadedCacheServer() as served:
        with socket.create_connection(("127.0.0.1", served.port),
                                      timeout=10.0) as sock:
            sock.sendall(len(body).to_bytes(4, "big") + body)
            assert recv_frame(sock)["ok"] is False
        client = CacheClient("127.0.0.1", served.port)
        try:
            assert client.stats()["server"]["errors"] == 1
        finally:
            client.close()
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_port_in_use_fails_start_and_drains_the_tier():
    previous = get_active()
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        server = ThreadedServer(ServiceConfig(
            port=blocker.getsockname()[1], workers=1,
            pool_mode="thread", job_runner=canned_runner))
        with pytest.raises(ReproError, match="failed to start"):
            server.start()
    # The started service drained: its oracle store is no longer the
    # process-wide one.
    assert get_active() is previous


# ---------------------------------------------------------------------
def _ping_service(port):
    client = ServiceClient(port=port)
    client.wait_until_ready(timeout_s=30.0)
    assert client.health()["status"] == "ok"


def _ping_cache(port):
    client = CacheClient("127.0.0.1", port)
    try:
        assert client.ping()["entries"] == 0
    finally:
        client.close()


@pytest.mark.parametrize("argv, drain_line, ping", [
    (["serve", "--port", "0", "--pool", "thread", "--workers", "1"],
     "drained cleanly: accepted=0", _ping_service),
    (["cache-server", "--port", "0"],
     "cache server drained cleanly: entries=0", _ping_cache),
], ids=["serve", "cache-server"])
def test_blocking_runner_drains_on_sigterm(tmp_path, argv, drain_line,
                                           ping):
    log_path = tmp_path / "server.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                                stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=str(tmp_path))
    try:
        deadline = time.monotonic() + 60.0
        match = None
        while match is None:
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.05)
            match = re.search(r"listening on [\d.]+:(\d+) ",
                              log_path.read_text())
        ping(int(match.group(1)))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 0, log_path.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10.0)
    output = log_path.read_text()
    assert drain_line in output, output
    assert "Traceback" not in output, output
