"""Shared result-cache server: one ResultCache, many shards.

A tier of the one listener (:mod:`repro.service.server`) that speaks
the length-prefixed JSON protocol of :mod:`repro.cluster.protocol`, not
HTTP, over one :class:`repro.explore.cache.ResultCache`: it plugs its
framed connection loop, :meth:`CacheServer.serve_connection`, into the
listener that the service and the front share, and uses the same
thread harness (:class:`ThreadedCacheServer`) and signal-drain runner
(:func:`serve_cache`).  Every solver shard mounts
it through :class:`repro.cluster.cache_client.ReadThroughCache`, so a
point solved by any shard is a cache hit for the whole fleet — which
is what lets the front tier route by content key without ever
re-solving work another shard already finished.

Operations (all requests carry ``schema_version``; newer-than-known
versions are refused):

``ping``     liveness + entry count
``get``      ``{"key"}`` -> ``{"found", "record"}``
``put``      ``{"key", "record"}`` -> ``{"stored"}`` — the cache's own
             rules apply: only ``ok``/``degraded`` records persist
``compact``  rewrite the JSONL file down to the live index
``stats``    cache stats + server counters

Cache file I/O happens inline on the event loop: appends are one
``O_APPEND`` write of a few KB, which is far below the scheduling
noise of the solves whose results they store.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.explore.cache import ResultCache
from repro.io_json import SCHEMA_VERSION
from repro.cluster.protocol import (CACHE_PROTOCOL, ProtocolError,
                                    check_frame_version, read_frame,
                                    write_frame)
from repro.service.server import ThreadedListener, run_until_signalled

#: Server-side counters reported by the ``stats`` op.
SERVER_COUNTERS = ("connections", "gets", "hits", "puts", "stored",
                   "compactions", "errors")


class CacheServer:
    """A ResultCache behind the framed protocol, listening on
    ``host``:``port`` (0 picks a free port)."""

    def __init__(self, cache: ResultCache, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.cache = cache
        self.host = host
        self.port = port
        self.counters: Dict[str, int] = {n: 0 for n in SERVER_COUNTERS}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Nothing to warm: the index loaded with the ResultCache."""

    async def drain(self) -> None:
        """Nothing to finish: every put is appended inside its request."""

    async def serve_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        while True:
            try:
                request = await read_frame(reader)
            except ProtocolError as exc:
                await write_frame(writer, self._error(str(exc)))
                return
            if request is None:
                return
            await write_frame(writer, self.dispatch(request))

    # ------------------------------------------------------------------
    def _ok(self, **fields: Any) -> Dict[str, Any]:
        out = {"ok": True, "schema": CACHE_PROTOCOL,
               "schema_version": SCHEMA_VERSION}
        out.update(fields)
        return out

    def _error(self, message: str) -> Dict[str, Any]:
        self.counters["errors"] += 1
        return {"ok": False, "schema": CACHE_PROTOCOL,
                "schema_version": SCHEMA_VERSION, "error": message}

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request object -> one response object (pure, testable)."""
        complaint = check_frame_version(request)
        if complaint is not None:
            return self._error(complaint)
        op = request.get("op")
        if op == "ping":
            return self._ok(entries=len(self.cache))
        if op == "get":
            key = request.get("key")
            if not isinstance(key, str) or not key:
                return self._error("get needs a non-empty string 'key'")
            self.counters["gets"] += 1
            record = self.cache.get(key)
            if record is not None:
                self.counters["hits"] += 1
            return self._ok(found=record is not None, record=record)
        if op == "put":
            key = request.get("key")
            record = request.get("record")
            if not isinstance(key, str) or not key:
                return self._error("put needs a non-empty string 'key'")
            if not isinstance(record, dict):
                return self._error("put needs an object 'record'")
            self.counters["puts"] += 1
            stored = self.cache.put(key, record)
            if stored:
                self.counters["stored"] += 1
            return self._ok(stored=stored)
        if op == "compact":
            self.counters["compactions"] += 1
            return self._ok(summary=self.cache.compact())
        if op == "stats":
            return self._ok(stats=self.cache.stats(),
                            server=dict(self.counters))
        return self._error(f"unknown op {op!r}")


# ---------------------------------------------------------------------
def serve_cache(path: Optional[str], host: str = "127.0.0.1",
                port: int = 8769, sync: bool = True) -> int:
    """Blocking entry point for ``repro cache-server``; 0 on drain."""
    server = CacheServer(ResultCache(path, sync=sync), host, port)
    run_until_signalled(
        lambda: server, server.host, server.port,
        banner=lambda bound: (
            f"repro cache server listening on {host}:{bound} "
            f"(path={path or 'memory'}, entries={len(server.cache)})"),
        drained=lambda tier: (
            f"cache server drained cleanly: entries={len(tier.cache)} "
            f"gets={tier.counters['gets']} "
            f"hits={tier.counters['hits']} "
            f"stored={tier.counters['stored']}"),
        on_connect=CacheServer.serve_connection)
    return 0


# ---------------------------------------------------------------------
class ThreadedCacheServer(ThreadedListener):
    """Run a cache server in a daemon thread (tests and benchmarks)."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.cache = cache if cache is not None else ResultCache()
        server = CacheServer(self.cache, host, port)
        super().__init__(lambda: server, server.host, server.port,
                         "cache server",
                         on_connect=CacheServer.serve_connection)
