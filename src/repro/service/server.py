"""One listener for every serving tier.

``repro serve`` (the synthesis service), ``repro cluster`` (the front
tier) and ``repro cache-server`` all reach the network through this
module.  A *tier* is an object that supplies:

* ``start()`` — a coroutine run before the socket opens (the service
  warms its pool, the front probes its shards);
* ``handle(method, path, body, headers=, query=)`` — one parsed HTTP
  request in, ``(status, payload, extra headers)`` out; or, for a tier
  that does not speak HTTP, its own connection callback
  ``on_connect(tier, reader, writer)``;
* ``drain()`` — a coroutine run after the socket closes (finish
  in-flight work, release what ``start`` took).

On it sit:

* :func:`serve_http` — the one stdlib HTTP/1.1 keep-alive loop
  (request line + headers + ``Content-Length`` body, until the client
  closes or says ``Connection: close``);
* :func:`listening` — start the tier, open the socket, and on exit
  close the socket, then drain the tier;
* :class:`ThreadedListener` — the daemon-thread harness behind
  :class:`ThreadedServer`, ``ThreadedFrontTier`` and
  ``ThreadedCacheServer`` (tests, benchmarks, the fault campaign;
  ``port=0`` picks a free port, readable as ``.port`` once started);
* :func:`run_until_signalled` — the blocking path behind
  :func:`serve`, ``serve_cluster`` and ``serve_cache``: serve until
  SIGTERM/SIGINT, then drain and print the tier's drain line.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import (Any, AsyncIterator, Awaitable, Callable, Dict,
                    Optional, Tuple)
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.prometheus import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.service.app import SynthesisService
from repro.service.jobs import ServiceConfig

#: How long a harness waits for its tier to come up, and to drain.
HARNESS_TIMEOUT_S = 60.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``on_connect(tier, reader, writer)``: one connection's whole life.
ConnectionLoop = Callable[[Any, asyncio.StreamReader,
                           asyncio.StreamWriter], Awaitable[None]]


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------
async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _HttpError(400, f"{what} too long") from None


async def _read_request(reader: asyncio.StreamReader, max_body: int
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Parse one request; None on a cleanly closed connection."""
    line = await _read_line(reader, "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader, "header line")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            return None
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length > max_body:
        raise _HttpError(413, f"body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length > 0 else b""
    return method, target, headers, body


def _json_object(body: bytes) -> Optional[Dict[str, Any]]:
    """The body as a JSON object; None for anything else (no body,
    bytes that are not UTF-8, nesting too deep for the parser), which
    the tier answers with a 400 where it needs a body."""
    try:
        parsed = json.loads(body)
    except (ValueError, RecursionError):
        return None
    return parsed if isinstance(parsed, dict) else None


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload: Any,
                          extra_headers: Dict[str, str],
                          keep_alive: bool) -> None:
    if isinstance(payload, str):
        # Pre-rendered text body (Prometheus exposition).
        body = payload.encode("utf-8")
        content_type = PROM_CONTENT_TYPE
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}"
                 for name, value in extra_headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                 + body)
    await writer.drain()


async def serve_http(tier: Any, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
    """One keep-alive HTTP/1.1 connection into ``tier.handle``."""
    while True:
        try:
            request = await _read_request(reader,
                                          tier.config.max_body_bytes)
        except _HttpError as exc:
            await _write_response(
                writer, exc.status,
                {"schema": "repro-service-error/1",
                 "error": str(exc)}, {}, keep_alive=False)
            return
        if request is None:
            return
        method, target, headers, body = request
        keep_alive = headers.get(
            "connection", "keep-alive").lower() != "close"
        parts = urlsplit(target)
        try:
            status, payload, extra = await tier.handle(
                method, parts.path, _json_object(body), headers=headers,
                query=parts.query)
        except Exception as exc:  # keep the listener alive
            status, payload, extra = 500, {
                "schema": "repro-service-error/1",
                "error": f"{type(exc).__name__}: {exc}"}, {}
        await _write_response(writer, status, payload, extra,
                              keep_alive)
        if not keep_alive:
            return


async def _connection(on_connect: ConnectionLoop, tier: Any,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
    try:
        await on_connect(tier, reader, writer)
    except (ConnectionResetError, BrokenPipeError,
            asyncio.IncompleteReadError):
        pass
    except asyncio.CancelledError:
        # Loop shutdown while parked on a keep-alive read.  Swallowing
        # the cancellation lets the task finish cleanly, so asyncio's
        # client_connected_cb callback has no exception to log.
        pass
    finally:
        with contextlib.suppress(Exception, asyncio.CancelledError):
            writer.close()
            await writer.wait_closed()


@contextlib.asynccontextmanager
async def listening(tier: Any, host: str, port: int,
                    on_connect: ConnectionLoop = serve_http
                    ) -> AsyncIterator[int]:
    """Serve ``tier`` for the body of the block; yields the bound port.

    The tier starts *before* the socket opens, so the service's pool
    forks while this process is still quiet (no threads mid-lock) and
    the front's first ``/healthz`` already reflects a real shard probe.
    On exit the socket closes first, then the tier drains; a socket
    that fails to open drains the started tier too.
    """
    await tier.start()
    try:
        server = await asyncio.start_server(
            lambda r, w: _connection(on_connect, tier, r, w), host, port)
        try:
            yield server.sockets[0].getsockname()[1]
        finally:
            server.close()
            await server.wait_closed()
    finally:
        await tier.drain()


def run_until_signalled(build: Callable[[], Any], host: str, port: int,
                        banner: Callable[[int], str],
                        drained: Callable[[Any], str],
                        draining: Optional[str] = None,
                        on_connect: ConnectionLoop = serve_http) -> None:
    """Blocking: serve the tier ``build()`` makes until SIGTERM/SIGINT.

    Prints ``banner(port)`` once listening, ``draining`` (if given)
    when the signal lands, and ``drained(tier)`` after the drain.
    """

    async def _main() -> None:
        tier = build()
        async with listening(tier, host, port, on_connect) as bound:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without signals
            print(banner(bound), flush=True)
            await stop.wait()
            if draining is not None:
                print(draining, flush=True)
        print(drained(tier), flush=True)

    asyncio.run(_main())


# ---------------------------------------------------------------------
class ThreadedListener:
    """Serve one tier from a daemon thread on its own event loop.

    ``build`` runs on that loop, so the tier's loop-bound state
    belongs to it.  ``start`` returns once the socket is open;
    ``stop`` drains the tier and joins the thread.
    """

    def __init__(self, build: Callable[[], Any], host: str, port: int,
                 label: str,
                 on_connect: ConnectionLoop = serve_http) -> None:
        self.host = host
        self.port: Optional[int] = None
        self.tier: Any = None
        self._build = build
        self._bind_port = port
        self._label = label
        self._on_connect = on_connect
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "ThreadedListener":
        """Start the tier's thread; returns once it listens."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro {self._label}")
        self._thread.start()
        if not self._started.wait(timeout=HARNESS_TIMEOUT_S):
            raise ReproError(f"{self._label} thread failed to start "
                             "in time")
        if self._error is not None:
            raise ReproError(
                f"{self._label} failed to start: {self._error}") \
                from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures
            self._error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.tier = self._build()
        async with listening(self.tier, self.host, self._bind_port,
                             self._on_connect) as port:
            self.port = port
            self._started.set()
            await self._stop.wait()

    def stop(self, timeout_s: float = HARNESS_TIMEOUT_S) -> None:
        """Request a graceful drain and join the thread."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout_s)

    def __enter__(self) -> "ThreadedListener":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------
class ThreadedServer(ThreadedListener):
    """Run a service in a daemon thread (tests and benchmarks)."""

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__(lambda: SynthesisService(config), config.host,
                         config.port, "service")

    @property
    def service(self) -> SynthesisService:
        return self.tier


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``; 0 on clean drain."""

    def drained(service: SynthesisService) -> str:
        counters = service.metrics.snapshot()["counters"]
        return (f"drained cleanly: accepted={counters['accepted']} "
                f"coalesced={counters['coalesced']} "
                f"shed={counters['shed']} "
                f"completed={counters['completed']}")

    run_until_signalled(
        lambda: SynthesisService(config), config.host, config.port,
        banner=lambda port: (
            f"repro service listening on {config.host}:{port} "
            f"(workers={config.workers}, mode={config.pool_mode}, "
            f"max_queue={config.max_queue}, "
            f"cache={config.cache_path or 'memory'})"),
        draining="draining: finishing in-flight jobs ...",
        drained=drained)
    return 0
