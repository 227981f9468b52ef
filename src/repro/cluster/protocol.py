"""Length-prefixed JSON framing for the shared-cache protocol.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding a single object.  Requests
carry ``{"op": ..., "schema_version": ...}`` plus op-specific fields;
responses carry ``{"ok": true/false, "schema": "repro-cache/1",
"schema_version": ...}`` plus results.  The version gate mirrors
:func:`repro.io_json.check_schema_version`: a peer speaking a *newer*
schema than this process understands is refused loudly instead of
being misread.

Both sides of the protocol live here — async stream helpers for the
server (:mod:`repro.cluster.cache_server`) and blocking socket helpers
for the client (:mod:`repro.cluster.cache_client`) — so the frame
format cannot drift between them.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.io_json import SCHEMA_VERSION

#: Protocol identifier stamped on every response.
CACHE_PROTOCOL = "repro-cache/1"

#: Hard bound on one frame; a synthesis record is a few KB, so this is
#: generous headroom, not a tuning knob.
MAX_FRAME_BYTES = 16 << 20

_HEADER = struct.Struct(">I")


class ProtocolError(ReproError):
    """Malformed, truncated, or oversized frame."""


# ---------------------------------------------------------------------
def encode_frame(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_body(data: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, "
            f"got {type(obj).__name__}")
    return obj


def check_frame_version(obj: Dict[str, Any]) -> Optional[str]:
    """None if the peer's schema_version is acceptable, else why not."""
    version = obj.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        return f"schema_version must be an integer, got {version!r}"
    if version > SCHEMA_VERSION:
        return (f"peer speaks cache schema_version {version}, newer "
                f"than supported {SCHEMA_VERSION}; upgrade this side")
    return None


# -- asyncio side ------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader
                     ) -> Optional[Dict[str, Any]]:
    """One frame from a stream; None on clean EOF between frames."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated frame header") from None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("truncated frame body") from None
    return decode_body(data)


async def write_frame(writer: asyncio.StreamWriter,
                      obj: Dict[str, Any]) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# -- blocking-socket side ---------------------------------------------
def send_frame(sock: socket.socket, obj: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exactly(sock: socket.socket, count: int,
                  eof_ok: bool) -> Optional[bytes]:
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks += chunk
    return chunks


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One frame from a socket; None on clean EOF between frames."""
    header = _recv_exactly(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    data = _recv_exactly(sock, length, eof_ok=False)
    assert data is not None
    return decode_body(data)
