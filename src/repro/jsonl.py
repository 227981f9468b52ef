"""Durable JSON-lines files: the one writer and reader of every JSONL
file the system appends to.  Each record is a canonical JSON object on
its own line; a torn last line (a writer killed mid-line) costs only
itself.  The contract is in DESIGN.md, "Durable JSONL files"; what a
record means, and what a missing file means, stay with the caller.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.io_json import canonical_dumps

__all__ = ["append", "read", "rewrite"]


def append(path: str, obj: Dict[str, Any], sync: bool = False) -> None:
    """Append ``obj`` as one line, creating the file when missing;
    ``sync`` fsyncs it before returning."""
    data = (canonical_dumps(obj) + "\n").encode("ascii")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data  # torn tail: give up only the fragment
        if os.write(fd, data) != len(data):
            raise OSError(f"short write appending to {path}")
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read(path: str, version: Optional[int] = None
         ) -> Tuple[List[Dict[str, Any]], int]:
    """The file's objects in order, and the count of lines skipped for
    not being JSON objects (or, given ``version``, for another ``"v"``).
    Blank lines are ignored; a missing file raises FileNotFoundError."""
    objs: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if isinstance(obj, dict) and (
                    version is None or obj.get("v") == version):
                objs.append(obj)
            else:
                skipped += 1
    return objs, skipped


def rewrite(path: str, objs: Iterable[Dict[str, Any]]) -> None:
    """Replace the file with one line per object (how a log is
    compacted): write a temp file beside it, fsync, ``os.replace``."""
    tmp_path = f"{path}.compact.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp_path, "w", encoding="ascii") as handle:
            for obj in objs:
                handle.write(canonical_dumps(obj) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
