"""Persistent, content-addressed result cache for explorer sweeps.

Stdlib-only JSON-lines store: one line per solved point, keyed by the
canonical content hash from :mod:`repro.explore.keys`.  Append-only —
re-runs and overlapping sweeps skip any point whose key is already
present, which is what makes iterating on a sweep spec cheap (only the
new corner of the grid is synthesized).

The file follows the :mod:`repro.jsonl` contract.  On top of it:

* a line also needs ``key`` and ``record``, else it counts as corrupt;
  the last line for a key wins;
* only *completed* records (``ok`` / ``degraded``) are persisted:
  ``error`` and ``budget_exhausted`` outcomes depend on the carved
  deadline of that particular run and must be retried, not replayed;
* ``sync=True`` (opt-in; the synthesis service uses it) fsyncs every
  append, so an acknowledged write survives a killed process — the
  default stays buffered because sweep re-runs can always re-solve;
* :meth:`ResultCache.compact` atomically rewrites the file down to the
  live index: the append-only, last-write-wins format means long-lived
  multi-writer caches accumulate dead duplicate lines that cost load
  time but carry no information.
"""

from __future__ import annotations

import copy
import os
import threading
from typing import Any, Dict, Iterator, Optional, Tuple

from repro import jsonl

#: Record line format version.
CACHE_VERSION = 1

#: ``--cache`` specs with this prefix mount the cluster's shared cache
#: server instead of a local file (see :func:`open_result_cache`).
REMOTE_SCHEME = "remote://"

#: Statuses worth persisting (see module docstring).
CACHEABLE_STATUSES = ("ok", "degraded")


class ResultCache:
    """In-memory index over an (optional) JSON-lines cache file."""

    def __init__(self, path: Optional[str] = None,
                 sync: bool = False) -> None:
        self.path = path
        self.sync = bool(sync)
        self._index: Dict[str, Dict[str, Any]] = {}
        #: Serializes put() appends against compact()'s read-merge-
        #: replace window so a concurrent append cannot be dropped.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.corrupt_lines = 0
        if path is not None and os.path.exists(path):
            self._index = self._read_index(path)[0]

    # ------------------------------------------------------------------
    def _read_index(self, path: str
                    ) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """The file's index (last write wins per key) and its non-blank
        line count; bad lines are added to ``corrupt_lines``."""
        entries, skipped = jsonl.read(path, CACHE_VERSION)
        lines = len(entries) + skipped
        index: Dict[str, Dict[str, Any]] = {}
        for entry in entries:
            try:
                index[entry["key"]] = entry["record"]
            except (KeyError, TypeError):
                skipped += 1
        self.corrupt_lines += skipped
        return index, lines

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Deep copy of the cached record, counting hit/miss."""
        record = self._index.get(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return copy.deepcopy(record)

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Persist a completed record; returns True if newly stored."""
        if record.get("status") not in CACHEABLE_STATUSES:
            return False
        # Per-run bookkeeping and the oracle-store delta do not belong
        # in the cache: they describe one process's solve, not the
        # result.
        stored = {k: v for k, v in record.items()
                  if k not in ("cached", "oracle_delta")}
        stored = copy.deepcopy(stored)
        with self._lock:
            if key in self._index:
                return False
            self._index[key] = stored
            if self.path is not None:
                jsonl.append(self.path, {"v": CACHE_VERSION, "key": key,
                                         "record": stored},
                             sync=self.sync)
        return True

    def items(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        return iter(self._index.items())

    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, Any]:
        """Atomically rewrite the file down to the live records.

        Dead lines come from two places: another writer appending a key
        this process had already written (each side's in-memory index
        misses the other's line), and corrupt/truncated lines left by a
        killed run.  Compaction re-reads the file *under the append
        lock* and merges it with the in-memory index — so records
        appended concurrently (by another thread of this process, or by
        another process sharing the file) survive with last-write-wins
        semantics — then rewrites the file atomically with one line per
        live entry (:func:`repro.jsonl.rewrite`): readers either see the
        old file or the compacted one, never a partial rewrite.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> Dict[str, Any]:
        summary = {
            "path": self.path,
            "lines_before": 0,
            "entries": len(self._index),
            "removed": 0,
            "compacted": False,
        }
        if self.path is None:
            return summary
        exists = os.path.exists(self.path)
        if not exists and not self._index:
            return summary
        merged: Dict[str, Dict[str, Any]] = {}
        if exists:
            # The file is the authority on concurrent appends; index
            # entries missing from it (lost file, foreign truncation)
            # are added back on top.
            merged, summary["lines_before"] = self._read_index(self.path)
        for key, record in self._index.items():
            merged.setdefault(key, record)
        jsonl.rewrite(self.path, ({"v": CACHE_VERSION, "key": key,
                                   "record": record}
                                  for key, record in merged.items()))
        self._index = merged
        self.corrupt_lines = 0
        summary["entries"] = len(merged)
        summary["removed"] = max(
            0, summary["lines_before"] - len(merged))
        summary["compacted"] = True
        return summary

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._index),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (round(self.hits / lookups, 4)
                         if lookups else 0.0),
            "corrupt_lines": self.corrupt_lines,
        }


# ---------------------------------------------------------------------
def open_result_cache(spec: Optional[str],
                      sync: bool = False) -> ResultCache:
    """Build a cache from a ``--cache``-style spec.

    A plain path (or None) opens a local :class:`ResultCache`;
    ``remote://host:port`` mounts the cluster's shared cache server
    through :class:`repro.cluster.cache_client.ReadThroughCache`, which
    is itself a ResultCache — so the explorer, the service, and the
    cluster shards all consume whichever backend the spec names
    through one interface.
    """
    if spec is not None and spec.startswith(REMOTE_SCHEME):
        from repro.cluster.cache_client import ReadThroughCache
        return ReadThroughCache(spec[len(REMOTE_SCHEME):])
    return ResultCache(spec, sync=sync)
