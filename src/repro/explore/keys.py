"""Canonical content hashing for explorer cache keys.

A sweep point is fully determined by *what is being synthesized*: the
CDFG, the partitioning (pin budgets, port model), the initiation rate,
the resolved synthesis options, the timing library, and any explicit
resource vector.  :func:`job_key` hashes the canonical JSON form of
exactly that tuple, so:

* the same point re-run in another process (or on another machine)
  maps to the same cache entry — canonical dumps are insertion-order
  and ``PYTHONHASHSEED`` independent;
* two sweeps that overlap share cache entries for the overlap;
* options a flow never reads are *normalized away* before hashing
  (:func:`options_fingerprint`), so e.g. a ``schedule-first`` point is
  cached once no matter which ``branching_factor`` the grid happened to
  carry alongside it.

The graph is by far the largest part of that tuple, so its canonical
form is serialized once per graph object (:func:`canonical_graph`, one
memo slot on the graph, dropped by any mutation, built from the
graph's one shared :func:`repro.io_json.shared_graph_dict` form) and
shared by :func:`graph_digest` and :func:`job_key`; the hashed bytes
are those of the whole payload's canonical dump, exactly.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional

from repro.cdfg.graph import Cdfg
from repro.core.flow import SynthesisOptions
from repro.io_json import (canonical_dumps, partitioning_to_dict,
                           shared_graph_dict)

#: Option fields each concrete flow actually reads; everything else is
#: dropped from the fingerprint so irrelevant grid axes do not split
#: cache entries.  ``auto`` keeps every field (its dispatch outcome
#: depends on the design, so nothing is provably irrelevant).
_FLOW_FIELDS = {
    "simple": ("pin_method", "scheduler"),
    "connection-first": ("branching_factor", "reassignment",
                         "subbus_sharing", "share_groups",
                         "slot_reserve", "conditional_sharing",
                         "scheduler"),
    "schedule-first": ("pipe_length", "bidirectional"),
}


def options_fingerprint(options: SynthesisOptions) -> Dict[str, Any]:
    """The flow-relevant subset of the options, as plain data.

    Scheduler spellings are canonicalized against the backend registry
    first, so a point swept under a deprecated alias shares its cache
    entry with the canonical name.
    """
    from repro.pipeline.registry import resolve_scheduler
    data = options.to_dict()
    data["scheduler"] = resolve_scheduler(data["scheduler"])
    fields = _FLOW_FIELDS.get(options.flow)
    if fields is None:
        return data
    out: Dict[str, Any] = {"flow": options.flow}
    for field in fields:
        out[field] = data[field]
    return out


def resources_fingerprint(resources: Optional[Mapping]) -> Optional[Dict]:
    """Resource vectors keyed ``(chip, op)`` -> plain ``"chip:op"``."""
    if resources is None:
        return None
    out: Dict[str, int] = {}
    for key, count in resources.items():
        if isinstance(key, tuple):
            key = f"{key[0]}:{key[1]}"
        out[str(key)] = int(count)
    return out


def canonical_graph(graph: Cdfg) -> str:
    """The graph's canonical JSON, memoized on the graph (one slot,
    dropped by any mutation) so it is serialized once per distinct
    graph object."""
    return graph.memo("canonical", None,
                      lambda: canonical_dumps(shared_graph_dict(graph)))


def graph_digest(graph: Cdfg) -> str:
    """sha256 hex of the graph's canonical form, memoized on the graph
    like the form itself."""
    return graph.memo("digest", None, lambda: hashlib.sha256(
        canonical_graph(graph).encode("utf-8")).hexdigest())


def job_key(graph, partitioning, rate: int,
            options: SynthesisOptions,
            timing: str = "ar",
            resources: Optional[Mapping] = None) -> str:
    """Content hash (sha256 hex) identifying one sweep point."""
    rest = {
        "v": 1,
        "partitioning": partitioning_to_dict(partitioning),
        "rate": int(rate),
        "timing": timing,
        "options": options_fingerprint(options),
        "resources": resources_fingerprint(resources),
    }
    # The hashed bytes are canonical_dumps() of the whole payload, with
    # the graph under "graph".  That key sorts first, so the dump is
    # '{"graph":' + the graph's canonical form + ',' + the dump of the
    # rest without its opening brace.
    blob = ('{"graph":' + canonical_graph(graph) + ","
            + canonical_dumps(rest)[1:])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
