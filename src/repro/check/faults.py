"""Deterministic fault schedules for service-path fuzz campaigns.

A :class:`FaultEvent` is pure data — ``(kind, at, arg)`` — drawn from
the same string-seeded streams as the fuzz cases themselves, so a
campaign case is fully described by ``(design, fault schedule)`` and
replays from the corpus byte-identically.  ``at`` indexes the request
inside the case's storm: the injector fires every event scheduled at
``i`` immediately before request ``i`` is launched.

The injector itself only *translates* events into calls on a harness
(kill this shard, truncate the cache file, stall the next client);
the harness — :mod:`repro.check.campaign` owns the live servers — is
handed in, so the fault model stays independent of how the fleet is
hosted.  ``finish()`` heals everything the schedule broke (restarts
killed shards, revives the cache server) so the post-case invariant
sweep always talks to a complete fleet.
"""

from __future__ import annotations

import random
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Fault kinds applicable to a single-service (``--serve``) campaign.
SERVE_KINDS = (
    "cache-kill",     # stop the shared cache server
    "cache-revive",   # bring it back on the same port
    "cache-torn",     # crash mid-append: torn cache + oracle tails
    "cache-corrupt",  # append a whole corrupt JSONL line
    "client-delay",   # stall before the next request (arg = ms)
    "client-drop",    # open a connection, send garbage, hang up
    "retry-storm",    # burst of no-wait fillers to provoke 429 sheds
)

#: Additional kinds for a ``--cluster`` campaign.
CLUSTER_KINDS = SERVE_KINDS + (
    "shard-kill",     # SIGTERM-equivalent: stop shard (arg = index)
    "shard-restart",  # restart a previously killed shard (arg = index)
)

_DELAYS_MS = (5, 10, 25, 50)
_STORM_SIZES = (4, 8, 12)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled perturbation (pure data, JSON round-trippable)."""

    kind: str
    at: int = 0
    arg: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"kind": self.kind, "at": self.at, "arg": self.arg}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(kind=str(data.get("kind", "")),
                   at=int(data.get("at", 0)),
                   arg=int(data.get("arg", 0)))


def generate_events(rng: random.Random, n_requests: int,
                    mode: str) -> Tuple[FaultEvent, ...]:
    """Draw a small fault schedule for one case (possibly empty)."""
    kinds = CLUSTER_KINDS if mode == "cluster" else SERVE_KINDS
    count = rng.choice((0, 1, 1, 2, 2, 3))
    events: List[FaultEvent] = []
    for _ in range(count):
        kind = rng.choice(kinds)
        at = rng.randrange(max(1, n_requests))
        if kind == "client-delay":
            arg = rng.choice(_DELAYS_MS)
        elif kind == "retry-storm":
            arg = rng.choice(_STORM_SIZES)
        elif kind in ("shard-kill", "shard-restart"):
            arg = rng.randrange(2)
        else:
            arg = 0
        events.append(FaultEvent(kind=kind, at=at, arg=arg))
    # Deterministic firing order within a request index.
    return tuple(sorted(events, key=lambda e: (e.at, e.kind, e.arg)))


class FaultInjector:
    """Binds a fault schedule to a live campaign harness.

    The harness duck-type (see ``CampaignHarness``):

    * ``kill_shard(i)`` / ``restart_shard(i)`` — no-ops in serve mode
    * ``kill_cache()`` / ``revive_cache()``
    * ``cache_file`` — backing JSONL path of the cache server
    * ``tear_oracle_files(fragment)`` — torn tail on every shard's
      pin-oracle store file
    * ``host`` / ``port`` — the front door clients talk to
    * ``storm(n)`` — fire ``n`` rapid no-wait filler submissions
    """

    def __init__(self, events: Sequence[FaultEvent], harness) -> None:
        self.events = tuple(events)
        self.harness = harness
        self.fired = 0
        self.delay_ms = 0.0
        self._killed_shards: set = set()
        self._cache_dead = False

    # ------------------------------------------------------------------
    def before_request(self, index: int) -> float:
        """Fire every event scheduled at ``index``.

        Returns the client-side delay (seconds) the caller should
        sleep before launching the request — delays stall the
        *launcher*, not the injector.
        """
        delay_s = 0.0
        for event in self.events:
            if event.at != index:
                continue
            self.fired += 1
            if event.kind == "client-delay":
                delay_s += event.arg / 1000.0
            else:
                self._fire(event)
        return delay_s

    def _fire(self, event: FaultEvent) -> None:
        h = self.harness
        if event.kind == "shard-kill":
            if h.kill_shard(event.arg):
                self._killed_shards.add(event.arg % h.n_shards)
        elif event.kind == "shard-restart":
            index = event.arg % max(1, h.n_shards)
            if index in self._killed_shards \
                    and h.restart_shard(index):
                self._killed_shards.discard(index)
        elif event.kind == "cache-kill":
            if h.kill_cache():
                self._cache_dead = True
        elif event.kind == "cache-revive":
            if self._cache_dead and h.revive_cache():
                self._cache_dead = False
        elif event.kind == "cache-torn":
            _append_bytes(h.cache_file,
                          b'{"v": 1, "key": "torn", "record":')
            h.tear_oracle_files(b'{"budgets":[1],"fp":[],"group":')
        elif event.kind == "cache-corrupt":
            _append_bytes(h.cache_file, b"not json at all\n")
        elif event.kind == "client-drop":
            _drop_connection(h.host, h.port)
        elif event.kind == "retry-storm":
            h.storm(event.arg)

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Heal everything this schedule broke."""
        for index in sorted(self._killed_shards):
            self.harness.restart_shard(index)
        self._killed_shards.clear()
        if self._cache_dead:
            self.harness.revive_cache()
            self._cache_dead = False

    # -- bookkeeping the invariant checker reads -----------------------
    @property
    def shard_kills(self) -> int:
        return sum(1 for e in self.events if e.kind == "shard-kill")

    @property
    def disruptive(self) -> bool:
        """Whether the schedule can legitimately surface shed/refusal
        errors to a retrying client (as opposed to pure perturbation a
        healthy fleet must absorb silently)."""
        return any(e.kind in ("shard-kill", "cache-kill",
                              "retry-storm")
                   for e in self.events)


# ---------------------------------------------------------------------
def _append_bytes(path: Optional[str], data: bytes) -> None:
    """Simulate a crashed writer: raw bytes straight into the file."""
    if not path:
        return
    try:
        with open(path, "ab") as handle:
            handle.write(data)
    except OSError:
        pass


def _drop_connection(host: str, port: int) -> None:
    """Open a connection, send a truncated request, hang up."""
    try:
        with socket.create_connection((host, port), timeout=1.0) as s:
            s.sendall(b"POST /v1/synthesize HTTP/1.1\r\n"
                      b"Content-Length: 9999\r\n\r\n{\"des")
    except OSError:
        pass
