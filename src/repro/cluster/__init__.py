"""Sharded multi-node service tier.

Scales the single-node synthesis service (:mod:`repro.service`) to a
fleet while keeping its core economy — solve each distinct problem
once — fleet-wide:

* :mod:`repro.cluster.ring` — consistent hashing with virtual nodes;
  every request's content key has exactly one owner shard, so
  per-shard coalescing composes to fleet-wide exactly-once solving,
  and removing a shard only remaps that shard's keys.
* :mod:`repro.cluster.protocol` / :mod:`~repro.cluster.cache_server` /
  :mod:`~repro.cluster.cache_client` — a length-prefixed-JSON cache
  protocol over the JSONL :class:`~repro.explore.cache.ResultCache`,
  plus the ``remote://host:port`` read-through layer every shard (and
  the front) mounts, so one shard's solve is every shard's cache hit.
* :mod:`repro.cluster.front` — the routing front tier: each
  synthesize request goes straight to its owner shard (after a peek
  at the shared cache), sweeps split by owner, drain/death failover,
  and fleet metrics aggregation.
* :mod:`repro.cluster.supervisor` — ``repro cluster --shards N``:
  spawn cache server + shards + front as one supervised tree with a
  graceful SIGTERM drain.

The front and the cache server have no server module of their own:
both are tiers of the service's listener (:mod:`repro.service.server`),
so ``repro serve``, ``repro cluster`` and ``repro cache-server`` share
one connection loop per protocol, one thread harness
(:class:`ThreadedFrontTier`, :class:`ThreadedCacheServer`) and one
signal-drain runner.
"""

from repro.cluster.cache_client import (CacheClient, CacheClientError,
                                        ReadThroughCache,
                                        parse_address)
from repro.cluster.cache_server import (CacheServer,
                                        ThreadedCacheServer,
                                        serve_cache)
from repro.cluster.front import (ClusterConfig, FrontTier,
                                 ShardAddress, ShardState,
                                 ThreadedFrontTier)
from repro.cluster.protocol import (CACHE_PROTOCOL, ProtocolError,
                                    recv_frame, send_frame)
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing, ring_position
from repro.cluster.supervisor import free_port, serve_cluster

__all__ = [
    "CACHE_PROTOCOL",
    "CacheClient",
    "CacheClientError",
    "CacheServer",
    "ClusterConfig",
    "DEFAULT_REPLICAS",
    "FrontTier",
    "HashRing",
    "ProtocolError",
    "ReadThroughCache",
    "ShardAddress",
    "ShardState",
    "ThreadedCacheServer",
    "ThreadedFrontTier",
    "free_port",
    "parse_address",
    "recv_frame",
    "ring_position",
    "send_frame",
    "serve_cache",
    "serve_cluster",
]
