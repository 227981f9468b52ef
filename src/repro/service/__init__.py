"""Long-running synthesis service: an async job server over the flows.

Every other entry point (``repro.synthesize()``, the CLI, ``repro
explore``) is a one-shot process; this package is the serving layer
that amortizes warm state across requests:

* :class:`ServiceConfig` — frozen server knobs
  (:mod:`repro.service.jobs`);
* :class:`SynthesisService` — admission queue with deadline-aware load
  shedding, request coalescing keyed by
  :func:`repro.explore.keys.job_key`, the shared persistent
  :class:`~repro.explore.cache.ResultCache`, the warm
  :class:`~repro.service.pool.WorkerPool`, and its own
  :class:`repro.perf.PerfRegistry` of counters, latency histograms and
  gauges (:mod:`repro.service.app`);
* :func:`serve` / :class:`ThreadedServer` — the service behind the
  one listener every tier shares (:mod:`repro.service.server`: one
  HTTP loop, one thread harness, one signal-drain runner), answering
  ``POST /v1/synthesize``, ``POST /v1/sweep``, ``GET /v1/jobs/<id>``,
  ``GET /healthz`` and ``GET /metrics`` through
  :meth:`SynthesisService.handle`, with graceful SIGTERM drain;
* :class:`ServiceClient` — the stdlib client used by tests, CI smoke,
  and the benchmark (:mod:`repro.service.client`).

Responses conform to ``docs/schema/service_response.schema.json``.
"""

from repro.service.app import (RESPONSE_SCHEMA, ShedRequest,
                               SynthesisService, job_response)
from repro.service.client import (ServiceClient, ServiceError,
                                  ServiceUnavailable, backoff_delay_s,
                                  parse_retry_after)
from repro.service.jobs import (Job, JobStore, ServiceConfig,
                                ShardIdentity)
from repro.service.pool import WorkerPool
from repro.service.server import ThreadedServer, serve

__all__ = [
    "ServiceConfig",
    "SynthesisService",
    "ShedRequest",
    "RESPONSE_SCHEMA",
    "job_response",
    "Job",
    "JobStore",
    "WorkerPool",
    "ThreadedServer",
    "serve",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "ShardIdentity",
    "backoff_delay_s",
    "parse_retry_after",
]
