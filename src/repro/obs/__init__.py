"""``repro.obs`` — tracing, histogram metrics, Prometheus exposition.

The observability tier for the whole stack (solver → pipeline →
explorer → service → cluster front).  Three pieces:

* :mod:`repro.obs.trace` — structured spans with ambient parenting,
  deterministic sampling, a bounded ring buffer, mark/delta/merge
  across fork workers, and an optional JSONL export (``TRACER``);
* :mod:`repro.obs.metrics` — fixed-bucket histograms and gauges
  unified with the ``PerfRegistry`` counters (``HUB``);
* :mod:`repro.obs.prometheus` / :mod:`repro.obs.render` — the text
  exposition for ``/metrics`` and the ``repro trace`` span-tree view.

Importing this package installs a perf phase hook, so every existing
``PERF.phase(key)`` region (``flow.*``, ``simplex.solve_lp``,
``gomory.solve``, ``bnb.solve``) doubles as a span when tracing is on
— the solver layer needs no direct obs imports.  Configuration is via
:func:`configure` (the CLI's ``--trace`` / ``--trace-sample`` /
``--trace-export`` flags) or the ``REPRO_TRACE`` /
``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_EXPORT`` environment variables,
which also carry the settings into cluster shard subprocesses and
fork-pool workers.

Third parties instrument the same way the repo does::

    from repro.obs import span

    with span("my.stage", layer="app", widget=7) as s:
        ...
        s.set(result="ok")
"""

from __future__ import annotations

import os
from typing import Optional

from repro import perf as _perf
from repro.obs.context import (extract_headers, extract_payload,
                               inject_headers, inject_payload)
from repro.obs.metrics import (DEFAULT_BUCKETS_MS, HUB, Histogram,
                               MetricsHub)
from repro.obs.trace import (TRACER, Span, SpanContext, Tracer,
                             current_context, span)

__all__ = [
    "TRACER",
    "HUB",
    "Tracer",
    "Span",
    "SpanContext",
    "MetricsHub",
    "Histogram",
    "DEFAULT_BUCKETS_MS",
    "span",
    "current_context",
    "configure",
    "inject_payload",
    "extract_payload",
    "inject_headers",
    "extract_headers",
]


def _phase_hook(key: str):
    # Existing phase markers become spans: flow.* phases belong to the
    # pass pipeline, everything else (simplex/gomory/bnb) to the solver.
    layer = "pipeline" if key.startswith("flow.") else "solver"
    return TRACER.span(key, layer=layer)


_perf.set_phase_hook(_phase_hook)


def configure(enabled: Optional[bool] = None,
              sample_rate: Optional[float] = None,
              export_path: Optional[str] = None,
              sync_env: bool = True) -> None:
    """Configure the process-global tracer.

    With ``sync_env`` (the default) the settings are mirrored into
    ``REPRO_TRACE*`` environment variables so subprocesses spawned
    later — cluster shards, respawned pool workers — inherit them; the
    already-forked warm pool inherited the live objects at fork time.
    """
    TRACER.configure(enabled=enabled, sample_rate=sample_rate,
                     export_path=export_path)
    if not sync_env:
        return
    if enabled is not None:
        if enabled:
            os.environ["REPRO_TRACE"] = "1"
        else:
            os.environ.pop("REPRO_TRACE", None)
    if sample_rate is not None:
        os.environ["REPRO_TRACE_SAMPLE"] = repr(float(sample_rate))
    if export_path is not None:
        if export_path:
            os.environ["REPRO_TRACE_EXPORT"] = export_path
        else:
            os.environ.pop("REPRO_TRACE_EXPORT", None)
