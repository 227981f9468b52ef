"""Prometheus text exposition (format 0.0.4) for ``/metrics`` payloads.

The service and cluster-front ``/metrics`` endpoints keep their JSON
documents as the primary, schema-governed surface; these renderers map
those same documents to the Prometheus line format so a stock scraper
can consume them — content negotiation picks the representation.

Conventions:

* service / front counters  → ``repro_service_<name>_total`` /
  ``repro_front_<name>_total`` counters;
* merged solver counters    → ``repro_perf_counter_total{key="..."}``
  (one family with a ``key`` label, not one family per counter — the
  registry namespace is open-ended);
* merged phase timings      → ``repro_perf_phase_seconds_total{key=...}``;
* the tier's histograms     → ``repro_<name>`` histograms with
  cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` series;
* the tier's gauges         → ``repro_<name>`` gauges;
* per-shard cluster gauges  → ``repro_shard_<name>{shard="..."}``.

Each series has one home, so no line repeats (the 0.0.4 format leaves
ingestion undefined when one does): a value the tier keeps as a gauge
(``service.queue_depth``, ``front.ema_job_ms``, ``cluster.inflight``,
...) is rendered from the ``obs`` section only, even where the JSON
document repeats it in a tier section for its own readers.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "render_service_metrics",
    "render_cluster_metrics",
    "CONTENT_TYPE",
]

#: Content-Type answered for the text exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _name(raw: str) -> str:
    name = _NAME_RE.sub("_", str(raw))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _label_value(raw: Any) -> str:
    return str(raw).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _labels(labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_LABEL_RE.sub("_", str(k))}="{_label_value(v)}"'
        for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _value(value: Any) -> str:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Writer:
    """Accumulates exposition lines, emitting TYPE once per family."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def sample(self, family: str, kind: str, value: Any,
               labels: Optional[Mapping[str, Any]] = None,
               suffix: str = "") -> None:
        family = _name(family)
        if family not in self._typed:
            self.lines.append(f"# TYPE {family} {kind}")
            self._typed.add(family)
        self.lines.append(
            f"{family}{suffix}{_labels(labels)} {_value(value)}")

    def counter(self, family: str, value: Any,
                labels: Optional[Mapping[str, Any]] = None) -> None:
        self.sample(family, "counter", value, labels)

    def gauge(self, family: str, value: Any,
              labels: Optional[Mapping[str, Any]] = None) -> None:
        self.sample(family, "gauge", value, labels)

    def histogram(self, family: str, snap: Mapping[str, Any],
                  labels: Optional[Mapping[str, Any]] = None) -> None:
        """Emit cumulative buckets + sum + count for one histogram
        snapshot (per-bucket counts; see :class:`repro.perf.Histogram`)."""
        family = _name(family)
        if family not in self._typed:
            self.lines.append(f"# TYPE {family} histogram")
            self._typed.add(family)
        bounds = list(snap.get("buckets", []))
        counts = list(snap.get("counts", []))
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += int(count)
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = _value(bound)
            self.lines.append(f"{family}_bucket{_labels(bucket_labels)} "
                              f"{cumulative}")
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = "+Inf"
        total = int(snap.get("count", cumulative))
        self.lines.append(f"{family}_bucket{_labels(bucket_labels)} "
                          f"{total}")
        self.lines.append(f"{family}_sum{_labels(labels)} "
                          f"{_value(snap.get('sum', 0.0))}")
        self.lines.append(f"{family}_count{_labels(labels)} {total}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else "\n"


def _numeric(value: Any) -> bool:
    return isinstance(value, bool) or isinstance(value, (int, float))


def _render_obs(writer: _Writer, obs: Any) -> None:
    """Render a tier registry's histograms/gauges (``obs`` section)."""
    if not isinstance(obs, dict):
        return
    for hist_name, snap in sorted(
            (obs.get("histograms") or {}).items()):
        writer.histogram(f"repro_{hist_name}", snap)
    for gauge_name, value in sorted((obs.get("gauges") or {}).items()):
        writer.gauge(f"repro_{gauge_name}", value)


def _render_perf(writer: _Writer, perf: Mapping[str, Any]) -> None:
    for key, value in sorted((perf.get("counters") or {}).items()):
        writer.counter("repro_perf_counter_total", value, {"key": key})
    for key, value in sorted((perf.get("timings") or {}).items()):
        writer.sample("repro_perf_phase_seconds_total", "counter",
                      value, {"key": key})


def _render_stats_gauges(writer: _Writer, prefix: str,
                         stats: Mapping[str, Any]) -> None:
    for key, value in sorted(stats.items()):
        if _numeric(value):
            writer.gauge(f"{prefix}_{key}", value)


def _render_latency(writer: _Writer, prefix: str,
                    latency: Mapping[str, Any]) -> None:
    for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms")):
        if key in latency:
            writer.gauge(f"{prefix}_latency_ms", latency[key],
                         {"quantile": quantile})
    if "max_ms" in latency:
        writer.gauge(f"{prefix}_latency_max_ms", latency["max_ms"])
    if "count" in latency:
        writer.gauge(f"{prefix}_latency_window_count",
                     latency["count"])


def render_service_metrics(payload: Mapping[str, Any]) -> str:
    """Prometheus text for a ``repro-service-metrics/1`` document."""
    writer = _Writer()
    service = payload.get("service", {})
    for counter, value in sorted(
            (service.get("counters") or {}).items()):
        writer.counter(f"repro_service_{counter}_total", value)
    writer.gauge("repro_service_draining",
                 1 if service.get("draining") else 0)
    writer.gauge("repro_service_jobs_retained",
                 service.get("jobs_retained", 0))
    _render_latency(writer, "repro_service",
                    service.get("latency") or {})
    workers = payload.get("workers", {})
    writer.gauge("repro_service_workers", workers.get("count", 0))
    for section, prefix in (("cache", "repro_cache"),
                            ("oracle", "repro_oracle")):
        stats = payload.get(section)
        if isinstance(stats, dict):
            _render_stats_gauges(writer, prefix, stats)
    _render_perf(writer, payload.get("perf") or {})
    _render_obs(writer, payload.get("obs"))
    tracer = payload.get("tracer")
    if isinstance(tracer, dict):
        writer.gauge("repro_tracer_enabled",
                     1 if tracer.get("enabled") else 0)
        writer.counter("repro_tracer_spans_total",
                       tracer.get("recorded", 0))
        writer.counter("repro_tracer_dropped_total",
                       tracer.get("dropped", 0))
    return writer.text()


def render_cluster_metrics(payload: Mapping[str, Any]) -> str:
    """Prometheus text for a ``repro-cluster-metrics/1`` document,
    including the per-shard auto-scaling gauges."""
    writer = _Writer()
    front = payload.get("front", {})
    for counter, value in sorted((front.get("counters") or {}).items()):
        writer.counter(f"repro_front_{counter}_total", value)
    _render_latency(writer, "repro_front", front.get("latency") or {})
    cluster = payload.get("cluster", {})
    for counter, value in sorted(
            (cluster.get("counters") or {}).items()):
        writer.counter(f"repro_cluster_{counter}_total", value)
    for gauge in ("workers", "shards"):
        if gauge in cluster:
            writer.gauge(f"repro_cluster_{gauge}", cluster[gauge])
    if "latency_p95_ms" in cluster:
        writer.gauge("repro_cluster_latency_p95_ms",
                     cluster["latency_p95_ms"])
    # Per-shard gauges: everything shard auto-scaling needs, labeled.
    for shard_name, entry in sorted(
            (payload.get("shards") or {}).items()):
        if not isinstance(entry, dict):
            continue
        labels = {"shard": shard_name}
        up = bool(entry.get("healthy")) and not entry.get("draining")
        writer.gauge("repro_shard_up", 1 if up else 0, labels)
        writer.gauge("repro_shard_draining",
                     1 if entry.get("draining") else 0, labels)
        for gauge in ("queue_depth", "inflight", "workers"):
            if gauge in entry:
                writer.gauge(f"repro_shard_{gauge}", entry[gauge],
                             labels)
        if "ema_job_ms" in entry:
            writer.gauge("repro_shard_ema_job_ms",
                         entry["ema_job_ms"], labels)
    cache = payload.get("cache")
    if isinstance(cache, dict):
        _render_stats_gauges(writer, "repro_front_cache", cache)
    _render_obs(writer, payload.get("obs"))
    return writer.text()
