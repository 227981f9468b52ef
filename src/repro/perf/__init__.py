"""The one metrics class: counters, phase timings, histograms, gauges.

A :class:`PerfRegistry` holds four sections:

* integer **counters** — pivots, cuts, cache hits, ...; the serving
  tiers count their requests the same way;
* **phase timings** — wall seconds accumulated per ``phase(key)``
  region.  Every phase is also a trace span: ``flow.*`` keys in the
  ``pipeline`` layer, every other key in the ``solver`` layer;
* fixed-bucket **histograms** (``observe``) of millisecond latencies;
* point-in-time **gauges**.

The process-global ``PERF`` counts the solver stack.  The hot paths pay
one dict increment per event, so the counters stay on even in
production runs, and ``benchmarks/run_all.py`` serializes
``snapshot``/``delta_since`` pairs into ``BENCH_ilp.json`` so successive
PRs have a perf trajectory.  The serving tiers own their registries
(``SynthesisService.metrics``, ``FrontTier.metrics``).

Only counters and timings cross processes: ``snapshot``,
``delta_since`` and ``merge`` carry those two sections, which is the
``record["perf"]`` a pool worker ships back.  Histograms and gauges
stay in the process that owns them.

:meth:`PerfRegistry.scope` gives one solve its own exact counts: while
the block runs, whatever this context (thread or asyncio task) records
on the registry also lands in the scoped one, so solves running side
by side on a thread pool never count each other's work.

Counter namespaces used across the repo:

* ``tableau.*``  — pivot counts and undo-log rollbacks
  (:mod:`repro.ilp.tableau`);
* ``gomory.*``   — cuts, pivots, probe/commit counts
  (:mod:`repro.ilp.gomory`);
* ``simplex.*``  — LP solves (:mod:`repro.ilp.simplex`);
* ``bnb.*``      — branch & bound nodes (:mod:`repro.ilp.branch_bound`);
* ``pin.*``      — feasibility-oracle checks and cache hits
  (:mod:`repro.core.pin_allocation`).

Phase timers follow the same naming; flows record ``flow.simple`` /
``flow.connection_first`` / ``flow.schedule_first``.
"""

from __future__ import annotations

import bisect
import contextvars
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Dict, Iterable, Iterator, List, Mapping,
                    Sequence, Tuple)

from repro.obs.trace import TRACER

__all__ = ["PerfRegistry", "PERF", "Histogram", "DEFAULT_BUCKETS_MS"]

#: Default latency buckets (milliseconds): sub-ms solver phases up to
#: multi-second cluster sweeps.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000)

#: The scopes open in this context, outermost first, each as a
#: ``(registry, scoped registry it feeds)`` pair.
_SCOPES: contextvars.ContextVar[Tuple[Tuple["PerfRegistry",
                                            "PerfRegistry"], ...]] = (
    contextvars.ContextVar("repro_perf_scopes", default=()))


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum, count, max.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the overflow (``+Inf``) bucket.  Counts are *per-bucket*, not
    cumulative — the Prometheus renderer cumulates on the way out.
    Not locked itself; the owning :class:`PerfRegistry` serializes
    access.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS_MS
                 ) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.max = max(self.max, value)

    def quantile(self, fraction: float) -> float:
        """Bucket-interpolated quantile (the Prometheus
        ``histogram_quantile`` rule), capped at the largest value."""
        if not self.count:
            return 0.0
        rank = fraction * self.count
        seen, lower = 0, 0.0
        for upper, count in zip(self.bounds + (self.max,), self.counts):
            if count and seen + count >= rank:
                return min(self.max, lower
                           + (upper - lower) * (rank - seen) / count)
            seen += count
            lower = upper
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class PerfRegistry:
    """Counters, phase timings, histograms and gauges.

    Thread-safe: a ``/metrics`` scrape reads the registry while
    warm-pool workers increment it, so every mutation and every read of
    the underlying dicts is guarded by an ``RLock``.  The lock is
    uncontended in single-threaded runs and an order of magnitude
    cheaper than the work between ticks, so the hot paths keep paying
    one increment per event.

    ``counters`` names counters that start at zero, so a snapshot never
    misses them.
    """

    __slots__ = ("counters", "timings", "histograms", "_gauges", "_lock")

    def __init__(self, counters: Iterable[str] = ()) -> None:
        self.counters: Dict[str, int] = defaultdict(
            int, dict.fromkeys(counters, 0))
        self.timings: Dict[str, float] = defaultdict(float)
        self.histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, float] = {}
        self._lock = threading.RLock()

    # -- counters and phase timings -------------------------------------
    def inc(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount
        for source, scoped in _SCOPES.get():
            if source is self:
                with scoped._lock:
                    scoped.counters[key] += amount

    @contextmanager
    def phase(self, key: str) -> Iterator[None]:
        """Accumulate wall time under ``timings[key]``, inside a span."""
        layer = "pipeline" if key.startswith("flow.") else "solver"
        with TRACER.span(key, layer=layer):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.merge({"timings": {
                    key: time.perf_counter() - start}})

    @contextmanager
    def scope(self) -> Iterator["PerfRegistry"]:
        """Count this context's share of the registry into a fresh one.

        While the block runs, every ``inc``, phase time and ``merge``
        made on this registry from this context also lands in the
        yielded registry.  Scopes nest: an event reaches every scope
        open around it.
        """
        scoped = PerfRegistry()
        token = _SCOPES.set(_SCOPES.get() + ((self, scoped),))
        try:
            yield scoped
        finally:
            _SCOPES.reset(token)

    # -- histograms and gauges ------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation; creates the histogram (default ms
        buckets) on first use."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauges(self, values: Mapping[str, Any]) -> None:
        """Set several gauges at once, skipping None values."""
        with self._lock:
            for name, value in values.items():
                if value is not None:
                    self._gauges[name] = float(value)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def ema(self, name: str, value: float) -> None:
        """Fold ``value`` into gauge ``name`` as an exponential moving
        average (weight 0.2); a gauge still at 0.0 takes the value."""
        with self._lock:
            current = self._gauges.get(name, 0.0)
            self._gauges[name] = (0.8 * current + 0.2 * float(value)
                                  if current else float(value))

    def latency(self, name: str) -> Dict[str, float]:
        """Count, p50, p95, max and mean (ms) of histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name) or Histogram()
            return {
                "count": hist.count,
                "p50_ms": round(hist.quantile(0.50), 3),
                "p95_ms": round(hist.quantile(0.95), 3),
                "max_ms": round(hist.max, 3),
                "mean_ms": (round(hist.sum / hist.count, 3)
                            if hist.count else 0.0),
            }

    def obs_snapshot(self) -> Dict[str, Any]:
        """Histograms and gauges: the ``obs`` section of ``/metrics``."""
        with self._lock:
            return {"histograms": {name: hist.snapshot() for name, hist
                                   in self.histograms.items()},
                    "gauges": dict(self._gauges)}

    # -- the cross-process half: counters and timings -------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        # Counters are integers by contract; coerce on the way out so a
        # float that slipped in via ``inc(amount=...)`` cannot drift the
        # serialized snapshots that cross process boundaries.
        with self._lock:
            return {
                "counters": {k: int(v) for k, v in self.counters.items()},
                "timings": {k: float(v) for k, v in self.timings.items()},
            }

    def delta_since(self, before: Mapping[str, Mapping[str, float]]
                    ) -> Dict[str, Dict[str, float]]:
        """Counters/timings accumulated since ``before = snapshot()``."""
        prev_c = before.get("counters", {})
        prev_t = before.get("timings", {})
        with self._lock:
            counters = {k: int(v) - int(prev_c.get(k, 0))
                        for k, v in self.counters.items()
                        if int(v) - int(prev_c.get(k, 0))}
            timings = {k: v - prev_t.get(k, 0.0)
                       for k, v in self.timings.items()
                       if v - prev_t.get(k, 0.0) > 0.0}
        return {"counters": counters, "timings": timings}

    def merge(self, other) -> None:
        """Fold another registry (or a snapshot/delta dict) into this one.

        This is the cross-process aggregation primitive: pool workers
        ship ``record["perf"]`` dicts back over the process boundary
        (where JSON may have turned counters into floats), and the
        parent merges them so a sweep's solver effort is attributable
        as if it had run in one process.  Counters stay integers;
        timings stay floats.
        """
        if isinstance(other, PerfRegistry):
            other = other.snapshot()
        with self._lock:
            for key, value in (other.get("counters") or {}).items():
                self.counters[key] += int(round(value))
            for key, value in (other.get("timings") or {}).items():
                self.timings[key] += float(value)
        for source, scoped in _SCOPES.get():
            if source is self:
                scoped.merge(other)

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timings.clear()
            self.histograms.clear()
            self._gauges.clear()


#: Process-global registry; cheap enough to leave always on.
PERF = PerfRegistry()
