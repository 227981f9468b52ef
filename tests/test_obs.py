"""Observability primitives: tracer, histograms, exposition, render.

These exercise the :mod:`repro.obs` layer in isolation — ambient span
parenting, the deterministic sampler, the PerfRegistry-shaped
mark/delta/merge path, the registry's histogram bucket arithmetic and
gauges, the Prometheus text renderer, and the ``repro trace`` tree
renderer.  End-to-end
propagation across fork workers and cluster hops lives in
``test_obs_propagation.py``.
"""

import json

import pytest

from repro.obs import TRACER, SpanContext, configure
from repro.obs.context import (extract_headers, extract_payload,
                               inject_headers, inject_payload)
from repro.obs.prometheus import (render_cluster_metrics,
                                  render_service_metrics)
from repro.obs.render import build_traces, load_spans, render_file
from repro.obs.trace import (PARENT_HEADER, SAMPLED_HEADER,
                             TRACE_HEADER, Tracer)
from repro.perf import Histogram, PerfRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.configure(enabled=False, sample_rate=1.0, export_path="")
    TRACER.reset()
    yield
    TRACER.configure(enabled=False, sample_rate=1.0, export_path="")
    TRACER.reset()


def enable(**kwargs):
    configure(enabled=True, sync_env=False, **kwargs)


# ---------------------------------------------------------------------
class TestTracer:
    def test_disabled_is_a_null_span(self):
        with TRACER.span("work") as sp:
            sp.set(key="value")  # must not raise
        assert TRACER.spans() == []
        assert sp.context is None and not sp.sampled

    def test_nesting_builds_a_tree(self):
        enable()
        with TRACER.span("root", layer="pipeline", flow="auto") as root:
            with TRACER.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        spans = TRACER.spans()
        assert [s["name"] for s in spans] == ["child", "root"]
        assert spans[1]["parent_id"] is None
        assert spans[1]["attrs"] == {"flow": "auto"}
        assert spans[1]["layer"] == "pipeline"
        assert all(s["status"] == "ok" for s in spans)

    def test_exception_marks_status_error(self):
        enable()
        with pytest.raises(ValueError):
            with TRACER.span("boom"):
                raise ValueError("nope")
        (span,) = TRACER.spans()
        assert span["status"] == "error"

    def test_deterministic_sampling_is_exact(self):
        enable(sample_rate=0.25)
        for _ in range(8):
            with TRACER.span("root"):
                with TRACER.span("child"):
                    pass
        spans = TRACER.spans()
        # Exactly 2 of 8 roots sampled, children follow their root.
        assert sum(1 for s in spans if s["name"] == "root") == 2
        assert sum(1 for s in spans if s["name"] == "child") == 2

    def test_unsampled_root_suppresses_descendants(self):
        enable(sample_rate=0.0)
        with TRACER.span("root") as root:
            assert not root.sampled
            # The unsampled decision propagates: nothing to send on.
            assert TRACER.current_dict() is None
            assert TRACER.current_headers() == {}
            with TRACER.span("child") as child:
                assert not child.sampled
        assert TRACER.spans() == []

    def test_mark_delta_merge_round_trip(self):
        enable()
        with TRACER.span("before"):
            pass
        mark = TRACER.mark()
        with TRACER.span("after"):
            pass
        delta = TRACER.spans_since(mark)
        assert [s["name"] for s in delta] == ["after"]
        assert "seq" not in delta[0]

        other = Tracer()
        other.configure(enabled=True)
        assert other.merge(delta) == 1
        assert [s["name"] for s in other.spans()] == ["after"]
        # Garbage entries are skipped, not crashed on.
        assert other.merge([None, {}, {"trace_id": "t"}]) == 0

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(ring_size=4)
        tracer.configure(enabled=True)
        for i in range(6):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.stats()["dropped"] == 2
        assert tracer.stats()["recorded"] == 6

    def test_attach_parents_under_foreign_context(self):
        enable()
        ctx = {"trace_id": "aaaa000000000001",
               "span_id": "bbbb000000000001", "sampled": True}
        with TRACER.attach(ctx):
            with TRACER.span("adopted"):
                pass
        (span,) = TRACER.spans()
        assert span["trace_id"] == "aaaa000000000001"
        assert span["parent_id"] == "bbbb000000000001"

    def test_attach_none_and_disabled_are_noops(self):
        with TRACER.attach(None):
            assert TRACER.current() is None
        enable()
        with TRACER.attach(None):
            assert TRACER.current() is None


class TestContextPropagation:
    def test_payload_round_trip(self):
        enable()
        with TRACER.span("submit") as sp:
            payload = inject_payload({"design": "x"})
            assert payload["trace"]["trace_id"] == sp.trace_id
        ctx = extract_payload(payload)
        assert isinstance(ctx, SpanContext)
        assert ctx.span_id == sp.span_id
        assert extract_payload({"design": "x"}) is None

    def test_payload_not_stamped_when_disabled(self):
        payload = inject_payload({"design": "x"})
        assert "trace" not in payload

    def test_header_round_trip(self):
        enable()
        with TRACER.span("request") as sp:
            headers = inject_headers({"content-type": "x"})
            assert headers[TRACE_HEADER] == sp.trace_id
            assert headers[PARENT_HEADER] == sp.span_id
            assert headers[SAMPLED_HEADER] == "1"
        ctx = extract_headers(headers)
        assert ctx.trace_id == sp.trace_id
        assert extract_headers({}) is None
        assert extract_headers(None) is None


# ---------------------------------------------------------------------
class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram(bounds=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)

    def test_values_on_a_bound_land_in_that_bucket(self):
        hist = Histogram(bounds=(1, 10, 100))
        for value in (1, 10, 100, 100.5):
            hist.observe(value)
        assert hist.snapshot()["counts"] == [1, 1, 1, 1]

    def test_quantiles_interpolate_within_buckets(self):
        hist = Histogram(bounds=(10, 20))
        assert hist.quantile(0.5) == 0.0
        for value in (12, 14, 16, 18):
            hist.observe(value)
        # All four in (10, 20]: the median sits half-way through it.
        assert hist.quantile(0.5) == pytest.approx(15.0)
        # Never above the largest observation.
        assert hist.quantile(0.95) == pytest.approx(18.0)
        hist.observe(50)  # overflow: interpolates up to the max
        assert hist.quantile(1.0) == pytest.approx(50.0)


class TestMetricsHub:
    """The cases of the hub class ``PerfRegistry`` absorbed, run against
    the registry itself."""

    def test_histograms_and_gauges(self):
        registry = PerfRegistry()
        registry.observe("solve_ms", 12.0)
        registry.observe("solve_ms", 700.0)
        registry.gauge("queue_depth", 3)
        registry.gauges({"inflight": 2, "skipped": None})
        snap = registry.obs_snapshot()
        assert snap["histograms"]["solve_ms"]["count"] == 2
        assert snap["gauges"] == {"queue_depth": 3.0, "inflight": 2.0}
        assert registry.gauge_value("inflight") == 2.0
        assert registry.gauge_value("missing") == 0.0

    def test_counters_delegate_to_perf(self):
        registry = PerfRegistry(counters=("idle",))
        registry.inc("jobs", 3)
        with registry.phase("solve"):
            pass
        snap = registry.snapshot()
        assert snap["counters"] == {"idle": 0, "jobs": 3}
        assert "solve" in snap["timings"]

    def test_delta_carries_no_histograms_or_gauges(self):
        registry = PerfRegistry()
        registry.inc("jobs")
        before = registry.snapshot()
        registry.observe("solve_ms", 5.0)
        registry.inc("jobs")
        registry.gauge("queue_depth", 9)
        delta = registry.delta_since(before)
        assert delta == {"counters": {"jobs": 1}, "timings": {}}
        target = PerfRegistry()
        target.merge(registry)
        assert target.obs_snapshot() == {"histograms": {}, "gauges": {}}

    def test_latency_block_and_ema(self):
        registry = PerfRegistry()
        assert registry.latency("job_ms") == {
            "count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0,
            "mean_ms": 0.0}
        for value in (3.0, 4.0, 8.0):
            registry.observe("job_ms", value)
            registry.ema("ema_ms", value)
        block = registry.latency("job_ms")
        assert block["count"] == 3
        assert block["max_ms"] == 8.0
        assert block["mean_ms"] == 5.0
        assert 2.0 <= block["p50_ms"] <= block["p95_ms"] <= 8.0
        # The first value seeds the average; later ones weigh 0.2.
        assert registry.gauge_value("ema_ms") == pytest.approx(
            0.8 * (0.8 * 3.0 + 0.2 * 4.0) + 0.2 * 8.0)

    def test_reset_clears_all_four_sections(self):
        registry = PerfRegistry()
        registry.inc("jobs")
        with registry.phase("solve"):
            pass
        registry.observe("solve_ms", 1.0)
        registry.gauge("depth", 1)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timings": {}}
        assert registry.obs_snapshot() == {"histograms": {},
                                           "gauges": {}}


# ---------------------------------------------------------------------
class TestPerfPhaseHook:
    def test_perf_phase_emits_a_span(self):
        enable()
        from repro.perf import PERF
        with TRACER.span("root"):
            with PERF.phase("gomory.solve"):
                pass
            with PERF.phase("flow.simple"):
                pass
        spans = {s["name"]: s for s in TRACER.spans()}
        assert spans["gomory.solve"]["layer"] == "solver"
        assert spans["flow.simple"]["layer"] == "pipeline"
        assert spans["gomory.solve"]["parent_id"] \
            == spans["root"]["span_id"]

    def test_perf_phase_still_times_when_disabled(self):
        from repro.perf import PERF
        before = PERF.snapshot()
        with PERF.phase("obs.test.phase"):
            pass
        delta = PERF.delta_since(before)
        assert "obs.test.phase" in delta["timings"]
        assert TRACER.spans() == []


# ---------------------------------------------------------------------
class TestPrometheus:
    def test_service_rendering(self):
        payload = {
            "service": {"counters": {"accepted": 3, "shed": 1},
                        "queue_depth": 2, "inflight": 1,
                        "draining": False, "jobs_retained": 4,
                        "ema_job_ms": 12.5,
                        "latency": {"p50_ms": 5.0, "p95_ms": 9.0,
                                    "max_ms": 11.0, "count": 3}},
            "workers": {"count": 2, "mode": "process"},
            "cache": {"hits": 5, "misses": 2},
            "oracle": {"entries": 7},
            "perf": {"counters": {"tableau.pivots": 42},
                     "timings": {"gomory.solve": 0.25}},
            "obs": {"histograms": {"service.job_wall_ms": {
                        "buckets": [1, 10], "counts": [1, 2, 1],
                        "sum": 30.0, "count": 4}},
                    "gauges": {"service.queue_depth": 2}},
            "tracer": {"enabled": True, "recorded": 9, "dropped": 0},
        }
        text = render_service_metrics(payload)
        assert "# TYPE repro_service_accepted_total counter" in text
        assert "repro_service_accepted_total 3" in text
        assert "repro_service_queue_depth 2" in text
        assert 'repro_perf_counter_total{key="tableau.pivots"} 42' \
            in text
        assert "# TYPE repro_service_job_wall_ms histogram" in text
        # Cumulative buckets: [1, 3], +Inf carries the total.
        assert 'repro_service_job_wall_ms_bucket{le="1"} 1' in text
        assert 'repro_service_job_wall_ms_bucket{le="10"} 3' in text
        assert 'repro_service_job_wall_ms_bucket{le="+Inf"} 4' in text
        assert "repro_service_job_wall_ms_count 4" in text
        assert 'repro_service_latency_ms{quantile="0.95"} 9' in text
        assert "repro_tracer_enabled 1" in text
        assert text.endswith("\n")

    def test_cluster_rendering_has_per_shard_gauges(self):
        payload = {
            "front": {"counters": {"requests": 10, "proxied": 8},
                      "ema_job_ms": 3.0, "latency": {"p95_ms": 7.0}},
            "cluster": {"counters": {"accepted": 8}, "queue_depth": 1,
                        "inflight": 2, "workers": 4, "shards": 2,
                        "shards_healthy": 1, "latency_p95_ms": 9.5},
            "shards": {
                "shard-0": {"healthy": True, "draining": False,
                            "queue_depth": 1, "inflight": 2,
                            "workers": 2, "ema_job_ms": 4.5},
                "shard-1": {"healthy": False, "draining": True},
            },
            "cache": {"hits": 3},
            # The cluster gauges' Prometheus home is the front's own
            # registry, as in a real ``build_metrics`` document.
            "obs": {"histograms": {}, "gauges": {
                "front.tasks_inflight": 0,
                "cluster.queue_depth": 1, "cluster.inflight": 2}},
        }
        text = render_cluster_metrics(payload)
        assert "repro_front_requests_total 10" in text
        assert "repro_cluster_queue_depth 1" in text
        assert "repro_cluster_inflight 2" in text
        assert 'repro_shard_up{shard="shard-0"} 1' in text
        assert 'repro_shard_up{shard="shard-1"} 0' in text
        assert 'repro_shard_draining{shard="shard-1"} 1' in text
        assert 'repro_shard_queue_depth{shard="shard-0"} 1' in text
        assert 'repro_shard_ema_job_ms{shard="shard-0"} 4.5' in text
        assert "repro_front_cache_hits 3" in text
        assert "repro_front_tasks_inflight 0" in text

    def test_names_and_label_values_are_escaped(self):
        payload = {"service": {"counters": {"weird-name": 1}},
                   "perf": {"counters": {'k"ey\n': 2}}}
        text = render_service_metrics(payload)
        assert "repro_service_weird_name_total 1" in text
        assert 'repro_perf_counter_total{key="k\\"ey\\n"} 2' in text


# ---------------------------------------------------------------------
class TestTraceRender:
    def _export(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        enable(export_path=path)
        with TRACER.span("request", layer="front"):
            with TRACER.span("solve", layer="solver"):
                pass
        TRACER.configure(export_path="")
        return path

    def test_render_file_builds_a_tree(self, tmp_path):
        path = self._export(tmp_path)
        text, count = render_file(path)
        assert count == 1
        assert "request" in text and "solve" in text
        # Child indented under the root; per-layer table present.
        assert "  - solve (solver)" in text
        assert "front" in text and "solver" in text

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = self._export(tmp_path)
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('{"no": "ids"}\n')
        spans, corrupt = load_spans(path)
        assert len(spans) == 2
        assert corrupt == 2
        text, count = render_file(path)
        assert count == 1
        assert "2 corrupt lines skipped" in text

    def test_orphan_spans_fall_back_to_roots(self, tmp_path):
        path = str(tmp_path / "orphans.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "trace_id": "t1", "span_id": "s2",
                "parent_id": "missing", "name": "orphan",
                "layer": "worker", "start_ns": 10,
                "dur_ns": 1000, "status": "ok"}) + "\n")
        trees = build_traces(load_spans(path)[0])
        assert len(trees) == 1
        assert [s["name"] for s in trees[0].roots] == ["orphan"]

    def test_trace_id_filter_and_limit(self, tmp_path):
        path = str(tmp_path / "many.jsonl")
        with open(path, "w") as handle:
            for i in range(3):
                handle.write(json.dumps({
                    "trace_id": f"t{i}", "span_id": f"s{i}",
                    "parent_id": None, "name": f"root{i}",
                    "layer": "app", "start_ns": i,
                    "dur_ns": 100, "status": "ok"}) + "\n")
        _text, count = render_file(path, limit=2)
        assert count == 2
        text, count = render_file(path, trace_id="t1")
        assert count == 1 and "root1" in text

    def test_empty_export_renders_nothing(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        text, count = render_file(path)
        assert count == 0 and text == ""


# ---------------------------------------------------------------------
class TestDiagnosticsCorrelation:
    def test_round_trip_without_trace_is_unchanged(self):
        from repro.robustness.diagnostics import Diagnostics
        diag = Diagnostics()
        diag.record("phase", "event")
        data = diag.to_dict()
        assert "trace_id" not in data
        assert Diagnostics.from_dict(data).trace_id is None

    def test_bind_span_stamps_ids(self):
        from repro.robustness.diagnostics import Diagnostics
        enable()
        diag = Diagnostics()
        with TRACER.span("synthesize") as sp:
            diag.bind_span(sp)
        data = diag.to_dict()
        assert data["trace_id"] == sp.trace_id
        assert data["span_id"] == sp.span_id
        restored = Diagnostics.from_dict(data)
        assert restored.trace_id == sp.trace_id

    def test_bind_null_span_is_noop(self):
        from repro.robustness.diagnostics import Diagnostics
        diag = Diagnostics()
        with TRACER.span("untraced") as sp:  # tracing disabled
            diag.bind_span(sp)
        assert diag.trace_id is None
