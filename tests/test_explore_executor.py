"""Sweep expansion, the executor (inline + pool), pruning, reports."""

import importlib.util
import json
import os

import pytest

from repro.designs import (AR_GENERAL_PINS_UNIDIR, AR_SIMPLE_PINS,
                           ar_general_design, ar_simple_design)
from repro.explore import (DesignSpace, Executor, ResultCache,
                           SweepError, SweepSpec, build_report,
                           write_report)
from repro.explore.spec import scale_pins, with_port_model
from repro.perf import PerfRegistry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(REPO, "docs", "schema",
                      "explore_report.schema.json")


def _schema_validate(report):
    spec = importlib.util.spec_from_file_location(
        "validate_synth_json",
        os.path.join(REPO, "tools", "validate_synth_json.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(SCHEMA) as handle:
        schema = json.load(handle)
    return module.validate(report, schema)


def ar_general_space():
    return DesignSpace(name="ar-general", graph=ar_general_design(),
                       partitioning=AR_GENERAL_PINS_UNIDIR,
                       timing="ar")


def ar_simple_space():
    return DesignSpace(name="ar-simple", graph=ar_simple_design(),
                       partitioning=AR_SIMPLE_PINS, timing="ar")


# ---------------------------------------------------------------------
class TestSweepSpec:
    def test_grid_size_and_order(self):
        spec = SweepSpec(axes={"rate": [3, 4], "flow": ["auto"],
                               "pin_scale": [1.0, 0.9, 0.8]})
        assert spec.size() == 6
        points = spec.param_points()
        assert len(points) == 6
        assert points[0] == {"rate": 3, "flow": "auto",
                             "pin_scale": 1.0}
        # Last axis varies fastest (itertools.product order).
        assert points[1]["pin_scale"] == 0.9

    def test_explicit_points_appended(self):
        spec = SweepSpec(axes={"rate": [3]},
                         points=[{"rate": 9, "flow": "schedule-first"}])
        points = spec.param_points()
        assert len(points) == 2
        assert points[-1]["rate"] == 9

    def test_base_defaults_apply(self):
        spec = SweepSpec(axes={"rate": [3]},
                         base={"branching_factor": 1})
        assert spec.param_points()[0]["branching_factor"] == 1

    def test_no_axes_means_single_base_point(self):
        assert SweepSpec().size() == 1
        assert SweepSpec().param_points() == [{}]

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(axes={"voltage": [1]})
        with pytest.raises(SweepError):
            SweepSpec(points=[{"voltage": 1}])
        with pytest.raises(SweepError):
            SweepSpec(base={"voltage": 1})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(axes={"rate": []})

    def test_expansion_is_deterministic_and_content_addressed(self):
        spec = SweepSpec(axes={"rate": [3, 4],
                               "flow": ["auto", "schedule-first"]})
        jobs_a = spec.expand(ar_general_space())
        jobs_b = spec.expand(ar_general_space())
        assert [j.key for j in jobs_a] == [j.key for j in jobs_b]
        assert len({j.key for j in jobs_a}) == 4
        assert [j.index for j in jobs_a] == [0, 1, 2, 3]

    def test_optimistic_bounds_are_sound(self):
        spec = SweepSpec(axes={"rate": [3]})
        job = spec.expand(ar_general_space())[0]
        executor = Executor(workers=1)
        result = executor.run([job])
        metrics = result.points[0]["metrics"]
        for key, bound in job.optimistic.items():
            assert metrics[key] >= bound, key

    def test_pin_scale_transform(self):
        scaled = scale_pins(AR_SIMPLE_PINS, 0.5)
        assert scaled.total_pins(1) == 24
        assert scaled.total_pins(3) == 16
        with pytest.raises(SweepError):
            scale_pins(AR_SIMPLE_PINS, 0.0)

    def test_port_model_transform(self):
        bidir = with_port_model(AR_SIMPLE_PINS, "bidirectional")
        assert bidir.all_bidirectional()
        assert bidir.total_pins(1) == AR_SIMPLE_PINS.total_pins(1)
        unidir = with_port_model(bidir, "unidirectional")
        assert not unidir.any_bidirectional()
        with pytest.raises(SweepError):
            with_port_model(AR_SIMPLE_PINS, "sideways")


class TestAutoPartitionAxis:
    def _flat_design(self):
        from repro.cdfg.builder import CdfgBuilder
        from repro.cdfg.graph import Node
        from repro.partition.model import (ChipSpec, OUTSIDE_WORLD,
                                           Partitioning)
        b = CdfgBuilder("flat")
        prev = b.op("n0", "add", 1, bit_width=8)
        for i in range(1, 8):
            prev = b.op(f"n{i}", "add", 1, inputs=[prev], bit_width=8)
        graph = b.build()
        for node in list(graph.nodes()):
            graph.replace_node(Node(name=node.name, kind=node.kind,
                                    op_type=node.op_type,
                                    partition=None,
                                    bit_width=node.bit_width))
        pins = Partitioning({OUTSIDE_WORLD: ChipSpec(64),
                             1: ChipSpec(64), 2: ChipSpec(64)})
        return DesignSpace(name="flat", graph=graph,
                           partitioning=pins, timing="ar")

    def test_partitioning_variants_expand(self):
        spec = SweepSpec(axes={
            "rate": [3],
            "auto_partition": [{"n_chips": 2, "seed": 0},
                               {"n_chips": 2, "seed": 1}],
        })
        jobs = spec.expand(self._flat_design())
        assert len(jobs) == 2
        for job in jobs:
            assert job.graph.io_nodes()  # cut arcs got I/O nodes
            assert len(job.partitioning.real_chips()) == 2

    def test_rejects_already_partitioned_graph(self):
        spec = SweepSpec(axes={
            "auto_partition": [{"n_chips": 2, "seed": 0}]})
        with pytest.raises(SweepError):
            spec.expand(ar_simple_space())

    def test_axis_helper_dedupes_identical_partitionings(self):
        from repro.explore import auto_partition_axis
        design = self._flat_design()
        values = auto_partition_axis(design.graph, 2, range(8))
        assert values  # at least one distinct plan
        assert len(values) <= 8
        assert all(v["n_chips"] == 2 for v in values)
        # Distinct axis values must yield distinct job keys — the
        # dedup guarantees no two sweep points synthesize the same
        # partitioned design.
        spec = SweepSpec(axes={"rate": [3], "auto_partition": values})
        keys = [job.key for job in spec.expand(design)]
        assert len(set(keys)) == len(keys)

    def test_axis_helper_rejects_partitioned_graph(self):
        from repro.explore import auto_partition_axis
        with pytest.raises(SweepError):
            auto_partition_axis(ar_simple_design(), 2, [0])


# ---------------------------------------------------------------------
# One rate, every flow: exercises all dispatch paths while staying
# clear of the rate-3 simple-flow ILP blow-up (covered by the budget
# tests below instead).
FAST_GRID = {"rate": [2], "flow": ["simple", "connection-first",
                                   "schedule-first", "auto"]}


class TestExecutor:
    def test_inline_run_completes(self):
        spec = SweepSpec(axes=FAST_GRID)
        result = Executor(workers=1).run(
            spec.expand(ar_simple_space()))
        assert len(result.points) == 4
        assert all(p["status"] == "ok" for p in result.points)
        assert result.pareto_indices()
        assert "flow.simple" in result.perf.timings

    def test_pool_matches_inline(self):
        spec = SweepSpec(axes=FAST_GRID)
        jobs = spec.expand(ar_simple_space())
        inline = Executor(workers=1).run(jobs)
        pooled = Executor(workers=2).run(jobs)
        assert [p["key"] for p in pooled.points] \
            == [p["key"] for p in inline.points]
        by_key = {p["key"]: p for p in inline.points}
        for point in pooled.points:
            twin = by_key[point["key"]]
            assert point["status"] == twin["status"]
            for axis in ("chips", "buses", "total_pins", "latency"):
                assert point["metrics"][axis] == twin["metrics"][axis]

    def test_pool_merges_worker_perf(self):
        spec = SweepSpec(axes=FAST_GRID)
        result = Executor(workers=2).run(
            spec.expand(ar_simple_space()))
        # The simple flow exercises the pin checker in the workers;
        # its counters must surface in the parent's merged registry.
        assert result.perf.counters.get("pin.checks", 0) > 0
        assert all(isinstance(v, int)
                   for v in result.perf.counters.values())

    def test_cache_second_run_hits_everything(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        spec = SweepSpec(axes=FAST_GRID)
        jobs = spec.expand(ar_simple_space())
        Executor(workers=1, cache=ResultCache(path)).run(jobs)
        rerun = Executor(workers=1, cache=ResultCache(path)).run(jobs)
        assert all(p["cached"] for p in rerun.points)
        assert rerun.cache_stats["hit_rate"] == 1.0
        # Cached points still contribute to the front.
        assert rerun.pareto_indices()

    def test_overlapping_sweep_reuses_shared_points(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        space = ar_simple_space()
        small = SweepSpec(axes={"rate": [2], "flow": ["simple"]})
        Executor(workers=1, cache=ResultCache(path)).run(
            small.expand(space))
        bigger = SweepSpec(axes={"rate": [2],
                                 "flow": ["simple", "schedule-first"]})
        result = Executor(workers=1, cache=ResultCache(path)).run(
            bigger.expand(space))
        cached = [p for p in result.points if p["cached"]]
        assert len(cached) == 1

    def test_dominated_queued_point_pruned(self, tmp_path):
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"]})
        job = spec.expand(ar_simple_space())[0]
        # Seed the cache with an unbeatable completed point for a
        # *different* key, so the running front dominates this job's
        # optimistic bounds before it starts.
        cache = ResultCache(None)
        cache.put("unbeatable", {
            "status": "ok", "wall_ms": 1.0, "key": "unbeatable",
            "params": {},
            "metrics": {"chips": 0, "buses": 0, "total_pins": 0,
                        "latency": 0, "wall_ms": 1.0}})
        unbeatable = spec.expand(ar_simple_space())[0]
        unbeatable.key = "unbeatable"
        job.index = 1
        executor = Executor(workers=1, cache=cache)
        result = executor.run([unbeatable, job])
        statuses = [p["status"] for p in result.points]
        assert statuses == ["ok", "pruned"]

    def test_prune_can_be_disabled(self):
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"]})
        job = spec.expand(ar_simple_space())[0]
        executor = Executor(workers=1, prune_dominated=False)
        assert not executor._prunable(job, [{"chips": 0, "buses": 0,
                                             "total_pins": 0,
                                             "latency": 0}])

    def test_expired_deadline_skips_everything(self):
        spec = SweepSpec(axes=FAST_GRID)
        jobs = spec.expand(ar_simple_space())
        result = Executor(workers=1, deadline_ms=0).run(jobs)
        assert all(p["status"] == "deadline_skipped"
                   for p in result.points)

    def test_carved_budget_lands_near_global_deadline(self):
        # A sweep far too big for its deadline must still terminate
        # promptly, producing budget_exhausted/skipped points rather
        # than hanging.
        import time
        spec = SweepSpec(axes={"rate": [6, 7, 8],
                               "flow": ["connection-first"],
                               "branching_factor": [3, 4]})
        jobs = spec.expand(ar_general_space())
        start = time.perf_counter()
        result = Executor(workers=1, deadline_ms=300).run(jobs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert elapsed_ms < 5000
        assert len(result.points) == len(jobs)
        for point in result.points:
            assert point["status"] in ("ok", "degraded", "error",
                                       "budget_exhausted",
                                       "deadline_skipped", "pruned")


def _lost_chain(payloads):
    raise RuntimeError("worker lost")


def _dead_worker(payloads):
    os._exit(1)


#: Every pool and chain shape the dispatch loop has: (workers, warm).
DISPATCH_MODES = pytest.mark.parametrize(
    "workers,warm", [(1, False), (1, True), (2, False), (2, True)])


class TestOneSkipRule:
    """Pruning, deadline skips and pool failures follow one rule,
    applied as each chain is dispatched, at every worker count, cold
    and warm."""

    def _jobs(self):
        # In warm mode the two pin scales form one chain.
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                               "pin_scale": [1.0, 0.9]})
        return spec.expand(ar_simple_space())

    @DISPATCH_MODES
    def test_point_dominated_by_cached_front_is_pruned(self, workers,
                                                       warm):
        cache = ResultCache(None)
        cache.put("unbeatable", {
            "status": "ok", "wall_ms": 1.0, "key": "unbeatable",
            "params": {},
            "metrics": {"chips": 0, "buses": 0, "total_pins": 0,
                        "latency": 0, "wall_ms": 1.0}})
        jobs = self._jobs()
        unbeatable = self._jobs()[0]
        unbeatable.key = "unbeatable"
        unbeatable.index = len(jobs)
        result = Executor(workers=workers, warm=warm,
                          cache=cache).run(jobs + [unbeatable])
        assert [p["status"] for p in result.points] \
            == ["pruned", "pruned", "ok"]

    @DISPATCH_MODES
    def test_expired_deadline_skips_every_point(self, workers, warm):
        result = Executor(workers=workers, warm=warm,
                          deadline_ms=0).run(self._jobs())
        assert [p["status"] for p in result.points] \
            == ["deadline_skipped", "deadline_skipped"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_chain_gives_one_error_per_point(self, workers,
                                                    monkeypatch):
        from repro.explore import executor
        monkeypatch.setattr(executor, "run_chain", _lost_chain)
        result = Executor(workers=workers, warm=True).run(self._jobs())
        assert [p["status"] for p in result.points] == ["error", "error"]
        assert all("worker lost" in p["error"] for p in result.points)

    def test_dead_worker_fails_its_points_not_the_sweep(self,
                                                         monkeypatch):
        # More chains than workers: the chains dispatched after the
        # pool broke fail too, each with its own error records.
        from repro.explore import executor
        monkeypatch.setattr(executor, "run_chain", _dead_worker)
        jobs = SweepSpec(axes=FAST_GRID).expand(ar_simple_space())
        result = Executor(workers=2).run(jobs)
        assert [p["status"] for p in result.points] == ["error"] * 4


class TestChainClock:
    """A chain runs on one clock, the sum of its points' deadline
    shares: each point's slice is carved from what is left of it, and
    once it has run out the chain's remaining points are skipped."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_chain_lands_near_global_deadline(self, workers):
        # One pin_scale chain far too big for its deadline: its head
        # runs, its tail is skipped, and the sweep ends promptly.
        import time
        from repro.designs import ar_stacked_design, ar_stacked_pins
        design = DesignSpace(name="ar-stacked-4", graph=ar_stacked_design(4),
                             partitioning=ar_stacked_pins(4), timing="ar")
        spec = SweepSpec(axes={
            "rate": [2], "flow": ["simple"],
            "pin_scale": [round(1.8875 - 0.0125 * k, 4)
                          for k in range(12)]})
        jobs = spec.expand(design)
        start = time.perf_counter()
        result = Executor(workers=workers, warm=True,
                          deadline_ms=150).run(jobs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert elapsed_ms < 5000
        statuses = [p["status"] for p in result.points]
        assert statuses[0] != "deadline_skipped"
        assert statuses[-1] == "deadline_skipped"
        assert set(statuses) <= {"ok", "degraded", "budget_exhausted",
                                 "deadline_skipped"}

    def test_spent_clock_skips_all_but_the_first_point(self):
        from repro.explore.worker import run_chain, run_job
        spec = SweepSpec(axes={"rate": [2], "flow": ["simple"],
                               "pin_scale": [1.0, 0.9, 0.8]})
        payloads = [job.payload(deadline_ms=0.0)
                    for job in spec.expand(ar_simple_space())]
        records = run_chain(payloads)
        assert [r["status"] for r in records] \
            == ["budget_exhausted", "deadline_skipped", "deadline_skipped"]
        assert [r["index"] for r in records] == [0, 1, 2]
        # A chain of one is its point with its own deadline.
        assert run_job(payloads[1])["status"] == "budget_exhausted"


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="parallel speedup needs >= 4 cores")
def test_four_workers_beat_one_on_wall_clock():
    spec = SweepSpec(axes={"rate": [3, 4, 5],
                           "flow": ["auto", "schedule-first"],
                           "pin_scale": [1.0, 0.9],
                           "subbus_sharing": [False, True]})
    jobs = spec.expand(ar_general_space())
    assert len(jobs) >= 24
    serial = Executor(workers=1).run(jobs)
    parallel = Executor(workers=4).run(jobs)
    assert parallel.wall_ms < serial.wall_ms


# ---------------------------------------------------------------------
class TestReport:
    def test_report_validates_against_schema(self, tmp_path):
        spec = SweepSpec(axes=FAST_GRID)
        result = Executor(workers=1).run(
            spec.expand(ar_simple_space()))
        report = build_report("ar-simple", spec, result)
        assert _schema_validate(report) == []
        path = str(tmp_path / "report.json")
        write_report(report, path)
        with open(path) as handle:
            assert _schema_validate(json.load(handle)) == []

    def test_report_with_failures_validates(self):
        # rate=1 is infeasible for the simple AR design: error points
        # must still produce a schema-clean report.
        spec = SweepSpec(axes={"rate": [1, 2], "flow": ["simple"]})
        result = Executor(workers=1).run(
            spec.expand(ar_simple_space()))
        statuses = {p["status"] for p in result.points}
        assert "ok" in statuses and len(statuses) > 1
        report = build_report("ar-simple", spec, result)
        assert _schema_validate(report) == []

    def test_pareto_indices_reference_points(self):
        spec = SweepSpec(axes=FAST_GRID)
        result = Executor(workers=1).run(
            spec.expand(ar_simple_space()))
        report = build_report("ar-simple", spec, result)
        indices = {p["index"] for p in report["points"]}
        assert set(report["pareto"]) <= indices

    def test_perf_merge_registry_arithmetic(self):
        a = PerfRegistry()
        a.inc("x", 2)
        b = PerfRegistry()
        b.inc("x", 3)
        b.timings["t"] = 0.5
        a.merge(b)
        a.merge({"counters": {"x": 1.0, "y": 2.4},
                 "timings": {"t": 0.25}})
        assert a.counters["x"] == 6
        assert a.counters["y"] == 2  # float drift rounded away
        assert isinstance(a.counters["y"], int)
        assert a.timings["t"] == pytest.approx(0.75)
