"""The ``repro explore`` subcommand, end to end and in-process."""

import importlib.util
import json
import os

import pytest

from repro.cli import EXIT_DEGRADED, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(REPO, "docs", "schema",
                      "explore_report.schema.json")

FAST = ["explore", "ar-simple", "--rates", "2",
        "--flows", "simple,schedule-first", "--workers", "1"]


def _validate(report):
    spec = importlib.util.spec_from_file_location(
        "validate_synth_json",
        os.path.join(REPO, "tools", "validate_synth_json.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(SCHEMA) as handle:
        schema = json.load(handle)
    return module.validate(report, schema)


class TestExploreCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "pareto" in out.lower()

    def test_json_output_is_the_report(self, capsys):
        assert main(FAST + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-explore-report/1"
        assert report["design"] == "ar-simple"
        assert len(report["points"]) == 2
        assert _validate(report) == []

    def test_report_file_validates(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(FAST + ["--out", out]) == 0
        capsys.readouterr()
        with open(out) as handle:
            assert _validate(json.load(handle)) == []

    def test_degraded_sweep_exits_two(self, capsys):
        # rate=1 is infeasible for the simple AR design.
        code = main(["explore", "ar-simple", "--rates", "1,2",
                     "--flows", "simple", "--workers", "1", "--json"])
        assert code == EXIT_DEGRADED
        report = json.loads(capsys.readouterr().out)
        statuses = {p["status"] for p in report["points"]}
        assert "error" in statuses
        assert _validate(report) == []

    def test_second_run_serves_from_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        assert main(FAST + ["--cache", cache, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["hits"] == 0
        assert main(FAST + ["--cache", cache, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["hits"] == len(warm["points"])
        assert warm["cache"]["hit_rate"] == 1.0
        assert all(p["cached"] for p in warm["points"])

    def test_compact_cache_flag_drops_dead_lines(self, tmp_path,
                                                 capsys):
        cache = str(tmp_path / "cache.jsonl")
        assert main(FAST + ["--cache", cache]) == 0
        capsys.readouterr()
        with open(cache) as handle:
            live = handle.readlines()
        # Simulate another writer's stale duplicate plus a torn write.
        with open(cache, "a") as handle:
            handle.write(live[0])
            handle.write("{torn line\n")
        assert main(FAST + ["--cache", cache,
                            "--compact-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache compacted" in out
        assert "2 dead lines removed" in out
        with open(cache) as handle:
            assert len(handle.readlines()) == len(live)

    def test_bad_flow_axis_exits_one(self, capsys):
        code = main(["explore", "ar-simple", "--rates", "2",
                     "--flows", "imaginary-flow", "--workers", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_rates_exits_one(self, capsys):
        code = main(["explore", "ar-simple", "--rates", ""])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_elliptic_rate_axis_uses_per_rate_resources(self, capsys):
        # The elliptic design's module allocation depends on the rate;
        # the sweep must carry resources per point rather than
        # whatever rates[0] loaded.
        code = main(["explore", "elliptic", "--rates", "17,19",
                     "--flows", "schedule-first", "--workers", "1",
                     "--json"])
        assert code in (0, EXIT_DEGRADED)
        report = json.loads(capsys.readouterr().out)
        assert len(report["points"]) == 2
        assert _validate(report) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_solve_per_content_key(self, tmp_path, capsys, workers):
        """Three spellings of one scheduler hash to one key: the sweep
        solves it once, caches it once, and reports all three points,
        each under its own index and params."""
        cache = str(tmp_path / "cache.jsonl")
        assert main(["explore", "ar-simple", "--rates", "2",
                     "--flows", "simple",
                     "--schedulers", "list,modulo,postpone",
                     "--workers", workers, "--cache", cache,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        points = report["points"]
        assert [p["index"] for p in points] == [0, 1, 2]
        assert [p["params"]["scheduler"] for p in points] \
            == ["list", "modulo", "postpone"]
        assert len({p["key"] for p in points}) == 1
        assert all(p["status"] == "ok" for p in points)
        assert len({json.dumps(p["metrics"], sort_keys=True)
                    for p in points}) == 1
        assert report["perf"]["counters"]["pin.checks"] == 82
        with open(cache) as handle:
            assert len(handle.readlines()) == 1
        assert _validate(report) == []
