"""Additional CLI coverage: simulate, emit-rtl, flows, options."""

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_simulate_ar(self, capsys):
        assert main(["simulate", "ar-general", "-L", "3",
                     "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "conflict-free" in out

    def test_simulate_schedule_first(self, capsys):
        assert main(["simulate", "ar-general", "-L", "3",
                     "--flow", "schedule-first", "--pipe-length", "8",
                     "--instances", "2"]) == 0
        assert "verified" in capsys.readouterr().out


class TestEmitRtl:
    def test_emit_to_stdout(self, capsys):
        assert main(["emit-rtl", "ar-general", "-L", "4"]) == 0
        out = capsys.readouterr().out
        assert "module chip_p1" in out

    def test_emit_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "design.v")
        assert main(["emit-rtl", "ar-general", "-L", "4",
                     "--output", path]) == 0
        assert "module" in open(path).read()


class TestFlows:
    def test_simple_flow(self, capsys):
        assert main(["synthesize", "ar-simple", "-L", "2",
                     "--flow", "simple"]) == 0
        assert "pipe length" in capsys.readouterr().out

    def test_subbus_option(self, capsys):
        assert main(["synthesize", "ar-general-bidir", "-L", "5",
                     "--subbus"]) == 0

    def test_slot_reserve_rescues_elliptic(self, capsys):
        assert main(["synthesize", "elliptic", "-L", "5",
                     "--slot-reserve", "3"]) == 0

    def test_unknown_design_fails(self, capsys):
        assert main(["synthesize", "/nonexistent.json"]) != 0


class TestBudgetedCli:
    def test_json_output_conforms_to_schema(self, capsys):
        import json
        from pathlib import Path
        import sys
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "tools"))
        try:
            from validate_synth_json import DEFAULT_SCHEMA, validate
        finally:
            sys.path.pop(0)
        assert main(["synthesize", "ar-general", "--flow", "auto",
                     "--timeout-ms", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        schema = json.loads(DEFAULT_SCHEMA.read_text())
        assert validate(payload, schema) == []
        assert payload["valid"] and not payload["degraded"]
        assert payload["flow"] == "auto"

    def test_auto_flow_is_the_default(self, capsys):
        assert main(["synthesize", "ar-general", "-L", "3"]) == 0
        assert "pipe length" in capsys.readouterr().out

    def test_budget_exhaustion_exits_nonzero_with_trail(self, capsys):
        # A 0 ms deadline exhausts every fallback rung immediately.
        rc = main(["synthesize", "ar-general", "-L", "3",
                   "--timeout-ms", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "solve budget exhausted" in err
        assert "fallback" in err

    def test_json_mode_reports_problems_not_tracebacks(self, capsys):
        import json
        rc = main(["synthesize", "ar-general", "-L", "3",
                   "--flow", "schedule-first", "--pipe-length", "8",
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["flow"] == "schedule-first"
        assert rc in (0, 2)


class TestCheckCommand:
    def _check(self, capsys, *argv):
        import json
        rc = main(["check", *argv, "--json"])
        return rc, json.loads(capsys.readouterr().out)

    def test_declared_overruns_are_tolerated(self, capsys):
        rc, payload = self._check(capsys, "ar-simple", "-L", "2",
                                  "--flow", "schedule-first")
        assert rc == 0
        assert {v["rule"] for v in payload["violations"]} \
            == {"pin-budget", "pin-step"}
        assert payload["enforceable"] == []

    def test_disable_skips_the_rule(self, capsys):
        rc, payload = self._check(capsys, "ar-simple", "-L", "2",
                                  "--flow", "schedule-first",
                                  "--disable", "pin-step")
        assert rc == 0
        assert payload["rules_skipped"] == ["pin-step"]
        assert "pin-step" not in payload["rules_run"]
        assert {v["rule"] for v in payload["violations"]} \
            == {"pin-budget"}

    def test_failed_flow_check_is_reported_and_rechecked(
            self, capsys, early_consumer_backend):
        argv = ("ar-general", "-L", "3", "--flow", "connection-first",
                "--scheduler", early_consumer_backend)
        rc, payload = self._check(capsys, *argv)
        assert rc == 1
        assert "precedence" in {v["rule"] for v in payload["enforceable"]}
        rc, payload = self._check(capsys, *argv, "--disable", "precedence")
        assert payload["rules_skipped"] == ["precedence"]
        assert "precedence" not in {v["rule"]
                                    for v in payload["violations"]}
