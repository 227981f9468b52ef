"""Differential-oracle semantics and builtin-design agreement.

Satellite (d) of the checker work: the flows must agree on the
built-in designs, and every result the unified checker passes must
also survive cycle-accurate simulation (no checker gap).
"""

import pytest

from repro.check import (applicable_flows, check_result, proof_refutes,
                         run_differential)
from repro.check.oracle import (FlowOutcome, INFEASIBLE, OK,
                                OracleReport, _cross_compare)
from repro.check.report import CheckReport, Violation
from repro.cli import _load
from repro.designs import AR_SIMPLE_PINS, ar_simple_design

#: (design, rate) points matching the CI smoke matrix.
BUILTIN_POINTS = [
    ("ar-simple", 2),
    ("ar-general", 3),
    ("ar-general-bidir", 3),
    ("elliptic", 6),
    ("elliptic-bidir", 7),
]


@pytest.mark.parametrize("design,rate", BUILTIN_POINTS)
def test_flows_agree_on_builtin(design, rate):
    graph, pins, timing, resources = _load(design, rate)
    oracle = run_differential(graph, pins, timing, rate,
                              timeout_ms=15000, resources=resources,
                              keep_results=True)
    assert oracle.ok, oracle.to_dict()
    # No checker gap: every clean result was simulated, and passed.
    for outcome in oracle.outcomes:
        if outcome.result is None:
            continue
        assert outcome.result.check is outcome.report
        assert outcome.simulation is None


def test_applicable_flows_simple():
    graph = ar_simple_design()
    flows = applicable_flows(graph, AR_SIMPLE_PINS)
    assert flows == ["simple", "connection-first", "schedule-first"]


def test_applicable_flows_general():
    from repro.designs import AR_GENERAL_PINS_BIDIR, ar_general_design
    flows = applicable_flows(ar_general_design(), AR_GENERAL_PINS_BIDIR)
    assert flows == ["connection-first", "schedule-first"]


def test_require_valid_matches_unified_checker():
    graph, pins, timing, resources = _load("ar-general", 3)
    from repro.core.flow import synthesize
    result = synthesize(graph, pins, timing, 3,
                        flow="connection-first", resources=resources)
    result.require_valid()
    assert check_result(result).ok


# ---------------------------------------------------------------------
# Proof scoping: Chapter 3's ILP proves infeasibility of its own
# restricted interconnect model only.
# ---------------------------------------------------------------------
def test_proof_refutes_scoping():
    assert not proof_refutes("simple", "connection-first")
    assert not proof_refutes("simple", "schedule-first")
    assert proof_refutes("connection-first", "simple")
    assert proof_refutes("connection-first", "schedule-first")
    assert proof_refutes("schedule-first", "connection-first")


def _clean_outcome(flow):
    return FlowOutcome(flow, OK, report=CheckReport())


def test_general_proof_vs_clean_result_disagrees():
    report = OracleReport(outcomes=[
        FlowOutcome("connection-first", INFEASIBLE, error="ilp"),
        _clean_outcome("schedule-first"),
    ])
    _cross_compare(report)
    assert report.disagreements
    assert not report.ok


def test_chapter3_proof_vs_general_result_is_fine():
    report = OracleReport(outcomes=[
        FlowOutcome("simple", INFEASIBLE, error="ilp"),
        _clean_outcome("connection-first"),
    ])
    _cross_compare(report)
    assert not report.disagreements
    assert report.ok


def test_dirty_result_never_refutes():
    dirty = CheckReport(violations=[
        Violation.at("pin-budget", "over budget", chip=1)])
    report = OracleReport(outcomes=[
        FlowOutcome("connection-first", INFEASIBLE, error="ilp"),
        FlowOutcome("schedule-first", OK, report=dirty,
                    declared_overruns=True),
    ])
    _cross_compare(report)
    assert not report.disagreements


def test_checker_gap_detected():
    report = OracleReport(outcomes=[
        FlowOutcome("connection-first", OK, report=CheckReport(),
                    simulation="value mismatch"),
    ])
    _cross_compare(report)
    assert report.checker_gaps
    assert not report.ok


def test_checker_blind_spot_caught_by_simulation(monkeypatch,
                                                 early_consumer_backend):
    # A checker that passes everything lets the early-consumer
    # backend's precedence bug through; the simulator must not.
    from repro.check import rules
    monkeypatch.setattr(rules, "check_result",
                        lambda result, **_: CheckReport())
    graph, pins, timing, resources = _load("ar-general", 3)
    oracle = run_differential(graph, pins, timing, 3,
                              flows=["connection-first"],
                              schedulers=[early_consumer_backend])
    assert oracle.checker_gaps, oracle.to_dict()
    assert not oracle.ok


class TestUnknownScheduler:
    """The oracle rejects a scheduler name no backend is registered
    under, as the flows do; a known backend that lacks a flow is still
    only skipped for that flow."""

    def test_run_differential_raises(self):
        from repro.errors import SchedulingError
        graph, pins, timing, resources = _load("ar-general", 3)
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            run_differential(graph, pins, timing, 3,
                             resources=resources, schedulers=("nosuch",))

    def test_cli_exits_one_like_the_flow(self, capsys):
        from repro.cli import main
        for extra in (["--oracle"], []):
            assert main(["check", "ar-general", "-L", "3",
                         "--scheduler", "nosuch", *extra]) == 1
            captured = capsys.readouterr()
            assert "error: unknown scheduler 'nosuch'" in captured.err
            assert "oracle: ok" not in captured.out

    def test_backend_without_the_flow_is_skipped_for_it(self):
        from repro.check.oracle import _participants
        assert _participants(["simple", "schedule-first"],
                             ("list", "fds")) == [
            ("simple", "list"), ("schedule-first", "fds")]
