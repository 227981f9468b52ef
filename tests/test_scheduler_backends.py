"""Every registered scheduler backend is a full citizen.

Two contracts:

* **property** — on the seeded fuzz design stream, whatever a backend
  produces must pass every unified design rule (pin-accounting
  violations are tolerated only when the result openly declares them
  via ``stats["budget_overruns"]``, the schedule-first contract);
* **differential** — on the built-in benchmarks, the cross-flow oracle
  widened along the scheduler axis must accept the new backends next
  to the list and FDS baselines: no dirty result, no feasibility
  disagreement, no checker gap.
"""

import pytest

from repro import synthesize
from repro.check import CheckError, check_result, run_differential
from repro.check.fuzz import generate_cases
from repro.check.rules import PIN_RULES, rule_names
from repro.designs import (AR_GENERAL_PINS_BIDIR, AR_GENERAL_PINS_UNIDIR,
                           AR_SIMPLE_PINS, ELLIPTIC_PINS_BIDIR,
                           ELLIPTIC_PINS_UNIDIR, ar_general_design,
                           ar_simple_design, elliptic_design,
                           elliptic_resources)
from repro.errors import ReproError
from repro.modules.library import ar_filter_timing, elliptic_filter_timing
from repro.pipeline import scheduler_backend, scheduler_names
from repro.robustness import BudgetExhausted, SolveBudget

#: One driving flow per backend for the property test: random fuzz
#: partitionings are general, so resource-constrained backends run
#: through connection-first and time-constrained ones through
#: schedule-first.
def _driving_flow(name):
    backend = scheduler_backend(name)
    if "connection-first" in backend.flows:
        return "connection-first"
    return backend.flows[0]


def _acceptable(result):
    """All 14 rules ran; violations only where openly declared."""
    report = check_result(result)
    assert report.rules_run == rule_names()
    if report.ok:
        return
    assert result.stats.get("budget_overruns"), \
        [v.message for v in report.violations]
    assert all(v.rule in PIN_RULES for v in report.violations), \
        [f"[{v.rule}] {v.message}" for v in report.violations]


def _property(name, graph, partitioning, rate):
    """Whatever ``name`` produces on the design passes every rule."""
    from repro.explore.worker import resolve_timing
    try:
        result = synthesize(graph, partitioning, resolve_timing("ar"),
                            rate, flow=_driving_flow(name),
                            scheduler=name,
                            budget=SolveBudget(deadline_ms=4000))
    except CheckError:
        raise  # the flow's own check failed: a dirty result
    except (ReproError, BudgetExhausted):
        return  # gave up / infeasible / out of budget: proves nothing
    _acceptable(result)


FUZZ_CASES = list(generate_cases("scheduler-backends", 6))


class TestEveryBackendPassesAllRules:

    @pytest.mark.parametrize("name", scheduler_names())
    @pytest.mark.parametrize("case", FUZZ_CASES,
                             ids=lambda c: f"seed{c.seed}")
    def test_fuzz_stream(self, name, case):
        graph, partitioning = case.build()
        _property(name, graph, partitioning, case.rate)

    def test_catches_a_consumer_ahead_of_its_producer(
            self, early_consumer_backend):
        with pytest.raises(CheckError) as info:
            _property(early_consumer_backend, ar_general_design(),
                      AR_GENERAL_PINS_UNIDIR, 3)
        assert "precedence" in info.value.report.by_rule()


BUILTINS = [
    ("ar-simple", ar_simple_design, AR_SIMPLE_PINS,
     ar_filter_timing, 2, False),
    ("ar-general", ar_general_design, AR_GENERAL_PINS_UNIDIR,
     ar_filter_timing, 3, False),
    ("ar-general-bidir", ar_general_design, AR_GENERAL_PINS_BIDIR,
     ar_filter_timing, 3, False),
    ("elliptic", elliptic_design, ELLIPTIC_PINS_UNIDIR,
     elliptic_filter_timing, 6, True),
    ("elliptic-bidir", elliptic_design, ELLIPTIC_PINS_BIDIR,
     elliptic_filter_timing, 7, True),
]


class TestOracleAcceptsNewBackends:

    @pytest.mark.parametrize(
        "name,design_fn,pins,timing_fn,rate,needs_res",
        BUILTINS, ids=[b[0] for b in BUILTINS])
    def test_builtin(self, name, design_fn, pins, timing_fn, rate,
                     needs_res):
        resources = elliptic_resources(rate) if needs_res else None
        oracle = run_differential(
            design_fn(), pins, timing_fn(), rate, resources=resources,
            timeout_ms=20000,
            schedulers=("list", "heap", "modulo"))
        assert oracle.ok, (oracle.disagreements + oracle.checker_gaps
                           + oracle.violations())
        labels = [o.label for o in oracle.outcomes]
        # The new backends actually participated.
        assert any("[heap]" in label for label in labels), labels
        assert any("[modulo]" in label for label in labels), labels
