"""Unified design-rule checking, differential testing, and fuzzing.

* :func:`check_result` — the one definition of a valid result, run
  once per solve by every flow; every invariant is a named, toggleable
  :class:`Rule` producing structured :class:`Violation` records.
* :func:`run_differential` — runs all applicable flows on one design
  and flags feasibility disagreements and checker gaps (clean results
  the cycle-accurate simulator rejects).
* :func:`fuzz` — seeded random-design campaigns with greedy shrinking
  and a replayable JSONL corpus.
* :func:`run_campaign` — the same fuzz cases driven through a live
  in-process service or cluster while a deterministic fault injector
  (:mod:`repro.check.faults`) perturbs the fleet, with fleet-level
  invariants checked after every storm.
"""

from repro.check.campaign import (CampaignCase, CampaignCaseResult,
                                  CampaignHarness, CampaignReport,
                                  generate_campaign_cases,
                                  run_campaign, run_campaign_case)
from repro.check.faults import (CLUSTER_KINDS, SERVE_KINDS,
                                FaultEvent, FaultInjector,
                                generate_events)
from repro.check.fuzz import (CaseResult, FuzzCase, FuzzReport,
                              fuzz, generate_cases, load_corpus,
                              run_case, shrink)
from repro.check.oracle import (FlowOutcome, OracleReport,
                                applicable_flows, proof_refutes,
                                run_differential)
from repro.check.report import CheckError, CheckReport, Violation
from repro.check.rules import RULES, Rule, check_result, rule_names

__all__ = [
    "CLUSTER_KINDS", "CampaignCase", "CampaignCaseResult",
    "CampaignHarness", "CampaignReport", "CaseResult", "CheckError",
    "CheckReport", "FaultEvent", "FaultInjector", "FlowOutcome",
    "FuzzCase", "FuzzReport", "OracleReport", "RULES", "Rule",
    "SERVE_KINDS", "Violation", "applicable_flows", "check_result",
    "fuzz", "generate_campaign_cases", "generate_cases",
    "generate_events", "load_corpus", "proof_refutes", "rule_names",
    "run_campaign", "run_campaign_case", "run_case",
    "run_differential", "shrink",
]
