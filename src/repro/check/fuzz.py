"""Seeded differential fuzzing with greedy shrinking.

Each fuzz case is a tuple of generator parameters for
:func:`repro.designs.random_designs.random_partitioned_design` plus an
initiation rate, drawn from a string-seeded stream (same determinism
contract as the generator itself: identical across processes and
``PYTHONHASHSEED`` values).  A case *fails* when the differential
oracle finds an invariant violation, a feasibility disagreement, or a
checker gap; failing cases are greedily shrunk (fewer ops, fewer
chips, lower rate, narrower width set) while the failure *signature* —
the sorted set of violated rule names and disagreement kinds — is
preserved, then appended to a replayable JSONL corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro import jsonl
from repro.check.oracle import OracleReport, run_differential
from repro.designs.random_designs import random_partitioned_design
from repro.errors import ReproError

#: Generator parameter pools the fuzzer draws from.  Pin budgets lean
#: tight on purpose: the interesting bugs live where the budget barely
#: fits (or barely doesn't).
_N_CHIPS = (2, 3, 4)
_N_OPS = tuple(range(6, 17))
_WIDTH_SETS = ((8,), (8, 16), (4, 8, 16), (16, 24))
_PIN_BUDGETS = (12, 16, 24, 32, 48, 64, 96, 128, 256)
_RATES = (1, 2, 3, 4)


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible fuzz input (pure data, JSON round-trippable)."""

    seed: int
    n_chips: int = 3
    n_ops: int = 12
    widths: Tuple[int, ...] = (8, 16)
    pin_budget: int = 256
    bidirectional: bool = False
    output_pins: Optional[int] = None
    rate: int = 1

    def build(self):
        graph, partitioning = random_partitioned_design(
            self.seed, n_chips=self.n_chips, n_ops=self.n_ops,
            widths=self.widths, pin_budget=self.pin_budget,
            bidirectional=self.bidirectional,
            output_pins=self.output_pins)
        return graph, partitioning

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed, "n_chips": self.n_chips,
            "n_ops": self.n_ops, "widths": list(self.widths),
            "pin_budget": self.pin_budget,
            "bidirectional": self.bidirectional,
            "output_pins": self.output_pins, "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzCase":
        known = dict(data)
        known.pop("signature", None)
        known["widths"] = tuple(known.get("widths", (8, 16)))
        fields = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in known.items() if k in fields})


@dataclass
class CaseResult:
    """Outcome of running the oracle on one fuzz case."""

    case: FuzzCase
    oracle: OracleReport

    @property
    def failed(self) -> bool:
        return not self.oracle.ok

    def signature(self) -> List[str]:
        """Stable failure fingerprint used to guide shrinking."""
        sig = set()
        for outcome in self.oracle.outcomes:
            if outcome.report is None or outcome.acceptable:
                continue
            for violation in outcome.report.violations:
                sig.add(f"{outcome.flow}:{violation.rule}")
        if self.oracle.disagreements:
            sig.add("disagreement")
        if self.oracle.checker_gaps:
            sig.add("checker-gap")
        return sorted(sig)


@dataclass
class FuzzReport:
    """Summary of one fuzz run."""

    cases_run: int = 0
    failures: List[CaseResult] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    disagreements: List[str] = field(default_factory=list)
    checker_gaps: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "cases_run": self.cases_run,
            "failures": [
                {"case": f.case.to_dict(),
                 "signature": f.signature(),
                 "oracle": f.oracle.to_dict()}
                for f in self.failures],
            "violations": list(self.violations),
            "disagreements": list(self.disagreements),
            "checker_gaps": list(self.checker_gaps),
        }


# ---------------------------------------------------------------------
def generate_cases(seed: str, count: int) -> Iterator[FuzzCase]:
    """Deterministic case stream for a string seed."""
    for index in range(count):
        rng = random.Random(f"repro-fuzz:{seed}:{index}")
        widths = _WIDTH_SETS[rng.randrange(len(_WIDTH_SETS))]
        pin_budget = rng.choice(_PIN_BUDGETS)
        bidirectional = rng.random() < 0.25
        output_pins = None
        if not bidirectional and rng.random() < 0.4:
            # A fixed, often lopsided, input/output split.
            output_pins = max(
                1, pin_budget // rng.choice((2, 3, 4)))
        yield FuzzCase(
            seed=rng.randrange(1_000_000),
            n_chips=rng.choice(_N_CHIPS),
            n_ops=rng.choice(_N_OPS),
            widths=widths,
            pin_budget=pin_budget,
            bidirectional=bidirectional,
            output_pins=output_pins,
            rate=rng.choice(_RATES),
        )


def run_case(case: FuzzCase,
             timeout_ms: Optional[float] = None) -> CaseResult:
    """Build the case's design and run the differential oracle."""
    from repro.explore.worker import resolve_timing

    graph, partitioning = case.build()
    timing = resolve_timing("ar")
    oracle = run_differential(graph, partitioning, timing, case.rate,
                              timeout_ms=timeout_ms)
    return CaseResult(case, oracle)


def shrink(case: FuzzCase, signature: List[str],
           timeout_ms: Optional[float] = None,
           max_attempts: int = 64) -> FuzzCase:
    """Greedy shrink: keep any reduction that preserves the signature.

    Tries, in order of simplification power: halve then decrement the
    op count, drop chips, lower the rate, collapse the width set.
    Deterministic and bounded by ``max_attempts`` oracle runs.
    """
    def still_fails(candidate: FuzzCase) -> bool:
        try:
            return run_case(candidate, timeout_ms).signature() \
                == signature
        except ReproError:
            return False

    attempts = 0
    current = case
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
            if attempts >= max_attempts:
                break
    return current


def _shrink_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    if case.n_ops > 1:
        if case.n_ops > 2:
            yield replace(case, n_ops=case.n_ops // 2)
        yield replace(case, n_ops=case.n_ops - 1)
    if case.n_chips > 2:
        yield replace(case, n_chips=case.n_chips - 1)
    if case.rate > 1:
        yield replace(case, rate=case.rate - 1)
    if len(case.widths) > 1:
        yield replace(case, widths=(min(case.widths),))
    if case.output_pins is not None:
        yield replace(case, output_pins=None)


def fuzz(seed: str, cases: int = 200,
         timeout_ms: Optional[float] = None,
         corpus_path: Optional[str] = None,
         do_shrink: bool = True) -> FuzzReport:
    """Run a seeded fuzz campaign; shrink and record failures.

    With ``corpus_path``, previously recorded failures are replayed
    *first* (regressions fail fast) and new shrunk failures are
    appended.
    """
    report = FuzzReport()
    if corpus_path is not None:
        for case in load_corpus(corpus_path):
            _run_into(report, case, timeout_ms, shrunk=True,
                      corpus_path=None)
    for case in generate_cases(seed, cases):
        _run_into(report, case, timeout_ms, shrunk=not do_shrink,
                  corpus_path=corpus_path)
    return report


def _run_into(report: FuzzReport, case: FuzzCase,
              timeout_ms: Optional[float], shrunk: bool,
              corpus_path: Optional[str]) -> None:
    result = run_case(case, timeout_ms)
    report.cases_run += 1
    if not result.failed:
        return
    if not shrunk:
        signature = result.signature()
        small = shrink(case, signature, timeout_ms)
        if small != case:
            result = run_case(small, timeout_ms)
    report.failures.append(result)
    report.violations.extend(
        f"{result.case.to_dict()}: {m}"
        for m in result.oracle.violations())
    report.disagreements.extend(
        f"{result.case.to_dict()}: {m}"
        for m in result.oracle.disagreements)
    report.checker_gaps.extend(
        f"{result.case.to_dict()}: {m}"
        for m in result.oracle.checker_gaps)
    if corpus_path is not None:
        append_corpus(corpus_path, result)


# ---------------------------------------------------------------------
def append_corpus(path: str, result: CaseResult) -> None:
    jsonl.append(path, dict(result.case.to_dict(),
                            signature=result.signature()))


def load_corpus(path: str) -> List[FuzzCase]:
    """Load a JSONL corpus, skipping blank or corrupt lines."""
    try:
        entries = jsonl.read(path)[0]
    except FileNotFoundError:
        return []
    cases: List[FuzzCase] = []
    for entry in entries:
        try:
            cases.append(FuzzCase.from_dict(entry))
        except (ValueError, TypeError):
            continue
    return cases
