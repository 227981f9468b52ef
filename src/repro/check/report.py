"""Structured violation records and check reports.

A :class:`Violation` is one broken invariant, tagged with the
:class:`~repro.check.rules.Rule` that found it and enough structured
context (``where``) to locate the offending op / bus / chip / group
without parsing the message.  A :class:`CheckReport` aggregates the
violations of one :func:`repro.check.check_result` run together with
the set of rules that actually ran, so "clean" is always relative to
an explicit rule set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError


class CheckError(ReproError):
    """A checked synthesis result carries invariant violations.

    ``report`` is the failing :class:`CheckReport`; ``result`` the
    checked result when the raiser had one (flows always do).
    """

    def __init__(self, report: "CheckReport", result=None) -> None:
        super().__init__(
            "synthesis result failed the design-rule check:\n  "
            + "\n  ".join(v.message for v in report.violations))
        self.report = report
        self.result = result


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``rule`` names the :class:`~repro.check.rules.Rule` that fired;
    ``where`` holds structured locators (``op``, ``bus``, ``chip``,
    ``group``, ``step``, ``segment`` — whichever apply).
    """

    rule: str
    message: str
    where: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def at(cls, rule: str, message: str, **where: Any) -> "Violation":
        return cls(rule=rule, message=message,
                   where=tuple(sorted(where.items())))

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.rule, "message": self.message,
                "where": dict(self.where)}


@dataclass
class CheckReport:
    """Everything one :func:`repro.check.check_result` run produced."""

    violations: List[Violation] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)
    rules_skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> Dict[str, List[Violation]]:
        out: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            out.setdefault(violation.rule, []).append(violation)
        return out

    def messages(self) -> List[str]:
        return [f"[{v.rule}] {v.message}" for v in self.violations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "rules_run": list(self.rules_run),
            "rules_skipped": list(self.rules_skipped),
        }

    def raise_if_violations(self, result=None) -> "CheckReport":
        if self.violations:
            raise CheckError(self, result)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"CheckReport({state}, {len(self.rules_run)} rules)"
