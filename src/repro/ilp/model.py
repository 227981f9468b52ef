"""Modelling layer for (integer) linear programs.

A tiny algebraic front end: variables combine into linear expressions
with ``+ - *``; comparing an expression to a number (or another
expression) yields a :class:`Constraint`.  The model collects variables,
constraints and an objective, and is consumed by the solvers in
:mod:`repro.ilp.simplex`, :mod:`repro.ilp.branch_bound` and
:mod:`repro.ilp.gomory`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import IlpError

Number = Union[int, float, Fraction]


def _frac(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 9)
    raise IlpError(f"cannot use {x!r} as a coefficient")


class Sense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class Var:
    """A decision variable.

    ``lb``/``ub`` are simple bounds (``ub=None`` means +inf); solvers
    treat them natively where possible.  ``integer=True`` restricts to
    integers, the common case in this library (binary variables are
    integers with bounds 0..1).
    """

    index: int
    name: str
    lb: Fraction
    ub: Optional[Fraction]
    integer: bool

    # -- algebra --------------------------------------------------------
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: Fraction(1)}, Fraction(0))

    def __add__(self, other): return self._expr() + other
    def __radd__(self, other): return self._expr() + other
    def __sub__(self, other): return self._expr() - other
    def __rsub__(self, other): return (-1) * self._expr() + other
    def __mul__(self, other): return self._expr() * other
    def __rmul__(self, other): return self._expr() * other
    def __neg__(self): return self._expr() * -1

    def __le__(self, other): return self._expr() <= other
    def __ge__(self, other): return self._expr() >= other
    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Var):
            return self.index == other.index
        return self._expr() == other

    def __hash__(self) -> int:
        return hash(("Var", self.index))

    def __repr__(self) -> str:
        return self.name


class LinExpr:
    """A linear expression ``sum(coef * var) + const`` over Fractions."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: Optional[Mapping[int, Fraction]] = None,
                 const: Number = 0) -> None:
        self.terms: Dict[int, Fraction] = dict(terms or {})
        self.const: Fraction = _frac(const)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return value._expr()
        return LinExpr({}, _frac(value))

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.const)

    def __add__(self, other) -> "LinExpr":
        rhs = self._coerce(other)
        out = self.copy()
        for idx, coef in rhs.terms.items():
            out.terms[idx] = out.terms.get(idx, Fraction(0)) + coef
            if out.terms[idx] == 0:
                del out.terms[idx]
        out.const += rhs.const
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (self._coerce(other) * -1)

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other) + (self * -1)

    def __mul__(self, scalar) -> "LinExpr":
        k = _frac(scalar)
        return LinExpr({i: c * k for i, c in self.terms.items() if c * k},
                       self.const * k)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, ">=")

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - other, "==")

    def __hash__(self):  # expressions are mutable-ish; no hashing
        raise TypeError("LinExpr is unhashable")

    def value(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = self.const
        for idx, coef in self.terms.items():
            total += coef * assignment.get(idx, Fraction(0))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coef}*x{idx}" for idx, coef in sorted(self.terms.items())]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass
class Constraint:
    """``expr (op) 0`` where op is <=, >= or ==; rhs folded into expr."""

    expr: LinExpr
    op: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">=", "=="):
            raise IlpError(f"bad constraint operator {self.op!r}")

    def named(self, name: str) -> "Constraint":
        self.name = name
        return self

    def satisfied(self, assignment: Mapping[int, Fraction],
                  tol: Fraction = Fraction(0)) -> bool:
        lhs = self.expr.value(assignment)
        if self.op == "<=":
            return lhs <= tol
        if self.op == ">=":
            return lhs >= -tol
        return -tol <= lhs <= tol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.op} 0"


@dataclass
class Solution:
    """Result of a solve: status, objective and variable values."""

    status: SolveStatus
    objective: Optional[Fraction] = None
    values: Dict[int, Fraction] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def __getitem__(self, var: Var) -> Fraction:
        return self.values.get(var.index, Fraction(0))

    def as_int(self, var: Var) -> int:
        value = self[var]
        if value.denominator != 1:
            raise IlpError(f"{var.name} = {value} is not integral")
        return int(value)


class Model:
    """A (mixed) integer linear program."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.vars: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: Sense = Sense.MINIMIZE
        self._names: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def add_var(self, name: str, lb: Number = 0, ub: Optional[Number] = None,
                integer: bool = True) -> Var:
        if name in self._names:
            raise IlpError(f"duplicate variable name {name!r}")
        lower = _frac(lb)
        upper = None if ub is None else _frac(ub)
        if upper is not None and upper < lower:
            raise IlpError(f"variable {name!r}: ub {upper} < lb {lower}")
        var = Var(len(self.vars), name, lower, upper, integer)
        self.vars.append(var)
        self._names[name] = var.index
        return var

    def binary(self, name: str) -> Var:
        return self.add_var(name, 0, 1, integer=True)

    def var_by_name(self, name: str) -> Var:
        try:
            return self.vars[self._names[name]]
        except KeyError:
            raise IlpError(f"unknown variable {name!r}") from None

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense = Sense.MINIMIZE

    def maximize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense = Sense.MAXIMIZE

    # ------------------------------------------------------------------
    def stats(self) -> Tuple[int, int, int]:
        """(variables, integer variables, constraints) — tableau sizing."""
        n_int = sum(1 for v in self.vars if v.integer)
        return len(self.vars), n_int, len(self.constraints)

    def check(self, assignment: Mapping[int, Fraction]) -> bool:
        """Verify an assignment against bounds and all constraints."""
        for var in self.vars:
            value = assignment.get(var.index, Fraction(0))
            if value < var.lb:
                return False
            if var.ub is not None and value > var.ub:
                return False
            if var.integer and value.denominator != 1:
                return False
        return all(c.satisfied(assignment) for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n, n_int, m = self.stats()
        return (f"Model({self.name!r}, vars={n} ({n_int} int), "
                f"constraints={m})")


def lsum(items) -> LinExpr:
    """Sum of variables/expressions as a LinExpr (like ``sum`` but typed)."""
    total = LinExpr()
    for item in items:
        total = total + item
    return total
