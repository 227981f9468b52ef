"""Sparse integer-scaled exact simplex tableau.

One shared structure serves the two-phase primal simplex, the dual
simplex, and the Gomory dual all-integer cutting-plane algorithm.  Each
constraint row is stored as a dict of *integer numerators* over the
row's nonzero columns plus one positive per-row denominator, so the
entry value is ``nums[j] / den`` — exact rational arithmetic without a
:class:`fractions.Fraction` (and its per-cell gcd) in any inner loop:

* all-integer pivots (the Gomory path pivots on ``±1``) stay pure
  integer adds/multiplies over the union of two sparsity patterns;
* fractional pivots scale the touched row once and re-normalize it with
  a *single* lazy gcd pass (early exit on gcd 1) instead of reducing
  every cell independently;
* zero columns are skipped entirely — rows never materialize them.

Ratio tests compare exact rationals by integer cross-multiplication, so
pivot choices (Bland's rule, dual ratio tie-breaks) are identical to the
dense Fraction implementation, which is preserved in
:mod:`repro.ilp.dense_tableau` and can shadow every operation here via
cross-check mode (see :func:`set_cross_check`).

Undo journal
------------
``mark()`` / ``undo_to(mark)`` give snapshot-free backtracking: pivots
replace row dicts copy-on-write and log the displaced dict references,
so rolling back costs O(touched rows) pointer restores instead of the
O(rows x cols) full-tableau copies the old ``snapshot()/restore()``
protocol paid on *every* feasibility probe.

Journaling is *first-touch*: a row (with its rhs, denominator and
basic column), or the cost row, is logged only on its first change
since the latest live mark; undo pops in reverse, so that entry alone
restores the marked state.  Each live mark keeps the rows it logged,
so nested marks restore exactly, and the journal stays bounded by the
tableau size per live mark however long a re-optimisation runs.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.errors import IlpError
from repro.perf import PERF

ZERO = Fraction(0)
ONE = Fraction(1)

#: Key of the cost row in a mark's set of journaled rows.
_COST = -1

#: When True, every Tableau mirrors its operations onto a
#: :class:`repro.ilp.dense_tableau.DenseTableau` shadow and compares the
#: two after each mutation.  Debug only — dense arithmetic is the cost
#: this module exists to remove.
_CROSS_CHECK = bool(int(os.environ.get("REPRO_ILP_CROSSCHECK", "0") or 0))


def set_cross_check(enabled: bool) -> None:
    """Globally enable/disable the dense-Fraction shadow cross-check."""
    global _CROSS_CHECK
    _CROSS_CHECK = bool(enabled)


def cross_check_enabled() -> bool:
    return _CROSS_CHECK


def _scale_to_ints(coeffs: Dict[int, Fraction],
                   rhs: Fraction) -> Tuple[Dict[int, int], int, int]:
    """(integer numerators, rhs numerator, denominator) for a row."""
    den = rhs.denominator if isinstance(rhs, Fraction) else 1
    for c in coeffs.values():
        if isinstance(c, Fraction) and c.denominator != 1:
            den = den * c.denominator // gcd(den, c.denominator)
    nums = {j: int(c * den) for j, c in coeffs.items() if c}
    return nums, int(rhs * den), den


class Tableau:
    """Sparse integer-scaled simplex tableau.

    Row ``i`` holds value ``_nums[i][j] / _dens[i]`` in column ``j``
    (missing keys are zero) and rhs ``_rhs_num[i] / _dens[i]``.  The
    cost row uses the same scheme; ``_cost_rhs / _cost_den`` holds
    ``-z``.  ``basis[i]`` is the column basic in row ``i``.
    """

    __slots__ = ("_nums", "_rhs_num", "_dens", "_cost_nums", "_cost_rhs",
                 "_cost_den", "basis", "_n_cols", "_journal", "_marks",
                 "_shadow")

    def __init__(self, rows: Optional[List[List[Fraction]]] = None,
                 cost: Optional[List[Fraction]] = None,
                 basis: Optional[List[int]] = None) -> None:
        """Dense-compatible constructor (``rows[i][-1]`` is the rhs)."""
        rows = rows or []
        cost = cost if cost is not None else [ZERO]
        basis = basis or []
        if len(basis) != len(rows):
            raise IlpError("basis size must match row count")
        width = len(cost)
        for row in rows:
            if len(row) != width:
                raise IlpError("ragged tableau")
        n_cols = width - 1
        self._nums: List[Dict[int, int]] = []
        self._rhs_num: List[int] = []
        self._dens: List[int] = []
        for row in rows:
            coeffs = {j: Fraction(row[j]) for j in range(n_cols) if row[j]}
            nums, rhs_num, den = _scale_to_ints(coeffs, Fraction(row[-1]))
            self._nums.append(nums)
            self._rhs_num.append(rhs_num)
            self._dens.append(den)
        ccoeffs = {j: Fraction(cost[j]) for j in range(n_cols) if cost[j]}
        self._cost_nums, self._cost_rhs, self._cost_den = \
            _scale_to_ints(ccoeffs, Fraction(cost[-1]))
        self.basis = list(basis)
        self._n_cols = n_cols
        self._journal: Optional[list] = None
        #: Live marks, oldest first: (journal position, rows journaled
        #: since then).  The first is the implicit mark at position 0.
        self._marks: List[Tuple[int, set]] = []
        self._shadow = None
        self._init_shadow()

    @classmethod
    def from_sparse(cls, n_cols: int, rows: List[Tuple[Dict[int, int], int]],
                    cost: Dict[int, int], basis: List[int],
                    dens: Optional[List[int]] = None) -> "Tableau":
        """Build directly from integer-scaled sparse data (no conversion).

        ``dens`` optionally gives the per-row denominator (default 1 —
        the all-integer case); row ``i``'s entry ``j`` is then
        ``rows[i][0][j] / dens[i]``.
        """
        tab = cls.__new__(cls)
        if len(basis) != len(rows):
            raise IlpError("basis size must match row count")
        if dens is not None and len(dens) != len(rows):
            raise IlpError("dens size must match row count")
        tab._nums = []
        tab._rhs_num = []
        tab._dens = []
        for i, (coeffs, rhs) in enumerate(rows):
            for j in coeffs:
                if not 0 <= j < n_cols:
                    raise IlpError(f"column {j} out of range")
            tab._nums.append({j: c for j, c in coeffs.items() if c})
            tab._rhs_num.append(rhs)
            tab._dens.append(1 if dens is None else dens[i])
        tab._cost_nums = {j: c for j, c in cost.items() if c}
        tab._cost_rhs = 0
        tab._cost_den = 1
        tab.basis = list(basis)
        tab._n_cols = n_cols
        tab._journal = None
        tab._marks = []
        tab._shadow = None
        tab._init_shadow()
        return tab

    # -- cross-check shadow --------------------------------------------
    def _init_shadow(self) -> None:
        if _CROSS_CHECK:
            from repro.ilp.dense_tableau import DenseTableau
            self._shadow = DenseTableau(self.rows, self.cost,
                                        list(self.basis))

    def _rebuild_shadow(self) -> None:
        if self._shadow is not None:
            self._init_shadow()

    def _check_shadow(self, what: str) -> None:
        if self._shadow is None:
            return
        if (self.rows != self._shadow.rows
                or self.cost != self._shadow.cost
                or self.basis != self._shadow.basis):
            raise IlpError(
                f"cross-check mismatch after {what}: sparse "
                "integer-scaled tableau diverged from the dense "
                "Fraction reference")

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._nums)

    @property
    def n_cols(self) -> int:
        """Number of variable columns (excluding the rhs)."""
        return self._n_cols

    @property
    def rows(self) -> List[List[Fraction]]:
        """Dense Fraction view (reconstruction; debugging/tests only)."""
        out = []
        for i in range(len(self._nums)):
            den = self._dens[i]
            nums = self._nums[i]
            row = [Fraction(nums.get(j, 0), den)
                   for j in range(self._n_cols)]
            row.append(Fraction(self._rhs_num[i], den))
            out.append(row)
        return out

    @property
    def cost(self) -> List[Fraction]:
        """Dense Fraction view of the cost row (reconstruction)."""
        den = self._cost_den
        row = [Fraction(self._cost_nums.get(j, 0), den)
               for j in range(self._n_cols)]
        row.append(Fraction(self._cost_rhs, den))
        return row

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._nums[i].get(j, 0), self._dens[i])

    def rhs(self, i: int) -> Fraction:
        return Fraction(self._rhs_num[i], self._dens[i])

    def objective_value(self) -> Fraction:
        return -Fraction(self._cost_rhs, self._cost_den)

    def copy(self) -> "Tableau":
        tab = Tableau.__new__(Tableau)
        tab._nums = [dict(r) for r in self._nums]
        tab._rhs_num = list(self._rhs_num)
        tab._dens = list(self._dens)
        tab._cost_nums = dict(self._cost_nums)
        tab._cost_rhs = self._cost_rhs
        tab._cost_den = self._cost_den
        tab.basis = list(self.basis)
        tab._n_cols = self._n_cols
        tab._journal, tab._marks = None, []
        if self._journal is not None:
            tab.enable_undo()
        tab._shadow = None
        tab._init_shadow()
        return tab

    # -- undo journal ---------------------------------------------------
    def enable_undo(self) -> None:
        if self._journal is None:
            self._journal = []
            self._marks = [(0, set())]

    def mark(self) -> int:
        """Checkpoint for :meth:`undo_to` (enables the journal)."""
        self.enable_undo()
        position = len(self._journal)
        if self._marks[-1][0] != position:
            self._marks.append((position, set()))
        return position

    def journal_clear(self) -> None:
        """Forget all checkpoints (after a committed state change)."""
        if self._journal is not None:
            self._journal.clear()
            self._marks = [(0, set())]

    def _touch(self, i: int) -> None:
        """Journal row ``i`` (``_COST``: the cost row) on its first
        change since the latest mark."""
        touched = self._marks[-1][1]
        if i not in touched:
            touched.add(i)
            self._journal.append(
                ("cost", self._cost_nums, self._cost_rhs, self._cost_den)
                if i == _COST else ("row", i, self._nums[i],
                                    self._rhs_num[i], self._dens[i],
                                    self.basis[i]))

    def undo_to(self, mark: int) -> None:
        """Roll back to a :meth:`mark` in O(entries touched since)."""
        journal = self._journal
        if journal is None:
            raise IlpError("undo journal is not enabled")
        PERF.inc("tableau.rollbacks")
        nums, rhs, dens = self._nums, self._rhs_num, self._dens
        while len(journal) > mark:
            entry = journal.pop()
            tag = entry[0]
            if tag == "row":
                _, i, nums[i], rhs[i], dens[i], self.basis[i] = entry
            elif tag == "cost":
                _, self._cost_nums, self._cost_rhs, self._cost_den = entry
            elif tag == "addrow":
                nums.pop()
                rhs.pop()
                dens.pop()
                self.basis.pop()
            elif tag == "addcol":
                self._n_cols -= 1
                self._cost_nums.pop(self._n_cols, None)
            else:  # pragma: no cover - defensive
                raise IlpError(f"unknown journal tag {tag!r}")
        # Marks above the target are gone; the target's set must name
        # exactly the rows its surviving entries restore.
        marks = self._marks
        while marks[-1][0] > mark:
            marks.pop()
        position, touched = marks[-1]
        touched.clear()
        touched.update(entry[1] if entry[0] == "row" else _COST
                       for entry in journal[position:]
                       if entry[0] in ("row", "cost"))
        if self._shadow is not None:
            self._rebuild_shadow()

    # -- structural edits -----------------------------------------------
    def add_column(self, value: int = 0) -> int:
        """Append a fresh column (zero everywhere); returns its index."""
        col = self._n_cols
        self._n_cols = col + 1
        if self._journal is not None:
            self._journal.append(("addcol",))
        if value:
            num, den = self._as_ratio(value)
            self._set_cost_entry(col, num, den)
        if self._shadow is not None:
            self._shadow.add_column(Fraction(value))
            self._check_shadow("add_column")
        return col

    @staticmethod
    def _as_ratio(value) -> Tuple[int, int]:
        if isinstance(value, int):
            return value, 1
        frac = Fraction(value)
        return frac.numerator, frac.denominator

    def _set_cost_entry(self, col: int, num: int, den: int) -> None:
        # Rescale the cost row so the new entry is representable.
        if den != self._cost_den:
            lcm = self._cost_den * den // gcd(self._cost_den, den)
            scale = lcm // self._cost_den
            new_cost = {j: v * scale for j, v in self._cost_nums.items()}
            new_rhs = self._cost_rhs * scale
            new_cost[col] = num * (lcm // den)
            if self._journal is not None:
                self._touch(_COST)
            self._cost_nums, self._cost_rhs, self._cost_den = \
                new_cost, new_rhs, lcm
        else:
            new_cost = dict(self._cost_nums)
            new_cost[col] = num
            if self._journal is not None:
                self._touch(_COST)
            self._cost_nums = new_cost

    def add_row(self, coeffs: Dict[int, int], rhs: int,
                basic_col: int, den: int = 1) -> int:
        """Append an integer-scaled sparse row basic in ``basic_col``."""
        for j in coeffs:
            if not 0 <= j < self._n_cols:
                raise IlpError(f"column {j} out of range")
        self._nums.append({j: c for j, c in coeffs.items() if c})
        self._rhs_num.append(rhs)
        self._dens.append(den)
        self.basis.append(basic_col)
        if self._journal is not None:
            self._journal.append(("addrow",))
        if self._shadow is not None:
            dense = [Fraction(coeffs.get(j, 0), den)
                     for j in range(self._n_cols)]
            self._shadow.add_row(dense, Fraction(rhs, den), basic_col)
            self._check_shadow("add_row")
        return len(self._nums) - 1

    def set_cost_sparse(self, cost: Dict[int, int], rhs: int = 0,
                        den: int = 1) -> None:
        """Install a new cost row (integer-scaled sparse)."""
        if self._journal is not None:
            self._touch(_COST)
        self._cost_nums = {j: c for j, c in cost.items() if c}
        self._cost_rhs = rhs
        self._cost_den = den
        if self._shadow is not None:
            self._shadow.cost = self.cost
            self._check_shadow("set_cost_sparse")

    # ------------------------------------------------------------------
    def pivot(self, row: int, col: int) -> None:
        """Pivot so column ``col`` becomes basic in ``row``.

        Copy-on-write: every touched row gets a fresh dict, and a row's
        first displaced dict since the latest mark goes to the journal,
        so rollback is a pointer restore.  All-integer pivots (``den ==
        1``, pivot value ``±1``) never leave the integer fast path.
        """
        PERF.inc("tableau.pivots")
        nums, rhs, dens = self._nums, self._rhs_num, self._dens
        journal = self._journal
        touched = self._marks[-1][1] if journal is not None else None
        prow = nums[row]
        p_num = prow.get(col, 0)
        if p_num == 0:
            raise IlpError("pivot on zero element")
        if touched is not None and row not in touched:
            self._touch(row)
        # Normalize the pivot row: new value_j = old_j / pivot, i.e.
        # numerators stay put and the denominator becomes |p_num|.
        if p_num < 0:
            new_p = {j: -v for j, v in prow.items()}
            p_rhs = -rhs[row]
            p_den = -p_num
        else:
            new_p = dict(prow)
            p_rhs = rhs[row]
            p_den = p_num
        if p_den != 1:
            g = gcd(p_den, p_rhs)
            if g != 1:
                for v in new_p.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
            if g > 1:
                new_p = {j: v // g for j, v in new_p.items()}
                p_rhs //= g
                p_den //= g
        nums[row] = new_p
        rhs[row] = p_rhs
        dens[row] = p_den

        # Eliminate ``col`` from every other row.
        p_items = list(new_p.items())
        for i in range(len(nums)):
            if i == row:
                continue
            orow = nums[i]
            f = orow.get(col, 0)
            if f == 0:
                continue
            if touched is not None and i not in touched:
                self._touch(i)
            if p_den == 1:
                # value_j = (o_j - f * p_j) / dens[i]: pure-integer path.
                d = dict(orow)
                for j, v in p_items:
                    nv = d.get(j, 0) - f * v
                    if nv:
                        d[j] = nv
                    else:
                        d.pop(j, None)
                nums[i] = d
                rhs[i] = rhs[i] - f * p_rhs
            else:
                # value_j = (o_j * p_den - f * p_j) / (dens[i] * p_den),
                # then one lazy gcd pass over the merged row.
                d = {j: v * p_den for j, v in orow.items()}
                for j, v in p_items:
                    nv = d.get(j, 0) - f * v
                    if nv:
                        d[j] = nv
                    else:
                        d.pop(j, None)
                new_rhs = rhs[i] * p_den - f * p_rhs
                new_den = dens[i] * p_den
                g = gcd(new_den, new_rhs)
                if g != 1:
                    for v in d.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                if g > 1:
                    d = {j: v // g for j, v in d.items()}
                    new_rhs //= g
                    new_den //= g
                nums[i] = d
                rhs[i] = new_rhs
                dens[i] = new_den

        # Cost row elimination.
        cf = self._cost_nums.get(col, 0)
        if cf:
            if journal is not None:
                self._touch(_COST)
            if p_den == 1:
                d = dict(self._cost_nums)
                for j, v in p_items:
                    nv = d.get(j, 0) - cf * v
                    if nv:
                        d[j] = nv
                    else:
                        d.pop(j, None)
                self._cost_nums = d
                self._cost_rhs = self._cost_rhs - cf * p_rhs
            else:
                d = {j: v * p_den for j, v in self._cost_nums.items()}
                for j, v in p_items:
                    nv = d.get(j, 0) - cf * v
                    if nv:
                        d[j] = nv
                    else:
                        d.pop(j, None)
                new_rhs = self._cost_rhs * p_den - cf * p_rhs
                new_den = self._cost_den * p_den
                g = gcd(new_den, new_rhs)
                if g != 1:
                    for v in d.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                if g > 1:
                    d = {j: v // g for j, v in d.items()}
                    new_rhs //= g
                    new_den //= g
                self._cost_nums = d
                self._cost_rhs = new_rhs
                self._cost_den = new_den

        self.basis[row] = col
        if self._shadow is not None:
            self._shadow.pivot(row, col)
            self._check_shadow("pivot")

    # ------------------------------------------------------------------
    def apply_column_shift(self, col: int, amount: int) -> None:
        """Subtract ``amount`` times column ``col`` from the rhs column
        — the Equations 3.12 -> 3.13 lower-bound substitution."""
        journal = self._journal
        nums, rhs = self._nums, self._rhs_num
        for i in range(len(nums)):
            v = nums[i].get(col, 0)
            if v:
                if journal is not None:
                    self._touch(i)
                rhs[i] = rhs[i] - v * amount
        cv = self._cost_nums.get(col, 0)
        if cv:
            if journal is not None:
                self._touch(_COST)
            self._cost_rhs -= cv * amount
        if self._shadow is not None:
            self._shadow.apply_column_shift(col, amount)
            self._check_shadow("apply_column_shift")

    def price_out_basis(self) -> None:
        """Zero the reduced cost of every basic column."""
        for i in range(len(self._nums)):
            b = self.basis[i]
            c = self._cost_nums.get(b, 0)
            if c:
                self._subtract_scaled_row_from_cost(i, c)
        if self._shadow is not None:
            self._check_shadow("price_out_basis")

    def _subtract_scaled_row_from_cost(self, i: int, c_num: int) -> None:
        """cost -= (c_num / cost_den) * row_i, exactly."""
        den_i = self._dens[i]
        if self._journal is not None:
            self._touch(_COST)
        if den_i == 1:
            d = dict(self._cost_nums)
            for j, v in self._nums[i].items():
                nv = d.get(j, 0) - c_num * v
                if nv:
                    d[j] = nv
                else:
                    d.pop(j, None)
            self._cost_nums = d
            self._cost_rhs = self._cost_rhs - c_num * self._rhs_num[i]
        else:
            d = {j: v * den_i for j, v in self._cost_nums.items()}
            for j, v in self._nums[i].items():
                nv = d.get(j, 0) - c_num * v
                if nv:
                    d[j] = nv
                else:
                    d.pop(j, None)
            new_rhs = self._cost_rhs * den_i - c_num * self._rhs_num[i]
            new_den = self._cost_den * den_i
            g = gcd(new_den, new_rhs)
            if g != 1:
                for v in d.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
            if g > 1:
                d = {j: v // g for j, v in d.items()}
                new_rhs //= g
                new_den //= g
            self._cost_nums = d
            self._cost_rhs = new_rhs
            self._cost_den = new_den
        if self._shadow is not None:
            coef = self._shadow.cost[self.basis[i]]
            if coef:
                self._shadow.cost = [
                    a - coef * r
                    for a, r in zip(self._shadow.cost, self._shadow.rows[i])]

    # ------------------------------------------------------------------
    def primal_simplex(self, max_iter: int = 100_000,
                       banned: Optional[set] = None) -> str:
        """Minimize with Bland's rule from a primal-feasible basis.

        ``banned`` columns never *enter* the basis (used to retire the
        phase-1 artificial variables — later pivots can make their
        reduced costs negative again, and letting one back in would
        silently relax its constraint).  Returns ``"optimal"`` or
        ``"unbounded"``.
        """
        nums, rhs = self._nums, self._rhs_num
        for _ in range(max_iter):
            # Bland: smallest column index with a negative reduced cost
            # (cost_den > 0, so the numerator sign is the value sign).
            entering = None
            for j, v in self._cost_nums.items():
                if v < 0 and (banned is None or j not in banned):
                    if entering is None or j < entering:
                        entering = j
            if entering is None:
                return "optimal"
            leaving = None
            best_num = best_den = 0
            for i in range(len(nums)):
                coef = nums[i].get(entering, 0)
                if coef > 0:
                    # ratio = rhs_i / coef_i (the row den cancels);
                    # cross-multiply to compare exactly.
                    rn = rhs[i]
                    if leaving is None:
                        best_num, best_den, leaving = rn, coef, i
                    else:
                        lhs = rn * best_den
                        rhs_cmp = best_num * coef
                        if lhs < rhs_cmp or (
                                lhs == rhs_cmp
                                and self.basis[i] < self.basis[leaving]):
                            best_num, best_den, leaving = rn, coef, i
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)
        raise IlpError("primal simplex iteration limit exceeded")

    def dual_simplex(self, max_iter: int = 100_000) -> str:
        """Restore primal feasibility from a dual-feasible tableau.

        Returns ``"optimal"`` or ``"infeasible"``.
        """
        nums, rhs, dens = self._nums, self._rhs_num, self._dens
        for _ in range(max_iter):
            # Most-negative-rhs row (cross-multiplied: dens positive).
            leaving = None
            for i in range(len(nums)):
                if rhs[i] < 0 and (
                        leaving is None
                        or rhs[i] * dens[leaving]
                        < rhs[leaving] * dens[i]):
                    leaving = i
            if leaving is None:
                return "optimal"
            # Entering column: min cost_j / (-coef_j) over negative
            # coefficients; the shared row den cancels, so compare
            # cost numerators against negated coefficient numerators.
            entering = None
            best_cn = best_cd = 0
            for j, coef in nums[leaving].items():
                if coef < 0:
                    cn = self._cost_nums.get(j, 0)
                    cd = -coef
                    if entering is None:
                        best_cn, best_cd, entering = cn, cd, j
                    else:
                        lhs = cn * best_cd
                        rhs_cmp = best_cn * cd
                        if lhs < rhs_cmp or (lhs == rhs_cmp
                                             and j < entering):
                            best_cn, best_cd, entering = cn, cd, j
            if entering is None:
                return "infeasible"
            self.pivot(leaving, entering)
        raise IlpError("dual simplex iteration limit exceeded")

    # ------------------------------------------------------------------
    def basic_values(self) -> List[Tuple[int, Fraction]]:
        """(column, value) for every basic variable — one pass."""
        rhs, dens = self._rhs_num, self._dens
        return [(self.basis[i], Fraction(rhs[i], dens[i]))
                for i in range(len(rhs))]

    def integral_basic_values(self) -> Optional[Dict[int, int]]:
        """Basic values as ints, or None as soon as one is fractional.

        Single pass with early exit — callers that need "is the basis
        integral, and if so what is it" avoid scanning twice.
        """
        out: Dict[int, int] = {}
        rhs, dens = self._rhs_num, self._dens
        for i in range(len(rhs)):
            den = dens[i]
            if den == 1:
                out[self.basis[i]] = rhs[i]
            else:
                if rhs[i] % den:
                    return None
                out[self.basis[i]] = rhs[i] // den
        return out

    def is_integral(self) -> bool:
        """Early-exit scan of the rhs column only."""
        rhs, dens = self._rhs_num, self._dens
        for i in range(len(rhs)):
            if dens[i] != 1 and rhs[i] % dens[i]:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tableau(rows={self.n_rows}, cols={self.n_cols})"
