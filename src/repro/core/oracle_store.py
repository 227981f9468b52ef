"""Process-wide persistent pin-feasibility oracle store.

The :class:`~repro.core.pin_allocation.PinAllocationChecker` answers
"would pinning op ``w`` to control-step group ``k`` keep the pin ILP
feasible?" — a pure function of *(design structure, committed set,
probed bound, pin budgets)*.  Historically each checker memoized those
verdicts in a private dict and threw them away with the checker, even
though explorer sweeps and the synthesis service re-solve the same
design at nudged budgets constantly.  This module lifts that dict into
a shareable :class:`OracleStore`:

* **keyed by structure, not budgets** — the design signature covers the
  graph, the initiation rate, and each chip's port-model *pattern*
  (bidirectional / split-fixed flags), while every recorded verdict
  carries the concrete budget vector it was proved at;
* **monotonicity shortcuts** — pin feasibility is monotone in the
  budget vector (every budget is the rhs of a ``<=`` row or an upper
  bound, i.e. raising it only relaxes the ILP), so a verdict at one
  budget answers queries at *dominating* budgets: feasible at a
  component-wise smaller-or-equal vector implies feasible; an
  infeasibility proof at a component-wise larger-or-equal vector
  implies infeasible.  Many neighbor-point queries need no ILP at all;
* **JSONL persistence** under the :mod:`repro.jsonl` contract, like
  the explorer's :class:`repro.explore.cache.ResultCache`;
* **coverage pruning** — a record is kept only if no entry already
  under its key answers every query the record would answer (see
  :func:`_covers`).  The checker re-records each finished schedule's
  whole commit trajectory, and on neighbouring budgets almost all of
  those re-records say nothing new; dropping them keeps buckets, the
  file and every delta small without changing any answer;
* **cross-process deltas** — forked pool workers inherit the parent's
  store (see :func:`activate`), record into memory only, and ship the
  appended suffix back via :meth:`delta_since` for the parent to
  :meth:`merge`, mirroring the :class:`repro.perf.PerfRegistry`
  aggregation contract.

Soundness rule: only verdicts proved by *exact* methods (Gomory
cutting planes, branch & bound) may be recorded.  The checker's
LP-relaxation degradation rung gives optimistic "yes" answers that
would poison a shared store; the checker keeps those to itself.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro import jsonl
from repro.perf import PERF

#: Store line format version.
STORE_VERSION = 1

#: (design signature, committed-set fingerprint, node name, group).
OracleKey = Tuple[str, Tuple[Tuple[str, int], ...], str, int]

#: Per-chip budget components in sorted chip-index order, flattened:
#: (total_pins, input_pins or -1, output_pins or -1) per chip.  The -1
#: placeholders line up across queries because the split-fixed pattern
#: is part of the design signature.
BudgetVector = Tuple[int, ...]

#: The pseudo-query meaning "is the base model (plus committed set)
#: feasible at all?" — the checker's constructor question.
INIT_NODE = ""
INIT_GROUP = -1


def budget_vector(partitioning) -> BudgetVector:
    """The monotone budget coordinates of a partitioning."""
    out: List[int] = []
    for index in partitioning.indices():
        spec = partitioning.chip(index)
        out.append(spec.total_pins)
        out.append(-1 if spec.input_pins is None else spec.input_pins)
        out.append(-1 if spec.output_pins is None else spec.output_pins)
    return tuple(out)


def _dominates_le(smaller: BudgetVector, larger: BudgetVector) -> bool:
    """True when ``smaller <= larger`` component-wise (same pattern)."""
    if len(smaller) != len(larger):
        return False
    return all(a <= b for a, b in zip(smaller, larger))


def _witness_fits(witness: BudgetVector, budgets: BudgetVector) -> bool:
    """Does a feasible point's usage vector fit inside ``budgets``?

    ``-1`` on either side means "this coordinate is unconstrained"
    (no split input/output cap in the budget, or a port-model slot the
    ILP never bounds in the witness) and is skipped.  Positions align
    because the split-fixed pattern is part of the design signature.
    """
    if len(witness) != len(budgets):
        return False
    return all(w <= b for w, b in zip(witness, budgets)
               if w >= 0 and b >= 0)


#: One kept verdict: (budget vector, verdict, witness-or-None).
Entry = Tuple[BudgetVector, bool, Optional[BudgetVector]]


def _covers(old: Entry, budgets: BudgetVector, verdict: bool,
            witness: Optional[BudgetVector]) -> bool:
    """Does ``old`` answer every query the new record would answer?

    The verdicts must match.  *Infeasible*: ``old`` sits at a
    component-wise ``>=`` budget vector.  *Feasible*: ``old`` answers
    the new budget vector (dominance or witness fit, hence everything
    above it too) and, if the new record has a witness, ``old``'s
    witness is component-wise ``<=`` it — no larger on every slot the
    new one constrains, ``-1`` wherever the new one is ``-1``.  An
    entry without a witness covers only through its budget vector.
    Verdicts are exact, so dropping a covered record changes no
    :meth:`OracleStore.lookup` answer; an ``"exact"`` hit may become
    a ``"dominance"`` one.
    """
    vec, old_verdict, old_witness = old
    if old_verdict != verdict:
        return False
    if not verdict:
        return _dominates_le(budgets, vec)
    if not (_dominates_le(vec, budgets)
            or (old_witness is not None
                and _witness_fits(old_witness, budgets))):
        return False
    return witness is None or (old_witness is not None
                               and _dominates_le(old_witness, witness))


def _plain(key: OracleKey, budgets: BudgetVector, verdict: bool,
           witness: Optional[BudgetVector]) -> Dict[str, Any]:
    """The JSON-able form of a kept entry (log, delta and file line)."""
    entry: Dict[str, Any] = {
        "sig": key[0], "fp": [list(p) for p in key[1]],
        "node": key[2], "group": key[3],
        "budgets": [int(b) for b in budgets], "verdict": verdict,
    }
    if witness is not None:
        entry["witness"] = [int(w) for w in witness]
    return entry


class OracleStore:
    """Budget-indexed verdict lists with dominance lookup.

    Thread-safe (service handlers and pool threads share one instance);
    persistence is optional and append-only.  A store created in a
    parent process stops writing to disk after a ``fork`` — children
    record in memory and return deltas, the parent owns the file.

    Entries are never evicted: a record is either kept (appended to its
    bucket, the log and the file) or dropped as covered on arrival.
    Loading a file and merging a delta apply the same rule in the same
    order, so every kept entry reloads.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.RLock()
        #: key -> list of (budget vector, verdict, witness-or-None),
        #: append order.  The witness is the pin-usage vector of the
        #: feasible point that proved a True verdict; it transfers the
        #: verdict to every budget vector it still fits (a far sharper
        #: shortcut than budget dominance alone).
        self._entries: Dict[OracleKey, List[Entry]] = {}
        #: Flat append log of kept entries, the unit of cross-process
        #: delta shipping.
        self._log: List[Dict[str, Any]] = []
        self._pid = os.getpid()
        self.exact_hits = 0
        self.dominance_hits = 0
        self.misses = 0
        self.corrupt_lines = 0
        if path is not None and os.path.exists(path):
            entries, self.corrupt_lines = jsonl.read(path, STORE_VERSION)
            for entry in entries:
                try:
                    self._insert(entry, log=False)
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1

    def _persist(self, entry: Dict[str, Any]) -> None:
        if self.path is None or os.getpid() != self._pid:
            return  # forked children never write the parent's file
        jsonl.append(self.path, dict(entry, v=STORE_VERSION))

    # -- entry plumbing ------------------------------------------------
    def _keep(self, key: OracleKey, budgets: BudgetVector, verdict: bool,
              witness: Optional[BudgetVector]) -> bool:
        """Index one verdict unless an entry under ``key`` covers it;
        returns True if kept."""
        bucket = self._entries.get(key)
        if bucket is None:
            bucket = self._entries[key] = []
        elif any(_covers(old, budgets, verdict, witness)
                 for old in bucket):
            return False
        bucket.append((budgets, verdict, witness))
        return True

    def _insert(self, entry: Mapping[str, Any], log: bool) -> bool:
        """Index one plain-data entry (file line or delta item);
        returns True if kept."""
        key = (str(entry["sig"]),
               tuple((str(op), int(group)) for op, group in entry["fp"]),
               str(entry["node"]), int(entry["group"]))
        budgets = tuple(int(b) for b in entry["budgets"])
        verdict = bool(entry["verdict"])
        raw_witness = entry.get("witness") if verdict else None
        witness = (None if raw_witness is None
                   else tuple(int(w) for w in raw_witness))
        if not self._keep(key, budgets, verdict, witness):
            return False
        if log:
            self._log.append(_plain(key, budgets, verdict, witness))
        return True

    # -- public API ----------------------------------------------------
    def lookup(self, key: OracleKey,
               budgets: BudgetVector) -> Optional[Tuple[bool, str]]:
        """Answer a query, or None.  Returns ``(verdict, kind)`` with
        ``kind`` in ``("exact", "dominance")``.

        Exact match first; otherwise the monotonicity shortcuts:
        *feasible* at a smaller-or-equal budget vector, *feasible*
        with a recorded witness whose pin usage fits the queried
        budgets, or *infeasible* at a larger-or-equal vector.
        """
        with self._lock:
            bucket = self._entries.get(key)
            if not bucket:
                self.misses += 1
                return None
            for vec, verdict, _witness in bucket:
                if vec == budgets:
                    self.exact_hits += 1
                    return verdict, "exact"
            for vec, verdict, witness in bucket:
                if verdict and (_dominates_le(vec, budgets)
                                or (witness is not None
                                    and _witness_fits(witness, budgets))):
                    self.dominance_hits += 1
                    PERF.inc("pin.store_dominance_hits")
                    return True, "dominance"
                if not verdict and _dominates_le(budgets, vec):
                    self.dominance_hits += 1
                    PERF.inc("pin.store_dominance_hits")
                    return False, "dominance"
            self.misses += 1
            return None

    def record(self, key: OracleKey, budgets: BudgetVector,
               verdict: bool,
               witness: Optional[BudgetVector] = None) -> None:
        """Record an exact-method verdict (and persist it).

        ``witness`` — only meaningful with ``verdict=True`` — is the
        pin-usage vector of the feasible point the solver found.  A
        record an existing entry covers is dropped before its
        plain-data form is built.
        """
        verdict = bool(verdict)
        budgets = tuple(budgets)
        witness = (tuple(witness)
                   if verdict and witness is not None else None)
        with self._lock:
            if self._keep(key, budgets, verdict, witness):
                entry = _plain(key, budgets, verdict, witness)
                self._log.append(entry)
                self._persist(entry)

    # -- cross-process aggregation -------------------------------------
    def mark(self) -> int:
        """Checkpoint for :meth:`delta_since`."""
        with self._lock:
            return len(self._log)

    def delta_since(self, mark: int) -> List[Dict[str, Any]]:
        """Entries appended since ``mark`` (plain data, JSON-able)."""
        with self._lock:
            return [dict(entry) for entry in self._log[mark:]]

    def merge(self, delta: Optional[List[Mapping[str, Any]]]) -> int:
        """Fold a worker's delta in; returns the number of kept entries.

        Kept entries are persisted and re-logged, so deltas propagate
        transitively (worker -> sweep store -> service store); entries
        this store already covers are dropped.
        """
        if not delta:
            return 0
        added = 0
        with self._lock:
            for entry in delta:
                try:
                    fresh = self._insert(entry, log=True)
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                if fresh:
                    self._persist(self._log[-1])
                    added += 1
        return added

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._entries.values())

    def items(self) -> Iterator[Tuple[OracleKey, List[Entry]]]:
        with self._lock:
            return iter(list(self._entries.items()))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.exact_hits + self.dominance_hits + self.misses
            return {
                "entries": sum(len(b) for b in self._entries.values()),
                "keys": len(self._entries),
                "exact_hits": self.exact_hits,
                "dominance_hits": self.dominance_hits,
                "misses": self.misses,
                "hit_rate": (round(
                    (self.exact_hits + self.dominance_hits) / lookups, 4)
                    if lookups else 0.0),
                "corrupt_lines": self.corrupt_lines,
            }


# ---------------------------------------------------------------------
#: The process-wide active store.  ``None`` by default: plain solves and
#: cold benchmarks stay isolated; the warm explorer and the synthesis
#: service opt in via :func:`activate` *before* forking their worker
#: pools, so children inherit the instance.
_ACTIVE: Optional[OracleStore] = None


def get_active() -> Optional[OracleStore]:
    return _ACTIVE


def activate(store: Optional[OracleStore]) -> Optional[OracleStore]:
    """Install ``store`` as the process-wide default; returns the
    previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous
