"""Pareto-frontier extraction over synthesis quality metrics.

Every explored point reduces to a small metric vector — chip count,
bus count, total pins, latency (pipe length), wall time — and *all*
axes are minimized.  The frontier is the set of non-dominated points:
nobody else is at least as good everywhere and strictly better
somewhere.  Ties are kept: two points with identical metric vectors do
not dominate each other, so both survive (they are genuinely different
designs with the same cost).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Point statuses that carry a full metric vector.
COMPLETED_STATUSES = ("ok", "degraded")

#: Default minimization objectives, in report order.
OBJECTIVES: Tuple[str, ...] = ("chips", "buses", "total_pins",
                               "latency", "wall_ms")

#: Objectives safe for *predictive* dominance pruning of queued jobs:
#: wall time is excluded because a queued job's optimistic wall time is
#: zero, which would let any completed point survive comparison and
#: never prune anything meaningful — and because wall time is noise,
#: not design quality.
PRUNE_OBJECTIVES: Tuple[str, ...] = ("chips", "buses", "total_pins",
                                     "latency")


def dominates(a: Mapping[str, float], b: Mapping[str, float],
              objectives: Sequence[str] = OBJECTIVES) -> bool:
    """True iff ``a`` is <= ``b`` on every objective and < on one.

    Missing metrics count as infinitely bad, so a point that never
    produced (say) a bus count can be dominated but never dominate on
    that axis.
    """
    strictly_better = False
    for key in objectives:
        va = a.get(key, float("inf"))
        vb = b.get(key, float("inf"))
        if va > vb:
            return False
        if va < vb:
            strictly_better = True
    return strictly_better


def pareto_front(points: Sequence[Mapping[str, float]],
                 objectives: Sequence[str] = OBJECTIVES) -> List[int]:
    """Indices of the non-dominated points, ascending.

    O(n^2) pairwise sweep — explorer sweeps are hundreds of points,
    not millions, and the simple form keeps tie semantics obvious.
    Degenerate cases behave sensibly: an empty input yields an empty
    front; a single-objective front is every point achieving the
    minimum (all ties kept); identical vectors all survive.
    """
    front: List[int] = []
    for i, candidate in enumerate(points):
        if not any(dominates(other, candidate, objectives)
                   for j, other in enumerate(points) if j != i):
            front.append(i)
    return front


def sweep_summary(points: Sequence[Mapping[str, Any]],
                  objectives: Sequence[str] = OBJECTIVES
                  ) -> Dict[str, Any]:
    """A sweep's ``status``, ``pareto`` and ``status_counts``.

    The one definition of a sweep answer, shared by the explorer's
    report, the service's sweep job and the cluster front's split
    sweep.  ``status`` is ``ok`` when every point is, else
    ``degraded``; ``pareto`` lists the ``index`` of every
    non-dominated completed point that carries metrics;
    ``status_counts`` counts points per status.
    """
    done = [p for p in points
            if p.get("status") in COMPLETED_STATUSES and "metrics" in p]
    front = pareto_front([p["metrics"] for p in done], objectives)
    counts: Dict[str, int] = {}
    for point in points:
        status = point.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1
    return {"status": ("ok" if all(p.get("status") == "ok"
                                   for p in points) else "degraded"),
            "pareto": [done[i]["index"] for i in front],
            "status_counts": counts}


def front_summary(points: Sequence[Mapping[str, float]],
                  objectives: Sequence[str] = OBJECTIVES
                  ) -> Dict[str, Dict[str, float]]:
    """Per-objective min/max over a (front) point set, for reports."""
    out: Dict[str, Dict[str, float]] = {}
    for key in objectives:
        values = [p[key] for p in points if key in p]
        if values:
            out[key] = {"min": min(values), "max": max(values)}
    return out
