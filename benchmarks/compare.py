#!/usr/bin/env python
"""Benchmark regression gate: current BENCH_*.json vs a baseline set.

Compares the metrics that matter for the solver's performance story —
explorer points/sec, service req/s, and tableau pivot counts — and
exits non-zero when any of them regresses by more than the tolerance
(default 20%).  Pivot counts are deterministic for a fixed workload, so
they catch algorithmic regressions (a lost warm-start, a broken cut
pool) that wall-clock noise would hide; the wall-based rates catch the
rest.

Usage::

    python benchmarks/compare.py --baseline-dir <dir> [--current-dir .]
        [--tolerance 0.20] [--skip-wall]

``--baseline-dir`` typically points at a git checkout (or ``git show``
dump) of the committed BENCH files; ``--current-dir`` at a fresh
``run_all.py`` output.  ``--skip-wall`` restricts the gate to the
deterministic counters plus same-run speedup ratios — use it when the
baseline was produced on different hardware, where absolute rates are
not comparable but pivot counts and cold/warm ratios still are.

Files missing on either side are skipped with a note (so the gate
degrades gracefully when a benchmark is added or retired), but a
baseline/current ``mode`` mismatch (smoke vs full) is an error: the
workloads differ, so the numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

#: (name, higher_is_better, wall_based) for every gated metric; the
#: extractors below yield (name, value) pairs keyed into this table.
DIRECTIONS = {
    "rate": (True, True),       # points/sec, req/s: higher is better
    "speedup": (True, False),   # same-run ratio: hardware-independent
    "pivots": (False, False),   # deterministic work counter
    "quality": (False, False),  # latency/pins: deterministic, lower
    "overhead": (False, False),  # same-run ratio against a hard cap
}

#: Hard ceiling for "overhead"-kind metrics (tracing-on wall must stay
#: within 5% of tracing-off).  Unlike the relative tolerance, the cap
#: binds against an absolute contract, so it applies even when the
#: baseline side predates the metric.
OVERHEAD_CAP = 1.05


class Metric:
    def __init__(self, name: str, kind: str, value: float) -> None:
        self.name = name
        self.kind = kind
        self.value = float(value)


def _load(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------
# Extractors: one per BENCH file, tolerant of absent sections so the
# gate keeps working against baselines that predate a benchmark.
# ---------------------------------------------------------------------
def metrics_ilp(doc: Dict[str, Any]) -> List[Metric]:
    out = []
    for name, bench in sorted(doc.get("benchmarks", {}).items()):
        pivots = bench.get("counters", {}).get("tableau.pivots")
        if pivots is not None:
            out.append(Metric(f"ilp.{name}.tableau_pivots",
                              "pivots", pivots))
    ratio = (doc.get("benchmarks", {}).get("obs_overhead", {})
             .get("result", {}).get("ratio"))
    if ratio is not None:
        out.append(Metric("ilp.obs_overhead.ratio", "overhead", ratio))
    return out


def metrics_explore(doc: Dict[str, Any]) -> List[Metric]:
    out = []
    explore = doc.get("explore", {})
    cold = explore.get("runs", {}).get("cold", {})
    if "points_per_sec" in cold:
        out.append(Metric("explore.cold.points_per_sec", "rate",
                          cold["points_per_sec"]))
    warm = doc.get("warm_neighbors", {})
    if warm:
        out.append(Metric("warm_neighbors.speedup", "speedup",
                          warm.get("speedup", 0.0)))
        for label, run in sorted(warm.get("runs", {}).items()):
            pps = run.get("points_per_sec")
            if pps is not None:
                out.append(Metric(f"warm_neighbors.{label}."
                                  "points_per_sec", "rate", pps))
            pivots = run.get("counters", {}).get("tableau_pivots")
            if pivots is not None:
                out.append(Metric(f"warm_neighbors.{label}."
                                  "tableau_pivots", "pivots", pivots))
    return out


def metrics_service(doc: Dict[str, Any]) -> List[Metric]:
    out = []
    service = doc.get("service", {})
    rps = service.get("service", {}).get("requests_per_sec")
    if rps is not None:
        out.append(Metric("service.requests_per_sec", "rate", rps))
    if "speedup" in service:
        out.append(Metric("service.speedup", "speedup",
                          service["speedup"]))
    cluster = doc.get("cluster", {})
    for label, run in sorted(cluster.get("scaling", {}).items()):
        rps = run.get("requests_per_sec")
        if rps is not None:
            out.append(Metric(f"cluster.{label}.requests_per_sec",
                              "rate", rps))
    if "speedup" in cluster:
        # Shard-count scaling is a same-run ratio, but both legs are
        # sleep-paced storms, so it is wall-noise-sensitive enough to
        # treat as a rate (skipped under --skip-wall).
        out.append(Metric("cluster.scaling_speedup", "rate",
                          cluster["speedup"]))
    return out


def metrics_schedulers(doc: Dict[str, Any]) -> List[Metric]:
    out = []
    for design, workload in sorted(doc.get("schedulers", {}).items()):
        for name, run in sorted(workload.get("backends", {}).items()):
            prefix = f"schedulers.{design}.{name}"
            pps = run.get("points_per_sec")
            if pps is not None:
                out.append(Metric(f"{prefix}.points_per_sec",
                                  "rate", pps))
            for quality in ("latency", "total_pins"):
                value = run.get(quality)
                if value is not None:
                    out.append(Metric(f"{prefix}.{quality}",
                                      "quality", value))
    return out


EXTRACTORS = {
    "BENCH_ilp.json": metrics_ilp,
    "BENCH_explore.json": metrics_explore,
    "BENCH_schedulers.json": metrics_schedulers,
    "BENCH_service.json": metrics_service,
}


# ---------------------------------------------------------------------
def compare(baseline: List[Metric], current: List[Metric],
            tolerance: float, skip_wall: bool
            ) -> Tuple[List[str], List[str]]:
    """Returns (report lines, regression lines)."""
    base = {m.name: m for m in baseline}
    cur = {m.name: m for m in current}
    lines: List[str] = []
    failures: List[str] = []
    for name in sorted(set(base) & set(cur)):
        b, c = base[name], cur[name]
        higher_better, wall_based = DIRECTIONS[c.kind]
        if skip_wall and wall_based:
            lines.append(f"  skip  {name:48s} (wall-based)")
            continue
        if c.kind == "overhead":
            # Absolute contract, not a relative drift check: the
            # current ratio must sit under the cap no matter what the
            # baseline measured.
            regressed = c.value > OVERHEAD_CAP
            verdict = "FAIL" if regressed else "ok"
            lines.append(f"  {verdict:4s}  {name:48s} "
                         f"{b.value:12.2f} -> {c.value:12.2f}  "
                         f"(cap {OVERHEAD_CAP})")
            if regressed:
                failures.append(name)
            continue
        if b.value == 0:
            lines.append(f"  skip  {name:48s} (baseline is 0)")
            continue
        change = (c.value - b.value) / b.value
        regressed = (change < -tolerance if higher_better
                     else change > tolerance)
        verdict = "FAIL" if regressed else "ok"
        lines.append(f"  {verdict:4s}  {name:48s} "
                     f"{b.value:12.2f} -> {c.value:12.2f}  "
                     f"({change:+.1%})")
        if regressed:
            failures.append(name)
    for name in sorted(set(base) - set(cur)):
        lines.append(f"  skip  {name:48s} (absent in current)")
    for name in sorted(set(cur) - set(base)):
        c = cur[name]
        if c.kind == "overhead" and c.value > OVERHEAD_CAP:
            lines.append(f"  FAIL  {name:48s} "
                         f"{c.value:12.2f} (cap {OVERHEAD_CAP}, "
                         f"no baseline)")
            failures.append(name)
            continue
        lines.append(f"  new   {name:48s} "
                     f"{c.value:12.2f} (no baseline)")
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on benchmark regressions vs a baseline")
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding baseline BENCH_*.json")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding current BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    parser.add_argument("--skip-wall", action="store_true",
                        help="gate only deterministic counters and "
                             "same-run speedups (cross-hardware mode)")
    args = parser.parse_args(argv)

    any_compared = False
    failures: List[str] = []
    for filename, extract in EXTRACTORS.items():
        base_doc = _load(os.path.join(args.baseline_dir, filename))
        cur_doc = _load(os.path.join(args.current_dir, filename))
        if base_doc is None or cur_doc is None:
            side = "baseline" if base_doc is None else "current"
            print(f"{filename}: missing on {side} side, skipped")
            continue
        if base_doc.get("mode") != cur_doc.get("mode"):
            print(f"{filename}: mode mismatch "
                  f"({base_doc.get('mode')} vs {cur_doc.get('mode')}); "
                  f"workloads differ, refusing to compare")
            return 2
        print(f"{filename}:")
        lines, failed = compare(extract(base_doc), extract(cur_doc),
                                args.tolerance, args.skip_wall)
        for line in lines:
            print(line)
        any_compared = any_compared or bool(lines)
        failures.extend(failed)

    if not any_compared:
        print("no comparable benchmarks found")
        return 2
    if failures:
        print(f"\nREGRESSIONS ({len(failures)}, "
              f"tolerance {args.tolerance:.0%}):")
        for name in failures:
            print(f"  {name}")
        return 1
    print("\nno regressions beyond tolerance "
          f"({args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
