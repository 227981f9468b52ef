"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-neighbors --seed 301 \\
        --seconds 40 --trace 0

Workloads: ``sweep-neighbors``, ``serve-fleet`` (see
``perfbench/README.md`` for what each measures and why).  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it measures an untraced phase, then installs the ledger
wrappers and measures a traced phase, and reports the per-layer
metrics.  Either way the correctness gate runs after each phase,
outside the timed region, and a run that fails it exits with status 1.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and the traced
run's spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep-neighbors", "serve-fleet")
#: Fewest cold starts (or fleet boots) per untraced run.  One is taken
#: before the measured phase and one after each of its passes (serve-fleet:
#: cycles), outside the timed region, so that the samples span the whole
#: run; the rest follow the phase.  setup_s is the fastest of them: the
#: host's slow stretches last longer than a probe and only ever add time,
#: so the minimum moves far less from run to run than the median does.
SETUP_SAMPLES = 10


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("error: no program sources under src/repro; run from a "
              "full checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.ledger import Ledger
    from repro.perf import PERF

    setup: List[float] = []

    def probe() -> None:
        setup.append(_probe_setup(args.workload, args.seed))

    if not args.trace:
        probe()
    module = _workload(args.workload)
    state = module.build(args.seed)
    # A traced run measures an untraced and a traced phase in the time
    # of one untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = _measure(module, state, seconds, PERF,
                        between=None if args.trace else probe)
    phases = [untraced]
    metrics: Dict[str, float]
    if not args.trace:
        while len(setup) < SETUP_SAMPLES:
            probe()
        metrics = _end_to_end(untraced)
        print("setup samples: " + " ".join(f"{t:.4f}" for t in setup))
        metrics["setup_s"] = min(setup)
        wanted = spec["end_to_end"]
    else:
        ledger = Ledger()
        ledger.install()
        ledger.enabled = True
        traced = _measure(module, state, seconds, PERF, ledger=ledger)
        phases.append(traced)
        if ledger.missing:
            print("warning: entry points not found, not traced: "
                  + ", ".join(ledger.missing))
        ledger.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(f"spans: {len(ledger.spans)} kept, "
              f"{ledger.dropped_spans} dropped")
        metrics = _per_layer(traced, untraced)
        wanted = spec["per_layer"]

    correct = True
    for label, phase in zip(("untraced", "traced"), phases):
        _describe(label, phase)
        if not _deterministic(label, phase):
            correct = False
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"failed_share: {failed / attempted if attempted else 0.0:.6f}"
          f" ({failed} of {attempted})")
    out: Dict[str, Any] = {}
    for entry in wanted:
        name = entry["name"]
        value = metrics[name]
        print(f"{name}: {value} {entry['unit']}")
        out[name] = {"value": value, "unit": entry["unit"]}
    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _workload(name: str):
    from perfbench import fleet, sweep
    return {"sweep-neighbors": sweep, "serve-fleet": fleet}[name]


def _probe_setup(workload: str, seed: int) -> float:
    """One cold start in a fresh interpreter: process start to inputs
    built (and, for the fleet, every member ready); see ``probe.py``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.probe", workload, str(seed)],
        cwd=ROOT, env=env, check=True, timeout=120,
        stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1]) - t0


def _measure(module, state, seconds: float, perf, ledger=None,
             between=None):
    before = perf.snapshot()
    if ledger is not None and module.NAME == "sweep-neighbors":
        # The explorer's pool start-up and IPC come from the ledger's
        # pool timestamps, which only the sweep loop can pair up.
        phase = module.measure(state, seconds, ledger=ledger)
    else:
        phase = module.measure(state, seconds, between=between)
    phase.perf = perf.delta_since(before)
    if ledger is not None:
        ledger.enabled = False  # the correctness gate is not traced
    module.verify(state, phase)
    return phase


def _end_to_end(phase) -> Dict[str, float]:
    """Every end-to-end metric but setup_s."""
    from perfbench.common import peak_rss_mb, percentile
    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": percentile(phase.latencies_ms, 0.5),
        "op_p90_ms": percentile(phase.latencies_ms, 0.9),
        "qor_total_pins": phase.qor_pins,
        "qor_latency_steps": phase.qor_latency,
        "peak_rss_mb": peak_rss_mb(),
    }


#: Per-layer counters read straight from PERF (metric -> PERF key).
_COUNTS = {
    "scheduling.visits": "bench.scheduling.visits",
    "scheduling.fds_placements": "fds.placements",
    "core.connection_search.search_steps": "search.steps",
    "core.bus_assignment.bus_reassignments": "bus.reassignments",
    "core.pin_allocation.checks": "pin.checks",
    "core.pin_allocation.store_hits": "pin.store_hits",
    "core.pin_allocation.bnb_fallbacks": "pin.bnb_fallbacks",
    "core.pin_allocation.warm_demotions": "pin.warm_demotions",
    "core.oracle_store.lookups": "bench.core.oracle_store.lookups",
    "core.oracle_store.exact_hits": "bench.core.oracle_store.exact_hits",
    "core.oracle_store.dominance_hits":
        "bench.core.oracle_store.dominance_hits",
    "core.oracle_store.records": "bench.core.oracle_store.records",
    "ilp.pivots": "tableau.pivots",
    "ilp.rollbacks": "tableau.rollbacks",
    "ilp.cuts": "gomory.cuts",
    "ilp.probes": "gomory.probes",
    "ilp.warm_accepted": "gomory.warm_accepted",
    "ilp.warm_rejected": "gomory.warm_rejected",
    "ilp.simplex_solves": "simplex.solves",
    "ilp.bnb_nodes": "bnb.nodes",
    "check.violations": "bench.check.violations",
    "cluster.cache.gets": "bench.cluster.cache.gets",
    "cluster.cache.puts": "bench.cluster.cache.puts",
}

#: Per-layer self times (metric -> ledger layer).
_TIMES = {
    "cluster.front.self_ms": "cluster.front",
    "cluster.cache.get_ms": "cluster.cache.get",
    "cluster.cache.put_ms": "cluster.cache.put",
    "service.admit_ms": "service.admit",
    "service.queue_wait_ms": "service.queue_wait",
    "service.pool.ipc_ms": "service.pool.ipc",
    "scheduling.self_ms": "scheduling",
    "core.connection_search.self_ms": "core.connection_search",
    "core.bus_assignment.self_ms": "core.bus_assignment",
    "core.pin_allocation.self_ms": "core.pin_allocation",
    "core.oracle_store.self_ms": "core.oracle_store",
    "ilp.self_ms": "ilp",
    "check.self_ms": "check",
}


def _per_layer(traced, untraced) -> Dict[str, float]:
    """Per-pass layer metrics of the traced phase."""
    from repro.pipeline import registry
    from perfbench.ledger import PREFIX

    passes = max(1, traced.passes)
    timings = traced.perf.get("timings", {})
    counters = traced.perf.get("counters", {})

    def ms(layer: str) -> float:
        return timings.get(PREFIX + layer, 0.0) * 1000.0 / passes

    def ratio(num: str, den: str) -> float:
        return counters.get(num, 0) / counters[den] \
            if counters.get(den) else 0.0

    out: Dict[str, float] = {name: ms(layer)
                             for name, layer in _TIMES.items()}
    out.update({name: counters.get(key, 0) / passes
                for name, key in _COUNTS.items()})
    names = {"check"}
    for flow in registry.registered_flows():
        spec = registry.flow_spec(flow)
        names.update(p.name for p in
                     (*spec.setup, *spec.phased, *spec.finish))
    for name in sorted(names):
        out[f"pipeline.{name}.self_ms"] = ms(f"pipeline.{name}")
    out["pipeline.verify_passes_per_solve"] = ratio(
        PREFIX + "pipeline.verify_passes", PREFIX + "pipeline.flow_runs")
    out["core.pin_allocation.cache_hit_ratio"] = ratio(
        "pin.cache_hits", "pin.checks")
    out["cluster.cache.hit_ratio"] = ratio(
        PREFIX + "cluster.cache.hits", PREFIX + "cluster.cache.gets")
    for name in ("cluster.front.proxied", "cluster.front.cache_hits",
                 "cluster.front.coalesced", "cluster.front.failovers",
                 "service.executed", "service.coalesced", "service.shed",
                 "explore.pool_start_ms", "explore.ipc_ms",
                 "explore.chains"):
        out[name] = traced.layers.get(name, 0) / passes
    out["explore.cache_hit_ratio"] = traced.layers.get(
        "explore.cache_hit_ratio", 0.0)

    layer_ms = (sum(v for k, v in timings.items() if k.startswith(PREFIX))
                * 1000.0 + traced.extra_self_ms) / passes
    wall_ms = traced.traced_wall_ms / passes
    out["ledger.traced_wall_ms"] = wall_ms
    out["ledger.layer_self_ms"] = layer_ms
    out["ledger.unattributed_ms"] = wall_ms - layer_ms
    out["ledger.trace_overhead"] = (untraced.ops_per_s / traced.ops_per_s
                                    if traced.ops_per_s else 0.0)
    return out


def _describe(label: str, phase) -> None:
    from perfbench.common import beyond
    n = len(phase.latencies_ms)
    print(f"{label}: {phase.passes} passes, {phase.attempted} operations "
          f"attempted, {n} latency samples, {beyond(n, 0.9) if n else 0} "
          f"beyond p90, {phase.busy_s:.3f} s busy")
    for message in phase.messages:
        print(f"  failure: {message}")


def _deterministic(label: str, phase) -> bool:
    """Work counters and QoR must repeat exactly from pass to pass."""
    if phase.pass_counters is None:
        print(f"{label}: counters depend on request interleaving "
              f"(non-exact); not checked")
        return True
    first = phase.pass_counters[0]
    for index, other in enumerate(phase.pass_counters[1:], start=1):
        if other != first:
            keys = sorted(k for k in set(first["counters"])
                          | set(other["counters"])
                          if first["counters"].get(k)
                          != other["counters"].get(k))
            print(f"{label}: NOT deterministic: pass {index} differs "
                  f"from pass 0 in {keys or ['qor']}")
            return False
    print(f"{label}: work counters and QoR repeat exactly over "
          f"{len(phase.pass_counters)} passes")
    return True


if __name__ == "__main__":
    sys.exit(main())
