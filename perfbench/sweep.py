"""``sweep-neighbors``: warm explorer sweeps of pin-budget neighbour
grids over two stacked AR designs, one chain per pool worker.

Each pass is one ``Executor(workers=2, warm=True, oracle_store=...)``
run with a fresh in-memory result cache and oracle store, so pool
start-up, IPC, the warm-start basis hand-off and oracle-store dominance
answers are all on the path every pass.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from perfbench.common import Phase, make_point, qor, solve, validate

NAME = "sweep-neighbors"

#: Two passes, so that work counters can be compared; one pass already
#: holds 100 points, ten beyond p90.
MIN_PASSES = 2
WORKERS = 2
SCALE_STEP = 0.0125

#: (design, sweep parameters, chain length).  The executor chains points
#: that differ only in their pin budgets.  Both designs sweep the same
#: (rate, flow), so the second one names its default scheduler
#: explicitly: the options (and so the content keys) are unchanged, but
#: the chain keys differ and each worker gets one chain.  The chains
#: are unequal on purpose: p50 then falls inside the cheaper chain's
#: warm plateau and p90 inside the dearer one's, not on the edge
#: between two groups, where run-to-run noise would flip it.
DESIGNS = (("ar-stacked-2", {"rate": 2, "flow": "simple"}, 60),
           ("ar-stacked-4", {"rate": 2, "flow": "simple",
                             "scheduler": "list"}, 40))


def scales(points: int):
    return [round(1.75 + SCALE_STEP * step, 4) for step in range(points)]


class Sweep:
    def __init__(self, seed: int) -> None:
        from repro.explore.spec import SweepSpec
        from repro.service import catalog

        self.seed = seed
        self.jobs = []
        self.chains: List[Tuple[object, Dict, int]] = []
        for name, base, points in DESIGNS:
            space = catalog.design_space(name)
            self.jobs.extend(SweepSpec(axes={"pin_scale": scales(points)},
                                       base=base).expand(space))
            self.chains.append((space, base, points))
        random.Random(seed).shuffle(self.jobs)
        for index, job in enumerate(self.jobs):
            job.index = index
        self.records: Dict[str, dict] = {}


def build(seed: int) -> Sweep:
    return Sweep(seed)


def measure(sweep: Sweep, seconds: float, ledger=None,
            between=None) -> Phase:
    """Whole sweeps until ``seconds`` of sweeping have passed; ``between``
    (if given) runs after each sweep, outside the timed region."""
    from repro.core.oracle_store import OracleStore
    from repro.explore import Executor, ResultCache
    from repro.perf import PERF

    phase = Phase(pass_counters=[])
    first_qor: Dict[str, tuple] = {}
    explore = {"pool_start_ms": 0.0, "ipc_ms": 0.0, "chains": 0,
               "hits": 0, "lookups": 0}
    while phase.passes < MIN_PASSES or phase.busy_s < seconds:
        before = PERF.snapshot()
        executor = Executor(workers=WORKERS, warm=True,
                            cache=ResultCache(None),
                            oracle_store=OracleStore())
        t0 = time.perf_counter()
        result = executor.run(sweep.jobs)
        elapsed = time.perf_counter() - t0
        phase.busy_s += elapsed
        pass_qor: Dict[str, tuple] = {}
        for point in result.points:
            phase.attempted += 1
            if point.get("status") != "ok":
                phase.fail(f"sweep point {point.get('params')}: "
                           f"{point.get('status')} {point.get('error', '')}")
                continue
            phase.latencies_ms.append(float(point["wall_ms"]))
            metrics = point["metrics"]
            pass_qor[point["key"]] = (metrics["total_pins"],
                                      metrics["latency"])
            sweep.records[point["key"]] = point
        stats = result.cache_stats
        explore["hits"] += stats.get("hits", 0)
        explore["lookups"] += stats.get("hits", 0) + stats.get("misses", 0)
        if ledger is not None:
            # The parent's lane plus one lane per chain.
            phase.traced_wall_ms += elapsed * 1000.0
            _chain_times(ledger, phase, explore)
        phase.pass_counters.append(
            {"counters": PERF.delta_since(before)["counters"],
             "qor": sorted(pass_qor.items())})
        if not first_qor:
            first_qor = pass_qor
        phase.passes += 1
        if between is not None:
            between()
    phase.qor_pins = sum(pins for pins, _ in first_qor.values())
    phase.qor_latency = sum(lat for _, lat in first_qor.values())
    if ledger is not None:
        phase.layers.update({
            "explore.pool_start_ms": explore["pool_start_ms"],
            "explore.ipc_ms": explore["ipc_ms"],
            "explore.chains": explore["chains"],
        })
    phase.layers["explore.cache_hit_ratio"] = (
        explore["hits"] / explore["lookups"] if explore["lookups"] else 0.0)
    return phase


def _chain_times(ledger, phase: Phase, explore: Dict) -> None:
    """Pool start, IPC and lane wall time of the sweep that just ran.

    Per chain: submit -> worker start (outbound: pool start, payload
    pickling), worker start -> end (the chain itself), end -> parent
    sees the future done (return leg: record pickling, wake-up).
    """
    for pool in ledger.take_pools():
        starts = []
        for future, submitted in pool.bench_futures:
            records = future.result()
            chain_start, chain_end = records[0]["bench_chain"]
            done = future.bench_done
            starts.append(chain_start)
            explore["chains"] += 1
            explore["ipc_ms"] += (done - chain_end) * 1000.0
            phase.extra_self_ms += ((chain_start - submitted)
                                    + (done - chain_end)) * 1000.0
            phase.traced_wall_ms += (done - submitted) * 1000.0
        if starts:
            explore["pool_start_ms"] += (
                (min(starts) - pool.bench_created) * 1000.0)


def verify(sweep: Sweep, phase: Phase) -> None:
    """Re-solve each chain in process (warm, with a fresh oracle store,
    untimed); every result must pass the gate and match the sweep's
    pins and latency."""
    from repro.core.oracle_store import OracleStore, activate
    from repro.errors import ReproError

    for space, base, points in sweep.chains:
        previous = activate(OracleStore())
        try:
            warm = None
            for scale in sorted(scales(points), reverse=True):
                point = make_point(space, dict(base, pin_scale=scale))
                try:
                    result = solve(point, warm_basis=warm)
                except ReproError as exc:
                    phase.fail(f"{point.label}: in-process solve failed: "
                               f"{exc}")
                    continue
                warm = result.warm_basis or warm
                for problem in validate(result):
                    phase.fail(f"{point.label}: {problem}")
                _compare(sweep, phase, point, result)
        finally:
            activate(previous)


def _compare(sweep: Sweep, phase: Phase, point, result) -> None:
    record = sweep.records.get(point.key)
    if record is None:
        phase.fail(f"{point.label}: never completed in the sweep")
        return
    metrics = record["metrics"]
    if (metrics["total_pins"], metrics["latency"]) != qor(result):
        phase.fail(f"{point.label}: sweep gave pins/latency "
                   f"{metrics['total_pins']}/{metrics['latency']}, "
                   f"in-process {qor(result)}")
