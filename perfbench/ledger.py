"""Per-layer self-time ledger, measured from outside the program.

The traced run wraps the public entry points of every layer (the table
in ``perfbench/README.md``) with timing wrappers.  Each wrapper pushes a
frame on a context-local stack (a ``contextvars`` tuple, so threads and
asyncio tasks each see their own), and on exit charges its layer with
its *self* time: its duration minus the time of the wrapped calls it
made.  A wrapper that finishes after its parent closed (an asyncio task
spawned inside a wrapped call) charges the nearest still-open ancestor.

Self times and counts go into the program's own ``PERF`` registry under
a ``bench.`` prefix.  That is deliberate: pool workers ship
``PERF.delta_since`` back to the parent with every record, so work done
in a forked worker reaches the parent over the existing merge path.
The wrappers are installed before any pool forks, so workers inherit
them.

*Opaque* frames mark hops whose far side is measured by other wrappers
in another thread or process (a front-to-shard HTTP call, a pool job):
their duration is taken out of the caller's self time but charged to
no layer, so nothing is counted twice.

Spans (layer, start, end, depth, thread) of the benchmark process stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.perf import PERF

#: Key prefix of every ledger entry in ``PERF`` timings and counters.
PREFIX = "bench."

#: Spans kept in memory; later ones are only counted.
MAX_SPANS = 200_000

#: Pass names whose run is a verification of the finished result.
VERIFY_PASSES = ("verify", "verify-tolerant", "verify-strict", "check")

_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_stack", default=())


def add_time(layer: str, seconds: float) -> None:
    PERF.merge({"timings": {PREFIX + layer: seconds}})


def count(name: str, amount: int = 1) -> None:
    PERF.inc(PREFIX + name, amount)


class _Frame:
    __slots__ = ("child", "open")

    def __init__(self) -> None:
        self.child = 0.0
        self.open = True


After = Callable[[tuple, Any, float, float], None]


class Ledger:
    """Wrapper installer plus the in-memory span list."""

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.dropped_spans = 0
        #: Entry points the wrappers expected but the program lacks.
        self.missing: List[str] = []
        #: Service job key -> time its admission finished.
        self.queued: Dict[str, float] = {}
        #: Explorer pools created since the last :meth:`take_pools`.
        self.pools: List[Any] = []
        self._installed = False

    # -- frames ----------------------------------------------------------
    def _close(self, layer: str, frame: _Frame, stack: tuple,
               t0: float, t1: float, opaque: bool) -> None:
        frame.open = False
        elapsed = t1 - t0
        for parent in reversed(stack):
            if parent.open:
                parent.child += elapsed
                break
        if not opaque:
            add_time(layer, max(0.0, elapsed - frame.child))
        if os.getpid() != self.pid:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append((layer, t0, t1, len(stack),
                               threading.get_ident()))
        else:
            self.dropped_spans += 1

    def timed(self, layer: str, fn: Callable, opaque: bool = False,
              after: Optional[After] = None) -> Callable:
        """``fn`` wrapped in a ledger frame for ``layer``."""
        ledger = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not ledger.enabled:
                    return await fn(*args, **kwargs)
                stack = _STACK.get()
                frame = _Frame()
                token = _STACK.set(stack + (frame,))
                t0 = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _STACK.reset(token)
                    ledger._close(layer, frame, stack, t0, t1, opaque)
                if after is not None:
                    after(args, result, t0, t1)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.enabled:
                return fn(*args, **kwargs)
            stack = _STACK.get()
            frame = _Frame()
            token = _STACK.set(stack + (frame,))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _STACK.reset(token)
                ledger._close(layer, frame, stack, t0, t1, opaque)
            if after is not None:
                after(args, result, t0, t1)
            return result
        return wrapper

    # -- patching --------------------------------------------------------
    def wrap(self, cls: type, name: str, layer: str, opaque: bool = False,
             after: Optional[After] = None) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
            return
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(
                self.timed(layer, raw.__func__, opaque, after)))
        else:
            setattr(cls, name, self.timed(layer, raw, opaque, after))

    def wrap_function(self, module, name: str, layer: str,
                      after: Optional[After] = None) -> None:
        """Wrap a module-level function and every ``repro`` module
        that imported it by name."""
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapped = self.timed(layer, original, after=after)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent)."""
        if self._installed:
            return
        self._installed = True
        from repro.check import rules
        from repro.cluster.cache_client import ReadThroughCache
        from repro.cluster.front import FrontTier
        from repro.core.bus_assignment import BusAllocator
        from repro.core.connection_search import ConnectionSearch
        from repro.core.oracle_store import OracleStore
        from repro.core.pin_allocation import (PinAllocationChecker,
                                               PinAllocationProblem)
        from repro.explore import executor
        from repro.ilp import branch_bound, simplex
        from repro.ilp.gomory import DualAllIntegerSolver
        from repro.pipeline import passes, registry
        from repro.service.app import SynthesisService
        from repro.service.pool import WorkerPool

        # pipeline: one layer per registered pass name
        instances = [passes.CheckRules()]
        for flow in registry.registered_flows():
            spec = registry.flow_spec(flow)
            instances.extend((*spec.setup, *spec.phased, *spec.finish))
        wrapped = set()
        for instance in instances:
            cls = type(instance)
            if cls not in wrapped:
                wrapped.add(cls)
                self.wrap(cls, "run", f"pipeline.{instance.name}",
                          after=_after_pass(instance.name))

        # scheduling and its I/O hooks
        for name in ("run_scheduler", "run_time_scheduler"):
            self.wrap(registry.SchedulerBackend, name, "scheduling")
        self.wrap(PinAllocationChecker, "can_schedule",
                  "core.pin_allocation", after=_visit)
        for name in ("__init__", "commit", "finalize",
                     "export_warm_basis"):
            self.wrap(PinAllocationChecker, name, "core.pin_allocation")
        for name in ("__init__", "solve_with_fixed",
                     "lp_relaxation_feasible"):
            self.wrap(PinAllocationProblem, name, "core.pin_allocation")
        self.wrap(BusAllocator, "can_schedule", "core.bus_assignment",
                  after=_visit)
        for name in ("__init__", "commit", "final_assignment"):
            self.wrap(BusAllocator, name, "core.bus_assignment")
        self.wrap(ConnectionSearch, "run", "core.connection_search")

        # oracle store and ILP kernels
        self.wrap(OracleStore, "lookup", "core.oracle_store",
                  after=_after_lookup)
        self.wrap(OracleStore, "record", "core.oracle_store",
                  after=lambda *_: count("core.oracle_store.records"))
        self.wrap(OracleStore, "merge", "core.oracle_store")
        for name in ("__init__", "warm_start", "reoptimize",
                     "probe_lower_bound", "commit_lower_bound",
                     "export_warm_basis", "solve"):
            self.wrap(DualAllIntegerSolver, name, "ilp")
        self.wrap_function(simplex, "solve_lp", "ilp")
        self.wrap_function(branch_bound, "solve_ilp", "ilp")

        # design-rule checker
        self.wrap_function(
            rules, "check_result", "check",
            after=lambda _a, report, *_: count(
                "check.violations", len(report.violations)))

        # serving path
        self.wrap(FrontTier, "handle", "cluster.front")
        self.wrap(FrontTier, "call_shard", "cluster.front.hop",
                  opaque=True)
        # The front runs cache reads on an executor thread, where the
        # context stack does not follow; this opaque frame keeps that
        # wait out of the front's self time.
        self.wrap(FrontTier, "_cache_lookup", "cluster.front.cache_wait",
                  opaque=True)
        self.wrap(ReadThroughCache, "get", "cluster.cache.get",
                  after=_after_cache_get)
        self.wrap(ReadThroughCache, "put", "cluster.cache.put",
                  after=lambda *_: count("cluster.cache.puts"))
        self.wrap(SynthesisService, "submit_point", "service.admit",
                  after=self._after_submit)
        self.wrap(WorkerPool, "run", "service.pool", opaque=True,
                  after=self._after_pool_run)

        # explorer: the parent's sweep loop is one layer; chain
        # timestamps from the workers and submit/arrival times from the
        # parent give pool start-up and IPC
        self.wrap(executor.Executor, "run", "explore")
        ledger = self

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs) -> None:
                self.bench_created = time.perf_counter()
                self.bench_futures: List[Tuple[Any, float]] = []
                super().__init__(*args, **kwargs)
                ledger.pools.append(self)

            def submit(self, fn, /, *args, **kwargs):
                submitted = time.perf_counter()
                future = super().submit(fn, *args, **kwargs)
                self.bench_futures.append((future, submitted))
                return future

        executor.ProcessPoolExecutor = TimedPool
        executor.as_completed = timed_as_completed
        executor.run_chain = traced_run_chain

    # -- serving-path hooks ---------------------------------------------
    def _after_submit(self, args: tuple, result, t0: float,
                      t1: float) -> None:
        job, how = result
        if how == "new":
            self.queued[job.key] = t1

    def _after_pool_run(self, args: tuple, record, t0: float,
                        t1: float) -> None:
        payload = args[1]
        queued = self.queued.pop(payload.get("key", ""), None)
        if queued is not None:
            add_time("service.queue_wait", max(0.0, t0 - queued))
        if isinstance(record, dict):
            worker_s = float(record.get("wall_ms", 0.0)) / 1000.0
            add_time("service.pool.ipc", max(0.0, (t1 - t0) - worker_s))

    # -- explorer --------------------------------------------------------
    def take_pools(self) -> List[Any]:
        pools, self.pools = self.pools, []
        return pools

    # -- output ----------------------------------------------------------
    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for layer, t0, t1, depth, thread in self.spans:
                handle.write(json.dumps(
                    {"layer": layer, "start": t0, "end": t1,
                     "depth": depth, "thread": thread}) + "\n")


def _after_pass(name: str) -> After:
    def after(args: tuple, _result, _t0: float, _t1: float) -> None:
        if name == "validate":
            count("pipeline.flow_runs")
        if name in VERIFY_PASSES and (
                name != "verify-strict" or args[1].strict_verify):
            count("pipeline.verify_passes")
    return after


def _visit(*_args) -> None:
    count("scheduling.visits")


def _after_lookup(_args: tuple, hit, *_times) -> None:
    count("core.oracle_store.lookups")
    if hit is not None:
        count(f"core.oracle_store.{hit[1]}_hits")


def _after_cache_get(_args: tuple, record, *_times) -> None:
    count("cluster.cache.gets")
    if record is not None:
        count("cluster.cache.hits")


def timed_as_completed(futures, timeout=None):
    """``as_completed`` that stamps each future's arrival time."""
    for future in as_completed(futures, timeout):
        future.bench_done = time.perf_counter()
        yield future


def traced_run_chain(payloads):
    """Worker side of a warm chain, stamped with its start and end."""
    from repro.explore.worker import run_chain
    start = time.perf_counter()
    records = run_chain(payloads)
    if records:
        records[0]["bench_chain"] = [start, time.perf_counter()]
    return records
