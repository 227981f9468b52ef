"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``synthesize``  run a flow on a built-in or JSON design and print the
                reports (optionally archiving the result as JSON);
``simulate``    synthesize and then cycle-accurately simulate;
``designs``     list the built-in benchmark designs;
``emit-rtl``    synthesize and dump the structural RTL;
``explore``     sweep the design space (rates x flows x pin scales x
                port models x sub-bus x branching) over a worker pool
                with a persistent result cache, and emit a
                Pareto-frontier report;
``serve``       run the long-running synthesis service: an asyncio
                HTTP job server with request coalescing, a warm worker
                pool, deadline-aware load shedding, and a graceful
                SIGTERM drain (``--shard-*`` flags seat it on a
                cluster ring);
``cluster``     supervise a local multi-shard cluster: a shared
                result-cache server, N ring-sharded ``serve``
                processes, and a routing front tier that sends each
                request to its owner shard (fleet-wide exactly-once
                coalescing);
``cache-server``run the cluster's shared result-cache server
                standalone;
``trace``       replay a distributed-trace JSONL export (written by
                ``--trace-export``) as rendered span trees with
                per-layer time attribution;
``check``       synthesize and run the unified design-rule checker
                (optionally the cross-flow differential oracle) on the
                result, printing structured violations;
``fuzz``        run the seeded differential fuzzer over random
                partitioned designs, shrinking and recording failures
                to a replayable JSONL corpus.

All flow commands accept ``--flow auto`` (the default: dispatch per
partitioning shape) and ``--timeout-ms`` (a wall-clock budget threaded
through every solver).  ``synthesize --json`` emits one machine-readable
result object; exit code 2 means the answer is valid but degraded (a
budget fallback fired — see the ``diagnostics`` trail).  ``explore``
exits 0 when every point completed cleanly and 2 when the sweep
finished but some points were degraded, pruned, skipped, or failed.
``check`` and ``fuzz`` exit 1 when they find enforceable violations,
a cross-flow disagreement, or a checker gap — the same contract the
CI jobs key off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Tuple

from repro import synthesize
from repro.cdfg.graph import Cdfg
from repro.errors import ReproError
from repro.io_json import _stats_to_dict, dump_result, load_design
from repro.partition.model import Partitioning
from repro.reporting import (interconnect_listing, pins_summary,
                             schedule_listing)
from repro.robustness import BudgetExhausted, SolveBudget

#: Exit code for a valid answer produced through a budget fallback.
EXIT_DEGRADED = 2

BUILTINS = {
    "ar-simple": "AR lattice filter, simple 4-chip partitioning (Ch 3)",
    "ar-general": "AR lattice filter, general 3-chip partitioning "
                  "(Ch 4/5/6)",
    "ar-general-bidir": "AR general partitioning, bidirectional pins",
    "elliptic": "5th-order elliptic wave filter, 5 chips, recursive "
                "feedback (Ch 4/5)",
    "elliptic-bidir": "elliptic filter, bidirectional pins",
    "fir": "16-tap transposed FIR filter, 4-chip tap chain with "
           "recursive delay edges (rate >= 2)",
    "dct": "8-point DCT, 3 chips, feed-forward butterfly stages "
           "(Loeffler op profile)",
    "ar-stacked-N": "N independent AR filter copies on one 4-chip set "
                    "(warm-start / scaling benchmarks; e.g. "
                    "ar-stacked-4)",
}


def _design_space(name_or_path: str):
    """The catalog's space for a built-in name, else a design file's
    (AR timing)."""
    from repro.explore.spec import DesignSpace
    from repro.service import catalog
    try:
        return catalog.design_space(name_or_path)
    except ReproError:
        graph, partitioning = load_design(name_or_path)
        return DesignSpace(name=name_or_path, graph=graph,
                           partitioning=partitioning, timing="ar")


def _load(name_or_path: str, rate: int
          ) -> Tuple[Cdfg, Partitioning, object, Optional[dict]]:
    """(graph, partitioning, timing, resources) for a design spec."""
    from repro.explore.worker import resolve_timing
    space = _design_space(name_or_path)
    resources = (space.resources_for(rate)
                 if space.resources_for is not None else None)
    return (space.graph, space.partitioning, resolve_timing(space.timing),
            resources)


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Tracing flags shared by every traced command."""
    parser.add_argument("--trace", action="store_true",
                        help="enable distributed tracing (spans from "
                             "pass pipeline to solver phases; see "
                             "`repro trace` to replay an export)")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        metavar="RATE",
                        help="fraction of root requests to trace "
                             "(deterministic accumulator sampling; "
                             "default: 1.0)")
    parser.add_argument("--trace-export", default=None, metavar="PATH",
                        help="append finished spans as JSONL here "
                             "(implies --trace; multi-process safe)")


def _configure_obs(args) -> None:
    """Apply the obs flags; env mirroring reaches subprocesses."""
    if not (getattr(args, "trace", False)
            or getattr(args, "trace_export", None)):
        return
    from repro.obs import configure
    configure(enabled=True,
              sample_rate=getattr(args, "trace_sample", 1.0),
              export_path=getattr(args, "trace_export", None))


def _budget(args) -> Optional[SolveBudget]:
    timeout = getattr(args, "timeout_ms", None)
    if timeout is None:
        return None
    return SolveBudget(deadline_ms=timeout)


def _synthesize(args) -> object:
    graph, pins, timing, resources = _load(args.design, args.rate)
    return synthesize(
        graph, pins, timing, args.rate,
        flow=args.flow,
        budget=_budget(args),
        resources=resources,
        subbus_sharing=args.subbus,
        slot_reserve=args.slot_reserve,
        branching_factor=args.branching,
        scheduler=args.scheduler,
        pipe_length=args.pipe_length)


def cmd_designs(_args) -> int:
    """List the built-in benchmark designs."""
    for name, description in BUILTINS.items():
        print(f"{name:20s} {description}")
    return 0


def _result_json(args, result) -> dict:
    """The machine-readable ``synthesize --json`` payload."""
    from repro.io_json import SCHEMA_VERSION
    problems = [v.message for v in result.check.violations]
    return {
        "schema_version": SCHEMA_VERSION,
        "design": args.design,
        "flow": args.flow,
        "rate": args.rate,
        "pipe_length": result.pipe_length,
        "pins_used": {str(p): n for p, n in result.pins_used().items()},
        "degraded": result.degraded,
        "valid": not problems,
        "problems": problems,
        "diagnostics": result.diagnostics.to_dict(),
        "stats": _stats_to_dict(result.stats),
    }


def cmd_synthesize(args) -> int:
    """Run a flow and print the schedule/connection/pin reports."""
    _configure_obs(args)
    result = _synthesize(args)
    if args.json:
        print(json.dumps(_result_json(args, result), indent=1,
                         sort_keys=True))
        if args.output:
            dump_result(result, args.output)
        return EXIT_DEGRADED if result.degraded else 0
    if args.gantt:
        from repro.reporting import gantt_chart
        print(gantt_chart(result.schedule, result.interconnect,
                          result.assignment))
        print()
    print(schedule_listing(result.schedule))
    print()
    if result.interconnect is not None:
        print(interconnect_listing(result.interconnect))
        print()
    print(pins_summary(result.partitioning, result.pins_used(),
                       pipe_length=result.pipe_length))
    if args.output:
        dump_result(result, args.output)
        print(f"\nresult archived to {args.output}")
    if result.degraded:
        print("\nDEGRADED result (budget fallbacks fired):")
        for line in result.diagnostics.trail:
            print(f"  {line}")
        return EXIT_DEGRADED
    return 0


def cmd_simulate(args) -> int:
    """Synthesize then cycle-accurately simulate with random stimuli."""
    from repro.sim import simulate_result
    result = _synthesize(args)
    report = simulate_result(result, n_instances=args.instances,
                             seed=args.seed)
    print(report)
    return 0


def _csv(text: str, convert):
    """Parse a comma-separated CLI axis value list."""
    return [convert(part.strip()) for part in text.split(",")
            if part.strip()]


def _bool_axis(text: str):
    mapping = {"on": [True], "off": [False],
               "both": [False, True]}
    try:
        return mapping[text]
    except KeyError:
        raise ReproError(
            f"expected on/off/both, got {text!r}") from None


def cmd_explore(args) -> int:
    """Sweep the design space and emit a Pareto report."""
    _configure_obs(args)
    from repro.explore import (Executor, SweepSpec, build_report,
                               write_report)
    from repro.explore.cache import open_result_cache

    rates = _csv(args.rates, int)
    if not rates:
        raise ReproError("--rates needs at least one initiation rate")
    design = _design_space(args.design)

    axes = {"rate": rates,
            "flow": _csv(args.flows, str)}
    if args.pin_scales != "1.0":
        axes["pin_scale"] = _csv(args.pin_scales, float)
    if args.port_models:
        axes["port_model"] = _csv(args.port_models, str)
    if args.subbus_axis != "off":
        axes["subbus_sharing"] = _bool_axis(args.subbus_axis)
    if args.branchings != "2":
        axes["branching_factor"] = _csv(args.branchings, int)
    if args.slot_reserves != "0":
        axes["slot_reserve"] = _csv(args.slot_reserves, int)
    if args.schedulers != "list":
        axes["scheduler"] = _csv(args.schedulers, str)
    spec = SweepSpec(axes=axes)

    cache = open_result_cache(args.cache)
    oracle = None
    if args.warm or args.oracle_cache:
        from repro.core.oracle_store import OracleStore
        oracle = OracleStore(args.oracle_cache)
    executor = Executor(workers=args.workers,
                        cache=cache,
                        deadline_ms=args.timeout_ms,
                        prune_dominated=not args.no_prune,
                        warm=args.warm,
                        oracle_store=oracle)
    jobs = spec.expand(design)
    result = executor.run(jobs)
    report = build_report(args.design, spec, result)
    if args.compact_cache:
        compaction = cache.compact()
        if not args.json:
            print(f"cache compacted: {compaction['entries']} live "
                  f"entries kept, {compaction['removed']} dead lines "
                  f"removed")

    if args.out:
        write_report(report, args.out)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        counts = report["status_counts"]
        print(f"explored {len(report['points'])} points "
              f"({result.workers} workers, "
              f"{report['wall_ms'] / 1000.0:.2f}s, "
              f"{report['points_per_sec']:.1f} points/s)")
        print(f"  statuses: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
        cache = report["cache"]
        print(f"  cache: {cache['hits']} hits / "
              f"{cache['misses']} misses "
              f"(hit rate {cache['hit_rate']:.0%})")
        print(f"  Pareto front ({len(report['pareto'])} points over "
              + ", ".join(report["objectives"]) + "):")
        by_index = {p["index"]: p for p in report["points"]}
        for index in report["pareto"]:
            point = by_index[index]
            metrics = point["metrics"]
            params = " ".join(f"{k}={v}"
                              for k, v in sorted(point["params"].items()))
            print(f"    #{index:<3d} {params}")
            print(f"         buses={metrics['buses']} "
                  f"pins={metrics['total_pins']} "
                  f"latency={metrics['latency']} "
                  f"wall={metrics['wall_ms']:.0f}ms")
        if args.out:
            print(f"report written to {args.out}")
    return 0 if result.all_ok else EXIT_DEGRADED


def cmd_serve(args) -> int:
    """Run the long-running synthesis service until SIGTERM/SIGINT."""
    _configure_obs(args)
    from repro.service import ServiceConfig, ShardIdentity, serve
    shard = None
    if args.shard_count > 0:
        shard = ShardIdentity(
            name=args.shard_name or f"shard-{args.shard_index}",
            index=args.shard_index, count=args.shard_count)
    config = ServiceConfig(host=args.host, port=args.port,
                           workers=args.workers,
                           max_queue=args.max_queue,
                           cache_path=args.cache,
                           oracle_path=args.oracle_cache,
                           default_timeout_ms=args.timeout_ms,
                           pool_mode=args.pool,
                           shard=shard)
    return serve(config)


def cmd_cache_server(args) -> int:
    """Run the cluster's shared result-cache server."""
    from repro.cluster import serve_cache
    return serve_cache(args.path, host=args.host, port=args.port,
                       sync=not args.no_sync)


def cmd_cluster(args) -> int:
    """Supervise a local cluster: cache server + shards + front."""
    _configure_obs(args)
    from repro.cluster import serve_cluster
    return serve_cluster(shards=args.shards, host=args.host,
                         port=args.port,
                         workers_per_shard=args.workers_per_shard,
                         max_queue=args.max_queue, pool=args.pool,
                         timeout_ms=args.timeout_ms,
                         cache_path=args.cache,
                         oracle_path=args.oracle_cache)


def cmd_check(args) -> int:
    """Synthesize, then run the unified design-rule checker."""
    from repro.check import CheckError, check_result, run_differential
    from repro.check.rules import enforceable_violations

    if args.oracle:
        from repro.pipeline.registry import resolve_scheduler
        graph, pins, timing, resources = _load(args.design, args.rate)
        # A non-default --scheduler widens the oracle along the
        # backend axis: the chosen backend runs against the list
        # baseline (and, through the flow axis, against FDS).
        chosen = resolve_scheduler(args.scheduler)
        schedulers = None if chosen == "list" else ("list", chosen)
        oracle = run_differential(graph, pins, timing, args.rate,
                                  timeout_ms=args.timeout_ms,
                                  resources=resources,
                                  schedulers=schedulers)
        if args.json:
            print(json.dumps(oracle.to_dict(), indent=1,
                             sort_keys=True))
        else:
            for outcome in oracle.outcomes:
                extra = f" ({outcome.error})" if outcome.error else ""
                print(f"{outcome.label:24s} {outcome.outcome}{extra}")
            for message in (oracle.violations()
                            + oracle.disagreements
                            + oracle.checker_gaps):
                print(f"  {message}")
            print("oracle: " + ("ok" if oracle.ok else "FAILED"))
        return 0 if oracle.ok else 1

    try:
        result = _synthesize(args)
        report = result.check
    except CheckError as exc:
        result, report = exc.result, exc.report
    if args.disable:
        report = check_result(result, disable=tuple(args.disable))
    hard = enforceable_violations(result, report)
    if args.json:
        payload = report.to_dict()
        payload["enforceable"] = [v.to_dict() for v in hard]
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(f"rules run: {', '.join(report.rules_run)}")
        for message in report.messages():
            print(f"  {message}")
        print("check: " + ("ok" if report.ok else
                           ("tolerated (declared pin overruns)"
                            if not hard else "FAILED")))
    return 0 if not hard else 1


def cmd_trace(args) -> int:
    """Replay a trace JSONL export as rendered span trees."""
    from repro.obs.render import render_file
    try:
        text, count = render_file(args.path, trace_id=args.trace_id,
                                  limit=args.limit)
    except OSError as exc:
        raise ReproError(f"cannot read trace export: {exc}") from None
    if text:
        try:
            print(text)
        except BrokenPipeError:
            # Pager/head closed the pipe mid-render; that's success.
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            return 0
    if count == 0:
        print("no traces in export", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    """Run the seeded differential fuzzer; exit 1 on any failure."""
    from repro.check import fuzz as run_fuzz

    if args.serve or args.cluster:
        return _cmd_fuzz_campaign(args)
    report = run_fuzz(args.seed, cases=args.cases,
                      timeout_ms=args.timeout_ms,
                      corpus_path=args.corpus,
                      do_shrink=not args.no_shrink)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"fuzz seed={args.seed!r}: {report.cases_run} cases, "
              f"{len(report.failures)} failures")
        for failure in report.failures:
            print(f"  case {failure.case.to_dict()}")
            print(f"    signature: {', '.join(failure.signature())}")
        for name, messages in (
                ("violations", report.violations),
                ("disagreements", report.disagreements),
                ("checker gaps", report.checker_gaps)):
            for message in messages:
                print(f"  [{name}] {message}")
    return 0 if report.ok else 1


def _cmd_fuzz_campaign(args) -> int:
    """``fuzz --serve`` / ``--cluster``: service-path fault campaign."""
    from repro.check import run_campaign

    mode = "cluster" if args.cluster else "serve"
    progress = None if args.json else (
        lambda line: print(f"  {line}", file=sys.stderr))
    report = run_campaign(args.seed, cases=args.cases, mode=mode,
                          faults=(args.faults == "on"),
                          timeout_ms=args.timeout_ms,
                          corpus_path=args.corpus,
                          do_shrink=not args.no_shrink,
                          progress=progress)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"campaign seed={args.seed!r} mode={mode} "
              f"faults={args.faults}: {report.cases_run} cases, "
              f"{report.requests_sent} requests, "
              f"{report.faults_fired} faults, "
              f"{len(report.failures)} failures")
        for status, count in sorted(report.outcomes.items()):
            print(f"  outcome {status}: {count}")
        for failure in report.failures:
            print(f"  case {failure.case.to_dict()}")
            for violation in failure.violations:
                print(f"    {violation}")
    return 0 if report.ok else 1


def cmd_emit_rtl(args) -> int:
    """Synthesize then dump the structural RTL."""
    from repro.rtl import emit_structural
    result = _synthesize(args)
    text = emit_structural(result.graph, result.schedule,
                           result.interconnect, result.assignment,
                           design_name=args.design.replace("-", "_"))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"RTL written to {args.output}")
    else:
        print(text)
    return 0


def _add_flow_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design",
                        help="built-in design name (see `designs`) or "
                             "a design JSON file")
    parser.add_argument("--rate", "-L", type=int, default=3,
                        help="initiation rate (default 3)")
    parser.add_argument("--flow",
                        choices=["auto", "simple", "connection-first",
                                 "schedule-first"],
                        default="auto",
                        help="synthesis flow (default: auto-dispatch "
                             "on the partitioning shape)")
    parser.add_argument("--timeout-ms", type=int, default=None,
                        help="wall-clock budget threaded through every "
                             "solver; budget-starved flows degrade "
                             "gracefully (exit code 2)")
    parser.add_argument("--pipe-length", type=int, default=None,
                        help="pipe budget for the schedule-first flow "
                             "(default: critical path + 2L)")
    parser.add_argument("--subbus", action="store_true",
                        help="enable Chapter 6 sub-bus sharing")
    parser.add_argument("--slot-reserve", type=int, default=0,
                        help="bus slots held back during connection "
                             "synthesis (more buses, more bandwidth)")
    parser.add_argument("--branching", type=int, default=2,
                        help="heuristic search branching factor")
    parser.add_argument("--scheduler", default="list",
                        help="scheduler backend for the simple and "
                             "connection-first flows: any name in the "
                             "backend registry (built-in: list, the "
                             "default; heap, modulo and postpone are "
                             "deprecated aliases of list)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pin-constrained multi-chip high-level synthesis "
                    "(Hung 1992 reproduction)",
        epilog="exit codes: 0 success; 1 failure (bad arguments, "
               "unloadable design, a budget exhausted with no "
               "fallback left, or a `check`/`fuzz` run that found "
               "violations, a cross-flow mismatch, or a checker "
               "gap); 2 valid but degraded (a budget fallback "
               "fired, or an `explore` sweep finished with "
               "degraded/pruned/skipped/failed points).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_designs = sub.add_parser("designs",
                               help="list built-in benchmark designs")
    p_designs.set_defaults(func=cmd_designs)

    p_syn = sub.add_parser("synthesize", help="run a synthesis flow")
    _add_flow_options(p_syn)
    _add_obs_options(p_syn)
    p_syn.add_argument("--output", "-o", help="archive result as JSON")
    p_syn.add_argument("--json", action="store_true",
                       help="print one machine-readable result object "
                            "instead of the text reports")
    p_syn.add_argument("--gantt", action="store_true",
                       help="render unit/bus lanes over control steps")
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate",
                           help="synthesize then simulate cycle by "
                                "cycle")
    _add_flow_options(p_sim)
    p_sim.add_argument("--instances", type=int, default=8)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_rtl = sub.add_parser("emit-rtl",
                           help="synthesize then dump structural RTL")
    _add_flow_options(p_rtl)
    p_rtl.add_argument("--output", "-o", help="write RTL to a file")
    p_rtl.set_defaults(func=cmd_emit_rtl)

    p_exp = sub.add_parser(
        "explore",
        help="sweep the design space over a worker pool and report "
             "the Pareto frontier")
    p_exp.add_argument("design",
                       help="built-in design name (see `designs`) or "
                            "a design JSON file")
    p_exp.add_argument("--rates", default="3",
                       help="comma-separated initiation rates "
                            "(default: 3)")
    p_exp.add_argument("--flows", default="auto",
                       help="comma-separated flows (default: auto)")
    p_exp.add_argument("--pin-scales", default="1.0",
                       help="comma-separated pin-budget multipliers "
                            "(default: 1.0)")
    p_exp.add_argument("--port-models", default="",
                       help="comma-separated port models "
                            "(unidirectional,bidirectional)")
    p_exp.add_argument("--subbus-axis", default="off",
                       choices=["off", "on", "both"],
                       help="Chapter 6 sub-bus sharing axis "
                            "(default: off)")
    p_exp.add_argument("--branchings", default="2",
                       help="comma-separated search branching factors "
                            "(default: 2)")
    p_exp.add_argument("--schedulers", default="list",
                       help="scheduler axis: comma-separated backend "
                            "registry names (default list; a deprecated "
                            "alias such as heap, modulo or postpone "
                            "shares its canonical name's points and "
                            "cache keys)")
    p_exp.add_argument("--slot-reserves", default="0",
                       help="comma-separated bus-slot reserves "
                            "(default: 0)")
    p_exp.add_argument("--workers", type=int,
                       default=min(4, os.cpu_count() or 1),
                       help="worker processes (default: min(4, cores); "
                            "1 runs inline)")
    p_exp.add_argument("--timeout-ms", type=float, default=None,
                       help="global sweep deadline, carved into "
                            "per-point solve budgets")
    p_exp.add_argument("--cache", default=None,
                       help="JSON-lines result cache file (or "
                            "remote://host:port for a cluster cache "
                            "server); solved points are skipped on "
                            "re-runs")
    p_exp.add_argument("--no-prune", action="store_true",
                       help="disable skipping of pending points "
                            "whose optimistic metrics are dominated")
    p_exp.add_argument("--warm", action="store_true",
                       help="warm-start tier: chain neighboring pin "
                            "budgets on one worker, reusing solver "
                            "bases and the shared pin-oracle store")
    p_exp.add_argument("--oracle-cache", default=None,
                       help="persist the shared pin-oracle store as "
                            "JSONL at this path (implies a shared "
                            "store even without --warm)")
    p_exp.add_argument("--compact-cache", action="store_true",
                       help="after the sweep, atomically rewrite the "
                            "cache file down to its live index "
                            "(drops dead duplicate/corrupt lines)")
    p_exp.add_argument("--out", "-o",
                       help="write the machine-readable report here")
    p_exp.add_argument("--json", action="store_true",
                       help="print the full report as JSON instead of "
                            "the text summary")
    _add_obs_options(p_exp)
    p_exp.set_defaults(func=cmd_explore)

    p_chk = sub.add_parser(
        "check",
        help="synthesize and run the unified design-rule checker "
             "(or the cross-flow differential oracle); exit 1 on "
             "enforceable violations or an oracle failure")
    _add_flow_options(p_chk)
    p_chk.add_argument("--oracle", action="store_true",
                       help="run every applicable flow and cross-"
                            "compare instead of checking one result")
    p_chk.add_argument("--disable", action="append", default=[],
                       metavar="RULE",
                       help="skip a named rule (repeatable; see "
                            "repro.check.rule_names())")
    p_chk.add_argument("--json", action="store_true",
                       help="print the structured report as JSON")
    p_chk.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run the seeded differential fuzzer over random "
             "partitioned designs; exit 1 on any recorded failure")
    p_fuzz.add_argument("--seed", default="repro",
                        help="string seed for the case stream "
                             "(default: repro)")
    p_fuzz.add_argument("--cases", type=int, default=200,
                        help="number of generated cases (default: 200)")
    p_fuzz.add_argument("--timeout-ms", type=float, default=4000.0,
                        help="per-flow solve budget per case "
                             "(default: 4000)")
    p_fuzz.add_argument("--corpus", default=None,
                        help="JSONL corpus file; recorded failures "
                             "replay first and new ones are appended")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="record failing cases without greedy "
                             "shrinking")
    p_fuzz.add_argument("--json", action="store_true",
                        help="print the fuzz report as JSON")
    mode = p_fuzz.add_mutually_exclusive_group()
    mode.add_argument("--serve", action="store_true",
                      help="campaign mode: drive cases through a live "
                           "in-process service while a deterministic "
                           "fault injector perturbs it")
    mode.add_argument("--cluster", action="store_true",
                      help="campaign mode against a live 2-shard "
                           "cluster behind a front tier (adds "
                           "shard-kill/restart faults)")
    p_fuzz.add_argument("--faults", choices=["on", "off"],
                        default="on",
                        help="enable the fault injector in campaign "
                             "mode (default: on)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_srv = sub.add_parser(
        "serve",
        help="run the long-running synthesis service (async HTTP job "
             "server with coalescing, warm workers, load shedding)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8764,
                       help="TCP port (default: 8764; 0 picks a free "
                            "port)")
    p_srv.add_argument("--workers", type=int,
                       default=min(4, os.cpu_count() or 1),
                       help="warm worker processes "
                            "(default: min(4, cores))")
    p_srv.add_argument("--max-queue", type=int, default=64,
                       help="admission limit on in-flight jobs; "
                            "beyond it requests are shed with 429 "
                            "(default: 64)")
    p_srv.add_argument("--cache", default=None,
                       help="JSON-lines result cache file shared with "
                            "`repro explore`; appends are fsynced")
    p_srv.add_argument("--timeout-ms", type=float, default=30000.0,
                       help="default per-request deadline when the "
                            "request carries none (default: 30000)")
    p_srv.add_argument("--pool", choices=["process", "thread"],
                       default="process",
                       help="worker pool mode (default: process)")
    p_srv.add_argument("--oracle-cache", default=None,
                       help="persist the shared pin-oracle store as "
                            "JSONL at this path (workers inherit it "
                            "warm; deltas merge back on completion)")
    p_srv.add_argument("--shard-name", default=None,
                       help="this server's name on the cluster ring "
                            "(default: shard-<index> when --shard-count "
                            "is set)")
    p_srv.add_argument("--shard-index", type=int, default=0,
                       help="this server's seat index on the ring")
    p_srv.add_argument("--shard-count", type=int, default=0,
                       help="fleet size; 0 (default) runs standalone, "
                            ">0 enables shard mode (readiness also "
                            "requires a coherent ring seat)")
    _add_obs_options(p_srv)
    p_srv.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache-server",
        help="run the cluster's shared result-cache server "
             "(length-prefixed JSON over TCP, backed by the JSONL "
             "result cache)")
    p_cache.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_cache.add_argument("--port", type=int, default=8769,
                         help="TCP port (default: 8769; 0 picks a "
                              "free port)")
    p_cache.add_argument("--path", default=None,
                         help="JSONL cache file (default: in-memory, "
                              "still shared across connected shards)")
    p_cache.add_argument("--no-sync", action="store_true",
                         help="skip fsync on appends (faster, less "
                              "durable)")
    p_cache.set_defaults(func=cmd_cache_server)

    p_clu = sub.add_parser(
        "cluster",
        help="run a supervised local cluster: shared cache server, N "
             "ring-sharded `serve` processes, and a routing front "
             "tier that sends each request to its owner shard")
    p_clu.add_argument("--shards", type=int, default=2,
                       help="solver shard count (default: 2)")
    p_clu.add_argument("--host", default="127.0.0.1",
                       help="bind address for every tier "
                            "(default: 127.0.0.1)")
    p_clu.add_argument("--port", type=int, default=8770,
                       help="front-tier TCP port (default: 8770; 0 "
                            "picks a free port); shard and cache "
                            "ports are always OS-assigned")
    p_clu.add_argument("--workers-per-shard", type=int, default=1,
                       help="warm worker processes per shard "
                            "(default: 1)")
    p_clu.add_argument("--max-queue", type=int, default=64,
                       help="per-shard admission limit (default: 64)")
    p_clu.add_argument("--pool", choices=["process", "thread"],
                       default="process",
                       help="per-shard worker pool mode "
                            "(default: process)")
    p_clu.add_argument("--timeout-ms", type=float, default=30000.0,
                       help="default per-request deadline "
                            "(default: 30000)")
    p_clu.add_argument("--cache", default=None,
                       help="JSONL file behind the shared cache "
                            "server (default: in-memory)")
    p_clu.add_argument("--oracle-cache", default=None,
                       help="per-shard pin-oracle JSONL path prefix "
                            "(each shard appends .<name>)")
    _add_obs_options(p_clu)
    p_clu.set_defaults(func=cmd_cluster)

    p_trc = sub.add_parser(
        "trace",
        help="replay a trace JSONL export (from --trace-export) as "
             "rendered span trees with per-layer attribution; exit 1 "
             "when the export holds no traces")
    p_trc.add_argument("path", help="JSONL span export file")
    p_trc.add_argument("--trace-id", default=None,
                       help="only render traces whose id starts with "
                            "this prefix")
    p_trc.add_argument("--limit", type=int, default=0,
                       help="render at most N traces, most recent "
                            "first (default: all)")
    p_trc.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.diagnostics is not None:
            for line in exc.diagnostics.trail:
                print(f"  {line}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
