"""Service-path fuzz campaigns with fault injection.

Where :func:`repro.check.fuzz` pressure-tests the *solver* (three
flows against one design), a campaign pressure-tests the *service
path*: every case drives a small storm of concurrent client requests
through a live in-process fleet — one thread-pool service
(``mode="serve"``) or a 2-shard cluster behind a front tier
(``mode="cluster"``) — while a deterministic fault schedule perturbs
it (see :mod:`repro.check.faults`).  After each storm an invariant
checker validates the fleet-level properties no single-request test
can see:

* **exactly-once** — per content key, the number of real executions
  never exceeds one plus the shard deaths that could legitimately
  orphan an in-flight solve;
* **no-lost-request** — every launched request reaches exactly one
  terminal outcome (a finished job, or a documented shed when the
  schedule was disruptive); connection errors and hangs are failures;
* **valid-results** — every ``ok``/``degraded`` answer carries a
  passing :func:`repro.check.check_result` report;
* **trace-propagation** — a traced probe's id survives the full hop
  chain (client -> front -> shard -> worker) and comes back on the
  response;
* **drain-clean** — after the faults are healed the fleet converges
  back to ready (recovered shards reinstated, cache reachable);
* **oracle-durable** — every pin-oracle verdict a live shard's store
  holds reloads from that shard's store file, torn tails included.

Failing cases are greedily shrunk — fewer requests, fewer fault
events, a smaller design (reusing the fuzz shrinker for random
designs) — while the violation signature is preserved, then appended
to a replayable JSONL corpus that runs first on every campaign.

Design corpus: random partitioned designs (the fuzz generator) plus
the named HLS kernels — ``elliptic`` (EWF), ``fir``, ``dct`` — whose
repeats across cases exercise the cache/coalescing paths on content
keys readers recognize.
"""

from __future__ import annotations

import http.client
import json
import random
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import jsonl
from repro.check.faults import (FaultEvent, FaultInjector,
                                _append_bytes, generate_events)
from repro.check.fuzz import FuzzCase, _shrink_candidates
from repro.core.oracle_store import OracleStore, activate, get_active
from repro.errors import ReproError

#: Named kernels the campaign mixes in with random designs.  ``fir``
#: needs rate >= 2 (its delay chain cannot close at rate 1); the
#: campaign draws its rates accordingly.
NAMED_DESIGNS = ("elliptic", "fir", "dct")

_REQUESTS = (3, 4, 5, 6)

#: Feasible initiation rates per design.  Infeasible rates would turn
#: every request into an uncacheable ``error`` record and starve the
#: cache/coalescing paths the campaign exists to stress (elliptic's
#: recursion cannot close below rate 6; fir's below rate 2).
_DESIGN_RATES = {
    "random": (2, 3, 4),
    "elliptic": (6, 7, 8),
    "fir": (2, 3, 4),
    "dct": (1, 2, 3),
}


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignCase:
    """One reproducible campaign input (pure data)."""

    seed: int
    design: str = "random"          #: "random" or a NAMED_DESIGNS name
    requests: int = 4               #: storm size
    rate: int = 2
    fuzz: Optional[FuzzCase] = None  #: the design, when random
    faults: Tuple[FaultEvent, ...] = ()

    def design_body(self) -> Any:
        """The request body's ``design`` value."""
        if self.design != "random":
            return self.design
        assert self.fuzz is not None
        from repro.io_json import graph_to_dict, partitioning_to_dict
        graph, partitioning = self.fuzz.build()
        return {"name": f"campaign-{self.seed}",
                "graph": graph_to_dict(graph),
                "partitioning": partitioning_to_dict(partitioning)}

    def request_params(self, index: int) -> Dict[str, Any]:
        """Sweep params for request ``index`` of the storm.

        The first half of the storm repeats the same rate — exercising
        in-flight coalescing on the owner shard — while the rest fans
        out over neighboring rates.
        """
        rates = _DESIGN_RATES.get(self.design, _DESIGN_RATES["random"])
        if index < (self.requests + 1) // 2:
            return {"rate": self.rate}
        return {"rate": rates[(self.rate + index) % len(rates)]}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "design": self.design,
            "requests": self.requests, "rate": self.rate,
            "fuzz": None if self.fuzz is None else self.fuzz.to_dict(),
            "faults": [e.to_dict() for e in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignCase":
        fuzz = data.get("fuzz")
        return cls(
            seed=int(data.get("seed", 0)),
            design=str(data.get("design", "random")),
            requests=int(data.get("requests", 4)),
            rate=int(data.get("rate", 2)),
            fuzz=None if fuzz is None else FuzzCase.from_dict(fuzz),
            faults=tuple(FaultEvent.from_dict(e)
                         for e in data.get("faults", ())),
        )


def generate_campaign_cases(seed: str, count: int, mode: str,
                            faults: bool = True):
    """Deterministic, prefix-stable case stream (string-seeded)."""
    for index in range(count):
        rng = random.Random(f"repro-campaign:{seed}:{index}")
        requests = rng.choice(_REQUESTS)
        if rng.random() < 0.5:
            design = "random"
            rate = rng.choice(_DESIGN_RATES["random"])
            fuzz = FuzzCase(
                seed=rng.randrange(1_000_000),
                n_chips=rng.choice((2, 3)),
                n_ops=rng.choice(tuple(range(6, 11))),
                widths=rng.choice(((8,), (8, 16))),
                pin_budget=rng.choice((48, 64, 96, 256)),
                rate=rate)
        else:
            design, fuzz = rng.choice(NAMED_DESIGNS), None
            rate = rng.choice(_DESIGN_RATES[design])
        events = generate_events(rng, requests, mode) if faults else ()
        yield CampaignCase(seed=index, design=design,
                           requests=requests, rate=rate, fuzz=fuzz,
                           faults=events)


# ---------------------------------------------------------------------
class RecordingRunner:
    """Wraps the real worker entry point; counts executions per key
    and remembers each payload's propagated trace id."""

    def __init__(self) -> None:
        from repro.explore.worker import run_job
        self._run = run_job
        self._lock = threading.Lock()
        self.executions: Dict[str, int] = {}
        self.traces: Dict[str, str] = {}

    def __call__(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        key = str(payload.get("key", ""))
        ctx = payload.get("trace")
        with self._lock:
            self.executions[key] = self.executions.get(key, 0) + 1
            if isinstance(ctx, dict) and ctx.get("trace_id"):
                self.traces[key] = str(ctx["trace_id"])
        return self._run(payload)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.executions)

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        with self._lock:
            return {key: count - before.get(key, 0)
                    for key, count in self.executions.items()
                    if count > before.get(key, 0)}


class CampaignHarness:
    """A live in-process fleet the fault injector can reach into.

    ``mode="serve"``: cache server + one thread-pool service.
    ``mode="cluster"``: cache server + two shards + front tier.
    Each shard keeps its pin-oracle store in a file in the temp dir.
    Context manager; restartable components come back on their
    original ports (rolling-restart style), so the client's target
    address is stable for the whole campaign.
    """

    def __init__(self, mode: str = "serve",
                 timeout_ms: float = 4000.0) -> None:
        if mode not in ("serve", "cluster"):
            raise ReproError(
                f"campaign mode must be serve|cluster, got {mode!r}")
        self.mode = mode
        self.timeout_ms = timeout_ms
        self.n_shards = 2 if mode == "cluster" else 1
        self.host = "127.0.0.1"
        self.runner = RecordingRunner()
        self.cache_dir: Optional[tempfile.TemporaryDirectory] = None
        self.cache_file: Optional[str] = None
        self.cache = None
        self.cache_port: Optional[int] = None
        self.shards: List[Any] = []
        self.front = None
        self._storm_seq = 0
        self._active_oracle = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "CampaignHarness":
        from repro.cluster import (ClusterConfig, ShardAddress,
                                   ThreadedCacheServer,
                                   ThreadedFrontTier)
        from repro.explore.cache import ResultCache

        self._active_oracle = get_active()
        self.cache_dir = tempfile.TemporaryDirectory(
            prefix="repro-campaign-")
        self.cache_file = f"{self.cache_dir.name}/cache.jsonl"
        self.cache = ThreadedCacheServer(
            ResultCache(self.cache_file, sync=False)).start()
        self.cache_port = self.cache.port
        for index in range(self.n_shards):
            self.shards.append(self._shard(index, port=0))
        if self.mode == "cluster":
            config = ClusterConfig(
                shards=tuple(
                    ShardAddress(f"shard-{i}", self.host, s.port)
                    for i, s in enumerate(self.shards)),
                port=0, cache_address=self.cache.address,
                probe_interval_s=0.2)
            self.front = ThreadedFrontTier(config).start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.front is not None:
            self.front.stop()
            self.front = None
        for shard in self.shards:
            if shard is not None:
                shard.stop()
        self.shards = []
        # Shards activate their oracle stores process-wide and stop out
        # of order; do not leave one (and its temp file) active.
        activate(self._active_oracle)
        if self.cache is not None:
            self.cache.stop()
            self.cache = None
        if self.cache_dir is not None:
            self.cache_dir.cleanup()
            self.cache_dir = None

    def _shard(self, index: int, port: int):
        from repro.service import ServiceConfig, ShardIdentity
        from repro.service import ThreadedServer
        return ThreadedServer(ServiceConfig(
            port=port, workers=2, max_queue=8, pool_mode="thread",
            cache_sync=False,
            cache_path=f"remote://{self.host}:{self.cache_port}",
            oracle_path=f"{self.cache_dir.name}/oracle-{index}.jsonl",
            job_runner=self.runner,
            default_timeout_ms=self.timeout_ms,
            shard=ShardIdentity(f"shard-{index}", index,
                                self.n_shards))).start()

    # -- what the injector calls ---------------------------------------
    @property
    def port(self) -> int:
        if self.front is not None:
            return self.front.port
        return self.shards[0].port

    def kill_shard(self, index: int) -> bool:
        if self.mode != "cluster":
            return False
        index %= self.n_shards
        shard = self.shards[index]
        if shard is None:
            return False
        self._ports = getattr(self, "_ports", {})
        self._ports[index] = shard.port
        shard.stop()
        self.shards[index] = None
        return True

    def restart_shard(self, index: int) -> bool:
        if self.mode != "cluster":
            return False
        index %= self.n_shards
        if self.shards[index] is not None:
            return False
        self.shards[index] = self._shard(
            index, port=self._ports[index])
        return True

    def kill_cache(self) -> bool:
        if self.cache is None:
            return False
        self.cache.stop()
        self.cache = None
        return True

    def revive_cache(self) -> bool:
        from repro.cluster import ThreadedCacheServer
        from repro.explore.cache import ResultCache
        if self.cache is not None:
            return False
        self.cache = ThreadedCacheServer(
            ResultCache(self.cache_file, sync=False),
            port=self.cache_port).start()
        return True

    def tear_oracle_files(self, fragment: bytes) -> None:
        """Torn tail on each live shard's oracle file, made under the
        store's lock: a crash tears between appends, never inside one."""
        for shard in self.shards:
            if shard is not None:
                store = shard.service.oracle
                with store._lock:
                    _append_bytes(store.path, fragment)

    def oracle_violations(self) -> List[str]:
        """Each verdict a live shard's oracle store holds must reload
        from its file (under the lock: none is mid-append)."""
        problems = []
        for index, shard in enumerate(self.shards):
            if shard is None:
                continue
            store = shard.service.oracle
            with store._lock:
                on_disk = dict(OracleStore(store.path).items())
                lost = [v for key, bucket in store.items()
                        for v in bucket if v not in on_disk.get(key, ())]
            if lost:
                problems.append(f"oracle-durable: shard-{index} file "
                                f"lost {len(lost)} verdict(s) on reload")
        return problems

    def storm(self, count: int) -> None:
        """Rapid no-wait filler submissions to provoke 429 sheds.

        Fillers use a reserved corner of the parameter space
        (``pin_scale`` steps on ``ar-simple``) so their content keys
        never collide with campaign request keys.
        """
        client = self.client(retries=0)
        for _ in range(count):
            self._storm_seq += 1
            scale = 2.0 + 0.001 * self._storm_seq
            try:
                client.synthesize("ar-simple", wait=False,
                                  rate=1 + self._storm_seq % 4,
                                  pin_scale=round(scale, 3),
                                  timeout_ms=self.timeout_ms)
            except (OSError, ReproError):
                pass  # a shed filler did its job

    # ------------------------------------------------------------------
    def client(self, retries: int = 4, **kwargs):
        from repro.service import ServiceClient
        kwargs.setdefault("timeout_s", 60.0)
        kwargs.setdefault("backoff_base_s", 0.05)
        kwargs.setdefault("backoff_cap_s", 0.5)
        return ServiceClient(host=self.host, port=self.port,
                             retries=retries, **kwargs)

    def await_ready(self, timeout_s: float = 15.0) -> List[str]:
        """Wait for the healed fleet to converge; returns violations."""
        deadline = time.monotonic() + timeout_s
        if self.front is not None:
            front = self.front.front
            while time.monotonic() < deadline:
                if all(state.up for state in front.shards.values()):
                    return []
                time.sleep(0.05)
            down = sorted(name for name, s in front.shards.items()
                          if not s.up)
            return [f"drain-clean: shards never reinstated: {down}"]
        try:
            self.client(retries=0).wait_until_ready(
                timeout_s=max(1.0, deadline - time.monotonic()))
        except (OSError, ReproError) as exc:
            return [f"drain-clean: service never became ready: {exc}"]
        return []


# ---------------------------------------------------------------------
@dataclass
class CampaignCaseResult:
    """Outcome of one campaign case."""

    case: CampaignCase
    violations: List[str] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def signature(self) -> List[str]:
        return sorted({v.split(":", 1)[0] for v in self.violations})

    def to_dict(self) -> Dict[str, Any]:
        return {"case": self.case.to_dict(),
                "violations": list(self.violations),
                "outcomes": dict(self.outcomes)}


def _terminal(payload: Dict[str, Any]) -> bool:
    return payload.get("status") not in ("queued", "running")


def run_campaign_case(case: CampaignCase, harness: CampaignHarness,
                      timeout_ms: float = 4000.0
                      ) -> CampaignCaseResult:
    """Drive one storm through the live fleet and check invariants."""
    from repro.service import ServiceUnavailable

    result = CampaignCaseResult(case)
    injector = FaultInjector(case.faults, harness)
    before = harness.runner.snapshot()
    try:
        body = case.design_body()
    except ReproError as exc:
        result.violations.append(f"case-setup: {exc}")
        return result

    answers: List[Optional[Dict[str, Any]]] = [None] * case.requests
    errors: List[Optional[BaseException]] = [None] * case.requests

    def launch(index: int) -> None:
        client = harness.client(retries=4)
        try:
            answers[index] = client.synthesize(
                body, wait=True, timeout_ms=timeout_ms,
                **case.request_params(index))
        except BaseException as exc:  # classified by the invariants
            errors[index] = exc

    threads: List[threading.Thread] = []
    for index in range(case.requests):
        delay_s = injector.before_request(index)
        if delay_s:
            time.sleep(min(delay_s, 0.25))
        thread = threading.Thread(target=launch, args=(index,),
                                  daemon=True,
                                  name=f"campaign-req-{index}")
        thread.start()
        threads.append(thread)
    join_deadline = time.monotonic() + 60.0 + timeout_ms / 1000.0
    for thread in threads:
        thread.join(timeout=max(0.0,
                                join_deadline - time.monotonic()))
    hung = [t.name for t in threads if t.is_alive()]

    # Heal the fleet before judging it: recovered shards must rejoin,
    # the cache server must answer again.
    injector.finish()
    result.violations.extend(harness.await_ready())

    # -- no-lost-request ----------------------------------------------
    if hung:
        result.violations.append(
            f"no-lost-request: requests never returned: {hung}")
    for index, exc in enumerate(errors):
        if exc is None:
            continue
        if isinstance(exc, ServiceUnavailable) and injector.disruptive:
            result.outcomes["shed"] = result.outcomes.get("shed", 0) + 1
            continue  # a documented refusal under a disruptive plan
        result.violations.append(
            f"no-lost-request: request {index} died with "
            f"{type(exc).__name__}: {exc}")
    for index, payload in enumerate(answers):
        if payload is None:
            continue
        status = str(payload.get("status", ""))
        result.outcomes[status] = result.outcomes.get(status, 0) + 1
        if not _terminal(payload):
            result.violations.append(
                f"no-lost-request: request {index} answered "
                f"non-terminal status {status!r} on a wait=True call")

    # -- valid-results -------------------------------------------------
    for index, payload in enumerate(answers):
        if payload is None:
            continue
        if payload.get("status") in ("ok", "degraded"):
            check = payload.get("check")
            if not isinstance(check, dict) or not check.get("ok", False):
                result.violations.append(
                    f"valid-results: request {index} served a "
                    f"{payload.get('status')} result with a failing "
                    f"or missing check report")

    # -- exactly-once --------------------------------------------------
    # Keys answered for this case's storm; fillers and probes are out.
    # Bound: one real execution per key, plus one per shard kill (a
    # dying owner legitimately orphans an in-flight solve), plus one
    # per non-cacheable outcome (``error``/``budget_exhausted``
    # records are deliberately retried, never replayed — see
    # CACHEABLE_STATUSES).
    case_keys: Dict[str, int] = {}
    for payload in answers:
        if payload is None or not payload.get("key"):
            continue
        key = str(payload["key"])
        case_keys.setdefault(key, 0)
        if payload.get("status") not in ("ok", "degraded"):
            case_keys[key] += 1
    executed = harness.runner.delta(before)
    for key, retriable in case_keys.items():
        count = executed.get(key, 0)
        allowed = 1 + injector.shard_kills + retriable
        if count > allowed:
            result.violations.append(
                f"exactly-once: key {key[:12]} executed {count}x "
                f"(allowed {allowed} with {injector.shard_kills} "
                f"shard kills, {retriable} retriable outcomes)")

    # -- trace-propagation --------------------------------------------
    result.violations.extend(_trace_probe(harness, case))

    # -- oracle-durable ------------------------------------------------
    result.violations.extend(harness.oracle_violations())
    return result


def _trace_probe(harness: CampaignHarness,
                 case: CampaignCase) -> List[str]:
    """One traced request; its id must come back on the response and
    reach the worker that executed it."""
    from repro.obs import TRACER

    if not TRACER.enabled:
        return []
    trace_id = uuid.uuid4().hex[:16]
    headers = {"Content-Type": "application/json",
               "x-repro-trace-id": trace_id,
               "x-repro-parent-id": uuid.uuid4().hex[:16],
               "x-repro-sampled": "1"}
    # A fresh content key per probe, so the solve actually runs and
    # the propagated context is observable at the worker.
    body = {"design": "ar-simple", "wait": True, "rate": 3,
            "pin_scale": round(3.0 + 0.001 * (case.seed % 997), 3),
            "timeout_ms": harness.timeout_ms}
    conn = http.client.HTTPConnection(harness.host, harness.port,
                                      timeout=30.0)
    try:
        conn.request("POST", "/v1/synthesize", body=json.dumps(body),
                     headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        echoed = response.getheader("X-Repro-Trace-Id")
    except (OSError, ValueError) as exc:
        return [f"trace-propagation: probe failed: {exc}"]
    finally:
        conn.close()
    problems = []
    if echoed != trace_id:
        problems.append(
            f"trace-propagation: response carried trace id {echoed!r},"
            f" expected {trace_id!r}")
    key = str(payload.get("key", ""))
    if key and not payload.get("cached") \
            and not payload.get("coalesced"):
        seen = harness.runner.traces.get(key)
        if seen != trace_id:
            problems.append(
                f"trace-propagation: worker saw trace id {seen!r} for "
                f"probe key {key[:12]}, expected {trace_id!r}")
    return problems


# ---------------------------------------------------------------------
def shrink_campaign(case: CampaignCase, signature: List[str],
                    mode: str, timeout_ms: float,
                    max_attempts: int = 24) -> CampaignCase:
    """Greedy shrink preserving the violation signature.

    Each attempt re-runs the candidate on a *fresh* harness; an
    attempt only counts as reproducing when the signature matches
    exactly (the fuzz shrinker's contract).
    """
    current = case
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _campaign_shrink_candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            with CampaignHarness(mode, timeout_ms) as harness:
                outcome = run_campaign_case(candidate, harness,
                                            timeout_ms)
            if outcome.signature() == signature:
                current = candidate
                improved = True
                break
    return current


def _campaign_shrink_candidates(case: CampaignCase):
    # Drop fault events one at a time (last first: later events are
    # likelier to be dead weight once the storm has collapsed).
    for index in reversed(range(len(case.faults))):
        events = case.faults[:index] + case.faults[index + 1:]
        yield replace(case, faults=events)
    if case.requests > 2:
        yield replace(case, requests=case.requests - 1)
    if case.design == "random" and case.fuzz is not None:
        for smaller in _shrink_candidates(case.fuzz):
            yield replace(case, fuzz=smaller)


# ---------------------------------------------------------------------
def load_campaign_corpus(path: Optional[str]) -> List[CampaignCase]:
    if not path:
        return []
    try:
        entries = jsonl.read(path)[0]
    except OSError:
        return []
    cases: List[CampaignCase] = []
    for entry in entries:
        try:
            cases.append(CampaignCase.from_dict(
                entry.get("case", entry)))
        except (AttributeError, ValueError, KeyError, TypeError):
            continue
    return cases


def append_campaign_corpus(path: str,
                           result: CampaignCaseResult) -> None:
    jsonl.append(path, {"case": result.case.to_dict(),
                        "signature": result.signature()})


# ---------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Everything one campaign run learned."""

    seed: str
    mode: str
    cases_run: int = 0
    requests_sent: int = 0
    faults_fired: int = 0
    failures: List[CampaignCaseResult] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "mode": self.mode, "ok": self.ok,
            "cases_run": self.cases_run,
            "requests_sent": self.requests_sent,
            "faults_fired": self.faults_fired,
            "outcomes": dict(self.outcomes),
            "failures": [f.to_dict() for f in self.failures],
        }


def run_campaign(seed: str = "repro", cases: int = 50,
                 mode: str = "serve", faults: bool = True,
                 timeout_ms: float = 4000.0,
                 corpus_path: Optional[str] = None,
                 do_shrink: bool = True,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run a fault-injection campaign against a live in-process fleet.

    The corpus (when given) replays first; fresh cases follow.  Every
    failing fresh case is shrunk (unless ``do_shrink`` is off) and
    appended to the corpus.
    """
    from repro.obs import TRACER

    report = CampaignReport(seed=seed, mode=mode)
    replay = load_campaign_corpus(corpus_path)
    fresh = list(generate_campaign_cases(seed, cases, mode,
                                         faults=faults))
    was_enabled = TRACER.enabled
    TRACER.configure(enabled=True, sample_rate=1.0)
    try:
        with CampaignHarness(mode, timeout_ms) as harness:
            for origin, case in ([("corpus", c) for c in replay]
                                 + [("fresh", c) for c in fresh]):
                result = run_campaign_case(case, harness, timeout_ms)
                report.cases_run += 1
                report.requests_sent += case.requests
                report.faults_fired += len(case.faults)
                for status, count in result.outcomes.items():
                    report.outcomes[status] = \
                        report.outcomes.get(status, 0) + count
                if progress is not None:
                    mark = "FAIL" if result.failed else "ok"
                    progress(f"[{origin}] case {case.seed} "
                             f"({case.design}, {case.requests} req, "
                             f"{len(case.faults)} faults): {mark}")
                if not result.failed:
                    continue
                if origin == "fresh" and do_shrink:
                    small = shrink_campaign(case, result.signature(),
                                            mode, timeout_ms)
                    if small != case:
                        with CampaignHarness(mode, timeout_ms) as h2:
                            shrunk = run_campaign_case(small, h2,
                                                       timeout_ms)
                        if shrunk.signature() == result.signature():
                            result = shrunk
                report.failures.append(result)
                if origin == "fresh" and corpus_path:
                    append_campaign_corpus(corpus_path, result)
    finally:
        TRACER.configure(enabled=was_enabled)
    return report
