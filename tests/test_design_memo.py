"""Each built-in design is built once per process and each graph is
serialized once: the catalog shares one :class:`DesignSpace` per fixed
built-in name, the graph's canonical form is memoized for
``graph_digest`` and ``job_key``, and the pruning bounds are memoized
per timing library.  Keys must hash exactly the bytes they always did,
and no solve may mutate a shared graph."""

import hashlib
import sys
import threading

import pytest

import repro
from repro import designs, io_json
from repro.cdfg import analysis
from repro.cdfg.graph import Cdfg
from repro.explore import SweepSpec, keys
from repro.explore.keys import options_fingerprint, resources_fingerprint
from repro.explore.worker import resolve_timing
from repro.io_json import (canonical_dumps, graph_to_dict,
                           partitioning_to_dict)
from repro.service import catalog

FIXED = catalog._BUILTINS

#: The serve-fleet (design, rate, flow) combos, copied so that this
#: test pins the keys independently of the benchmark package.
FLEET_COMBOS = (
    [("ar-general", rate, "connection-first") for rate in (3, 4, 5, 6)]
    + [("ar-general-bidir", rate, "connection-first")
       for rate in (3, 4, 5)]
    + [("elliptic", rate, "connection-first") for rate in (7, 8, 9)]
    + [("dct", rate, "connection-first") for rate in (2, 3, 4)]
    + [("fir", rate, "connection-first") for rate in (2, 3, 4)]
    + [("ar-simple", 2, "simple"), ("fir", 2, "simple"),
       ("dct", 2, "simple")]
    + [("fir", 3, "schedule-first")]
)
FLEET_KEYS_SHA256 = \
    "88902dffca9b22ca90ec1e157def961bd5cd00f844bb925d4b92a31c2ee10724"

BUILDERS = ("ar_simple_design", "ar_general_design", "ar_stacked_design",
            "ar_stacked_pins", "elliptic_design", "fir_design",
            "dct_design")


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _reference_key(job) -> str:
    """The job key's defining formula: sha256 of the whole payload's
    canonical dump, graph included, with no memo involved."""
    payload = {
        "v": 1,
        "graph": graph_to_dict(job.graph),
        "partitioning": partitioning_to_dict(job.partitioning),
        "rate": int(job.rate),
        "timing": job.timing,
        "options": options_fingerprint(job.options),
        "resources": resources_fingerprint(job.resources),
    }
    return hashlib.sha256(
        canonical_dumps(payload).encode("utf-8")).hexdigest()


def _graph_sha(graph: Cdfg) -> str:
    return hashlib.sha256(
        canonical_dumps(graph_to_dict(graph)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------
class TestSharedSpaces:
    @pytest.mark.parametrize("name", FIXED)
    def test_each_fixed_name_has_one_space(self, name):
        assert catalog.design_space(name) is catalog.design_space(name)

    def test_racing_threads_share_the_stored_space(self, monkeypatch):
        """Threads that race to build a space (the fleet's front and
        shard threads share one process) all get the one stored."""
        monkeypatch.setattr(catalog, "_SPACES", {})
        barrier = threading.Barrier(8)
        got = []

        def build():
            barrier.wait(timeout=30)
            space, job = catalog.synthesize_job(
                {"design": "fir", "rate": 3, "flow": "schedule-first"})
            got.append((space, job.key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8
        stored = catalog._SPACES["fir"]
        assert all(space is stored for space, _ in got)
        assert len({key for _, key in got}) == 1

    def test_other_stacked_names_are_not_kept(self):
        for copies in range(5, 55):
            space = catalog.design_space(f"ar-stacked-{copies}")
            assert space.name == f"ar-stacked-{copies}"
        assert set(catalog._SPACES) <= set(FIXED)
        assert len(catalog._SPACES) <= 9

    @pytest.mark.parametrize("design, rate, flow", [
        ("ar-general", 3, "connection-first"),
        ("elliptic", 7, "connection-first"),
        ("fir", 3, "schedule-first"),
        ("ar-stacked-4", 2, "simple"),
    ])
    def test_repeated_request_builds_and_serializes_nothing(
            self, monkeypatch, design, rate, flow):
        body = {"design": design, "rate": rate, "flow": flow,
                "pin_scale": 1.25}
        first = catalog.synthesize_job(body)[1]
        calls = []
        for name in BUILDERS:
            _counting(monkeypatch, designs, name, calls)
        _counting(monkeypatch, io_json, "graph_to_dict", calls)
        _counting(monkeypatch, analysis, "critical_path_length", calls)
        again = catalog.synthesize_job(body)[1]
        assert calls == []
        assert again.key == first.key
        assert again.optimistic == first.optimistic


# ---------------------------------------------------------------------
class TestKeysUnchanged:
    @pytest.mark.parametrize("name", FIXED)
    def test_job_key_equals_the_reference_formula(self, name):
        rates = [7, 8] if name.startswith("elliptic") else [3]
        spec = SweepSpec(axes={
            "rate": rates,
            "flow": ["auto", "simple", "connection-first",
                     "schedule-first"],
            "pin_scale": [1.0, 1.25],
            "port_model": ["unidirectional", "bidirectional"]})
        jobs = spec.expand(catalog.design_space(name))
        assert len(jobs) == 16 * len(rates)
        if name.startswith("elliptic"):
            assert {tuple(sorted(job.resources.items()))
                    for job in jobs if job.rate == 7} \
                != {tuple(sorted(job.resources.items()))
                    for job in jobs if job.rate == 8}
        for job in jobs:
            assert job.key == _reference_key(job)
            assert job.key == keys.job_key(
                job.graph, job.partitioning, job.rate, job.options,
                timing=job.timing, resources=job.resources)

    def test_serve_fleet_keys_are_pinned(self):
        found = []
        for scale in (1.0, 1.25, 1.5, 1.75):
            for design, rate, flow in FLEET_COMBOS:
                _space, job = catalog.synthesize_job(
                    {"design": design, "rate": rate, "flow": flow,
                     "pin_scale": scale})
                found.append(job.key)
        assert len(set(found)) == 80
        digest = hashlib.sha256(
            "\n".join(sorted(found)).encode("utf-8")).hexdigest()
        assert digest == FLEET_KEYS_SHA256


# ---------------------------------------------------------------------
@pytest.mark.parametrize("design, rate, flow", [
    ("ar-simple", 2, "simple"),
    ("ar-general", 3, "connection-first"),
    ("fir", 3, "schedule-first"),
])
def test_solve_leaves_the_shared_graph_unchanged(monkeypatch, design,
                                                  rate, flow):
    _space, job = catalog.synthesize_job(
        {"design": design, "rate": rate, "flow": flow})
    graph = job.graph
    assert graph is catalog.design_space(design).graph
    before = _graph_sha(graph)
    mutated = []
    invalidate = Cdfg._invalidate

    def watch(self):
        if self is graph:
            mutated.append(self.name)
        invalidate(self)

    monkeypatch.setattr(Cdfg, "_invalidate", watch)
    options = job.options.to_dict()
    options.pop("flow")
    result = repro.synthesize(graph, job.partitioning,
                              resolve_timing(job.timing), job.rate,
                              flow=flow, check=True,
                              resources=job.resources, **options)
    assert result.schedule is not None
    assert mutated == []
    assert _graph_sha(graph) == before


# ---------------------------------------------------------------------
def _stacked_chain(copies, points):
    """A sweep-neighbors-style chain: ``points`` pin scales of one
    stacked design, over a freshly built graph."""
    space = catalog.DesignSpace(
        name=f"ar-stacked-{copies}",
        graph=designs.ar_stacked_design(copies),
        partitioning=designs.ar_stacked_pins(copies))
    spec = SweepSpec(axes={"pin_scale": [round(1.75 + 0.0125 * step, 4)
                                         for step in range(points)]},
                     base={"rate": 2, "flow": "simple"})
    return spec.expand(space)


class TestOneGraphDictPerGraph:
    """A graph is serialized once: ``SweepJob.payload``,
    ``canonical_graph`` and ``design_signature`` read one memoized,
    shared ``graph_to_dict`` form."""

    def test_a_chain_pickles_its_graph_once(self):
        import pickle

        jobs = _stacked_chain(2, 60)
        payloads = [job.payload() for job in jobs]
        assert all(p["design"]["graph"] is payloads[0]["design"]["graph"]
                   for p in payloads)
        assert len(pickle.dumps(payloads)) < 100 * 1024
        # Unpickled, the points still share one graph dict, so the
        # worker's same-graph test compares a single object.
        shipped = pickle.loads(pickle.dumps(payloads))
        assert all(p["design"]["graph"] is shipped[0]["design"]["graph"]
                   for p in shipped)

    def test_expanding_and_dispatching_serializes_each_graph_once(
            self, monkeypatch):
        from collections import Counter

        from repro.core.oracle_store import OracleStore
        from repro.explore import Executor, ResultCache

        serialized = Counter()
        real = io_json.graph_to_dict

        def counted(graph):
            serialized[id(graph)] += 1
            return real(graph)

        monkeypatch.setattr(io_json, "graph_to_dict", counted)
        jobs = _stacked_chain(2, 4)
        graph = jobs[0].graph
        result = Executor(workers=1, cache=ResultCache(), warm=True,
                          oracle_store=OracleStore()).run(jobs)
        assert [p["status"] for p in result.points] == ["ok"] * 4
        # The design's graph, and the one graph the inline worker
        # parsed for the chain (its pin signature), once each.
        assert serialized[id(graph)] == 1
        assert sorted(serialized.values()) == [1, 1]

    def test_shared_form_survives_a_warm_sweep_and_a_service_solve(self):
        from repro.core.oracle_store import OracleStore
        from repro.explore import Executor, ResultCache
        from repro.service import (ServiceClient, ServiceConfig,
                                   ThreadedServer)

        space = catalog.design_space("ar-stacked-2")
        spec = SweepSpec(axes={"pin_scale": [2.0, 1.9, 1.8]},
                         base={"rate": 2, "flow": "simple"})
        jobs = spec.expand(space)
        result = Executor(workers=1, cache=ResultCache(), warm=True,
                          oracle_store=OracleStore()).run(jobs)
        assert [p["status"] for p in result.points] == ["ok"] * 3
        config = ServiceConfig(port=0, workers=1, pool_mode="thread",
                               cache_sync=False)
        with ThreadedServer(config) as server:
            answer = ServiceClient(port=server.port).synthesize(
                "ar-stacked-2", rate=2, flow="simple", pin_scale=1.7,
                timeout_ms=60000)
        assert answer["status"] == "ok"
        assert io_json.shared_graph_dict(space.graph) \
            == graph_to_dict(space.graph)
