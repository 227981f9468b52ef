"""Campaign fuzzing: fault schedules, case streams, live-fleet runs.

The end-to-end tests here run real (tiny) campaigns against the same
in-process fleet the ``repro fuzz --serve`` / ``--cluster`` commands
drive; CI's campaign-smoke job runs the full-size version.
"""

import random

import pytest

from repro.check.campaign import (CampaignCase, CampaignHarness,
                                  append_campaign_corpus,
                                  generate_campaign_cases,
                                  load_campaign_corpus, run_campaign,
                                  run_campaign_case,
                                  _campaign_shrink_candidates)
from repro.check.faults import (CLUSTER_KINDS, SERVE_KINDS,
                                FaultEvent, FaultInjector,
                                generate_events)
from repro.check.fuzz import FuzzCase


# ---------------------------------------------------------------------
class TestFaultEvents:
    def test_roundtrip(self):
        event = FaultEvent(kind="shard-kill", at=2, arg=1)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_generation_is_deterministic(self):
        draws = [generate_events(random.Random("x"), 5, "cluster")
                 for _ in range(2)]
        assert draws[0] == draws[1]

    def test_serve_mode_never_kills_shards(self):
        for seed in range(50):
            events = generate_events(random.Random(seed), 4, "serve")
            assert all(e.kind in SERVE_KINDS for e in events)

    def test_cluster_mode_draws_shard_faults_eventually(self):
        kinds = set()
        for seed in range(80):
            kinds.update(e.kind for e in generate_events(
                random.Random(seed), 4, "cluster"))
        assert "shard-kill" in kinds
        assert kinds <= set(CLUSTER_KINDS)

    def test_events_sorted_by_request_index(self):
        for seed in range(30):
            events = generate_events(random.Random(seed), 6, "cluster")
            assert list(events) == sorted(
                events, key=lambda e: (e.at, e.kind, e.arg))


class _RecordingHarness:
    """Duck-typed stand-in recording what the injector did."""

    n_shards = 2
    host = "127.0.0.1"
    port = 1  # port 1 never listens: connection attempts fail fast
    cache_file = None

    def __init__(self):
        self.calls = []
        self.dead_shards = set()
        self.cache_up = True

    def kill_shard(self, index):
        index %= self.n_shards
        self.calls.append(("kill", index))
        if index in self.dead_shards:
            return False
        self.dead_shards.add(index)
        return True

    def restart_shard(self, index):
        self.calls.append(("restart", index))
        if index not in self.dead_shards:
            return False
        self.dead_shards.discard(index)
        return True

    def kill_cache(self):
        self.calls.append(("cache-kill",))
        was_up, self.cache_up = self.cache_up, False
        return was_up

    def revive_cache(self):
        self.calls.append(("cache-revive",))
        was_up, self.cache_up = self.cache_up, True
        return not was_up

    def storm(self, count):
        self.calls.append(("storm", count))


class TestFaultInjector:
    def test_fires_at_request_index_and_heals(self):
        harness = _RecordingHarness()
        injector = FaultInjector((
            FaultEvent("shard-kill", at=0, arg=1),
            FaultEvent("cache-kill", at=1),
            FaultEvent("retry-storm", at=1, arg=4),
        ), harness)
        assert injector.before_request(0) == 0.0
        assert harness.dead_shards == {1}
        injector.before_request(1)
        assert not harness.cache_up
        assert ("storm", 4) in harness.calls
        injector.finish()
        assert harness.dead_shards == set()
        assert harness.cache_up

    def test_client_delay_returns_seconds_without_firing(self):
        harness = _RecordingHarness()
        injector = FaultInjector(
            (FaultEvent("client-delay", at=2, arg=25),), harness)
        assert injector.before_request(2) == pytest.approx(0.025)
        assert harness.calls == []

    def test_restart_only_after_a_kill(self):
        harness = _RecordingHarness()
        injector = FaultInjector(
            (FaultEvent("shard-restart", at=0, arg=0),), harness)
        injector.before_request(0)
        assert ("restart", 0) not in harness.calls

    def test_disruptive_and_kill_accounting(self):
        quiet = FaultInjector(
            (FaultEvent("client-delay", at=0, arg=5),
             FaultEvent("cache-torn", at=1)), _RecordingHarness())
        assert not quiet.disruptive
        assert quiet.shard_kills == 0
        rough = FaultInjector(
            (FaultEvent("shard-kill", at=0, arg=0),), _RecordingHarness())
        assert rough.disruptive
        assert rough.shard_kills == 1


# ---------------------------------------------------------------------
class TestCampaignCases:
    def test_roundtrip_with_embedded_fuzz_case(self):
        case = CampaignCase(
            seed=7, design="random", requests=5, rate=3,
            fuzz=FuzzCase(seed=42, n_chips=2, n_ops=8, rate=3),
            faults=(FaultEvent("cache-kill", at=1),))
        assert CampaignCase.from_dict(case.to_dict()) == case

    def test_roundtrip_named(self):
        case = CampaignCase(seed=3, design="dct", requests=4, rate=2)
        assert CampaignCase.from_dict(case.to_dict()) == case

    def test_stream_is_deterministic_and_prefix_stable(self):
        long = list(generate_campaign_cases("s", 10, "cluster"))
        short = list(generate_campaign_cases("s", 4, "cluster"))
        assert long[:4] == short

    def test_named_designs_draw_feasible_rates(self):
        for case in generate_campaign_cases("rates", 60, "serve"):
            if case.design == "elliptic":
                assert case.rate >= 6  # recursion cannot close below
            elif case.design == "fir":
                assert case.rate >= 2
            params = [case.request_params(i)
                      for i in range(case.requests)]
            if case.design == "elliptic":
                assert all(p["rate"] >= 6 for p in params)

    def test_faults_off_yields_empty_schedules(self):
        cases = generate_campaign_cases("s", 10, "serve", faults=False)
        assert all(c.faults == () for c in cases)

    def test_storm_front_half_repeats_the_same_rate(self):
        case = CampaignCase(seed=0, design="dct", requests=5, rate=2)
        rates = [case.request_params(i)["rate"] for i in range(5)]
        assert rates[:3] == [2, 2, 2]  # coalescing pressure
        assert len(set(rates)) > 1     # plus some fan-out

    def test_design_body_inline_for_random(self):
        case = next(iter(
            c for c in generate_campaign_cases("s", 20, "serve")
            if c.design == "random"))
        body = case.design_body()
        assert set(body) >= {"graph", "partitioning"}
        named = CampaignCase(seed=0, design="fir", requests=3, rate=2)
        assert named.design_body() == "fir"

    def test_shrink_candidates_only_shrink(self):
        case = CampaignCase(
            seed=1, design="random", requests=5, rate=2,
            fuzz=FuzzCase(seed=9, n_chips=3, n_ops=10, rate=2),
            faults=(FaultEvent("cache-kill", at=0),
                    FaultEvent("retry-storm", at=2, arg=8)))
        for candidate in _campaign_shrink_candidates(case):
            assert (len(candidate.faults) < len(case.faults)
                    or candidate.requests < case.requests
                    or candidate.fuzz != case.fuzz)


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        from repro.check.campaign import CampaignCaseResult
        path = str(tmp_path / "corpus.jsonl")
        case = CampaignCase(seed=5, design="dct", requests=3, rate=2,
                            faults=(FaultEvent("cache-torn", at=0),))
        append_campaign_corpus(path, CampaignCaseResult(
            case, violations=["exactly-once: boom"]))
        assert load_campaign_corpus(path) == [case]

    def test_missing_and_corrupt_are_tolerated(self, tmp_path):
        assert load_campaign_corpus(None) == []
        assert load_campaign_corpus(str(tmp_path / "nope")) == []
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert load_campaign_corpus(str(path)) == []


# ---------------------------------------------------------------------
class TestLiveCampaign:
    def test_serve_campaign_tiny_clean(self):
        report = run_campaign("pytest-serve", cases=2, mode="serve",
                              timeout_ms=4000.0, do_shrink=False)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.cases_run == 2
        assert report.requests_sent >= 2
        assert sum(report.outcomes.values()) >= 2

    def test_cluster_campaign_tiny_clean(self):
        report = run_campaign("pytest-cluster", cases=2,
                              mode="cluster", timeout_ms=4000.0,
                              do_shrink=False)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.cases_run == 2

    def test_harness_fault_surface(self):
        """Every injector entry point works against the real fleet."""
        with CampaignHarness("cluster", timeout_ms=4000.0) as harness:
            assert harness.kill_shard(0)
            assert not harness.kill_shard(0)   # already dead
            assert harness.restart_shard(0)
            assert not harness.restart_shard(0)  # already up
            assert harness.kill_cache()
            assert harness.revive_cache()
            harness.storm(2)
            assert harness.await_ready() == []

    def test_corpus_replays_first(self, tmp_path):
        from repro.check.campaign import CampaignCaseResult
        path = str(tmp_path / "corpus.jsonl")
        pinned = CampaignCase(seed=999, design="dct", requests=3,
                              rate=2)
        append_campaign_corpus(path, CampaignCaseResult(
            pinned, violations=["drain-clean: x"]))
        seen = []
        report = run_campaign("pytest-replay", cases=1, mode="serve",
                              faults=False, timeout_ms=4000.0,
                              corpus_path=path, do_shrink=False,
                              progress=seen.append)
        assert report.cases_run == 2
        assert seen[0].startswith("[corpus]")
        assert report.ok


def _line_count(path):
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


class TestOracleDurability:
    def test_shard_oracle_files_survive_torn_tails(self):
        from repro.core.oracle_store import OracleStore

        with CampaignHarness("serve", timeout_ms=4000.0) as harness:
            client = harness.client()
            store = harness.shards[0].service.oracle
            assert store.path is not None
            # Loose budgets keep the pin ILP small (as in the probe).
            client.synthesize("ar-simple", rate=3, pin_scale=3.0,
                              timeout_ms=4000)
            before = len(store)
            assert before > 0
            # Looser budgets on the same design: every verdict the
            # re-solve proves is covered by one already kept.
            lines = _line_count(store.path)
            client.synthesize("ar-simple", rate=3, pin_scale=3.5,
                              timeout_ms=4000)
            assert len(store) == before
            assert _line_count(store.path) == lines
            harness.tear_oracle_files(b'{"budgets":[1],"fp":')
            # A new rate is a new design signature: new keys to record.
            client.synthesize("ar-simple", rate=4, pin_scale=3.0,
                              timeout_ms=4000)
            assert len(store) > before
            assert harness.oracle_violations() == []
            assert OracleStore(store.path).corrupt_lines == 1

            # A file that lost what its store holds is reported.
            open(store.path, "w").close()
            problems = harness.oracle_violations()
            assert len(problems) == 1
            assert problems[0].startswith("oracle-durable: shard-0")
