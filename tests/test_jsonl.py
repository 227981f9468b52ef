"""The durable JSONL primitive and the five stores built on it."""

import json
import os
import sys
import threading

import pytest

from repro import jsonl
from repro.check.campaign import (CampaignCase, CampaignCaseResult,
                                  append_campaign_corpus,
                                  load_campaign_corpus)
from repro.check.fuzz import (CaseResult, FuzzCase, append_corpus,
                              load_corpus)
from repro.check.oracle import OracleReport
from repro.core.oracle_store import OracleStore
from repro.explore.cache import ResultCache
from repro.obs import TRACER
from repro.obs.render import load_spans


# ---------------------------------------------------------------------
class TestAppend:
    def test_lines_are_canonical(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        jsonl.append(path, {"b": [1, 2], "a": "\u00e9"})
        jsonl.append(path, {"z": None})
        with open(path, "rb") as handle:
            assert handle.read() == (b'{"a":"\\u00e9","b":[1,2]}\n'
                                     b'{"z":null}\n')

    def test_torn_tail_costs_only_the_fragment(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        jsonl.append(path, {"n": 1})
        with open(path, "ab") as handle:
            handle.write(b'{"n": 2, "tor')
        jsonl.append(path, {"n": 3})
        assert jsonl.read(path) == ([{"n": 1}, {"n": 3}], 1)

    def test_sync_fsyncs_each_append(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(real_fsync(fd)))
        path = str(tmp_path / "log.jsonl")
        jsonl.append(path, {"n": 1})
        assert synced == []
        jsonl.append(path, {"n": 2}, sync=True)
        assert len(synced) == 1

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        threads, per_thread = 8, 150
        padding = "x" * 2000  # lines longer than one small write

        def writer(tid):
            for i in range(per_thread):
                jsonl.append(path, {"t": tid, "i": i, "pad": padding})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=writer, args=(t,))
                       for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        objs, skipped = jsonl.read(path)
        assert skipped == 0
        assert sorted((o["t"], o["i"]) for o in objs) == [
            (t, i) for t in range(threads) for i in range(per_thread)]


class TestRead:
    def test_skips_and_counts_bad_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"v": 1, "n": 1}\n\n   \nnot json\n[1]\n7\n'
                        'null\n"x"\n{"v": 2, "n": 2}\n{"n": 3}\n'
                        '{"v": 1, "n": 4')
        assert jsonl.read(str(path), version=1) == (
            [{"v": 1, "n": 1}], 8)
        assert jsonl.read(str(path)) == (
            [{"v": 1, "n": 1}, {"v": 2, "n": 2}, {"n": 3}], 6)

    def test_undecodable_bytes_are_one_bad_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 1}\n\xff\xfe{"n"\n{"n": 2}\n')
        assert jsonl.read(str(path)) == ([{"n": 1}, {"n": 2}], 1)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            jsonl.read(str(tmp_path / "absent.jsonl"))


class TestRewrite:
    def test_replaces_contents_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        for n in range(3):
            jsonl.append(path, {"n": n})
        jsonl.rewrite(path, [{"n": 9}])
        assert jsonl.read(path) == ([{"n": 9}], 0)
        assert os.listdir(str(tmp_path)) == ["log.jsonl"]

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        jsonl.append(path, {"n": 1})
        with pytest.raises(TypeError):
            jsonl.rewrite(path, [{"n": 2}, {"n": object()}])
        assert jsonl.read(path) == ([{"n": 1}], 0)
        assert os.listdir(str(tmp_path)) == ["log.jsonl"]


# ---------------------------------------------------------------------
# The five stores.  Each adapter writes one good record and one wrong-
# version record (None for unversioned stores), loads a file into
# (names in file order, corrupt-line count or None where the store
# keeps no count), and appends one more record named "new".
# ---------------------------------------------------------------------
def _span_write(path):
    TRACER.configure(enabled=True, sample_rate=1.0, export_path=path)
    try:
        with TRACER.span("new"):
            pass
    finally:
        TRACER.configure(enabled=False, export_path="")
        TRACER.reset()


def _cache_load(path):
    cache = ResultCache(path)
    return [key for key, _record in cache.items()], cache.corrupt_lines


def _oracle_load(path):
    store = OracleStore(path)
    return [key[2] for key, _bucket in store.items()], store.corrupt_lines


def _spans_load(path):
    spans, corrupt = load_spans(path)
    return [span["name"] for span in spans], corrupt


_ORACLE_ENTRY = {"sig": "s", "fp": [], "node": "good", "group": 0,
                 "budgets": [8], "verdict": True}
_NAMES = {1: "good", 2: "new"}

STORES = {
    "result-cache": (
        {"v": 1, "key": "good", "record": {"status": "ok"}},
        {"v": 99, "key": "old", "record": {"status": "ok"}},
        _cache_load,
        lambda path: ResultCache(path).put("new", {"status": "ok"}),
    ),
    "oracle-store": (
        dict(_ORACLE_ENTRY, v=1),
        dict(_ORACLE_ENTRY, v=99, node="old"),
        _oracle_load,
        lambda path: OracleStore(path).record(("s", (), "new", 0), (8,),
                                              True),
    ),
    "trace-export": (
        {"trace_id": "t", "span_id": "a", "name": "good"},
        None,
        _spans_load,
        _span_write,
    ),
    "fuzz-corpus": (
        dict(FuzzCase(seed=1).to_dict(), signature=["x"]),
        None,
        lambda path: ([_NAMES[c.seed] for c in load_corpus(path)], None),
        lambda path: append_corpus(
            path, CaseResult(FuzzCase(seed=2), OracleReport())),
    ),
    "campaign-corpus": (
        {"case": CampaignCase(seed=1, design="dct").to_dict(),
         "signature": ["x"]},
        None,
        lambda path: ([_NAMES[c.seed]
                       for c in load_campaign_corpus(path)], None),
        lambda path: append_campaign_corpus(path, CampaignCaseResult(
            CampaignCase(seed=2, design="dct"), violations=["x: y"])),
    ),
}

#: Lines every reader must survive: not JSON, and JSON non-objects.
_BAD_LINES = ["not json", "[1]", "7", "null", '"x"']
_TORN = '{"v": 1, "torn":'


@pytest.mark.parametrize("name", sorted(STORES))
def test_store_skips_bad_lines_and_appends_past_a_torn_tail(
        tmp_path, name):
    good, wrong_version, load, write = STORES[name]
    bad = _BAD_LINES + ([json.dumps(wrong_version)]
                        if wrong_version is not None else [])
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n".join([json.dumps(good)] + bad) + "\n" + _TORN)

    names, corrupt = load(str(path))
    assert names == ["good"]
    assert corrupt in (None, len(bad) + 1)

    write(str(path))
    names, corrupt = load(str(path))
    assert names == ["good", "new"], "append welded onto the torn tail"
    assert corrupt in (None, len(bad) + 1)


def test_store_lines_keep_their_canonical_bytes(tmp_path):
    cache_path = str(tmp_path / "cache.jsonl")
    ResultCache(cache_path).put("k", {"status": "ok", "metrics": {"p": 3}})
    oracle_path = str(tmp_path / "oracle.jsonl")
    OracleStore(oracle_path).record(("s", (("w", 1),), "x", 2), (8, -1),
                                    True, witness=(5, -1))
    with open(cache_path, "rb") as handle:
        assert handle.read() == (
            b'{"key":"k","record":{"metrics":{"p":3},"status":"ok"},'
            b'"v":1}\n')
    with open(oracle_path, "rb") as handle:
        assert handle.read() == (
            b'{"budgets":[8,-1],"fp":[["w",1]],"group":2,"node":"x",'
            b'"sig":"s","v":1,"verdict":true,"witness":[5,-1]}\n')


def test_memory_only_stores_never_touch_the_file_system(monkeypatch):
    def no_files(*args, **kwargs):
        raise AssertionError("a path=None store reached repro.jsonl")

    for name in ("append", "read", "rewrite"):
        monkeypatch.setattr(jsonl, name, no_files)
    cache = ResultCache(None)
    assert cache.put("k", {"status": "ok"})
    assert cache.compact()["compacted"] is False
    store = OracleStore()
    store.record(("s", (), "w", 0), (8,), True)
    assert OracleStore().merge(store.delta_since(0)) == 1
    with TRACER.span("unexported"):
        pass
