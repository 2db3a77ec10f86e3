"""Tests for the benchmark itself: input generators, the scalar BM25
check, and the metric names the command prints.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os

import pyarrow.parquet as pq
import pytest

import gen
import run as bench_cli
from oracle import Bm25Oracle, agree, same_ranking
from conftest import ROOT
from searchenginepp_ray.config import FULL_PROFILE
from searchenginepp_ray.normalizer.batch import tokenize_batch


# ------------------------------------------------------------ generators


def test_marco_generator_is_deterministic():
    v1, v2 = gen.marco_vocab(7, 5_000), gen.marco_vocab(7, 5_000)
    assert v1 == v2 and len(set(v1)) == 5_000
    assert gen.marco_vocab(8, 5_000) != v1
    assert gen.marco_docs(7, 200, v1) == gen.marco_docs(7, 200, v2)
    assert gen.marco_docs(8, 200, v1) != gen.marco_docs(7, 200, v1)


def test_query_streams_are_deterministic():
    v = gen.marco_vocab(3, 5_000)
    assert gen.marco_queries(3, 1, 50, v) == gen.marco_queries(3, 1, 50, v)
    assert gen.marco_queries(3, 2, 50, v) != gen.marco_queries(3, 1, 50, v)
    assert gen.code_queries(3, 1, 50) == gen.code_queries(3, 1, 50)
    assert gen.code_queries(4, 1, 50) != gen.code_queries(3, 1, 50)
    for q in gen.code_queries(3, 1, 50) + gen.marco_queries(3, 1, 50, v):
        assert 2 <= len(q.split()) <= 4


def test_corpus_files_are_deterministic(tmp_path):
    v = gen.marco_vocab(5, 5_000)
    a = gen.write_marco_corpus(str(tmp_path / "a.parquet"), 300, 5, v)
    b = gen.write_marco_corpus(str(tmp_path / "b.parquet"), 300, 5, v)
    assert pq.read_table(a).equals(pq.read_table(b))
    c = gen.write_code_corpus(str(tmp_path / "c.parquet"), 300, 5)
    d = gen.write_code_corpus(str(tmp_path / "d.parquet"), 300, 5)
    assert pq.read_table(c).equals(pq.read_table(d))


# ------------------------------------------------------------ the oracle


DOCS = [
    "hash join sort merge",
    "hash hash hash table",
    "merge sort merge sort merge",
    "bloom filter hash",
    "table scan sort",
    "join join table",
    "the quick brown fox",
    "sort",
]


@pytest.fixture
def oracle():
    doclens, terms, tfs = tokenize_batch(DOCS, FULL_PROFILE)
    return Bm25Oracle([f"d{i}" for i in range(len(DOCS))], doclens, terms, tfs)


def test_oracle_ranking_matches_hand_bm25(oracle):
    import math

    got = oracle.topk(["hash"], 10)
    # "hash" is in d0, d1, d3: idf = log2(8/3)
    dls = [4, 4, 5, 3, 3, 3, 3, 1]  # stopword "the" dropped from d6
    avgdl = sum(dls) / 8
    idf = math.log2(8 / 3)

    def s(tf, dl):
        return idf * tf / (tf + 0.82 * (1 - 0.68 + 0.68 * dl / avgdl))

    want = sorted([("d0", s(1, 4)), ("d1", s(3, 4)), ("d3", s(1, 3))],
                  key=lambda x: -x[1])
    assert [d for d, _ in got] == [d for d, _ in want]
    assert all(abs(a[1] - b[1]) < 1e-12 for a, b in zip(got, want))


def test_scalar_check_catches_perturbed_results(oracle):
    want = oracle.topk(["hash", "sort", "merg"], 5)
    assert len(want) == 5 and len({s for _, s in want}) == 5
    assert same_ranking(list(want), want, 5)
    swapped = [want[1], want[0], *want[2:]]
    assert not same_ranking(swapped, want, 5)
    nudged = [(want[0][0], want[0][1] + 1e-6), *want[1:]]
    assert not same_ranking(nudged, want, 5)
    assert not same_ranking(want[:-1], want, 5)
    wrong_doc = [*want[:-1], ("d6", want[-1][1])]
    assert not same_ranking(wrong_doc, want, 5)


def test_scalar_check_allows_reordered_ties():
    want = [("a", 2.0), ("b", 1.0), ("c", 1.0), ("d", 0.5)]
    assert same_ranking([("a", 2.0), ("c", 1.0), ("b", 1.0), ("d", 0.5)], want, 4)
    # a tie cut at rank k may keep any of the tied documents ...
    assert same_ranking([("a", 2.0), ("c", 1.0)], want, 2)
    # ... but not one outside the tie, nor fewer results than k allows
    assert not same_ranking([("a", 2.0), ("d", 1.0)], want, 2)
    assert not same_ranking([("a", 2.0), ("c", 1.0)], want[:2], 3)


def test_conjunctive_and_views(oracle):
    conj = oracle.topk(["hash", "join"], 10, conj=True)
    assert [d for d, _ in conj] == ["d0"]
    # a tombstoned d0 drops out of the candidates but not the statistics
    tomb = oracle.topk(["hash"], 10, cand_docs=set(range(1, 8)))
    assert "d0" not in [d for d, _ in tomb]
    full = dict(oracle.topk(["hash"], 10))
    assert all(abs(full[d] - s) < 1e-12 for d, s in tomb)
    # after compaction the statistics change too
    alive = set(range(1, 8))
    comp = dict(oracle.topk(["hash"], 10, stats_docs=alive, cand_docs=alive))
    assert comp.keys() == {"d1", "d3"} and comp["d1"] != full["d1"]


def test_mode_agreement_check():
    a = [(1, "x", 2.0), (2, "y", 1.0)]
    assert agree(a, [(1, "x", 2.0 + 1e-12), (2, "y", 1.0)])
    assert not agree(a, [(2, "y", 1.0), (1, "x", 2.0)])
    assert not agree(a, [(1, "x", 2.0 + 1e-6), (2, "y", 1.0)])
    assert not agree(a, a[:1])


# --------------------------------------------------------- metric names


def test_undeclared_metric_is_refused():
    decl = bench_cli.declared(False)
    metrics = {k: 1.0 for k in decl}
    ok = bench_cli.result_line(metrics, decl, 10, 0, True)
    assert ok["correct"] and ok["metrics"].keys() == decl.keys()
    assert not bench_cli.result_line(metrics, decl, 10, 1, True)["correct"]
    with pytest.raises(ValueError):
        bench_cli.result_line({**metrics, "made_up_ms": 1.0}, decl, 10, 0, True)


def test_stolen_time_is_left_out_of_timings(tmp_path):
    import time

    import workloads

    stolen, wanted = workloads.Steal().ticks()
    assert 0 <= stolen <= wanted

    class FakeSteal:
        def ticks(self):
            return 110, 1400

    r = workloads.Run(workloads.WORKLOADS["lifecycle"], 1, 1.0, False,
                      str(tmp_path), lambda m: None)
    r.steal = FakeSteal()
    # two wall seconds in which the CPUs wanted 400 ticks and got 300
    t0 = (time.perf_counter() - 2.0, 10, 1000)
    assert r.busy(t0) == pytest.approx(1.5, abs=0.01)
    _, share = r.unstolen_share((time.perf_counter() - 2.0, 10, 1000))
    assert share == pytest.approx(0.75)
    # no tick counted in the window: nothing is taken off
    assert r.busy((time.perf_counter() - 2.0, 110, 1400)) == pytest.approx(2.0, abs=0.01)


def test_benchmark_json_follows_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(bench_cli.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(bench_cli.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_a_small_traced_run_prints_exactly_the_declared_metrics(tmp_path):
    """One shrunken lifecycle run, traced: every end-to-end and per-layer
    metric it produces is declared, none is missing, and every check
    passes on the current engine."""
    import ray

    import workloads

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    wl = workloads.Workload("lifecycle", "code", 1_500, 400, 512, 24, 0.05,
                            ("appended", "tombstoned", "reclaimed"))
    ray.init(num_cpus=1, include_dashboard=False, log_to_driver=False)
    try:
        r = workloads.Run(wl, 5, 2.0, True, str(tmp_path), lambda m: None)
        r.run()
    finally:
        ray.shutdown()
    assert r.failed == 0 and r.attempted > 0
    assert r.e2e.keys() == bench_cli.declared(False).keys()
    assert r.layer.keys() == bench_cli.declared(True).keys()
    assert 0 < r.layer["index.searcher.term_miss_frac"] < 1
    # 512-doc segments are below the Maxscore threshold: bmm runs DAAT
    assert r.tracer.maxscore_calls == {"masked": 0, "unmasked": 0}
