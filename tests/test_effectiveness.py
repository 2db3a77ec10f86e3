"""Effectiveness harness: mAP / nDCG over TREC runs with planted
relevance — the engine-side analogue of the reference's trec_eval
workflow (reference README.md:122-127, report.pdf Table 3.1)."""

import pytest

from searchenginepp_ray.functions import effectiveness as eff


def test_metric_functions_known_values():
    ranking = ["a", "b", "c", "d"]
    rel = {"a": 1, "c": 1}
    # AP = (1/1 + 2/3) / 2
    assert eff.average_precision(ranking, rel) == pytest.approx((1 + 2 / 3) / 2)
    assert eff.precision_at_k(ranking, rel, 2) == 0.5
    # nDCG@4: DCG = 1/log2(2) + 1/log2(4); IDCG = 1/log2(2) + 1/log2(3)
    import math

    dcg = 1 / math.log2(2) + 1 / math.log2(4)
    idcg = 1 / math.log2(2) + 1 / math.log2(3)
    assert eff.ndcg_at_k(ranking, rel, 4) == pytest.approx(dcg / idcg)
    # unretrieved relevant docs penalize AP
    assert eff.average_precision(["x"], rel) == 0.0


def test_trec_round_trip():
    run = eff.parse_run(["q1 Q0 d9 1 3.5 tag", "q1 Q0 d2 2 2.5 tag",
                         "q2 Q0 d1 1 9.0 tag"])
    qrels = eff.parse_qrels(["q1 0 d2 1", "q1 0 d7 2", "q2 0 d1 1",
                             "q3 0 d5 1"])
    res = eff.evaluate_run(run, qrels, k=10)
    assert res["summary"]["n_queries"] == 3  # q3 judged but unretrieved
    assert res["per_query"]["q2"]["ap"] == 1.0
    assert res["per_query"]["q3"]["ap"] == 0.0


@pytest.fixture(scope="module")
def planted(ray_session, tmp_path_factory):
    """Index 600 synthetic docs; qrels plant each sampled doc as the
    uniquely relevant answer to a query made of its rarest terms."""
    from searchenginepp_ray.config import BuildConfig, FULL_PROFILE
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.index.engine import QueryEngine
    from .corpus import write_corpus
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

    from .oracle import OracleIndex
    import pyarrow.parquet as pq
    from searchenginepp_ray.sources.corpus_gen import docno_of

    tmp = tmp_path_factory.mktemp("eff")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 600, seed=9, rows_per_group=128)
    cfg = BuildConfig(docs_per_segment=300)
    out_dir = str(tmp / "idx")
    summary = build_index(corpus_path, out_dir, cfg, CODE_CORPUS)
    engine = QueryEngine(out_dir, use_actors=False, cfg=cfg)

    table = pq.read_table(corpus_path)
    docs = [
        (docno_of(r, p, c), t)
        for r, p, c, t in zip(
            table["repo"].to_pylist(), table["path"].to_pylist(),
            table["commit"].to_pylist(), table["content"].to_pylist(),
        )
    ]
    oracle = OracleIndex(docs, FULL_PROFILE)

    doc_terms: dict[int, list[str]] = {}
    for term, pl in oracle.postings.items():
        for docid, _tf in pl:
            doc_terms.setdefault(docid, []).append(term)

    queries, qrels_lines = {}, []
    for i in range(30):
        docid = 3 + i * 17
        terms = doc_terms.get(docid)
        if not terms:
            continue
        rare = sorted(terms, key=lambda t: (oracle.df[t], t))[:5]
        qid = f"q{docid}"
        queries[qid] = rare
        # layout-derived docids are 1-based; the docs list is 0-based
        qrels_lines.append(f"{qid} 0 {docs[docid - 1][0]} 1")
    return engine, queries, qrels_lines


def _run_lines(engine, queries, scorer_name, k=10):
    lines = []
    results = engine.search_batch(list(queries.values()), k=k,
                                  scorer_name=scorer_name)
    for qid, res in zip(queries, results):
        lines.extend(engine.trec_lines(qid, res, run_name=scorer_name))
    return lines


def test_planted_relevance_metrics_bm25_vs_tfidf(planted):
    """BM25 and TFIDF must both retrieve the planted docs (metric
    floors); BM25's doc-length normalization should not lose to TFIDF on
    this corpus (reference report.pdf Table 3.1 orders them the same
    way)."""
    engine, queries, qrels_lines = planted
    qrels = eff.parse_qrels(qrels_lines)

    scores = {}
    for scorer in ("bm25", "tfidf"):
        run = eff.parse_run(_run_lines(engine, queries, scorer))
        scores[scorer] = eff.evaluate_run(run, qrels, k=10)["summary"]

    assert scores["bm25"]["map"] >= 0.75, scores
    assert scores["bm25"]["ndcg@10"] >= 0.8, scores
    assert scores["tfidf"]["map"] >= 0.6, scores
    assert scores["bm25"]["map"] >= scores["tfidf"]["map"] - 0.05, scores
