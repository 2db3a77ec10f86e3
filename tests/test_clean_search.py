"""Composed clean → index → search pipeline: the Ray side (corpus_clean
keepers semi-joined to texts, full index rebuild, BM25 serving) must
equal a DuckDB oracle that cleans in SQL and recomputes the whole scoring
stack (tf, doclen, N, avgdl, df) over the cleaned corpus. Also the
distributed semi/anti-join (``clean._mark_members``) the clean
pipeline uses, vs pandas ``isin``."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from searchenginepp_ray.pipelines import clean, search_docs
from searchenginepp_ray.pipelines import oracle_sql as osql

SF = "/root/testdata/sf0.001"


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    return con.execute(sql).df()


def test_cleaned_documents_ds_matches_corpus_clean(ray_session):
    kept_ids = sorted(
        clean.corpus_clean(SF).to_pandas()["doc_id"].tolist()
    )
    docs = clean.cleaned_documents_ds(SF).to_pandas()
    assert sorted(docs["doc_id"].tolist()) == kept_ids
    assert (docs["text"].str.len() > 0).all()
    # the clean actually filtered something (composition is non-trivial)
    n_corpus = _oracle("SELECT COUNT(*) AS n FROM documents")["n"][0]
    assert 0 < len(docs) < n_corpus


def test_search_cleaned_matches_sql_oracle(ray_session):
    got = (
        search_docs.search_topk_cleaned(SF, mode="bmm")
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    want = (
        _oracle(osql.search_topk_cleaned_sql("bm25"))
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert (got["score"] - want["score"]).abs().max() < 1e-9
    # daat over the cleaned index agrees with bmm
    daat = (
        search_docs.search_topk_cleaned(SF, mode="daat")
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert daat["doc_id"].tolist() == got["doc_id"].tolist()


def test_semi_and_anti_join(ray_session):
    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 100, 2000),
                         "v": rng.random(2000)})
    right = pd.DataFrame({"rk": rng.integers(50, 150, 500)})
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(3)
    for anti in (False, True):
        got = clean._mark_members(lds, "k", rds, "rk", {"v": pa.float64()},
                                  keep_matching=not anti).to_pandas()
        m = left["k"].isin(right["rk"].unique())
        want = left[~m if anti else m]
        assert len(got) == len(want)
        assert sorted(got["v"].tolist()) == sorted(want["v"].tolist())
