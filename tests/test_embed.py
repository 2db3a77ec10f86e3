"""Feature-hashed TF-IDF embedding generation: long format vs the DuckDB
oracle, dense pivot vs the long rows, and the embed→ANN composition."""

import duckdb
import numpy as np
import pandas as pd

from searchenginepp_ray.pipelines.embed import (
    DIMS,
    doc_embedding,
    doc_embedding_vectors,
)
from searchenginepp_ray.pipelines.oracle_sql import doc_embedding_sql


def test_doc_embedding_matches_duckdb(ray_session, sf_dir):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    got = doc_embedding(sf_dir).to_pandas().sort_values(
        ["doc_id", "dim"]).reset_index(drop=True)
    want = con.execute(doc_embedding_sql()).df().sort_values(
        ["doc_id", "dim"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["dim"].tolist() == want["dim"].tolist()
    np.testing.assert_allclose(got["weight"], want["weight"], atol=1e-6)


def test_dense_pivot_matches_long(ray_session, sf_dir):
    long = doc_embedding(sf_dir).to_pandas()
    dense = doc_embedding_vectors(sf_dir).to_pandas()
    assert set(dense["doc_id"]) == set(long["doc_id"])
    vecs = {r.doc_id: np.asarray(r.embedding) for r in dense.itertuples()}
    for _, row in long.sample(200, random_state=0, replace=True).iterrows():
        assert abs(vecs[row.doc_id][int(row.dim)] - row.weight) < 1e-5
    # off-dims are exactly zero
    d0 = long[long["doc_id"] == long["doc_id"].iloc[0]]
    v0 = vecs[d0["doc_id"].iloc[0]]
    zero_dims = set(range(DIMS)) - set(d0["dim"])
    assert all(v0[d] == 0.0 for d in zero_dims)


def test_embedding_feeds_knn(ray_session, sf_dir):
    """Composition: generated embeddings are a valid ANN input — cosine
    top-k over them finds each doc as its own nearest neighbor."""
    dense = doc_embedding_vectors(sf_dir).to_pandas()
    mat = np.stack(dense["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    assert (norms > 0).all()
    mn = mat / norms[:, None]
    sims = mn[:5] @ mn.T
    ids = dense["doc_id"].to_numpy()
    for qi in range(5):
        assert ids[np.argmax(sims[qi])] == ids[qi]


def test_text_knn_self_top1(ray_session):
    """Every query doc's nearest neighbor by its own generated embedding
    is itself (cosine 1.0)."""
    from searchenginepp_ray.pipelines.embed import text_knn

    df = text_knn("/root/testdata/sf0.01", n_queries=3, k=3).to_pandas()
    for qid, g in df.groupby("query_id"):
        g = g.sort_values("rank")
        assert g.iloc[0]["neighbor_id"] == qid
        assert abs(g.iloc[0]["cosine"] - 1.0) < 1e-9


def test_doc_similarity_pairs_matches_bruteforce(ray_session, sf_dir):
    """The posting-list pair enumeration equals the brute-force cosine
    over the same df-capped TF-IDF space (sequential reference)."""
    from collections import Counter

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.word_normalizer import normalize_tokens
    from searchenginepp_ray.pipelines.embed import doc_similarity_pairs
    from searchenginepp_ray.pipelines.text_stats import round6_half_up

    threshold = 0.6
    got = (doc_similarity_pairs(sf_dir, threshold=threshold).to_pandas()
           .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    n = len(docs)
    max_df = max(16, int(n * 0.05))
    tfs = {int(r.doc_id): Counter(normalize_tokens(r.text, SIMPLE_PROFILE))
           for r in docs.itertuples()}
    df_ = Counter(t for tf in tfs.values() for t in tf)
    w = {d: {t: c * np.log2(n / df_[t]) for t, c in tf.items()
             if df_[t] <= max_df} for d, tf in tfs.items()}
    nrm = {d: np.sqrt(sum(x * x for x in v.values())) for d, v in w.items()}
    rows = []
    ids = sorted(w)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            shared = set(w[a]) & set(w[b])
            if not shared:
                continue
            dot = sum(w[a][t] * w[b][t] for t in shared)
            c6 = float(round6_half_up(np.array([dot / (nrm[a] * nrm[b])]))[0])
            if c6 >= threshold:
                rows.append((a, b, c6))
    want = (pd.DataFrame(rows, columns=["doc_a", "doc_b", "cosine"])
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    assert len(got) == len(want) and len(got) > 0
    assert got["doc_a"].tolist() == want["doc_a"].tolist()
    assert got["doc_b"].tolist() == want["doc_b"].tolist()
    assert got["cosine"].tolist() == want["cosine"].tolist()
