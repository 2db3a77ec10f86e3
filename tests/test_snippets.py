"""search_snippets: constructed-corpus edge pins (match at doc start, at
doc end, mid-doc window) plus full oracle agreement on the same corpus."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts):
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["t"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_snippet_window_edges(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.search_docs import search_snippets

    # DOC_QUERIES[0] = "table scan filter join"
    texts = [
        "xxx yyy table zzz www vvv uuu",       # mid-doc: first_pos 3
        "scan aaa bbb ccc ddd",                # doc start: first_pos 1
        "aaa bbb ccc ddd eee fff join",        # doc end: first_pos 7
        "nothing matching here at all",
    ]
    sf = _write_docs(tmp_path, texts)
    got = search_snippets(sf, k=10, mode="bmm")
    q0 = got[got["query_id"] == 0].set_index("doc_id")
    assert int(q0.loc[0, "first_pos"]) == 3
    assert q0.loc[0, "snippet"] == "xxx yyy table zzz www vvv"
    assert int(q0.loc[1, "first_pos"]) == 1
    assert q0.loc[1, "snippet"] == "scan aaa bbb ccc"
    assert int(q0.loc[2, "first_pos"]) == 7
    assert q0.loc[2, "snippet"] == "ddd eee fff join"
    assert 3 not in q0.index


def test_snippets_match_oracle_constructed(ray_session, tmp_path):
    import sys

    sys.path.insert(0, ".")
    from searchenginepp_ray.pipelines import oracle_sql as osql
    from searchenginepp_ray.pipelines.search_docs import search_snippets

    texts = [
        "table scan filter join window agg spark",
        "merge sort hash key value row",
        "customer query row table scan",
        "spark window agg spark window agg",
        "",
    ]
    sf = _write_docs(tmp_path, texts)
    got = search_snippets(sf)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    want = con.execute(osql.search_snippets_sql()).df()
    got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want[got.columns], check_dtype=False, atol=1e-9)


def test_rm3_expansion_changes_and_is_deterministic(ray_session, sf_dir):
    """The feedback pass really expands (results differ from the plain
    first pass for at least one query) and the two-pass loop is
    rerun-stable."""
    import pandas as pd

    from searchenginepp_ray.pipelines.search_docs import (
        search_bm25_rm3, search_topk,
    )

    rm3 = search_bm25_rm3(sf_dir)
    plain = search_topk(sf_dir, k=10, mode="bmm")
    assert not rm3.equals(plain)  # expansion had an effect
    assert (rm3.groupby("query_id")["rank"].apply(
        lambda r: r.tolist() == list(range(1, len(r) + 1)))).all()
    again = search_bm25_rm3(sf_dir)
    pd.testing.assert_frame_equal(rm3, again)


def test_search_filtered_equals_postfiltered_full_ranking(ray_session,
                                                          sf_dir):
    """Filtered top-k == the lang-filtered prefix of the COMPLETE
    unfiltered ranking (k = corpus size), on both profiles' engines —
    i.e. the mask is applied before selection with unchanged scores —
    and an unmatched facet value returns no rows."""
    import pandas as pd

    from searchenginepp_ray.pipelines.search_docs import (
        DOC_QUERIES, _to_frame, get_engine, search_topk_filtered)

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    allowed = set(docs.loc[docs["lang"] == "es", "doc_id"])
    k = 10
    got = search_topk_filtered(sf_dir, lang="es", k=k)

    eng = get_engine(sf_dir, simple=True)
    full = _to_frame(eng.search_batch(DOC_QUERIES, k=len(docs),
                                      mode="daat"))
    want = (full[full["doc_id"].isin(allowed)]
            .groupby("query_id", group_keys=False).head(k))
    want = want.assign(
        rank=want.groupby("query_id").cumcount() + 1).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want[got.columns], check_dtype=False)
    assert len(got) > 0

    none = eng.search_batch_filtered(
        DOC_QUERIES, k=k, column="lang", value="no_such_lang",
        src_path=f"{sf_dir}/documents.parquet")
    assert all(len(r) == 0 for r in none)


def test_masked_maxscore_equals_masked_daat(ray_session, sf_dir):
    """Force the maxscore dispatch (maxscore_min_docs=0) on an
    in-process engine: masked Maxscore returns exactly masked DAAT's
    results for every query and facet value — the pruning under a mask
    is safe."""
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.pipelines.search_docs import (
        DOC_QUERIES, _cfg, _index_dir, get_engine)

    get_engine(sf_dir, simple=True)  # ensure the index exists
    cfg = _cfg(simple=True)
    eng = QueryEngine(_index_dir(sf_dir, cfg), scorer="bm25",
                      use_actors=False, cfg=cfg)
    for w in eng.workers:
        for s in w.searchers:
            s.maxscore_min_docs = 0  # tiny segments: force the MS path
    src = f"{sf_dir}/documents.parquet"
    for lang in ("es", "en"):
        ms = eng.search_batch_filtered(DOC_QUERIES, k=10, column="lang",
                                       value=lang, src_path=src, mode="bmm")
        da = eng.search_batch_filtered(DOC_QUERIES, k=10, column="lang",
                                       value=lang, src_path=src, mode="daat")
        assert ms == da
        assert any(len(r) for r in ms)


def test_tombstoned_search_excludes_deleted_exactly(ray_session, sf_dir):
    """Tombstoned serving == the alive-filtered prefix of the COMPLETE
    ranking of the same index, across daat/bmm/conj modes; deleted docs
    never appear; a second delete_docs call merges incrementally."""
    import pandas as pd

    from searchenginepp_ray.pipelines.search_docs import (
        DOC_QUERIES, TOMB_MOD, _to_frame, get_engine,
        get_tombstoned_engine, search_topk_tombstoned)

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    n = len(docs)
    dead = {d for d in range(0, n, TOMB_MOD)}
    k = 10

    full_eng = get_engine(sf_dir, simple=True)
    for mode in ("daat", "bmm"):
        got = search_topk_tombstoned(sf_dir, k=k, mode=mode)
        full = _to_frame(full_eng.search_batch(DOC_QUERIES, k=n, mode=mode))
        want = (full[~full["doc_id"].isin(dead)]
                .groupby("query_id", group_keys=False).head(k))
        want = want.assign(
            rank=want.groupby("query_id").cumcount() + 1
        ).reset_index(drop=True)
        assert not got["doc_id"].isin(dead).any()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want[got.columns],
            check_dtype=False)

    # conjunctive mode through the tombstoned engine: no deleted docs
    teng = get_tombstoned_engine(sf_dir)
    conj = _to_frame(teng.search_batch(DOC_QUERIES, k=k, mode="daat_conj"))
    assert not conj["doc_id"].isin(dead).any()


def test_delete_docs_incremental_idempotent(ray_session, tmp_path):
    """delete_docs merges with prior tombstones and is idempotent; the
    tombstone file is the one record of the deletes (the global metadata
    is left as it was)."""
    import json
    import os

    import pyarrow.parquet as pq

    from searchenginepp_ray.index.tombstone import (
        delete_docs, load_tombstones)

    idx = str(tmp_path / "idx")
    os.makedirs(os.path.join(idx, "global"))
    with open(os.path.join(idx, "global", "metadata.json"), "w") as f:
        json.dump({"n_docs": 10}, f)
    assert delete_docs(idx, ["3", "1"]) == 2
    assert delete_docs(idx, ["1", "7"]) == 3      # merge, dedup
    assert load_tombstones(idx) == ["1", "3", "7"]
    with open(os.path.join(idx, "global", "metadata.json")) as f:
        assert json.load(f) == {"n_docs": 10}


def test_grouped_topk_covers_facets_and_matches_filtered(ray_session,
                                                         sf_dir):
    """Grouped retrieval == per-facet filtered retrieval stacked, and
    every (query, lang) group has <= k rows with contiguous ranks."""
    import pandas as pd

    from searchenginepp_ray.pipelines.search_docs import (
        search_topk_filtered, search_topk_grouped)

    k = 3
    got = search_topk_grouped(sf_dir, k=k)
    langs = sorted(got["lang"].unique())
    assert len(langs) >= 2
    for lang in langs:
        sub = got[got["lang"] == lang].drop(columns=["lang"]) \
            .reset_index(drop=True)
        want = search_topk_filtered(sf_dir, lang=lang, k=k) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(sub[want.columns], want,
                                      check_dtype=False)
    sizes = got.groupby(["query_id", "lang"])["rank"].agg(["size", "max"])
    assert (sizes["size"] <= k).all()
    assert (sizes["size"] == sizes["max"]).all()
