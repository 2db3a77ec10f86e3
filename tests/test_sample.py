"""Deterministic sampling vs the SQL oracle; HLL accuracy + merge laws."""

import duckdb
import numpy as np
import pandas as pd

from searchenginepp_ray.pipelines.sample import (
    _hll_estimate,
    _hll_registers,
    _threshold_hex,
    deterministic_sample,
    hll_distinct_terms,
)


def test_deterministic_sample_matches_oracle_and_is_stable(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.oracle_sql import deterministic_sample_sql

    got = (
        deterministic_sample(sf_dir).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    want = (
        con.sql(deterministic_sample_sql()).df()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert 0 < len(got) < 500
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
    # stability: a rerun selects the identical row set
    again = (
        deterministic_sample(sf_dir).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert list(again["doc_id"]) == list(got["doc_id"])


def test_threshold_hex():
    assert _threshold_hex(0.1) == "1999"
    assert _threshold_hex(0.5) == "8000"
    assert _threshold_hex(0.0) == "0000"


def test_hll_estimate_large_cardinality():
    rng = np.random.default_rng(3)
    for true_n in (10_000, 1_000_000):
        h = rng.integers(0, 2**64, true_n, dtype=np.uint64)
        est = _hll_estimate(_hll_registers(h))
        assert abs(est - true_n) / true_n < 0.03  # 3 sigma of ~0.8%


def test_hll_registers_merge_is_max():
    rng = np.random.default_rng(4)
    h = rng.integers(0, 2**64, 50_000, dtype=np.uint64)
    whole = _hll_registers(h)
    merged = np.maximum(_hll_registers(h[:20_000]), _hll_registers(h[20_000:]))
    assert np.array_equal(whole, merged)


def test_hll_distinct_terms_small_corpus_exact(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.text_stats import term_df

    est = hll_distinct_terms(sf_dir)["distinct_terms_est"][0]
    exact = term_df(sf_dir).count()
    # tiny vocabulary -> linear-counting regime is exact
    assert est == exact


def test_dataset_split_disjoint_stable_salted(ray_session):
    from searchenginepp_ray.pipelines.sample import dataset_split

    sf = "/root/testdata/sf0.01"
    a = dataset_split(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = dataset_split(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # rerun-stable
    assert set(a["split"].unique()) <= {"train", "val", "test"}
    assert len(a) == a["doc_id"].nunique()  # exhaustive + disjoint
    # fractions in the right ballpark (md5 uniformity, 500 docs)
    frac = a["split"].value_counts(normalize=True)
    assert 0.6 <= frac.get("train", 0) <= 0.95
    assert 0.02 <= frac.get("val", 0) <= 0.25
    assert 0.02 <= frac.get("test", 0) <= 0.25
    # a different salt reshuffles assignments
    c = dataset_split(sf, salt="other").to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert (c["split"] != a["split"]).any()


def test_quality_select_exact_counts_and_ties(ray_session, tmp_path):
    """Per-lang ceil(n·q) selection with tie admission by lowest
    doc_id, vs a sequential rank reference over the same score grid."""
    import math

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.pipelines.sample import quality_select

    rng = np.random.RandomState(9)
    vocab = ["aa", "bb", "cc", "dd"]
    # many docs share score grids (short word-salad) => real tie sets
    texts = [" ".join(rng.choice(vocab, rng.randint(1, 8)))
             for _ in range(60)]
    langs = [rng.choice(["en", "de"]) for _ in range(60)]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs),
    }), path, row_group_size=11)
    got = (quality_select(path, 1, 3).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    doclens, terms_l, _ = tokenize_batch(texts, SIMPLE_PROFILE)
    rows = []
    for i in range(len(texts)):
        nd = len(terms_l[i])
        n = max(int(doclens[i]), 1)
        rows.append((i, langs[i], int(math.floor(nd / n * 1e6 + 0.5))))
    df = pd.DataFrame(rows, columns=["doc_id", "lang", "s"])
    want = []
    for lang, g in df.groupby("lang"):
        k = (len(g) * 1 + 3 - 1) // 3
        g = g.sort_values(["s", "doc_id"], ascending=[False, True])
        want.append(g.head(k))
    want = pd.concat(want).sort_values("doc_id").reset_index(drop=True)
    want["distinct_ratio"] = want["s"] / 1e6
    pd.testing.assert_frame_equal(
        got, want[["doc_id", "lang", "distinct_ratio"]],
        check_dtype=False)


def test_source_cap_properties(ray_session, sf_dir):
    import pandas as pd

    from searchenginepp_ray.pipelines.sample import source_cap

    got = source_cap(sf_dir, cap=15).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    assert len(got) == len(docs)  # every doc gets a row
    sizes = docs.groupby("source").size()
    keeps = got[got["keep"] == 1].groupby("source").size()
    for src, n in sizes.items():
        assert keeps.get(src, 0) == min(15, n)
    # ranks are a 1..n permutation per source
    for src, g in got.groupby("source"):
        assert sorted(g["src_rank"]) == list(range(1, len(g) + 1))
    # content-addressed, not positional: survivors are not simply the
    # lowest doc_ids of a capped source
    capped = [s for s, n in sizes.items() if n > 15]
    if capped:
        g = got[(got["source"] == capped[0]) & (got["keep"] == 1)]
        lowest = docs[docs["source"] == capped[0]]["doc_id"].nsmallest(15)
        assert set(g["doc_id"]) != set(lowest)
    # rerun-stable
    again = source_cap(sf_dir, cap=15).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True))


def test_source_mixture_matches_pandas(ray_session, sf_dir):
    import re

    import pandas as pd

    from searchenginepp_ray.pipelines.sample import source_mixture

    got = (source_mixture(sf_dir).sort_values(["source", "lang"])
           .reset_index(drop=True))
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet")
    docs["n_tok"] = [
        len([w for w in re.split("[^a-z0-9]+", t.lower()) if w])
        for t in docs["text"]
    ]
    want = docs.groupby(["source", "lang"], as_index=False).agg(
        n_docs=("doc_id", "size"), n_tokens=("n_tok", "sum"))
    want = want.sort_values(["source", "lang"]).reset_index(drop=True)
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()
    share = want["n_tokens"] / want["n_tokens"].sum()
    assert np.abs(got["token_share"].to_numpy() - share.to_numpy()).max() < 1e-6


def test_lang_mix_sample_hits_exact_weights(ray_session, sf_dir):
    import pandas as pd

    from searchenginepp_ray.pipelines.sample import (
        MIX_WEIGHTS_PM, lang_mix_sample,
    )

    got = lang_mix_sample(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    n = docs.groupby("lang").size().to_dict()
    T = min(n[lang] * 1000 // w for lang, w in MIX_WEIGHTS_PM.items())
    kept = got.groupby("lang").size().to_dict()
    for lang, w in MIX_WEIGHTS_PM.items():
        assert kept.get(lang, 0) == w * T // 1000  # exact integer caps
        assert kept.get(lang, 0) <= n[lang]        # feasible
    # ranks are 1..cap per language and the sample is rerun-stable
    assert (got.groupby("lang")["mix_rank"].max()
            == got.groupby("lang").size()).all()
    again = lang_mix_sample(sf_dir).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True))


def test_epoch_shuffle_permutation_and_decorrelation(ray_session, sf_dir):
    """Each epoch's order is an exact permutation of 0..n-1, matches the
    sequential md5-sort reference, differs between epochs, and shard ids
    are pos // shard_size."""
    import hashlib

    import numpy as np
    import pandas as pd

    from searchenginepp_ray.pipelines.sample import epoch_shuffle

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    n = len(docs)
    orders = {}
    for epoch in (1, 2):
        got = epoch_shuffle(sf_dir, epoch=epoch, shard_size=7).to_pandas() \
            .sort_values("pos").reset_index(drop=True)
        assert sorted(got["pos"].tolist()) == list(range(n))
        assert (got["shard"].to_numpy()
                == got["pos"].to_numpy() // 7).all()
        keys = sorted(
            (hashlib.md5(f"epoch{epoch}:{d}".encode()).hexdigest(), d)
            for d in docs["doc_id"])
        want_ids = [d for _, d in keys]
        assert got["doc_id"].tolist() == want_ids
        orders[epoch] = got["doc_id"].tolist()
    assert orders[1] != orders[2]  # epochs reshuffle independently


def test_curriculum_order_is_exact_global_rank(ray_session):
    """curriculum_order's ranks are a permutation of 1..N that equals a
    driver-side stable sort by (quality DESC, doc_id ASC)."""
    import numpy as np

    from searchenginepp_ray.pipelines.sample import curriculum_order

    df = curriculum_order("/root/testdata/sf0.001").to_pandas()
    n = len(df)
    assert sorted(df["rank"]) == list(range(1, n + 1))
    want = df.sort_values(["quality", "doc_id"],
                          ascending=[False, True])["doc_id"].to_numpy()
    got = df.sort_values("rank")["doc_id"].to_numpy()
    assert (got == want).all()
    # quality is non-increasing along the curriculum
    qs = df.sort_values("rank")["quality"].to_numpy()
    assert (np.diff(qs) <= 1e-12).all()


def test_vocab_distinct_hll_accuracy(ray_session, sf_dir):
    """Portable-register vocabulary sketch: within the m=512 error
    envelope of the exact distinct-term count, and deterministic."""
    import numpy as np

    from searchenginepp_ray.pipelines.sample import vocab_distinct_hll
    from searchenginepp_ray.pipelines.text_stats import term_counts_ds

    got = vocab_distinct_hll(sf_dir)
    again = vocab_distinct_hll(sf_dir)
    assert got["distinct_terms_hll"][0] == again["distinct_terms_hll"][0]
    import pyarrow.compute as pc

    exact = len(set(
        t for b in term_counts_ds(sf_dir).iter_batches(
            batch_format="pyarrow", batch_size=None)
        for t in pc.list_flatten(b["terms"]).to_pylist()))
    rel = abs(got["distinct_terms_hll"][0] / exact - 1.0)
    assert rel < 0.14, (got["distinct_terms_hll"][0], exact)


def test_stratified_sample_rates_and_determinism(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.sample import stratified_sample

    a = stratified_sample(sf_dir).to_pandas()
    b = stratified_sample(sf_dir).to_pandas()
    # deterministic: identical membership across runs
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # strata rates: en is downsampled ~0.1, everything else ~0.5
    full = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    n_en_full = int((full["lang"] == "en").sum())
    n_en = int((a["lang"] == "en").sum())
    assert n_en < n_en_full * 0.3
    n_rest_full = int((full["lang"] != "en").sum())
    n_rest = int((a["lang"] != "en").sum())
    assert 0.25 * n_rest_full < n_rest < 0.75 * n_rest_full
