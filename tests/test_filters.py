"""Training-data filters (pipelines/filters.py): constructed-corpus
behavior pins (the synthetic testdata has no PII and few edge cases)
plus oracle agreement at sf0.001."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.pipelines.filters import _threshold_hex


def _write_docs(tmp_path, texts):
    path = str(tmp_path / "documents.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["t"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        path,
    )
    return path


def test_pii_redact_constructed(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.filters import pii_redact

    texts = [
        "contact alice@example.com or bob.smith+x@sub.domain.org today",
        "server at 10.0.0.1 and 192.168.255.3, backup 8.8.8.8",
        "mixed: eve@corp.io from 172.16.4.20",
        "clean text with no pii at all",
        "",
    ]
    path = _write_docs(tmp_path, texts)
    got = (
        pii_redact(path).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["n_emails"].tolist() == [2, 0, 1, 0, 0]
    assert got["n_ipv4"].tolist() == [0, 3, 1, 0, 0]
    # redaction changes the digest exactly when something matched
    import hashlib

    raw_md5 = [hashlib.md5(t.encode()).hexdigest() for t in texts]
    changed = (got["redacted_md5"] != pd.Series(raw_md5)).tolist()
    assert changed == [True, True, True, False, False]
    # and the redacted text itself round-trips through the same kernels
    import pyarrow.compute as pc

    from searchenginepp_ray.pipelines.filters import EMAIL_RE, IPV4_RE

    red = pc.replace_substring_regex(
        pc.replace_substring_regex(pa.array(texts), EMAIL_RE, "<EMAIL>"),
        IPV4_RE, "<IP>")
    assert red[0].as_py() == "contact <EMAIL> or <EMAIL> today"
    assert red[1].as_py() == "server at <IP> and <IP>, backup <IP>"


def test_repetition_stats_constructed(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.filters import repetition_stats

    texts = [
        "spam spam spam spam",          # one bigram repeated 3x
        "a b c d e",                    # all grams unique
        "x y z x y z x y z",            # heavy trigram repetition
        "solo",                         # too short for any gram
        "",                             # empty
    ]
    path = _write_docs(tmp_path, texts)
    got = (
        repetition_stats(path)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["n_tokens"].tolist() == [4, 5, 9, 1, 0]
    # doc0: 3 bigram instances, all "spam spam" -> 1.0
    assert got["top_bigram_frac"].tolist() == pytest.approx([1.0, 0.25, 3 / 8, 0.0, 0.0], abs=1e-6)
    # doc0: 2 trigram instances, 1 distinct -> 1/2 duplicated;
    # doc2: 7 instances, 3 distinct -> 4/7 duplicated
    assert got["dup_trigram_frac"].tolist() == pytest.approx(
        [1 / 2, 0.0, 4 / 7, 0.0, 0.0], abs=1e-6)


def test_decontaminate_constructed(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.filters import decontaminate

    # bench_mod=3 -> docs 0 and 3 are the benchmark set
    texts = [
        "the quick brown fox jumps",     # bench
        "lazy dog sleeps all day",       # clean
        "a quick brown fox appears",     # shares "quick brown fox"
        "unrelated benchmark text here", # bench
        "totally unrelated benchmark text here too",  # shares w/ doc3
        "xx yy",                         # too short for a trigram
    ]
    path = _write_docs(tmp_path, texts)
    got = (
        decontaminate(path, w=3, bench_mod=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == [1, 2, 4, 5]
    assert got["contaminated"].tolist() == [False, True, True, False]


def test_decontaminate_bloom_superset_of_exact(ray_session, sf_dir):
    """Bloom flags are a SUPERSET of the exact op's (no false
    negatives by construction) and, at the default 16 KB / 4-hash
    sizing, false positives are rare on the sf0.001 benchmark."""
    from searchenginepp_ray.pipelines.filters import (decontaminate,
                                                      decontaminate_bloom)

    exact = (decontaminate(sf_dir).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    bloom = (decontaminate_bloom(sf_dir).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert exact["doc_id"].tolist() == bloom["doc_id"].tolist()
    e = exact["contaminated"].to_numpy()
    b = bloom["contaminated_bloom"].to_numpy()
    assert not (e & ~b).any()          # no false negatives, ever
    assert (b & ~e).sum() <= max(2, int(0.01 * len(b)))  # FPs rare


def test_filters_match_oracle_sf0001(ray_session, sf_dir):
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    for name in ("repetition_stats", "pii_redact", "decontaminate",
                 "decontaminate_bloom"):
        got = (
            e.queries()[name](sf_dir).to_pandas()
        )
        want = con.execute(e.oracle_sql()[name]).df()
        got = got.reindex(sorted(got.columns), axis=1)
        want = want.reindex(sorted(want.columns), axis=1)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)


# ---------- property tests: vectorized kernels vs naive references ----------

import re as _re

from hypothesis import given, settings
from hypothesis import strategies as st

_texts = st.lists(
    st.text(
        alphabet=st.sampled_from(list("ab1 .\t\nXé")), max_size=40
    ),
    min_size=0, max_size=8,
)


def _ref_words(text):
    return [w for w in _re.split(r"[^a-z0-9]+", text.lower()) if w]


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_words_flat_matches_naive(texts):
    import pyarrow as pa

    from searchenginepp_ray.pipelines.filters import _words_flat

    doc_idx, flat, n_tokens = _words_flat(pa.array(texts, pa.string()))
    flat_list = flat.to_pylist()
    pos = 0
    for d, text in enumerate(texts):
        ref = _ref_words(text)
        assert n_tokens[d] == len(ref)
        assert flat_list[pos:pos + len(ref)] == ref
        assert (doc_idx[pos:pos + len(ref)] == d).all()
        pos += len(ref)
    assert pos == len(flat_list)


@settings(max_examples=200, deadline=None)
@given(_texts, st.integers(min_value=1, max_value=4))
def test_grams_match_naive(texts, w):
    import pyarrow as pa

    from searchenginepp_ray.pipelines.filters import _grams, _words_flat

    _, flat, n_tokens = _words_flat(pa.array(texts, pa.string()))
    gdoc, grams = _grams(flat, n_tokens, w)
    got = list(zip(gdoc.tolist(), grams.to_pylist()))
    want = []
    for d, text in enumerate(texts):
        toks = _ref_words(text)
        for i in range(max(len(toks) - w + 1, 0)):
            want.append((d, " ".join(toks[i:i + w])))
    assert got == want


def test_rounding_parity_on_half_grid(ray_session, tmp_path):
    """1/128 = 0.0078125 lands exactly on the 6-dp half grid, where
    np.round (half-to-even) and SQL ROUND (half-away) disagree; both
    sides now use the identical floor(x*1e6+0.5)/1e6 expression."""
    import sys

    import duckdb

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    from searchenginepp_ray.pipelines.filters import repetition_stats

    path = _write_docs(tmp_path, [" ".join(f"w{i}" for i in range(129))])
    got = repetition_stats(path).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    want = con.execute(e.oracle_sql()["repetition_stats"]).df()
    assert got["top_bigram_frac"].tolist() == want["top_bigram_frac"].tolist() == [0.007813]


def test_dup_span_stats_constructed(ray_session, tmp_path):
    """Corpus with a planted repeated 8-word span: doc0 and doc1 share
    one window verbatim; doc2 repeats its own window internally; doc3 is
    all-unique; doc4 is too short to form a window (absent from output)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.filters import dup_span_stats

    span = "alpha bravo charlie delta echo foxtrot golf hotel"
    docs = {
        0: f"intro words here {span} trailing bits",
        1: f"{span} completely different ending tokens now",
        2: f"{span} middle filler {span}",
        3: "one two three four five six seven eight nine ten",
        4: "too short",
    }
    p = tmp_path / "documents.parquet"
    pq.write_table(pa.table({"doc_id": list(docs), "text": list(docs.values())}), p)
    got = (dup_span_stats(str(tmp_path), w=8).to_pandas()
           .set_index("doc_id").sort_index())
    assert 4 not in got.index
    # doc3 shares nothing
    assert got.loc[3, "n_dup_windows"] == 0
    # the planted span is duplicated for docs 0, 1, 2
    for d in (0, 1, 2):
        assert got.loc[d, "n_dup_windows"] >= 1, d
    # doc2: the two copies of the span make BOTH its span windows dups
    assert got.loc[2, "n_dup_windows"] >= 2
    # window counts: len(tokens)-7 per doc
    for d, text in docs.items():
        nt = len(text.split())
        if nt >= 8:
            assert got.loc[d, "n_windows"] == nt - 7
    assert np.all(got["dup_frac"].between(0, 1))


def test_collocations_planted_phrase(ray_session, tmp_path):
    """A planted always-together pair must out-PMI a frequent pair whose
    words also occur apart."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.filters import collocations

    # "zig zag" always adjacent; "data base" words also appear separately
    docs = []
    for i in range(6):
        docs.append(f"zig zag appears here data base row {i}")
        docs.append(f"data alone and base alone fill row {i}")
    p = tmp_path / "documents.parquet"
    pq.write_table(pa.table({"doc_id": list(range(len(docs))),
                             "text": docs}), p)
    got = collocations(str(tmp_path), min_count=5, k=50)
    assert len(got) >= 2
    assert list(got["rank"]) == list(range(1, len(got) + 1))
    pmis = dict(zip(got["gram"], got["pmi"]))
    assert "zig zag" in pmis and "data base" in pmis
    assert pmis["zig zag"] > pmis["data base"]


def test_phrase_search_overlap_counting(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.filters import phrase_search

    texts = [
        "a a a a",                     # "a a" x3 (overlapping)
        "foo,bar baz",                 # punctuation is a token boundary
        "x foo bar x foo bar",         # "foo bar" x2
        "nothing here",
        "",
    ]
    path = _write_docs(tmp_path, texts)
    got = (phrase_search(path, phrases=("a a", "foo bar", "baz", "missing phrase"))
           .to_pandas().sort_values(["query", "doc_id"]).reset_index(drop=True))
    want = pd.DataFrame({
        "query": ["a a", "baz", "foo bar", "foo bar"],
        "doc_id": [0, 1, 1, 2],
        "n": [3, 1, 1, 2],
    })
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_phrase_search_matches_naive(ray_session, tmp_path):
    """Random word-salad corpus vs a pure-Python sliding-window count."""
    import itertools
    rng = np.random.RandomState(7)
    vocab = ["a", "b", "cc", "d1"]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 30)))
             for _ in range(40)]
    phrases = tuple(" ".join(p) for n in (1, 2, 3)
                    for p in itertools.product(vocab[:2], repeat=n))
    path = _write_docs(tmp_path, texts)
    from searchenginepp_ray.pipelines.filters import phrase_search

    got = (phrase_search(path, phrases=phrases).to_pandas()
           .sort_values(["query", "doc_id"]).reset_index(drop=True))
    rows = []
    for p in phrases:
        pw = p.split()
        for i, t in enumerate(texts):
            ws = _ref_words(t)
            n = sum(1 for j in range(len(ws) - len(pw) + 1)
                    if ws[j:j + len(pw)] == pw)
            if n:
                rows.append((p, i, n))
    want = (pd.DataFrame(rows, columns=["query", "doc_id", "n"])
            .sort_values(["query", "doc_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_regex_search_counts(ray_session, tmp_path):
    from searchenginepp_ray.pipelines.filters import regex_search

    texts = [
        "aaa aa a",                # "aa" matches non-overlapping: aaa->1, aa->1
        "v1 v2 v33",
        "no digits",
        "",
    ]
    path = _write_docs(tmp_path, texts)
    got = (regex_search(path, patterns=("aa", r"[0-9]+", "zzz"))
           .to_pandas().sort_values(["pattern", "doc_id"]).reset_index(drop=True))
    want = pd.DataFrame({
        "pattern": ["[0-9]+", "aa"],
        "doc_id": [1, 0],
        "n": [3, 2],
    })
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_phrase_regex_match_oracle_sf0001(ray_session, sf_dir):
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    for name in ("phrase_search", "regex_search"):
        got = e.queries()[name](sf_dir).to_pandas()
        want = con.execute(e.oracle_sql()[name]).df()
        got = got.reindex(sorted(got.columns), axis=1)
        want = want.reindex(sorted(want.columns), axis=1)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)


def _write_docs_lang(tmp_path, texts, langs):
    path = str(tmp_path / "documents.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs),
            "source": pa.array(["t"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        path,
    )
    return path


def test_importance_weights_directional(ray_session, tmp_path):
    """Docs made of target-slice vocabulary score above docs made of
    source-only vocabulary; empty docs get (0 tokens, 0.0)."""
    from searchenginepp_ray.pipelines.filters import importance_weights

    texts = (["alpha alpine amber anchor"] * 4          # en (target)
             + ["beta birch boulder basket"] * 4        # de
             + [""])                                    # empty
    langs = ["en"] * 4 + ["de"] * 4 + ["en"]
    path = _write_docs_lang(tmp_path, texts, langs)
    got = (importance_weights(path).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(got.columns) == ["doc_id", "n_tokens", "logw"]
    en_w = got.loc[:3, "logw"]
    de_w = got.loc[4:7, "logw"]
    assert (en_w > de_w.max()).all()
    assert got.loc[8, "n_tokens"] == 0 and got.loc[8, "logw"] == 0.0


def test_importance_weights_matches_naive(ray_session, tmp_path):
    """Pin the DSIR math against a direct per-doc reference that shares
    only the tokenizer and the md5-bucket rule (no shared aggregation
    code)."""
    import math

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.pipelines.duck import md5_bucket
    from searchenginepp_ray.pipelines.filters import importance_weights

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 25)))
             for _ in range(30)]
    langs = [rng.choice(["en", "de", "fr"]) for _ in range(30)]
    path = _write_docs_lang(tmp_path, texts, langs)
    B = 16
    got = (importance_weights(path, n_buckets=B).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    _, terms_l, tfs_l = tokenize_batch(texts, SIMPLE_PROFILE)
    per_doc = [list(zip(terms_l[i].as_py(), tfs_l[i].as_py()))
               for i in range(len(texts))]
    t_vec = [0] * B
    s_vec = [0] * B
    bkt = {}
    for i, doc in enumerate(per_doc):
        for term, tf in doc:
            if term not in bkt:
                bkt[term] = md5_bucket(pa.array([term]), B)[0].as_py()
            s_vec[bkt[term]] += tf
            if langs[i] == "en":
                t_vec[bkt[term]] += tf
    t_tot, s_tot = float(sum(t_vec)), float(sum(s_vec))
    w = [math.log2((t_vec[b] + 1.0) * (s_tot + B)
                   / ((s_vec[b] + 1.0) * (t_tot + B))) for b in range(B)]
    for i, doc in enumerate(per_doc):
        want_n = sum(tf for _, tf in doc)
        want_w = math.floor(sum(tf * w[bkt[t]] for t, tf in doc)
                            * 1e6 + 0.5) / 1e6
        assert got.loc[i, "n_tokens"] == want_n
        assert got.loc[i, "logw"] == pytest.approx(want_w, abs=2e-6)


def test_importance_weights_oracle_sf0001(ray_session, sf_dir):
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    got = e.queries()["importance_weights"](sf_dir).to_pandas()
    want = con.execute(e.oracle_sql()["importance_weights"]).df()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)],
        check_dtype=False, atol=1e-9)


def test_importance_resample_oracle_and_properties(ray_session, sf_dir):
    """Oracle agreement at sf0.001 plus Gumbel-top-k properties: ranks
    dense, keys non-increasing, unique docs, and the selected set tilts
    toward high-logw docs (the whole point of DSIR resampling)."""
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    got = e.queries()["importance_resample"](sf_dir)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.execute(e.oracle_sql()["importance_resample"]).df()
    got = got.sort_values("rank").reset_index(drop=True)
    want = want.sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)],
        check_dtype=False, atol=1e-9)
    assert got["rank"].tolist() == list(range(1, len(got) + 1))
    assert (np.diff(got["key"].to_numpy()) <= 1e-9).all()
    assert got["doc_id"].is_unique
    iw = e.queries()["importance_weights"](sf_dir).to_pandas()
    assert got["logw"].mean() > iw["logw"].mean()


def test_ngram_diversity_matches_naive(ray_session, tmp_path):
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.filters import ngram_diversity

    texts = ["the cat sat on the mat", "the cat ran", "", "solo",
             "a a a a b", "punct, Split-CASE  ok"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts),
                  "lang": pa.array(["en"] * len(texts)),
                  "source": pa.array(["t"] * len(texts)),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        str(tmp_path / "documents.parquet"))
    got = (ngram_diversity(str(tmp_path), max_n=3).to_pandas()
           .sort_values("n").reset_index(drop=True))
    for n in (1, 2, 3):
        grams = []
        for t in texts:
            toks = [w for w in re.split("[^a-z0-9]+", t.lower()) if w]
            grams += [" ".join(toks[i:i + n])
                      for i in range(len(toks) - n + 1)]
        row = got[got["n"] == n].iloc[0]
        assert row["total_grams"] == len(grams)
        assert row["distinct_grams"] == len(set(grams))
        assert abs(row["diversity"]
                   - len(set(grams)) / len(grams)) < 1e-6


def _split_of(doc_id: int, salt: str = "split",
              t_test: str = "1999", t_val: str = "3332") -> str:
    import hashlib

    p = hashlib.md5(f"{salt}:{doc_id}".encode()).hexdigest()[:4]
    return "test" if p < t_test else ("val" if p < t_val else "train")


def test_split_leakage_planted(ray_session, tmp_path):
    """Planted leakage: a val doc and a test doc each share an 8-gram
    with a train doc; an eval doc with unique text is clean; a doc
    sharing grams only with ANOTHER eval doc is NOT leaked (the
    contamination side is strictly the train split)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.filters import split_leakage

    t_test = _threshold_hex(0.25)
    t_val = _threshold_hex(0.5)
    # bucket doc ids by the real split rule
    ids = {"train": [], "val": [], "test": []}
    for i in range(400):
        s = _split_of(i, t_test=t_test, t_val=t_val)
        if len(ids[s]) < 4:
            ids[s].append(i)
    assert all(len(v) >= 3 for v in ids.values())

    leak8 = "q w e r t y u i"                 # the shared 8-gram
    evalonly = "z x c v b n m k"              # shared between eval docs only
    rows = {
        ids["train"][0]: f"start {leak8} end",
        ids["train"][1]: "plain train text with nothing shared here one",
        ids["val"][0]: f"prefix {leak8} suffix",           # leaked
        ids["val"][1]: f"own words only {evalonly}",       # eval-eval: clean
        ids["val"][2]: "completely unique val content here words nine ten",
        ids["test"][0]: f"{leak8} tail words",             # leaked
        ids["test"][1]: f"other {evalonly} padding",       # eval-eval: clean
        ids["test"][2]: "totally unique test content here words nine ten",
    }
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(rows), pa.int64()),
        "text": pa.array([rows[k] for k in sorted(rows)], pa.string()),
    }), path, row_group_size=3)

    got = split_leakage(path, w=8, val_frac=0.25, test_frac=0.25)
    want = pd.DataFrame({"split": ["test", "val"],
                         "n_docs": [3, 3], "n_leaked": [1, 1]})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_compression_ratio_matches_zlib_and_orders(ray_session, tmp_path):
    import zlib

    from searchenginepp_ray.pipelines.filters import compression_ratio

    texts = [
        "spam spam spam " * 50,                      # repetitive -> low
        "the quick brown fox jumps over the lazy dog and runs away "
        "through fields of golden wheat toward distant mountains",
        "qx8#kz!mw9@vj2$fp7&hd4*bn1;ye5^tg3(rc6)ul0sa",  # noise -> high
    ]
    path = _write_docs(tmp_path, texts)
    got = (compression_ratio(path).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for i, s in enumerate(texts):
        raw = s.encode()
        assert got.loc[i, "n_bytes"] == len(raw)
        assert got.loc[i, "compressed_bytes"] == len(zlib.compress(raw, 6))
    r = got["ratio"].to_numpy()
    assert r[0] < r[1] < r[2]  # repetitive < prose < noise


def test_compression_ratio_stored_closed_form(ray_session, tmp_path):
    """The level-0 twin's output equals BOTH direct zlib calls and the
    n + 11 stored-framing closed form the SQL oracle encodes; oversize
    docs refuse loudly instead of silently diverging from the oracle."""
    import zlib

    import ray

    from searchenginepp_ray.pipelines.filters import (compression_ratio,
                                                      compression_ratio_stored)

    texts = ["spam spam spam " * 50, "", "short", "x" * 6000]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    path = _write_docs(tmp_path / "a", texts)
    got = (compression_ratio_stored(path).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for i, s in enumerate(texts):
        raw = s.encode()
        assert got.loc[i, "compressed_bytes"] == len(zlib.compress(raw, 0))
        assert got.loc[i, "compressed_bytes"] == len(raw) + 11
        want = np.floor((len(raw) + 11) / max(len(raw), 1) * 1e6 + 0.5) / 1e6
        assert got.loc[i, "ratio"] == want
    big = _write_docs(tmp_path / "b", ["y" * 70000])
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="closed-form gate requires"):
        compression_ratio_stored(big).to_pandas()
