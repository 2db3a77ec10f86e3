"""Unit pins for pipelines/text_stats.py kernels that the oracle gate
exercises only at one scale — chiefly the vectorized BPE count's
equivalence to the sequential full-pattern scan."""

import random
import re

import pyarrow as pa
import pyarrow.compute as pc

from searchenginepp_ray.pipelines.text_stats import (
    BPE_PATTERN,
    _BPE_COUNT_PATTERN,
)


def test_bpe_count_pattern_equals_sequential_scan():
    """count_substring_regex with the reduced pattern must equal the
    per-doc findall over the FULL pattern with whitespace-run matches
    discarded — on handpicked boundary shapes and a deterministic fuzz
    sweep over the pattern's character classes."""
    full_re = re.compile(BPE_PATTERN)
    ws = re.compile(r"[ \t\n\v\f\r]+$")
    rng = random.Random(7)
    alphabet = list("ab1!  \t\n") + ["é", "À", "ÿ", "—", "\r", "\v", "\f", "¿"]
    cases = [
        "", " ", "  ", "a", " a", "a  b", "a\t b", "x 1", "a !", "!!",
        " !", "\t\t", "é1—", "a b", " 1a!", "a1", "1a", "—a", "a—1",
    ]
    cases += [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for _ in range(2000)
    ]
    vec = pc.count_substring_regex(
        pa.array(cases, pa.string()), _BPE_COUNT_PATTERN
    ).to_pylist()
    for s, got in zip(cases, vec):
        exp = sum(1 for m in full_re.findall(s) if not ws.match(m))
        assert got == exp, (repr(s), got, exp)


def test_ordered_tokens_batch_matches_scalar():
    """The order-preserving batch tokenizer must equal the scalar
    normalize_tokens per doc, on both profiles, including mojibake,
    NUL-containing, empty, all-space, over-240-byte and stop-word docs."""
    from searchenginepp_ray.config import SIMPLE_PROFILE, NormalizerProfile
    from searchenginepp_ray.normalizer.batch import ordered_tokens_batch
    from searchenginepp_ray.normalizer.word_normalizer import normalize_tokens

    full = NormalizerProfile(stemming=True, fix_latin1=True, latin1_case=True)
    texts = [
        "Hello, World! The quick brown fox.", "", "   ", "\t\n\r",
        "a" * 300 + " ok THE the", "caffÃ¨ maÃ±ana", "tab\tsep\nnew",
        "x \x00 y", "Running runs RUNNER", "the of and", "ÀÉÎÕÜ mixed CASE",
    ]
    for prof in (SIMPLE_PROFILE, full):
        got = ordered_tokens_batch(texts, prof).to_pylist()
        want = [normalize_tokens(t, prof) for t in texts]
        assert got == want, prof


def test_fingerprint_kernel_matches_bruteforce():
    """The vectorized gram-assembly + DuckDB md5-min fingerprint kernel
    must equal the per-doc brute-force loop on every doc-length regime:
    empty, shorter-than-window, exactly-window, window+1, long."""
    import hashlib

    import numpy as np

    from searchenginepp_ray.pipelines.duck import md5_prefix_min_by_group

    w = 4
    docs = [
        [], ["a"], ["a", "b"], ["a", "b", "c", "d"],
        ["a", "b", "c", "d", "e"],
        [f"t{i % 7}" for i in range(50)],
        ["same"] * 10, ["x", "", "y"],  # empty token inside a gram
    ]
    tokens = pa.array(docs, pa.list_(pa.string()))
    counts = np.asarray(pc.list_value_length(tokens)).astype(np.int64)
    tok_offsets = np.concatenate(([0], np.cumsum(counts)))
    flat = tokens.flatten()
    full_idx = np.flatnonzero(counts > w)
    short_idx = np.flatnonzero(counts <= w)
    gram_parts, doc_parts = [], []
    m = counts[full_idx] - w + 1
    total = int(m.sum())
    rng = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
    starts = np.repeat(tok_offsets[full_idx], m) + rng
    cols = [flat.take(pa.array(starts + j)) for j in range(w)]
    gram_parts.append(pc.binary_join_element_wise(*cols, " "))
    doc_parts.append(np.repeat(full_idx, m))
    gram_parts.append(pc.binary_join(tokens.take(pa.array(short_idx)), " "))
    doc_parts.append(short_idx)
    grams = pa.concat_arrays(
        [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
         for p in gram_parts]
    )
    got = md5_prefix_min_by_group(
        pa.array(np.concatenate(doc_parts)), grams, 16
    ).to_pylist()

    want = []
    for toks in docs:
        n = len(toks)
        gs = [" ".join(toks)] if n <= w else [
            " ".join(toks[i : i + w]) for i in range(n - w + 1)
        ]
        want.append(min(hashlib.md5(g.encode()).hexdigest()[:16] for g in gs))
    assert got == want


def test_md5_hex_matches_hashlib():
    import hashlib

    from searchenginepp_ray.pipelines.duck import md5_hex

    vals = ["", "a", "é—ü", "x" * 1000, "line\nbreak", "nul\x00safe"]
    got = md5_hex(pa.chunked_array([pa.array(vals)])).to_pylist()
    assert got == [hashlib.md5(v.encode()).hexdigest() for v in vals]


def test_unigram_logprob_hand_corpus(ray_session, tmp_path):
    """Hand-checkable LM: corpus = {"a a a b", "a b"} under the simple
    profile. ctf(a)=4, ctf(b)=2, T=6; doc0: (3·log2(4)+1·log2(2) − 4·log2(6))/4,
    doc1: (log2(4)+log2(2) − 2·log2(6))/2."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.text_stats import unigram_logprob

    p = tmp_path / "documents.parquet"
    pq.write_table(
        pa.table({"doc_id": [0, 1], "text": ["a a a b", "a b"]}), p)
    got = unigram_logprob(str(tmp_path)).to_pandas().sort_values("doc_id")
    assert got["n_tokens"].tolist() == [4, 2]
    want0 = (3 * math.log2(4) + math.log2(2) - 4 * math.log2(6)) / 4
    want1 = (math.log2(4) + math.log2(2) - 2 * math.log2(6)) / 2
    import numpy as np

    exp = np.floor(np.array([want0, want1]) * 1e6 + 0.5) / 1e6
    assert np.allclose(got["avg_logprob"].to_numpy(), exp, atol=0)


def test_documents_ds_accepts_jsonl(ray_session, tmp_path):
    """The text-pipeline family runs unchanged over a .jsonl corpus path
    (the clean CLI's interchange format)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.text_stats import token_count

    docs = [{"doc_id": i, "text": f"alpha beta {i} gamma"} for i in range(40)]
    jl = tmp_path / "docs.jsonl"
    with open(jl, "w") as f:
        for d in docs:
            f.write(json.dumps(d) + "\n")
    pqp = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": [d["doc_id"] for d in docs],
                             "text": [d["text"] for d in docs]}), pqp)
    a = token_count(str(jl)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = token_count(str(pqp)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_fuzzy_term_match_vs_bruteforce(ray_session, tmp_path):
    """SymSpell candidate generation + DP verify vs naive all-pairs
    Levenshtein — includes the classic false-candidate pair (ab/ba share
    deletion 'a' but are distance 2) and multi-match queries."""
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.search_docs import _levenshtein
    from searchenginepp_ray.pipelines.text_stats import fuzzy_term_match

    vocab_docs = [
        "ab ba cat cart care bat bath xylophone scan scans",
        "ab cat can man scan spam",
    ]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(vocab_docs, pa.string()),
        }), path)
    queries = ("ab", "cat", "scan", "bathe", "zzz", "xylophone")
    got = (fuzzy_term_match(path, queries=queries).to_pandas()
           .sort_values(["query", "term"]).reset_index(drop=True))

    vocab = {}
    for i, t in enumerate(vocab_docs):
        for w in set(t.split()):
            vocab[w] = vocab.get(w, 0) + 1
    rows = [(q, t, df, _levenshtein(q, t))
            for q in queries for t, df in vocab.items()
            if _levenshtein(q, t) <= 1]
    import pandas as pd
    want = (pd.DataFrame(rows, columns=["query", "term", "df", "dist"])
            .sort_values(["query", "term"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the false-candidate pair is excluded
    assert not ((got["query"] == "ab") & (got["term"] == "ba")).any()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=0, max_size=4),
                min_size=2, max_size=6))
def test_levenshtein_dp_properties(words):
    """DP metric sanity: symmetry, identity, triangle vs single edits."""
    from searchenginepp_ray.pipelines.search_docs import _levenshtein

    for a in words:
        assert _levenshtein(a, a) == 0
        for b in words:
            d = _levenshtein(a, b)
            assert d == _levenshtein(b, a)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def test_term_complete_matches_duckdb(ray_session, sf_dir):
    import duckdb

    from searchenginepp_ray.pipelines.oracle_sql import term_complete_sql
    from searchenginepp_ray.pipelines.text_stats import term_complete

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    for prefix, k in [("s", 3), ("s", 100), ("w", 2), ("zzz", 5)]:
        got = term_complete(sf_dir, prefix=prefix, k=k).reset_index(drop=True)
        want = con.sql(term_complete_sql(prefix=prefix, k=k)).df()
        import pandas as pd
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bigram_logprob_matches_naive(ray_session, tmp_path):
    """Sequential add-one bigram LM reference over the same normalized
    token streams; <2-token docs absent; repeated fluent bigrams score
    above never-seen transitions."""
    import math

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import ordered_tokens_batch
    from searchenginepp_ray.pipelines.text_stats import bigram_logprob

    import numpy as np

    rng = np.random.RandomState(17)
    vocab = ["the", "cat", "sat", "mat", "dog"]
    texts = (["the cat sat"] * 6
             + [" ".join(rng.choice(vocab, rng.randint(0, 9)))
                for _ in range(30)]
             + ["solo", ""])
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=9)
    got = (bigram_logprob(path).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    la = ordered_tokens_batch(texts, SIMPLE_PROFILE)
    streams = [la[i].as_py() for i in range(len(texts))]
    cb, cc, vocab_set = {}, {}, set()
    for s in streams:
        vocab_set.update(s)
        for a, b in zip(s, s[1:]):
            cb[(a, b)] = cb.get((a, b), 0) + 1
            cc[a] = cc.get(a, 0) + 1
    V = float(len(vocab_set))
    rows = []
    for i, s in enumerate(streams):
        if len(s) < 2:
            continue
        lp = sum(math.log2(cb[(a, b)] + 1.0) - math.log2(cc[a] + V)
                 for a, b in zip(s, s[1:]))
        n = len(s) - 1
        rows.append((i, n, math.floor(lp / n * 1e6 + 0.5) / 1e6))
    want = pd.DataFrame(rows, columns=["doc_id", "n_bigrams",
                                       "avg_logprob"])
    assert set(got["doc_id"]) == set(want["doc_id"])  # short docs absent
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  atol=2e-6)
    # fluent repeated docs outscore the word salad on average
    fluent = got[got["doc_id"] < 6]["avg_logprob"].mean()
    salad = got[got["doc_id"] >= 6]["avg_logprob"].mean()
    assert fluent > salad


def test_term_heavy_hitters_prunes_and_stays_exact(ray_session, tmp_path):
    """Vocabulary ≫ k forces real Misra-Gries pruning in every batch;
    the two-pass result must still be the EXACT set + exact counts
    (planted heavy terms among a long random tail)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.pipelines.text_stats import term_heavy_hitters

    rng = np.random.RandomState(31)
    tail = [f"t{i}" for i in range(3000)]
    heavy = ["alpha", "beta", "gamma"]
    texts = []
    for _ in range(120):
        words = list(rng.choice(tail, 40))
        for h in heavy:
            words += [h] * rng.randint(2, 6)
        rng.shuffle(words)
        texts.append(" ".join(words))
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=10)

    k = 50  # vocabulary ~3000 >> k: every batch prunes
    got = (term_heavy_hitters(path, k=k).to_pandas()
           .sort_values("term").reset_index(drop=True))

    cnt = {}
    T = 0
    for t in texts:
        _, terms_l, tfs_l = tokenize_batch([t], SIMPLE_PROFILE)
        for term, tf in zip(terms_l[0].as_py(), tfs_l[0].as_py()):
            cnt[term] = cnt.get(term, 0) + tf
            T += tf
    want = (pd.DataFrame([(t, c) for t, c in cnt.items() if c * k > T],
                         columns=["term", "freq"])
            .sort_values("term").reset_index(drop=True))
    assert set(want["term"]) >= set(heavy)  # the plant worked
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_vocab_stats_matches_naive(ray_session, tmp_path):
    """Entropy/TTR/Zipf vs a direct computation over the same corpus
    (uniform corpus → entropy == log2(n_types), alpha formula pinned)."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.pipelines.text_stats import vocab_stats

    rng = np.random.RandomState(41)
    vocab = [f"w{i}" for i in range(50)]
    # Zipf-ish draw so the exponent is meaningful
    p = 1.0 / np.arange(1, 51)
    p /= p.sum()
    texts = [" ".join(rng.choice(vocab, rng.randint(1, 40), p=p))
             for _ in range(80)]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=13)
    got = vocab_stats(path)

    cnt = {}
    for t in texts:
        _, terms_l, tfs_l = tokenize_batch([t], SIMPLE_PROFILE)
        for term, tf in zip(terms_l[0].as_py(), tfs_l[0].as_py()):
            cnt[term] = cnt.get(term, 0) + tf
    c = np.array(list(cnt.values()), dtype=np.float64)
    T = c.sum()
    H = math.log2(T) - float((c * np.log2(c)).sum()) / T
    alpha = 1.0 + len(c) / float(np.log(c / 0.5).sum())
    assert got["n_types"].iloc[0] == len(c)
    assert got["n_tokens"].iloc[0] == int(T)
    assert abs(got["entropy_bits"].iloc[0] - H) < 2e-6
    assert abs(got["zipf_alpha"].iloc[0] - alpha) < 2e-6
    assert 1.0 < got["zipf_alpha"].iloc[0] < 4.0


def test_term_df_drift_invariants(ray_session, sf_dir):
    """The drift readout is internally consistent: the 'rev2' marker
    term (absent in v1, present in every changed doc in v2) must be the
    top riser; signs follow df movement; dfs are within corpus bounds."""
    import pandas as pd

    from searchenginepp_ray.pipelines.text_stats import term_df_drift

    got = term_df_drift(sf_dir, k=20)
    assert len(got) == 20
    top = got.iloc[0]
    assert top["term"] == "rev2" and top["df_old"] == 0
    n = len(pd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id"]))
    assert (got["df_old"] <= n).all() and (got["df_new"] <= n).all()
    up = got["df_new"] >= got["df_old"]
    assert ((got["drift"] >= 0) == up).all()
    # deterministic: a rerun returns the identical frame
    again = term_df_drift(sf_dir, k=20)
    assert got.equals(again)
