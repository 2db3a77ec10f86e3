"""Dedup-family operators: vectorized kernel parity with scalar
references, LSH/verify end-to-end exactness, and whole-or-nothing
publishing of the band-table cache."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from searchenginepp_ray.pipelines import dedup

SF = "/root/testdata/sf0.001"


def test_token_hash_batch_matches_str_split():
    texts = ["hello world foo", "  lead and trail  ", "", "   ", "one",
             "a b a b a", "tab\tand\nnewline", "x" * 300]
    _, counts = dedup._token_hash_batch(pa.array(texts))
    assert counts.tolist() == [len(t.split()) for t in texts]


def test_shingle_fold_is_order_sensitive():
    """Regression: a plain xor fold conflated 'a b a'/'b a a' (first pair
    commutes) and 'x x y'/'z z y' (repeats cancel)."""
    pairs = [("spark window spark", "window spark spark"),
             ("data data big", "group group big"),
             ("a b c", "c b a")]
    for t1, t2 in pairs:
        s1, _ = dedup._shingle_hash_batch(pa.array([t1]), 3)
        s2, _ = dedup._shingle_hash_batch(pa.array([t2]), 3)
        assert s1[0] != s2[0], (t1, t2)
    # and identical shingles still hash identically
    s1, _ = dedup._shingle_hash_batch(pa.array(["a b c"]), 3)
    s2, _ = dedup._shingle_hash_batch(pa.array(["a  b\tc"]), 3)
    assert s1[0] == s2[0]


def _fold_ref(toks: list[int]) -> int:
    """Scalar shingle fold in Python ints mod 2^64: acc = sm(t0), then
    acc = sm((acc * GOLDEN) ^ t) for each later token."""
    m = (1 << 64) - 1

    def sm(x):
        z = (x + 0x9E3779B97F4A7C15) & m
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
        return z ^ (z >> 31)

    acc = sm(toks[0])
    for t in toks[1:]:
        acc = sm(((acc * 0x9E3779B97F4A7C15) & m) ^ t)
    return acc


def test_shingle_counts_and_short_doc_padding():
    texts = ["a b c d", "a b", "", "one two three"]
    S, shc = dedup._shingle_hash_batch(pa.array(texts), 3)
    assert shc.tolist() == [2, 1, 1, 1]
    assert len(S) == 5
    # docs shorter than the shingle are padded with the empty-token hash
    eh = int(dedup._empty_hash())
    th = [[int(h) for h in dedup._token_hash_batch(pa.array([t]))[0]]
          for t in texts]
    want = [_fold_ref(th[0][:3]), _fold_ref(th[0][1:]),
            _fold_ref(th[1] + [eh]), _fold_ref([eh] * 3), _fold_ref(th[3])]
    assert S.tolist() == want


def test_shingle_hash_batch_property():
    """Hypothesis: for arbitrary texts, per-doc DISTINCT shingle-hash
    counts equal distinct string-shingle counts, and equal texts map to
    equal shingle multisets (order-sensitive, whitespace-insensitive)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    words = st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4),
                     min_size=0, max_size=30)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(words, min_size=1, max_size=8))
    def check(docs):
        texts = [" ".join(w) for w in docs]
        S, shc = dedup._shingle_hash_batch(pa.array(texts), 3)
        vals, dcounts = dedup._distinct_per_doc(S, shc)
        for i, toks in enumerate(docs):
            if len(toks) >= 3:
                strs = {" ".join(toks[j : j + 3]) for j in range(len(toks) - 2)}
                assert dcounts[i] == len(strs), (i, toks)
            else:
                assert dcounts[i] == 1  # single padded shingle
        # identical texts -> identical hash sets
        S2, shc2 = dedup._shingle_hash_batch(pa.array(texts), 3)
        assert (S == S2).all() and (shc == shc2).all()

    check()


def test_minhash_signature_invariants():
    # identical texts → identical signatures
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["the same doc text here"] * 2)})
    sig_mat, _, _ = dedup._sig_matrix(t["text"], 64, 3, dedup._salts(64))
    assert (sig_mat[:, 0] == sig_mat[:, 1]).all()


def _scalar_jaccard(a: str, b: str, k: int = 3) -> tuple[int, int]:
    def sh(text):
        toks = text.split()
        if len(toks) < k:
            return {" ".join(toks + [""] * (k - len(toks)))}
        return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}

    A, B = sh(a), sh(b)
    return len(A & B), len(A | B)


def test_ngram_jaccard_matches_scalar_oracle(ray_session):
    got = dedup.ngram_jaccard_dedup(SF).to_pandas()
    assert len(got) > 0
    texts = dict(
        zip(*(pq.read_table(f"{SF}/documents.parquet",
                            columns=["doc_id", "text"]).to_pydict().values()))
    )
    for _, r in got.iterrows():
        i, u = _scalar_jaccard(texts[r["doc_a"]], texts[r["doc_b"]])
        assert (i, u) == (r["n_common"], r["n_union"]), (r["doc_a"], r["doc_b"])
        assert 5 * i >= 4 * u
    # no duplicate pairs, canonical order
    assert (got["doc_a"] < got["doc_b"]).all()
    assert not got.duplicated(["doc_a", "doc_b"]).any()


def test_minhash_pairs_find_planted_near_dups(ray_session):
    pairs = dedup.minhash_dedup_pairs(SF).to_pandas()
    assert len(pairs) > 0
    assert (pairs["jaccard"] >= 0.8).all()
    assert not pairs.duplicated(["doc_a", "doc_b"]).any()


def test_simhash_near_dups_have_small_hamming(ray_session):
    pairs = dedup.minhash_dedup_pairs(SF).to_pandas()
    sh = dedup.simhash(SF).to_pandas().set_index("doc_id")["simhash"]
    rng = np.random.default_rng(0)
    dup_d = [
        bin(int(sh[a]) ^ int(sh[b])).count("1")
        for a, b in zip(pairs["doc_a"], pairs["doc_b"])
    ]
    ids = sh.index.to_numpy()
    rand_d = []
    for _ in range(200):
        a, b = rng.choice(ids, 2, replace=False)
        rand_d.append(bin(int(sh[a]) ^ int(sh[b])).count("1"))
    assert np.mean(dup_d) < np.mean(rand_d) / 2


def test_simhash_near_dup_pairs_lossless_blocking(ray_session):
    """The Hamming-band blocking must find EXACTLY the pairs a brute
    force O(N²) popcount scan finds at the same threshold (pigeonhole:
    hamming <= 3 forces agreement on one of 4 bands)."""
    got = dedup.simhash_near_dup_pairs(SF, max_hamming=3).to_pandas()
    sh = dedup.simhash(SF).to_pandas()
    ids = sh["doc_id"].to_numpy()
    vals = sh["simhash"].to_numpy().astype(np.uint64)
    want = []
    for i in range(len(ids)):
        x = vals[i] ^ vals[i + 1 :]
        h = np.array([bin(int(v)).count("1") for v in x])
        for j in np.flatnonzero(h <= 3):
            a, b = int(ids[i]), int(ids[i + 1 + j])
            want.append((min(a, b), max(a, b), int(h[j])))
    have = sorted(zip(got["doc_a"], got["doc_b"], got["hamming"]))
    assert [tuple(map(int, r)) for r in have] == sorted(want)
    assert len(want) > 0  # planted dups exist


def test_exact_dedup_groups(ray_session):
    df = dedup.exact_dedup(SF).to_pandas()
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    md5s = {}
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        md5s.setdefault(hashlib.md5(x.encode()).hexdigest(), []).append(d)
    assert len(df) == len(md5s)
    got = {r["text_md5"]: (r["keep_doc_id"], r["n_dups"]) for _, r in df.iterrows()}
    for h, docs in md5s.items():
        assert got[h] == (min(docs), len(docs))


def test_connected_components_multi_component(ray_session):
    """In-task union-find over a constructed graph: a 4-node chain,
    a triangle, an isolated pair — labels must equal the component
    minimum for every node."""
    import ray.data

    from searchenginepp_ray.pipelines.graph import connected_components

    edges = [(10, 20), (20, 30), (30, 40),   # chain 10-20-30-40
             (1, 2), (2, 3), (1, 3),          # triangle
             (100, 200)]                      # pair
    pairs = ray.data.from_items(
        [{"doc_a": a, "doc_b": b} for a, b in edges]
    )
    comp = {r["node"]: r["component"]
            for r in connected_components(pairs).take_all()}
    assert comp == {10: 10, 20: 10, 30: 10, 40: 10,
                    1: 1, 2: 1, 3: 1, 100: 100, 200: 100}


def test_connected_components_distributed_path(ray_session):
    """Force the propagation-round regime (inmem_threshold=0) on a
    diameter-8 path plus a triangle: multiple rounds + pointer jumping
    must converge to the same labels as the in-task kernel."""
    import ray.data

    from searchenginepp_ray.pipelines.graph import connected_components

    edges = [(i, i + 1) for i in range(8)] + [(50, 60), (60, 70), (50, 70)]
    pairs = ray.data.from_items(
        [{"doc_a": a, "doc_b": b} for a, b in edges]
    )
    comp = {r["node"]: r["component"]
            for r in connected_components(
                pairs, inmem_threshold=0).take_all()}
    want = {i: 0 for i in range(9)} | {50: 50, 60: 50, 70: 50}
    assert comp == want


def test_cc_kernel_random_graph_matches_union_find():
    """Fuzz the vectorized pointer-doubling kernel against a scalar
    union-find on a random sparse graph."""
    from searchenginepp_ray.pipelines.graph import _cc_kernel

    rng = np.random.default_rng(7)
    a = rng.integers(0, 300, 400)
    b = rng.integers(0, 300, 400)
    nodes, comp = _cc_kernel(a, b)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            lo, hi = sorted((rx, ry))
            parent[hi] = lo
    want = {}
    for x in set(a.tolist()) | set(b.tolist()):
        want.setdefault(find(x), set()).add(x)
    want_map = {x: min(mem) for mem in want.values() for x in mem}
    assert dict(zip(nodes.tolist(), comp.tolist())) == want_map


def test_dup_components_matches_recursive_cte_oracle(ray_session, sf_dir):
    """The distributed label-propagation CC (inmem fallback disabled)
    over the exact-Jaccard pair graph equals DuckDB's recursive-CTE
    reachability closure."""
    import duckdb

    from searchenginepp_ray.pipelines.dedup import dup_components
    from searchenginepp_ray.pipelines.oracle_sql import dup_components_sql

    got = (
        dup_components(sf_dir).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'"
    )
    want = (
        con.sql(dup_components_sql()).df()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(got) > 0 and got["component"].nunique() > 1
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_dup_components_best_keeps_longest(ray_session):
    """Canonicalization invariants at sf0.01: one keeper per component,
    the keeper belongs to the component, and no other member of the
    component has more tokens (or equal tokens with a lower id)."""
    from searchenginepp_ray.pipelines.dedup import (
        dup_components, dup_components_best)
    from searchenginepp_ray.pipelines.text_stats import token_count

    sf = "/root/testdata/sf0.01"
    best = dup_components_best(sf).to_pandas()
    comp = dup_components(sf).to_pandas()
    counts = token_count(sf).to_pandas().set_index("doc_id")["n_tokens"]
    assert best["component"].is_unique
    members = comp.groupby("component")["doc_id"].apply(set)
    for _, row in best.iterrows():
        m = members[row["component"]]
        assert row["keep_doc_id"] in m
        assert row["n_members"] == len(m)
        for d in m:
            n_d = counts.get(d, 0)
            assert (n_d, -d) <= (row["n_tokens"], -row["keep_doc_id"]), (
                row["component"], d)


def _naive_span_dedup(texts, width):
    """Sequential keep-first span dedup reference."""
    import math

    seen = set()
    out = []
    for doc_id, t in enumerate(texts):
        ws = t.split(" ")
        n_spans = math.ceil(len(ws) / width)
        kept = []
        for i in range(n_spans):
            line = " ".join(ws[i * width:(i + 1) * width])
            if line == "" or line not in seen:
                kept.append(line)
            if line != "":
                seen.add(line)
        clean = " ".join(kept)
        out.append((doc_id, n_spans, len(kept),
                    hashlib.md5(clean.encode()).hexdigest()))
    return pd.DataFrame(out, columns=["doc_id", "n_spans", "n_kept",
                                      "clean_md5"])


def test_span_dedup_constructed(ray_session, tmp_path):
    """Planted duplicates: cross-doc, within-doc, remainder spans,
    empty docs — vs the sequential keep-first reference."""
    from searchenginepp_ray.pipelines.dedup import span_dedup

    texts = [
        "a b c d e f",            # spans: "a b c", "d e f"
        "a b c x y z",            # "a b c" dup -> dropped
        "d e f d e f a b c",      # within-doc dup + cross-doc dups
        "",                       # empty doc: one empty span, kept
        "q r",                    # remainder-only span
        "q r",                    # whole doc duplicated
        "x y z q r",              # both spans seen before
    ]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path)
    got = (span_dedup(path, width=3).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = _naive_span_dedup(texts, 3)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_span_dedup_matches_naive_random(ray_session, tmp_path):
    """Word-salad fuzz vs the sequential reference (order matters:
    keep-first is defined over the global (doc_id, pos) order)."""
    from searchenginepp_ray.pipelines.dedup import span_dedup

    rng = np.random.RandomState(3)
    vocab = ["a", "b", "c", "d"]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 18)))
             for _ in range(60)]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=7)
    got = (span_dedup(path, width=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = _naive_span_dedup(texts, 2)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _naive_boilerplate(texts, width, min_count):
    """Sequential boilerplate-span reference: ALL instances of any span
    occurring >= min_count times corpus-wide are removed."""
    import math
    from collections import Counter

    counts = Counter()
    grids = []
    for t in texts:
        ws = t.split(" ")
        n_spans = math.ceil(len(ws) / width) or 1
        lines = [" ".join(ws[i * width:(i + 1) * width])
                 for i in range(n_spans)] or [""]
        grids.append(lines)
        counts.update(l for l in lines if l != "")
    out = []
    for doc_id, lines in enumerate(grids):
        kept = [l for l in lines if l == "" or counts[l] < min_count]
        clean = " ".join(kept)
        out.append((doc_id, len(lines), len(kept),
                    hashlib.md5(clean.encode()).hexdigest()))
    return pd.DataFrame(out, columns=["doc_id", "n_spans", "n_kept",
                                      "clean_md5"])


def test_boilerplate_spans_constructed(ray_session, tmp_path):
    """Planted boilerplate: a span repeated across 3 docs is removed
    from ALL of them (including the first occurrence — the semantic
    difference from span_dedup's keep-first), singletons survive."""
    from searchenginepp_ray.pipelines.dedup import boilerplate_spans

    texts = [
        "a b c d e f",            # "a b c" boilerplate, "d e f" x2
        "a b c x y z",            # "a b c" again
        "p q r a b c",            # and again
        "d e f",                  # second instance of "d e f"
        "",                       # empty doc: kept
        "u v",                    # singleton remainder span: kept
    ]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path)
    got = (boilerplate_spans(path, width=3, min_count=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = _naive_boilerplate(texts, 3, 2)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the first instance is gone too: doc 0 keeps only "d e f"... no —
    # "d e f" occurs twice as a span, so doc 0 keeps nothing
    assert got.loc[0, "n_kept"] == 0


def test_boilerplate_spans_matches_naive_random(ray_session, tmp_path):
    """Word-salad fuzz vs the sequential reference across thresholds."""
    from searchenginepp_ray.pipelines.dedup import boilerplate_spans

    rng = np.random.RandomState(11)
    vocab = ["a", "b", "c", "d"]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 18)))
             for _ in range(60)]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=7)
    for n in (2, 4):
        got = (boilerplate_spans(path, width=2, min_count=n).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        want = _naive_boilerplate(texts, 2, n)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dedup_incremental_anti_join(ray_session, tmp_path):
    """Constructed slices: incoming docs duplicating a baseline doc are
    dropped; duplicates WITHIN the incoming slice both survive (only
    the baseline is the dedup reference)."""
    from searchenginepp_ray.pipelines.dedup import dedup_incremental

    texts = [
        "baseline one",    # 0 baseline
        "dup of baseline", # 1 incoming — unique vs baseline
        "baseline two",    # 2 baseline
        "baseline one",    # 3 incoming — dup of doc 0 -> dropped
        "baseline three",  # 4 baseline
        "incoming twin",   # 5 incoming — twin within incoming, kept
        "unused",          # 6 baseline
        "incoming twin",   # 7 incoming — twin within incoming, kept
    ]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), path, row_group_size=3)
    got = (dedup_incremental(path, mod=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [1, 5, 7]
    import hashlib
    assert got["text_md5"].tolist() == [
        hashlib.md5(texts[i].encode()).hexdigest() for i in (1, 5, 7)]


def test_simhash_md5_matches_naive_and_separates(ray_session, tmp_path):
    """The md5-twin fingerprints equal a scalar per-doc reference, and
    behave like SimHash: near-identical docs land within a few bits,
    unrelated docs far apart."""
    import re

    texts = [
        "the quick brown fox jumps over the lazy dog near the river bank",
        "the quick brown fox jumps over the lazy dog near the river shore",
        "completely different subject matter about database query engines",
        "",
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts),
                  "lang": pa.array(["en"] * len(texts)),
                  "source": pa.array(["t"] * len(texts)),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        str(tmp_path / "documents.parquet"))
    got = (dedup.simhash_md5(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [0, 1, 2]  # empty doc emits no row

    def ref_fp(text):
        votes = np.zeros(64, dtype=np.int64)
        for w in re.split("[^a-z0-9]+", text.lower()):
            if not w:
                continue
            hx = hashlib.md5(w.encode()).hexdigest()
            h = (int(hx[:8], 16) << 32) | int(hx[8:16], 16)
            for j in range(64):
                votes[j] += 1 if (h >> j) & 1 else -1
        bits = votes > 0
        lo = sum(int(bits[j]) << j for j in range(32))
        hi = sum(int(bits[32 + j]) << j for j in range(32))
        return hi, lo

    fps = []
    for i in range(3):
        hi, lo = ref_fp(texts[i])
        assert (got.loc[i, "fp_hi"], got.loc[i, "fp_lo"]) == (hi, lo)
        fps.append((hi << 32) | lo)
    ham = lambda a, b: bin(a ^ b).count("1")
    assert ham(fps[0], fps[1]) <= 8       # one-word edit: few bits flip
    assert ham(fps[0], fps[2]) > 16       # unrelated: far apart


def test_corpus_diff_statuses(ray_session):
    got = dedup.corpus_diff(SF).to_pandas()
    n = len(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"]))
    assert len(got) == n  # union of both versions covers every id here
    by = got.set_index("doc_id")["status"]
    for i in range(n):
        if i % 13 == 3:
            want = "added"
        elif i % 13 == 7:
            want = "removed"
        elif i % 11 == 4:
            want = "changed"
        else:
            want = "unchanged"
        assert by[i] == want, (i, by[i], want)


def test_containment_catches_subset_jaccard_misses(ray_session, tmp_path):
    """A short doc fully embedded in a 10x larger one: containment 1.0
    (flagged) while Jaccard is far below the usual 0.8 near-dup bar —
    the asymmetric signal this operator exists for."""
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.dedup import containment_pairs

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(3000)]
    small = " ".join(rng.choice(words, 40))
    big = small + " " + " ".join(rng.choice(words, 400))
    noise = [" ".join(rng.choice(words, 60)) for _ in range(48)]
    docs = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "text": [small, big] + noise,
    })
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.Table.from_pandas(docs), path, row_group_size=16)
    got = containment_pairs(path, thr_num=4, thr_den=5).to_pandas()
    hit = got[(got["doc_a"] == 0) & (got["doc_b"] == 1)]
    assert len(hit) == 1
    r = hit.iloc[0]
    # full containment of the small doc's shingles
    assert r["n_common"] == r["n_a"]
    # ...while Jaccard would have been far below 0.8
    jac = r["n_common"] / (r["n_a"] + r["n_b"] - r["n_common"])
    assert jac < 0.2


def _inc_docs(tmp_path, texts):
    """Write a minimal documents.parquet (doc_id 0..n-1) for the
    incremental tests; returns the directory documents_ds expects."""
    d = str(tmp_path)
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        f"{d}/documents.parquet",
    )
    return d


def test_dedup_incremental_minhash_planted(ray_session, tmp_path):
    """Planted near-dups: shipment docs (odd ids) survive iff no
    BASELINE doc (even ids) reaches Jaccard >= 4/5 — an exact copy and
    a near-copy of baseline docs are dropped, a fresh doc and a
    near-dup of another SHIPMENT doc are kept (shipment-internal dups
    are not this filter's job). Verified against the scalar Jaccard
    oracle doc-by-doc."""
    base_a = "the quick brown fox jumps over the lazy dog " * 6
    # NON-repetitive long text: repeated text collapses the distinct
    # shingle set, making a one-word edit a >20% jaccard change — a
    # varied 40-token doc keeps the near-dup above the 0.8 threshold
    base_b = ("pack my box with five dozen liquor jugs while the harbor "
              "master logs every crate onto the evening manifest before "
              "the tide turns and the last ferry departs the northern "
              "quay carrying mail sacks and fresh produce to town")
    texts = [
        base_a,                                   # 0 baseline
        base_a,                                   # 1 new: exact copy -> drop
        base_b,                                   # 2 baseline
        base_b.replace("tide", "storm", 1),       # 3 new: near-dup -> drop
        "completely different content about rust compilers and arrow",  # 4 baseline
        "unrelated fresh shipment document about distributed tracing "
        "pipelines and span sampling strategies in production systems",  # 5 new: keep
        "zebra quartz vivid jackdaws my sphinx of black onyx loves",     # 6 baseline
        "unrelated fresh shipment document about distributed tracing "
        "pipelines and span sampling strategies in prod systems",        # 7 new: near-dup of 5 only -> keep
    ]
    d = _inc_docs(tmp_path, texts)
    kept = sorted(
        dedup.dedup_incremental_minhash(d).to_pandas()["doc_id"].tolist())
    # scalar oracle
    want = []
    for i in range(1, len(texts), 2):
        dup = False
        for j in range(0, len(texts), 2):
            c, u = _scalar_jaccard(texts[i], texts[j])
            if 5 * c >= 4 * u:
                dup = True
        if not dup:
            want.append(i)
    assert kept == want == [5, 7]


def test_minhash_band_table_appendable_across_shipments(ray_session,
                                                       tmp_path):
    """The persisted band table is reusable shipment-over-shipment: docs
    accepted from shipment 1 are APPENDED copy-on-write (base part
    files hardlinked, new parts in the same bucket dirs) and shipment
    2's probe against the appended table rejects near-dups of them —
    without re-hashing the baseline; the pristine shared-cache dir
    stays byte-untouched for default-path callers, and geometry
    mismatches refuse loudly."""
    import os

    import pytest

    base = "the quick brown fox jumps over the lazy dog again " * 6
    ship1 = "some genuinely novel first shipment text about minhash " \
            "band tables persisted across ingestion shipments " * 3
    (tmp_path / "c1").mkdir()
    (tmp_path / "c2").mkdir()
    d1 = _inc_docs(tmp_path / "c1", [base, ship1])
    idx = dedup.minhash_band_index_build(d1)
    assert dedup.minhash_band_index_build(d1) == idx  # cached, idempotent
    kept1 = dedup.dedup_incremental_minhash(
        d1, index_dir=idx).to_pandas()["doc_id"].tolist()
    assert kept1 == [1]

    def snap(root):
        return sorted((os.path.relpath(os.path.join(dp, f), root),
                       os.path.getsize(os.path.join(dp, f)))
                      for dp, _, fs in os.walk(root) for f in fs)

    before = snap(f"{idx}/data")
    idx2 = dedup.minhash_band_append(idx, d1, kept1)
    assert idx2 != idx and snap(f"{idx}/data") == before  # base pristine
    assert len(snap(f"{idx2}/data")) > len(before)        # parts appended

    # geometry mismatch refuses instead of silently matching nothing
    with pytest.raises(ValueError, match="differ"):
        dedup.dedup_incremental_minhash(d1, index_dir=idx2, num_perm=64)
    with pytest.raises(ValueError, match="differ"):
        dedup.minhash_band_append(idx, d1, kept1, num_perm=64)

    # shipment 2 against the APPENDED table: a near-dup of the appended
    # doc is dropped, a fresh doc survives
    d2 = _inc_docs(tmp_path / "c2", [
        base,                                   # even: ignored as shipment
        ship1.replace("novel", "brand-new", 1),  # near-dup of appended -> drop
        base,                                   # even
        "an entirely fresh second shipment document about bucket "
        "pruned probes and exact jaccard verification of candidates",  # keep
    ])
    kept2 = sorted(dedup.dedup_incremental_minhash(
        d2, index_dir=idx2).to_pandas()["doc_id"].tolist())
    assert kept2 == [3]


def test_dedup_incremental_minhash_degenerate_slices(ray_session, tmp_path):
    """Empty shipment (all doc_ids in the baseline slice) returns zero
    rows; empty baseline (no doc_id % mod == 0) keeps every shipment
    doc — the probe tolerates a band table with no bucket files."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 2, 4], pa.int64()),
                  "text": ["aaa bbb ccc ddd", "eee fff ggg hhh",
                           "iii jjj kkk lll"]}),
        str(tmp_path / "a" / "documents.parquet"))
    assert len(dedup.dedup_incremental_minhash(
        str(tmp_path / "a")).to_pandas()) == 0
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 3], pa.int64()),
                  "text": ["mmm nnn ooo ppp", "qqq rrr sss ttt"]}),
        str(tmp_path / "b" / "documents.parquet"))
    got = dedup.dedup_incremental_minhash(str(tmp_path / "b")).to_pandas()
    assert sorted(got["doc_id"].tolist()) == [1, 3]


def test_caches_publish_whole(ray_session, tmp_path, monkeypatch):
    """The band-table cache appears whole or not at all: while the
    builder writes the data, the final cache path does not exist, and
    none of its work directories is left beside the result. A builder
    that loses the race keeps the winner's copy."""
    import os

    listed = []

    class Spy:
        """A dataset that lists the cache root when it is written."""

        def __init__(self, ds, root):
            self._ds, self._root = ds, root

        def __getattr__(self, name):
            return getattr(self._ds, name)

        def map_batches(self, *a, **k):
            return Spy(self._ds.map_batches(*a, **k), self._root)

        def write_parquet(self, *a, **k):
            listed.append(sorted(os.listdir(self._root)))
            return self._ds.write_parquet(*a, **k)

    root = str(tmp_path / "_BAND_CACHE")
    monkeypatch.setattr(dedup, "_BAND_CACHE", root)
    ds_fn = dedup.documents_ds
    monkeypatch.setattr(dedup, "documents_ds", lambda sf: Spy(ds_fn(sf), root))
    out = dedup.minhash_band_index_build(SF)
    assert os.path.dirname(out) == root
    assert listed and all(os.path.basename(out) not in ls for ls in listed)
    assert os.listdir(root) == [os.path.basename(out)]
    assert os.path.exists(os.path.join(out, "_done.json"))

    final = str(tmp_path / "race" / "key")

    def mark(d, who):
        with open(os.path.join(d, "_done.json"), "w") as f:
            f.write(who)

    def loser(tmp):
        dedup._publish_dir(final, lambda d: mark(d, "winner"))
        mark(tmp, "loser")

    assert dedup._publish_dir(final, loser) == final
    assert open(os.path.join(final, "_done.json")).read() == "winner"
    assert os.listdir(os.path.dirname(final)) == ["key"]
