"""Positional sidecar: position-carrying tokenizer vs the scalar
reference, encode/decode roundtrip through a built index, indexed
phrase retrieval vs a scalar scan, and the lifecycle (merge, physical
compaction, tombstones) carrying positions correctly."""

import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import BuildConfig, FULL_PROFILE, SIMPLE_PROFILE
from searchenginepp_ray.index.build import build_index
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.normalizer.batch import (
    tokenize_batch,
    tokenize_batch_positions,
)
from searchenginepp_ray.normalizer.word_normalizer import normalize_tokens

from .corpus import write_corpus

ADVERSARIAL = [
    "the quick brown fox the quick",
    "",
    "   multiple   spaces   here ",
    "AntonÃ­n DvoÅ™Ã¡k wrote symphonies AntonÃ­n",
    "a a a b b c",
    "«punct» — ¿marks? hash sort",
    "LATIN ÀÉÎ case Test",
    "x" * 300 + " tail",  # >240-byte token (dropped under FULL)
]


@pytest.mark.parametrize("profile", [SIMPLE_PROFILE, FULL_PROFILE],
                         ids=["simple", "full"])
def test_tokenize_positions_matches_scalar(profile):
    dl0, tl0, tf0 = tokenize_batch(ADVERSARIAL, profile)
    dl1, tl1, tf1, pl1 = tokenize_batch_positions(ADVERSARIAL, profile)
    assert (dl0 == dl1).all()
    assert tl0.to_pylist() == tl1.to_pylist()
    assert tf0.to_pylist() == tf1.to_pylist()
    for i, text in enumerate(ADVERSARIAL):
        toks = normalize_tokens(text, profile)
        want: dict[str, list[int]] = {}
        for p, t in enumerate(toks):
            want.setdefault(t, []).append(p)
        terms, tfs, poss = tl1[i].as_py(), tf1[i].as_py(), pl1[i].as_py()
        assert len(poss) == int(dl1[i]) == len(toks)
        off = 0
        for t, f in zip(terms, tfs):
            assert poss[off:off + f] == want[t], (i, t)
            off += f


@pytest.fixture(scope="module")
def pos_built(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("positions")
    corpus = str(tmp / "corpus.parquet")
    write_corpus(corpus, 500, seed=7, rows_per_group=64)
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=150,
                      positions=True)
    idx = str(tmp / "idx")
    summary = build_index(corpus, idx, cfg)
    return corpus, idx, cfg, summary


def _scan_phrase(corpus: str, phrase: str) -> list[tuple[str, int]]:
    t = pq.read_table(corpus)
    docnos = [f"{r}:{p}@{c}" for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]
    ptoks = normalize_tokens(phrase, SIMPLE_PROFILE)
    w = len(ptoks)
    out = []
    for d, text in zip(docnos, t["content"].to_pylist()):
        toks = normalize_tokens(text, SIMPLE_PROFILE)
        n = sum(1 for i in range(len(toks) - w + 1) if toks[i:i + w] == ptoks)
        if n:
            out.append((d, n))
    return sorted(out)


PHRASES = ["return if", "hash sort merge", "int int", "no such phrase",
           "static const int"]


def test_positions_roundtrip(pos_built):
    """Decoded segment positions equal the scalar per-(doc, term)
    positions for every posting of every segment."""
    from searchenginepp_ray.index.build import (read_segment_positions,
                                                read_segment_postings)

    corpus, idx, _, _ = pos_built
    t = pq.read_table(corpus)
    texts = t["content"].to_pylist()
    want = {}
    for i, text in enumerate(texts):
        for p, term in enumerate(normalize_tokens(text, SIMPLE_PROFILE)):
            want.setdefault((i + 1, term), []).append(p)
    checked = 0
    for seg in sorted(d for d in os.listdir(idx) if d.startswith("db_")):
        sd = os.path.join(idx, seg)
        parts = read_segment_postings(sd)
        pos = read_segment_positions(sd, parts["tfs"])
        pi = vi = 0
        for ti, term in enumerate(parts["terms"].to_pylist()):
            for _ in range(parts["df"][ti]):
                d_, f_ = int(parts["docids"][pi]), int(parts["tfs"][pi])
                assert pos[vi:vi + f_].tolist() == want[(d_, term)]
                pi += 1
                vi += f_
        checked += pi
    assert checked > 10_000


def test_indexed_phrase_equals_scan(pos_built):
    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    got = eng.phrase_search_batch(PHRASES)
    n_hits = 0
    for p, g in zip(PHRASES, got):
        assert g == _scan_phrase(corpus, p), p
        n_hits += len(g)
    assert n_hits > 0


def test_positional_merge_preserves_phrases(pos_built, tmp_path_factory):
    """merge_segments over a positional index re-merges the position
    streams; phrase results are identical through the merged index."""
    from searchenginepp_ray.index.build import merge_segments

    corpus, idx, cfg, _ = pos_built
    tmp = tmp_path_factory.mktemp("pos_merge")
    merged = str(tmp / "merged")
    merge_segments(idx, merged, group_size=2)
    assert os.path.exists(os.path.join(merged, "db_0", "positions.parquet"))
    e1 = QueryEngine(idx, use_actors=False, cfg=cfg)
    e2 = QueryEngine(merged, use_actors=False, cfg=cfg)
    for p, a, b in zip(PHRASES, e1.phrase_search_batch(PHRASES),
                       e2.phrase_search_batch(PHRASES)):
        assert a == b, p


def test_positional_compact_equals_fresh_build(pos_built, tmp_path_factory):
    """compact_index carries the positional sidecar: after deletes, the
    compacted index is byte-identical to a fresh positional build over
    the alive corpus, and phrase hits drop exactly the deleted docs."""
    import filecmp

    import pyarrow as pa

    from searchenginepp_ray.index.build import compact_index
    from searchenginepp_ray.index.tombstone import delete_docs

    corpus, idx, cfg, _ = pos_built
    tmp = tmp_path_factory.mktemp("pos_compact")
    src = str(tmp / "src")
    shutil.copytree(idx, src)

    t = pq.read_table(corpus)
    docnos = [f"{r}:{p}@{c}" for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]
    dead = set(docnos[::5])
    delete_docs(src, sorted(dead))

    out = str(tmp / "compacted")
    compact_index(src, out)

    alive_path = str(tmp / "alive.parquet")
    pq.write_table(t.filter(pa.array([d not in dead for d in docnos])),
                   alive_path, row_group_size=64)
    fresh = str(tmp / "fresh")
    build_index(alive_path, fresh, cfg)

    segs = sorted(d for d in os.listdir(fresh) if d.startswith("db_"))
    assert segs == sorted(d for d in os.listdir(out) if d.startswith("db_"))
    for d in segs:
        for f in ("terms.parquet", "positions.parquet"):
            assert filecmp.cmp(os.path.join(fresh, d, f),
                               os.path.join(out, d, f), shallow=False), (d, f)

    ec = QueryEngine(out, use_actors=False, cfg=cfg)
    ef = QueryEngine(fresh, use_actors=False, cfg=cfg)
    for p, a, b in zip(PHRASES, ec.phrase_search_batch(PHRASES),
                       ef.phrase_search_batch(PHRASES)):
        assert a == b, p
        assert not ({d for d, _ in a} & dead), p


def test_phrase_honors_tombstones(pos_built, tmp_path_factory):
    corpus, idx, cfg, _ = pos_built
    tmp = tmp_path_factory.mktemp("pos_tomb")
    src = str(tmp / "src")
    shutil.copytree(idx, src)
    from searchenginepp_ray.index.tombstone import delete_docs

    base = QueryEngine(src, use_actors=False, cfg=cfg)
    hits = base.phrase_search_batch(["return if"])[0]
    assert hits
    dead = hits[0][0]
    delete_docs(src, [dead])
    eng = QueryEngine(src, use_actors=False, cfg=cfg)
    after = eng.phrase_search_batch(["return if"])[0]
    assert dead not in [d for d, _ in after]
    assert after == [h for h in hits if h[0] != dead]


def test_plain_engine_rejects_phrase(pos_built, tmp_path_factory):
    """A positionless index answers phrase queries with a clear error,
    not silently wrong results."""
    corpus, _, _, _ = pos_built
    tmp = tmp_path_factory.mktemp("plain")
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=150)
    idx = str(tmp / "idx")
    build_index(corpus, idx, cfg)
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    with pytest.raises(ValueError, match="positional sidecar"):
        eng.phrase_search_batch(["return if"])


def test_near_matches_scalar(pos_built):
    """NEAR (min occurrence distance within a window) equals a scalar
    all-pairs scan, including window boundary and vocabulary misses."""
    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    t = pq.read_table(corpus)
    docnos = [f"{r}:{p}@{c}" for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]
    queries = [("return", "if", 2), ("hash", "sort", 5),
               ("int", "const", 1), ("nosuchword", "if", 9)]
    got = eng.near_search_batch(queries)
    n_hits = 0
    for (a, b, w), g in zip(queries, got):
        want = []
        for d, text in zip(docnos, t["content"].to_pylist()):
            toks = normalize_tokens(text, SIMPLE_PROFILE)
            pa_ = [i for i, x in enumerate(toks) if x == a]
            pb_ = [i for i, x in enumerate(toks) if x == b]
            if pa_ and pb_:
                m = min(abs(i - j) for i in pa_ for j in pb_)
                if m <= w:
                    want.append((d, m))
        assert g == sorted(want), (a, b, w)
        n_hits += len(g)
    assert n_hits > 0


def test_phrase_empty_and_near_multitoken(pos_built):
    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    # a phrase that normalizes to zero tokens matches nothing, no crash
    assert eng.phrase_search_batch(["", "  «» — ", "return if"])[:2] \
        == [[], []]
    # multi-token NEAR operands are rejected loudly, not silently
    # answered as a different query
    with pytest.raises(ValueError, match="single tokens"):
        eng.near_search_batch([("return if", "const", 3)])


def test_positional_merge_with_empty_segment(ray_session, tmp_path_factory,
                                             chunk_budget):
    """A docid range that tokenizes entirely empty still merges: the
    empty segment carries an empty positional sidecar."""
    import pyarrow as pa

    from searchenginepp_ray.index.build import merge_segments

    tmp = tmp_path_factory.mktemp("pos_empty")
    n = 240
    texts = ["return if else value" for _ in range(n)]
    # docids 81..160 (segment 1 of docs_per_segment=80) all punctuation
    for i in range(80, 160):
        texts[i] = "!!! ??? ..."
    tbl = pa.table({
        "repo": [f"r{i:04d}" for i in range(n)],
        "path": [f"p{i}.py" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["py"] * n,
        "content": texts,
    })
    corpus = str(tmp / "c.parquet")
    pq.write_table(tbl, corpus, row_group_size=32)
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=80,
                      positions=True)
    idx = str(tmp / "idx")
    build_index(corpus, idx, cfg)
    merged = str(tmp / "merged")
    # tiny chunk budget: exercises the term-range chunked writer on the
    # positional sidecar too (many chunks per merged segment)
    chunk_budget(40)
    merge_segments(idx, merged, group_size=3)
    e1 = QueryEngine(idx, use_actors=False, cfg=cfg)
    e2 = QueryEngine(merged, use_actors=False, cfg=cfg)
    assert e1.phrase_search_batch(["return if"]) \
        == e2.phrase_search_batch(["return if"])
    assert len(e2.phrase_search_batch(["return if"])[0]) == 160


def test_compact_rerun_wipes_stale_segments(pos_built, tmp_path_factory):
    """Re-reclaiming into the same out_dir after MORE deletes must not
    leave stale db_N dirs serving resurrected docs."""
    from searchenginepp_ray.index.build import compact_index
    from searchenginepp_ray.index.tombstone import delete_docs

    corpus, idx, cfg, _ = pos_built
    tmp = tmp_path_factory.mktemp("re_reclaim")
    src = str(tmp / "src")
    shutil.copytree(idx, src)
    t = pq.read_table(corpus)
    docnos = [f"{r}:{p}@{c}" for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]

    out = str(tmp / "out")
    delete_docs(src, docnos[:10])
    s1 = compact_index(src, out)
    # delete MOST docs -> far fewer segments on the second reclaim
    delete_docs(src, docnos[: len(docnos) - 60])
    s2 = compact_index(src, out)
    assert s2["n_docs"] == 60
    segs = [d for d in os.listdir(out) if d.startswith("db_")]
    assert len(segs) == s2["n_segments"] < s1["n_segments"]
    eng = QueryEngine(out, use_actors=False, cfg=cfg)
    hits = eng.phrase_search_batch(["return if"])[0]
    assert all(d in set(docnos[len(docnos) - 60:]) for d, _ in hits)


def test_fsck_catches_positional_corruption(pos_built, tmp_path_factory):
    from searchenginepp_ray.index.fsck import fsck_index

    corpus, idx, cfg, _ = pos_built
    rep = fsck_index(idx, deep=False)
    assert rep["ok"], rep["errors"]

    tmp = tmp_path_factory.mktemp("pos_fsck")
    bad = str(tmp / "bad")
    shutil.copytree(idx, bad)
    os.remove(os.path.join(bad, "db_0", "positions.parquet"))
    rep = fsck_index(bad)
    assert not rep["ok"]
    assert any("positions.parquet missing" in e for e in rep["errors"])

    bad2 = str(tmp / "bad2")
    shutil.copytree(idx, bad2)
    p = os.path.join(bad2, "db_1", "positions.parquet")
    t = pq.read_table(p)
    # truncate one term's position stream (drop its last byte)
    vals = t["pos_bytes"].to_pylist()
    vals[0] = vals[0][:-1] if len(vals[0]) else vals[0]
    import pyarrow as pa

    pq.write_table(pa.table({"term": t["term"],
                             "pos_bytes": pa.array(vals, pa.large_binary())}),
                   p)
    rep = fsck_index(bad2)
    assert not rep["ok"], "truncated position stream must fail fsck"


def test_wildcard_expansion_and_scoring(pos_built):
    """Prefix expansion equals the vocabulary's prefix matches, and the
    wildcard query scores exactly as the explicit OR over them; cap and
    empty-prefix misuse raise."""
    from searchenginepp_ray.pipelines.search_docs import expand_prefix

    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    vocab = sorted({t for s in (ss for w in eng.workers
                                for ss in w.searchers) for t in s.terms})
    got = expand_prefix(idx, "s")
    want = [t for t in vocab if t.startswith("s")]
    assert got == want and len(got) >= 2
    assert expand_prefix(idx, "zz") == []

    a = eng.search_batch([got], k=10, mode="daat")[0]
    b = eng.search_batch([got], k=10, mode="bmm")[0]
    assert [(r[1], round(r[2], 10)) for r in a] \
        == [(r[1], round(r[2], 10)) for r in b]
    assert a, "prefix 's' must match docs"

    with pytest.raises(ValueError, match="cap"):
        expand_prefix(idx, "s", cap=1)
    with pytest.raises(ValueError, match="empty"):
        expand_prefix(idx, "")


def test_prox_min_dists_matches_scalar(pos_built):
    """prox_min_dists (candidate-restricted min pair distance) equals a
    scalar scan over the candidate docs, and the boosted re-rank
    promotes a near-co-occurrence doc over a bag-of-words-equal one."""
    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    q = "hash sort merge"
    terms = eng.normalize_query(q)
    from itertools import combinations

    pairs = list(combinations(terms, 2))
    cands = eng.search_batch([q], k=20, mode="bmm")[0]
    docnos = [d for _, d, _ in cands]
    got = eng.prox_min_dists_batch([pairs], [docnos])[0]

    t = pq.read_table(corpus)
    texts = {f"{r}:{p}@{c}": x for r, p, c, x in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist(), t["content"].to_pylist())}
    for d in docnos:
        toks = normalize_tokens(texts[d], SIMPLE_PROFILE)
        best = None
        for a, b in pairs:
            pa_ = [i for i, x in enumerate(toks) if x == a]
            pb_ = [i for i, x in enumerate(toks) if x == b]
            if pa_ and pb_:
                m = min(abs(i - j) for i in pa_ for j in pb_)
                best = m if best is None else min(best, m)
        assert got.get(d) == best, (d, got.get(d), best)
    assert got, "candidates must include co-occurring pairs"


def test_fuzzy_expansion_and_scoring(pos_built):
    """Fuzzy expansion (SymSpell stream over the partitioned global
    lexicon) equals the vocabulary's exact-levenshtein matches, the
    expansion scores identically under DAAT and BMM, and cap/empty
    misuse raise."""
    from searchenginepp_ray.pipelines.search_docs import expand_fuzzy
    from searchenginepp_ray.pipelines.search_docs import _levenshtein

    corpus, idx, cfg, _ = pos_built
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    vocab = sorted({t for w in eng.workers
                    for ss in w.searchers for t in ss.terms})
    words = ["hsh", "mergee"]  # 1-edit typos of hash / merge
    got = expand_fuzzy(idx, words)
    want = sorted({t for t in vocab
                   if min(_levenshtein(w, t) for w in words) <= 1})
    assert got == want and got, (got, want)
    assert expand_fuzzy(idx, ["qzx"]) == []

    a = eng.search_batch([got], k=10, mode="daat")[0]
    b = eng.search_batch([got], k=10, mode="bmm")[0]
    assert [(r[1], round(r[2], 10)) for r in a] \
        == [(r[1], round(r[2], 10)) for r in b]
    assert a, "fuzzy expansion must match docs"

    with pytest.raises(ValueError, match="cap"):
        expand_fuzzy(idx, words, cap=1)
    with pytest.raises(ValueError, match="empty"):
        expand_fuzzy(idx, [])


def test_live_engine_after_append_refuses_phrases(ray_session, tmp_path):
    """An in-process positional engine loaded before an append reads the
    positional sidecar lazily, after the append rewrote it: the first
    phrase query raises a ValueError that asks for a reload, and a
    reloaded engine serves the appended docs."""
    t = pq.read_table(write_corpus(str(tmp_path / "all.parquet"), 300,
                                   seed=3, rows_per_group=64))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(t.slice(0, 200), str(corpus / "a.parquet"),
                   row_group_size=64)
    cfg = BuildConfig(docs_per_segment=80, positions=True)
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, cfg)
    eng = QueryEngine(idx, use_actors=False, cfg=cfg)
    pq.write_table(t.slice(200), str(corpus / "b.parquet"),
                   row_group_size=64)
    build_index(str(corpus), idx, cfg)
    with pytest.raises(ValueError, match="reload"):
        eng.phrase_search_batch(["return if"])
    fresh = QueryEngine(idx, use_actors=False, cfg=cfg)
    assert fresh.phrase_search_batch(["return if"])[0]
