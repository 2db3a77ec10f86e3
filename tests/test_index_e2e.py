"""End-to-end golden test: deterministic corpus → full Ray Data index build
→ query engine vs the pure-Python scalar oracle (the test the reference
lacks — SURVEY.md §5)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import BuildConfig, FULL_PROFILE
from searchenginepp_ray.index.build import build_index, term_df_path
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.sources.corpus_gen import docno_of
from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

from .corpus import write_corpus
from .oracle import OracleIndex

N_DOCS = 800
K = 20

QUERIES = [
    "return if else",
    "hash index query search",
    "vector string buffer",
    "the of and to",          # all stopwords → empty after normalization
    "zzzunknownterm",         # unknown term
    "merge merge merge sort",  # repeated terms dedup
    "var_3 fn_7 match",
    "naïve café",             # latin1-domain terms
    "read write parse encode decode",
    "static const int 42",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, N_DOCS, seed=42, rows_per_group=128)
    cfg = BuildConfig(docs_per_segment=300)  # 3 segments over 800 docs
    out_dir = str(tmp / "index")
    summary = build_index(corpus_path, out_dir, cfg, CODE_CORPUS)

    table = pq.read_table(corpus_path)
    docs = [
        (docno_of(r, p, c), t)
        for r, p, c, t in zip(
            table["repo"].to_pylist(), table["path"].to_pylist(),
            table["commit"].to_pylist(), table["content"].to_pylist(),
        )
    ]
    oracle = OracleIndex(docs, FULL_PROFILE)
    engine = QueryEngine(out_dir, use_actors=False, cfg=cfg)
    # fixtures use tiny segments; force the real Maxscore path so
    # mode="bmm" tests exercise it rather than the small-segment fallback
    for w in engine.workers:
        for s in w.searchers:
            s.maxscore_min_docs = 0
    return summary, oracle, engine


def _assert_same(got, want):
    assert [g[0] for g in got] == [w[0] for w in want], (got[:5], want[:5])
    assert [g[1] for g in got] == [w[1] for w in want]
    for g, w in zip(got, want):
        assert g[2] == pytest.approx(w[2], rel=1e-12, abs=1e-12)


def test_build_summary(built):
    summary, oracle, _ = built
    assert summary["n_docs"] == N_DOCS
    assert summary["n_segments"] == 3
    assert summary["sum_doclen"] == oracle.sum_doclen
    assert summary["n_terms_global"] == len(oracle.postings)
    assert summary["n_postings"] == sum(len(p) for p in oracle.postings.values())


def test_daat_disjunctive_matches_oracle(built):
    _, oracle, engine = built
    for q in QUERIES:
        terms = engine.normalize_query(q)
        got = engine.search(terms, K, mode="daat")
        want = oracle.query(terms, K, conj=False, scorer="bm25")
        _assert_same(got, want)


def test_daat_conjunctive_matches_oracle(built):
    _, oracle, engine = built
    for q in QUERIES:
        terms = engine.normalize_query(q)
        got = engine.search(terms, K, mode="daat_conj")
        want = oracle.query(terms, K, conj=True, scorer="bm25")
        _assert_same(got, want)


def test_tfidf_matches_oracle(built):
    _, oracle, engine = built
    for q in QUERIES:
        terms = engine.normalize_query(q)
        got = engine.search(terms, K, mode="daat", scorer_name="tfidf")
        want = oracle.query(terms, K, conj=False, scorer="tfidf")
        _assert_same(got, want)


def test_lm_dirichlet_matches_oracle(built):
    """Dirichlet query-likelihood serving (QueryEngine.search_lm_batch,
    two-phase ctf gather + scatter) vs the scalar QL reference, across
    smoothing strengths. The fixture's multi-segment engine also checks
    that per-segment ctf sums compose to the global collection model."""
    _, oracle, engine = built
    for mu in (500.0, 2000.0):
        got_all = engine.search_lm_batch(QUERIES, k=K, mu=mu)
        n_nonempty = 0
        for q, got in zip(QUERIES, got_all):
            want = oracle.query_lm(engine.normalize_query(q), K, mu=mu)
            _assert_same(got, want)
            n_nonempty += bool(got)
        assert n_nonempty >= 7  # the comparison is not vacuous
    # determinism: a second identical batch returns identical results
    again = engine.search_lm_batch(QUERIES, k=K, mu=2000.0)
    assert again == engine.search_lm_batch(QUERIES, k=K, mu=2000.0)


def test_bmm_equals_daat(built):
    """BMM is safe pruning — results must equal DAAT's (SURVEY §7.5.7) for
    positive scores. Degenerate zero-score docs (a term with df == N has
    idf 0, so its sigma quantizes to 0) are legitimately pruned by the
    reference's pivot rule (upper_bounds[pivot] <= θ with θ=0,
    reference src/index/Index.cpp:103) while DAAT keeps them — so the
    comparison is over the positive-score prefix. Scores may differ only
    by float addition order (sigma- vs term-order sums)."""
    _, _, engine = built
    compared = 0
    for q in QUERIES:
        terms = engine.normalize_query(q)
        daat = [r for r in engine.search(terms, K, mode="daat") if r[2] > 0]
        bmm = [r for r in engine.search(terms, K, mode="bmm") if r[2] > 0]
        assert [r[0] for r in bmm] == [r[0] for r in daat]
        for b, d in zip(bmm, daat):
            assert b[2] == pytest.approx(d[2], rel=1e-9)
        compared += len(daat)
    assert compared > 20  # the comparison is not vacuous


def test_query_batch_equals_per_query(built):
    """The cross-query dense batch path (SegmentSearcher.query_batch)
    must return BIT-identical results to the per-query paths — same
    docids, docnos, and exact float scores (same lexicographic addition
    order; adding a non-matching term's 0.0 dense entry is an IEEE
    identity) — including queries with unknown terms, empty queries,
    k > n_matches (the cnt fallback), and both serving modes."""
    _, _, engine = built
    toks = [engine.normalize_query(q) for q in QUERIES]
    toks += [["zzz_not_a_term"], [], toks[0], toks[1]]  # edge + repeats
    for mode in ("daat", "bmm"):
        for k in (3, K, 5000):  # 5000 > n_docs: forces the cnt fallback
            for w in engine.workers:
                batch = w.query_batch(toks, k, mode, None)
                per_q = [
                    [
                        r
                        for s in w.searchers
                        for r in s.query(t, k, mode, None)
                    ]
                    for t in toks
                ]
                for b, p in zip(batch, per_q):
                    p.sort(key=lambda r: (-r[2], r[0]))
                    assert b == p[:k]  # exact equality, scores included

    # the dense path is actually exercised (not just the fallback): the
    # fixture queries' vocabulary blankets the tiny segments
    s = engine.workers[0].searchers[0]
    union = sorted({i for t in toks for i in (s._resolve_terms(t, False) or [])})
    assert s._dense_batch_worthwhile(union)
    assert len(s._dense_cache) > 0


def test_resume_skips_built_segments(built, tmp_path_factory):
    """Re-running build with identical inputs is a no-op (checkpointed)."""
    summary, _, engine = built
    import time
    out_dir = summary["out_dir"]
    t0 = time.time()
    again = build_index(
        engine_corpus_path(out_dir), out_dir, BuildConfig(docs_per_segment=300), CODE_CORPUS
    )
    assert again["n_postings"] == summary["n_postings"]
    assert time.time() - t0 < 30


def engine_corpus_path(out_dir: str) -> str:
    import json, os
    with open(f"{out_dir}/db_0/manifest.json") as f:
        m = json.load(f)
    # recover the original corpus path from stage-1 lineage is overkill
    # here; the e2e fixture keeps corpus.parquet next to the index dir
    return os.path.join(os.path.dirname(out_dir), "corpus.parquet")


def test_maxscore_exactly_equals_daat_many_k(built):
    """mode="bmm" (vectorized Maxscore with the one-quantum-safe bound)
    must return bit-identical (docid, score) lists to DAAT for every k,
    both scorers — the pruning may skip work, never change results."""
    import random

    _, _, engine = built
    rng = random.Random(3)
    vocab = ("return if else for hash index query search vector string "
             "buffer merge sort static const int read write parse var_3 fn_7").split()
    queries = [" ".join(rng.sample(vocab, rng.randint(1, 6))) for _ in range(40)]
    for scorer_name in ("bm25", "tfidf"):
        for k in (1, 3, 20, 200):
            daat = engine.search_batch(queries, k=k, mode="daat", scorer_name=scorer_name)
            bmm = engine.search_batch(queries, k=k, mode="bmm", scorer_name=scorer_name)
            for a, b in zip(daat, bmm):
                assert [(d, s) for d, _, s in a] == [(d, s) for d, _, s in b]


def test_tfidf_fast_log_scorer(built):
    """F4: the USE_FAST_LOG integer-log TFIDF — (1 + floor(log2 tf)) * idf
    (reference src/index/query_scorer.cpp:7-30,53) — exact floor
    semantics, and Maxscore pruning (standard-log bounds) stays exact."""
    import numpy as np

    from searchenginepp_ray.index.scorer import TfidfFastLogScorer

    s = TfidfFastLogScorer()
    tf = np.array([0, 1, 2, 3, 7, 8, 1023, 1024])
    got = s.score(tf, 2.0)
    want = np.array([0, 1, 2, 2, 3, 4, 10, 11], dtype=np.float64) * 2.0
    assert got.tolist() == want.tolist()

    _, _, engine = built
    for q in ["hash index merge sort", "return if else"]:
        daat = engine.search(q, k=10, mode="daat", scorer_name="tfidf_fast")
        bmm = engine.search(q, k=10, mode="bmm", scorer_name="tfidf_fast")
        assert [(d, sc) for d, _, sc in daat] == [(d, sc) for d, _, sc in bmm]
        assert len(daat) > 0


def test_bmm_ref_mode_is_rejected(built):
    """``bmm`` is the one Block-Max mode: the engine and the query CLI
    both refuse the removed ``bmm_ref`` cursor loop."""
    from searchenginepp_ray import cli

    _, _, engine = built
    with pytest.raises(ValueError, match="unknown mode"):
        engine.search("hash sort", k=5, mode="bmm_ref")
    with pytest.raises(SystemExit):
        cli.main(["query", engine.index_dir, "-a", "bmm_ref",
                  "--query", "hash sort"])


@pytest.fixture(scope="module")
def multi_block(ray_session, tmp_path_factory):
    """800 docs in one segment with skip_block_size=17, so most lists
    span many skip blocks: (build summary, index dir, engine)."""
    tmp = tmp_path_factory.mktemp("multiblock")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 800, seed=5, rows_per_group=128)
    cfg = BuildConfig(docs_per_segment=800, skip_block_size=17)
    out_dir = str(tmp / "idx")
    summary = build_index(corpus_path, out_dir, cfg, CODE_CORPUS)
    return summary, out_dir, QueryEngine(out_dir, use_actors=False, cfg=cfg)


def test_one_decode_per_list_across_modes(multi_block):
    """Every mode reads whole lists through the one decoded-posting
    cache: once ``bmm`` (forced onto Maxscore) has served a query, the
    searcher has decoded exactly the query terms' lists, once each, and
    ``daat``, ``daat_conj``, ``boolean`` with a negated term and
    ``explain`` over the same terms decode nothing more. BMM returns
    DAAT's results on these multi-block lists."""
    from searchenginepp_ray.index.searcher import SegmentSearcher

    summary, out_dir, engine = multi_block
    s = SegmentSearcher(
        f"{out_dir}/db_0", n_docs_global=summary["n_docs"],
        avgdl=summary["avgdl"], prewarm_df=None,
    )
    s.maxscore_min_docs = 0  # force the Maxscore path
    seen: set[int] = set()
    for q in ["hash index merge sort", "return if else for int",
              "query search vector string buffer"]:
        toks = engine.normalize_query(q)
        assert len(toks) >= 2, toks
        seen.update(s._resolve_terms(toks, conj=False))
        bmm = s.query(toks, k=3, mode="bmm")
        decoded = s.decoded_postings
        assert decoded == int(s.df_local[sorted(seen)].sum()), q
        daat = s.query(toks, k=3, mode="daat")
        assert [(d, sc) for d, _, sc in bmm] == [(d, sc) for d, _, sc in daat]
        s.query(toks, k=3, mode="daat_conj")
        s.query_boolean(toks[:1] + ["-" + t for t in toks[1:]], k=3)
        s.explain(toks, [d for d, _, _ in daat])
        assert s.decoded_postings == decoded, q


def test_fsck_reports_tampered_skip_lists(multi_block, tmp_path_factory):
    """fsck is the one reader of the skip fences and skip offsets: a
    ``skip_last_docid`` fence or a ``skip_docid_off`` entry changed in
    one multi-block list is reported against that term."""
    import os
    import shutil

    import pyarrow as pa

    from searchenginepp_ray.index.fsck import fsck_index

    _, out_dir, _ = multi_block
    assert fsck_index(out_dir)["ok"]
    t = pq.read_table(os.path.join(out_dir, "db_0", "terms.parquet"))
    ti = int(np.argmax(t["df_local"].to_numpy()))
    term = t["term"][ti].as_py()
    tmp = tmp_path_factory.mktemp("fsck_skip")

    def tampered(name: str, col: str) -> dict:
        bad = str(tmp / name)
        shutil.copytree(out_dir, bad)
        arr = t[col].combine_chunks()
        vals = arr.values.to_numpy().copy()
        vals[int(arr.offsets[ti].as_py()) + 1] += 1  # the list's block 1
        tp = os.path.join(bad, "db_0", "terms.parquet")
        pq.write_table(t.set_column(
            t.schema.get_field_index(col), col,
            pa.ListArray.from_arrays(arr.offsets, pa.array(vals))), tp)
        return fsck_index(bad)

    fence = int(t["skip_last_docid"][ti][1].as_py())
    rep = tampered("fence", "skip_last_docid")
    assert rep["errors"] == [f"db_0: term {term!r}: block 1 fence "
                             f"{fence + 1} != last docid {fence}"]
    # block 1 starting a byte late hands block 0 one byte too many
    [msg] = tampered("offset", "skip_docid_off")["errors"]
    assert msg.startswith(f"db_0: term {term!r}: block decode failed: "), msg
    assert "block 0 of term" in msg, msg


def test_crash_resume_tokenize_stage(ray_session, tmp_path_factory,
                                     monkeypatch):
    """A build interrupted mid-tokenize resumes from completed shards:
    only missing shards re-run, and the finished index is identical."""
    import os

    from searchenginepp_ray.index import build

    tmp = tmp_path_factory.mktemp("resume")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 400, seed=7, rows_per_group=64)
    cfg = BuildConfig(docs_per_segment=150)
    full_dir = str(tmp / "full")
    want = build_index(corpus_path, full_dir, cfg, CODE_CORPUS)

    # a real crash after stage 1: no segment was assembled, so the
    # postings exist only in the stage-1 runs
    crash_dir = str(tmp / "crashed")

    def crash(*a, **k):
        raise RuntimeError("crash before assembly")

    monkeypatch.setattr(build, "_assemble_stage", crash)
    with pytest.raises(RuntimeError, match="crash before assembly"):
        build_index(corpus_path, crash_dir, cfg, CODE_CORPUS)
    monkeypatch.undo()
    assert not any(d.startswith("db_") for d in os.listdir(crash_dir))

    # stage 1 half-finished: drop the done-marker and the last three
    # shards' doc parts (their done-markers) and runs; the wip marker is
    # present
    os.remove(os.path.join(crash_dir, "_docs_done"))
    docs = os.path.join(crash_dir, "docs")
    runs = os.path.join(docs, "_runs")
    victims = sorted({f for seg in os.listdir(docs) if seg.startswith("seg=")
                      for f in os.listdir(os.path.join(docs, seg))})[-3:]
    for v in victims:
        for seg in os.listdir(docs):
            for p in (os.path.join(docs, seg, v),
                      os.path.join(runs, seg, v[: -len(".parquet")] + ".arrow")):
                if os.path.exists(p):
                    os.remove(p)
    with open(os.path.join(full_dir, "_docs_done")) as f:
        key = f.read()
    with open(os.path.join(crash_dir, "_docs_wip"), "w") as f:
        f.write(key)

    surviving = {
        (d, f): os.path.getmtime(os.path.join(docs, d, f))
        for d in os.listdir(docs) if d.startswith("seg=")
        for f in os.listdir(os.path.join(docs, d))
    }
    got = build_index(corpus_path, crash_dir, cfg, CODE_CORPUS)
    assert got["n_docs"] == want["n_docs"]
    assert got["n_postings"] == want["n_postings"]
    assert got["n_terms_global"] == want["n_terms_global"]
    # surviving shard outputs were reused, not rewritten
    untouched = sum(os.path.getmtime(os.path.join(docs, d, f)) == mtime
                    for (d, f), mtime in surviving.items())
    assert untouched == len(surviving) > 0
    # per-segment term tables byte-identical to the uninterrupted build
    for d in sorted(os.listdir(full_dir)):
        if d.startswith("db_"):
            a = open(os.path.join(full_dir, d, "terms.parquet"), "rb").read()
            b = open(os.path.join(crash_dir, d, "terms.parquet"), "rb").read()
            assert a == b, f"segment {d} differs after crash-resume"


def test_tsv_source_matches_parquet(ray_session, tmp_path_factory):
    """Building from the reference's native TSV format produces the exact
    same index (byte-identical segment term tables) as the Parquet path
    over the same (docno, text) rows."""
    import os

    import pyarrow.parquet as pq

    tmp = tmp_path_factory.mktemp("tsv")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 300, seed=5, rows_per_group=64)
    t = pq.read_table(corpus_path)
    docnos = [
        docno_of(r, p, c)
        for r, p, c in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                           t["commit"].to_pylist())
    ]
    texts = [x.replace("\t", " ").replace("\n", " ") for x in t["content"].to_pylist()]
    tsv_path = str(tmp / "corpus.tsv")
    with open(tsv_path, "w", encoding="utf8") as f:
        for d, x in zip(docnos, texts):
            f.write(f"{d}\t{x}\n")
    # the parquet build must see the same text (tabs/newlines were
    # normalized above to make the TSV lossless)
    clean = t.set_column(t.schema.get_field_index("content"), "content",
                         __import__("pyarrow").array(texts))
    clean_path = str(tmp / "clean.parquet")
    pq.write_table(clean, clean_path, row_group_size=64)

    cfg = BuildConfig(docs_per_segment=120)
    a = build_index(clean_path, str(tmp / "idx_pq"), cfg, CODE_CORPUS)
    b = build_index(tsv_path, str(tmp / "idx_tsv"), cfg, source_format="tsv")
    assert a["n_docs"] == b["n_docs"] == 300
    assert a["n_postings"] == b["n_postings"]
    assert a["sum_doclen"] == b["sum_doclen"]
    for d in sorted(os.listdir(str(tmp / "idx_pq"))):
        if d.startswith("db_"):
            pa_bytes = open(os.path.join(str(tmp / "idx_pq"), d, "terms.parquet"), "rb").read()
            tsv_bytes = open(os.path.join(str(tmp / "idx_tsv"), d, "terms.parquet"), "rb").read()
            assert pa_bytes == tsv_bytes, f"{d} differs between TSV and Parquet builds"


def test_merge_segments_identical_results(built, tmp_path_factory):
    """A 32x (here 2x) segment merge/compaction serves bit-identical
    (docid, score) top-k to the unmerged index — the merge only changes
    physical layout (bigger posting lists, recomputed sigmas/skips)."""
    import random

    from searchenginepp_ray.index.build import merge_segments

    summary, _, engine = built
    merged_dir = str(tmp_path_factory.mktemp("merged") / "idx")
    cfg = BuildConfig(docs_per_segment=300)
    m = merge_segments(summary["out_dir"], merged_dir, group_size=2, cfg=cfg)
    assert m["n_segments"] < summary["n_segments"]
    assert m["n_postings"] == summary["n_postings"]
    merged = QueryEngine(merged_dir, use_actors=False, cfg=cfg)

    rng = random.Random(9)
    vocab = ("return hash index query search merge sort static const int "
             "vector string buffer read write").split()
    queries = [" ".join(rng.sample(vocab, rng.randint(1, 5))) for _ in range(30)]
    for mode in ("daat", "daat_conj", "bmm"):
        a = engine.search_batch(queries, k=15, mode=mode)
        b = merged.search_batch(queries, k=15, mode=mode)
        for x, y in zip(a, b):
            assert [(d, s) for d, _, s in x] == [(d, s) for d, _, s in y], mode


def test_merge_chunked_byte_identical(built, tmp_path_factory,
                                      chunk_budget):
    """The term-range chunked segment writer (forced tiny posting
    budget → many chunks per segment) writes BYTE-identical segment
    files to a one-chunk merge — the bounded-working-set path changes
    memory shape only, not a single output byte."""
    import os

    from searchenginepp_ray.index.build import merge_segments

    summary, _, _ = built
    cfg = BuildConfig(docs_per_segment=300)
    one = str(tmp_path_factory.mktemp("m_one") / "idx")
    many = str(tmp_path_factory.mktemp("m_many") / "idx")
    chunk_budget(10**9)  # everything in one chunk
    a = merge_segments(summary["out_dir"], one, group_size=2, cfg=cfg)
    chunk_budget(50)  # tiny budget → many chunks
    b = merge_segments(summary["out_dir"], many, group_size=2, cfg=cfg)
    assert a["n_postings"] == b["n_postings"] > 50  # chunking engaged
    segs = sorted(d for d in os.listdir(one) if d.startswith("db_"))
    assert segs
    for d in segs:
        pa_ = open(os.path.join(one, d, "terms.parquet"), "rb").read()
        pb_ = open(os.path.join(many, d, "terms.parquet"), "rb").read()
        assert pa_ == pb_, f"{d} differs between chunked and one-chunk merge"


@pytest.mark.parametrize("positions", [False, True],
                         ids=["plain", "positions"])
def test_build_and_append_chunked_byte_identical(ray_session, tmp_path,
                                                 chunk_budget, positions):
    """A build and an append with a tiny posting budget write the same
    ``db_*`` bytes as with the whole segment in one chunk — the append
    decoding its old segments one term range at a time."""
    import glob
    import os

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    t = pq.read_table(write_corpus(str(tmp_path / "all.parquet"), 500,
                                   seed=5, rows_per_group=64))
    pq.write_table(t.slice(0, 400), str(corpus / "a.parquet"),
                   row_group_size=64)
    cfg = BuildConfig(docs_per_segment=150, positions=positions)

    def segments(idx):
        return {os.path.relpath(p, idx): open(p, "rb").read()
                for p in sorted(glob.glob(os.path.join(idx, "db_*", "*.parquet")))}

    got = {}
    for budget in (10**9, 60):
        chunk_budget(budget)
        idx = str(tmp_path / f"idx{budget}")
        s = build_index(str(corpus), idx, cfg, CODE_CORPUS, force=True)
        assert s["n_postings"] > 60  # chunking engaged
        got[budget, "build"] = segments(idx)
        pq.write_table(t.slice(400), str(corpus / "b.parquet"),
                       row_group_size=64)
        build_index(str(corpus), idx, cfg, CODE_CORPUS)
        got[budget, "append"] = segments(idx)
        os.remove(corpus / "b.parquet")
    for phase in ("build", "append"):
        one, many = got[10**9, phase], got[60, phase]
        assert one and one.keys() == many.keys()
        for k in one:
            assert one[k] == many[k], (phase, k)


def test_merge_resume_skips_finished_segments(built, tmp_path_factory):
    """Compaction is resumable per merged segment: deleting one segment's
    output and re-running merge_segments rebuilds ONLY that segment
    (checkpointed siblings untouched), and the result is byte-identical."""
    import os
    import shutil

    from searchenginepp_ray.index.build import merge_segments

    summary, _, _ = built
    merged_dir = str(tmp_path_factory.mktemp("mresume") / "idx")
    cfg = BuildConfig(docs_per_segment=300)
    merge_segments(summary["out_dir"], merged_dir, group_size=2, cfg=cfg)
    segs = sorted(d for d in os.listdir(merged_dir) if d.startswith("db_"))
    assert len(segs) >= 2
    keep_bytes = open(os.path.join(merged_dir, segs[0], "terms.parquet"), "rb").read()
    keep_mtime = os.path.getmtime(os.path.join(merged_dir, segs[0], "terms.parquet"))
    victim_bytes = open(os.path.join(merged_dir, segs[1], "terms.parquet"), "rb").read()
    shutil.rmtree(os.path.join(merged_dir, segs[1]))

    merge_segments(summary["out_dir"], merged_dir, group_size=2, cfg=cfg)
    # sibling untouched (checkpoint hit), victim rebuilt identically
    assert os.path.getmtime(os.path.join(merged_dir, segs[0], "terms.parquet")) == keep_mtime
    assert open(os.path.join(merged_dir, segs[0], "terms.parquet"), "rb").read() == keep_bytes
    assert open(os.path.join(merged_dir, segs[1], "terms.parquet"), "rb").read() == victim_bytes


def test_trec_run_format(built):
    """TREC run lines: `qid Q0 docno rank score run_name`
    (reference src/engine.cpp:132-135)."""
    _, _, engine = built
    res = engine.search("hash index query", k=3)
    lines = engine.trec_lines("q42", res, run_name="myrun")
    assert len(lines) == 3
    for rank, ln in enumerate(lines, start=1):
        parts = ln.split(" ")
        assert parts[0] == "q42" and parts[1] == "Q0"
        assert int(parts[3]) == rank
        float(parts[4])
        assert parts[5] == "myrun"


def test_lineage_report_and_invariants(built):
    """Per-partition lineage + metrics: every segment manifest is
    consistent with the global metadata (the resume machinery's source of
    truth), and the report frame exposes the build metrics."""
    from searchenginepp_ray.state import index_report, verify_lineage

    summary, _, _ = built
    rep = index_report(summary["out_dir"])
    assert len(rep) == summary["n_segments"]
    assert int(rep["n_docs"].sum()) == summary["n_docs"]
    assert int(rep["n_postings"].sum()) == summary["n_postings"]
    assert (rep["docid_encoding"] == "varbyte-dgap-blockrestart").all()
    # each segment's lineage key covers its own shards only
    assert rep["lineage_key"].nunique() == len(rep)
    v = verify_lineage(summary["out_dir"])
    assert v["problems"] == [], v


def test_planted_relevance_sanity(built):
    """IR sanity: querying a document's rarest terms retrieves that
    document at/near rank 1 (soft stand-in for the reference's
    trec_eval effectiveness checks, which need MS MARCO)."""
    summary, oracle, engine = built

    # per-doc term sets recovered from the oracle's postings
    doc_terms: dict[int, list[str]] = {}
    for term, pl in oracle.postings.items():
        for docid, _tf in pl:
            doc_terms.setdefault(docid, []).append(term)

    hits = 0
    n = 40
    for i in range(n):
        docid = 1 + i * 19  # spread over the corpus
        terms = doc_terms.get(docid)
        if not terms:
            n -= 1
            continue
        rare = sorted(terms, key=lambda t: (oracle.df[t], t))[:5]
        res = engine.search(rare, k=3)
        if any(d == docid for d, _, _ in res):
            hits += 1
    assert hits / max(n, 1) >= 0.85, (hits, n)


def test_block_offset_decode_matches_full(built, tmp_path_factory):
    """The stored skip offsets (docid byte offset into the delta-gap
    stream, freq bit offset into the unary stream) support stateless
    single-block decode that matches the corresponding slice of the full
    posting list — the reference's nextGEQ block repositioning
    (src/index/Index.cpp:169-214). Exercised across MANY blocks by
    building a tiny-skip-block index."""
    from searchenginepp_ray.index.searcher import SegmentSearcher

    tmp = tmp_path_factory.mktemp("blk")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 400, seed=11, rows_per_group=128)
    cfg = BuildConfig(docs_per_segment=400, skip_block_size=37)
    out_dir = str(tmp / "idx")
    summary = build_index(corpus_path, out_dir, cfg, CODE_CORPUS)
    s = SegmentSearcher(f"{out_dir}/db_0", n_docs_global=summary["n_docs"],
                        avgdl=summary["avgdl"], prewarm_df=None)
    # non-default restart period must be picked up from the segment
    # manifest, not hard-coded (regression: searcher once assumed 15000)
    assert s.skip_block_size == 37
    checked_blocks = 0
    for ti in range(len(s.terms)):
        full_d, full_t = s.postings(ti)
        df = int(s.df_local[ti])
        n_blocks = (df + 36) // 37
        for b in range(n_blocks):
            d, t = s.decode_block(ti, b)
            lo, hi = b * 37, min((b + 1) * 37, df)
            assert d.tolist() == full_d[lo:hi].tolist(), (s.terms[ti], b)
            assert t.tolist() == full_t[lo:hi].tolist(), (s.terms[ti], b)
            checked_blocks += 1
    assert checked_blocks > len(s.terms)  # multi-block lists exist


def test_jsonl_build_matches_parquet_build(ray_session, tmp_path):
    """The same corpus through the JSONL byte-range line shards and the
    Parquet row-group shards produces byte-identical segments (the same
    invariant the TSV source is held to)."""
    import hashlib
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import BuildConfig, SIMPLE_PROFILE
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.sources.parquet_corpus import ColumnSpec

    docs = [{"docno": f"d{i:03d}",
             "text": f"alpha beta row {i} gamma {'x' * (i % 7)}"}
            for i in range(300)]
    jl = tmp_path / "corpus.jsonl"
    with open(jl, "w") as f:
        for d in docs:
            f.write(json.dumps(d) + "\n")
    pqp = tmp_path / "corpus.parquet"
    pq.write_table(pa.table({"docno": [d["docno"] for d in docs],
                             "text": [d["text"] for d in docs]}),
                   pqp, row_group_size=64)

    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=128)
    spec = ColumnSpec(text_col="text", docno_cols=("docno",))
    build_index(str(jl), str(tmp_path / "idx_jl"), cfg,
                source_format="jsonl", force=True)
    build_index(str(pqp), str(tmp_path / "idx_pq"), cfg, spec, force=True)

    def seg_hashes(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for fn in sorted(files):
                if fn.endswith(".parquet") and "db_" in dirpath:
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    t = pq.read_table(os.path.join(dirpath, fn))
                    out[rel] = hashlib.sha256(
                        t.to_pandas().to_csv(index=False).encode()).hexdigest()
        return out

    hj, hp = seg_hashes(tmp_path / "idx_jl"), seg_hashes(tmp_path / "idx_pq")
    assert hj and hj == hp


def test_append_incremental_build(ray_session, tmp_path):
    """Appending corpus files and re-running build_index keeps the old
    shards' tokenize outputs (append-incremental) and still produces an
    index byte-identical to a from-scratch build of the full corpus."""
    import glob
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import BuildConfig, SIMPLE_PROFILE
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.sources.parquet_corpus import ColumnSpec

    def write_part(path, lo, hi):
        pq.write_table(pa.table({
            "docno": [f"d{i:04d}" for i in range(lo, hi)],
            "text": [f"alpha beta {i} gamma delta {'z' * (i % 5)}"
                     for i in range(lo, hi)]}), path, row_group_size=64)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_part(corpus / "a.parquet", 0, 150)
    write_part(corpus / "b.parquet", 150, 300)

    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=128)
    spec = ColumnSpec(text_col="text", docno_cols=("docno",))
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), cfg, spec)

    def doc_parts():
        return {p: os.path.getmtime(p) for p in
                glob.glob(str(idx / "docs" / "seg=*" / "*.parquet"))}

    old_parts = doc_parts()

    # append a file that sorts AFTER the existing ones
    write_part(corpus / "c.parquet", 300, 420)
    summary = build_index(str(corpus), str(idx), cfg, spec)
    assert summary["n_docs"] == 420

    # old tokenize outputs (each shard's doc parts) were reused, not rebuilt
    new_parts = doc_parts()
    for f, mt in old_parts.items():
        assert new_parts[f] == mt, f
    assert len(new_parts) > len(old_parts)

    # byte-identical to a from-scratch build of the full corpus
    fresh = tmp_path / "idx_fresh"
    build_index(str(corpus), str(fresh), cfg, spec, force=True)

    def seg_hashes(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for fn in sorted(files):
                if fn.endswith(".parquet") and "db_" in dirpath:
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    t = pq.read_table(os.path.join(dirpath, fn))
                    out[rel] = hashlib.sha256(
                        t.to_pandas().to_csv(index=False).encode()).hexdigest()
        return out

    assert seg_hashes(idx) == seg_hashes(fresh)

    # and serving works over the appended index
    eng = QueryEngine(str(idx), scorer="bm25", use_actors=False)
    hits = eng.search("alpha beta", k=3, mode="daat")
    assert len(hits) == 3

    # a NON-append change (file sorting before the others) falls back to
    # the full wipe — correctness first
    write_part(corpus / "0early.parquet", 420, 460)
    summary = build_index(str(corpus), str(idx), cfg, spec)
    assert summary["n_docs"] == 460


def test_boolean_query_equals_set_logic(built):
    """Boolean mode == conjunctive DAAT over MUST terms minus every doc
    containing any MUST-NOT term, across the multi-segment engine."""
    _, oracle, engine = built
    cases = [
        (["return", "if"], ["else"]),
        (["hash", "index"], ["query", "search"]),
        (["merge"], ["zzzunknownterm"]),   # unknown negation: no-op
        (["vector"], ["vector"]),          # self-negation: empty
        ([], ["return"]),                  # no MUST terms: empty
    ]
    for pos, neg in cases:
        toks = sorted(set(pos)) + ["-" + t for t in sorted(set(neg))]
        got = engine.search(toks, k=50, mode="boolean")
        # set-logic reference from the conjunctive oracle + full scan
        conj = engine.search(sorted(set(pos)), k=10_000, mode="daat_conj") \
            if pos else []
        banned = set()
        for t in set(neg):
            for d, _, _ in engine.search([t], k=10_000, mode="daat"):
                banned.add(d)
        want = [(d, n, s) for d, n, s in conj if d not in banned][:50]
        assert [(g[0], g[2]) for g in got] == [(w[0], w[2]) for w in want], \
            (pos, neg)


def test_boolean_negative_multi_block_list(ray_session, tmp_path_factory):
    """The anti-join removes every candidate that a negative term's
    list holds, when that list spans many skip blocks."""
    import pyarrow as pa

    from searchenginepp_ray.index.searcher import SegmentSearcher
    from searchenginepp_ray.sources.parquet_corpus import ColumnSpec

    tmp = tmp_path_factory.mktemp("boolneg")
    # "common" appears in EVERY doc (big negative list, many blocks);
    # "rare" appears in 3 docs; one of them also has "banned"
    rows = []
    for i in range(600):
        parts = ["common"]
        if i in (5, 250, 590):
            parts.append("rare")
        if i in (250,):
            parts.append("banned")
        rows.append(" ".join(parts))
    t = pa.table({"docno": [str(i) for i in range(600)], "text": rows})
    pq.write_table(t, str(tmp / "c.parquet"))
    from searchenginepp_ray.config import SIMPLE_PROFILE

    # simple profile: query tokens hit the lexicon verbatim (no stemming)
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=1000,
                      skip_block_size=16)
    out = str(tmp / "idx")
    build_index(str(tmp / "c.parquet"), out, cfg,
                ColumnSpec(text_col="text", docno_cols=("docno",)))
    seg = QueryEngine(out, use_actors=False, cfg=cfg).workers[0].searchers[0]
    res = seg.query_boolean(["rare", "-banned"], k=10)
    assert sorted(r[0] - seg.base_docid for r in res) == [5, 590]
    # against the 600-posting list of 38 blocks: every candidate goes
    res = seg.query_boolean(["rare", "-common"], k=10)
    assert res == []


def test_csv_source_builds_identical_index(ray_session, tmp_path):
    """CSV corpus (incl. a quoted field with embedded newline and a
    quoted comma) stages to parquet and builds an index byte-identical
    to a direct parquet build of the same rows."""
    import csv as csv_mod
    import hashlib as hl
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.config import BuildConfig, SIMPLE_PROFILE
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.sources.jsonl_corpus import JSONL_CORPUS

    rows = [("d1", "hash sort merge"),
            ("d2", "line one\nline two, quoted"),
            ("d3", 'quoted "inner" text'),
            ("d4", "")]
    csv_path = str(tmp_path / "corpus.csv")
    with open(csv_path, "w", newline="") as f:
        w = csv_mod.writer(f)
        w.writerow(["docno", "text"])
        w.writerows(rows)
    pq_path = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table({
        "docno": pa.array([r[0] for r in rows]),
        "text": pa.array([r[1] for r in rows]),
    }), pq_path)

    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=2)
    out_csv = str(tmp_path / "idx_csv")
    out_pq = str(tmp_path / "idx_pq")
    build_index(csv_path, out_csv, cfg, source_format="csv")
    build_index(pq_path, out_pq, cfg, JSONL_CORPUS)

    def tree_hash(root):
        items = {}
        for dirpath, _, files in os.walk(root):
            for fn in sorted(files):
                # lineage keys legitimately differ (different source
                # paths) — markers and summaries are metadata, not index
                if fn.endswith(".json") or fn.startswith("_"):
                    continue
                p = os.path.join(dirpath, fn)
                rel = os.path.relpath(p, root)
                items[rel] = hl.sha256(open(p, "rb").read()).hexdigest()
        return items

    assert tree_hash(out_csv) == tree_hash(out_pq)


def test_merge_resyncs_tombstones(built, tmp_path_factory):
    """Deletes made AFTER a merge was materialized propagate on the next
    merge_segments run (the tombstone file is re-synced even when the
    lineage key is unchanged), and the merged engine's view equals the
    source engine's tombstoned view."""
    import shutil

    from searchenginepp_ray.index.build import merge_segments
    from searchenginepp_ray.index.tombstone import delete_docs

    summary, _, _ = built
    tmp = tmp_path_factory.mktemp("tomb_merge")
    src = str(tmp / "src_idx")
    shutil.copytree(summary["out_dir"], src)  # keep the fixture pristine
    merged_dir = str(tmp / "merged")
    cfg = BuildConfig(docs_per_segment=300)
    merge_segments(src, merged_dir, group_size=2, cfg=cfg)

    m1 = QueryEngine(merged_dir, use_actors=False, cfg=cfg)
    res = m1.search("hash merge sort", k=3, mode="bmm")
    assert res
    dead_docno = res[0][1]

    delete_docs(src, [dead_docno])
    merge_segments(src, merged_dir, group_size=2, cfg=cfg)  # segments cached

    m2 = QueryEngine(merged_dir, use_actors=False, cfg=cfg)
    res2 = m2.search("hash merge sort", k=3, mode="bmm")
    assert dead_docno not in [r[1] for r in res2]

    src_eng = QueryEngine(src, use_actors=False, cfg=cfg)
    for mode in ("daat", "bmm"):
        a = src_eng.search("hash merge sort", k=5, mode=mode)
        b = m2.search("hash merge sort", k=5, mode=mode)
        assert [(r[1], round(r[2], 9)) for r in a] \
            == [(r[1], round(r[2], 9)) for r in b], mode


def test_fsck_clean_and_corrupted(built, tmp_path_factory):
    """fsck passes a freshly built index (shallow + deep) and pinpoints
    semantic corruption: a tampered df_local, a tampered manifest
    sum_doclen, a global df that no longer sums the segments' df_local,
    and a tampered block impact."""
    import json
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.index.fsck import fsck_index

    summary, _, _ = built
    rep = fsck_index(summary["out_dir"], deep=True)
    assert rep["ok"], rep["errors"]
    assert rep["n_docs"] == summary["n_docs"]

    tmp = tmp_path_factory.mktemp("fsck")
    bad = str(tmp / "bad_idx")
    shutil.copytree(summary["out_dir"], bad)

    # 1) df_local of one term off by one
    tp = os.path.join(bad, "db_0", "terms.parquet")
    t = pq.read_table(tp)
    dfl = t["df_local"].to_pylist()
    dfl[0] += 1
    t = t.set_column(t.schema.get_field_index("df_local"), "df_local",
                     pa.array(dfl, t["df_local"].type))
    pq.write_table(t, tp)
    # 2) manifest sum_doclen tampered in another segment
    mp = os.path.join(bad, "db_1", "manifest.json")
    with open(mp) as f:
        m = json.load(f)
    m["sum_doclen"] += 7
    with open(mp, "w") as f:
        json.dump(m, f)

    rep = fsck_index(bad, deep=True)
    assert not rep["ok"]
    msgs = "\n".join(rep["errors"])
    assert "df_local" in msgs
    assert "sum_doclen" in msgs
    # the deep check sees the global df sum broken by the df_local bump
    assert f"term {t['term'][0].as_py()!r}: global df" in msgs

    # 3) one block impact's doclen off by one: the bounds computed from
    # it would be wrong, so the per-segment check names the block
    bad2 = str(tmp / "bad_impact")
    shutil.copytree(summary["out_dir"], bad2)
    tp = os.path.join(bad2, "db_1", "terms.parquet")
    t = pq.read_table(tp)
    col = t["impact_doclen"].combine_chunks()
    vals = col.values.to_pylist()
    vals[0] += 1
    t = t.set_column(t.schema.get_field_index("impact_doclen"), "impact_doclen",
                     pa.ListArray.from_arrays(col.offsets,
                                              pa.array(vals, pa.uint32())))
    pq.write_table(t, tp)
    rep = fsck_index(bad2)
    assert rep["errors"] == [f"db_1: term {t['term'][0].as_py()!r}: block 0 "
                             "impacts differ from its decoded postings"]


def test_compact_index_equals_fresh_build(built, tmp_path_factory):
    """The physical-reclaim contract: compact_index over a tombstoned
    index is BYTE-IDENTICAL (segments + partitioned global lexicon +
    collection stats) to a fresh build over the alive corpus with the
    same config — and the compacted engine's ranking equals that fresh
    build's. Also pins the resume path (second call is all cache hits)
    and that no tombstone file survives compaction."""
    import filecmp
    import json
    import os
    import shutil

    import pyarrow as pa

    from searchenginepp_ray.index.build import compact_index
    from searchenginepp_ray.index.fsck import fsck_index
    from searchenginepp_ray.index.tombstone import delete_docs, load_tombstones

    summary, _, _ = built
    tmp = tmp_path_factory.mktemp("compact")
    src = str(tmp / "src_idx")
    shutil.copytree(summary["out_dir"], src)
    corpus_path = os.path.join(os.path.dirname(summary["out_dir"]),
                               "corpus.parquet")

    # delete every 7th docno (spread across all segments)
    table = pq.read_table(corpus_path)
    all_docnos = [
        docno_of(r, p, c)
        for r, p, c in zip(table["repo"].to_pylist(),
                           table["path"].to_pylist(),
                           table["commit"].to_pylist())
    ]
    dead = set(all_docnos[::7])
    delete_docs(src, sorted(dead))

    cfg = BuildConfig(docs_per_segment=300)
    out = str(tmp / "compacted")
    csum = compact_index(src, out)
    assert csum["n_docs"] == len(all_docnos) - len(dead)
    assert csum["n_reclaimed"] == len(dead)

    # fresh build over the alive corpus, same config
    alive_mask = pa.array([d not in dead for d in all_docnos])
    alive_path = str(tmp / "alive_corpus.parquet")
    pq.write_table(table.filter(alive_mask), alive_path,
                   row_group_size=128)
    fresh_dir = str(tmp / "fresh_idx")
    fsum = build_index(alive_path, fresh_dir, cfg, CODE_CORPUS)
    assert fsum["n_docs"] == csum["n_docs"]
    assert fsum["n_postings"] == csum["n_postings"]

    # byte-identical segments and global lexicon partitions
    segs = sorted(d for d in os.listdir(fresh_dir) if d.startswith("db_"))
    assert segs == sorted(d for d in os.listdir(out) if d.startswith("db_"))
    for d in segs:
        assert filecmp.cmp(os.path.join(fresh_dir, d, "terms.parquet"),
                           os.path.join(out, d, "terms.parquet"),
                           shallow=False), d
    assert filecmp.cmp(term_df_path(fresh_dir), term_df_path(out),
                       shallow=False)
    with open(os.path.join(fresh_dir, "global", "metadata.json")) as f:
        fm = json.load(f)
    with open(os.path.join(out, "global", "metadata.json")) as f:
        cm = json.load(f)
    for k in ("n_docs", "sum_doclen", "avgdl", "n_terms_global"):
        assert fm[k] == cm[k], k

    # stats CONVERGED (unlike the tombstone serving view) and no
    # tombstone file came along
    assert cm["n_docs"] < summary["n_docs"]
    assert load_tombstones(out) == []

    # identical ranking, and deleted docs gone
    ce = QueryEngine(out, use_actors=False, cfg=cfg)
    fe = QueryEngine(fresh_dir, use_actors=False, cfg=cfg)
    for q in ("hash index query search", "merge merge merge sort",
              "naïve café"):
        for mode in ("daat", "bmm"):
            a = ce.search(q, k=10, mode=mode)
            b = fe.search(q, k=10, mode=mode)
            assert [(r[1], round(r[2], 12)) for r in a] \
                == [(r[1], round(r[2], 12)) for r in b], (q, mode)
            assert not ({r[1] for r in a} & dead), (q, mode)

    rep = fsck_index(out, deep=True)
    assert rep["ok"], rep["errors"]

    # resume: a rerun is pure cache hits (terms.parquet untouched)
    mt = os.path.getmtime(os.path.join(out, segs[0], "terms.parquet"))
    csum2 = compact_index(src, out)
    assert csum2["n_docs"] == csum["n_docs"]
    assert os.path.getmtime(
        os.path.join(out, segs[0], "terms.parquet")) == mt


def test_compact_all_tombstoned_raises(ray_session, tmp_path_factory):
    """Compacting an index whose every doc is tombstoned has nothing to
    build: it raises a ValueError naming the cause before it writes
    out_dir."""
    import os

    from searchenginepp_ray.index.build import compact_index
    from searchenginepp_ray.index.tombstone import delete_docs

    tmp = tmp_path_factory.mktemp("compact_all_dead")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 50, seed=3, rows_per_group=16)
    src = str(tmp / "idx")
    build_index(corpus_path, src, BuildConfig(docs_per_segment=20),
                CODE_CORPUS)
    t = pq.read_table(corpus_path)
    delete_docs(src, [docno_of(r, p, c) for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())])
    out = str(tmp / "compacted")
    with pytest.raises(ValueError, match="no live documents"):
        compact_index(src, out)
    assert not os.path.exists(out)


def test_termless_corpus_builds_and_serves_empty(ray_session,
                                                 tmp_path_factory):
    """Documents that normalize to no terms (stopwords, blanks) build an
    index with an empty global lexicon that answers every mode with no
    hits."""
    import json
    import os

    import pyarrow as pa

    from searchenginepp_ray.sources.parquet_corpus import DOCUMENTS_CORPUS

    tmp = tmp_path_factory.mktemp("termless")
    corpus_path = str(tmp / "corpus.parquet")
    pq.write_table(pa.table({"doc_id": ["1", "2", "3"],
                             "text": ["the a an", "and the of", "  "]}),
                   corpus_path)
    out_dir = str(tmp / "idx")
    summary = build_index(corpus_path, out_dir, BuildConfig(),
                          DOCUMENTS_CORPUS)
    assert summary["n_docs"] == 3
    assert summary["n_terms_global"] == 0
    assert summary["n_postings"] == 0
    with open(os.path.join(out_dir, "global", "metadata.json")) as f:
        assert json.load(f)["n_terms_global"] == 0
    eng = QueryEngine(out_dir, use_actors=False)
    queries = ["the a an", "hash sort", "hash -of"]
    for mode in ("daat", "daat_conj", "bmm", "boolean"):
        assert eng.search_batch(queries, k=5, mode=mode) == [[], [], []], mode


def test_actor_pool_survives_worker_kill(built, tmp_path_factory):
    """Serving fault tolerance: the segment actors are read-once views
    of the on-disk index, spawned with max_restarts/max_task_retries,
    so killing a worker mid-service must not change any answer — Ray
    restarts it (re-running __init__, reloading its segments) and the
    next query's method call retries transparently."""
    import ray

    summary, oracle, engine = built
    aeng = QueryEngine(engine.index_dir, use_actors=True, num_workers=2,
                       num_cpus_per_actor=0.1)
    q = "hash sort merge"
    assert aeng.use_actors is True and len(aeng.workers) == 2
    before = aeng.search(q, k=10)
    assert before == engine.search(q, k=10)
    ray.kill(aeng.workers[0], no_restart=False)
    after = aeng.search(q, k=10)
    assert after == before
    # and a second kill of the other worker, same contract
    ray.kill(aeng.workers[-1], no_restart=False)
    assert aeng.search(q, k=10) == before
    for w in aeng.workers:
        ray.kill(w, no_restart=True)


def test_search_after_pages_equal_global_slice(built):
    """Walking pages with (score, docid) cursors must reproduce the
    global ranking exactly — page p == oracle top-(p·k) sliced — and a
    short page must end the walk (empty page after it)."""
    _, oracle, engine = built
    k = 4
    for q in QUERIES:
        terms = engine.normalize_query(q)
        deep = oracle.query(terms, 10_000, conj=False, scorer="bm25")
        page = engine.search_batch([terms], k=k, mode="bmm")[0]
        served = list(page)
        while len(page) == k:
            cur = (page[-1][2], page[-1][0])
            page = engine.search_after_batch([terms], k=k, cursors=[cur])[0]
            served.extend(page)
        _assert_same(served, deep)
        # nothing follows the final short page
        if served and len(served) % k != 0:
            cur = (served[-1][2], served[-1][0])
            assert engine.search_after_batch([terms], k=k,
                                             cursors=[cur])[0] == []
        # a None cursor (short previous page) serves an empty page
        assert engine.search_after_batch([terms], k=k,
                                         cursors=[None])[0] == []


def test_search_explain_decomposition(built):
    """Per-term contributions must equal the scalar oracle's per-term
    scores and sum (in sorted-term order) exactly to the ranked score."""
    _, oracle, engine = built
    k = 5
    top, expl = engine.search_explain_batch(QUERIES, k=k, mode="daat")
    assert any(len(e) for e in expl)
    for q, results, contribs in zip(QUERIES, top, expl):
        terms = engine.normalize_query(q)
        per_doc = {}
        for docid, term, c in contribs:
            assert term in terms
            per_doc.setdefault(docid, []).append((term, c))
        for docid, docno, score in results:
            if docid not in per_doc:
                # every matching term has idf == 0 (df == N): score 0.0,
                # zero contributions dropped on both engines
                assert score == 0.0
                continue
            parts = sorted(per_doc[docid])  # sorted-term addition order
            total = 0.0
            for term, c in parts:
                tf = dict(oracle.postings[term])[docid]
                want = oracle.score_one(term, tf, docid, "bm25")
                assert c == pytest.approx(want, rel=1e-12, abs=1e-12)
                total += c
            # idf-0 terms contribute exactly 0.0, so the partial sum
            # still equals the ranked score — EXACTLY: DAAT ranks in the
            # same sorted-term addition order the explain pass sums in
            assert total == score


def test_hit_counts_match_oracle(built):
    """Exact OR/AND hit counts == the scalar oracle's candidate sets,
    across present/missing/empty-normalization queries."""
    _, oracle, engine = built
    counts = engine.search_count_batch(QUERIES)
    for q, (got_or, got_and) in zip(QUERIES, counts):
        terms = [t for t in engine.normalize_query(q)]
        docs_or = set()
        docs_and = None
        for t in terms:
            posts = {d for d, _ in oracle.postings.get(t, [])}
            docs_or |= posts
            if t not in oracle.postings:
                docs_and = set()
            elif docs_and is None:
                docs_and = set(posts)
            elif docs_and:
                docs_and &= posts
        assert got_or == len(docs_or), q
        assert got_and == len(docs_and or set()), q


def test_serving_survives_actor_kill(built):
    """ST3 fault tolerance: worker actors are pure read-once views of
    the on-disk segments with max_restarts=-1 / max_task_retries=-1
    (engine.py), so killing a worker mid-service must be invisible —
    the restarted actor reloads identical state and the next batch
    returns bit-identical results."""
    import ray

    from searchenginepp_ray.index.engine import QueryEngine

    summary, _, _ = built
    eng = QueryEngine(summary["out_dir"], use_actors=True, num_workers=2,
                      cfg=BuildConfig(docs_per_segment=300))
    try:
        assert eng.use_actors is True and len(eng.workers) == 2
        before = eng.search_batch(QUERIES, k=K, mode="bmm")
        ray.kill(eng.workers[0], no_restart=False)
        after = eng.search_batch(QUERIES, k=K, mode="bmm")
        assert after == before
        # and a second kill of the OTHER worker during steady state
        ray.kill(eng.workers[-1], no_restart=False)
        assert eng.search_batch(QUERIES, k=K, mode="daat") == \
            eng.search_batch(QUERIES, k=K, mode="daat")
    finally:
        for w in eng.workers:
            ray.kill(w, no_restart=True)


def test_global_stage_is_replay_safe(ray_session, tmp_path_factory):
    """Ray retries a lost stage-2 task and a crashed build reruns the
    stage: re-running ``_global_stage`` over an existing global/ must
    leave every file byte-identical."""
    import json
    import os

    from searchenginepp_ray.index.build import _global_stage
    from searchenginepp_ray.index.engine import list_segment_dirs

    tmp = tmp_path_factory.mktemp("replay")
    corpus_path = str(tmp / "corpus.parquet")
    write_corpus(corpus_path, 200, seed=5, rows_per_group=32)
    cfg = BuildConfig(docs_per_segment=64)
    idx = str(tmp / "idx")
    build_index(corpus_path, idx, cfg, CODE_CORPUS)

    gdir = os.path.join(idx, "global")

    def snap(root):
        out = {}
        for dirpath, _, names in os.walk(root):
            for n in names:
                p = os.path.join(dirpath, n)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, root)] = f.read()
        return out

    before = snap(gdir)
    assert sorted(before) == ["metadata.json", "term_df.parquet"]
    with open(os.path.join(gdir, "metadata.json")) as f:
        meta = json.load(f)
    _global_stage(list_segment_dirs(idx), gdir, meta["n_docs"], cfg,
                  meta["lineage_key"])
    after = snap(gdir)
    assert set(before) == set(after)
    for k in before:
        assert before[k] == after[k], f"replay changed global/{k}"


def test_candidate_set_is_every_matched_doc(ray_session, tmp_path):
    """Which docs are candidates, pinned on every accumulator path.
    ``common`` is in every doc (idf 0), so a doc matching only it scores
    0.0 and is still a candidate; a doc matching no query term is not;
    a conjunction with a term missing here is empty. Every mode equals
    the scalar oracle and the others: plain, tombstoned with
    search-after cursors, filtered, boolean with a negated term, and
    query likelihood."""
    import shutil

    import pyarrow as pa

    from searchenginepp_ray.config import SIMPLE_PROFILE
    from searchenginepp_ray.index.tombstone import delete_docs
    from searchenginepp_ray.sources.parquet_corpus import DOCUMENTS_CORPUS

    n, k = 48, 10
    rare, pair, first = {3, 17, 30}, {3, 30, 40}, {1, 2}
    texts, langs = [], []
    for i in range(n):
        words = ["common"] + ["filler"] * (i % 3)
        words += ["rare"] * (i in rare) + ["pair"] * ((1 + i % 2) * (i in pair))
        words += ["segone"] * (i in first)
        texts.append(" ".join(words))
        langs.append("es" if i % 2 else "en")
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(1000, 1000 + n), pa.int64()),
                             "text": texts, "lang": langs}), src)
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=24)
    idx = str(tmp_path / "idx")
    build_index(src, idx, cfg, DOCUMENTS_CORPUS)
    oracle = OracleIndex([(str(1000 + i), t) for i, t in enumerate(texts)],
                         SIMPLE_PROFILE)
    assert oracle.idf("common") == 0.0

    dead_rows = {0, 3, 5, 17, 20, 33}
    tidx = str(tmp_path / "tomb")
    shutil.copytree(idx, tidx)
    delete_docs(tidx, [str(1000 + i) for i in dead_rows])

    def engine(path):
        eng = QueryEngine(path, use_actors=False, cfg=cfg)
        assert sum(len(w.searchers) for w in eng.workers) == 2
        for w in eng.workers:
            for s in w.searchers:
                s.maxscore_min_docs = 0  # bmm takes the Maxscore path
        return eng

    plain, tomb = engine(idx), engine(tidx)
    # docids are 1-based row positions; tombstones keep the statistics
    views = ((set(), plain), ({i + 1 for i in dead_rows}, tomb))

    def want(gone, terms, kk, conj=False, keep=lambda d: True):
        rows = oracle.query(terms, 10_000, conj=conj)
        return [r for r in rows if r[0] not in gone and keep(r[0])][:kk]

    queries = [["common"], ["common", "rare"], ["rare"], ["pair", "rare"],
               ["common", "segone"], ["common", "zzzmissing"]]
    for gone, eng in views:
        for terms in queries:
            for kk in (k, 100):
                daat = eng.search(terms, kk, mode="daat")
                _assert_same(daat, want(gone, terms, kk))
                assert eng.search(terms, kk, mode="bmm") == daat
                _assert_same(eng.search(terms, kk, mode="daat_conj"),
                             want(gone, terms, kk, conj=True))
    # fewer than k docs score > 0: the rest are idf-0 matches at 0.0
    got = plain.search(["common", "rare"], k, mode="daat")
    assert [r[2] > 0 for r in got] == [True] * 3 + [False] * (k - 3)
    assert [r[2] for r in plain.search(["common"], k, mode="daat_conj")] \
        == [0.0] * k
    # a missing term empties a conjunction, in both segments and in one
    assert plain.search(["common", "zzzmissing"], k, mode="daat_conj") == []
    assert [r[0] - 1 for r in plain.search(["common", "segone"], 100,
                                           mode="daat_conj")] == sorted(first)

    # search-after pages over the tombstoned index == the alive slice
    for terms in (["common"], ["common", "rare"], ["pair", "rare"]):
        page = tomb.search_batch([terms], k=4, mode="bmm")[0]
        served = list(page)
        while len(page) == 4:
            cur = (page[-1][2], page[-1][0])
            page = tomb.search_after_batch([terms], k=4, cursors=[cur])[0]
            served.extend(page)
        _assert_same(served, want(views[1][0], terms, 10_000))

    # filtered: the predicate mask restricts candidates, scores unchanged
    lang_of = {i + 1: lang for i, lang in enumerate(langs)}
    for gone, eng in views:
        for value in ("es", "en"):
            qs = queries[:4]
            by_mode = {mode: eng.search_batch_filtered(
                qs, k, column="lang", value=value, src_path=src, mode=mode)
                for mode in ("daat", "bmm")}
            assert by_mode["daat"] == by_mode["bmm"]
            for terms, got in zip(qs, by_mode["daat"]):
                _assert_same(got, want(gone, terms, k,
                                       keep=lambda d: lang_of[d] == value))

    # boolean: MUST terms conjunctive, MUST-NOT docs removed, the
    # survivors ranked by the positive terms only (0.0 for ``common``)
    has_rare = {i + 1 for i in rare}
    for gone, eng in views:
        for pos in (["common"], ["pair"]):
            for kk in (k, 100):
                got = eng.search(pos + ["-rare"], kk, mode="boolean")
                _assert_same(got, want(gone, pos, kk, conj=True,
                                       keep=lambda d: d not in has_rare))
    assert [r[2] for r in plain.search(["common", "-rare"], k,
                                       mode="boolean")] == [0.0] * k

    # query likelihood: the same disjunctive candidate set
    for gone, eng in views:
        for kk in (k, 100):
            for terms, got in zip(queries, eng.search_lm_batch(queries, k=kk)):
                rows = oracle.query_lm(terms, 10_000)
                _assert_same(got, [r for r in rows if r[0] not in gone][:kk])


def test_scorer_name_bm25_serves_the_index_constants(ray_session, tmp_path):
    """A per-call ``scorer_name="bm25"`` scores with the k1/b the index
    was built with, the constants its sigmas and block bounds assume:
    on an index built with non-default constants every entry point
    answers exactly as with the default scorer, per query and batched."""
    corpus_path = str(tmp_path / "corpus.parquet")
    write_corpus(corpus_path, N_DOCS, seed=42, rows_per_group=128)
    cfg = BuildConfig(docs_per_segment=N_DOCS, bm25_k1=0.3, bm25_b=0.9)
    out_dir = str(tmp_path / "index")
    build_index(corpus_path, out_dir, cfg, CODE_CORPUS)
    engine = QueryEngine(out_dir, use_actors=False, cfg=cfg)
    for w in engine.workers:
        for s in w.searchers:
            s.maxscore_min_docs = 0  # bmm takes the Maxscore path

    for mode in ("daat", "bmm", "daat_conj"):
        want = engine.search_batch(QUERIES, K, mode)
        assert repr(engine.search_batch(QUERIES, K, mode,
                                        scorer_name="bm25")) == repr(want)
        for q, w in zip(QUERIES, want):
            assert repr(engine.search(q, K, mode, scorer_name="bm25")) \
                == repr(w)

    page1 = engine.search_batch(QUERIES, 5, mode="daat")
    cursors = [(r[-1][2], r[-1][0]) if len(r) == 5 else None for r in page1]
    assert repr(engine.search_after_batch(QUERIES, 5, cursors,
                                          scorer_name="bm25")) \
        == repr(engine.search_after_batch(QUERIES, 5, cursors))
    assert repr(engine.search_explain_batch(QUERIES, 5, mode="daat",
                                            scorer_name="bm25")) \
        == repr(engine.search_explain_batch(QUERIES, 5, mode="daat"))


def test_kth_lower_bound_keeps_the_top_k():
    """``_kth_lower_bound(a, k)`` never exceeds the k-th largest value
    and at least k elements reach it, so ``a >= bound`` keeps the exact
    top k with its ties: on tie-heavy, zero-heavy and negative arrays,
    around the lengths where the group layout changes (4k, 8k), at
    16,384 and at lengths that are no multiple of 128. On distinct
    values it is tight: fewer than 2k elements survive."""
    from searchenginepp_ray.index.searcher import _kth_lower_bound

    rng = np.random.default_rng(24)
    shapes = {
        "distinct": lambda n: rng.permutation(n) * 0.5 + 1.0,
        "levels": lambda n: rng.integers(0, 4, n).astype(np.float64),
        "zeros": lambda n: np.where(rng.random(n) < 0.9, 0.0, rng.random(n)),
        "negative": lambda n: rng.normal(-3.0, 1.0, n),
    }
    for k in (1, 10, 20):
        for n in (4 * k - 1, 4 * k, 8 * k - 1, 8 * k, 8 * k + 1, 16_384,
                  16_384 + 77, 1_000):
            for shape, make in shapes.items():
                a = make(n)
                for kk in (min(k, n), n):
                    bound = _kth_lower_bound(a, kk)
                    kth = np.sort(a)[::-1][kk - 1]
                    survivors = int((a >= bound).sum())
                    assert bound <= kth and survivors >= kk, (shape, n, kk)
                    if shape == "distinct" and kk < n:
                        assert survivors < 2 * kk, (n, kk, survivors)
    assert _kth_lower_bound(np.zeros(500), 10) == 0.0


def test_topk_equals_full_lexsort(built):
    """``_topk`` (threshold prefilter, then a sort of the survivors)
    returns exactly the first k of a full (score desc, docid asc)
    lexsort, ties and negative scores included."""
    _, _, engine = built
    s = engine.workers[0].searchers[0]
    rng = np.random.default_rng(5)
    n = s.n_docs_seg
    for trial in range(40):
        m = int(rng.integers(1, n + 1))
        ids = np.sort(rng.choice(n, m, replace=False)).astype(np.int64)
        scores = [rng.random(m), rng.integers(0, 3, m).astype(np.float64),
                  rng.normal(size=m), np.zeros(m)][trial % 4]
        for k in (1, 10, 20, m):
            order = np.lexsort((ids, -scores))[:k]
            want = [(int(ids[j]) + s.base_docid, s.docnos[int(ids[j])].as_py(),
                     float(scores[j])) for j in order]
            assert repr(s._topk(ids, scores, k)) == repr(want), (trial, k)


def test_rarest_first_conjunction_matches_oracle(built, tmp_path_factory):
    """``daat_conj`` and ``boolean`` start from the shortest list. For
    queries whose rarest term sorts last, both equal the scalar oracle
    in every mode (BM25 and TF-IDF, per query and batched, plain and
    tombstoned), and every score is the disjunctive DAAT's double for
    the same doc: the contributions add in lexicographic term order,
    not in df order. A search-after walk over the tombstoned index
    equals the alive slice of the oracle."""
    import shutil

    from searchenginepp_ray.index.tombstone import delete_docs

    _, oracle, engine = built
    df = oracle.df
    common = sorted(t for t in df if 400 <= df[t] < oracle.n_docs)
    rare = sorted((t for t in df if 100 <= df[t] <= 220), reverse=True)[:8]
    queries = []
    for i, r in enumerate(rare):
        lower = [c for c in common if c < r]
        higher = [c for c in common if c > r]
        queries.append([lower[i % len(lower)], r])
        queries.append(lower[:2] + [r])
        if higher:  # the rarest term in the middle
            queries.append([lower[-1], r, higher[0]])
    assert len(queries) >= 8
    for q in queries:
        assert min(q, key=lambda t: df[t]) != sorted(q)[0]
    assert any(oracle.query(q, 10, conj=True) for q in queries)

    tidx = str(tmp_path_factory.mktemp("conj_tomb") / "idx")
    shutil.copytree(engine.index_dir, tidx)
    gone = set(range(1, oracle.n_docs + 1, 3))
    delete_docs(tidx, [oracle.docno[d] for d in gone])
    tomb = QueryEngine(tidx, use_actors=False)
    assert tomb.workers[0].searchers[0]._alive_mask is not None

    def deep(eng, q, mode, scorer_name=None):
        return {r[0]: r[2] for r in eng.search(q, 10_000, mode=mode,
                                                scorer_name=scorer_name)}

    for eng, dead in ((engine, set()), (tomb, gone)):
        for scorer in ("bm25", "tfidf"):
            for q in queries:
                want = [r for r in oracle.query(q, 10_000, conj=True,
                                                scorer=scorer)
                        if r[0] not in dead]
                got = eng.search(q, K, mode="daat_conj", scorer_name=scorer)
                _assert_same(got, want[:K])
                disj = deep(eng, q, "daat", scorer)
                conj = deep(eng, q, "daat_conj", scorer)
                assert [conj[d] == disj[d] for d in conj] == [True] * len(conj)
        batch = eng.search_batch(queries, K, mode="daat_conj")
        assert batch == [eng.search(q, K, mode="daat_conj") for q in queries]
        # boolean: the same conjunction, minus the docs of a negated term
        for q in queries:
            neg = common[-1] if common[-1] not in q else common[-2]
            banned = {d for d, _ in oracle.postings[neg]}
            want = [r for r in oracle.query(q, 10_000, conj=True)
                    if r[0] not in dead | banned]
            _assert_same(eng.search(q + ["-" + neg], K, mode="boolean"),
                         want[:K])
            assert repr(eng.search(q, K, mode="boolean")) \
                == repr(eng.search(q, K, mode="daat_conj"))

    for q in queries[:4]:
        want = [r for r in oracle.query(q, 10_000) if r[0] not in gone]
        page = tomb.search(q, 5, mode="daat")
        served = list(page)
        while len(page) == 5:
            page = tomb.search_after_batch([q], k=5, cursors=[
                (page[-1][2], page[-1][0])])[0]
            served.extend(page)
        _assert_same(served, want)
