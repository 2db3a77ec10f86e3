"""Flagship search pipeline over the ``documents`` table: build the full
inverted index (Ray Data pipeline) and serve BM25/TF-IDF top-k through the
segment engine.

Two profiles:

- SIMPLE (stemming/latin1 off) — every token survives, so document
  frequency, doclen and the complete BM25/TF-IDF scoring are expressible
  in ANSI SQL: the DuckDB oracle checks the *whole engine end-to-end*
  (build → encode → decode → score → top-k).
- FULL (reference CI profile) — checked by the pure-Python oracle in
  pytest (stemming is not SQL-expressible).

Indexes are cached under /tmp keyed by (sf_dir, profile, params) via the
build pipeline's own checkpoint markers, so repeated ``queries()`` calls
re-use the built index.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import BuildConfig, FULL_PROFILE, SIMPLE_PROFILE
from ..index.build import (build_index, read_global_term_df, read_metadata,
                           term_df_path)
from ..index.engine import QueryEngine
from ..sources.parquet_corpus import DOCUMENTS_CORPUS
from .agg import round6_half_up

#: fixed query set for the documents corpus (vocabulary from the driver's
#: synthetic documents table)
DOC_QUERIES = [
    "table scan filter join",
    "spark window agg",
    "key value hash merge sort",
    "customer query row",
]

#: phrase queries shared verbatim with the SQL oracle — plain word
#: sequences under the WORD_SPLIT tokenization (no regex metachars).
#: Mix of lengths (1/2/3/4 words) plus a guaranteed zero-hit phrase so
#: the empty path is oracle-pinned too. Served from the positional index
#: here and by the corpus scan ``filters.phrase_search``.
PHRASE_QUERIES = (
    "spark",
    "table table",
    "value fast",
    "scan query big",
    "window stream sort query",
    "zebra stripes never occur",
)

#: one serving engine per index directory, started on first use
_ENGINES: dict[str, QueryEngine] = {}


def _cfg(simple: bool) -> BuildConfig:
    return BuildConfig(
        profile=SIMPLE_PROFILE if simple else FULL_PROFILE,
        docs_per_segment=200,  # several segments even at sf0.001
    )


def _index_dir(sf_dir: str, cfg: BuildConfig) -> str:
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}:{cfg.params_id}".encode()).hexdigest()[:12]
    return os.path.join("/tmp", "seppray_index_cache", key)


def _serve(out_dir: str, cfg: BuildConfig, prepare) -> QueryEngine:
    """The one engine serving the index at ``out_dir``: on first use
    ``prepare()`` materializes the index (each stage is a cache hit on
    a warm ``/tmp``) and the engine starts; later calls, whatever their
    scorer, reuse it (a per-call ``scorer_name`` picks TF-IDF).

    Production shape: bounded actor pool, each actor owns a shard of
    segments; tests exercise use_actors=False via QueryEngine directly.
    Fractional num_cpus: serving actors are idle between queries and
    must not starve batch stages that run in the same session (an
    engine pinned to whole CPUs deadlocks later actor-pool stages)."""
    eng = _ENGINES.get(out_dir)
    if eng is None:
        prepare()
        eng = QueryEngine(out_dir, use_actors=True, num_workers=4,
                          num_cpus_per_actor=0.25, cfg=cfg)
        _ENGINES[out_dir] = eng
    return eng


def _documents_engine(sf_dir: str, cfg: BuildConfig) -> QueryEngine:
    """Engine over the documents corpus built under ``cfg``."""
    out_dir = _index_dir(sf_dir, cfg)
    return _serve(out_dir, cfg, lambda: build_index(
        f"{sf_dir}/documents.parquet", out_dir, cfg, DOCUMENTS_CORPUS))


def get_engine(sf_dir: str, simple: bool = True) -> QueryEngine:
    return _documents_engine(sf_dir, _cfg(simple))


def get_positional_engine(sf_dir: str) -> QueryEngine:
    """Engine over a POSITIONAL build of the documents corpus
    (``BuildConfig(positions=True)`` — per-posting occurrence positions
    in a VarByte sidecar). The positions flag is part of ``params_id``,
    so this index caches beside, never over, the plain one."""
    from dataclasses import replace

    return _documents_engine(sf_dir, replace(_cfg(simple=True),
                                            positions=True))


def search_phrase_indexed(sf_dir: str) -> pd.DataFrame:
    """Exact phrase retrieval THROUGH THE INDEX: every doc containing
    each query phrase as consecutive normalized tokens, with overlapping
    occurrence counts — same contract and output schema as the
    scan-based :func:`..filters.phrase_search`, but served from the
    positional sidecar (postings ∩ + position-adjacency intersection)
    instead of a corpus scan: decode cost is the phrase terms' postings
    + positions, never the corpus. The right plan once query volume
    amortizes the positional build; the scan stays right for ad-hoc
    sweeps. Returns (query, doc_id, n) sorted by (query, doc_id)."""
    eng = get_positional_engine(sf_dir)
    hits = eng.phrase_search_batch(list(PHRASE_QUERIES))
    rows = [
        (q, int(docno), int(n))
        for q, per in zip(PHRASE_QUERIES, hits)
        for docno, n in per
    ]
    rows.sort()
    return pd.DataFrame({
        "query": pd.Series([r[0] for r in rows], dtype=object),
        "doc_id": pd.Series([r[1] for r in rows], dtype=np.int64),
        "n": pd.Series([r[2] for r in rows], dtype=np.int64),
    })


#: wildcard gate queries: term prefixes — "s" expands to several terms
#: (scan slow sort spark small stream...), "zz" to none
WILDCARD_QUERIES = ("s", "va", "qu", "zz")


def expand_prefix(index_dir: str, prefix: str,
                  cap: int = 1024) -> list[str]:
    """All index vocabulary terms starting with ``prefix``, resolved
    from the global lexicon with one filtered read (the lexicon is
    term-sorted, so parquet row-group statistics prune the scan to the
    prefix range). Capped: a prefix expanding past ``cap`` terms is a
    user error at any corpus size (classic engines refuse it rather
    than scoring the vocabulary)."""
    import pyarrow.dataset as pads

    if not prefix:
        raise ValueError("empty wildcard prefix")
    hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    t = read_global_term_df(index_dir, ["term"],
                            filter=(pads.field("term") >= prefix)
                            & (pads.field("term") < hi))
    if len(t) > cap:
        raise ValueError(
            f"wildcard {prefix!r}* expands to {len(t)} terms (cap {cap})")
    return sorted(t["term"].to_pylist())


def search_wildcard(sf_dir: str, k: int = 10, mode: str = "daat",
                    prefixes: tuple = WILDCARD_QUERIES) -> pd.DataFrame:
    """Wildcard (prefix) retrieval: each query ``p*`` expands against
    the index's own global lexicon (one pruned read of the sorted
    lexicon file — never the corpus) and the expansion runs as a
    standard disjunctive query: score = Σ over matched vocabulary terms
    of BM25. Returns (query_id, rank, doc_id, score)."""
    eng = get_engine(sf_dir)
    tok_lists = [expand_prefix(eng.index_dir, p) for p in prefixes]
    return _to_frame(eng.search_batch(tok_lists, k=k, mode=mode))


#: fuzzy gate queries: misspelled words (1-edit from corpus vocabulary);
#: "qzx" can never expand (vocabulary miss, empty result)
FUZZY_SEARCH_QUERIES = ("tble scann", "sprk windoww", "vale merge", "qzx")


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute) — the same
    metric as DuckDB's ``levenshtein()``. Only runs on SymSpell
    CANDIDATES (a handful per query), never the whole vocabulary."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _deletes1(s: str) -> set[str]:
    """The SymSpell distance-1 deletion neighborhood of ``s``, plus
    ``s`` itself."""
    return {s[: i] + s[i + 1:] for i in range(len(s))} | {s}


def fuzzy_hits_batch(terms: pa.Array, queries: tuple[str, ...],
                     qdel: dict[str, set[str]], probe_arr: pa.Array,
                     max_dist: int) -> tuple[list[str], list[int], list[int]]:
    """The SymSpell per-batch kernel shared by the lexicon matcher
    (:func:`lexicon_fuzzy_hits`) and ``text_stats.fuzzy_term_match``:
    candidate terms via ``maxlen`` vectorized deletion-key probes
    against the broadcast set, exact DP verification on candidates
    only. Returns parallel (query, term row index, distance) hit
    lists."""
    lens = np.asarray(pc.utf8_length(terms)).astype(np.int64)
    maxlen = int(lens.max()) if len(lens) else 0
    # candidate mask: term itself, or any single-deletion variant,
    # hits the broadcast deletion-key set
    cand = np.asarray(pc.is_in(terms, value_set=probe_arr))
    for i in range(maxlen):
        dele = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(terms, 0, i),
            pc.utf8_slice_codeunits(terms, i + 1, np.iinfo(np.int32).max),
            "")
        hit = np.asarray(pc.is_in(dele, value_set=probe_arr))
        cand |= hit & (lens > i)
    out_q: list[str] = []
    out_i: list[int] = []
    out_d: list[int] = []
    for i in np.flatnonzero(cand):
        term = terms[int(i)].as_py()
        tdel = _deletes1(term)
        for q in queries:
            if tdel.isdisjoint(qdel[q]):
                continue
            d = _levenshtein(q, term)
            if d <= max_dist:
                out_q.append(q)
                out_i.append(int(i))
                out_d.append(d)
    return out_q, out_i, out_d


def lexicon_fuzzy_hits(index_dir: str, words: list[str],
                       max_dist: int = 1) -> pd.DataFrame:
    """(query, term, df, dist) for every index-vocabulary term within
    edit distance ``max_dist`` of a query word, resolved by STREAMING
    the global lexicon through the SymSpell deletion-neighborhood
    matcher (:func:`fuzzy_hits_batch`): the query side ships as a tiny
    broadcast set of deletion keys riding the task closure; the
    vocabulary side is one ``map_batches`` over the term-sorted lexicon
    file reading only its ``(term, df)`` columns; only matched terms
    return (a bounded handful per word, never vocabulary-sized)."""
    import ray.data as rd

    qdel = {w: _deletes1(w) for w in words}
    probe_arr = pa.array(sorted(frozenset().union(*qdel.values())),
                         pa.string())
    wtup = tuple(words)

    def match(t):
        terms = t["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        out_q, out_i, out_d = fuzzy_hits_batch(terms, wtup, qdel,
                                               probe_arr, max_dist)
        hit = t.take(pa.array(out_i, pa.int64()))
        return pa.table({"query": pa.array(out_q, pa.string()),
                         "term": hit["term"], "df": hit["df"],
                         "dist": pa.array(out_d, pa.int64())})

    hits = rd.read_parquet(term_df_path(index_dir), columns=["term", "df"]) \
        .map_batches(match, batch_format="pyarrow").to_pandas()
    # an expansion with zero hits can come back schema-less
    if "term" not in hits.columns:
        return pd.DataFrame(columns=["query", "term", "df", "dist"])
    return hits


def expand_fuzzy(index_dir: str, words: list[str],
                 max_dist: int = 1, cap: int = 1024) -> list[str]:
    """Union of index-vocabulary terms within edit distance ``max_dist``
    of any query word (:func:`lexicon_fuzzy_hits` over the global
    lexicon). Capped like wildcard expansion: past ``cap`` terms is a
    user error."""
    words = sorted({w for w in words if w})
    if not words:
        raise ValueError("empty fuzzy query")
    terms = sorted(set(lexicon_fuzzy_hits(index_dir, words, max_dist)["term"]))
    if len(terms) > cap:
        raise ValueError(
            f"fuzzy query {words!r} expands to {len(terms)} terms (cap {cap})")
    return terms


def search_fuzzy(sf_dir: str, k: int = 10, mode: str = "bmm",
                 queries: tuple = FUZZY_SEARCH_QUERIES,
                 max_dist: int = 1) -> pd.DataFrame:
    """Spell-tolerant retrieval: each query's words expand to every
    index-vocabulary term within edit distance ``max_dist`` (SymSpell
    deletion-neighborhood streaming over the global lexicon — never a
    corpus touch), and the union expansion runs as a
    standard disjunctive query: score = Σ BM25 over matched vocabulary
    terms. Returns
    (query_id, rank, doc_id, score)."""
    eng = get_engine(sf_dir)
    tok_lists = [expand_fuzzy(eng.index_dir, q.split(), max_dist)
                 for q in queries]
    return _to_frame(eng.search_batch(tok_lists, k=k, mode=mode))


def search_bm25_prox(sf_dir: str, k: int = 10, n_cand: int = 30,
                     bonus: float = 0.5) -> pd.DataFrame:
    """Proximity-BOOSTED ranking (a sequential-dependence-flavoured
    re-rank): first pass takes the BM25 top-``n_cand`` candidates per
    query; for each candidate the positional sidecar yields the MINIMUM
    occurrence distance over any pair of distinct query terms
    co-occurring in it, and the final score is
    ``bm25 + bonus/(1 + min_dist)`` (no co-occurring pair → no boost).
    Docs where the query terms appear near each other outrank
    bag-of-words-equal docs.

    Scale shape: stage 2's traffic is candidate-sized both ways (the
    candidate docno lists ship to the segment actors; only matched
    (docno, min_dist) rows return); segment work per pair is
    posting-bounded, the same cost class as scoring the pair.
    Determinism: distances are exact ints, the boost divides the same
    two doubles on both engines, candidates and final ranks tie-break
    on doc_id. Returns (query_id, rank, doc_id, score) with the final
    score on the 6 dp grid."""
    from itertools import combinations

    eng = get_positional_engine(sf_dir)
    cands = eng.search_batch(DOC_QUERIES, k=n_cand, mode="bmm")
    pair_lists, docno_lists = [], []
    for q, res in zip(DOC_QUERIES, cands):
        terms = eng.normalize_query(q)
        pair_lists.append(list(combinations(terms, 2)))
        docno_lists.append([docno for _, docno, _ in res])
    mins = eng.prox_min_dists_batch(pair_lists, docno_lists)
    rows = []
    for qi, (res, m) in enumerate(zip(cands, mins)):
        scored = []
        for _, docno, s in res:
            d = m.get(docno)
            final = s + (bonus / (1 + d) if d is not None else 0.0)
            scored.append((int(docno), final))
        scored.sort(key=lambda r: (-r[1], r[0]))
        for rank, (doc_id, s) in enumerate(scored[:k], start=1):
            rows.append((qi, rank, doc_id,
                         float(round6_half_up(np.array([s]))[0])))
    return pd.DataFrame({
        "query_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "rank": pd.Series([r[1] for r in rows], dtype=np.int64),
        "doc_id": pd.Series([r[2] for r in rows], dtype=np.int64),
        "score": pd.Series([r[3] for r in rows], dtype=np.float64),
    })


#: proximity gate queries: (term_a, term_b, max token distance);
#: last pair can never match (vocabulary miss)
NEAR_QUERIES = (
    ("hash", "merge", 3),
    ("scan", "filter", 5),
    ("spark", "window", 2),
    ("vector", "stream", 4),
    ("zebra", "table", 3),
)


def search_near(sf_dir: str,
                queries: tuple = NEAR_QUERIES) -> pd.DataFrame:
    """Proximity (NEAR) retrieval through the positional index: for
    each (term_a, term_b, window) query, every doc where the terms
    co-occur within ``window`` tokens of each other, with the doc's
    minimum occurrence distance — the classic proximity operator the
    scan-based phrase family can't express without a full corpus pass.
    Decode cost is the two terms' postings + positions per query.
    Returns (query, doc_id, dist) sorted by (query, doc_id)."""
    eng = get_positional_engine(sf_dir)
    hits = eng.near_search_batch(list(queries))
    rows = [
        (f"{a} ~{w} {b}", int(docno), int(d))
        for (a, b, w), per in zip(queries, hits)
        for docno, d in per
    ]
    rows.sort()
    return pd.DataFrame({
        "query": pd.Series([r[0] for r in rows], dtype=object),
        "doc_id": pd.Series([r[1] for r in rows], dtype=np.int64),
        "dist": pd.Series([r[2] for r in rows], dtype=np.int64),
    })


def _to_frame(all_results) -> pd.DataFrame:
    rows = []
    for qi, results in enumerate(all_results):
        for rank, (docid, docno, score) in enumerate(results, start=1):
            rows.append(
                {
                    "query_id": qi,
                    "rank": rank,
                    "doc_id": int(docno),  # docno == str(doc_id) for this corpus
                    "score": round(score, 6),
                }
            )
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


#: "did you mean" inputs: pre-normalized token lists with planted typos
#: (shared verbatim with the SQL oracle). qzx has no vocabulary term
#: within edit distance 1 and must pass through uncorrected (matching
#: nothing); merge/buffer are exact vocabulary hits (distance-0 beats
#: any distance-1 candidate).
DYM_QUERIES = [
    ["tble", "scann", "filtr"],
    ["sprk", "windoww", "agg"],
    ["vale", "merge", "sortt"],
    ["qzx", "buffer", "queyr"],
]


def search_did_you_mean(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Spell-corrected retrieval ("did you mean" + search): each query
    token is replaced by its best vocabulary match within edit distance
    1 — min distance first (so exact hits correct to themselves), then
    max df, then term ASC — and the corrected query runs through the
    standard BM25 stack. The candidates and their df come from the
    index's own global lexicon (:func:`lexicon_fuzzy_hits`, the matcher
    :func:`search_fuzzy` expands with), never the corpus; ONE SQL
    statement value-checks the whole composition. Tokens with no
    candidate pass through uncorrected (they match nothing, like any
    unknown term).
    Reference parity: none (beyond-reference serving surface)."""
    eng = get_engine(sf_dir)
    tokens = sorted({t for q in DYM_QUERIES for t in q})
    # bounded collect: candidate rows only (a handful per token)
    cand = lexicon_fuzzy_hits(eng.index_dir, tokens)
    best: dict[str, str] = {}
    if len(cand):
        cand = cand.sort_values(
            ["query", "dist", "df", "term"],
            ascending=[True, True, False, True])
        best = dict(cand.groupby("query", sort=False).first()["term"])
    corrected = [[best.get(t, t) for t in q] for q in DYM_QUERIES]
    return _to_frame(eng.search_batch(corrected, k=k, mode="bmm"))


def search_topk(sf_dir: str, k: int = 10, mode: str = "daat",
                scorer: str = "bm25", simple: bool = True) -> pd.DataFrame:
    eng = get_engine(sf_dir, simple=simple)
    return _to_frame(eng.search_batch(DOC_QUERIES, k=k, mode=mode,
                                      scorer_name=scorer))


def search_bm25_page2(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Deep pagination (search-after): the SECOND page of BM25 results —
    ranks k+1..2k — fetched with a per-query (score, docid) cursor from
    page 1's last hit instead of a depth-2k retrieval. Rank-identical to
    slicing a global top-2k, but each segment's heap stays depth k at
    ANY page depth: the cursor excludes the served prefix inside the
    scoring pass (QueryEngine.search_after_batch). Queries whose page 1
    came back short produce an empty page 2 (nothing follows the end).
    Reference parity: none (beyond-reference serving surface)."""
    eng = get_engine(sf_dir)
    # page 1 via DAAT: the cursor compare is EXACT equality on doubles
    # and query_after scores page 2 with query_daat, so the cursor must
    # come from the same accumulation path — a 1-ulp difference at the
    # page boundary would duplicate or drop a boundary doc
    page1 = eng.search_batch(DOC_QUERIES, k=k, mode="daat")
    cursors = [(res[-1][2], res[-1][0]) if len(res) == k else None
               for res in page1]
    page2 = eng.search_after_batch(DOC_QUERIES, k=k, cursors=cursors)
    rows = []
    for qi, results in enumerate(page2):
        for i, (docid, docno, score) in enumerate(results):
            rows.append({"query_id": qi, "rank": k + 1 + i,
                         "doc_id": int(docno), "score": round(score, 6)})
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def search_hit_counts(sf_dir: str) -> pd.DataFrame:
    """Exact result counts per query, both OR and AND semantics — the
    "N results" display and the selectivity signal a query planner
    reads. No scoring, no top-k: per-segment candidate counting summed
    across disjoint docid ranges. Reference parity: none
    (beyond-reference serving surface)."""
    eng = get_engine(sf_dir)
    counts = eng.search_count_batch(DOC_QUERIES)  # one pass, both modes
    return pd.DataFrame({
        "query_id": np.arange(len(DOC_QUERIES), dtype=np.int64),
        "n_or": np.asarray([c[0] for c in counts], dtype=np.int64),
        "n_and": np.asarray([c[1] for c in counts], dtype=np.int64),
    })


def search_explain(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Score EXPLANATION: BM25 top-k with the per-term contribution
    breakdown of every hit's score (Lucene/ES "explain" shape) — the
    debugging/relevance-tuning surface of the serving stack. One row per
    (query, hit, matching term): (query_id, rank, doc_id, term,
    contribution, score); Σ contributions == score (same doubles the
    ranking pass summed). The explain pass re-touches ONLY the k hit
    docs per query (block-pruned gather on the segment actors).
    Reference parity: none (beyond-reference serving surface)."""
    eng = get_engine(sf_dir)
    top, expl = eng.search_explain_batch(DOC_QUERIES, k=k, mode="daat")
    rows = []
    for qi, (results, contribs) in enumerate(zip(top, expl)):
        rank_of = {docid: (rank, docno, score)
                   for rank, (docid, docno, score)
                   in enumerate(results, start=1)}
        for docid, term, c in contribs:
            rank, docno, score = rank_of[docid]
            rows.append({"query_id": qi, "rank": rank,
                         "doc_id": int(docno), "term": term,
                         "contribution": round(c, 6),
                         "score": round(score, 6)})
    return pd.DataFrame(rows, columns=[
        "query_id", "rank", "doc_id", "term", "contribution", "score"])


def search_lm_dirichlet(sf_dir: str, k: int = 10, mu: float = 2000.0) -> pd.DataFrame:
    """Dirichlet-smoothed query-likelihood retrieval served from the
    SAME binary index as BM25/TF-IDF (QueryEngine.search_lm_batch): the
    language-model scorer family the reference lacks, expressed as two
    scatter/gather phases over the segment actors. Oracle-checked
    end-to-end (the SQL recomputes tf/ctf/dl/T from the corpus and
    scores with the identical expression)."""
    eng = get_engine(sf_dir)
    return _to_frame(eng.search_lm_batch(DOC_QUERIES, k=k, mu=mu))


def index_stats(sf_dir: str, simple: bool = True) -> pd.DataFrame:
    """Global index invariants: n_docs, sum_doclen, distinct terms, total
    postings — each SQL-checkable under the simple profile."""
    import json

    eng = get_engine(sf_dir, simple=simple)
    out_dir = _index_dir(sf_dir, _cfg(simple))
    with open(os.path.join(out_dir, "summary.json")) as f:
        s = json.load(f)
    return pd.DataFrame(
        {
            "n_docs": [s["n_docs"]],
            "sum_doclen": [s["sum_doclen"]],
            "n_terms": [s["n_terms_global"]],
            "n_postings": [s["n_postings"]],
        }
    )


def index_term_df(sf_dir: str, simple: bool = True) -> pd.DataFrame:
    """Per-term document frequency read back *from the built segments*
    (sums per-segment df_local) — checks the posting lists themselves.
    Distributed: parallel column-pruned segment reads + a vocabulary-sized
    groupby (no driver-side loop over segments)."""
    import ray.data

    get_engine(sf_dir, simple=simple)
    out_dir = _index_dir(sf_dir, _cfg(simple))
    files = [
        os.path.join(out_dir, d, "terms.parquet")
        for d in sorted(os.listdir(out_dir))
        if d.startswith("db_")
    ]
    from .agg import hash_groupby_sum

    df = hash_groupby_sum(
        ray.data.read_parquet(files, columns=["term", "df_local"]),
        ["term"], {"df": ("df_local", "sum")},
    ).to_pandas()
    return df.astype({"df": "int64"}).sort_values("term").reset_index(drop=True)


def search_snippets(sf_dir: str, k: int = 10, mode: str = "bmm",
                    n_ctx: int = 3) -> pd.DataFrame:
    """BM25 top-k with deterministic hit highlighting: for each result
    doc, the 1-based token position of the FIRST occurrence of any query
    term and a ±``n_ctx``-token snippet around it — the search-result
    presentation layer (query → ranked hits → highlighted context).

    Scale shape: stage 1 is the segment-actor engine (top-k only — the
    hit set is k×|queries| rows). Stage 2 re-reads ONLY the hit docs'
    text: the hit-id set rides the read as a parquet filter expression
    (row-group statistics pruning — point-lookup-ish, never a full
    scan), and per batch the first-match positions come from one
    vectorized token pass (the build's order-preserving batch tokenizer
    + one ``is_in`` per query); per-ROW Python runs only on the ≤ k×Q
    final snippet rows. Reference parity: none (the reference emits
    TREC id/score runs only; this is beyond-reference)."""
    import pyarrow.dataset as pads
    import ray.data

    from ..normalizer.batch import ordered_tokens_batch

    hits = search_topk(sf_dir, k=k, mode=mode)
    eng = get_engine(sf_dir)
    per_q = {qi: eng.normalize_query(q) for qi, q in enumerate(DOC_QUERIES)}
    q_docs: dict[int, set[int]] = {
        qi: set(g["doc_id"].tolist()) for qi, g in hits.groupby("query_id")
    }
    all_docs = sorted(set(hits["doc_id"].tolist()))

    reader = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(all_docs),
    )

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "first_pos": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string())})

    def snip(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = ordered_tokens_batch(t["text"], SIMPLE_PROFILE)
        counts = np.asarray(pc.list_value_length(toks)).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        fdoc = np.repeat(np.arange(len(doc_ids)), counts)
        rows_q, rows_d, rows_p, rows_s = [], [], [], []
        sentinel = np.iinfo(np.int64).max
        for qi, terms in per_q.items():
            qset = q_docs.get(qi)
            if not qset:
                continue
            in_q = np.isin(doc_ids, np.fromiter(qset, np.int64))
            if not in_q.any():
                continue
            mask = np.asarray(pc.is_in(flat, value_set=pa.array(terms)))
            sel = np.flatnonzero(mask & in_q[fdoc])
            if sel.size == 0:
                continue
            firsts = np.full(len(doc_ids), sentinel)
            np.minimum.at(firsts, fdoc[sel], sel - offsets[fdoc[sel]])
            for d in np.flatnonzero(firsts != sentinel):
                p0 = int(firsts[d])
                lo = max(0, p0 - n_ctx)
                hi = min(int(counts[d]), p0 + n_ctx + 1)
                words = flat.slice(int(offsets[d]) + lo, hi - lo).to_pylist()
                rows_q.append(qi)
                rows_d.append(int(doc_ids[d]))
                rows_p.append(p0 + 1)
                rows_s.append(" ".join(words))
        if not rows_q:
            return empty
        return pa.table({"query_id": pa.array(rows_q, pa.int64()),
                         "doc_id": pa.array(rows_d, pa.int64()),
                         "first_pos": pa.array(rows_p, pa.int64()),
                         "snippet": pa.array(rows_s, pa.string())})

    snips = reader.map_batches(snip, batch_format="pyarrow").to_pandas()
    out = hits.merge(snips, on=["query_id", "doc_id"], how="inner")
    return out[["query_id", "rank", "doc_id", "score", "first_pos",
                "snippet"]].sort_values(["query_id", "rank"]).reset_index(drop=True)


#: boolean query set: (MUST terms, MUST-NOT terms) over the documents
#: vocabulary — negations chosen so each query actually excludes docs
BOOL_QUERIES: list[tuple[list[str], list[str]]] = [
    (["table", "scan"], ["join"]),
    (["spark", "window"], ["agg"]),
    (["merge", "sort", "hash"], ["slow", "dup"]),
    (["customer"], ["query", "filter"]),
]


def search_boolean(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Boolean retrieval (AND over MUST terms, NOT over MUST-NOT terms,
    BM25 ranking over the MUST terms) through the segment-actor engine.
    Negated terms ride the token list with a ``-`` prefix (in-band-safe:
    the normalizer strips ``-`` from every vocabulary term); the
    searcher's anti-join decodes only the negative list's skip blocks
    that can contain a surviving candidate."""
    eng = get_engine(sf_dir)
    toks = [sorted(set(pos)) + ["-" + t for t in sorted(set(neg))]
            for pos, neg in BOOL_QUERIES]
    return _to_frame(eng.search_batch(toks, k=k, mode="boolean"))


def search_bm25_rm3(sf_dir: str, k_fb: int = 5, m_exp: int = 3,
                    k: int = 10, mode: str = "bmm") -> pd.DataFrame:
    """Pseudo-relevance feedback (RM3-style query EXPANSION): first-pass
    BM25 top-``k_fb`` docs per query feed back their top-``m_exp``
    TF-IDF terms (summed over the feedback set, original query terms
    excluded; ties on the rounded 6 dp weight grid → term ASC), and the
    expanded term set is re-scored for the final top-``k`` — the classic
    two-pass retrieval-quality loop (Rocchio/RM3 lineage) composed
    entirely from engine primitives, so ONE SQL statement value-checks
    both passes plus the expansion selection.

    Scale shape: pass 1 and pass 2 are the segment-actor engine
    (bounded work per query); the only corpus touch in between is ONE
    pruned parquet read of the ≤ n_queries × k_fb feedback docs (filter
    pushdown on doc_id) and a term-filtered read of the index's global
    lexicon for just the candidate terms — nothing data-sized reaches
    the driver."""
    import pyarrow.dataset as pads
    import ray.data

    from ..normalizer.word_normalizer import term_frequencies

    eng = get_engine(sf_dir)
    cfg = _cfg(True)
    out_dir = _index_dir(sf_dir, cfg)
    first = eng.search_batch(DOC_QUERIES, k=k_fb, mode=mode)
    fb_ids = sorted({int(docno) for res in first for _, docno, _ in res})
    per_q_fb = [{int(docno) for _, docno, _ in res} for res in first]
    q_terms = [set(eng.normalize_query(q)) for q in DOC_QUERIES]

    # one pruned read of the feedback docs; per-doc tf via the shared
    # normalizer (bounded: <= n_queries * k_fb docs)
    def tf_rows(t):
        ids, terms, tfs = [], [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for term, f in term_frequencies(text, cfg.profile).items():
                ids.append(d)
                terms.append(term)
                tfs.append(f)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "term": pa.array(terms, pa.string()),
                         "tf": pa.array(tfs, pa.int64())})

    fb_tf = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(fb_ids))
        .map_batches(tf_rows, batch_format="pyarrow")
        .to_pandas()  # bounded by the feedback set, not the corpus
    )
    cand_terms = sorted(set(fb_tf["term"]))
    # term-filtered read of the global lexicon (df + n_docs)
    df_tbl = read_global_term_df(
        out_dir, ["term", "df"],
        filter=pads.field("term").isin(cand_terms))
    n_docs = read_metadata(out_dir)[0]["n_docs"]
    dfs = dict(zip(df_tbl["term"].to_pylist(), df_tbl["df"].to_pylist()))

    expanded = []
    for qi, q in enumerate(DOC_QUERIES):
        sub = fb_tf[fb_tf["doc_id"].isin(per_q_fb[qi])
                    & ~fb_tf["term"].isin(q_terms[qi])]
        w = sub.groupby("term")["tf"].sum()
        if len(w):
            terms = w.index.to_numpy()
            weights = np.array([w[t] * np.log2(n_docs / dfs[t])
                                for t in terms])
            weights = np.floor(weights * 1e6 + 0.5) / 1e6  # shared grid
            order = sorted(range(len(terms)),
                           key=lambda i: (-weights[i], terms[i]))
            exp = [terms[i] for i in order[:m_exp]]
        else:
            exp = []
        expanded.append(q + " " + " ".join(exp) if exp else q)

    return _to_frame(eng.search_batch(expanded, k=k, mode=mode))


#: facet used by the filtered-search gate query (second-most-common lang
#: at every sf, so the filter is selective but never empty)
FILTER_LANG = "es"


def search_topk_filtered(sf_dir: str, lang: str = FILTER_LANG,
                         k: int = 10) -> pd.DataFrame:
    """Faceted retrieval: exact BM25 top-``k`` among documents whose
    ``lang`` equals ``lang`` — filter applied BEFORE top-k selection
    (a filtered-out doc can never displace an allowed one), scoring
    statistics (idf, avgdl) from the FULL index. The predicate ships to
    the segment actors; each builds its own candidate mask from a
    pruned two-column read of its docno range
    (``SegmentSearcher.predicate_mask``) — no driver-side doc list at
    any corpus size."""
    eng = get_engine(sf_dir)
    res = eng.search_batch_filtered(
        DOC_QUERIES, k=k, column="lang", value=lang,
        src_path=f"{sf_dir}/documents.parquet")
    return _to_frame(res)


#: deterministic delete set for the tombstone gate query: doc_id % TOMB_MOD
TOMB_MOD = 13


def get_tombstoned_engine(sf_dir: str, mod: int = TOMB_MOD) -> QueryEngine:
    """Engine over a tombstoned COPY of the documents index: the cached
    base index is copied once (lineage-keyed marker), every
    ``doc_id % mod == 0`` doc is deleted via
    :func:`..index.tombstone.delete_docs`, and the engine is constructed
    over the copy — deletes visible immediately, no rebuild, collection
    stats unchanged until compaction (the tombstone contract)."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from ..index.tombstone import delete_docs

    cfg = _cfg(simple=True)
    base = _index_dir(sf_dir, cfg)
    build_index(f"{sf_dir}/documents.parquet", base, cfg, DOCUMENTS_CORPUS)
    lineage = read_metadata(base)[0]["lineage_key"]
    key = (os.path.abspath(sf_dir), cfg.params_id, "tomb", mod, lineage)
    out = os.path.join(
        "/tmp", "seppray_index_cache",
        "tomb_" + hashlib.sha256(repr(key).encode()).hexdigest()[:12])

    def tombstone():
        marker = os.path.join(out, "_tombstoned.json")
        ok = False
        if os.path.exists(marker):
            with open(marker) as f:
                ok = json.load(f).get("lineage") == lineage
        if not ok:
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(base, out)
            n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
            delete_docs(out, (str(d) for d in range(0, n, mod)))
            with open(marker, "w") as f:
                json.dump({"lineage": lineage}, f)

    return _serve(out, cfg, tombstone)


def search_topk_tombstoned(sf_dir: str, k: int = 10,
                           mode: str = "bmm") -> pd.DataFrame:
    """BM25 top-``k`` over the tombstoned index: deleted docs are
    excluded exactly (they never enter θ or displace a survivor) while
    idf/avgdl remain the full collection's — byte-for-byte what serving
    after a cheap delete must return."""
    eng = get_tombstoned_engine(sf_dir)
    return _to_frame(eng.search_batch(DOC_QUERIES, k=k, mode=mode))


def get_compacted_engine(sf_dir: str, mod: int = TOMB_MOD) -> QueryEngine:
    """Engine over the PHYSICAL RECLAIM of the tombstoned index:
    :func:`..index.build.compact_index` drops the deleted docs' postings,
    renumbers docids densely and recomputes df/idf/avgdl — the
    statistics the tombstone contract left stale converge here, with no
    access to the raw corpus (the doc partitions' token lists are the
    input). Cached per source lineage + tombstone set."""
    import json

    from ..index.build import compact_index
    from ..index.tombstone import load_tombstones

    cfg = _cfg(simple=True)
    src_eng = get_tombstoned_engine(sf_dir, mod)  # materializes the copy
    src = src_eng.index_dir
    lineage = (str(src_eng.meta.get("lineage_key", "")),
               tuple(load_tombstones(src)))
    key = (os.path.abspath(sf_dir), cfg.params_id, "compacted", mod, lineage)
    out = os.path.join(
        "/tmp", "seppray_index_cache",
        "compact_" + hashlib.sha256(repr(key).encode()).hexdigest()[:12])
    # stage markers make reruns cache hits
    return _serve(out, cfg, lambda: compact_index(src, out))


def search_topk_compacted(sf_dir: str, k: int = 10,
                          mode: str = "bmm") -> pd.DataFrame:
    """BM25 top-``k`` over the COMPACTED index — the full lifecycle
    composition (build → delete → physical reclaim → serve): deleted
    docs are gone from the postings and, unlike the tombstoned view,
    idf/avgdl/n_docs now reflect only the alive corpus, so scores equal
    a fresh build over it (the compaction equivalence contract)."""
    eng = get_compacted_engine(sf_dir)
    return _to_frame(eng.search_batch(DOC_QUERIES, k=k, mode=mode))


def search_topk_grouped(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Diversified / per-facet retrieval: for every query, the exact
    BM25 top-``k`` WITHIN EACH language — one result table spanning all
    facet values (the "show me the best hits per language" serving
    shape). Runs one masked search per facet value through the same
    segment actors; each actor builds every lang's candidate mask once
    (pruned read of its own docno range) and caches it across the whole
    batch and across calls, so the per-facet cost after warmup is one
    masked Maxscore/DAAT pass — no index rebuild, no per-facet engine.
    Returns (query_id, lang, rank, doc_id, score)."""
    import ray.data

    eng = get_engine(sf_dir)
    # facet enumeration stays distributed: per-batch unique -> driver
    # merge of (distinct values x batches), never the raw lang column
    lang_parts = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang"],
    ).map_batches(
        lambda t: pa.table({"lang": t["lang"].unique()
                            if not isinstance(t["lang"], pa.ChunkedArray)
                            else t["lang"].combine_chunks().unique()}),
        batch_format="pyarrow",
    ).to_pandas()
    langs = sorted(lang_parts["lang"].unique())
    src = f"{sf_dir}/documents.parquet"
    frames = []
    for lang in langs:
        res = eng.search_batch_filtered(DOC_QUERIES, k=k, column="lang",
                                        value=lang, src_path=src)
        f = _to_frame(res)
        f.insert(1, "lang", lang)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["query_id", "lang", "rank"]) \
        .reset_index(drop=True)


def get_appended_engine(sf_dir: str) -> QueryEngine:
    """Engine over an APPEND-INCREMENTAL build: the corpus arrives in
    two shipments (first half, then the rest) and the second
    ``build_index`` run extends the first — ``_append_compatible``
    keeps every old shard's stage-1 tokenize outputs verbatim and only
    the appended shards tokenize, while stages 2-3 recompute (df/idf
    shift with N, the correct split). Serving over the result must be
    indistinguishable from one fresh full build — the same SQL oracle
    as ``search_bm25_topk`` checks it end-to-end.

    The half-split is gate scaffolding to DRIVE the append path (a real
    deployment passes the new shipment's files); it caches per corpus
    content fingerprint."""
    import json

    import pyarrow.parquet as pq_

    cfg = _cfg(simple=True)
    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    n_rows = pq_.ParquetFile(src).metadata.num_rows
    fp = hashlib.sha256(
        f"{os.path.abspath(src)}:{st.st_size}:{st.st_mtime_ns}:{n_rows}"
        f":{cfg.params_id}:append".encode()).hexdigest()[:12]
    base = os.path.join("/tmp", "seppray_index_cache", f"app_{fp}")
    parts = [os.path.join(base, "part1.parquet"),
             os.path.join(base, "part2.parquet")]
    out_dir = os.path.join(base, "idx")

    def build():
        marker = os.path.join(base, "_split_done.json")
        if not os.path.exists(marker):
            os.makedirs(base, exist_ok=True)
            t = pq_.read_table(src)
            half = len(t) // 2
            pq_.write_table(t.slice(0, half), parts[0] + ".tmp",
                            row_group_size=4096)
            pq_.write_table(t.slice(half), parts[1] + ".tmp",
                            row_group_size=4096)
            os.replace(parts[0] + ".tmp", parts[0])
            os.replace(parts[1] + ".tmp", parts[1])
            with open(marker, "w") as f:
                json.dump({"rows": n_rows, "half": half}, f)
        # shipment 1, then shipment 1+2 — the second run takes the
        # append-incremental path (old shard list is a strict prefix)
        build_index([parts[0]], out_dir, cfg, DOCUMENTS_CORPUS)
        build_index(parts, out_dir, cfg, DOCUMENTS_CORPUS)

    return _serve(out_dir, cfg, build)


def search_topk_appended(sf_dir: str, k: int = 10,
                         mode: str = "bmm") -> pd.DataFrame:
    """BM25 top-``k`` served from the append-extended index — must
    equal a fresh full build's ranking exactly (same oracle as
    ``search_bm25_topk``)."""
    eng = get_appended_engine(sf_dir)
    return _to_frame(eng.search_batch(DOC_QUERIES, k=k, mode=mode))


#: seed documents for the query-by-document gate op
MLT_SEED_IDS = (0, 7, 21)


def search_more_like_this(sf_dir: str, seed_ids: tuple = MLT_SEED_IDS,
                          m_terms: int = 5, k: int = 10,
                          mode: str = "bmm") -> pd.DataFrame:
    """Query-BY-DOCUMENT retrieval (the Lucene MoreLikeThis shape):
    each seed doc's top-``m_terms`` TF-IDF terms (grid-rounded weights,
    ties → term ASC) become a disjunctive BM25 query, and the seed
    itself is excluded from its results. Returns
    (query_id = seed doc_id, rank, doc_id, score).

    Scale shape: ONE pruned parquet read of the seed docs (filter
    pushdown on doc_id, bounded by the seed set), a term-filtered read
    of the global lexicon for just the seeds' vocabulary,
    then the standard segment-actor engine — the same corpus-touch
    contract as RM3's expansion stage."""
    import pyarrow.dataset as pads
    import ray.data

    from ..normalizer.word_normalizer import term_frequencies

    eng = get_engine(sf_dir)
    cfg = _cfg(True)
    out_dir = _index_dir(sf_dir, cfg)
    ids = sorted(set(int(i) for i in seed_ids))

    def tf_rows(t):
        out_i, out_t, out_f = [], [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for term, f in term_frequencies(text, cfg.profile).items():
                out_i.append(d)
                out_t.append(term)
                out_f.append(f)
        return pa.table({"doc_id": pa.array(out_i, pa.int64()),
                         "term": pa.array(out_t, pa.string()),
                         "tf": pa.array(out_f, pa.int64())})

    seed_tf = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(ids))
        .map_batches(tf_rows, batch_format="pyarrow")
        .to_pandas()  # bounded by the seed set
    )
    cand_terms = sorted(set(seed_tf["term"]))
    df_tbl = read_global_term_df(
        out_dir, ["term", "df"],
        filter=pads.field("term").isin(cand_terms))
    n_docs = read_metadata(out_dir)[0]["n_docs"]
    dfs = dict(zip(df_tbl["term"].to_pylist(), df_tbl["df"].to_pylist()))

    tok_lists = []
    for sid in ids:
        sub = seed_tf[seed_tf["doc_id"] == sid]
        terms = sub["term"].to_numpy()
        w = sub["tf"].to_numpy(dtype=np.float64) * np.log2(
            n_docs / np.array([dfs[t] for t in terms], dtype=np.float64))
        w = round6_half_up(w)  # shared grid
        order = sorted(range(len(terms)), key=lambda i: (-w[i], terms[i]))
        tok_lists.append([terms[i] for i in order[:m_terms]])

    results = eng.search_batch(tok_lists, k=k + 1, mode=mode)
    rows = []
    for sid, res in zip(ids, results):
        rank = 0
        for _, docno, score in res:
            if int(docno) == sid:
                continue
            rank += 1
            if rank > k:
                break
            rows.append((sid, rank, int(docno), score))
    return pd.DataFrame({
        "query_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "rank": pd.Series([r[1] for r in rows], dtype=np.int64),
        "doc_id": pd.Series([r[2] for r in rows], dtype=np.int64),
        # same rounding as _to_frame (matches SQL ROUND at 6 dp)
        "score": pd.Series([round(r[3], 6) for r in rows],
                           dtype=np.float64),
    })
