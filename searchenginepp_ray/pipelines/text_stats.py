"""Text-analysis pipelines over the ``documents`` table
(doc_id, text, lang, source, n_chars) — language-ID, quality scoring,
token counting, document fingerprinting — plus the index-adjacent
aggregates (per-term df/tf, doclen metadata) under the SQL-expressible
SIMPLE normalizer profile so every one of them has a DuckDB oracle.

The Python tokenizer and the generated SQL in :mod:`..pipelines.oracle_sql`
share the exact same punctuation class, so term boundaries agree
token-for-token.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..config import SIMPLE_PROFILE
from .agg import round6_half_up

#: small embedded stopword list for quality/langid scoring (kept tiny and
#: embedded verbatim in the oracle SQL's IN (...) list)
QUALITY_STOPS = (
    "the", "a", "of", "and", "to", "in", "is", "it", "for", "on",
    "with", "as", "this", "that", "at", "by", "an", "be", "or", "are",
)


def documents_ds(sf_dir: str, columns=("doc_id", "text")) -> ray.data.Dataset:
    """The documents table as a pruned-column read. ``sf_dir`` is a
    testdata dir containing ``documents.parquet``, or (for CLI use over
    arbitrary corpora of the same shape) a ``.parquet``, ``.jsonl`` or
    ``.csv`` path itself (JSONL: column pruning happens after the vectorized
    arrow JSON parse — line-delimited files carry no column layout to
    push down into)."""
    if sf_dir.endswith(".jsonl"):
        ds = ray.data.read_json(sf_dir)
        cols = list(columns)
        return ds.map_batches(lambda t: t.select(cols),
                              batch_format="pyarrow")
    if sf_dir.endswith(".csv"):
        # Arrow's CSV reader handles quoting/embedded newlines; like
        # JSONL, column pruning happens after the parse (CSV carries no
        # column layout to push down into)
        ds = ray.data.read_csv(sf_dir)
        cols = list(columns)
        return ds.map_batches(lambda t: t.select(cols),
                              batch_format="pyarrow")
    path = sf_dir if sf_dir.endswith(".parquet") else f"{sf_dir}/documents.parquet"
    return ray.data.read_parquet(
        path, columns=list(columns), override_num_blocks=_read_blocks(path)
    )


def parquet_rows(path: str) -> int:
    """Row count from parquet metadata — file OR directory of files
    (e.g. a Ray write_parquet output dir, including PARTITIONED layouts
    with nested subdirectories: the walk is recursive). A directory with
    no parquet files raises rather than silently reporting 0 rows."""
    import os

    import pyarrow.parquet as pq

    if os.path.isdir(path):
        files = [
            os.path.join(root, f)
            for root, _dirs, names in os.walk(path)
            for f in names if f.endswith(".parquet")
        ]
        if not files:
            raise FileNotFoundError(
                f"no .parquet files under directory {path!r}")
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    return pq.ParquetFile(path).metadata.num_rows


def _read_blocks(path: str, target_rows: int = 2000) -> int:
    """Read parallelism with a ~target_rows/block floor: Ray's default
    splits small files into per-CPU micro-blocks, and a fleet of
    100-row tasks pays per-task fixed costs (worker spin-up, scratch
    warm-up) far exceeding the work. Caps at 2×CPUs for big inputs —
    i.e. natural parallelism is preserved at scale."""
    n = parquet_rows(path)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(1, min(2 * cpus, n // target_rows + 1))


def _tokenize_batch(batch: pa.Table) -> pa.Table:
    from ..normalizer.batch import ordered_tokens_batch

    toks = ordered_tokens_batch(batch["text"], SIMPLE_PROFILE)
    return pa.table({"doc_id": batch["doc_id"], "tokens": toks})


def term_counts_ds(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, doclen, terms, tfs) — per-doc unique sorted terms +
    frequencies through the BUILD's vectorized batch tokenizer
    (normalizer/batch.py: one translate + Arrow split/filter/dictionary
    pass per batch; no per-row Python). Counting-style consumers
    (token_count, quality, lang-id, term df/tf) want exactly this shape;
    only order-sensitive ops (fingerprint, BPE) need the raw stream of
    :func:`tokens_ds`."""
    from ..normalizer.batch import tokenize_batch

    def tok(t: pa.Table) -> pa.Table:
        doclens, terms_list, tfs_list = tokenize_batch(t["text"], SIMPLE_PROFILE)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "doclen": pa.array(doclens.astype(np.int64)),
                "terms": terms_list,
                "tfs": tfs_list,
            }
        )

    return documents_ds(sf_dir).map_batches(tok, batch_format="pyarrow")


def tokens_ds(sf_dir: str) -> ray.data.Dataset:
    return documents_ds(sf_dir).map_batches(_tokenize_batch, batch_format="pyarrow")


# ---------- doclen / metadata aggregates (A3/A4) ----------

def corpus_report(sf_dir: str):
    """Per-language DATASET-CARD rollup — the release-audit numbers a
    training corpus ships with: document / exact-duplicate counts,
    character and token totals, mean document length. One streaming
    pass computes per-doc (md5, lang, chars, tokens) rows; an md5-keyed
    exchange resolves exact-duplicate membership (a doc is a dup iff
    its full text md5 occurs ≥ 2 times corpus-wide) and pre-aggregates
    per language, so the final exchange is language-cardinality-sized.
    Token counts use the build's vectorized simple-profile tokenizer —
    the same definition ``token_count``'s hash-green oracle pins.
    Returns (lang, n_docs, n_dup_docs, total_chars, total_tokens,
    mean_doclen) with the mean on the 6 dp floor grid."""
    import pandas as pd

    from ..normalizer.batch import tokenize_batch
    from .hash_partition import hash_groupby_apply
    from .duck import md5_hex

    def rows(t: pa.Table) -> pa.Table:
        doclens, _terms, _tfs = tokenize_batch(t["text"], SIMPLE_PROFILE)
        return pa.table({
            "h": md5_hex(t["text"]),
            "lang": t["lang"],
            "chars": pc.utf8_length(t["text"]).cast(pa.int64()),
            "n_tok": pa.array(doclens.astype(np.int64)),
        })

    def md5_partial(df: pd.DataFrame) -> pd.DataFrame:
        # every row of a given md5 lands here: dup membership is exact
        dup = (df.groupby("h")["h"].transform("size") >= 2)
        return (df.assign(dup=dup.astype(np.int64))
                .groupby("lang", as_index=False)
                .agg(n_docs=("h", "size"), n_dup=("dup", "sum"),
                     chars=("chars", "sum"), n_tok=("n_tok", "sum")))

    partials = hash_groupby_apply(
        documents_ds(sf_dir, ("doc_id", "lang", "text"))
        .map_batches(rows, batch_format="pyarrow"),
        ["h"], md5_partial,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_docs", "sum"), n_dup_docs=("n_dup", "sum"),
            total_chars=("chars", "sum"), total_tokens=("n_tok", "sum"))
        mean = np.floor(g["total_tokens"].to_numpy()
                        / g["n_docs"].to_numpy() * 1e6 + 0.5) / 1e6
        return pd.DataFrame({
            "lang": g["lang"],
            "n_docs": g["n_docs"].astype(np.int64),
            "n_dup_docs": g["n_dup_docs"].astype(np.int64),
            "total_chars": g["total_chars"].astype(np.int64),
            "total_tokens": g["total_tokens"].astype(np.int64),
            "mean_doclen": mean,
        })

    return hash_groupby_apply(partials, ["lang"], finish)


def doclen_stats(sf_dir: str):
    """Global (n_docs, sum_doclen, avgdl) — the reference's collection
    metadata (reference src/builder.cpp:177-181) under the simple profile."""
    per_doc = tokens_ds(sf_dir).map_batches(
        lambda t: pa.table(
            {"doclen": pc.list_value_length(t["tokens"]).cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    n = per_doc.count()
    s = per_doc.sum("doclen")
    import pandas as pd

    return pd.DataFrame(
        {"n_docs": [n], "sum_doclen": [s], "avgdl": [s / n if n else 0.0]}
    )


def token_count(sf_dir: str):
    """Per-document token count (doclen) + distinct-term count."""
    def per_doc(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_tokens": t["doclen"],
             "n_distinct": pc.list_value_length(t["terms"]).cast(pa.int64())}
        )

    return term_counts_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


# ---------- per-term aggregates (A1/A2) ----------

def term_df(sf_dir: str):
    """Per-term document frequency: per-batch partials (terms deduped per
    doc) + a small groupby-sum — the partial/final pattern replacing the
    reference's k-way lexicon merge (reference src/builder.cpp:127-170)."""

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.list_flatten(t["terms"]).value_counts()
        return pa.table({"term": vc.field("values"),
                         "df_part": vc.field("counts").cast(pa.int64())})

    from .agg import hash_groupby_sum

    return hash_groupby_sum(
        term_counts_ds(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["term"], {"df": ("df_part", "sum")},
    )


def term_tf(sf_dir: str):
    """Per-term total collection frequency."""

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"term": pc.list_flatten(t["terms"]),
                      "tf": pc.list_flatten(t["tfs"]).cast(pa.int64())})
            .group_by("term")
            .aggregate([("tf", "sum")])
        )
        return g.rename_columns(["term", "tf_part"])

    from .agg import hash_groupby_sum

    return hash_groupby_sum(
        term_counts_ds(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["term"], {"tf": ("tf_part", "sum")},
    )


# ---------- quality scoring / language id ----------

def quality_score(sf_dir: str):
    """Per-doc quality features: token count, distinct ratio, stopword
    ratio, mean token length (rounded to 6 dp for oracle comparability)."""

    stops_arr = pa.array(QUALITY_STOPS, pa.string())

    def per_doc(t: pa.Table) -> pa.Table:
        n = len(t)
        n_tok = t["doclen"].to_numpy()
        terms = t["terms"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        n_dis = np.asarray(pc.list_value_length(terms)).astype(np.int64)
        flat_terms = pc.list_flatten(terms)
        flat_tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        doc_idx = np.repeat(np.arange(n), n_dis)
        is_stop = np.asarray(pc.is_in(flat_terms, value_set=stops_arr))
        n_stop = np.bincount(doc_idx, weights=is_stop * flat_tfs,
                             minlength=n).astype(np.int64)
        lens = np.asarray(pc.utf8_length(flat_terms)).astype(np.int64)
        tot_len = np.bincount(doc_idx, weights=lens * flat_tfs,
                              minlength=n).astype(np.int64)
        safe = np.maximum(n_tok, 1)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok),
                "distinct_ratio": pa.array(round6_half_up(n_dis / safe)),
                "stopword_ratio": pa.array(round6_half_up(n_stop / safe)),
                "mean_token_len": pa.array(round6_half_up(tot_len / safe)),
            }
        )

    return term_counts_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


def lang_id(sf_dir: str, threshold: float = 0.08):
    """Heuristic language ID: stopword-hit ratio >= threshold ⇒ 'en'."""

    stops_arr = pa.array(QUALITY_STOPS, pa.string())

    def per_doc(t: pa.Table) -> pa.Table:
        n = len(t)
        n_tok = t["doclen"].to_numpy()
        terms = t["terms"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        n_dis = np.asarray(pc.list_value_length(terms)).astype(np.int64)
        doc_idx = np.repeat(np.arange(n), n_dis)
        is_stop = np.asarray(pc.is_in(pc.list_flatten(terms), value_set=stops_arr))
        flat_tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        n_stop = np.bincount(doc_idx, weights=is_stop * flat_tfs,
                             minlength=n)
        ratio = n_stop / np.maximum(n_tok, 1)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang_pred": pa.array(np.where(ratio >= threshold, "en", "unk")),
            }
        )

    return term_counts_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


def _explode_posts_df(t: pa.Table, partial: str = "df") -> pa.Table:
    """One term_counts batch → posting rows (term, doc_id, tf, is_post=1)
    PLUS per-batch per-term partials (term, 0, part, is_post=0), tagged
    into one stream so the term-side exchange runs once. ``partial``
    selects the partial statistic: ``"df"`` (docs-per-term — terms are
    unique per doc, so it's the flat stream's value_counts) or ``"ctf"``
    (collection term frequency — grouped tf sum). Used by
    :func:`unigram_logprob`."""
    terms = t["terms"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    flat_terms = pc.list_flatten(terms)
    flat_tfs = pc.list_flatten(t["tfs"]).cast(pa.int64())
    n_per = np.asarray(pc.list_value_length(terms)).astype(np.int64)
    doc_ids = pa.array(np.repeat(
        t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        n_per))

    def _c(a):
        return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a

    if partial == "df":
        vc = flat_terms.value_counts()
        p_terms, p_vals = _c(vc.field("values")), vc.field("counts").cast(pa.int64())
    else:  # "ctf"
        g = (pa.table({"term": flat_terms, "tf": flat_tfs})
             .group_by("term").aggregate([("tf", "sum")]))
        p_terms, p_vals = _c(g["term"]), _c(g["tf_sum"].cast(pa.int64()))
    n_post, n_p = len(flat_terms), len(p_terms)
    return pa.table({
        "term": pa.concat_arrays([_c(flat_terms), p_terms]),
        "doc_id": pa.concat_arrays(
            [doc_ids, pa.array(np.zeros(n_p, np.int64))]),
        "tf": pa.concat_arrays([_c(flat_tfs), _c(p_vals)]),
        "is_post": pa.array(
            np.r_[np.ones(n_post, np.int8), np.zeros(n_p, np.int8)]),
    })


def unigram_logprob(sf_dir: str):
    """Per-doc average log2 unigram probability under the corpus's own
    unigram LM — the perplexity-style quality filter (docs far below the
    corpus-typical log-prob are boilerplate/garbage candidates; the
    classic cheap stand-in for model-perplexity filtering).

    score_d = (1/|d|) Σ_{t∈d} tf_dt · log2(ctf_t / T)
            = (Σ_t tf_dt·log2(ctf_t) − |d|·log2(T)) / |d|

    The second form is what runs: the per-term exchange never needs the
    global scalar T, so the pipeline is (1) a tiny pass for T = Σ doclen,
    (2) one explode pass emitting posting rows + per-batch ctf partials
    into a SINGLE term-keyed exchange (each partition finalizes its
    terms' ctf, joins its postings, and map-side-combines per-doc
    Σ tf·log2(ctf) AND Σ tf partials), (3) one doc-keyed exchange summing
    the partials. Nothing vocabulary- or corpus-sized on the driver.

    Output (doc_id, n_tokens, avg_logprob) with the shared
    floor(x*1e6+0.5)/1e6 rounding rule (avg_logprob is negative; floor
    half-up is well-defined there and the oracle evaluates the identical
    expression). Docs with zero tokens emit no postings and are absent,
    matching the SQL side's join-over-toks semantics."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    tc = term_counts_ds(sf_dir)
    T = float(
        tc.map_batches(
            lambda t: pa.table({"doclen": t["doclen"]}), batch_format="pyarrow"
        ).sum("doclen")
    )

    def explode(t: pa.Table) -> pa.Table:
        return _explode_posts_df(t, partial="ctf")

    def per_term(df: pd.DataFrame) -> pd.DataFrame:
        posts = df[df["is_post"] == 1]
        ctf = df[df["is_post"] == 0].groupby("term")["tf"].sum()
        if len(posts) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "s_part": pd.Series([], dtype=np.float64),
                                 "n_part": pd.Series([], dtype=np.int64)})
        # log2 over the partition VOCABULARY once, mapped to the postings
        lut = pd.DataFrame({"term": ctf.index.to_numpy(),
                            "lp": np.log2(ctf.to_numpy(dtype=np.float64))})
        j = posts.merge(lut, on="term")
        tf = j["tf"].to_numpy(dtype=np.float64)
        g = pd.DataFrame({
            "doc_id": j["doc_id"].to_numpy(),
            "s": tf * j["lp"].to_numpy(),
            "n": j["tf"].to_numpy(),
        }).groupby("doc_id", as_index=False).sum()  # map-side combiner
        return g.rename(columns={"s": "s_part", "n": "n_part"})

    partials = hash_groupby_apply(
        tc.map_batches(explode, batch_format="pyarrow"), ["term"], per_term)
    per_doc = hash_groupby_sum(
        partials, ["doc_id"], {"s": ("s_part", "sum"), "n": ("n_part", "sum")})

    log2_T = np.log2(T)

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        avg = round6_half_up((s - n * log2_T) / n)
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pa.array(n),
                         "avg_logprob": pa.array(avg)})

    return per_doc.map_batches(finish, batch_format="pyarrow")


# ---------- document fingerprinting ----------

def fingerprint(sf_dir: str, window: int = 4):
    """Winnowing-style document fingerprint: the minimum (lexicographic)
    16-hex-char md5 prefix over all ``window``-token grams of the
    normalized token stream — order-sensitive (any token reorder inside a
    window changes its gram) and robust to small edits (only windows
    touching the edit change, and only the global min matters).

    md5 keeps the digest computable by the DuckDB oracle. Docs shorter
    than ``window`` contribute their single whole-doc gram; empty docs
    hash the empty string.

    Fully vectorized: gram strings are assembled by Arrow kernels
    (``binary_join_element_wise`` over ``window`` shifted takes of the
    flat token stream; ``binary_join`` for the short-doc whole-doc gram)
    and the md5 + per-doc min run as ONE DuckDB hash-aggregate pass
    (:mod:`.duck`) — no per-doc or per-gram Python."""
    from .duck import md5_prefix_min_by_group

    def per_doc(t: pa.Table) -> pa.Table:
        tokens = t["tokens"]
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        n = len(tokens)
        if n == 0:
            return pa.table(
                {"doc_id": t["doc_id"], "fingerprint": pa.array([], pa.string())}
            )
        w = window
        counts = np.asarray(pc.list_value_length(tokens)).astype(np.int64)
        tok_offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = tokens.flatten()
        full_idx = np.flatnonzero(counts > w)
        short_idx = np.flatnonzero(counts <= w)
        gram_parts, doc_parts = [], []
        if len(full_idx):
            m = counts[full_idx] - w + 1  # grams per full doc
            total = int(m.sum())
            # starts = tok_offsets[d] + (0..m[d]-1) for each full doc d
            rng = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
            starts = np.repeat(tok_offsets[full_idx], m) + rng
            cols = [flat.take(pa.array(starts + j)) for j in range(w)]
            gram_parts.append(pc.binary_join_element_wise(*cols, " "))
            doc_parts.append(np.repeat(full_idx, m))
        if len(short_idx):
            shorts = tokens.take(pa.array(short_idx))
            gram_parts.append(pc.binary_join(shorts, " "))
            doc_parts.append(short_idx)
        grams = pa.concat_arrays(
            [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
             for p in gram_parts]
        )
        doc_pos = pa.array(np.concatenate(doc_parts))
        # every doc emits >= 1 gram, so ascending-group output aligns 1:1
        # with the batch's row order
        fp = md5_prefix_min_by_group(doc_pos, grams, 16)
        return pa.table({"doc_id": t["doc_id"], "fingerprint": fp})

    return tokens_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


# ---------- BPE-ish token counting ----------

#: "BPE-ish" pre-tokenizer pattern (GPT2-style shape, restricted to
#: classes expressible identically in Python re and DuckDB RE2):
#: optional-space letter runs / digit runs / symbol runs, else whitespace.
BPE_PATTERN = r" ?[A-Za-zÀ-ÿ]+| ?[0-9]+| ?[^A-Za-zÀ-ÿ0-9 \t\n\v\f\r]+|[ \t\n\v\f\r]+"

#: BPE_PATTERN minus its trailing whitespace-run alternative — the three
#: counted branches. Scanning with only these yields the same match COUNT
#: as scanning with the full pattern and discarding whitespace-run
#: matches: every counted branch consumes >= 1 non-whitespace char (so a
#: whitespace run can never hide one), and the single optional leading
#: space can't span a second whitespace char, so skipping over whitespace
#: re-synchronizes at exactly the position the sequential full-pattern
#: scan would next match. Pinned by the DuckDB oracle and a property test
#: vs the per-doc findall loop.
_BPE_COUNT_PATTERN = r" ?[A-Za-zÀ-ÿ]+| ?[0-9]+| ?[^A-Za-zÀ-ÿ0-9 \t\n\v\f\r]+"


def bpe_token_count(sf_dir: str):
    """Per-doc subword-ish token count via the BPE pre-tokenizer regex
    (whitespace-run matches excluded from the count, as BPE merges them
    into following tokens). Vectorized: one RE2 ``count_substring_regex``
    kernel per batch instead of a per-doc Python ``findall`` loop."""

    def per_doc(t: pa.Table) -> pa.Table:
        counts = pc.count_substring_regex(t["text"], _BPE_COUNT_PATTERN)
        return pa.table(
            {"doc_id": t["doc_id"], "n_bpe_tokens": counts.cast(pa.int64())}
        )

    return documents_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


#: fuzzy-lookup queries shared verbatim with the SQL oracle: typos of
#: corpus terms (1 edit), one exact term (dist 0), one no-match.
FUZZY_QUERIES = ("tble", "scann", "vale", "sprk", "windoww", "merge", "qzx")


def fuzzy_term_match(sf_dir: str, queries: tuple[str, ...] = FUZZY_QUERIES,
                     max_dist: int = 1):
    """Fuzzy term lookup (spelling correction over the index vocabulary):
    for each query string, every vocabulary term within edit distance
    ``max_dist`` (=1), with its df — (query, term, df, dist).

    Scale shape (SymSpell / Wolf-Garbe deletion-neighborhood matching):
    two strings are within edit distance 1 iff their distance-1 deletion
    neighborhoods intersect, so the query side ships as a tiny broadcast
    set of deletion keys riding the task closure, and the VOCABULARY —
    the big side, produced by the same term-keyed df exchange the
    lexicon family uses — streams through one map_batches: per batch,
    ``maxlen`` vectorized Arrow slice+concat passes generate every
    term's deletion keys, one ``is_in`` probe against the broadcast set
    picks candidates, and only candidates (a bounded handful per query,
    never vocabulary-sized) pay the exact DP verification. No exchange
    beyond the df aggregate itself; output is hit rows only.
    Reference parity: none (beyond-reference; the reference engine has
    no fuzzy matching)."""
    from .search_docs import _deletes1, fuzzy_hits_batch

    qdel: dict[str, set[str]] = {q: _deletes1(q) for q in queries}
    probe = frozenset().union(*qdel.values()) if qdel else frozenset()
    probe_arr = pa.array(sorted(probe), pa.string())

    empty = pa.table({"query": pa.array([], pa.string()),
                      "term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.int64())})

    def match(t: pa.Table) -> pa.Table:
        terms = t["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        dfs = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_i, out_d = fuzzy_hits_batch(
            terms, queries, qdel, probe_arr, max_dist)
        if not out_q:
            return empty
        return pa.table({"query": pa.array(out_q, pa.string()),
                         "term": terms.take(pa.array(out_i, pa.int64())),
                         "df": pa.array([int(dfs[i]) for i in out_i],
                                        pa.int64()),
                         "dist": pa.array(out_d, pa.int64())})

    return term_df(sf_dir).map_batches(match, batch_format="pyarrow")


def term_complete(sf_dir: str, prefix: str = "s", k: int = 10):
    """Query autocompletion: top-``k`` vocabulary terms with ``prefix``,
    ranked by document frequency (ties → term ASC) with a 1-based rank.

    Scale shape: the prefix filter runs on each batch's flattened term
    column BEFORE the df exchange (``pc.starts_with`` — non-matching
    terms never cross), the exchange carries prefix-vocabulary-sized
    partials only, each partition contributes a partial top-k, and the
    driver merges ≤ P×k rows. The reference's lexicon is an ordered
    diskmap whose range scan would serve the same query
    (src/index/index.cpp lexicon iteration); here the ordered-prefix
    semantics ride the hash-partitioned vocabulary instead."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply

    def partial(t: pa.Table) -> pa.Table:
        terms = pc.list_flatten(t["terms"])
        vc = terms.filter(pc.starts_with(terms, prefix)).value_counts()
        return pa.table({"term": vc.field("values"),
                         "df_part": vc.field("counts").cast(pa.int64())})

    def partition_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", as_index=False)["df_part"].sum()
        return g.sort_values(["df_part", "term"],
                             ascending=[False, True]).head(k)

    survivors = hash_groupby_apply(
        term_counts_ds(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["term"], partition_topk,
    ).to_pandas()  # <= P*k rows

    if survivors.empty:  # no vocabulary term has the prefix
        return pd.DataFrame({"rank": pd.Series([], dtype=np.int64),
                             "term": pd.Series([], dtype=str),
                             "df": pd.Series([], dtype=np.int64)})
    out = survivors.sort_values(["df_part", "term"],
                                ascending=[False, True]).head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["df"] = out.pop("df_part").astype(np.int64)
    return out[["rank", "term", "df"]].reset_index(drop=True)


def bigram_logprob(sf_dir: str):
    """Per-doc average log2 BIGRAM probability under the corpus's own
    add-one-smoothed bigram LM — the higher-order sibling of
    :func:`unigram_logprob` (bigram surprisal separates shuffled-token
    garbage from fluent text that unigram stats score identically):

        p(b|a) = (c(ab) + 1) / (c_ctx(a) + V)
        score_d = (1/(|d|-1)) Σ log2 p(b|a) over d's bigrams

    where c(ab) is the corpus bigram count, c_ctx(a) the count of ``a``
    as a bigram CONTEXT (= Σ_b c(ab), the correct normalizer), and V
    the corpus distinct-token count. Docs with < 2 tokens are absent
    (no bigrams), mirroring the SQL side's join semantics.

    Scale shape: V is one distributed distinct count (scalar to the
    driver); then ONE gram-keyed exchange carries (hash64, side, doc,
    tf) instance partials for bigrams AND contexts together — bigram
    keys ("a b") and context keys ("a") are disjoint string spaces, so
    they share the exchange; every instance of a key lands in one
    partition, which therefore knows the exact global count and
    map-side-combines per-doc Σ tf·log2(·) partials; one doc-keyed
    exchange sums. The 64-bit-hash no-collision stance is
    :func:`~searchenginepp_ray.pipelines.filters.decontaminate`'s,
    pinned by the exact-string SQL oracle at gate scale."""
    import pandas as pd

    from ..config import SIMPLE_PROFILE
    from ..normalizer.batch import ordered_tokens_batch
    from .hash_partition import _hash_strings, hash_groupby_apply
    from .agg import hash_groupby_sum

    V = float(term_df(sf_dir).count())

    def explode(t: pa.Table) -> pa.Table:
        la = ordered_tokens_batch(t["text"], SIMPLE_PROFILE)
        n = np.diff(np.asarray(la.offsets, dtype=np.int64))
        flat = la.values
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(n.sum())
        doc_idx = np.repeat(np.arange(len(n)), n)
        starts = np.concatenate(([0], np.cumsum(n)))[:-1]
        within = np.arange(total, dtype=np.int64) - starts[doc_idx]
        a_idx = np.flatnonzero(within < n[doc_idx] - 1)
        a = flat.take(pa.array(a_idx, pa.int64()))
        b = flat.take(pa.array(a_idx + 1, pa.int64()))
        bi = pc.binary_join_element_wise(a, b, " ")
        d = doc_ids[doc_idx[a_idx]]
        hb = _hash_strings(bi)
        hc = _hash_strings(a)
        g = (pd.DataFrame({
            "h": np.concatenate((hb, hc)),
            "side": np.concatenate((np.zeros(len(hb), np.int8),
                                    np.ones(len(hc), np.int8))),
            "doc_id": np.concatenate((d, d)),
        }).groupby(["h", "side", "doc_id"], as_index=False).size())
        return pa.table({"h": pa.array(g["h"].to_numpy(), pa.uint64()),
                         "side": pa.array(g["side"].to_numpy()),
                         "doc_id": pa.array(g["doc_id"].to_numpy()),
                         "tf": pa.array(g["size"].to_numpy()
                                        .astype(np.int64))})

    ds = documents_ds(sf_dir).map_batches(explode, batch_format="pyarrow")

    def per_gram(df: pd.DataFrame) -> pd.DataFrame:
        tf = df["tf"].to_numpy(dtype=np.float64)
        C = df.groupby(["h", "side"])["tf"].transform("sum") \
            .to_numpy(dtype=np.float64)
        side = df["side"].to_numpy()
        lp = np.where(side == 0, np.log2(C + 1.0), -np.log2(C + V))
        g = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "s": tf * lp,
            "n": np.where(side == 0, df["tf"].to_numpy(), 0),
        }).groupby("doc_id", as_index=False).sum()
        return g.rename(columns={"s": "s_part", "n": "n_part"})

    partials = hash_groupby_apply(ds, ["h"], per_gram)
    per_doc = hash_groupby_sum(
        partials, ["doc_id"],
        {"s": ("s_part", "sum"), "n": ("n_part", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "n_bigrams": pa.array(n),
                         "avg_logprob": pa.array(
                             round6_half_up(s / np.maximum(n, 1)))})

    return per_doc.map_batches(finish, batch_format="pyarrow")


def term_heavy_hitters(sf_dir: str, k: int = 2000):
    """EXACT corpus heavy hitters in BOUNDED memory — every term whose
    total frequency exceeds T/k (T = total tokens), with its exact
    count, found WITHOUT ever materializing the full term distribution:

    pass 1 (candidates): each batch reduces its exact term counts to a
    Misra-Gries summary of ≤ k counters (subtract the (k+1)-th largest
    count, keep the positive residue). Per-batch decrements total ≤
    n_batch/k, so summed residues underestimate true frequencies by at
    most T/k — every true heavy hitter survives with residue > 0. One
    term-keyed exchange sums residues; the surviving candidate set is
    bounded by k · n_batches, not the vocabulary.

    pass 2 (verify): candidates broadcast via ``ray.put``; one more
    streaming pass counts ONLY candidate terms exactly (map-side
    ``is_in`` filter + partials), and the exact threshold cut makes the
    result deterministic and oracle-checkable — unlike a raw merged
    sketch, whose residues depend on merge order. Returns (term, freq)
    for freq > T/k, exact."""
    import pandas as pd
    import ray

    from .agg import hash_groupby_sum

    def mg_partial(t: pa.Table) -> pa.Table:
        vc = pc.list_flatten(t["terms"])
        tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        d = vc.dictionary_encode() if not pa.types.is_dictionary(vc.type) \
            else vc
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = np.asarray(d.indices, dtype=np.int64)
        if len(codes) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "r_part": pa.array([], pa.int64())})
        cnt = np.zeros(len(d.dictionary), np.int64)
        np.add.at(cnt, codes, tfs)
        if len(cnt) > k:
            thresh = np.partition(cnt, len(cnt) - k - 1)[len(cnt) - k - 1]
            cnt = cnt - thresh
        keep = np.flatnonzero(cnt > 0)
        return pa.table({"term": d.dictionary.take(pa.array(keep)),
                         "r_part": pa.array(cnt[keep])})

    tc = term_counts_ds(sf_dir)
    T = int(tc.map_batches(
        lambda t: pa.table({"doclen": t["doclen"]}),
        batch_format="pyarrow").sum("doclen"))
    cand = hash_groupby_sum(
        tc.map_batches(mg_partial, batch_format="pyarrow"),
        ["term"], {"r": ("r_part", "sum")}).to_pandas()
    cand_set = pa.array(cand["term"].to_numpy(), pa.string())
    cand_ref = ray.put(cand_set)

    def exact_partial(t: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        flat = pc.list_flatten(t["terms"])
        tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        m = pc.is_in(flat, value_set=cs).to_numpy(zero_copy_only=False)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        sub = flat.filter(pa.array(m))
        d = sub.dictionary_encode()
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        cnt = np.zeros(len(d.dictionary), np.int64)
        np.add.at(cnt, np.asarray(d.indices, dtype=np.int64), tfs[m])
        return pa.table({"term": d.dictionary,
                         "f_part": pa.array(cnt)})

    exact = hash_groupby_sum(
        tc.map_batches(exact_partial, batch_format="pyarrow"),
        ["term"], {"freq": ("f_part", "sum")})

    def cut(t: pa.Table) -> pa.Table:
        f = t["freq"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(f * k > T))

    return exact.map_batches(cut, batch_format="pyarrow")


def vocab_stats(sf_dir: str):
    """Corpus vocabulary statistics in ONE rank-free pass — the
    distribution health-check run before tokenizer/vocab decisions:
    (n_types, n_tokens, type_token_ratio, unigram entropy in bits,
    Zipf power-law exponent). Everything is a distributive aggregate
    over the (term, ctf) table:

    * entropy via H = log2(T) − (Σ ctf·log2 ctf)/T — no global rank;
    * the Zipf exponent via the discrete MLE α = 1 + n/Σ ln(ctf/0.5)
      (xmin = 1), which needs only Σ ln ctf — the rank-vs-frequency
      regression would require a GLOBAL vocabulary sort, exactly the
      thing the build's stage-2 lesson avoids.

    Scale shape: the shared term-keyed exchange produces exact ctfs;
    each partition reduces its terms to ONE scalar partial row; the
    driver combines P rows."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply

    def ctf_partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t["terms"])
        tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        d = flat.dictionary_encode()
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        if len(tfs) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "c_part": pa.array([], pa.int64())})
        cnt = np.zeros(len(d.dictionary), np.int64)
        np.add.at(cnt, np.asarray(d.indices, dtype=np.int64), tfs)
        return pa.table({"term": d.dictionary,
                         "c_part": pa.array(cnt)})

    def reduce_terms(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("term")["c_part"].sum().to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "n_types": [np.int64(len(c))],
            "n_tokens": [np.int64(c.sum())],
            "s_clog": [float((c * np.log2(c)).sum())],
            "s_ln": [float(np.log(c / 0.5).sum())],
        })

    parts = hash_groupby_apply(
        term_counts_ds(sf_dir).map_batches(ctf_partial,
                                           batch_format="pyarrow"),
        ["term"], reduce_terms).to_pandas()
    n = int(parts["n_types"].sum())
    T = int(parts["n_tokens"].sum())
    h = np.log2(max(T, 1)) - parts["s_clog"].sum() / max(T, 1)
    alpha = 1.0 + n / parts["s_ln"].sum() if parts["s_ln"].sum() > 0 else 0.0
    return pd.DataFrame({
        "n_types": [np.int64(n)],
        "n_tokens": [np.int64(T)],
        "type_token_ratio": [float(round6_half_up(np.array([n / max(T, 1)]))[0])],
        "entropy_bits": [float(round6_half_up(np.array([h]))[0])],
        "zipf_alpha": [float(round6_half_up(np.array([alpha]))[0])],
    })


def term_df_drift(sf_dir: str, k: int = 20, add_mod: int = 13,
                  add_res: int = 3, rm_res: int = 7, chg_mod: int = 11,
                  chg_res: int = 4) -> pd.DataFrame:
    """VOCABULARY DRIFT between two corpus versions — the release-audit
    readout on top of :func:`..dedup.corpus_diff`'s version contract
    (same deterministic carve: old = ids % add_mod != add_res, new =
    ids % add_mod != rm_res with ' [rev2]' revisions at ids % chg_mod ==
    chg_res; a real deployment passes two corpus paths): the top-``k``
    terms by |log2((df_new+1)/(df_old+1))| (add-one so newborn/vanished
    terms are finite and both engines divide identical doubles), ties →
    term ASC. Returns (term, df_old, df_new, drift) with drift signed on
    the shared 6 dp grid.

    Scale shape: one corpus pass tokenizes BOTH versions per batch and
    emits (term, side) df partials; ONE term-keyed exchange finalizes
    both dfs and keeps a per-partition top-k, so the driver merge is
    ≤ P×k rows. Reference parity: none (beyond-reference; corpus
    monitoring for the LLM-pipeline family)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..normalizer.batch import tokenize_batch
    from .hash_partition import hash_groupby_apply

    def df_partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        old_keep = ids % add_mod != add_res
        new_keep = ids % add_mod != rm_res
        changed = ids % chg_mod == chg_res
        rev = pc.binary_join_element_wise(
            t["text"], pa.array([" [rev2]"] * len(ids), pa.string()), "")
        new_text = pc.if_else(pa.array(changed), rev, t["text"])
        outs = []
        for side, keep, texts in ((0, old_keep, t["text"]),
                                  (1, new_keep, new_text)):
            sel = texts.filter(pa.array(keep))
            if len(sel) == 0:
                continue
            _, terms_list, _ = tokenize_batch(sel, SIMPLE_PROFILE)
            flat = pc.list_flatten(terms_list)  # unique per doc already
            vc = flat.value_counts()
            n = len(vc)
            outs.append(pa.table({
                "term": vc.field("values"),
                "side": pa.array(np.full(n, side, np.int8)),
                "n_part": vc.field("counts").cast(pa.int64()),
            }))
        if not outs:
            return pa.table({"term": pa.array([], pa.string()),
                             "side": pa.array([], pa.int8()),
                             "n_part": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    def drift_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.pivot_table(index="term", columns="side", values="n_part",
                            aggfunc="sum", fill_value=0)
             .reindex(columns=[0, 1], fill_value=0))
        df_old = g[0].to_numpy(np.int64)
        df_new = g[1].to_numpy(np.int64)
        drift = round6_half_up(np.abs(
            np.log2((df_new + 1.0) / (df_old + 1.0))))
        sign = np.where(df_new >= df_old, 1.0, -1.0)
        out = pd.DataFrame({
            "term": g.index.to_numpy(object),
            "df_old": df_old, "df_new": df_new,
            "drift": sign * drift,
        })
        out = out.assign(absd=np.abs(out["drift"].to_numpy())).sort_values(
            ["absd", "term"], ascending=[False, True],
            kind="mergesort").head(k)
        return out[["term", "df_old", "df_new", "drift"]]

    parts = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(df_partials,
                                         batch_format="pyarrow"),
        ["term"], drift_topk).to_pandas()  # ≤ P×k rows
    parts = parts.assign(absd=np.abs(parts["drift"].to_numpy())).sort_values(
        ["absd", "term"], ascending=[False, True], kind="mergesort").head(k)
    return parts[["term", "df_old", "df_new", "drift"]].reset_index(
        drop=True)
