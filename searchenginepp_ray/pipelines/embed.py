"""Embedding GENERATION over the documents table — the "model
inference" stage of a training-data pipeline, implemented with a
deterministic, oracle-checkable model: feature-hashed TF-IDF document
vectors (the classic hashing-trick text embedder).

Every term hashes to one of ``dims`` buckets with the portable md5
bucket rule (:func:`.duck.md5_bucket` — the identical expression the
SQL oracle evaluates), and each bucket accumulates ``tf * log2(N/df)``.
A real neural embedder slots into the same shape: replace the per-term
kernel with a batched forward pass inside the same actor-pool
``map_batches`` and keep the downstream layout.

Scale shape (no driver funnels, two exchanges):

1. one pass over :func:`..text_stats.term_counts_ds` explodes each doc
   into posting rows (term, doc_id, tf) AND per-batch df partials —
   both tagged into one stream, so the term-side exchange runs once;
2. hash exchange on ``term``: each partition finalizes its terms' df,
   computes idf, hashes terms to dims (one C-speed md5 kernel over the
   partition VOCABULARY, not the posting stream), and pre-aggregates
   (doc_id, dim) partials map-side;
3. hash exchange on (doc_id, dim) sums the partials.

Output is LONG format (doc_id, dim, weight): exactly SQL-groupable for
the oracle; :func:`doc_embedding_vectors` pivots it to a dense
``FixedSizeList`` column (one vectorized per-doc scatter per
partition), which :func:`text_knn` ranks by cosine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

DIMS = 64


def _n_docs(sf_dir: str) -> int:
    from .text_stats import parquet_rows

    path = sf_dir if sf_dir.endswith(".parquet") else f"{sf_dir}/documents.parquet"
    return parquet_rows(path)


def _explode_posts_df(t: pa.Table, partial: str = "df") -> pa.Table:
    """One term_counts batch → posting rows (term, doc_id, tf, is_post=1)
    PLUS per-batch per-term partials (term, 0, part, is_post=0), tagged
    into one stream so the term-side exchange runs once. ``partial``
    selects the partial statistic: ``"df"`` (docs-per-term — terms are
    unique per doc, so it's the flat stream's value_counts) or ``"ctf"``
    (collection term frequency — grouped tf sum). Shared by
    :func:`doc_embedding`, :func:`doc_keywords` and
    :func:`..text_stats.unigram_logprob`."""
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


def doc_embedding(sf_dir: str, dims: int = DIMS) -> ray.data.Dataset:
    """(doc_id, dim, weight): feature-hashed TF-IDF document embedding in
    long format. ``weight`` is rounded to 6 dp for oracle comparability
    (cross-engine log2/summation ULPs are ~1e-14 absolute)."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .text_stats import term_counts_ds

    n_docs = float(_n_docs(sf_dir))

    explode = _explode_posts_df

    def per_term(df: pd.DataFrame) -> pd.DataFrame:
        from .duck import md5_bucket

        posts = df[df["is_post"] == 1]
        dfs = (df[df["is_post"] == 0].groupby("term")["tf"].sum())
        if len(posts) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "dim": pd.Series([], dtype=np.int64),
                                 "w_part": pd.Series([], dtype=np.float64)})
        # hash the partition VOCABULARY once, map to the posting stream
        vocab = dfs.index.to_numpy()
        dims_of = np.asarray(md5_bucket(pa.array(vocab, pa.string()), dims))
        idf = np.log2(n_docs / dfs.to_numpy(dtype=np.float64))
        lut = pd.DataFrame({"term": vocab, "dim": dims_of, "idf": idf})
        j = posts.merge(lut, on="term")
        w = j["tf"].to_numpy(dtype=np.float64) * j["idf"].to_numpy()
        # map-side combiner: partial sums per (doc, dim) before exchange 2
        g = pd.DataFrame({"doc_id": j["doc_id"].to_numpy(),
                          "dim": j["dim"].to_numpy(), "w": w}).groupby(
            ["doc_id", "dim"], as_index=False)["w"].sum()
        return g.rename(columns={"w": "w_part"})

    partials = hash_groupby_apply(
        term_counts_ds(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["term"], per_term,
    )
    emb = hash_groupby_sum(
        partials, ["doc_id", "dim"], {"weight": ("w_part", "sum")}
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "dim": t["dim"].cast(pa.int64()),
            "weight": pc.round(t["weight"], ndigits=6),
        })

    return emb.map_batches(finish, batch_format="pyarrow")


def doc_keywords(sf_dir: str, m: int = 5) -> ray.data.Dataset:
    """Top-``m`` TF-IDF keywords per document — keyword extraction /
    metadata tagging for a training corpus (the grouped-top-k member of
    the text family, at per-doc cardinality).

    Shape: the same single explode pass + term-keyed exchange as
    :func:`doc_embedding` (each partition finalizes its terms' df and
    joins its postings — terms are unique per doc so no combiner is
    needed), then one doc-keyed exchange ranks with a vectorized
    sort/cumcount kernel per partition. Ranking compares UNROUNDED
    weights with term ASC tie-break — exact ties (equal tf and df) are
    identical doubles in both engines, so the oracle's row_number agrees;
    only the reported weight is rounded (shared floor rule)."""
    import pandas as pd

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import round6_half_up, term_counts_ds

    n_docs = float(_n_docs(sf_dir))

    def per_term(df: pd.DataFrame) -> pd.DataFrame:
        posts = df[df["is_post"] == 1]
        dfs = df[df["is_post"] == 0].groupby("term")["tf"].sum()
        if len(posts) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "term": pd.Series([], dtype=object),
                                 "w": pd.Series([], dtype=np.float64)})
        lut = pd.DataFrame({
            "term": dfs.index.to_numpy(),
            "idf": np.log2(n_docs / dfs.to_numpy(dtype=np.float64))})
        j = posts.merge(lut, on="term")
        return pd.DataFrame({
            "doc_id": j["doc_id"].to_numpy(),
            "term": j["term"].to_numpy(),
            "w": j["tf"].to_numpy(dtype=np.float64) * j["idf"].to_numpy()})

    weighted = hash_groupby_apply(
        term_counts_ds(sf_dir).map_batches(
            _explode_posts_df, batch_format="pyarrow"),
        ["term"], per_term)

    def topm(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "w", "term"],
                            ascending=[True, False, True], kind="mergesort")
        r = df.groupby("doc_id").cumcount().to_numpy()
        keep = r < m
        out = df.iloc[keep].copy()
        out["rank"] = (r[keep] + 1).astype(np.int64)
        out["weight"] = round6_half_up(out.pop("w").to_numpy())
        return out[["doc_id", "term", "rank", "weight"]]

    return hash_groupby_apply(weighted, ["doc_id"], topm)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-30)


def _vec_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from an Arrow list-of-float column — zero-copy
    flatten + reshape (one vectorized dtype cast at most), replacing the
    ~5-10× slower ``np.asarray(col.to_pylist())`` ingest on every vector
    op. Requires equal-length lists (embeddings are)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if isinstance(col, pa.ExtensionArray):
        # Ray's tensor extension (what a pandas round-trip of ndarray
        # rows infers): its to_numpy() is already the (n, dim) matrix
        return col.to_numpy().astype(dtype, copy=False)
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
    else:
        lens = pc.list_value_length(col).to_numpy()
        dim = int(lens[0])
        if not (lens == dim).all():
            raise ValueError("embedding column is ragged — cannot matrixize")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, dim).astype(dtype, copy=False)


def doc_embedding_vectors(sf_dir: str, dims: int = DIMS,
                          dtype=None) -> ray.data.Dataset:
    """Dense form: (doc_id, embedding FixedSizeList<float32, dims>) —
    one more hash exchange on doc_id pivots the long rows into vectors
    with a single per-partition scatter (no per-doc Python).
    ``dtype=np.float64`` keeps full precision (used by :func:`text_knn`,
    whose oracle comparison needs the rounded weights bit-exact)."""
    from ..index.hash_partition import hash_groupby_apply

    dt = dtype or np.float32

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        ids, inv = np.unique(df["doc_id"].to_numpy(), return_inverse=True)
        mat = np.zeros((len(ids), dims), dtype=dt)
        mat[inv, df["dim"].to_numpy()] = df["weight"].to_numpy()
        return pd.DataFrame({"doc_id": ids, "embedding": list(mat)})

    return hash_groupby_apply(doc_embedding(sf_dir, dims), ["doc_id"], pivot)


def text_knn(sf_dir: str, n_queries: int = 5, k: int = 5,
             dims: int = DIMS) -> ray.data.Dataset:
    """The COMPOSED semantic-search query: embedding GENERATION
    (:func:`doc_embedding`, the deterministic feature-hashed TF-IDF
    model) → dense pivot → exact cosine top-k of every document against
    the first ``n_queries`` documents — the end-to-end shape of
    embed-then-retrieve corpus curation, value-checked by ONE SQL
    statement.

    Determinism contract: similarity is computed from the ROUNDED
    (6 dp) long-format weights — which the doc_embedding oracle proves
    bit-identical across engines — and ranking compares the ROUNDED
    cosine (ties → neighbor_id ASC), so cross-engine summation-order
    ULPs cannot flip a rank. Docs with no tokens have no embedding rows
    and are absent, matching the SQL join semantics.

    Scale shape: the query matrix is n_queries×dims (collected once,
    ``ray.put`` broadcast); the corpus side streams through the dense
    pivot with per-batch partial top-k — no all-to-all beyond
    doc_embedding's own two exchanges + the pivot exchange."""
    import pyarrow as pa_mod

    # materialize the dense pivot ONCE: it is consumed twice (query
    # collection + the scan below), and Ray re-executes lineage per
    # consumption — doc_embedding's two exchanges would otherwise run
    # twice. The pivot is the pipeline's smallest artifact (dims×8 bytes
    # per doc) and spills via the object store at scale.
    vecs = doc_embedding_vectors(sf_dir, dims, dtype=np.float64).materialize()

    # bounded collect of the n_queries query vectors only — a VECTORIZED
    # batch mask (Arrow filter per batch), never a per-row Python
    # predicate over the corpus
    def query_mask(t: pa_mod.Table) -> pa_mod.Table:
        import pyarrow.compute as pc

        return t.filter(pc.less(t["doc_id"], pa_mod.scalar(n_queries)))

    q_rows = (vecs.map_batches(query_mask, batch_format="pyarrow")
              .take_all())
    q_ids = np.array([r["doc_id"] for r in q_rows], dtype=np.int64)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in q_rows])
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    q_ref = ray.put((q_ids, qn))

    def partial_topk(t: pa_mod.Table) -> pa_mod.Table:
        q_ids, qn = ray.get(q_ref)
        m = _vec_matrix(t["embedding"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = qn @ _normalize(m).T
        out_q, out_n, out_s = [], [], []
        for qi in range(sims.shape[0]):
            raw = sims[qi]
            # the oracle's JOIN ... USING (dim) only ranks docs sharing
            # at least one posted dim with the query; disjoint support
            # gives a dot of exactly 0.0 — drop those candidates so the
            # two sides rank the same set
            cand = np.flatnonzero(raw != 0.0)
            if len(cand) == 0:
                continue
            s = np.floor(raw[cand] * 1e6 + 0.5) / 1e6  # shared rounding
            kk = min(k, len(s))
            thresh = np.partition(s, len(s) - kk)[len(s) - kk]
            keep = cand[np.flatnonzero(s >= thresh)]  # tie-safe partial
            out_q.extend([int(q_ids[qi])] * len(keep))
            out_n.extend(ids[keep].tolist())
            out_s.extend(
                (np.floor(raw[keep] * 1e6 + 0.5) / 1e6).tolist())
        return pa_mod.table({
            "query_id": pa_mod.array(out_q, pa_mod.int64()),
            "neighbor_id": pa_mod.array(out_n, pa_mod.int64()),
            "cosine": pa_mod.array(out_s, pa_mod.float64())})

    partials = vecs.map_batches(partial_topk, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cosine", "neighbor_id"],
                            ascending=[False, True]).head(k)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "neighbor_id", "rank", "cosine"]]

    return partials.groupby("query_id").map_groups(
        merge, batch_format="pandas")


def doc_similarity_pairs(sf_dir: str, threshold: float = 0.6,
                         max_df_frac: float = 0.05) -> ray.data.Dataset:
    """All document pairs with TF-IDF cosine ≥ ``threshold`` — the
    INDEX-BASED similarity join (inverted-list / "all-pairs" shape): two
    docs can only be similar if they share a term, so candidate pairs are
    enumerated per POSTING LIST instead of per doc pair, and the exact
    O(N²) scan never happens: it works straight off the postings.

    Similarity contract (identical in the SQL oracle): weights are
    ``tf · log2(N/df)`` over terms with ``df ≤ max(16, floor(N ·
    max_df_frac))`` — the heavy-term cut that bounds per-list work (a
    term in x% of the corpus contributes O((xN)²) candidate pairs and
    ~zero idf mass, so similarity joins cap df; both engines apply the
    same cap). Norms include the capped vocabulary's df=1 terms; dots
    can't see them (no pair shares a df=1 term — an EXACT skip, not an
    approximation). Cosines are compared on the shared 6 dp
    floor-rounding grid. Returns (doc_a, doc_b, cosine), doc_a < doc_b.

    Scale shape: one explode pass (shared with :func:`doc_embedding`),
    ONE term-keyed exchange whose per-partition kernel finalizes df,
    enumerates each posting list's C(df,2) weighted pairs with two-level
    index arithmetic (no per-term Python) and map-side-combines both
    pair-dot and norm partials; then a (doc_a, doc_b) exchange sums the
    dots, a doc-keyed exchange sums the norms, and two tagged-union
    doc-keyed exchanges attach ||a|| and ||b|| (the norms table scales
    with the corpus, so it is exchanged, never broadcast). Pair traffic
    is Σ_{df≤cap} C(df,2) — bounded by the df cap, not N²."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .text_stats import round6_half_up, term_counts_ds

    n_docs_i = _n_docs(sf_dir)
    n_docs = float(n_docs_i)
    max_df = max(16, int(n_docs_i * max_df_frac))

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({
            "a": pd.Series([], dtype=np.int64),
            "b": pd.Series([], dtype=np.int64),
            "v": pd.Series([], dtype=np.float64),
            "kind": pd.Series([], dtype=np.int8)})

    def per_term(df: pd.DataFrame) -> pd.DataFrame:
        posts = df[df["is_post"] == 1]
        dfs = df[df["is_post"] == 0].groupby("term")["tf"].sum()
        dfs = dfs[dfs <= max_df]
        if len(posts) == 0 or len(dfs) == 0:
            return _empty()
        lut = pd.DataFrame({
            "term": dfs.index.to_numpy(),
            "idf": np.log2(n_docs / dfs.to_numpy(dtype=np.float64))})
        j = posts.merge(lut, on="term")  # inner: heavy terms drop here
        w = j["tf"].to_numpy(dtype=np.float64) * j["idf"].to_numpy()
        doc = j["doc_id"].to_numpy(np.int64)
        # norm partials over the capped vocabulary (df=1 included)
        nrm = (pd.DataFrame({"a": doc, "v": w * w})
               .groupby("a", as_index=False)["v"].sum())
        nrm["b"] = np.full(len(nrm), -1, np.int64)
        nrm["kind"] = np.zeros(len(nrm), np.int8)
        # pair enumeration: every posting of a term is co-located here,
        # so each term's C(df,2) doc pairs come from one sorted run
        from .agg import pairs_within_runs

        code = pd.factorize(j["term"].to_numpy(object), sort=False)[0]
        o = np.lexsort((doc, code))
        code, doc_s, w_s = code[o], doc[o], w[o]
        fi, si = pairs_within_runs(code)
        if len(fi) == 0:
            return nrm[["a", "b", "v", "kind"]]
        # doc-sorted within each run ⇒ doc_s[fi] < doc_s[si]
        pairs = (pd.DataFrame({"a": doc_s[fi], "b": doc_s[si],
                               "v": w_s[fi] * w_s[si]})
                 .groupby(["a", "b"], as_index=False)["v"].sum())
        pairs["kind"] = np.ones(len(pairs), np.int8)
        return pd.concat([nrm[["a", "b", "v", "kind"]],
                          pairs[["a", "b", "v", "kind"]]],
                         ignore_index=True)

    tagged = hash_groupby_apply(
        term_counts_ds(sf_dir).map_batches(
            _explode_posts_df, batch_format="pyarrow"),
        ["term"], per_term,
    ).materialize()  # two consumers below — don't re-run the exchange

    def _norm_fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": t["a"],
            "nrm": pc.sqrt(t["v"]),
        })

    norms = hash_groupby_sum(
        tagged.filter(expr="kind == 0"), ["a"], {"v": ("v", "sum")}
    ).map_batches(_norm_fin, batch_format="pyarrow").materialize()

    dots = hash_groupby_sum(
        tagged.filter(expr="kind == 1"), ["a", "b"], {"v": ("v", "sum")})

    # attach ||a||: tagged union keyed on doc_a
    def dot_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["a"].cast(pa.int64()), "b": t["b"].cast(pa.int64()),
            "v": t["v"], "_side": pa.array(np.ones(len(t), np.int8))})

    def norm_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["a"].cast(pa.int64()),
            "b": pa.array(np.full(len(t), -1, np.int64)),
            "v": t["nrm"], "_side": pa.array(np.zeros(len(t), np.int8))})

    def attach_a(df: pd.DataFrame) -> pd.DataFrame:
        n = df[df["_side"] == 0][["k", "v"]].rename(columns={"v": "na"})
        d = df[df["_side"] == 1]
        j = d.merge(n, on="k")
        return pd.DataFrame({"a": j["k"].to_numpy(np.int64),
                             "k": j["b"].to_numpy(np.int64),
                             "v": j["v"].to_numpy(),
                             "na": j["na"].to_numpy()})

    with_na = hash_groupby_apply(
        dots.map_batches(dot_rows, batch_format="pyarrow").union(
            norms.map_batches(norm_rows, batch_format="pyarrow")),
        ["k"], attach_a)

    # attach ||b|| and finish: tagged union keyed on doc_b
    def na_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["k"], "a": t["a"], "v": t["v"], "na": t["na"],
            "_side": pa.array(np.ones(len(t), np.int8))})

    def norm_rows_b(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "k": t["a"].cast(pa.int64()),
            "a": pa.array(np.full(n, -1, np.int64)),
            "v": t["nrm"], "na": pa.array(np.zeros(n, np.float64)),
            "_side": pa.array(np.zeros(n, np.int8))})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df[df["_side"] == 0][["k", "v"]].rename(columns={"v": "nb"})
        d = df[df["_side"] == 1]
        j = d.merge(n, on="k")
        cos = round6_half_up(
            j["v"].to_numpy() / (j["na"].to_numpy() * j["nb"].to_numpy()))
        keep = cos >= threshold
        return pd.DataFrame({
            "doc_a": j["a"].to_numpy(np.int64)[keep],
            "doc_b": j["k"].to_numpy(np.int64)[keep],
            "cosine": cos[keep]})

    return hash_groupby_apply(
        with_na.map_batches(na_rows, batch_format="pyarrow").union(
            norms.map_batches(norm_rows_b, batch_format="pyarrow")),
        ["k"], finish)
