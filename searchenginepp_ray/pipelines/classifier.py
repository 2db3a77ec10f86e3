"""Supervised model training as a distributed pipeline — logistic
regression by full-batch gradient descent over hashed bag-of-words
features (the fastText-style linear document classifier every
training-data curation stack ends up needing for quality / domain /
language scoring, trained on the corpus itself).

The supervised complement of ``similarity.kmeans_embeddings``: same
determinism contract (every driver-side state update rounded to the
shared ``floor(x·1e9+0.5)/1e9`` grid so both engines iterate on
IDENTICAL doubles; feature hashing via the portable ``duck.md5_bucket``
rule the SQL oracle evaluates verbatim), so the unrolled-CTE DuckDB
oracle is hash-exact on the final weight vector.

Scale shape: feature extraction touches the TEXT exactly once — one
streaming tokenize+hash pass materializes a dense
``(doc_id, label, dims+1 floats)`` feature dataset (65 doubles/doc —
orders of magnitude smaller than the corpus; the object store spills
it at 100 TB). Each GD iteration is then ONE streaming pass over the
features producing a single ``(dims+1)``-float gradient partial per
batch — driver traffic per iteration is ``P × (dims+1)`` floats, the
weight vector broadcasts via the task closure, and nothing text-sized
moves after pass 1. Full-batch (not SGD) is the deterministic choice:
the gradient is a pure data-parallel sum, so the result is independent
of partitioning, scheduling and batch order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .similarity import _round9_half_up


def _features_ds(sf_dir: str, dims: int, pos_lang: str) -> ray.data.Dataset:
    """One tokenize+hash pass → materialized dense feature dataset:
    (doc_id, y, x: FixedSizeList<double>[dims+1]). Feature j<dims is
    the doc's token count in md5-bucket j divided by its token count
    (empty docs: all zeros); feature dims is the bias 1.0."""
    from .duck import md5_bucket
    from .filters import _words_flat
    from .text_stats import documents_ds

    D = int(dims)

    def feats(t: pa.Table) -> pa.Table:
        n = len(t)
        doc_idx, flat, n_tokens = _words_flat(t["text"])
        X = np.zeros((n, D + 1), np.float64)
        if len(flat):
            b = md5_bucket(flat, D).to_numpy(zero_copy_only=False)
            np.add.at(X, (doc_idx, b), 1.0)
            nz = n_tokens > 0
            X[nz, :D] /= n_tokens[nz, None]
        X[:, D] = 1.0  # bias
        lang = t["lang"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "y": pa.array((lang == pos_lang).astype(np.float64)),
            "x": pa.FixedSizeListArray.from_arrays(
                pa.array(X.reshape(-1)), D + 1),
        })

    return documents_ds(sf_dir, columns=("doc_id", "text", "lang")) \
        .map_batches(feats, batch_format="pyarrow").materialize()


def logreg_train(sf_dir: str, dims: int = 64, iters: int = 5,
                 lr: float = 0.5, pos_lang: str = "en") -> pd.DataFrame:
    """Train ``is the doc in pos_lang?`` by ``iters`` full-batch GD
    steps from w=0: ``w ← round9(w − lr · round9(Σ x·(σ(x·w) − y) / N))``.
    Returns (dim, weight) — dims+1 rows, bias last — exactly
    reproducible across engines (see module docstring)."""
    D = int(dims)
    feats = _features_ds(sf_dir, D, pos_lang)
    n_total = feats.count()

    w = np.zeros(D + 1, np.float64)
    for _ in range(int(iters)):
        w_now = w.copy()  # broadcast via the task closure

        def grad_partial(t: pa.Table) -> pa.Table:
            x = t["x"]
            if isinstance(x, pa.ChunkedArray):
                x = x.combine_chunks()
            X = np.asarray(x.values).reshape(-1, D + 1)
            y = t["y"].to_numpy(zero_copy_only=False)
            p = 1.0 / (1.0 + np.exp(-(X @ w_now)))
            g = X.T @ (p - y)
            return pa.table({"j": pa.array(np.arange(D + 1, dtype=np.int64)),
                             "g": pa.array(g)})

        parts = feats.map_batches(
            grad_partial, batch_format="pyarrow").to_pandas()
        g = parts.groupby("j")["g"].sum().reindex(
            range(D + 1), fill_value=0.0).to_numpy()
        w = _round9_half_up(w - lr * _round9_half_up(g / n_total))

    return pd.DataFrame({"dim": np.arange(D + 1, dtype=np.int64),
                         "weight": w})


def naive_bayes_lang(sf_dir: str) -> "ray.data.Dataset":
    """Multinomial naive-Bayes language classifier, trained on the corpus's
    own ``lang`` labels and applied back to every tokenized doc; output is
    the confusion matrix (lang, lang_pred, n_docs) — the train+infer shape
    of fastText-style lang-id models at curation scale.

    Model: argmax_l  log2 p(l) + Σ_t tf·log2 p(t|l), add-one smoothing
    p(t|l) = (ctf_{t,l}+1)/(T_l+V). The smoothing denominator is term-
    independent, so the decomposition Σ tf·log2(ctf_{t,l}+1) − n_d·log2(T_l+V)
    keeps the term-side exchange free of global scalars (the same trick as
    ``text_stats.unigram_logprob``); log2(0+1)=0 means absent (term, lang)
    pairs contribute nothing and never become join rows.

    Scale shape: one tokenize pass feeds (a) per-lang doc/token totals —
    a ≤ n_langs aggregate broadcast via the task closure, (b) ONE
    term-keyed exchange of posting rows + map-side (term, lang) ctf
    partials whose kernel emits per-(doc, lang) score partials, (c) ONE
    doc-keyed exchange merging those with tagged per-doc meta rows
    (truth label + token count) for the argmax, (d) a transition-matrix-
    sized confusion aggregate. V comes from the shared ``term_df``
    vocabulary pipeline. Docs with zero tokens have no likelihood terms
    and are excluded (both engines). Scores are compared on the shared
    floor(x·1e6+0.5)/1e6 grid with lang-ASC tie-break so both engines
    argmax identical values."""
    from ..config import SIMPLE_PROFILE
    from ..normalizer.batch import tokenize_batch
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .text_stats import documents_ds, round6_half_up, term_df

    def tok(t: pa.Table) -> pa.Table:
        doclens, terms_list, tfs_list = tokenize_batch(t["text"], SIMPLE_PROFILE)
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "doclen": pa.array(doclens.astype(np.int64)),
            "terms": terms_list,
            "tfs": tfs_list,
        })

    tc = documents_ds(sf_dir, ("doc_id", "text", "lang")) \
        .map_batches(tok, batch_format="pyarrow").materialize()

    # ---- tiny global stats: priors + per-lang token totals + V ----
    def lang_partial(t: pa.Table) -> pa.Table:
        df = pa.table({"lang": t["lang"], "doclen": t["doclen"]}).to_pandas()
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("doclen", "size"), n_tokens=("doclen", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    stats = hash_groupby_sum(
        tc.map_batches(lang_partial, batch_format="pyarrow"),
        ["lang"], {"n_docs": ("n_docs", "sum"),
                   "n_tokens": ("n_tokens", "sum")}).to_pandas()
    langs = np.asarray(sorted(stats["lang"]))
    nd = stats.set_index("lang")["n_docs"].reindex(langs).to_numpy(np.float64)
    tl = stats.set_index("lang")["n_tokens"].reindex(langs).to_numpy(np.float64)
    n_total = float(nd.sum())
    V = float(term_df(sf_dir).count())
    log_prior = np.log2(nd / n_total)
    log_denom = np.log2(tl + V)  # per-lang log2(T_l + V)
    lang_pos = {l: i for i, l in enumerate(langs)}

    # ---- term-keyed exchange: posting rows + (term, lang) ctf partials ----
    def explode(t: pa.Table) -> pa.Table:
        terms = t["terms"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        flat_terms = pc.list_flatten(terms)
        flat_tfs = pc.list_flatten(t["tfs"]).cast(pa.int64())
        n_per = np.asarray(pc.list_value_length(terms)).astype(np.int64)
        doc_ids = np.repeat(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), n_per)
        doc_lang = np.repeat(
            t["lang"].to_numpy(zero_copy_only=False), n_per)
        g = (pa.table({"term": flat_terms, "lang": pa.array(doc_lang),
                       "tf": flat_tfs})
             .group_by(["term", "lang"]).aggregate([("tf", "sum")]))

        def _c(a):
            return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a

        n_post, n_p = len(flat_terms), len(g)
        return pa.table({
            "term": pa.concat_arrays([_c(flat_terms), _c(g["term"])]),
            "doc_id": pa.concat_arrays(
                [pa.array(doc_ids), pa.array(np.zeros(n_p, np.int64))]),
            "lang": pa.concat_arrays(
                [pa.array(doc_lang), _c(g["lang"])]),
            "tf": pa.concat_arrays(
                [_c(flat_tfs), _c(g["tf_sum"].cast(pa.int64()))]),
            "is_post": pa.array(
                np.r_[np.ones(n_post, np.int8), np.zeros(n_p, np.int8)]),
        })

    def per_term(df: pd.DataFrame) -> pd.DataFrame:
        posts = df[df["is_post"] == 1]
        ctf = (df[df["is_post"] == 0]
               .groupby(["term", "lang"], as_index=False)["tf"].sum())
        if len(posts) == 0 or len(ctf) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "lang": pd.Series([], dtype=object),
                                 "s": pd.Series([], dtype=np.float64)})
        # log2(ctf+1) over the partition's (term, lang) vocabulary once,
        # fanned out to the postings by a term join (one row per posting
        # per lang that has seen the term; unseen pairs contribute 0)
        ctf["lp"] = np.log2(ctf["tf"].to_numpy(np.float64) + 1.0)
        j = posts.merge(ctf[["term", "lang", "lp"]], on="term",
                        suffixes=("_doc", ""))
        g = pd.DataFrame({
            "doc_id": j["doc_id"].to_numpy(),
            "lang": j["lang"].to_numpy(),
            "s": j["tf"].to_numpy(np.float64) * j["lp"].to_numpy(),
        }).groupby(["doc_id", "lang"], as_index=False)["s"].sum()
        return g

    sparts = hash_groupby_apply(
        tc.map_batches(explode, batch_format="pyarrow"), ["term"], per_term)

    # ---- doc-keyed exchange: tagged meta rows + score partials ----
    def meta_rows(t: pa.Table) -> pa.Table:
        keep = pc.greater(t["doclen"], 0)
        t = t.filter(keep)
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "s": pa.array(np.zeros(len(t), np.float64)),
            "n": t["doclen"],
            "kind": pa.array(np.zeros(len(t), np.int8)),
        })

    def part_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "s": t["s"],
            "n": pa.array(np.zeros(len(t), np.int64)),
            "kind": pa.array(np.ones(len(t), np.int8)),
        })

    tagged = tc.map_batches(meta_rows, batch_format="pyarrow").union(
        sparts.map_batches(part_rows, batch_format="pyarrow"))

    L = len(langs)

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        meta = df[df["kind"] == 0]
        if len(meta) == 0:
            return pd.DataFrame({"lang": pd.Series([], dtype=object),
                                 "lang_pred": pd.Series([], dtype=object)})
        meta = meta.sort_values("doc_id")
        docs = meta["doc_id"].to_numpy()
        pos = {d: i for i, d in enumerate(docs)}
        S = np.zeros((len(docs), L), np.float64)
        sp = df[df["kind"] == 1]
        if len(sp):
            ri = sp["doc_id"].map(pos).to_numpy()
            ci = sp["lang"].map(lang_pos).to_numpy()
            np.add.at(S, (ri.astype(np.int64), ci.astype(np.int64)),
                      sp["s"].to_numpy())
        n = meta["n"].to_numpy(np.float64)
        score = log_prior[None, :] + S - n[:, None] * log_denom[None, :]
        score = round6_half_up(score)
        pred = langs[np.argmax(score, axis=1)]  # ties -> lowest index = lang ASC
        return pd.DataFrame({"lang": meta["lang"].to_numpy(),
                             "lang_pred": pred})

    per_doc_ds = hash_groupby_apply(tagged, ["doc_id"], per_doc)

    def conf_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "lang_pred"], as_index=False).size()
        return g.rename(columns={"size": "n_docs"})

    conf = hash_groupby_sum(
        per_doc_ds.map_batches(
            lambda t: pa.Table.from_pandas(conf_partial(t.to_pandas()),
                                           preserve_index=False),
            batch_format="pyarrow"),
        ["lang", "lang_pred"], {"n_docs": ("n_docs", "sum")})

    def fix_types(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"], "lang_pred": t["lang_pred"],
                         "n_docs": t["n_docs"].cast(pa.int64())})

    return conf.map_batches(fix_types, batch_format="pyarrow")
