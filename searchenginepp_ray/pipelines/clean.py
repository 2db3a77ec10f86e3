"""Composed corpus-cleaning pipelines — the canonical training-data
shape: quality floors + language filter + dedup, in one streaming pass
plus one keeper aggregate.

``corpus_clean`` is fully SQL-expressible (oracle-checked); the near-dup
variant adds MinHash-pair removal (connected components over the pair
graph, canonical = min doc_id), which no SQL oracle can express —
rows-only checked.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import SIMPLE_PROFILE
from .duck import md5_hex
from .text_stats import QUALITY_STOPS, documents_ds


def _clean_pass(
    sf_dir: str, min_tokens: int, min_distinct_ratio: float,
    max_stopword_ratio: float, lang_threshold: float,
):
    """(doc_id, text_md5) of documents passing the quality + language
    floors — one map pass, everything else filtered before any shuffle.

    The floors are computed through the build's VECTORIZED batch
    tokenizer (the same kernel quality_score/lang_id use: one
    translate + Arrow split/dictionary pass per batch, per-doc counts
    via ``bincount``) — no per-row Python tokenize. Only the survivors
    pay the per-doc md5."""
    import pyarrow.compute as pc

    from ..normalizer.batch import tokenize_batch

    stops_arr = pa.array(QUALITY_STOPS, pa.string())

    def passer(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "text_md5": pa.array([], pa.string())}
            )
        doclens, terms_list, tfs_list = tokenize_batch(t["text"], SIMPLE_PROFILE)
        n_tok = doclens.astype(np.int64)
        n_dis = np.asarray(pc.list_value_length(terms_list)).astype(np.int64)
        flat_terms = pc.list_flatten(terms_list)
        flat_tfs = np.asarray(pc.list_flatten(tfs_list)).astype(np.int64)
        doc_idx = np.repeat(np.arange(n), n_dis)
        is_stop = np.asarray(pc.is_in(flat_terms, value_set=stops_arr))
        n_stop = np.bincount(doc_idx, weights=is_stop * flat_tfs,
                             minlength=n).astype(np.int64)
        safe = np.maximum(n_tok, 1)
        ratio = n_stop / safe
        keep = (
            (n_tok >= min_tokens)
            & (n_dis / safe >= min_distinct_ratio)
            & (ratio <= max_stopword_ratio)
            & (ratio >= lang_threshold)  # the lang_id 'en' heuristic
        )
        idx = np.flatnonzero(keep)
        survivors = t["text"].take(pa.array(idx))
        return pa.table(
            {"doc_id": t["doc_id"].take(pa.array(idx)),
             "text_md5": md5_hex(survivors)}
        )

    return documents_ds(sf_dir).map_batches(passer, batch_format="pyarrow")


def corpus_clean(
    sf_dir: str, min_tokens: int = 5, min_distinct_ratio: float = 0.2,
    max_stopword_ratio: float = 0.9, lang_threshold: float = 0.08,
):
    """Kept doc ids: pass the quality/language floors AND be the lowest
    doc_id of their exact-content (md5) group among the passers."""
    from .agg import hash_groupby_sum

    passers = _clean_pass(
        sf_dir, min_tokens, min_distinct_ratio, max_stopword_ratio,
        lang_threshold,
    )
    keepers = hash_groupby_sum(
        passers, ["text_md5"], {"doc_id": ("doc_id", "min")}
    )
    return keepers.map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow"
    )


def _mark_members(
    ds, key_col: str, members, member_col: str, payload: dict[str, pa.DataType],
    keep_matching: bool,
):
    """Distributed semi-/anti-join: keep ``ds`` rows whose ``key_col``
    does (``keep_matching=True``) or does not appear in
    ``members[member_col]``. Output columns are the ``payload`` columns
    (name -> Arrow type), or ``doc_id`` (the key) when ``payload`` is
    empty. One hash-partition exchange over the union; membership
    testing is one vectorized ``np.isin`` per partition — nothing is
    collected on the driver."""
    from ..index.hash_partition import hash_groupby_apply

    def mem_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {"_k": t[member_col].cast(pa.int64()),
                "_is_mem": pa.array(np.ones(n, np.int8))}
        for c, typ in payload.items():
            cols[c] = pa.array(np.zeros(n, np.int64)).cast(typ)
        return pa.table(cols)

    def row_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {"_k": t[key_col].cast(pa.int64()),
                "_is_mem": pa.array(np.zeros(n, np.int8))}
        for c, typ in payload.items():
            cols[c] = t[c].cast(typ)
        return pa.table(cols)

    u = ds.map_batches(row_rows, batch_format="pyarrow").union(
        members.map_batches(mem_rows, batch_format="pyarrow")
    )

    def sieve(df):
        import pandas as pd

        mem = df.loc[df["_is_mem"] == 1, "_k"].to_numpy()
        rows = df[df["_is_mem"] == 0]
        hit = np.isin(rows["_k"].to_numpy(), mem)
        out = rows[hit if keep_matching else ~hit]
        return out[list(payload)] if payload else pd.DataFrame(
            {"doc_id": out["_k"].to_numpy()}
        )

    return hash_groupby_apply(u, ["_k"], sieve)


def texts_for_keepers(sf_dir: str, keepers):
    """(doc_id, text) of the corpus rows whose doc_id appears in the
    ``keepers`` Dataset — a distributed semi-join: one hash-partition
    exchange on doc_id over the union of corpus rows and keeper marks;
    the text column ships through the exchange exactly once (the
    unavoidable cost of routing content by a key — there is no
    driver-side id set)."""
    import pandas as pd

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import documents_ds

    def doc_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()),
             "text": t["text"],
             "_is_mem": pa.array(np.zeros(len(t), np.int8))}
        )

    def mem_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()),
             "text": pa.array([""] * n, pa.string()),
             "_is_mem": pa.array(np.ones(n, np.int8))}
        )

    u = documents_ds(sf_dir).map_batches(doc_rows, batch_format="pyarrow").union(
        keepers.map_batches(mem_rows, batch_format="pyarrow")
    )

    def sieve(df: pd.DataFrame) -> pd.DataFrame:
        mem = df.loc[df["_is_mem"] == 1, "doc_id"].to_numpy()
        rows = df[df["_is_mem"] == 0]
        hit = np.isin(rows["doc_id"].to_numpy(), mem)
        return rows.loc[hit, ["doc_id", "text"]]

    return hash_groupby_apply(u, ["doc_id"], sieve)


def cleaned_documents_ds(
    sf_dir: str, min_tokens: int = 5, min_distinct_ratio: float = 0.2,
    max_stopword_ratio: float = 0.9, lang_threshold: float = 0.08,
):
    """The kept documents THEMSELVES (doc_id, text) — :func:`corpus_clean`
    keeper ids semi-joined back to the corpus via
    :func:`texts_for_keepers`."""
    return texts_for_keepers(
        sf_dir,
        corpus_clean(sf_dir, min_tokens, min_distinct_ratio,
                     max_stopword_ratio, lang_threshold),
    )


def corpus_clean_neardup(
    sf_dir: str, min_tokens: int = 5, min_distinct_ratio: float = 0.2,
    max_stopword_ratio: float = 0.9, lang_threshold: float = 0.08,
    jaccard_threshold: float = 0.8,
):
    """``corpus_clean`` plus near-duplicate removal: MinHash+LSH pairs
    among the QUALITY-PASSING docs form a graph; each connected component
    keeps only its minimum doc_id.

    The pair graph is restricted to passers before the component pass —
    a doc that passes the floors can only lose to another passer, never
    to a doc that was already dropped for quality (which would silently
    erase that content from the output).

    Fully distributed: pair filtering is two hash-partition semi-joins,
    the component labels come from :func:`.graph.connected_components`
    (min-label propagation over the pairs Dataset, one scalar per round
    to the driver), and losers are removed by a distributed anti-join —
    no driver-side union-find, no id broadcast."""
    from .dedup import minhash_dedup_pairs
    from .graph import component_losers, connected_components

    pairs = minhash_dedup_pairs(
        sf_dir, jaccard_threshold=jaccard_threshold
    )
    passers = _clean_pass(
        sf_dir, min_tokens, min_distinct_ratio, max_stopword_ratio,
        lang_threshold,
    ).materialize()  # reused three times below (id+md5-sized)

    # restrict the pair graph to passers (both endpoints must pass)
    pair_cols = {"doc_a": pa.int64(), "doc_b": pa.int64()}
    pairs = _mark_members(pairs, "doc_a", passers, "doc_id", pair_cols, True)
    pairs = _mark_members(pairs, "doc_b", passers, "doc_id", pair_cols, True)

    losers = component_losers(connected_components(pairs))

    # exact-dedup winners among the passers (same as corpus_clean) ...
    from .agg import hash_groupby_sum

    keepers = hash_groupby_sum(
        passers, ["text_md5"], {"doc_id": ("doc_id", "min")}
    ).map_batches(lambda t: t.select(["doc_id"]), batch_format="pyarrow")

    # ... minus the near-dup losers (distributed anti-join)
    return _mark_members(keepers, "doc_id", losers, "node", {}, False)
