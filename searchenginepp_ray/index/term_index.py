"""Term-partitioned global posting lists via an explicit salted
``groupby(term)`` shuffle — the north-star shuffle shape.

The primary (serving) index is doc-partitioned like the reference's
segments (see :mod:`.build`), where the docid-range segment acts as an
implicit salt. This module provides the complementary *term-partitioned*
layout a 10^12-doc deployment needs for term-major analytics (df/cf
tables, posting exports, index-merge jobs):

1. explode tokenized docs to ``(term, salt, docid, tf)`` postings —
   **hot terms** (global df above ``hot_df``) get ``salt = docid //
   salt_range`` so no single shuffle key exceeds ``salt_range`` docs;
   cold terms use salt 0;
2. ``groupby(term, salt)`` — the all-to-all exchange — then per group:
   docid-sort + delta-gap VarByte encode into one packed row;
3. hash-partition rows by ``blake2(term) % num_partitions`` and write
   partitioned Parquet (``part=N/``) — sub-lists of one term concatenate
   in salt order, which *is* global docid order by construction.

Reference semantics being reproduced: posting lists docid-sorted per term
(reference src/indexBuilder/IndexBuilder.hpp:50), global df = Σ partition
df (reference src/builder.cpp:160-168).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..codecs import varbyte


def _term_part(term: str, num_partitions: int) -> int:
    return int.from_bytes(
        hashlib.blake2b(term.encode("utf8"), digest_size=8).digest(), "little"
    ) % num_partitions


def build_term_postings(
    index_dir: str,
    out_dir: str,
    *,
    num_partitions: int = 8,
    hot_df: int = 1000,
    salt_range: int = 50_000,
) -> dict:
    """Build the term-partitioned posting-list table from an existing
    doc-partitioned build's tokenized docs (``index_dir/docs``) and
    global df table (``index_dir/global/term_df/``)."""
    docs_dir = os.path.join(index_dir, "docs")
    seg_files = [
        os.path.join(docs_dir, d, f)
        for d in sorted(os.listdir(docs_dir))
        if d.startswith("seg=")
        for f in sorted(os.listdir(os.path.join(docs_dir, d)))
        if f.endswith(".parquet")
    ]
    from .build import read_global_term_df

    gdf = read_global_term_df(index_dir, columns=["term", "df"])
    hot = gdf.filter(pc.greater(gdf["df"], hot_df))["term"]
    hot_arr = hot.combine_chunks() if hot.num_chunks else pa.array([], pa.string())

    def explode(t: pa.Table) -> pa.Table:
        terms = t["terms"].combine_chunks()
        lens = np.asarray(pc.list_value_length(terms))
        flat = pc.list_flatten(terms)
        tfs = np.asarray(pc.list_flatten(t["tfs"].combine_chunks()))
        docid = np.repeat(t["docid"].to_numpy(), lens)
        is_hot = np.asarray(pc.is_in(flat, value_set=hot_arr))
        salt = np.where(is_hot, docid // np.uint64(salt_range), 0).astype(np.int32)
        return pa.table(
            {
                "term": flat,
                "salt": pa.array(salt),
                "docid": pa.array(docid),
                "tf": pa.array(tfs.astype(np.uint32)),
            }
        )

    def encode_group(g: pa.Table) -> pa.Table:
        # one packed posting sub-list per (term, salt); arrival order is
        # shuffle-arbitrary → explicit docid sort (O2: the reference gets
        # this for free from input order, we must do it after the shuffle)
        docid = g["docid"].to_numpy()
        order = np.argsort(docid, kind="stable")
        docid = docid[order].astype(np.uint64)
        tf = g["tf"].to_numpy()[order]
        gaps = np.empty_like(docid)
        gaps[1:] = docid[1:] - docid[:-1]
        gaps[0] = docid[0]
        enc, _ = varbyte.encode(gaps)
        term = g["term"][0].as_py()
        return pa.table(
            {
                "term": pa.array([term], pa.string()),
                "salt": pa.array([int(g["salt"][0].as_py())], pa.int32()),
                "df_part": pa.array([len(docid)], pa.int64()),
                "tf_part": pa.array([int(tf.sum())], pa.int64()),
                "min_docid": pa.array([int(docid[0])], pa.uint64()),
                "max_docid": pa.array([int(docid[-1])], pa.uint64()),
                "docid_gaps_vb": pa.array([enc.tobytes()], pa.large_binary()),
                "tfs": pa.array([tf.astype(np.uint32)], pa.list_(pa.uint32())),
            }
        )

    def add_part(t: pa.Table) -> pa.Table:
        parts = [
            _term_part(x, num_partitions) for x in t["term"].to_pylist()
        ]
        return t.append_column("part", pa.array(parts, pa.int32()))

    ds = ray.data.read_parquet(seg_files, columns=["docid", "terms", "tfs"])
    (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["term", "salt"])  # THE all-to-all shuffle, salted
        .map_groups(encode_group, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .write_parquet(out_dir, partition_cols=["part"])
    )
    return {"out_dir": out_dir, "num_partitions": num_partitions,
            "hot_df": hot_df, "salt_range": salt_range}


def term_postings_stats(out_dir: str) -> pd.DataFrame:
    """Per-term (df, tf) read back from the term-partitioned table —
    verifies the salted shuffle lost nothing."""
    t = pq.read_table(out_dir, columns=["term", "df_part", "tf_part"])
    df = (
        t.group_by("term")
        .aggregate([("df_part", "sum"), ("tf_part", "sum")])
        .rename_columns(["term", "df", "tf"])
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    return df.astype({"df": "int64", "tf": "int64"})


def verify_term_postings(out_dir: str) -> dict:
    """Invariants: per-term salt sub-lists concatenate (in salt order) to a
    strictly increasing global docid list; decoded gap streams match df.

    DISTRIBUTED: one term-keyed exchange with a vectorized per-partition
    kernel (whole-partition varbyte decode + cumsum-with-restarts, no
    per-row Python) — only the two scalar totals reach the driver, so
    the checker runs at any table size."""
    import ray.data

    from .hash_partition import hash_groupby_apply

    def check(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["term", "salt"], kind="mergesort")
        n_terms = int(g["term"].nunique())
        df_part = g["df_part"].to_numpy(np.int64)
        blobs = g["docid_gaps_vb"].tolist()
        gaps = varbyte.decode(np.frombuffer(b"".join(blobs), np.uint8))
        if len(gaps) != int(df_part.sum()) or (df_part <= 0).any():
            # stream/df mismatch: alignment is unrecoverable — every row
            # of the partition is suspect
            return pd.DataFrame({"n_terms": [n_terms],
                                 "violations": [len(g)]})
        starts = np.cumsum(df_part) - df_part
        # uint64 wraparound is deliberate: the partition-wide running
        # sum may exceed 2^63, but each row's docids are recovered as
        # c - base, which is exact modulo 2^64 as long as the docids
        # themselves fit (they do — docid_t is uint64)
        c = np.cumsum(gaps.astype(np.uint64))
        base = c[starts] - gaps[starts].astype(np.uint64)
        docids = (c - np.repeat(base, df_part)).astype(np.int64)
        bad_first = docids[starts] != g["min_docid"].to_numpy(np.int64)
        # strict increase across each TERM's whole (salt-ordered) list:
        # violations only count where consecutive postings share a term
        term_codes = pd.factorize(g["term"], sort=False)[0]
        post_term = np.repeat(term_codes, df_part)
        incr = np.diff(docids) > 0
        same_term = post_term[1:] == post_term[:-1]
        bad_incr = int(np.count_nonzero(same_term & ~incr))
        return pd.DataFrame({
            "n_terms": [n_terms],
            "violations": [int(bad_first.sum()) + bad_incr],
        })

    ds = ray.data.read_parquet(out_dir)
    parts = hash_groupby_apply(ds, ["term"], check).to_pandas()
    return {"n_terms": int(parts["n_terms"].sum()),
            "violations": int(parts["violations"].sum())}
