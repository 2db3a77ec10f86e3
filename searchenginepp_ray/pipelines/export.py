"""Training-data shard export — the terminal stage of a corpus
pipeline: deterministic, content-addressed sharding of the documents
table into fixed parquet shards plus a verifiable manifest.

Shard assignment is ``md5_bucket(doc_id)`` (:mod:`.duck` — the same
``CAST('0x' || substr(md5(s),1,8) AS BIGINT) % n`` expression the SQL
oracle evaluates verbatim), NOT row position: the layout is a pure
function of the corpus, so it is stable across runs, cluster sizes and
input block orders, embarrassingly parallel (no global sort or row
numbering), and resumable — a failed run re-produces byte-identical
shards, and an orchestrator can skip shards whose manifest row already
matches. Each shard's rows are sorted by doc_id before writing so the
shard FILE is deterministic too, and ``ids_md5`` (md5 of the
comma-joined sorted doc_id list) makes the manifest a checksum of the
full assignment, value-checked by the DuckDB oracle.

Shard files are written atomically (temp name + ``os.replace``) so an
interrupted run never leaves a torn parquet behind a matching manifest
row. ``out_dir`` must be storage every worker can reach — on a real
multi-node cluster that means a shared filesystem or object-store
mount, the same contract as the index build's partitioned-parquet
exchanges; the ``/tmp`` default is for this sandbox's single node.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..index.hash_partition import hash_groupby_apply
from .text_stats import documents_ds


def _shard_writer(out_dir: str, sort_keys: list[str], data_cols: list[str],
                  count_name: str, total_name: str, total_src: str,
                  key_fn):
    """Shared per-partition shard writer for :func:`shard_export` and
    :func:`training_export`: one atomically-written parquet per shard id
    in the partition (sorted by ``sort_keys``) plus one manifest row
    (shard_id, <count>, <total>, ids_md5), where ids_md5 checksums the
    ordered ``key_fn`` strings via the DuckDB string_agg kernel."""
    from .duck import md5_string_agg

    def write_shards(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for sid, g in df.groupby("shard_id", sort=True):
            g = g.sort_values(sort_keys)
            path = os.path.join(out_dir, f"shard={int(sid)}.parquet")
            pq.write_table(
                pa.Table.from_pandas(g[data_cols], preserve_index=False),
                path + ".tmp",
            )
            os.replace(path + ".tmp", path)  # never a torn final file
            rows.append({
                "shard_id": np.int64(sid),
                count_name: np.int64(len(g)),
                total_name: np.int64(g[total_src].sum()),
                "ids_md5": md5_string_agg(key_fn(g)),
            })
        if not rows:
            return pd.DataFrame({
                "shard_id": pd.Series([], dtype=np.int64),
                count_name: pd.Series([], dtype=np.int64),
                total_name: pd.Series([], dtype=np.int64),
                "ids_md5": pd.Series([], dtype=str),
            })
        return pd.DataFrame(rows)

    return write_shards


def shard_export(sf_dir: str, n_shards: int = 8, out_dir: str | None = None):
    """Write the corpus as ``n_shards`` content-addressed parquet shards
    under ``out_dir`` and return the manifest Dataset
    (shard_id, n_docs, total_chars, ids_md5)."""
    from .duck import md5_bucket

    out_dir = out_dir or tempfile.mkdtemp(prefix="seppray_export_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)

    def assign(t: pa.Table) -> pa.Table:
        sid = md5_bucket(pc.cast(t["doc_id"], pa.string()), n_shards)
        return pa.table({
            "doc_id": t["doc_id"],
            "text": t["text"],
            "n_chars_utf8": pc.utf8_length(t["text"]).cast(pa.int64()),
            "shard_id": sid,
        })

    write_shards = _shard_writer(
        out_dir, ["doc_id"], ["doc_id", "text"],
        "n_docs", "total_chars", "n_chars_utf8",
        lambda g: pc.cast(pa.array(g["doc_id"].to_numpy()), pa.string()),
    )

    return hash_groupby_apply(
        documents_ds(sf_dir).map_batches(assign, batch_format="pyarrow"),
        ["shard_id"], write_shards,
    )


def chunk_documents(sf_dir: str, size: int = 32, stride: int = 24):
    """Context-window chunking of the documents table — see
    :func:`chunk_ds` for the kernel. Output is
    (doc_id, chunk_idx, n_tokens, chunk_md5)."""
    return chunk_ds(documents_ds(sf_dir), size=size, stride=stride)


def chunk_ds(ds, size: int = 32, stride: int = 24,
             keep_text: bool = False):
    """Context-window chunking: split each doc's word-token stream
    (the filters family's tokenization, shared verbatim with the SQL
    oracle) into chunks of ``size`` tokens starting every ``stride``
    tokens (overlap = size - stride); the last chunk of a doc may be
    short, empty docs emit no chunks. Output is
    (doc_id, chunk_idx, n_tokens, chunk_md5[, chunk_text]) — the md5 of
    the space-joined chunk value-checks the exact token content without
    shipping the text twice; ``keep_text=True`` additionally carries
    the chunk string (for writing real training shards).

    Fully vectorized: chunk token indices are one repeat/cumsum range
    construction over the flat token stream; chunk strings come from a
    ListArray + ``binary_join``; md5 is the DuckDB C kernel
    (:mod:`.duck`). One streaming pass, no exchange."""

    def per_batch(t: pa.Table) -> pa.Table:
        return _chunk_batch(t, size, stride, keep_text)

    return ds.map_batches(per_batch, batch_format="pyarrow")


def _chunk_batch(t: pa.Table, size: int, stride: int,
                 keep_text: bool) -> pa.Table:
    """One batch of :func:`chunk_ds` — module-level so the property
    tests can drive the kernel directly against a naive reference."""
    import pyarrow.compute as pc

    from .duck import md5_hex
    from .filters import _words_flat

    _, flat, n_tokens = _words_flat(t["text"])
    doc_off = np.concatenate(([0], np.cumsum(n_tokens)))
    # chunks per doc: ceil(L / stride) capped so every start < L
    n_chunks = np.where(n_tokens > 0,
                        (np.maximum(n_tokens - 1, 0) // stride) + 1, 0)
    total = int(n_chunks.sum())
    if total == 0:
        cols = {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_md5": pa.array([], pa.string()),
        }
        if keep_text:
            cols["chunk_text"] = pa.array([], pa.string())
        return pa.table(cols)
    cdoc = np.repeat(np.arange(len(n_tokens)), n_chunks)
    # chunk_idx within doc: 0..n_chunks[d]-1
    cidx = np.arange(total) - np.repeat(np.cumsum(n_chunks) - n_chunks,
                                        n_chunks)
    starts = doc_off[cdoc] + cidx * stride
    ends = np.minimum(starts + size, doc_off[cdoc] + n_tokens[cdoc])
    lens = ends - starts
    # gather flat token indices for every chunk
    tok_off = np.concatenate(([0], np.cumsum(lens)))
    idx = np.arange(int(lens.sum())) - np.repeat(tok_off[:-1], lens) \
        + np.repeat(starts, lens)
    chunk_list = pa.ListArray.from_arrays(
        pa.array(tok_off, pa.int32()), flat.take(pa.array(idx)))
    chunk_str = pc.binary_join(chunk_list, " ")
    doc_ids = t["doc_id"].to_numpy()
    cols = {
        "doc_id": pa.array(doc_ids[cdoc]),
        "chunk_idx": pa.array(cidx.astype(np.int64)),
        "n_tokens": pa.array(lens.astype(np.int64)),
        "chunk_md5": md5_hex(chunk_str),
    }
    if keep_text:
        cols["chunk_text"] = chunk_str
    return pa.table(cols)


def cdc_chunk_dedup(sf_dir: str, divisor: int = 8):
    """Content-defined chunking + chunk-level exact dedup — the
    CDC-for-text dedup primitive (FastCDC/LBFS lineage, applied at token
    granularity so it is portable across engines): a token ENDS a chunk
    when its content hash lands in bucket 0 (``md5_bucket(term, divisor)
    == 0`` — the ``'0x'||substr(md5(term),1,8) % divisor`` expression the
    SQL oracle evaluates verbatim), giving expected chunk length
    ``divisor`` tokens. Because boundaries depend only on local CONTENT,
    an insertion or deletion re-chunks only the span it touches — unlike
    fixed-stride :func:`chunk_documents`, shifted text still produces
    identical downstream chunks, which is the property that makes
    chunk-level dedup robust to edits. Each chunk row carries
    (doc_id, chunk_idx, n_tokens, chunk_md5, keep) where keep=1 marks
    the globally FIRST occurrence of the chunk content in
    (doc_id, chunk_idx) order.

    Scale shape: chunking is one streaming vectorized pass (boundary
    flags computed on the batch VOCABULARY after a dictionary encode,
    never per token occurrence; chunk strings via offset-sliced
    ``binary_join``; md5 via the DuckDB C kernel). Keep-first is ONE
    exchange keyed on chunk_md5 with a vectorized sort/duplicated kernel
    per partition — the exact_dedup shape at chunk granularity."""

    def per_batch(t: pa.Table) -> pa.Table:
        return _cdc_batch(t, divisor)

    chunks = documents_ds(sf_dir).map_batches(per_batch,
                                              batch_format="pyarrow")

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["chunk_md5", "doc_id", "chunk_idx"],
                            kind="mergesort")
        df["keep"] = (~df["chunk_md5"].duplicated()).astype(np.int64)
        return df

    return hash_groupby_apply(chunks, ["chunk_md5"], keep_first)


def _cdc_batch(t: pa.Table, divisor: int) -> pa.Table:
    """One batch of :func:`cdc_chunk_dedup`'s chunking pass —
    module-level so property tests can drive it against a naive
    reference."""
    from .duck import md5_bucket, md5_hex
    from .filters import _words_flat

    doc_idx, flat, n_tokens = _words_flat(t["text"])
    total = len(flat)
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "chunk_idx": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
        "chunk_md5": pa.array([], pa.string()),
    })
    if total == 0:
        return empty
    enc = flat.dictionary_encode()
    vocab_bucket = md5_bucket(enc.dictionary, divisor).to_numpy()
    ends = vocab_bucket[enc.indices.to_numpy()] == 0  # token ENDS a chunk
    off = np.concatenate(([0], np.cumsum(n_tokens)))
    # a token STARTS a chunk at a doc start or right after a boundary
    starts_flag = np.zeros(total, dtype=bool)
    starts_flag[off[:-1][n_tokens > 0]] = True
    starts_flag[1:] |= ends[:-1]
    starts = np.flatnonzero(starts_flag)
    lens = np.diff(np.append(starts, total))
    cdoc = doc_idx[starts]
    newdoc = np.empty(len(starts), dtype=bool)
    newdoc[0] = True
    newdoc[1:] = cdoc[1:] != cdoc[:-1]
    doc_first = np.maximum.accumulate(
        np.where(newdoc, np.arange(len(starts)), 0))
    ci = np.arange(len(starts)) - doc_first
    chunk_list = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(lens))), pa.int32()), flat)
    chunk_str = pc.binary_join(chunk_list, " ")
    doc_ids = t["doc_id"].to_numpy()
    return pa.table({
        "doc_id": pa.array(doc_ids[cdoc]),
        "chunk_idx": pa.array(ci.astype(np.int64)),
        "n_tokens": pa.array(lens.astype(np.int64)),
        "chunk_md5": md5_hex(chunk_str),
    })


def training_export(sf_dir: str, n_shards: int = 8,
                    out_dir: str | None = None, bench_mod: int = 97):
    """The composed end-to-end training-data pipeline — what a corpus
    team actually runs before pre-training, each stage an
    already-oracle-checked operator of this engine:

    1. quality + language floors and exact dedup
       (:func:`..clean.corpus_clean`),
    2. benchmark exclusion + decontamination
       (:func:`..filters.decontaminate` — benchmark docs themselves and
       any doc sharing a word trigram with them are dropped),
    3. survivor texts re-attached by one hash semi-join
       (:func:`..clean.texts_for_keepers`),
    4. context-window chunking (:func:`chunk_ds`, text carried),
    5. content-addressed shard write: shard = md5-bucket of
       ``doc_id:chunk_idx``, one parquet of (doc_id, chunk_idx,
       chunk_text) per shard under ``out_dir``.

    Returns the manifest (shard_id, n_chunks, total_tokens, ids_md5)
    where ids_md5 checksums the ordered (doc_id, chunk_idx) assignment
    — the single value the DuckDB oracle reproduces end-to-end, making
    the WHOLE composition value-checked, not just its stages."""
    from .clean import _mark_members, corpus_clean, texts_for_keepers
    from .duck import md5_bucket
    from .filters import decontaminate

    out_dir = out_dir or tempfile.mkdtemp(prefix="seppray_train_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)

    keepers = corpus_clean(sf_dir)

    def non_bench(t: pa.Table) -> pa.Table:
        mask = np.asarray(t["doc_id"].to_numpy() % bench_mod != 0)
        return t.filter(pa.array(mask))

    def contaminated_only(t: pa.Table) -> pa.Table:
        return t.filter(t["contaminated"]).select(["doc_id"])

    cont = decontaminate(sf_dir, bench_mod=bench_mod).map_batches(
        contaminated_only, batch_format="pyarrow")
    survivors = _mark_members(
        keepers.map_batches(non_bench, batch_format="pyarrow"),
        "doc_id", cont, "doc_id", {}, keep_matching=False,
    )
    chunks = chunk_ds(texts_for_keepers(sf_dir, survivors), keep_text=True)

    def assign(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(t["doc_id"], pa.string()),
            pc.cast(t["chunk_idx"], pa.string()), ":")
        return t.append_column("shard_id", md5_bucket(key, n_shards))

    write_shards = _shard_writer(
        out_dir, ["doc_id", "chunk_idx"], ["doc_id", "chunk_idx", "chunk_text"],
        "n_chunks", "total_tokens", "n_tokens",
        lambda g: pc.binary_join_element_wise(
            pc.cast(pa.array(g["doc_id"].to_numpy()), pa.string()),
            pc.cast(pa.array(g["chunk_idx"].to_numpy()), pa.string()),
            ":"),
    )

    return hash_groupby_apply(
        chunks.map_batches(assign, batch_format="pyarrow"),
        ["shard_id"], write_shards,
    )


def sequence_pack(sf_dir: str, seq_len: int = 512,
                  range_size: int = 65_536):
    """Sequence-PACKING planner — the LM-training last mile: treat the
    corpus as one token stream in doc_id order, cut it into fixed
    ``seq_len``-token training sequences, and assign every doc its
    position: (doc_id, n_tokens, start_tok, first_seq, last_seq), with
    first/last = -1 for token-less docs. A trainer (or
    :func:`shard_export`-style writer) uses the assignment to emit
    packed sequences with documents split across sequence boundaries —
    the standard GPT-style packing layout.

    This is an exact GLOBAL ordered prefix sum computed without any
    sort or row numbering: docs are range-partitioned by
    ``doc_id // range_size``; one streaming pass emits per-range token
    sums (corpus_size / range_size rows — the only driver-side
    materialization, ~150k rows at 10^10 docs); the cumulative range
    offsets broadcast via ``ray.put``; a range-keyed exchange then
    computes each doc's exact start as range_offset + an in-partition
    vectorized cumsum. Two token-count passes (the partials pass and
    the exchange pass re-execute the tokenize lineage) — int-only rows
    otherwise."""
    import ray

    from .agg import hash_groupby_sum
    from .text_stats import token_count

    L, R = int(seq_len), int(range_size)

    def with_range(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "range_id": pa.array(doc // R),
            "doc_id": pa.array(doc),
            "n_tokens": t["n_tokens"].cast(pa.int64()),
        })

    tc = token_count(sf_dir).map_batches(with_range, batch_format="pyarrow")

    def range_partial(t: pa.Table) -> pa.Table:
        r = t["range_id"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(r, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, n)
        return pa.table({"range_id": pa.array(u), "t_part": pa.array(s)})

    sums = hash_groupby_sum(
        tc.map_batches(range_partial, batch_format="pyarrow"),
        ["range_id"], {"tok": ("t_part", "sum")}).to_pandas()
    # offsets keyed by the OCCUPIED ranges only — a sparse doc_id space
    # must not allocate max(doc_id)/R driver memory
    sums = sums.sort_values("range_id")
    occ_ranges = sums["range_id"].to_numpy()
    tok = sums["tok"].to_numpy()
    occ_offsets = np.concatenate(([0], np.cumsum(tok)[:-1]))         if len(tok) else np.zeros(0, np.int64)
    off_ref = ray.put((occ_ranges, occ_offsets))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        occ_ranges, occ_offsets = ray.get(off_ref)
        df = df.sort_values("doc_id", kind="mergesort")
        r = df["range_id"].to_numpy()
        n = df["n_tokens"].to_numpy()
        # in-partition doc order == in-range doc order (one range maps
        # to exactly one partition), so a range-boundary-reset cumsum
        # gives each doc's offset within its range
        cum = np.cumsum(n) - n
        range_first = np.ones(len(r), bool)
        range_first[1:] = r[1:] != r[:-1]
        base = np.repeat(cum[range_first], np.diff(
            np.flatnonzero(np.append(range_first, True))))
        # every range in this partition is occupied by construction
        start = occ_offsets[np.searchsorted(occ_ranges, r)] + (cum - base)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": n,
            "start_tok": start,
            "first_seq": np.where(n > 0, start // L, -1),
            "last_seq": np.where(n > 0, (start + n - 1) // L, -1),
        })

    return hash_groupby_apply(tc, ["range_id"], pack)
