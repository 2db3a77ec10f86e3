"""Deduplication operators over the ``documents`` table — the dedup family
a large-scale training-data pipeline needs:

- exact: content-hash partition + per-group min (SQL-checkable via md5)
- MinHash + LSH banding: shingle → minhash → band → bucket groupby →
  candidate pairs → Jaccard verify
- SimHash: 64-bit sign-random-projection over shingle hashes
- n-gram Jaccard: exact pairwise verification of LSH candidates, emitted
  as exact integer (|A∩B|, |A∪B|) so a DuckDB oracle can match it
  bit-for-bit

Hot-path rules (the 100 TB shape):

* All shingle/minhash/simhash math is BATCH-vectorized: one Arrow
  whitespace split per batch, one C-speed 64-bit string hash over the
  flattened token array (polars xxhash, pandas siphash fallback), numpy
  ``reduceat`` for the per-doc mins/votes. No per-row Python hashing.
* The only all-to-all exchanges are (a) a coarse hash-partition groupby
  on the LSH bucket key (``P`` partitions, processed vectorized — never
  one Python call per bucket), (b) a pair-dedup aggregate, and (c) two
  hash joins that attach candidate shingle sets to pairs. Nothing
  text-sized is ever materialized on the driver: only candidate *ids*
  (8 bytes/pair) are broadcast, bounded by the LSH candidate count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .hash_partition import _GOLDEN, _hash_strings, _shuffle_width, _splitmix64
from .text_stats import documents_ds


def _splitmix64_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """In-place splitmix64 (same function as :func:`_splitmix64`) using a
    caller-provided scratch buffer — avoids the ~6 large temporaries the
    expression form allocates per call, which matters because this host
    (and any memory-tight worker) pays heavily for fresh page faults."""
    np.add(x, np.uint64(0x9E3779B97F4A7C15), out=x)
    np.right_shift(x, np.uint64(30), out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, np.uint64(0xBF58476D1CE4E5B9), out=x)
    np.right_shift(x, np.uint64(27), out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, np.uint64(0x94D049BB133111EB), out=x)
    np.right_shift(x, np.uint64(31), out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    return x


#: Persistent per-process scratch buffers. On this class of host a fresh
#: multi-MB allocation pays ~100 µs/page in first-touch faults — orders
#: of magnitude more than the compute it serves — so every hot kernel
#: reuses one grow-only buffer per role instead of allocating temporaries.
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch_u64(name: str, shape: tuple[int, ...]) -> np.ndarray:
    n = int(np.prod(shape))
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < n:
        buf = np.empty(max(n + n // 4, 1024), dtype=np.uint64)
        _SCRATCH[name] = buf
    return buf[:n].reshape(shape)


# ---------- vectorized tokenize/hash kernels ----------

_EMPTY_HASH: np.uint64 | None = None


def _empty_hash() -> np.uint64:
    global _EMPTY_HASH
    if _EMPTY_HASH is None:
        _EMPTY_HASH = np.uint64(_hash_strings(pa.array([""]))[0])
    return _EMPTY_HASH


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in counts (vectorized)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - counts, counts)
    return out


def _token_hash_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """(flat token hashes, per-doc token counts) for a batch of texts —
    Python ``str.split()`` semantics (split on whitespace runs, drop
    empties), computed with Arrow kernels + one vectorized hash call."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(texts))
    counts = pc.list_value_length(toks).to_numpy().astype(np.int64, copy=False)
    flat = pc.list_flatten(toks)
    h = _hash_strings(flat)
    # after trim, '' tokens only arise from all-whitespace docs — drop
    # them so counts match str.split()
    lens = pc.binary_length(flat).to_numpy()
    if len(lens) and (lens == 0).any():
        keep = lens != 0
        doc_idx = np.repeat(np.arange(n), counts)
        counts = np.bincount(doc_idx[keep], minlength=n).astype(np.int64)
        h = h[keep]
    return h, counts


def _shingle_hash_batch(texts, shingle: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat shingle hashes, per-doc shingle counts).

    A shingle hash combines ``shingle`` consecutive token hashes with a
    splitmix fold — set-equivalent to hashing the joined shingle string
    (modulo 2^-64 collisions) but needs no string materialization. Docs
    shorter than ``shingle`` emit ONE padded shingle (empty-token-hash
    padding), so every doc has >= 1 shingle."""
    h, counts = _token_hash_batch(texts)
    n = len(counts)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    full = counts >= shingle
    m = np.where(full, counts - shingle + 1, 0)
    sh_counts = np.where(full, m, 1).astype(np.int64)
    out = np.empty(int(sh_counts.sum()), dtype=np.uint64)
    out_offs = np.cumsum(sh_counts) - sh_counts

    # position-sensitive fold: acc = sm((acc * GOLDEN) ^ h_next). A plain
    # xor fold would make the first token pair commutative
    # (sm(a^b) == sm(b^a)) and cancel repeated tokens (a^a == 0) — both
    # observed as real shingle conflations on the test corpus.
    if int(m.sum()) > 0:
        rng = _ranges(m[full])
        starts = np.repeat(offsets[full], m[full]) + rng
        ns = len(starts)
        acc = _scratch_u64("fold_acc", (ns,))
        tmp = _scratch_u64("fold_tmp", (ns,))
        nxt = _scratch_u64("fold_nxt", (ns,))
        np.take(h, starts, out=acc)
        _splitmix64_inplace(acc, tmp)
        for j in range(1, shingle):
            np.take(h, starts + j, out=nxt)
            np.multiply(acc, _GOLDEN, out=acc)
            np.bitwise_xor(acc, nxt, out=acc)
            _splitmix64_inplace(acc, tmp)
        dst = np.repeat(out_offs[full], m[full]) + rng
        out[dst] = acc

    short = np.flatnonzero(~full)
    if len(short):
        # the same fold over each short doc's tokens padded to `shingle`
        # with the empty-token hash (index len(h) of the padded array);
        # array arithmetic wraps mod 2^64 without overflow warnings
        hp = np.append(h, _empty_hash())
        j = np.arange(shingle)
        idx = np.where(j < counts[short, None], offsets[short, None] + j, len(h))
        toks = hp[idx]
        acc = _splitmix64(toks[:, 0])
        for c in range(1, shingle):
            acc = _splitmix64((acc * _GOLDEN) ^ toks[:, c])
        out[out_offs[short]] = acc
    return out, sh_counts


def _distinct_per_doc(S: np.ndarray, sh_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc distinct (sorted) shingle hashes: (flat values, counts)."""
    n = len(sh_counts)
    if len(S) == 0:
        return S, np.zeros(n, dtype=np.int64)
    doc_idx = np.repeat(np.arange(n), sh_counts)
    order = np.lexsort((S, doc_idx))
    Ss, Ds = S[order], doc_idx[order]
    first = np.empty(len(Ss), dtype=bool)
    first[0] = True
    first[1:] = (Ds[1:] != Ds[:-1]) | (Ss[1:] != Ss[:-1])
    vals = Ss[first]
    dcounts = np.bincount(Ds[first], minlength=n).astype(np.int64)
    return vals, dcounts


# ---------- exact dedup ----------

def exact_dedup(sf_dir: str):
    """Exact duplicate groups: md5(text) → (first doc_id, group size).

    Hash-partitioned groupby; the per-batch md5 is the map side, run as
    DuckDB's vectorized C kernel (:mod:`.duck`) — zero Python per row."""

    from .agg import hash_groupby_sum
    from .duck import md5_hex

    def add_hash(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "text_md5": md5_hex(t["text"])})

    return hash_groupby_sum(
        documents_ds(sf_dir).map_batches(add_hash, batch_format="pyarrow"),
        ["text_md5"],
        {"keep_doc_id": ("doc_id", "min"), "n_dups": ("doc_id", "count")},
    )


# ---------- MinHash + LSH ----------

def _salts(num_perm: int) -> np.ndarray:
    return _splitmix64(np.arange(1, num_perm + 1, dtype=np.uint64) * _GOLDEN)


def _sig_matrix(
    texts, num_perm: int, shingle: int, salts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sig_mat (num_perm, n), flat shingle hashes, per-doc counts) for a
    batch — the shared minhash kernel (scratch-buffered, reduceat mins)."""
    S, shc = _shingle_hash_batch(texts, shingle)
    n = len(shc)
    starts = np.cumsum(shc) - shc
    sig_mat = np.empty((num_perm, n), dtype=np.uint64)
    CH = 16  # permutations per chunk: bounds the (CH, n_shingles) scratch
    buf = _scratch_u64("mh_buf", (CH, len(S)))
    tmp = _scratch_u64("mh_tmp", (CH, len(S)))
    for p0 in range(0, num_perm, CH):
        chunk = salts[p0 : p0 + CH]
        c = len(chunk)
        np.bitwise_xor(S[None, :], chunk[:, None], out=buf[:c])
        _splitmix64_inplace(buf[:c], tmp[:c])
        sig_mat[p0 : p0 + c] = np.minimum.reduceat(buf[:c], starts, axis=1)
    return sig_mat, S, shc


def _set_blob(S: np.ndarray, shc: np.ndarray) -> pa.LargeBinaryArray:
    """Per-doc DISTINCT sorted shingle hashes packed as little-endian u64
    bytes (one blob per doc — binary survives shuffles that typed lists
    complicate, and slices back to a numpy set with ``frombuffer``)."""
    vals, dcounts = _distinct_per_doc(S, shc)
    byte_offsets = (np.concatenate(([0], np.cumsum(dcounts))) * 8).astype(np.int64)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(dcounts),
        [None, pa.py_buffer(byte_offsets.tobytes()),
         pa.py_buffer(vals.astype("<u8").tobytes())],
    )


def _verified_pairs(
    sf_dir: str, num_perm: int, bands: int, shingle: int
) -> ray.data.Dataset:
    """Candidate pairs with exact shingle-set overlap: (doc_a, doc_b,
    n_common, n_union) as exact integers.

    Scale shape: each band row CARRIES its doc's packed shingle set, so
    the single coarse-partition groupby colocates every LSH bucket with
    the data its verification needs — pairs are expanded AND verified
    inside the partition task, and one aggregate dedups across bands.
    Two all-to-all exchanges total; no joins, no driver-side
    materialization of anything (ids, texts, or sets). The trade: the
    banding shuffle moves ``bands`` copies of each set (~bands × 8 B per
    distinct shingle per doc); for corpora where that dominates, attach
    sets by hash join against a (doc_id, set) table instead."""
    P = _shuffle_width()
    salts = _salts(num_perm)

    def bands_with_sets(t: pa.Table) -> pa.Table:
        # same band-row kernel as the incremental path; the in-pipeline
        # exchange key (_part) replaces the on-disk bucket column
        rows = _band_bucket_rows(t, num_perm, bands, salts, shingle, P)
        return pa.table(
            {"band_id": rows["band_id"], "band_hash": rows["band_hash"],
             "doc_id": rows["doc_id"], "sh": rows["sh"],
             "_part": rows["bucket"]}
        )

    def expand_verify(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_a": pa.array([], pa.int64()),
             "doc_b": pa.array([], pa.int64()),
             "n_common": pa.array([], pa.int64()),
             "n_union": pa.array([], pa.int64())}
        )
        band = t["band_id"].to_numpy()
        bh = t["band_hash"].to_numpy()
        doc = t["doc_id"].to_numpy()
        if len(band) == 0:
            return empty
        order = np.lexsort((doc, bh, band))
        band_s, bh_s, doc_s = band[order], bh[order], doc[order]
        change = np.empty(len(order), dtype=bool)
        change[0] = True
        change[1:] = (band_s[1:] != band_s[:-1]) | (bh_s[1:] != bh_s[:-1])
        run_starts = np.flatnonzero(change)
        run_ends = np.append(run_starts[1:], len(order))
        sel = (run_ends - run_starts) >= 2
        run_starts, run_ends = run_starts[sel], run_ends[sel]
        if not len(run_starts):
            return empty
        # pair row indices (into the sorted view); docs ascend within a
        # run, so a < b by construction
        ia_l, ib_l = [], []
        for s, e in zip(run_starts, run_ends):  # dup runs only — rare
            ia, ib = np.triu_indices(e - s, k=1)
            ia_l.append(ia + s)
            ib_l.append(ib + s)
        ia = np.concatenate(ia_l)
        ib = np.concatenate(ib_l)
        a, b = doc_s[ia], doc_s[ib]
        # in-partition pair dedup BEFORE the (costlier) set intersections
        ab, first = np.unique(np.stack([a, b], axis=1), axis=0, return_index=True)
        # zero-copy u64 view of every packed shingle set: the large_binary
        # column is (int64 offsets, data) and each blob is whole <u8
        # words, so byte-offsets/8 index straight into one flat array —
        # no to_pylist(), no per-pair frombuffer
        shc = t["sh"].combine_chunks()
        byte_offs = np.frombuffer(shc.buffers()[1], dtype=np.int64)[
            shc.offset : shc.offset + len(shc) + 1
        ]
        u64_offs = byte_offs // 8
        data_buf = shc.buffers()[2]
        flat = (
            np.frombuffer(data_buf, dtype="<u8")
            if data_buf is not None and len(data_buf)
            else np.empty(0, dtype=np.uint64)
        )
        set_lens = u64_offs[1:] - u64_offs[:-1]
        rows_a = order[ia[first]]
        rows_b = order[ib[first]]
        len_a, len_b = set_lens[rows_a], set_lens[rows_b]

        def gather(rows, lens):
            # values of the selected sets, tagged with their pair index
            tot = int(lens.sum())
            starts = u64_offs[rows]
            idx = np.repeat(
                starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
            ) + np.arange(tot, dtype=np.int64)
            return flat[idx], np.repeat(np.arange(len(rows)), lens)

        va, pa_ids = gather(rows_a, len_a)
        vb, pb_ids = gather(rows_b, len_b)
        vals = np.concatenate([va, vb])
        pids = np.concatenate([pa_ids, pb_ids])
        # values are unique WITHIN each side, so a (pair, value) duplicate
        # across the concatenation means the value is common to both sets
        o2 = np.lexsort((vals, pids))
        v_s, p_s = vals[o2], pids[o2]
        eq = (v_s[1:] == v_s[:-1]) & (p_s[1:] == p_s[:-1])
        inter = np.bincount(p_s[1:][eq], minlength=len(ab)).astype(np.int64)
        union = len_a + len_b - inter
        return pa.table(
            {"doc_a": pa.array(ab[:, 0].astype(np.int64)),
             "doc_b": pa.array(ab[:, 1].astype(np.int64)),
             "n_common": pa.array(inter), "n_union": pa.array(union)}
        )

    from .agg import hash_groupby_sum

    return hash_groupby_sum(
        documents_ds(sf_dir)
        .map_batches(bands_with_sets, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(expand_verify, batch_format="pyarrow"),
        ["doc_a", "doc_b"],
        {"n_common": ("n_common", "min"), "n_union": ("n_union", "min")},
    )


def minhash_dedup_pairs(
    sf_dir: str, num_perm: int = 64, bands: int = 16, shingle: int = 3,
    jaccard_threshold: float = 0.8,
):
    """Candidate pairs (deduped across bands) verified by exact shingle
    Jaccard — returns (doc_a, doc_b, jaccard) with doc_a < doc_b."""
    v = _verified_pairs(sf_dir, num_perm, bands, shingle)

    def finish(t: pa.Table) -> pa.Table:
        inter = t["n_common"].to_numpy().astype(np.float64)
        union = np.maximum(t["n_union"].to_numpy(), 1).astype(np.float64)
        j = inter / union
        keep = j >= jaccard_threshold
        return pa.table(
            {"doc_a": t["doc_a"].filter(pa.array(keep)),
             "doc_b": t["doc_b"].filter(pa.array(keep)),
             "jaccard": pa.array(np.round(j[keep], 6))}
        )

    return v.map_batches(finish, batch_format="pyarrow")


def ngram_jaccard_dedup(
    sf_dir: str, shingle: int = 3, thr_num: int = 4, thr_den: int = 5,
    num_perm: int = 128, bands: int = 64,
):
    """Near-dup pairs by exact n-gram Jaccard >= thr_num/thr_den, emitted
    as exact integers (doc_a, doc_b, n_common, n_union) — DuckDB-oracle
    comparable with no float rounding anywhere.

    Candidates come from a high-recall LSH (2 rows/band × 64 bands: a
    true pair at j=0.8 is missed with prob (1-j²)^64 ≈ 4e-29), then every
    candidate is verified exactly, so the output equals the O(N²) oracle."""
    v = _verified_pairs(sf_dir, num_perm, bands, shingle)

    def finish(t: pa.Table) -> pa.Table:
        inter = t["n_common"].to_numpy()
        union = np.maximum(t["n_union"].to_numpy(), 1)
        keep = inter * thr_den >= union * thr_num
        return pa.table(
            {"doc_a": t["doc_a"].filter(pa.array(keep)),
             "doc_b": t["doc_b"].filter(pa.array(keep)),
             "n_common": t["n_common"].filter(pa.array(keep)),
             "n_union": pa.array(union[keep])}
        )

    return v.map_batches(finish, batch_format="pyarrow")


# ---------- SimHash ----------

def simhash(sf_dir: str, shingle: int = 1):
    """64-bit SimHash (sign of summed bit votes over shingle hashes) —
    vectorized: bit-expand the flattened hash array once, per-doc vote
    sums via ``add.reduceat``."""

    def per_batch(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "simhash": pa.array([], pa.uint64())}
            )
        S, shc = _shingle_hash_batch(t["text"], shingle)
        starts = np.cumsum(shc) - shc
        ones = np.empty((n, 64), dtype=np.int64)
        bits = _scratch_u64("sh_bits", (len(S), 16))
        for b0 in range(0, 64, 16):  # 16 bit-planes at a time bounds the temp
            np.right_shift(
                S[:, None], np.arange(b0, b0 + 16, dtype=np.uint64)[None, :],
                out=bits,
            )
            np.bitwise_and(bits, np.uint64(1), out=bits)
            ones[:, b0 : b0 + 16] = np.add.reduceat(bits, starts, axis=0)
        votes = 2 * ones - shc[:, None]
        packed = np.packbits(
            (votes > 0).astype(np.uint8), axis=1, bitorder="little"
        ).view(np.uint64).reshape(n)
        return pa.table({"doc_id": t["doc_id"], "simhash": pa.array(packed)})

    return documents_ds(sf_dir).map_batches(per_batch, batch_format="pyarrow")


def simhash_near_dup_pairs(
    sf_dir: str, shingle: int = 1, max_hamming: int = 3,
):
    """Near-dup pairs by SimHash Hamming distance <= ``max_hamming``.

    Scale shape (the classic Manku/Jain/Sarma trick): split the 64-bit
    simhash into ``max_hamming + 1`` bands — a pair within the Hamming
    budget must agree exactly on at least one band (pigeonhole), so
    banding is a LOSSLESS blocking key. One coarse-partition groupby per
    the band key, vectorized in-partition pair expansion + exact XOR
    popcount verify, one aggregate to dedup across bands."""
    P = _shuffle_width()
    n_bands = max_hamming + 1
    band_bits = 64 // n_bands

    def to_bands(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table(
                {"band_id": pa.array([], pa.int32()),
                 "band_key": pa.array([], pa.uint64()),
                 "doc_id": pa.array([], pa.int64()),
                 "sh": pa.array([], pa.uint64()),
                 "_part": pa.array([], pa.int32())}
            )
        S, shc = _shingle_hash_batch(t["text"], shingle)
        starts = np.cumsum(shc) - shc
        ones = np.empty((n, 64), dtype=np.int64)
        bits = _scratch_u64("sh_bits", (len(S), 16))
        for b0 in range(0, 64, 16):
            np.right_shift(
                S[:, None], np.arange(b0, b0 + 16, dtype=np.uint64)[None, :],
                out=bits,
            )
            np.bitwise_and(bits, np.uint64(1), out=bits)
            ones[:, b0 : b0 + 16] = np.add.reduceat(bits, starts, axis=0)
        votes = 2 * ones - shc[:, None]
        sim = np.packbits(
            (votes > 0).astype(np.uint8), axis=1, bitorder="little"
        ).view(np.uint64).reshape(n)
        doc = t["doc_id"].to_numpy()
        outs = []
        for b in range(n_bands):
            lo = b * band_bits
            width = band_bits if b < n_bands - 1 else 64 - lo
            key = (sim >> np.uint64(lo)) & np.uint64((1 << width) - 1)
            outs.append((np.full(n, b, dtype=np.int32), key, doc, sim))
        band_id = np.concatenate([o[0] for o in outs])
        band_key = np.concatenate([o[1] for o in outs])
        doc_ids = np.concatenate([o[2] for o in outs])
        sims = np.concatenate([o[3] for o in outs])
        part = (
            (_splitmix64(band_key ^ (band_id.astype(np.uint64) * _GOLDEN)))
            % np.uint64(P)
        ).astype(np.int32)
        return pa.table(
            {"band_id": pa.array(band_id), "band_key": pa.array(band_key),
             "doc_id": pa.array(doc_ids), "sh": pa.array(sims),
             "_part": pa.array(part)}
        )

    def expand_verify(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_a": pa.array([], pa.int64()),
             "doc_b": pa.array([], pa.int64()),
             "hamming": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        band = t["band_id"].to_numpy()
        key = t["band_key"].to_numpy()
        doc = t["doc_id"].to_numpy()
        sim = t["sh"].to_numpy()
        order = np.lexsort((doc, key, band))
        band_s, key_s, doc_s, sim_s = band[order], key[order], doc[order], sim[order]
        change = np.empty(len(order), dtype=bool)
        change[0] = True
        change[1:] = (band_s[1:] != band_s[:-1]) | (key_s[1:] != key_s[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(order))
        sel = (ends - starts) >= 2
        out_a, out_b, out_h = [], [], []
        popcount = np.bitwise_count if hasattr(np, "bitwise_count") else None
        for s, e in zip(starts[sel], ends[sel]):
            ia, ib = np.triu_indices(e - s, k=1)
            x = sim_s[s:e][ia] ^ sim_s[s:e][ib]
            if popcount is not None:
                h = popcount(x).astype(np.int64)
            else:
                h = np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
            ok = h <= max_hamming
            out_a.append(doc_s[s:e][ia[ok]])
            out_b.append(doc_s[s:e][ib[ok]])
            out_h.append(h[ok])
        if not out_a:
            return empty
        a = np.concatenate(out_a).astype(np.int64)
        b = np.concatenate(out_b).astype(np.int64)
        h = np.concatenate(out_h)
        abh = np.unique(np.stack([a, b, h], axis=1), axis=0)
        return pa.table(
            {"doc_a": pa.array(abh[:, 0]), "doc_b": pa.array(abh[:, 1]),
             "hamming": pa.array(abh[:, 2])}
        )

    from .agg import hash_groupby_sum

    return hash_groupby_sum(
        documents_ds(sf_dir)
        .map_batches(to_bands, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(expand_verify, batch_format="pyarrow"),
        ["doc_a", "doc_b"],
        {"hamming": ("hamming", "min")},
    )


def dup_components(
    sf_dir: str, shingle: int = 3, thr_num: int = 4, thr_den: int = 5,
    num_perm: int = 128, bands: int = 64,
):
    """Connected components over the exact n-gram-Jaccard near-dup pair
    graph: ``(doc_id, component)`` for every doc appearing in a pair,
    where ``component`` is the minimum doc_id reachable through the
    graph — the canonical-representative labeling a near-dup removal
    keeps one doc per component from.

    ``inmem_threshold=0`` forces the DISTRIBUTED alternating-min label
    propagation (``pipelines.graph.connected_components``) even at test
    scale, so the DuckDB recursive-CTE oracle value-checks the
    propagation machinery itself, not just the small-graph fallback."""
    from .graph import connected_components

    pairs = ngram_jaccard_dedup(
        sf_dir, shingle, thr_num, thr_den, num_perm, bands
    )
    cc = connected_components(pairs, "doc_a", "doc_b", inmem_threshold=0)
    return cc.map_batches(
        lambda t: t.rename_columns(["doc_id", "component"]),
        batch_format="pyarrow",
    )


def dup_components_best(
    sf_dir: str, shingle: int = 3, thr_num: int = 4, thr_den: int = 5,
    num_perm: int = 128, bands: int = 64,
):
    """Near-dup canonicalization by QUALITY, not by id: for every
    connected component of the exact-Jaccard near-dup graph, keep the
    member with the most tokens (ties → lowest doc_id) — the "keep the
    longest copy" rule real curation pipelines use instead of
    :func:`dup_components`'s min-id labeling. Returns
    (component, keep_doc_id, n_tokens, n_members).

    Composition shape: the component labels (distributed label
    propagation) hash-join the per-doc token counts on doc_id (one
    tagged-union exchange — only component members carry counts onward),
    then one component-keyed exchange runs a vectorized sort/head-1
    argmax kernel. Integer-exact throughout: no float tie hazard."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply
    from .text_stats import token_count

    comp = dup_components(sf_dir, shingle, thr_num, thr_den,
                          num_perm, bands)

    def tag_comp(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "component": t["component"].cast(pa.int64()),
            "n_tokens": pa.array(np.zeros(n, np.int64)),
            "kind": pa.array(np.zeros(n, np.int8)),
        })

    def tag_counts(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "component": pa.array(np.full(n, -1, np.int64)),
            "n_tokens": t["n_tokens"].cast(pa.int64()),
            "kind": pa.array(np.ones(n, np.int8)),
        })

    u = comp.map_batches(tag_comp, batch_format="pyarrow").union(
        token_count(sf_dir).map_batches(tag_counts, batch_format="pyarrow"))

    def join(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["kind"] == 0][["doc_id", "component"]]
        n = df[df["kind"] == 1][["doc_id", "n_tokens"]]
        j = c.merge(n, on="doc_id", how="left")
        j["n_tokens"] = j["n_tokens"].fillna(0).astype(np.int64)
        return j

    members = hash_groupby_apply(u, ["doc_id"], join)

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["component", "n_tokens", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        sizes = df.groupby("component").size()
        out = df.groupby("component", as_index=False).head(1).copy()
        out["n_members"] = out["component"].map(sizes).astype(np.int64)
        out = out.rename(columns={"doc_id": "keep_doc_id"})
        return out[["component", "keep_doc_id", "n_tokens", "n_members"]]

    return hash_groupby_apply(members, ["component"], best)


def _span_grid(texts, width: int):
    """Non-overlapping ``width``-word span strings per doc (the aligned
    span grid shared by :func:`span_dedup`'s two passes and its SQL
    oracle). Splits on the single-space separator — lossless under
    ``' '.join`` reassembly — and the last span of a doc keeps the
    remainder words. Returns ``(spans, doc_idx, pos, n_spans)`` where
    ``spans`` is a string Array of span texts, ``doc_idx``/``pos`` are
    per-span int64 (pos 1-based within its doc) and ``n_spans`` is the
    per-doc span count (an empty text is one empty span)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    ws = pc.split_pattern(texts, " ")
    if isinstance(ws, pa.ChunkedArray):
        ws = ws.combine_chunks()
    n_words = pc.list_value_length(ws).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(ws)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    n_spans = -(-n_words // width)
    ndocs = len(n_words)
    total = int(n_spans.sum())
    doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), n_spans)
    span_starts = np.concatenate(([0], np.cumsum(n_spans)))
    within = np.arange(total, dtype=np.int64) - span_starts[doc_idx]
    doc_word_starts = np.concatenate(([0], np.cumsum(n_words)))
    # spans tile each doc's word range contiguously, and docs tile the
    # flat word array, so span starts alone are valid list offsets
    starts = doc_word_starts[doc_idx] + width * within
    offsets = np.append(starts, doc_word_starts[-1]).astype(np.int64)
    la = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()),
                                       flat.cast(pa.large_string()))
    spans = pc.binary_join(la, pa.scalar(" ", pa.large_string()))
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    return spans.cast(pa.string()), doc_idx, within + 1, n_spans


def span_dedup(sf_dir: str, width: int = 10):
    """Exact SPAN deduplication — the Lee et al. ("Deduplicating
    Training Data Makes Language Models Better") exact-substring-dedup
    transformation on an aligned span grid, the form that distributes
    (a corpus-wide suffix array does not): segment every doc into
    non-overlapping ``width``-word spans; every span whose exact text
    already occurred earlier in the corpus (global (doc_id, pos) order)
    is REMOVED; the doc is reassembled from its kept spans. Returns
    (doc_id, n_spans, n_kept, clean_md5) for every doc, ``clean_md5``
    the md5 of the reassembled text — small rows, value-checkable,
    while the kernel does the full text reassembly.

    Scale shape: pass 1 streams once, builds the span grid with one
    Arrow split + one list-offset construction + one ``binary_join``
    per batch, and sends only (span_hash64, doc_id, pos) int rows —
    never span text — through ONE hash exchange; each h-partition holds
    every instance of its spans, so a vectorized lexsort emits exactly
    the non-first instances as (doc_id, pos) drop rows. Pass 2 is one
    tagged-union doc-keyed exchange (corpus rows ⊎ drop rows) whose
    per-partition kernel rebuilds the grid, filters dropped spans and
    reassembles + md5s with Arrow/DuckDB C kernels. Matching is by
    64-bit xxhash (the :func:`decontaminate` stance: a false drop needs
    a collision between distinct corpus spans; the exact-string SQL
    oracle pins the assumption at gate scale). Empty spans (empty docs)
    never enter the dedup flow — always kept."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply

    W = int(width)

    def emit_drops(df: pd.DataFrame) -> pd.DataFrame:
        h = df["h"].to_numpy()
        d = df["doc_id"].to_numpy()
        p = df["pos"].to_numpy()
        o = np.lexsort((p, d, h))
        h = h[o]
        first = np.ones(len(h), bool)
        first[1:] = h[1:] != h[:-1]
        return pd.DataFrame({"doc_id": d[o][~first], "pos": p[o][~first]})

    drops = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(_span_rows(W),
                                         batch_format="pyarrow"),
        ["h"], emit_drops)
    return _reassemble_minus_drops(sf_dir, drops, W)


def _span_rows(W: int):
    """Shared pass-1 exploder of the span-removal family
    (:func:`span_dedup`, :func:`boilerplate_spans`): one batch of the
    corpus → (span_hash64, doc_id, pos) int rows on the aligned
    ``W``-word grid, empty spans (empty docs) excluded."""

    def explode(t: pa.Table) -> pa.Table:
        spans, doc_idx, pos, _ = _span_grid(t["text"], W)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[doc_idx]
        ne = pc.not_equal(spans, "").to_numpy(zero_copy_only=False)
        return pa.table({
            "h": pa.array(_hash_strings(spans)[ne], pa.uint64()),
            "doc_id": pa.array(doc_ids[ne]),
            "pos": pa.array(pos[ne]),
        })

    return explode


def _reassemble_minus_drops(sf_dir: str, drops, W: int):
    """Shared pass 2 of the span-removal family (:func:`span_dedup`,
    :func:`boilerplate_spans`): one tagged-union doc-keyed exchange
    (corpus rows ⊎ (doc_id, pos) drop rows) whose per-partition kernel
    rebuilds the ``W``-word span grid, filters the dropped spans and
    reassembles + md5s with Arrow/DuckDB C kernels. Returns
    (doc_id, n_spans, n_kept, clean_md5) for every doc."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply
    from .duck import md5_hex

    def tag_docs(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "text": t["text"],
            "pos": pa.array(np.zeros(n, np.int64)),
            "kind": pa.array(np.zeros(n, np.int8)),
        })

    def tag_drops(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "text": pa.array([""] * n, pa.string()),
            "pos": t["pos"].cast(pa.int64()),
            "kind": pa.array(np.ones(n, np.int8)),
        })

    u = documents_ds(sf_dir).map_batches(tag_docs, batch_format="pyarrow") \
        .union(drops.map_batches(tag_drops, batch_format="pyarrow"))

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        docs = df[df["kind"] == 0]
        dr = df[df["kind"] == 1]
        doc_ids = docs["doc_id"].to_numpy().astype(np.int64)
        texts = pa.array(docs["text"].tolist(), pa.string())
        spans, _, _, n_spans = _span_grid(texts, W)
        order = np.argsort(doc_ids, kind="mergesort")
        row = order[np.searchsorted(doc_ids[order],
                                    dr["doc_id"].to_numpy().astype(np.int64))]
        span_starts = np.concatenate(([0], np.cumsum(n_spans)))
        drop_idx = span_starts[row] + dr["pos"].to_numpy().astype(np.int64) - 1
        keep = np.ones(len(spans), bool)
        keep[drop_idx] = False
        kept_per_doc = n_spans - np.bincount(row, minlength=len(docs)) \
            .astype(np.int64)
        flat_kept = spans.filter(pa.array(keep))
        offs = np.concatenate(([0], np.cumsum(kept_per_doc))).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()), flat_kept.cast(pa.large_string()))
        clean = pc.binary_join(la, pa.scalar(" ", pa.large_string()))
        return pd.DataFrame({
            "doc_id": doc_ids,
            "n_spans": n_spans,
            "n_kept": kept_per_doc,
            "clean_md5": md5_hex(clean.cast(pa.string())).to_pylist(),
        })

    return hash_groupby_apply(u, ["doc_id"], rebuild)


def boilerplate_spans(sf_dir: str, width: int = 10, min_count: int = 2):
    """BOILERPLATE removal — the MassiveText/RefinedWeb "remove lines
    repeated more than N times across the corpus" filter, on the same
    aligned ``width``-word span grid as :func:`span_dedup` (the corpus
    has no newlines, so the span grid plays the line role): every span
    whose exact text occurs ≥ ``min_count`` times corpus-wide is
    removed from EVERY doc — ALL instances go, including the first
    (headers/footers/navigation chrome are noise wherever they appear),
    which is the semantic complement of :func:`span_dedup`'s keep-first
    rule. Returns (doc_id, n_spans, n_kept, clean_md5) per doc.

    Scale shape: identical to :func:`span_dedup` — pass 1 sends only
    (span_hash64, doc_id, pos) int rows through ONE hash exchange whose
    vectorized kernel emits every instance of an over-threshold hash as
    a drop row (run-length over one lexsort — no per-span Python);
    pass 2 is the shared tagged-union doc-keyed rebuild
    (:func:`_reassemble_minus_drops`). Matching is by 64-bit xxhash;
    the exact-string SQL oracle pins the no-collision stance at gate
    scale. Empty spans (empty docs) never enter the flow — always
    kept."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply

    W = int(width)
    N = int(min_count)

    def emit_drops(df: pd.DataFrame) -> pd.DataFrame:
        h = df["h"].to_numpy()
        o = np.argsort(h, kind="mergesort")
        hs = h[o]
        # run lengths over the sorted hashes -> per-instance run size
        starts = np.flatnonzero(np.concatenate(([True], hs[1:] != hs[:-1])))
        runs = np.diff(np.append(starts, len(hs)))
        hot = np.repeat(runs >= N, runs)
        sel = o[hot]
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy()[sel],
                             "pos": df["pos"].to_numpy()[sel]})

    drops = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(_span_rows(W),
                                         batch_format="pyarrow"),
        ["h"], emit_drops)
    return _reassemble_minus_drops(sf_dir, drops, W)


def dedup_incremental(sf_dir: str, mod: int = 2):
    """INCREMENTAL ingestion dedup — the "new shipment vs existing
    corpus" filter an append-only pipeline runs on every batch: docs of
    the incoming slice (here ``doc_id % mod != 0``; a real deployment
    passes two corpora) are kept only if their exact content hash does
    not already exist in the baseline slice (``doc_id % mod == 0``).
    Returns the surviving incoming docs (doc_id, text_md5).

    Scale shape: ONE content-hash-keyed exchange carries (md5, doc_id,
    side) rows from both slices — the anti-join happens where the hash
    co-locates (a semi/anti-join keyed on content); nothing is
    broadcast and neither slice is materialized anywhere."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply
    from .duck import md5_hex

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "text_md5": md5_hex(t["text"]),
            "doc_id": pa.array(ids),
            "is_new": pa.array((ids % mod != 0).astype(np.int8)),
        })

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        base = set(df.loc[df["is_new"] == 0, "text_md5"])
        new = df[df["is_new"] == 1]
        keep = new[~new["text_md5"].isin(base)]
        return keep[["doc_id", "text_md5"]]

    return hash_groupby_apply(
        documents_ds(sf_dir).map_batches(tag, batch_format="pyarrow"),
        ["text_md5"], anti)


# ---------- incremental MinHash-LSH near-dup ingestion ----------

def _band_bucket_rows(t: pa.Table, num_perm: int, bands: int,
                      salts: np.ndarray, shingle: int,
                      nbuckets: int) -> pa.Table:
    """(bucket, band_id, band_hash, doc_id, sh) band rows for a batch —
    the persisted-band-table twin of :func:`_verified_pairs`'
    ``bands_with_sets`` (same signature matrix, same band fold, same
    packed shingle-set blob), with ``bucket = band_hash % nbuckets`` as
    the on-disk partition key."""
    n = len(t)
    if n == 0:
        return pa.table(
            {"bucket": pa.array([], pa.int32()),
             "band_id": pa.array([], pa.int32()),
             "band_hash": pa.array([], pa.uint64()),
             "doc_id": pa.array([], pa.int64()),
             "sh": pa.array([], pa.large_binary())})
    sig_mat, S, shc = _sig_matrix(t["text"], num_perm, shingle, salts)
    blob = _set_blob(S, shc)
    rows_per_band = num_perm // bands
    band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
    doc_ids = np.repeat(
        t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), bands)
    bh = np.empty(n * bands, dtype=np.uint64)
    for b in range(bands):
        chunk = sig_mat[b * rows_per_band : (b + 1) * rows_per_band]
        acc = np.zeros(n, dtype=np.uint64)
        for c in range(rows_per_band):
            acc = _splitmix64(acc ^ chunk[c])
        bh[b::bands] = acc
    sh = blob.take(pa.array(np.repeat(np.arange(n), bands)))
    return pa.table(
        {"bucket": pa.array((bh % np.uint64(nbuckets)).astype(np.int32)),
         "band_id": pa.array(band_ids),
         "band_hash": pa.array(bh),
         "doc_id": pa.array(doc_ids),
         "sh": sh})


#: per-(corpus, params) band tables of :func:`minhash_band_index_build`
_BAND_CACHE = "/tmp/seppray_band_cache"


def _publish_dir(final: str, write) -> str:
    """Publish a cache directory whole or not at all: ``write(tmp)`` fills
    a process-unique directory beside ``final`` (its ``_done.json``
    included), which is then renamed into place, so no reader ever finds
    a marker over a partly written directory. A builder that loses the
    race drops its copy and keeps the winner's. Returns ``final``."""
    import os
    import shutil
    import tempfile

    parent = os.path.dirname(final)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=os.path.basename(final) + ".")
    try:
        write(tmp)
        try:
            os.rename(tmp, final)
        except OSError:
            if not os.path.exists(os.path.join(final, "_done.json")):
                # a partial directory left by an in-place writer
                shutil.rmtree(final, ignore_errors=True)
                os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # gone once renamed
    return final


def minhash_band_index_build(sf_dir: str, mod: int = 2, shingle: int = 3,
                             num_perm: int = 128, bands: int = 64,
                             nbuckets: int = 32) -> str:
    """Build (or reuse) the persisted MinHash band table of the BASELINE
    corpus slice (``doc_id % mod == 0``): band rows written as Parquet
    PARTITIONED BY ``bucket = band_hash % nbuckets`` — the IVF layout
    pattern applied to LSH. Probing a shipment then reads only the
    bucket directories its band hashes land in, and accepted docs can be
    APPENDED as extra part files in the same bucket dirs
    (:func:`minhash_band_append`), so the table is reusable across
    shipments at O(shipment) cost. Idempotent per (corpus, params)
    content-fingerprint cache key."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    n_rows_src = pq.ParquetFile(src).metadata.num_rows
    fingerprint = f"{st.st_size}:{int(st.st_mtime_ns)}:{n_rows_src}"
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}:bandidx:{mod}:{shingle}:{num_perm}:"
        f"{bands}:{nbuckets}:{fingerprint}:v1".encode()
    ).hexdigest()[:12]
    out = os.path.join(_BAND_CACHE, key)
    if os.path.exists(os.path.join(out, "_done.json")):
        return out
    salts = _salts(num_perm)

    def base_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tt = t.filter(pa.array(ids % mod == 0))
        return _band_bucket_rows(tt, num_perm, bands, salts, shingle, nbuckets)

    def write(tmp: str) -> None:
        documents_ds(sf_dir).map_batches(
            base_rows, batch_format="pyarrow"
        ).write_parquet(os.path.join(tmp, "data"), partition_cols=["bucket"])
        with open(os.path.join(tmp, "_done.json"), "w") as f:
            json.dump({"mod": mod, "shingle": shingle, "num_perm": num_perm,
                       "bands": bands, "nbuckets": nbuckets}, f)

    return _publish_dir(out, write)


def _band_index_params(index_dir: str) -> dict:
    """The params a band table was built with (from its _done.json)."""
    import json
    import os

    with open(os.path.join(index_dir, "_done.json")) as f:
        return json.load(f)


def minhash_band_append(index_dir: str, sf_dir: str, doc_ids,
                        out_dir: str | None = None,
                        shingle: int = 3, num_perm: int = 128,
                        bands: int = 64, nbuckets: int = 32) -> str:
    """Extend a band table with the given docs' band rows, COPY-ON-WRITE:
    the base table's part files are HARDLINKED into ``out_dir`` (default
    ``index_dir + \"-appended\"``) and the new rows land as extra part
    files in the same bucket directories — O(appended docs) work and
    disk — while the PRISTINE base dir (which may be the shared per-corpus
    cache :func:`minhash_band_index_build` hands to every default-path
    caller) stays byte-untouched. Returns the appended table's dir, to
    be passed as ``index_dir`` for the next shipment's probe. Params
    must match the base table's recorded ones (refuses loudly)."""
    import json
    import os
    import shutil

    have = _band_index_params(index_dir)
    want = {"shingle": shingle, "num_perm": num_perm,
            "bands": bands, "nbuckets": nbuckets}
    mismatch = {k: (have.get(k), v) for k, v in want.items()
                if have.get(k) != v}
    if mismatch:
        raise ValueError(
            f"minhash_band_append params differ from the base table's: "
            f"{mismatch} (have vs requested)")
    out = out_dir or index_dir.rstrip("/") + "-appended"
    shutil.rmtree(out, ignore_errors=True)
    src_data = os.path.join(index_dir, "data")
    dst_data = os.path.join(out, "data")
    for dirpath, _, names in os.walk(src_data):
        rel = os.path.relpath(dirpath, src_data)
        os.makedirs(os.path.join(dst_data, rel), exist_ok=True)
        for n in names:
            try:
                os.link(os.path.join(dirpath, n),
                        os.path.join(dst_data, rel, n))
            except OSError:
                # cross-filesystem out_dir (EXDEV) or a hardlink-less
                # store: fall back to a copy — same contract, more I/O
                shutil.copy2(os.path.join(dirpath, n),
                             os.path.join(dst_data, rel, n))

    salts = _salts(num_perm)
    ids_ref = ray.put(np.asarray(sorted(doc_ids), dtype=np.int64))

    def rows(t: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tt = t.filter(pa.array(np.isin(ids, want)))
        return _band_bucket_rows(tt, num_perm, bands, salts, shingle, nbuckets)

    documents_ds(sf_dir).map_batches(
        rows, batch_format="pyarrow"
    ).write_parquet(dst_data, partition_cols=["bucket"])
    meta = dict(have)
    meta["appended"] = True
    with open(os.path.join(out, "_done.json") + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(os.path.join(out, "_done.json") + ".tmp",
               os.path.join(out, "_done.json"))
    return out


def dedup_incremental_minhash(sf_dir: str, mod: int = 2, shingle: int = 3,
                              thr_num: int = 4, thr_den: int = 5,
                              num_perm: int = 128, bands: int = 64,
                              nbuckets: int = 32,
                              index_dir: str | None = None):
    """INCREMENTAL NEAR-dup ingestion — the MinHash-LSH twin of
    :func:`dedup_incremental` (which filters exact content hashes only):
    docs of the incoming shipment (``doc_id % mod != 0``) are kept only
    if no BASELINE doc (``doc_id % mod == 0``) has token-shingle Jaccard
    >= thr_num/thr_den with them. Returns the surviving (doc_id) rows.

    Candidates come through the persisted bucket-partitioned band table
    (:func:`minhash_band_index_build`): the shipment's band rows are
    hash-partitioned by bucket, each partition task reads ONLY its
    bucket directories of the baseline table (pruned read, the IVF
    probe shape) and verifies every (band_id, band_hash) match by EXACT
    Jaccard on the packed shingle sets — so, like
    :func:`ngram_jaccard_dedup`, the output equals the O(N_new × N_base)
    oracle (2 rows/band × 64 bands: a true pair at j = 0.8 is missed
    with prob (1-j²)^64 ≈ 4e-29). Cost is O(shipment): the baseline is
    only ever read bucket-wise, never re-hashed or exchanged.

    Scale shape: one bucket-keyed exchange of the shipment's band rows
    (bands × set-blob per new doc — the :func:`_verified_pairs` trade),
    one doc_id-keyed anti-join exchange of ids only."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from .hash_partition import hash_groupby_apply

    if index_dir is None:
        index_dir = minhash_band_index_build(
            sf_dir, mod, shingle, num_perm, bands, nbuckets)
    else:
        # a caller-supplied table MUST have been built with the same
        # band geometry — a silent mismatch would hash with different
        # salts, match nothing, and admit every near-dup
        have = _band_index_params(index_dir)
        want = {"shingle": shingle, "num_perm": num_perm,
                "bands": bands, "nbuckets": nbuckets}
        mismatch = {k: (have.get(k), v) for k, v in want.items()
                    if have.get(k) != v}
        if mismatch:
            raise ValueError(
                "dedup_incremental_minhash params differ from the band "
                f"table's recorded ones: {mismatch} (have vs requested)")
    salts = _salts(num_perm)

    def new_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tt = t.filter(pa.array(ids % mod != 0))
        return _band_bucket_rows(tt, num_perm, bands, salts, shingle, nbuckets)

    new_ds = documents_ds(sf_dir).map_batches(new_rows, batch_format="pyarrow")

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        dup_ids: set[int] = set()
        for bucket, sub in df.groupby("bucket", sort=False):
            d = os.path.join(index_dir, "data", f"bucket={int(bucket)}")
            if not os.path.isdir(d):
                continue
            files = sorted(os.path.join(d, f) for f in os.listdir(d)
                           if f.endswith(".parquet"))
            if not files:
                continue
            base = pa.concat_tables([
                pq.read_table(f, columns=["band_id", "band_hash",
                                          "doc_id", "sh"])
                for f in files])
            if base.num_rows == 0:
                continue
            b_bh = base["band_hash"].to_numpy()
            b_band = base["band_id"].to_numpy()
            b_sh = base["sh"]
            order = np.lexsort((b_band, b_bh))
            b_bh_s, b_band_s = b_bh[order], b_band[order]
            n_bh = sub["band_hash"].to_numpy()
            n_band = sub["band_id"].to_numpy()
            n_doc = sub["doc_id"].to_numpy()
            n_sh = sub["sh"].to_numpy()
            lo = np.searchsorted(b_bh_s, n_bh, side="left")
            hi = np.searchsorted(b_bh_s, n_bh, side="right")
            for j in np.flatnonzero(hi > lo):  # candidate matches only
                doc = int(n_doc[j])
                if doc in dup_ids:
                    continue
                a = np.frombuffer(n_sh[j], dtype="<u8")
                for p in range(lo[j], hi[j]):
                    if b_band_s[p] != n_band[j]:
                        continue
                    b = np.frombuffer(
                        b_sh[int(order[p])].as_py(), dtype="<u8")
                    common = len(np.intersect1d(a, b, assume_unique=True))
                    union = len(a) + len(b) - common
                    if common * thr_den >= max(union, 1) * thr_num:
                        dup_ids.add(doc)
                        break
        return pd.DataFrame({"doc_id": pd.Series(sorted(dup_ids),
                                                 dtype=np.int64)})

    dups = hash_groupby_apply(new_ds, ["bucket"], probe, P=nbuckets)

    def new_ids(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids[ids % mod != 0]
        return pa.table({"doc_id": pa.array(keep),
                         "is_dup": pa.array(
                             np.zeros(len(keep), np.int8))})

    def tag_dup(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "is_dup": pa.array(
                             np.ones(len(t), np.int8))})

    merged = documents_ds(sf_dir).map_batches(
        new_ids, batch_format="pyarrow"
    ).union(dups.map_batches(tag_dup, batch_format="pyarrow"))

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        dup = set(df.loc[df["is_dup"] == 1, "doc_id"])
        keep = df.loc[(df["is_dup"] == 0) & (~df["doc_id"].isin(dup)),
                      ["doc_id"]]
        return keep

    return hash_groupby_apply(merged, ["doc_id"], anti)


def simhash_md5(sf_dir: str):
    """Oracle-checkable SimHash twin: 64-bit fingerprints over word
    UNIGRAM occurrences whose per-token hash is the portable md5
    expression (``'0x'||substr(md5(term),1,8)`` high half / chars 9-16
    low half) — so a DuckDB oracle can recompute every bit vote and
    value-check the entire bit-expand → vote → sign machinery that the
    production :func:`simhash` (xxhash shingles, internal 64-bit space)
    runs. Emitted as two integer halves (doc_id, fp_hi, fp_lo): the full
    64-bit value would overflow signed BIGINT on the SQL side.

    Vote semantics: every token OCCURRENCE votes ±1 per bit (tf-weighted
    SimHash); fingerprint bit j = (vote > 0), ties to 0. Docs with zero
    word tokens emit no row (they have no votes — the oracle's join
    drops them identically).

    Scale shape: one streaming pass, no exchange; md5 runs once per
    batch VOCABULARY (dictionary encode first), the per-doc vote sum is
    one ``np.add.at`` row-gather over the (vocab, 64) sign matrix."""
    from .duck import md5_u64_halves
    from .filters import _words_flat
    from .text_stats import documents_ds

    def per_batch(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "fp_hi": pa.array([], pa.int64()),
                          "fp_lo": pa.array([], pa.int64())})
        doc_idx, flat, n_tokens = _words_flat(t["text"])
        if len(flat) == 0:
            return empty
        enc = flat.dictionary_encode()
        h1, h2 = md5_u64_halves(enc.dictionary)
        h = (h1.astype(np.uint64) << np.uint64(32)) | h2.astype(np.uint64)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int64)
        sign = 2 * bits - 1  # (vocab, 64)
        # collapse the token stream to (doc, code) tf pairs FIRST: the
        # vote matrix then has one row per distinct term per doc instead
        # of one per occurrence (measured ~10× on the synthetic corpus;
        # never worse — pairs ≤ tokens), and tf scales the ±1 votes
        V = np.int64(len(enc.dictionary))
        key = doc_idx * V + enc.indices.to_numpy().astype(np.int64)
        uk, tf = np.unique(key, return_counts=True)
        contrib = sign[uk % V] * tf[:, None]
        d = uk // V  # ascending; == the token-bearing docs, repeated
        first = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1))
        votes = np.add.reduceat(contrib, first, axis=0)
        keep = d[first]  # batch-row indices of docs with >= 1 token
        fp_bits = votes > 0
        weights_lo = (np.int64(1) << np.arange(32, dtype=np.int64))
        fp_lo = fp_bits[:, :32] @ weights_lo
        fp_hi = fp_bits[:, 32:] @ weights_lo
        return pa.table({
            "doc_id": t["doc_id"].to_numpy()[keep],
            "fp_hi": pa.array(fp_hi),
            "fp_lo": pa.array(fp_lo),
        })

    return documents_ds(sf_dir).map_batches(per_batch,
                                            batch_format="pyarrow")


def corpus_diff(sf_dir: str, add_mod: int = 13, add_res: int = 3,
                rm_res: int = 7, chg_mod: int = 11, chg_res: int = 4):
    """Snapshot DIFF between two corpus versions — the dataset-release
    audit every iterative curation loop runs ("what changed between v1
    and v2?"): per doc_id one of ``added`` / ``removed`` / ``changed``
    (same id, different content hash) / ``unchanged``. As with
    :func:`dedup_incremental`, the two versions are carved
    deterministically from the one testdata table (old = ids with
    ``id % add_mod != add_res``; new = ids with ``id % add_mod !=
    rm_res``, and ids with ``id % chg_mod == chg_res`` get a ' [rev2]'
    content revision) — a real deployment passes two corpus paths.

    Scale shape: each side streams independently and reduces map-side to
    (doc_id, md5, side) — TEXT never crosses the wire, the md5 is the
    DuckDB C kernel at batch cost; ONE doc_id-keyed exchange co-locates
    the version pair and a vectorized outer-merge kernel assigns the
    status per partition."""
    import pandas as pd
    import pyarrow.compute as pc

    from .hash_partition import hash_groupby_apply
    from .duck import md5_hex
    from .text_stats import documents_ds

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        old_keep = ids % add_mod != add_res
        new_keep = ids % add_mod != rm_res
        changed = ids % chg_mod == chg_res
        old_md5 = md5_hex(t["text"]).to_numpy(zero_copy_only=False)
        rev = pc.binary_join_element_wise(
            t["text"], pa.array([" [rev2]"] * len(ids), pa.string()), "")
        new_text = pc.if_else(pa.array(changed), rev, t["text"])
        new_md5 = md5_hex(new_text).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.concatenate([ids[old_keep],
                                               ids[new_keep]])),
            "md5": pa.array(np.concatenate([old_md5[old_keep],
                                            new_md5[new_keep]])),
            "side": pa.array(np.concatenate([
                np.zeros(int(old_keep.sum()), np.int8),
                np.ones(int(new_keep.sum()), np.int8)])),
        })

    def status(df: pd.DataFrame) -> pd.DataFrame:
        old = df[df["side"] == 0][["doc_id", "md5"]]
        new = df[df["side"] == 1][["doc_id", "md5"]]
        j = old.merge(new, on="doc_id", how="outer",
                      suffixes=("_old", "_new"))
        j["status"] = np.where(
            j["md5_old"].isna(), "added",
            np.where(j["md5_new"].isna(), "removed",
                     np.where(j["md5_old"] != j["md5_new"],
                              "changed", "unchanged")))
        return j[["doc_id", "status"]]

    return hash_groupby_apply(
        documents_ds(sf_dir).map_batches(tag, batch_format="pyarrow"),
        ["doc_id"], status)


def containment_pairs(sf_dir: str, shingle: int = 3, thr_num: int = 4,
                      thr_den: int = 5,
                      max_df_frac: float = 0.05) -> ray.data.Dataset:
    """ASYMMETRIC near-dup detection: document pairs where the smaller
    shingle set is ≥ ``thr_num/thr_den`` CONTAINED in the other —
    |A∩B| / min(|A|,|B|) — the subset/quote-inclusion signal symmetric
    Jaccard misses (a doc fully embedded in a 10× larger one has Jaccard
    ≈ 0.1 but containment 1.0, so Jaccard-LSH candidate generation would
    never surface it). Returns exact integers (doc_a, doc_b, n_common,
    n_a, n_b), doc_a < doc_b — all-integer output, so the SQL oracle is
    hash-exact with no float grid.

    Contract (identical in the oracle): candidate common-shingles are
    counted over shingles in ≤ max(16, floor(N·max_df_frac)) docs (the
    boilerplate cap that bounds per-list pair work; a shingle in x% of
    the corpus is boilerplate, not evidence of copying), while set sizes
    |A|,|B| stay UNcapped. Docs shorter than ``shingle`` emit one padded
    shingle (the ngram_jaccard machinery's rule).

    Scale shape: one explode pass emits each doc's DISTINCT shingle
    hashes with the doc's set size riding along as an int (so no
    size-attach exchange later); ONE shingle-keyed exchange enumerates
    each capped posting list's C(df,2) pairs with the two-level index
    arithmetic and map-side-combines counts; one (a,b) exchange sums and
    applies the integer threshold. Pair traffic ≤ Σ_{df≤cap} C(df,2)."""
    import pandas as pd
    import pyarrow.parquet as pq_

    from .hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    path = sf_dir if sf_dir.endswith(".parquet") \
        else f"{sf_dir}/documents.parquet"
    n_docs = pq_.ParquetFile(path).metadata.num_rows
    max_df = max(16, int(n_docs * max_df_frac))

    def explode(t: pa.Table) -> pa.Table:
        S, shc = _shingle_hash_batch(t["text"], shingle)
        vals, dcounts = _distinct_per_doc(S, shc)
        doc = np.repeat(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            dcounts)
        nd = np.repeat(dcounts.astype(np.int64), dcounts)
        return pa.table({"sh": pa.array(vals), "doc_id": pa.array(doc),
                         "n_doc": pa.array(nd)})

    def per_shingle(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "a": pd.Series([], dtype=np.int64),
            "b": pd.Series([], dtype=np.int64),
            "n_a": pd.Series([], dtype=np.int64),
            "n_b": pd.Series([], dtype=np.int64),
            "n_part": pd.Series([], dtype=np.int64)})
        sh = df["sh"].to_numpy(np.uint64)
        # full posting list of every shingle is co-located here
        code = pd.factorize(sh, sort=False)[0]
        cnt = np.bincount(code)
        keep = (cnt[code] >= 2) & (cnt[code] <= max_df)
        if not keep.any():
            return empty
        from .agg import pairs_within_runs

        code = code[keep]
        doc = df["doc_id"].to_numpy(np.int64)[keep]
        nd = df["n_doc"].to_numpy(np.int64)[keep]
        o = np.lexsort((doc, code))
        code, doc, nd = code[o], doc[o], nd[o]
        fi, si = pairs_within_runs(code)
        if len(fi) == 0:
            return empty
        # doc-sorted per run ⇒ doc[fi] < doc[si]
        g = (pd.DataFrame({"a": doc[fi], "b": doc[si],
                           "n_a": nd[fi], "n_b": nd[si]})
             .groupby(["a", "b", "n_a", "n_b"], as_index=False)
             .size().rename(columns={"size": "n_part"}))
        return g[["a", "b", "n_a", "n_b", "n_part"]]

    counts = hash_groupby_sum(
        hash_groupby_apply(
            documents_ds(sf_dir).map_batches(explode, batch_format="pyarrow"),
            ["sh"], per_shingle),
        ["a", "b", "n_a", "n_b"], {"n_common": ("n_part", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        common = t["n_common"].to_numpy().astype(np.int64)
        na = t["n_a"].to_numpy().astype(np.int64)
        nb = t["n_b"].to_numpy().astype(np.int64)
        keep = common * thr_den >= thr_num * np.minimum(na, nb)
        return pa.table({
            "doc_a": pa.array(t["a"].to_numpy().astype(np.int64)[keep]),
            "doc_b": pa.array(t["b"].to_numpy().astype(np.int64)[keep]),
            "n_common": pa.array(common[keep]),
            "n_a": pa.array(na[keep]),
            "n_b": pa.array(nb[keep]),
        })

    return counts.map_batches(finish, batch_format="pyarrow")
