"""Similarity search over the ``embeddings`` table (vec_id, embedding
list<float>, label).

- :func:`knn_brute_force` — exact top-k cosine: numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once, fetched once per
  worker), partial top-k per batch, final merge. No shuffle of the big
  side; at 10^12 rows this is the streaming scan baseline.
- :func:`knn_ivf` — IVF-bucketed variant: k-means-lite centroids
  (deterministic seeded init, few Lloyd iterations on a sample), assign →
  search only the ``nprobe`` closest buckets. The scale path: turns a
  full scan into a 1/nlist fraction scan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def embeddings_ds(sf_dir: str) -> ray.data.Dataset:
    from .text_stats import _read_blocks

    path = f"{sf_dir}/embeddings.parquet"
    return ray.data.read_parquet(path, columns=["vec_id", "embedding"],
                                 override_num_blocks=_read_blocks(path))


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


def _head_table(path: str, n: int, columns: list[str]) -> pa.Table:
    """First ``n`` rows only — a bounded driver-side read (streams record
    batches and stops; never loads the whole column)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    batches, got = [], 0
    for b in pf.iter_batches(batch_size=min(max(n, 1), 4096), columns=columns):
        batches.append(b)
        got += len(b)
        if got >= n:
            break
    t = pa.Table.from_batches(batches)
    pf.close()
    return t.slice(0, n)


def _query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    t = _head_table(f"{sf_dir}/embeddings.parquet", n_queries, ["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    q = _vec_matrix(t["embedding"])
    return ids, q


def knn_brute_force(sf_dir: str, n_queries: int = 5, k: int = 5):
    """Exact cosine top-k for the first ``n_queries`` vectors (queries
    include themselves; cosine rounded to 6 dp for oracle comparability).

    Returns (query_id, neighbor_id, rank, cosine)."""
    q_ids, q = _query_matrix(sf_dir, n_queries)
    qn = _normalize(q)
    q_ref = ray.put(qn)

    def partial_topk(t: pa.Table) -> pa.Table:
        qn = ray.get(q_ref)
        m = _vec_matrix(t["embedding"])
        vec_ids = t["vec_id"].to_numpy()
        sims = qn @ _normalize(m).T  # (n_queries, batch)
        out_q, out_n, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            s = sims[qi]
            # tie-safe partial top-k: keep ties at the boundary
            thresh = np.partition(s, len(s) - kk)[len(s) - kk]
            keep = np.flatnonzero(s >= thresh)
            out_q.extend([int(q_ids[qi])] * len(keep))
            out_n.extend(vec_ids[keep].tolist())
            out_s.extend(s[keep].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    partials = embeddings_ds(sf_dir).map_batches(partial_topk, batch_format="pyarrow")

    # final merge: tiny (n_queries × k × n_batches rows)
    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cosine", "neighbor_id"], ascending=[False, True]).head(k)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        # shared floor rounding rule (np.round half-to-even vs SQL ROUND
        # half-away disagree exactly on the half grid)
        df["cosine"] = np.floor(df["cosine"].to_numpy() * 1e6 + 0.5) / 1e6
        return df[["query_id", "neighbor_id", "rank", "cosine"]]

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")


def _train_centroids(sf_dir: str, nlist: int, sample_size: int,
                     iters: int) -> np.ndarray:
    """Deterministic k-means-lite centroids from a BOUNDED sample (first
    ``sample_size`` rows streamed, never the full column)."""
    t = _head_table(f"{sf_dir}/embeddings.parquet", sample_size, ["embedding"])
    sample = _normalize(_vec_matrix(t["embedding"]))
    rng = np.random.Generator(np.random.PCG64(42))
    cents = sample[rng.choice(len(sample), size=min(nlist, len(sample)), replace=False)]
    for _ in range(iters):  # Lloyd on the sample
        assign = (sample @ cents.T).argmax(axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


#: per-(corpus, params) IVF indexes of :func:`ivf_build` and
#: :func:`ivf_append_build`
_IVF_CACHE = "/tmp/seppray_ivf_cache"


def ivf_build(sf_dir: str, nlist: int = 16, sample_size: int = 2048,
              iters: int = 5) -> tuple[str, np.ndarray]:
    """Build (or reuse) the IVF index: embeddings written as Parquet
    PARTITIONED BY nearest-centroid bucket, so probing prunes *reads* —
    a query touches only its ``nprobe`` bucket directories, not the full
    table. Idempotent per (corpus, params) cache key."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    from .dedup import _publish_dir

    # cache key includes a CONTENT fingerprint of the source file (size +
    # mtime + row count), not just its path — regenerating
    # embeddings.parquet in place invalidates the cached centroids and
    # bucket partitions instead of silently serving stale ones
    src = f"{sf_dir}/embeddings.parquet"
    st = os.stat(src)
    n_rows_src = pq.ParquetFile(src).metadata.num_rows
    fingerprint = f"{st.st_size}:{int(st.st_mtime_ns)}:{n_rows_src}"
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}:ivf:{nlist}:{sample_size}:{iters}:"
        f"{fingerprint}:v2".encode()
    ).hexdigest()[:12]
    out = os.path.join(_IVF_CACHE, key)
    cents_path = os.path.join(out, "centroids.npy")
    if os.path.exists(os.path.join(out, "_done.json")):
        return out, np.load(cents_path)

    cents = _train_centroids(sf_dir, nlist, sample_size, iters)
    cents_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _normalize(_vec_matrix(t["embedding"]))
        bucket = (m @ c.T).argmax(axis=1).astype(np.int32)
        return t.append_column("bucket", pa.array(bucket))

    def write(tmp: str) -> None:
        embeddings_ds(sf_dir).map_batches(assign, batch_format="pyarrow").write_parquet(
            os.path.join(tmp, "data"), partition_cols=["bucket"]
        )
        np.save(os.path.join(tmp, "centroids.npy"), cents)
        with open(os.path.join(tmp, "_done.json"), "w") as f:
            json.dump({"nlist": int(nlist)}, f)

    _publish_dir(out, write)
    return out, np.load(cents_path)  # the winner's, if another build won


def knn_ivf(sf_dir: str, n_queries: int = 5, k: int = 5, nlist: int = 16,
            nprobe: int = 4, sample_size: int = 2048, iters: int = 5):
    """IVF top-k over the bucket-partitioned layout: only the union of the
    queries' ``nprobe`` probed bucket directories is scanned (pruned
    parquet read), then each batch scores only the queries probing its
    bucket. Approximate; recall measured against :func:`knn_brute_force`
    in tests."""
    index_dir, cents = ivf_build(sf_dir, nlist, sample_size, iters)
    return _ivf_serve(index_dir, cents, sf_dir, n_queries, k, nprobe)


def _ivf_serve(index_dir: str, cents: np.ndarray, sf_dir: str,
               n_queries: int, k: int, nprobe: int):
    """Serve top-k from a bucket-partitioned IVF layout (shared by the
    fresh-build and append-extended paths — appended part files in the
    same bucket dirs are picked up by the per-bucket listing)."""
    import os

    q_ids, q = _query_matrix(sf_dir, n_queries)
    qn = _normalize(q)
    probes = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_sets = [set(row.tolist()) for row in probes]
    q_ref = ray.put((qn, probe_sets, cents))

    # pruned read: ONE read_parquet over only the probed bucket dirs (the
    # 1/nlist fraction scan). A per-bucket union of datasets would be
    # O(nprobe) operators in the streaming plan — measured pathological
    # (~35-op plan took 156 s on 2k vectors vs <1 s for this shape). Each
    # batch's bucket is re-derived from the broadcast centroids with the
    # SAME deterministic argmax the build's assign() used, so no bucket
    # column needs to survive the partitioned layout.
    union = sorted(set(probes.reshape(-1).tolist()))
    paths = []
    for b in union:
        d = os.path.join(index_dir, "data", f"bucket={b}")
        if os.path.isdir(d):
            paths.extend(
                sorted(
                    os.path.join(d, f)
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
            )
    ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])

    def partial_topk(t: pa.Table) -> pa.Table:
        qn, probe_sets, cents = ray.get(q_ref)
        m = _normalize(_vec_matrix(t["embedding"]))
        vec_ids = t["vec_id"].to_numpy()
        bucket = (m @ cents.T).argmax(axis=1).astype(np.int32)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qn)):
            mask = np.isin(bucket, list(probe_sets[qi]))
            if not mask.any():
                continue
            s = m[mask] @ qn[qi]
            ids = vec_ids[mask]
            kk = min(k, len(s))
            thresh = np.partition(s, len(s) - kk)[len(s) - kk]
            keep = np.flatnonzero(s >= thresh)
            out_q.extend([int(q_ids[qi])] * len(keep))
            out_n.extend(ids[keep].tolist())
            out_s.extend(s[keep].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    partials = ds.map_batches(partial_topk, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cosine", "neighbor_id"], ascending=[False, True]).head(k)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["cosine"] = np.floor(df["cosine"].to_numpy() * 1e6 + 0.5) / 1e6
        return df[["query_id", "neighbor_id", "rank", "cosine"]]

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")


def ivf_append_build(sf_dir: str, nlist: int = 16, sample_size: int = 2048,
                     iters: int = 5, append_mod: int = 5
                     ) -> tuple[str, np.ndarray]:
    """ANN ingestion LIFECYCLE: build the IVF over the BASE slice
    (vec_id % append_mod != 0), then APPEND the held-out shipment to the
    SAME bucket partitions without retraining or rewriting — the vector
    twin of the inverted index's append-incremental build. Centroids are
    trained on (and frozen at) the base slice only, appended vectors are
    assigned with the frozen centroids and written as NEW part files
    into the existing ``bucket=N`` dirs (base part files untouched), so
    the append cost is O(appended), not O(corpus). Each phase has its
    own idempotent marker — a crashed append resumes without redoing the
    base build."""
    import hashlib
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    src = f"{sf_dir}/embeddings.parquet"
    st = os.stat(src)
    n_rows_src = pq.ParquetFile(src).metadata.num_rows
    fingerprint = f"{st.st_size}:{int(st.st_mtime_ns)}:{n_rows_src}"
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}:ivfapp:{nlist}:{sample_size}:{iters}:"
        f"{append_mod}:{fingerprint}:v2".encode()
    ).hexdigest()[:12]
    out = os.path.join(_IVF_CACHE, key)
    cents_path = os.path.join(out, "centroids.npy")
    base_marker = os.path.join(out, "_base_done.json")
    app_marker = os.path.join(out, "_append_done.json")
    if os.path.exists(app_marker):
        return out, np.load(cents_path)

    mod = np.int64(append_mod)

    def is_base(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(v % mod != 0))

    def is_appended(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(v % mod == 0))

    if not os.path.exists(base_marker):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        # centroids from the BASE slice's bounded head sample — frozen
        # BEFORE the appended shipment exists (the honest lifecycle)
        t = _head_table(src, sample_size, ["vec_id", "embedding"])
        t = is_base(t)
        sample = _normalize(_vec_matrix(t["embedding"]))
        rng = np.random.Generator(np.random.PCG64(42))
        cents = sample[rng.choice(len(sample),
                                  size=min(nlist, len(sample)),
                                  replace=False)]
        for _ in range(iters):
            assign_s = (sample @ cents.T).argmax(axis=1)
            for c in range(len(cents)):
                members = sample[assign_s == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
            cents = _normalize(cents)
        cents_ref = ray.put(cents)

        def assign_base(t: pa.Table) -> pa.Table:
            t = is_base(t)
            c = ray.get(cents_ref)
            m = _normalize(_vec_matrix(t["embedding"]))
            bucket = (m @ c.T).argmax(axis=1).astype(np.int32) \
                if len(t) else np.zeros(0, np.int32)
            return t.append_column("bucket", pa.array(bucket))

        embeddings_ds(sf_dir).map_batches(
            assign_base, batch_format="pyarrow").write_parquet(
            os.path.join(out, "data"), partition_cols=["bucket"])
        np.save(cents_path, cents)
        base_parts = sorted(
            os.path.relpath(os.path.join(r, f), out)
            for r, _, fs in os.walk(os.path.join(out, "data"))
            for f in fs if f.endswith(".parquet"))
        with open(base_marker + ".tmp", "w") as f:
            json.dump({"nlist": int(nlist), "phase": "base",
                       "parts": base_parts}, f)
        os.replace(base_marker + ".tmp", base_marker)
    cents = np.load(cents_path)
    cents_ref = ray.put(cents)

    # crash-resume idempotency: a retry must not duplicate appended
    # vectors — scrub any part file a previous (crashed) append attempt
    # left behind before writing the shipment again. The base marker
    # records exactly which parts belong to the base build.
    base_parts = set(json.load(open(base_marker)).get("parts", []))
    for r, _, fs in os.walk(os.path.join(out, "data")):
        for f in fs:
            p = os.path.join(r, f)
            if f.endswith(".parquet") \
                    and os.path.relpath(p, out) not in base_parts:
                os.remove(p)

    def assign_appended(t: pa.Table) -> pa.Table:
        t = is_appended(t)
        c = ray.get(cents_ref)
        m = _normalize(_vec_matrix(t["embedding"]))
        bucket = (m @ c.T).argmax(axis=1).astype(np.int32) \
            if len(t) else np.zeros(0, np.int32)
        return t.append_column("bucket", pa.array(bucket))

    # append: write_parquet adds uniquely-named part files into the
    # existing bucket=N dirs — base parts are never rewritten
    embeddings_ds(sf_dir).map_batches(
        assign_appended, batch_format="pyarrow").write_parquet(
        os.path.join(out, "data"), partition_cols=["bucket"])
    with open(app_marker + ".tmp", "w") as f:
        json.dump({"phase": "append"}, f)
    os.replace(app_marker + ".tmp", app_marker)
    return out, cents


def knn_ivf_appended(sf_dir: str, n_queries: int = 5, k: int = 5,
                     nlist: int = 16, nprobe: int = 16,
                     sample_size: int = 2048, iters: int = 5):
    """Top-k served from the APPEND-EXTENDED IVF index. The default
    nprobe == nlist scans every bucket, so the bucketed machinery
    degenerates to exact brute force over base ∪ appended — making the
    whole append path value-checkable by the same SQL oracle as
    knn_brute_force (any lost/duplicated/mis-bucketed appended vector
    breaks the hash)."""
    index_dir, cents = ivf_append_build(sf_dir, nlist, sample_size, iters)
    return _ivf_serve(index_dir, cents, sf_dir, n_queries, k, nprobe)


def knn_mmr(sf_dir: str, n_queries: int = 4, n_cand: int = 16,
            k: int = 5) -> pd.DataFrame:
    """MMR-DIVERSIFIED nearest neighbors (maximal marginal relevance,
    Carbonell & Goldstein 1998): per query, greedily pick ``k`` of the
    exact top-``n_cand`` cosine candidates maximizing
    ``λ·rel − (1−λ)·max_sim_to_selected`` with λ = 0.7, so redundant
    near-identical neighbors are demoted in favour of coverage.

    Determinism across engines: every cosine snaps to the integer
    micro-grid ``floor(x·1e6 + 0.5)`` first, and λ = 0.7 becomes the
    EXACT integer rule ``score10 = 7·rel_micro − 3·max_sim_micro``
    (10× the micro-MMR score) — candidate selection, the greedy argmax
    and all ties (→ vec_id ASC) compare integers only, so the unrolled
    SQL oracle reproduces every pick bit-for-bit.

    Scale shape: stage 1 is the knn_brute_force streaming scan
    (queries broadcast once, per-batch partial top-k, tiny merge);
    stage 2 fetches ONLY the ≤ n_queries·n_cand candidate vectors with
    one vec_id-filtered pruned read, and the greedy loop runs on that
    candidate-sized set — nothing corpus-sized ever leaves the scan.

    Returns (query_id, rank, vec_id, score10)."""
    import pyarrow.dataset as pads

    # stage 1: raw candidates with a tie margin, then re-rank on the
    # micro grid (grid ranking is ULP-robust where raw doubles are not)
    raw = knn_brute_force(sf_dir, n_queries=n_queries,
                          k=n_cand + 8).to_pandas()
    raw["rel"] = np.floor(
        raw["cosine"].to_numpy() * 1e6 + 0.5).astype(np.int64)
    raw = raw.sort_values(["query_id", "rel", "neighbor_id"],
                          ascending=[True, False, True])
    cand = raw.groupby("query_id", sort=True).head(n_cand)

    # stage 2: candidate vectors only — one filtered (row-group pruned)
    # read of the candidate vec_ids
    ids = sorted(set(cand["neighbor_id"].tolist()))
    d = pads.dataset(f"{sf_dir}/embeddings.parquet")
    t = d.to_table(columns=["vec_id", "embedding"],
                   filter=pads.field("vec_id").isin(ids))
    vid = t["vec_id"].to_numpy()
    emb = _normalize(_vec_matrix(t["embedding"]))
    row_of = {int(v): i for i, v in enumerate(vid)}

    rows = []
    for qid, g in cand.groupby("query_id", sort=True):
        c_ids = g["neighbor_id"].to_numpy()
        rel = g["rel"].to_numpy()
        m = emb[[row_of[int(v)] for v in c_ids]]
        sim = np.floor(m @ m.T * 1e6 + 0.5).astype(np.int64)
        n = len(c_ids)
        maxsim = np.zeros(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        for rank in range(1, min(k, n) + 1):
            score10 = 7 * rel - 3 * maxsim
            # argmax on (score10 DESC, vec_id ASC) among unpicked
            idx = np.flatnonzero(alive)
            best = int(idx[np.lexsort((c_ids[idx], -score10[idx]))[0]])
            rows.append((int(qid), rank, int(c_ids[best]),
                         int(score10[best])))
            alive[best] = False
            np.maximum(maxsim, sim[:, best], out=maxsim)
    return pd.DataFrame({
        "query_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "rank": pd.Series([r[1] for r in rows], dtype=np.int64),
        "vec_id": pd.Series([r[2] for r in rows], dtype=np.int64),
        "score10": pd.Series([r[3] for r in rows], dtype=np.int64),
    })


def embedding_norm_stats(sf_dir: str):
    """Per-label mean L2 norm + count (vectorized per batch partials)."""
    from ray.data.aggregate import Count, Sum

    def per_batch(t: pa.Table) -> pa.Table:
        m = _vec_matrix(t["embedding"])
        norms = np.linalg.norm(m, axis=1)
        return pa.table({"label": t["label"], "norm": pa.array(norms)})

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    ).map_batches(per_batch, batch_format="pyarrow")
    agg = ds.groupby("label").aggregate(
        Sum("norm", alias_name="norm_sum"), Count(alias_name="n")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["mean_norm"] = (df["norm_sum"] / df["n"]).round(6)
        return df[["label", "n", "mean_norm"]]

    return agg.map_batches(finish, batch_format="pandas")


def label_centroids(sf_dir: str):
    """Per-label embedding CENTROID (mean vector) in long format
    (label, dim, mean_weight) — the class-prototype aggregate used for
    nearest-centroid classification and cluster drift monitoring.

    Scale shape: each batch collapses to ONE (sum-vector, count) partial
    per label (zero-copy FixedSizeList → matrix, ``np.add.reduceat``-free
    label bincount), so the exchange carries label-count × dims floats
    per batch regardless of row count; the final divide runs over the
    tiny label key space."""
    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    path = f"{sf_dir}/embeddings.parquet"
    ds = ray.data.read_parquet(path, columns=["label", "embedding"],
                               override_num_blocks=_read_blocks(path))

    def partial(t: pa.Table) -> pa.Table:
        m = _vec_matrix(t["embedding"])
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv).astype(np.int64)
        L, D = sums.shape
        return pa.table({
            "label": pa.array(np.repeat(uniq, D)),
            "dim": pa.array(np.tile(np.arange(D, dtype=np.int64), L)),
            "s_part": pa.array(sums.ravel()),
            "n_part": pa.array(np.repeat(counts, D)),
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["label", "dim"], as_index=False).agg(
            s=("s_part", "sum"), n=("n_part", "sum"))
        g["mean_weight"] = (g["s"] / g["n"]).round(6)
        return g[["label", "dim", "mean_weight"]]

    return hash_groupby_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"], finish,
    )


def embedding_quantize(sf_dir: str):
    """Scalar (int8-range) quantization of the embedding column: global
    per-dimension min/max (pass 1 — per-batch partials through a tiny
    64-key native aggregate, then broadcast), then per-element codes
    ``floor((x - mn) * 255 / (mx - mn) + 0.5)`` (pass 2, streaming).
    Output is long format (vec_id, dim, code) so the DuckDB oracle can
    value-check every element; a production export would pack the codes
    row-wise as a fixed-size binary column instead.

    floor(v + 0.5) is used instead of round() so Ray and the oracle
    agree bit-for-bit (numpy rounds half-to-even, SQL half-away); v is
    always >= 0 here so the two differ only in tie direction."""
    import pyarrow.compute as pc

    def minmax_partial(t: pa.Table) -> pa.Table:
        m = _vec_matrix(t["embedding"])
        if m.size == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "mn_p": pa.array([], pa.float64()),
                             "mx_p": pa.array([], pa.float64())})
        return pa.table({
            "dim": pa.array(np.arange(m.shape[1], dtype=np.int64)),
            "mn_p": pa.array(m.min(axis=0)),
            "mx_p": pa.array(m.max(axis=0)),
        })

    from ray.data.aggregate import Max, Min

    mm = (
        embeddings_ds(sf_dir)
        .map_batches(minmax_partial, batch_format="pyarrow")
        .groupby("dim")  # tiny key space (n_dims) — native agg is fine
        .aggregate(Min("mn_p"), Max("mx_p"))
        .to_pandas()
        .sort_values("dim")
    )
    mn = mm["min(mn_p)"].to_numpy()
    mx = mm["max(mx_p)"].to_numpy()
    bounds_ref = ray.put((mn, mx))

    def quantize(t: pa.Table) -> pa.Table:
        lo, hi = ray.get(bounds_ref)
        m = _vec_matrix(t["embedding"])
        n, d = m.shape if m.size else (0, len(lo))
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "code": pa.array([], pa.int64())})
        span = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            v = (m - lo) * 255.0 / span
        codes = np.where(span > 0, np.floor(v + 0.5), 0.0).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(t["vec_id"].to_numpy(), d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
            "code": pa.array(codes.reshape(-1)),
        })

    return embeddings_ds(sf_dir).map_batches(quantize, batch_format="pyarrow")


def _round9_half_up(x: np.ndarray) -> np.ndarray:
    """Half-away rounding to 9 dp — the same shared floor(x*1e9+0.5)/1e9
    expression the SQL oracle evaluates, so both engines carry IDENTICAL
    centroid doubles between k-means iterations (np.round half-to-even
    vs SQL ROUND half-away would diverge on grid-exact means)."""
    return np.floor(x * 1e9 + 0.5) / 1e9


def kmeans_centroids(sf_dir: str, k: int = 8, iters: int = 3) -> np.ndarray:
    """The Lloyd centroid recurrence of :func:`kmeans_embeddings`,
    exposed so compositions (SemDeDup's cluster bucketing) share the
    exact deterministic contract: init = the ``k`` lowest-vec_id
    vectors; assignment = argmin squared Euclidean distance with ties to
    the lowest cluster id; update = member mean rounded half-away to
    9 dp (:func:`_round9_half_up`); empty clusters keep their previous
    centroid. Returns the (k, dims) centroid matrix after ``iters``
    rounds.

    Scale shape: per iteration ONE streaming pass over the table — each
    batch reduces to (cluster, dim, sum, count) partials (k×dims floats,
    map-side combined), one hash exchange over the k×dims key space, and
    a k×dims driver pivot (bounded by k·dims, NOT by rows). Centroids are
    broadcast once per iteration via ``ray.put``. No shuffle of the big
    side, nothing data-sized on the driver."""
    from .agg import hash_groupby_sum

    path = f"{sf_dir}/embeddings.parquet"
    t0 = _head_table(path, k, ["vec_id", "embedding"])
    init_ids = t0["vec_id"].to_numpy()
    cents = _vec_matrix(t0["embedding"])[np.argsort(init_ids)]

    def make_partial(cref):
        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _vec_matrix(t["embedding"])
            kk, d = c.shape
            if m.size == 0:
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "dim": pa.array([], pa.int64()),
                                 "s_part": pa.array([], pa.float64()),
                                 "n_part": pa.array([], pa.int64())})
            d2 = ((m[:, None, :] - c[None, :, :]) ** 2).sum(-1)
            a = d2.argmin(1)  # ties -> lowest cluster id, like the oracle
            sums = np.zeros((kk, d), dtype=np.float64)
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=kk).astype(np.int64)
            occ = np.flatnonzero(cnt)  # only occupied clusters emit
            return pa.table({
                "cluster": pa.array(np.repeat(occ.astype(np.int64), d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(occ))),
                "s_part": pa.array(sums[occ].ravel()),
                "n_part": pa.array(np.repeat(cnt[occ], d)),
            })

        return partial

    for _ in range(iters):
        cref = ray.put(cents)
        agg = hash_groupby_sum(
            embeddings_ds(sf_dir).map_batches(
                make_partial(cref), batch_format="pyarrow"),
            ["cluster", "dim"], {"s": ("s_part", "sum"), "n": ("n_part", "sum")},
        ).to_pandas()  # k*dims rows — bounded by the key space, not rows
        new = cents.copy()
        cl = agg["cluster"].to_numpy()
        dm = agg["dim"].to_numpy()
        new[cl, dm] = agg["s"].to_numpy() / agg["n"].to_numpy()
        occupied = np.unique(cl)
        new[occupied] = _round9_half_up(new[occupied])
        cents = new

    return cents


def kmeans_embeddings(sf_dir: str, k: int = 8, iters: int = 3):
    """Distributed Lloyd's k-means over the embedding column — the
    clustering member of the similarity family (topic/domain bucketing of
    a corpus; also the principled centroid trainer for the IVF index,
    whose ``_train_centroids`` is the sampled fast path of this op).
    Centroid recurrence and determinism contract in
    :func:`kmeans_centroids`; this op emits the final assignment as
    (vec_id, cluster). The DuckDB oracle unrolls the identical
    recurrence as chained CTEs."""
    cents = kmeans_centroids(sf_dir, k, iters)
    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _vec_matrix(t["embedding"])
        if m.size == 0:
            return pa.table({"vec_id": t["vec_id"],
                             "cluster": pa.array([], pa.int64())})
        a = ((m[:, None, :] - c[None, :, :]) ** 2).sum(-1).argmin(1)
        return pa.table({"vec_id": t["vec_id"],
                         "cluster": pa.array(a.astype(np.int64))})

    return embeddings_ds(sf_dir).map_batches(assign, batch_format="pyarrow")


def kmeans_inertia(sf_dir: str, k: int = 8, iters: int = 3):
    """Per-cluster k-means quality: member count and inertia (sum of
    squared Euclidean distance to the FINAL centroid) for the shared
    deterministic Lloyd recurrence — the elbow-curve / drift-monitoring
    readout, and a direct value-check of the centroid matrix itself
    (the assignment-only :func:`kmeans_embeddings` gate can't see a
    centroid whose perturbation doesn't flip any argmin). Returns
    (cluster, n, inertia) with inertia on the shared 6 dp grid.

    Scale shape: the centroid loop's passes plus ONE more streaming
    pass reducing each batch to k (count, Σd²) partials; the final
    aggregate runs over the k-row key space."""
    import pandas as pd
    from ray.data.aggregate import Sum

    cents = kmeans_centroids(sf_dir, k, iters)
    cref = ray.put(cents)

    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _vec_matrix(t["embedding"])
        if m.size == 0:
            return pa.table({"cluster": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64()),
                             "i_part": pa.array([], pa.float64())})
        d2 = ((m[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        a = d2.argmin(1)
        occ = np.unique(a)
        i_part = np.zeros(len(c))
        np.add.at(i_part, a, d2[np.arange(len(a)), a])
        return pa.table({
            "cluster": pa.array(occ.astype(np.int64)),
            "n_part": pa.array(np.bincount(a, minlength=len(c))[occ]
                               .astype(np.int64)),
            "i_part": pa.array(i_part[occ]),
        })

    agg = (embeddings_ds(sf_dir)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("cluster")  # k keys — native agg is fine
           .aggregate(Sum("n_part", alias_name="n"),
                      Sum("i_part", alias_name="inertia")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from .text_stats import round6_half_up

        df["n"] = df["n"].astype(np.int64)
        df["inertia"] = round6_half_up(df["inertia"].to_numpy())
        return df[["cluster", "n", "inertia"]]

    return agg.map_batches(finish, batch_format="pandas")


def semantic_dedup(sf_dir: str, k: int = 8, iters: int = 3,
                   threshold_micro: int = 450_000, pair_block: int = 1024):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540) — semantic
    near-duplicate removal with k-means bucketing as the candidate
    pruner: vectors are clustered by the shared deterministic Lloyd
    recurrence (:func:`kmeans_centroids`); WITHIN each cluster, every
    pair whose cosine similarity is ``>= threshold_micro`` on the shared
    6 dp grid (compared in integer micro-units so both engines threshold
    identical values) is a semantic-duplicate edge; per connected
    component of that graph the member FARTHEST from its cluster
    centroid is kept (lowest rounded centroid cosine — the paper's
    keep-low-centroid-similarity rule; ties → lowest vec_id) and the
    rest are marked dropped. Returns one row per vector:
    (vec_id, cluster, component, centroid_cos, keep) with component =
    min vec_id reachable (singletons label themselves, keep=1).

    Scale shape: clustering IS the pruning structure — candidate pairs
    never cross clusters, so the plan is one streaming assign pass
    (centroids broadcast once) and ONE exchange keyed on the cluster id;
    the quadratic kernel runs on cluster-sized blocks, which is
    SemDeDup's own scaling contract (k grows with the corpus so N/k
    stays bounded; the paper uses 50k clusters for LAION-440M). The
    pairwise scan inside a cluster walks ``pair_block`` rows at a time
    against the cluster matrix, capping scratch at pair_block×|cluster|
    doubles. Components cannot span clusters, so labeling is a
    cluster-local vectorized min-propagation — no global
    connected-components pass. The default threshold sits at the
    synthetic corpus's cosine scale (near-orthogonal random vectors); a
    real embedding corpus would use ~0.95e6."""
    cents = kmeans_centroids(sf_dir, k, iters)
    cref = ray.put((cents, _normalize(cents)))

    def assign(t: pa.Table) -> pa.Table:
        c, cn = ray.get(cref)
        m = _vec_matrix(t["embedding"])
        if m.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "ccos_micro": pa.array([], pa.int64()),
                             "embedding": t["embedding"]})
        a = ((m[:, None, :] - c[None, :, :]) ** 2).sum(-1).argmin(1)
        ccos = (_normalize(m) * cn[a]).sum(1)
        return pa.table({
            "vec_id": t["vec_id"],
            "cluster": pa.array(a.astype(np.int64)),
            "ccos_micro": pa.array(np.floor(ccos * 1e6 + 0.5).astype(np.int64)),
            "embedding": t["embedding"],
        })

    def one_cluster(ids, mn, ccos, cluster):
        n = len(ids)
        ia_parts, ib_parts = [], []
        for s in range(0, n, pair_block):
            e = min(s + pair_block, n)
            sims = np.floor(mn[s:e] @ mn.T * 1e6 + 0.5)
            bi, bj = np.nonzero(sims >= threshold_micro)
            up = s + bi < bj  # strict upper triangle in global indices
            ia_parts.append(s + bi[up])
            ib_parts.append(bj[up])
        ia = np.concatenate(ia_parts) if ia_parts else np.empty(0, np.int64)
        ib = np.concatenate(ib_parts) if ib_parts else np.empty(0, np.int64)
        lab = np.arange(n)
        while len(ia):
            before = lab.copy()
            m1 = np.minimum(lab[ia], lab[ib])
            np.minimum.at(lab, ia, m1)
            np.minimum.at(lab, ib, m1)
            while not np.array_equal(lab, lab[lab]):  # pointer jumping
                lab = lab[lab]
            if np.array_equal(lab, before):
                break
        comp = ids[lab]
        # representative per component: lowest (centroid cosine, vec_id)
        order2 = np.lexsort((ids, ccos, comp))
        first = np.empty(n, dtype=bool)
        if n:
            first[0] = True
            sc = comp[order2]
            first[1:] = sc[1:] != sc[:-1]
        keep = np.zeros(n, dtype=np.int64)
        keep[order2[first]] = 1
        return pa.table({
            "vec_id": pa.array(ids),
            "cluster": pa.array(np.full(n, cluster, np.int64)),
            "component": pa.array(comp),
            "centroid_cos": pa.array(ccos / 1e6),
            "keep": pa.array(keep),
        })

    def per_partition(t: pa.Table) -> pa.Table:
        # one kernel invocation per coarse hash PARTITION (clusters stay
        # whole — the key is the cluster id); the loop below is over the
        # partition's clusters with numpy work inside, never Ray's
        # ~1 ms/group map_groups overhead at k cardinality, and the
        # vector column stays Arrow (zero-copy matrixize)
        ids_all = t["vec_id"].to_numpy()
        ccos_all = t["ccos_micro"].to_numpy()
        cl_all = t["cluster"].to_numpy()
        mn_all = _normalize(_vec_matrix(t["embedding"]))
        order = np.lexsort((ids_all, cl_all))
        ids_all, ccos_all, cl_all = (ids_all[order], ccos_all[order],
                                     cl_all[order])
        mn_all = mn_all[order]
        bounds = np.concatenate((
            [0], np.flatnonzero(cl_all[1:] != cl_all[:-1]) + 1,
            [len(cl_all)]))
        outs = [one_cluster(ids_all[s:e], mn_all[s:e], ccos_all[s:e],
                            int(cl_all[s]))
                for s, e in zip(bounds[:-1], bounds[1:]) if e > s]
        return pa.concat_tables(outs) if outs else pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
            "centroid_cos": pa.array([], pa.float64()),
            "keep": pa.array([], pa.int64())})

    from ..index.hash_partition import _shuffle_width

    P = _shuffle_width()

    def add_part(t: pa.Table) -> pa.Table:
        part = (t["cluster"].to_numpy() % P).astype(np.int32)
        return t.append_column("_part", pa.array(part))

    return (
        embeddings_ds(sf_dir)
        .map_batches(assign, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("_part")  # the ONE exchange; pairs never cross clusters
        .map_groups(per_partition, batch_format="pyarrow")
    )


def knn_graph(sf_dir: str, k: int = 5, chunk: int = 2048):
    """Exact k-NN GRAPH: for every vector, its top-k cosine neighbors
    among all OTHER vectors — the all-vs-all self-join member of the
    similarity family (the building block for graph-based dedup,
    clustering and recommend pipelines).

    Scale shape: the same block-pair self-join as
    ``dedup.embedding_near_dup`` (one task per chunk pair, row-group-
    pruned parquet reads, LRU-cached per actor, nothing broadcast) but
    each block emits tie-safe PARTIAL top-k rows for both chunks, so
    per-task output is O(chunk × k), not O(chunk²). The global per-
    vector top-k is one hash exchange on vec_id with a vectorized
    lexsort/run-length kernel per partition — no per-vector Python at
    scaling cardinality. Returns (vec_id, neighbor_id, rank, cosine)."""
    import pyarrow.parquet as pq

    from ..index.hash_partition import hash_groupby_apply
    from .dedup import _read_row_range, _rg_offsets

    path = f"{sf_dir}/embeddings.parquet"
    n_rows = pq.ParquetFile(path).metadata.num_rows
    n_chunks = max(1, (n_rows + chunk - 1) // chunk)
    tasks = [
        {"ci": i, "cj": j} for i in range(n_chunks) for j in range(i, n_chunks)
    ]

    class GraphBlock:
        def __init__(self):
            self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            self._pf = pq.ParquetFile(path)
            self._rg_offs = _rg_offsets(self._pf)

        def _load(self, c: int) -> tuple[np.ndarray, np.ndarray]:
            hit = self._cache.get(c)
            if hit is not None:
                return hit
            start = c * chunk
            stop = min(start + chunk, n_rows)
            t, _ = _read_row_range(
                self._pf, self._rg_offs, start, stop, ["vec_id", "embedding"]
            )
            ids = t["vec_id"].to_numpy()
            m = _normalize(_vec_matrix(t["embedding"]))
            if len(self._cache) >= 4:
                self._cache.pop(next(iter(self._cache)))
            self._cache[c] = (ids, m)
            return ids, m

        @staticmethod
        def _partial(ids_r: np.ndarray, ids_c: np.ndarray, sims: np.ndarray,
                     out: list) -> None:
            """Tie-safe per-row top-k of one sims block (rows keep every
            candidate >= the k-th value; the global merge resolves)."""
            n_c = sims.shape[1]
            kk = min(k, n_c)
            thresh = np.partition(sims, n_c - kk, axis=1)[:, n_c - kk]
            rr, cc = np.nonzero(sims >= thresh[:, None])
            vals = sims[rr, cc]
            # when the candidate pool is <= k the row threshold is the
            # -inf self sentinel itself — never emit it
            real = vals != -np.inf
            out.append((ids_r[rr[real]], ids_c[cc[real]], vals[real]))

        def __call__(self, t: pa.Table) -> pa.Table:
            out: list = []
            for ci, cj in zip(t["ci"].to_pylist(), t["cj"].to_pylist()):
                ids_i, m_i = self._load(ci)
                ids_j, m_j = self._load(cj)
                sims = m_i @ m_j.T
                if ci == cj:
                    np.fill_diagonal(sims, -np.inf)  # exclude self
                    self._partial(ids_i, ids_j, sims, out)
                else:
                    self._partial(ids_i, ids_j, sims, out)
                    self._partial(ids_j, ids_i, sims.T.copy(), out)
            if not out:
                return pa.table({"vec_id": pa.array([], pa.int64()),
                                 "neighbor_id": pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            return pa.table({
                "vec_id": pa.array(
                    np.concatenate([o[0] for o in out]).astype(np.int64)),
                "neighbor_id": pa.array(
                    np.concatenate([o[1] for o in out]).astype(np.int64)),
                "cosine": pa.array(np.concatenate([o[2] for o in out])),
            })

    partials = ray.data.from_items(tasks).map_batches(
        GraphBlock, batch_size=4, concurrency=(1, 8), batch_format="pyarrow",
        num_cpus=1,
    )

    def topk_per_vec(df: pd.DataFrame) -> pd.DataFrame:
        v = df["vec_id"].to_numpy()
        nb = df["neighbor_id"].to_numpy()
        cs = df["cosine"].to_numpy()
        order = np.lexsort((nb, -cs, v))
        v, nb, cs = v[order], nb[order], cs[order]
        starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        sizes = np.diff(np.concatenate((starts, [len(v)])))
        rank = np.arange(len(v)) - np.repeat(starts, sizes)
        keep = rank < k
        return pd.DataFrame({
            "vec_id": v[keep],
            "neighbor_id": nb[keep],
            "rank": (rank[keep] + 1).astype(np.int64),
            "cosine": np.floor(cs[keep] * 1e6 + 0.5) / 1e6,
        })

    return hash_groupby_apply(partials, ["vec_id"], topk_per_vec)


def embedding_covariance(sf_dir: str):
    """Distributed covariance matrix of the embedding column — the
    linear-algebra aggregate behind PCA / whitening / drift detection at
    corpus scale. Returns the upper triangle in long format
    (dim_i, dim_j, cov) with cov = (Σxᵢxⱼ − ΣxᵢΣxⱼ/N)/N, rounded under
    the shared floor rule.

    Scale shape: each batch reduces to ONE augmented Gram partial —
    [X|1]ᵀ[X|1], which carries Σxᵢxⱼ, the per-dim sums (last column) and
    the row count (corner) in a single (d+1)² matrix — so the exchange
    traffic is dims² floats per batch regardless of rows, and the final
    assembly is a dims²-row pivot (bounded by the dimension, never the
    data). One hash exchange over the (i, j) key space.

    The 64×64 result is eigensolved driver-side in microseconds for PCA
    (see the pytest) — the classic "big data, small model" split."""
    import pandas as pd

    from .agg import hash_groupby_sum
    from .text_stats import round6_half_up

    def partial(t: pa.Table) -> pa.Table:
        m = _vec_matrix(t["embedding"])
        if m.size == 0:
            return pa.table({"dim_i": pa.array([], pa.int64()),
                             "dim_j": pa.array([], pa.int64()),
                             "s_part": pa.array([], pa.float64())})
        aug = np.hstack([m, np.ones((len(m), 1))])
        S = aug.T @ aug
        d1 = S.shape[0]
        iu, ju = np.triu_indices(d1)
        return pa.table({"dim_i": pa.array(iu.astype(np.int64)),
                         "dim_j": pa.array(ju.astype(np.int64)),
                         "s_part": pa.array(S[iu, ju])})

    agg = hash_groupby_sum(
        embeddings_ds(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["dim_i", "dim_j"], {"s": ("s_part", "sum")},
    ).to_pandas()  # (d+1)(d+2)/2 rows — bounded by dims, not data

    d1 = int(agg["dim_i"].max()) + 1
    d = d1 - 1
    S = np.zeros((d1, d1))
    S[agg["dim_i"], agg["dim_j"]] = agg["s"].to_numpy()
    S = S + np.triu(S, 1).T  # mirror to full symmetric
    n = S[d, d]
    sums = S[:d, d]
    iu, ju = np.triu_indices(d)
    cov = (S[:d, :d][iu, ju] - sums[iu] * sums[ju] / n) / n
    return pd.DataFrame({"dim_i": iu.astype(np.int64),
                         "dim_j": ju.astype(np.int64),
                         "cov": round6_half_up(cov)})


def _pq_train(sf_dir: str, m: int, k: int, iters: int) -> np.ndarray:
    """Train the (m, k, dims/m) product-quantization codebooks —
    m independent Lloyd runs executed in ONE shared streaming pass per
    iteration (see :func:`pq_encode` for the contract)."""
    from .agg import hash_groupby_sum

    path = f"{sf_dir}/embeddings.parquet"
    t0 = _head_table(path, k, ["vec_id", "embedding"])
    init_ids = t0["vec_id"].to_numpy()
    init = _vec_matrix(t0["embedding"])[np.argsort(init_ids)]
    dims = init.shape[1]
    if dims % m:
        raise ValueError(f"dims {dims} not divisible by m={m}")
    sub = dims // m
    cents = np.ascontiguousarray(
        init.reshape(k, m, sub).transpose(1, 0, 2))  # (m, k, sub)

    def make_partial(cref):
        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            mat = _vec_matrix(t["embedding"])
            if mat.size == 0:
                return pa.table({"block": pa.array([], pa.int64()),
                                 "cluster": pa.array([], pa.int64()),
                                 "dim": pa.array([], pa.int64()),
                                 "s_part": pa.array([], pa.float64()),
                                 "n_part": pa.array([], pa.int64())})
            n = mat.shape[0]
            mb = mat.reshape(n, m, sub)
            blocks, clusters, dim_col, s_col, n_col = [], [], [], [], []
            for b in range(m):
                d2 = ((mb[:, b, None, :] - c[b][None, :, :]) ** 2).sum(-1)
                a = d2.argmin(1)
                sums = np.zeros((k, sub), np.float64)
                np.add.at(sums, a, mb[:, b, :])
                cnt = np.bincount(a, minlength=k).astype(np.int64)
                occ = np.flatnonzero(cnt)
                blocks.append(np.full(len(occ) * sub, b, np.int64))
                clusters.append(np.repeat(occ.astype(np.int64), sub))
                dim_col.append(np.tile(np.arange(sub, dtype=np.int64),
                                       len(occ)))
                s_col.append(sums[occ].ravel())
                n_col.append(np.repeat(cnt[occ], sub))
            return pa.table({
                "block": pa.array(np.concatenate(blocks)),
                "cluster": pa.array(np.concatenate(clusters)),
                "dim": pa.array(np.concatenate(dim_col)),
                "s_part": pa.array(np.concatenate(s_col)),
                "n_part": pa.array(np.concatenate(n_col)),
            })

        return partial

    for _ in range(iters):
        cref = ray.put(cents)
        agg = hash_groupby_sum(
            embeddings_ds(sf_dir).map_batches(
                make_partial(cref), batch_format="pyarrow"),
            ["block", "cluster", "dim"],
            {"s": ("s_part", "sum"), "n": ("n_part", "sum")},
        ).to_pandas()  # ≤ m·k·sub rows
        new = cents.copy()
        bl = agg["block"].to_numpy()
        cl = agg["cluster"].to_numpy()
        dm = agg["dim"].to_numpy()
        new[bl, cl, dm] = agg["s"].to_numpy() / agg["n"].to_numpy()
        occ = np.unique(np.stack((bl, cl)), axis=1)
        new[occ[0], occ[1]] = _round9_half_up(new[occ[0], occ[1]])
        cents = new

    return cents


def pq_encode(sf_dir: str, m: int = 4, k: int = 4, iters: int = 2):
    """Product quantization — train ``m`` sub-space codebooks of ``k``
    centroids each (independent Lloyd's k-means per ``dims/m``-wide
    block) and encode every vector as ``m`` small codes: the vector
    COMPRESSION path for corpora whose raw embeddings don't fit the
    serving tier (m×log2(k) bits per vector vs dims×32). Returns long
    (vec_id, block, code) — the layout :func:`knn_pq`'s ADC scanner
    consumes.

    Same deterministic contract as :func:`kmeans_embeddings` so the
    unrolled-CTE oracle is hash-exact (init = k lowest-vec_id vectors'
    sub-slices, argmin ties → lowest cluster, shared 9 dp half-up
    centroid rounding, empty clusters keep their previous centroid) —
    and the same scale shape, with all ``m`` blocks trained in the SAME
    streaming pass: per iteration one pass reduces each batch to
    (block, cluster, dim) partials (≤ m·k·dims rows — key-space
    bounded), one tiny exchange, centroids broadcast via ``ray.put``."""
    cents = _pq_train(sf_dir, m, k, iters)
    k_, sub = cents.shape[1], cents.shape[2]
    cref = ray.put(cents)

    def encode(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = _vec_matrix(t["embedding"])
        vec_ids = t["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if mat.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "block": pa.array([], pa.int64()),
                             "code": pa.array([], pa.int64())})
        n = mat.shape[0]
        mb = mat.reshape(n, m, sub)
        codes = np.empty((n, m), np.int64)
        for b in range(m):
            codes[:, b] = ((mb[:, b, None, :] - c[b][None, :, :]) ** 2) \
                .sum(-1).argmin(1)
        return pa.table({
            "vec_id": pa.array(np.repeat(vec_ids, m)),
            "block": pa.array(np.tile(np.arange(m, dtype=np.int64), n)),
            "code": pa.array(codes.ravel()),
        })

    return embeddings_ds(sf_dir).map_batches(encode, batch_format="pyarrow")


def knn_pq(sf_dir: str, n_queries: int = 5, k: int = 5,
           m: int = 4, codebook_k: int = 16, iters: int = 2,
           rerank: int = 8):
    """Approximate k-NN by PQ asymmetric distance computation with
    exact re-ranking (ADC+R, Jégou et al.) — the SERVING half of
    :func:`pq_encode`: each query precomputes an (m × codebook_k)
    lookup table of squared sub-distances to every codeword; a database
    vector's approximate distance is then m table GATHERS and a sum —
    no float math against the raw vector, which is the whole point at
    100 TB where only the m-byte codes live in the serving tier. The
    ADC scan shortlists ``rerank·k`` candidates per batch and only
    THOSE rows' raw floats are touched for an exact re-rank — the
    standard accuracy/IO trade. Approximate by design → no SQL oracle;
    the recall pytest pins it against the exact scan.

    Scale shape: codebooks from :func:`_pq_train` (streaming, bounded
    exchanges), LUTs broadcast once via ``ray.put``; one streaming pass
    computes per-batch codes, ADC distances, and the exact-reranked
    tie-safe partial top-k per query (the codes would be the
    precomputed serving artifact at scale — recomputing them per batch
    keeps the op self-contained over the raw table); final merge is
    n_queries × k × n_batches rows. Returns (query_id, neighbor_id,
    rank, dist) with ``dist`` the exact squared L2 of the survivors."""
    cents = _pq_train(sf_dir, m, codebook_k, iters)
    sub = cents.shape[2]
    q_ids, q = _query_matrix(sf_dir, n_queries)
    qb = q.reshape(len(q_ids), m, sub)
    # luts[qi, b, code] = ||q_sub - codeword||^2
    luts = ((qb[:, :, None, :] - cents[None, :, :, :]) ** 2).sum(-1)
    lut_ref = ray.put(luts)
    c_ref = ray.put(cents)
    q_ref = ray.put(q)

    def partial_topk(t: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        c = ray.get(c_ref)
        qm = ray.get(q_ref)
        mat = _vec_matrix(t["embedding"])
        vec_ids = t["vec_id"].to_numpy(zero_copy_only=False)
        if mat.size == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.float64())})
        n = mat.shape[0]
        mb = mat.reshape(n, m, sub)
        codes = np.empty((n, m), np.int64)
        for b in range(m):
            codes[:, b] = ((mb[:, b, None, :] - c[b][None, :, :]) ** 2) \
                .sum(-1).argmin(1)
        # ADC: (nq, n) distances via m gathers per query
        blocks = np.arange(m)
        adc = lut[:, blocks[None, :], codes].sum(-1)  # (nq, n)
        out_q, out_n, out_d = [], [], []
        short = min(rerank * k, n)
        kk = min(k, n)
        for qi in range(adc.shape[0]):
            # ADC shortlist, then exact squared L2 on those rows only
            cand = np.argpartition(adc[qi], short - 1)[:short]
            d = ((mat[cand] - qm[qi]) ** 2).sum(1)
            thresh = np.partition(d, kk - 1)[kk - 1]
            keep = cand[np.flatnonzero(d <= thresh)]
            out_q.extend([int(q_ids[qi])] * len(keep))
            out_n.extend(vec_ids[keep].tolist())
            out_d.extend(d[np.flatnonzero(d <= thresh)].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "dist": pa.array(out_d, pa.float64())})

    partials = embeddings_ds(sf_dir).map_batches(
        partial_topk, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["dist", "neighbor_id"],
                            ascending=[True, True]).head(k)
        from .text_stats import round6_half_up

        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["dist"] = round6_half_up(df["dist"].to_numpy())
        return df[["query_id", "neighbor_id", "rank", "dist"]]

    return partials.groupby("query_id").map_groups(
        merge, batch_format="pandas")
