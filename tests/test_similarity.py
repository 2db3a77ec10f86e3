"""Similarity-search pipelines: brute-force exactness invariants and IVF
recall vs the exact baseline."""

import numpy as np

from searchenginepp_ray.pipelines import similarity

SF = "/root/testdata/sf0.01"


def test_knn_brute_force_self_is_top1(ray_session):
    df = similarity.knn_brute_force(SF, n_queries=5, k=5).to_pandas()
    for qid, g in df.groupby("query_id"):
        g = g.sort_values("rank")
        assert g.iloc[0]["neighbor_id"] == qid  # cosine(self, self) = 1
        assert abs(g.iloc[0]["cosine"] - 1.0) < 1e-6
        assert (np.diff(g["cosine"].to_numpy()) <= 1e-12).all()  # descending


def test_ivf_bucket_layout_prunes_reads(ray_session):
    """The IVF index is Parquet partitioned by centroid bucket, and a
    query's probe set selects a strict subset of the bucket dirs — the
    read itself is pruned, not just the scoring."""
    import os

    import numpy as np

    index_dir, cents = similarity.ivf_build(SF)
    data_dir = os.path.join(index_dir, "data")
    buckets = [d for d in os.listdir(data_dir) if d.startswith("bucket=")]
    assert len(buckets) >= 8  # real partitioned layout
    q_ids, q = similarity._query_matrix(SF, 1)
    qn = similarity._normalize(q)
    probes = np.argsort(-(qn @ cents.T), axis=1)[:, :4]
    assert len(set(probes.reshape(-1).tolist())) < len(buckets)


def test_knn_ivf_plan_has_no_union(ray_session):
    """Regression guard: the probed-bucket scan must be ONE multi-file
    read, never a union of per-bucket datasets — a union puts O(nprobe)
    operators in the streaming plan, which measured 156 s (vs ~3 s) at
    nprobe=16 on sf0.1 and wedged long-lived sessions."""
    ds = similarity.knn_ivf(SF, nprobe=16)
    assert "Union" not in repr(ds)


def test_knn_ivf_recall_vs_exact(ray_session):
    exact = similarity.knn_brute_force(SF, n_queries=5, k=5).to_pandas()
    ivf = similarity.knn_ivf(SF).to_pandas()
    # recall@5 of the bucketed variant vs the exact scan
    recalls = []
    for qid, g in exact.groupby("query_id"):
        want = set(g["neighbor_id"])
        got = set(ivf[ivf["query_id"] == qid]["neighbor_id"])
        recalls.append(len(want & got) / len(want))
    assert np.mean(recalls) >= 0.6, recalls  # nprobe misses are allowed, collapse isn't


def test_knn_ivf_full_probe_equals_brute_force(ray_session):
    """nprobe == nlist scans every bucket, so IVF must return EXACTLY the
    brute-force result — same (query_id, neighbor_id, rank) triples and
    cosines to the oracle's 6-dp rounding. This value-checks the whole
    bucketed path (partitioned layout, probe routing, per-bucket scoring,
    merge) with zero approximation slack."""
    bf = similarity.knn_brute_force(SF, n_queries=5, k=5).to_pandas()
    ivf = similarity.knn_ivf(SF, n_queries=5, k=5, nlist=16, nprobe=16).to_pandas()
    key = ["query_id", "rank"]
    bf = bf.sort_values(key).reset_index(drop=True)
    ivf = ivf.sort_values(key).reset_index(drop=True)
    assert bf[["query_id", "neighbor_id", "rank"]].equals(
        ivf[["query_id", "neighbor_id", "rank"]]
    )
    assert (bf["cosine"] - ivf["cosine"]).abs().max() < 1e-9


def test_label_centroids_matches_duckdb(ray_session, sf_dir):
    import duckdb

    from searchenginepp_ray.pipelines.oracle_sql import label_centroids_sql
    from searchenginepp_ray.pipelines.similarity import label_centroids

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf_dir}/embeddings.parquet'"
    )
    got = label_centroids(sf_dir).to_pandas().sort_values(
        ["label", "dim"]).reset_index(drop=True)
    want = con.execute(label_centroids_sql()).df().sort_values(
        ["label", "dim"]).reset_index(drop=True)
    assert got["label"].tolist() == want["label"].tolist()
    assert got["dim"].tolist() == want["dim"].tolist()
    import numpy as np

    np.testing.assert_allclose(got["mean_weight"], want["mean_weight"],
                               atol=1e-6)


def test_knn_graph_multichunk_equals_singlechunk(ray_session, sf_dir):
    """Chunked block-pair self-join must be invariant to chunk size, and
    must exclude self while covering every vector."""
    from searchenginepp_ray.pipelines.similarity import knn_graph

    one = (knn_graph(sf_dir, k=3, chunk=10_000).to_pandas()
           .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    many = (knn_graph(sf_dir, k=3, chunk=17).to_pandas()
            .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    assert one.equals(many)
    assert (one["vec_id"] != one["neighbor_id"]).all()
    import pyarrow.parquet as pq

    n = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    assert one["vec_id"].nunique() == n
    assert (one.groupby("vec_id")["rank"].max() == 3).all()


def _kmeans_numpy_ref(path: str, k: int, iters: int) -> np.ndarray:
    """Sequential Lloyd reference with the pipeline's exact determinism
    contract (lowest-vec_id init, lowest-cluster tie-break, 9 dp
    half-away centroid rounding, empty clusters keep previous)."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    m = (t["embedding"].combine_chunks().flatten().to_numpy()
         .reshape(len(ids), -1).astype(np.float64))
    order = np.argsort(ids)
    m = m[order]
    cents = m[:k].copy()
    for _ in range(iters):
        a = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(-1).argmin(1)
        for c in range(k):
            mem = m[a == c]
            if len(mem):
                cents[c] = np.floor(mem.mean(0) * 1e9 + 0.5) / 1e9
    a = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(-1).argmin(1)
    out = np.empty_like(a)
    out[:] = a
    # back to vec_id order for comparison
    return ids[order], out


def test_kmeans_matches_sequential_reference(ray_session):
    got = (similarity.kmeans_embeddings(SF, k=8, iters=3)
           .to_pandas().sort_values("vec_id"))
    ref_ids, ref_a = _kmeans_numpy_ref(f"{SF}/embeddings.parquet", 8, 3)
    assert (got["vec_id"].to_numpy() == ref_ids).all()
    assert (got["cluster"].to_numpy() == ref_a).all()
    # every cluster id in range, and clustering is non-degenerate
    assert got["cluster"].between(0, 7).all()
    assert got["cluster"].nunique() > 1


def test_embedding_covariance_pca_matches_numpy(ray_session):
    """The distributed covariance equals numpy's (to the shared 6 dp
    rule), and the driver-side eigensolve of the 64×64 result recovers
    the same top principal component as PCA on the raw matrix — the
    'big data, small model' split the operator is designed for."""
    import pyarrow.parquet as pq

    got = similarity.embedding_covariance(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = (t["embedding"].combine_chunks().flatten().to_numpy()
         .reshape(len(t), -1).astype(np.float64))
    ref = np.cov(m, rowvar=False, bias=True)
    d = ref.shape[0]
    full = np.zeros((d, d))
    full[got["dim_i"], got["dim_j"]] = got["cov"]
    full = full + np.triu(full, 1).T
    assert np.abs(full - ref).max() < 1e-6 + 1e-9
    # PCA: top eigenvector from the operator's matrix vs raw-data PCA
    wg, vg = np.linalg.eigh(full)
    wr, vr = np.linalg.eigh(ref)
    assert abs(wg[-1] - wr[-1]) < 1e-5
    assert abs(abs(vg[:, -1] @ vr[:, -1]) - 1.0) < 1e-4


def test_knn_graph_small_pool_excludes_self(ray_session, tmp_path):
    """Candidate pool <= k: the -inf self sentinel must never surface as
    a neighbor (single-chunk self block, n_rows < k)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 8)).astype(np.float32)
    pq.write_table(
        pa.table({"vec_id": pa.array(range(4), pa.int64()),
                  "embedding": pa.array([list(r) for r in m],
                                        pa.list_(pa.float32())),
                  "label": pa.array([0] * 4, pa.int32())}),
        tmp_path / "embeddings.parquet")
    df = similarity.knn_graph(str(tmp_path), k=5).to_pandas()
    assert (df["vec_id"] != df["neighbor_id"]).all()
    assert np.isfinite(df["cosine"]).all()
    # each vector sees exactly the 3 others
    assert df.groupby("vec_id").size().eq(3).all()


def test_pq_encode_matches_per_block_kmeans(ray_session):
    """PQ == m INDEPENDENT sequential Lloyd runs on the sub-slices
    (same determinism contract), and the codebook actually compresses:
    reconstruction beats the global-mean baseline."""
    import pyarrow.parquet as pq

    m_blocks, k, iters = 4, 4, 2
    got = (similarity.pq_encode(SF, m=m_blocks, k=k, iters=iters)
           .to_pandas().sort_values(["vec_id", "block"])
           .reset_index(drop=True))
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = (t["embedding"].combine_chunks().flatten().to_numpy()
           .reshape(len(ids), -1).astype(np.float64))
    order = np.argsort(ids)
    mat = mat[order]
    sub = mat.shape[1] // m_blocks
    codes_ref = np.empty((len(ids), m_blocks), np.int64)
    cents_all = []
    for b in range(m_blocks):
        mb = mat[:, b * sub:(b + 1) * sub]
        cents = mb[:k].copy()
        for _ in range(iters):
            a = ((mb[:, None, :] - cents[None, :, :]) ** 2).sum(-1).argmin(1)
            for c in range(k):
                mem = mb[a == c]
                if len(mem):
                    cents[c] = np.floor(mem.mean(0) * 1e9 + 0.5) / 1e9
        codes_ref[:, b] = ((mb[:, None, :] - cents[None, :, :]) ** 2) \
            .sum(-1).argmin(1)
        cents_all.append(cents)
    # got is sorted by vec_id; codes_ref rows are in sorted-vec_id order
    got_codes = got["code"].to_numpy().reshape(len(ids), m_blocks)
    assert (got_codes == codes_ref).all()
    assert (got["block"].to_numpy().reshape(len(ids), m_blocks)
            == np.arange(m_blocks)).all()
    # compression sanity: PQ reconstruction error < global-mean error
    rec = np.concatenate(
        [cents_all[b][codes_ref[:, b]] for b in range(m_blocks)], axis=1)
    err_pq = ((mat - rec) ** 2).sum()
    err_mean = ((mat - mat.mean(0)) ** 2).sum()
    assert err_pq < err_mean


def test_knn_pq_recall_vs_exact(ray_session):
    """ADC top-k over PQ codes recalls most of the exact L2 top-k, and
    self is always the nearest neighbor (its reconstruction is the
    closest codeword combination by construction of the LUT)."""
    import pyarrow.parquet as pq

    k = 5
    got = (similarity.knn_pq(SF, n_queries=5, k=k,
                             m=8, codebook_k=32, iters=3)
           .to_pandas())
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = (t["embedding"].combine_chunks().flatten().to_numpy()
           .reshape(len(ids), -1).astype(np.float64))
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    recalls = []
    for qid in got["query_id"].unique():
        qv = mat[np.searchsorted(ids, qid)]
        d = ((mat - qv) ** 2).sum(1)
        exact = set(ids[np.argsort(d, kind="stable")[:k]].tolist())
        approx = set(got[got["query_id"] == qid]["neighbor_id"].tolist())
        recalls.append(len(exact & approx) / k)
        top1 = got[(got["query_id"] == qid) & (got["rank"] == 1)]
        assert top1["neighbor_id"].iloc[0] == qid
    assert np.mean(recalls) >= 0.8, recalls


def _write_embeddings(tmp_path, m: np.ndarray):
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"vec_id": pa.array(range(len(m)), pa.int64()),
                  "embedding": pa.array([list(r) for r in m.astype(np.float32)],
                                        pa.list_(pa.float32())),
                  "label": pa.array([0] * len(m), pa.int32())}),
        tmp_path / "embeddings.parquet")


def test_semantic_dedup_planted_groups(ray_session, tmp_path):
    """Planted near-identical groups inside well-separated directions:
    each group collapses to one component labeled by its min vec_id,
    exactly one keep per component, singletons keep themselves."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(6, 16))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = []
    # group {0,1,2} ~ base0, group {3,4} ~ base1, singletons 5..8 each
    # on their own (random ≈ orthogonal) direction
    for b, jitter in ((0, 3), (1, 2)):
        for _ in range(jitter):
            rows.append(base[b] + rng.normal(scale=1e-3, size=16))
    rows.extend(base[2:6])
    m = np.array(rows)
    _write_embeddings(tmp_path, m)
    df = (similarity.semantic_dedup(str(tmp_path), k=3, iters=2,
                                    threshold_micro=990_000)
          .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert len(df) == len(m)
    assert set(df[df["vec_id"].isin([0, 1, 2])]["component"]) == {0}
    assert set(df[df["vec_id"].isin([3, 4])]["component"]) == {3}
    # singletons label and keep themselves
    single = df[df["vec_id"] >= 5]
    assert (single["component"] == single["vec_id"]).all()
    assert (single["keep"] == 1).all()
    # exactly one keep per component, and it's the farthest-from-centroid
    for comp, g in df.groupby("component"):
        assert g["keep"].sum() == 1
        kept = g[g["keep"] == 1].iloc[0]
        lo = g.sort_values(["centroid_cos", "vec_id"]).iloc[0]
        assert kept["vec_id"] == lo["vec_id"]


def test_semantic_dedup_transitive_chain(ray_session, tmp_path):
    """A~B and B~C above threshold but cos(A,C) below it: one component
    via the closure, not two overlapping pairs."""
    theta = 0.06
    thr = int(np.floor(np.cos(theta) * 1e6))  # pairs at +-0.05 rad pass
    e0 = np.zeros(8); e0[0] = 1.0
    e1 = np.zeros(8); e1[1] = 1.0

    def rot(a):
        return np.cos(a) * e0 + np.sin(a) * e1

    m = np.stack([rot(-0.05), rot(0.0), rot(0.05),  # the chain
                  -e0 * 2, e1 * 3])                 # fillers
    _write_embeddings(tmp_path, m)
    df = (similarity.semantic_dedup(str(tmp_path), k=2, iters=2,
                                    threshold_micro=thr)
          .to_pandas().sort_values("vec_id"))
    chain = df[df["vec_id"] <= 2]
    assert np.cos(0.1) < thr / 1e6  # A-C really is below threshold
    assert set(chain["component"]) == {0}
    assert chain["keep"].sum() == 1


def test_kmeans_inertia_matches_numpy(ray_session):
    import pyarrow.parquet as pq

    got = (similarity.kmeans_inertia(SF, k=8, iters=3)
           .to_pandas().sort_values("cluster").reset_index(drop=True))
    cents = similarity.kmeans_centroids(SF, 8, 3)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = similarity._vec_matrix(t["embedding"])
    d2 = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
    a = d2.argmin(1)
    want_n = np.bincount(a, minlength=8)
    want_i = np.zeros(8)
    np.add.at(want_i, a, d2[np.arange(len(a)), a])
    assert got["n"].tolist() == want_n.tolist()
    assert np.allclose(got["inertia"].to_numpy(), want_i, atol=1e-5)


def test_knn_mmr_matches_scalar_greedy(ray_session):
    """knn_mmr's picks equal a from-scratch scalar greedy over the same
    micro-grid candidate set, and diversification is real: with λ < 1
    the selected set's max pairwise similarity never exceeds plain
    top-k's (and rank 1 is pure relevance = the query itself)."""
    import pyarrow.dataset as pads

    n_q, n_cand, k = 3, 12, 4
    got = similarity.knn_mmr(SF, n_queries=n_q, n_cand=n_cand, k=k)

    # scalar reference: full cosine matrix, grid candidates, greedy MMR
    d = pads.dataset(f"{SF}/embeddings.parquet")
    t = d.to_table(columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    m = similarity._normalize(similarity._vec_matrix(t["embedding"]))
    for qi in range(n_q):
        rel_all = np.floor(m[qi] @ m.T * 1e6 + 0.5).astype(np.int64)
        order = sorted(range(len(ids)), key=lambda i: (-rel_all[i], ids[i]))
        cand = order[:n_cand]
        picked, maxsim = [], {i: 0 for i in cand}
        for rank in range(1, k + 1):
            best = min((i for i in cand if i not in picked),
                       key=lambda i: (-(7 * rel_all[i] - 3 * maxsim[i]),
                                      ids[i]))
            picked.append(best)
            for i in cand:
                s = int(np.floor(m[best] @ m[i] * 1e6 + 0.5))
                maxsim[i] = max(maxsim[i], s)
        g = got[got["query_id"] == ids[qi]].sort_values("rank")
        assert g["vec_id"].tolist() == [int(ids[i]) for i in picked]
        assert g.iloc[0]["vec_id"] == ids[qi]  # rank 1 = self (rel=1e6)

    # diversification: MMR's selected-set max pairwise sim <= top-k's
    plain = similarity.knn_brute_force(SF, n_queries=n_q, k=k).to_pandas()
    row_of = {int(v): i for i, v in enumerate(ids)}

    def max_pair(vids):
        mm = m[[row_of[v] for v in vids]]
        s = mm @ mm.T
        np.fill_diagonal(s, -1)
        return s.max()

    worse = 0
    for qid in got["query_id"].unique():
        a = max_pair(got[got["query_id"] == qid]["vec_id"].tolist())
        b = max_pair(plain[plain["query_id"] == qid]["neighbor_id"].tolist())
        worse += a > b + 1e-12
    assert worse == 0


def test_ivf_append_lifecycle(ray_session, sf_dir):
    """Append phase must leave the base part files byte-untouched, add
    ONLY the held-out shipment as new parts, and serve base ∪ appended
    exactly (full probe == brute force over the whole table)."""
    import glob
    import os
    import shutil

    import pandas as pd

    from searchenginepp_ray.pipelines.similarity import (
        ivf_append_build, knn_ivf_appended)

    # force a cold build so the phase markers are exercised
    idx, cents = ivf_append_build(sf_dir)
    shutil.rmtree(idx)
    idx, cents = ivf_append_build(sf_dir)
    base_marker = os.path.join(idx, "_base_done.json")
    assert os.path.exists(base_marker)

    parts = sorted(glob.glob(os.path.join(idx, "data", "bucket=*", "*.parquet")))
    sigs = {p: (os.path.getsize(p), os.path.getmtime(p)) for p in parts}

    # idempotent: a re-run with the done marker present changes nothing
    idx2, _ = ivf_append_build(sf_dir)
    assert idx2 == idx
    parts2 = sorted(glob.glob(os.path.join(idx, "data", "bucket=*", "*.parquet")))
    assert parts2 == parts
    assert all(sigs[p] == (os.path.getsize(p), os.path.getmtime(p))
               for p in parts)

    # the layout holds every vector exactly once (base ∪ appended)
    got = pd.concat([pd.read_parquet(p, columns=["vec_id"]) for p in parts])
    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    assert sorted(got["vec_id"].tolist()) == sorted(emb["vec_id"].tolist())

    # full probe over the appended layout == exact brute force
    from searchenginepp_ray.pipelines.similarity import knn_brute_force
    app = knn_ivf_appended(sf_dir).to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    bf = knn_brute_force(sf_dir).to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        app[["query_id", "neighbor_id", "rank"]],
        bf[["query_id", "neighbor_id", "rank"]])


def test_embedding_quantize_bounds_and_reconstruction(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.similarity import (
        _vec_matrix, embedding_quantize, embeddings_ds)

    codes = embedding_quantize(sf_dir).to_pandas()
    assert codes["code"].between(0, 255).all()

    # exact per-dim min/max from a direct read
    t = embeddings_ds(sf_dir).to_pandas()
    import pyarrow as pa

    m = _vec_matrix(pa.array(list(t["embedding"])))
    mn, mx = m.min(axis=0), m.max(axis=0)
    span = mx - mn

    wide = codes.pivot(index="vec_id", columns="dim", values="code")
    wide = wide.sort_index()
    order = np.argsort(t["vec_id"].to_numpy())
    m_sorted = m[order]
    recon = mn + wide.to_numpy() * span / 255.0
    err = np.abs(recon - m_sorted)
    # half-step quantization error bound per element
    assert (err <= span / 510.0 + 1e-12).all()
    # min and max of each dim code to 0 / 255 exactly
    assert (wide.to_numpy().min(axis=0) == 0).all()
    assert (wide.to_numpy().max(axis=0) == 255).all()
