"""Distributed connected components over a pair (edge) Dataset.

Two regimes, dispatched on the edge count (the same cost-dispatch
pattern the BMM searcher uses for tiny segments):

* **In-task union-find** (edge count ≤ :data:`CC_INMEM_EDGES`, 5M):
  the edge table is coalesced into ONE remote task that runs a
  vectorized pointer-doubling min-label kernel over numpy arrays —
  C-speed, converges in O(log n) in-memory sweeps, and the
  DRIVER never holds an edge (the task does, bounded by the threshold:
  5M edges ≈ 80 MB).

* **Min-label propagation rounds** (larger graphs): every node starts
  labeled with itself; each round co-partitions the current labels
  with the edge endpoints (one exchange), sends each node's label to
  its neighbors plus a pointer-jump edge ``node <-> label`` (so a node
  also learns ``label(label(node))`` — path halving turns O(diameter)
  rounds into O(log diameter)), and takes the per-node min (second
  exchange). Labels decrease monotonically; the driver reads ONE
  scalar per round (count of changed labels) to detect the fixpoint,
  so the pair graph can exceed driver memory by any factor.

This replaces the round-2 driver-side union-find in
``corpus_clean_neardup`` (the one residual driver funnel flagged at
100 TB: a dup-heavy crawl corpus can produce pair sets larger than any
single machine).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..index.hash_partition import hash_groupby_apply

#: Largest edge count solved in one in-memory task (5M edges ≈ 80 MB).
CC_INMEM_EDGES = 5_000_000


def _edges_table(t: pa.Table, a_col: str, b_col: str) -> pa.Table:
    return pa.table(
        {"a": t[a_col].cast(pa.int64()), "b": t[b_col].cast(pa.int64())}
    )


def _cc_kernel(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-label CC over one in-memory edge list: relax every
    edge both ways (``np.minimum.at``) then pointer-double (``lab[lab]``)
    until fixpoint. Labels are INDICES into the sorted unique node array,
    so index order == node-id order and the final label is the component
    minimum. O(E) per sweep, O(log n) sweeps."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        before = lab.copy()
        m = np.minimum(lab[ia], lab[ib])
        np.minimum.at(lab, ia, m)
        np.minimum.at(lab, ib, m)
        lab = lab[lab]
        if np.array_equal(lab, before):
            break
    return nodes, nodes[lab]


def _cc_inmem(edges: ray.data.Dataset) -> ray.data.Dataset:
    """All edges through one remote task running :func:`_cc_kernel`."""

    def solve(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        if len(a) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "component": pa.array([], pa.int64())})
        nodes, comp = _cc_kernel(a, b)
        return pa.table({"node": pa.array(nodes),
                         "component": pa.array(comp)})

    return edges.repartition(1).map_batches(
        solve, batch_format="pyarrow", batch_size=None
    )


def connected_components(
    pairs: ray.data.Dataset,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_rounds: int = 64,
    inmem_threshold: int | None = None,
) -> ray.data.Dataset:
    """(node, component) for every node appearing in ``pairs``;
    ``component`` is the minimum node id reachable from ``node``.

    Small graphs solve in one remote task; large ones run the
    propagation rounds (both exchanges per round go through
    :func:`hash_groupby_apply`, vectorized per partition; per-round
    state is node-sized and lives in the object store, never on the
    driver).
    """
    if inmem_threshold is None:
        inmem_threshold = CC_INMEM_EDGES
    edges = pairs.map_batches(
        lambda t: _edges_table(t, a_col, b_col), batch_format="pyarrow"
    ).materialize()
    if edges.count() <= inmem_threshold:
        return _cc_inmem(edges)

    # initial labels: node -> itself (deduped across batches)
    def node_rows(t: pa.Table) -> pa.Table:
        nodes = np.unique(
            np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
        ) if len(t) else np.empty(0, dtype=np.int64)
        return pa.table({"node": pa.array(nodes, pa.int64()),
                         "label": pa.array(nodes, pa.int64())})

    def dedup_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", as_index=False, sort=False).agg(
            label=("label", "min")
        )

    labels = hash_groupby_apply(
        edges.map_batches(node_rows, batch_format="pyarrow"),
        ["node"], dedup_nodes,
    ).materialize()

    # per-round kernels (closures are stateless — safe to reuse).
    # ONE labels pass emits both the label echo and the pointer-jump
    # edges (node <-> label), halving the plan width per round.
    def lab_and_jump_rows(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy()
        label = t["label"].to_numpy()
        n = len(node)
        k = np.concatenate([node, node, label])
        other = np.concatenate([np.zeros(n, np.int64), label, node])
        labc = np.concatenate([label, np.zeros(2 * n, np.int64)])
        is_lab = np.concatenate(
            [np.ones(n, np.int8), np.zeros(2 * n, np.int8)]
        )
        return pa.table(
            {"k": pa.array(k), "other": pa.array(other),
             "label": pa.array(labc), "is_lab": pa.array(is_lab)}
        )

    def edge_rows(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        k = np.concatenate([a, b])
        other = np.concatenate([b, a])
        n = len(k)
        return pa.table(
            {"k": pa.array(k), "other": pa.array(other),
             "label": pa.array(np.zeros(n, np.int64)),
             "is_lab": pa.array(np.zeros(n, np.int8))}
        )

    def propagate(df: pd.DataFrame) -> pd.DataFrame:
        lab = df[df["is_lab"] == 1]
        e = df[df["is_lab"] == 0]
        # echo every node's own label (is_old marks it for change detection)
        out = [pd.DataFrame({"node": lab["k"].to_numpy(),
                             "label": lab["label"].to_numpy(),
                             "is_old": np.ones(len(lab), np.int8)})]
        if len(e):
            m = e[["k", "other"]].merge(
                lab[["k", "label"]], on="k", how="inner"
            )
            out.append(pd.DataFrame({"node": m["other"].to_numpy(),
                                     "label": m["label"].to_numpy(),
                                     "is_old": np.zeros(len(m), np.int8)}))
        return pd.concat(out, ignore_index=True)

    def reduce_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)
        new = g["label"].min()
        old = df[df["is_old"] == 1].set_index("node")["label"]
        changed = (new < old.reindex(new.index)).astype(np.int64)
        return pd.DataFrame(
            {"node": new.index.to_numpy(), "label": new.to_numpy(),
             "changed": changed.to_numpy()}
        )

    for _round in range(max_rounds):
        u = labels.map_batches(
            lab_and_jump_rows, batch_format="pyarrow"
        ).union(edges.map_batches(edge_rows, batch_format="pyarrow"))
        msgs = hash_groupby_apply(u, ["k"], propagate)
        new_labels = hash_groupby_apply(msgs, ["node"], reduce_min).materialize()
        n_changed = new_labels.sum("changed") or 0  # ONE scalar to the driver
        labels = new_labels.drop_columns(["changed"])
        if n_changed == 0:
            return labels.map_batches(
                lambda t: t.rename_columns(["node", "component"]),
                batch_format="pyarrow",
            )
    raise RuntimeError(
        f"connected_components did not converge in {max_rounds} rounds "
        "(graph diameter exceeds the round budget)"
    )


def component_losers(components: ray.data.Dataset) -> ray.data.Dataset:
    """Nodes that are NOT their component's canonical (minimum) id."""
    def non_canon(t: pa.Table) -> pa.Table:
        keep = t["node"].to_numpy() != t["component"].to_numpy()
        return pa.table({"node": t["node"].filter(pa.array(keep))})

    return components.map_batches(non_canon, batch_format="pyarrow")


# ---------- PageRank ----------

def pagerank(
    edges: ray.data.Dataset,
    damping: float = 0.85,
    iters: int = 5,
    src: str = "src",
    dst: str = "dst",
    seed_mod: int | None = None,
) -> ray.data.Dataset:
    """Fixed-iteration PageRank over a SYMMETRIC directed edge Dataset
    (every node must have out-degree ≥ 1 — symmetrized graphs satisfy
    this by construction, which removes the dangling-mass term and makes
    the recurrence exactly SQL-expressible for the oracle):

        r_{t+1}(v) = (1-d)/N + d * Σ_{(u,v) ∈ E} r_t(u) / outdeg(u)

    Scale shape: edges are hash-partitioned on ``src`` ONCE (degrees are
    computed in the same pass and carried on the edge rows, so iterations
    never re-derive them); each iteration is one rank⋈edges co-partition
    exchange on ``src`` plus one contribution aggregation on ``dst`` with
    a map-side combiner. Rank state is node-sized, lives in the object
    store, and is re-materialized per iteration to keep the streaming
    plan shallow (the knn_ivf wide-plan lesson); the driver only ever
    holds the scalar N."""
    from .agg import hash_groupby_sum
    from .relational import shuffle_join

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src].cast(pa.int64()),
            "dst": t[dst].cast(pa.int64()),
        })

    def dedup_and_degree(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["src", "dst"])
        return d.assign(deg=d.groupby("src")["src"].transform("size")
                        .astype(np.int64))

    # one exchange: co-locate each src's edges, dedup, attach out-degree
    edges_deg = hash_groupby_apply(
        edges.map_batches(edge_rows, batch_format="pyarrow"),
        ["src"], dedup_and_degree,
    ).materialize()

    def node_rows(t: pa.Table) -> pa.Table:
        u = np.unique(t["src"].to_numpy())
        return pa.table({"node": pa.array(u, pa.int64())})

    def dedup_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["node"])

    nodes = hash_groupby_apply(
        edges_deg.map_batches(node_rows, batch_format="pyarrow"),
        ["node"], dedup_nodes,
    ).materialize()
    n_nodes = nodes.count()
    if seed_mod is None:
        base = (1.0 - damping) / n_nodes
        init = 1.0 / n_nodes
    else:
        # PERSONALIZED variant: teleport mass goes only to the seed set
        # (node % seed_mod == 0) — r measures proximity to the seeds.
        # n_seeds is one tiny aggregate over the node-sized dataset.
        def seed_flags(t: pa.Table) -> pa.Table:
            v = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"s": pa.array((v % seed_mod == 0)
                                           .astype(np.int64))})

        n_seeds = int(nodes.map_batches(
            seed_flags, batch_format="pyarrow").sum("s"))
        if n_seeds == 0:
            raise ValueError(f"no seed nodes (node % {seed_mod} == 0)")
        base = (1.0 - damping) / n_seeds
        init = 1.0 / n_seeds

    def init_rows(t: pa.Table) -> pa.Table:
        if seed_mod is None:
            pr = np.full(len(t), init)
        else:
            v = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            pr = np.where(v % seed_mod == 0, init, 0.0)
        return t.append_column("pr", pa.array(pr))

    ranks = nodes.map_batches(init_rows, batch_format="pyarrow").materialize()

    def contrib_partial(t: pa.Table) -> pa.Table:
        # map-side combiner: per-batch partial sums per dst (Arrow-native
        # groupby-sum — pure C kernel, no pandas conversion)
        g = pa.table({
            "dst": t["dst"],
            "c": pc.divide(pc.cast(t["pr"], pa.float64()),
                           pc.cast(t["deg"], pa.float64())),
        }).group_by(["dst"]).aggregate([("c", "sum")])
        return pa.table({"dst": g["dst"], "c": g["c_sum"]})

    def finish(t: pa.Table) -> pa.Table:
        s = t["contrib"].to_numpy(zero_copy_only=False)
        if seed_mod is None:
            b = base
        else:
            v = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = np.where(v % seed_mod == 0, base, 0.0)
        return pa.table({
            "node": t["dst"].cast(pa.int64()),
            "pr": pa.array(b + damping * s),
        })

    for _ in range(iters):
        joined = shuffle_join(
            edges_deg, ranks, "src", "node", ["dst", "deg"], ["pr"]
        )
        partials = joined.map_batches(contrib_partial, batch_format="pyarrow")
        ranks = hash_groupby_sum(
            partials, ["dst"], {"contrib": ("c", "sum")}
        ).map_batches(finish, batch_format="pyarrow").materialize()
    return ranks


def part_pagerank(sf_dir: str, damping: float = 0.85, iters: int = 5):
    """PageRank over the part CO-PURCHASE graph: parts are adjacent iff
    they appear in the same order (distinct pairs, both directions — a
    symmetric graph, so :func:`pagerank`'s no-dangling precondition holds
    by construction).

    Edge build is one hash exchange on ``l_orderkey``; the per-partition
    kernel is a vectorized self-merge per order (orders are small, so the
    quadratic blowup is per-order bounded). Ranks are rounded to 10
    decimals for oracle comparability (accumulated cross-engine ULP drift
    after ``iters`` float exchanges is ~1e-16 relative — far inside the
    rounding grid)."""
    import pyarrow.compute as pc

    from .relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return pd.DataFrame({
            "src": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "dst": m["l_partkey_y"].to_numpy(dtype=np.int64),
        })

    edges = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    pr = pagerank(edges, damping=damping, iters=iters)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": t["node"],
            "pagerank": pc.round(t["pr"], ndigits=10),
        })

    return pr.map_batches(fmt, batch_format="pyarrow")


def part_pagerank_seeded(sf_dir: str, damping: float = 0.85,
                         iters: int = 5, seed_mod: int = 10,
                         use_bsp: bool = True):
    """PERSONALIZED PageRank over the co-purchase graph: teleport mass
    restricted to a seed part set (part_key % seed_mod == 0 — a real
    deployment passes the user's catalog/interest set), so rank measures
    proximity-to-seeds ("related to what you stock") rather than global
    centrality — the recommender twin of :func:`part_pagerank` with the
    identical movement contract (same one-time edge exchange, same
    per-iteration co-partition join + combined contribution aggregate;
    the only deltas are the seed-indicator init and teleport vectors,
    both computed batch-side). Rounded to 10 dp for the oracle.

    Served from the edge-stationary :func:`pagerank_bsp` pool (edges are
    hash-partitioned ONCE and pinned in actors; each of the ``iters``
    supersteps moves only pre-summed contribution partials) — the
    Dataset-form :func:`pagerank` twin re-ships the edge table through a
    rank⋈edges exchange EVERY iteration, the scale-killer at 100×. The
    Dataset form stays as the equivalence gate
    (``test_pagerank_bsp_seeded_equals_dataset``), the part_bfs/bfs_bsp
    pattern. Set ``use_bsp=False`` to run the Dataset form."""
    import pyarrow.compute as pc

    from ..index.hash_partition import hash_groupby_apply
    from .relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return pd.DataFrame({
            "src": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "dst": m["l_partkey_y"].to_numpy(dtype=np.int64),
        })

    edges = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    if use_bsp:
        pr = pagerank_bsp(edges, damping=damping, iters=iters,
                          seed_mod=seed_mod)
    else:
        pr = pagerank(edges, damping=damping, iters=iters,
                      seed_mod=seed_mod)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": t["node"],
            "pagerank": pc.round(t["pr"], ndigits=10),
        })

    return pr.map_batches(fmt, batch_format="pyarrow")


# ---------- edge-stationary (BSP) PageRank ----------

def _node_part(v: np.ndarray, P: int) -> np.ndarray:
    """Partition id of an int64 node column — the EXACT function
    ``agg._key_hash`` applies to a single integer key, so the actor
    layout and any ``hash_groupby_apply`` on the same key agree."""
    from ..index.hash_partition import _splitmix64

    return (_splitmix64(v.astype(np.uint64)) % np.uint64(P)).astype(np.int64)


@ray.remote(num_cpus=0)
class _PagerankShard:
    """One hash partition of the edge table + its rank shard, pinned in
    an actor for the whole run. Nodes are this shard's distinct ``src``
    values (hash(src) % P == k); on a symmetric graph every incoming
    ``dst`` is also some shard's ``src``, so rank ownership is total.

    Per superstep the shard emits ONE ``ray.put`` contribution partial
    per destination shard (pre-summed per dst, so partial size is
    bounded by the shard's out-neighborhood, not its edge count) and
    then folds the partials addressed to it into its rank shard. Edges
    and ranks never cross the network after load.

    Construction is split from :meth:`load` so the pool can be spawned
    BEFORE the edge exchange runs: worker-process startup on a session
    that has already churned Ray Data workers costs seconds per actor
    on this host (fresh-page fault path), but hides entirely under the
    upstream exchange when started concurrently with it."""

    def __init__(self):
        pass

    def load(self, path: str | None, P: int, damping: float) -> None:
        import pyarrow.parquet as pq

        if path is None:  # empty partition — owns no nodes, no edges
            t = pa.table({"src": pa.array([], pa.int64()),
                          "dst": pa.array([], pa.int64()),
                          "deg": pa.array([], pa.int64())})
        else:
            t = pq.read_table(path, columns=["src", "dst", "deg"])
        src = t["src"].to_numpy().astype(np.int64)
        dst = t["dst"].to_numpy().astype(np.int64)
        deg = t["deg"].to_numpy().astype(np.float64)
        self.nodes = np.unique(src)
        # edges sorted by destination shard: contribs() slices per shard
        part = _node_part(dst, P)
        order = np.argsort(part, kind="stable")
        self.src_idx = np.searchsorted(self.nodes, src[order])
        self.dst = dst[order]
        self.deg = deg[order]
        self.bounds = np.searchsorted(part[order], np.arange(P + 1))
        self.damping = damping
        self.r = None

    def n_nodes(self) -> int:
        return len(self.nodes)

    def n_seed_nodes(self, seed_mod: int) -> int:
        return int((self.nodes % seed_mod == 0).sum())

    def init_ranks(self, n_total: int, seed_mod: int | None = None,
                   n_seeds: int | None = None) -> None:
        """Uniform init (global PageRank) or seed-restricted init+teleport
        (PERSONALIZED PageRank: mass starts on, and teleports back to, the
        seed set ``node % seed_mod == 0``). The base vector is fixed for
        the whole run, so it is precomputed here, not per superstep."""
        self.n_total = n_total
        if seed_mod is None:
            self.r = np.full(len(self.nodes), 1.0 / n_total)
            self.base = (1.0 - self.damping) / n_total
        else:
            seeded = self.nodes % seed_mod == 0
            self.r = np.where(seeded, 1.0 / n_seeds, 0.0)
            self.base = np.where(seeded, (1.0 - self.damping) / n_seeds, 0.0)

    def contribs(self) -> list:
        w = self.r[self.src_idx] / self.deg
        out = []
        for p in range(len(self.bounds) - 1):
            lo, hi = self.bounds[p], self.bounds[p + 1]
            ud, inv = np.unique(self.dst[lo:hi], return_inverse=True)
            s = np.bincount(inv, weights=w[lo:hi])
            out.append(ray.put((ud, s)))
        return out

    def apply(self, partial_refs: list) -> None:
        acc = np.zeros(len(self.nodes))
        for ref in partial_refs:
            ud, s = ray.get(ref)
            if len(ud) == 0:
                continue
            idx = np.searchsorted(self.nodes, ud)
            # symmetric-graph invariant: every dst is an owned node
            assert (idx < len(self.nodes)).all() and (self.nodes[idx] == ud).all()
            acc[idx] += s
        self.r = self.base + self.damping * acc

    def write(self, out_path: str) -> str:
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table({"node": pa.array(self.nodes),
                      "pr": pa.array(self.r)}), out_path)
        return out_path


def pagerank_bsp(
    edges: ray.data.Dataset,
    damping: float = 0.85,
    iters: int = 5,
    src: str = "src",
    dst: str = "dst",
    P: int | None = None,
    work_dir: str | None = None,
    seed_mod: int | None = None,
) -> ray.data.Dataset:
    """Edge-STATIONARY PageRank — same recurrence as :func:`pagerank`,
    including its PERSONALIZED variant (``seed_mod`` restricts init and
    teleport mass to nodes with ``node % seed_mod == 0``; the only deltas
    vs global PageRank are the two shard-local vectors precomputed in
    ``init_ranks``, so the per-superstep movement contract is unchanged),
    different movement contract: the Dataset form re-ships the edge
    table through the rank⋈edges exchange every iteration; here edges
    are hash-partitioned by ``src`` ONCE (each partition task writes its
    own parquet shard — the build's resumable-layout pattern), then a
    pool of raw Ray actors pins shard k's edges AND its rank shard for
    the whole run, and each superstep moves only pre-summed contribution
    partials (object refs routed shard→shard; the driver handles P²
    refs, never data). This is the canonical "shared mutable state the
    Dataset API can't express" case the raw-actor escape hatch exists
    for; final ranks are written shard-partitioned and returned as a
    lazy read."""
    import os
    import tempfile

    from ..index.hash_partition import hash_groupby_apply

    P = P or _bsp_width()
    work_dir = work_dir or tempfile.mkdtemp(prefix="seppray_pagerank_",
                                            dir="/tmp")
    os.makedirs(work_dir, exist_ok=True)

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src].cast(pa.int64()),
            "dst": t[dst].cast(pa.int64()),
        })

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        if len(df) == 0:
            return pd.DataFrame({"part": pd.Series([], dtype=np.int64),
                                 "path": pd.Series([], dtype=str)})
        part = int(df["_part"].iloc[0])
        d = df.drop_duplicates(["src", "dst"])
        deg = d.groupby("src")["src"].transform("size").astype(np.int64)
        path = os.path.join(work_dir, f"edges_part={part}.parquet")
        pq.write_table(pa.table({
            "src": pa.array(d["src"].to_numpy()),
            "dst": pa.array(d["dst"].to_numpy()),
            "deg": pa.array(deg.to_numpy()),
        }), path)
        return pd.DataFrame({"part": [part], "path": [path]})

    # spawn the pool FIRST: process startup overlaps the edge exchange
    # below (see _PagerankShard docstring for why this matters here)
    pool = [_PagerankShard.remote() for _ in range(P)]

    manifest = hash_groupby_apply(
        edges.map_batches(edge_rows, batch_format="pyarrow"),
        ["src"], write_shard, P=P, keep_part=True,
    ).to_pandas()  # P rows — a manifest, not data

    # shard index MUST equal partition id (contribs() addresses partials
    # by hash(dst) % P); empty partitions load as empty shards so the
    # alignment holds even when some parts produced no edges.
    part_to_path = dict(zip(manifest["part"], manifest["path"]))
    shards = pool
    ray.get([s.load.remote(part_to_path.get(k), P, damping)
             for k, s in enumerate(shards)])
    n_total = sum(ray.get([s.n_nodes.remote() for s in shards]))
    if seed_mod is None:
        n_seeds = None
    else:
        n_seeds = sum(ray.get([s.n_seed_nodes.remote(seed_mod)
                               for s in shards]))
        if n_seeds == 0:
            raise ValueError(f"no seed nodes (node % {seed_mod} == 0)")
    ray.get([s.init_ranks.remote(n_total, seed_mod, n_seeds)
             for s in shards])
    for _ in range(iters):
        # ref matrix: lists[i][j] = shard i's partial addressed to shard j
        lists = ray.get([s.contribs.remote() for s in shards])
        ray.get([
            shards[j].apply.remote([lists[i][j] for i in range(len(shards))])
            for j in range(len(shards))
        ])
    paths = ray.get([
        s.write.remote(os.path.join(work_dir, f"ranks_part={k}.parquet"))
        for k, s in enumerate(shards)
    ])
    for s in shards:
        ray.kill(s)
    return ray.data.read_parquet(paths)


def _shuffle_width_graph() -> int:
    from ..index.hash_partition import _shuffle_width

    return _shuffle_width()


def _bsp_width() -> int:
    """Default shard count for :func:`pagerank_bsp`: LONG-LIVED actors
    want fewer, bigger shards than a stateless exchange (each extra
    shard pays an actor process + a P² term in per-superstep ref
    routing) — cores/2 tracks the cluster like the shuffle width does,
    at half the actor count. Multi-node users size P explicitly.
    ``SEPPRAY_BSP_SHARDS`` overrides on hosts where actor-process
    startup is the dominant cost (this sandbox's fault path serializes
    fresh-process page faults — see BASELINE.md host notes)."""
    import os

    env = int(os.environ.get("SEPPRAY_BSP_SHARDS", "0"))
    if env > 0:
        # shards reserve num_cpus=0 (see below), so an oversized env
        # value oversubscribes the cluster with concurrent superstep
        # bursts — clamp to 4× cluster CPUs (enough to hide per-shard
        # load latency, bounded oversubscription) rather than honoring
        # an arbitrary figure
        if ray.is_initialized():
            cap = 4 * int(ray.cluster_resources().get("CPU", 8))
            return max(2, min(env, cap))
        return env
    if not ray.is_initialized():
        return 4
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # Shards reserve ZERO CPUs: the pool spawns before the edge exchange
    # (to hide actor startup) and every superstep ray.get()s on every
    # shard, so ANY reservation can deadlock the job when a long
    # session's cached actors hold the rest of the cluster — the
    # exchange's 1-CPU data tasks must always be able to schedule.
    # (An availability-aware width was tried first and still deadlocked:
    # ray.available_resources() omits zero-valued keys, and any freshly
    # reserved fraction can push the remaining CPU below the exchange's
    # task size.) Supersteps are sequential compute bursts, so on a
    # single node the OS schedules them fine unreserved; multi-node
    # users size P explicitly via SEPPRAY_BSP_SHARDS.
    return max(2, cpus // 2)


def part_pagerank_bsp(sf_dir: str, damping: float = 0.85, iters: int = 5):
    """:func:`part_pagerank`'s co-purchase graph through the
    edge-stationary BSP engine — same output contract (and the same SQL
    oracle value-gates both paths)."""
    import pyarrow.compute as pc

    from ..index.hash_partition import hash_groupby_apply
    from .relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return pd.DataFrame({
            "src": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "dst": m["l_partkey_y"].to_numpy(dtype=np.int64),
        })

    edges = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    pr = pagerank_bsp(edges, damping=damping, iters=iters)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": t["node"],
            "pagerank": pc.round(t["pr"], ndigits=10),
        })

    return pr.map_batches(fmt, batch_format="pyarrow")


def _oriented_wedges(edges: ray.data.Dataset, stats: dict | None = None):
    """Shared triangle machinery over an undirected edge Dataset
    (columns ``a`` < ``b``, distinct) — the degree-ordered
    node-iterator ("compact-forward") algorithm, fully distributed.
    Pass a dict as ``stats`` to have the SKEW GUARD numbers filled in:
    ``max_out_deg`` (the largest oriented adjacency any wedge task must
    pair-expand — bounded by O(√E) by the degree orientation REGARDLESS
    of hub degree, the degeneracy-order property) and ``n_wedges``
    (Σ C(out, 2), the exact total wedge work). At 100× scale run these
    two tiny aggregates first; if max_out_deg² is unacceptable, the
    graph's arboricity — not a hot node — is the problem, and sampling
    is the only shrink.
    Returns ``(deg, both, edges)``: the materialized node-degree and
    edge Datasets plus the union of apex-carrying wedge rows (kind 0)
    with edge rows (kind 1), keyed for the (v, w) closing co-partition:

    1. degrees: explode endpoints, one node-keyed exchange;
    2. orientation: two co-partition joins attach (deg_a, deg_b); each
       edge is oriented low→high in the total order (deg, node), which
       bounds every out-degree by O(√E) — the step that tames hot
       vertices (a celebrity node's star produces NO wedges because all
       its edges point INTO it);
    3. wedges: one exchange on the oriented source; per-source pair
       enumeration is a vectorized per-partition self-merge;
    4. closing: wedges and edges co-partition on the (v, w) pair key;
       a wedge closes iff its pair is an edge. One scalar per partition
       returns to the driver.

    Exchange traffic is edges + wedges (≤ E^1.5 worst case, tiny on
    real skewed graphs); nothing graph-sized ever reaches the driver."""
    import pyarrow.compute as pc

    def degs(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([
            t["a"].combine_chunks() if isinstance(t["a"], pa.ChunkedArray) else t["a"],
            t["b"].combine_chunks() if isinstance(t["b"], pa.ChunkedArray) else t["b"],
        ])
        vc = both.value_counts()
        return pa.table({"node": vc.field("values"),
                         "deg_part": vc.field("counts").cast(pa.int64())})

    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    # materialize both multi-consumer datasets ONCE: edges feeds the
    # degree pass, two tagged unions and count(); deg feeds the attach
    # union, count() and the clustering join — unmaterialized lineage
    # would re-run the per-order pair self-merge + pair-dedup exchange
    # (the op's most expensive stage) once per consumer
    edges = edges.materialize()
    deg = hash_groupby_sum(
        edges.map_batches(degs, batch_format="pyarrow"),
        ["node"], {"deg": ("deg_part", "sum")}).materialize()

    # tag union: edge rows keyed by endpoint a, degree rows by node
    def tag_edges(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["a"], "b": t["b"],
                         "deg": pa.array(np.zeros(len(t), np.int64)),
                         "kind": pa.array(np.ones(len(t), np.int8))})

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["node"], "b": pa.array(np.zeros(len(t), np.int64)),
                         "deg": t["deg"],
                         "kind": pa.array(np.zeros(len(t), np.int8))})

    u1 = edges.map_batches(tag_edges, batch_format="pyarrow").union(
        deg.map_batches(tag_deg, batch_format="pyarrow"))

    def attach_a(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["kind"] == 0][["k", "deg"]].rename(columns={"deg": "deg_a"})
        e = df[df["kind"] == 1][["k", "b"]]
        j = e.merge(d, on="k")
        # rekey on b for the second attach; forward degree rows
        out_e = pd.DataFrame({"k": j["b"], "b": j["k"],
                              "deg": j["deg_a"], "kind": 1})
        return pd.concat([out_e, df[df["kind"] == 0]], ignore_index=True)

    u2 = hash_groupby_apply(u1, ["k"], attach_a)

    def attach_b_orient(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["kind"] == 0][["k", "deg"]].rename(columns={"deg": "deg_k"})
        e = df[df["kind"] == 1]
        if len(e) == 0:
            return pd.DataFrame({"u": pd.Series([], dtype=np.int64),
                                 "v": pd.Series([], dtype=np.int64)})
        j = e.merge(d, on="k")
        # here k carries endpoint b (deg_k its degree), b carries a,
        # deg carries deg_a. Orient low→high by (deg, node).
        a = j["b"].to_numpy(np.int64)
        b = j["k"].to_numpy(np.int64)
        da = j["deg"].to_numpy(np.int64)
        db = j["deg_k"].to_numpy(np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        return pd.DataFrame({"u": np.where(a_first, a, b),
                             "v": np.where(a_first, b, a)})

    oriented = hash_groupby_apply(u2, ["k"], attach_b_orient)

    if stats is not None:
        # skew-guard report: two vocabulary-free aggregates over the
        # ORIENTED edges (node-sized exchange, scalars to the driver).
        # Materialize so the wedge pass below reuses the exchange.
        oriented = oriented.materialize()
        out_deg = hash_groupby_sum(
            oriented, ["u"], {"out": ("u", "size")}).materialize()
        stats["max_out_deg"] = int(out_deg.max("out") or 0)

        def wedge_partial(t: pa.Table) -> pa.Table:
            o = t["out"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"w": pa.array([int((o * (o - 1) // 2).sum())])})

        stats["n_wedges"] = int(out_deg.map_batches(
            wedge_partial, batch_format="pyarrow").sum("w") or 0)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        # enumerate each source's out-neighbor PAIRS directly (sorted
        # adjacency + two-level index arithmetic) — generates exactly
        # C(out, 2) rows per source, ~4x faster than the pandas
        # self-merge that built 2x rows and filtered half away
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        o = np.lexsort((v, u))
        u, v = u[o], v[o]
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1)) \
            if len(u) else np.zeros(1, np.int64)
        lens = np.diff(np.append(starts, len(u)))
        li = lens - 1
        tot_i = int(li.sum())
        if tot_i <= 0:
            return pd.DataFrame({"v": pd.Series([], dtype=np.int64),
                                 "w": pd.Series([], dtype=np.int64),
                                 "u": pd.Series([], dtype=np.int64),
                                 "kind": pd.Series([], dtype=np.int8)})
        # i = 0..L-2 within each run; each i pairs with L-1-i later js
        iw = np.arange(tot_i, dtype=np.int64) \
            - np.repeat(np.cumsum(li) - li, li)
        first_idx = np.repeat(starts, li) + iw
        cnts = np.repeat(lens, li) - 1 - iw
        total = int(cnts.sum())
        within = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(cnts) - cnts, cnts)
        fi = np.repeat(first_idx, cnts)
        # adjacency is v-sorted within each run, so v[fi] < v[fi+1+within]
        # — the apex u rides along so closers can attribute the triangle
        # to all three corners (clustering needs it; the census ignores it)
        return pd.DataFrame({"v": v[fi],
                             "w": v[fi + 1 + within],
                             "u": u[fi],
                             "kind": np.zeros(total, np.int8)})

    wedge_ds = hash_groupby_apply(oriented, ["u"], wedges)

    def tag_pair(t: pa.Table) -> pa.Table:
        return pa.table({"v": t["a"].cast(pa.int64()), "w": t["b"].cast(pa.int64()),
                         "u": pa.array(np.zeros(len(t), np.int64)),
                         "kind": pa.array(np.ones(len(t), np.int8))})

    both = wedge_ds.union(edges.map_batches(tag_pair, batch_format="pyarrow"))
    return deg, both, edges


def _closed_mask(df: pd.DataFrame) -> np.ndarray:
    """Boolean mask over a closing partition's WEDGE rows (kind 0):
    does the wedge's (v, w) pair exist as an edge row (kind 1)? One
    packed-u64 sort + searchsorted — no pandas join on the wedge-sized
    side. Falls back to a pandas merge if node ids exceed 32 bits."""
    kind = df["kind"].to_numpy()
    wm = kind == 0
    em = ~wm
    v = df["v"].to_numpy(np.int64)
    w = df["w"].to_numpy(np.int64)
    if not wm.any() or not em.any():
        return np.zeros(int(wm.sum()), dtype=bool)
    if max(int(v.max()), int(w.max())) < (1 << 32):
        key = (v.astype(np.uint64) << np.uint64(32)) | w.astype(np.uint64)
        ek = np.sort(key[em])
        wk = key[wm]
        pos = np.searchsorted(ek, wk)
        pos_c = np.minimum(pos, len(ek) - 1)
        return (pos < len(ek)) & (ek[pos_c] == wk)
    wdf = df.loc[wm, ["v", "w"]].reset_index(drop=True)
    edf = df.loc[em, ["v", "w"]]
    edf = edf.assign(_hit=True)
    j = wdf.merge(edf, on=["v", "w"], how="left")
    return j["_hit"].fillna(False).to_numpy(dtype=bool)


def triangle_count(edges: ray.data.Dataset,
                   report_skew: bool = False) -> dict:
    """Exact triangle census over an undirected edge Dataset — see
    :func:`_oriented_wedges` for the distributed shape.
    ``report_skew=True`` adds ``max_out_deg`` / ``n_wedges`` (the
    per-task wedge-work bound and exact total) to the returned dict —
    the pre-flight check for skewed graphs at scale; the default keys
    stay unchanged for the oracle-pinned census schema."""
    from ..index.hash_partition import hash_groupby_apply

    stats: dict | None = {} if report_skew else None
    deg, both, edges = _oriented_wedges(edges, stats=stats)

    def close(df: pd.DataFrame) -> pd.DataFrame:
        hit = _closed_mask(df)
        return pd.DataFrame({"tri_part": pd.Series([int(hit.sum())],
                                                   dtype=np.int64)})

    parts = hash_groupby_apply(both, ["v", "w"], close).to_pandas()
    n_tri = int(parts["tri_part"].sum())
    n_edges = edges.count()
    n_nodes = deg.count()
    out = {"n_nodes": n_nodes, "n_edges": n_edges, "n_triangles": n_tri}
    if stats is not None:
        out.update(stats)
    return out


def copurchase_edges(sf_dir: str) -> ray.data.Dataset:
    """Distinct undirected co-purchase edges (a < b) — one exchange on
    l_orderkey for per-order pair enumeration, one on the pair key for
    cross-order dedup."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame({
            "a": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "b": m["l_partkey_y"].to_numpy(dtype=np.int64),
        })

    pairs = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    return hash_groupby_sum(pairs, ["a", "b"], {"n": ("a", "size")}) \
        .drop_columns(["n"])


def part_triangles(sf_dir: str):
    """Triangle census of the part co-purchase graph —
    (n_nodes, n_edges, n_triangles), all exact integers."""
    stats = triangle_count(copurchase_edges(sf_dir))
    return pd.DataFrame([{k: np.int64(v) for k, v in stats.items()}])


def part_components(sf_dir: str) -> ray.data.Dataset:
    """Connected components of the part co-purchase graph — (part_key,
    component) for every part appearing in a multi-part order, component
    = the minimum reachable part key. Completes the graph family
    (PageRank, BFS, triangles, clustering) with the true FIXPOINT CC:
    :func:`connected_components`'s label propagation + pointer jumping
    (per round two hash exchanges, node-sized state in the object store,
    ONE changed-count scalar to the driver). The oracle unrolls plain
    min-merge propagation, whose required rounds grow with the graph's
    min-propagation diameter (measured: 2 at sf0.01, 3 at sf0.1; 12
    unrolled for margin — pointer jumping only accelerates, never
    changes, the fixpoint the unroll converges to)."""
    comps = connected_components(copurchase_edges(sf_dir), "a", "b")
    return comps.map_batches(
        lambda t: pa.table({"part_key": t["node"],
                            "component": t["component"]}),
        batch_format="pyarrow")


def clustering_coefficients(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-node LOCAL clustering coefficient over an undirected edge
    Dataset: cc(v) = 2·T(v) / (deg(v)·(deg(v)−1)), the fraction of a
    node's neighbor pairs that are themselves connected — the local
    density signal community detection and graph-quality pipelines cut
    on. Returns (node, degree, n_triangles, cc) for EVERY node (cc = 0
    when degree < 2), cc on the shared round6 grid.

    Scale shape: the census machinery (:func:`_oriented_wedges`) with
    per-corner attribution — each closed (u; v, w) wedge emits one
    count partial for u, v AND w from the closing partition, so the
    per-node counts ride one node-keyed exchange; a tagged-union join
    with the degree Dataset finishes with integer-exact arithmetic."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    deg, both, _edges = _oriented_wedges(edges)

    def close_nodes(df: pd.DataFrame) -> pd.DataFrame:
        hit = _closed_mask(df)
        if not hit.any():
            return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                 "t_part": pd.Series([], dtype=np.int64)})
        wm = df["kind"].to_numpy() == 0
        nodes = np.concatenate([df["u"].to_numpy(np.int64)[wm][hit],
                                df["v"].to_numpy(np.int64)[wm][hit],
                                df["w"].to_numpy(np.int64)[wm][hit]])
        un, cnt = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un, "t_part": cnt.astype(np.int64)})

    tri = hash_groupby_sum(
        hash_groupby_apply(both, ["v", "w"], close_nodes),
        ["node"], {"t": ("t_part", "sum")})

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"].cast(pa.int64()),
                         "x": t["deg"].cast(pa.int64()),
                         "kind": pa.array(np.zeros(len(t), np.int8))})

    def tag_tri(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"].cast(pa.int64()),
                         "x": t["t"].cast(pa.int64()),
                         "kind": pa.array(np.ones(len(t), np.int8))})

    u = deg.map_batches(tag_deg, batch_format="pyarrow").union(
        tri.map_batches(tag_tri, batch_format="pyarrow"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["kind"] == 0][["node", "x"]].rename(columns={"x": "degree"})
        t = df[df["kind"] == 1][["node", "x"]].rename(
            columns={"x": "n_triangles"})
        j = d.merge(t, on="node", how="left")
        j["n_triangles"] = j["n_triangles"].fillna(0).astype(np.int64)
        dv = j["degree"].to_numpy(np.int64)
        tv = j["n_triangles"].to_numpy(np.int64)
        denom = dv * (dv - 1)
        from .text_stats import round6_half_up

        cc = np.where(denom > 0, 2.0 * tv / np.maximum(denom, 1), 0.0)
        j["cc"] = round6_half_up(cc)
        return j

    return hash_groupby_apply(u, ["node"], finish)


def part_clustering(sf_dir: str) -> ray.data.Dataset:
    """Local clustering coefficient of every part in the co-purchase
    graph."""
    return clustering_coefficients(copurchase_edges(sf_dir))


def bfs_distances(
    edges: ray.data.Dataset,
    seed_mod: int,
    rounds: int,
    src: str = "src",
    dst: str = "dst",
) -> ray.data.Dataset:
    """Bounded multi-source BFS over a symmetric edge Dataset: hop
    distance from the seed set (nodes with ``node % seed_mod == 0``),
    up to ``rounds`` hops; nodes not reached within the bound emit no
    row. The level-synchronous relaxation

        d_{r+1}(v) = min(d_r(v), min_{(u,v) ∈ E} d_r(u) + 1)

    is exactly SQL-expressible unrolled, like the PageRank recurrence.

    Scale shape: edges are hash-partitioned on ``src`` once; each round
    is one reached⋈edges co-partition exchange (candidates are
    map-side-min-combined per dst before they move) plus one node-keyed
    min merge of (previous, candidate) distances — distance state is
    node-sized, object-store-resident, re-materialized per round (the
    shallow-plan lesson). The driver holds nothing data-sized."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .relational import shuffle_join

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src].cast(pa.int64()),
            "dst": t[dst].cast(pa.int64()),
        })

    def dedup_edges(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["src", "dst"])

    e = hash_groupby_apply(
        edges.map_batches(edge_rows, batch_format="pyarrow"),
        ["src"], dedup_edges,
    ).materialize()

    def seed_rows(t: pa.Table) -> pa.Table:
        u = np.unique(t["src"].to_numpy())
        u = u[u % seed_mod == 0]
        return pa.table({"node": pa.array(u, pa.int64()),
                         "dist": pa.array(np.zeros(len(u), np.int64))})

    def dedup_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", as_index=False)["dist"].min()

    dist = hash_groupby_apply(
        e.map_batches(seed_rows, batch_format="pyarrow"),
        ["node"], dedup_min,
    ).materialize()

    def cand_partial(df: pd.DataFrame) -> pd.DataFrame:
        # map-side min-combiner per dst
        g = (pd.DataFrame({"node": df["dst"].to_numpy(),
                           "dist": df["dist"].to_numpy() + 1})
             .groupby("node", as_index=False)["dist"].min())
        return g

    def as_i64(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"].cast(pa.int64()),
                         "dist": t["dist"].cast(pa.int64())})

    for _ in range(rounds):
        joined = shuffle_join(e, dist, "src", "node", ["dst"], ["dist"])
        cand = joined.map_batches(cand_partial, batch_format="pandas")
        dist = (
            hash_groupby_sum(dist.union(cand), ["node"],
                             {"dist": ("dist", "min")})
            .map_batches(as_i64, batch_format="pyarrow")  # the join's
            # null-fill floats one side's blocks; re-pin the schema
            .materialize()
        )
    return dist


def part_bfs(sf_dir: str, seed_mod: int = 31, rounds: int = 3):
    """Multi-source BFS over the part co-purchase graph: hop distance
    from the seed parts (``p_partkey % seed_mod == 0``) within
    ``rounds`` hops — the reachability/radius member of the graph
    family beside PageRank, triangles and connected components. Runs
    the edge-stationary :func:`bfs_bsp` (the Dataset-form
    :func:`bfs_distances` computes the same relaxation but re-ships the
    edge table every round — 50 s vs ~7 s at sf0.1)."""
    from .relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return pd.DataFrame({
            "src": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "dst": m["l_partkey_y"].to_numpy(dtype=np.int64),
        })

    edges = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    return bfs_bsp(edges, seed_mod, rounds)


@ray.remote(num_cpus=0)
class _BfsShard:
    """One hash partition of the edge table + its distance shard, pinned
    in an actor for the whole BFS run — the :class:`_PagerankShard`
    movement contract applied to reachability: edges never move after
    load; each superstep ships only the frontier's out-neighbor node
    ids, pre-deduplicated per destination shard (node-sized and
    SHRINKING as the wavefront saturates, vs the Dataset form's
    edge-table reshuffle every round — measured 50 s → BSP ~edge-build
    cost at sf0.1)."""

    def __init__(self):
        pass

    def load(self, path: str | None, P: int) -> None:
        import pyarrow.parquet as pq

        if path is None:
            t = pa.table({"src": pa.array([], pa.int64()),
                          "dst": pa.array([], pa.int64())})
        else:
            t = pq.read_table(path, columns=["src", "dst"])
        src = t["src"].to_numpy().astype(np.int64)
        dst = t["dst"].to_numpy().astype(np.int64)
        self.nodes = np.unique(src)
        part = _node_part(dst, P)
        order = np.lexsort((dst, src, part))
        self.src_idx = np.searchsorted(self.nodes, src[order])
        self.dst = dst[order]
        self.bounds = np.searchsorted(part[order], np.arange(P + 1))
        self.P = P

    def init(self, seed_mod: int) -> None:
        self.dist = np.where(self.nodes % seed_mod == 0, 0, -1).astype(np.int64)
        self.frontier = np.flatnonzero(self.dist == 0)

    def frontier_size(self) -> int:
        return int(len(self.frontier))

    def neighbors(self) -> list:
        """Per-destination-shard UNIQUE out-neighbors of the frontier."""
        on = np.zeros(len(self.nodes), dtype=bool)
        on[self.frontier] = True
        sel = on[self.src_idx]
        out = []
        for p in range(self.P):
            lo, hi = self.bounds[p], self.bounds[p + 1]
            out.append(ray.put(np.unique(self.dst[lo:hi][sel[lo:hi]])))
        return out

    def apply(self, refs: list, new_dist: int) -> None:
        cands = [ray.get(r) for r in refs]
        cand = np.unique(np.concatenate(cands)) if cands else np.empty(0, np.int64)
        idx = np.searchsorted(self.nodes, cand)
        ok = (idx < len(self.nodes))
        ok[ok] &= self.nodes[idx[ok]] == cand[ok]
        idx = idx[ok]
        newly = idx[self.dist[idx] < 0]
        self.dist[newly] = new_dist
        self.frontier = newly

    def write(self, out_path: str) -> str:
        import pyarrow.parquet as pq

        reached = self.dist >= 0
        pq.write_table(
            pa.table({"node": pa.array(self.nodes[reached]),
                      "dist": pa.array(self.dist[reached])}), out_path)
        return out_path


def bfs_bsp(
    edges: ray.data.Dataset,
    seed_mod: int,
    rounds: int,
    src: str = "src",
    dst: str = "dst",
    P: int | None = None,
    work_dir: str | None = None,
) -> ray.data.Dataset:
    """Edge-stationary bounded multi-source BFS — same relaxation as
    :func:`bfs_distances`, :func:`pagerank_bsp`'s movement contract
    (edges hash-partitioned to parquet shards once, a pinned actor
    pool, per-superstep traffic = frontier neighbor ids only). Ends
    early when every shard's frontier is empty."""
    import os
    import tempfile

    from ..index.hash_partition import hash_groupby_apply

    P = P or _bsp_width()
    work_dir = work_dir or tempfile.mkdtemp(prefix="seppray_bfs_", dir="/tmp")
    os.makedirs(work_dir, exist_ok=True)

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src].cast(pa.int64()),
            "dst": t[dst].cast(pa.int64()),
        })

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        if len(df) == 0:
            return pd.DataFrame({"part": pd.Series([], dtype=np.int64),
                                 "path": pd.Series([], dtype=str)})
        part = int(df["_part"].iloc[0])
        d = df.drop_duplicates(["src", "dst"])
        path = os.path.join(work_dir, f"edges_part={part}.parquet")
        pq.write_table(pa.table({
            "src": pa.array(d["src"].to_numpy()),
            "dst": pa.array(d["dst"].to_numpy()),
        }), path)
        return pd.DataFrame({"part": [part], "path": [path]})

    pool = [_BfsShard.remote() for _ in range(P)]  # startup hides under
    manifest = hash_groupby_apply(                 # the edge exchange
        edges.map_batches(edge_rows, batch_format="pyarrow"),
        ["src"], write_shard, P=P, keep_part=True,
    ).to_pandas()  # P rows — a manifest, not data
    part_to_path = dict(zip(manifest["part"], manifest["path"]))
    ray.get([s.load.remote(part_to_path.get(k), P)
             for k, s in enumerate(pool)])
    ray.get([s.init.remote(seed_mod) for s in pool])
    for r in range(rounds):
        if sum(ray.get([s.frontier_size.remote() for s in pool])) == 0:
            break
        lists = ray.get([s.neighbors.remote() for s in pool])
        ray.get([s.apply.remote([lists[i][j] for i in range(P)], r + 1)
                 for j, s in enumerate(pool)])
    paths = ray.get([
        s.write.remote(os.path.join(work_dir, f"dist_part={k}.parquet"))
        for k, s in enumerate(pool)
    ])
    for s in pool:
        ray.kill(s)
    return ray.data.read_parquet(paths)


def part_recommendations(sf_dir: str, k: int = 5, min_co: int = 2):
    """ITEM-ITEM collaborative filtering over the co-purchase data
    ("customers who bought X also bought Y"): for every part, the top-k
    other parts ranked by cosine similarity of their binary
    order-incidence vectors — co(a,b) / √(n_a·n_b), where co counts
    distinct orders containing both and n_p counts distinct orders
    containing p. Returns (part_key, rec_part, rank, score), rank ties
    on the shared 6 dp rounded score → rec_part ASC (all inputs are the
    same exact integers on both engines, so even the unrounded doubles
    agree; the grid is belt-and-braces).

    Scale shape (4 exchanges, all bounded): one orderkey exchange emits
    per-order distinct pairs a<b (quadratic per ORDER, bounded by order
    size — the pagerank edge build's argument) with map-side combining;
    one (a,b) exchange sums co and applies the ``min_co`` support cut
    BEFORE any attach traffic; per-part incidence counts flow through a
    part-keyed exchange; the directed expansion then attaches n_dst
    (tagged union keyed dst) and finally n_src in the same exchange that
    runs the per-src vectorized top-k kernel. Reference parity: none
    (beyond-reference; recommender surface for the LLM-pipeline
    family)."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .relational import table_ds
    from .text_stats import round6_half_up

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        # every row of an order is co-located here, so the per-order
        # dedup is EXACT — a map_batches dedup would double-count
        # (order, part) pairs that span read batches
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        g = (pd.DataFrame({"a": m["l_partkey_x"].to_numpy(np.int64),
                           "b": m["l_partkey_y"].to_numpy(np.int64)})
             .groupby(["a", "b"], as_index=False).size()
             .rename(columns={"size": "co_part"}))
        g["kind"] = np.ones(len(g), np.int8)
        # per-part incidence partials from the SAME exchange (exact
        # distinct-(order, part) counts, no second pass over the fact)
        inc = (d.groupby("l_partkey", as_index=False).size()
               .rename(columns={"l_partkey": "a", "size": "co_part"}))
        inc["b"] = np.full(len(inc), -1, np.int64)
        inc["kind"] = np.zeros(len(inc), np.int8)
        return pd.concat([g[["a", "b", "co_part", "kind"]],
                          inc[["a", "b", "co_part", "kind"]]],
                         ignore_index=True)

    tagged = hash_groupby_apply(li, ["l_orderkey"], pair_partials) \
        .materialize()  # two consumers — don't re-run the fact exchange

    co = hash_groupby_sum(
        tagged.filter(expr="kind == 1"),
        ["a", "b"], {"co": ("co_part", "sum")})

    def co_cut(t: pa.Table) -> pa.Table:
        keep = t["co"].to_numpy().astype(np.int64) >= min_co
        return t.filter(pa.array(keep))

    co = co.map_batches(co_cut, batch_format="pyarrow").materialize()

    def n_fmt(t: pa.Table) -> pa.Table:
        return pa.table({"p": t["a"].cast(pa.int64()), "np": t["np"]})

    n = hash_groupby_sum(
        tagged.filter(expr="kind == 0"),
        ["a"], {"np": ("co_part", "sum")}
    ).map_batches(n_fmt, batch_format="pyarrow").materialize()

    # directed expansion, then attach n_dst (tagged union keyed on dst)
    def directed(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        c = t["co"].to_numpy().astype(np.int64)
        return pa.table({
            "dst": pa.array(np.r_[b, a]), "src": pa.array(np.r_[a, b]),
            "co": pa.array(np.r_[c, c]),
            "n_other": pa.array(np.zeros(2 * len(t), np.int64)),
            "_side": pa.array(np.ones(2 * len(t), np.int8))})

    def n_rows_dst(t: pa.Table) -> pa.Table:
        m = len(t)
        return pa.table({
            "dst": t["p"].cast(pa.int64()),
            "src": pa.array(np.full(m, -1, np.int64)),
            "co": pa.array(np.zeros(m, np.int64)),
            "n_other": t["np"].cast(pa.int64()),
            "_side": pa.array(np.zeros(m, np.int8))})

    def attach_dst(df: pd.DataFrame) -> pd.DataFrame:
        nn = df[df["_side"] == 0][["dst", "n_other"]].rename(
            columns={"n_other": "n_dst"})
        e = df[df["_side"] == 1][["src", "dst", "co"]]
        return e.merge(nn, on="dst")

    with_nd = hash_groupby_apply(
        co.map_batches(directed, batch_format="pyarrow").union(
            n.map_batches(n_rows_dst, batch_format="pyarrow")),
        ["dst"], attach_dst)

    # attach n_src + per-src top-k in one src-keyed exchange
    def e_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["src"], "dst": t["dst"], "co": t["co"],
            "n_dst": t["n_dst"],
            "n_other": pa.array(np.zeros(len(t), np.int64)),
            "_side": pa.array(np.ones(len(t), np.int8))})

    def n_rows_src(t: pa.Table) -> pa.Table:
        m = len(t)
        return pa.table({
            "src": t["p"].cast(pa.int64()),
            "dst": pa.array(np.full(m, -1, np.int64)),
            "co": pa.array(np.zeros(m, np.int64)),
            "n_dst": pa.array(np.zeros(m, np.int64)),
            "n_other": t["np"].cast(pa.int64()),
            "_side": pa.array(np.zeros(m, np.int8))})

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        nn = df[df["_side"] == 0][["src", "n_other"]].rename(
            columns={"n_other": "n_src"})
        e = df[df["_side"] == 1][["src", "dst", "co", "n_dst"]]
        j = e.merge(nn, on="src")
        if len(j) == 0:
            return pd.DataFrame({
                "part_key": pd.Series([], dtype=np.int64),
                "rec_part": pd.Series([], dtype=np.int64),
                "rank": pd.Series([], dtype=np.int64),
                "score": pd.Series([], dtype=np.float64)})
        score = round6_half_up(
            j["co"].to_numpy(np.int64)
            / np.sqrt(j["n_src"].to_numpy(np.int64)
                      * j["n_dst"].to_numpy(np.int64)))
        j = j.assign(score=score).sort_values(
            ["src", "score", "dst"], ascending=[True, False, True],
            kind="mergesort")
        r = j.groupby("src").cumcount().to_numpy()
        keep = r < k
        out = j.iloc[keep].copy()
        out["rank"] = (r[keep] + 1).astype(np.int64)
        return pd.DataFrame({
            "part_key": out["src"].to_numpy(np.int64),
            "rec_part": out["dst"].to_numpy(np.int64),
            "rank": out["rank"].to_numpy(np.int64),
            "score": out["score"].to_numpy(np.float64)})

    return hash_groupby_apply(
        with_nd.map_batches(e_rows, batch_format="pyarrow").union(
            n.map_batches(n_rows_src, batch_format="pyarrow")),
        ["src"], topk)
