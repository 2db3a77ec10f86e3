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

The dedup family labels its near-dup pair graphs with it
(``dedup.dup_components``): a dup-heavy crawl corpus can produce pair
sets larger than any single machine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .hash_partition import hash_groupby_apply

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
