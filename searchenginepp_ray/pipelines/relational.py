"""Relational operators over the TPC-H-style side tables (orders,
customer, nation, lineitem) — the general data-processing surface a
training-data engine needs next to its text pipelines: a distributed
hash equi-join, a broadcast dimension join, and a map-side-combined
group aggregate (the TPC-H Q1 shape).

Scale shapes:

* :func:`shuffle_join` ships each side's payload through ONE
  hash-partition exchange on the join key (every key's rows co-locate in
  exactly one partition); the per-partition merge is vectorized pandas.
  Right for two data-scaling sides.
* Dimension tables (nation: 25 rows) are broadcast once via ``ray.put``
  and mapped inside ``map_batches`` — never shuffled.
* :func:`pricing_summary` pre-aggregates per batch (map-side combiner),
  so the exchange carries one row per (flag, status) per batch, not one
  per lineitem.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .text_stats import _read_blocks


def _cents_arrow(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """floor(x·100 + 0.5) as int64 — the shared cents snap, in Arrow
    kernels (bit-identical to the numpy twin: same IEEE float64 ops)."""
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)),
                   pa.int64())


def _rev4_arrow(price, discount) -> pa.Array:
    """Exact 1e-4-unit revenue ``price_c·(100 − disc_c)`` in Arrow."""
    p = _cents_arrow(price)
    d = _cents_arrow(discount)
    return pc.multiply(p, pc.subtract(pa.scalar(100, pa.int64()), d))


def table_ds(sf_dir: str, name: str, columns: list[str]) -> ray.data.Dataset:
    path = f"{sf_dir}/{name}.parquet"
    return ray.data.read_parquet(
        path, columns=columns,
        override_num_blocks=_read_blocks(path, target_rows=20_000),
    )


def shuffle_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    left_cols: list[str],
    right_cols: list[str],
) -> ray.data.Dataset:
    """Distributed inner equi-join: tag each side, union, hash-partition
    on the key, merge per partition with vectorized pandas. Output
    columns: ``[left_key] + left_cols + right_cols``.

    Payload columns must be distinct between the sides; each side's
    payload crosses the exchange exactly once (the unavoidable cost of
    co-locating rows by key). This is the J-family generalized beyond the
    search engine's term/docid joins (reference joins: SURVEY §2 J1-J4).

    Ray 2.49's native ``Dataset.join`` was evaluated (round 4): 1.4-1.5 s
    for a 100k×100k inner join at 8 CPUs vs 0.8-1.3 s here, and it runs
    on the hash-shuffle aggregator-actor machinery that wedges on this
    host (the HASH_SHUFFLE strategy probe — BASELINE host notes), so the
    tagged-union exchange stays."""
    from ..index.hash_partition import hash_groupby_apply

    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"payload columns must be distinct: {overlap}")
    # the union needs one schema: pad each side's missing payload columns
    # with TYPED nulls taken from the other side's schema
    def _pa_type(t) -> pa.DataType:
        # pandas-block datasets report numpy dtypes / Python classes
        if isinstance(t, pa.DataType):
            return t
        if t is object or t == np.dtype("O"):
            return pa.string()
        return pa.from_numpy_dtype(np.dtype(t))

    lsch, rsch = left.schema(), right.schema()
    types = dict(zip(lsch.names, lsch.types))
    types.update(dict(zip(rsch.names, rsch.types)))
    types = {c: _pa_type(types[c]) for c in [*left_cols, *right_cols]}

    def tag(key: str, cols: list[str], side: int):
        have = set(cols)

        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            k = t[key]
            # unify integer key widths across the two sides; leave
            # string/binary keys alone (hash_groupby_apply hashes both)
            if pa.types.is_integer(k.type):
                k = k.cast(pa.int64())
            out = {"_k": k,
                   "_side": pa.array(np.full(n, side, np.int8))}
            # canonical payload order on both sides so the union's block
            # schemas agree (missing columns padded with TYPED nulls)
            for c in types:
                out[c] = t[c] if c in have else pa.nulls(n, type=types[c])
            return pa.table(out)

        return fn

    u = left.map_batches(
        tag(left_key, left_cols, 0), batch_format="pyarrow"
    ).union(
        right.map_batches(tag(right_key, right_cols, 1), batch_format="pyarrow")
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["_side"] == 0, ["_k"] + left_cols]
        r = df.loc[df["_side"] == 1, ["_k"] + right_cols]
        j = l.merge(r, on="_k")
        return j.rename(columns={"_k": left_key})

    return hash_groupby_apply(u, ["_k"], merge)


def nation_revenue(sf_dir: str):
    """Total order revenue and order count per customer nation:
    orders ⋈ customer via :func:`shuffle_join` (both sides data-scaling),
    nation names attached from a ``ray.put`` broadcast (25-row dimension
    table — never shuffled), then a small per-nation aggregate."""
    import pyarrow.parquet as pq

    from .agg import hash_groupby_sum

    orders = table_ds(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = table_ds(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = shuffle_join(
        orders, cust, "o_custkey", "c_custkey",
        ["o_totalprice"], ["c_nationkey"],
    )

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    # dense-key dimension lookup: names indexed by nationkey
    keys = nation["n_nationkey"].to_numpy()
    names = np.empty(int(keys.max()) + 1, dtype=object)
    names[keys] = nation["n_name"].to_pylist()
    names_ref = ray.put(names)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(names_ref)
        # map-side combiner: pre-aggregate per nation before the final
        # tiny exchange (nationkey may arrive float64 after the padded
        # union's pandas roundtrip — cast back)
        g = df.groupby("c_nationkey", as_index=False).agg(
            rev_part=("o_totalprice", "sum"),
            n_part=("o_totalprice", "count"),
        )
        g["n_name"] = lut[g["c_nationkey"].to_numpy().astype(np.int64)]
        return g[["n_name", "rev_part", "n_part"]]

    partials = joined.map_batches(attach, batch_format="pandas")

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"n_name": t["n_name"],
             "revenue": pc.round(t["revenue"], 2),
             "n_orders": t["n_orders"]}
        )

    return hash_groupby_sum(
        partials, ["n_name"],
        {"revenue": ("rev_part", "sum"), "n_orders": ("n_part", "sum")},
    ).map_batches(finish, batch_format="pyarrow")


def pricing_summary(sf_dir: str, cutoff: str = "2000-12-01"):
    """TPC-H Q1-shaped pricing summary over lineitem: filter at the read,
    pre-aggregate sums/counts per batch (map-side combiner — the exchange
    carries one row per (returnflag, linestatus) per batch), final
    aggregate + averages over the 4-group key space."""
    from .agg import hash_groupby_sum

    keys = ["l_returnflag", "l_linestatus"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            disc_price=df["l_extendedprice"] * (1 - df["l_discount"]),
            charge=df["l_extendedprice"] * (1 - df["l_discount"])
            * (1 + df["l_tax"]),
        )
        g = df.groupby(keys, as_index=False).agg(
            qty_part=("l_quantity", "sum"),
            base_part=("l_extendedprice", "sum"),
            disc_price_part=("disc_price", "sum"),
            charge_part=("charge", "sum"),
            disc_part=("l_discount", "sum"),
            n_part=("l_quantity", "count"),
        )
        return g

    # shipdate predicate pushed to the parquet scan: row groups outside
    # the cutoff are pruned and filtered rows never enter the pipeline
    # (l_shipdate itself is then not needed downstream)
    import pyarrow.dataset as pads

    from .text_stats import _read_blocks

    path = f"{sf_dir}/lineitem.parquet"
    partials = ray.data.read_parquet(
        path,
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
        filter=pads.field("l_shipdate")
        <= pa.scalar(pd.Timestamp(cutoff), pa.timestamp("us")),
        override_num_blocks=_read_blocks(path, target_rows=20_000),
    ).map_batches(partial, batch_format="pandas")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["count_order"]
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["sum_qty"].round(2),
                "sum_base_price": df["sum_base_price"].round(2),
                "sum_disc_price": df["sum_disc_price"].round(2),
                "sum_charge": df["sum_charge"].round(2),
                "avg_qty": (df["sum_qty"] / n).round(6),
                "avg_price": (df["sum_base_price"] / n).round(6),
                "avg_disc": (df["sum_disc"] / n).round(6),
                "count_order": n,
            }
        )

    return hash_groupby_sum(
        partials, keys,
        {"sum_qty": ("qty_part", "sum"),
         "sum_base_price": ("base_part", "sum"),
         "sum_disc_price": ("disc_price_part", "sum"),
         "sum_charge": ("charge_part", "sum"),
         "sum_disc": ("disc_part", "sum"),
         "count_order": ("n_part", "sum")},
    ).map_batches(finish, batch_format="pandas")


def shuffle_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    left_cols: list[str],
    anti: bool = False,
) -> ray.data.Dataset:
    """Distributed semi-join (``anti=False``: keep left rows whose key
    appears on the right) / anti-join (``anti=True``: keep left rows
    whose key does NOT). Only the right side's KEY column crosses the
    exchange — deduplicated map-side per batch first — so the shuffled
    payload is left rows + right distinct keys, never right payloads.
    Output columns: ``[left_key] + left_cols``."""
    from ..index.hash_partition import hash_groupby_apply

    def tag_left(t: pa.Table) -> pa.Table:
        k = t[left_key]
        if pa.types.is_integer(k.type):
            k = k.cast(pa.int64())
        out = {"_k": k, "_side": pa.array(np.zeros(len(t), np.int8))}
        for c in left_cols:
            out[c] = t[c]
        return pa.table(out)

    def tag_right(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = t[right_key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if pa.types.is_integer(k.type):
            k = k.cast(pa.int64())
        k = pc.unique(k)  # map-side dedup: keys only cross the exchange
        out = {"_k": k, "_side": pa.array(np.ones(len(k), np.int8))}
        lsch = dict(zip(left.schema().names, left.schema().types))
        for c in left_cols:
            typ = lsch[c]
            out[c] = pa.nulls(len(k), type=typ if isinstance(typ, pa.DataType)
                              else pa.from_numpy_dtype(np.dtype(typ)))
        return pa.table(out)

    u = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["_side"] == 0]
        rkeys = df.loc[df["_side"] == 1, "_k"].unique()
        m = l["_k"].isin(rkeys)
        out = l.loc[~m if anti else m, ["_k"] + left_cols]
        return out.rename(columns={"_k": left_key})

    return hash_groupby_apply(u, ["_k"], filt)


def customers_without_orders(sf_dir: str, priority: str = "1-URGENT"):
    """Anti-join: customers that never placed a ``priority`` order.
    Orders are filtered at the read and contribute only their
    (deduplicated) custkey column to the exchange."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from .text_stats import _read_blocks

    cust = table_ds(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_custkey"],
        filter=pads.field("o_orderpriority") == priority,
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )
    return shuffle_semi_join(
        cust, orders, "c_custkey", "o_custkey",
        ["c_name", "c_acctbal"], anti=True,
    )


def customer_order_counts(sf_dir: str):
    """LEFT OUTER aggregate join: every customer with its order count and
    total spend (0 / 0.0 for customers with no orders). The fact side is
    pre-aggregated map-side to one row per custkey per batch, so the
    exchange carries customer rows + order PARTIALS, never raw orders."""
    from ..index.hash_partition import hash_groupby_apply

    cust = table_ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = table_ds(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cust_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "_k": t["c_custkey"].cast(pa.int64()),
            "c_mktsegment": t["c_mktsegment"],
            "n_part": pa.array(np.zeros(len(t), np.int64)),
            "spend_part": pa.array(np.zeros(len(t), np.float64)),
            "_side": pa.array(np.zeros(len(t), np.int8)),
        })

    def order_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).agg(
            n_part=("o_totalprice", "count"),
            spend_part=("o_totalprice", "sum"),
        )
        return pd.DataFrame({
            "_k": g["o_custkey"].astype(np.int64),
            "c_mktsegment": pd.array([None] * len(g), dtype="string"),
            "n_part": g["n_part"].astype(np.int64),
            "spend_part": g["spend_part"],
            "_side": np.ones(len(g), np.int8),
        })

    u = cust.map_batches(cust_rows, batch_format="pyarrow").union(
        orders.map_batches(order_partials, batch_format="pandas")
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["_side"] == 0]
        o = df[df["_side"] == 1].groupby("_k", as_index=False).agg(
            n_orders=("n_part", "sum"), total_spent=("spend_part", "sum")
        )
        j = c[["_k", "c_mktsegment"]].merge(o, on="_k", how="left")
        j["n_orders"] = j["n_orders"].fillna(0).astype(np.int64)
        j["total_spent"] = j["total_spent"].fillna(0.0).round(2)
        return j.rename(columns={"_k": "c_custkey"})

    return hash_groupby_apply(u, ["_k"], merge)


def order_rollup(sf_dir: str):
    """GROUP BY ROLLUP (o_orderpriority, o_orderstatus) over orders —
    the OLAP rollup corner of the relational surface. Measures are
    EXACT integer cents (``floor(x*100 + 0.5)``, same expression as the
    oracle), so every level's sum is summation-order-independent and
    the value check is exact.

    Scale shape: one map-side-combined exchange produces the FINEST
    level (key space = |priority| x |status|, independent of row
    count); the coarser levels are derived from that tiny aggregate —
    rollup of algebraic measures (sum/count) never re-touches the fact
    table."""
    import numpy as np
    import pandas as pd

    from .agg import hash_groupby_sum

    keys = ["o_orderpriority", "o_orderstatus"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = df.assign(cents=cents).groupby(keys, as_index=False).agg(
            cents_part=("cents", "sum"), n_part=("cents", "count"))
        return g

    base = hash_groupby_sum(
        table_ds(sf_dir, "orders", keys + ["o_totalprice"])
        .map_batches(partial, batch_format="pandas"),
        keys,
        {"total_cents": ("cents_part", "sum"), "n_orders": ("n_part", "sum")},
    ).to_pandas()  # <= |priority| x |status| rows — a cube, not data

    lvl1 = base.groupby("o_orderpriority", as_index=False).agg(
        total_cents=("total_cents", "sum"), n_orders=("n_orders", "sum"))
    lvl1["o_orderstatus"] = None
    lvl0 = pd.DataFrame({
        "o_orderpriority": [None], "o_orderstatus": [None],
        "total_cents": [base["total_cents"].sum()],
        "n_orders": [base["n_orders"].sum()],
    })
    out = pd.concat([base, lvl1, lvl0], ignore_index=True)
    out["total_cents"] = out["total_cents"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out[["o_orderpriority", "o_orderstatus", "total_cents", "n_orders"]]


def top_orders_by_revenue(sf_dir: str, k: int = 10):
    """Global top-``k`` orders by lineitem revenue — the grouped-agg →
    GLOBAL top-k composition (TPC-H Q3's shape without its filters).

    Revenue is carried as EXACT integers in 1e-4 currency units:
    ``cents(extendedprice) × (100 − cents(discount))`` — both factors are
    exact under the shared floor(x*100+0.5) rule, so ranking has no float
    hazard and ties break on o_orderkey ASC identically in both engines.

    Scale shape: per-batch map-side partials (one vectorized groupby per
    batch), ONE hash exchange on l_orderkey for exact totals, a per-
    partition partial top-k (each partition emits ≤ k rows), and a
    driver-side merge of the P×k survivors (bounded by the shuffle
    width, not the data)."""
    import pandas as pd

    from ..index.hash_partition import hash_groupby_apply

    li = table_ds(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "o_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "rev_part": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["o_orderkey"]).aggregate([("rev_part", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "rev_part": g["rev_part_sum"]})

    def partition_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False)["rev_part"].sum()
        g = g.sort_values(["rev_part", "o_orderkey"],
                          ascending=[False, True]).head(k)
        return g.rename(columns={"rev_part": "rev_e4"})

    survivors = hash_groupby_apply(
        li.map_batches(partial, batch_format="pyarrow"),
        ["o_orderkey"], partition_topk,
    ).to_pandas()  # <= P*k rows

    out = survivors.sort_values(["rev_e4", "o_orderkey"],
                                ascending=[False, True]).head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["revenue"] = out.pop("rev_e4").to_numpy() / 10000.0
    return out[["o_orderkey", "rank", "revenue"]].reset_index(drop=True)


def order_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                            cutoff: str = "1998-07-01", k: int = 10):
    """TPC-H Q3 (shipping priority), the CHAINED multi-join: customers in
    ``segment`` ⋈ orders placed before ``cutoff`` ⋈ lineitems shipped
    after ``cutoff``, revenue per order, global top-``k`` by revenue
    (ties → o_orderkey ASC). Two different join keys back-to-back is the
    shape single-exchange ops can't express: the engine must re-partition
    between hops.

    Scale shape: all three filters are pushed into the parquet scans
    (row-group pruning; filtered rows never enter the pipeline). Hop 1 is
    a SEMI-join — only deduplicated custkeys of the segment's customers
    cross the exchange (:func:`shuffle_semi_join`), never customer
    payloads. Hop 2 pre-aggregates lineitem revenue per orderkey map-side
    (one vectorized groupby per batch), then ONE hash exchange on
    orderkey co-locates surviving orders with their revenue partials; an
    inner merge keeps orders with at least one qualifying lineitem.
    Revenue is EXACT integer 1e-4 currency units (cents(price) ×
    (100−cents(discount)), both factors exact under the shared
    floor(x*100+0.5) rule), so ranking and the oracle comparison carry no
    float hazard. The global top-k is a per-partition partial top-k → a
    ≤ P×k driver merge (bounded by the shuffle width, not the data)."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    cut = pa.scalar(pd.Timestamp(cutoff), pa.timestamp("us"))

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        filter=pads.field("c_mktsegment") == segment,
    )
    path = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        path, columns=["o_orderkey", "o_custkey", "o_orderdate",
                       "o_orderpriority"],
        filter=pads.field("o_orderdate") < cut,
        override_num_blocks=_read_blocks(path, target_rows=20_000),
    )
    # hop 1: orders of the segment's customers (keys-only exchange)
    orders = shuffle_semi_join(
        orders, cust, "o_custkey", "c_custkey",
        ["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > cut,
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    # hop 2 inputs, tagged into one stream: order rows (side 0) + map-side
    # revenue partials per orderkey (side 1)
    def order_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "_k": t["o_orderkey"].cast(pa.int64()),
            "o_orderdate": t["o_orderdate"],
            "o_orderpriority": t["o_orderpriority"],
            "rev_part": pa.array(np.zeros(len(t), np.int64)),
            "_side": pa.array(np.zeros(len(t), np.int8)),
        })

    def rev_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (the lineitem-scale side of the union)
        g = pa.table({
            "_k": pc.cast(t["l_orderkey"], pa.int64()),
            "rev_part": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["_k"]).aggregate([("rev_part", "sum")])
        n = len(g)
        return pa.table({
            "_k": g["_k"],
            "o_orderdate": pa.nulls(n, pa.timestamp("us")),
            "o_orderpriority": pa.nulls(n, pa.string()),
            "rev_part": g["rev_part_sum"],
            "_side": pa.array(np.ones(n, np.int8)),
        })

    u = orders.map_batches(order_rows, batch_format="pyarrow").union(
        li.map_batches(rev_partials, batch_format="pyarrow"))

    def partition_topk(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0]
        r = df[df["_side"] == 1].groupby("_k", as_index=False)["rev_part"].sum()
        j = o[["_k", "o_orderdate", "o_orderpriority"]].merge(r, on="_k")
        j = j.sort_values(["rev_part", "_k"], ascending=[False, True]).head(k)
        return j.rename(columns={"_k": "o_orderkey", "rev_part": "rev_e4"})

    survivors = hash_groupby_apply(u, ["_k"], partition_topk).to_pandas()
    if len(survivors) == 0:
        return pd.DataFrame({
            "o_orderkey": pd.Series([], dtype=np.int64),
            "rank": pd.Series([], dtype=np.int64),
            "revenue": pd.Series([], dtype=np.float64),
            "o_orderdate_us": pd.Series([], dtype=np.int64),
            "o_orderpriority": pd.Series([], dtype=object)})

    out = survivors.sort_values(["rev_e4", "o_orderkey"],
                                ascending=[False, True]).head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["revenue"] = out.pop("rev_e4").to_numpy() / 10000.0
    out["o_orderdate_us"] = out.pop("o_orderdate").astype("int64")
    return out[["o_orderkey", "rank", "revenue", "o_orderdate_us",
                "o_orderpriority"]].reset_index(drop=True)


#: profiled lineitem columns by kind: dense ints, 2-dp decimals (exact
#: cents grid), strings, timestamps (epoch µs)
_PROFILE_INT = ("l_orderkey", "l_partkey", "l_suppkey", "l_linenumber")
_PROFILE_DEC = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")
_PROFILE_STR = ("l_returnflag", "l_linestatus")
_PROFILE_TS = ("l_shipdate",)


def table_profile(sf_dir: str):
    """Data profiling over ``lineitem`` — the schema-quality pass a
    training/ETL pipeline runs before trusting a new table: per column
    EXACT distinct count, null count, min/max, and (for the 2-dp decimal
    columns) the mean in exact integer cents. One wide row out.

    Scale shape: min/max/null/sum reduce through per-batch PARTIALS (one
    tiny row per column per batch; the driver-side merge is bounded by
    n_batches × n_columns, not data). Distinct counts — the only
    data-sized part — ride ONE hash exchange shared by ALL columns:
    every batch emits its per-column distinct values as (colid, key64)
    pairs (map-side dedup), the exchange partitions on BOTH fields (a
    low-cardinality column never hot-keys a single reducer), each
    partition counts its now-globally-unique pairs, and a tiny per-colid
    sum finishes. key64 is the value itself for ints/timestamps and the
    exact cents grid for decimals (collision-free by construction);
    strings use the 64-bit content hash — the same no-collision stance
    as the dedup family, pinned here by the exact SQL oracle."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from ..index.hash_partition import _hash_strings

    all_cols = [*_PROFILE_INT, *_PROFILE_DEC, *_PROFILE_STR, *_PROFILE_TS]
    colid = {c: i for i, c in enumerate(all_cols)}
    ds = table_ds(sf_dir, "lineitem", all_cols)

    def _key64(t: pa.Table, c: str) -> np.ndarray:
        """Non-null values of column ``c`` on their exact 64-bit key grid
        (SQL's DISTINCT/MIN/MAX/SUM all ignore NULLs — so does this)."""
        col = t[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.drop_null()
        if c in _PROFILE_STR:
            return _hash_strings(col).astype(np.int64, copy=False)
        if c in _PROFILE_DEC:
            v = col.to_numpy(zero_copy_only=False)
            return np.floor(v * 100 + 0.5).astype(np.int64)
        # ints / timestamps: the value IS the key
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def ndv_pairs(t: pa.Table) -> pa.Table:
        cids, keys = [], []
        for c in all_cols:
            u = np.unique(_key64(t, c))  # map-side dedup per batch
            cids.append(np.full(len(u), colid[c], np.int32))
            keys.append(u)
        return pa.table({"cid": pa.array(np.concatenate(cids)),
                         "key64": pa.array(np.concatenate(keys))})

    def part_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["cid", "key64"])
        g = d.groupby("cid", as_index=False).agg(n_part=("key64", "size"))
        g["n_part"] = g["n_part"].astype(np.int64)
        return g

    ndv = hash_groupby_sum(
        hash_groupby_apply(
            ds.map_batches(ndv_pairs, batch_format="pyarrow"),
            ["cid", "key64"], part_count),
        ["cid"], {"ndv": ("n_part", "sum")},
    ).to_pandas()  # one row per profiled column

    def partials(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        row: dict[str, object] = {"n_rows": len(t)}
        for c in all_cols:
            col = t[c]
            row[f"{c}_nulls"] = int(col.null_count)
            if c in _PROFILE_STR:
                v = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                row[f"{c}_min"] = pc.min(v).as_py()   # None on all-null
                row[f"{c}_max"] = pc.max(v).as_py()
            else:
                k = _key64(t, c)
                # NaN partial on an all-null batch: skipped by the
                # skipna reduce below (int64 keys fit float64 exactly
                # here — epoch-µs/cents magnitudes are well under 2^53)
                row[f"{c}_min"] = float(k.min()) if len(k) else np.nan
                row[f"{c}_max"] = float(k.max()) if len(k) else np.nan
                if c in _PROFILE_DEC:
                    row[f"{c}_cents"] = int(k.sum()) if len(k) else 0
        return pd.DataFrame([row])

    # bounded collect: one tiny partial row per batch
    p = ds.map_batches(partials, batch_format="pyarrow").to_pandas()

    out: dict[str, object] = {"n_rows": np.int64(p["n_rows"].sum())}
    for c in all_cols:
        out[f"{c}_ndv"] = np.int64(ndv.loc[ndv["cid"] == colid[c], "ndv"].iloc[0])
        nulls = np.int64(p[f"{c}_nulls"].sum())
        out[f"{c}_nulls"] = nulls
        n_valid = float(out["n_rows"] - nulls)
        if c in _PROFILE_STR:
            out[f"{c}_min"] = p[f"{c}_min"].dropna().min()
            out[f"{c}_max"] = p[f"{c}_max"].dropna().max()
        elif c in _PROFILE_DEC:
            # min/max back on the value grid (exact: cents / 100)
            out[f"{c}_min"] = p[f"{c}_min"].min() / 100.0
            out[f"{c}_max"] = p[f"{c}_max"].max() / 100.0
            out[f"{c}_mean"] = np.floor(
                p[f"{c}_cents"].sum() / (100.0 * n_valid) * 1e6 + 0.5) / 1e6
        else:
            out[f"{c}_min"] = np.int64(p[f"{c}_min"].min())
            out[f"{c}_max"] = np.int64(p[f"{c}_max"].max())
    return pd.DataFrame([out])


def local_supplier_volume(sf_dir: str, region: str = "ASIA",
                          date_from: str = "1996-01-01",
                          date_to: str = "1997-01-01"):
    """TPC-H Q5 (local supplier volume): revenue per nation of ``region``
    from orders placed in ``[date_from, date_to)`` where the lineitem's
    supplier sits in the SAME nation as the ordering customer — the
    deepest join chain in the suite (customer ⋈ orders ⋈ lineitem ⋈
    supplier ⋈ nation ⋈ region), three DIFFERENT join keys back-to-back.

    Scale shape: nation⋈region resolves driver-side (≤25 rows) into a
    broadcast nationkey→name lut; the region membership filter is pushed
    into the customer and supplier SCANS (``isin`` on the pruned
    nationkey column), the date range into the orders scan. Each hop is
    one hash exchange on its key (custkey → orderkey → suppkey); the
    c_nationkey == s_nationkey locality predicate is applied the moment
    both sides co-locate, BEFORE the aggregate. Revenue rides as exact
    integer 1e-4 currency units (the shared floor(x*100+0.5) rule), so
    the final per-nation sums are float-hazard-free. The terminal
    aggregate is map-side-combined into ≤25 keys per batch.

    Reference anchor: the engine's own J-family joins are term/docid
    semi-joins (SURVEY §2 J1-J4); this is the general N-hop relational
    composition a training-data warehouse needs beside them."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .agg import hash_groupby_sum

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkeys = [r["r_regionkey"] for r in reg.to_pylist() if r["r_name"] == region]
    nrows = [r for r in nat.to_pylist() if r["n_regionkey"] in set(rkeys)]
    valid = sorted(r["n_nationkey"] for r in nrows)
    if not valid:  # unknown region: nothing qualifies
        return ray.data.from_arrow(pa.table({
            "n_name": pa.array([], pa.string()),
            "revenue": pa.array([], pa.float64())}))
    names = np.empty(max(valid) + 1, dtype=object)
    for r in nrows:
        names[r["n_nationkey"]] = r["n_name"]
    names_ref = ray.put(names)

    lo = pd.Timestamp(date_from)
    hi = pd.Timestamp(date_to)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
        & (pads.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us"))),
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
        filter=pads.field("c_nationkey").isin(valid),
    )
    # hop 1 (custkey): order rows pick up their customer's nation.
    # Each hop is materialized: an exchange is a semantic barrier
    # anyway, and three chained union+groupby stages in ONE streaming
    # DAG measured 3x slower than hop-by-hop execution
    j1 = shuffle_join(orders, cust, "o_custkey", "c_custkey",
                      ["o_orderkey"], ["c_nationkey"]).materialize()

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_suppkey",
                        "l_extendedprice", "l_discount"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def li_rev(df: pd.DataFrame) -> pd.DataFrame:
        p = np.floor(df["l_extendedprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        d = np.floor(df["l_discount"].to_numpy() * 100 + 0.5).astype(np.int64)
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "rev_e4": p * (100 - d),
        })

    # hop 2 (orderkey): lineitems pick up the order's customer nation
    j2 = shuffle_join(j1, li.map_batches(li_rev, batch_format="pandas"),
                      "o_orderkey", "l_orderkey",
                      ["c_nationkey"], ["l_suppkey", "rev_e4"]).materialize()

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
        filter=pads.field("s_nationkey").isin(valid),
    )
    # hop 3 (suppkey): attach the supplier's nation
    j3 = shuffle_join(j2, supp, "l_suppkey", "s_suppkey",
                      ["c_nationkey", "rev_e4"], ["s_nationkey"]).materialize()

    def local_partials(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(names_ref)
        m = df["c_nationkey"].to_numpy(np.int64) == \
            df["s_nationkey"].to_numpy(np.int64)
        # rev_e4 may arrive float64 after the padded-union pandas
        # roundtrip; per-row values fit exactly (≤1e9) but partition
        # sums would not at scale — restore int64 BEFORE summing
        g = df.loc[m, ["s_nationkey", "rev_e4"]].copy()
        g["rev_e4"] = g["rev_e4"].to_numpy(np.float64).astype(np.int64)
        g = g.groupby("s_nationkey", as_index=False)["rev_e4"].sum()
        g["n_name"] = lut[g["s_nationkey"].to_numpy().astype(np.int64)]
        return g[["n_name", "rev_e4"]]

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "n_name": t["n_name"],
            "revenue": pc.divide(t["rev_e4"].cast(pa.float64()),
                                 pa.scalar(10000.0)),
        })

    return hash_groupby_sum(
        j3.map_batches(local_partials, batch_format="pandas"),
        ["n_name"], {"rev_e4": ("rev_e4", "sum")},
    ).map_batches(finish, batch_format="pyarrow")


def price_quantiles(sf_dir: str, qs: tuple = (0.01, 0.25, 0.5, 0.75, 0.99),
                    band_cap: int = 8192, fanout: int = 128):
    """EXACT order-price quantiles over an UNBOUNDED value domain —
    distributed selection by iterative histogram refinement (the
    classic multi-pass k-th-smallest).

    A domain-bounded histogram needs one bin per value; this shape is
    for domains too large to histogram at once. Each round broadcasts ≤
    ``fanout × len(qs)`` integer band edges, streams ONE pruned-column
    pass that bins values into its target's band (everything outside all
    bands is dropped at the batch), and returns only per-(target, bin)
    count partials — the driver state is O(fanout × targets), never rows.
    Bands shrink ×``fanout`` per round, so 2-3 rounds bracket each rank
    into a band of ≤ ``band_cap`` values; one final pass collects exactly
    those bands and selects the rank locally. Total cost: ~4-5 streaming
    passes over ONE int64 column, zero all-to-all exchanges.

    Rank rule (shared verbatim with the SQL oracle): the k-th smallest
    with k = max(1, ceil(q·N)), 1-indexed; prices as exact integer cents
    under the shared floor(x·100+0.5) rule."""
    path = f"{sf_dir}/orders.parquet"

    def cents_ds():
        return ray.data.read_parquet(
            path, columns=["o_totalprice"],
            override_num_blocks=_read_blocks(path, target_rows=20_000),
        )

    def to_cents(df: pd.DataFrame) -> np.ndarray:
        return np.floor(df["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)

    # pass 0: N + global band (tiny per-batch partials)
    def stats(df: pd.DataFrame) -> pd.DataFrame:
        v = to_cents(df)
        return pd.DataFrame({"n": [len(v)],
                             "lo": [v.min() if len(v) else np.iinfo(np.int64).max],
                             "hi": [v.max() if len(v) else np.iinfo(np.int64).min]})

    st = cents_ds().map_batches(stats, batch_format="pandas").to_pandas()
    n_total = int(st["n"].sum())
    if n_total == 0:
        return pd.DataFrame({"q": pd.Series(list(qs), dtype=np.float64),
                             "rank": pd.Series([], dtype=np.int64),
                             "cents": pd.Series([], dtype=np.int64),
                             "price": pd.Series([], dtype=np.float64)}).iloc[:0]
    gmin, gmax = int(st["lo"].min()), int(st["hi"].max())

    # per-target state: inclusive band [lo, hi], rows strictly below lo
    targets = []
    for q in qs:
        k = max(1, int(np.ceil(q * n_total)))
        targets.append({"q": q, "rank": k, "lo": gmin, "hi": gmax,
                        "below": 0, "count": n_total, "value": None})

    def hist_pass(bands: list[tuple[int, np.ndarray]]):
        """bands: [(tid, edges)] — one streaming pass, partial counts per
        (tid, bin). Driver reduce is bounded by targets × fanout."""
        bands_ref = ray.put(bands)

        def part(df: pd.DataFrame) -> pd.DataFrame:
            v = to_cents(df)
            out_t, out_b, out_c = [], [], []
            for tid, edges in ray.get(bands_ref):
                sel = v[(v >= edges[0]) & (v < edges[-1])]
                if len(sel) == 0:
                    continue
                c = np.bincount(np.searchsorted(edges, sel, side="right") - 1,
                                minlength=len(edges) - 1)
                nz = np.nonzero(c)[0]
                out_t.append(np.full(len(nz), tid, np.int64))
                out_b.append(nz.astype(np.int64))
                out_c.append(c[nz])
            if not out_t:
                return pd.DataFrame({"tid": pd.Series([], dtype=np.int64),
                                     "bin": pd.Series([], dtype=np.int64),
                                     "cnt": pd.Series([], dtype=np.int64)})
            return pd.DataFrame({"tid": np.concatenate(out_t),
                                 "bin": np.concatenate(out_b),
                                 "cnt": np.concatenate(out_c)})

        p = cents_ds().map_batches(part, batch_format="pandas").to_pandas()
        return p.groupby(["tid", "bin"], as_index=False)["cnt"].sum()

    for _round in range(8):
        open_t = [t for t in targets if t["value"] is None
                  and (t["count"] > band_cap and t["lo"] < t["hi"])]
        if not open_t:
            break
        bands = []
        for tid, t in enumerate(targets):
            if t not in open_t:
                continue
            # integer edges spanning [lo, hi+1); ≥2 distinct by lo<hi
            e = np.unique(np.linspace(t["lo"], t["hi"] + 1, fanout + 1)
                          .astype(np.int64))
            bands.append((tid, e))
        counts = hist_pass(bands)
        for tid, edges in bands:
            t = targets[tid]
            c = np.zeros(len(edges) - 1, np.int64)
            g = counts[counts["tid"] == tid]
            c[g["bin"].to_numpy()] = g["cnt"].to_numpy()
            cum = np.cumsum(c)
            rel = t["rank"] - t["below"]  # 1-indexed rank inside the band
            i = int(np.searchsorted(cum, rel, side="left"))
            t["below"] += int(cum[i - 1]) if i > 0 else 0
            t["lo"], t["hi"] = int(edges[i]), int(edges[i + 1]) - 1
            t["count"] = int(c[i])
            if t["lo"] == t["hi"]:
                t["value"] = t["lo"]

    # final pass: collect the (≤ band_cap per target) band values
    open_bands = [(tid, t["lo"], t["hi"]) for tid, t in enumerate(targets)
                  if t["value"] is None]
    if open_bands:
        ob_ref = ray.put(open_bands)

        def collect(df: pd.DataFrame) -> pd.DataFrame:
            v = to_cents(df)
            ts, vs = [], []
            for tid, lo, hi in ray.get(ob_ref):
                sel = v[(v >= lo) & (v <= hi)]
                ts.append(np.full(len(sel), tid, np.int64))
                vs.append(sel)
            return pd.DataFrame({"tid": np.concatenate(ts) if ts else
                                 np.array([], np.int64),
                                 "v": np.concatenate(vs) if vs else
                                 np.array([], np.int64)})

        vals = cents_ds().map_batches(collect, batch_format="pandas").to_pandas()
        for tid, lo, hi in open_bands:
            t = targets[tid]
            band = np.sort(vals.loc[vals["tid"] == tid, "v"].to_numpy())
            t["value"] = int(band[t["rank"] - t["below"] - 1])

    return pd.DataFrame({
        "q": pd.Series([t["q"] for t in targets], dtype=np.float64),
        "rank": pd.Series([t["rank"] for t in targets], dtype=np.int64),
        "cents": pd.Series([t["value"] for t in targets], dtype=np.int64),
        "price": pd.Series([t["value"] / 100.0 for t in targets],
                           dtype=np.float64),
    })


def revenue_forecast(sf_dir: str, year: int = 1995,
                     disc_lo: int = 5, disc_hi: int = 7,
                     max_qty: int = 24):
    """TPC-H Q6 (forecast revenue change): the fully PUSHED-DOWN filter
    aggregate — SUM(extendedprice × discount) over one shipdate year,
    a discount band and a quantity cap. Every predicate lands in the
    parquet scan (row-group pruning + no filtered rows enter the
    pipeline); the float predicates are evaluated on the exact cents
    grid (discount cents ∈ [lo, hi]) so both engines select the
    identical row set. Revenue is exact integer 1e-4 currency units
    (cents × cents) — no float ranking or summation hazard anywhere.

    Scale shape: one streaming pass, one int64 partial per batch, a
    scalar to the driver."""
    import pyarrow.dataset as pads

    from .text_stats import _read_blocks

    path = f"{sf_dir}/lineitem.parquet"
    lo_ts = pd.Timestamp(f"{year}-01-01")
    hi_ts = pd.Timestamp(f"{year + 1}-01-01")
    # the discount band on the exact cents grid: cents in [lo, hi] ⟺
    # raw double in [lo/100 - 0.005, hi/100 + 0.005) — push a safe
    # superset predicate to the scan, refine on the grid per batch
    flt = ((pads.field("l_shipdate") >= lo_ts)
           & (pads.field("l_shipdate") < hi_ts)
           & (pads.field("l_discount") >= (disc_lo - 0.6) / 100)
           & (pads.field("l_discount") <= (disc_hi + 0.6) / 100)
           & (pads.field("l_quantity") < max_qty))
    ds = ray.data.read_parquet(
        path, columns=["l_extendedprice", "l_discount"], filter=flt,
        override_num_blocks=_read_blocks(path, target_rows=20_000))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        p = np.floor(df["l_extendedprice"].to_numpy() * 100 + 0.5) \
            .astype(np.int64)
        d = np.floor(df["l_discount"].to_numpy() * 100 + 0.5) \
            .astype(np.int64)
        keep = (d >= disc_lo) & (d <= disc_hi)
        return pd.DataFrame({"rev_part": [int((p[keep] * d[keep]).sum())],
                             "n_part": [int(keep.sum())]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rev = int(parts["rev_part"].sum())
    return pd.DataFrame({"revenue_e4": [np.int64(rev)],
                         "n_lineitems": [np.int64(parts["n_part"].sum())]})


def returned_item_report(sf_dir: str, date_lo: str = "1996-01-01",
                         date_hi: str = "1996-04-01", k: int = 20):
    """TPC-H Q10 (returned-item reporting): the top-``k`` customers by
    revenue lost to returns in a quarter — customer ⋈ orders(quarter) ⋈
    lineitem(returnflag = 'R') ⋈ nation, ranked by exact-integer 1e-4
    revenue (ties → c_custkey ASC). The four-table chain with THREE
    different join keys is the deepest relational composition here:
    orderkey, then custkey, then the broadcast nationkey.

    Scale shape: both fact filters are pushed into the parquet scans.
    Hop 1 (orderkey): lineitem revenue pre-aggregated map-side per
    orderkey, tagged-union with order rows, ONE orderkey exchange emits
    (custkey, rev) — an inner join, orders without returns drop out.
    Hop 2 (custkey): those revenue rows tagged-union with customer DIM
    rows, ONE custkey exchange sums and joins — customer payloads cross
    the wire once, raw facts never do. Nation (bounded dimension) is a
    driver-read broadcast lookup. Global top-k = per-partition partial
    top-k → ≤ P×k driver merge."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    lo = pa.scalar(pd.Timestamp(date_lo), pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp(date_hi), pa.timestamp("us"))

    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo)
               & (pads.field("o_orderdate") < hi),
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R",
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def order_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "_k": t["o_orderkey"].cast(pa.int64()),
            "custkey": t["o_custkey"].cast(pa.int64()),
            "rev_part": pa.array(np.zeros(len(t), np.int64)),
            "_side": pa.array(np.zeros(len(t), np.int8)),
        })

    def rev_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (the lineitem-scale side of the union)
        g = pa.table({
            "_k": pc.cast(t["l_orderkey"], pa.int64()),
            "rev_part": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["_k"]).aggregate([("rev_part", "sum")])
        n = len(g)
        return pa.table({
            "_k": g["_k"],
            "custkey": pa.array(np.full(n, -1, np.int64)),
            "rev_part": g["rev_part_sum"],
            "_side": pa.array(np.ones(n, np.int8)),
        })

    hop1 = orders.map_batches(order_rows, batch_format="pyarrow").union(
        li.map_batches(rev_partials, batch_format="pyarrow"))

    def join_orderkey(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0]
        r = df[df["_side"] == 1].groupby("_k", as_index=False)["rev_part"].sum()
        j = o[["_k", "custkey"]].merge(r, on="_k")  # inner: returns only
        return j[["custkey", "rev_part"]]

    rev_by_cust = hash_groupby_apply(hop1, ["_k"], join_orderkey)

    def cust_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "custkey": t["c_custkey"].cast(pa.int64()),
            "rev_part": pa.array(np.zeros(len(t), np.int64)),
            "c_name": t["c_name"],
            "c_acctbal": t["c_acctbal"].cast(pa.float64()),
            "nationkey": t["c_nationkey"].cast(pa.int64()),
            "_side": pa.array(np.zeros(len(t), np.int8)),
        })

    def rev_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "custkey": t["custkey"],
            "rev_part": t["rev_part"],
            "c_name": pa.array([None] * n, pa.string()),
            "c_acctbal": pa.array(np.zeros(n, np.float64)),
            "nationkey": pa.array(np.full(n, -1, np.int64)),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    cust = table_ds(sf_dir, "customer",
                    ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    hop2 = cust.map_batches(cust_rows, batch_format="pyarrow").union(
        rev_by_cust.map_batches(rev_rows, batch_format="pyarrow"))

    nat = pq_.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    names = dict(zip(nat["n_nationkey"].to_pylist(),
                     nat["n_name"].to_pylist()))
    nref = ray.put(names)  # bounded dimension — broadcast once

    def join_custkey(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["_side"] == 0]
        r = df[df["_side"] == 1].groupby("custkey",
                                         as_index=False)["rev_part"].sum()
        j = c[["custkey", "c_name", "c_acctbal", "nationkey"]].merge(
            r, on="custkey")
        j = j.sort_values(["rev_part", "custkey"],
                          ascending=[False, True]).head(k)
        nm = ray.get(nref)
        j["n_name"] = [nm[int(x)] for x in j["nationkey"]]
        return j[["custkey", "c_name", "n_name", "c_acctbal", "rev_part"]]

    survivors = hash_groupby_apply(hop2, ["custkey"], join_custkey).to_pandas()
    out = survivors.sort_values(["rev_part", "custkey"],
                                ascending=[False, True]).head(k)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["revenue"] = out.pop("rev_part").to_numpy() / 10000.0
    return out.rename(columns={"custkey": "c_custkey"})[
        ["c_custkey", "c_name", "n_name", "c_acctbal", "rank", "revenue"]]


def small_order_revenue(sf_dir: str, brand: str = "Brand#12"):
    """TPC-H Q17 (small-quantity-order revenue): average yearly revenue
    lost if small orders of a brand's parts were not filled — lineitems
    whose quantity is below 20% of their part's average quantity,
    summed and divided by 7. The CORRELATED-aggregate shape: a
    per-group average computed from the fact table, then re-applied as
    a filter against the SAME fact rows.

    Exactness: the threshold ``q < 0.2 · avg(q)`` is evaluated as the
    integer cross-multiplication ``5 · q_c · cnt < sum_c`` (quantities
    on the exact cents grid) — both engines select the identical row
    set with no float-boundary hazard; revenue is exact integer cents
    until the final divide on the shared 6 dp grid.

    Scale shape: ONE partkey-keyed exchange carries BOTH sides — the
    brand's (deduplicated) partkeys as marker rows and the lineitem
    cents rows — so the semi-filter and the correlated aggregate happen
    in the same co-location: the per-partition kernel drops groups
    without a marker, computes per-part (sum, cnt) and applies the
    filter vectorized, emitting one revenue partial per partition. The
    fact table crosses the wire exactly once; the correlated aggregate
    never materializes globally."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"],
        filter=pads.field("p_brand") == brand,
    )
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_partkey", "l_quantity", "l_extendedprice"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def cents(t: pa.Table) -> pa.Table:
        q = np.floor(t["l_quantity"].to_numpy() * 100 + 0.5).astype(np.int64)
        p = np.floor(t["l_extendedprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        return pa.table({"_k": t["l_partkey"].cast(pa.int64()),
                         "q_c": pa.array(q), "p_c": pa.array(p),
                         "_side": pa.array(np.zeros(len(t), np.int8))})

    def key_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.unique(t["p_partkey"].combine_chunks()
                      if isinstance(t["p_partkey"], pa.ChunkedArray)
                      else t["p_partkey"]).cast(pa.int64())
        n = len(k)
        return pa.table({"_k": k,
                         "q_c": pa.array(np.zeros(n, np.int64)),
                         "p_c": pa.array(np.zeros(n, np.int64)),
                         "_side": pa.array(np.ones(n, np.int8))})

    u = li.map_batches(cents, batch_format="pyarrow").union(
        parts.map_batches(key_rows, batch_format="pyarrow"))

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["_side"] == 1, "_k"].unique()
        f = df[(df["_side"] == 0) & df["_k"].isin(keys)]
        if len(f) == 0:
            return pd.DataFrame({"rev_part": [np.int64(0)]})
        g = f.groupby("_k")["q_c"]
        s = g.transform("sum").to_numpy()
        n = g.transform("size").to_numpy()
        q = f["q_c"].to_numpy()
        keep = 5 * q * n < s  # exact integer  q < 0.2 * avg(q)
        return pd.DataFrame({
            "rev_part": [np.int64(f["p_c"].to_numpy()[keep].sum())]})

    partials = hash_groupby_apply(u, ["_k"], per_part).to_pandas()
    from .text_stats import round6_half_up

    total = int(partials["rev_part"].sum())
    return pd.DataFrame({
        "total_cents": [np.int64(total)],
        "avg_yearly": round6_half_up(np.array([total / 100.0 / 7.0])),
    })


def large_volume_orders(sf_dir: str, qty_threshold: int = 200,
                        k: int = 100) -> pd.DataFrame:
    """TPC-H Q18 (large-volume customers): orders whose total lineitem
    quantity exceeds ``qty_threshold``, with the ordering customer —
    the HAVING-then-join-back shape: a group-level aggregate filter on
    the fact table whose surviving GROUP KEYS then re-join two
    dimensions. Top-``k`` by (o_totalprice DESC, o_orderdate ASC,
    o_orderkey ASC), exact integer quantity grid.

    Scale shape: hop 1 is ONE orderkey exchange carrying map-side
    quantity-cents partials ⊎ order dimension rows (the Q17
    tagged-union: facts cross the wire once, already pre-aggregated);
    its kernel sums, applies the integer HAVING cut and attaches the
    order columns — everything after this is bounded by the HAVING
    selectivity, not the fact table. Hop 2 is ONE custkey exchange with
    the customer dimension. Global top-k = per-partition partial top-k
    → ≤ P×k driver merge."""
    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    thr_c = int(qty_threshold) * 100  # exact cents grid

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_quantity"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    orders = table_ds(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_totalprice",
                       "o_orderdate"])

    def qty_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "_k": pc.cast(t["l_orderkey"], pa.int64()),
            "q_c": _cents_arrow(t["l_quantity"]),
        }).group_by(["_k"]).aggregate([("q_c", "sum")])
        n = len(g)
        return pa.table({
            "_k": g["_k"], "q_c": g["q_c_sum"],
            "custkey": pa.array(np.full(n, -1, np.int64)),
            "totalprice": pa.array(np.zeros(n, np.float64)),
            "orderdate": pa.nulls(n, pa.timestamp("us")),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "_k": df["o_orderkey"].to_numpy(dtype=np.int64),
            "q_c": np.zeros(n, np.int64),
            "custkey": df["o_custkey"].to_numpy(dtype=np.int64),
            "totalprice": df["o_totalprice"].to_numpy(dtype=np.float64),
            "orderdate": df["o_orderdate"],
            "_side": np.zeros(n, np.int8),
        })

    hop1 = li.map_batches(qty_partials, batch_format="pyarrow").union(
        orders.map_batches(order_rows, batch_format="pandas"))

    def having_join(df: pd.DataFrame) -> pd.DataFrame:
        q = df[df["_side"] == 1].groupby("_k", as_index=False)["q_c"].sum()
        q = q[q["q_c"] > thr_c]  # the HAVING cut, exact integers
        o = df[df["_side"] == 0]
        j = o[["_k", "custkey", "totalprice", "orderdate"]].merge(q, on="_k")
        return j

    by_order = hash_groupby_apply(hop1, ["_k"], having_join)

    def cust_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "custkey": df["c_custkey"].to_numpy(dtype=np.int64),
            "c_name": df["c_name"],
            "_k": np.zeros(n, np.int64),
            "q_c": np.zeros(n, np.int64),
            "totalprice": np.zeros(n, np.float64),
            "orderdate": pd.Series([pd.NaT] * n, dtype="datetime64[us]"),
            "_side": np.zeros(n, np.int8),
        })

    def ord_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["custkey", "_k", "q_c", "totalprice", "orderdate"]].copy()
        out["c_name"] = pd.Series([None] * len(df), dtype=object)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["custkey", "c_name", "_k", "q_c", "totalprice",
                    "orderdate", "_side"]]

    cust = table_ds(sf_dir, "customer", ["c_custkey", "c_name"])
    hop2 = cust.map_batches(cust_rows, batch_format="pandas").union(
        by_order.map_batches(ord_rows, batch_format="pandas"))

    def join_topk(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["_side"] == 0]
        o = df[df["_side"] == 1]
        j = o[["custkey", "_k", "q_c", "totalprice", "orderdate"]].merge(
            c[["custkey", "c_name"]], on="custkey")
        return j.sort_values(["totalprice", "orderdate", "_k"],
                             ascending=[False, True, True]).head(k)

    survivors = hash_groupby_apply(hop2, ["custkey"], join_topk).to_pandas()
    out = survivors.sort_values(["totalprice", "orderdate", "_k"],
                                ascending=[False, True, True]).head(k) \
        .reset_index(drop=True)
    return pd.DataFrame({
        "c_custkey": out["custkey"].to_numpy(dtype=np.int64),
        "c_name": out["c_name"],
        "o_orderkey": out["_k"].to_numpy(dtype=np.int64),
        "o_orderdate": out["orderdate"],
        "o_totalprice": out["totalprice"].to_numpy(),
        "total_qty": out["q_c"].to_numpy() / 100.0,
        "rank": np.arange(1, len(out) + 1, dtype=np.int64),
    })


def order_count_distribution(sf_dir: str,
                             excl_priority: str = "1-URGENT"):
    """TPC-H Q13 (customer distribution): how many customers placed
    exactly N qualifying orders, INCLUDING the zero-order customers —
    the LEFT-OUTER-then-histogram shape: a left outer aggregate join at
    customer cardinality whose per-group counts are immediately
    re-aggregated into a count-of-counts. (The testdata has no
    o_comment, so Q13's comment exclusion becomes an order-priority
    exclusion, pushed into the parquet scan.) Returns
    (c_count, custdist).

    Scale shape: ONE custkey exchange carries customer key rows ⊎
    map-side order COUNT partials (never raw orders); the per-partition
    kernel computes each customer's total (0 for no orders) and
    collapses it to histogram partials on the spot, so the second
    exchange carries ≤ P × max_orders_per_customer rows — bounded by
    the shuffle width, not the customer count."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    from .text_stats import _read_blocks

    cust = table_ds(sf_dir, "customer", ["c_custkey"])
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_custkey"],
        filter=pads.field("o_orderpriority") != excl_priority,
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def cust_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "_k": t["c_custkey"].cast(pa.int64()),
            "cnt_part": pa.array(np.zeros(n, np.int64)),
            "_side": pa.array(np.zeros(n, np.int8)),
        })

    def order_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("o_custkey", as_index=False).size()
             .rename(columns={"size": "cnt_part", "o_custkey": "_k"}))
        g["_k"] = g["_k"].astype(np.int64)
        g["cnt_part"] = g["cnt_part"].astype(np.int64)
        g["_side"] = np.ones(len(g), np.int8)
        return g

    u = cust.map_batches(cust_rows, batch_format="pyarrow").union(
        orders.map_batches(order_partials, batch_format="pandas"))

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df.loc[df["_side"] == 0, ["_k"]]
        o = df[df["_side"] == 1].groupby("_k", as_index=False)[
            "cnt_part"].sum()
        j = c.merge(o, on="_k", how="left")
        counts = j["cnt_part"].fillna(0).astype(np.int64)
        h = counts.value_counts()
        return pd.DataFrame({"c_count": h.index.to_numpy(np.int64),
                             "custdist_part": h.to_numpy(np.int64)})

    hist = hash_groupby_apply(u, ["_k"], hist_partial)
    out = hash_groupby_sum(hist, ["c_count"],
                           {"custdist": ("custdist_part", "sum")}).to_pandas()
    out = out.sort_values(["custdist", "c_count"],
                          ascending=[False, False]).reset_index(drop=True)
    out["custdist"] = out["custdist"].astype(np.int64)
    return out[["c_count", "custdist"]]


def suppliers_kept_waiting(sf_dir: str, region: str = "EUROPE",
                           late_days: int = 1400, k: int = 100):
    """TPC-H Q21 (suppliers who kept orders waiting): for finished
    orders with at least TWO distinct suppliers, count per supplier the
    orders where that supplier was the ONLY late one — the
    EXISTS / NOT-EXISTS pair over sibling rows of the same group. (The
    testdata has no commit/receipt dates, so "late" is l_shipdate more
    than ``late_days`` past o_orderdate — an exact integer-microsecond
    timestamp compare on both engines.) Suppliers are restricted to
    ``region``; top-``k`` by (numwait DESC, s_name ASC). Returns
    (s_name, numwait).

    Scale shape: lineitem is pre-collapsed map-side to one
    (orderkey, suppkey, max_shipdate) row per batch — lateness of a
    supplier within an order is a pure function of its MAX ship date,
    so the exists/not-exists logic needs no raw lineitems. ONE orderkey
    exchange co-locates those partials with the order dimension rows
    (status filter pushed into the scan); the per-partition kernel
    reduces each order to (n_suppliers, n_late) and emits qualifying
    suppkey count partials. Hop 2 is ONE suppkey exchange with the
    region's suppliers (nation→region resolved from the two broadcast
    dimension tables); per-partition partial top-k caps the driver
    merge at P×k rows."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_regionkey"])
    reg = pd.read_parquet(f"{sf_dir}/region.parquet",
                          columns=["r_regionkey", "r_name"])
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nkeys = sorted(nat.loc[nat["n_regionkey"].isin(rkeys),
                           "n_nationkey"].tolist())

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_orderdate"],
        filter=pads.field("o_orderstatus") == "F",
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "_k": pc.cast(t["l_orderkey"], pa.int64()),
            "suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "ship_us": pc.cast(t["l_shipdate"], pa.int64()),
        }).group_by(["_k", "suppkey"]).aggregate([("ship_us", "max")])
        return pa.table({
            "_k": g["_k"], "suppkey": g["suppkey"],
            "ship_us": g["ship_us_max"],
            "_side": pa.array(np.ones(len(g), np.int8)),
        })

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "_k": df["o_orderkey"].to_numpy(np.int64),
            "suppkey": np.full(n, -1, np.int64),
            # carry the order date in the ship_us slot (side-tagged)
            "ship_us": df["o_orderdate"].astype("datetime64[us]")
            .astype(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    hop1 = li.map_batches(li_partials, batch_format="pyarrow").union(
        orders.map_batches(order_rows, batch_format="pandas"))
    late_us = np.int64(late_days) * 86_400_000_000

    def waiting_partials(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["_k", "ship_us"]].rename(
            columns={"ship_us": "odate_us"})
        f = df[df["_side"] == 1].groupby(["_k", "suppkey"],
                                         as_index=False)["ship_us"].max()
        j = f.merge(o, on="_k")  # inner: drops non-'F' orders
        if len(j) == 0:
            return pd.DataFrame({"suppkey": pd.Series([], dtype=np.int64),
                                 "numwait_part": pd.Series([],
                                                           dtype=np.int64)})
        late = (j["ship_us"].to_numpy()
                > j["odate_us"].to_numpy() + late_us)
        per = j.assign(late=late).groupby("_k").agg(
            n_supp=("suppkey", "size"), n_late=("late", "sum"))
        j = j.merge(per, on="_k")
        q = j[late & (j["n_supp"].to_numpy() >= 2)
              & (j["n_late"].to_numpy() == 1)]
        h = q["suppkey"].value_counts()
        return pd.DataFrame({"suppkey": h.index.to_numpy(np.int64),
                             "numwait_part": h.to_numpy(np.int64)})

    # hop barrier (the Q5 lesson): the output is supplier-count partials
    # — tiny — and materializing it keeps the two exchanges out of one
    # streaming DAG, which the executor schedules far better
    waits = hash_groupby_apply(hop1, ["_k"], waiting_partials).materialize()

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
        filter=pads.field("s_nationkey").isin(nkeys),
    )

    def supp_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "suppkey": t["s_suppkey"].cast(pa.int64()),
            "s_name": t["s_name"],
            "numwait_part": pa.array(np.zeros(n, np.int64)),
            "_side": pa.array(np.zeros(n, np.int8)),
        })

    def wait_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["suppkey", "numwait_part"]].copy()
        out["s_name"] = pd.Series([None] * len(df), dtype=object)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["suppkey", "s_name", "numwait_part", "_side"]]

    hop2 = supp.map_batches(supp_rows, batch_format="pyarrow").union(
        waits.map_batches(wait_rows, batch_format="pandas"))

    def join_topk(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["_side"] == 0]
        w = df[df["_side"] == 1].groupby("suppkey", as_index=False)[
            "numwait_part"].sum()
        j = s[["suppkey", "s_name"]].merge(w, on="suppkey")  # region filter
        return j.sort_values(["numwait_part", "s_name"],
                             ascending=[False, True]).head(k)

    survivors = hash_groupby_apply(hop2, ["suppkey"], join_topk).to_pandas()
    out = survivors.sort_values(["numwait_part", "s_name"],
                                ascending=[False, True]).head(k) \
        .reset_index(drop=True)
    return pd.DataFrame({
        "s_name": out["s_name"],
        "numwait": out["numwait_part"].to_numpy(np.int64),
    })


def idle_customer_balance(sf_dir: str,
                          nation_keys: tuple = (0, 1, 2, 3, 4, 5, 6),
                          since: str = "2000-01-01"):
    """TPC-H Q22 (global-sales opportunity): positive-balance customers
    in a fixed nation subset whose balance is above the subset's
    average AND who placed no order since ``since`` — the
    scalar-subquery + anti-join shape. (Every customer in the testdata
    has SOME order, so Q22's "never ordered" becomes "idle since a
    cutoff"; the date predicate is pushed into the orders scan, which
    also shrinks the anti-join key set.) Per nation: customer count and
    total balance in exact integer cents. Returns
    (n_name, numcust, totacctbal_c).

    Exactness: "above average" is the integer cross-multiplication
    ``bal_c · n > total_c`` (no float average ever computed), the same
    expression the oracle evaluates, so both engines select the
    identical customer set.

    Scale shape: pass 1 streams the filtered customer scan (nation +
    positive-balance predicates pushed into the parquet read) into
    per-batch (sum, count) partials — a two-scalar driver reduce, never
    a materialization. Pass 2 re-streams the same pruned scan, applies
    the integer threshold vectorized, and anti-joins orders with only
    DEDUPLICATED o_custkey keys crossing the exchange
    (:func:`shuffle_semi_join`); the surviving ≤ |rich idle customers|
    rows collapse to a ≤ 25-row nation aggregate, labeled from the
    broadcast nation table."""
    import pyarrow.dataset as pads

    nkeys = sorted(int(x) for x in nation_keys)
    filt = (pads.field("c_nationkey").isin(nkeys)
            & (pads.field("c_acctbal") > 0.0))

    from .text_stats import _read_blocks

    cpath = f"{sf_dir}/customer.parquet"

    def pool(cols):
        return ray.data.read_parquet(
            cpath, columns=cols, filter=filt,
            override_num_blocks=_read_blocks(cpath, target_rows=20_000))

    def stat_partial(t: pa.Table) -> pa.Table:
        bal = np.floor(t["c_acctbal"].to_numpy(zero_copy_only=False)
                       * 100 + 0.5).astype(np.int64)
        return pa.table({"total_part": pa.array([bal.sum()]),
                         "n_part": pa.array([np.int64(len(bal))])})

    stats = pool(["c_acctbal"]).map_batches(
        stat_partial, batch_format="pyarrow").to_pandas()
    total_c = np.int64(stats["total_part"].sum())
    n = np.int64(stats["n_part"].sum())

    def rich(t: pa.Table) -> pa.Table:
        bal = np.floor(t["c_acctbal"].to_numpy(zero_copy_only=False)
                       * 100 + 0.5).astype(np.int64)
        keep = bal * n > total_c  # exact integer  bal > avg(bal)
        return pa.table({
            "c_custkey": t["c_custkey"].cast(pa.int64()).filter(
                pa.array(keep)),
            "c_nationkey": t["c_nationkey"].cast(pa.int64()).filter(
                pa.array(keep)),
            "bal_c": pa.array(bal[keep]),
        })

    rich_ds = pool(["c_custkey", "c_nationkey", "c_acctbal"]).map_batches(
        rich, batch_format="pyarrow")
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= pd.Timestamp(since),
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )
    idle = shuffle_semi_join(rich_ds, orders, "c_custkey", "o_custkey",
                             ["c_nationkey", "bal_c"], anti=True)

    def nation_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "c_nationkey": t["c_nationkey"].to_numpy(zero_copy_only=False),
            "bal_c": t["bal_c"].to_numpy(zero_copy_only=False)})
        g = df.groupby("c_nationkey", as_index=False).agg(
            numcust_part=("bal_c", "size"), tot_part=("bal_c", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = idle.map_batches(nation_partial, batch_format="pyarrow") \
        .to_pandas()  # <= 25 x P rows
    if len(parts) == 0:
        return pd.DataFrame({
            "n_name": pd.Series([], dtype=object),
            "numcust": pd.Series([], dtype=np.int64),
            "totacctbal_c": pd.Series([], dtype=np.int64)})
    out = parts.groupby("c_nationkey", as_index=False).agg(
        numcust=("numcust_part", "sum"), totacctbal_c=("tot_part", "sum"))
    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name"])
    out = out.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values("n_name").reset_index(drop=True)
    out["numcust"] = out["numcust"].astype(np.int64)
    out["totacctbal_c"] = out["totacctbal_c"].astype(np.int64)
    return out[["n_name", "numcust", "totacctbal_c"]]


def nation_trade_volume(sf_dir: str, nation_a: int = 1, nation_b: int = 2,
                        date_lo: str = "1995-01-01",
                        date_hi: str = "1997-01-01"):
    """TPC-H Q7 (volume shipping between two nations): revenue of goods
    shipped in the window between suppliers of one nation and customers
    of the other (both directions), grouped by (supp_nation, cust_nation,
    ship year) in exact 1e-4 currency units. The TWO-dimension-chains
    shape: the fact row's group key needs a attribute from EACH side of
    the schema star (supplier nation via l_suppkey, customer nation via
    l_orderkey → o_custkey) — three different join keys back-to-back.

    Scale shape: three chained exchanges, the fact SHRINKING at each
    hop. Hop A (suppkey): map-side (suppkey, orderkey, year) revenue
    partials ⊎ the nation-filtered supplier dimension (filter pushed to
    the scan); rows without a surviving supplier die here — the nation
    filter acts as a semi-join. Hop B (orderkey): survivors ⊎ order
    (orderkey, custkey) rows; re-aggregated map-side by (custkey, year,
    s_nation) before hop C (custkey) joins the nation-filtered customer
    dimension and collapses to the ≤ 2×2×years aggregate. Returns
    (supp_nation, cust_nation, l_year, revenue_c)."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    na, nb = int(nation_a), int(nation_b)
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath,
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=((pads.field("l_shipdate") >= pd.Timestamp(date_lo))
                & (pads.field("l_shipdate") < pd.Timestamp(date_hi))),
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
        filter=pads.field("s_nationkey").isin([na, nb]),
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
        filter=pads.field("c_nationkey").isin([na, nb]),
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_custkey"],
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native: the highest-traffic map-side kernel runs the
        # cents snap + 3-key groupby-sum in pyarrow.compute (measured
        # ~3× the pandas twin per batch; identical integer math —
        # pc.floor/multiply are the same IEEE float64 ops)
        rev = _rev4_arrow(t["l_extendedprice"], t["l_discount"])
        g = pa.table({
            "suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
            "rev": rev,
        }).group_by(["suppkey", "orderkey", "year"]).aggregate(
            [("rev", "sum")])
        n = len(g)
        return pa.table({
            "suppkey": g["suppkey"], "orderkey": g["orderkey"],
            "year": g["year"], "rev": g["rev_sum"],
            "nat": pa.array(np.full(n, -1, np.int64)),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def supp_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "suppkey": df["s_suppkey"].to_numpy(np.int64),
            "orderkey": np.zeros(n, np.int64),
            "year": np.zeros(n, np.int64),
            "rev": np.zeros(n, np.int64),
            "nat": df["s_nationkey"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    hop_a = li.map_batches(li_partials, batch_format="pyarrow").union(
        supp.map_batches(supp_rows, batch_format="pandas"))

    def join_supp(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["_side"] == 0][["suppkey", "nat"]] \
            .rename(columns={"nat": "s_nat"})
        f = df[df["_side"] == 1]
        j = f[["suppkey", "orderkey", "year", "rev"]].merge(s, on="suppkey")
        return (j.groupby(["orderkey", "year", "s_nat"], as_index=False)
                ["rev"].sum())

    by_order = hash_groupby_apply(hop_a, ["suppkey"], join_supp)

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "orderkey": df["o_orderkey"].to_numpy(np.int64),
            "year": np.zeros(n, np.int64),
            "s_nat": np.zeros(n, np.int64),
            "rev": np.zeros(n, np.int64),
            "custkey": df["o_custkey"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    def fact_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["orderkey", "year", "s_nat", "rev"]].copy()
        out["custkey"] = np.full(len(df), -1, np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["orderkey", "year", "s_nat", "rev", "custkey",
                    "_side"]]

    hop_b = orders.map_batches(order_rows, batch_format="pandas").union(
        by_order.map_batches(fact_rows, batch_format="pandas"))

    def join_order(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["orderkey", "custkey"]]
        f = df[df["_side"] == 1]
        j = f[["orderkey", "year", "s_nat", "rev"]].merge(o, on="orderkey")
        return (j.groupby(["custkey", "year", "s_nat"], as_index=False)
                ["rev"].sum())

    by_cust = hash_groupby_apply(hop_b, ["orderkey"], join_order)

    def cust_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "custkey": df["c_custkey"].to_numpy(np.int64),
            "year": np.zeros(n, np.int64),
            "s_nat": np.zeros(n, np.int64),
            "rev": np.zeros(n, np.int64),
            "c_nat": df["c_nationkey"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    def fact2_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["custkey", "year", "s_nat", "rev"]].copy()
        out["c_nat"] = np.full(len(df), -1, np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["custkey", "year", "s_nat", "rev", "c_nat", "_side"]]

    hop_c = cust.map_batches(cust_rows, batch_format="pandas").union(
        by_cust.map_batches(fact2_rows, batch_format="pandas"))

    def join_cust(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["_side"] == 0][["custkey", "c_nat"]]
        f = df[df["_side"] == 1]
        j = f[["custkey", "year", "s_nat", "rev"]].merge(c, on="custkey")
        j = j[j["s_nat"] != j["c_nat"]]  # cross-nation volume only
        return (j.groupby(["s_nat", "c_nat", "year"], as_index=False)
                ["rev"].sum())

    parts = hash_groupby_apply(hop_c, ["custkey"], join_cust).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "supp_nation": pd.Series([], dtype=np.int64),
            "cust_nation": pd.Series([], dtype=np.int64),
            "l_year": pd.Series([], dtype=np.int64),
            "revenue_c": pd.Series([], dtype=np.int64)})
    out = parts.groupby(["s_nat", "c_nat", "year"], as_index=False) \
        ["rev"].sum()
    out = out.sort_values(["s_nat", "c_nat", "year"]).reset_index(drop=True)
    return pd.DataFrame({
        "supp_nation": out["s_nat"].to_numpy(np.int64),
        "cust_nation": out["c_nat"].to_numpy(np.int64),
        "l_year": out["year"].to_numpy(np.int64),
        "revenue_c": out["rev"].to_numpy(np.int64),
    })


#: Q19's three disjunctive clauses: (brand, size_lo, size_hi, qty_lo, qty_hi)
DISCOUNT_CLAUSES = (
    ("Brand#12", 1, 15, 1, 11),
    ("Brand#23", 1, 20, 10, 20),
    ("Brand#34", 1, 25, 20, 30),
)


def discounted_revenue(sf_dir: str, clauses: tuple = DISCOUNT_CLAUSES):
    """TPC-H Q19 (discounted revenue): revenue of lineitems satisfying a
    DISJUNCTION of clauses that each mix part attributes (brand, size
    range) with fact attributes (quantity range) — the join whose filter
    can't be fully pushed to either side: each side's scan keeps only
    the UNION of its per-clause predicates, and the per-clause
    conjunction is evaluated at co-location. Exact 1e-4 currency units;
    one row (revenue_c).

    Scale shape: the part scan pushes ``brand IN (...) AND size <= max``
    (union of the clause ranges) and ships only (partkey, brand, size);
    the lineitem scan pushes the quantity union and pre-reduces
    map-side to (partkey, qty_bucket) revenue partials — quantity is
    bucketed to the CLAUSE-membership bitmask, so the exchange carries
    at most |clauses| rows per (partkey, batch), never raw lineitems.
    ONE partkey exchange evaluates the disjunction vectorized and emits
    one revenue partial per partition."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    brands = sorted({c[0] for c in clauses})
    size_lo = min(c[1] for c in clauses)
    size_hi = max(c[2] for c in clauses)
    qty_lo = min(c[3] for c in clauses)
    qty_hi = max(c[4] for c in clauses)

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"],
        filter=(pads.field("p_brand").isin(brands)
                & (pads.field("p_size") >= size_lo)
                & (pads.field("p_size") <= size_hi)),
    )
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath,
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        filter=((pads.field("l_quantity") >= float(qty_lo))
                & (pads.field("l_quantity") <= float(qty_hi))),
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # clause-membership bitmask over the quantity ranges: partials
        # collapse to at most 2^|clauses| qty buckets per partkey —
        # Arrow-native hot kernel
        q = np.asarray(t["l_quantity"].to_pandas(), dtype=np.float64)
        m = np.zeros(len(q), np.int64)
        for ci, (_, _, _, lo, hi) in enumerate(clauses):
            m |= ((q >= lo) & (q <= hi)).astype(np.int64) << ci
        g = pa.table({
            "partkey": pc.cast(t["l_partkey"], pa.int64()),
            "qmask": pa.array(m),
            "rev": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["partkey", "qmask"]).aggregate([("rev", "sum")])
        n = len(g)
        return pa.table({
            "partkey": g["partkey"], "qmask": g["qmask"],
            "rev": g["rev_sum"],
            "brand": pa.nulls(n, pa.string()),
            "size": pa.array(np.zeros(n, np.int64)),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "partkey": df["p_partkey"].to_numpy(np.int64),
            "qmask": np.zeros(n, np.int64),
            "rev": np.zeros(n, np.int64),
            "brand": df["p_brand"].astype(object),
            "size": df["p_size"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    u = li.map_batches(li_partials, batch_format="pyarrow").union(
        part.map_batches(part_rows, batch_format="pandas"))

    def disjunction(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["_side"] == 0][["partkey", "brand", "size"]]
        f = df[df["_side"] == 1]
        j = f[["partkey", "qmask", "rev"]].merge(p, on="partkey")
        if len(j) == 0:
            return pd.DataFrame({"rev_part": [np.int64(0)]})
        keep = np.zeros(len(j), bool)
        sz = j["size"].to_numpy()
        qm = j["qmask"].to_numpy()
        br = j["brand"].to_numpy()
        for ci, (brand, slo, shi, _, _) in enumerate(clauses):
            keep |= ((br == brand) & (sz >= slo) & (sz <= shi)
                     & ((qm >> ci) & 1).astype(bool))
        return pd.DataFrame(
            {"rev_part": [np.int64(j["rev"].to_numpy()[keep].sum())]})

    parts = hash_groupby_apply(u, ["partkey"], disjunction).to_pandas()
    return pd.DataFrame({"revenue_c": [np.int64(parts["rev_part"].sum())]})


def part_supplier_counts(sf_dir: str, excl_brand: str = "Brand#1",
                         excl_type: str = "PROMO", k: int = 20):
    """TPC-H Q16 shape (supplier diversity per part class): for parts
    NOT of ``excl_brand`` / ``excl_type``, how many DISTINCT suppliers
    shipped each (brand, type, size) class — excluding blacklisted
    suppliers (negative balance, the "complaints" stand-in; the
    testdata has no partsupp table, so the part↔supplier relation is
    derived from lineitem shipments). Top-``k`` by (supplier_cnt DESC,
    brand, type, size ASC). The grouped-COUNT-DISTINCT + anti-join
    composition over a fact-DERIVED relation.

    Scale shape: the blacklist (a filtered supplier scan) is collected
    as a sorted key array and broadcast via ``ray.put`` — bounded by
    blacklisted suppliers, and applied map-side BEFORE any exchange.
    Lineitem pre-reduces map-side to distinct (partkey, suppkey) pairs;
    ONE partkey exchange co-locates pairs with the filtered part
    dimension, re-dedupes exactly and collapses to (brand, type, size,
    suppkey) — at most |classes|×|suppliers| rows — whose final exact
    distinct count runs through a second small exchange keyed on the
    class. Per-partition partial top-k caps the driver merge."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    bl = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey"],
        filter=pads.field("s_acctbal") < 0.0,
    ).to_pandas()
    # an empty filtered read loses its schema in to_pandas
    bad_keys = (np.sort(bl["s_suppkey"].to_numpy(np.int64))
                if len(bl) else np.empty(0, np.int64))
    blacklist = ray.put(bad_keys)

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=((pads.field("p_brand") != excl_brand)
                & (pads.field("p_type") != excl_type)),
    )
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_partkey", "l_suppkey"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        bad = ray.get(blacklist)
        sk = df["l_suppkey"].to_numpy(np.int64)
        pos = np.searchsorted(bad, sk)
        pos[pos == len(bad)] = 0
        ok = ~(bad[pos] == sk) if len(bad) else np.ones(len(sk), bool)
        g = (pd.DataFrame({"partkey": df["l_partkey"].to_numpy(np.int64)[ok],
                           "suppkey": sk[ok]})
             .drop_duplicates())
        g["brand"] = pd.Series([None] * len(g), dtype=object)
        g["ptype"] = pd.Series([None] * len(g), dtype=object)
        g["size"] = np.zeros(len(g), np.int64)
        g["_side"] = np.ones(len(g), np.int8)
        return g[["partkey", "suppkey", "brand", "ptype", "size", "_side"]]

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "partkey": df["p_partkey"].to_numpy(np.int64),
            "suppkey": np.zeros(n, np.int64),
            "brand": df["p_brand"].astype(object),
            "ptype": df["p_type"].astype(object),
            "size": df["p_size"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    u = li.map_batches(pair_partials, batch_format="pandas").union(
        part.map_batches(part_rows, batch_format="pandas"))

    def class_pairs(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["_side"] == 0][["partkey", "brand", "ptype", "size"]]
        f = df[df["_side"] == 1][["partkey", "suppkey"]].drop_duplicates()
        j = f.merge(p, on="partkey")  # excluded parts die here
        return j[["brand", "ptype", "size", "suppkey"]].drop_duplicates()

    pairs = hash_groupby_apply(u, ["partkey"], class_pairs)

    def count_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates(["brand", "ptype", "size", "suppkey"])
             .groupby(["brand", "ptype", "size"], as_index=False)
             .agg(supplier_cnt=("suppkey", "size")))
        return g.sort_values(["supplier_cnt", "brand", "ptype", "size"],
                             ascending=[False, True, True, True]).head(k)

    survivors = hash_groupby_apply(
        pairs, ["brand", "ptype", "size"], count_topk).to_pandas()
    out = survivors.sort_values(
        ["supplier_cnt", "brand", "ptype", "size"],
        ascending=[False, True, True, True]).head(k).reset_index(drop=True)
    return pd.DataFrame({
        "p_brand": out["brand"],
        "p_type": out["ptype"],
        "p_size": out["size"].to_numpy(np.int64),
        "supplier_cnt": out["supplier_cnt"].to_numpy(np.int64),
    })


def order_priority_late(sf_dir: str, late_days: int = 10,
                        date_lo: str = "1996-01-01",
                        date_hi: str = "1996-07-01"):
    """TPC-H Q4 (order priority checking): count of orders per priority
    in the orderdate window where AT LEAST ONE lineitem shipped more
    than ``late_days`` past the order date — the EXISTS semi-join shape
    where the subquery correlates on the outer row's own attribute
    (o_orderdate), so the existence test cannot be evaluated on either
    table alone. (Testdata has no commit/receipt dates; lateness is the
    same shipdate-vs-orderdate contract as suppliers_kept_waiting,
    exact integer-microsecond compare on both engines.)

    Scale shape: "exists a late line" is a pure function of the order's
    MAX ship date, so lineitem pre-collapses map-side to one
    (orderkey, max ship_us) partial per batch — raw lineitems never
    cross the wire. ONE orderkey exchange co-locates those partials
    with the window-filtered order rows; the per-partition kernel
    re-maxes, compares, and collapses to per-priority count partials
    (≤ 5 rows each); the driver merge is P×5. Returns
    (o_orderpriority, order_count)."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_shipdate"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=((pads.field("o_orderdate") >= pd.Timestamp(date_lo))
                & (pads.field("o_orderdate") < pd.Timestamp(date_hi))),
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "_k": pc.cast(t["l_orderkey"], pa.int64()),
            "ship_us": pc.cast(t["l_shipdate"], pa.int64()),
        }).group_by(["_k"]).aggregate([("ship_us", "max")])
        n = len(g)
        return pa.table({
            "_k": g["_k"], "ship_us": g["ship_us_max"],
            "prio": pa.nulls(n, pa.string()),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "_k": df["o_orderkey"].to_numpy(np.int64),
            # carry the order date in the ship_us slot (side-tagged)
            "ship_us": df["o_orderdate"].astype("datetime64[us]")
            .astype(np.int64),
            "prio": df["o_orderpriority"].astype(object),
            "_side": np.zeros(n, np.int8),
        })

    hop = li.map_batches(li_partials, batch_format="pyarrow").union(
        orders.map_batches(order_rows, batch_format="pandas"))
    late_us = np.int64(late_days) * 86_400_000_000

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["_k", "ship_us", "prio"]].rename(
            columns={"ship_us": "odate_us"})
        f = df[df["_side"] == 1].groupby("_k", as_index=False)[
            "ship_us"].max()
        j = o.merge(f, on="_k")  # inner: windowless orders already gone
        if len(j) == 0:
            return pd.DataFrame({
                "o_orderpriority": pd.Series([], dtype=object),
                "cnt": pd.Series([], dtype=np.int64)})
        late = (j["ship_us"].to_numpy()
                > j["odate_us"].to_numpy() + late_us)
        h = j.loc[late, "prio"].value_counts()
        return pd.DataFrame({"o_orderpriority": h.index.astype(object),
                             "cnt": h.to_numpy(np.int64)})

    parts = hash_groupby_apply(hop, ["_k"], count_partials).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype=object),
            "order_count": pd.Series([], dtype=np.int64)})
    out = (parts.groupby("o_orderpriority", as_index=False)["cnt"].sum()
           .sort_values("o_orderpriority").reset_index(drop=True))
    return pd.DataFrame({
        "o_orderpriority": out["o_orderpriority"].astype(object),
        "order_count": out["cnt"].to_numpy(np.int64),
    })


def promo_revenue_share(sf_dir: str, promo_type: str = "PROMO",
                        date_lo: str = "1996-01-01",
                        date_hi: str = "1996-03-01"):
    """TPC-H Q14 (promotion effect): over the shipdate window, the
    percentage of revenue from parts of ``promo_type`` — the
    conditional-ratio aggregate whose numerator and denominator share
    one scan. Returns one row (promo_revenue_c4, total_revenue_c4,
    promo_share) with the revenues in exact 1e-4 currency units and the
    share on the shared floor(x*1e6+0.5)/1e6 grid, so the cross-engine
    comparison is a division of identical integers.

    Scale shape: the fact pre-aggregates map-side to (partkey, rev4)
    partials; ONE partkey exchange co-locates them with the part
    dimension's (partkey, is_promo) rows (both sides data-scaling — a
    broadcast would re-ship the part table per task at 100 TB); the
    per-partition kernel emits TWO scalars, so the driver merge is P
    rows of two ints."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks, round6_half_up

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=((pads.field("l_shipdate") >= pd.Timestamp(date_lo))
                & (pads.field("l_shipdate") < pd.Timestamp(date_hi))),
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"],
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "_k": pc.cast(t["l_partkey"], pa.int64()),
            "rev4": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["_k"]).aggregate([("rev4", "sum")])
        n = len(g)
        return pa.table({
            "_k": g["_k"], "rev4": g["rev4_sum"],
            "promo": pa.array(np.zeros(n, bool)),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "_k": df["p_partkey"].to_numpy(np.int64),
            "rev4": np.zeros(n, np.int64),
            "promo": (df["p_type"] == promo_type).to_numpy(),
            "_side": np.zeros(n, np.int8),
        })

    hop = li.map_batches(li_partials, batch_format="pyarrow").union(
        part.map_batches(part_rows, batch_format="pandas"))

    def ratio_partials(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["_side"] == 0][["_k", "promo"]]
        f = df[df["_side"] == 1][["_k", "rev4"]]
        j = f.merge(p, on="_k")
        rev = j["rev4"].to_numpy()
        return pd.DataFrame({
            "promo_c4": [np.int64(rev[j["promo"].to_numpy()].sum())],
            "total_c4": [np.int64(rev.sum())]})

    parts = hash_groupby_apply(hop, ["_k"], ratio_partials).to_pandas()
    promo = np.int64(parts["promo_c4"].sum())
    total = np.int64(parts["total_c4"].sum())
    share = float(round6_half_up(
        np.array([100.0 * promo / total if total else 0.0]))[0])
    return pd.DataFrame({
        "promo_revenue_c4": np.array([promo], np.int64),
        "total_revenue_c4": np.array([total], np.int64),
        "promo_share": np.array([share]),
    })


def top_supplier_revenue(sf_dir: str, date_lo: str = "1996-01-01",
                         date_hi: str = "1996-04-01"):
    """TPC-H Q15 (top supplier): suppliers whose revenue over the
    shipdate window equals the GLOBAL maximum (all of them — ties
    kept), with names attached. Revenue in exact 1e-4 units so the
    max-equality has no float hazard. Returns
    (s_suppkey, s_name, total_revenue_c4) ordered by suppkey.

    Scale shape: map-side (suppkey, rev4) partials → ONE suppkey
    exchange; each partition emits only its own argmax row set (any
    global winner is its partition's max), so the driver sees ≤ P×ties
    rows, takes the max of maxes, and attaches names with one
    winner-key-pruned read of supplier — no second exchange, nothing
    corpus-sized on the driver."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=((pads.field("l_shipdate") >= pd.Timestamp(date_lo))
                & (pads.field("l_shipdate") < pd.Timestamp(date_hi))),
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )

    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (lineitem-scale map-side combiner)
        g = pa.table({
            "_k": pc.cast(t["l_suppkey"], pa.int64()),
            "rev4": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["_k"]).aggregate([("rev4", "sum")])
        return pa.table({"_k": g["_k"], "rev4": g["rev4_sum"]})

    def part_max(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("_k", as_index=False)["rev4"].sum()
        return g[g["rev4"].to_numpy() == g["rev4"].max()]

    cand = hash_groupby_apply(
        li.map_batches(li_partials, batch_format="pyarrow"),
        ["_k"], part_max).to_pandas()
    if len(cand) == 0:
        return pd.DataFrame({
            "s_suppkey": pd.Series([], dtype=np.int64),
            "s_name": pd.Series([], dtype=object),
            "total_revenue_c4": pd.Series([], dtype=np.int64)})
    best = cand["rev4"].max()
    winners = cand[cand["rev4"].to_numpy() == best] \
        .sort_values("_k").reset_index(drop=True)
    names = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
        filter=pads.field("s_suppkey").isin(
            [int(x) for x in winners["_k"]]),
    ).to_pandas()
    out = winners.merge(names, left_on="_k", right_on="s_suppkey") \
        .sort_values("s_suppkey").reset_index(drop=True)
    return pd.DataFrame({
        "s_suppkey": out["s_suppkey"].to_numpy(np.int64),
        "s_name": out["s_name"].astype(object),
        "total_revenue_c4": out["rev4"].to_numpy(np.int64),
    })


def nation_market_share(sf_dir: str, nation: int = 1,
                        region: str = "EUROPE", p_type: str = "ECONOMY",
                        date_lo: str = "1995-01-01",
                        date_hi: str = "1997-01-01"):
    """TPC-H Q8 (national market share): among order lines for parts of
    ``p_type`` sold to customers of ``region`` in the orderdate window,
    the per-year revenue share supplied by ``nation``. Returns
    (o_year, nation_revenue_c4, total_revenue_c4, mkt_share) with exact
    1e-4-unit revenues and the share on the shared floor(x*1e6+0.5)/1e6
    grid — the ratio-of-conditional-aggregates over the deepest star
    join (part, supplier, orders, customer all on different keys).

    Scale shape: four chained exchanges with the fact SHRINKING at
    every hop — partkey first (the type filter is the most selective,
    acting as a semi-join), then suppkey (attach supplier nation), then
    orderkey (attach year + custkey, window filter pushed to the order
    scan), then custkey (region semi-join via the nation→region keys
    resolved from the two tiny broadcast dimensions). Between hops the
    fact re-aggregates map-side inside each kernel, so hop traffic is
    bounded by (surviving keys × group arity), not raw lineitems."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_regionkey"])
    reg = pd.read_parquet(f"{sf_dir}/region.parquet",
                          columns=["r_regionkey", "r_name"])
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nkeys = sorted(nat.loc[nat["n_regionkey"].isin(rkeys),
                           "n_nationkey"].tolist())
    nation = int(nation)

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"],
        filter=pads.field("p_type") == p_type,
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pads.field("o_orderdate") >= pd.Timestamp(date_lo))
                & (pads.field("o_orderdate") < pd.Timestamp(date_hi))),
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        filter=pads.field("c_nationkey").isin(nkeys),
    )

    # ---- hop A: partkey semi-join (type filter kills most of the fact)
    def li_partials(t: pa.Table) -> pa.Table:
        # Arrow-native hot kernel (see nation_trade_volume.li_partials)
        g = pa.table({
            "_k": pc.cast(t["l_partkey"], pa.int64()),
            "suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "rev4": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
        }).group_by(["_k", "suppkey", "orderkey"]).aggregate(
            [("rev4", "sum")])
        return pa.table({
            "_k": g["_k"], "suppkey": g["suppkey"],
            "orderkey": g["orderkey"], "rev4": g["rev4_sum"],
            "_side": pa.array(np.ones(len(g), np.int8)),
        })

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "_k": df["p_partkey"].to_numpy(np.int64),
            "suppkey": np.zeros(n, np.int64),
            "orderkey": np.zeros(n, np.int64),
            "rev4": np.zeros(n, np.int64),
            "_side": np.zeros(n, np.int8),
        })

    hop_a = li.map_batches(li_partials, batch_format="pyarrow").union(
        part.map_batches(part_rows, batch_format="pandas"))

    def join_part(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["_side"] == 0]["_k"].unique()
        f = df[df["_side"] == 1]
        f = f[f["_k"].isin(keep)]
        return (f.groupby(["suppkey", "orderkey"], as_index=False)
                ["rev4"].sum())

    by_supp = hash_groupby_apply(hop_a, ["_k"], join_part).materialize()

    # ---- hop B: suppkey join attaches the supplier's nation ----------
    def supp_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "suppkey": df["s_suppkey"].to_numpy(np.int64),
            "orderkey": np.zeros(n, np.int64),
            "rev4": np.zeros(n, np.int64),
            "s_nat": df["s_nationkey"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    def factb_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["suppkey", "orderkey", "rev4"]].copy()
        out["s_nat"] = np.full(len(df), -1, np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["suppkey", "orderkey", "rev4", "s_nat", "_side"]]

    hop_b = supp.map_batches(supp_rows, batch_format="pandas").union(
        by_supp.map_batches(factb_rows, batch_format="pandas"))

    def join_supp(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["_side"] == 0][["suppkey", "s_nat"]]
        f = df[df["_side"] == 1]
        j = f[["suppkey", "orderkey", "rev4"]].merge(s, on="suppkey")
        # collapse the group key to is-the-nation before the next hop
        j["is_nat"] = (j["s_nat"].to_numpy() == nation)
        return (j.groupby(["orderkey", "is_nat"], as_index=False)
                ["rev4"].sum())

    by_order = hash_groupby_apply(hop_b, ["suppkey"], join_supp) \
        .materialize()

    # ---- dimension chain (runs in PARALLEL with hops A-B): orders ⋈
    # region-filtered customers on custkey → (orderkey, year) for the
    # region's orders only. Joining the two dimensions first keeps the
    # critical path at three exchanges deep and shrinks the final hop's
    # dimension side by the region selectivity.
    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "custkey": df["o_custkey"].to_numpy(np.int64),
            "orderkey": df["o_orderkey"].to_numpy(np.int64),
            "year": df["o_orderdate"].dt.year.to_numpy(np.int64),
            "_side": np.ones(len(df), np.int8),
        })

    def cust_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "custkey": df["c_custkey"].to_numpy(np.int64),
            "orderkey": np.zeros(n, np.int64),
            "year": np.zeros(n, np.int64),
            "_side": np.zeros(n, np.int8),
        })

    dim_u = orders.map_batches(order_rows, batch_format="pandas").union(
        cust.map_batches(cust_rows, batch_format="pandas"))

    def join_cust(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["_side"] == 0]["custkey"].unique()
        o = df[df["_side"] == 1]
        return o.loc[o["custkey"].isin(keep), ["orderkey", "year"]]

    ord_dim = hash_groupby_apply(dim_u, ["custkey"], join_cust) \
        .materialize()

    # ---- hop C: orderkey join of the fact with the pre-joined,
    # region-filtered order dimension + final collapse ----------------
    def dim_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["orderkey", "year"]].copy()
        out["is_nat"] = np.full(len(df), False)
        out["rev4"] = np.zeros(len(df), np.int64)
        out["_side"] = np.zeros(len(df), np.int8)
        return out[["orderkey", "year", "is_nat", "rev4", "_side"]]

    def factc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["orderkey", "is_nat", "rev4"]].copy()
        out["year"] = np.zeros(len(df), np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["orderkey", "year", "is_nat", "rev4", "_side"]]

    hop_c = ord_dim.map_batches(dim_rows, batch_format="pandas").union(
        by_order.map_batches(factc_rows, batch_format="pandas"))

    def join_order(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["orderkey", "year"]]
        f = df[df["_side"] == 1]
        j = f[["orderkey", "is_nat", "rev4"]].merge(o, on="orderkey")
        return (j.groupby(["year", "is_nat"], as_index=False)
                ["rev4"].sum())

    parts = hash_groupby_apply(hop_c, ["orderkey"], join_order).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "o_year": pd.Series([], dtype=np.int64),
            "nation_revenue_c4": pd.Series([], dtype=np.int64),
            "total_revenue_c4": pd.Series([], dtype=np.int64),
            "mkt_share": pd.Series([], dtype=np.float64)})
    from .text_stats import round6_half_up

    agg = parts.groupby(["year", "is_nat"], as_index=False)["rev4"].sum()
    tot = agg.groupby("year", as_index=False)["rev4"].sum() \
        .rename(columns={"rev4": "total"})
    num = agg[agg["is_nat"]].groupby("year", as_index=False)["rev4"] \
        .sum().rename(columns={"rev4": "num"})
    out = tot.merge(num, on="year", how="left").fillna({"num": 0}) \
        .sort_values("year").reset_index(drop=True)
    share = round6_half_up(out["num"].to_numpy(np.float64)
                           / out["total"].to_numpy(np.float64))
    return pd.DataFrame({
        "o_year": out["year"].to_numpy(np.int64),
        "nation_revenue_c4": out["num"].to_numpy(np.int64),
        "total_revenue_c4": out["total"].to_numpy(np.int64),
        "mkt_share": share,
    })


def product_profit(sf_dir: str, name_prefix: str = "red"):
    """TPC-H Q9 (product type profit): per (supplier nation, order
    year) the total profit on parts whose name starts with
    ``name_prefix``. The testdata has no partsupp/supplycost, so cost
    is the part's retail price × quantity — profit per line is the
    all-integer ``price_c·(100−disc_c) − retail_c·qty_c`` in exact
    1e-4 currency units (every factor snapped to its own cents grid
    first, so both engines subtract identical integers). Returns
    (nation, o_year, profit_c4).

    Scale shape: the Q7/Q8 chained-exchange family — partkey hop
    (name-prefix semi-join + retail price attach), suppkey hop
    (nation), orderkey hop (year), each kernel re-aggregating map-side
    so hop traffic shrinks with the surviving key count."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_quantity", "l_extendedprice", "l_discount"],
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name",
                                           "p_retailprice"],
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_orderdate"],
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def li_rows(t: pa.Table) -> pa.Table:
        # profit is linear in (Σrev4, Σqty_c) for a fixed part, so the
        # fact pre-aggregates map-side before the exchange — Arrow-native
        # hot kernel (see nation_trade_volume.li_partials)
        g = pa.table({
            "_k": pc.cast(t["l_partkey"], pa.int64()),
            "suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "rev4": _rev4_arrow(t["l_extendedprice"], t["l_discount"]),
            "qty_c": _cents_arrow(t["l_quantity"]),
        }).group_by(["_k", "suppkey", "orderkey"]).aggregate(
            [("rev4", "sum"), ("qty_c", "sum")])
        n = len(g)
        return pa.table({
            "_k": g["_k"], "suppkey": g["suppkey"],
            "orderkey": g["orderkey"], "rev4": g["rev4_sum"],
            "qty_c": g["qty_c_sum"],
            "retail_c": pa.array(np.zeros(n, np.int64)),
            "_side": pa.array(np.ones(n, np.int8)),
        })

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        m = df["p_name"].str.startswith(name_prefix).to_numpy()
        df = df[m]
        n = len(df)
        return pd.DataFrame({
            "_k": df["p_partkey"].to_numpy(np.int64),
            "suppkey": np.zeros(n, np.int64),
            "orderkey": np.zeros(n, np.int64),
            "rev4": np.zeros(n, np.int64),
            "qty_c": np.zeros(n, np.int64),
            "retail_c": np.floor(df["p_retailprice"].to_numpy() * 100
                                 + 0.5).astype(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    hop_a = li.map_batches(li_rows, batch_format="pyarrow").union(
        part.map_batches(part_rows, batch_format="pandas"))

    def join_part(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["_side"] == 0][["_k", "retail_c"]] \
            .rename(columns={"retail_c": "rc"})
        f = df[df["_side"] == 1]
        j = f[["_k", "suppkey", "orderkey", "rev4", "qty_c"]] \
            .merge(p, on="_k")  # inner: non-matching parts die here
        # profit in 1e-4 units: rev4 is cents·percent = 1e-4; cost is
        # retail cents × qty cents = 1e-4 of currency·quantity
        j["profit4"] = j["rev4"].to_numpy() \
            - j["rc"].to_numpy() * j["qty_c"].to_numpy()
        return (j.groupby(["suppkey", "orderkey"], as_index=False)
                ["profit4"].sum())

    by_supp = hash_groupby_apply(hop_a, ["_k"], join_part).materialize()

    def supp_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "suppkey": df["s_suppkey"].to_numpy(np.int64),
            "orderkey": np.zeros(n, np.int64),
            "profit4": np.zeros(n, np.int64),
            "s_nat": df["s_nationkey"].to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    def factb_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["suppkey", "orderkey", "profit4"]].copy()
        out["s_nat"] = np.full(len(df), -1, np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["suppkey", "orderkey", "profit4", "s_nat", "_side"]]

    hop_b = supp.map_batches(supp_rows, batch_format="pandas").union(
        by_supp.map_batches(factb_rows, batch_format="pandas"))

    def join_supp(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["_side"] == 0][["suppkey", "s_nat"]]
        f = df[df["_side"] == 1]
        j = f[["suppkey", "orderkey", "profit4"]].merge(s, on="suppkey")
        return (j.groupby(["orderkey", "s_nat"], as_index=False)
                ["profit4"].sum())

    by_order = hash_groupby_apply(hop_b, ["suppkey"], join_supp) \
        .materialize()

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "orderkey": df["o_orderkey"].to_numpy(np.int64),
            "s_nat": np.zeros(n, np.int64),
            "profit4": np.zeros(n, np.int64),
            "year": df["o_orderdate"].dt.year.to_numpy(np.int64),
            "_side": np.zeros(n, np.int8),
        })

    def factc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["orderkey", "s_nat", "profit4"]].copy()
        out["year"] = np.zeros(len(df), np.int64)
        out["_side"] = np.ones(len(df), np.int8)
        return out[["orderkey", "s_nat", "profit4", "year", "_side"]]

    hop_c = orders.map_batches(order_rows, batch_format="pandas").union(
        by_order.map_batches(factc_rows, batch_format="pandas"))

    def join_order(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["orderkey", "year"]]
        f = df[df["_side"] == 1]
        j = f[["orderkey", "s_nat", "profit4"]].merge(o, on="orderkey")
        return (j.groupby(["s_nat", "year"], as_index=False)
                ["profit4"].sum())

    parts = hash_groupby_apply(hop_c, ["orderkey"], join_order).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "nation": pd.Series([], dtype=np.int64),
            "o_year": pd.Series([], dtype=np.int64),
            "profit_c4": pd.Series([], dtype=np.int64)})
    out = parts.groupby(["s_nat", "year"], as_index=False)["profit4"] \
        .sum().sort_values(["s_nat", "year"]).reset_index(drop=True)
    return pd.DataFrame({
        "nation": out["s_nat"].to_numpy(np.int64),
        "o_year": out["year"].to_numpy(np.int64),
        "profit_c4": out["profit4"].to_numpy(np.int64),
    })


#: declarative integrity contract for the testdata star schema:
#: (child table, FK column) -> (parent table, PK column), plus the key
#: columns that must be unique
INTEGRITY_FKS = (
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
)
INTEGRITY_UNIQUES = (
    ("customer", "c_custkey"),
    ("orders", "o_orderkey"),
    ("part", "p_partkey"),
    ("supplier", "s_suppkey"),
    ("documents", "doc_id"),
    ("embeddings", "vec_id"),
)


def _fk_check(sf_dir: str, child: str, ckey: str,
              parent: str, pkey: str) -> tuple[int, int]:
    """(child rows, child rows whose key has no parent) via ONE
    key-hash exchange of map-side-reduced (key, child_n, parent_seen)
    partials — traffic is key-domain-sized on both sides, never
    row-sized, and the anti-join happens where the key co-locates."""
    from ..index.hash_partition import hash_groupby_apply

    def cpart(t: pa.Table) -> pa.Table:
        k, n = np.unique(
            t[ckey].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True)
        return pa.table({"key": pa.array(k),
                         "child_n": pa.array(n.astype(np.int64)),
                         "parent_seen": pa.array(np.zeros(len(k), np.int64))})

    def ppart(t: pa.Table) -> pa.Table:
        k = np.unique(
            t[pkey].to_numpy(zero_copy_only=False).astype(np.int64))
        z = np.zeros(len(k), np.int64)
        return pa.table({"key": pa.array(k), "child_n": pa.array(z),
                         "parent_seen": pa.array(np.ones(len(k), np.int64))})

    u = table_ds(sf_dir, child, [ckey]).map_batches(
        cpart, batch_format="pyarrow").union(
        table_ds(sf_dir, parent, [pkey]).map_batches(
            ppart, batch_format="pyarrow"))

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("key", sort=False).agg(
            child_n=("child_n", "sum"), parent_seen=("parent_seen", "sum"))
        return pd.DataFrame({
            "n": [int(g["child_n"].sum())],
            "violations": [int(g.loc[g["parent_seen"] == 0,
                                     "child_n"].sum())],
        })

    tiny = hash_groupby_apply(u, ["key"], per_part).to_pandas()
    return int(tiny["n"].sum()), int(tiny["violations"].sum())


def _unique_check(sf_dir: str, table: str, key: str) -> tuple[int, int]:
    """(rows, keys appearing more than once) — per-batch value_counts
    partials through one key-hash exchange."""
    from .agg import hash_groupby_sum

    def part(t: pa.Table) -> pa.Table:
        k, n = np.unique(
            t[key].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True)
        return pa.table({"key": pa.array(k),
                         "n_part": pa.array(n.astype(np.int64))})

    tot = hash_groupby_sum(
        table_ds(sf_dir, table, [key]).map_batches(
            part, batch_format="pyarrow"),
        ["key"], {"n": ("n_part", "sum")})

    def summarize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"n": pa.array([int(n.sum())]),
                         "violations": pa.array([int((n > 1).sum())])})

    tiny = tot.map_batches(summarize, batch_format="pyarrow").to_pandas()
    return int(tiny["n"].sum()), int(tiny["violations"].sum())


def integrity_check(sf_dir: str) -> pd.DataFrame:
    """Data-validation audit over the whole star schema — the ingest
    gate a production pipeline runs before anything downstream trusts
    the tables: every declared foreign key (child rows whose key is
    missing from the parent) and every declared unique key (keys with
    duplicates). Returns one row per constraint:
    (check_name, n, violations) with n = rows checked.

    Scale shape: each constraint is ONE key-hash exchange of map-side
    value_counts partials (key-domain-sized, never row-sized); the
    violation counts reduce to one row per partition, so the driver sees
    P rows per constraint. Constraints are independent — they pipeline
    through the session concurrently. Reference parity: none
    (beyond-reference; data validation for the LLM-pipeline surface)."""
    rows = []
    for child, ckey, parent, pkey in INTEGRITY_FKS:
        n, v = _fk_check(sf_dir, child, ckey, parent, pkey)
        rows.append((f"{child}.{ckey}->{parent}.{pkey}", n, v))
    for table, key in INTEGRITY_UNIQUES:
        n, v = _unique_check(sf_dir, table, key)
        rows.append((f"{table}.{key} unique", n, v))
    return pd.DataFrame({
        "check_name": pd.Series([r[0] for r in rows], dtype=object),
        "n": pd.Series([r[1] for r in rows], dtype=np.int64),
        "violations": pd.Series([r[2] for r in rows], dtype=np.int64),
    })


def shipment_priority(sf_dir: str, late_days: int = 60,
                      date_lo: str = "1996-01-01",
                      date_hi: str = "1998-01-01") -> pd.DataFrame:
    """TPC-H Q12 (shipping modes and order priority): for LATE lines
    shipped in a date window, count per line status how many belong to
    high-priority orders (1-URGENT / 2-HIGH) vs everything else. (The
    testdata has no shipmode/commit/receipt columns, so the group key is
    l_linestatus and "late" is l_shipdate strictly more than
    ``late_days`` past o_orderdate — the same exact integer-microsecond
    lateness contract as suppliers_kept_waiting / order_priority_late.)
    Returns (l_linestatus, high_line_count, low_line_count) sorted by
    status.

    Scale shape: the shipdate window is pushed into the lineitem scan;
    lateness needs the order's own date, so the fact rows cross ONE
    orderkey exchange tagged-union with the (orderkey, priority-flag,
    orderdate) order rows — raw lineitems move once, orders move once.
    The per-partition kernel joins, applies the lateness compare, and
    collapses to (linestatus, high, low) partials, so the driver merge
    is bounded by 2×P rows. Reference parity: none (beyond-reference;
    relational surface for the LLM-pipeline family)."""
    import pyarrow.dataset as pads

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    lo = pa.scalar(pd.Timestamp(date_lo), pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp(date_hi), pa.timestamp("us"))
    lpath = f"{sf_dir}/lineitem.parquet"
    li = ray.data.read_parquet(
        lpath, columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
               & (pads.field("l_shipdate") < hi),
        override_num_blocks=_read_blocks(lpath, target_rows=20_000),
    )
    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def li_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "_k": df["l_orderkey"].to_numpy(np.int64),
            "status": df["l_linestatus"].to_numpy(object),
            "t_us": df["l_shipdate"].astype("datetime64[us]")
            .astype(np.int64),
            "high": np.zeros(len(df), np.int8),
            "_side": np.ones(len(df), np.int8),
        })

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        prio = df["o_orderpriority"].to_numpy(object)
        high = np.isin(prio, ("1-URGENT", "2-HIGH")).astype(np.int8)
        return pd.DataFrame({
            "_k": df["o_orderkey"].to_numpy(np.int64),
            # keep the union schema's string type (never read on this side)
            "status": pd.Series([""] * len(df), dtype=object),
            "t_us": df["o_orderdate"].astype("datetime64[us]")
            .astype(np.int64),
            "high": high,
            "_side": np.zeros(len(df), np.int8),
        })

    u = li.map_batches(li_rows, batch_format="pandas").union(
        orders.map_batches(order_rows, batch_format="pandas"))
    late_us = np.int64(late_days) * 86_400_000_000

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["_side"] == 0][["_k", "t_us", "high"]].rename(
            columns={"t_us": "odate_us"})
        f = df[df["_side"] == 1][["_k", "status", "t_us"]]
        j = f.merge(o, on="_k")
        j = j[j["t_us"].to_numpy() > j["odate_us"].to_numpy() + late_us]
        if len(j) == 0:
            return pd.DataFrame({
                "status": pd.Series([], dtype=object),
                "high_part": pd.Series([], dtype=np.int64),
                "low_part": pd.Series([], dtype=np.int64)})
        hi_ = j["high"].to_numpy(np.int64)
        g = (pd.DataFrame({"status": j["status"].to_numpy(object),
                           "high_part": hi_, "low_part": 1 - hi_})
             .groupby("status", as_index=False).sum())
        return g

    tiny = hash_groupby_apply(u, ["_k"], count_partials).to_pandas()
    out = (tiny.groupby("status", as_index=False)[["high_part", "low_part"]]
           .sum().sort_values("status").reset_index(drop=True))
    return pd.DataFrame({
        "l_linestatus": out["status"].astype(object),
        "high_line_count": out["high_part"].to_numpy(np.int64),
        "low_line_count": out["low_part"].to_numpy(np.int64),
    })


def revenue_trend(sf_dir: str) -> pd.DataFrame:
    """Time-series TREND FIT over monthly order revenue: exact-cents
    revenue per calendar month, then the closed-form OLS line
    y = a + b·t over (month index, revenue) — the capacity-planning /
    monitoring regression a pipeline runs on its own output. Returns
    ONE row (n_months, slope, intercept, next_forecast), slope/intercept
    on the shared 6 dp grid in whole currency units per month.

    Scale shape: the fact table reduces map-side to (month, cents)
    partials into a month-domain-bounded aggregate (one tiny exchange);
    the OLS moments Σt, Σy, Σty, Σt² are EXACT integers over that
    bounded aggregate, so both engines divide identical doubles —
    everything after the aggregate is O(months), not O(rows).
    Reference parity: none (beyond-reference; analytics surface)."""
    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import _read_blocks

    opath = f"{sf_dir}/orders.parquet"
    orders = ray.data.read_parquet(
        opath, columns=["o_orderdate", "o_totalprice"],
        override_num_blocks=_read_blocks(opath, target_rows=20_000),
    )

    def month_partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].astype("datetime64[us]")
        ym = d.dt.year.to_numpy(np.int64) * 12 + d.dt.month.to_numpy(np.int64)
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = (pd.DataFrame({"ym": ym, "cents": cents})
             .groupby("ym", as_index=False)["cents"].sum())
        return g.rename(columns={"cents": "c_part"})

    def month_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("ym", as_index=False)["c_part"].sum()

    monthly = hash_groupby_apply(
        orders.map_batches(month_partials, batch_format="pandas"),
        ["ym"], month_sum).to_pandas()  # bounded by the month domain
    monthly = monthly.sort_values("ym").reset_index(drop=True)
    n = len(monthly)
    t = np.arange(n, dtype=np.int64)
    y = monthly["c_part"].to_numpy(np.int64)
    # OLS from exact integer moments — identical doubles on both engines
    st, sy = int(t.sum()), int(y.sum())
    sty = int((t * y).sum())
    stt = int((t * t).sum())
    den = float(n * stt - st * st)
    slope_c = (n * sty - st * sy) / den
    intercept_c = (sy - slope_c * st) / n
    from .text_stats import round6_half_up

    def r6(x: float) -> float:
        return float(round6_half_up(np.array([x]))[0])

    return pd.DataFrame([{
        "n_months": np.int64(n),
        "slope": r6(slope_c / 100.0),
        "intercept": r6(intercept_c / 100.0),
        "next_forecast": r6((intercept_c + slope_c * n) / 100.0),
    }])
