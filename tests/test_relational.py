"""shuffle_join vs a global pandas merge (integer and string keys), and
top_supplier_revenue vs pandas and on an engineered all-way tie."""

import numpy as np
import pandas as pd
import ray.data

from searchenginepp_ray.pipelines.relational import shuffle_join


def test_shuffle_join_equals_pandas_merge(ray_session):
    rng = np.random.default_rng(11)
    # skewed keys, keys missing from each side, duplicate keys both sides
    left = pd.DataFrame(
        {"lk": rng.choice(200, 5000, p=None), "lv": rng.random(5000),
         "ltag": rng.choice(["a", "b"], 5000)}
    )
    right = pd.DataFrame(
        {"rk": np.concatenate([rng.choice(150, 3000), np.array([0] * 500)]),
         "rv": rng.integers(0, 9, 3500)}
    )
    got = (
        shuffle_join(
            ray.data.from_pandas(left).repartition(6),
            ray.data.from_pandas(right).repartition(4),
            "lk", "rk", ["lv", "ltag"], ["rv"],
        )
        .to_pandas()
        .sort_values(["lk", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="lk", right_on="rk")
        .drop(columns=["rk"])
        .sort_values(["lk", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_shuffle_join_string_keys(ray_session):
    left = pd.DataFrame({"lk": ["a", "b", "b", "c"], "lv": [1, 2, 3, 4]})
    right = pd.DataFrame({"rk": ["b", "c", "c", "x"], "rv": [10, 20, 30, 40]})
    got = (
        shuffle_join(
            ray.data.from_pandas(left).repartition(2),
            ray.data.from_pandas(right).repartition(2),
            "lk", "rk", ["lv"], ["rv"],
        )
        .to_pandas()
        .sort_values(["lk", "lv", "rv"]).reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="lk", right_on="rk").drop(columns=["rk"])
        .sort_values(["lk", "lv", "rv"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_top_supplier_revenue_matches_pandas(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.relational import top_supplier_revenue

    lo, hi = "1996-01-01", "1996-04-01"
    got = top_supplier_revenue(sf_dir, lo, hi)

    li = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    li = li[(li["l_shipdate"] >= pd.Timestamp(lo))
            & (li["l_shipdate"] < pd.Timestamp(hi))]
    p = np.floor(li["l_extendedprice"].to_numpy() * 100 + 0.5).astype(np.int64)
    d = np.floor(li["l_discount"].to_numpy() * 100 + 0.5).astype(np.int64)
    per = li.assign(rev=p * (100 - d)).groupby("l_suppkey")["rev"].sum()
    best = per.max()
    winners = sorted(per[per == best].index.tolist())
    assert got["s_suppkey"].tolist() == winners
    assert (got["total_revenue_c4"] == best).all()
    sup = pd.read_parquet(f"{sf_dir}/supplier.parquet")
    names = sup.set_index("s_suppkey")["s_name"]
    assert got["s_name"].tolist() == [names[w] for w in winners]


def test_top_supplier_revenue_keeps_ties(ray_session, tmp_path):
    """Two suppliers engineered to the same exact total must both
    appear (per-partition argmax can't drop a cross-partition tie)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.relational import top_supplier_revenue

    d = tmp_path / "sf"
    d.mkdir()
    n = 400
    li = pa.table({
        "l_suppkey": pa.array([i % 100 for i in range(n)], pa.int64()),
        "l_extendedprice": pa.array([10.0] * n),
        "l_discount": pa.array([0.0] * n),
        "l_shipdate": pa.array([pd.Timestamp("1996-02-01")] * n,
                               pa.timestamp("us")),
    })
    pq.write_table(li, d / "lineitem.parquet", row_group_size=64)
    supp = pa.table({
        "s_suppkey": pa.array(list(range(100)), pa.int64()),
        "s_name": pa.array([f"S{i:03d}" for i in range(100)]),
    })
    pq.write_table(supp, d / "supplier.parquet")
    got = top_supplier_revenue(str(d), "1996-01-01", "1996-04-01")
    # every supplier has identical revenue: ALL 100 are winners
    assert got["s_suppkey"].tolist() == list(range(100))
    assert got["s_name"].tolist() == [f"S{i:03d}" for i in range(100)]
    assert (got["total_revenue_c4"] == 4 * 1000 * 100).all()

