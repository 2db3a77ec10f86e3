"""hash_groupby_* must equal a global pandas groupby for any key mix."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from searchenginepp_ray.pipelines.hash_partition import hash_groupby_apply
from searchenginepp_ray.pipelines.agg import hash_groupby_sum


def test_hash_groupby_sum_equals_global_groupby(ray_session):
    rng = np.random.default_rng(7)
    n = 20_000
    df = pd.DataFrame(
        {
            "k_str": rng.choice([f"key{i}" for i in range(997)], n),
            "k_int": rng.integers(-50, 50, n),
            "v1": rng.integers(0, 1000, n),
            "v2": rng.random(n),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = (
        hash_groupby_sum(
            ds, ["k_str", "k_int"],
            {"s1": ("v1", "sum"), "mn": ("v1", "min"),
             "cnt": ("v1", "count"), "s2": ("v2", "sum")},
        )
        .to_pandas()
        .sort_values(["k_str", "k_int"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["k_str", "k_int"], as_index=False)
        .agg(s1=("v1", "sum"), mn=("v1", "min"), cnt=("v1", "count"),
             s2=("v2", "sum"))
        .sort_values(["k_str", "k_int"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert got[["k_str", "k_int", "s1", "mn", "cnt"]].equals(
        want[["k_str", "k_int", "s1", "mn", "cnt"]]
    )
    # float sums: partition-local addition order differs from pandas's —
    # equal to rounding
    assert np.allclose(got["s2"], want["s2"], rtol=0, atol=1e-9)


def test_hash_groupby_apply_custom_fn(ray_session):
    df = pd.DataFrame({"k": list("ababcc"), "v": [1, 2, 3, 4, 5, 6]})
    ds = ray.data.from_pandas(df).repartition(3)

    def fn(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("k", as_index=False).agg(top2=("v", lambda s: int(s.nlargest(2).sum())))

    got = hash_groupby_apply(ds, ["k"], fn).to_pandas().sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == ["a", "b", "c"]
    assert got["top2"].tolist() == [4, 6, 11]
