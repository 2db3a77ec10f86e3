"""Semi/anti joins (vs pandas isin) and the stratified sample's per-stratum
rates and determinism."""

import numpy as np
import pandas as pd
import ray.data


def test_semi_and_anti_join(ray_session):
    from searchenginepp_ray.pipelines.relational import shuffle_semi_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 100, 2000),
                         "v": rng.random(2000)})
    right = pd.DataFrame({"rk": rng.integers(50, 150, 500)})
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(3)
    for anti in (False, True):
        got = shuffle_semi_join(lds, rds, "k", "rk", ["v"], anti=anti).to_pandas()
        m = left["k"].isin(right["rk"].unique())
        want = left[~m if anti else m]
        assert len(got) == len(want)
        assert sorted(got["v"].tolist()) == sorted(want["v"].tolist())


def test_stratified_sample_rates_and_determinism(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.sample import stratified_sample

    a = stratified_sample(sf_dir).to_pandas()
    b = stratified_sample(sf_dir).to_pandas()
    # deterministic: identical membership across runs
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # strata rates: en is downsampled ~0.1, everything else ~0.5
    full = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    n_en_full = int((full["lang"] == "en").sum())
    n_en = int((a["lang"] == "en").sum())
    assert n_en < n_en_full * 0.3
    n_rest_full = int((full["lang"] != "en").sum())
    n_rest = int((a["lang"] != "en").sum())
    assert 0.25 * n_rest_full < n_rest < 0.75 * n_rest_full
