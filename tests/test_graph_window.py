"""PageRank (vs a local numpy power iteration and the DuckDB unrolled
recurrence), semi/anti joins (vs pandas isin), running window functions
and exact grouped distinct (vs DuckDB window/DISTINCT SQL)."""

import duckdb
import numpy as np
import pandas as pd
import ray.data

from searchenginepp_ray.pipelines.graph import pagerank


def _numpy_pagerank(edges: pd.DataFrame, d: float, iters: int) -> pd.DataFrame:
    e = edges.drop_duplicates(["src", "dst"])
    nodes = np.unique(e["src"].to_numpy())
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    deg = e.groupby("src").size()
    r = np.full(N, 1.0 / N)
    src = e["src"].map(idx).to_numpy()
    dst = e["dst"].map(idx).to_numpy()
    w = 1.0 / deg.loc[e["src"]].to_numpy()
    for _ in range(iters):
        contrib = np.zeros(N)
        np.add.at(contrib, dst, r[src] * w)
        r = (1 - d) / N + d * contrib
    return pd.DataFrame({"node": nodes, "pr": r})


def test_pagerank_matches_power_iteration(ray_session):
    rng = np.random.default_rng(7)
    # random symmetric graph with a few heavy hubs
    a = rng.integers(0, 60, 800)
    b = (a + rng.integers(1, 59, 800)) % 60
    e = pd.DataFrame({"src": np.r_[a, b], "dst": np.r_[b, a]})
    got = (
        pagerank(ray.data.from_pandas(e).repartition(5), damping=0.85, iters=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    want = _numpy_pagerank(e, 0.85, 4).sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == want["node"].tolist()
    np.testing.assert_allclose(got["pr"], want["pr"], rtol=1e-12)
    # a proper distribution: ranks sum to ~1 on a symmetric graph
    assert abs(got["pr"].sum() - 1.0) < 1e-9


def test_part_pagerank_matches_duckdb(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.graph import part_pagerank
    from searchenginepp_ray.pipelines.oracle_sql import part_pagerank_sql

    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{sf_dir}/lineitem.parquet'")
    got = part_pagerank(sf_dir).to_pandas().sort_values("part_key")
    want = con.execute(part_pagerank_sql()).df().sort_values("part_key")
    assert got["part_key"].tolist() == want["part_key"].tolist()
    np.testing.assert_allclose(got["pagerank"], want["pagerank"], atol=1e-10)


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


def test_running_window_and_distinct_match_duckdb(ray_session, sf_dir):
    from searchenginepp_ray.pipelines.events import (
        event_user_distinct,
        user_value_running,
    )
    from searchenginepp_ray.pipelines.oracle_sql import (
        event_user_distinct_sql,
        user_value_running_sql,
    )

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")

    got = user_value_running(sf_dir).to_pandas().sort_values("event_id")
    want = con.execute(user_value_running_sql()).df().sort_values("event_id")
    assert got["event_id"].tolist() == want["event_id"].tolist()
    # exact: integer cents carry no float reorder noise
    assert got["cum_value_cents"].tolist() == want["cum_value_cents"].tolist()
    pd.testing.assert_series_equal(
        got["prev_value"].reset_index(drop=True),
        want["prev_value"].reset_index(drop=True),
        check_dtype=False,
    )

    got_d = event_user_distinct(sf_dir).to_pandas().sort_values("event_type")
    want_d = con.execute(event_user_distinct_sql()).df().sort_values("event_type")
    assert got_d["n_users"].tolist() == want_d["n_users"].tolist()


def test_event_user_distinct_hll_accuracy_and_oracle(ray_session, sf_dir):
    """The grouped HLL sketch: (a) bit-identical to its SQL oracle —
    the property that makes it hash-checkable unlike the xxhash-based
    corpus sketch — and (b) within the ~3·1.04/√512 ≈ 14% error bound
    of the exact distinct counts."""
    import duckdb

    from searchenginepp_ray.pipelines.events import (
        event_user_distinct, event_user_distinct_hll)
    from searchenginepp_ray.pipelines.oracle_sql import \
        event_user_distinct_hll_sql

    got = (event_user_distinct_hll(sf_dir).to_pandas()
           .sort_values("event_type").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf_dir}/events.parquet')")
    want = (con.execute(event_user_distinct_hll_sql()).df()
            .sort_values("event_type").reset_index(drop=True))
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["zero_registers"].tolist() == \
        want["zero_registers"].astype(int).tolist()
    np.testing.assert_array_equal(got["hll_users"].to_numpy(),
                                  want["hll_users"].to_numpy())  # exact
    exact = (event_user_distinct(sf_dir).to_pandas()
             .sort_values("event_type").reset_index(drop=True))
    rel = np.abs(got["hll_users"].to_numpy()
                 / exact["n_users"].to_numpy() - 1.0)
    assert (rel < 0.14).all(), rel


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


def test_pagerank_bsp_equals_dataset_pagerank(ray_session):
    from searchenginepp_ray.pipelines.graph import pagerank_bsp

    rng = np.random.default_rng(13)
    a = rng.integers(0, 80, 1200)
    b = (a + rng.integers(1, 79, 1200)) % 80
    e = pd.DataFrame({"src": np.r_[a, b], "dst": np.r_[b, a]})
    eds = ray.data.from_pandas(e).repartition(6)
    got = (pagerank_bsp(eds, damping=0.85, iters=4, P=5)
           .to_pandas().sort_values("node").reset_index(drop=True))
    want = (pagerank(ray.data.from_pandas(e).repartition(6),
                     damping=0.85, iters=4)
            .to_pandas().sort_values("node").reset_index(drop=True))
    assert got["node"].tolist() == want["node"].tolist()
    np.testing.assert_allclose(got["pr"], want["pr"], rtol=1e-12)


def test_pagerank_bsp_seeded_equals_dataset(ray_session):
    """PERSONALIZED variant: BSP pool with seed-restricted init/teleport
    must match the Dataset-form pagerank(seed_mod=...) — the equivalence
    gate that lets part_pagerank_seeded serve from the BSP pool."""
    from searchenginepp_ray.pipelines.graph import pagerank_bsp

    rng = np.random.default_rng(29)
    a = rng.integers(0, 90, 1500)
    b = (a + rng.integers(1, 89, 1500)) % 90
    e = pd.DataFrame({"src": np.r_[a, b], "dst": np.r_[b, a]})
    got = (pagerank_bsp(ray.data.from_pandas(e).repartition(6),
                        damping=0.85, iters=4, P=5, seed_mod=7)
           .to_pandas().sort_values("node").reset_index(drop=True))
    want = (pagerank(ray.data.from_pandas(e).repartition(6),
                     damping=0.85, iters=4, seed_mod=7)
            .to_pandas().sort_values("node").reset_index(drop=True))
    assert got["node"].tolist() == want["node"].tolist()
    np.testing.assert_allclose(got["pr"], want["pr"], rtol=1e-12)
    # seed-restricted mass: non-seed nodes get no teleport, so a node
    # with no seeded in-neighbors at iters=0 would be 0; total mass ≈ 1
    np.testing.assert_allclose(got["pr"].sum(), 1.0, rtol=1e-9)


def test_triangle_census_star_graph_bounded_wedges(ray_session):
    """Skew guard: a celebrity hub (star of degree 2000) generates ZERO
    wedge work — the degree orientation points every spoke INTO the hub,
    so max per-task out-degree is 1 and the census stays exact. With a
    triangle grafted onto two spokes the work bound stays tiny and the
    count is exact."""
    from searchenginepp_ray.pipelines.graph import triangle_count

    n = 2000
    hub = np.zeros(n, np.int64)
    spokes = np.arange(1, n + 1, dtype=np.int64)
    star = pd.DataFrame({"a": hub, "b": spokes})
    got = triangle_count(ray.data.from_pandas(star).repartition(4),
                         report_skew=True)
    assert got["n_triangles"] == 0
    assert got["max_out_deg"] == 1  # hub emits nothing: all edges inbound
    assert got["n_wedges"] == 0

    # graft one triangle between spokes 1-2 (hub-1-2 also closes):
    # edges (1,2) added -> triangles {hub,1,2} via existing (0,1),(0,2)
    tri = pd.concat([star, pd.DataFrame({"a": [1], "b": [2]})],
                    ignore_index=True)
    got2 = triangle_count(ray.data.from_pandas(tri).repartition(4),
                          report_skew=True)
    assert got2["n_triangles"] == 1
    # per-task pair-expansion stays constant-bounded despite the hub
    assert got2["max_out_deg"] <= 2
    assert got2["n_wedges"] <= 3


def test_clustering_coefficients_constructed(ray_session):
    """Hand-checkable graph: K3 with a pendant + isolated edge.
    cc(K3 member with pendant) = 2·1/(3·2) = 1/3; pure K3 members = 1;
    pendant & isolated-edge nodes (deg < 2) = 0."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from searchenginepp_ray.pipelines.graph import clustering_coefficients

    edges = ray.data.from_arrow(pa.table({
        "a": pa.array([1, 1, 2, 1, 5], pa.int64()),
        "b": pa.array([2, 3, 3, 4, 6], pa.int64()),
    }))
    got = (clustering_coefficients(edges).to_pandas()
           .sort_values("node").reset_index(drop=True))
    want = pd.DataFrame({
        "node": [1, 2, 3, 4, 5, 6],
        "degree": [3, 2, 2, 1, 1, 1],
        "n_triangles": [1, 1, 1, 0, 0, 0],
        "cc": [1 / 3, 1.0, 1.0, 0.0, 0.0, 0.0],
    })
    want["cc"] = np.floor(want["cc"] * 1e6 + 0.5) / 1e6
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bfs_distances_hand_graph(ray_session):
    """Path graph 0-3-6-7-9 plus isolated pair (11,13): seeds = nodes
    % 3 == 0; distances match hand computation, unreached nodes within
    the round bound emit no row."""
    import pandas as pd
    import ray.data

    from searchenginepp_ray.pipelines.graph import bfs_distances

    und = [(0, 3), (3, 6), (6, 7), (7, 9), (11, 13)]
    edges = ray.data.from_items(
        [{"src": a, "dst": b} for a, b in und]
        + [{"src": b, "dst": a} for a, b in und])
    got = (bfs_distances(edges, seed_mod=3, rounds=2).to_pandas()
           .sort_values("node").reset_index(drop=True))
    # seeds: 0, 3, 6, 9 -> dist 0; 7 adjacent to 6 and 9 -> 1;
    # 11/13 unreached within 2 rounds (no seed in their component)
    want = pd.DataFrame({"node": [0, 3, 6, 7, 9],
                         "dist": [0, 0, 0, 1, 0]})
    assert got["node"].tolist() == want["node"].tolist()
    assert got["dist"].tolist() == want["dist"].tolist()


def test_part_components_constructed(ray_session, tmp_path):
    """Two disjoint co-purchase cliques → two components labeled by
    their min part key; single-part orders contribute no node."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.graph import part_components

    rows = [(1, 10), (1, 11), (2, 11), (2, 12),   # component {10,11,12}
            (3, 20), (3, 21),                     # component {20,21}
            (4, 99)]                              # lone part: no edges
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
    }), str(tmp_path / "lineitem.parquet"))
    got = (part_components(str(tmp_path)).to_pandas()
           .sort_values("part_key").reset_index(drop=True))
    want = pd.DataFrame({"part_key": [10, 11, 12, 20, 21],
                         "component": [10, 10, 10, 20, 20]})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bfs_bsp_equals_dataset_form(ray_session, sf_dir):
    """The edge-stationary BSP BFS returns the identical (node, dist)
    set as the Dataset-form relaxation on the real co-purchase graph."""
    import pandas as pd

    from searchenginepp_ray.pipelines import graph
    from searchenginepp_ray.pipelines.agg import hash_groupby_apply
    from searchenginepp_ray.pipelines.relational import table_ds

    li = table_ds(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_per_order(df):
        import numpy as np

        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return pd.DataFrame({
            "src": m["l_partkey_x"].to_numpy(dtype=np.int64),
            "dst": m["l_partkey_y"].to_numpy(dtype=np.int64)})

    edges = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    a = (graph.bfs_bsp(edges, seed_mod=31, rounds=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    edges2 = hash_groupby_apply(li, ["l_orderkey"], pairs_per_order)
    b = (graph.bfs_distances(edges2, seed_mod=31, rounds=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_session_duration_quantiles_matches_pandas(ray_session, sf_dir):
    """Histogram-interpolated quantiles == np.quantile over the exact
    per-session durations (sequential reference)."""
    from searchenginepp_ray.pipelines.events import session_duration_quantiles

    got = session_duration_quantiles(sf_dir)
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    ev = ev.sort_values(["user_id", "ts"], kind="stable")
    durs = []
    for _, g in ev.groupby("user_id"):
        t = (g["ts"].astype("int64") // 1_000_000).to_numpy()
        brk = np.flatnonzero(np.diff(t) > 1800) + 1
        for run in np.split(t, brk):
            durs.append(run[-1] - run[0])
    durs = np.array(durs, dtype=np.float64)
    assert int(got["n_sessions"].iloc[0]) == len(durs)
    for q in (0.25, 0.5, 0.75, 0.9, 0.99):
        want = round(float(np.quantile(durs, q)), 6)
        assert float(got[f"p{int(q * 100)}"].iloc[0]) == want, q


def test_part_recommendations_matches_pandas(ray_session):
    """Item-item cosine top-k == a sequential pandas reference. Runs at
    sf0.01 — multi-batch reads there exposed a per-batch (vs per-order)
    incidence dedup bug that sf0.001's single batch cannot see."""
    from searchenginepp_ray.pipelines.graph import part_recommendations
    from searchenginepp_ray.pipelines.text_stats import round6_half_up

    sf_dir = "/root/testdata/sf0.01"
    k, min_co = 5, 2
    got = (part_recommendations(sf_dir, k=k, min_co=min_co).to_pandas()
           .sort_values(["part_key", "rank"]).reset_index(drop=True))

    li = pd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    po = li.drop_duplicates()
    npart = po.groupby("l_partkey").size()
    m = po.merge(po, on="l_orderkey")
    m = m[m["l_partkey_x"] < m["l_partkey_y"]]
    co = m.groupby(["l_partkey_x", "l_partkey_y"]).size()
    co = co[co >= min_co]
    rows = []
    for (a, b), c in co.items():
        s = float(round6_half_up(
            np.array([c / np.sqrt(npart[a] * npart[b])]))[0])
        rows.append((a, b, s))
        rows.append((b, a, s))
    df = pd.DataFrame(rows, columns=["part_key", "rec_part", "score"])
    df = df.sort_values(["part_key", "score", "rec_part"],
                        ascending=[True, False, True], kind="mergesort")
    r = df.groupby("part_key").cumcount()
    want = df[r < k].assign(rank=(r[r < k] + 1).astype(np.int64))
    want = want.sort_values(["part_key", "rank"]).reset_index(drop=True)
    assert len(got) == len(want) and len(got) > 0
    for c in ["part_key", "rec_part", "rank", "score"]:
        assert got[c].tolist() == want[c].tolist(), c


def test_session_duration_quantiles_empty_corpus(ray_session, tmp_path):
    """Empty events table → one row with n_sessions=0 and NaN quantiles
    (the SQL oracle's NULLs), not an IndexError."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.events import session_duration_quantiles

    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string()),
    }), str(tmp_path / "events.parquet"))
    got = session_duration_quantiles(str(tmp_path))
    assert int(got["n_sessions"].iloc[0]) == 0
    assert np.isnan(got["p50"].iloc[0])


def test_seeded_pagerank_properties(ray_session):
    """Personalized PageRank vs a numpy reference on a random graph;
    seeds dominate, total mass == 1 (symmetric graph, no dangling)."""
    from searchenginepp_ray.pipelines.graph import pagerank

    rng = np.random.default_rng(23)
    a = rng.integers(0, 50, 700)
    b = (a + rng.integers(1, 49, 700)) % 50
    e = pd.DataFrame({"src": np.r_[a, b], "dst": np.r_[b, a]})
    mod = 7
    got = (pagerank(ray.data.from_pandas(e).repartition(4),
                    damping=0.85, iters=4, seed_mod=mod)
           .to_pandas().sort_values("node").reset_index(drop=True))

    ed = e.drop_duplicates()
    nodes = np.unique(ed["src"].to_numpy())
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    deg = ed.groupby("src").size()
    seeds = (nodes % mod == 0)
    ns = int(seeds.sum())
    r = np.where(seeds, 1.0 / ns, 0.0)
    srcs = ed["src"].map(idx).to_numpy()
    dsts = ed["dst"].map(idx).to_numpy()
    w = 1.0 / deg.loc[ed["src"]].to_numpy()
    for _ in range(4):
        contrib = np.zeros(N)
        np.add.at(contrib, dsts, r[srcs] * w)
        r = np.where(seeds, 0.15 / ns, 0.0) + 0.85 * contrib
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["pr"], r, rtol=1e-12)
    assert abs(got["pr"].sum() - 1.0) < 1e-9
    # personalization: mean seed rank far above mean non-seed rank
    assert got.loc[seeds, "pr"].mean() > 2 * got.loc[~seeds, "pr"].mean()


def test_price_quantiles_hdr_bounds_and_stability(ray_session, sf_dir):
    """The log-linear sketch's estimate is the selected bucket's lower
    bound, so the true rank value lies in [est, est·(1+1/m)); two runs
    agree exactly (counts-merge is commutative — rerun-stable by
    construction)."""
    import pyarrow.parquet as pq

    from searchenginepp_ray.pipelines.events import price_quantiles_hdr

    m = 16
    got = price_quantiles_hdr(sf_dir, m=m)
    again = price_quantiles_hdr(sf_dir, m=m)
    pd.testing.assert_frame_equal(got, again)

    x = pq.read_table(f"{sf_dir}/orders.parquet",
                      columns=["o_totalprice"])["o_totalprice"].to_numpy()
    cents = np.sort(np.floor(x * 100 + 0.5).astype(np.int64))
    cents = cents[cents > 0]
    n = len(cents)
    assert (got["n"] == n).all()
    for _, r in got.iterrows():
        true = int(cents[max(int(np.ceil(r["q"] * n)), 1) - 1])
        est = int(r["est_cents"])
        assert est <= true <= est * (1 + 1 / m) + 1, (r["q"], est, true)
