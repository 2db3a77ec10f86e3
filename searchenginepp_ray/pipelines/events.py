"""Stream-shaped operators over the ``events`` table
(event_id, ts, user_id, event_type, value, props).

Ray Data has no event-time windows; these implement the standard
batch-engine equivalents (tumbling windows = group by floor(ts/size);
sessionization = per-key sorted gap analysis inside ``map_groups``),
with the ordering assumption stated per function.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum


def events_ds(sf_dir: str, columns=None, types=None) -> ray.data.Dataset:
    """Pruned events read; ``types`` pushes an ``event_type IN (...)``
    row filter down to the parquet scan (row-group pruning + no
    filtered-out rows ever entering the pipeline)."""
    from .text_stats import _read_blocks

    path = f"{sf_dir}/events.parquet"
    flt = None
    if types is not None:
        import pyarrow.dataset as pads

        flt = pads.field("event_type").isin(list(types))
    return ray.data.read_parquet(
        path, columns=columns, filter=flt,
        override_num_blocks=_read_blocks(path, target_rows=20_000),
    )


def windowed_agg(sf_dir: str, window_s: int = 3600):
    """Tumbling-window aggregate per event_type: count, sum(value),
    min/max value per (event_type, window_start). Assumes nothing about
    input order — the window key is computed per row."""

    def partial(t: pa.Table) -> pa.Table:
        # map-side combiner: per-batch pre-aggregation shrinks the
        # shuffle from one row per event to one row per (type, window)
        # per batch — Arrow-native groupby (C kernel, no pandas
        # conversion on the event-sized side)
        import pyarrow.compute as pc

        epoch = pc.divide(pc.cast(t["ts"], pa.int64()),
                          pa.scalar(1_000_000, pa.int64()))  # µs → s
        win = pc.multiply(pc.divide(epoch, pa.scalar(window_s, pa.int64())),
                          pa.scalar(window_s, pa.int64()))
        g = pa.table({
            "event_type": t["event_type"],
            "window_start": win,
            "value": t["value"],
        }).group_by(["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum"),
             ("value", "min"), ("value", "max")])
        # select BY NAME (not positional rename): robust to pyarrow
        # changing key/aggregate column ordering across versions
        return pa.table({
            "event_type": g["event_type"],
            "window_start": g["window_start"],
            "n_part": g["value_count"],
            "sum_part": g["value_sum"],
            "min_part": g["value_min"],
            "max_part": g["value_max"],
        })

    from .agg import hash_groupby_sum

    return hash_groupby_sum(
        events_ds(sf_dir, ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"n_events": ("n_part", "sum"), "value_sum": ("sum_part", "sum"),
         "value_min": ("min_part", "min"), "value_max": ("max_part", "max")},
    )


def sliding_window_agg(sf_dir: str, window_s: int = 3600, slide_s: int = 900):
    """SLIDING-window aggregate per event_type: each event lands in every
    window of length ``window_s`` whose start is a multiple of
    ``slide_s`` and covers it (window_s/slide_s windows per event).
    Expansion + pre-aggregation happen map-side per batch, so the shuffle
    carries (type, window) partials, not the expanded events."""
    import numpy as np

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        epoch = (df["ts"].astype("int64") // 1_000_000).to_numpy()
        k_hi = epoch // slide_s
        k_lo = (epoch - window_s) // slide_s + 1
        counts = (k_hi - k_lo + 1).astype(np.int64)
        total = int(counts.sum())
        ends = np.cumsum(counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        k = np.repeat(k_lo, counts) + offs
        out = pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy().repeat(counts),
                "window_start": k * slide_s,
                "value": df["value"].to_numpy().repeat(counts),
            }
        )
        g = out.groupby(["event_type", "window_start"])["value"]
        res = g.agg(["count", "sum"]).reset_index()
        return res.rename(columns={"count": "n_part", "sum": "sum_part"})

    from ..index.hash_partition import hash_groupby_apply

    def agg_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_start"], as_index=False,
                       sort=False).agg(
            n_events=("n_part", "sum"), value_sum=("sum_part", "sum"))
        g["value_sum"] = g["value_sum"].round(4)
        return g

    return hash_groupby_apply(
        events_ds(sf_dir, ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pandas"),
        ["event_type", "window_start"], agg_fn,
    )


def _session_flags(df: pd.DataFrame, gap_s: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """THE session-boundary contract, shared by every sessionization
    consumer (sessionize, session_duration_quantiles): sort a partition
    by (user, ts), return (user, ts_seconds, new_sess flags) where a
    session breaks on user change or a gap strictly greater than
    ``gap_s`` whole seconds. One definition so the engines can't drift
    from the shared SQL oracle CTE."""
    df = df.sort_values(["user_id", "ts"], kind="stable")
    user = df["user_id"].to_numpy()
    ts = df["ts"].astype("int64").to_numpy() // 1_000_000  # µs → s
    n = len(user)
    new_user = np.empty(n, dtype=bool)
    new_user[0] = True
    new_user[1:] = user[1:] != user[:-1]
    gap_break = np.empty(n, dtype=bool)
    gap_break[0] = False
    gap_break[1:] = (ts[1:] - ts[:-1]) > gap_s
    return user, ts, new_user | gap_break


def quantile_cont(v: np.ndarray, cum: np.ndarray, qs) -> dict[str, float]:
    """quantile_cont interpolation over a cumulative histogram —
    ``{pNN: value}`` on the rounded 6 dp grid; the one definition both
    histogram-quantile readouts (value_quantiles,
    session_duration_quantiles) share. Empty histogram → NaNs (the SQL
    oracles' NULLs)."""
    out: dict[str, float] = {}
    n = int(cum[-1]) if len(cum) else 0
    for q in qs:
        if n == 0:
            out[f"p{int(q * 100)}"] = float("nan")
            continue
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        vlo = v[np.searchsorted(cum, lo, side="right")]
        vhi = v[np.searchsorted(cum, hi, side="right")]
        # shared half-up floor grid (NOT Python round(), which is
        # banker's rounding — DuckDB's ROUND() is half-away-from-zero,
        # so an interpolated value landing exactly on a .0000005
        # boundary would hash-mismatch cross-engine)
        x = vlo + (vhi - vlo) * (pos - lo)
        out[f"p{int(q * 100)}"] = float(np.floor(x * 1e6 + 0.5) / 1e6)
    return out


def sessionize(sf_dir: str, gap_s: int = 1800):
    """Per-user session count + longest session length (events within
    ``gap_s`` seconds of the previous event share a session). Ordering is
    established inside each partition (sort by user, ts), so input order
    is free — the partitioning assumption is only that one user's events
    land in one hash partition (guaranteed by the partition key).

    Scale shape: ONE vectorized pass per hash partition (sort → boundary
    flags → ``cumsum``/``bincount``/``reduceat``), not one Python call per
    user — per-user ``map_groups`` pays ~1 ms/group, which a user count
    that scales with the data cannot afford."""

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype=df["user_id"].dtype),
                 "n_events": pd.Series([], dtype=np.int64),
                 "n_sessions": pd.Series([], dtype=np.int64),
                 "max_session_events": pd.Series([], dtype=np.int64)}
            )
        user, ts, new_sess = _session_flags(df, gap_s)
        n = len(user)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = user[1:] != user[:-1]
        sess_id = np.cumsum(new_sess) - 1          # global session index
        sizes = np.bincount(sess_id)               # events per session
        user_starts = np.flatnonzero(new_user)     # first row of each user
        first_sess = sess_id[user_starts]          # sessions are user-contiguous
        n_sessions = np.diff(np.append(first_sess, sess_id[-1] + 1))
        max_sess = np.maximum.reduceat(sizes, first_sess)
        n_events = np.diff(np.append(user_starts, n))
        return pd.DataFrame(
            {
                "user_id": user[user_starts],
                "n_events": n_events.astype(np.int64),
                "n_sessions": n_sessions.astype(np.int64),
                "max_session_events": max_sess.astype(np.int64),
            }
        )

    from ..index.hash_partition import hash_groupby_apply

    return hash_groupby_apply(
        events_ds(sf_dir, ["user_id", "ts"]), ["user_id"], per_partition
    )


def event_transitions(sf_dir: str):
    """First-order Markov transition model over per-user event streams:
    for every (prev_type → next_type) pair of CONSECUTIVE events of the
    same user (ordered by ts, event_id — the same total order as
    ``user_value_running``), the global transition count and the
    conditional probability P(next | prev) on the shared 6 dp grid.

    Scale shape: one user-keyed exchange; each partition reduces its
    users' streams to per-pair counts in ONE vectorized pass (sort →
    same-user shift mask → pair groupby), so what leaves a partition is
    ≤ n_types² rows — the transition matrix, not the events. A second
    exchange on the TINY pair key space sums partials, and the per-prev
    normalization runs inside a prev-keyed kernel over ≤ n_types rows."""

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "prev_type": pd.Series([], dtype=object),
                "next_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64)})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        user = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = user[1:] == user[:-1]
        if not same.any():
            return pd.DataFrame({
                "prev_type": pd.Series([], dtype=object),
                "next_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64)})
        g = (pd.DataFrame({"prev_type": et[:-1][same],
                           "next_type": et[1:][same]})
             .groupby(["prev_type", "next_type"], as_index=False)
             .size().rename(columns={"size": "n"}))
        g["n"] = g["n"].astype(np.int64)
        return g

    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .text_stats import round6_half_up

    parts = hash_groupby_apply(
        events_ds(sf_dir, ["user_id", "ts", "event_id", "event_type"]),
        ["user_id"], per_partition)
    counts = hash_groupby_sum(parts, ["prev_type", "next_type"],
                              {"n": ("n", "sum")})

    def normalize(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "prev_type": pd.Series([], dtype=object),
                "next_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "prob": pd.Series([], dtype=np.float64)})
        out = df.copy()
        tot = out.groupby("prev_type")["n"].transform("sum").to_numpy()
        out["prob"] = round6_half_up(
            out["n"].to_numpy(dtype=np.float64) / tot)
        return out[["prev_type", "next_type", "n", "prob"]]

    return hash_groupby_apply(counts, ["prev_type"], normalize)


def asof_join(sf_dir: str, left_type: str = "purchase",
              right_type: str = "click"):
    """Event-time AS-OF join — the canonical operator Ray Data lacks:
    each ``left_type`` event is matched to the most recent ``right_type``
    event by the SAME user at-or-before its timestamp (left-join
    semantics; ties on the timestamp break to the larger event_id, so the
    result is deterministic even with duplicate timestamps). Unmatched
    left rows carry ``-1`` in the matched columns rather than NULL: the
    oracle comparison hashes a text canon, and nullable BIGINT round-trips
    through float64 (lossy at epoch-µs magnitudes) on the SQL side.

    Scale shape: both sides cross ONE hash exchange on ``user_id`` (the
    equality component of the as-of key — every user's events co-locate
    in exactly one partition), and the per-partition match is
    ``pandas.merge_asof``: a C-speed binary-search walk over the sorted
    right side, no per-row Python. Timestamps are emitted as epoch
    microseconds (BIGINT) so the oracle comparison is precision-exact."""
    from ..index.hash_partition import hash_groupby_apply

    out_cols = ["event_id", "user_id", "ts_us", "matched_event_id",
                "matched_ts_us", "gap_us"]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(ts_us=df["ts"].astype("int64"))
        l = df.loc[df["event_type"] == left_type,
                   ["event_id", "user_id", "ts_us"]]
        r = df.loc[df["event_type"] == right_type,
                   ["event_id", "user_id", "ts_us"]]
        if len(l) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in out_cols})
        r = r.rename(columns={"event_id": "matched_event_id"})
        r["matched_ts_us"] = r["ts_us"]
        # merge_asof keeps the LAST right row among equal on-values: the
        # (ts, event_id) sort makes that the largest event_id — the
        # deterministic tie-break the oracle's window spec mirrors
        j = pd.merge_asof(
            l.sort_values("ts_us", kind="stable"),
            r.sort_values(["ts_us", "matched_event_id"], kind="stable"),
            on="ts_us", by="user_id", direction="backward",
        )
        j["gap_us"] = j["ts_us"] - j["matched_ts_us"]
        for c in ("matched_event_id", "matched_ts_us", "gap_us"):
            j[c] = j[c].fillna(-1).astype(np.int64)
        return j[out_cols]

    return hash_groupby_apply(
        events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"],
                  types=[left_type, right_type]),
        ["user_id"], per_partition,
    )


def range_join(sf_dir: str, window_s: int = 86_400,
               left_type: str = "purchase", right_type: str = "click"):
    """Event-time RANGE (band) join: every (left, right) pair of events
    by the same user where the right event falls in the trailing window
    ``[left.ts - window_s, left.ts]`` — inner-join semantics, one output
    row per qualifying pair.

    Scale shape: like :func:`asof_join`, ONE hash exchange on ``user_id``
    co-locates each user's events; the per-partition band join runs in
    the process-local single-threaded DuckDB connection
    (:mod:`..pipelines.duck`) — its IEJoin-style inequality join is the
    C-speed kernel Arrow/pandas lack, and Ray owns all parallelism. The
    window bound keeps per-pair fan-out finite (no unwindowed cross
    products reach the exchange)."""
    from ..index.hash_partition import hash_groupby_apply
    from .duck import connection

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(ts_us=df["ts"].astype("int64"))
        sides = {t: df.loc[df["event_type"] == t,
                           ["event_id", "user_id", "ts_us"]]
                 for t in (left_type, right_type)}
        con = connection()
        con.register("_sepp_rj_l", sides[left_type])
        con.register("_sepp_rj_r", sides[right_type])
        out = con.execute(
            f"""SELECT l.event_id, l.user_id,
                       r.event_id AS matched_event_id,
                       l.ts_us - r.ts_us AS gap_us
                FROM _sepp_rj_l l JOIN _sepp_rj_r r
                  ON l.user_id = r.user_id
                 AND r.ts_us BETWEEN l.ts_us - {int(window_s) * 1_000_000}
                                 AND l.ts_us"""
        ).df()
        return out

    return hash_groupby_apply(
        events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"],
                  types=[left_type, right_type]),
        ["user_id"], per_partition,
    )


def top_events_per_user(sf_dir: str, k: int = 2):
    """Grouped top-k at data-scaling key cardinality: each user's ``k``
    highest-value events, ranked (ties on value break to the smaller
    event_id — deterministic).

    Scale shape: a map-side PARTIAL top-k inside every batch first (at
    most ``k`` rows per user per batch cross the wire), then one hash
    exchange on ``user_id`` and a vectorized per-partition final top-k —
    the grouped analogue of the scorer's top-k heap (SURVEY §2.6 O-family
    / A7), with no global sort anywhere."""
    from ..index.hash_partition import hash_groupby_apply

    order = dict(by=["user_id", "value", "event_id"],
                 ascending=[True, False, True], kind="stable")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(**order).groupby("user_id", sort=False).head(k)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(**order)
        out = df.groupby("user_id", sort=False).head(k).copy()
        out["rnk"] = out.groupby("user_id", sort=False).cumcount() + 1
        out["rnk"] = out["rnk"].astype(np.int64)
        return out[["user_id", "rnk", "event_id", "value"]]

    return hash_groupby_apply(
        events_ds(sf_dir, ["event_id", "user_id", "value"])
        .map_batches(partial, batch_format="pandas"),
        ["user_id"], final,
    )


def value_quantiles(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Exact per-event_type value quantiles (quantile_cont semantics:
    linear interpolation over the sorted multiset).

    Scale shape: values are 2-decimal fixed-point, so the exchange
    carries a HISTOGRAM — per-batch ``value_counts`` of (type, cents)
    partials into a hash-partitioned sum — whose size is bounded by the
    value DOMAIN, not the row count. The quantile is then interpolated
    from each type's cumulative histogram in one vectorized pass. This is
    the exact-quantile shape that never sorts or co-locates the raw
    rows (an all-to-all over data-scaling values would)."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"], "cents": cents})
            .groupby(["event_type", "cents"], sort=False)
            .size()
            .reset_index(name="n_part")
        )
        return g

    hist = hash_groupby_sum(
        events_ds(sf_dir, ["event_type", "value"])
        .map_batches(partial, batch_format="pandas"),
        ["event_type", "cents"], {"n": ("n_part", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for typ, g in df.groupby("event_type", sort=False):
            g = g.sort_values("cents")
            v = g["cents"].to_numpy() / 100.0
            cum = np.cumsum(g["n"].to_numpy())
            row = {"event_type": typ, "n_events": np.int64(cum[-1])}
            row.update(quantile_cont(v, cum, qs))
            out.append(row)
        return pd.DataFrame(out)

    # event_type cardinality is tiny; the per-type histogram rows must
    # co-locate once for the cumulative pass (bounded by the value domain)
    return hash_groupby_apply(hist, ["event_type"], finish)


def price_quantiles_hdr(sf_dir: str, m: int = 16,
                        qs: tuple = (0.25, 0.5, 0.9, 0.99)):
    """Log-linear HISTOGRAM quantile sketch over an unbounded numeric
    column (orders.o_totalprice in cents) — the HdrHistogram/DDSketch
    family's scale path for quantiles where :func:`value_quantiles`'
    exact value-domain histogram would blow up: bucket
    ``(e, s) = (floor(log2(x)), floor((x/2^e − 1)·m))`` bounds relative
    error by 1/(2m) while the exchange carries COUNTS over at most
    64·m buckets regardless of row count, and counts-merge is
    commutative — rerun- and partition-order-stable by construction.

    Exact cross-engine parity with no transcendental hazard: the
    exponent comes from the binary digit count (numpy ``frexp`` /
    DuckDB ``length(printf('%b', c))``) and every remaining op
    (power-of-two divide, subtract, ×m, floor) is exact in IEEE
    doubles, so the whole sketch — bucketing, cumulative rank pick at
    ``ceil(q·n)``, and the ``floor((1 + s/m)·2^e)`` representative —
    is oracle-HASH-checked, not just bounded. Returns
    (q, est_cents, n)."""
    from .agg import hash_groupby_sum
    from .relational import table_ds

    def partial(t: pa.Table) -> pa.Table:
        x = t["o_totalprice"].to_numpy(zero_copy_only=False)
        c = np.floor(x * 100 + 0.5).astype(np.int64)
        c = c[c > 0]
        if not len(c):
            return pa.table({"bid": pa.array([], pa.int64()),
                             "cnt_part": pa.array([], pa.int64())})
        cf = c.astype(np.float64)  # exact: cents < 2^53
        e = (np.frexp(cf)[1] - 1).astype(np.int64)  # floor(log2(c)), exact
        s = np.floor((cf / np.exp2(e.astype(np.float64)) - 1.0) * m) \
            .astype(np.int64)
        u, counts = np.unique(e * m + s, return_counts=True)
        return pa.table({"bid": pa.array(u),
                         "cnt_part": pa.array(counts.astype(np.int64))})

    hist = hash_groupby_sum(
        table_ds(sf_dir, "orders", ["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["bid"], {"cnt": ("cnt_part", "sum")},
    ).to_pandas()  # bounded collect: <= 64*m bucket rows

    hist = hist.sort_values("bid").reset_index(drop=True)
    cum = np.cumsum(hist["cnt"].to_numpy())
    n = int(cum[-1]) if len(cum) else 0
    bid = hist["bid"].to_numpy()
    out = []
    for q in qs:
        if n == 0:
            # degenerate input: mirror the oracle's (q, NULL, 0) rows
            out.append({"q": float(q), "est_cents": pd.NA, "n": 0})
            continue
        r = int(np.ceil(q * n))
        i = int(np.searchsorted(cum, max(r, 1)))
        e, s = divmod(int(bid[i]), m)
        est = int(np.floor((1.0 + s / m) * np.exp2(e)))
        out.append({"q": float(q), "est_cents": est, "n": n})
    df = pd.DataFrame(out, columns=["q", "est_cents", "n"])
    df["est_cents"] = df["est_cents"].astype("Int64")  # nullable, BIGINT twin
    return df


def event_type_stats(sf_dir: str):
    """Plain grouped aggregate: per event_type count + value stats
    (rounded for oracle comparability)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type")["value"].agg(["count", "sum"]).reset_index()
        return g.rename(columns={"count": "n_part", "sum": "sum_part"})

    agg = (
        events_ds(sf_dir, ["event_type", "value"])
        .map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .aggregate(
            Sum("n_part", alias_name="n"),
            Sum("sum_part", alias_name="value_sum"),
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["value_sum"] = df["value_sum"].round(4)
        return df

    return agg.map_batches(finish, batch_format="pandas")


def user_value_running(sf_dir: str):
    """Per-user RUNNING window functions: cumulative sum of ``value`` and
    the previous event's value (lag), ordered by (ts, event_id) within
    each user — the SQL ``SUM(value) OVER (PARTITION BY user ORDER BY
    ts, event_id)`` / ``LAG(value)`` pair.

    Scale shape: ONE hash exchange on ``user_id`` co-locates each user's
    events; the per-partition kernel is a single vectorized pass (stable
    sort → group-boundary flags → prefix sum with a per-group base
    subtraction, shift-by-one for the lag) — no per-user Python.

    The running sum is carried in EXACT integer cents (``value`` is a
    2-decimal quantity, same fixed-point grid ``value_quantiles`` uses),
    so the oracle comparison is order-ULP-free; the lag column moves raw
    values without arithmetic and is bit-exact by construction."""
    from ..index.hash_partition import hash_groupby_apply

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype=np.int64),
                 "user_id": pd.Series([], dtype=np.int64),
                 "cum_value_cents": pd.Series([], dtype=np.int64),
                 "prev_value": pd.Series([], dtype=np.float64)})
        df = df.assign(ts_us=df["ts"].astype("int64"))
        df = df.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        user = df["user_id"].to_numpy()
        v = df["value"].to_numpy(dtype=np.float64)
        cents = np.rint(v * 100).astype(np.int64)
        n = len(v)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = user[1:] != user[:-1]
        starts = np.flatnonzero(new_user)
        counts = np.diff(np.append(starts, n))
        cs = np.cumsum(cents)
        base = np.zeros(len(starts), dtype=np.int64)
        base[1:] = cs[starts[1:] - 1]
        cum = cs - np.repeat(base, counts)
        prev = np.empty(n, dtype=np.float64)
        prev[0] = np.nan
        prev[1:] = v[:-1]
        prev[starts] = np.nan  # lag is NULL at each user's first event
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy(),
             "user_id": user,
             "cum_value_cents": cum,
             "prev_value": prev})

    return hash_groupby_apply(
        events_ds(sf_dir, ["event_id", "user_id", "ts", "value"]),
        ["user_id"], per_partition,
    )


def event_user_distinct(sf_dir: str):
    """EXACT grouped COUNT(DISTINCT user_id) per event_type — the exact
    twin of the HLL sketch (`sample.hll_distinct_terms`).

    Scale shape: batches deduplicate (type, user) map-side, the exchange
    is hash-partitioned on BOTH columns (so a hot event_type spreads over
    the full partition width — no single-reducer hot key), each partition
    counts its now-globally-unique pairs per type, and the final sum runs
    over the tiny type key space."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    def batch_dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["event_type", "user_id"])

    def part_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        g = d.groupby("event_type", as_index=False).agg(
            n_part=("user_id", "size"))
        g["n_part"] = g["n_part"].astype(np.int64)
        return g

    partials = hash_groupby_apply(
        events_ds(sf_dir, ["event_type", "user_id"])
        .map_batches(batch_dedup, batch_format="pandas"),
        ["event_type", "user_id"], part_count,
    )
    return hash_groupby_sum(
        partials, ["event_type"], {"n_users": ("n_part", "sum")}
    )


def event_user_distinct_hll(sf_dir: str):
    """Grouped HyperLogLog distinct-user estimate per event_type — the
    ORACLE-HASH-CHECKED sketch twin of :func:`event_user_distinct`
    (the corpus-level `sample.hll_distinct_terms` is rows-only because
    its xxhash-style mixing isn't SQL-portable; this one is built to be
    bit-reproducible in SQL):

    * hash = 52-bit md5 prefix of ``CAST(user_id AS VARCHAR)`` (the
      repo's portable content-hash kernel, exact in a double and
      evaluable verbatim by DuckDB);
    * register index = ``hash % 512`` (m = 512, b = 9), register value
      ρ = 1 + leading zeros of the remaining 43-bit field
      (= 44 − bit_length, computed with EXACT integer ops — the SQL
      twin smears+popcounts, so no float-log2 boundary risk);
    * the harmonic denominator Σ 2^(44−M_j) is accumulated as an exact
      int64 (≤ 512·2^44 < 2^53), so the raw estimate
      α·m²·2^44 / denom is ONE correctly-rounded double division on
      both engines, and the small-range branch (E ≤ 2.5m ∧ zeros > 0 →
      m·ln(m/zeros)) takes identical inputs.

    Scale shape: per-batch (type, bucket, max ρ) partials — ≤
    |types|·512 rows per batch regardless of event count — ONE
    type-keyed exchange, per-partition finalize. Returns
    (event_type, zero_registers, hll_users) on the 6 dp floor grid."""
    import pyarrow.compute as pc

    from ..index.hash_partition import hash_groupby_apply
    from .sample import M_REG, hll_bucket_rho, hll_estimate

    def partials(t: pa.Table) -> pd.DataFrame:
        from .duck import md5_prefix_int

        h = md5_prefix_int(pc.cast(t["user_id"], pa.string()), 13)
        bucket, rho = hll_bucket_rho(h)
        return (pd.DataFrame({
            "event_type": t["event_type"].to_pandas(),
            "bucket": bucket, "rho": rho})
            .groupby(["event_type", "bucket"], as_index=False)["rho"]
            .max())

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type"):
            regs = np.zeros(M_REG, dtype=np.int64)
            np.maximum.at(regs, g["bucket"].to_numpy(np.int64),
                          g["rho"].to_numpy(np.int64))
            est, zeros = hll_estimate(regs)
            rows.append({"event_type": et,
                         "zero_registers": np.int64(zeros),
                         "hll_users": np.floor(est * 1e6 + 0.5) / 1e6})
        return pd.DataFrame(rows, columns=["event_type", "zero_registers",
                                           "hll_users"])

    return hash_groupby_apply(
        events_ds(sf_dir, ["event_type", "user_id"])
        .map_batches(partials, batch_format="pyarrow"),
        ["event_type"], finalize,
    )


def global_value_rank(sf_dir: str):
    """EXACT global rank of every event by ``value`` (descending; ties
    share a rank, SQL ``RANK() OVER (ORDER BY value DESC)``) — the
    global-ORDER-BY primitive WITHOUT a global sort.

    Scale shape: ``value`` lives on the 2-decimal fixed-point grid, so
    rank = 1 + (count of strictly-greater values) is computable from a
    HISTOGRAM: per-batch (cents, count) partials cross one exchange
    bounded by the value DOMAIN (like :func:`value_quantiles`), the
    cumulative greater-than offsets — one small array — are broadcast
    via ``ray.put``, and a second streaming pass maps each row's cents
    to its rank with one ``searchsorted``. No row ever moves for the
    ranking; an all-to-all ``sort`` over data-scaling rows would."""
    from .agg import hash_groupby_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        g = (pd.DataFrame({"cents": cents}).groupby("cents", sort=False)
             .size().reset_index(name="n_part"))
        return g

    hist = hash_groupby_sum(
        events_ds(sf_dir, ["value"])
        .map_batches(partial, batch_format="pandas"),
        ["cents"], {"n": ("n_part", "sum")},
    ).to_pandas()  # bounded by the value domain, not the row count
    hist = hist.sort_values("cents").reset_index(drop=True)
    grid = hist["cents"].to_numpy()
    counts = hist["n"].to_numpy(dtype=np.int64)
    # rank of a value v (DESC, ties share) = 1 + Σ counts of cents > v
    greater = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0]])
    rank_of = greater + 1
    ref = ray.put((grid, rank_of))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        grid, rank_of = ray.get(ref)
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        idx = np.searchsorted(grid, cents)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "value": df["value"].to_numpy(),
            "rnk": rank_of[idx].astype(np.int64)})

    return events_ds(sf_dir, ["event_id", "value"]).map_batches(
        attach, batch_format="pandas")


def event_outliers(sf_dir: str, z_thresh: float = 3.0):
    """Per-type z-score anomaly flagging: events whose value deviates
    from their event_type's mean by ≥ ``z_thresh`` population standard
    deviations — (event_id, event_type, value, z).

    Exactness stance: values are 2-decimal fixed-point, so the moment
    sums run in EXACT integer cents (Σc, Σc² int64 — at true 100 TB row
    counts Σc² wants int128/HUGEINT; the partial/final split localizes
    that change to one dtype) and both engines derive mean/σ/z from
    identical integers with the identical operand order
    (mean = Σc/n; σ = sqrt(Σc²/n − mean·mean); z = (c − mean)/σ), so
    the 6-dp floor-rounded z is hash-exact. Scale shape: per-batch
    map-side moment partials → tiny per-type aggregate broadcast back
    into a second streaming pass that emits only outlier rows."""
    import ray

    from .agg import hash_groupby_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        g = (pd.DataFrame({"event_type": df["event_type"], "c": cents,
                           "cc": cents * cents})
             .groupby("event_type", sort=False)
             .agg(n_part=("c", "size"), s_part=("c", "sum"),
                  ss_part=("cc", "sum")).reset_index())
        return g

    stats = hash_groupby_sum(
        events_ds(sf_dir, ["event_type", "value"])
        .map_batches(partial, batch_format="pandas"),
        ["event_type"],
        {"n": ("n_part", "sum"), "s": ("s_part", "sum"),
         "ss": ("ss_part", "sum")},
    ).to_pandas()
    mean = stats["s"].to_numpy() / stats["n"].to_numpy()
    sd = np.sqrt(stats["ss"].to_numpy() / stats["n"].to_numpy() - mean * mean)
    lookup = {t: (m, s) for t, m, s in zip(stats["event_type"], mean, sd)}
    lk = ray.put(lookup)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = df[["event_id", "event_type", "value"]].copy()
            out["z"] = pd.Series([], dtype=np.float64)
            return out
        table = ray.get(lk)
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        # type-vocabulary lookups fanned out through category codes —
        # no per-row Python
        cat = df["event_type"].astype("category")
        per_code = np.array([table[t] for t in cat.cat.categories],
                            dtype=np.float64)
        ms = per_code[cat.cat.codes.to_numpy()]
        z = (cents - ms[:, 0]) / ms[:, 1]
        keep = np.abs(z) >= z_thresh
        from .text_stats import round6_half_up

        out = df.loc[keep, ["event_id", "event_type", "value"]].copy()
        out["z"] = round6_half_up(z[keep])
        return out

    return (events_ds(sf_dir, ["event_id", "event_type", "value"])
            .map_batches(flag, batch_format="pandas"))


def event_weekday_pivot(sf_dir: str):
    """Pivot/wide aggregate: event counts per type × ISO weekday —
    (event_type, dow1..dow7). The long→wide reshape runs on the TINY
    aggregate (|types|×7 rows), never the raw events: per-batch
    map-side (type, isodow) count partials, one bounded exchange, then
    a driver-side pivot of the aggregate only."""
    from .agg import hash_groupby_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        dow = df["ts"].dt.dayofweek.to_numpy() + 1  # pandas Mon=0 → ISO 1..7
        g = (pd.DataFrame({"event_type": df["event_type"], "dow": dow})
             .groupby(["event_type", "dow"], sort=False)
             .size().reset_index(name="n_part"))
        return g

    agg = hash_groupby_sum(
        events_ds(sf_dir, ["ts", "event_type"])
        .map_batches(partial, batch_format="pandas"),
        ["event_type", "dow"], {"n": ("n_part", "sum")},
    ).to_pandas()
    wide = agg.pivot_table(index="event_type", columns="dow", values="n",
                           fill_value=0, aggfunc="sum")
    wide = wide.reindex(columns=range(1, 8), fill_value=0).astype(np.int64)
    wide.columns = [f"dow{int(c)}" for c in wide.columns]
    return wide.reset_index().sort_values("event_type").reset_index(drop=True)


def funnel_analysis(sf_dir: str,
                    steps: tuple[str, ...] = ("view", "click", "purchase")):
    """Ordered-funnel analysis — for each user, how deep they progress
    through ``steps`` with strictly increasing timestamps under the
    earliest-completion rule (step 1 at its earliest ts t₁, step 2 at
    the earliest ts > t₁, ...). Returns one row per funnel step:
    (step, event_type, n_users) — the conversion-funnel query every
    event-analytics stack ships.

    Scale shape: ONE hash exchange on user_id (only rows of the funnel's
    event types cross — the type filter pushes into the scan), then a
    vectorized per-partition kernel: per user the step-1 min via a
    boundary ``minimum.reduceat``, then for each later step one masked
    reduceat over rows later than the per-user previous-step time — s-1
    vector passes total, no per-user Python. The s output counts are
    map-side partials summed through a tiny exchange (here: driver sum
    of P×s ints)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..index.hash_partition import hash_groupby_apply

    steps = tuple(steps)

    def pick(t: pa.Table) -> pa.Table:
        vs = pa.array(list(steps), pa.string())
        t = t.filter(pc.is_in(t["event_type"], value_set=vs))
        code = pc.index_in(t["event_type"], value_set=vs).cast(pa.int8())
        return pa.table({
            "user_id": t["user_id"].cast(pa.int64()),
            "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "step": code,
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = np.zeros(len(steps), np.int64)
        if len(df):
            df = df.sort_values(["user_id", "ts_us"], kind="stable")
            user = df["user_id"].to_numpy()
            ts = df["ts_us"].to_numpy()
            st = df["step"].to_numpy()
            starts = np.concatenate(
                ([0], np.flatnonzero(user[1:] != user[:-1]) + 1))
            uidx = np.repeat(np.arange(len(starts)),
                             np.diff(np.append(starts, len(user))))
            BIG = np.iinfo(np.int64).max
            prev_t = None
            for i in range(len(steps)):
                ok = st == i
                if prev_t is not None:
                    ok &= ts > prev_t[uidx]
                    ok &= prev_t[uidx] != BIG
                # per-user min ts among qualifying rows of this step
                cand = np.where(ok, ts, BIG)
                cur = np.minimum.reduceat(cand, starts)
                out[i] = int((cur != BIG).sum())
                prev_t = cur
        return pd.DataFrame({"step": np.arange(1, len(steps) + 1,
                                               dtype=np.int64),
                             "n_part": out})

    parts = hash_groupby_apply(
        events_ds(sf_dir, columns=["user_id", "ts", "event_type"])
        .map_batches(pick, batch_format="pyarrow"),
        ["user_id"], per_partition).to_pandas()
    # every step always present (0 when no user reaches it), matching
    # the oracle's per-step UNION ALL counts
    counts = np.zeros(len(steps), np.int64)
    if len(parts):
        g = parts.groupby("step")["n_part"].sum()
        counts[g.index.to_numpy() - 1] = g.to_numpy()
    return pd.DataFrame({"step": np.arange(1, len(steps) + 1,
                                           dtype=np.int64),
                         "event_type": list(steps),
                         "n_users": counts})


def cohort_retention(sf_dir: str, bucket_s: int = 7 * 86400):
    """Cohort retention matrix — users bucketed by their FIRST active
    period (the cohort), counted in every later period they return:
    (cohort_week, week_offset, n_users). The product-analytics staple
    next to :func:`funnel_analysis`.

    Scale shape: one hash exchange on user_id (only (user, ts) ints
    cross); the per-partition kernel derives each user's distinct
    active weeks and cohort with one lexsort + run-length pass (no
    per-user Python) and map-side-combines (cohort, offset) counts, so
    the final exchange is bounded by the period-grid square, not by
    users."""
    import pyarrow as pa
    import pyarrow.compute as pc  # noqa: F401  (symmetry with siblings)

    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    def pick(t: pa.Table) -> pa.Table:
        # normalize the timestamp unit first: parquet writers vary
        # (µs for the testdata tables, ns from pandas round-trips)
        wk = (t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False) // 1_000_000 // bucket_s)
        return pa.table({"user_id": t["user_id"].cast(pa.int64()),
                         "wk": pa.array(wk)})

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"cohort_week": pd.Series([], dtype=np.int64),
                                 "week_offset": pd.Series([], dtype=np.int64),
                                 "n_part": pd.Series([], dtype=np.int64)})
        user = df["user_id"].to_numpy()
        wk = df["wk"].to_numpy()
        o = np.lexsort((wk, user))
        user, wk = user[o], wk[o]
        # distinct (user, week) rows via run-length on the sorted pairs
        first = np.ones(len(user), bool)
        first[1:] = (user[1:] != user[:-1]) | (wk[1:] != wk[:-1])
        user, wk = user[first], wk[first]
        new_user = np.ones(len(user), bool)
        new_user[1:] = user[1:] != user[:-1]
        # cohort = each user's first (minimum) week, fanned out
        uidx = np.cumsum(new_user) - 1
        cohort = wk[new_user][uidx]
        g = (pd.DataFrame({"cohort_week": cohort,
                           "week_offset": wk - cohort})
             .groupby(["cohort_week", "week_offset"], as_index=False)
             .size())
        return g.rename(columns={"size": "n_part"})

    parts = hash_groupby_apply(
        events_ds(sf_dir, columns=["user_id", "ts"])
        .map_batches(pick, batch_format="pyarrow"),
        ["user_id"], per_partition)
    return hash_groupby_sum(parts, ["cohort_week", "week_offset"],
                            {"n_users": ("n_part", "sum")})


def event_props_stats(sf_dir: str):
    """Semi-structured column processing: parse the events table's JSON
    ``props`` payload and aggregate the extracted ``k`` field per event
    type — (event_type, n_events, k_sum, k_min, k_max, k_avg) with the
    mean on the shared 6 dp grid. The extraction kernel is DuckDB's C
    JSON parser run per batch (:func:`.duck.json_int` — Arrow has no
    JSON kernel), the identical expression the SQL oracle evaluates, so
    the parse itself is value-checked cross-engine.

    Scale shape: one streaming pass; each batch collapses to one
    (n, sum, min, max) partial per event type present, so the exchange
    is type-count × batches rows into a tiny native aggregate — JSON
    strings never cross the wire."""
    from ray.data.aggregate import Max, Min

    from .duck import json_int

    def partial(t: pa.Table) -> pa.Table:
        k = json_int(t["props"], "k")
        df = pd.DataFrame({"event_type": t["event_type"].to_pandas(),
                           "k": k})
        g = df.groupby("event_type", as_index=False).agg(
            n_part=("k", "size"), s_part=("k", "sum"),
            mn_part=("k", "min"), mx_part=("k", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (events_ds(sf_dir, columns=["event_type", "props"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")  # tiny key space — native agg
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("s_part", alias_name="k_sum"),
                      Min("mn_part", alias_name="k_min"),
                      Max("mx_part", alias_name="k_max")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from .text_stats import round6_half_up

        for c in ("n_events", "k_sum", "k_min", "k_max"):
            df[c] = df[c].astype(np.int64)
        df["k_avg"] = round6_half_up(
            df["k_sum"].to_numpy() / df["n_events"].to_numpy())
        return df[["event_type", "n_events", "k_sum", "k_min", "k_max",
                   "k_avg"]]

    return agg.map_batches(finish, batch_format="pandas")


def session_duration_quantiles(sf_dir: str, gap_s: int = 1800,
                               qs: tuple = (0.25, 0.5, 0.75, 0.9, 0.99)):
    """Exact quantiles of SESSION DURATION (last ts − first ts, whole
    seconds) over every session in the corpus — the composed
    sessionize → distribution readout an analytics pipeline runs on top
    of :func:`sessionize` (median session length, p99, ...).

    Scale shape: the sessionize partition kernel (one user-keyed
    exchange, vectorized boundary flags) is extended one line — per-run
    first/last timestamps — and each partition emits a DURATION
    HISTOGRAM (dur_s, count) instead of per-session rows, so the second
    exchange and the final collect are bounded by the distinct-duration
    DOMAIN (≤ seconds in a session, never the session count). Quantiles
    interpolate the cumulative histogram with the same quantile_cont
    rule as :func:`value_quantiles`."""
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"dur_s": pd.Series([], dtype=np.int64),
                                 "n_part": pd.Series([], dtype=np.int64)})
        user, ts, new_sess = _session_flags(df, gap_s)
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], len(user)) - 1
        dur = ts[ends] - ts[starts]
        vals, cnts = np.unique(dur, return_counts=True)
        return pd.DataFrame({"dur_s": vals.astype(np.int64),
                             "n_part": cnts.astype(np.int64)})

    hist = hash_groupby_sum(
        hash_groupby_apply(events_ds(sf_dir, ["user_id", "ts"]),
                           ["user_id"], per_partition),
        ["dur_s"], {"n": ("n_part", "sum")},
    ).to_pandas()  # domain-bounded: distinct whole-second durations

    if len(hist) == 0 or "dur_s" not in hist.columns:
        # an empty exchange yields a column-less frame
        hist = pd.DataFrame({"dur_s": pd.Series([], dtype=np.int64),
                             "n": pd.Series([], dtype=np.int64)})
    hist = hist.sort_values("dur_s")
    v = hist["dur_s"].to_numpy(dtype=np.float64)
    cum = np.cumsum(hist["n"].to_numpy())
    n_sessions = int(cum[-1]) if len(cum) else 0
    row = {"n_sessions": np.int64(n_sessions)}
    row.update(quantile_cont(v, cum, qs))
    return pd.DataFrame([row])
