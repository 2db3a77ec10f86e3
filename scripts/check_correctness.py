"""Local stand-in for the driver's correctness gate: run every queries()
entry and its oracle_sql() side-by-side on a given sf dir, compare
row-count + schema + order-insensitive value hash. Usage:

    python scripts/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import sys

import duckdb
import pandas as pd
import ray

sys.path.insert(0, ".")

TABLES = ("documents",)


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    import pyarrow as pa

    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    raise TypeError(type(obj))


def value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    canon = df.to_csv(index=False, float_format="%.9g")
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def main(sf_dir: str, only: tuple[str, ...] = ()):
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    if only:
        unknown = sorted(set(only) - set(qs))
        if unknown:
            print(f"unknown query name(s): {', '.join(unknown)}")
            ray.shutdown()
            return 1
        qs = {k: v for k, v in qs.items() if k in only}
    sqls = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray side raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        sql = sqls.get(name)
        if sql is None:
            print(f"rows-only  {name}: {len(got)} rows")
            n_pass += 1
            continue
        try:
            want = con.execute(sql).df()
        except Exception as e:
            print(f"FAIL {name}: SQL raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        gh, wh = value_hash(got), value_hash(want)
        if ok_rows and ok_cols and gh == wh:
            print(f"PASS {name}: {len(got)} rows")
            n_pass += 1
        else:
            print(f"FAIL {name}: rows {len(got)}/{len(want)} cols_ok={ok_cols} hash {gh}/{wh}")
            if ok_cols:
                g = got.reindex(sorted(got.columns), axis=1).sort_values(sorted(got.columns)).reset_index(drop=True)
                w = want.reindex(sorted(want.columns), axis=1).sort_values(sorted(want.columns)).reset_index(drop=True)
                if len(g) == len(w):
                    diff = (g != w) & ~(g.isna() & w.isna())
                    bad = diff.any(axis=1)
                    print(g[bad].head(5))
                    print(w[bad].head(5))
                else:
                    print("got:", g.head(3), sep="\n")
                    print("want:", w.head(3), sep="\n")
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
                       tuple(sys.argv[2:])) else 0)
