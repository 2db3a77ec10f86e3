"""Per-worker DuckDB connection used as a vectorized scalar-kernel
library for functions Arrow lacks (md5, grouped md5-min).

DuckDB scans registered Arrow tables zero-copy and its ``md5`` is a C
kernel, so hashing a batch costs zero Python per row — measured 2-5×
the ``hashlib`` loop it replaces (more on short strings, where the loop
overhead dominates). The connection is memoized per process (actor /
task worker) and pinned to ONE thread: Ray owns the parallelism, and a
second thread pool per worker would oversubscribe the node exactly like
the Arrow thread pool this package already pins
(``searchenginepp_ray/__init__.py``). Row order of plain projections is
DuckDB's default ``preserve_insertion_order=true`` (single-threaded
scans are order-preserving regardless).
"""

from __future__ import annotations

import pyarrow as pa

_CON = None


def connection():
    """The process-local single-threaded DuckDB connection."""
    global _CON
    if _CON is None:
        import duckdb

        _CON = duckdb.connect(config={"preserve_insertion_order": True})
        _CON.execute("SET threads TO 1")
    return _CON


def _plain(arr) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def md5_hex(arr) -> pa.Array:
    """Vectorized md5 hex digest of a UTF-8 string array (row-aligned)."""
    arr = _plain(arr)
    if len(arr) == 0:
        return pa.array([], pa.string())
    con = connection()
    con.register("_sepp_md5_in", pa.table({"s": arr}))
    out = con.execute("SELECT md5(s) AS h FROM _sepp_md5_in").arrow()
    return _plain(out["h"])


def md5_prefix_min_by_group(group, values, prefix_len: int) -> pa.Array:
    """Per-group ``min(substr(md5(value), 1, prefix_len))``, returned in
    ascending-group order — one C-speed hash+aggregate pass for the
    fingerprint kernel. ``group`` must cover a dense 0..G-1 id space
    (every group present at least once)."""
    con = connection()
    con.register(
        "_sepp_fp_in", pa.table({"d": _plain(group), "g": _plain(values)})
    )
    out = con.execute(
        f"SELECT min(substr(md5(g), 1, {int(prefix_len)})) AS fp "
        "FROM _sepp_fp_in GROUP BY d ORDER BY d"
    ).arrow()
    return _plain(out["fp"])


def md5_bucket(arr, n_buckets: int) -> pa.Array:
    """Vectorized portable hash-bucket id: ``CAST('0x' || first 8 md5 hex
    chars AS BIGINT) % n_buckets`` — the same expression a SQL oracle can
    evaluate verbatim, so bucket assignments agree bit-for-bit across
    engines (DuckDB md5 here == DuckDB md5 there)."""
    arr = _plain(arr)
    if len(arr) == 0:
        return pa.array([], pa.int64())
    con = connection()
    con.register("_sepp_bkt_in", pa.table({"s": arr}))
    out = con.execute(
        "SELECT CAST(('0x' || substr(md5(s), 1, 8)) AS BIGINT) "
        f"% {int(n_buckets)} AS b FROM _sepp_bkt_in"
    ).arrow()
    return _plain(out["b"])


def md5_prefix_int(arr, n_hex: int = 13) -> np.ndarray:
    """Vectorized ``CAST('0x' || first n_hex md5 hex chars AS BIGINT)``
    — the integer md5 prefix both engines can evaluate verbatim
    (n_hex ≤ 15 keeps it inside BIGINT). 13 hex chars = 52 bits: the
    largest prefix that converts to an exact double, the uniform-key
    kernel for deterministic (content-addressed) randomness."""
    import numpy as np

    arr = _plain(arr)
    if len(arr) == 0:
        return np.empty(0, np.int64)
    con = connection()
    con.register("_sepp_pfx_in", pa.table({"s": arr}))
    out = con.execute(
        f"SELECT CAST(('0x' || substr(md5(s), 1, {int(n_hex)})) AS BIGINT)"
        " AS v FROM _sepp_pfx_in").arrow()
    return _plain(out["v"]).to_numpy(zero_copy_only=False).astype(np.int64)


def md5_u64_halves(arr) -> tuple:
    """Two vectorized 32-bit integer halves of the md5 prefix:
    ``CAST('0x' || substr(md5(s), 1, 8) AS BIGINT)`` (high) and
    ``substr(md5(s), 9, 8)`` (low) — together a portable 64-bit content
    hash both engines evaluate verbatim (the full 16-hex value would
    overflow signed BIGINT)."""
    import numpy as np

    arr = _plain(arr)
    if len(arr) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    con = connection()
    con.register("_sepp_h64_in", pa.table({"s": arr}))
    out = con.execute(
        "SELECT CAST(('0x' || substr(md5(s), 1, 8)) AS BIGINT) AS h1, "
        "CAST(('0x' || substr(md5(s), 9, 8)) AS BIGINT) AS h2 "
        "FROM _sepp_h64_in").arrow()
    return (_plain(out["h1"]).to_numpy(zero_copy_only=False).astype(np.int64),
            _plain(out["h2"]).to_numpy(zero_copy_only=False).astype(np.int64))
