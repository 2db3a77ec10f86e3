"""Hash partitioning — a deterministic 64-bit key hash, and the
hash-partitioned groupby-apply built on it.

``hash_groupby_apply`` is the scale-safe replacement for
``Dataset.groupby(keys).aggregate(...)`` when the key cardinality is
non-trivial. Ray Data's native aggregate pays per-GROUP Python overhead
(~1 ms/group measured on 2.49: 14k groups ≈ 65 s for a trivial double
Sum). This helper keeps the all-to-all exchange but makes the
per-partition work one VECTORIZED pandas groupby: rows are
hash-partitioned on the key columns into ``P`` coarse partitions (P
tracks cluster CPUs, so partition sizes shrink as the cluster grows),
each partition holds every row of its keys, and the per-partition
callable aggregates them in C.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

# deterministic 64-bit mix (splitmix64)
_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + 0x9E3779B97F4A7C15) & np.uint64(_MASK)
    z = x
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(_MASK)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(_MASK)
    return z ^ (z >> np.uint64(31))


def _shuffle_width() -> int:
    """Coarse hash-partition width — scales with the cluster, never a
    hard-coded constant."""
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(8, 2 * cpus)


#: Hash implementation is chosen ONCE at import (polars present or not)
#: and never falls back at runtime: this hash drives hash-partition
#: assignment and LSH bucket keys, so a silent per-call fallback on a
#: worker where polars errs would place identical keys in different
#: partitions with no error. A missing-everywhere polars still works
#: (pandas siphash); a flaky polars raises loudly instead of diverging.
try:
    import polars as _pl  # noqa: N816
except ImportError:  # pragma: no cover - both paths covered by tests
    _pl = None


def _hash_strings(arr) -> np.ndarray:
    """C-speed deterministic 64-bit hash of every string in an Arrow
    array (polars xxhash with a fixed seed; pandas siphash when polars is
    absent at import). One call per batch — the replacement for per-token
    Python blake2b."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    if _pl is not None:
        return _pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64, copy=False)
    return pd.util.hash_array(
        np.asarray(arr.to_pylist(), dtype=object)
    ).astype(np.uint64, copy=False)


def _key_hash(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Vectorized 64-bit combined hash of the key columns."""
    h = np.zeros(len(t), dtype=np.uint64)
    for k in keys:
        col = t[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = _hash_strings(col)
        elif pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            v = _hash_strings(col)
        else:
            v = col.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
        h = _splitmix64((h * _GOLDEN) ^ v)
    return h


def hash_groupby_apply(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    P: int | None = None,
    keep_part: bool = False,
) -> ray.data.Dataset:
    """``fn`` (a vectorized pandas aggregation over the key columns) is
    applied once per hash partition; every row of a key lands in exactly
    one partition, so the result equals a global groupby.

    ``keep_part=True`` passes the ``_part`` column (the partition id)
    through to ``fn`` — for callables that write partition-addressed
    side outputs (e.g. the graph pipelines' partitioned shard files)."""
    P = P or _shuffle_width()
    keys = list(keys)

    def add_part(t: pa.Table) -> pa.Table:
        part = (_key_hash(t, keys) % np.uint64(P)).astype(np.int32)
        return t.append_column("_part", pa.array(part))

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df) if keep_part else fn(df.drop(columns=["_part"]))

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(apply, batch_format="pandas")
    )
