"""Aggregation helpers over :func:`.hash_partition.hash_groupby_apply`
(the pipelines' hash-partitioned groupby): named aggregations, the
within-run pair enumerator used by the posting-list pair joins, and the
6 dp rounding rule every oracle-checked float output shares.

Used by every pipeline whose group count scales with the data (per-term,
per-content-hash, per-pair aggregates). Native
``.aggregate()`` remains fine for tiny key spaces (per-label, per-type).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import ray.data

from .hash_partition import hash_groupby_apply


def hash_groupby_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    aggs: dict[str, tuple[str, str]],
    P: int | None = None,
) -> ray.data.Dataset:
    """Convenience: named aggregations ``{out_col: (in_col, how)}`` with
    pandas ``how`` semantics (sum/min/max/count/first...)."""
    keys = list(keys)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, as_index=False, sort=False).agg(
            **{out: (col, how) for out, (col, how) in aggs.items()}
        )
        return g

    return hash_groupby_apply(ds, keys, fn, P)


def pairs_within_runs(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-run index pairs (fi, si) with fi < si, for a
    run-sorted code array: every run of equal ``code`` values of length
    L contributes its C(L,2) ordered index pairs, via two-level
    cumulative index arithmetic (no per-run Python). Shared by the
    posting-list pair enumerators (doc_similarity_pairs,
    containment_pairs); callers index their own payload arrays with the
    returned positions."""
    n = len(code)
    if n == 0:
        z = np.zeros(0, np.int64)
        return z, z
    starts = np.concatenate(([0], np.flatnonzero(code[1:] != code[:-1]) + 1))
    lens = np.diff(np.append(starts, n))
    li = lens - 1
    tot_i = int(li.sum())
    if tot_i <= 0:
        z = np.zeros(0, np.int64)
        return z, z
    # i = 0..L-2 within each run; each i pairs with the L-1-i later js
    iw = np.arange(tot_i, dtype=np.int64) - np.repeat(np.cumsum(li) - li, li)
    first_idx = np.repeat(starts, li) + iw
    cnts = np.repeat(lens, li) - 1 - iw
    total = int(cnts.sum())
    within = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(cnts) - cnts, cnts)
    fi = np.repeat(first_idx, cnts)
    return fi, fi + 1 + within


def round6_half_up(x: np.ndarray) -> np.ndarray:
    """Half-AWAY-from-zero rounding to 6 dp for non-negative ratios —
    ``floor(x*1e6 + 0.5)/1e6``, the bit-identical twin of the SQL
    oracles' ``floor(expr * 1000000 + 0.5) / 1000000``. ``np.round``
    rounds half-to-even while DuckDB ``ROUND`` rounds half-away, and
    integer ratios with power-of-two denominators (e.g. 1/128 =
    0.0078125) land EXACTLY on the half grid, where the two rules
    disagree — a reachable oracle-hash mismatch. Both engines evaluate
    this same floor expression instead."""
    return np.floor(x * 1e6 + 0.5) / 1e6
