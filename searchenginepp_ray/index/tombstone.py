"""Document deletes without a rebuild — tombstones.

The missing third phase of the index lifecycle (build → serve →
**delete/compact**): :func:`delete_docs` marks documents dead in a
served index in O(deletes) time; every query path then excludes them
exactly (the searcher's alive-mask routes through the same masked
DAAT/Maxscore machinery as faceted search, so a deleted doc can never
appear in, or displace anything from, a top-k). Collection statistics
(idf, avgdl, sigmas) intentionally keep the deleted docs until a
compaction reclaims them — the standard tombstone contract (deletes
must be cheap and immediately visible; statistics converge when the
index is compacted — see below).
Beyond-reference: the C++ engine has no delete path at all.

Scale shape: the tombstone set is delete-sized, not corpus-sized — one
small sorted Parquet under ``global/`` (the only record of the deletes:
no count of them is kept anywhere else) read once per engine construction
and turned into a per-segment bool mask inside each actor (an ``is_in``
against the segment's own docnos; segments with no deleted docs keep a
``None`` mask and an untouched fast path).

PHYSICAL reclaim is :func:`.build.compact_index`, not a merge:
``merge_segments`` carries the tombstone file into the merged index
(the masked serving view is preserved — post-merge deletes re-sync)
but deleted docs still occupy postings and the collection statistics
still count them. ``compact_index`` decodes each segment, drops the
deleted docs' postings, renumbers docids densely and recomputes the
statistics; its output carries no tombstone file.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable

import pyarrow as pa
import pyarrow.parquet as pq

from .parquet_out import write_index_parquet

TOMBSTONE_FILE = "tombstones.parquet"


def _path(index_dir: str) -> str:
    return os.path.join(index_dir, "global", TOMBSTONE_FILE)


def load_tombstones(index_dir: str) -> list[str]:
    """Sorted docnos of all deleted docs (empty when none)."""
    p = _path(index_dir)
    if not os.path.exists(p):
        return []
    return pq.read_table(p, columns=["docno"])["docno"].to_pylist()


def delete_docs(index_dir: str, docnos: Iterable[str]) -> int:
    """Mark documents deleted by docno. Idempotent (a docno may be
    deleted twice), incremental (merges with prior tombstones), atomic
    (tmp + rename — a crash never leaves a torn tombstone file).
    Returns the total number of tombstoned docs after the merge.

    Engines constructed BEFORE the call keep serving the old view
    (actors hold their masks); re-construct the engine — or serve
    through a fresh one — to observe the deletes, the same
    read-your-writes contract as adding segments."""
    merged = sorted(set(load_tombstones(index_dir))
                    | {str(d) for d in docnos})
    gdir = os.path.join(index_dir, "global")
    os.makedirs(gdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=gdir, suffix=".tombstones.tmp")
    os.close(fd)
    try:
        write_index_parquet(
            pa.table({"docno": pa.array(merged, pa.string())}), tmp)
        os.replace(tmp, _path(index_dir))
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(merged)
