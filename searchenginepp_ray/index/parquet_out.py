"""The one writer of an index's Parquet files.

Every Parquet file of an index — a segment's ``terms.parquet`` and
``positions.parquet``, the document index parts under ``docs/``,
``global/term_df.parquet`` and ``global/tombstones.parquet`` — is
written by :func:`write_index_parquet`, zstd-compressed, with an
encoding chosen for what each column holds:

* ``term`` and ``docno`` are sorted, unique strings: front coding
  (``DELTA_BYTE_ARRAY``, a shared-prefix length plus the suffix — the
  reference's ``disk_map`` lexicon layout) and no dictionary, which
  for a unique column would be as large as the column itself;
* ``docid`` ascends by one per row: ``DELTA_BINARY_PACKED`` stores it
  in a few bytes per page;
* ``docid_bytes`` and ``pos_bytes`` are per-term VarByte streams that
  never repeat: ``PLAIN``, no dictionary;
* every other column (``df``, ``df_local``, ``doclen``, ``freq_bytes``,
  the skip and impact lists) keeps the dictionary — small integers and
  the short unary freq streams of rare terms repeat. A list column is
  named by its leaf path, ``<name>.list.element``.

Values, types and schemas are what the caller passes: a reader sees
the same table whichever encodings wrote it, so indexes written with
pyarrow's defaults serve unchanged.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

#: the columns written without a dictionary, and their encoding
_ENCODINGS = {
    "term": "DELTA_BYTE_ARRAY",
    "docno": "DELTA_BYTE_ARRAY",
    "docid": "DELTA_BINARY_PACKED",
    "docid_bytes": "PLAIN",
    "pos_bytes": "PLAIN",
}


def write_index_parquet(table: pa.Table, path: str) -> None:
    """Write ``table`` to ``path`` as an index Parquet file (see the
    module docstring); atomicity is the caller's (write a ``.tmp`` and
    rename)."""
    leaves = [f.name + ".list.element" if pa.types.is_list(f.type) else f.name
              for f in table.schema]
    pq.write_table(
        table, path, compression="zstd",
        use_dictionary=[c for c in leaves if c not in _ENCODINGS],
        column_encoding={c: _ENCODINGS[c] for c in leaves if c in _ENCODINGS})
