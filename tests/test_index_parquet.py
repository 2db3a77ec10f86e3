"""Every index Parquet file goes through the one writer
(``index.parquet_out.write_index_parquet``): zstd, front-coded
``term``/``docno``, delta-packed ``docid``, no dictionary on the
posting streams. Indexes written with pyarrow's defaults hold the same
values, so they keep serving and appending."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index.build import build_index, compact_index, merge_segments
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.index.fsck import fsck_index
from searchenginepp_ray.index.tombstone import delete_docs
from searchenginepp_ray.sources.parquet_corpus import ColumnSpec
from tests.test_build_pin import _index_digest
from tests.test_one_copy import _write_part

SPEC = ColumnSpec(text_col="text", docno_cols=("docno",))
CFG = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=64, positions=True)

FRONT_CODED = {"term", "docno"}
NO_DICTIONARY = FRONT_CODED | {"docid", "docid_bytes", "pos_bytes"}


def _chunks(index_dir):
    """(relative path, column chunk metadata) of every Parquet file."""
    for p in sorted(glob.glob(os.path.join(str(index_dir), "**", "*.parquet"),
                              recursive=True)):
        meta = pq.ParquetFile(p).metadata
        for rg in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                yield os.path.relpath(p, str(index_dir)), meta.row_group(rg).column(c)


def test_every_index_file_has_the_column_encodings(ray_session, tmp_path):
    """After a positional build, an append ending in a segment without
    postings, a delete, a compaction and a merge, every column chunk of
    every index file is zstd, ``term``/``docno`` are front-coded,
    ``docid`` is delta-packed, the posting streams have no dictionary
    and every other column keeps one."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write_part(corpus / "a.parquet", 0, 150)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    _write_part(corpus / "b.parquet", 150, 192)
    # docid 193 alone in segment 3, and it has no tokens
    pq.write_table(pa.table({"docno": ["empty"], "text": [""]}),
                   str(corpus / "b1.parquet"))
    build_index(str(corpus), str(idx), CFG, SPEC)
    with open(os.path.join(str(idx), "db_3", "manifest.json")) as f:
        assert json.load(f)["n_postings"] == 0
    delete_docs(str(idx), ["d0003", "d0100"])
    compacted, merged = tmp_path / "compacted", tmp_path / "merged"
    compact_index(str(idx), str(compacted))
    merge_segments(str(idx), str(merged), group_size=2)

    files = set()
    for index_dir in (idx, compacted, merged):
        for rel, col in _chunks(index_dir):
            files.add(os.path.basename(rel) if "docs" not in rel else "docs")
            name = col.path_in_schema
            where = f"{index_dir.name}/{rel}:{name}"
            assert col.compression == "ZSTD", where
            assert col.has_dictionary_page == (name not in NO_DICTIONARY), where
            if col.num_values == 0:  # an empty chunk records no encoding
                continue
            if name in FRONT_CODED:
                assert "DELTA_BYTE_ARRAY" in col.encodings, where
            if name == "docid":
                assert "DELTA_BINARY_PACKED" in col.encodings, where
    assert files == {"terms.parquet", "positions.parquet", "docs",
                     "term_df.parquet", "tombstones.parquet"}


def test_index_written_with_pyarrow_defaults_keeps_working(ray_session,
                                                            tmp_path):
    """An index whose files were written with pyarrow's default
    encodings (snappy, a dictionary on every column) passes ``fsck``,
    serves answers identical to the same index from the one writer in
    every mode, and an append onto it gives the same tables."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write_part(corpus / "a.parquet", 0, 150)
    new, old = tmp_path / "new", tmp_path / "old"
    for idx in (new, old):
        build_index(str(corpus), str(idx), CFG, SPEC)
        delete_docs(str(idx), ["d0003", "d0100"])
    rewritten = glob.glob(os.path.join(str(old), "**", "*.parquet"),
                          recursive=True)
    for p in rewritten:
        pq.write_table(pq.read_table(p), p)
    assert {pq.ParquetFile(p).metadata.row_group(0).column(0).compression
            for p in rewritten} == {"SNAPPY"}

    report = fsck_index(str(old), deep=True)
    assert report["ok"], report["errors"]
    engines = [QueryEngine(str(idx), use_actors=False) for idx in (new, old)]
    for mode in ("daat", "bmm", "daat_conj"):
        for q in ("alpha gamma3", "beta gamma1 wab", "delta zz gamma5"):
            got = [repr(e.search(q, k=10, mode=mode)) for e in engines]
            assert got[0] == got[1], (mode, q)

    _write_part(corpus / "b.parquet", 150, 200)
    for idx in (new, old):
        build_index(str(corpus), str(idx), CFG, SPEC)
    assert (_index_digest(str(new), lambda top: True)
            == _index_digest(str(old), lambda top: True))
