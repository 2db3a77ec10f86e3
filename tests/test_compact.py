"""Corpus compaction: deterministic planning, row/order preservation,
resume-by-manifest, and docid-stability (a build over the compacted
layout is byte-identical to a build over the original small files)."""

import os

import pyarrow.parquet as pq

from searchenginepp_ray.config import BuildConfig
from searchenginepp_ray.index.build import build_index
from searchenginepp_ray.sources.compact import compact_corpus, plan_compaction
from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

from .corpus import write_corpus


def _small_files(tmp, n_files=12, n_docs=240):
    big = str(tmp / "big.parquet")
    write_corpus(big, n_docs, seed=3, rows_per_group=64)
    t = pq.read_table(big)
    src = tmp / "shards"
    src.mkdir()
    per = n_docs // n_files
    for i in range(n_files):
        stop = (i + 1) * per if i < n_files - 1 else n_docs
        pq.write_table(t.slice(i * per, stop - i * per),
                       str(src / f"f{i:03d}.parquet"))
    return str(src), t


def test_compact_preserves_rows_and_order(ray_session, tmp_path):
    src, t = _small_files(tmp_path)
    out = str(tmp_path / "out")
    m = compact_corpus(src, out, target_mb=0.02)
    assert m["n_parts"] > 1  # the tiny target really forced multiple parts
    assert m["n_rows"] == t.num_rows
    parts = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    assert len(parts) == m["n_parts"]
    got = pq.ParquetDataset([os.path.join(out, f) for f in parts]).read()
    # concatenation in sorted-path order reproduces the original stream
    assert got["content"].to_pylist() == t["content"].to_pylist()


def test_compact_resumes_and_detects_change(ray_session, tmp_path):
    src, t = _small_files(tmp_path)
    out = str(tmp_path / "out")
    m1 = compact_corpus(src, out, target_mb=0.02)
    assert m1["n_skipped"] == 0
    m2 = compact_corpus(src, out, target_mb=0.02)
    assert m2["n_skipped"] == m2["n_parts"]  # full skip on clean rerun
    # a changed plan (different target) invalidates the lineage
    m3 = compact_corpus(src, out, target_mb=0.01)
    assert m3["lineage_key"] != m1["lineage_key"]
    assert m3["n_skipped"] < m3["n_parts"]


def test_build_over_compacted_is_byte_identical(ray_session, tmp_path):
    """Zero-padded part names keep sorted-path order == original stream
    order, so layout-derived docids — and the whole index — are
    unchanged by compaction."""
    src, t = _small_files(tmp_path)
    out = str(tmp_path / "compacted")
    compact_corpus(src, out, target_mb=0.02)
    cfg = BuildConfig(docs_per_segment=100)
    a = build_index(src, str(tmp_path / "idx_orig"), cfg, CODE_CORPUS)
    b = build_index(out, str(tmp_path / "idx_comp"), cfg, CODE_CORPUS)
    assert a["n_docs"] == b["n_docs"] == t.num_rows
    assert a["n_postings"] == b["n_postings"]
    for d in sorted(os.listdir(str(tmp_path / "idx_orig"))):
        if d.startswith("db_"):
            x = open(os.path.join(str(tmp_path / "idx_orig"), d,
                                  "terms.parquet"), "rb").read()
            y = open(os.path.join(str(tmp_path / "idx_comp"), d,
                                  "terms.parquet"), "rb").read()
            assert x == y, f"{d} differs after compaction"


def test_plan_is_deterministic_and_oversize_safe(tmp_path):
    files = []
    for i, size in enumerate([10, 10, 10, 1000, 10, 10]):
        p = tmp_path / f"g{i}.parquet"
        p.write_bytes(b"x" * size * 1024)
        files.append(str(p))
    plan = plan_compaction(files, target_mb=0.03)
    assert plan == plan_compaction(list(reversed(files)), target_mb=0.03)
    # the 1000 KiB file exceeds the target alone: passes through 1:1
    assert [os.path.basename(files[3])] in [
        [os.path.basename(x) for x in g] for g in plan
    ]
