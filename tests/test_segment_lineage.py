"""Segments carry no collection statistics and their own lineage: an
append leaves the old segments alone, a merge rerun serves only the new
groups, a forced rebuild is a new lineage, and a segment of another
build format is refused."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index.build import build_index, merge_segments
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.index.fsck import fsck_index
from searchenginepp_ray.sources.parquet_corpus import ColumnSpec

SPEC = ColumnSpec(text_col="text", docno_cols=("docno",))


def _write(path, prefix, lo, hi):
    pq.write_table(pa.table({
        "docno": [f"{prefix}{i}" for i in range(lo, hi)],
        "text": [f"alpha beta gamma{i % 7} w{i} {'z' * (i % 5)}"
                 for i in range(lo, hi)]}), str(path), row_group_size=32)


def _hits(idx, query):
    eng = QueryEngine(str(idx), use_actors=False)
    return eng.search(query, k=1000, mode="daat")


def test_append_leaves_old_segments_alone(ray_session, tmp_path):
    """An append onto a 4-segment index rewrites only the mixed last
    segment (and writes the new ones): every file of the first three
    keeps its bytes and its mtime, and every segment and global table
    equals a fresh build's."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=64)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write(corpus / "a.parquet", "d", 0, 200)
    idx = tmp_path / "idx"
    assert build_index(str(corpus), str(idx), cfg, SPEC)["n_segments"] == 4
    old = {}
    for p in glob.glob(str(idx / "db_[012]" / "*")):
        with open(p, "rb") as f:
            old[p] = (f.read(), os.stat(p).st_mtime_ns)

    _write(corpus / "b.parquet", "d", 200, 300)
    assert build_index(str(corpus), str(idx), cfg, SPEC)["n_segments"] == 5
    for p, (data, mtime) in old.items():
        with open(p, "rb") as f:
            assert (f.read(), os.stat(p).st_mtime_ns) == (data, mtime), p

    fresh = tmp_path / "fresh"
    build_index(str(corpus), str(fresh), cfg, SPEC)

    def tables(root):
        return {os.path.relpath(p, root): pq.read_table(p)
                for p in sorted(glob.glob(str(root / "db_*" / "*.parquet"))
                                + glob.glob(str(root / "global" / "**" / "*.parquet"),
                                            recursive=True))}

    got, want = tables(idx), tables(fresh)
    assert got.keys() == want.keys() and "global/term_df.parquet" in got
    for k in want:
        assert got[k].equals(want[k]), k
    assert _hits(idx, "alpha") == _hits(fresh, "alpha")


def test_merge_rerun_at_another_group_size(ray_session, tmp_path):
    """A merge rerun into the same directory at another group size
    removes the previous run's segments outside the new groups: 60 docs
    merged into 3 segments and then into 2 serve 60 hits, not 80."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=10)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write(corpus / "c.parquet", "a", 0, 60)
    idx, merged = tmp_path / "idx", tmp_path / "merged"
    build_index(str(corpus), str(idx), cfg, SPEC)
    assert merge_segments(str(idx), str(merged), group_size=2)["n_segments"] == 3
    assert merge_segments(str(idx), str(merged), group_size=3)["n_segments"] == 2
    assert len(_hits(merged, "alpha")) == 60
    assert sorted(os.listdir(merged / "docs")) == ["seg=0", "seg=1"]
    assert fsck_index(str(merged), deep=True)["ok"]


def test_force_rebuild_is_a_new_lineage(ray_session, tmp_path):
    """A forced rebuild of a same-shaped corpus changes the lineage, so
    a merge rerun into the old merged index rebuilds it from the new
    docs instead of keeping the old ones."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=20)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write(corpus / "c.parquet", "a", 0, 60)
    idx, merged = tmp_path / "idx", tmp_path / "merged"
    build_index(str(corpus), str(idx), cfg, SPEC)
    merge_segments(str(idx), str(merged), group_size=2)
    assert _hits(merged, "w3")[0][1] == "a3"

    _write(corpus / "c.parquet", "b", 0, 60)
    build_index(str(corpus), str(idx), cfg, SPEC, force=True)
    assert _hits(idx, "w3")[0][1] == "b3"
    merge_segments(str(idx), str(merged), group_size=2)
    assert _hits(merged, "w3")[0][1] == "b3"


def test_other_build_format_refused(ray_session, tmp_path):
    """A segment whose manifest records another build format is refused
    by the engine and by fsck, with a ValueError that asks for a
    rebuild."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=20)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write(corpus / "c.parquet", "a", 0, 50)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), cfg, SPEC)
    mp = idx / "db_1" / "manifest.json"
    m = json.loads(mp.read_text())
    assert m["format"] == "fmt6"
    m["format"] = "fmt5"
    mp.write_text(json.dumps(m))
    with pytest.raises(ValueError, match="'fmt5'.*rebuild"):
        QueryEngine(str(idx), use_actors=False)
    with pytest.raises(ValueError, match="'fmt5'.*rebuild"):
        fsck_index(str(idx))
