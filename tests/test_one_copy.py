"""The postings live in the segments only: ``docs/`` is the document
index, stage-1 posting runs are transient, and an append or compaction
re-assembles from decoded segments — without losing deletes, counting a
doc twice after a crash, or writing a segment with postings missing."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index import build
from searchenginepp_ray.index.build import build_index, compact_index
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.index.tombstone import TOMBSTONE_FILE, delete_docs, load_tombstones
from searchenginepp_ray.sources.parquet_corpus import ColumnSpec
from searchenginepp_ray.state.lineage import verify_lineage

CFG = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=64)
SPEC = ColumnSpec(text_col="text", docno_cols=("docno",))


def _write_part(path, lo, hi):
    pq.write_table(pa.table({
        "docno": [f"d{i:04d}" for i in range(lo, hi)],
        "text": [f"alpha beta gamma{i % 7} delta {'z' * (i % 5)} "
                 f"w{chr(97 + i % 26)}{chr(97 + i // 26 % 26)}"
                 for i in range(lo, hi)]}), str(path), row_group_size=32)


def _corpus(tmp, n_old=150, n_new=50):
    corpus = tmp / "corpus"
    corpus.mkdir()
    _write_part(corpus / "a.parquet", 0, n_old)
    return corpus, lambda: _write_part(corpus / "b.parquet", n_old,
                                       n_old + n_new)


def _served(idx) -> set[str]:
    eng = QueryEngine(str(idx), use_actors=False)
    return {h[1] for h in eng.search("alpha", k=1000, mode="daat")}


def _segments(idx) -> dict[str, bytes]:
    """Every db_* file's bytes, keyed by relative path."""
    out = {}
    for p in sorted(glob.glob(os.path.join(str(idx), "db_*", "*"))):
        with open(p, "rb") as f:
            out[os.path.relpath(p, str(idx))] = f.read()
    return out


def test_docs_hold_the_document_index_only(ray_session, tmp_path):
    """After a build, an append and a compaction every ``docs/seg=*``
    part has exactly (docid, docno, doclen), and no posting run is
    left behind."""
    corpus, append = _corpus(tmp_path)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    append()
    build_index(str(corpus), str(idx), CFG, SPEC)
    delete_docs(str(idx), ["d0003", "d0100", "d0190"])
    out = tmp_path / "compacted"
    compact_index(str(idx), str(out))
    for root in (idx, out):
        parts = glob.glob(os.path.join(str(root), "docs", "seg=*", "*.parquet"))
        assert parts
        for p in parts:
            assert pq.read_schema(p).names == ["docid", "docno", "doclen"], p
        assert not os.path.exists(os.path.join(str(root), "docs", "_runs"))
        assert not glob.glob(os.path.join(str(root), "**", "*.arrow"),
                             recursive=True)


def test_append_keeps_deletes(ray_session, tmp_path):
    """A doc deleted before an append stays deleted after it: the
    append carries the tombstone file through the global stats stage. A forced rebuild starts a new index without them."""
    corpus, append = _corpus(tmp_path)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    delete_docs(str(idx), ["d0007"])
    assert "d0007" not in _served(idx)

    append()
    summary = build_index(str(corpus), str(idx), CFG, SPEC)
    assert summary["n_docs"] == 200
    served = _served(idx)
    assert "d0007" not in served and "d0199" in served
    assert os.path.exists(os.path.join(str(idx), "global", TOMBSTONE_FILE))
    assert load_tombstones(str(idx)) == ["d0007"]

    build_index(str(corpus), str(idx), CFG, SPEC, force=True)
    assert not os.path.exists(os.path.join(str(idx), "global", TOMBSTONE_FILE))
    assert "d0007" in _served(idx)


@pytest.mark.parametrize("positions,landed", [
    (False, ("terms.parquet",)),
    (True, ("terms.parquet", "positions.parquet")),
    (True, ("terms.parquet", "positions.parquet.tmp")),
], ids=["plain", "positions", "positions-between-replaces"])
def test_mixed_segment_crash_counts_no_doc_twice(ray_session, tmp_path,
                                                 monkeypatch, positions,
                                                 landed):
    """A crash between a mixed segment's ``terms.parquet`` replace and
    its manifest write leaves a segment that already holds the new
    docs' postings under the old manifest — in a positional build
    possibly beside the old ``positions.parquet``, with the new one
    still under its temporary name. The rerun takes from it only the
    docs without a posting run, so every segment equals a fresh
    build's."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=64,
                      positions=positions)
    corpus, append = _corpus(tmp_path)  # segment 2 holds docs 129-150
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), cfg, SPEC)
    append()
    fresh = tmp_path / "fresh"
    build_index(str(corpus), str(fresh), cfg, SPEC)

    def crash(*a, **k):
        raise RuntimeError("crash in assembly")

    monkeypatch.setattr(build, "_assemble_stage", crash)
    with pytest.raises(RuntimeError, match="crash in assembly"):
        build_index(str(corpus), str(idx), cfg, SPEC)
    monkeypatch.undo()
    # the mixed segment's new term table (and sidecar) landed, its
    # manifest did not
    for name in landed:
        shutil.copy(os.path.join(str(fresh), "db_2",
                                 name.removesuffix(".tmp")),
                    os.path.join(str(idx), "db_2", name))

    summary = build_index(str(corpus), str(idx), cfg, SPEC)
    assert summary["n_docs"] == 200
    assert _segments(idx).keys() == _segments(fresh).keys()
    for k, v in _segments(fresh).items():
        if k.endswith(".parquet"):
            assert _segments(idx)[k] == v, k


def test_rebuild_removes_old_segments(ray_session, tmp_path):
    """A rebuild over a corpus with fewer segments leaves none of the
    old index's extra segments to be served."""
    corpus, append = _corpus(tmp_path)
    append()
    idx = tmp_path / "idx"
    assert build_index(str(corpus), str(idx), CFG, SPEC)["n_segments"] == 4
    os.remove(corpus / "b.parquet")
    assert build_index(str(corpus), str(idx), CFG, SPEC)["n_segments"] == 3
    assert sorted(os.path.dirname(k) for k in _segments(idx)
                  if k.endswith("manifest.json")) == ["db_0", "db_1", "db_2"]
    assert len(_served(idx)) == 150


def test_append_refuses_a_missing_segment(ray_session, tmp_path):
    """An append whose old segment was deleted has no copy of that
    segment's postings left: it raises ValueError and writes no
    segment."""
    corpus, append = _corpus(tmp_path)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    shutil.rmtree(os.path.join(str(idx), "db_0"))
    before = _segments(idx)
    append()
    with pytest.raises(ValueError, match="segment 0"):
        build_index(str(corpus), str(idx), CFG, SPEC)
    assert _segments(idx) == before


def test_segment_without_postings(ray_session, tmp_path):
    """A segment whose docs have no postings (here one empty doc, as an
    empty ``__init__.py`` in a code corpus) records its docs in its
    manifest, so a compaction decodes it and an append re-assembles it
    into a fresh build's segments."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write_part(corpus / "a.parquet", 0, 128)
    pq.write_table(pa.table({"docno": ["empty"], "text": [""]}),
                   str(corpus / "a1.parquet"))  # docid 129, segment 2
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    with open(os.path.join(str(idx), "db_2", "manifest.json")) as f:
        m = json.load(f)
    assert (m["base_docid"], m["n_docs"], m["n_postings"]) == (129, 1, 0)
    assert verify_lineage(str(idx))["problems"] == []

    compacted = tmp_path / "compacted"
    assert compact_index(str(idx), str(compacted))["n_docs"] == 129
    assert verify_lineage(str(compacted))["problems"] == []
    assert len(_served(compacted)) == 128

    _write_part(corpus / "b.parquet", 128, 178)
    assert build_index(str(corpus), str(idx), CFG, SPEC)["n_docs"] == 179
    fresh = tmp_path / "fresh"
    build_index(str(corpus), str(fresh), CFG, SPEC)
    for k, v in _segments(fresh).items():
        if k.endswith(".parquet"):
            assert _segments(idx)[k] == v, k
    delete_docs(str(idx), ["d0005"])
    assert compact_index(str(idx), str(compacted))["n_docs"] == 178
    assert len(_served(compacted)) == 177


def test_merged_index_owns_its_doc_index(ray_session, tmp_path):
    """A merged index copies its doc index: after the source is rebuilt
    from other docs, and after the source is deleted, it serves the same
    (docid, docno, score) top-k as right after the merge."""
    def write(prefix):
        pq.write_table(pa.table({
            "docno": [f"{prefix}{i}" for i in range(60)],
            "text": [f"alpha {'zeta ' if i % 3 == 0 and prefix == 'a' else ''}"
                     f"w{i}" for i in range(60)]}), str(corpus / "c.parquet"))

    def served():
        eng = QueryEngine(str(merged), use_actors=False)
        return eng.search("zeta alpha", k=10, mode="daat")

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write("a")
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=20)
    idx, merged = tmp_path / "idx", tmp_path / "merged"
    build_index(str(corpus), str(idx), cfg, SPEC)
    build.merge_segments(str(idx), str(merged), group_size=3)
    want = served()
    assert [h[1] for h in want[:3]] == ["a0", "a3", "a6"]
    write("b")
    build_index(str(corpus), str(idx), cfg, SPEC, force=True)
    assert served() == want
    shutil.rmtree(idx)
    assert served() == want
    for m in glob.glob(os.path.join(str(merged), "db_*", "manifest.json")):
        with open(m) as f:
            assert all(p.startswith(str(merged) + os.sep)
                       for p in json.load(f)["doc_files"])


def test_doc_index_gap_refused(ray_session, tmp_path):
    """A doc index part with a docid gap is refused with ValueError when
    the engine loads (a check that survives ``python -O``)."""
    corpus, _ = _corpus(tmp_path, n_old=40)
    idx = tmp_path / "idx"
    build_index(str(corpus), str(idx), CFG, SPEC)
    part = sorted(glob.glob(os.path.join(str(idx), "docs", "seg=0", "*.parquet")))[0]
    t = pq.read_table(part)
    pq.write_table(pa.concat_tables([t.slice(0, 5), t.slice(6)]), part)
    with pytest.raises(ValueError, match="dense"):
        QueryEngine(str(idx), use_actors=False)
