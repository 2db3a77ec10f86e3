"""``global/`` keeps each fact once: one term-sorted ``(term, df)``
lexicon file, one ``metadata.json`` written and read back into the
``BuildConfig`` by one pair of functions, and the tombstone file as the
only record of deletes. The engine, merge and the CLI serve or refuse
by what the index records."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from searchenginepp_ray import cli
from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig, NormalizerProfile
from searchenginepp_ray.index.build import build_index, merge_segments, read_metadata
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.index.tombstone import delete_docs
from searchenginepp_ray.sources.parquet_corpus import ColumnSpec

SPEC = ColumnSpec(text_col="text", docno_cols=("docno",))

#: neither the simple nor the full profile
STEM_ONLY = NormalizerProfile(stemming=True, fix_latin1=False, latin1_case=False)


def _build(tmp_path, cfg, name="idx", n=60):
    corpus = tmp_path / "corpus.parquet"
    if not corpus.exists():
        pq.write_table(pa.table({
            "docno": [f"d{i}" for i in range(n)],
            "text": [f"the dogs {'bark' if i % 3 else 'sleep'} w{i % 11} "
                     f"{'hash sort merge' if i % 4 == 0 else 'scan'}"
                     for i in range(n)]}), str(corpus), row_group_size=16)
    idx = str(tmp_path / name)
    build_index(str(corpus), idx, cfg, SPEC)
    return idx


def _global_files(idx):
    """Every file under ``idx/global``, by relative path."""
    g = os.path.join(idx, "global")
    out = {}
    for dirpath, _, names in os.walk(g):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, g)] = f.read()
    return out


def test_cli_query_auto_adopts_any_recorded_profile(ray_session, tmp_path,
                                                    capsys, monkeypatch):
    """``query`` serves an index with the profile and BM25 constants it
    records, as ``QueryEngine`` does: a profile that is neither simple
    nor full, and the simple profile with another ``bm25_k1``."""
    monkeypatch.setattr(ray, "shutdown", lambda: None)  # keep the session
    for name, cfg in [
            ("stem", BuildConfig(profile=STEM_ONLY, docs_per_segment=32)),
            ("k1", BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32,
                               bm25_k1=1.2))]:
        idx = _build(tmp_path, cfg, name=name)
        eng = QueryEngine(idx, use_actors=False)
        want = eng.search("dogs", k=10)
        assert want
        assert cli.main(["query", idx, "--query", "dogs", "--no-actors"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == eng.trec_lines("1", want)


def test_engine_refuses_a_cfg_that_disagrees(ray_session, tmp_path):
    """A supplied cfg with another profile, or other BM25 constants, is
    refused rather than served with."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32)
    idx = _build(tmp_path, cfg)
    QueryEngine(idx, use_actors=False, cfg=cfg)
    with pytest.raises(ValueError, match="normalizer profile mismatch"):
        QueryEngine(idx, use_actors=False, cfg=BuildConfig(docs_per_segment=32))
    for other in (dict(bm25_k1=1.2), dict(bm25_b=0.75)):
        with pytest.raises(ValueError, match="bm25 k1/b mismatch"):
            QueryEngine(idx, use_actors=False,
                        cfg=BuildConfig(profile=SIMPLE_PROFILE, **other))


def test_merge_refuses_a_cfg_that_disagrees(ray_session, tmp_path):
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32)
    idx = _build(tmp_path, cfg)
    with pytest.raises(ValueError, match="recorded build params"):
        merge_segments(idx, str(tmp_path / "m"), group_size=2,
                       cfg=BuildConfig(profile=SIMPLE_PROFILE,
                                       docs_per_segment=32, skip_block_size=8))
    merge_segments(idx, str(tmp_path / "m"), group_size=2, cfg=cfg)


@pytest.mark.parametrize("edit", ["no build_params", "no positions",
                                  "profile_id"])
def test_metadata_reader_refuses_incomplete_metadata(ray_session, tmp_path, edit):
    """The one metadata reader raises ``ValueError`` on a missing key or
    on ids that disagree with the recorded flags; the engine and merge
    read through it."""
    idx = _build(tmp_path, BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32))
    path = os.path.join(idx, "global", "metadata.json")
    with open(path) as f:
        meta = json.load(f)
    if edit == "no build_params":
        del meta["build_params"]
    elif edit == "no positions":
        del meta["build_params"]["positions"]
    else:
        meta["profile_flags"]["stemming"] = True
    with open(path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="build_params|profile_flags"):
        read_metadata(idx)
    with pytest.raises(ValueError):
        QueryEngine(idx, use_actors=False)
    with pytest.raises(ValueError):
        merge_segments(idx, str(tmp_path / "m"))


def test_global_holds_each_fact_once(ray_session, tmp_path):
    """``global/`` holds the metadata and the lexicon, and after a delete
    the tombstone file; a delete rewrites nothing else."""
    idx = _build(tmp_path, BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32))
    before = _global_files(idx)
    assert sorted(before) == ["metadata.json", "term_df.parquet"]
    assert pq.read_schema(os.path.join(idx, "global", "term_df.parquet")).names \
        == ["term", "df"]
    delete_docs(idx, ["d3", "d5"])
    after = _global_files(idx)
    assert sorted(after) == ["metadata.json", "term_df.parquet",
                             "tombstones.parquet"]
    assert {k: after[k] for k in before} == before


def test_global_bytes_do_not_depend_on_the_cluster(ray_session, tmp_path,
                                                   monkeypatch):
    """A build on a session that reports 64 CPUs writes the same
    ``global/`` bytes as the default build."""
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=32)
    default = _build(tmp_path, cfg, "default")
    real = ray.cluster_resources
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: {**real(), "CPU": 64.0})
    wide = _build(tmp_path, cfg, "wide")
    monkeypatch.undo()
    assert _global_files(wide) == _global_files(default)
