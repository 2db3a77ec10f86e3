"""Build stage 1 (``TokenizeShards``): columnar docnos, the per-segment
df partials (each segment's ``df_local``) and the global df counted from
the tokenizer's pair codes, and refusal of docno columns the columnar
join cannot format."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import BuildConfig
from searchenginepp_ray.index.build import (
    _docnos,
    build_index,
    compact_index,
    read_global_term_df,
)
from searchenginepp_ray.index.engine import list_segment_dirs
from searchenginepp_ray.index.tombstone import delete_docs
from searchenginepp_ray.normalizer.batch import tokenize_batch
from searchenginepp_ray.sources.corpus_gen import docno_of, generate_corpus
from searchenginepp_ray.sources.parquet_corpus import ColumnSpec


def test_docnos_match_str_format():
    """String and integer docno columns join to exactly the bytes
    ``str.format(docno_format)`` gave row by row, nulls included."""
    t = pa.table({
        "repo": pa.array(["a/b", "Ünï", None, "", "x:y@z"], pa.string()),
        "path": pa.array(["src/m.py", "東京.rs", "p", None, "q"],
                         pa.large_string()),
        "commit": pa.array([7, -3, None, 0, 2**40], pa.int64()),
        "n": pa.array([1, 2, 3, 2**64 - 1, 0], pa.uint64()),
        "i8": pa.array([-128, 127, 0, None, 5], pa.int8()),
    })
    for cols in [("repo",), ("commit",), ("n",), ("repo", "path"),
                 ("repo", "path", "commit"), ("n", "i8", "repo"),
                 ("i8", "commit", "path", "repo")]:
        spec = ColumnSpec(text_col="unused", docno_cols=cols)
        fmt = spec.docno_format()
        exp = [fmt.format(*row) for row in
               zip(*(t[c].to_pylist() for c in cols))]
        got = _docnos(t, spec)
        assert got.type == pa.string()
        assert got.to_pylist() == exp, cols


def _write(tmp, name, table, rows_per_group=64):
    corpus = tmp / name
    corpus.mkdir()
    pq.write_table(table, str(corpus / "a.parquet"), row_group_size=rows_per_group)
    return str(corpus)


def test_float_docno_column_refused(ray_session, tmp_path):
    """A float docno column would format differently in Arrow than in
    ``str.format``; the build refuses it with the task's own
    ``ValueError`` before any doc file is written."""
    t = pa.table({"doc_id": pa.array([1.0, 2.5, 3.0], pa.float64()),
                  "text": ["alpha beta", "beta gamma", "gamma delta"]})
    corpus = _write(tmp_path, "corpus", t)
    idx = str(tmp_path / "idx")
    spec = ColumnSpec(text_col="text", docno_cols=("doc_id",))
    with pytest.raises(ValueError, match="docno column 'doc_id'"):
        build_index(corpus, idx, BuildConfig(docs_per_segment=2), spec)
    assert not glob.glob(os.path.join(idx, "docs", "seg=*", "*.parquet"))


def _value_counts_partials(docs: pa.Table, profile) -> tuple[dict, dict]:
    """The (seg, term) → df and seg → Σdoclen a per-segment
    ``value_counts`` over the docs' re-tokenized term lists gives."""
    doclens, terms, _ = tokenize_batch(docs["text"], profile)
    docs = docs.append_column("terms", terms).append_column(
        "doclen", pa.array(doclens))
    df, dl = {}, {}
    for seg in pc.unique(docs["seg"]).to_pylist():
        part = docs.filter(pc.equal(docs["seg"], seg))
        vc = pc.list_flatten(part["terms"]).value_counts()
        for term, n in zip(vc.field("values").to_pylist(),
                           vc.field("counts").to_pylist()):
            df[(seg, term)] = n
        dl[seg] = int(pc.sum(part["doclen"]).as_py() or 0)
    return df, dl


def _check_partials(idx: str, texts: dict, profile) -> int:
    """Every segment's per-term ``df_local`` and manifest ``sum_doclen``
    equal the value-counts partials of the corpus rows of its doc parts,
    tokenized again, its terms are sorted, and ``global/term_df`` holds
    their sums; returns the segments checked."""
    parts = []
    for f in glob.glob(os.path.join(idx, "docs", "seg=*", "*.parquet")):
        seg = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        docnos = pq.read_table(f, columns=["docno"])["docno"].to_pylist()
        parts.append(pa.table({
            "text": [texts[d] for d in docnos],
            "seg": pa.array(np.full(len(docnos), seg, np.int32))}))
    exp_df, exp_dl = _value_counts_partials(pa.concat_tables(parts), profile)
    segs = list_segment_dirs(idx)
    got_df, total = {}, {}
    for d in segs:
        seg = int(os.path.basename(d)[3:])
        t = pq.read_table(os.path.join(d, "terms.parquet"),
                          columns=["term", "df_local"])
        terms = t["term"].to_pylist()
        assert terms == sorted(terms)
        for term, n in zip(terms, t["df_local"].to_pylist()):
            got_df[(seg, term)] = n
            total[term] = total.get(term, 0) + n
        with open(os.path.join(d, "manifest.json")) as f:
            assert json.load(f)["sum_doclen"] == exp_dl[seg]
    assert got_df == exp_df
    g = read_global_term_df(idx, ["term", "df"])
    assert dict(zip(g["term"].to_pylist(), g["df"].to_pylist())) == total
    return len(segs)


@pytest.mark.parametrize("positions", [False, True],
                         ids=["plain", "positions"])
def test_code_partials_match_value_counts(ray_session, tmp_path, positions):
    """The per-segment df counted from the tokenizer's pair codes (build)
    and from decoded segment postings (compaction) equal the
    value-counts partials per (segment, term), and the global df their
    sums."""
    t = generate_corpus(300, seed=5)
    corpus = _write(tmp_path, "corpus", t)
    cfg = BuildConfig(docs_per_segment=100, positions=positions)
    texts = {docno_of(r, p, c): x for r, p, c, x in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist(), t["content"].to_pylist())}
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, cfg)
    # 64-row shards, some span two segments
    assert _check_partials(idx, texts, cfg.profile) == 3

    src = str(tmp_path / "tombstoned")
    shutil.copytree(idx, src)
    docnos = pa.concat_tables(
        [pq.read_table(f, columns=["docno"])
         for f in glob.glob(os.path.join(idx, "docs", "seg=*", "*.parquet"))]
    )["docno"].to_pylist()
    delete_docs(src, sorted(docnos)[::5])
    compacted = str(tmp_path / "compacted")
    compact_index(src, compacted)
    assert _check_partials(compacted, texts, cfg.profile) >= 1
