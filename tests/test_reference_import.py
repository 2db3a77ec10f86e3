"""Reference on-disk format interop: the checked-in fixture under
``tests/fixtures/ref_index`` was produced by ``tools/
make_reference_fixture.cpp`` — compiled against the REFERENCE's own
serialization headers (disk_map_writer, VariableBytes, UnaryEncoder) —
so these tests pin true cross-engine byte-format compatibility, not
self-consistency with a Python re-implementation."""

import os
import shutil
import subprocess

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.sources.reference_index import (
    import_reference_index, parse_disk_map, read_document_index)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ref_index")

# must mirror tools/make_reference_fixture.cpp CORPUS exactly
DOCS = [
    ("d0001", "hash sort merge tree hash"),
    ("d0002", "sort sort tree"),
    ("d0003", "merge hash query"),
    ("d0004", "query engine index hash hash hash"),
    ("d0005", "tree index"),
    ("d0006", "engine engine sort"),
    ("d0007", "index query merge merge"),
    ("d0008", "hash tree sort query engine index merge"),
    ("d0009", "zebra"),
    ("d0010", "sort hash"),
    ("d0011", "query query query tree"),
    ("d0012", "engine hash"),
    ("d0013", "merge sort tree tree"),
    ("d0014", "index index engine"),
    ("d0015", "hash merge zebra zebra"),
    ("d0016", "tree query sort"),
    ("d0017", "engine index hash sort"),
    ("d0018", "zebra merge"),
    # latin1-domain terms: common_len ("caf\u00e0" vs "caf\u00e9")
    # counts BYTES and splits the UTF-8 sequence — pins the bytewise
    # front-coding reassembly in parse_disk_map
    ("d0019", "cafe caf\u00e0 caf\u00e9 zebra"),
]

QUERIES = ["hash sort", "zebra", "query engine index", "tree",
           "merge hash tree sort", "nosuchterm", "engine zebra",
           "caf\u00e9 cafe", "caf\u00e0"]


def test_parse_global_lexicon_df():
    with open(os.path.join(FIXTURE, "global_lexicon"), "rb") as f:
        gl = parse_disk_map(f.read(), 1)
    got = {t: v[0] for t, v in gl}
    want = {}
    for _, text in DOCS:
        for t in set(text.split()):
            want[t] = want.get(t, 0) + 1
    assert got == want
    assert [t for t, _ in gl] == sorted(want)  # disk_map keys are sorted


def test_parse_document_index():
    with open(os.path.join(FIXTURE, "db_1", "document_index"), "rb") as f:
        base, docnos, doclens = read_document_index(f.read())
    assert base == 11
    assert docnos == [d for d, _ in DOCS[10:]]
    assert doclens.tolist() == [len(t.split()) for _, t in DOCS[10:]]


def test_parse_sigma_lexicon_variable_values():
    """The N=0 (count-prefixed) disk_map form parses: leading 5 values
    equal lexicon_temp's, then the 2-dp-quantized sigmas the generator
    wrote (1.25 → 125, 2.5 → 250)."""
    with open(os.path.join(FIXTURE, "db_0", "lexicon_temp"), "rb") as f:
        base_lex = parse_disk_map(f.read(), 5)
    with open(os.path.join(FIXTURE, "db_0", "lexicon"), "rb") as f:
        sigma_lex = parse_disk_map(f.read(), 0)
    assert [t for t, _ in sigma_lex] == [t for t, _ in base_lex]
    for (_, base_v), (_, sig_v) in zip(base_lex, sigma_lex):
        assert sig_v[:5] == base_v
        assert sig_v[5] == 125 and sig_v[6] == 250
        assert len(sig_v) == 7 + 5  # one synthetic skip pointer


@pytest.fixture(scope="module")
def imported(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ref_import") / "idx")
    summary = import_reference_index(FIXTURE, out, profile=SIMPLE_PROFILE)
    eng = QueryEngine(out, use_actors=False,
                      cfg=BuildConfig(profile=SIMPLE_PROFILE))
    return summary, eng


@pytest.fixture(scope="module")
def native(ray_session, tmp_path_factory):
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

    tmp = tmp_path_factory.mktemp("ref_native")
    corpus = str(tmp / "corpus.parquet")
    pq.write_table(pa.table({
        "repo": [d for d, _ in DOCS],
        "path": ["p"] * len(DOCS),
        "commit": ["c"] * len(DOCS),
        "lang": ["txt"] * len(DOCS),
        "content": [t for _, t in DOCS],
    }), corpus, row_group_size=6)
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=10)
    out = str(tmp / "idx")
    build_index(corpus, out, cfg, CODE_CORPUS)
    return QueryEngine(out, use_actors=False, cfg=cfg)


def test_import_summary(imported):
    summary, _ = imported
    assert summary["n_docs"] == len(DOCS)
    assert summary["sum_doclen"] == sum(len(t.split()) for _, t in DOCS)
    assert summary["n_segments"] == 2
    assert summary["n_postings"] == sum(
        len(set(t.split())) for _, t in DOCS)


def test_imported_serves_rank_identical_to_native(imported, native):
    """The imported reference index and a native build of the SAME
    corpus produce identical (docid, score) rankings — same dense
    docids (1-based input order both sides), same exact doubles (the
    postings are integer-identical and idf/doclen/avgdl agree)."""
    _, eng_i = imported
    eng_n = native
    for mode in ("daat", "daat_conj", "bmm"):
        a = eng_i.search_batch(QUERIES, k=10, mode=mode)
        b = eng_n.search_batch(QUERIES, k=10, mode=mode)
        for qa, qb in zip(a, b):
            assert [(d, s) for d, _, s in qa] == [(d, s) for d, _, s in qb], mode


def test_imported_matches_scalar_oracle(imported):
    from .oracle import OracleIndex

    _, eng = imported
    oracle = OracleIndex(DOCS, SIMPLE_PROFILE)
    for q in QUERIES:
        terms = eng.normalize_query(q)
        got = eng.search(terms, 10, mode="daat")
        want = oracle.query(terms, 10, conj=False, scorer="bm25")
        assert [g[0] for g in got] == [w[0] for w in want]
        # docnos resolve from the imported document_index heap
        assert [g[1] for g in got] == [w[1] for w in want]
        for g, w in zip(got, want):
            assert g[2] == pytest.approx(w[2], rel=1e-12, abs=1e-12)


def test_imported_index_merges_and_serves(imported, tmp_path):
    """The importer writes the partitioned global lexicon the engine
    reads idf from, so an imported index supports the FULL lifecycle:
    merge_segments over it serves identical (docid, score) rankings."""
    from searchenginepp_ray.index.build import merge_segments

    summary, eng = imported
    merged = str(tmp_path / "merged")
    m = merge_segments(summary["out_dir"], merged, group_size=2)
    assert m["n_segments"] == 1 and m["n_postings"] == summary["n_postings"]
    eng_m = QueryEngine(merged, use_actors=False,
                        cfg=BuildConfig(profile=SIMPLE_PROFILE))
    for mode in ("daat", "bmm"):
        a = eng.search_batch(QUERIES, k=10, mode=mode)
        b = eng_m.search_batch(QUERIES, k=10, mode=mode)
        for qa, qb in zip(a, b):
            assert [(d, s) for d, _, s in qa] == [(d, s) for d, _, s in qb]


def test_imported_index_passes_deep_fsck(imported):
    """Full integrity check over the imported index: every posting list
    decodes, skip fences and impacts hold, the global df sums the
    segments' df_local — the importer's output is indistinguishable
    from a native build's to the checker."""
    from searchenginepp_ray.index.fsck import fsck_index

    summary, _ = imported
    report = fsck_index(summary["out_dir"], deep=True)
    assert report["ok"], report["errors"]
    assert report["n_docs"] == len(DOCS)


def test_interactive_repl_over_imported_index(tmp_path):
    """The CLI's interactive prompt (reference engine.cpp:74-79 serving
    mode) answers queries over an imported reference index."""
    import subprocess
    import sys

    out = str(tmp_path / "idx")
    import_reference_index(FIXTURE, out, profile=SIMPLE_PROFILE)
    p = subprocess.run(
        [sys.executable, "-m", "searchenginepp_ray", "query", out,
         "--interactive", "--no-actors", "-k", "2"],
        input="zebra\nq\n", capture_output=True, text=True, timeout=300,
        cwd=os.path.join(os.path.dirname(__file__), ".."))
    assert p.returncode == 0, p.stderr[-2000:]
    lines = [ln for ln in p.stdout.splitlines() if "Q0" in ln]
    assert len(lines) == 2
    # the interactive prompt text may prefix the first line — anchor on
    # the TREC "Q0" column instead of a fixed token index
    toks = lines[0].split()
    assert toks[toks.index("Q0") + 1] == "d0009"  # pure-zebra doc first


def test_fixture_regenerates_byte_identical():
    """Provenance check: recompiling the generator against the
    reference headers reproduces the checked-in fixture byte-for-byte
    (skipped where g++ or the reference tree is absent)."""
    gen = os.path.join(os.path.dirname(__file__), "..", "tools",
                       "make_reference_fixture.cpp")
    if shutil.which("g++") is None or not os.path.isdir("/root/reference/src"):
        pytest.skip("g++ or reference tree unavailable")
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        exe = os.path.join(td, "gen")
        subprocess.run(
            ["g++", "-std=c++20", "-O1", "-I", "/root/reference/src",
             gen, "-o", exe], check=True, capture_output=True)
        out = os.path.join(td, "ref_index")
        subprocess.run([exe, out], check=True, capture_output=True)
        for root, _dirs, files in os.walk(FIXTURE):
            rel = os.path.relpath(root, FIXTURE)
            for f in files:
                a = open(os.path.join(root, f), "rb").read()
                b = open(os.path.join(out, rel, f), "rb").read()
                assert a == b, os.path.join(rel, f)
