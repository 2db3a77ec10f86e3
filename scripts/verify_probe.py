"""Verify-surface probe (the verify skill's surface 2, as a standing
script): adversarial corpus → build → serve → append → delete → append
→ compact → merge, asserting at every step DAAT == BMM and exact
equality with an INDEPENDENT scalar BM25 oracle built by re-tokenizing
the corpus.

Usage: python scripts/verify_probe.py   (owns its Ray session)

The oracle re-derives df/doclen/avgdl from `tokenize_batch` output and
scores with the engine's BM25 variant (no (k1+1) numerator):
idf·tf/(tf + k1·(1 − b + b·dl/avgdl)), idf = log2(N/df) — so a match
to 1e-9 end-to-end pins the build's global stats, codecs, and scoring
in one pass. Deleted docs never appear in a result; until compaction
they still count in the statistics (the tombstone contract), after it
they do not.

Every source of segment postings is exercised: the first build
assembles from stage-1 posting runs, each append re-assembles the old
segments from their decoded postings (the last one mixed with new
runs), compaction renumbers decoded segments into new runs, and the
merge re-encodes the compacted segments in groups — then serves with
the compacted index deleted, from its own doc index and statistics."""

from __future__ import annotations

import collections
import math
import os
import shutil
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0])

CORPUS = "/tmp/verify_corpus"
INDEX = "/tmp/verify_idx"
QUERIES = ("hash sort merge", "Antonín Dvořák")


def _adversarial(t, tag: str):
    """``t`` plus rows of mojibake, NUL bytes and multibyte
    punctuation. The first row is deliberate mojibake (UTF-8 read as
    latin1 and re-encoded), the input of the normalizer's latin1-fix
    stage; the last row spells the same name with the intended
    precomposed characters, so accented letters are indexed and
    queried as well."""
    import pyarrow as pa

    rows = ["AntonÃ­n dvoÅ™Ã¡k hash sort", "nul\x00byte merge sort",
            "«quoted» — ¿punct? hash", "ÀÉÎ UPPER latin1 merge",
            "Antonín Dvořák merge sort"]
    extra = pa.table({"repo": ["r"] * len(rows),
                      "path": [f"{tag}{i}" for i in range(len(rows))],
                      "commit": ["c"] * len(rows), "lang": ["py"] * len(rows),
                      "content": rows})
    return pa.concat_tables([t, extra.cast(t.schema)])


def _check(step: str, eng, rows: list[tuple[str, str]], dead: set[str],
           compacted: bool) -> list:
    """Serve every probe query in ``daat`` and ``bmm`` and compare with
    the scalar oracle over ``rows`` (docno, text) minus ``dead``.
    Returns the ``daat`` results."""
    from searchenginepp_ray.normalizer.batch import tokenize_batch

    if compacted:  # statistics converge on the alive docs
        rows = [r for r in rows if r[0] not in dead]
    doclens, terms_list, tfs_list = tokenize_batch([x for _, x in rows],
                                                   eng.profile)
    docs = {i: dict(zip(terms_list[i].as_py(), tfs_list[i].as_py()))
            for i in range(len(rows))}
    N = len(rows)
    avgdl = float(sum(doclens)) / N
    df = collections.Counter(w for c in docs.values() for w in c)
    out = []
    for query in QUERIES:
        daat = eng.search(query, k=5, mode="daat")
        bmm = eng.search(query, k=5, mode="bmm")
        assert [r[0] for r in daat] == [r[0] for r in bmm], (daat, bmm)
        assert all(abs(a[2] - b[2]) < 1e-10 for a, b in zip(daat, bmm))
        qtoks = eng.normalize_query(query)
        scores = {}
        for i, c in docs.items():
            if rows[i][0] in dead:
                continue
            s = sum(math.log2(N / df[w]) * c[w]
                    / (c[w] + 0.82 * (1 - 0.68 + 0.68 * int(doclens[i]) / avgdl))
                    for w in qtoks if w in c)
            if s:
                scores[i] = s
        # ties break on docid, which follows row order before and after
        # compaction
        want = [(rows[i][0], s) for i, s in
                sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:5]]
        got = [(r[1], r[2]) for r in daat]
        assert want and len(want) == len(got), (step, query, want, got)
        for (wd, ws), (gd, gs) in zip(want, got):
            assert wd == gd and abs(ws - gs) < 1e-9, (step, query, want, got)
        print(f"verify OK [{step}] {query!r}: daat==bmm; independent scalar "
              "BM25 oracle matches top-5 exactly:",
              [(d, round(s, 4)) for d, s in got])
        out.append(daat)
    return out


def main() -> None:
    import pyarrow.parquet as pq
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False)
    from searchenginepp_ray.config import BuildConfig
    from searchenginepp_ray.index.build import (build_index, compact_index,
                                                merge_segments)
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.index.tombstone import delete_docs
    from searchenginepp_ray.sources.corpus_gen import docno_of, generate_corpus
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

    shutil.rmtree(CORPUS, ignore_errors=True)
    os.makedirs(CORPUS)
    for d in (INDEX, INDEX + "-compacted", INDEX + "-merged"):
        shutil.rmtree(d, ignore_errors=True)
    cfg = BuildConfig(docs_per_segment=100)
    rows: list[tuple[str, str]] = []
    dead: set[str] = set()

    def add_file(name: str, n: int, seed: int) -> None:
        t = _adversarial(generate_corpus(n, seed=seed), name)
        pq.write_table(t, os.path.join(CORPUS, name + ".parquet"),
                       row_group_size=64)
        rows.extend((docno_of(r, p, c), x) for r, p, c, x in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist()))

    def step(name: str, index: str = INDEX, compacted: bool = False) -> list:
        eng = QueryEngine(index, scorer="bm25", use_actors=True, cfg=cfg)
        try:
            return _check(name, eng, rows, dead, compacted)
        finally:
            del eng

    add_file("a", 300, 7)
    build_index(CORPUS, INDEX, cfg, CODE_CORPUS)
    step("build")
    add_file("b", 120, 8)
    build_index(CORPUS, INDEX, cfg, CODE_CORPUS)
    top = step("append")[0][0][1]
    dead.add(top)
    delete_docs(INDEX, [top])
    step("delete")
    add_file("c", 90, 9)
    build_index(CORPUS, INDEX, cfg, CODE_CORPUS)
    step("append after delete")
    compact_index(INDEX, INDEX + "-compacted")
    step("compact", INDEX + "-compacted", compacted=True)
    merge_segments(INDEX + "-compacted", INDEX + "-merged", group_size=2)
    shutil.rmtree(INDEX + "-compacted")
    step("merge", INDEX + "-merged", compacted=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
