"""Verify-surface probe (the verify skill's surface 2, as a standing
script): adversarial corpus → build → serve, asserting DAAT == BMM and
exact equality with an INDEPENDENT scalar BM25 oracle built by
re-tokenizing the corpus.

Usage: python scripts/verify_probe.py   (owns its Ray session)

The oracle re-derives df/doclen/avgdl from `tokenize_batch` output and
scores with the engine's BM25 variant (no (k1+1) numerator):
idf·tf/(tf + k1·(1 − b + b·dl/avgdl)), idf = log2(N/df) — so a match
to 1e-9 end-to-end pins the build's global stats, codecs, and scoring
in one pass."""

from __future__ import annotations

import collections
import math
import shutil
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0])


def main() -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False)
    from searchenginepp_ray.config import BuildConfig
    from searchenginepp_ray.index.build import build_index
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.sources.corpus_gen import generate_corpus
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

    t = generate_corpus(300, seed=7)
    # the first row is deliberate mojibake (UTF-8 read as latin1 and
    # re-encoded), the input of the normalizer's latin1-fix stage; the
    # last row spells the same name with the intended precomposed
    # characters, so accented letters are indexed and queried as well
    rows = ["AntonÃ­n dvoÅ™Ã¡k hash sort", "nul\x00byte merge sort",
            "«quoted» — ¿punct? hash", "ÀÉÎ UPPER latin1 merge",
            "Antonín Dvořák merge sort"]
    extra = pa.table({"repo": ["r"] * len(rows),
                      "path": [f"p{i}" for i in range(len(rows))],
                      "commit": ["c"] * len(rows), "lang": ["py"] * len(rows),
                      "content": rows})
    t = pa.concat_tables([t, extra.cast(t.schema)])
    pq.write_table(t, "/tmp/verify_corpus.parquet", row_group_size=64)
    shutil.rmtree("/tmp/verify_idx", ignore_errors=True)
    cfg = BuildConfig(docs_per_segment=100)
    build_index("/tmp/verify_corpus.parquet", "/tmp/verify_idx", cfg,
                CODE_CORPUS)
    eng = QueryEngine("/tmp/verify_idx", scorer="bm25", use_actors=True,
                      cfg=cfg)
    texts = t["content"].to_pylist()
    doclens, terms_list, tfs_list = tokenize_batch(texts, eng.profile)
    docs = {i + 1: dict(zip(terms_list[i].as_py(), tfs_list[i].as_py()))
            for i in range(len(texts))}
    dls = {i + 1: int(doclens[i]) for i in range(len(texts))}
    N = len(texts)
    avgdl = sum(dls.values()) / N
    df = collections.Counter(w for c in docs.values() for w in c)
    for query in ("hash sort merge", "Antonín Dvořák"):
        daat = eng.search(query, k=5, mode="daat")
        bmm = eng.search(query, k=5, mode="bmm")
        assert [r[0] for r in daat] == [r[0] for r in bmm], (daat, bmm)
        assert all(abs(a[2] - b[2]) < 1e-10 for a, b in zip(daat, bmm))
        qtoks = eng.normalize_query(query)
        scores = {}
        for d, c in docs.items():
            s = sum(math.log2(N / df[w]) * c[w]
                    / (c[w] + 0.82 * (1 - 0.68 + 0.68 * dls[d] / avgdl))
                    for w in qtoks if w in c)
            if s:
                scores[d] = s
        want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        got = [(r[0], r[2]) for r in daat]
        assert want and len(want) == len(got), (query, want, got)
        for (wd, ws), (gd, gs) in zip(want, got):
            assert wd == gd and abs(ws - gs) < 1e-9, (query, want, got)
        print(f"verify OK {query!r}: daat==bmm; independent scalar BM25 "
              "oracle matches top-5 exactly:",
              [(d, round(s, 4)) for d, s in got])
    ray.shutdown()


if __name__ == "__main__":
    main()
