"""Content pin of the per-index build stages (assemble + global stats).

A small corpus is built plain and positional over three segments with a
skip-block size small enough that common terms span many blocks, then
appended to, tombstoned + compacted, and merged. Pins per phase:

- ``KEPT``: the segment columns that stayed when segments stopped
  storing collection statistics (``term``, ``df_local``, the docid and
  freq streams, the three skip lists) and ``positions.parquet`` —
  recorded from the build that still stored them;
- ``DROPPED``: per column, the idf, df_global, sigmas and block bounds
  that build stored. The searcher now computes them at load (idf from
  the global df, bounds from the stored impacts) and must hash to the
  same digests, so its arrays equal the stored ones bit for bit;
- ``DB``: every ``db_*`` Parquet table, recorded when the global lexicon
  was still written as term-hash partitions (the segments did not
  change with it);
- ``TERM_DF``: the global lexicon ``global/term_df.parquet``, equal to
  the ``(term, df)`` rows of those partitions, concatenated and
  term-sorted;
- ``GLOBAL``: every ``global/`` Parquet table of the current format.

Tables are hashed with schema metadata stripped (so the pin does not
depend on the Parquet writer's version or on who wrote the schema).
"""

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index.build import (
    build_index,
    compact_index,
    merge_segments,
    read_global_term_df,
    read_metadata,
    term_df_path,
)
from searchenginepp_ray.index.engine import QueryEngine, list_segment_dirs
from searchenginepp_ray.index.searcher import SegmentSearcher
from searchenginepp_ray.index.tombstone import delete_docs
from searchenginepp_ray.sources.corpus_gen import docno_of, generate_corpus

#: hand rows: multi-byte terms (sort order must stay code-point order),
#: a term repeated inside one doc (tf > 1) and terms that live in one
#: segment only
_EXTRA = [
    "Antonín Dvořák Dvořák «étude» — ¿qué? ÀÉÎ café café café",
    "東京 東京 naïve résumé zürich zürich onlyseg",
    "ünïcödé ñandú ñandú ß straße 東京",
]

#: the columns segments no longer store
DROPPED_COLUMNS = ["df_global", "idf", "bm25_sigma", "tfidf_sigma",
                   "skip_bm25_ub", "skip_tfidf_ub"]

#: the kept segment columns, and the positional sidecar
KEPT_COLUMNS = ["term", "df_local", "docid_bytes", "freq_bytes",
                "skip_last_docid", "skip_docid_off", "skip_freq_off"]

#: sha256 per phase of the kept columns, recorded from the build
#: that stored the collection statistics in the segments
KEPT = {
    ("plain", "append"):
        "660fa98f2fd94e8f05458bf2006ca88808fe59f85b7a328acf22eb6bb08ae628",
    ("plain", "build"):
        "0cf7567178ba68bd775a84fbc3c2d338bc7cfbd88c771e1ea28822a96a724fc8",
    ("plain", "compact"):
        "081209205cfb8cb9d7262c7acda67cf6d6ef7d790cb5479ff6f3c55d056db3de",
    ("plain", "merge"):
        "0623fe14c7d03e1077dc1ef81fbc5677bb5da64a410d5ceb13fd2f28968ab1de",
    ("positions", "append"):
        "db00b363538758566ced219ce2bc490da546618a56e8823438e3a11dc961bc62",
    ("positions", "build"):
        "b1dfec0924b14cc2bb3adceb08505721b4b1046f86964c8839e3a70d82913cf9",
    ("positions", "compact"):
        "697d6495b75071c6780f31cef6811620ee6b09b219fff228464b2babdb77275c",
    ("positions", "merge"):
        "ebf02d63e5e4689b37c56dc8f0563b93b6a70fa1f05d53fb436fe428c7b95358",
}

#: sha256 per phase and dropped column, recorded from the same build
DROPPED = {
    ("plain", "append"): {
        "df_global": "9d732ae4cfdb651fc393bea7344343cbcc92745f68c5f9dc8dc1c3466a9d70ef",
        "idf": "34959af1f27d53608b1e1767c8aee826e9ba5454f41fb492edb8bf01e79a97e8",
        "bm25_sigma": "2377425f1a2e809a32c5a09132a1310517fef7fc3387b0170e8e76347a7cceb4",
        "tfidf_sigma": "ff3b5db60c00fabc74a59df96b7f43023053765eb1ff8e833a1d6cfdf3573780",
        "skip_bm25_ub": "bf9801e281d5f0f68b40d7db740e9721d7f3b88cc1a15369c102d8d36ee162bd",
        "skip_tfidf_ub": "8d431dfcb79802f116e517175f6f32ae6d3ba9ca5609df874fecade922d48a6c",
    },
    ("plain", "build"): {
        "df_global": "215bff911f0d7799486b6ced76deb27e133932288675466352f9d57d0708f3e0",
        "idf": "c851a5618bd2c99bc15a09e32803562701ca70dc2d29723d8f595a17c4025dee",
        "bm25_sigma": "31f7d669149e538eb1f9fdb1d80cb9567e92c43fc1f41364a50000c44fca7ede",
        "tfidf_sigma": "1fba1dd81ef499136a6537b478dd16887fc0901e17ceaa65e77d504d3dec1045",
        "skip_bm25_ub": "6b13df9864495721c2e265ff5b93c0da53b4271f1827e8c7b9c77dc360834351",
        "skip_tfidf_ub": "91d52abdcaa5b69bad2d02eea61b52d58c4b507dc8902a6ee649ca9e3947c40f",
    },
    ("plain", "compact"): {
        "df_global": "2cd28ce99415d24d12879a78358a52f106eb8db49f53e3b866d12376577b6d25",
        "idf": "2f8020ec6ca83228d94d28e38afde21917303d1e58282f46f2b755802dea193f",
        "bm25_sigma": "f6e9f82d947d9116a7cf7597b235dc63faed836ea738db8a48a9f5517034bdd8",
        "tfidf_sigma": "f87c71f66af4647ef9bb3f19e3b88e6929ea9dcf380eefb0f1c51350d7a1bff3",
        "skip_bm25_ub": "f1abb8bd6f1b83f753a387759543e1d38d7e574ac789757c7bc02fee49c4d260",
        "skip_tfidf_ub": "ea297b2bf224cfbb1e9da28691ec2989fff9fa78b6bb94471640ce096881ffd9",
    },
    ("plain", "merge"): {
        "df_global": "18d69b6b10195b5d57b0d691faa3ebd5595067edadea70afff52205de0dbd6d5",
        "idf": "a53ca489aed9ec0fd0ecf99b7511a78d7763ce7acd394fd3174459322c34d494",
        "bm25_sigma": "aa1b0adabb692c1f8bf5fefcc95768b95a5a9da6f144c30b680061ee37ae7cc6",
        "tfidf_sigma": "74decc99ad9592fafcca7e3d3152e51c1fdbe9197fd775d8e1059bd1d2381bdf",
        "skip_bm25_ub": "43bbe1a70b4c3019e7cda599380dd6afaf82aef0eea8ea6317b18ab69220f7ed",
        "skip_tfidf_ub": "63fda85ea50ff45d45626df21019f2571e354cb328b069d58681bba6f60c63f8",
    },
    ("positions", "append"): {
        "df_global": "9d732ae4cfdb651fc393bea7344343cbcc92745f68c5f9dc8dc1c3466a9d70ef",
        "idf": "34959af1f27d53608b1e1767c8aee826e9ba5454f41fb492edb8bf01e79a97e8",
        "bm25_sigma": "2377425f1a2e809a32c5a09132a1310517fef7fc3387b0170e8e76347a7cceb4",
        "tfidf_sigma": "ff3b5db60c00fabc74a59df96b7f43023053765eb1ff8e833a1d6cfdf3573780",
        "skip_bm25_ub": "bf9801e281d5f0f68b40d7db740e9721d7f3b88cc1a15369c102d8d36ee162bd",
        "skip_tfidf_ub": "8d431dfcb79802f116e517175f6f32ae6d3ba9ca5609df874fecade922d48a6c",
    },
    ("positions", "build"): {
        "df_global": "215bff911f0d7799486b6ced76deb27e133932288675466352f9d57d0708f3e0",
        "idf": "c851a5618bd2c99bc15a09e32803562701ca70dc2d29723d8f595a17c4025dee",
        "bm25_sigma": "31f7d669149e538eb1f9fdb1d80cb9567e92c43fc1f41364a50000c44fca7ede",
        "tfidf_sigma": "1fba1dd81ef499136a6537b478dd16887fc0901e17ceaa65e77d504d3dec1045",
        "skip_bm25_ub": "6b13df9864495721c2e265ff5b93c0da53b4271f1827e8c7b9c77dc360834351",
        "skip_tfidf_ub": "91d52abdcaa5b69bad2d02eea61b52d58c4b507dc8902a6ee649ca9e3947c40f",
    },
    ("positions", "compact"): {
        "df_global": "2cd28ce99415d24d12879a78358a52f106eb8db49f53e3b866d12376577b6d25",
        "idf": "2f8020ec6ca83228d94d28e38afde21917303d1e58282f46f2b755802dea193f",
        "bm25_sigma": "f6e9f82d947d9116a7cf7597b235dc63faed836ea738db8a48a9f5517034bdd8",
        "tfidf_sigma": "f87c71f66af4647ef9bb3f19e3b88e6929ea9dcf380eefb0f1c51350d7a1bff3",
        "skip_bm25_ub": "f1abb8bd6f1b83f753a387759543e1d38d7e574ac789757c7bc02fee49c4d260",
        "skip_tfidf_ub": "ea297b2bf224cfbb1e9da28691ec2989fff9fa78b6bb94471640ce096881ffd9",
    },
    ("positions", "merge"): {
        "df_global": "18d69b6b10195b5d57b0d691faa3ebd5595067edadea70afff52205de0dbd6d5",
        "idf": "a53ca489aed9ec0fd0ecf99b7511a78d7763ce7acd394fd3174459322c34d494",
        "bm25_sigma": "aa1b0adabb692c1f8bf5fefcc95768b95a5a9da6f144c30b680061ee37ae7cc6",
        "tfidf_sigma": "74decc99ad9592fafcca7e3d3152e51c1fdbe9197fd775d8e1059bd1d2381bdf",
        "skip_bm25_ub": "43bbe1a70b4c3019e7cda599380dd6afaf82aef0eea8ea6317b18ab69220f7ed",
        "skip_tfidf_ub": "63fda85ea50ff45d45626df21019f2571e354cb328b069d58681bba6f60c63f8",
    },
}

#: sha256 per phase of the global lexicon, recorded as the term-sorted
#: ``(term, df)`` rows of the term-hash partitions it replaces
TERM_DF = {
    ("plain", "append"):
        "fabd7050020ebcce68b5b19a1e8d0aabf914c0fafc88e08f999db284f9103fa4",
    ("plain", "build"):
        "93a99bfa68c14986e793a3cc5225395736afeb1a7a7f0b91e9a0eb521a89bcda",
    ("plain", "compact"):
        "4c302f89667007ebde3b5bc8b322eb8048a03cfe0af9856df5b19fcc89d56ef9",
    ("plain", "merge"):
        "fabd7050020ebcce68b5b19a1e8d0aabf914c0fafc88e08f999db284f9103fa4",
    ("positions", "append"):
        "fabd7050020ebcce68b5b19a1e8d0aabf914c0fafc88e08f999db284f9103fa4",
    ("positions", "build"):
        "93a99bfa68c14986e793a3cc5225395736afeb1a7a7f0b91e9a0eb521a89bcda",
    ("positions", "compact"):
        "4c302f89667007ebde3b5bc8b322eb8048a03cfe0af9856df5b19fcc89d56ef9",
    ("positions", "merge"):
        "fabd7050020ebcce68b5b19a1e8d0aabf914c0fafc88e08f999db284f9103fa4",
}

#: sha256 per phase over every ``db_*`` table, recorded with the
#: partitioned lexicon
DB = {
    ("plain", "append"):
        "82cef283bf52540694fee5f06d00f5993e5f2b18c62289d013eb2c51d77cb183",
    ("plain", "build"):
        "d8f549c0664df8a6a3ad472e034e0a933a020feb204babf6fab6fdbde5c5600e",
    ("plain", "compact"):
        "46af126e628fdbbefdac6a54f2a3c1be5a775c4e9c1c420afe0699dd5d016711",
    ("plain", "merge"):
        "e754970d7fc0fcb29a8ee16d8b090a3d92325cfb515d3aa9f95245f77bf5c782",
    ("positions", "append"):
        "34742130209bd0a4204803aa962303e080a61e66b6cc6a55ead7f10a26f0baf2",
    ("positions", "build"):
        "00878e96359d2b1c174d8dcf66d0fccb5c04874a884392a35f1687c30d0e5bc0",
    ("positions", "compact"):
        "5c8fd51e8a7a1dc8c28374b10a09bdf86782a1917f8e2febb656cc9689c4515a",
    ("positions", "merge"):
        "cb39201b68345014cc570d9722b4f29284a7a1c01ccbd3d0da4350d9bf97c769",
}

#: sha256 per phase over every ``global/`` table
GLOBAL = {
    ("plain", "append"):
        "e81ed74b19454e3eed9aac859cd3b9167972853a273a6d2acbb52621c0256797",
    ("plain", "build"):
        "51f7caa33b8127aff734cfe1287208f89b25adfe4716a852002de3fa094a45cc",
    ("plain", "compact"):
        "48d56b5f2227f8e233da8063d5c372cae939dc961ef467ffb88e4422a1d61d8b",
    ("plain", "merge"):
        "e81ed74b19454e3eed9aac859cd3b9167972853a273a6d2acbb52621c0256797",
    ("positions", "append"):
        "e81ed74b19454e3eed9aac859cd3b9167972853a273a6d2acbb52621c0256797",
    ("positions", "build"):
        "51f7caa33b8127aff734cfe1287208f89b25adfe4716a852002de3fa094a45cc",
    ("positions", "compact"):
        "48d56b5f2227f8e233da8063d5c372cae939dc961ef467ffb88e4422a1d61d8b",
    ("positions", "merge"):
        "e81ed74b19454e3eed9aac859cd3b9167972853a273a6d2acbb52621c0256797",
}


def _corpus() -> pa.Table:
    t = generate_corpus(447, seed=11)
    rows = t.slice(0, len(_EXTRA)).to_pylist()
    for i, (r, text) in enumerate(zip(rows, _EXTRA)):
        r["path"] = f"extra/{i}.txt"
        r["content"] = text
    extra = pa.Table.from_pylist(rows, schema=t.schema)
    # the hand rows land in segments 0, 1 and the appended tail
    return pa.concat_tables([t.slice(0, 100), extra.slice(0, 1),
                             t.slice(100, 150), extra.slice(1, 1),
                             t.slice(250, 150), extra.slice(2, 1),
                             t.slice(400)])


def _table_digest(t: pa.Table) -> str:
    t = t.replace_schema_metadata(None)
    h = hashlib.sha256()
    for field, col in zip(t.schema, t.columns):
        h.update(f"{field.name}:{field.type}\n".encode())
        h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()


def _index_digest(idx: str, top_dirs) -> str:
    """Hash of every Parquet table under ``idx`` whose top directory
    passes ``top_dirs``, keyed by relative path."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(idx)):
        dirnames.sort()
        rel = os.path.relpath(dirpath, idx)
        if not top_dirs(rel.split(os.sep)[0]):
            continue
        for fn in sorted(files):
            if fn.endswith(".parquet"):
                h.update(os.path.join(rel, fn).encode())
                h.update(_table_digest(
                    pq.read_table(os.path.join(dirpath, fn))).encode())
    return h.hexdigest()


def _kept_digest(idx: str) -> str:
    h = hashlib.sha256()
    for d in list_segment_dirs(idx):
        h.update(os.path.basename(d).encode())
        h.update(_table_digest(pq.read_table(os.path.join(d, "terms.parquet"),
                                             columns=KEPT_COLUMNS)).encode())
        p = os.path.join(d, "positions.parquet")
        if os.path.exists(p):
            h.update(_table_digest(pq.read_table(p)).encode())
    return h.hexdigest()


def _loaded_digests(idx: str) -> dict[str, str]:
    """Per dropped column, the hash of what the searcher computes at
    load (``df_global`` looked up in ``global/term_df``), laid out as
    the column was: values per segment, then a list column's offsets."""
    meta, cfg = read_metadata(idx)
    g = read_global_term_df(idx)
    hs = {c: hashlib.sha256() for c in DROPPED_COLUMNS}
    for d in list_segment_dirs(idx):
        s = SegmentSearcher(d, meta["n_docs"], meta["avgdl"], k1=cfg.bm25_k1,
                            b=cfg.bm25_b, prewarm_df=None)
        gidx = pc.index_in(pa.array(s.terms, pa.string()), value_set=g["term"])
        offs = np.asarray(s._skip_offs, np.int64).tobytes()
        for c, parts in (
                ("df_global", [g["df"].to_numpy()[gidx.to_numpy()]]),
                ("idf", [s.idf]), ("bm25_sigma", [s.bm25_sigma]),
                ("tfidf_sigma", [s.tfidf_sigma]),
                ("skip_bm25_ub", [s._skip_bm25_v, offs]),
                ("skip_tfidf_ub", [s._skip_tfidf_v, offs])):
            hs[c].update(os.path.basename(d).encode())
            dtype = np.int64 if c == "df_global" else np.float64
            for v in parts:
                hs[c].update(v if isinstance(v, bytes)
                             else np.ascontiguousarray(v, dtype).tobytes())
    return {c: h.hexdigest() for c, h in hs.items()}


def _digests(idx: str) -> dict:
    return {
        "kept": _kept_digest(idx),
        "dropped": _loaded_digests(idx),
        "term_df": _table_digest(pq.read_table(term_df_path(idx))),
        "db": _index_digest(idx, lambda top: top.startswith("db_")),
        "global": _index_digest(idx, lambda top: top == "global"),
    }


def _lifecycle(tmp, positions: bool) -> dict:
    cfg = BuildConfig(profile=SIMPLE_PROFILE, docs_per_segment=150,
                      skip_block_size=8, positions=positions)
    t = _corpus()
    corpus = tmp / "corpus"
    corpus.mkdir()
    pq.write_table(t.slice(0, 360), str(corpus / "a.parquet"),
                   row_group_size=64)
    idx = str(tmp / "idx")
    build_index(str(corpus), idx, cfg)
    out = {"build": _digests(idx)}

    pq.write_table(t.slice(360), str(corpus / "b.parquet"),
                   row_group_size=64)
    build_index(str(corpus), idx, cfg)
    out["append"] = _digests(idx)

    src = str(tmp / "tombstoned")
    shutil.copytree(idx, src)
    docnos = [docno_of(r, p, c) for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]
    delete_docs(src, docnos[::7])
    compacted = str(tmp / "compacted")
    compact_index(src, compacted)
    out["compact"] = _digests(compacted)

    merged = str(tmp / "merged")
    merge_segments(idx, merged, group_size=2)
    out["merge"] = _digests(merged)
    out["_idx"] = idx
    return out


@pytest.fixture(scope="module")
def lifecycles(ray_session, tmp_path_factory):
    return {
        kind: _lifecycle(tmp_path_factory.mktemp(f"pin_{kind}"),
                         kind == "positions")
        for kind in ("plain", "positions")
    }


@pytest.mark.parametrize("kind,phase", sorted(KEPT))
def test_build_stage_content_pin(lifecycles, kind, phase):
    """The kept columns and the segment tables are unchanged, the
    searcher computes at load exactly the statistics and bounds the
    segments once stored, the one-file lexicon holds the rows of the
    partitions it replaces, and the current ``global/`` tables are
    pinned."""
    got = lifecycles[kind][phase]
    assert got["kept"] == KEPT[(kind, phase)]
    assert got["dropped"] == DROPPED[(kind, phase)]
    assert got["db"] == DB[(kind, phase)]
    assert got["term_df"] == TERM_DF[(kind, phase)]
    assert got["global"] == GLOBAL[(kind, phase)]


def test_searcher_refuses_lexicon_gap(lifecycles, tmp_path):
    """A segment term missing from the global lexicon has no idf: the
    engine refuses to load with ``ValueError`` (an ``assert`` would
    vanish under ``python -O`` and serve a wrong idf)."""
    src = str(tmp_path / "src")
    shutil.copytree(lifecycles["plain"]["_idx"], src)
    path = term_df_path(src)
    pq.write_table(pq.read_table(path).slice(1), path)
    with pytest.raises(ValueError, match="global lexicon"):
        QueryEngine(src, use_actors=False)
