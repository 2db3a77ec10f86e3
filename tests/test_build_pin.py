"""Content pin of the per-index build stages (global stats + assemble).

A small corpus is built plain and positional over three segments with a
skip-block size small enough that common terms span many blocks, then
appended to, tombstoned + compacted, and merged. The column values of
every ``db_*/terms.parquet``, ``db_*/positions.parquet`` and ``global/``
Parquet table are hashed with schema metadata stripped (so the pin does
not depend on the Parquet writer's version or on who wrote the schema)
and compared with digests recorded from an earlier implementation of
the kernels: a rewrite of build stages 2-3 must reproduce every value.

The ``global/term_df/part-K`` names depend on the term-hash width, which
follows the session's CPU count (``tests/conftest.py`` starts Ray with 4).
"""

import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchenginepp_ray.config import SIMPLE_PROFILE, BuildConfig
from searchenginepp_ray.index.build import (
    build_index,
    compact_index,
    merge_segments,
)
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

#: sha256 per phase over the stripped tables of that index, recorded
#: from the pandas/object-array kernels the Arrow kernels replaced
PINNED = {
    ("plain", "build"):
        "452174fe59630f572297a906331399828472ee348022adc8598ad354a6be101a",
    ("plain", "append"):
        "49c632f580e67fc061b7eb50de1acda6ffaaad56d2d81334638a5a28a8e089bd",
    ("plain", "compact"):
        "d1bab47714c24fe9cbc8624b6ec92137e9487f4a897445f655d589f0e15bb1de",
    ("plain", "merge"):
        "8ee4e197d2ccf299260867382fe5d1b4c13fd58b702e64acb1cfea95cfb1e756",
    ("positions", "build"):
        "fad4043221d33030992226d307906e145728ecf60231caa5a798b3369dd6a29a",
    ("positions", "append"):
        "416ea66e992553dab86240c043d1098bdb9a3316b55281614110eca788d7e059",
    ("positions", "compact"):
        "7ffc25b7077cb40e48f9e72f6e21a2bc182d3871dec1b0ec28b9cc2ff28c8a66",
    ("positions", "merge"):
        "c2e89a7d15aefebb9c9fc38dd4d241bcd8c1b96f455fc26ee465ebcb5286f4cb",
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


def _table_digest(path: str) -> str:
    t = pq.read_table(path).replace_schema_metadata(None)
    h = hashlib.sha256()
    for field, col in zip(t.schema, t.columns):
        h.update(f"{field.name}:{field.type}\n".encode())
        h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()


def _index_digest(idx: str) -> str:
    """Hash of every segment and global Parquet table under ``idx``,
    keyed by relative path."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(idx)):
        dirnames.sort()
        rel = os.path.relpath(dirpath, idx)
        top = rel.split(os.sep)[0]
        if not (top.startswith("db_") or top == "global"):
            continue
        for fn in sorted(files):
            if fn.endswith(".parquet"):
                h.update(os.path.join(rel, fn).encode())
                h.update(_table_digest(os.path.join(dirpath, fn)).encode())
    return h.hexdigest()


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
    out = {"build": _index_digest(idx)}

    pq.write_table(t.slice(360), str(corpus / "b.parquet"),
                   row_group_size=64)
    build_index(str(corpus), idx, cfg)
    out["append"] = _index_digest(idx)

    src = str(tmp / "tombstoned")
    shutil.copytree(idx, src)
    docnos = [docno_of(r, p, c) for r, p, c in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist())]
    delete_docs(src, docnos[::7])
    compacted = str(tmp / "compacted")
    compact_index(src, compacted)
    out["compact"] = _index_digest(compacted)

    merged = str(tmp / "merged")
    merge_segments(idx, merged, group_size=2)
    out["merge"] = _index_digest(merged)
    out["_idx"] = idx
    return out


@pytest.fixture(scope="module")
def lifecycles(ray_session, tmp_path_factory):
    return {
        kind: _lifecycle(tmp_path_factory.mktemp(f"pin_{kind}"),
                         kind == "positions")
        for kind in ("plain", "positions")
    }


@pytest.mark.parametrize("kind,phase", sorted(PINNED))
def test_build_stage_content_pin(lifecycles, kind, phase):
    assert lifecycles[kind][phase] == PINNED[(kind, phase)]


def test_merge_refuses_lexicon_gap(lifecycles, tmp_path):
    """A segment term missing from the global lexicon slice is refused
    with ``ValueError`` (an ``assert`` would vanish under ``python -O``
    and the merge would write wrong df/idf)."""
    src = str(tmp_path / "src")
    shutil.copytree(lifecycles["plain"]["_idx"], src)
    seg_df = os.path.join(src, "global", "seg_df")
    s0 = pq.read_table(os.path.join(seg_df, "seg=0", "terms.parquet"))
    s1 = set(pq.read_table(os.path.join(seg_df, "seg=1", "terms.parquet"))
             ["term"].to_pylist())
    # a term of segment 0 only, so the merged segment's union misses it
    drop = next(i for i, term in enumerate(s0["term"].to_pylist())
                if term not in s1)
    pq.write_table(pa.concat_tables([s0.slice(0, drop), s0.slice(drop + 1)]),
                   os.path.join(seg_df, "seg=0", "terms.parquet"))
    with pytest.raises(ValueError, match="global lexicon"):
        merge_segments(src, str(tmp_path / "merged"), group_size=2)
