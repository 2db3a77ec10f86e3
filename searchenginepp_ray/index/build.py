"""Ray-Data-native inverted-index build pipeline.

Three super-stages, exchanging data through partitioned files on disk
(the disk-based shuffle also serves as the checkpoint boundary — a
rerun skips any stage/partition whose marker or manifest matches):

1. **Tokenize** — ``Dataset`` of (file, row-group) shards →
   ``map_batches(TokenizeShards)`` (stateless tasks; normalizer state is
   process-cached). Per shard and segment (segment = docid range,
   replacing the reference's 700 MB chunk cut, reference
   src/builder.cpp:23, 304-330) a task writes a posting run
   ``docs/_runs/seg=N/part-*.arrow`` and then the document index part
   ``docs/seg=N/part-*.parquet`` ``(docid, docno, doclen)``; the doc
   part of the shard's last segment is written last and atomically, so
   its existence marks the shard done. The stage is columnar from the
   Parquet read to the writes: no document text, token, term or docno
   becomes a Python object on a warm build.
2. **Assemble segments** — one task per segment runs the segment
   writer (:class:`AssembleSegment`): it gathers the segment's postings,
   cuts its vocabulary into term-range chunks within a posting budget,
   and per chunk puts the postings in (term, docid) order,
   VarByte/unary-encodes whole columns in single numpy passes and
   builds the 15,000-posting skip blocks (reference
   src/builder.cpp:192-268); then it writes ``db_<seg>/terms.parquet``
   + a manifest. It reads no global state.
3. **Global stats** — one task sums ``df_local`` per term over every
   segment's ``(term, df_local)`` columns with an Arrow ``group_by``
   (the partial/final pattern replacing the reference's k-way lexicon
   merge, reference src/builder.cpp:127-170) into the term-sorted
   global lexicon ``global/term_df.parquet`` ``(term, df)`` + collection
   metadata ``global/metadata.json`` (reference src/builder.cpp:177-181),
   ``sum_doclen`` taken from the segment manifests. This module is the
   one that knows the ``global/`` layout: every reader goes through
   :func:`read_global_term_df` and :func:`read_metadata`.

**What a segment stores** is what its own docs determine, and nothing
computed from N, df or avgdl: per term ``df_local``, the docid and freq
streams, the skip lists (last docid, docid byte offset, freq bit
offset per block) and per block the score-free *impacts* — the
(tf, doclen) pairs no other posting of the block beats on both
(:func:`block_impacts`). The searcher computes idf from the global df,
and the sigmas and block-max bounds over the impacts, when it loads
(both scorers rise with tf and fall with doclen, so the maximum over
the impacts is the maximum over the block). Each segment's
lineage key covers only its own shard items, params and format, so an
append re-assembles only the mixed last segment and the new ones; the
old segments stay byte for byte as they were.

The postings live in one place, the segments, and every segment is
written by the one writer. Its posting sources, in docid order, are
stage-1 posting runs — term codes over a sorted run vocabulary, docid,
tf [and positions], transient: deleted once every segment's manifest
is written — and existing segments, decoded one term-range chunk at a
time from their encoded rows. An append re-assembles the mixed last
segment from its own postings plus the new runs; compaction renumbers
decoded segments into new runs (:func:`read_segment_postings`);
:func:`merge_segments` copies each group's doc index parts and runs
the writer over the group's source segments; ``import-ref`` feeds it
the postings it decodes. Every Parquet file of an index goes through
:func:`.parquet_out.write_index_parquet`, which picks each column's
encoding.

Everything stays in Arrow and numpy end to end: terms are Arrow string
arrays (dictionary-encoded, sorted by the dictionary permutation),
never Python strings, and no pandas frame is built. Integrity checks
raise ``ValueError`` (they survive ``python -O``).

Skew note: no stage shuffles postings by term, so no key is salted. A
hot term's postings are split by segment (a bounded docid range: at
most ``docs_per_segment`` postings per segment), and within a segment
the writer's term-range chunks hold at most ``SEGMENT_CHUNK_POSTINGS``
decoded postings unless one term alone is larger (a term never
splits).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import BuildConfig, NormalizerProfile
from ..normalizer.batch import sorted_codes, string_array, tokenize_codes
from ..codecs import varbyte
from ..sources.parquet_corpus import ColumnSpec, CorpusShard, corpus_shards, read_shard
from .parquet_out import write_index_parquet
from .tombstone import TOMBSTONE_FILE

#: On-disk build format version, folded into the lineage keys and
#: recorded in every segment manifest: an append onto an older layout
#: rebuilds, and the engine and ``fsck`` refuse a segment of any other
#: format (there is no compatibility reader). Bump on any layout change.
_BUILD_FORMAT = "fmt6"

#: the document index (reference ``document_index``): one row per doc
DOCS_SCHEMA = pa.schema(
    [
        ("docid", pa.uint64()),
        ("docno", pa.string()),
        ("doclen", pa.uint64()),
    ]
)

#: ``docs/`` subdirectory of the posting runs, ``_runs/seg=N/part-*.arrow``
RUNS_DIR = "_runs"

#: the global lexicon ``global/term_df.parquet``, term-sorted (the
#: reference's ``global_lexicon`` disk_map of term → df,
#: src/builder.cpp:127-170); idf is computed from df when it is read
TERM_DF_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64())])

#: the ``global/metadata.json`` keys, every one present in every index;
#: ``profile_flags`` and ``build_params`` hold the ``BuildConfig`` the
#: index was built with (the reference pins the normalizer flags at
#: compile time, CMakeLists.txt:29-32)
_META_KEYS = ("n_docs", "sum_doclen", "avgdl", "n_terms_global", "params_id",
              "profile_id", "profile_flags", "build_params", "lineage_key")
_PROFILE_FLAGS = ("stemming", "fix_latin1", "latin1_case")
_BUILD_PARAMS = ("skip_block_size", "bm25_k1", "bm25_b", "docs_per_segment",
                 "positions")

#: a segment's ``terms.parquet``: one row per term, every value
#: determined by the segment's own docs; the three ``skip_*`` lists and
#: ``impact_n`` hold one value per skip block, ``impact_tf`` and
#: ``impact_doclen`` the blocks' impacts (:func:`block_impacts`)
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df_local", pa.uint64()),
        ("docid_bytes", pa.large_binary()),
        ("freq_bytes", pa.large_binary()),
        ("skip_last_docid", pa.list_(pa.uint64())),
        ("skip_docid_off", pa.list_(pa.uint64())),
        ("skip_freq_off", pa.list_(pa.uint64())),
        ("impact_n", pa.list_(pa.uint32())),
        ("impact_tf", pa.list_(pa.uint32())),
        ("impact_doclen", pa.list_(pa.uint32())),
    ]
)


class Run(NamedTuple):
    """Postings of one docid range of a segment: ``codes`` index the
    sorted ``vocab`` (terms may go unused), each term's postings are in
    docid order, and ``pos`` (positional builds) holds every posting's
    ``tf`` occurrence positions, flat, in posting order."""

    vocab: pa.Array
    codes: np.ndarray
    docids: np.ndarray
    tfs: np.ndarray
    pos: np.ndarray | None


def _write_run(path: str, run: Run) -> None:
    """Write a run as an uncompressed Arrow IPC file (write-temp-then-
    rename): the term column is dictionary-encoded over the run
    vocabulary, so a term string is stored once per run, not once per
    posting. Runs live for one build, so the cheapest write wins — for a
    16,384-doc MS-MARCO-like shard (948k postings, one CPU) this takes
    7.5 ms against 170 ms for the same table as compressed Parquet."""
    cols = {
        "term": pa.DictionaryArray.from_arrays(
            pa.array(run.codes, pa.int32()), run.vocab),
        "docid": pa.array(run.docids, pa.uint64()),
        "tf": pa.array(run.tfs, pa.uint32()),
    }
    if run.pos is not None:
        offs = np.concatenate(([0], np.cumsum(run.tfs, dtype=np.int64)))
        cols["pos"] = pa.LargeListArray.from_arrays(
            offs, pa.array(run.pos, pa.uint32()))
    t = pa.table(cols)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with pa.OSFile(tmp, "wb") as sink, pa.ipc.new_file(sink, t.schema) as w:
        w.write_table(t)
    os.replace(tmp, path)


def _read_run(path: str) -> Run:
    with pa.OSFile(path, "rb") as f:
        t = pa.ipc.open_file(f).read_all()
    term = t["term"].combine_chunks()
    pos = None
    if "pos" in t.column_names:
        pos = np.asarray(pc.list_flatten(t["pos"].combine_chunks()))
    return Run(term.dictionary, np.asarray(term.indices).astype(np.int64),
               t["docid"].to_numpy(), t["tf"].to_numpy().astype(np.int64), pos)


def _write_parts(docs_dir: str, name: str, docids: np.ndarray,
                 docnos: pa.Array, doclens: np.ndarray, segs: np.ndarray,
                 run: Run, pair_doc: np.ndarray) -> list[dict]:
    """The stage-1 layout for one docid-ascending group of docs — its
    docs come from one corpus shard (build) or one old segment
    (compaction): per segment a posting run and a document index part,
    both named ``name``. Every run is written before the first doc
    part, and the doc parts in segment order, each atomically, so the
    doc part of the group's last segment marks the group done.
    ``run.codes`` are the postings' term codes and ``pair_doc`` their
    docs' row numbers."""
    pair_seg = segs[pair_doc]
    seg_ids = np.unique(segs).tolist()
    for seg in seg_ids:
        take = pair_seg == seg
        _write_run(
            os.path.join(docs_dir, RUNS_DIR, f"seg={seg}", name + ".arrow"),
            Run(run.vocab, run.codes[take], run.docids[take], run.tfs[take],
                None if run.pos is None else run.pos[np.repeat(take, run.tfs)]))
    out = []
    for seg in seg_ids:
        rows = np.flatnonzero(segs == seg)
        lo, hi = int(rows[0]), int(rows[-1]) + 1  # docids ascend: a slice
        part = pa.table({"docid": docids[lo:hi], "docno": docnos[lo:hi],
                         "doclen": doclens[lo:hi]}, schema=DOCS_SCHEMA)
        final = os.path.join(docs_dir, f"seg={seg}", name + ".parquet")
        os.makedirs(os.path.dirname(final), exist_ok=True)
        write_index_parquet(part, final + ".tmp")
        os.replace(final + ".tmp", final)
        out.append({"seg": seg, "file": final, "n_docs": hi - lo})
    return out


class TokenizeShards:
    """map_batches callable over shard-descriptor rows: build stage 1.

    Stateless task-compatible: normalizer state (the Arrow stem memo)
    lives at module level and is built once per worker process.

    Columnar from the Parquet read to the writes: docnos are joined
    column-wise in Arrow, the tokenizer runs on the Arrow column
    (:func:`..normalizer.batch.tokenize_codes`), and its (doc, term)
    pair codes become the posting runs — no document text, token, term
    or docno becomes a Python object on a warm build, and no term
    string is gathered per posting.

    Each task writes its own outputs (see :func:`_write_parts`;
    write-temp-then-rename so retries are idempotent) and returns only
    tiny manifest rows — the tokenized shards never transit the object
    store, which is both the 100 TB-scale shape (each task streams to
    shared storage) and much faster on plasma-constrained hosts.
    """

    def __init__(self, spec: ColumnSpec, cfg: BuildConfig, docs_dir: str):
        self.spec = spec
        self.cfg = cfg
        self.docs_dir = docs_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            rows.extend(self._tokenize_and_write(_shard_from_item(row)))
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("seg", pa.int32()), ("file", pa.string()), ("n_docs", pa.int64())]
            ),
        )

    def _tokenize_and_write(self, shard) -> list[dict]:
        cols = list(dict.fromkeys((*self.spec.docno_cols, self.spec.text_col)))
        t = _read_shard_any(shard, cols)
        docnos = _docnos(t, self.spec)
        texts = string_array(t[self.spec.text_col])
        docids = np.arange(shard.base_docid, shard.base_docid + len(texts),
                           dtype=np.uint64)
        segs = ((docids - 1) // self.cfg.docs_per_segment).astype(np.int32)
        # (doc, term)-sorted pair codes over the sorted shard vocabulary
        # (the lexicon is term-sorted everywhere in the reference,
        # std::map, reference src/indexBuilder/IndexBuilder.hpp:41)
        tok = tokenize_codes(texts, self.cfg.profile, positions=self.cfg.positions)
        run = Run(tok.vocab, tok.pair_term, docids[tok.pair_doc], tok.tf, tok.pos)
        name = f"part-{shard.base_docid:012d}-{_shard_ordinal(shard):05d}"
        return _write_parts(self.docs_dir, name, docids, docnos, tok.doclens,
                            segs, run, tok.pair_doc)


def _docnos(t: pa.Table, spec: ColumnSpec) -> pa.Array:
    """``spec.docno_format()`` applied column-wise: each docno column
    cast to string and joined with the format's ``:``/``@`` separators
    by ``binary_join_element_wise`` — the same bytes ``str.format`` gave
    per row (a null renders as ``None``, as ``str.format`` renders it).
    Only string and integer columns format identically, so any other
    type is refused."""
    _, *seps, _ = spec.docno_format().split("{}")
    parts = []
    for c in spec.docno_cols:
        typ = t.schema.field(c).type
        if not (pa.types.is_string(typ) or pa.types.is_large_string(typ)
                or pa.types.is_integer(typ)):
            raise ValueError(
                f"docno column {c!r} has type {typ}; only string and "
                "integer docno columns are supported")
        parts.append(pc.fill_null(pc.cast(t[c], pa.string()), "None"))
    out = parts[0]
    for sep, part in zip(seps, parts[1:]):
        out = pc.binary_join_element_wise(out, part, sep)
    return out.combine_chunks()


#: the global lexicon's file name under ``global/``
TERM_DF_FILE = "term_df.parquet"


def term_df_path(index_dir: str) -> str:
    """The global lexicon file of an index."""
    return os.path.join(index_dir, "global", TERM_DF_FILE)


def _write_term_df(global_dir: str, terms: pa.Array, df: np.ndarray) -> int:
    """Write the global lexicon ``(term, df)``, term-sorted, as one file
    (write-temp-then-rename); returns its row count. The global-stats
    writer, also used by ``import-ref``."""
    g = pa.table({"term": terms, "df": pa.array(df, pa.int64())},
                 schema=TERM_DF_SCHEMA)
    g = g.take(pc.sort_indices(g, sort_keys=[("term", "ascending")]))
    final = os.path.join(global_dir, TERM_DF_FILE)
    write_index_parquet(g, final + ".tmp")
    os.replace(final + ".tmp", final)
    return len(g)


def read_global_term_df(index_dir: str, columns: list[str] | None = None,
                        filter=None) -> pa.Table:
    """Read the global lexicon ``(term, df)``, term-sorted; ``filter``
    (an Arrow expression on ``term``) prunes the read by row-group
    statistics."""
    return pq.read_table(term_df_path(index_dir), columns=columns,
                         filters=filter)


def write_metadata(global_dir: str, cfg: BuildConfig, n_docs: int,
                   sum_doclen: int, n_terms_global: int,
                   lineage_key: str) -> None:
    """Write ``global/metadata.json`` (write-temp-then-rename): the
    collection statistics and the ``BuildConfig`` the index was built
    with, which :func:`read_metadata` gives back."""
    meta = {
        "n_docs": n_docs,
        "sum_doclen": sum_doclen,
        "avgdl": sum_doclen / max(n_docs, 1),
        "n_terms_global": n_terms_global,
        "params_id": cfg.params_id,
        "profile_id": cfg.profile.profile_id,
        "profile_flags": {k: getattr(cfg.profile, k) for k in _PROFILE_FLAGS},
        "build_params": {k: getattr(cfg, k) for k in _BUILD_PARAMS},
        "lineage_key": lineage_key,
    }
    path = os.path.join(global_dir, "metadata.json")
    with open(path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(path + ".tmp", path)


def read_metadata(index_dir: str) -> tuple[dict, BuildConfig]:
    """``global/metadata.json`` and the ``BuildConfig`` it records — the
    normalizer profile, the delta-gap restart period baked into the
    encoding and the BM25 constants the engine scores and bounds with;
    readers, compaction and merge use these, not their own defaults.
    Raises ``ValueError`` when a key is missing or the recorded ids
    disagree with the recorded flags and params."""
    path = os.path.join(index_dir, "global", "metadata.json")
    with open(path) as f:
        meta = json.load(f)
    missing = [k for k in _META_KEYS if k not in meta]
    if not missing:
        missing = ([f"profile_flags.{k}" for k in _PROFILE_FLAGS
                    if k not in meta["profile_flags"]]
                   + [f"build_params.{k}" for k in _BUILD_PARAMS
                      if k not in meta["build_params"]])
    if missing:
        raise ValueError(f"{path} lacks {missing}; rebuild the index with "
                         "force=True")
    cfg = BuildConfig(
        profile=NormalizerProfile(**{k: meta["profile_flags"][k]
                                     for k in _PROFILE_FLAGS}),
        **{k: meta["build_params"][k] for k in _BUILD_PARAMS})
    if cfg.profile.profile_id != meta["profile_id"]:
        raise ValueError(f"{path}: profile_id {meta['profile_id']} disagrees "
                         f"with profile_flags {meta['profile_flags']}")
    if cfg.params_id != meta["params_id"]:
        raise ValueError(f"{path}: params_id {meta['params_id']} disagrees "
                         f"with build_params {meta['build_params']}")
    return meta, cfg


@ray.remote
def _global_stage_single(seg_dirs: list[str], global_dir: str) -> tuple[int, int]:
    """Build stage 3 in one task, in Arrow: sum every segment's
    ``df_local`` per term (``group_by``) into the global lexicon
    (:func:`_write_term_df`; empty when the documents normalize to no
    terms). Returns (sum_doclen, summed from the segment manifests, and
    the lexicon's term count)."""
    sum_doclen = sum(int(_read_json(os.path.join(d, "manifest.json"))["sum_doclen"])
                     for d in seg_dirs)
    t = pa.concat_tables([pq.read_table(os.path.join(d, "terms.parquet"),
                                        columns=["term", "df_local"])
                          for d in seg_dirs])
    g = t.group_by("term").aggregate([("df_local", "sum")])
    return sum_doclen, _write_term_df(global_dir, g["term"].combine_chunks(),
                                      g["df_local_sum"].to_numpy())


def _shard_ordinal(shard) -> int:
    """A per-file ordinal for output filenames (row-group index for
    Parquet shards, 0 for byte-range TSV shards — base_docid already
    makes the name unique)."""
    return getattr(shard, "row_group", 0)


def _shard_from_item(row: dict):
    """Rebuild a shard dataclass from its Dataset item dict."""
    if row.get("kind") == "tsv":
        from ..sources.tsv_corpus import TsvShard

        return TsvShard(row["path"], row["byte_start"], row["byte_end"],
                        row["base_docid"], row["num_rows"])
    if row.get("kind") == "jsonl":
        from ..sources.jsonl_corpus import JsonlShard

        return JsonlShard(row["path"], row["byte_start"], row["byte_end"],
                          row["base_docid"], row["num_rows"])
    return CorpusShard(row["path"], row["row_group"], row["base_docid"], row["num_rows"])


def _shard_to_item(shard) -> dict:
    from ..sources.jsonl_corpus import JsonlShard
    from ..sources.tsv_corpus import TsvShard

    if isinstance(shard, (TsvShard, JsonlShard)):
        kind = "tsv" if isinstance(shard, TsvShard) else "jsonl"
        return {"kind": kind, "path": shard.path, "byte_start": shard.byte_start,
                "byte_end": shard.byte_end, "base_docid": shard.base_docid,
                "num_rows": shard.num_rows}
    return {"kind": "parquet", "path": shard.path, "row_group": shard.row_group,
            "base_docid": shard.base_docid, "num_rows": shard.num_rows}


def _read_shard_any(shard, columns):
    from ..sources.jsonl_corpus import JsonlShard, read_jsonl_shard
    from ..sources.tsv_corpus import TsvShard, read_tsv_shard

    if isinstance(shard, TsvShard):
        return read_tsv_shard(shard)
    if isinstance(shard, JsonlShard):
        return read_jsonl_shard(shard)
    return read_shard(shard, columns)


def _read_json(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _append_compatible(old: dict | None, new_sig: dict) -> bool:
    """True iff the previously-built shard list ``old`` is a prefix of
    the new one under identical params/format — the append-only case
    where every old shard's bytes, base docid and segment assignment
    are unchanged, so its stage-1 outputs remain valid verbatim."""
    if not old or old.get("params") != new_sig["params"] or \
            old.get("format") != new_sig["format"]:
        return False
    old_shards = old.get("shards", [])
    new_shards = new_sig["shards"]
    return (0 < len(old_shards) <= len(new_shards)
            and new_shards[:len(old_shards)] == old_shards)


def _key(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _stage_marker(path: str, key: str) -> bool:
    try:
        return open(path).read() == key
    except OSError:
        return False


def _global_stage(seg_dirs: list[str], global_dir: str, n_docs: int,
                  cfg: BuildConfig, lineage_key: str) -> None:
    """Build stage 3 (global stats), after the segments are assembled:
    sum ``df_local`` per term over the segments ``seg_dirs`` in one task
    (:func:`_global_stage_single`, an Arrow ``group_by`` sum and term
    sort) into the global lexicon ``global/term_df.parquet``, and write
    ``global/metadata.json`` (:func:`write_metadata`).
    Shared by :func:`build_index` and :func:`compact_index`, so a
    compacted index's global state is byte-identical to a fresh build's
    over the same alive docs. Every file is rewritten from the
    segments, so a rerun over an existing ``global/`` reproduces it
    byte for byte, on any cluster. The tombstone file is the one file
    kept: the deletes it records outlive the statistics."""
    os.makedirs(global_dir, exist_ok=True)
    for name in os.listdir(global_dir):
        if name != TOMBSTONE_FILE:
            p = os.path.join(global_dir, name)
            if os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)
    sum_doclen, n_terms = ray.get(
        _global_stage_single.remote(seg_dirs, global_dir))
    write_metadata(global_dir, cfg, n_docs, sum_doclen, n_terms, lineage_key)


def build_index(
    corpus_paths: list[str] | str,
    out_dir: str,
    cfg: BuildConfig | None = None,
    spec: ColumnSpec | None = None,
    *,
    force: bool = False,
    source_format: str = "parquet",
) -> dict:
    """Run the full build. Returns summary stats (docs, terms, postings…).

    Resumable: tokenize and global stats write a marker keyed on the
    input shard list + build params + format; a rerun with the same key
    skips the stage, and tokenize skips every shard whose last doc part
    exists.
    Segment assembly skips each segment whose manifest carries its own
    lineage key (its shard items + params + format). A segment's files
    are replaced before its manifest is written, and a positional
    segment's two tables are both written whole before either replace,
    so a rerun after a crash at any point resumes.

    Append-incremental: when the old shard list is a prefix of the new
    one (same params and format), only the new shards tokenize; the old
    segments keep their keys and are not touched, the mixed last
    segment is re-assembled from its own decoded postings plus the new
    shards' runs, and the global stats sum the new segment set. The
    index's deletes (``global/tombstones.parquet``) carry over, so a
    deleted doc stays deleted. Any other change of shard list, params or format —
    and ``force`` — rebuilds from scratch: the old segments and
    tombstones are removed with the old ``docs/``, since the docnos they
    name may no longer be the same documents. The lineage names the
    shard layout, not the corpus bytes, so a ``force`` build folds a
    fresh token into its keys (kept by later appends): an index merged
    from the old build then sees a new lineage.
    """
    import time as _time

    from ..sources.parquet_corpus import CODE_CORPUS

    stage_secs: dict[str, float] = {}
    _t0 = _time.perf_counter()

    cfg = cfg or BuildConfig()
    if source_format == "csv":
        # CSV cannot be byte-range line-sharded (quoted fields may embed
        # newlines) — one staging pass converts per input file to
        # parquet (sources/csv_corpus.py), then the ordinary parquet
        # build runs over the staged, deterministic layout
        from ..sources.csv_corpus import stage_csv_to_parquet
        from ..sources.jsonl_corpus import JSONL_CORPUS

        corpus_paths = stage_csv_to_parquet(corpus_paths)
        spec = spec or JSONL_CORPUS  # same (docno, text) field mapping
        source_format = "parquet"
    if source_format == "tsv":
        from ..sources.tsv_corpus import TSV_CORPUS, tsv_shards

        spec = spec or TSV_CORPUS
        shards = tsv_shards(corpus_paths)
    elif source_format == "jsonl":
        from ..sources.jsonl_corpus import JSONL_CORPUS, jsonl_shards

        spec = spec or JSONL_CORPUS
        shards = jsonl_shards(corpus_paths)
    else:
        spec = spec or CODE_CORPUS
        shards = corpus_shards(corpus_paths)
    n_docs_total = sum(s.num_rows for s in shards)
    items = [sorted(_shard_to_item(s).items()) for s in shards]
    shard_sig = json.loads(json.dumps({
        "params": cfg.params_id, "format": _BUILD_FORMAT, "shards": items}))

    docs_dir = os.path.join(out_dir, "docs")
    global_dir = os.path.join(out_dir, "global")
    os.makedirs(out_dir, exist_ok=True)
    # append-incremental contract: the shard-list signature lets a rerun
    # whose NEW shard list starts with the old one (same params/format,
    # files only appended — base docids of old shards unchanged) keep the
    # old shards' doc parts and the segments built from them; only the
    # appended shards tokenize, and only the segments they reach are
    # re-assembled
    sig_path = os.path.join(out_dir, "_docs_shards.json")
    old_sig = _read_json(sig_path)
    keep = not force and _append_compatible(old_sig, shard_sig)
    token = (os.urandom(8).hex() if force
             else old_sig.get("token", "") if keep else "")
    shard_sig["token"] = token
    lineage_key = _key(items, cfg.params_id, _BUILD_FORMAT, token)
    dps = cfg.docs_per_segment
    seg_items: dict[int, list] = {}
    for s, item in zip(shards, items):
        if s.num_rows:
            for seg in range((s.base_docid - 1) // dps,
                             (s.base_docid + s.num_rows - 2) // dps + 1):
                seg_items.setdefault(seg, []).append(item)
    seg_keys = {seg: _key(it, cfg.params_id, _BUILD_FORMAT, token)
                for seg, it in seg_items.items()}

    # ---- stage 1: tokenize → posting runs + doc index parts by segment ----
    marker1 = os.path.join(out_dir, "_docs_done")
    if force or not _stage_marker(marker1, lineage_key):
        # crash-resume within the stage: an in-progress marker carries the
        # lineage key; if it matches, completed shards (the doc part of
        # their last segment exists — written last, atomically) are
        # skipped instead of wiping the whole stage. A key mismatch wipes
        # UNLESS the old shard list is a prefix of the new one
        # (append-incremental).
        wip = os.path.join(out_dir, "_docs_wip")
        if force or not (_stage_marker(wip, lineage_key) or keep):
            shutil.rmtree(docs_dir, ignore_errors=True)
            for d in os.listdir(out_dir):
                if d.startswith("db_"):
                    shutil.rmtree(os.path.join(out_dir, d))
            tomb = os.path.join(global_dir, TOMBSTONE_FILE)
            if os.path.exists(tomb):
                os.remove(tomb)
        with open(wip, "w") as f:
            f.write(lineage_key)
        with open(sig_path + ".tmp", "w") as f:
            json.dump(shard_sig, f)
        os.replace(sig_path + ".tmp", sig_path)
        shard_items = [
            _shard_to_item(s) for s in shards
            if s.num_rows and not os.path.exists(os.path.join(
                docs_dir, f"seg={(s.base_docid + s.num_rows - 2) // dps}",
                f"part-{s.base_docid:012d}-{_shard_ordinal(s):05d}.parquet"))
        ]
        if shard_items:
            # tasks write their own seg=N/part-* files; only tiny
            # manifest rows come back through the object store
            _map_tasks(shard_items, TokenizeShards(spec, cfg, docs_dir))
        with open(marker1, "w") as f:
            f.write(lineage_key)
        os.remove(wip)
    stage_secs["tokenize"] = _time.perf_counter() - _t0
    _t0 = _time.perf_counter()

    # ---- stage 2: assemble segments (no global state needed) ----
    manifests = _assemble_stage(out_dir, docs_dir, seg_keys, cfg, force)
    shutil.rmtree(os.path.join(docs_dir, RUNS_DIR), ignore_errors=True)
    stage_secs["assemble"] = _time.perf_counter() - _t0
    _t0 = _time.perf_counter()

    # ---- stage 3: global stats (df + metadata) over the segments ----
    # One task sums the segments' vocabulary-sized (term, df_local)
    # columns into one term-sorted lexicon, as the reference merges its
    # lexicon on one thread (src/builder.cpp:127-181).
    marker2 = os.path.join(out_dir, "_global_done")
    if force or not _stage_marker(marker2, lineage_key):
        _global_stage([os.path.join(out_dir, f"db_{m['seg']}") for m in manifests],
                      global_dir, n_docs_total, cfg, lineage_key)
        with open(marker2, "w") as f:
            f.write(lineage_key)
    stage_secs["global_stats"] = _time.perf_counter() - _t0

    meta, _ = read_metadata(out_dir)
    summary = {
        "stage_secs": {k: round(v, 3) for k, v in stage_secs.items()},
        "n_docs": meta["n_docs"],
        "sum_doclen": meta["sum_doclen"],
        "avgdl": meta["avgdl"],
        "n_segments": len(manifests),
        "n_terms_global": int(meta["n_terms_global"]),
        "n_postings": int(sum(m["n_postings"] for m in manifests)),
        "out_dir": out_dir,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f)
    return summary


def _assemble_stage(out_dir: str, docs_dir: str, seg_keys: dict[int, str],
                    cfg: BuildConfig, force: bool, src_dir: str | None = None,
                    groups: dict[int, list[int]] | None = None) -> list[dict]:
    """Segment assembly over a docs/ layout: one task per segment ``N``
    of ``seg_keys`` whose manifest does not carry its key
    ``seg_keys[N]`` (every one with ``force``), each writing its own
    ``db_N/``. Returns every segment's manifest, in segment order.
    Shared by :func:`build_index`, :func:`compact_index` and
    :func:`merge_segments`.

    Segment ``N`` takes the postings of its docs without a posting run
    from the segments ``groups[N]`` of ``src_dir`` (default: its own
    old ``db_N`` in ``out_dir``). Before any task starts, each of them
    must exist for every segment still to assemble that has such docs.
    Otherwise it raises ``ValueError`` and writes no segment — a
    segment is never written with postings missing."""
    src_dir = src_dir or out_dir
    groups = groups or {s: [s] for s in seg_keys}
    done, todo = [], []
    for s in sorted(seg_keys):
        seg_dir = os.path.join(out_dir, f"db_{s}")
        if not force and _manifest_key(seg_dir) == seg_keys[s]:
            done.append(_read_json(os.path.join(seg_dir, "manifest.json")))
            continue
        missing = [os.path.join(src_dir, f"db_{g}") for g in groups[s]
                   if not _segment_exists(os.path.join(src_dir, f"db_{g}"))]
        if missing and not all(os.path.exists(_run_path(docs_dir, s, f))
                               for f in _doc_parts(docs_dir, s)):
            raise ValueError(
                f"segment {s}: documents without a posting run and no "
                f"{missing[0]} to decode their postings from; rebuild "
                "with force=True")
        todo.append({"seg": s, "srcs": groups[s], "key": seg_keys[s]})
    if todo:
        done += _map_tasks(todo, AssembleSegment(out_dir, docs_dir, cfg, src_dir))
    return sorted(done, key=lambda m: m["seg"])


def _doc_parts(docs_dir: str, seg: int) -> list[str]:
    """The document index part files of segment ``seg``."""
    d = os.path.join(docs_dir, f"seg={seg}")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def _run_path(docs_dir: str, seg: int, doc_part: str) -> str:
    """The posting run that belongs to a document index part."""
    name = os.path.basename(doc_part)[: -len(".parquet")]
    return os.path.join(docs_dir, RUNS_DIR, f"seg={seg}", name + ".arrow")


def _segment_exists(seg_dir: str) -> bool:
    return all(os.path.exists(os.path.join(seg_dir, n))
               for n in ("manifest.json", "terms.parquet"))


def _manifest_key(seg_dir: str) -> str | None:
    """The lineage key of a segment's manifest (None without one)."""
    try:
        with open(os.path.join(seg_dir, "manifest.json")) as f:
            return json.load(f).get("lineage_key")
    except OSError:
        return None


def _union_vocab(vocabs: list[pa.Array]) -> tuple[pa.Array, list[np.ndarray]]:
    """The sorted union of vocabularies, and each vocabulary's codes
    into it. Terms no posting uses stay in the union: the segment
    writer drops them."""
    rank, uniq = sorted_codes(pa.concat_arrays(vocabs))
    bounds = np.cumsum([0] + [len(v) for v in vocabs])
    return uniq, [rank[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _segment_range(seg_dir: str) -> tuple[int, int]:
    """The (base docid, doc count) a built segment's manifest records,
    once a replace a crash interrupted is completed. Raises
    ``ValueError`` when the segment is missing."""
    _finish_replace(seg_dir)
    if not _segment_exists(seg_dir):
        raise ValueError(f"{seg_dir} is missing: its postings cannot be "
                         "decoded; rebuild with force=True")
    with open(os.path.join(seg_dir, "manifest.json")) as f:
        m = json.load(f)
    return int(m["base_docid"]), int(m["n_docs"])


def _decode_segment(seg_dir: str, positions: bool) -> tuple[Run, tuple[int, int]]:
    """A built segment's postings as one term-sorted run, and the
    (base docid, doc count) its manifest records."""
    rng = _segment_range(seg_dir)
    dec = read_segment_postings(seg_dir)
    pos = read_segment_positions(seg_dir, dec["tfs"]) if positions else None
    codes = np.repeat(np.arange(len(dec["df"]), dtype=np.int64), dec["df"])
    return Run(dec["terms"], codes, dec["docids"], dec["tfs"], pos), rng


def _finish_replace(seg_dir: str) -> None:
    """Complete a positional segment write that stopped between its
    ``terms.parquet`` and ``positions.parquet`` replaces. The segment
    writer finishes both temporary files before either replace, so a
    ``positions.parquet.tmp`` without a ``terms.parquet.tmp`` beside it
    is whole and matches the ``terms.parquet`` in place."""
    tmp = os.path.join(seg_dir, "positions.parquet.tmp")
    if (os.path.exists(tmp)
            and not os.path.exists(os.path.join(seg_dir, "terms.parquet.tmp"))):
        os.replace(tmp, os.path.join(seg_dir, "positions.parquet"))


def _map_tasks(items: list[dict], fn) -> list[dict]:
    """Run ``fn`` with one Ray Data task per item; returns its output
    rows. Every Ray Data build stage (tokenize, assemble, merge) runs
    through here, so a task's exception keeps its own type (a refusal
    stays a ``ValueError``) instead of Ray Data's ``UserCodeException``
    wrapper."""
    ds = ray.data.from_items(items, override_num_blocks=len(items))
    ds.context.raise_original_map_exception = True
    return ds.map_batches(
        fn, batch_format="pyarrow", batch_size=None, num_cpus=1
    ).take_all()


#: per-chunk decoded-posting budget of the segment writer — the bound on
#: a writer task's DECODED working set (flat int64 arrays are ~10-20×
#: the encoded bytes, so this is what sizes task RSS). 4M postings ≈ 4M
#: × ~50 B of flats/scratch ≈ 200 MB peak per chunk.
SEGMENT_CHUNK_POSTINGS = 4_000_000


class _Postings(NamedTuple):
    """Postings whose ``codes`` index the segment writer's vocabulary
    (in a chunk: from the chunk's first term on); ``pos`` (positional
    builds) holds every posting's ``tf`` occurrence positions, flat, in
    posting order."""

    codes: np.ndarray
    docids: np.ndarray
    tfs: np.ndarray
    pos: np.ndarray | None


def _by_term(p: _Postings) -> _Postings:
    """``p`` in (term, docid) order. ``p`` lists its postings in docid
    order within each term (runs over ascending docid ranges, each in
    (doc, term) or (term, docid) order, concatenated), so a stable sort
    on the term codes alone is enough (O2 in SURVEY §2.6); each
    posting's position slice follows it."""
    order = np.argsort(p.codes, kind="stable")
    tfs = p.tfs[order]
    pos = None
    if p.pos is not None:
        starts = np.cumsum(p.tfs) - p.tfs
        pos = p.pos[np.repeat(starts[order], tfs) + _ranges(tfs)]
    return _Postings(p.codes[order], p.docids[order], tfs, pos)


class _SortedPostings:
    """A posting source already in (term, docid) order — a segment's
    stage-1 runs after one sort, or an imported segment — sliced per
    term range."""

    def __init__(self, p: _Postings, n_terms: int):
        self.p = p
        self.counts = np.bincount(p.codes, minlength=n_terms)
        self._at = np.concatenate(([0], np.cumsum(self.counts)))
        self._pos_at = (None if p.pos is None
                        else np.concatenate(([0], np.cumsum(p.tfs))))

    def chunk(self, ta: int, tb: int) -> _Postings:
        a, b = int(self._at[ta]), int(self._at[tb])
        p = self.p
        return _Postings(p.codes[a:b] - ta, p.docids[a:b], p.tfs[a:b],
                         None if p.pos is None
                         else p.pos[self._pos_at[a]: self._pos_at[b]])


class _SegmentPostings:
    """The postings of docids ``lo..hi`` in existing segments (an
    append's old segment, a merge's source group), held as their
    encoded term rows and decoded one term range at a time. Call
    :meth:`bind` with the rows' codes in the writer's vocabulary before
    :meth:`chunk`."""

    def __init__(self, seg_dirs: list[str], lo: int, hi: int, positions: bool):
        blocks = set()
        for d in seg_dirs:
            with open(os.path.join(d, "manifest.json")) as f:
                blocks.add(int(json.load(f)["skip_block_size"]))
        # one restart period decodes every row: mixed-B sources would
        # decode silently wrong
        if len(blocks) != 1:
            raise ValueError(f"mixed skip_block_size {sorted(blocks)} "
                             f"across source segments {seg_dirs}")
        self.B = blocks.pop()
        self.lo, self.hi, self.where = lo, hi, ", ".join(seg_dirs)
        cols = ["term", "df_local", "docid_bytes", "freq_bytes"]
        self.rows = pa.concat_tables([
            pq.read_table(os.path.join(d, "terms.parquet"), columns=cols)
            for d in seg_dirs]).combine_chunks()
        self.pos_rows = pa.concat_tables([
            pq.read_table(os.path.join(d, "positions.parquet"),
                          columns=["pos_bytes"])
            for d in seg_dirs]).combine_chunks() if positions else None
        self.vocab = self.rows["term"].combine_chunks()

    def bind(self, codes: np.ndarray, n_terms: int) -> "_SegmentPostings":
        # rows are segment-major: a stable sort on the term codes puts
        # them in (term, segment) = (term, docid) order, so a term range
        # decodes straight into (term, docid) order
        self.order = np.argsort(codes, kind="stable")
        self.codes = codes[self.order]
        df = self.rows["df_local"].to_numpy().astype(np.int64)[self.order]
        # an upper bound: the docid filter applies at decode
        self.counts = np.bincount(self.codes, weights=df,
                                  minlength=n_terms).astype(np.int64)
        self._at = np.searchsorted(self.codes, np.arange(n_terms + 1))
        return self

    def chunk(self, ta: int, tb: int) -> _Postings:
        r0, r1 = int(self._at[ta]), int(self._at[tb])
        rows = pa.array(self.order[r0:r1])
        dec = decode_postings_rows(self.rows.take(rows), self.B)
        docids, tfs = dec["docids"], dec["tfs"]
        codes = np.repeat(self.codes[r0:r1] - ta, dec["df"])
        pos = None
        if self.pos_rows is not None:
            pos = _decode_pos_rows(self.pos_rows["pos_bytes"].take(rows),
                                   tfs, self.where)
        keep = (docids >= self.lo) & (docids <= self.hi)
        if keep.all():
            return _Postings(codes, docids, tfs, pos)
        return _Postings(codes[keep], docids[keep], tfs[keep],
                         None if pos is None else pos[np.repeat(keep, tfs)])


class AssembleSegment:
    """The one segment writer: build, append, compaction and merge
    assemble every segment through it, and ``import-ref`` feeds it the
    postings it decodes.

    One task per output segment ``seg``. Its docs are the doc index
    parts in ``docs_dir/seg=N``; a part's postings come from the part's
    stage-1 run, or, without one, from the segments ``srcs`` of
    ``src_dir`` (an append's old segment, a merge's source group) —
    decoded one term range at a time from their encoded rows. The
    union vocabulary is cut into term-range chunks of at most
    ``chunk_budget`` postings (a term never splits), and each chunk is
    decoded, put in (term, docid) order and encoded on its own, so a
    task's decoded working set is bounded by the budget plus its
    stage-1 runs. Every lexicon row is term-local, so the chunk tables
    concatenate into the segment table with no offset fixup: the bytes
    do not depend on the budget.

    A segment depends on its own docs alone: the writer reads no
    global state, and stores per block the score-free impacts
    (:func:`block_impacts`) from which the searcher computes the block
    bounds and sigmas with the collection statistics it serves with."""

    def __init__(self, out_dir, docs_dir, cfg, src_dir=None):
        self.out_dir = out_dir
        self.docs_dir = docs_dir
        self.cfg = cfg
        self.src_dir = src_dir or out_dir
        # read here, in the driver, so the tasks use the driver's value
        self.chunk_budget = SEGMENT_CHUNK_POSTINGS

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [self._assemble(int(seg), srcs, key) for seg, srcs, key in
                zip(batch["seg"].to_pylist(), batch["srcs"].to_pylist(),
                    batch["key"].to_pylist())]
        return pa.Table.from_pylist(rows)

    def _assemble(self, seg: int, srcs: list[int], key: str) -> dict:
        import time as _time

        _timings = {}
        _t = _time.perf_counter()
        files = _doc_parts(self.docs_dir, seg)
        parts = [pq.read_table(f, columns=["docid", "doclen"]) for f in files]
        runs, old = self._sources(seg, srcs, files, parts)
        t = pa.concat_tables(parts)
        t = t.take(pc.sort_indices(t, sort_keys=[("docid", "ascending")]))
        docid = t["docid"].to_numpy()
        doclen = t["doclen"].to_numpy()
        _timings["read"] = _time.perf_counter() - _t
        _t = _time.perf_counter()

        if len(docid) and int(docid[-1]) - int(docid[0]) != len(docid) - 1:
            raise ValueError(
                f"docids must be dense: {len(docid)} docs span "
                f"{int(docid[0])}..{int(docid[-1])}")
        vocab, codes = _union_vocab([r.vocab for r in runs]
                                    + ([old.vocab] if old else []))
        sources = [old.bind(codes[-1], len(vocab))] if old else []
        if runs:
            cat = _Postings(
                np.concatenate([c[r.codes] for c, r in zip(codes, runs)]),
                np.concatenate([r.docids for r in runs]),
                np.concatenate([r.tfs for r in runs]),
                np.concatenate([r.pos for r in runs]) if self.cfg.positions
                else None)
            del runs
            _timings["flatten"] = _time.perf_counter() - _t
            _t = _time.perf_counter()
            cat = _by_term(cat)  # rebinding drops the unsorted copy
            # the runs' docs follow every old segment's
            sources.append(_SortedPostings(cat, len(vocab)))
            _timings["sort"] = _time.perf_counter() - _t
        return self._write_chunks(seg, key, files, docid, doclen, vocab,
                                  sources, _timings)

    def _sources(self, seg: int, srcs: list[int], files: list[str],
                 parts: list[pa.Table]) -> tuple[list[Run], _SegmentPostings | None]:
        """The segment's stage-1 runs, and the postings of the docs of
        the parts without a run (an append's old docs, which precede
        every doc with a run; a merge's docs) in the source segments
        that hold them. Only those docids are taken, so postings a
        crashed earlier assembly already wrote there for docs that have
        runs never count twice."""
        runs, run_lo, no_run = [], [], []
        for f, p in zip(files, parts):
            rp = _run_path(self.docs_dir, seg, f)
            if os.path.exists(rp):
                runs.append(_read_run(rp))
                if len(p):
                    run_lo.append(pc.min(p["docid"]).as_py())
            elif len(p):
                no_run.append(p)
        if not no_run:
            return runs, None
        docids = pa.concat_tables(no_run)["docid"]
        lo, hi = pc.min(docids).as_py(), pc.max(docids).as_py()
        dirs, covered = [], 0
        for s in srcs:
            d = os.path.join(self.src_dir, f"db_{s}")
            base, n = _segment_range(d)
            if max(lo, base) <= min(hi, base + n - 1):
                dirs.append(d)
                covered += min(hi, base + n - 1) - max(lo, base) + 1
        if covered != len(docids) or hi >= min(run_lo, default=hi + 1):
            raise ValueError(
                f"segment {seg}: docs {lo}..{hi} have no posting run and "
                f"the segments {srcs} of {self.src_dir} do not hold them "
                "all; rebuild with force=True")
        return runs, _SegmentPostings(dirs, lo, hi, self.cfg.positions)

    def _write_chunks(self, seg, key, files, docid, doclen, vocab, sources,
                      _timings) -> dict:
        """Encode the sources' postings — each source in (term, docid)
        order, the sources in docid order, their codes indexing
        ``vocab`` — one term-range chunk at a time, and write the
        segment. Used by :meth:`_assemble` and ``import-ref``."""
        counts = sum((s.counts for s in sources), np.zeros(len(vocab), np.int64))
        cum = np.concatenate(([0], np.cumsum(counts)))
        base0 = np.uint64(docid[0] if len(docid) else 0)
        terms_tables, pos_tables = [], []
        n_postings = 0
        ta = 0
        while ta < len(vocab):
            # greedy cut at term boundaries up to the posting budget
            # (≥ 1 term per chunk, so a megaterm fits by itself)
            tb = int(np.searchsorted(cum, cum[ta] + self.chunk_budget,
                                     side="right")) - 1
            tb = min(max(tb, ta + 1), len(vocab))
            out = self._encode_chunk(sources, vocab, ta, tb, doclen, base0,
                                     _timings)
            if out is not None:
                terms_tables.append(out[0])
                pos_tables.append(out[1])
                n_postings += out[2]
            ta = tb
        if not n_postings:
            return self._write_empty(seg, key, files, docid, doclen)
        return self._write_segment(
            seg, key, files, docid, doclen, terms_tables,
            pos_tables if self.cfg.positions else None, n_postings, _timings)

    def _encode_chunk(self, sources, vocab, ta, tb, doclen, base0, _timings):
        """The terms ``ta..tb-1``: decoded from every source, put in
        (term, docid) order and encoded — ``(terms_table,
        positions_table | None, n_postings)``, or None when they have
        no postings."""
        import time as _time

        _t = _time.perf_counter()
        parts = [p for p in (s.chunk(ta, tb) for s in sources) if len(p.docids)]
        if not parts:
            return None
        p = parts[0]
        if len(parts) > 1:
            p = _Postings(*(None if c[0] is None else np.concatenate(c)
                            for c in zip(*parts)))
            del parts
            p = _by_term(p)
        # terms without a posting here (another segment's share of a
        # shard vocabulary, a source's docs outside its range) are dropped
        terms, codes = vocab[ta:tb], p.codes
        used = np.bincount(codes, minlength=tb - ta) > 0
        if not used.all():
            codes = (np.cumsum(used) - 1)[codes]
            terms = terms.filter(pa.array(used))
        dl = doclen[p.docids - base0]
        _timings["sort"] = _timings.get("sort", 0.0) + _time.perf_counter() - _t
        _t = _time.perf_counter()
        tt, pt = self._encode_terms(terms, codes, p.docids, p.tfs, dl,
                                    pos_s=p.pos)
        _timings["encode"] = _timings.get("encode", 0.0) + _time.perf_counter() - _t
        return tt, pt, len(p.docids)

    def _encode_terms(self, uniq_terms, codes_s, docid_s, tf_s, dl_s,
                      pos_s=None) -> tuple[pa.Table, pa.Table | None]:
        """Encode ONE term-range chunk of (term-code, docid)-sorted
        posting arrays into per-term lexicon rows. Every value in a row
        is term-local (byte slices, block offsets relative to the term's
        own streams), so chunk tables concatenate into a full segment
        table with no offset fixup — the property the chunked segment
        writer relies on. Returns ``(terms_table, positions_table|None)``."""
        n_terms = len(uniq_terms)
        df_local = np.bincount(codes_s, minlength=n_terms).astype(np.int64)
        term_starts = np.concatenate(([0], np.cumsum(df_local)[:-1]))
        term_ends = np.cumsum(df_local)

        # ---- encode docids: delta-gap + VarByte (the reference VarBytes
        # absolute docids, src/indexBuilder/IndexBuilder.hpp:63-69; we gap
        # within each term's list for ~2-4x smaller docid streams, with an
        # ABSOLUTE restart at every skip-block boundary so block-skip
        # resume never needs upstream state) ----
        B = self.cfg.skip_block_size
        gaps = np.empty_like(docid_s)
        gaps[1:] = docid_s[1:] - docid_s[:-1]
        gaps[0] = docid_s[0]
        # restart points: term starts and every B-th posting within a term
        in_term_pos = np.arange(len(docid_s)) - term_starts[codes_s]
        restart = in_term_pos % B == 0
        gaps[restart] = docid_s[restart]
        db_bytes, db_lens = varbyte.encode(gaps)
        byte_offs = np.concatenate(([0], np.cumsum(db_lens)))  # per posting
        term_byte_offs = byte_offs[np.concatenate((term_starts, [len(docid_s)]))]

        # ---- encode freqs (unary, byte-aligned per term) ----
        bits_per_posting = tf_s
        bit_cum = np.concatenate(([0], np.cumsum(bits_per_posting)))
        term_bit_start = bit_cum[term_starts]
        term_bits = bit_cum[term_ends] - term_bit_start
        term_freq_bytes = (term_bits + 7) // 8
        term_freq_byte_offs = np.concatenate(([0], np.cumsum(term_freq_bytes)))
        total_freq_bits = int(term_freq_bytes.sum() * 8)
        # per-posting start bit within the padded global stream
        pad_base = (term_freq_byte_offs[:-1] * 8) - term_bit_start
        posting_bit_start = bit_cum[:-1] + pad_base[codes_s]
        # diff-trick to fill (tf-1) one-bits per posting
        # (each index array is strictly increasing, so duplicate-free:
        # fancy-index += is exact, and a tf == 1 posting nets 0)
        delta = np.zeros(total_freq_bits + 1, dtype=np.int32)
        delta[posting_bit_start] += 1
        delta[posting_bit_start + tf_s - 1] -= 1
        bits = (np.cumsum(delta[:-1]) > 0).astype(np.uint8)
        fq_bytes = np.packbits(bits, bitorder="little")

        # ---- skip blocks (Q7): every B postings within each term ----
        n_blocks_per_term = (df_local + B - 1) // B
        block_term = np.repeat(np.arange(n_terms), n_blocks_per_term)
        block_idx_in_term = _ranges(n_blocks_per_term)
        block_starts = term_starts[block_term] + block_idx_in_term * B
        block_ends = np.minimum(block_starts + B, term_ends[block_term])
        last_docid = docid_s[block_ends - 1] if len(block_ends) else np.zeros(0, dtype=np.uint64)
        # offsets relative to the term's stream starts (reference
        # src/index/Index.template.hpp:210-219)
        blk_docid_off = byte_offs[block_starts] - term_byte_offs[:-1][block_term]
        # (byte_off << 3) | bit_off == the plain bit offset within the
        # term's freq stream (reference src/codes/unary.hpp:18-22)
        blk_freq_off = posting_bit_start[block_starts] - term_freq_byte_offs[block_term] * 8
        # the score-free impacts replace the reference's stored block
        # maxima: the searcher scores them with its own statistics
        imp_n, imp_tf, imp_dl = block_impacts(tf_s, dl_s, block_starts)

        block_bounds = np.concatenate(
            ([0], np.cumsum(n_blocks_per_term))
        ).astype(np.int32)
        imp_bounds = np.concatenate(([0], np.cumsum(imp_n)))[block_bounds]

        def _binary_col(values: np.ndarray, offsets: np.ndarray) -> pa.Array:
            return pa.LargeBinaryArray.from_buffers(
                pa.large_binary(),
                len(offsets) - 1,
                [None, pa.py_buffer(offsets.astype(np.int64)), pa.py_buffer(values)],
            )

        def _list(values: np.ndarray, typ, bounds=block_bounds) -> pa.Array:
            return pa.ListArray.from_arrays(
                pa.array(bounds, pa.int32()), pa.array(values.astype(typ)))

        terms_table = pa.table(
            {
                "term": uniq_terms,
                "df_local": pa.array(df_local, pa.uint64()),
                "docid_bytes": _binary_col(db_bytes, term_byte_offs),
                "freq_bytes": _binary_col(fq_bytes, term_freq_byte_offs),
                "skip_last_docid": _list(last_docid, np.uint64),
                "skip_docid_off": _list(blk_docid_off, np.uint64),
                "skip_freq_off": _list(blk_freq_off, np.uint64),
                "impact_n": _list(imp_n, np.uint32),
                "impact_tf": _list(imp_tf, np.uint32, imp_bounds),
                "impact_doclen": _list(imp_dl, np.uint32, imp_bounds),
            },
            schema=SEGMENT_SCHEMA,
        )

        pos_table = None
        if pos_s is not None:
            # ---- positional sidecar: per posting, occurrence positions
            # delta-gapped (absolute restart at each posting's first
            # occurrence), one VarByte stream per term, aligned with the
            # term table's row order ----
            tf64 = tf_s.astype(np.int64)
            p_starts = np.cumsum(tf64) - tf64
            pos64 = pos_s.astype(np.int64)
            pgaps = np.empty_like(pos64)
            pgaps[1:] = pos64[1:] - pos64[:-1]
            pgaps[p_starts] = pos64[p_starts]
            pb_bytes, pb_lens = varbyte.encode(pgaps.astype(np.uint64))
            val_offs = np.concatenate(([0], np.cumsum(pb_lens)))
            term_pos_offs = np.concatenate(
                (val_offs[p_starts[term_starts]], [val_offs[-1]]))
            pos_table = pa.table({
                "term": uniq_terms,
                "pos_bytes": _binary_col(pb_bytes, term_pos_offs),
            })
        return terms_table, pos_table

    def _write_segment(self, seg, key, files, docid, doclen, terms_tables,
                       pos_tables, n_postings, _timings) -> dict:
        """Write tail shared by the single-chunk build path and the
        term-range-chunked merge: concatenate chunk tables (pure row
        concat — every row is term-local), write the segment files
        atomically, record the manifest."""
        import time as _time

        _t = _time.perf_counter()
        seg_dir = os.path.join(self.out_dir, f"db_{seg}")
        manifest_path = os.path.join(seg_dir, "manifest.json")
        terms_table = (terms_tables[0] if len(terms_tables) == 1
                       else pa.concat_tables(terms_tables).combine_chunks())
        out = {"terms.parquet": terms_table}
        if pos_tables is not None:
            out["positions.parquet"] = (
                pos_tables[0] if len(pos_tables) == 1
                else pa.concat_tables(pos_tables).combine_chunks())
        os.makedirs(seg_dir, exist_ok=True)
        # every file is written whole before the first replace, so a
        # crash between the replaces leaves what _finish_replace needs
        for name, table in out.items():
            write_index_parquet(table, os.path.join(seg_dir, name + ".tmp"))
        for name in out:
            os.replace(os.path.join(seg_dir, name + ".tmp"),
                       os.path.join(seg_dir, name))
        _timings["write"] = _time.perf_counter() - _t

        manifest = {
            "timings": {k: round(v, 3) for k, v in _timings.items()},
            "seg": seg,
            "base_docid": int(docid.min()) if len(docid) else 0,
            "n_docs": int(len(docid)),
            "n_terms": int(len(terms_table)),
            "n_postings": int(n_postings),
            "sum_doclen": int(doclen.sum()),
            "doc_files": files,
            "docid_encoding": "varbyte-dgap-blockrestart",
            "freq_encoding": "unary-lsb",
            "positions": pos_tables is not None,
            "skip_block_size": self.cfg.skip_block_size,
            "params_id": self.cfg.params_id,
            "profile_id": self.cfg.profile.profile_id,
            "format": _BUILD_FORMAT,
            "lineage_key": key,
        }
        tmp = manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, manifest_path)
        return manifest

    def _write_empty(self, seg: int, key: str, files: list[str],
                     docid: np.ndarray, doclen: np.ndarray) -> dict:
        """A segment without postings: no docs, or docs that are all
        empty or stopword-only. Its manifest still records those docs,
        so an append or a compaction decodes it like any other."""
        empty = SEGMENT_SCHEMA.empty_table()
        # the positional sidecar must exist (empty) for every
        # positional segment — its readers open it unconditionally
        pos = [pa.table({"term": pa.array([], pa.string()),
                         "pos_bytes": pa.array([], pa.large_binary())})]
        return self._write_segment(seg, key, files, docid, doclen, [empty],
                                   pos if self.cfg.positions else None, 0, {})


def block_impacts(tf: np.ndarray, dl: np.ndarray, block_starts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The impacts of contiguous posting blocks: per block, the (tf,
    doclen) pairs that no other posting of the block beats on both —
    higher-or-equal tf and shorter-or-equal doc. Both scorers rise with
    tf and fall with doclen, so a block's best score under any
    statistics is the best over its impacts (Lucene's competitive
    impacts, read by its block-max WAND).

    ``tf``/``dl`` are the postings' frequencies and doc lengths, and
    ``block_starts`` the first posting of each block (ascending, the
    blocks tile the arrays). Returns ``(n per block, tf, doclen)``, each
    block's pairs in descending tf (so descending doclen).

    No sort: each block owns one slot per tf rank up to its largest tf
    (ranks over the distinct tfs of the whole call, from a
    ``bincount``), laid out from the highest rank down; a scatter-min
    keeps each slot's shortest doc, and a pair is an impact when every
    earlier slot of its block holds a longer doc — a prefix minimum,
    kept inside each block by adding ``nb - 1 - block`` above the 32
    doclen bits (an earlier block's values are all larger)."""
    nb = len(block_starts)
    if nb == 0:
        return (np.zeros(0, np.int64),) * 3
    tf = np.asarray(tf, np.int64)
    dl = np.asarray(dl, np.int64)
    if int(dl.max()) >= 1 << 32:
        raise ValueError(f"doclen {int(dl.max())} does not fit 32 bits")
    seen = np.bincount(tf) > 0
    tf_of_rank = np.flatnonzero(seen)
    rank = (np.cumsum(seen) - 1)[tf]
    width = np.maximum.reduceat(rank, block_starts) + 1
    slot0 = np.concatenate(([0], np.cumsum(width)))
    bias = np.arange(nb - 1, -1, -1, dtype=np.int64) << 32
    block = np.repeat(np.arange(nb), np.diff(np.append(block_starts, len(tf))))
    empty = np.iinfo(np.int64).max
    table = np.full(int(slot0[-1]), empty, np.int64)
    np.minimum.at(table, slot0[block + 1] - 1 - rank, dl + bias[block])
    earlier = np.empty_like(table)
    earlier[0] = empty
    np.minimum.accumulate(table[:-1], out=earlier[1:])
    imp = np.flatnonzero(table < earlier)
    imp_block = np.searchsorted(slot0, imp, side="right") - 1
    return (np.bincount(imp_block, minlength=nb),
            tf_of_rank[slot0[imp_block + 1] - 1 - imp],
            table[imp] - bias[imp_block])


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in counts (vectorized)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - counts, counts)
    return out


def decode_pos_stream(gaps: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Absolute occurrence positions from a decoded delta-gap stream:
    each posting's first gap is absolute (the encode's restart), the
    rest are deltas; ``tfs`` gives the per-posting run lengths. Shared
    by the segment writer and the searcher's phrase path."""
    tf64 = np.asarray(tfs, dtype=np.int64)
    if len(gaps) == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(tf64) - tf64
    c = np.cumsum(gaps.astype(np.int64))
    base = c[starts] - gaps[starts].astype(np.int64)
    return c - np.repeat(base, tf64)


def read_segment_positions(seg_dir: str, tfs: np.ndarray) -> np.ndarray:
    """Fully-decoded flat occurrence positions of a built positional
    segment, aligned with :func:`read_segment_postings`'s posting order
    (``tfs`` is that function's per-posting frequency array)."""
    t = pq.read_table(os.path.join(seg_dir, "positions.parquet"),
                      columns=["pos_bytes"])
    return _decode_pos_rows(t["pos_bytes"], tfs, seg_dir)


def _decode_pos_rows(pos_bytes, tfs: np.ndarray, where: str) -> np.ndarray:
    """Flat occurrence positions of the postings of some positional
    sidecar rows, from the rows' ``pos_bytes`` and the postings'
    ``tfs``."""
    from .searcher import _np_offsets

    if len(pos_bytes) == 0:
        return np.zeros(0, dtype=np.int64)
    offs, vals = _np_offsets(pos_bytes)
    out = decode_pos_stream(varbyte.decode(vals[offs[0]: offs[-1]]), tfs)
    n_want = int(np.asarray(tfs, dtype=np.int64).sum())
    if len(out) != n_want:
        raise ValueError(
            f"{where}: positions decode to {len(out)} values, "
            f"the postings' tfs sum to {n_want}")
    return out


def decode_postings_rows(t: pa.Table, B: int) -> dict:
    """Vectorized decode of a (row-subset of a) segment term table —
    each row is one term's two encoded streams: whole-column delta-gap
    VarByte docid decode (one pass over the concatenated streams) and
    whole-column unary freq decode (bit-unpack once; each row's values
    end at its first ``df`` zero-bits, so the phantom padding never
    parses as data). ``B`` is the stream's skip-block restart period.
    Works on any row gather/slice because every row's byte slices are
    self-contained (restarts at row start + every B within the row)."""
    from .searcher import _np_offsets

    df = t["df_local"].to_numpy().astype(np.int64)
    P = int(df.sum())
    if P == 0:
        return {"df": df,
                "docids": np.empty(0, dtype=np.uint64),
                "tfs": np.empty(0, dtype=np.int64)}

    d_offs, d_vals = _np_offsets(t["docid_bytes"])
    gaps = varbyte.decode(d_vals[d_offs[0] : d_offs[-1]])
    if len(gaps) != P:
        raise ValueError(
            f"docid streams decode to {len(gaps)} postings, df_local sums to {P}")
    term_starts = np.concatenate(([0], np.cumsum(df)[:-1]))
    codes = np.repeat(np.arange(len(df)), df)
    in_term = np.arange(P) - term_starts[codes]
    ridx = np.flatnonzero(in_term % B == 0)
    c = np.cumsum(gaps)
    base = c[ridx] - gaps[ridx]
    counts = np.diff(np.append(ridx, P))
    docids = (c - np.repeat(base, counts)).astype(np.uint64)

    f_offs, f_vals = _np_offsets(t["freq_bytes"])
    bits = np.unpackbits(f_vals[f_offs[0] : f_offs[-1]], bitorder="little")
    zpos = np.flatnonzero(bits == 0)
    rs_bits = (f_offs[:-1] - f_offs[0]).astype(np.int64) * 8
    z0 = np.searchsorted(zpos, rs_bits)
    ends = zpos[np.repeat(z0, df) + _ranges(df)]
    starts = np.empty(P, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    starts[0] = rs_bits[0]
    nz = df > 0
    starts[term_starts[nz]] = rs_bits[nz]  # term streams are byte-aligned
    tfs = (ends - starts + 1).astype(np.int64)
    return {"df": df, "docids": docids, "tfs": tfs}


def read_segment_postings(seg_dir: str) -> dict:
    """Fully-decoded posting data of a built segment (the whole-segment
    form of :func:`decode_postings_rows`) — what compaction renumbers.
    The segment writer decodes a source segment one term range at a
    time instead (:class:`_SegmentPostings`)."""
    with open(os.path.join(seg_dir, "manifest.json")) as f:
        manifest = json.load(f)
    B = int(manifest["skip_block_size"])
    t = pq.read_table(
        os.path.join(seg_dir, "terms.parquet"),
        columns=["term", "df_local", "docid_bytes", "freq_bytes"],
    )
    out = decode_postings_rows(t, B)
    out["terms"] = t["term"].combine_chunks()
    return out


def merge_segments(
    index_dir: str,
    out_dir: str,
    group_size: int = 32,
    cfg: BuildConfig | None = None,
) -> dict:
    """Segment merge: combine ``group_size`` adjacent docid-range
    segments into one (the analog of the reference's per-700MB-chunk
    segment granularity, reference src/builder.cpp:23).

    Small segments are right for the *build* (bounded per-task memory,
    fine-grained retries); serving wants fewer, larger segments (less
    per-segment overhead per query). Because segments are docid ranges,
    merging = re-encoding the source segments' decoded postings through
    the segment writer (:class:`AssembleSegment`, one term-range chunk
    at a time) — posting lists concatenate docid-sorted by
    construction, and skip blocks and their impacts are rebuilt for
    the merged lists. The merged index is self-contained, like a
    reference segment: each group's doc index parts are copied into
    ``out_dir/docs/seg=g/`` and ``global/`` into ``out_dir/global/``
    (the merged segments hold the same docs, so the same lexicon), so
    it keeps serving the same answers after the source is rebuilt or
    deleted. A merged segment's lineage key covers its source
    segments' keys, so a rerun keeps the finished segments of the same
    groups, rebuilds the others and removes every segment outside the
    new groups (a rerun at another ``group_size``). Deletes made on the
    source after a merge reach the merged index when the merge is rerun
    (the tombstone file is re-synced).
    """
    import time as _time

    t0 = _time.perf_counter()
    # the merge cfg is the one the index was BUILT with — decoding or
    # re-encoding with another restart period would silently corrupt the
    # merged index, and it keeps the BM25 constants the engine serves it
    # with. An explicitly-passed cfg must agree.
    meta, built = read_metadata(index_dir)
    if cfg is not None and cfg.params_id != built.params_id:
        raise ValueError(
            "merge cfg disagrees with the index's recorded build params "
            f"({cfg.params_id} != {built.params_id}); pass cfg=None to "
            "derive it from the index"
        )
    cfg = built

    os.makedirs(out_dir, exist_ok=True)
    out_global = os.path.join(out_dir, "global")
    _wipe_on_lineage_change(out_dir, meta["lineage_key"])
    if not os.path.isdir(out_global):
        shutil.copytree(os.path.join(index_dir, "global"), out_global)
    else:
        # tombstones grow AFTER a merge is materialized (delete_docs on
        # the source changes no lineage key), so the delete-sized file is
        # re-synced unconditionally — the source index is authoritative;
        # without this a post-merge delete would resurrect in the merged
        # copy
        src_tomb = os.path.join(index_dir, "global", TOMBSTONE_FILE)
        dst_tomb = os.path.join(out_global, TOMBSTONE_FILE)
        if os.path.exists(src_tomb):
            shutil.copy2(src_tomb, dst_tomb)
        elif os.path.exists(dst_tomb):
            os.remove(dst_tomb)

    src_docs = os.path.join(index_dir, "docs")
    groups: dict[int, list[int]] = {}
    for s in sorted(int(d.split("=")[1]) for d in os.listdir(src_docs)
                    if d.startswith("seg=")):
        groups.setdefault(s // group_size, []).append(s)
    seg_keys = {g: _key("merged", [_manifest_key(os.path.join(index_dir, f"db_{s}"))
                                   for s in srcs], _BUILD_FORMAT)
                for g, srcs in groups.items()}
    # a previous run at another group size left segments (and their doc
    # index) outside the new groups: they would be served
    out_docs = os.path.join(out_dir, "docs")
    for name in os.listdir(out_dir):
        if name.startswith("db_") and int(name[3:]) not in groups:
            shutil.rmtree(os.path.join(out_dir, name))
    if os.path.isdir(out_docs):
        for name in os.listdir(out_docs):
            if name.startswith("seg=") and int(name[4:]) not in groups:
                shutil.rmtree(os.path.join(out_docs, name))
    # each merged segment's doc index: its sources' parts, renamed by
    # source segment (a shard spanning two segments wrote one part name
    # into both)
    for g, srcs in groups.items():
        if _manifest_key(os.path.join(out_dir, f"db_{g}")) == seg_keys[g]:
            continue
        d = os.path.join(out_docs, f"seg={g}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        for s in srcs:
            for f in _doc_parts(src_docs, s):
                shutil.copyfile(f, os.path.join(d, f"{s:05d}-{os.path.basename(f)}"))
    # One task per merged segment: the writer's term-range chunks bound
    # each task's working set (re-measured at 2M docs ×32: fully
    # parallel merges 4.0 s vs 33.6 s serialized, byte-identical output).
    manifests = _assemble_stage(out_dir, out_docs, seg_keys, cfg, False,
                                src_dir=index_dir, groups=groups)

    summary = {
        "n_docs": meta["n_docs"],
        "sum_doclen": meta["sum_doclen"],
        "avgdl": meta["avgdl"],
        "n_segments": len(groups),
        "group_size": group_size,
        "n_postings": int(sum(m["n_postings"] for m in manifests)),
        "merge_secs": round(_time.perf_counter() - t0, 3),
        "out_dir": out_dir,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f)
    return summary


def _wipe_on_lineage_change(out_dir: str, lineage_key: str) -> None:
    """Empty a reused ``out_dir`` of :func:`compact_index` or
    :func:`merge_segments` whose ``global/`` belongs to another lineage:
    its segments would be rebuilt (their own key check fails) but stale
    ``db_N`` beyond the new segment count would still be served, and
    n_docs/avgdl/idf would stay stale."""
    if not os.path.isdir(os.path.join(out_dir, "global")):
        return
    try:
        existing_key = read_metadata(out_dir)[0]["lineage_key"]
    except (OSError, ValueError):
        existing_key = None
    if existing_key != lineage_key:
        for d in os.listdir(out_dir):
            p = os.path.join(out_dir, d)
            if os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)


@ray.remote(num_cpus=1)
def _alive_count(seg: int, doc_files: list[str], tomb_ref) -> dict:
    """Stage-A1 of compaction: a segment's alive doc count from a
    one-column pruned read — the driver needs only these scalars to
    assign dense renumber offsets."""
    t = pads.dataset(doc_files).to_table(columns=["docno"])
    dead = pc.is_in(t["docno"], value_set=pa.array(tomb_ref, pa.string()))
    return {"seg": seg, "n_alive": int(len(t) - (pc.sum(dead).as_py() or 0))}


@ray.remote(num_cpus=1)
def _compact_segment(seg_dir: str, doc_files: list[str], tomb_ref,
                     new_base: int, cfg: BuildConfig, out_docs_dir: str) -> int:
    """Stage-A2 of compaction, on one decoded segment: drop the
    tombstoned docs and their postings, renumber docids densely from
    ``new_base``, split at the NEW segment bounds and write posting
    runs and doc index parts — the exact layout stage 1 of a fresh
    build writes, so assembly and global stats run unchanged over it."""
    t = pads.dataset(doc_files).to_table(columns=["docid", "docno", "doclen"])
    t = t.take(pc.sort_indices(t, sort_keys=[("docid", "ascending")]))
    old, (base, n_docs) = _decode_segment(seg_dir, cfg.positions)
    if n_docs != len(t) or (len(t) and base != t["docid"][0].as_py()):
        raise ValueError(
            f"{seg_dir} holds {n_docs} docs from docid {base}, its doc "
            f"index {len(t)}: the source index is incomplete")
    alive = np.asarray(pc.invert(pc.is_in(
        t["docno"], value_set=pa.array(tomb_ref, pa.string()))))
    n = int(alive.sum())
    if n == 0:
        return 0
    # old doc row -> new doc row (dense over the alive docs)
    new_row = np.cumsum(alive) - 1
    doc_row = (old.docids - np.uint64(base)).astype(np.int64)
    keep = alive[doc_row]
    pair_doc = new_row[doc_row[keep]]
    docids = np.arange(new_base, new_base + n, dtype=np.uint64)
    run = Run(old.vocab, old.codes[keep], docids[pair_doc], old.tfs[keep],
              None if old.pos is None else old.pos[np.repeat(keep, old.tfs)])
    segs = ((docids - 1) // cfg.docs_per_segment).astype(np.int32)
    _write_parts(out_docs_dir, f"part-{new_base:012d}-00000", docids,
                 t["docno"].filter(pa.array(alive)).combine_chunks(),
                 t["doclen"].to_numpy()[alive], segs, run, pair_doc)
    return n


def compact_index(index_dir: str, out_dir: str, force: bool = False) -> dict:
    """PHYSICAL tombstone reclaim — the index lifecycle's fourth phase
    (build → delete → merge → compact). Produces at ``out_dir`` an
    index over only the ALIVE documents: postings dropped, docids
    renumbered densely, df/avgdl/n_docs recomputed (and with them the
    idf and bounds the engine derives at load) — the statistics that
    :mod:`tombstone` intentionally leaves stale finally converge here.
    The output carries no tombstone file.

    Equivalence contract: the result is BYTE-IDENTICAL to a fresh
    ``build_index`` over the alive corpus with the same config
    (pytest-pinned) — compaction IS that rebuild, minus its dominant
    cost: stage 1's per-byte tokenize never reruns because the segments
    already hold the postings; stage A decodes them into posting runs
    and only assembly and global stats recompute. Beyond-reference:
    the C++ engine has no delete or reclaim path (its builder is
    one-shot, src/builder.cpp).

    Scale shape: stage A maps over segments (one counting pass over the
    doc index for dense renumber offsets — scalars to the driver — then
    one decode+filter+renumber+write pass per segment, each task writing
    its own partitioned output); assembly and global stats are the
    build's own machinery. The tombstone set is delete-sized and ray.put-broadcast
    once. Idempotent/resumable via the same stage markers as a build.
    Raises ``ValueError`` before writing ``out_dir`` when every document
    is tombstoned, and when a segment of the source is missing."""
    import time as _time

    from .tombstone import load_tombstones

    t0 = _time.perf_counter()
    meta, cfg = read_metadata(index_dir)
    tombs = load_tombstones(index_dir)
    lineage_key = hashlib.sha256(
        (meta["lineage_key"] + ":compact:"
         + hashlib.sha256("\x00".join(tombs).encode()).hexdigest()).encode()
    ).hexdigest()[:16]

    # ---- stage A1: alive docs per segment, before anything is written
    # (one-column pruned reads; only scalars come back) ----
    src_docs = os.path.join(index_dir, "docs")
    tomb_ref = ray.put(tombs)
    seg_files = {
        int(d.split("=")[1]): _doc_parts(src_docs, int(d.split("=")[1]))
        for d in os.listdir(src_docs) if d.startswith("seg=")
    }
    counts = ray.get([_alive_count.remote(s, f, tomb_ref)
                      for s, f in sorted(seg_files.items())])
    counts = [c for c in counts if c["n_alive"] > 0]
    if not counts:
        raise ValueError(
            f"cannot compact {index_dir}: no live documents "
            "(every document is tombstoned)")
    n_alive_total = int(sum(c["n_alive"] for c in counts))

    out_docs = os.path.join(out_dir, "docs")
    out_global = os.path.join(out_dir, "global")
    os.makedirs(out_dir, exist_ok=True)
    _wipe_on_lineage_change(out_dir, lineage_key)
    stage_secs: dict[str, float] = {}

    # ---- stage A2: decoded segments → filtered, renumbered runs ----
    marker_a = os.path.join(out_dir, "_docs_done")
    if force or not _stage_marker(marker_a, lineage_key):
        shutil.rmtree(out_docs, ignore_errors=True)
        bases = 1 + np.concatenate(
            ([0], np.cumsum([c["n_alive"] for c in counts])[:-1])
        ).astype(np.int64)
        ray.get([
            _compact_segment.remote(
                os.path.join(index_dir, f"db_{c['seg']}"),
                seg_files[c["seg"]], tomb_ref, int(b), cfg, out_docs)
            for c, b in zip(counts, bases)
        ])
        with open(marker_a, "w") as f:
            f.write(lineage_key)
    stage_secs["compact_docs"] = _time.perf_counter() - t0
    _t = _time.perf_counter()

    # ---- assembly and global stats: the build's own machinery ----
    seg_keys = {s: _key(lineage_key, s) for s in
                range((n_alive_total - 1) // cfg.docs_per_segment + 1)}
    manifests = _assemble_stage(out_dir, out_docs, seg_keys, cfg, force)
    shutil.rmtree(os.path.join(out_docs, RUNS_DIR), ignore_errors=True)
    stage_secs["assemble"] = _time.perf_counter() - _t
    _t = _time.perf_counter()
    marker2 = os.path.join(out_dir, "_global_done")
    if force or not _stage_marker(marker2, lineage_key):
        _global_stage([os.path.join(out_dir, f"db_{s}") for s in seg_keys],
                      out_global, n_alive_total, cfg, lineage_key)
        with open(marker2, "w") as f:
            f.write(lineage_key)
    stage_secs["global_stats"] = _time.perf_counter() - _t
    out_meta, _ = read_metadata(out_dir)

    summary = {
        "stage_secs": {k: round(v, 3) for k, v in stage_secs.items()},
        "n_docs": out_meta["n_docs"],
        "n_reclaimed": int(meta["n_docs"]) - int(out_meta["n_docs"]),
        "sum_doclen": out_meta["sum_doclen"],
        "avgdl": out_meta["avgdl"],
        "n_segments": len(manifests),
        "n_terms_global": int(out_meta["n_terms_global"]),
        "n_postings": int(sum(m["n_postings"] for m in manifests)),
        "out_dir": out_dir,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f)
    return summary
