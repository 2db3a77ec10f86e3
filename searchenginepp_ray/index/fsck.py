"""Index integrity verification — ``fsck`` for a built index.

Answers "is this index servable, and does every stored invariant
actually hold?" without trusting any cached state: each segment is
re-opened from disk and every posting list fully decoded and checked
against the invariants the build promises (the checks the reference
implicitly relies on mmap + its unit tests for; here they are a
first-class operational tool for indexes that move between machines,
survive crashes mid-merge, or age across engine versions).

Per segment (one Ray task each — fsck of a 10^12-doc index is a
parallel scan of segment-sized units, never a driver loop):

* manifest sanity: required keys (incl. ``skip_block_size`` — pre-r2
  indexes without it are unservable), counts non-negative.
* doc table: row count == ``n_docs``, docids DENSE from
  ``base_docid``, doclens non-negative, sum == ``sum_doclen``.
* terms: sorted ascending, unique; per term the decoded posting list
  is strictly increasing, within the segment's docid range, its length
  == ``df_local``, the freq stream decodes to the same length with all
  tfs ≥ 1; Σ df_local == ``n_postings``.
* skip metadata: per-block fences (``skip_last_docid``) equal the last
  docid of each decoded block, and block-by-block decode through the
  skip offsets concatenates to the full-list decode. No query path
  reads the fences or offsets; this check is their only reader.
* impacts: the stored per-block (tf, doclen) impacts equal the impacts
  recomputed from the decoded blocks — the searcher's block bounds and
  sigmas are computed from them, so a wrong impact is a wrong bound.
* tombstones (if present): sorted, unique.

``deep=True`` adds the CROSS-segment check: every term's ``df`` in
the global lexicon equals the sum of its ``df_local`` over all
segments, and every segment term is in the global lexicon
(vocabulary-sized traffic, no text).

An index whose segments record another build format is refused with
``ValueError`` before any check runs (there is no compatibility
reader).

Returns a report dict; ``ok`` is False iff any check failed. The CLI
(``fsck`` subcommand) prints the report as JSON and exits non-zero on
corruption.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.parquet as pq
import ray

_REQUIRED_MANIFEST = (
    "seg", "base_docid", "n_docs", "n_terms", "n_postings",
    "sum_doclen", "doc_files", "skip_block_size", "profile_id",
)


def _fsck_segment(seg_dir: str, deep: bool = False) -> dict:
    """All single-segment checks; returns {seg, errors: [...], n_terms,
    n_postings, (term, df_local) arrays for the deep check}."""
    errors: list[str] = []

    def err(msg: str) -> None:
        if len(errors) < 50:  # bound the report
            errors.append(msg)

    try:
        with open(os.path.join(seg_dir, "manifest.json")) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return {"seg_dir": seg_dir, "errors": [f"manifest unreadable: {e}"]}
    for k in _REQUIRED_MANIFEST:
        if k not in manifest:
            err(f"manifest missing key {k!r}")
    if errors:
        return {"seg_dir": seg_dir, "errors": errors}

    from .searcher import SegmentSearcher

    try:
        s = SegmentSearcher(seg_dir, n_docs_global=1, avgdl=1.0,
                            prewarm_df=None)
    except Exception as e:  # noqa: BLE001 — fsck must report, not raise
        return {"seg_dir": seg_dir, "errors": [f"segment unloadable: {e}"]}

    # --- doc table ---
    if s.n_docs_seg != manifest["n_docs"]:
        err(f"doc rows {s.n_docs_seg} != manifest n_docs "
            f"{manifest['n_docs']}")
    if (s.doclen < 0).any():
        err("negative doclen")
    if int(s.doclen.sum()) != manifest["sum_doclen"]:
        err(f"sum(doclen) {int(s.doclen.sum())} != manifest sum_doclen "
            f"{manifest['sum_doclen']}")

    # --- terms + postings ---
    terms = s.terms
    if len(terms) != manifest["n_terms"]:
        err(f"{len(terms)} terms != manifest n_terms "
            f"{manifest['n_terms']}")
    if any(terms[i] >= terms[i + 1] for i in range(len(terms) - 1)):
        err("terms not sorted/unique")
    lo = s.base_docid
    hi = s.base_docid + s.n_docs_seg
    total_postings = 0
    decoded = []
    for ti in range(len(terms)):
        try:
            docids, tfs = s.postings(ti)
        except Exception as e:  # noqa: BLE001
            err(f"term {terms[ti]!r}: postings undecodable: {e}")
            continue
        decoded.append((docids, tfs))
        total_postings += len(docids)
        if len(docids) != int(s.df_local[ti]):
            err(f"term {terms[ti]!r}: decoded {len(docids)} postings, "
                f"df_local {int(s.df_local[ti])}")
        if len(tfs) != len(docids) or (len(tfs) and tfs.min() < 1):
            err(f"term {terms[ti]!r}: freq stream length/values invalid")
        if len(docids):
            d = docids.astype(np.int64)
            if (np.diff(d) <= 0).any():
                err(f"term {terms[ti]!r}: docids not strictly increasing")
            if d[0] < lo or d[-1] >= hi:
                err(f"term {terms[ti]!r}: docid outside segment range")
        # skip fences + block-decode ≡ full-decode (the decoder's own
        # asserts fire on inconsistent metadata — report, don't crash)
        try:
            nb = s.n_blocks(ti)
            off = s._skip_offs[ti]
            fences = s._skip_last_v[off: s._skip_offs[ti + 1]]
            parts = []
            for b in range(nb):
                bd, _ = s.decode_block(ti, b)
                parts.append(bd)
                if len(bd) and int(fences[b]) != int(bd[-1]):
                    err(f"term {terms[ti]!r}: block {b} fence "
                        f"{int(fences[b])} != last docid {int(bd[-1])}")
            if parts and not np.array_equal(np.concatenate(parts), docids):
                err(f"term {terms[ti]!r}: block decode != full decode")
        except Exception as e:  # noqa: BLE001
            err(f"term {terms[ti]!r}: block decode failed: {e!r}")
    if total_postings != manifest["n_postings"]:
        err(f"Σ postings {total_postings} != manifest n_postings "
            f"{manifest['n_postings']}")
    if len(decoded) == len(terms):  # an undecodable list is reported above
        try:
            msg = _impact_error(seg_dir, s, decoded)
        except Exception as e:  # noqa: BLE001
            msg = f"impacts unverifiable: {e!r}"
        if msg:
            err(msg)

    # --- positional sidecar (when the manifest declares one) ---
    if manifest.get("positions"):
        if not os.path.exists(os.path.join(seg_dir, "positions.parquet")):
            err("manifest says positions but positions.parquet missing")
        else:
            for ti in range(len(terms)):
                try:
                    docids, tfs, pos = s.term_positions(ti)
                except Exception as e:  # noqa: BLE001
                    err(f"term {terms[ti]!r}: positions undecodable: {e!r}")
                    continue
                if len(pos) != int(tfs.sum()):
                    err(f"term {terms[ti]!r}: {len(pos)} positions != "
                        f"Σtf {int(tfs.sum())}")
                    continue
                if len(pos):
                    # within each posting, positions strictly ascend and
                    # start non-negative
                    tf64 = tfs.astype(np.int64)
                    starts = np.cumsum(tf64) - tf64
                    bad = np.diff(pos) <= 0
                    bad[starts[1:] - 1] = False  # posting boundaries
                    if bad.any() or (pos[starts] < 0).any():
                        err(f"term {terms[ti]!r}: positions not strictly "
                            "ascending within a posting")

    out = {
        "seg_dir": seg_dir,
        "seg": manifest["seg"],
        "errors": errors,
        "n_docs": int(s.n_docs_seg),
        "n_postings": total_postings,
    }
    if deep:
        # vocabulary-sized payload ONLY in deep mode — a shallow fsck of
        # a huge index must not funnel every term string to the driver
        out["terms"] = list(terms)
        out["df_local"] = s.df_local.astype(np.int64).tolist()
    return out


def _impact_error(seg_dir: str, s, decoded) -> str | None:
    """Compare the segment's stored impacts with the impacts of its
    ``decoded`` (docids, tfs) lists cut into skip blocks; the first
    block that differs, or None."""
    from .build import _ranges, block_impacts

    if not decoded:  # no terms, so no impact rows
        return None
    df = np.array([len(d) for d, _ in decoded], np.int64)
    B = s.skip_block_size
    nb = (df + B - 1) // B
    starts = np.repeat(np.cumsum(df) - df, nb) + _ranges(nb) * B
    docids = np.concatenate([d for d, _ in decoded])
    dl = s.doclen[(docids - np.uint64(s.base_docid)).astype(np.int64)]
    want = block_impacts(np.concatenate([t for _, t in decoded]), dl, starts)
    t = pq.read_table(os.path.join(seg_dir, "terms.parquet"),
                      columns=["impact_n", "impact_tf", "impact_doclen"])
    got = [t[c].combine_chunks().values.to_numpy(zero_copy_only=False)
           for c in t.column_names]
    if len(got[0]) != len(want[0]):
        return (f"impact_n has {len(got[0])} blocks, the decoded lists "
                f"{len(want[0])}")
    bad = np.flatnonzero(got[0] != want[0])
    if not len(bad):  # same counts: compare the pairs, block by block
        diff = np.flatnonzero((got[1] != want[1]) | (got[2] != want[2]))
        bad = np.repeat(np.arange(len(want[0])), want[0])[diff]
    if not len(bad):
        return None
    ti = int(np.searchsorted(np.cumsum(nb), bad[0], side="right"))
    return (f"term {s.terms[ti]!r}: block {int(bad[0]) - int(nb[:ti].sum())} "
            "impacts differ from its decoded postings")


def fsck_index(index_dir: str, deep: bool = False) -> dict:
    """Verify a whole index; see module docstring. One Ray task per
    segment, a small driver merge (error strings + vocabulary-sized df
    arrays in deep mode only)."""
    report: dict = {"index_dir": index_dir, "ok": True, "errors": []}
    from .build import read_global_term_df, read_metadata
    from .engine import check_format, list_segment_dirs

    try:
        gmeta, _ = read_metadata(index_dir)
    except (OSError, ValueError) as e:
        report["ok"] = False
        report["errors"].append(f"global metadata unreadable: {e}")
        return report

    seg_dirs = list_segment_dirs(index_dir)
    if not seg_dirs:
        report["ok"] = False
        report["errors"].append("no segments")
        return report

    check_format(seg_dirs)
    fsck_remote = ray.remote(num_cpus=1)(_fsck_segment)
    results = ray.get([fsck_remote.remote(d, deep) for d in seg_dirs])

    n_docs = 0
    df_sum: dict[str, int] = {}
    for r in results:
        for e in r["errors"]:
            report["errors"].append(f"{os.path.basename(r['seg_dir'])}: {e}")
        n_docs += r.get("n_docs", 0)
        if deep and "terms" in r:
            for t, dl in zip(r["terms"], r["df_local"]):
                df_sum[t] = df_sum.get(t, 0) + dl

    if n_docs != gmeta["n_docs"]:
        report["errors"].append(
            f"Σ segment docs {n_docs} != global n_docs {gmeta['n_docs']}")

    if deep:
        g = read_global_term_df(index_dir, ["term", "df"])
        gdf = dict(zip(g["term"].to_pylist(), g["df"].to_pylist()))
        bad = [f"term {t!r}: global df {gdf.get(t)} != Σ df_local "
               f"{df_sum.get(t, 0)}"
               for t in sorted(gdf.keys() | df_sum.keys())
               if gdf.get(t) != df_sum.get(t, 0)]
        report["errors"].extend(bad[:50])

    tomb = os.path.join(index_dir, "global", "tombstones.parquet")
    if os.path.exists(tomb):
        try:
            tl = pq.read_table(tomb, columns=["docno"])["docno"].to_pylist()
            if tl != sorted(set(tl)):
                report["errors"].append("tombstones not sorted/unique")
            report["n_tombstones"] = len(tl)
        except Exception as e:  # noqa: BLE001
            report["errors"].append(f"tombstones unreadable: {e}")

    report["n_segments"] = len(seg_dirs)
    report["n_docs"] = n_docs
    report["ok"] = not report["errors"]
    return report
