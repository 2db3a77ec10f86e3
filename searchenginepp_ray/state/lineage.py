"""Lineage & checkpoint state inspection.

Every build artifact carries provenance:

- stage markers (``_docs_done`` / ``_docs_wip`` / ``_global_done``) keyed
  by the lineage hash of (input shard layout + build params + format);
- per-segment ``manifest.json`` (segment id, docid range, row/term/posting
  counts, source files, encodings, profile/params ids, build format, the
  segment's own lineage key, per-phase timings);
- ``global/metadata.json`` (collection stats + the build's normalizer
  profile flags and params), read through
  :func:`..index.build.read_metadata`.

:func:`index_report` aggregates them into one metrics frame — the
"per-partition lineage + metrics" surface of the north rule; a resumed
run consults exactly these records to skip finished work
(see ``index.build``: stage markers, per-shard doc parts, per-segment
manifest short-circuit).
"""

from __future__ import annotations

import json
import os

import pandas as pd

from ..index.build import _BUILD_FORMAT, read_metadata


def read_manifests(index_dir: str) -> list[dict]:
    """All segment manifests of a built index, ordered by segment id."""
    out = []
    for d in sorted(os.listdir(index_dir)):
        if d.startswith("db_"):
            p = os.path.join(index_dir, d, "manifest.json")
            if os.path.exists(p):
                with open(p) as f:
                    out.append(json.load(f))
    return sorted(out, key=lambda m: m["seg"])


def index_report(index_dir: str) -> pd.DataFrame:
    """Per-segment lineage/metrics frame: docid range, sizes, timings."""
    rows = []
    for m in read_manifests(index_dir):
        rows.append(
            {
                "seg": m["seg"],
                "base_docid": m["base_docid"],
                "n_docs": m["n_docs"],
                "n_terms": m["n_terms"],
                "n_postings": m["n_postings"],
                "sum_doclen": m["sum_doclen"],
                "docid_encoding": m["docid_encoding"],
                "lineage_key": m["lineage_key"],
                "n_source_files": len(m.get("doc_files", [])),
                **{f"t_{k}": v for k, v in m.get("timings", {}).items()},
            }
        )
    return pd.DataFrame(rows)


def verify_lineage(index_dir: str) -> dict:
    """Cross-check invariants between metadata, manifests and markers."""
    meta, _ = read_metadata(index_dir)
    ms = read_manifests(index_dir)
    problems = []
    if sum(m["n_docs"] for m in ms) != meta["n_docs"]:
        problems.append("sum(segment n_docs) != metadata n_docs")
    if sum(m["sum_doclen"] for m in ms) != meta["sum_doclen"]:
        problems.append("sum(segment doclen) != metadata sum_doclen")
    formats = {m.get("format") for m in ms}
    if ms and formats != {_BUILD_FORMAT}:
        problems.append(f"segment build formats {formats} != {_BUILD_FORMAT!r}")
    profiles = {m["profile_id"] for m in ms}
    if profiles and profiles != {meta["profile_id"]}:
        problems.append("segment profile differs from metadata profile")
    return {"n_segments": len(ms), "problems": problems}
