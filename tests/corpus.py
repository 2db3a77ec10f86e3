"""Test corpora written to disk: the synthetic code corpus of
:func:`searchenginepp_ray.sources.corpus_gen.generate_corpus` as one
Parquet file, rewritten only when its parameters change."""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from searchenginepp_ray.sources.corpus_gen import generate_corpus


def write_corpus(
    out_path: str, n_rows: int, seed: int = 42, rows_per_group: int = 2048
) -> str:
    """Write the corpus parquet (multiple row groups → parallel shards).

    Skips the write if an identical corpus already exists at ``out_path``.
    """
    marker = f"{n_rows}:{seed}:{rows_per_group}:v1"
    marker_path = out_path + ".gen"
    if (
        os.path.exists(out_path)
        and os.path.exists(marker_path)
        and open(marker_path).read() == marker
    ):
        return out_path
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    table = generate_corpus(n_rows, seed)
    pq.write_table(table, out_path, row_group_size=rows_per_group)
    with open(marker_path, "w") as f:
        f.write(marker)
    return out_path
