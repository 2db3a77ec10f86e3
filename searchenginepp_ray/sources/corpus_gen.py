"""Deterministic synthetic source-code corpus (the BASELINE.json input_hint
shape): Parquet with columns (repo, path, commit, lang, content).

Row ``i`` depends only on ``(seed, i)`` so any prefix of a larger corpus is
a corpus. Content is code-like token soup with Zipf-distributed token
frequencies (hot terms like ``return``/``i``/``0`` show up in nearly every
document, producing real term skew), punctuation drawn from the
reference's three punctuation classes, English stopwords, and a small
rate of latin1-mojibake lines to exercise the mojibake fix
(reference src/normalizer/utf8_utils.cpp:6-37).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["py", "c", "cpp", "java", "rs", "go", "js", "md"]

_KEYWORDS = (
    "return if else for while break continue def class struct enum import "
    "include static const void int float double char bool true false null "
    "new delete public private template typename namespace using fn let mut "
    "match impl trait pub func var interface extends implements throws try "
    "catch finally switch case default lambda yield async await print len "
    "push pop append insert erase begin end size empty clear find sort map "
    "vector string list dict set tuple array buffer stream file open close "
    "read write parse encode decode hash index query search merge split"
).split()

_IDENTIFIERS = [f"var_{i}" for i in range(400)] + [f"fn_{i}" for i in range(200)]
_NUMBERS = [str(n) for n in (0, 1, 2, 3, 7, 10, 16, 32, 42, 64, 100, 128, 255, 256, 1024)]
_STOPS = "the a of and to in is it for on with as this that i".split()

_PUNCT = list(",.:;-_\"!#%&*/?@\\()[]{}|=^$'") + ["«", "»", "¿", "·", "¶", "§", "—", "“", "”", "‘", "’"]

_MOJIBAKE_SNIPPETS = [
    "AntonÃ­n DvorÃ¡k Ã©tude",
    "naÃ¯ve cafÃ© rÃ©sumÃ© dÃ©jÃ ",
    "JosÃ© GarcÃ­a seÃ±or",
]

VOCAB = _KEYWORDS + _IDENTIFIERS + _NUMBERS + _STOPS
_ZIPF_W = 1.0 / np.arange(1, len(VOCAB) + 1) ** 1.1
_ZIPF_P = _ZIPF_W / _ZIPF_W.sum()


def _row(seed: int, i: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(seed * 1_000_003 + i))
    repo = f"org{i % 97:04d}/proj{i % 41:03d}"
    lang = LANGS[i % len(LANGS)]
    path = f"src/mod{i % 13}/file_{i:06d}.{lang}"
    commit = hashlib.sha1(f"{repo}:{seed}".encode()).hexdigest()
    n_tokens = int(rng.integers(40, 260))
    toks = list(np.array(VOCAB, dtype=object)[rng.choice(len(VOCAB), size=n_tokens, p=_ZIPF_P)])
    # sprinkle punctuation between tokens
    n_punct = int(rng.integers(5, 30))
    for p in range(n_punct):
        pos = int(rng.integers(0, len(toks)))
        toks.insert(pos, _PUNCT[int(rng.integers(0, len(_PUNCT)))])
    content = " ".join(toks)
    if i % 211 == 0:  # ~0.5% mojibake docs
        content = _MOJIBAKE_SNIPPETS[i % len(_MOJIBAKE_SNIPPETS)] + " " + content
    return {
        "repo": repo,
        "path": path,
        "commit": commit,
        "lang": lang,
        "content": content,
    }


def generate_corpus(n_rows: int, seed: int = 42) -> pa.Table:
    rows = [_row(seed, i) for i in range(n_rows)]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("repo", pa.string()),
                ("path", pa.string()),
                ("commit", pa.string()),
                ("lang", pa.string()),
                ("content", pa.string()),
            ]
        ),
    )


def docno_of(repo: str, path: str, commit: str) -> str:
    return f"{repo}:{path}@{commit}"


# ---------------------------------------------------------------------------
# Vectorized generator for large bench corpora (same shape, different rows
# than the scalar generator; deterministic in (seed, chunk) only).
# ---------------------------------------------------------------------------

import pyarrow.compute as pc

_FAST_VOCAB = VOCAB + _PUNCT  # punctuation marks as standalone "tokens"
_FAST_W = np.concatenate([_ZIPF_W, np.full(len(_PUNCT), _ZIPF_W.mean() * 0.12)])
_FAST_P = _FAST_W / _FAST_W.sum()
_FAST_VOCAB_ARR = pa.array(_FAST_VOCAB, pa.string())


def _fast_chunk(seed: int, chunk_id: int, i0: int, n: int) -> pa.Table:
    rng = np.random.Generator(np.random.PCG64(seed * 7_000_003 + chunk_id))
    idx = np.arange(i0, i0 + n)
    n_tokens = rng.integers(40, 260, size=n)
    offsets = np.concatenate(([0], np.cumsum(n_tokens))).astype(np.int64)
    draws = rng.choice(len(_FAST_VOCAB), size=int(offsets[-1]), p=_FAST_P)
    toks = _FAST_VOCAB_ARR.take(pa.array(draws, pa.int64()))
    content = pc.binary_join(
        pa.LargeListArray.from_arrays(offsets, toks), " "
    )
    # ~0.5% mojibake docs, element-wise prepend (C pass, no row loop)
    moji = idx % 211 == 0
    snips = np.where(
        moji, np.asarray(_MOJIBAKE_SNIPPETS, dtype=object)[idx % len(_MOJIBAKE_SNIPPETS)], ""
    )
    sep = np.where(moji, " ", "")
    content = pc.binary_join_element_wise(
        pa.array(snips, pa.string()), content, pa.array(sep, pa.string())
    )
    repos = [f"org{i % 97:04d}/proj{i % 41:03d}" for i in idx]
    commits = [hashlib.sha1(f"{r}:{seed}".encode()).hexdigest() for r in repos]
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(
                [f"src/mod{i % 13}/file_{i:06d}.{LANGS[i % len(LANGS)]}" for i in idx],
                pa.string(),
            ),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array([LANGS[i % len(LANGS)] for i in idx], pa.string()),
            "content": content,
        }
    )


def write_corpus_fast(
    out_path: str,
    n_rows: int,
    seed: int = 42,
    rows_per_group: int = 4096,
) -> str:
    """Vectorized bulk corpus writer (one row group per chunk → shards for
    the parallel reader). Cached: skipped if an identical corpus exists."""
    marker = f"fast:{n_rows}:{seed}:{rows_per_group}:v1"
    marker_path = out_path + ".gen"
    if (
        os.path.exists(out_path)
        and os.path.exists(marker_path)
        and open(marker_path).read() == marker
    ):
        return out_path
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    writer = None
    try:
        chunk_id = 0
        for i0 in range(0, n_rows, rows_per_group):
            t = _fast_chunk(seed, chunk_id, i0, min(rows_per_group, n_rows - i0))
            if writer is None:
                writer = pq.ParquetWriter(out_path, t.schema)
            writer.write_table(t, row_group_size=rows_per_group)
            chunk_id += 1
    finally:
        if writer is not None:
            writer.close()
    with open(marker_path, "w") as f:
        f.write(marker)
    return out_path
