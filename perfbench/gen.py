"""Seeded input generators: corpora and query streams.

Everything here is a pure function of ``seed`` (and the sizes passed in),
so a run can be repeated exactly. The program under test only ever sees
the files and query strings these functions produce.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from searchenginepp_ray.normalizer.stop_words import STOP_WORDS
from searchenginepp_ray.sources import corpus_gen

_CONSONANTS = list("bcdfghjklmnprstvz")
_VOWELS = list("aeiou")
_SYLLABLES = np.array([c + v for c in _CONSONANTS for v in _VOWELS], dtype=object)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------- corpora


def write_code_corpus(path: str, n_docs: int, seed: int) -> str:
    """The in-repo synthetic code corpus (about 500 distinct terms after
    normalization), written with the package's own generator."""
    return corpus_gen.write_corpus_fast(path, n_docs, seed=seed, rows_per_group=4096)


def marco_vocab(seed: int, n_terms: int = 100_000) -> list[str]:
    """``n_terms`` distinct word-like strings of 3-4 consonant-vowel
    syllables, in Zipf rank order (index 0 is the most frequent)."""
    rng = _rng(seed, 1)
    words: dict[str, None] = {}
    while len(words) < n_terms:
        n = 2 * n_terms
        lens = rng.integers(3, 5, size=n)
        syl = _SYLLABLES[rng.integers(0, len(_SYLLABLES), size=(n, 4))]
        for row, ln in zip(syl, lens):
            w = "".join(row[:ln])
            if w not in STOP_WORDS:
                words[w] = None
                if len(words) == n_terms:
                    break
    return list(words)


def marco_docs(seed: int, n_docs: int, vocab: list[str]) -> tuple[list[str], list[str]]:
    """(doc_ids, texts): MS-MARCO-passage-like documents of 20-120 tokens
    whose terms follow Zipf(1) over ``vocab``."""
    rng = _rng(seed, 2)
    cdf = np.cumsum(1.0 / np.arange(1, len(vocab) + 1))
    cdf /= cdf[-1]
    lens = rng.integers(20, 121, size=n_docs)
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    ranks = np.searchsorted(cdf, rng.random(int(offsets[-1])), side="right")
    toks = pa.array(vocab, pa.string()).take(pa.array(ranks, pa.int64()))
    texts = pc.binary_join(pa.LargeListArray.from_arrays(offsets, toks), " ")
    doc_ids = [f"P{seed}-{i:07d}" for i in range(n_docs)]
    return doc_ids, texts.to_pylist()


def write_marco_corpus(path: str, n_docs: int, seed: int, vocab: list[str]) -> str:
    doc_ids, texts = marco_docs(seed, n_docs, vocab)
    table = pa.table({"doc_id": pa.array(doc_ids, pa.string()),
                      "text": pa.array(texts, pa.string())})
    # larger row groups than the code corpus: each build shard stems its
    # own vocabulary, and here nearly every shard sees most of the words
    pq.write_table(table, path, row_group_size=16_384)
    return path


def read_corpus(path: str, spec) -> tuple[list[str], list[str]]:
    """(docnos, texts) in docid order, docnos formatted as the build
    formats them from ``spec`` (a ``ColumnSpec``)."""
    t = pq.read_table(path, columns=[*spec.docno_cols, spec.text_col])
    fmt = spec.docno_format()
    parts = [t[c].to_pylist() for c in spec.docno_cols]
    return [fmt.format(*p) for p in zip(*parts)], t[spec.text_col].to_pylist()


# ---------------------------------------------------------- query streams


def _draw_queries(rng: np.random.Generator, n: int, pick) -> list[str]:
    out = []
    for _ in range(n):
        n_terms = int(rng.integers(2, 5))
        terms: list[str] = []
        while len(terms) < n_terms:
            t = pick()
            if t not in terms:
                terms.append(t)
        out.append(" ".join(terms))
    return out


def code_queries(seed: int, stream: int, n: int) -> list[str]:
    """2-4 terms drawn uniformly from the code generator's vocabulary
    (stopwords excluded)."""
    vocab = [w for w in corpus_gen.VOCAB if w not in STOP_WORDS]
    rng = _rng(seed, 10, stream)
    return _draw_queries(rng, n, lambda: vocab[int(rng.integers(0, len(vocab)))])


def marco_queries(seed: int, stream: int, n: int, vocab: list[str]) -> list[str]:
    """2-4 terms whose ranks are log-uniform over ``vocab``, so rare and
    common terms mix."""
    rng = _rng(seed, 20, stream)
    log_v = np.log(len(vocab))
    return _draw_queries(
        rng, n, lambda: vocab[min(int(np.exp(rng.random() * log_v)), len(vocab)) - 1])
