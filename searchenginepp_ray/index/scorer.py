"""Vectorized query scorers.

Semantics pinned to the reference:

- idf = log2(N / df) (reference src/index/query_scorer.cpp:71-74) — and
  **BM25 uses this same log2 idf**, not the Robertson idf
  (reference src/index/Index.template.hpp:173-179).
- TFIDF: (1 + log2(tf)) * idf, 0 when tf == 0
  (reference src/index/query_scorer.cpp:47-57).
- BM25: tf / (k1*((1-b) + b*dl/avgdl) + tf) * idf with k1=0.82, b=0.68
  (reference src/index/query_scorer.cpp:123-126, query_scorer.hpp:65).
- Sigma / block upper bounds are quantized as ``uint64(score * 100)``
  and dequantized ``/ 100.0``, as the reference stores them on disk
  (reference src/index/types.hpp:93, 120-131, 153-165); the searcher
  computes them at load from each block's impacts.
"""

from __future__ import annotations

import numpy as np

FIXED_POINT_FACTOR = 100.0
BM25_K1 = 0.82
BM25_B = 0.68


def idf(n_docs: int, df):
    """log2(N/df); ``df`` may be scalar or array."""
    return np.log2(np.float64(n_docs) / np.asarray(df, dtype=np.float64))


class TfidfScorer:
    #: every per-posting contribution is >= 0 (idf = log2(N/df) >= 0,
    #: tf weights positive) — lets the batch serving path prove that any
    #: doc scoring above a positive threshold matched at least one term
    nonnegative = True
    name = "tfidf"
    needs_doc_metadata = False

    @property
    def cache_key(self) -> tuple:
        return ("tfidf",)

    def score(self, tf, term_idf, dl=None, avgdl=None):
        tf = np.asarray(tf, dtype=np.float64)
        return np.where(tf == 0, 0.0, (1.0 + np.log2(np.maximum(tf, 1))) * term_idf)


class Bm25Scorer:
    #: every per-posting contribution is >= 0 (idf = log2(N/df) >= 0,
    #: tf weights positive) — lets the batch serving path prove that any
    #: doc scoring above a positive threshold matched at least one term
    nonnegative = True
    name = "bm25"
    needs_doc_metadata = True

    def __init__(self, k1: float = BM25_K1, b: float = BM25_B):
        self.k1 = k1
        self.b = b

    @property
    def cache_key(self) -> tuple:
        return ("bm25", self.k1, self.b)

    def score(self, tf, term_idf, dl, avgdl):
        tf = np.asarray(tf, dtype=np.float64)
        dl = np.asarray(dl, dtype=np.float64)
        return tf / (self.k1 * ((1.0 - self.b) + self.b * dl / avgdl) + tf) * term_idf


def quantize_scores(scores: np.ndarray) -> np.ndarray:
    """uint64(score * 100) — the reference's on-disk representation of
    upper bounds."""
    return (np.asarray(scores, dtype=np.float64) * FIXED_POINT_FACTOR).astype(np.uint64)


def dequantize_scores(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) / FIXED_POINT_FACTOR


class TfidfFastLogScorer:
    #: every per-posting contribution is >= 0 (idf = log2(N/df) >= 0,
    #: tf weights positive) — lets the batch serving path prove that any
    #: doc scoring above a positive threshold matched at least one term
    nonnegative = True
    """TFIDF with the reference's ``USE_FAST_LOG`` integer log (F4):
    score = (1 + floor(log2(tf))) * idf — the de-Bruijn/MSB ``log2_64``
    of reference src/index/query_scorer.cpp:7-30,53 (compile-flag, off in
    the default build; provided for full §2.8 parity). The vectorized
    equivalent of the MSB trick is the exact float exponent
    (``frexp`` exponent − 1), bit-exact for any uint tf < 2^53.

    Safe with the (standard-log) TF-IDF sigmas/block UBs: floor(log2 tf)
    ≤ log2 tf, so standard bounds over-estimate and pruning stays sound.
    """

    name = "tfidf_fast"
    needs_doc_metadata = False

    @property
    def cache_key(self) -> tuple:
        return ("tfidf_fast",)

    def score(self, tf, term_idf, dl=None, avgdl=None):
        tf = np.asarray(tf, dtype=np.float64)
        _, exp = np.frexp(np.maximum(tf, 1))
        return np.where(tf == 0, 0.0, exp.astype(np.float64) * term_idf)


def make_scorer(name: str, k1: float = BM25_K1, b: float = BM25_B):
    if name == "bm25":
        return Bm25Scorer(k1, b)
    if name == "tfidf":
        return TfidfScorer()
    if name == "tfidf_fast":
        return TfidfFastLogScorer()
    raise ValueError(f"unknown scorer {name!r}")
