"""Scalar BM25 owned by the benchmark, and the result comparisons.

The engine's scoring contract (``index/scorer.py``):
idf = log2(N/df), k1 = 0.82, b = 0.68, per-term score
``idf * tf / (tf + k1 * (1 - b + b * dl / avgdl))`` with no (k1 + 1)
numerator, summed over the query's distinct terms in lexicographic order;
results ordered by score descending, then docid ascending.

The oracle scores one posting at a time in plain Python floats. It only
shares the document tokenization with the engine (the per-document term
lists come from ``tokenize_batch``); everything after that is its own.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

K1 = 0.82
B = 0.68
TOL = 1e-9


class Bm25Oracle:
    """Ranking by scalar BM25 over pre-tokenized documents.

    ``doclens``/``terms``/``tfs`` are ``tokenize_batch`` output for the
    corpus in docid order; ``docnos`` names each document.
    """

    def __init__(self, docnos: list[str], doclens, terms, tfs):
        self.docnos = list(docnos)
        self.doclens = [int(x) for x in np.asarray(doclens)]
        # every posting, grouped by term: term t's postings are rows
        # ``_order[_bounds[c]:_bounds[c + 1]]`` of the flattened lists,
        # c = ``_code[t]``, in document order
        flat = pc.list_flatten(terms)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        enc = pc.dictionary_encode(flat)
        codes = np.asarray(enc.indices)
        self._code = {t: c for c, t in enumerate(enc.dictionary.to_pylist())}
        self._order = np.argsort(codes, kind="stable")
        self._bounds = np.searchsorted(codes[self._order], np.arange(len(self._code) + 1))
        self._parents = np.asarray(pc.list_parent_indices(terms))
        self._flat_tfs = np.asarray(pc.list_flatten(tfs))
        self._postings: dict[str, list[tuple[int, int]]] = {}
        # per statistics view (keyed by the set's identity; the set is
        # kept so that its id is not reused): (n, avgdl, {term: postings})
        self._views: dict[int, tuple[set, int, float, dict]] = {}

    def _load(self, needed: set[str]) -> None:
        for t in needed - self._postings.keys():
            c = self._code.get(t)
            rows = self._order[self._bounds[c]:self._bounds[c + 1]] if c is not None else []
            self._postings[t] = list(zip(self._parents[rows].tolist(),
                                         self._flat_tfs[rows].tolist()))

    def _view(self, stats_docs: set[int] | None):
        """(document count, average length, term → postings) over the
        documents the statistics are taken over."""
        if stats_docs is None:
            return len(self.docnos), sum(self.doclens) / max(len(self.docnos), 1), self._postings
        v = self._views.get(id(stats_docs))
        if v is None:
            n = len(stats_docs)
            avgdl = sum(self.doclens[d] for d in stats_docs) / max(n, 1)
            v = self._views[id(stats_docs)] = (stats_docs, n, avgdl, {})
        _, n, avgdl, plists = v
        for t, plist in self._postings.items():
            if t not in plists:
                plists[t] = [(d, tf) for d, tf in plist if d in stats_docs]
        return n, avgdl, plists

    def topk(self, qterms: list[str], k: int, conj: bool = False,
             stats_docs: set[int] | None = None,
             cand_docs: set[int] | None = None) -> list[tuple[str, float]]:
        """[(docno, score)] for the normalized, deduplicated ``qterms``.

        ``stats_docs`` (document indexes) are the collection that N, df
        and avgdl are taken over; ``cand_docs`` are the documents that
        may be returned. Both default to every document. A tombstoned
        index keeps deleted documents in its statistics but not in its
        candidates; a compacted index drops them from both.
        """
        terms = sorted(set(qterms))
        self._load(set(terms))
        n_stats, avgdl, plists = self._view(stats_docs)
        if n_stats == 0:
            return []
        acc: dict[int, float] = {}
        hits: dict[int, int] = {}
        n_present = 0
        for t in terms:
            plist = plists[t]
            df = len(plist)
            if df == 0:
                if conj:
                    return []
                continue
            n_present += 1
            idf = math.log2(n_stats / df)
            for d, tf in plist:
                if cand_docs is not None and d not in cand_docs:
                    continue
                dl = self.doclens[d]
                acc[d] = acc.get(d, 0.0) + idf * tf / (tf + K1 * (1 - B + B * dl / avgdl))
                hits[d] = hits.get(d, 0) + 1
        if conj:
            acc = {d: s for d, s in acc.items() if hits[d] == n_present}
        if not acc:
            return []
        # every document scoring at least the k-th score (less the
        # tolerance): the top k, and every document tied with the k-th,
        # so a caller can tell a legitimately different cut through a tie
        # from a wrong document
        kth = heapq.nlargest(k, acc.values())[-1] if len(acc) > k else -math.inf
        docs = [d for d, s in acc.items() if s >= kth - TOL]
        docs.sort(key=lambda d: (-acc[d], d))
        return [(self.docnos[d], acc[d]) for d in docs]


def same_ranking(got: list[tuple[str, float]], want: list[tuple[str, float]],
                 k: int, tol: float = TOL) -> bool:
    """True when an engine's top-``k`` agrees with the oracle's ranking
    ``want`` (which runs past rank ``k`` through any tie at the k-th
    score): the same number of results, scores equal within ``tol`` rank
    by rank, and the same documents at every rank, except that documents
    whose scores tie within ``tol`` may swap places and a tie cut at rank
    ``k`` may keep any of the tied documents."""
    if len(got) != min(k, len(want)):
        return False
    if any(abs(g[1] - w[1]) > tol for g, w in zip(got, want)):
        return False
    i = 0
    while i < len(got):
        j = i + 1
        while j < len(got) and abs(got[j][1] - got[i][1]) <= tol:
            j += 1
        group = {d for d, _ in got[i:j]}
        if j == len(got) == k:
            tied = {d for d, s in want[i:] if abs(s - got[i][1]) <= tol}
            if not group <= tied:
                return False
        elif group != {d for d, _ in want[i:j]}:
            return False
        i = j
    return True


def agree(a, b, tol: float = TOL) -> bool:
    """Two engine result lists name the same docids in the same order,
    with scores within ``tol``."""
    return (len(a) == len(b)
            and all(x[0] == y[0] and abs(x[2] - y[2]) <= tol for x, y in zip(a, b)))


def pairs(results) -> list[tuple[str, float]]:
    """Engine results ``[(docid, docno, score)]`` as ``[(docno, score)]``."""
    return [(r[1], float(r[2])) for r in results]
