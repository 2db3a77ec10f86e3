"""Segment searcher — the query-time half of the engine.

One :class:`SegmentSearcher` per index segment, used either directly (in
tests) or as a Ray actor in a pool (the reference's per-segment
``index_worker_t`` + thread-per-segment scatter, reference
src/index_worker.hpp:14-34, src/engine.cpp:66-126). Loading happens once
in ``__init__`` (ST3 in SURVEY §2.3); per-query work is vectorized numpy
over decoded posting arrays.

Scoring semantics are rank-identical to the reference:

- per-doc score = Σ over query terms *in lexicographic term order* of
  scorer(tf, idf, dl, avgdl) — queries are ``std::set``-deduplicated and
  iterated sorted (reference src/engine.cpp:88-96,
  src/index/Index.template.hpp:60), and our term-major accumulation adds
  every doc's contributions in exactly that order, so double-precision
  sums match bit-for-bit.
- DAAT disjunctive (reference src/index/Index.template.hpp:98-165) via a
  dense per-segment accumulator: one term-major scatter-add fills a
  score array, excluded docs (tombstones, a filter, a search-after
  cursor) are zeroed, and the candidates are the docs at or above a
  lower bound on the k-th score (:func:`_kth_lower_bound`). A positive
  bound proves its docs matched (a doc no list touched stays 0.0);
  only when the bound is not positive (as when fewer than k docs score
  above 0) is the exact matched set built, as a bool bitmap from the
  lists' local ids.
- DAAT conjunctive: rarest-first intersection — the shortest list's
  docs, narrowed by one ``searchsorted`` probe per longer list in df
  order (HERO's small-set-first shape) — then every list's scores
  gathered at the survivors in lexicographic term order, the same
  IEEE additions as the scatter-add.
- top-k tie-break standardized to (score desc, docid asc) — the
  reference's boundary-keeping min-heap keeps lowest docids on ties
  (strict ``>``, reference src/index/Index.hpp:60-77) and its final
  cross-segment sort leaves equal scores in unspecified order
  (src/engine.cpp:124); we document the deterministic choice.
- ``mode="bmm"`` — the reference's Block-Max Maxscore mode
  (src/index/Index.cpp:15-133) is served by the disjunctive DAAT kernel
  on every segment: a safe pruning returns DAAT's results, and on this
  engine's whole-list reads the threshold-first scatter-add beat the
  vectorized Maxscore in every regime measured (see :meth:`query`).
  :meth:`SegmentSearcher.query_maxscore` (sigma-ordered safe pruning)
  stays as a directly called kernel; no serving path calls it.
- ``mode="boolean"`` — conjunctive positive terms with ``-term``
  exclusions.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..codecs import unary, varbyte
from .scorer import (Bm25Scorer, TfidfScorer, dequantize_scores, idf,
                     make_scorer, quantize_scores)

#: LRU capacity of a searcher's decoded-postings cache, in terms (half of
#: it is prewarmed with the hot terms at load)
CACHE_TERMS = 8192


def _np_offsets(binary_arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets, values) views of a LargeBinary array."""
    arr = binary_arr.combine_chunks() if hasattr(binary_arr, "combine_chunks") else binary_arr
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset : arr.offset + len(arr) + 1]
    values = np.frombuffer(bufs[2], dtype=np.uint8)
    return offsets, values


def read_global_idf(index_dir: str, n_docs: int) -> pa.Table:
    """The global lexicon as ``(term, idf)``: idf = log2(N/df) over the
    whole term-sorted lexicon in one call, so every segment of an index
    serves the same idf array."""
    from .build import read_global_term_df

    g = read_global_term_df(index_dir).combine_chunks()
    return pa.table({"term": g["term"], "idf": idf(n_docs, g["df"].to_numpy())})


def _kth_lower_bound(a: np.ndarray, k: int):
    """A lower bound on the k-th largest value of ``a`` (1 <= k <=
    len(a)) that at least ``k`` elements reach: the k-th largest of the
    maxima of the disjoint strided groups ``a[j::g]`` (at most 129
    elements each, at least 4k groups). Each group max is a distinct
    element of ``a``, so ``a >= bound`` keeps the top k and every tie
    with them, exactly; with 4k groups the top values mostly fall in
    distinct groups, so few more survive. The cost is one strided max
    over ``a`` and a partition of ~len(a)/128 maxima, not a partition
    of ``a`` (which is partitioned whole only below 8k elements)."""
    n = len(a)
    g = max(4 * k, -(-n // 128))
    rows = n // g
    if rows > 1:
        m = a[: rows * g].reshape(rows, g).max(axis=0)
        tail = a[rows * g:]  # shorter than g: a[rows·g + j] is in group j
        np.maximum(m[: len(tail)], tail, out=m[: len(tail)])
        a = m
    return np.partition(a, len(a) - k)[len(a) - k]


class SegmentSearcher:
    def __init__(
        self,
        seg_dir: str,
        n_docs_global: int,
        avgdl: float,
        scorer: str = "bm25",
        k1: float = 0.82,
        b: float = 0.68,
        prewarm_df: int | None = 5000,
        tombstones: list[str] | None = None,
        global_idf: pa.Table | None = None,
    ):
        self.seg_dir = seg_dir
        with open(os.path.join(seg_dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        t = pq.read_table(os.path.join(seg_dir, "terms.parquet"))
        self.terms = t["term"].to_pylist()
        self.term_index = {term: i for i, term in enumerate(self.terms)}
        self.df_local = t["df_local"].to_numpy()
        self._docid_offs, self._docid_vals = _np_offsets(t["docid_bytes"])
        self._freq_offs, self._freq_vals = _np_offsets(t["freq_bytes"])
        skips = t.select(
            ["skip_last_docid", "skip_docid_off", "skip_freq_off",
             "impact_n", "impact_tf", "impact_doclen"]
        ).combine_chunks()

        # flatten the per-term skip lists to (values, offsets) numpy pairs
        # once at load — the query paths index them per block with no
        # per-query Arrow -> Python conversion
        def _flat(col):
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            return arr.values.to_numpy(zero_copy_only=False), np.asarray(arr.offsets)

        self._skip_last_v, self._skip_offs = _flat(skips["skip_last_docid"])
        self._skip_docid_off_v, _ = _flat(skips["skip_docid_off"])
        self._skip_freq_off_v, _ = _flat(skips["skip_freq_off"])
        impacts = [_flat(skips[c])[0]
                   for c in ("impact_n", "impact_tf", "impact_doclen")]

        # The segment stores nothing computed from the collection: idf
        # comes from the global lexicon's ``(term, idf)`` (one hash probe
        # of the segment vocabulary; :func:`read_global_idf` unless the
        # worker passes it), and each block's bound is the best score
        # over its impacts under the statistics served with — the value
        # the build once stored, bit for bit (same scorer arithmetic,
        # same quantization).
        if global_idf is None:
            global_idf = read_global_idf(os.path.dirname(seg_dir), n_docs_global)
        gidx = pc.index_in(t["term"], value_set=global_idf["term"])
        if gidx.null_count:
            missing = t["term"].filter(pc.is_null(gidx))
            raise ValueError(
                f"{seg_dir}: {len(missing)} segment term(s) missing from the "
                f"global lexicon, e.g. {missing[0].as_py()!r}; rebuild the "
                "index")
        self.idf = global_idf["idf"].to_numpy()[gidx.to_numpy()]
        self._skip_bm25_v, self._skip_tfidf_v = self._block_bounds(
            *impacts, Bm25Scorer(k1, b), avgdl)
        term_blocks = self._skip_offs[:-1]
        self.bm25_sigma = (np.maximum.reduceat(self._skip_bm25_v, term_blocks)
                           if len(term_blocks) else np.zeros(0))
        self.tfidf_sigma = (np.maximum.reduceat(self._skip_tfidf_v, term_blocks)
                            if len(term_blocks) else np.zeros(0))
        # Only the dgap-blockrestart encoding exists on disk (pre-dgap
        # indexes lack the skip_*_off columns selected above, so they can
        # never reach this point anyway — the legacy branch was dead code).
        enc = self.manifest.get("docid_encoding")
        if enc != "varbyte-dgap-blockrestart":
            raise ValueError(f"unsupported docid encoding {enc!r} in {seg_dir}")
        # The delta-gap restart period is baked into the encoded docid
        # streams — decoding with a different B silently corrupts docids
        # from block 2 on, so it MUST come from the segment manifest.
        if "skip_block_size" not in self.manifest:
            raise ValueError(
                f"segment manifest {seg_dir} records no skip_block_size; "
                "rebuild the index (older builds always used the 15000 "
                "default — add it to the manifest if a rebuild is impossible)"
            )
        self.skip_block_size = int(self.manifest["skip_block_size"])

        # doc index (J3): docid-sorted doclen array + docno column
        files = self.manifest["doc_files"]
        dt = pads.dataset(files).to_table(columns=["docid", "docno", "doclen"])
        dt = dt.take(pc.sort_indices(dt, sort_keys=[("docid", "ascending")]))
        docids = dt["docid"].to_numpy()
        self.base_docid = int(docids[0]) if len(docids) else 0
        self.n_docs_seg = len(docids)
        if self.n_docs_seg and \
                int(docids[-1]) - self.base_docid != self.n_docs_seg - 1:
            raise ValueError(
                f"{seg_dir}: docids must be dense within a segment, "
                f"{self.n_docs_seg} docs span {self.base_docid}.."
                f"{int(docids[-1])}")
        self.doclen = dt["doclen"].to_numpy().astype(np.float64)
        self.docnos = dt["docno"]

        self.n_docs_global = n_docs_global
        self.avgdl = avgdl
        self.bm25_k1, self.bm25_b = k1, b
        self.default_scorer = make_scorer(scorer, k1, b)
        # the one decoded-posting cache: every mode reads whole lists
        # through :meth:`postings`, so a list decodes once per searcher
        # while it stays cached
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_cap = CACHE_TERMS
        # full score arrays per (term, scorer-params): a pure function of
        # the immutable index, so safe to cache — repeated query terms
        # become pure gathers/scatter-adds instead of re-scoring
        self._score_cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
        # densified per-term score vectors (segment-length), byte-capped:
        # the dense batch path adds them whole. At huge segments the cap
        # holds few terms and batches take the per-query path.
        self._dense_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._dense_cap_bytes = 256 << 20
        # reusable accumulator scratch — the cross-query batch path's
        # state. It avoids a fresh multi-hundred-KB allocation (and its
        # first-touch page faults) per query.
        self._acc_scratch: np.ndarray | None = None
        # per-predicate candidate masks for filtered search (keyed by the
        # caller-supplied filter fingerprint; one bool per segment doc)
        self._pred_masks: OrderedDict[str, np.ndarray] = OrderedDict()
        # tombstone alive-mask: docs deleted from the index without a
        # rebuild (index/tombstone.py). None when nothing in this segment
        # is deleted; when set, EVERY query path must honor it (the
        # per-query paths take it as their mask; the dense batch path
        # zeroes the docs outside it).
        # Collection stats (idf, avgdl, sigmas) intentionally keep the
        # deleted docs until a merge reclaims them — the standard
        # tombstone contract (a delete must be cheap; stats converge at
        # compaction).
        self._alive_mask: np.ndarray | None = None
        if tombstones:
            dead = pc.is_in(
                self.docnos,
                value_set=pa.array(list(tombstones), pa.string()),
            ).to_numpy(zero_copy_only=False).astype(bool)
            if dead.any():
                self._alive_mask = ~dead
        #: postings decoded so far (:meth:`postings` and
        #: :meth:`decode_block` count them)
        self.decoded_postings = 0
        if prewarm_df:
            # eagerly decode hot-term posting lists at load (once per
            # actor, parallel across the pool) so first queries don't pay
            # the big decodes; cold terms decode on first use
            hot = np.flatnonzero(self.df_local >= prewarm_df)
            for ti in hot[: CACHE_TERMS // 2]:
                self.postings(int(ti))

    def _block_bounds(self, n_imp: np.ndarray, tf: np.ndarray, dl: np.ndarray,
                      bm25: Bm25Scorer, avgdl: float
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per skip block, the quantized BM25 and TF-IDF bound: the
        best score over the block's ``n_imp`` impacts ``(tf, dl)``. Both
        scorers rise with tf and fall with doclen, so that is the best
        over the block."""
        if len(n_imp) == 0:
            return np.zeros(0), np.zeros(0)
        n_imp = n_imp.astype(np.int64)
        block_term = np.repeat(np.arange(len(self.idf)), np.diff(self._skip_offs))
        idf = np.repeat(self.idf[block_term], n_imp)
        first = np.cumsum(n_imp) - n_imp
        q, dq = quantize_scores, dequantize_scores
        return (dq(q(np.maximum.reduceat(bm25.score(tf, idf, dl, avgdl), first))),
                dq(q(np.maximum.reduceat(TfidfScorer().score(tf, idf), first))))

    # ---------- posting access ----------

    def postings(self, ti: int) -> tuple[np.ndarray, np.ndarray]:
        """Decoded (docids, tfs) for term index ``ti`` (LRU-cached)."""
        hit = self._cache.get(ti)
        if hit is not None:
            self._cache.move_to_end(ti)
            return hit
        docids = varbyte.decode(self._docid_vals[self._docid_offs[ti] : self._docid_offs[ti + 1]])
        # delta-gap with absolute restarts every skip-block: a grouped
        # cumsum per block reconstructs absolute docids
        n_ = len(docids)
        B = self.skip_block_size
        if n_ > 0:
            c = np.cumsum(docids)
            starts = np.arange(0, n_, B)
            base = c[starts] - docids[starts]
            counts = np.diff(np.concatenate((starts, [n_])))
            docids = c - np.repeat(base, counts)
        n = len(docids)
        tfs = unary.decode(self._freq_vals[self._freq_offs[ti] : self._freq_offs[ti + 1]], n)
        self.decoded_postings += n
        self._cache[ti] = (docids, tfs)
        if len(self._cache) > self._cache_cap:
            self._cache.popitem(last=False)
        return docids, tfs

    def n_blocks(self, ti: int) -> int:
        B = self.skip_block_size
        return (int(self.df_local[ti]) + B - 1) // B

    def decode_block(self, ti: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode ONE skip block of term ``ti`` directly from the packed
        streams using the stored skip offsets — the reference's ``nextGEQ``
        block repositioning (src/index/Index.cpp:169-214): the docid
        offset is a byte offset into the term's (delta-gap) docid stream,
        whose block starts are absolute restarts, and the freq offset is a
        bit offset into the term's unary stream (F7 packing). No upstream
        state is needed. No query path calls it (they read whole lists
        through :meth:`postings`); ``fsck`` checks the skip metadata
        with it."""
        df = int(self.df_local[ti])
        B = self.skip_block_size
        n_blocks = (df + B - 1) // B
        if not 0 <= block < n_blocks:
            raise ValueError(f"{self.seg_dir}: block {block} of term {ti} "
                             f"is outside its {n_blocks} blocks")
        n_in_block = min(B, df - block * B)

        so = self._skip_offs[ti]
        docid_off = int(self._skip_docid_off_v[so + block])
        next_off = (
            int(self._skip_docid_off_v[so + block + 1])
            if block + 1 < n_blocks
            else int(self._docid_offs[ti + 1] - self._docid_offs[ti])
        )
        base = int(self._docid_offs[ti])
        gaps = varbyte.decode(self._docid_vals[base + docid_off : base + next_off])
        if len(gaps) != n_in_block:
            raise ValueError(f"{self.seg_dir}: block {block} of term {ti} "
                             f"decodes to {len(gaps)} docids, not {n_in_block}")
        docids = np.cumsum(gaps)

        freq_bit = int(self._skip_freq_off_v[so + block])
        fbase = int(self._freq_offs[ti])
        fend = int(self._freq_offs[ti + 1])
        byte_off, bit_off = divmod(freq_bit, 8)
        tfs = unary.decode(
            self._freq_vals[fbase + byte_off : fend], n_in_block, start_bit=bit_off
        )
        self.decoded_postings += n_in_block
        return docids.astype(np.uint64), tfs

    def scored_postings(
        self, ti: int, scorer
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docids, local ids, scores) for the FULL list of term ``ti``,
        LRU-cached per (term, scorer params)."""
        key = (ti,) + scorer.cache_key
        hit = self._score_cache.get(key)
        if hit is not None:
            self._score_cache.move_to_end(key)
            return hit
        docids, tfs = self.postings(ti)
        local = (docids - self.base_docid).astype(np.int64)
        s = scorer.score(tfs, self.idf[ti], self.doclen[local], self.avgdl)
        out = (docids, local, s)
        self._score_cache[key] = out
        if len(self._score_cache) > self._cache_cap:
            self._score_cache.popitem(last=False)
        return out

    def _densify(self, skey: tuple, local: np.ndarray, s: np.ndarray):
        """Segment-length dense score vector for a scored list, or None
        when the byte cap says this segment is too big to densify."""
        entry_bytes = self.n_docs_seg * 8
        max_entries = self._dense_cap_bytes // max(entry_bytes, 1)
        if max_entries == 0:
            return None
        dense = np.zeros(self.n_docs_seg, dtype=np.float64)
        dense[local] = s
        self._dense_cache[skey] = dense
        while len(self._dense_cache) > max_entries:
            self._dense_cache.popitem(last=False)
        return dense

    def _scorer(self, name: str | None):
        """The scorer a per-call ``scorer_name`` asks for, built with the
        BM25 constants this index was loaded with (the ones its sigmas
        and block bounds assume); no name serves the default scorer."""
        return (make_scorer(name, self.bm25_k1, self.bm25_b) if name
                else self.default_scorer)

    def _resolve_terms(self, qterms: list[str], conj: bool):
        """Semi/anti-join of query terms vs the local lexicon (J1)."""
        idxs = []
        for term in sorted(set(qterms)):
            i = self.term_index.get(term)
            if i is None:
                if conj:
                    return None  # conjunctive: any missing term ⇒ ∅
                continue
            idxs.append(i)
        return idxs

    # ---------- DAAT (Q2/Q3) ----------

    def query_daat(self, qterms: list[str], k: int, conj: bool = False,
                   scorer=None, mask: np.ndarray | None = None,
                   after: tuple[float, int] | None = None):
        """Disjunctive (``conj=False``) or conjunctive top-``k``; every
        doc's score adds its terms' contributions in lexicographic term
        order, the reference's order.

        ``mask`` (optional segment-length bool array) restricts the
        candidate set BEFORE top-k selection — exact filtered retrieval,
        not post-filtering: a masked-out doc can never displace an
        allowed one. Scores of surviving docs are bit-identical to the
        unfiltered run (the mask only removes candidates).

        ``after`` is a (score, global docid) pagination cursor: only
        docs STRICTLY after it in result order (score DESC, docid ASC)
        can enter the top-k — the search-after deep-paging contract.
        Scores are deterministic doubles from the same code path as the
        cursor's own pass, so the equality compare is exact; the heap
        depth stays ``k`` at ANY page depth (no depth-``page·k`` heap
        per segment)."""
        scorer = scorer or self.default_scorer
        idxs = self._resolve_terms(qterms, conj)
        if not idxs:
            return []
        if conj:
            cand, sc = self._conjunctive(idxs, scorer, mask)
            if after is not None:
                keep = self._after(cand, sc, after)
                cand, sc = cand[keep], sc[keep]
            return self._topk(cand, sc, k) if len(cand) else []
        acc = np.zeros(self.n_docs_seg, dtype=np.float64)
        for i in idxs:  # ascending term index == lexicographic order
            _, local, s = self.scored_postings(i, scorer)
            acc[local] += s
        keep = mask
        if after is not None:
            keep = self._after(np.arange(self.n_docs_seg), acc, after)
            if mask is not None:
                keep &= mask
        if keep is not None:
            acc[~keep] = 0.0
        return self._disjunctive_topk(acc, idxs, scorer, k, keep)

    def _after(self, local: np.ndarray, scores: np.ndarray,
               after: tuple[float, int]) -> np.ndarray:
        """Which of the docs ``local`` come strictly after the cursor
        ``after`` = (score, global docid) in (score desc, docid asc)
        order."""
        cs, cd = after
        return (scores < cs) | ((scores == cs) & (local + self.base_docid > cd))

    def _disjunctive_topk(self, acc: np.ndarray, idxs: list[int], scorer,
                          k: int, keep: np.ndarray | None = None):
        """Top-``k`` of the docs matching any of the terms ``idxs``,
        given their segment-length scores ``acc`` with every doc outside
        ``keep`` zeroed. A positive lower bound on the k-th score proves
        that the docs reaching it matched and are kept: a doc no list
        touched, or one zeroed, is 0.0. Otherwise (fewer than k docs
        score above 0, as with idf-0 matches, or the positive ones sit
        in fewer than k of the bound's groups) the candidates are the
        exact matched set."""
        thresh = _kth_lower_bound(acc, min(k, len(acc)))
        if thresh > 0.0:
            cand = np.flatnonzero(acc >= thresh)
        else:
            hit = np.zeros(len(acc), dtype=bool)
            for i in idxs:
                hit[self.scored_postings(i, scorer)[1]] = True
            if keep is not None:
                hit &= keep
            cand = np.flatnonzero(hit)
        return self._topk(cand, acc[cand], k) if len(cand) else []

    def _conjunctive(self, idxs: list[int], scorer,
                     mask: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(local ids, scores) of the docs (in ``mask``) matching every
        term ``idxs``, rarest first: the shortest list's docs, narrowed
        by one ``searchsorted`` probe into each longer list in df order.
        Each survivor's score then adds the lists' contributions in
        lexicographic term order, the scatter-add's IEEE additions."""
        lists = [self.scored_postings(i, scorer)[1:] for i in idxs]
        by_df = sorted(range(len(lists)), key=lambda j: len(lists[j][0]))
        cand = lists[by_df[0]][0]
        if mask is not None:
            cand = cand[mask[cand]]
        for j in by_df[1:]:
            if len(cand) == 0:
                break
            local = lists[j][0]
            cand = cand[local.take(np.searchsorted(local, cand), mode="clip")
                        == cand]
        sc = np.zeros(len(cand), dtype=np.float64)
        for local, s in lists:
            sc += s[np.searchsorted(local, cand)]
        return cand, sc

    def query_after(self, qterms: list[str], k: int,
                    after: tuple[float, int] | None,
                    scorer_name: str | None = None):
        """Search-after entry point (page N+1 given page N's last hit)."""
        scorer = self._scorer(scorer_name)
        return self.query_daat(qterms, k, conj=False, scorer=scorer,
                               mask=self._alive_mask, after=after)

    def hit_count(self, qterms: list[str]) -> tuple[int, int]:
        """Exact (n_or, n_and) matching-doc counts in this segment —
        the result-count display / selectivity-estimation surface. No
        scoring, no top-k: one pass over raw posting docids (never the
        scorer kernel), both semantics from the same per-doc term
        counter; alive-mask applied; n_and is 0 when any query term is
        missing from this segment (query_daat's conjunctive contract)."""
        idxs = self._resolve_terms(qterms, conj=False)
        if not idxs:
            return 0, 0
        n_terms = len(sorted(set(qterms)))
        cnt = np.zeros(self.n_docs_seg, dtype=np.int32)
        for i in idxs:
            docids, _ = self.postings(i)
            cnt[(docids - self.base_docid).astype(np.int64)] += 1
        cand = np.flatnonzero(cnt != 0)
        if self._alive_mask is not None and len(cand):
            cand = cand[self._alive_mask[cand]]
        n_or = int(len(cand))
        # conjunction needs every DISTINCT query term present here
        n_and = int((cnt[cand] == n_terms).sum()) \
            if len(idxs) == n_terms else 0
        return n_or, n_and

    def explain(self, qterms: list[str], docids,
                scorer_name: str | None = None):
        """(docid, term, contribution) rows for this segment's subset of
        the given GLOBAL docids — the per-term decomposition of each
        doc's final score (Σ contributions == the ranked score, same
        addition order), gathered at the requested docs by
        :meth:`_score_at` from the cached lists. Zero contributions
        (idf == 0, i.e. a term in every doc) are dropped — the oracle
        filters the identical expression."""
        scorer = self._scorer(scorer_name)
        cand = np.asarray(list(docids), np.int64)
        cand = np.unique(cand[(cand >= self.base_docid)
                              & (cand < self.base_docid + self.n_docs_seg)])
        rows: list[tuple[int, str, float]] = []
        if len(cand) == 0:
            return rows
        for term in sorted(set(qterms)):
            ti = self.term_index.get(term)
            if ti is None:
                continue
            s = self._score_at(ti, cand, scorer)
            for j in np.flatnonzero(s != 0.0):
                rows.append((int(cand[j]), term, float(s[j])))
        return rows

    # ---------- query-likelihood (Dirichlet) serving ----------

    def term_ctf_batch(self, terms: list[str]) -> dict[str, int]:
        """Per-term collection frequency WITHIN this segment (Σ tf over
        the term's postings) — phase 1 of Dirichlet query-likelihood
        serving. The lexicon holds df/idf but not ctf (the reference's
        lexicon has no LM scorer either), so ctf for the handful of
        query terms is derived from the postings at query time; the
        driver sums the per-segment values into global ctf. Traffic is
        |terms| ints per worker."""
        out: dict[str, int] = {}
        for term in terms:
            ti = self.term_index.get(term)
            if ti is not None:
                _, tfs = self.postings(ti)
                out[term] = int(tfs.sum())
        return out

    def query_lm_dirichlet(self, qterms: list[str], k: int, mu: float,
                           ctf: dict[str, int], total_tokens: int):
        """Dirichlet-smoothed query likelihood (Zhai & Lafferty 2001),
        rank-equivalent decomposition over matching postings:

            score(q,d) = Σ_{t∈q∩d} log2(1 + tf·T/(μ·ctf_t))
                         + |q|·log2(μ/(dl_d + μ))

        (the doc-independent Σ log2 p(t|C) term is dropped — rank-inert).
        ``ctf`` maps each GLOBALLY-present query term to its collection
        frequency; terms absent from the collection have p(t|C)=0 and are
        dropped from the query (the standard convention), so |q| counts
        ctf-bearing terms only. Candidates are docs matching ≥1 query
        term — the same disjunctive candidate set as DAAT (a non-matching
        doc's rank-relevant score is the pure length norm; retrieval
        returns matches, as every QL system does). The per-posting and
        per-doc expressions mirror the DuckDB oracle's operand order
        exactly so both engines sum identical IEEE doubles."""
        T = float(total_tokens)
        terms = [t for t in sorted(set(qterms)) if t in ctf]
        n_q = len(terms)
        if n_q == 0:
            return []
        acc = np.zeros(self.n_docs_seg, dtype=np.float64)
        hit = np.zeros(self.n_docs_seg, dtype=bool)
        for term in terms:
            ti = self.term_index.get(term)
            if ti is None:
                continue  # present globally, absent in this segment
            docids, tfs = self.postings(ti)
            local = (docids - self.base_docid).astype(np.int64)
            c = float(ctf[term])
            acc[local] += np.log2(1.0 + (tfs.astype(np.float64) * T) / (mu * c))
            hit[local] = True
        if self._alive_mask is not None:
            hit &= self._alive_mask
        cand = np.flatnonzero(hit)
        if len(cand) == 0:
            return []
        scores = acc[cand] + n_q * np.log2(mu / (self.doclen[cand] + mu))
        return self._topk(cand, scores, k)

    def predicate_mask(self, src_path: str, column: str, value,
                       fp: str, id_col: str = "doc_id") -> np.ndarray:
        """Segment-length bool mask of docs whose ``column == value`` in
        the source corpus parquet — built INSIDE the actor with a pruned
        predicate read restricted to this segment's docno range (docnos
        must be the stringified ``id_col``, the documents-corpus layout),
        so the filter side never materializes globally or crosses the
        driver: at any corpus size each segment reads only its own slice
        of two columns. Cached per filter fingerprint ``fp``."""
        m = self._pred_masks.get(fp)
        if m is not None:
            self._pred_masks.move_to_end(fp)  # LRU like the sibling caches
            return m
        ids_int = pc.cast(self.docnos, pa.int64())
        lo = pc.min(ids_int).as_py()
        hi = pc.max(ids_int).as_py()
        flt = ((pads.field(column) == value)
               & (pads.field(id_col) >= lo) & (pads.field(id_col) <= hi))
        t = pads.dataset(src_path).to_table(columns=[id_col], filter=flt)
        allowed = pc.cast(t[id_col], pa.string())
        m = pc.is_in(self.docnos, value_set=allowed) \
            .to_numpy(zero_copy_only=False).astype(bool)
        self._pred_masks[fp] = m
        if len(self._pred_masks) > 64:
            self._pred_masks.popitem(last=False)
        return m

    def query_batch_filtered(self, queries: list[list[str]], k: int,
                             scorer_name: str | None, src_path: str,
                             column: str, value, fp: str,
                             mode: str = "bmm"):
        """Filtered batch entry point: exact top-k among docs matching
        the predicate. ``mode="daat"`` and ``mode="bmm"`` both serve
        through masked DAAT, as unfiltered serving does; other modes are
        rejected (conjunctive/boolean filtering is not offered on this
        entry point — silently coercing them to disjunctive would change
        semantics)."""
        if mode not in ("daat", "bmm"):
            raise ValueError(f"filtered search supports modes "
                             f"'daat'/'bmm', not {mode!r}")
        scorer = self._scorer(scorer_name)
        mask = self.predicate_mask(src_path, column, value, fp)
        if self._alive_mask is not None:
            mask = mask & self._alive_mask
        return [self.query_daat(q, k, conj=False, scorer=scorer, mask=mask)
                for q in queries]

    def query_boolean(self, qterms: list[str], k: int, scorer=None,
                      mask: np.ndarray | None = None):
        """Boolean retrieval with negation: a term prefixed ``-`` is a
        MUST-NOT. Positive terms are conjunctive (MUST — the reference's
        ``daat_conj``, the rarest-first :meth:`_conjunctive`); surviving
        candidates are anti-joined against each negative term's postings
        and ranked by the scorer over the positive terms only (a
        negative term never contributes score).

        The ``-`` prefix is a safe in-band encoding: the normalizer's
        punctuation pass strips ``-`` from every indexed/queried token,
        so no vocabulary term can start with it.

        The anti-join reads each negative term's whole list from the
        decoded-posting cache (:meth:`postings`)."""
        scorer = scorer or self.default_scorer
        pos = [t for t in qterms if not t.startswith("-")]
        neg = sorted({t[1:] for t in qterms if t.startswith("-")})
        idxs = self._resolve_terms(pos, conj=True)
        if not idxs:
            return []
        cand, sc = self._conjunctive(idxs, scorer, mask)
        for t in neg:
            if len(cand) == 0:
                return []
            ti = self.term_index.get(t)
            if ti is None:
                continue
            cand_glob = (cand + self.base_docid).astype(np.uint64)
            keep = ~np.isin(cand_glob, self.postings(ti)[0])
            cand, sc = cand[keep], sc[keep]
        if len(cand) == 0:
            return []
        return self._topk(cand, sc, k)

    def _topk(self, local_ids: np.ndarray, scores: np.ndarray, k: int):
        k_eff = min(k, len(local_ids))
        if len(local_ids) > 4 * k_eff:
            # tie-safe prefilter: keep everything scoring >= a lower bound
            # on the k-th best (ties at the boundary are resolved by docid
            # in the sort below)
            keep = np.flatnonzero(scores >= _kth_lower_bound(scores, k_eff))
            local_ids, scores = local_ids[keep], scores[keep]
        order = np.lexsort((local_ids, -scores))[:k_eff]
        out = []
        for j in order:
            lid = int(local_ids[j])
            out.append(
                (lid + self.base_docid, self.docnos[lid].as_py(), float(scores[j]))
            )
        return out

    # ---------- Block-Max Maxscore (Q4), vectorized ----------

    def query_maxscore(self, qterms: list[str], k: int, scorer=None,
                       mask: np.ndarray | None = None):
        """Maxscore with sigma-ordered safe pruning, vectorized. No
        serving path calls it (``mode="bmm"`` serves through
        :meth:`query_daat`); the tests call it directly to keep its
        exactness against DAAT pinned.

        ``mask`` (optional segment-length bool array) restricts
        candidates before they are scored or enter θ — filtered
        retrieval with the pruning intact: the sigma upper bounds stay
        valid for the allowed subset (a bound over all docs bounds any
        subset), θ only ever reflects allowed docs, and masked docs cost
        nothing (never scored). Results are exactly the masked DAAT's.

        Same *semantics* as the reference's Block-Max Maxscore (a safe
        pruning of the disjunctive top-k — reference src/index/Index.cpp:15-133):
        lists are ranked by whole-list sigma; candidate docs are drawn from
        lists in descending-sigma order, and the scan stops as soon as the
        remaining lists' cumulative upper bound cannot beat θ — every
        unscored doc then has score ≤ θ. Scoring of each candidate sums
        contributions in lexicographic term order, so returned scores are
        bit-identical to DAAT's (the selection is what's pruned, not the
        arithmetic). Per-posting work is numpy ``searchsorted`` gathers
        instead of the reference's cursor loop.
        """
        scorer = scorer or self.default_scorer
        idxs = self._resolve_terms(qterms, conj=False)
        if not idxs:
            return []
        use_bm25 = isinstance(scorer, Bm25Scorer)
        sigmas = (self.bm25_sigma if use_bm25 else self.tfidf_sigma)[idxs]
        order = np.argsort(sigmas, kind="stable")  # ascending sigma
        # stored sigmas are fixed-point-TRUNCATED like the reference's
        # (types.hpp: static_cast<uint64_t>(sigma*100)), i.e. up to one
        # quantum BELOW the true list max; add the quantum back so the
        # bound is safe and results stay exactly DAAT's. (The reference's
        # own BMM prunes with the truncated value and can therefore
        # deviate from its DAAT at quantization boundaries.)
        upper_bounds = np.cumsum(sigmas[order] + 0.01)

        # Candidate-GENERATOR lists (descending sigma until the bound
        # check stops the scan) supply the candidates; every query list
        # is scored only at them (:meth:`_score_at`). Lists are read
        # whole from the decoded-posting cache the other modes share,
        # where the reference's mmap cursors decode one block at a time
        # (src/index/Index.cpp:169-214).
        theta = -np.inf
        cand_ids: list[np.ndarray] = []
        cand_scores: list[np.ndarray] = []
        seen = np.zeros(self.n_docs_seg, dtype=bool)
        n_collected = 0
        for rank in range(len(order) - 1, -1, -1):
            # strict <: docs scoring exactly θ still get scored so the
            # (score desc, docid asc) tie-break stays exact vs DAAT
            if n_collected >= k and upper_bounds[rank] < theta:
                break  # no unscored doc can beat θ — safe stop
            docids = self.postings(idxs[order[rank]])[0]
            cand = (docids.astype(np.int64) - self.base_docid)
            cand = cand[~seen[cand]]
            if mask is not None and len(cand):
                cand = cand[mask[cand]]
            if len(cand) == 0:
                continue
            cand_glob = (cand + self.base_docid).astype(np.uint64)
            acc = np.zeros(len(cand), dtype=np.float64)
            for i in idxs:  # lexicographic addition order
                acc += self._score_at(i, cand_glob, scorer)
            cand_ids.append(cand)
            cand_scores.append(acc)
            n_collected += len(cand)
            seen[cand] = True
            if n_collected >= k:
                # a lower bound on the k-th score is a safe θ
                theta = max(theta, _kth_lower_bound(
                    np.concatenate(cand_scores), k))
        if not cand_ids:
            return []
        return self._topk(np.concatenate(cand_ids), np.concatenate(cand_scores), k)

    def _score_at(self, ti: int, cand_glob: np.ndarray, scorer) -> np.ndarray:
        """Score contributions of term ``ti`` at the given (sorted,
        global) candidate docids — 0 where the term doesn't match.

        Gathers from the term's scored list (:meth:`scored_postings`,
        scored once and cached), so scores are the DAAT kernel's own
        doubles."""
        out = np.zeros(len(cand_glob), dtype=np.float64)
        docids, _, s = self.scored_postings(ti, scorer)
        if len(docids):
            pos = np.searchsorted(docids, cand_glob).clip(0, len(docids) - 1)
            m = docids[pos] == cand_glob
            out[m] = s[pos[m]]
        return out

    # ---------- generic dispatch ----------

    def query(self, qterms: list[str], k: int, mode: str = "daat", scorer_name: str | None = None):
        scorer = self._scorer(scorer_name)
        alive = self._alive_mask
        if mode in ("daat", "bmm"):
            # bmm serves through DAAT: Maxscore returns the same results
            # (pinned by the tests that call query_maxscore directly) and
            # lost to the threshold-first DAAT in every regime measured.
            # Its p50 against DAAT's (in-process, 1 CPU, perfbench's
            # seed-5 generators, 4 reps of 200 queries, caches cleared
            # before each mode, answers equal): ×0.79-1.48 at k=10,
            # ×1.23-1.35 at k=20 and ×1.41-1.83 at k=100 on a 65,536-doc
            # marco segment (100k docs); ×1.28-2.25 on a tombstoned
            # 65,536-doc code segment (the masked path)
            return self.query_daat(qterms, k, conj=False, scorer=scorer,
                                   mask=alive)
        if mode == "daat_conj":
            return self.query_daat(qterms, k, conj=True, scorer=scorer,
                                   mask=alive)
        if mode == "boolean":
            return self.query_boolean(qterms, k, scorer=scorer, mask=alive)
        raise ValueError(f"unknown mode {mode!r}")

    def query_batch(self, queries: list[list[str]], k: int, mode: str = "daat",
                    scorer_name: str | None = None):
        """Batch query entry point — the cross-query amortization path.

        For disjunctive modes over a batch whose union-of-terms posting
        mass is DENSE relative to the segment (common dictionary words,
        batch workloads), per-term work is hoisted out of the query loop:
        each unique term's dense score vector is materialized once
        (LRU-cached across batches), and each query is then a handful of
        full-width vector adds + one top-k — no per-query candidate-set
        bookkeeping at all. Scores are BIT-IDENTICAL to :meth:`query_daat`
        (same lexicographic addition order; adding a non-matching term's
        0.0 is an IEEE identity), so results match the per-query paths
        exactly. On a tombstoned segment each query's deleted docs are
        zeroed before its top-k, as the masked per-query DAAT does.
        Sparse workloads (rare terms, huge segments) fall back to the
        per-query DAAT path, which scatters only the query's lists. The
        reference serves queries strictly one-at-a-time
        (src/engine.cpp:99-117); this batch shape is what its API cannot
        amortize."""
        if mode in ("daat", "bmm") and len(queries) >= 4:
            scorer = self._scorer(scorer_name)
            resolved = [self._resolve_terms(q, conj=False) for q in queries]
            union = sorted({i for idxs in resolved if idxs for i in idxs})
            if union and self._dense_batch_worthwhile(union):
                out = self._query_batch_dense(resolved, k, scorer)
                if out is not None:
                    return out
        return [self.query(q, k, mode, scorer_name) for q in queries]

    def _dense_batch_worthwhile(self, union: list[int]) -> bool:
        """Dense batching pays when the union lists blanket the segment:
        per-query cost is O(n_docs_seg × terms) regardless of df, so it
        must only replace the per-query paths when the candidate space is
        already ~the whole segment."""
        entry_bytes = self.n_docs_seg * 8
        max_entries = self._dense_cap_bytes // max(entry_bytes, 1)
        if len(union) > max_entries:
            return False  # dense vectors for the union would thrash the cap
        cov = float(self.df_local[union].sum()) / max(self.n_docs_seg, 1)
        return cov >= 0.5

    def _query_batch_dense(self, resolved, k: int, scorer):
        n = self.n_docs_seg
        if self._acc_scratch is None or len(self._acc_scratch) != n:
            self._acc_scratch = np.empty(n, dtype=np.float64)
        acc = self._acc_scratch
        dense: dict[int, np.ndarray] = {}
        for ti in {i for idxs in resolved if idxs for i in idxs}:
            skey = (ti,) + scorer.cache_key
            d = self._dense_cache.get(skey)
            if d is not None:
                self._dense_cache.move_to_end(skey)
            else:
                _, local, s = self.scored_postings(ti, scorer)
                d = self._densify(skey, local, s)
                if d is None:  # cap race — bail to the per-query paths
                    return None
            dense[ti] = d
        out = []
        for idxs in resolved:
            if not idxs:
                out.append([])
                continue
            # _resolve_terms returns ascending term indices == ascending
            # lexicographic terms — DAAT's exact addition order
            np.copyto(acc, dense[idxs[0]])
            for i in idxs[1:]:
                acc += dense[i]
            if self._alive_mask is not None:
                acc[~self._alive_mask] = 0.0
            out.append(self._disjunctive_topk(acc, idxs, scorer, k,
                                              self._alive_mask))
        return out

    # ---- positional sidecar (indexed phrase retrieval) ----------------

    def _pos_streams(self):
        """Lazy (offsets, values) view of the positional sidecar — read
        once per actor on first phrase query (non-phrase workloads never
        touch the file). Its rows align with the term rows loaded at
        start only while the segment is the one loaded: a segment
        rebuilt since (an append) raises ``ValueError``."""
        if getattr(self, "_pos_offs", None) is None:
            p = os.path.join(self.seg_dir, "positions.parquet")
            if not os.path.exists(p):
                raise ValueError(
                    f"{self.seg_dir} has no positional sidecar — build "
                    "with BuildConfig(positions=True) for phrase queries")
            t = pq.read_table(p, columns=["pos_bytes"])
            with open(os.path.join(self.seg_dir, "manifest.json")) as f:
                key = json.load(f).get("lineage_key")
            if key != self.manifest.get("lineage_key"):
                raise ValueError(
                    f"{self.seg_dir} was rebuilt after this engine loaded "
                    "it; reload the engine to serve phrase queries")
            self._pos_offs, self._pos_vals = _np_offsets(t["pos_bytes"])
            self._pos_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        return self._pos_offs, self._pos_vals

    def term_positions(self, ti: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docids, tfs, flat absolute positions) of term ``ti`` —
        posting ``i`` owns the ``tfs[i]`` ascending positions after
        ``sum(tfs[:i])``. Positions are 0-based offsets in each doc's
        normalized kept-token stream. LRU-cached beside the postings."""
        from .build import decode_pos_stream

        offs, vals = self._pos_streams()
        docids, tfs = self.postings(ti)
        pos = self._pos_cache.get(ti)
        if pos is None:
            gaps = varbyte.decode(vals[offs[ti]: offs[ti + 1]])
            pos = decode_pos_stream(gaps, tfs)
            self._pos_cache[ti] = pos
            if len(self._pos_cache) > self._cache_cap:
                self._pos_cache.popitem(last=False)
        else:
            self._pos_cache.move_to_end(ti)
        return docids, tfs, pos

    def phrase(self, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Exact phrase match over the positional sidecar: docs
        containing ``tokens`` as CONSECUTIVE positions in the normalized
        token stream, with occurrence counts (overlapping starts all
        count). Returns (global docids int64, counts int64).

        Adjacency is one sorted-set intersection per phrase token: term
        occurrences become ``docid·2³² + (pos − j)`` keys (strictly
        increasing by construction — docids ascend, positions ascend
        within a doc), so surviving keys after all intersections are
        exactly the phrase start positions. Decode cost is the phrase
        terms' postings + positions, never the whole segment."""
        if not tokens:  # a phrase that normalized away matches nothing
            return (np.zeros(0, np.int64), np.zeros(0, np.int64))
        idxs = []
        for tok in tokens:
            ti = self.term_index.get(tok)
            if ti is None:
                return (np.zeros(0, np.int64), np.zeros(0, np.int64))
            idxs.append(ti)
        # rarest-first: the first key set bounds all later intersections
        order = sorted(range(len(idxs)), key=lambda j: self.df_local[idxs[j]])
        keys = None
        for j in order:
            docids, tfs, pos = self.term_positions(idxs[j])
            dd = np.repeat(docids.astype(np.int64), tfs.astype(np.int64))
            ok = pos >= j  # a token at position < j can't start-align
            arr = ((dd[ok] << np.int64(32))
                   | (pos[ok] - np.int64(j)).astype(np.int64))
            keys = arr if keys is None else np.intersect1d(
                keys, arr, assume_unique=True)
            if len(keys) == 0:
                return (np.zeros(0, np.int64), np.zeros(0, np.int64))
        docs = (keys >> np.int64(32))
        uniq, counts = np.unique(docs, return_counts=True)
        if self._alive_mask is not None:
            alive = self._alive_mask[uniq - self.base_docid]
            uniq, counts = uniq[alive], counts[alive]
        return uniq, counts.astype(np.int64)

    def phrase_docnos(self, tokens: list[str]) -> list[tuple[str, int]]:
        """(docno, occurrence count) rows for one phrase query."""
        docs, counts = self.phrase(tokens)
        if len(docs) == 0:
            return []
        local = pa.array(docs - self.base_docid, pa.int64())
        docnos = self.docnos.take(local).to_pylist()
        return list(zip(docnos, counts.tolist()))

    def near(self, term_a: str, term_b: str, window: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """Proximity (NEAR) over the positional sidecar: docs where
        ``term_a`` and ``term_b`` co-occur within ``window`` tokens,
        with each doc's MINIMUM occurrence distance. Returns (global
        docids int64, min distances int64).

        Fully vectorized across all candidate docs at once: both terms'
        occurrences become ``docid·2³² + pos`` keys (sorted by
        construction), one ``searchsorted`` finds each A-occurrence's
        nearest B-neighbors on both sides, same-doc distances reduce
        per doc with ``np.minimum.at``. Decode cost = the two terms'
        postings + positions."""
        ia = self.term_index.get(term_a)
        ib = self.term_index.get(term_b)
        if ia is None or ib is None:
            return (np.zeros(0, np.int64), np.zeros(0, np.int64))
        da, ta, pa_ = self.term_positions(ia)
        db_, tb, pb_ = self.term_positions(ib)
        ka = ((np.repeat(da.astype(np.int64), ta.astype(np.int64))
               << np.int64(32)) | pa_)
        kb = ((np.repeat(db_.astype(np.int64), tb.astype(np.int64))
               << np.int64(32)) | pb_)
        idx = np.searchsorted(kb, ka)
        adoc = ka >> np.int64(32)
        apos = ka & np.int64(0xFFFFFFFF)
        best = np.full(len(ka), np.iinfo(np.int64).max, np.int64)
        # neighbor at idx (first B-key >= A-key) and at idx-1, same doc only
        for nb in (idx, idx - 1):
            ok = (nb >= 0) & (nb < len(kb))
            cand = np.where(ok, nb, 0)
            same = ok & ((kb[cand] >> np.int64(32)) == adoc)
            d = np.abs((kb[cand] & np.int64(0xFFFFFFFF)) - apos)
            best = np.where(same, np.minimum(best, d), best)
        hit = best <= window
        if not hit.any():
            return (np.zeros(0, np.int64), np.zeros(0, np.int64))
        hdoc = adoc[hit]
        local = hdoc - self.base_docid
        mins = np.full(self.n_docs_seg, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, local, best[hit])
        docs = np.flatnonzero(mins <= window)
        if self._alive_mask is not None:
            docs = docs[self._alive_mask[docs]]
        return (docs + self.base_docid, mins[docs])

    def near_docnos(self, term_a: str, term_b: str, window: int
                    ) -> list[tuple[str, int]]:
        """(docno, min distance) rows for one NEAR query."""
        docs, dists = self.near(term_a, term_b, window)
        if len(docs) == 0:
            return []
        docnos = self.docnos.take(
            pa.array(docs - self.base_docid, pa.int64())).to_pylist()
        return list(zip(docnos, dists.tolist()))

    def prox_min_dists(self, pairs: list[tuple[str, str]],
                       docnos: list[str]) -> list[tuple[str, int]]:
        """For re-ranking: per CANDIDATE doc (by docno, restricted to
        this segment), the minimum occurrence distance over any of the
        query-term ``pairs`` that co-occur in it. Returns
        (docno, min_dist) rows for candidates with at least one
        co-occurring pair. Cost per pair = the two terms' postings +
        positions (posting-bounded, like scoring them); only
        candidate-sized rows leave the segment."""
        if not docnos or not pairs:
            return []
        want = np.asarray(pc.is_in(
            self.docnos, value_set=pa.array(sorted(set(docnos)))))
        best: dict[int, int] = {}
        for a, b in pairs:
            docs, dists = self.near(a, b, window=1 << 30)
            if not len(docs):
                continue
            loc = docs - self.base_docid
            keep = want[loc]
            for d, dist in zip(loc[keep], dists[keep]):
                d = int(d)
                if dist < best.get(d, 1 << 31):
                    best[d] = int(dist)
        return [(self.docnos[d].as_py(), m) for d, m in best.items()]
