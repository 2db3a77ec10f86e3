"""Multi-segment query engine: scatter/gather over a searcher pool.

Mirrors the reference engine's lifecycle (reference src/engine.cpp:15-140):
load global metadata once, per-segment workers, normalize the query with
the *same* normalizer as the build, scatter to every segment, merge the
per-segment top-k into a global top-k.

Scale shape: the reference runs one thread per segment
(src/engine.cpp:99-117) because it has ≤ a handful of segments; a 10^12-doc
index has thousands of docid-range segments, so here the segments are split
round-robin into ``num_workers`` shards (default ``min(segments, CPUs)``)
and each shard is one ``SegmentGroupWorker`` that loads its segments once
in ``__init__`` (ST3 in SURVEY §2.3). A query fans out as one call per
worker (k results per segment merged inside the worker — gather traffic
is k·num_workers, not k·num_segments).

Where the workers run: with 2 or more shards they are Ray actors
(``max_restarts=-1``, ``max_task_retries=-1``), so shards score in
parallel and a killed actor restarts with identical state. With one
shard (the default on a 1-CPU session) nothing can run in parallel, so the
worker lives in the caller's process and ``use_actors`` reads False. An
actor call costs about 1.7 ms per round trip on a 1-CPU host (the same
message over a ``multiprocessing`` pipe: 0.07 ms), more than the
searcher's own work on a sparse query; a Ray compiled graph cuts the call
to about 0.3 ms but its actor spins a full CPU while idle. An in-process
engine holds no Ray CPU, so builds and compactions started beside it
still run. ``use_actors=False`` forces in-process workers at any shard
count.

The cross-segment merge sorts by (score desc, docid asc) — deterministic
where the reference's unstable sort is not (src/engine.cpp:124).
"""

from __future__ import annotations

import json
import os

import ray

from ..config import BuildConfig
from ..normalizer.word_normalizer import normalize_tokens
from .build import _BUILD_FORMAT, read_metadata
from .searcher import SegmentSearcher, read_global_idf


def list_segment_dirs(index_dir: str) -> list[str]:
    """The index's segment directories in docid order — THE definition
    of which segments an index contains, shared by the engine and fsck
    so the verifier always checks the set the engine would serve."""
    return sorted(
        (os.path.join(index_dir, d) for d in os.listdir(index_dir)
         if d.startswith("db_")),
        key=lambda p: int(p.rsplit("_", 1)[1]),
    )


def check_format(seg_dirs: list[str]) -> None:
    """Refuse an index with a segment of another build format: there is
    no compatibility reader, so serving or checking one would read
    columns that are not there (or mean something else)."""
    for d in seg_dirs:
        try:
            with open(os.path.join(d, "manifest.json")) as f:
                fmt = json.load(f).get("format")
        except (OSError, ValueError):
            continue  # a missing or unreadable manifest fails on its own
        if fmt != _BUILD_FORMAT:
            raise ValueError(
                f"{d} has build format {fmt!r}, this engine reads "
                f"{_BUILD_FORMAT!r} only; rebuild the index with force=True")


class SegmentGroupWorker:
    """Holds several SegmentSearchers; merges their per-query top-k."""

    def __init__(self, seg_dirs: list[str], **searcher_args):
        # the global lexicon's idf, computed once per worker: each
        # searcher looks its vocabulary up in it
        global_idf = read_global_idf(os.path.dirname(seg_dirs[0]),
                                     searcher_args["n_docs_global"])
        self.searchers = [SegmentSearcher(d, global_idf=global_idf,
                                          **searcher_args)
                          for d in seg_dirs]

    def query_batch(self, toks_batch, k, mode, scorer_name):
        # segment-major so each searcher's cross-query batch path
        # (SegmentSearcher.query_batch) amortizes per-term work across
        # the whole batch; the per-query merge is k × n_segments rows
        per_seg = [
            s.query_batch(toks_batch, k, mode, scorer_name)
            for s in self.searchers
        ]
        return self._merge(per_seg, len(toks_batch), k)

    def query_after_batch(self, toks_batch, k, cursors, scorer_name):
        """Search-after (deep paging): per-query (score, docid) cursors;
        a None cursor means the previous page was short — nothing
        follows it, so the query returns empty everywhere."""
        per_seg = [
            [s.query_after(q, k, cur, scorer_name) if cur is not None
             else []
             for q, cur in zip(toks_batch, cursors)]
            for s in self.searchers
        ]
        return self._merge(per_seg, len(toks_batch), k)

    def hit_count_batch(self, toks_batch):
        """Per-query exact (n_or, n_and) summed over this worker's
        segments (docid ranges are disjoint, so sums are union counts)."""
        out = []
        for toks in toks_batch:
            pairs = [s.hit_count(toks) for s in self.searchers]
            out.append((sum(p[0] for p in pairs), sum(p[1] for p in pairs)))
        return out

    def explain_batch(self, toks_batch, docids_batch, scorer_name):
        """Per-term score decomposition for the given docids (each doc
        lives in exactly one segment, so the concatenation is a join)."""
        return [
            [r for s in self.searchers for r in s.explain(toks, d, scorer_name)]
            for toks, d in zip(toks_batch, docids_batch)
        ]

    def query_batch_filtered(self, toks_batch, k, scorer_name, src_path,
                             column, value, fp, mode="bmm"):
        per_seg = [
            s.query_batch_filtered(toks_batch, k, scorer_name, src_path,
                                   column, value, fp, mode)
            for s in self.searchers
        ]
        return self._merge(per_seg, len(toks_batch), k)

    def term_ctf_batch(self, terms):
        """Summed per-term collection frequency over this worker's
        segments (phase 1 of Dirichlet QL serving)."""
        out: dict[str, int] = {}
        for s in self.searchers:
            for t, c in s.term_ctf_batch(terms).items():
                out[t] = out.get(t, 0) + c
        return out

    def lm_batch(self, toks_batch, k, mu, ctf, total_tokens):
        per_seg = [
            [s.query_lm_dirichlet(toks, k, mu, ctf, total_tokens)
             for toks in toks_batch]
            for s in self.searchers
        ]
        return self._merge(per_seg, len(toks_batch), k)

    def phrase_batch(self, tok_batch):
        """Per phrase query, this worker's (docno, occurrence count)
        hits — segments hold disjoint docs, so a plain concat merges."""
        return [
            [hit for s in self.searchers for hit in s.phrase_docnos(toks)]
            for toks in tok_batch
        ]

    def prox_batch(self, pair_lists, docno_lists):
        """Per query, (docno, min pair distance) rows over this
        worker's segments for the query's candidate docs."""
        return [
            [r for s in self.searchers
             for r in s.prox_min_dists(pairs, docnos)]
            for pairs, docnos in zip(pair_lists, docno_lists)
        ]

    def near_batch(self, queries):
        """Per (term_a, term_b, window) query, this worker's
        (docno, min distance) hits — disjoint segments, plain concat."""
        return [
            [hit for s in self.searchers for hit in s.near_docnos(a, b, w)]
            for a, b, w in queries
        ]

    @staticmethod
    def _merge(parts, n_queries, k):
        """Per query, the top ``k`` of every part's (docid, docno, score)
        rows by (score desc, docid asc); a part is a segment's or a
        worker's per-query results."""
        out = []
        for qi in range(n_queries):
            merged = [r for res in parts for r in res[qi]]
            merged.sort(key=lambda r: (-r[2], r[0]))
            out.append(merged[:k])
        return out


class QueryEngine:
    def __init__(
        self,
        index_dir: str,
        scorer: str = "bm25",
        use_actors: bool = True,
        cfg: BuildConfig | None = None,
        num_workers: int | None = None,
        num_cpus_per_actor: float = 1,
    ):
        self.index_dir = index_dir
        # the engine serves with the profile and BM25 constants the
        # index was built with; a supplied cfg (as search_docs and
        # scripts/verify_probe.py pass) must agree rather than being
        # silently overridden, since another normalizer mis-tokenizes
        # queries and other constants rank differently
        self.meta, built = read_metadata(index_dir)
        if cfg is not None and cfg.profile.profile_id != built.profile.profile_id:
            raise ValueError(
                "normalizer profile mismatch: the supplied cfg's profile "
                "differs from the profile this index was built with"
            )
        if cfg is not None and (cfg.bm25_k1, cfg.bm25_b) != (built.bm25_k1,
                                                            built.bm25_b):
            raise ValueError(
                "bm25 k1/b mismatch: the supplied cfg disagrees with the "
                "constants this index was built for "
                f"(index: k1={built.bm25_k1} b={built.bm25_b})"
            )
        self.profile = built.profile
        self.seg_dirs = list_segment_dirs(index_dir)
        check_format(self.seg_dirs)
        args = dict(
            n_docs_global=self.meta["n_docs"],
            avgdl=self.meta["avgdl"],
            scorer=scorer,
            k1=built.bm25_k1,
            b=built.bm25_b,
        )
        # tombstoned docs (index/tombstone.py): delete-sized list, read
        # once here; each searcher turns it into its own segment mask
        from .tombstone import load_tombstones

        tombs = load_tombstones(index_dir)
        if tombs:
            args["tombstones"] = tombs
        if num_workers is None:
            if use_actors:
                cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
                num_workers = max(1, min(len(self.seg_dirs), cpus))
            else:
                num_workers = 1
        # round-robin keeps per-worker load balanced if segment sizes skew
        shards: list[list[str]] = [[] for _ in range(num_workers)]
        for i, d in enumerate(self.seg_dirs):
            shards[i % num_workers].append(d)
        shards = [s for s in shards if s]
        # one shard has nothing to run in parallel with: serve it in the
        # caller's process rather than pay the actor round trip per call
        self.use_actors = use_actors and len(shards) > 1
        if self.use_actors:
            actor_cls = ray.remote(SegmentGroupWorker)
            # fault-tolerant serving: worker state is a pure read-once
            # view of the on-disk segments, so a died actor (node loss,
            # OOM kill) restarts anywhere with identical state and the
            # in-flight query method retries transparently — the engine
            # survives worker churn without a rebuild or re-scatter
            self.workers = [
                actor_cls.options(num_cpus=num_cpus_per_actor,
                                  max_restarts=-1,
                                  max_task_retries=-1).remote(s, **args)
                for s in shards
            ]
        else:
            self.workers = [SegmentGroupWorker(s, **args) for s in shards]

    # ---------- query path ----------

    def _scatter(self, method: str, *args) -> list:
        """Call ``method`` on every worker and gather the per-worker
        results in worker order: one remote call per actor, or a plain
        call on each in-process worker."""
        if self.use_actors:
            return ray.get([getattr(w, method).remote(*args) for w in self.workers])
        return [getattr(w, method)(*args) for w in self.workers]

    @staticmethod
    def _concat(per_worker, n_queries) -> list:
        """Per query, every worker's rows in worker order (segments hold
        disjoint docs, so the concatenation is the union)."""
        return [[r for w in per_worker for r in w[qi]] for qi in range(n_queries)]

    def normalize_query(self, text: str) -> list[str]:
        """Same normalizer as the build; dedup+sort (reference
        src/engine.cpp:88-96)."""
        return sorted(set(normalize_tokens(text, self.profile)))

    def _query_tokens(self, queries) -> list[list[str]]:
        """Normalize string queries; pre-tokenized ones are dedup+sorted."""
        return [
            self.normalize_query(q) if isinstance(q, str) else sorted(set(q))
            for q in queries
        ]

    def search(self, query: str | list[str], k: int = 10, mode: str = "daat",
               scorer_name: str | None = None):
        return self.search_batch([query], k, mode, scorer_name)[0]

    def search_batch(self, queries, k: int = 10, mode: str = "daat",
                     scorer_name: str | None = None):
        """Batch scatter/gather: one call per worker for the whole batch
        (amortizes RPC), then a tiny driver-side merge per query
        (k × num_workers rows)."""
        toks = self._query_tokens(queries)
        per_worker = self._scatter("query_batch", toks, k, mode, scorer_name)
        return SegmentGroupWorker._merge(per_worker, len(toks), k)

    def search_after_batch(self, queries, k: int = 10, cursors=None,
                           scorer_name: str | None = None):
        """Deep pagination: top-``k`` results STRICTLY after each query's
        (score, global docid) cursor in result order (score DESC, docid
        ASC) — page N+1 given page N's last hit, Elasticsearch's
        search_after contract. Exact and rank-identical to slicing a
        global top-(page·k), but every segment's heap stays depth ``k``
        regardless of how deep the paging goes: the cursor excludes the
        already-served prefix INSIDE the segment scoring pass (scores are
        deterministic doubles from the same code path as the pass that
        produced the cursor, so the equality compare is exact). A None
        cursor (previous page was short) yields an empty page."""
        toks = self._query_tokens(queries)
        cursors = list(cursors) if cursors is not None else [None] * len(toks)
        per_worker = self._scatter("query_after_batch", toks, k, cursors, scorer_name)
        return SegmentGroupWorker._merge(per_worker, len(toks), k)

    def search_count_batch(self, queries):
        """Exact total hit counts per query (the "about N results"
        surface, but exact), BOTH semantics in one pass: returns a list
        of (n_or, n_and). Per-segment candidate counting with no scoring
        or top-k, summed across workers — counts are additive because
        segment docid ranges partition the corpus."""
        toks = self._query_tokens(queries)
        per_worker = self._scatter("hit_count_batch", toks)
        return [
            (sum(w[qi][0] for w in per_worker),
             sum(w[qi][1] for w in per_worker))
            for qi in range(len(toks))
        ]

    def search_explain_batch(self, queries, k: int = 10, mode: str = "daat",
                             scorer_name: str | None = None):
        """Top-``k`` with per-term score decomposition ("explain"): for
        every hit, the contribution of each matching query term, summing
        exactly to the ranked score (same per-term scorer kernel the
        ranking pass ran — contributions are the identical doubles).
        Every mode adds a doc's contributions in lexicographic term
        order, the order the explain pass sums in, so Σ contributions ==
        ranked score is an exact float identity in every mode.
        Returns (top, expl): ``top`` as in :meth:`search_batch`; ``expl``
        per query a list of (docid, term, contribution). The second
        scatter/gather scores each query term at the k hit docs only,
        from the decoded-posting cache; a list not cached yet decodes
        whole."""
        toks = self._query_tokens(queries)
        top = self.search_batch(toks, k, mode, scorer_name)
        docids_batch = [[r[0] for r in res] for res in top]
        per_worker = self._scatter("explain_batch", toks, docids_batch, scorer_name)
        return top, self._concat(per_worker, len(toks))

    def search_lm_batch(self, queries, k: int = 10, mu: float = 2000.0):
        """Dirichlet query-likelihood retrieval (beyond-reference scorer
        family): two scatter/gather phases. Phase 1 gathers global ctf
        for the batch's union of query terms (|terms| ints per worker —
        the lexicon holds df, not ctf). Phase 2 scatters the queries
        with the ctf map + the exact integer collection length from the
        global metadata; per-segment top-k merges like every other mode.
        Exact at any segment count: ctf and T are global, the candidate
        set is the union over segments, and the merge is deterministic
        (score desc, docid asc)."""
        toks = self._query_tokens(queries)
        union = sorted({t for q in toks for t in q})
        ctf: dict[str, int] = {}
        for m in self._scatter("term_ctf_batch", union):
            for t, c in m.items():
                ctf[t] = ctf.get(t, 0) + c
        T = int(self.meta["sum_doclen"])
        per_worker = self._scatter("lm_batch", toks, k, mu, ctf, T)
        return SegmentGroupWorker._merge(per_worker, len(toks), k)

    def search_batch_filtered(self, queries, k: int, column: str, value,
                              src_path: str, scorer_name: str | None = None,
                              mode: str = "bmm"):
        """Metadata-filtered retrieval: exact BM25/TF-IDF top-k among
        the docs whose ``column == value`` in the source corpus parquet
        (faceted search). The predicate — not a doc list — ships to the
        workers; every segment worker builds and caches its own candidate
        mask from a pruned two-column read of its docno range
        (:meth:`SegmentSearcher.predicate_mask`), so the filter side
        never funnels through the driver at any corpus size. Scoring
        statistics (idf, avgdl) remain the FULL index's — the filter
        restricts candidates, not the collection model."""
        toks = self._query_tokens(queries)
        fp = f"{os.path.abspath(src_path)}::{column}={value!r}"
        per_worker = self._scatter("query_batch_filtered", toks, k, scorer_name,
                                   src_path, column, value, fp, mode)
        return SegmentGroupWorker._merge(per_worker, len(toks), k)

    def phrase_search_batch(self, phrases: list[str]):
        """Indexed exact-phrase retrieval over the positional sidecar:
        per phrase, EVERY matching doc with its occurrence count
        (overlapping starts all count) as ``[(docno, n), ...]`` sorted
        by docno. Phrases are normalized ORDER-PRESERVING (no
        dedup/sort — adjacency is the whole point), so phrase semantics
        live in the same normalized token space as the index. Requires
        an index built with ``BuildConfig(positions=True)``."""
        toks = [
            normalize_tokens(p, self.profile) if isinstance(p, str) else p
            for p in phrases
        ]
        per_worker = self._scatter("phrase_batch", toks)
        return [sorted(h) for h in self._concat(per_worker, len(toks))]

    def near_search_batch(self, queries):
        """Proximity retrieval over the positional sidecar: per
        ``(term_a, term_b, window)`` query — terms normalized through
        the index profile — every doc where the two terms co-occur
        within ``window`` tokens, with the doc's MINIMUM occurrence
        distance, as ``[(docno, min_dist), ...]`` sorted by docno."""
        norm = []
        for a, b, w in queries:
            ta = normalize_tokens(a, self.profile)
            tb = normalize_tokens(b, self.profile)
            if len(ta) > 1 or len(tb) > 1:
                # silently matching only the first token would answer a
                # DIFFERENT query — reject loudly (multi-token operands
                # belong to phrase_search_batch)
                raise ValueError(
                    f"NEAR operands must normalize to single tokens: "
                    f"{a!r} -> {ta}, {b!r} -> {tb}")
            # a term that normalizes away can never match
            norm.append((ta[0] if ta else "\x00", tb[0] if tb else "\x00",
                         int(w)))
        per_worker = self._scatter("near_batch", norm)
        return [sorted(h) for h in self._concat(per_worker, len(norm))]

    def prox_min_dists_batch(self, pair_lists, docno_lists):
        """Re-ranking support: per query, a dict docno → minimum
        occurrence distance over any of its term ``pairs`` that
        co-occur, restricted to that query's candidate ``docnos``
        (candidate-sized traffic; posting-bounded segment work)."""
        per_worker = self._scatter("prox_batch", pair_lists, docno_lists)
        # disjoint segments: no docno appears in two workers' rows
        return [dict(rows) for rows in self._concat(per_worker, len(pair_lists))]

    def trec_lines(self, query_id, results, run_name: str = "seppray") -> list[str]:
        """TREC run format (reference src/engine.cpp:132-135)."""
        return [
            f"{query_id} Q0 {docno} {rank} {score} {run_name}"
            for rank, (_docid, docno, score) in enumerate(results, start=1)
        ]
