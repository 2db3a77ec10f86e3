"""IR effectiveness metrics over TREC-format runs — the engine-side
stand-in for the reference's ``trec_eval`` workflow (reference
README.md:122-127: batch mode emits a run file scored against qrels).

Pure functions over (run, qrels): mAP, nDCG@k, P@k — the metrics the
reference reports for its MS MARCO runs (reference report.pdf Table 3.1).
No external data: tests plant relevance in the synthetic corpus and
assert metric floors.
"""

from __future__ import annotations

import math
from collections import defaultdict


def parse_run(lines) -> dict[str, list[str]]:
    """TREC run lines (``qid Q0 docno rank score tag``) → qid → docnos in
    rank order."""
    rows: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for ln in lines:
        parts = ln.split()
        if len(parts) < 6:
            continue
        qid, _q0, docno, rank = parts[0], parts[1], parts[2], int(parts[3])
        rows[qid].append((rank, docno))
    return {q: [d for _, d in sorted(v)] for q, v in rows.items()}


def parse_qrels(lines) -> dict[str, dict[str, int]]:
    """TREC qrels lines (``qid 0 docno rel``) → qid → docno → rel."""
    out: dict[str, dict[str, int]] = defaultdict(dict)
    for ln in lines:
        parts = ln.split()
        if len(parts) < 4:
            continue
        qid, _, docno, rel = parts[0], parts[1], parts[2], int(parts[3])
        if rel > 0:
            out[qid][docno] = rel
    return dict(out)


def average_precision(ranking: list[str], relevant: dict[str, int]) -> float:
    """AP = mean over relevant docs of precision at their rank (0 for
    unretrieved relevant docs)."""
    if not relevant:
        return 0.0
    hits = 0
    ap = 0.0
    for i, d in enumerate(ranking, start=1):
        if d in relevant:
            hits += 1
            ap += hits / i
    return ap / len(relevant)


def ndcg_at_k(ranking: list[str], relevant: dict[str, int], k: int) -> float:
    """nDCG@k with graded gains rel_i / log2(rank+1)."""
    dcg = sum(
        relevant.get(d, 0) / math.log2(i + 1)
        for i, d in enumerate(ranking[:k], start=1)
    )
    ideal = sorted(relevant.values(), reverse=True)[:k]
    idcg = sum(r / math.log2(i + 1) for i, r in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def precision_at_k(ranking: list[str], relevant: dict[str, int], k: int) -> float:
    if k <= 0:
        return 0.0
    return sum(1 for d in ranking[:k] if d in relevant) / k


def evaluate_run(
    run: dict[str, list[str]], qrels: dict[str, dict[str, int]], k: int = 10
) -> dict:
    """Per-query + mean mAP / nDCG@k / P@k over the queries present in
    qrels (trec_eval convention: queries without judgments are skipped)."""
    per_q = {}
    for qid, relevant in qrels.items():
        ranking = run.get(qid, [])
        per_q[qid] = {
            "ap": average_precision(ranking, relevant),
            f"ndcg@{k}": ndcg_at_k(ranking, relevant, k),
            f"p@{k}": precision_at_k(ranking, relevant, k),
        }
    n = max(len(per_q), 1)
    summary = {
        "map": sum(v["ap"] for v in per_q.values()) / n,
        f"ndcg@{k}": sum(v[f"ndcg@{k}"] for v in per_q.values()) / n,
        f"p@{k}": sum(v[f"p@{k}"] for v in per_q.values()) / n,
        "n_queries": len(per_q),
    }
    return {"summary": summary, "per_query": per_q}
