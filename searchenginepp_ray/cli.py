"""Command-line entry points mirroring the reference binaries.

- ``build`` ≙ the reference's ``builder`` (reference src/builder.cpp:270-374):
  corpus Parquet in, partitioned index out.
- ``query`` ≙ the reference's ``engine`` (reference src/engine.cpp:15-140,
  option surface src/util/engine_options.cpp:8-60): reads ``qid\\ttext``
  lines from stdin (or ``--query`` one-shots), prints TREC run lines.

Usage::

    python -m searchenginepp_ray build corpus.parquet -o /tmp/idx
    echo -e "1\\thash merge sort" | python -m searchenginepp_ray query /tmp/idx -k 10 -a bmm
"""

from __future__ import annotations

import argparse
import sys


def _ray_init(num_cpus: int | None):
    """Own the Ray session for a CLI run. Standalone (``RAY_ADDRESS``
    unset or ``local``): start a local session. Under ``ray job submit``
    on a real cluster, the job runtime presets ``RAY_ADDRESS`` to the
    cluster — join it (per-node resources belong to the cluster config
    there, so ``--num-cpus`` only applies to local sessions)::

        ray job submit --working-dir . -- \\
            python -m searchenginepp_ray build corpus/ -o /shared/idx
    """
    import os

    import ray

    if not ray.is_initialized():
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr and addr != "local":
            ray.init(address=addr, include_dashboard=False)
        else:
            kwargs = {"include_dashboard": False}
            if num_cpus:
                kwargs["num_cpus"] = num_cpus
            ray.init(address="local", **kwargs)
    return ray


def cmd_build(args) -> int:
    ray = _ray_init(args.num_cpus)
    from .config import BuildConfig, FULL_PROFILE, SIMPLE_PROFILE
    from .index.build import build_index
    from .sources.parquet_corpus import CODE_CORPUS, DOCUMENTS_CORPUS

    cfg = BuildConfig(
        profile=SIMPLE_PROFILE if args.profile == "simple" else FULL_PROFILE,
        docs_per_segment=args.docs_per_segment,
        positions=args.positions,
    )
    if args.format in ("tsv", "jsonl", "csv"):
        summary = build_index(args.corpus, args.out, cfg, None,
                              force=args.force, source_format=args.format)
    else:
        spec = DOCUMENTS_CORPUS if args.table == "documents" else CODE_CORPUS
        summary = build_index(args.corpus, args.out, cfg, spec, force=args.force)
    print(summary)
    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    ray = _ray_init(args.num_cpus)
    from .index.engine import QueryEngine

    # the engine serves with the profile and BM25 constants the index records
    eng = QueryEngine(
        args.index_dir, scorer=args.scorer, use_actors=not args.no_actors,
        num_workers=args.workers,
    )
    if getattr(args, "interactive", False):
        # interactive prompt, the reference engine's serving mode
        # (reference src/engine.cpp:74-79: prompt → parse → answer loop);
        # one query per line, EOF/empty "q" to exit
        qid = 0
        while True:
            # prompt on STDERR: piped stdout stays a clean TREC run
            print("query> ", end="", file=sys.stderr, flush=True)
            try:
                line = input().strip()
            except EOFError:
                break
            if not line or line == "q":
                break
            qid += 1
            if args.phrase:
                for docno, n in eng.phrase_search_batch([line])[0]:
                    print(f"{qid}\t{docno}\t{n}")
            else:
                res = eng.search_batch([line], k=args.k,
                                       mode=args.algorithm)[0]
                for ln in eng.trec_lines(str(qid), res,
                                         run_name=args.run_name):
                    print(ln)
        ray.shutdown()
        return 0
    if args.query:
        pairs = [("1", args.query)]
    else:
        pairs = []
        for line in sys.stdin:
            line = line.rstrip("\n")
            if not line:
                continue
            qid, _, text = line.partition("\t")
            pairs.append((qid, text))
    if args.phrase:
        hits = eng.phrase_search_batch([t for _, t in pairs])
        for (qid, _), per in zip(pairs, hits):
            for docno, n in per:
                print(f"{qid}\t{docno}\t{n}")
    else:
        results = eng.search_batch([t for _, t in pairs], k=args.k,
                                   mode=args.algorithm)
        for (qid, _), res in zip(pairs, results):
            for ln in eng.trec_lines(qid, res, run_name=args.run_name):
                print(ln)
    ray.shutdown()
    return 0


def cmd_compact(args) -> int:
    """``compact`` — rewrite a many-small-files parquet corpus into
    ~target-MB files (deterministic plan, streaming copy, per-part
    lineage manifests, resumable); prints the run summary."""
    ray = _ray_init(args.num_cpus)
    from .sources.compact import compact_corpus

    print(compact_corpus(args.corpus, args.out, target_mb=args.target_mb,
                         force=args.force))
    ray.shutdown()
    return 0


def cmd_eval(args) -> int:
    """``eval`` ≙ the trec_eval step of the reference workflow
    (reference README.md:122-127): score a TREC run file against qrels."""
    import json

    from .functions import effectiveness as eff

    with open(args.run) as f:
        run = eff.parse_run(f)
    with open(args.qrels) as f:
        qrels = eff.parse_qrels(f)
    res = eff.evaluate_run(run, qrels, k=args.k)
    out = res["summary"] if not args.per_query else res
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_fsck(args) -> int:
    import json

    _ray_init(args.num_cpus)
    from .index.fsck import fsck_index

    report = fsck_index(args.index_dir, deep=args.deep)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_reclaim(args) -> int:
    import json

    _ray_init(args.num_cpus)
    from .index.build import compact_index

    summary = compact_index(args.index_dir, args.out_dir, force=args.force)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_import_ref(args) -> int:
    import json

    from .config import FULL_PROFILE, SIMPLE_PROFILE
    from .sources.reference_index import import_reference_index

    profile = FULL_PROFILE if args.profile == "full" else SIMPLE_PROFILE
    summary = import_reference_index(args.ref_dir, args.out_dir,
                                     profile=profile)
    print(json.dumps(summary, indent=2))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="searchenginepp_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index from a Parquet corpus")
    b.add_argument("corpus", help="Parquet file/dir (repo,path,commit,lang,content)")
    b.add_argument("-o", "--out", required=True)
    b.add_argument("--docs-per-segment", type=int, default=65_536)
    b.add_argument("--profile", choices=("full", "simple"), default="full")
    b.add_argument("--table", choices=("code", "documents"), default="code")
    b.add_argument("--format", choices=("parquet", "tsv", "jsonl", "csv"), default="parquet",
                   help="tsv = the reference's native <docno>\\t<text> lines")
    b.add_argument("--num-cpus", type=int, default=None)
    b.add_argument("--force", action="store_true")
    b.add_argument("--positions", action="store_true",
                   help="write the positional sidecar (per-posting token "
                        "positions) enabling indexed phrase queries")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="serve top-k queries over a built index")
    q.add_argument("index_dir")
    q.add_argument("-k", type=int, default=10)  # reference -k
    q.add_argument("-a", "--algorithm", default="daat",  # reference -a/-b
                   choices=("daat", "daat_conj", "bmm"),
                   help="daat: disjunctive; daat_conj: every term must "
                        "match; bmm: Block-Max Maxscore, the same results "
                        "as daat with pruning")
    q.add_argument("-s", "--scorer", default="bm25",
                   choices=("bm25", "tfidf", "tfidf_fast"))  # reference -s (+F4 flag)
    q.add_argument("-t", "--workers", type=int, default=None,  # reference -t
                   help="shards of segments to serve from (default: "
                        "min(segments, CPUs)); 2 or more run as Ray "
                        "actors in parallel, 1 runs in this process "
                        "(an actor call costs about 1.7 ms on a 1-CPU "
                        "host)")
    q.add_argument("-r", "--run-name", default="seppray")  # reference -r
    q.add_argument("--query", help="one-shot query text (else read qid\\ttext from stdin)")
    q.add_argument("-i", "--interactive", action="store_true",
                   help="interactive prompt loop (the reference "
                        "engine's serving mode; empty line or 'q' exits)")
    q.add_argument("--no-actors", action="store_true",
                   help="serve every shard in this process; a pool of "
                        "one shard already does, with no Ray actor "
                        "round trip (about 1.7 ms per call on a 1-CPU "
                        "host)")
    q.add_argument("--num-cpus", type=int, default=None)
    q.add_argument("--phrase", action="store_true",
                   help="exact-phrase retrieval over the positional "
                        "sidecar (prints qid\\tdocno\\tcount)")
    q.set_defaults(fn=cmd_query)

    k = sub.add_parser(
        "compact",
        help="rewrite a many-small-files parquet corpus into ~target-MB "
             "files (deterministic, streaming, resumable)",
    )
    k.add_argument("corpus", help="directory of parquet files")
    k.add_argument("-o", "--out", required=True, help="output dir")
    k.add_argument("--target-mb", type=float, default=256.0)
    k.add_argument("--force", action="store_true",
                   help="rewrite parts even if their manifest matches")
    k.add_argument("--num-cpus", type=int, default=None)
    k.set_defaults(fn=cmd_compact)

    f = sub.add_parser(
        "fsck", help="verify index integrity (decode every posting list, "
        "check manifests, skip fences, impacts, doc tables; --deep adds the "
        "global df == Σ df_local check)")
    f.add_argument("index_dir")
    f.add_argument("--deep", action="store_true")
    f.add_argument("--num-cpus", type=int, default=None)
    f.set_defaults(fn=cmd_fsck)

    r = sub.add_parser(
        "reclaim", help="physically reclaim tombstoned docs: write a "
        "compacted index (postings dropped, docids renumbered, "
        "df/idf/avgdl recomputed — byte-identical to a fresh build "
        "over the alive corpus, without re-tokenizing)")
    r.add_argument("index_dir")
    r.add_argument("out_dir")
    r.add_argument("--force", action="store_true")
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_reclaim)

    ir = sub.add_parser(
        "import-ref", help="one-shot migration: convert an index built "
        "by the reference C++ engine (disk_map lexicon + VarByte/unary "
        "posting files) into this engine's native segment format; the "
        "result serves rank-identically")
    ir.add_argument("ref_dir", help="reference index directory "
                    "(db_N/ dirs + global_lexicon + metadata)")
    ir.add_argument("out_dir")
    ir.add_argument("--profile", choices=["full", "simple"],
                    default="full",
                    help="normalizer the reference index was built with "
                    "(full = stemming+latin1, the reference CI build)")
    ir.set_defaults(fn=cmd_import_ref)

    e = sub.add_parser("eval", help="score a TREC run file against qrels (mAP/nDCG@k/P@k)")
    e.add_argument("run", help="TREC run file (qid Q0 docno rank score tag)")
    e.add_argument("qrels", help="qrels file (qid 0 docno rel)")
    e.add_argument("-k", type=int, default=10)
    e.add_argument("--per-query", action="store_true")
    e.set_defaults(fn=cmd_eval)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
