"""2M-doc section benchmark (BASELINE.md "2M-doc" rows): build → merge
×32 (streaming term-range merge) → serving DAAT/BMM best-of-2 — the
standardized form of the ad-hoc measurements earlier rounds ran.

Usage:  python scripts/bench_2m.py [--cpus 32] [--rows 2000000]
Prints one JSON line. Owns its Ray session (not driver-imported)."""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--rows", type=int, default=2_000_000)
    ap.add_argument("--skip-build", action="store_true",
                    help="reuse /tmp/bench2m_idx from a previous run")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)

    from searchenginepp_ray.config import FULL_PROFILE, BuildConfig
    from searchenginepp_ray.index.build import build_index, merge_segments
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.sources.corpus_gen import write_corpus_fast
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

    out: dict = {"cpus": args.cpus, "rows": args.rows}
    corpus = write_corpus_fast(
        f"/tmp/bench_corpus/corpus_{args.rows // 1000}k.parquet", args.rows)

    idx = "/tmp/bench2m_idx"
    cfg = BuildConfig(profile=FULL_PROFILE, docs_per_segment=2048)
    if not args.skip_build:
        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.perf_counter()
        summary = build_index(corpus, idx, cfg, CODE_CORPUS)
        wall = time.perf_counter() - t0
        out["build_wall_s"] = round(wall, 1)
        out["build_docs_per_s"] = round(summary["n_docs"] / wall, 1)
        out["build_stages"] = summary["stage_secs"]

    merged = "/tmp/bench2m_idx_m32"
    shutil.rmtree(merged, ignore_errors=True)
    t0 = time.perf_counter()
    m = merge_segments(idx, merged, group_size=32)
    out["merge32_wall_s"] = round(time.perf_counter() - t0, 1)
    out["merge32_segments"] = m["n_segments"]

    # serving in a fresh session: build/merge workers left behind by
    # the session above would otherwise share the CPUs with the actors
    ray.shutdown()
    time.sleep(12)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    eng = QueryEngine(merged, use_actors=True)
    vocab = ("return if else for while hash index query search vector string "
             "buffer merge sort static const int read write parse encode "
             "decode split push append insert erase find map set array").split()
    rng = random.Random(42)
    queries = [" ".join(rng.sample(vocab, rng.randint(2, 5)))
               for _ in range(100)]
    eng.search_batch(queries[:4], k=20)  # warm actors
    for mode in ("daat", "bmm", "daat", "bmm"):
        t0 = time.perf_counter()
        eng.search_batch(queries, k=20, mode=mode)
        dt = time.perf_counter() - t0
        key = f"search_{mode}_100q_s"
        out[key] = round(min(out.get(key, dt), dt), 3)
    out["qps_daat"] = round(100 / out["search_daat_100q_s"], 1)
    out["qps_bmm"] = round(100 / out["search_bmm_100q_s"], 1)
    print(json.dumps(out), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
