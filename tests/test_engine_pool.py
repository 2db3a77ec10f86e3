"""Where the query engine's workers run: a pool of one shard serves in
the caller's process (no Ray actor, no Ray CPU held), a pool of two or
more shards is Ray actors, and both answer identically."""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from searchenginepp_ray.config import BuildConfig
from searchenginepp_ray.index.build import build_index
from searchenginepp_ray.index.engine import QueryEngine, SegmentGroupWorker
from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS

from .corpus import write_corpus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUERIES = [
    "return if else",
    "hash index query search",
    "the of and to",           # all stopwords → empty after normalization
    "zzzunknownterm",
    "merge merge merge sort",
    "naïve café",
    "read write parse encode decode",
]


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pool") / "corpus.parquet")
    write_corpus(path, 800, seed=42, rows_per_group=128)
    return path


def _wait_for_free_cpus(timeout: float = 30.0) -> float:
    """Available Ray CPUs once every CPU is free again (tasks and actors of
    earlier tests release theirs asynchronously), or after ``timeout``."""
    import ray

    want = ray.cluster_resources()["CPU"]
    end = time.monotonic() + timeout
    while ray.available_resources().get("CPU", 0) < want and time.monotonic() < end:
        time.sleep(0.05)
    return ray.available_resources().get("CPU", 0)


def test_one_shard_engine_holds_no_ray_cpu(corpus, tmp_path):
    import ray

    out = str(tmp_path / "one")
    cfg = BuildConfig(docs_per_segment=10_000)
    assert build_index(corpus, out, cfg, CODE_CORPUS)["n_segments"] == 1
    before = _wait_for_free_cpus()
    eng = QueryEngine(out, cfg=cfg)  # default: use_actors=True
    assert eng.search("hash sort merge", k=5)
    assert eng.use_actors is False
    assert len(eng.workers) == 1
    assert isinstance(eng.workers[0], SegmentGroupWorker)
    assert ray.available_resources().get("CPU", 0) == before


def test_actor_pool_answers_like_in_process_engine(corpus, tmp_path):
    """Outputs of a 2-actor pool and a one-shard in-process engine over
    the same 3-segment index are identical down to their reprs (types,
    float digits, order; explain rows up to their order)."""
    import ray

    out = str(tmp_path / "three")
    cfg = BuildConfig(docs_per_segment=300)
    assert build_index(corpus, out, cfg, CODE_CORPUS)["n_segments"] == 3
    local = QueryEngine(out, num_workers=1, cfg=cfg)
    pool = QueryEngine(out, num_workers=2, num_cpus_per_actor=0.1, cfg=cfg)
    try:
        assert local.use_actors is False and len(local.workers) == 1
        assert pool.use_actors is True and len(pool.workers) == 2

        def same(call):
            a, b = call(pool), call(local)
            assert repr(a) == repr(b)
            return a

        for mode in ("daat", "bmm", "daat_conj"):
            top = same(lambda e: e.search_batch(QUERIES, k=4, mode=mode))
        assert any(top)
        cursors = [(r[-1][2], r[-1][0]) if len(r) == 4 else None for r in top]
        assert any(c is not None for c in cursors)
        same(lambda e: e.search_after_batch(QUERIES, k=4, cursors=cursors))
        same(lambda e: e.search_count_batch(QUERIES))

        def explained(e):
            # explain rows come in worker order, which follows the shard
            # layout: compare each query's rows as a sorted list
            top, expl = e.search_explain_batch(QUERIES, k=4)
            return top, [sorted(x) for x in expl]

        same(explained)
        same(lambda e: e.search_lm_batch(QUERIES, k=4))
    finally:
        for w in pool.workers:
            ray.kill(w, no_restart=True)


_STARVATION_SCRIPT = textwrap.dedent("""
    import os, sys, threading
    import ray

    tmp = sys.argv[1]
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from searchenginepp_ray.config import BuildConfig
    from searchenginepp_ray.index.build import build_index, compact_index
    from searchenginepp_ray.index.engine import QueryEngine
    from searchenginepp_ray.index.tombstone import delete_docs
    from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS
    from tests.corpus import write_corpus

    corpus = os.path.join(tmp, "corpus.parquet")
    write_corpus(corpus, 300, seed=3, rows_per_group=64)
    idx = os.path.join(tmp, "idx")
    build_index(corpus, idx, BuildConfig(docs_per_segment=150), CODE_CORPUS)
    eng = QueryEngine(idx)  # default engine, kept alive below
    hits = eng.search("hash sort merge", k=3)
    delete_docs(idx, [hits[0][1]])
    done = []
    t = threading.Thread(target=lambda: done.append(
        compact_index(idx, os.path.join(tmp, "compacted"))), daemon=True)
    t.start()
    t.join(timeout=120)
    print("compacted", done[0]["n_docs"] if done else "stuck", flush=True)
    assert eng.search("hash sort merge", k=3) == hits
    if not done and eng.use_actors:
        # let the compaction finish, so that the session shuts down cleanly
        for w in eng.workers:
            ray.kill(w, no_restart=True)
        t.join(timeout=120)
    ray.shutdown()
""")


def test_one_cpu_session_compacts_beside_live_engine(tmp_path):
    """On a 1-CPU Ray session a live default engine must leave the CPU
    to a compaction started beside it (an engine actor holding
    ``num_cpus=1`` kept such a compaction from ever running)."""
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _STARVATION_SCRIPT, str(tmp_path)],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=400)
    assert "compacted 299" in proc.stdout.splitlines(), (
        proc.stdout[-2000:], proc.stderr[-3000:])
    assert proc.returncode == 0, proc.stderr[-3000:]
