"""The workloads and the sequence every one of them runs.

Every workload runs the same index lifecycle on its own corpus, so every
end-to-end metric is measured on every workload:

1. set-up, repeated: fresh ``build_index`` → ``QueryEngine`` → first query;
2. serving: one closed-loop client, one ``search`` at a time per mode,
   then ``search_batch`` batches (a "fresh" phase in parts, on the
   set-up engines; the other phases after the steps they follow);
3. append a second corpus file (append-incremental ``build_index``);
4. ``delete_docs`` on returned docnos;
5. ``compact_index`` then ``merge_segments``, twice;
6. correctness checks on every index the sequence served.

The workloads differ in corpus, segment size and where the serving
time goes; ``Workload`` records each one's choices and README.md says
why.

Every timing leaves out the share of the time the hypervisor kept the
run's CPUs from running while they had work (``Steal``): on a shared
host that share changes from run to run and would otherwise move every
figure with it.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from searchenginepp_ray.config import BuildConfig
from searchenginepp_ray.index.build import build_index, compact_index, merge_segments
from searchenginepp_ray.index.engine import QueryEngine
from searchenginepp_ray.index.tombstone import delete_docs
from searchenginepp_ray.normalizer.batch import tokenize_batch
from searchenginepp_ray.sources.parquet_corpus import CODE_CORPUS, ColumnSpec

import gen
from oracle import Bm25Oracle, agree, pairs, same_ranking
from tracing import Tracer

MODES = ("daat", "bmm", "daat_conj")
QUERY_K = 20        # per-query serving, as in the reference's Table 3.2
BATCH_K = 10
BATCH_SIZE = 64
ORACLE_SAMPLE = 6   # queries per mode and phase checked against the oracle
                    # (split over the parts of a phase, at least 2 a part)
MERGE_GROUP = 4
RECLAIM_REPS = 2    # compact + merge rounds per run; the metric takes the median
MARCO_SPEC = ColumnSpec(text_col="text", docno_cols=("doc_id",))


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                 # "code" or "marco"
    n_docs: int
    n_append: int
    docs_per_segment: int
    queries_per_mode: int       # timed per-query samples per mode per run
    batch_share: float          # share of --seconds spent on batches
    phases: tuple[str, ...]     # the phases that serve (and are timed)
    setup_reps: int = 3         # set-ups (and appends) per run; the metrics take the median


WORKLOADS = {
    w.name: w for w in (
        Workload("marco-serve", "marco", 17_000, 2_500, 65_536,
                 300, 0.15, ("fresh",)),
        # a first segment at the size where ``bmm`` switches to Maxscore
        # (``SegmentSearcher.maxscore_min_docs``), so that the tombstoned
        # phase takes the masked Maxscore path there
        Workload("lifecycle", "code", 24_576, 4_096, 16_384,
                 360, 0.25, ("appended", "tombstoned", "reclaimed")),
    )
}


class OpFailed(Exception):
    """An operation raised; the sequence cannot go on. A call that never
    returns is left to the watchdog in run.py: a per-call timer could not
    interrupt the blocking ``ray.get`` that every build and actor query
    waits in."""


# ------------------------------------------------------------ processes


def _worker_pids(title: bytes = b"ray::") -> list[int]:
    """This session's Ray worker processes: descendants of this process
    whose title starts with ``title``."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    me, out = os.getpid(), []
    for pid in parent:
        p = pid
        while p in parent and p != me:
            p = parent[p]
        if p != me or pid == me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(title):
                    out.append(pid)
        except OSError:
            continue
    return out


@ray.remote(num_cpus=1)
def _idle_worker() -> None:
    """Returns once a worker process is up, idle and has imported the
    module whose tasks build, compact and merge."""
    import searchenginepp_ray.index.build  # noqa: F401


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak memory of the client and the session's Ray workers: at each
    checkpoint (after a build, before an engine is released; never inside
    a timed section) the sum of VmHWM over this process and every live
    worker, and the largest such sum over the run."""

    def __init__(self):
        self.peak_kb = 0

    def sample(self) -> None:
        self.peak_kb = max(self.peak_kb,
                           sum(_hwm_kb(p) for p in [os.getpid(), *_worker_pids()]))

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024


class Steal:
    """Time the hypervisor kept this process's CPUs from running while
    they had work: the ``steal`` column of their ``/proc/stat`` lines,
    beside the time they ran (user, nice, system, irq, softirq), both
    summed over the CPUs. The kernel counts steal in place of the run
    time it displaced, at the scheduler tick, so over a window of a
    second or more the stolen share of the time the CPUs wanted to run
    reads to within about a percent."""

    def __init__(self):
        self.keys = {f"cpu{c}" for c in os.sched_getaffinity(0)}

    def ticks(self) -> tuple[int, int]:
        """(stolen, ran + stolen) since boot, in clock ticks."""
        stolen = wanted = 0
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in self.keys:
                    user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                        int, fields[1:9])
                    stolen += steal
                    wanted += user + nice + system + irq + softirq + steal
        return stolen, wanted


# ----------------------------------------------------------- the runner


def _median(xs):
    return float(statistics.median(xs))


def _secs(xs) -> str:
    return "[" + ", ".join(f"{x:.2f}" for x in xs) + "] s"


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: str, log):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.work, self.log = work_dir, log
        self.attempted = 0
        self.failed = 0
        self.rss = PeakRss()
        self.cfg = BuildConfig(docs_per_segment=wl.docs_per_segment)
        self.spec = CODE_CORPUS if wl.corpus == "code" else MARCO_SPEC
        self.samples: dict[str, list[float]] = {m: [] for m in MODES}
        # median wall of one batch, per phase and mode
        self.batch_walls: list[float] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.layer_acc: dict[str, list[float]] = {}
        self.tracer = Tracer()
        self.steal = Steal()
        # wall and stolen seconds over every timed window, for the log
        self.timed_wall = self.timed_stolen = 0.0
        # query streams are numbered so that no two passes share queries
        self._stream = 0

    # ---- bookkeeping

    def op(self, fn, *args, **kwargs):
        """Call into the program as one counted operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # every failure mode of the call is counted
            self.failed += 1
            self.log(f"FAILED {getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")
            raise OpFailed from e

    def mark(self, what: str) -> None:
        self.log(f"{self.wl.name}: {what} done at {time.perf_counter() - self.t_start:.1f}s")

    def mismatch(self, what: str) -> None:
        self.failed += 1
        self.log(f"WRONG RESULT: {what}")

    def clock(self) -> tuple[float, int, int]:
        """Start of a timed window: wall seconds and ``Steal.ticks``."""
        return (time.perf_counter(), *self.steal.ticks())

    def unstolen_share(self, t0: tuple[float, int, int]) -> tuple[float, float]:
        """(wall seconds since ``t0``, share of the CPUs' wanted time that
        was not stolen meanwhile)."""
        w1, stolen, wanted = self.clock()
        wall = w1 - t0[0]
        stolen, wanted = stolen - t0[1], wanted - t0[2]
        share = 1 - stolen / wanted if wanted > 0 else 1.0
        self.timed_wall += wall
        self.timed_stolen += wall * (1 - share)
        return wall, share

    def busy(self, t0: tuple[float, int, int]) -> float:
        """Wall seconds since ``t0``, less the stolen share."""
        wall, share = self.unstolen_share(t0)
        return wall * share

    def acc(self, name: str, value: float) -> None:
        self.layer_acc.setdefault(name, []).append(value)

    def queries(self, n: int) -> list[str]:
        self._stream += 1
        if self.wl.corpus == "code":
            return gen.code_queries(self.seed, self._stream, n)
        return gen.marco_queries(self.seed, self._stream, n, self.vocab)

    # ---- inputs

    def make_inputs(self) -> None:
        cdir = os.path.join(self.work, "corpus")
        os.makedirs(cdir)
        self.base = os.path.join(cdir, "a.parquet")
        self.extra = os.path.join(cdir, "b.parquet")
        if self.wl.corpus == "code":
            gen.write_code_corpus(self.base, self.wl.n_docs, self.seed)
            gen.write_code_corpus(self.extra, self.wl.n_append, self.seed + 1_000_003)
        else:
            self.vocab = gen.marco_vocab(self.seed)
            gen.write_marco_corpus(self.base, self.wl.n_docs, self.seed, self.vocab)
            gen.write_marco_corpus(self.extra, self.wl.n_append, self.seed + 1_000_003,
                                   self.vocab)

    def make_oracle(self) -> None:
        """Tokenize both corpus files in this process for the oracle; the
        same pass is the normalizer's throughput measurement."""
        docnos, texts = [], []
        for path in (self.base, self.extra):
            d, t = gen.read_corpus(path, self.spec)
            docnos += d
            texts += t
        n_bytes = sum(len(t.encode()) for t in texts)
        t0 = self.clock()
        doclens, terms, tfs = tokenize_batch(texts, self.cfg.profile)
        self.layer["normalizer.tokenize_mb_per_s"] = n_bytes / 1e6 / self.busy(t0)
        self.oracle = Bm25Oracle(docnos, doclens, terms, tfs)
        self.docnos = docnos
        self.base_docs = set(range(self.wl.n_docs))

    # ---- engine lifetime

    def start_engine(self, index_dir: str, first_query: str, use_actors=True):
        t0 = self.clock()
        eng = self.op(QueryEngine, index_dir, use_actors=use_actors)
        self.op(eng.search, first_query, QUERY_K, "bmm")
        return eng, self.busy(t0)

    def release(self, eng) -> None:
        """Kill the engine's actors, then wait until their CPUs are free
        again and their processes have exited. On a one-CPU session a
        live actor holds the only CPU, and a build, compaction or merge
        started beside it never runs (see README.md, known defect); an
        actor process still tearing down would share the CPU with the
        next timed operation."""
        self.rss.sample()
        if not eng.use_actors:
            return
        for w in eng.workers:
            ray.kill(w, no_restart=True)
        want = ray.cluster_resources().get("CPU", 1)
        end = time.monotonic() + 30
        while (ray.available_resources().get("CPU", 0) < want
               or _worker_pids(b"ray::SegmentGroupWorker")):
            if time.monotonic() > end:
                self.failed += 1
                raise OpFailed("engine actors did not exit")
            time.sleep(0.02)
        # an actor takes an idle worker process with it when it dies; make
        # sure a warm one is idle again, so that the next timed task neither
        # starts a process nor imports the package
        ray.get(_idle_worker.remote())

    # ---- set-up

    def setup(self) -> tuple[str, list]:
        """Fresh build + engine start, then an append-incremental build of
        the second file onto that index, ``setup_reps`` times. A workload
        with a "fresh" phase serves it in parts, one on each set-up's
        engine before the append. Builds, appends and serving are thus
        spread over the whole set-up, and a slow spell of the host (they
        last seconds here) lands on one of each only. Returns the last
        appended index, which serves from then on, and the timed ``daat``
        results of the "fresh" phase."""
        walls, builds, loads, appends, summaries, fresh = [], [], [], [], [], []
        view = {"stats_docs": self.base_docs, "cand_docs": self.base_docs}
        probe = self.queries(1)[0]
        # the first build, compaction and merge of a session also start
        # worker processes and load the code their tasks run, and the
        # first build of the base file ran 30-60 % slower than the next
        # ones; untimed passes pay that (a build of the base file, then a
        # build, delete, compaction and merge of the small second file),
        # so that the timed operations are alike
        warm = os.path.join(self.work, "warmup")
        self.op(build_index, self.base, warm + "-base", self.cfg, self.spec)
        shutil.rmtree(warm + "-base")
        self.op(build_index, self.extra, warm, self.cfg, self.spec)
        self.op(delete_docs, warm, self.docnos[-1:])
        self.op(compact_index, warm, warm + "-compacted")
        self.op(merge_segments, warm + "-compacted", warm + "-merged", MERGE_GROUP)
        for d in ("", "-compacted", "-merged"):
            shutil.rmtree(warm + d)
        for r in range(self.wl.setup_reps):
            idx = os.path.join(self.work, f"setup{r}")
            t0 = self.clock()
            s = self.op(build_index, self.base, idx, self.cfg, self.spec)
            built = self.busy(t0)
            self.rss.sample()
            eng, load = self.start_engine(idx, probe)
            walls.append(built + load)
            if "fresh" in self.wl.phases:
                fresh += self.serve(idx, "fresh", view, set(), eng, probe,
                                    (r, self.wl.setup_reps))
            else:
                self.release(eng)
            builds.append(built)
            loads.append(load)
            summaries.append(s)
            if r == self.wl.setup_reps - 1:
                self.e2e["index_bytes_per_posting"] = _dir_bytes(idx) / s["n_postings"]
                self._layout_metrics(idx, s)
            t0 = self.clock()
            a = self.op(build_index, [self.base, self.extra], idx, self.cfg, self.spec)
            appends.append(self.busy(t0))
            self.rss.sample()
            if r < self.wl.setup_reps - 1:
                shutil.rmtree(idx)
        self.log(f"{self.wl.name}: builds {_secs(builds)}, engine starts {_secs(loads)}, "
                 f"appends {_secs(appends)}; stages "
                 f"{[{k: round(v, 2) for k, v in x['stage_secs'].items()} for x in summaries]}")
        self.e2e["setup_s"] = _median(walls)
        self.e2e["build_docs_per_s"] = self.wl.n_docs / _median(builds)
        self.layer["index.engine.load_s"] = _median(loads)
        for stage in ("tokenize", "global_stats", "assemble"):
            self.layer[f"index.build.{stage}_s"] = _median(
                [x["stage_secs"][stage] for x in summaries])
        self.e2e["append_docs_per_s"] = self.wl.n_append / _median(appends)
        self.layer["index.build.append_s"] = _median(appends)
        self.layer["index.build.segments"] = a["n_segments"]
        return idx, fresh

    def _layout_metrics(self, idx: str, summary: dict) -> None:
        """Assemble sub-stage times and bytes per posting by file part,
        read from the segments the build wrote."""
        sub = dict.fromkeys(("read", "flatten", "sort", "encode", "write"), 0.0)
        parts = {"docid": 0, "freq": 0, "skip": 0}
        for d in sorted(os.listdir(idx)):
            if not d.startswith("db_"):
                continue
            with open(os.path.join(idx, d, "manifest.json")) as f:
                m = json.load(f)
            for k in sub:
                sub[k] += m.get("timings", {}).get(k, 0.0)
            t = pq.read_table(os.path.join(idx, d, "terms.parquet"))
            parts["docid"] += pc.sum(pc.binary_length(t["docid_bytes"])).as_py() or 0
            parts["freq"] += pc.sum(pc.binary_length(t["freq_bytes"])).as_py() or 0
            for c in t.column_names:
                if c.startswith("skip_"):
                    parts["skip"] += pc.list_flatten(t[c]).nbytes
        for k, v in sub.items():
            self.layer[f"index.build.assemble.{k}_s"] = v
        for k, v in parts.items():
            self.layer[f"index.build.{k}_bytes_per_posting"] = v / summary["n_postings"]
        self.layer["index.build.docindex_bytes_per_doc"] = (
            _dir_bytes(os.path.join(idx, "docs")) / summary["n_docs"])

    # ---- serving

    def serve(self, idx: str, phase: str, oracle_view: dict, banned: set[str],
              eng=None, first: str | None = None, part: tuple[int, int] = (0, 1)) -> list:
        """Serve part ``part[0]`` of ``part[1]`` of one timed phase, on
        ``eng`` (started by the caller with ``first`` as its first query)
        or on a new engine, check it and release the engine. Returns the
        results of the timed ``daat`` stream."""
        n_parts = part[1]
        per_mode = max(20, self.wl.queries_per_mode // len(self.wl.phases) // n_parts)
        warm = max(10, per_mode // 6)
        streams = {m: (self.queries(warm), self.queries(per_mode)) for m in MODES}
        if eng is None:
            first = streams["daat"][0][0]
            eng, _ = self.start_engine(idx, first)
        results: dict[str, list] = {m: [] for m in MODES}
        try:
            for i in range(warm):
                for mode in MODES:
                    self.op(eng.search, streams[mode][0][i], QUERY_K, mode)
            # freeze the client's heap, so that a collection inside a timed
            # call scans only what that call allocated
            gc.collect()
            gc.freeze()
            # modes take turns query by query, so a slow spell of the host
            # lands on every mode alike
            lat: dict[str, list[float]] = {m: [] for m in MODES}
            window = self.clock()
            for i in range(per_mode):
                for mode in MODES:
                    t0 = time.perf_counter()
                    results[mode].append(self.op(eng.search, streams[mode][1][i], QUERY_K, mode))
                    lat[mode].append(time.perf_counter() - t0)
            # steal is counted per tick, too coarse to charge to single
            # queries: every latency of the window gives up the window's
            # stolen share
            _, share = self.unstolen_share(window)
            for mode in MODES:
                self.samples[mode] += [x * share for x in lat[mode]]
            batches = self._batches(eng, n_parts)
            self._check(eng, phase, streams, results, batches, oracle_view, banned,
                        max(2, ORACLE_SAMPLE // n_parts))
        finally:
            self.release(eng)
        self.mark(f"{phase} serving" + (f" {part[0] + 1}/{n_parts}" if n_parts > 1 else ""))
        if self.trace and part[0] == n_parts - 1:
            self._trace_phase(idx, streams, first)
            self.mark(f"{phase} traced serving")
        return results["daat"]

    def _batches(self, eng, n_parts: int) -> list:
        """Closed-loop ``search_batch`` over distinct batches, alternating
        ``daat`` and ``bmm``, until the phase's share of --seconds is used.
        Keeps the median batch wall per mode (a slow spell of the host
        lands on a few batches, not on the median). Returns the first two
        batches for the checks."""
        box = self.seconds * self.wl.batch_share / len(self.wl.phases) / n_parts
        self.op(eng.search_batch, self.queries(BATCH_SIZE), BATCH_K, "bmm")  # warm-up
        kept, walls, i = [], {"daat": [], "bmm": []}, 0
        gc.collect()
        window = self.clock()
        t_start = window[0]
        while time.perf_counter() - t_start < box or i < 2:
            qs = self.queries(BATCH_SIZE)
            mode = ("daat", "bmm")[i % 2]
            t0 = time.perf_counter()
            out = self.op(eng.search_batch, qs, BATCH_K, mode)
            walls[mode].append(time.perf_counter() - t0)
            if i < 2:
                kept.append((mode, qs, out))
            i += 1
        _, share = self.unstolen_share(window)
        self.batch_walls += [_median(w) * share for w in walls.values()]
        return kept

    def _check(self, eng, phase, streams, results, batches, view, banned, sample) -> None:
        """Post-timing correctness: every timed daat/bmm query agrees with
        the other mode; a sample of every mode and of the batches matches
        the oracle; no deleted docno is returned."""
        for mode, other in (("daat", "bmm"), ("bmm", "daat")):
            qs = streams[mode][1]
            for i in range(0, len(qs), BATCH_SIZE):
                chunk = qs[i:i + BATCH_SIZE]
                again = self.op(eng.search_batch, chunk, QUERY_K, other)
                for j, (a, b) in enumerate(zip(results[mode][i:i + BATCH_SIZE], again)):
                    if not agree(a, b):
                        self.mismatch(f"{phase} {mode} vs {other}: {chunk[j]!r}")
        checks = [(mode, q, r, QUERY_K)
                  for mode in MODES
                  for q, r in list(zip(streams[mode][1], results[mode]))[:sample]]
        checks += [(mode, q, r, BATCH_K)
                   for mode, qs, out in batches
                   for q, r in list(zip(qs, out))[:sample]]
        for mode, q, r, k in checks:
            want = self.oracle.topk(eng.normalize_query(q), k,
                                    conj=mode == "daat_conj", **view)
            if not same_ranking(pairs(r), want, k):
                self.mismatch(f"{phase} {mode} vs oracle: {q!r}")
        served = [r for rs in results.values() for r in rs] + [
            r for _, _, out in batches for r in out]
        for r in served:
            if any(hit[1] in banned for hit in r):
                self.mismatch(f"{phase}: a deleted docno was returned")

    # ---- traced pass (--trace 1)

    def _trace_phase(self, idx: str, streams: dict, first: str) -> None:
        """Per-layer metrics of one phase, from an in-process engine.

        1. Replay the phase's warm-up and timed streams in the order they
           were timed through the actors, with the term probes on: the
           same queries on the same cache history give the actor round
           trip (``scatter_gather_ms``) and the share of query-term
           lookups that had to decode (``term_miss_frac``).
        2. Serve fresh streams, tracing every other query: the spans give
           the layer times, and traced minus untraced medians over the
           one stream give the price of the trace.
        """
        tr = self.tracer
        n = max(20, len(streams["daat"][1]) // 2)
        phase_first = len(tr.spans)
        with tr:
            eng, _ = self.start_engine(idx, first, use_actors=False)
        self.acc("index.searcher.load_s", sum(
            s.end - s.start for s in tr.spans[phase_first:] if s.name == "searcher.load"))
        searchers = [s for w in eng.workers for s in w.searchers]
        try:
            gc.collect()
            gc.freeze()
            self._replay(eng, searchers, streams)
            for mode in MODES:
                self._traced_stream(eng, searchers, mode, n)
            first = len(tr.spans)
            with tr:
                for i in range(4):
                    self.op(eng.search_batch, self.queries(BATCH_SIZE), BATCH_K,
                            ("daat", "bmm")[i % 2])
            self._batch_spans(tr.spans[first:])
            # codec work over the traced windows: engine construction
            # (which decodes the hottest lists up front), then the traced
            # queries and batches
            for codec in ("varbyte", "unary"):
                calls = [s for s in tr.spans[phase_first:] if s.name == f"codecs.{codec}.decode"]
                self.acc(f"codecs.{codec}.decode_calls", len(calls))
                self.acc(f"codecs.{codec}.decode_mb", sum(s.counts["bytes"] for s in calls) / 1e6)
                self.acc(f"codecs.{codec}.decode_s", sum(s.end - s.start for s in calls))
        finally:
            self.release(eng)

    @staticmethod
    def _lookups(searchers, toks: list[str], mode: str) -> set[tuple[int, int]]:
        """(searcher, term) pairs a query looks up: its terms present in
        each segment's lexicon (for ``daat_conj``, none in a segment that
        lacks one of them)."""
        out = set()
        for s in searchers:
            tis = [s.term_index.get(t) for t in toks]
            if mode == "daat_conj" and None in tis:
                continue
            out.update((id(s), int(ti)) for ti in tis if ti is not None)
        return out

    def _replay(self, eng, searchers, streams) -> None:
        tr = self.tracer
        warm, timed = streams["daat"]
        for i in range(len(warm)):
            for mode in MODES:
                self.op(eng.search, streams[mode][0][i], QUERY_K, mode)
        local: dict[str, list[float]] = {m: [] for m in MODES}
        lookups, misses, terms = 0, 0, set()
        tr.maxscore_calls.update(masked=0, unmasked=0)
        window = self.clock()
        with tr.probing():
            for i in range(len(timed)):
                for mode in MODES:
                    q = streams[mode][1][i]
                    toks = eng.normalize_query(q)
                    terms.update(toks)
                    keys = self._lookups(searchers, toks, mode)
                    tr.decoded_terms.clear()
                    t0 = time.perf_counter()
                    self.op(eng.search, q, QUERY_K, mode)
                    local[mode].append(time.perf_counter() - t0)
                    lookups += len(keys)
                    misses += len(keys & tr.decoded_terms)
        _, share = self.unstolen_share(window)
        for mode in MODES:
            # the actor-served samples of the same queries, in the same order
            actor = self.samples[mode][-len(timed):]
            self.acc(f"index.engine.scatter_gather_ms.{mode}",
                     (_median(actor) - _median(local[mode]) * share) * 1e3)
        self.acc("index.searcher.term_miss_frac", misses / max(lookups, 1))
        self.log(f"{self.wl.name}: timed streams: {len(terms)} distinct query terms, "
                 f"{lookups} (segment, term) lookups, {misses} decoded "
                 f"({misses / max(lookups, 1):.3f}); Maxscore segment calls "
                 f"masked {tr.maxscore_calls['masked']}, "
                 f"unmasked {tr.maxscore_calls['unmasked']}")

    def _traced_stream(self, eng, searchers, mode: str, n: int) -> None:
        """``2n`` fresh queries, every other one traced."""
        tr = self.tracer
        traced, plain, decoded, df_sum = [], [], 0, 0
        first = len(tr.spans)
        for j, q in enumerate(self.queries(2 * n)):
            toks = eng.normalize_query(q)
            df_sum += sum(int(s.df_local[s.term_index[t]])
                          for s in searchers for t in toks if t in s.term_index)
            before = sum(s.decoded_postings for s in searchers)
            on = j % 2 == 0
            if on:
                tr.query_id = (tr.query_id or 0) + 1
                tr.install()
            try:
                t0 = time.perf_counter()
                self.op(eng.search, q, QUERY_K, mode)
                (traced if on else plain).append(time.perf_counter() - t0)
            finally:
                if on:
                    tr.uninstall()
            decoded += sum(s.decoded_postings for s in searchers) - before
        self._query_spans(mode, tr.spans[first:], n)
        self.acc("tracing.overhead_ms_per_query", (_median(traced) - _median(plain)) * 1e3)
        self.acc(f"index.searcher.decoded_postings_per_query.{mode}", decoded / (2 * n))
        if mode == "bmm":
            self.acc("index.searcher.decoded_frac.bmm", decoded / max(df_sum, 1))

    def _query_spans(self, mode: str, spans: list, n: int) -> None:
        selfs = self.tracer.self_times(spans)
        searcher = sum(t for s, t in selfs
                       if s.name in ("searcher.query", "searcher.query_batch"))
        self.acc(f"index.searcher.query_self_ms.{mode}", searcher / n * 1e3)
        self.acc("normalizer.query_normalize_us", _median(
            [t for s, t in selfs if s.name == "engine.normalize_query"]) * 1e6)
        self.acc("index.searcher.segments_per_query",
                 sum(1 for s in spans if s.name == "searcher.query_batch") / n)

    def _batch_spans(self, spans: list) -> None:
        kids = self.tracer.children()
        qb = [s for s in spans if s.name == "searcher.query_batch"]
        dense = sum(1 for s in qb
                    if not any(c.name == "searcher.query" for c in kids.get(s.id, [])))
        self.acc("index.searcher.dense_batch_frac", dense / max(len(qb), 1))
        over = [s.end - s.start - sum(c.end - c.start for c in kids.get(s.id, [])
                                      if c.name == "engine.worker.query_batch")
                for s in spans if s.name == "engine.search_batch"]
        self.acc("index.engine.batch_overhead_ms", _median(over) * 1e3)

    # ---- the sequence

    def run(self) -> None:
        self.t_start = time.perf_counter()
        self.make_inputs()
        self.mark("inputs")
        self.make_oracle()
        self.mark("oracle tokenization")
        wl = self.wl
        idx, fresh = self.setup()
        self.mark("set-up and appends")
        full_view = {"stats_docs": None, "cand_docs": None}
        appended = (self.serve(idx, "appended", full_view, set())
                    if "appended" in wl.phases else fresh)

        # delete up to 2% of the corpus, chosen among returned docnos
        returned = sorted({hit[1] for r in appended for hit in r})
        victims = returned[: max(1, (wl.n_docs + wl.n_append) // 50)]
        t0 = self.clock()
        self.op(delete_docs, idx, victims)
        self.layer["index.tombstone.delete_s"] = self.busy(t0)
        banned = set(victims)
        alive = {i for i, d in enumerate(self.docnos) if d not in banned}
        if "tombstoned" in wl.phases:
            self.serve(idx, "tombstoned", {"stats_docs": None, "cand_docs": alive}, banned)

        compacts, merges = [], []
        for r in range(RECLAIM_REPS):
            if r:
                shutil.rmtree(cmp_dir)
                shutil.rmtree(mrg_dir)
            cmp_dir = os.path.join(self.work, f"compacted{r}")
            mrg_dir = os.path.join(self.work, f"merged{r}")
            t0 = self.clock()
            self.op(compact_index, idx, cmp_dir)
            compacts.append(self.busy(t0))
            self.rss.sample()
            t0 = self.clock()
            self.op(merge_segments, cmp_dir, mrg_dir, MERGE_GROUP)
            merges.append(self.busy(t0))
            self.rss.sample()
        self.log(f"{self.wl.name}: compactions {_secs(compacts)}, merges {_secs(merges)}")
        self.mark("compact + merge")
        self.e2e["reclaim_docs_per_s"] = len(alive) / _median(
            [c + m for c, m in zip(compacts, merges)])
        self.layer["index.build.compact_s"] = _median(compacts)
        self.layer["index.build.merge_s"] = _median(merges)
        if "reclaimed" in wl.phases:
            self.serve(mrg_dir, "reclaimed", {"stats_docs": alive, "cand_docs": alive}, banned)

        for mode in MODES:
            self.e2e[f"query_p50_ms.{mode}"] = _median(self.samples[mode]) * 1e3
        # as if each phase served one batch of each mode
        self.e2e["batch_qps"] = BATCH_SIZE * len(self.batch_walls) / sum(self.batch_walls)
        self.e2e["peak_rss_mb"] = self.rss.mb
        for name, xs in self.layer_acc.items():
            self.layer[name] = statistics.fmean(xs)
        self.log(f"{wl.name}: {self.timed_stolen:.2f} s of {self.timed_wall:.2f} s timed "
                 f"were stolen ({self.timed_stolen / max(self.timed_wall, 1e-9):.1%}) "
                 f"and left out of every timing")
