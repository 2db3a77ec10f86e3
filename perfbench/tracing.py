"""In-memory span recorder that times calls into the engine's public
functions from outside.

:meth:`Tracer.install` replaces a handful of public functions and methods
with timing wrappers for the duration of a traced pass, and
:meth:`Tracer.uninstall` puts the originals back. Only in-process calls
are seen, so the traced pass serves through ``QueryEngine(...,
use_actors=False)``; that way the span tree reaches engine → worker →
searcher → codecs. :meth:`Tracer.probing` wraps a few searcher methods
with counters instead of spans. Nothing inside the program is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from searchenginepp_ray.codecs import unary, varbyte
from searchenginepp_ray.index import engine as engine_mod
from searchenginepp_ray.index import searcher as searcher_mod


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    query_id: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _buf_bytes(args, kwargs) -> dict:
    buf = args[0] if args else kwargs["buf"]
    return {"bytes": int(len(buf))}


# (owner, attribute, span name, counts taken from the call's arguments)
_TARGETS = [
    (engine_mod.QueryEngine, "search_batch", "engine.search_batch", None),
    (engine_mod.QueryEngine, "normalize_query", "engine.normalize_query", None),
    (engine_mod.SegmentGroupWorker, "query_batch", "engine.worker.query_batch", None),
    (searcher_mod.SegmentSearcher, "__init__", "searcher.load", None),
    (searcher_mod.SegmentSearcher, "query_batch", "searcher.query_batch", None),
    (searcher_mod.SegmentSearcher, "query", "searcher.query", None),
    (varbyte, "decode", "codecs.varbyte.decode", _buf_bytes),
    (unary, "decode", "codecs.unary.decode", _buf_bytes),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.query_id: int | None = None
        # filled while probing (see :meth:`probing`)
        self.decoded_terms: set[tuple[int, int]] = set()
        self.maxscore_calls = {"masked": 0, "unmasked": 0}

    # ---- recording

    def _wrap(self, fn, name, counts_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            sp = Span(len(self.spans), parent, name, self.query_id, time.perf_counter())
            if counts_of is not None:
                sp.counts = counts_of(args, kwargs)
            self.spans.append(sp)
            self._stack.append(sp)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                sp.end = time.perf_counter()

        return traced

    def install(self) -> None:
        for owner, attr, name, counts_of in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            # module functions are looked up through the module at call
            # time (``varbyte.decode(...)``), so patching the module works
            setattr(owner, attr, self._wrap(fn, name, counts_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ---- probes: counters without spans

    def _probe_decode(self, fn):
        """Wrap a ``SegmentSearcher`` method taking a term index: record
        (searcher, term) when the call decoded postings."""
        seen = self.decoded_terms

        @functools.wraps(fn)
        def probed(searcher, ti, *args, **kwargs):
            before = searcher.decoded_postings
            try:
                return fn(searcher, ti, *args, **kwargs)
            finally:
                if searcher.decoded_postings != before:
                    seen.add((id(searcher), int(ti)))

        return probed

    def _probe_maxscore(self, fn):
        calls = self.maxscore_calls

        @functools.wraps(fn)
        def probed(searcher, *args, **kwargs):
            calls["unmasked" if kwargs.get("mask") is None else "masked"] += 1
            return fn(searcher, *args, **kwargs)

        return probed

    @contextlib.contextmanager
    def probing(self):
        """For the duration: record which (searcher, term) pairs decode
        postings, through ``SegmentSearcher.postings`` (full list) and
        ``decode_block`` (one skip block), and count Maxscore calls with
        and without a candidate mask. No spans; a few attribute reads per
        call."""
        S = searcher_mod.SegmentSearcher
        saved = [(a, getattr(S, a)) for a in ("postings", "decode_block", "query_maxscore")]
        S.postings = self._probe_decode(S.postings)
        S.decode_block = self._probe_decode(S.decode_block)
        S.query_maxscore = self._probe_maxscore(S.query_maxscore)
        try:
            yield self
        finally:
            for a, fn in saved:
                setattr(S, a, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- analysis

    def self_times(self, spans: list[Span] | None = None) -> list[tuple[Span, float]]:
        """(span, self seconds): duration minus the time its direct
        children cover (children of one span never overlap: one thread)."""
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        return [(sp, sp.end - sp.start - child_time[sp.id]) for sp in spans]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent].append(sp)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name,
                    "query_id": sp.query_id, "start": sp.start, "end": sp.end,
                    **({"counts": sp.counts} if sp.counts else {}),
                }) + "\n")
