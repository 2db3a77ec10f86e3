"""Engine configuration.

The reference pins normalizer behavior with three compile-time flags
(reference CMakeLists.txt:29-32): ``USE_STEMMER``, ``FIX_MSMARCO_LATIN1``,
``TEXT_FULL_LATIN1_CASE``. CI builds all three ON
(reference .github/workflows/test.yml:38), which is the profile the
published quality numbers come from, so it is our default. The profile
changes index *contents*, so its hash is pinned into every segment
manifest and checked at query time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class NormalizerProfile:
    """Mirrors the reference's three normalizer compile flags.

    - ``stemming``: Porter2 stemmer + stopword/length filter
      (reference src/normalizer/WordNormalizer.cpp:62-73).
    - ``fix_latin1``: MS-MARCO latin1 mojibake heuristic + fix
      (reference src/normalizer/utf8_utils.cpp:6-37).
    - ``latin1_case``: latin1-aware lowercasing instead of ASCII-only
      (reference src/normalizer/utf8_utils.cpp:40-58).
    """

    stemming: bool = True
    fix_latin1: bool = True
    latin1_case: bool = True

    @property
    def profile_id(self) -> str:
        key = f"stem={self.stemming};latin1fix={self.fix_latin1};latin1case={self.latin1_case};v=1"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


#: The CI/default profile (all flags ON) — what the reference ships.
FULL_PROFILE = NormalizerProfile(stemming=True, fix_latin1=True, latin1_case=True)

#: SQL-expressible profile used for the DuckDB correctness oracle:
#: no stemming (hence no stopword filter, reference
#: src/normalizer/WordNormalizer.cpp:74-77), no latin1 handling.
SIMPLE_PROFILE = NormalizerProfile(stemming=False, fix_latin1=False, latin1_case=False)


@dataclass(frozen=True)
class BuildConfig:
    """Index-build knobs.

    ``docs_per_segment`` replaces the reference's 700 MB raw-byte chunk
    budget (reference src/builder.cpp:23): segments are docid-range
    partitions, so segment membership is a pure function of docid and is
    stable under task retries. ``skip_block_size`` mirrors
    reference src/builder.cpp:24.
    """

    profile: NormalizerProfile = field(default_factory=lambda: FULL_PROFILE)
    # Sized so one segment's postings fit comfortably in a worker's heap
    # during assembly (the analogue of the reference's 700 MB chunk
    # budget). Pipelines/benches override per corpus: smaller segments =
    # smaller per-task peak memory + finer scheduling, more per-task
    # fixed cost.
    docs_per_segment: int = 65_536
    skip_block_size: int = 15_000
    # BM25 constants, reference src/index/query_scorer.hpp:65
    bm25_k1: float = 0.82
    bm25_b: float = 0.68
    # Positional sidecar: record every posting's token positions
    # (delta-gap VarByte per posting, one stream per term) enabling
    # indexed phrase retrieval. Off by default — positions roughly
    # double the tokenize output and the reference's postings are
    # positionless (reference src/index/types.hpp).
    positions: bool = False

    @property
    def params_id(self) -> str:
        key = (
            f"{self.profile.profile_id};seg={self.docs_per_segment};"
            f"blk={self.skip_block_size};k1={self.bm25_k1};b={self.bm25_b}"
        )
        # appended only when enabled so pre-positional caches stay valid
        if self.positions:
            key += ";pos=1"
        return hashlib.sha256(key.encode()).hexdigest()[:16]
