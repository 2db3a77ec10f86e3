"""Training-data quality filters over the ``documents`` table — the
filter family a 100 TB LLM-corpus pipeline runs between ingest and
training export:

* :func:`repetition_stats` — Gopher-style n-gram repetition signals
  (top-bigram concentration, duplicate-trigram fraction) per document.
* :func:`pii_redact` — email / IPv4 scrubbing with RE2 on BOTH engines
  (Arrow's ``replace_substring_regex`` here, DuckDB ``regexp_replace``
  in the oracle), counts from the original text, md5 of the redacted
  text as the value check.
* :func:`decontaminate` — benchmark-overlap flagging: documents sharing
  any word trigram with a designated benchmark subset are marked
  contaminated. The contamination set is the SMALL side by construction
  (real decontamination sets are benchmark suites, MBs at most), so it
  is built distributed, collected once as 64-bit gram hashes, and
  broadcast via ``ray.put`` — the corpus side streams and never
  shuffles.

All three are single-pass ``map_batches`` transforms over a pruned
two-column read; no exchange is needed anywhere except decontaminate's
bounded benchmark collection. Per-batch work is Arrow / numpy kernels
(dictionary-encode for gram counting, shifted ``take`` columns joined
by ``binary_join_element_wise`` for gram assembly — the same assembly
the fingerprint operator uses, reference parity: none, these are
beyond-reference training-data ops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .agg import round6_half_up
from .search_docs import PHRASE_QUERIES
from .text_stats import documents_ds

#: word tokenizer shared verbatim with the SQL oracles: lowercase, then
#: split on any non-[a-z0-9] run, dropping empty tokens.
WORD_SPLIT = "[^a-z0-9]+"

EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def _words_flat(text_col) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """(doc_idx, flat_tokens, n_tokens_per_doc) for one batch — one
    utf8_lower + one RE2 split + one filter, no per-row Python."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(text_col), WORD_SPLIT)
    counts = np.asarray(pc.list_value_length(toks)).astype(np.int64)
    flat = pc.list_flatten(toks)
    doc_idx = np.repeat(np.arange(len(counts)), counts)
    keep = np.asarray(pc.not_equal(flat, ""))
    flat = flat.filter(pa.array(keep))
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    doc_idx = doc_idx[keep]
    n_tokens = np.bincount(doc_idx, minlength=len(counts)).astype(np.int64)
    return doc_idx, flat, n_tokens


def _grams(flat: pa.Array, n_tokens: np.ndarray, w: int
           ) -> tuple[np.ndarray, pa.Array]:
    """(gram_doc_idx, gram_strings): all ``w``-token grams per doc,
    assembled from ``w`` shifted takes of the flat token stream (docs
    shorter than ``w`` emit no grams)."""
    offsets = np.concatenate(([0], np.cumsum(n_tokens)))
    m = np.maximum(n_tokens - (w - 1), 0)
    total = int(m.sum())
    if total == 0:
        return np.empty(0, np.int64), pa.array([], pa.string())
    rng = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
    starts = np.repeat(offsets[:-1], m) + rng
    cols = [flat.take(pa.array(starts + j)) for j in range(w)]
    grams = pc.binary_join_element_wise(*cols, " ")
    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    return np.repeat(np.arange(len(n_tokens)), m), grams


def _gram_run_stats(gdoc: np.ndarray, grams: pa.Array, n_docs: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc (n_grams, n_distinct, max_count) over (doc, gram) pairs —
    dictionary-encode (Arrow C) + one int64 sort + run-length pass."""
    n_grams = np.bincount(gdoc, minlength=n_docs).astype(np.int64)
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    max_count = np.zeros(n_docs, dtype=np.int64)
    if len(gdoc) == 0:
        return n_grams, n_distinct, max_count
    codes = np.asarray(grams.dictionary_encode().indices).astype(np.int64)
    base = codes.max() + 1
    key = gdoc * base + codes
    key.sort()
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1))
    run_counts = np.diff(np.concatenate((run_starts, [len(key)])))
    run_doc = (key[run_starts] // base).astype(np.int64)
    np.add.at(n_distinct, run_doc, 1)
    np.maximum.at(max_count, run_doc, run_counts)
    return n_grams, n_distinct, max_count


def repetition_stats(sf_dir: str):
    """Per-doc repetition signals over the shared word tokenization:
    ``top_bigram_frac`` (count of the most frequent bigram over all
    bigram instances — concentration, the Gopher top-n-gram filter) and
    ``dup_trigram_frac`` (fraction of trigram instances that are
    repeats of an earlier trigram in the same doc). Fractions are 0 for
    docs too short to form the gram; rounded to 6 dp for oracle
    comparability (same precedent as quality_score)."""

    def per_batch(t: pa.Table) -> pa.Table:
        n = len(t)
        _, flat, n_tokens = _words_flat(t["text"])
        bdoc, bgrams = _grams(flat, n_tokens, 2)
        nb, _, bmax = _gram_run_stats(bdoc, bgrams, n)
        tdoc, tgrams = _grams(flat, n_tokens, 3)
        nt, tdis, _ = _gram_run_stats(tdoc, tgrams, n)
        top_bi = np.where(nb > 0, bmax / np.maximum(nb, 1), 0.0)
        dup_tri = np.where(nt > 0, (nt - tdis) / np.maximum(nt, 1), 0.0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n_tokens),
            # half-away rounding shared with the oracle (see
            # agg.round6_half_up: np.round's half-to-even
            # disagrees with SQL ROUND exactly on p/2^k ratios)
            "top_bigram_frac": pa.array(round6_half_up(top_bi)),
            "dup_trigram_frac": pa.array(round6_half_up(dup_tri)),
        })

    return documents_ds(sf_dir).map_batches(per_batch, batch_format="pyarrow")


def pii_redact(sf_dir: str):
    """Per-doc PII scrub: email / IPv4 occurrence counts from the
    original text plus the md5 of the redacted text (emails replaced
    first, then IPv4s — both RE2 leftmost-non-overlapping, the same
    scan order DuckDB's regexp functions use, so the oracle matches
    byte-for-byte)."""
    from .duck import md5_hex

    def per_batch(t: pa.Table) -> pa.Table:
        text = t["text"]
        n_email = pc.count_substring_regex(text, EMAIL_RE).cast(pa.int64())
        n_ip = pc.count_substring_regex(text, IPV4_RE).cast(pa.int64())
        red = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
        red = pc.replace_substring_regex(red, IPV4_RE, "<IP>")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_emails": n_email,
            "n_ipv4": n_ip,
            "redacted_md5": md5_hex(red),
        })

    return documents_ds(sf_dir).map_batches(per_batch, batch_format="pyarrow")


def _bench_gram_hashes(sf_dir: str, w: int, bench_mod: int) -> np.ndarray:
    """Sorted unique 64-bit hashes of the benchmark docs' grams. The
    benchmark subset is small by construction; per-batch partials are
    already deduped, so what reaches the driver is bounded by the
    benchmark gram vocabulary, not the corpus."""
    from .hash_partition import _hash_strings

    def partial(t: pa.Table) -> pa.Table:
        mask = np.asarray(t["doc_id"].to_numpy() % bench_mod == 0)
        sub = t.filter(pa.array(mask))
        if len(sub) == 0:
            return pa.table({"h": pa.array([], pa.uint64())})
        _, flat, n_tokens = _words_flat(sub["text"])
        _, grams = _grams(flat, n_tokens, w)
        if len(grams) == 0:
            return pa.table({"h": pa.array([], pa.uint64())})
        return pa.table({"h": pa.array(np.unique(_hash_strings(grams)))})

    parts = [
        b["h"]
        for b in documents_ds(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate([np.asarray(p) for p in parts]))


def decontaminate(sf_dir: str, w: int = 3, bench_mod: int = 97):
    """(doc_id, contaminated) for every NON-benchmark document: true iff
    the doc shares at least one word ``w``-gram with any benchmark doc
    (``doc_id % bench_mod == 0`` designates the benchmark subset — a
    deterministic stand-in for an eval-suite table).

    Matching is by 64-bit gram hash on the Ray side (xxhash via the
    dedup family's `_hash_strings`); a false positive needs a 64-bit
    collision between a corpus gram and a benchmark gram, negligible at
    any realistic contamination-set size. The SQL oracle matches exact
    gram strings.

    Scale shape: cost is two streaming corpus passes, both bound by
    tokenization (measured ~60 MB/s of text at 32 CPUs). In production
    the benchmark lives in its own SMALL table, which makes pass 1 (the
    contamination-set build) near-free — point ``sf_dir`` at the corpus
    and build the hash set from the benchmark parquet via
    :func:`_bench_gram_hashes` with its path; the in-corpus
    ``doc_id % bench_mod`` designation here exists so the driver's
    fixed-table oracle can value-check the full mechanism."""
    import ray

    bench_ref = ray.put(_bench_gram_hashes(sf_dir, w, bench_mod))

    def flag(t: pa.Table) -> pa.Table:
        from .hash_partition import _hash_strings

        bench = ray.get(bench_ref)
        mask = np.asarray(t["doc_id"].to_numpy() % bench_mod != 0)
        sub = t.filter(pa.array(mask))
        n = len(sub)
        contaminated = np.zeros(n, dtype=bool)
        if n and len(bench):
            _, flat, n_tokens = _words_flat(sub["text"])
            gdoc, grams = _grams(flat, n_tokens, w)
            if len(grams):
                h = _hash_strings(grams)
                pos = np.searchsorted(bench, h)
                pos[pos == len(bench)] = 0
                hit = bench[pos] == h
                np.logical_or.at(contaminated, gdoc, hit)
        return pa.table({
            "doc_id": sub["doc_id"],
            "contaminated": pa.array(contaminated),
        })

    return documents_ds(sf_dir).map_batches(flag, batch_format="pyarrow")


def compression_ratio(sf_dir: str, level: int = 6):
    """Per-doc zlib compression ratio — the classic boilerplate /
    templated-text quality signal (RefinedWeb-family pipelines cut on
    it): highly repetitive documents compress far below typical prose,
    machine-generated noise compresses above it. Output
    (doc_id, n_bytes, compressed_bytes, ratio) with the ratio on the
    6 dp floor grid; a downstream selection cuts on the ratio band.

    Rows-only correctness (zlib is not SQL-expressible); determinism is
    pinned by pytest against direct zlib calls plus an ordering
    property on constructed repetitive/normal/random docs. Scale shape:
    one streaming pass; zlib runs C-side per doc (the accepted per-row
    shape for opaque codec work), no exchanges at all."""
    import zlib

    def per_doc(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        nb = np.empty(len(texts), np.int64)
        cb = np.empty(len(texts), np.int64)
        for i, s in enumerate(texts):
            raw = s.encode("utf-8")
            if level == 0 and len(raw) > 65531:
                # the stored-tier oracle's n + 11 closed form holds only
                # below one deflate stored block; past it zlib's internal
                # buffering picks the block boundaries
                raise ValueError(
                    "compression_ratio level=0 closed-form gate requires "
                    f"docs <= 65531 bytes (got {len(raw)})")
            nb[i] = len(raw)
            cb[i] = len(zlib.compress(raw, level))
        ratio = np.floor(cb / np.maximum(nb, 1) * 1e6 + 0.5) / 1e6
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(nb),
            "compressed_bytes": pa.array(cb),
            "ratio": pa.array(ratio),
        })

    return documents_ds(sf_dir).map_batches(per_doc, batch_format="pyarrow")


def compression_ratio_stored(sf_dir: str):
    """Degenerate-parameter hash gate for :func:`compression_ratio`
    (exact by construction): zlib level 0 emits STORED deflate
    blocks, and below one block boundary the output size is the closed
    form ``n + 11`` (2-byte zlib header + 5-byte stored-block header +
    payload + 4-byte adler32) — one SQL expression. The pipeline still
    calls the REAL zlib, so the oracle-hash equality gates everything
    the default-level entry shares (streaming batch loop, UTF-8 byte
    counts, the 6-dp ratio grid); only the codec's internal block
    chunking — what makes level 6 non-SQL-expressible — drops out.
    Docs must fit one stored block (<= 65531 bytes, asserted loudly;
    the testdata corpus maxes out around 600 B)."""
    return compression_ratio(sf_dir, level=0)


#: Bloom decontamination defaults: 2^17 bits (16 KB) × 4 hashes keeps
#: the per-gram false-positive rate ≈ (1 − e^{−kn/m})^k under 1e-4 for
#: benchmark gram counts into the tens of thousands
_BLOOM_M = 1 << 17
_BLOOM_K = 4


def _bloom_positions(grams: pa.Array, k: int, m_bits: int) -> np.ndarray:
    """(n_grams, k) int64 Bloom position matrix via the PORTABLE md5
    kernel — position i of gram g is ``md5_prefix(g || '|' || i) %
    m_bits``, the verbatim expression the SQL oracle evaluates."""
    from .duck import md5_prefix_int

    cols = [
        md5_prefix_int(
            pc.binary_join_element_wise(grams, pa.scalar(str(i)), "|"), 13
        ) % m_bits
        for i in range(k)
    ]
    return np.stack(cols, axis=1)


def decontaminate_bloom(sf_dir: str, w: int = 3, bench_mod: int = 97,
                        m_bits: int = _BLOOM_M, k: int = _BLOOM_K):
    """:func:`decontaminate`'s AT-SCALE shape: instead of broadcasting
    the benchmark gram-hash SET (which grows with the benchmark), the
    corpus-side membership test runs against a FIXED-SIZE Bloom filter
    (``m_bits`` bits — 16 KB at the default — whatever the benchmark
    size). A doc is flagged iff any of its word ``w``-grams has all
    ``k`` Bloom bits set; flags are a deterministic SUPERSET of the
    exact op's (no false negatives by construction; the false-positive
    rate is a pure function of benchmark gram count and is the
    documented trade for the constant-size broadcast).

    Bit-reproducible across engines: positions come from the portable
    md5 prefix (exact integer ops only), so the SQL oracle builds the
    IDENTICAL filter and the driver hash-gates the whole mechanism —
    sketch twins (`vocab_distinct_hll`, this) are hash-checked,
    not rows-only. Returns (doc_id, contaminated_bloom) for non-bench
    docs."""
    import ray

    def bench_partial(t: pa.Table) -> pa.Table:
        mask = np.asarray(t["doc_id"].to_numpy() % bench_mod == 0)
        sub = t.filter(pa.array(mask))
        if len(sub) == 0:
            return pa.table({"p": pa.array([], pa.int64())})
        _, flat, n_tokens = _words_flat(sub["text"])
        _, grams = _grams(flat, n_tokens, w)
        if len(grams) == 0:
            return pa.table({"p": pa.array([], pa.int64())})
        grams = grams.unique()
        pos = _bloom_positions(grams, k, m_bits)
        return pa.table({"p": pa.array(np.unique(pos.ravel()))})

    parts = [
        np.asarray(b["p"])
        for b in documents_ds(sf_dir)
        .map_batches(bench_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    bits = np.zeros(m_bits, dtype=bool)
    if parts:
        bits[np.concatenate(parts).astype(np.int64)] = True
    bits_ref = ray.put(bits)

    def flag(t: pa.Table) -> pa.Table:
        bloom = ray.get(bits_ref)
        mask = np.asarray(t["doc_id"].to_numpy() % bench_mod != 0)
        sub = t.filter(pa.array(mask))
        n = len(sub)
        flagged = np.zeros(n, dtype=bool)
        if n:
            _, flat, n_tokens = _words_flat(sub["text"])
            gdoc, grams = _grams(flat, n_tokens, w)
            if len(grams):
                pos = _bloom_positions(grams, k, m_bits)
                hit = bloom[pos].all(axis=1)
                np.logical_or.at(flagged, gdoc, hit)
        return pa.table({
            "doc_id": sub["doc_id"],
            "contaminated_bloom": pa.array(flagged),
        })

    return documents_ds(sf_dir).map_batches(flag, batch_format="pyarrow")


def dup_span_stats(sf_dir: str, w: int = 8):
    """Per-doc duplicated-span statistics — the exact-substring-dedup
    signal (Lee et al.'s "Deduplicating Training Data" family): for every
    ``w``-token window of every doc, is that exact window text repeated
    ANYWHERE in the corpus (another doc, or elsewhere in the same doc)?
    Output (doc_id, n_windows, n_dup_windows, dup_frac) for every doc
    with at least one window; a downstream cut on ``dup_frac`` drops
    boilerplate-heavy docs.

    Matching is by 64-bit gram hash on the Ray side (same stance as
    :func:`decontaminate`: a false dup needs a 64-bit xxhash collision
    between two distinct corpus grams — negligible; the SQL oracle
    matches exact gram strings, so the sf-scale gate also pins the
    no-collision assumption).

    Scale shape: one streaming pass assembles windows with the shared
    Arrow gram kernel and map-side-combines (gram, doc) instance counts
    per batch; ONE hash exchange on the gram hash lets each partition
    compute its grams' exact global counts and re-combine to per-doc
    partials; one doc-keyed exchange sums. Traffic after the map-side
    combine is bounded by distinct (gram, doc) pairs — never the raw
    token stream — and nothing corpus-sized touches the driver."""
    import pandas as pd

    from .hash_partition import _hash_strings, hash_groupby_apply
    from .agg import hash_groupby_sum

    def explode(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, flat, n_tokens = _words_flat(t["text"])
        gdoc, grams = _grams(flat, n_tokens, w)
        if len(grams) == 0:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "doc_id": pa.array([], pa.int64()),
                             "c_part": pa.array([], pa.int64())})
        g = (pd.DataFrame({"h": _hash_strings(grams), "doc_id": doc_ids[gdoc]})
             .groupby(["h", "doc_id"], as_index=False).size())
        return pa.table({"h": pa.array(g["h"].to_numpy(), pa.uint64()),
                         "doc_id": pa.array(g["doc_id"].to_numpy()),
                         "c_part": pa.array(g["size"].to_numpy().astype(np.int64))})

    def per_gram(df: pd.DataFrame) -> pd.DataFrame:
        # every instance of a gram is in this partition => exact C
        c = df["c_part"].to_numpy()
        C = df.groupby("h")["c_part"].transform("sum").to_numpy()
        g = (pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                           "nw_part": c,
                           "nd_part": np.where(C >= 2, c, 0)})
             .groupby("doc_id", as_index=False).sum())
        return g

    partials = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["h"], per_gram)
    per_doc = hash_groupby_sum(
        partials, ["doc_id"],
        {"n_windows": ("nw_part", "sum"), "n_dup_windows": ("nd_part", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        nw = t["n_windows"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_dup_windows"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_windows": pa.array(nw),
            "n_dup_windows": pa.array(nd),
            "dup_frac": pa.array(round6_half_up(nd / nw)),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow")


def collocations(sf_dir: str, min_count: int = 5, k: int = 20):
    """Corpus-wide collocation extraction: top-``k`` bigrams by pointwise
    mutual information, PMI = log2(c_ab) + 2·log2(T_uni) − log2(T_bi)
    − log2(c_a) − log2(c_b), restricted to bigrams with c_ab ≥
    ``min_count`` (the classic statistical-phrase miner run before
    tokenizer training / phrase vocabulary induction).

    Both engines evaluate the PMI expression with the SAME operand order
    (per-term libm ULP wobble ~1e-16 never flips a rank between distinct
    count triples); exact ties (identical (c_ab, c_a, c_b)) break on the
    gram string ASC in both. The reported pmi uses the shared floor
    rounding rule.

    Scale shape: one counting pass emits tagged unigram/bigram map-side
    partials keyed on the string itself; exchange 1 finalizes counts and
    applies the min_count cut (prunes the tail before any join traffic);
    exchanges 2 and 3 attach c_a and c_b by co-partitioning the surviving
    bigrams with the unigram counts on the first then second word —
    vocabulary-sized joins, never broadcast (the global-lexicon lesson);
    a per-partition partial top-k caps the driver merge at P×k rows. The
    two totals come from one cheap pre-pass of per-batch scalar sums."""
    import pandas as pd

    from .hash_partition import hash_groupby_apply

    def count_scalars(t: pa.Table) -> pa.Table:
        _, flat, n_tokens = _words_flat(t["text"])
        n_bi = int(np.maximum(n_tokens - 1, 0).sum())
        return pa.table({"n_uni": pa.array([len(flat)], pa.int64()),
                         "n_bi": pa.array([n_bi], pa.int64())})

    totals = documents_ds(sf_dir).map_batches(
        count_scalars, batch_format="pyarrow").sum(["n_uni", "n_bi"])
    t_uni, t_bi = float(totals["sum(n_uni)"]), float(totals["sum(n_bi)"])

    def explode(t: pa.Table) -> pa.Table:
        _, flat, n_tokens = _words_flat(t["text"])
        _, bigrams = _grams(flat, n_tokens, 2)
        uc = flat.value_counts()
        bc = bigrams.value_counts()

        def _c(a):
            return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a

        return pa.table({
            "g": pa.concat_arrays([_c(uc.field("values")), _c(bc.field("values"))]),
            "c_part": pa.concat_arrays(
                [uc.field("counts").cast(pa.int64()),
                 bc.field("counts").cast(pa.int64())]),
            "is_bi": pa.array(np.r_[np.zeros(len(uc), np.int8),
                                    np.ones(len(bc), np.int8)]),
        })

    def finalize_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["g", "is_bi"], as_index=False)["c_part"].sum()
        uni = g[g["is_bi"] == 0]
        bi = g[(g["is_bi"] == 1) & (g["c_part"] >= min_count)]
        # unify on a "w" key for the next exchange: unigram rows keyed by
        # their word; bigram rows keyed by their FIRST word
        words = bi["g"].str.split(" ", n=1)
        out_bi = pd.DataFrame({
            "w": words.str[0], "b": words.str[1], "gram": bi["g"],
            "c_ab": bi["c_part"].to_numpy(), "c_a": 0, "kind": 1})
        out_uni = pd.DataFrame({
            "w": uni["g"], "b": "", "gram": "",
            "c_ab": uni["c_part"].to_numpy(), "c_a": 0, "kind": 0})
        return pd.concat([out_bi, out_uni], ignore_index=True)

    stage1 = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["g"], finalize_counts)

    def attach_ca(df: pd.DataFrame) -> pd.DataFrame:
        uni = df[df["kind"] == 0][["w", "c_ab"]].rename(columns={"c_ab": "cnt"})
        bi = df[df["kind"] == 1].drop(columns=["c_a"])
        j = bi.merge(uni, on="w", how="left")
        # rekey on the SECOND word; forward the unigram rows for exch 3
        out_bi = pd.DataFrame({
            "w": j["b"], "b": j["w"], "gram": j["gram"],
            "c_ab": j["c_ab"].to_numpy(),
            "c_a": j["cnt"].to_numpy().astype(np.int64), "kind": 1})
        return pd.concat([out_bi, df[df["kind"] == 0]], ignore_index=True)

    stage2 = hash_groupby_apply(stage1, ["w"], attach_ca)

    log2 = np.log2

    def attach_cb_topk(df: pd.DataFrame) -> pd.DataFrame:
        uni = df[df["kind"] == 0][["w", "c_ab"]].rename(columns={"c_ab": "cnt"})
        bi = df[df["kind"] == 1]
        if len(bi) == 0:
            return pd.DataFrame({"gram": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64),
                                 "pmi_raw": pd.Series([], dtype=np.float64)})
        j = bi.merge(uni, on="w", how="left")
        c_ab = j["c_ab"].to_numpy(dtype=np.float64)
        c_a = j["c_a"].to_numpy(dtype=np.float64)
        c_b = j["cnt"].to_numpy(dtype=np.float64)
        pmi = (log2(c_ab) + 2.0 * log2(t_uni) - log2(t_bi)
               - log2(c_a) - log2(c_b))
        out = pd.DataFrame({"gram": j["gram"], "n": j["c_ab"].astype(np.int64),
                            "pmi_raw": pmi})
        return out.sort_values(["pmi_raw", "gram"],
                               ascending=[False, True]).head(k)

    survivors = hash_groupby_apply(stage2, ["w"], attach_cb_topk).to_pandas()

    out = survivors.sort_values(["pmi_raw", "gram"],
                                ascending=[False, True]).head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["pmi"] = round6_half_up(out.pop("pmi_raw").to_numpy())
    return out[["gram", "n", "rank", "pmi"]].reset_index(drop=True)


def phrase_search(sf_dir: str, phrases: tuple[str, ...] = PHRASE_QUERIES):
    """Exact phrase search: for each query phrase, every document that
    contains the phrase as a CONSECUTIVE word-token sequence, with its
    occurrence count (overlapping occurrences all count: ``a a a``
    contains ``a a`` twice). Output (query, doc_id, n).

    Scale shape: the phrase set is query-sized, so this is the
    broadcast-scan retrieval shape (same as :func:`decontaminate`): ONE
    streaming pass over a pruned two-column read, no exchange anywhere —
    each document lies wholly inside its batch, so per-batch gram
    matching yields final counts directly and only (query, doc, n) hit
    rows leave the task. Per batch the work is the shared vectorized
    gram assembly (one lowercase + one RE2 split + w shifted takes per
    distinct phrase length) and one Arrow equality scan per phrase.
    A term-partitioned positional-postings index (term → (doc, pos),
    adjacency via co-partitioned offset intersection) only wins once
    query volume amortizes the index build; for ad-hoc phrase sweeps
    over a 100 TB corpus the scan IS the right plan. Reference parity:
    none — the reference's postings are positionless
    (reference src/index/types.hpp), so this is beyond-reference.
    """
    by_len: dict[int, list[str]] = {}
    for p in phrases:
        by_len.setdefault(len(p.split()), []).append(p)

    empty = pa.table({"query": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})

    def match(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, flat, n_tokens = _words_flat(t["text"])
        qs: list[np.ndarray] = []
        ds_: list[np.ndarray] = []
        ns: list[np.ndarray] = []
        for w, plist in sorted(by_len.items()):
            gdoc, grams = _grams(flat, n_tokens, w)
            if len(grams) == 0:
                continue
            for p in plist:
                hit = gdoc[np.asarray(pc.equal(grams, p))]
                if hit.size == 0:
                    continue
                cnt = np.bincount(hit, minlength=len(doc_ids))
                nz = np.flatnonzero(cnt)
                qs.append(np.full(len(nz), p, dtype=object))
                ds_.append(doc_ids[nz])
                ns.append(cnt[nz].astype(np.int64))
        if not qs:
            return empty
        return pa.table({
            "query": pa.array(np.concatenate(qs), pa.string()),
            "doc_id": pa.array(np.concatenate(ds_)),
            "n": pa.array(np.concatenate(ns)),
        })

    return documents_ds(sf_dir).map_batches(match, batch_format="pyarrow")


#: grep patterns shared verbatim with the SQL oracle. RE2 on both
#: engines (Arrow count_substring_regex / DuckDB regexp_extract_all),
#: so match semantics agree byte-for-byte.
GREP_PATTERNS = (
    r"tabl[ae]",
    r"(scan|filter) (join|merge)",
    r"\bvalue\b.{0,20}\bhash\b",
    r"[0-9]+",
)


def regex_search(sf_dir: str, patterns: tuple[str, ...] = GREP_PATTERNS):
    """Distributed grep over the corpus: for each pattern, every doc with
    at least one non-overlapping RE2 match and its match count —
    (pattern, doc_id, n). The bread-and-butter sweep over a 100 TB code
    corpus (license scans, API-usage counts, secret hunting; the
    pii_redact op is the destructive cousin of this read-only one).

    Scale shape: broadcast-scan — the pattern set rides the task
    closure, ONE streaming pass over a pruned two-column read, zero
    exchanges, only hit rows leave each task. Per batch each pattern is
    one Arrow ``count_substring_regex`` kernel (RE2, C++); no per-row
    Python. Reference parity: none (beyond-reference)."""
    pats = list(patterns)

    empty = pa.table({"pattern": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})

    def match(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ps: list[np.ndarray] = []
        ds_: list[np.ndarray] = []
        ns: list[np.ndarray] = []
        for p in pats:
            cnt = np.asarray(pc.count_substring_regex(text, p)).astype(np.int64)
            nz = np.flatnonzero(cnt)
            if nz.size == 0:
                continue
            ps.append(np.full(len(nz), p, dtype=object))
            ds_.append(doc_ids[nz])
            ns.append(cnt[nz])
        if not ps:
            return empty
        return pa.table({
            "pattern": pa.array(np.concatenate(ps), pa.string()),
            "doc_id": pa.array(np.concatenate(ds_)),
            "n": pa.array(np.concatenate(ns)),
        })

    return documents_ds(sf_dir).map_batches(match, batch_format="pyarrow")


def importance_weights(sf_dir: str, target_lang: str = "en",
                       n_buckets: int = 64):
    """DSIR-shaped importance weighting for data selection (Xie et al.
    2023, "Data Selection for Language Models via Importance Resampling"):
    per-doc log importance weight under hashed-unigram bag-of-words LMs
    of a TARGET slice (here ``lang == target_lang``) vs the SOURCE (the
    whole corpus), with add-one smoothing over ``n_buckets`` hash
    buckets. Resampling by these weights tilts a corpus toward the
    target domain.

    Scale shape: pass 1 streams once, dictionary-encodes each batch and
    md5-buckets only the batch VOCABULARY (the shared
    :func:`~searchenginepp_ray.pipelines.duck.md5_bucket` rule the SQL
    oracle evaluates verbatim), emitting ≤ ``n_buckets`` (bucket,
    target, source) count partials per batch into a tiny exchange. The
    per-bucket log-ratio vector (64 doubles) is broadcast; pass 2
    streams once more and each doc's weight is one dot product. Nothing
    data-scaling ever leaves the workers."""
    import pandas as pd

    from ..config import SIMPLE_PROFILE
    from ..normalizer.batch import tokenize_batch
    from .agg import hash_groupby_sum
    from .duck import md5_bucket

    B = int(n_buckets)

    def doc_terms(t: pa.Table) -> pa.Table:
        doclens, terms_list, tfs_list = tokenize_batch(t["text"], SIMPLE_PROFILE)
        return pa.table({"doc_id": t["doc_id"],
                         "lang": t["lang"],
                         "terms": terms_list, "tfs": tfs_list})

    def term_bucket_tfs(t: pa.Table):
        """(bucket per (doc,term) entry, tf, doc_idx) — vocabulary-sized
        md5 work via dictionary encoding."""
        terms = t["terms"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        flat = pc.list_flatten(terms)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        d = flat.dictionary_encode()
        vocab_b = np.asarray(md5_bucket(d.dictionary, B), dtype=np.int64)
        bucket = vocab_b[np.asarray(d.indices, dtype=np.int64)] \
            if len(flat) else np.empty(0, np.int64)
        tfs = np.asarray(pc.list_flatten(t["tfs"])).astype(np.int64)
        counts = np.asarray(pc.list_value_length(terms)).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        return bucket, tfs, doc_idx, counts

    ds = documents_ds(sf_dir, ("doc_id", "text", "lang")) \
        .map_batches(doc_terms, batch_format="pyarrow")

    def bucket_partials(t: pa.Table) -> pa.Table:
        bucket, tfs, doc_idx, _ = term_bucket_tfs(t)
        is_tgt = np.asarray(pc.equal(t["lang"], target_lang))[doc_idx]
        s = np.bincount(bucket, weights=tfs, minlength=B).astype(np.int64)
        tg = np.bincount(bucket, weights=tfs * is_tgt, minlength=B).astype(np.int64)
        nz = np.flatnonzero(s)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "t_part": pa.array(tg[nz]), "s_part": pa.array(s[nz])})

    bc = hash_groupby_sum(
        ds.map_batches(bucket_partials, batch_format="pyarrow"),
        ["bucket"], {"t_cnt": ("t_part", "sum"), "s_cnt": ("s_part", "sum")},
    ).to_pandas()  # ≤ n_buckets rows
    t_vec = np.zeros(B, np.int64)
    s_vec = np.zeros(B, np.int64)
    t_vec[bc["bucket"].to_numpy()] = bc["t_cnt"].to_numpy()
    s_vec[bc["bucket"].to_numpy()] = bc["s_cnt"].to_numpy()
    t_tot, s_tot = float(t_vec.sum()), float(s_vec.sum())
    # single-log2 ratio, operand order shared verbatim with the oracle
    w = np.log2((t_vec + 1.0) * (s_tot + B) / ((s_vec + 1.0) * (t_tot + B)))
    w_ref = ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        wv = ray.get(w_ref)
        bucket, tfs, doc_idx, counts = term_bucket_tfs(t)
        logw = np.zeros(len(counts), np.float64)
        np.add.at(logw, doc_idx, tfs * wv[bucket])
        n_tokens = np.zeros(len(counts), np.int64)
        np.add.at(n_tokens, doc_idx, tfs)
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pa.array(n_tokens),
                         "logw": pa.array(round6_half_up(logw))})

    return ds.map_batches(score, batch_format="pyarrow")


def importance_resample(sf_dir: str, n_out: int = 100,
                        target_lang: str = "en", n_buckets: int = 64,
                        salt: str = "dsir"):
    """DSIR's SELECTION step — importance RESAMPLING via deterministic
    Gumbel-top-k (the Gumbel-max trick: top-k of ``logw + Gumbel(0,1)``
    is an exact sample-without-replacement ∝ exp(logw)): draw the
    ``n_out`` documents that tilt the corpus toward the target domain,
    completing :func:`importance_weights` into the actual curation
    output. The "randomness" is content-addressed — each doc's uniform
    is its salted md5 prefix (13 hex chars = 52 bits, an exact double),
    so the sample is reproducible across reruns/cluster sizes, salt-
    decorrelated from every other md5 decision, and SQL-expressible.

    Key arithmetic contract: the key is rounded-logw (the
    importance_weights output grid, bit-identical across engines) plus
    ``-ln(-ln((v + 0.5) / 2^52))`` evaluated with the identical operand
    order; ranking is on the unrounded key (distinct keys differ at the
    1e-3 scale — ULP wobble can't flip them), ties → doc_id.

    Scale shape: importance_weights' two streaming passes, then one
    more streaming pass computes keys and a per-batch partial top-k;
    the driver merges ≤ n_out × n_blocks survivor rows."""
    import pandas as pd

    from .duck import md5_prefix_int

    TWO52 = float(1 << 52)
    iw = importance_weights(sf_dir, target_lang, n_buckets)

    def partial_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        logw = t["logw"].to_numpy(zero_copy_only=False)
        keys_s = pc.binary_join_element_wise(
            pa.array([salt + ":"] * len(ids), pa.string()),
            pc.cast(t["doc_id"], pa.string()), "")
        v = md5_prefix_int(keys_s, 13)
        u = (v + 0.5) / TWO52
        key = logw + -np.log(-np.log(u))
        order = np.lexsort((ids, -key))[:n_out]
        return pa.table({"doc_id": pa.array(ids[order]),
                         "logw": pa.array(logw[order]),
                         "key": pa.array(key[order])})

    survivors = iw.map_batches(
        partial_topk, batch_format="pyarrow").to_pandas()
    out = survivors.sort_values(["key", "doc_id"],
                                ascending=[False, True]).head(n_out)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["key"] = round6_half_up(out["key"].to_numpy())
    return out[["rank", "doc_id", "logw", "key"]]


def ngram_diversity(sf_dir: str, max_n: int = 3):
    """Corpus n-gram diversity (distinct-n / total-n for n = 1..max_n) —
    the standard self-repetition metric for curated training corpora (a
    collapsing dataset shows diversity falling as n grows slower than it
    should). Returns (n, distinct_grams, total_grams, diversity) with
    diversity on the shared 6 dp grid.

    Scale shape: ONE streaming pass emits per-batch (n, gram, c_part)
    partial counts for every n (grams built by the shared shifted-take
    kernel, counted at batch-vocabulary cardinality via dictionary
    encode + bincount — nothing per occurrence); one hash exchange on
    (n, gram) merges the partials; the distinct/total reduction is then
    map-side partials into a max_n-row native aggregate. Gram strings
    cross the exchange once each — the same traffic shape as term_df.

    An ``n`` whose gram count is zero (every doc shorter than ``n``
    tokens) emits no row — the SQL oracle filters the same way."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .agg import hash_groupby_sum

    def partials(t: pa.Table) -> pa.Table:
        _, flat, n_tokens = _words_flat(t["text"])
        ns, gs, cs = [], [], []
        for n in range(1, max_n + 1):
            _, grams = _grams(flat, n_tokens, n)
            if len(grams) == 0:
                continue
            enc = grams.dictionary_encode()
            cnt = np.bincount(enc.indices.to_numpy(),
                              minlength=len(enc.dictionary))
            ns.append(np.full(len(enc.dictionary), n, dtype=np.int64))
            gs.append(enc.dictionary)
            cs.append(cnt.astype(np.int64))
        if not ns:
            return pa.table({"n": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string()),
                             "c_part": pa.array([], pa.int64())})
        return pa.table({
            "n": pa.array(np.concatenate(ns)),
            "gram": pa.concat_arrays([g.combine_chunks()
                                      if isinstance(g, pa.ChunkedArray)
                                      else g for g in gs]),
            "c_part": pa.array(np.concatenate(cs)),
        })

    counts = hash_groupby_sum(
        documents_ds(sf_dir).map_batches(partials, batch_format="pyarrow"),
        ["n", "gram"], {"c": ("c_part", "sum")},
    )

    def reduce_part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"n": t["n"].to_numpy(),
                           "c": t["c"].to_numpy()})
        g = df.groupby("n", as_index=False).agg(d_part=("c", "size"),
                                                t_part=("c", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (counts.map_batches(reduce_part, batch_format="pyarrow")
           .groupby("n")  # max_n keys — native agg is fine
           .aggregate(Sum("d_part", alias_name="distinct_grams"),
                      Sum("t_part", alias_name="total_grams")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["distinct_grams"] = df["distinct_grams"].astype(np.int64)
        df["total_grams"] = df["total_grams"].astype(np.int64)
        df["diversity"] = round6_half_up(
            df["distinct_grams"].to_numpy() / df["total_grams"].to_numpy())
        return df[["n", "distinct_grams", "total_grams", "diversity"]]

    return agg.map_batches(finish, batch_format="pandas")


def _threshold_hex(frac: float, digits: int = 4) -> str:
    """Keep-threshold as a ``digits``-long lowercase hex string: a row is
    kept iff its md5 prefix (uniform over [0, 16^digits)) is strictly
    below floor(frac * 16^digits)."""
    space = 16 ** digits
    t = int(frac * space)
    return format(t, f"0{digits + 1}x")[1:]  # zero-padded, drop carry slot


def split_codes(t: pa.Table, salt: str, t_test: str,
                t_val: str) -> np.ndarray:
    """THE split-assignment rule (int8 codes 0=train/1=val/2=test):
    md5 of ``salt:doc_id``, 4-hex-digit prefix against the two
    thresholds (:func:`_threshold_hex`). :func:`split_leakage` labels
    every doc with it; its SQL oracle expresses the identical rule as a
    CASE."""
    from .duck import md5_hex

    ids = pc.cast(t["doc_id"], pa.string())
    keyed = pc.binary_join_element_wise(
        pa.array([salt + ":"] * len(t), pa.string()), ids, "")
    p = pc.utf8_slice_codeunits(md5_hex(keyed), 0, 4) \
        .to_numpy(zero_copy_only=False)
    return np.where(p < t_test, 2, np.where(p < t_val, 1, 0)).astype(np.int8)


def split_leakage(sf_dir: str, w: int = 8, val_frac: float = 0.1,
                  test_frac: float = 0.1, salt: str = "split"):
    """Train→eval contamination audit: for the val and test splits of
    :func:`split_codes`' salted assignment, how many docs share at
    least one word ``w``-gram with ANY train doc. The data-scaling
    complement of :func:`decontaminate`: there the contamination side
    is a small benchmark (hash set broadcast, corpus streams); here the
    contamination side is the TRAIN SPLIT — itself corpus-sized — so
    nothing can be broadcast and the overlap test must co-locate by
    gram. Returns (split, n_docs, n_leaked) for val and test.

    Matching is by 64-bit gram hash (the decontaminate stance: a false
    leak needs an xxhash collision, negligible; the SQL oracle matches
    exact gram strings, pinning no-collision at gate scale). Split
    assignment is the exact salted md5-prefix rule of
    :func:`split_codes`, which the SQL oracle expresses as a CASE.

    Scale shape: ONE gram-keyed hash exchange carries map-side-deduped
    int rows only — train grams collapse to (hash) per batch (doc
    identity irrelevant on the train side), eval grams to
    (hash, doc_id, split); the per-partition kernel emits eval docs
    whose gram has a train instance, deduped. A second doc-keyed
    exchange (bounded by LEAKED docs, not the corpus) dedupes
    multi-gram hits, and per-split totals come from a separate pruned
    doc_id-only streaming count. Text never crosses a wire."""
    import pandas as pd

    from .hash_partition import _hash_strings, hash_groupby_apply

    t_test = _threshold_hex(test_frac)
    t_val = _threshold_hex(test_frac + val_frac)

    def labels(t: pa.Table) -> np.ndarray:
        # int8 split codes (0=train, 1=val, 2=test) — the one shared
        # definition of the split rule
        return split_codes(t, salt, t_test, t_val)

    def explode(t: pa.Table) -> pa.Table:
        sp = labels(t)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        _, flat, n_tokens = _words_flat(t["text"])
        gdoc, grams = _grams(flat, n_tokens, w)
        if len(grams) == 0:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "doc_id": pa.array([], pa.int64()),
                             "sp": pa.array([], pa.int8())})
        h = _hash_strings(grams)
        g_sp = sp[gdoc]
        tr = g_sp == 0
        tr_h = np.unique(h[tr])  # train side: gram presence only
        ev = (pd.DataFrame({"h": h[~tr], "doc_id": doc_ids[gdoc][~tr],
                            "sp": g_sp[~tr]})
              .drop_duplicates(["h", "doc_id"]))
        return pa.table({
            "h": pa.array(np.concatenate([tr_h, ev["h"].to_numpy()]),
                          pa.uint64()),
            "doc_id": pa.array(np.concatenate(
                [np.full(len(tr_h), -1, np.int64),
                 ev["doc_id"].to_numpy()])),
            "sp": pa.array(np.concatenate(
                [np.zeros(len(tr_h), np.int8),
                 ev["sp"].to_numpy()]).astype(np.int8)),
        })

    def leaked_rows(df: pd.DataFrame) -> pd.DataFrame:
        tr_h = df.loc[df["sp"] == 0, "h"].unique()
        ev = df[df["sp"] > 0]
        hit = ev[ev["h"].isin(tr_h)]
        return hit[["doc_id", "sp"]].drop_duplicates()

    hits = hash_groupby_apply(
        documents_ds(sf_dir).map_batches(explode, batch_format="pyarrow"),
        ["h"], leaked_rows)

    def leak_counts(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates("doc_id")
        g = d.groupby("sp", as_index=False).size()
        return g.rename(columns={"size": "leak_part"})

    leak = hash_groupby_apply(hits, ["doc_id"], leak_counts).to_pandas()
    leaked = (leak.groupby("sp")["leak_part"].sum()
              if len(leak) else pd.Series(dtype=np.int64))

    def count_partial(t: pa.Table) -> pa.Table:
        sp = labels(t)
        return pa.table({"sp": pa.array([0, 1, 2], pa.int8()),
                         "n_part": pa.array(
                             np.bincount(sp, minlength=3)[:3]
                             .astype(np.int64))})

    totals = documents_ds(sf_dir, columns=("doc_id",)).map_batches(
        count_partial, batch_format="pyarrow").to_pandas() \
        .groupby("sp")["n_part"].sum()

    names = {1: "val", 2: "test"}
    out = pd.DataFrame({
        "split": [names[c] for c in (1, 2)],
        "n_docs": [np.int64(totals.get(c, 0)) for c in (1, 2)],
        "n_leaked": [np.int64(leaked.get(c, 0)) for c in (1, 2)],
    })
    return out.sort_values("split").reset_index(drop=True)
