"""Sampling + sketching operators for training-data curation.

* :func:`deterministic_sample` — content-addressed Bernoulli sampling:
  membership is a pure function of the row key (md5 prefix < threshold),
  so the sample is STABLE across reruns, resumable shards, and cluster
  sizes — at 100 TB a sample that depends on RNG state or row order is
  not reproducible; this one is, and it is exactly SQL-expressible.
* :func:`hll_distinct_terms` — HyperLogLog distinct-term estimate: each
  batch emits a register vector (map-side partial), registers merge by
  elementwise max through one tiny exchange. The exchange carries
  ``2^p`` bytes per batch regardless of data size — the sketch shape for
  cardinalities too large to count exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _threshold_hex(frac: float, digits: int = 4) -> str:
    """Keep-threshold as a ``digits``-long lowercase hex string: a row is
    kept iff its md5 prefix (uniform over [0, 16^digits)) is strictly
    below floor(frac * 16^digits)."""
    space = 16 ** digits
    t = int(frac * space)
    return format(t, f"0{digits + 1}x")[1:]  # zero-padded, drop carry slot


def deterministic_sample(sf_dir: str, frac: float = 0.1):
    """Documents sampled by ``md5(doc_id) < frac``: every worker makes
    the same keep/drop decision from the row key alone (no RNG, no
    coordination), so reruns, retries and partial rebuilds all see the
    same sample. Uniform within every stratum (lang, source, ...) by the
    hash's uniformity."""
    from .duck import md5_hex
    from .text_stats import documents_ds

    thr = _threshold_hex(frac)

    def keep(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        h = md5_hex(ids)
        pref = pc.utf8_slice_codeunits(h, 0, len(thr))
        return t.filter(pc.less(pref, thr))

    # full rows out: a sample is a row filter, not a projection
    cols = ("doc_id", "text", "lang", "source", "n_chars")
    return documents_ds(sf_dir, columns=cols).map_batches(
        keep, batch_format="pyarrow"
    )


# ---------- HyperLogLog ----------

_HLL_P = 14                       # 2^14 registers -> ~0.8% std error
_ALPHA = 0.7213 / (1 + 1.079 / (1 << _HLL_P))


def _hll_registers(hashes: np.ndarray, p: int = _HLL_P) -> np.ndarray:
    """Register vector (uint8) from 64-bit hashes: index = top ``p``
    bits, value = 1 + leading-zero count of the remaining 64-p bits."""
    m = 1 << p
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = (hashes << np.uint64(p)) | np.uint64((1 << p) - 1)
    # leading zeros of `rest` via bit length: lz = 64 - bit_length
    bl = np.zeros(len(rest), dtype=np.uint8)
    v = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        bl[big] += np.uint8(shift)
        v[big] >>= np.uint64(shift)
    bl[v > 0] += 1
    rho = (64 - bl + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    est = _ALPHA * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range (linear counting)
    return float(est)


def hll_distinct_terms(sf_dir: str, p: int = _HLL_P):
    """Estimated distinct-term count of the corpus (simple profile).

    Map-side: each batch hashes its batch-local vocabulary (already
    deduplicated by the tokenizer) and emits ONE ``2^p``-byte register
    row. Merge: elementwise max over all register rows in a single small
    task — commutative/associative, so any merge tree gives the same
    sketch. Returns a 1-row DataFrame (estimate + relative-error bound);
    checked against the exact count by pytest (no SQL oracle — the
    estimate is approximate by design)."""
    import pandas as pd

    from ..index.hash_partition import _hash_strings
    from .text_stats import term_counts_ds

    def partial(t: pa.Table) -> pa.Table:
        terms = pc.list_flatten(t["terms"])
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        uniq = pc.unique(terms)
        h = _hash_strings(uniq).astype(np.uint64)
        regs = _hll_registers(h, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = term_counts_ds(sf_dir).map_batches(partial, batch_format="pyarrow")

    def merge(t: pa.Table) -> pa.Table:
        m = 1 << p
        acc = np.zeros(m, dtype=np.uint8)
        for b in t["regs"]:
            np.maximum(acc, np.frombuffer(b.as_py(), dtype=np.uint8), out=acc)
        return pa.table({"regs": pa.array([acc.tobytes()], pa.binary())})

    merged = parts.repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None
    ).take_all()
    regs = np.frombuffer(merged[0]["regs"], dtype=np.uint8)
    return pd.DataFrame(
        {"distinct_terms_est": [round(_hll_estimate(regs), 1)],
         "rel_error_bound": [round(1.04 / (1 << p) ** 0.5, 6)]}
    )


# ---- portable HyperLogLog kernel (:func:`vocab_distinct_hll`): 52-bit
# md5-prefix hashes, M_REG registers, ρ from EXACT integer bit_length,
# harmonic denominator as an exact int64 — every piece reproducible
# verbatim in SQL ----

M_REG = 512           # registers (2^9); bucket = hash % M_REG
RHO_MAX = 44          # 1 + (52 − 9) suffix bits
#: α·m²·2^RHO_MAX — every constant derived from the layout, so the
#: register geometry can't silently desynchronize from the estimate
#: (the SQL oracles' literals are generated from the same values)
ALPHA_NUM = (0.7213 / (1.0 + 1.079 / M_REG)) * float(M_REG * M_REG) \
    * float(1 << RHO_MAX)


def _bit_length(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64).copy()
    n = np.zeros(len(v), np.int64)
    for k in (32, 16, 8, 4, 2, 1):
        big = v >= (np.int64(1) << np.int64(k))
        n[big] += k
        v[big] >>= k
    n += (v > 0).astype(np.int64)
    return n


def hll_bucket_rho(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, ρ) for 52-bit portable hashes."""
    return h % M_REG, RHO_MAX - _bit_length(h // M_REG)


def hll_estimate(regs: np.ndarray) -> tuple[float, int]:
    """(estimate, zero_registers) from a dense M_REG register vector —
    one correctly-rounded division over the exact-int64 denominator,
    identical small-range branch to the SQL twins."""
    denom = int((np.int64(1) << (RHO_MAX - regs)).sum())
    zeros = int((regs == 0).sum())
    e_raw = ALPHA_NUM / denom
    if e_raw <= 2.5 * M_REG and zeros > 0:
        est = float(M_REG) * np.log(float(M_REG) / zeros)
    else:
        est = e_raw
    return est, zeros


def vocab_distinct_hll(sf_dir: str):
    """Distinct-VOCABULARY HyperLogLog on the PORTABLE register kernel
    (52-bit md5 hashes, 512 registers, exact integer ρ and
    denominator) — the ORACLE-HASH-CHECKED sibling of
    :func:`hll_distinct_terms` (which keeps the higher-precision 2^14
    xxhash geometry but is rows-only; this one trades precision for a
    SQL twin that reproduces the sketch register-for-register).

    Scale shape: per-batch (bucket, max ρ) partials over the batch's
    deduplicated vocabulary (≤ 512 rows per batch), one tiny bucket
    groupby-max, driver finalize over 512 rows. Returns a 1-row
    (n_registers, zero_registers, distinct_terms_hll) frame on the 6 dp
    floor grid."""
    import pandas as pd

    from .agg import hash_groupby_sum
    from .duck import md5_prefix_int
    from .text_stats import term_counts_ds

    def partial(t: pa.Table) -> pa.Table:
        terms = pc.list_flatten(t["terms"])
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        uniq = pc.unique(terms)
        if len(uniq) == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        h = md5_prefix_int(uniq, 13)
        bucket, rho = hll_bucket_rho(h)
        g = (pd.DataFrame({"bucket": bucket, "rho": rho})
             .groupby("bucket", as_index=False)["rho"].max())
        return pa.Table.from_pandas(g, preserve_index=False)

    regs_df = hash_groupby_sum(
        term_counts_ds(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["bucket"], {"rho": ("rho", "max")},
    ).to_pandas()  # ≤ 512 rows
    regs = np.zeros(M_REG, dtype=np.int64)
    if len(regs_df):
        regs[regs_df["bucket"].to_numpy(np.int64)] = \
            regs_df["rho"].to_numpy(np.int64)
    est, zeros = hll_estimate(regs)
    return pd.DataFrame({
        "n_registers": [np.int64(M_REG)],
        "zero_registers": [np.int64(zeros)],
        "distinct_terms_hll": [np.floor(est * 1e6 + 0.5) / 1e6],
    })


#: default per-stratum keep fractions for :func:`stratified_sample` —
#: rebalance a head-heavy corpus by downsampling the dominant language
STRATA_FRACS = {"en": 0.1}
STRATA_DEFAULT_FRAC = 0.5


def stratified_sample(sf_dir: str, fracs: dict[str, float] | None = None,
                      default_frac: float = STRATA_DEFAULT_FRAC):
    """Per-stratum deterministic sampling: each ``lang`` keeps its own
    fraction of documents (downsampling the dominant language is the
    standard rebalancing move for multilingual training corpora).
    Membership is still a pure function of the row key — same
    content-addressed md5 rule as :func:`deterministic_sample`, but the
    threshold is selected per row from the stratum column, so no shuffle,
    no RNG, no coordination; reruns and resumed shards agree."""
    import pandas as pd

    from .duck import md5_hex
    from .text_stats import documents_ds

    fracs = STRATA_FRACS if fracs is None else fracs
    thr = {k: _threshold_hex(v) for k, v in fracs.items()}
    thr_default = _threshold_hex(default_frac)

    def keep(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        h = md5_hex(ids)
        pref = pc.utf8_slice_codeunits(h, 0, 4).to_pandas()
        cut = t["lang"].to_pandas().map(thr).fillna(thr_default)
        return t.filter(pa.array((pref < cut).to_numpy()))

    cols = ("doc_id", "text", "lang", "source", "n_chars")
    return documents_ds(sf_dir, columns=cols).map_batches(
        keep, batch_format="pyarrow"
    )


def dataset_split(sf_dir: str, val_frac: float = 0.1,
                  test_frac: float = 0.1, salt: str = "split"):
    """Deterministic train/val/test assignment — the terminal curation
    step before export. The split is a pure function of the row key
    (md5 of ``salt:doc_id``), so it is stable across reruns, resumable
    shards and cluster sizes, splits are disjoint and exhaustive by
    construction, and the ``salt`` decorrelates it from every other
    md5-addressed decision in the pipeline (sampling, sharding) — a doc
    sampled by :func:`deterministic_sample` is not biased toward any
    split. Single streaming pass, no shuffle, no RNG. Returns
    (doc_id, split)."""
    from .text_stats import documents_ds

    t_test = _threshold_hex(test_frac)
    t_val = _threshold_hex(test_frac + val_frac)

    def tag(t: pa.Table) -> pa.Table:
        split = SPLIT_NAMES[split_codes(t, salt, t_test, t_val)]
        return pa.table({"doc_id": t["doc_id"], "split": pa.array(split)})

    return documents_ds(sf_dir, columns=("doc_id",)).map_batches(
        tag, batch_format="pyarrow")


#: codes from :func:`split_codes` index into this (0=train, 1=val, 2=test)
SPLIT_NAMES = np.array(["train", "val", "test"])


def split_codes(t: pa.Table, salt: str, t_test: str,
                t_val: str) -> np.ndarray:
    """THE split-assignment rule (int8 codes 0=train/1=val/2=test):
    md5 of ``salt:doc_id``, 4-hex-digit prefix against the two
    thresholds. The single definition shared by :func:`dataset_split`
    (the export) and ``filters.split_leakage`` (the audit) so the audit
    always sees the same splits the export ships; the SQL oracles
    express the identical rule as a CASE."""
    from .duck import md5_hex

    ids = pc.cast(t["doc_id"], pa.string())
    keyed = pc.binary_join_element_wise(
        pa.array([salt + ":"] * len(t), pa.string()), ids, "")
    p = pc.utf8_slice_codeunits(md5_hex(keyed), 0, 4) \
        .to_numpy(zero_copy_only=False)
    return np.where(p < t_test, 2, np.where(p < t_val, 1, 0)).astype(np.int8)


def quality_select(sf_dir: str, q_num: int = 1, q_den: int = 2):
    """Budgeted per-group quality selection: keep the top
    ``q_num/q_den`` fraction of each language's docs by quality score
    (distinct-token ratio; ties → lowest doc_id) — the "keep the best
    q% per language" curation step run with a fixed token budget.
    Returns (doc_id, lang, distinct_ratio) for exactly
    ``ceil(n_lang * q_num / q_den)`` docs per language.

    Exact grouped top-q% at SCALING k, computed with NO sort and no
    per-group row numbering: the score lives on the shared round6 grid
    (≤ 1e6+1 distinct values), so one streaming pass emits per-(lang,
    grid-score) histogram partials through a tiny exchange — the
    driver-side aggregate is bounded by #langs × grid size, independent
    of corpus size. The per-lang threshold score s* and the number of
    ties to admit at s* follow from the cumulative histogram in integer
    math ((n·q_num + q_den − 1) // q_den — no float k). A second
    streaming pass keeps score > s* rows outright (no exchange) and
    routes only the score == s* ties through a lang-keyed exchange
    whose kernel admits the lowest-doc_id ``need`` of them. Tie traffic
    is bounded by the docs at exactly the threshold score."""
    import pandas as pd
    import ray

    from ..config import SIMPLE_PROFILE
    from ..normalizer.batch import tokenize_batch
    from ..index.hash_partition import hash_groupby_apply
    from .agg import hash_groupby_sum
    from .text_stats import documents_ds

    def score(t: pa.Table) -> pa.Table:
        doclens, terms_list, _ = tokenize_batch(t["text"], SIMPLE_PROFILE)
        n_dis = pc.list_value_length(terms_list) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        safe = np.maximum(doclens.astype(np.int64), 1)
        s = np.floor(n_dis / safe * 1e6 + 0.5).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "lang": t["lang"], "s": pa.array(s)})

    # materialized once: three consumers (histogram, keep split, tie
    # split) would otherwise re-execute the tokenize lineage 3×. The
    # rows are ~20 bytes/doc (ints + lang) — object-store-resident with
    # spill, never on the driver.
    scored = documents_ds(sf_dir, ("doc_id", "text", "lang")) \
        .map_batches(score, batch_format="pyarrow").materialize()

    def hist_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"lang": t["lang"].to_pandas(),
                           "s": t["s"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["lang", "s"], as_index=False).size()
        return pa.table({"lang": pa.array(g["lang"], pa.string()),
                         "s": pa.array(g["s"].to_numpy()),
                         "c_part": pa.array(
                             g["size"].to_numpy().astype(np.int64))})

    hist = hash_groupby_sum(
        scored.map_batches(hist_partial, batch_format="pyarrow"),
        ["lang", "s"], {"c": ("c_part", "sum")}).to_pandas()

    # per-lang threshold from the cumulative histogram (integer math)
    plan: dict[str, tuple[int, int]] = {}  # lang -> (s_star, need_at)
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("s", ascending=False)
        c = g["c"].to_numpy()
        n = int(c.sum())
        k = (n * q_num + q_den - 1) // q_den
        cum = np.cumsum(c)
        i = int(np.searchsorted(cum, k))  # first row reaching k
        s_star = int(g["s"].to_numpy()[i])
        above = int(cum[i - 1]) if i else 0
        plan[lang] = (s_star, k - above)
    plan_ref = ray.put(plan)

    def _thresholds(t: pa.Table) -> np.ndarray:
        # vocabulary-sized dict lookups fanned out through dictionary
        # codes — no per-row Python
        p = ray.get(plan_ref)
        lang = t["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        d = lang.dictionary_encode()
        per_code = np.array([p[v][0] for v in d.dictionary.to_pylist()],
                            dtype=np.int64)
        return per_code[np.asarray(d.indices, dtype=np.int64)]

    def split_keep(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(s > _thresholds(t)))

    def split_ties(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(s == _thresholds(t)))

    def admit(df: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(plan_ref)
        out = []
        for lang, g in df.groupby("lang"):
            out.append(g.sort_values("doc_id").head(p[lang][1]))
        return pd.concat(out) if out else df

    kept = scored.map_batches(split_keep, batch_format="pyarrow").union(
        hash_groupby_apply(
            scored.map_batches(split_ties, batch_format="pyarrow"),
            ["lang"], admit))

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "distinct_ratio": pa.array(s / 1e6)})

    return kept.map_batches(finish, batch_format="pyarrow")


def source_cap(sf_dir: str, cap: int = 15, salt: str = "cap1"):
    """Per-source document cap — the host-level curation rule crawl
    pipelines apply so one dominant site cannot swamp the mixture: each
    source keeps at most ``cap`` docs, chosen by a content-addressed
    rank (salted md5 of the doc id, ties → doc_id) so the survivors are
    a deterministic uniform sample of the source, stable across reruns
    and cluster sizes and decorrelated (via the salt) from every other
    md5-keyed decision in the pipeline. Returns
    (doc_id, source, src_rank, keep) for every doc.

    Scale shape: one streaming pass computes the 52-bit md5-prefix key
    (C kernel, :func:`.duck.md5_prefix_int`), then ONE exchange keyed on
    source with a single vectorized lexsort + run-length rank kernel
    per partition (one Python call per PARTITION, not per source). A
    source's rows must co-locate — the same partitioning assumption as
    every source/user-keyed op here; for a pathologically hot source,
    :func:`quality_select`'s score-histogram threshold machinery is the
    drop-in scale path (rank keys are already on an integer grid)."""
    import pandas as pd

    from ..index.hash_partition import hash_groupby_apply
    from .duck import md5_prefix_int
    from .text_stats import documents_ds

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys_s = pc.binary_join_element_wise(
            pa.array([salt + ":"] * len(ids), pa.string()),
            pc.cast(t["doc_id"], pa.string()), "")
        return pa.table({
            "doc_id": pa.array(ids),
            "source": t["source"],
            "key": pa.array(md5_prefix_int(keys_s, 13).astype(np.int64)),
        })

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "key", "doc_id"], kind="mergesort")
        df["src_rank"] = df.groupby("source", sort=False).cumcount() + 1
        df["src_rank"] = df["src_rank"].astype(np.int64)
        df["keep"] = (df["src_rank"] <= cap).astype(np.int64)
        return df[["doc_id", "source", "src_rank", "keep"]]

    ds = documents_ds(sf_dir, columns=("doc_id", "source")).map_batches(
        key, batch_format="pyarrow")
    return hash_groupby_apply(ds, ["source"], rank)


def source_mixture(sf_dir: str):
    """Mixture report over the corpus: per (source, lang) document and
    word-token counts plus each cell's share of the corpus's total
    tokens — the planning table every sampling/cap/budget decision
    (stratified_sample, source_cap, quality_select) reads first.
    Returns (source, lang, n_docs, n_tokens, token_share) with the
    share on the shared 6 dp grid.

    Scale shape: each batch collapses to one row per (source, lang)
    present (token counts from the shared vectorized word tokenizer),
    so the exchange carries cells × batches rows; the native aggregate
    runs over the tiny (source × lang) key space, and the global total
    is summed from that same tiny table."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .filters import _words_flat
    from .text_stats import documents_ds, round6_half_up

    def partial(t: pa.Table) -> pa.Table:
        _, _, n_tokens = _words_flat(t["text"])
        df = pd.DataFrame({
            "source": t["source"].to_pandas(),
            "lang": t["lang"].to_pandas(),
            "n_tok": n_tokens,
        })
        g = df.groupby(["source", "lang"], as_index=False).agg(
            d_part=("n_tok", "size"), t_part=("n_tok", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (documents_ds(sf_dir, columns=("doc_id", "text", "lang", "source"))
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["source", "lang"])  # tiny key space — native agg
           .aggregate(Sum("d_part", alias_name="n_docs"),
                      Sum("t_part", alias_name="n_tokens")))
    tiny = agg.to_pandas()  # sources × langs rows — bounded, not data-sized
    total = float(tiny["n_tokens"].sum())
    tiny["n_docs"] = tiny["n_docs"].astype(np.int64)
    tiny["n_tokens"] = tiny["n_tokens"].astype(np.int64)
    tiny["token_share"] = round6_half_up(
        tiny["n_tokens"].to_numpy() / total)
    return tiny[["source", "lang", "n_docs", "n_tokens", "token_share"]]


#: default language-mixture weights in integer per-mille (sum 1000) —
#: integer math end-to-end so both engines derive identical caps
MIX_WEIGHTS_PM = {"en": 400, "de": 150, "es": 150, "fr": 150, "zh": 150}


def lang_mix_sample(sf_dir: str, weights_pm: dict[str, int] | None = None,
                    salt: str = "mix1"):
    """Deterministic MIXTURE sampling — the application of
    :func:`source_mixture`'s planning table: downsample each language so
    the kept set matches target weights exactly (the DoReMi/data-mixing
    step every multilingual training corpus runs). With per-mille
    integer weights ``w`` and per-language counts ``n``, the largest
    feasible total is ``T = min_l floor(n_l * 1000 / w_l)`` and each
    language keeps its ``cap_l = w_l * T // 1000`` lowest
    content-addressed ranks (salted md5, ties → doc_id — rerun- and
    cluster-stable, decorrelated from every other sampling decision).
    All-integer math: both engines derive the identical caps. Returns
    the kept docs as (doc_id, lang, mix_rank).

    Scale shape: pass 1 is the tiny per-language count aggregate
    (map-side partials, |langs| keys); the caps are |langs| scalars; the
    selection is ONE lang-keyed exchange with the vectorized
    lexsort/cumcount rank kernel per partition (:func:`source_cap`'s
    shape and co-location assumption)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..index.hash_partition import hash_groupby_apply
    from .duck import md5_prefix_int
    from .text_stats import documents_ds

    weights_pm = weights_pm or MIX_WEIGHTS_PM
    assert sum(weights_pm.values()) == 1000

    def count_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        g = (pd.DataFrame({"lang": t["lang"].to_pandas()})
             .groupby("lang", as_index=False).agg(n_part=("lang", "size")))
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (documents_ds(sf_dir, columns=("doc_id", "lang"))
              .map_batches(count_partial, batch_format="pyarrow")
              .groupby("lang")  # |langs| keys — native agg is fine
              .aggregate(Sum("n_part", alias_name="n"))
              .to_pandas())
    n_by_lang = dict(zip(counts["lang"], counts["n"].astype(int)))
    T = min(n_by_lang.get(lang, 0) * 1000 // w
            for lang, w in weights_pm.items())
    caps = {lang: w * T // 1000 for lang, w in weights_pm.items()}

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys_s = pc.binary_join_element_wise(
            pa.array([salt + ":"] * len(ids), pa.string()),
            pc.cast(t["doc_id"], pa.string()), "")
        return pa.table({
            "doc_id": pa.array(ids),
            "lang": t["lang"],
            "key": pa.array(md5_prefix_int(keys_s, 13).astype(np.int64)),
        })

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "key", "doc_id"], kind="mergesort")
        df["mix_rank"] = (df.groupby("lang", sort=False).cumcount() + 1
                          ).astype(np.int64)
        cap = df["lang"].map(caps).fillna(0).astype(np.int64)
        out = df[df["mix_rank"] <= cap]
        return out[["doc_id", "lang", "mix_rank"]]

    ds = documents_ds(sf_dir, columns=("doc_id", "lang")).map_batches(
        key, batch_format="pyarrow")
    return hash_groupby_apply(ds, ["lang"], rank)


def epoch_shuffle(sf_dir: str, epoch: int = 1, shard_size: int = 100,
                  salt: str = "epoch"):
    """Deterministic per-epoch training order: every doc's exact
    position in epoch ``epoch``'s global pseudo-random permutation, plus
    its training shard (``pos // shard_size``). The order is a pure
    function of (salt, epoch, doc_id) — ascending
    ``md5('{salt}{epoch}:' || doc_id)`` with doc_id tie-break — so each
    epoch is an independent-looking reshuffle, reruns/retries/cluster
    sizes all derive the identical order, and a training job can resume
    mid-epoch from a position, none of which holds for
    ``random_shuffle``. Returns (doc_id, pos, shard).

    Scale shape (rank-without-sort: prefix-histogram offsets on a
    hashed key): a GLOBAL sort of 100 TB just to assign
    positions is an all-to-all of the full payload; instead pass 1
    streams a 64Ki-bucket histogram of the key's 16-bit prefix (one
    tiny partial per batch, driver holds 64Ki ints → exclusive
    prefix-sum offsets, broadcast via the task closure), and pass 2 is
    ONE bucket-keyed exchange carrying (key, doc_id) INT/HEX rows only
    — never payloads — whose kernel sorts each bounded bucket locally
    and adds its global offset. Downstream exports read payloads by
    doc_id join; the permutation itself is metadata-sized."""
    import pandas as pd

    from ..index.hash_partition import hash_groupby_apply
    from .duck import md5_hex
    from .text_stats import documents_ds

    pref = f"{salt}{int(epoch)}:"

    def keyed(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        k = md5_hex(pc.binary_join_element_wise(
            pa.array([pref] * len(t), pa.string()), ids, ""))
        # vectorized hex-prefix -> int: 4 hex chars via byte arithmetic
        b = pc.utf8_slice_codeunits(k, 0, 4).to_numpy(zero_copy_only=False)
        v = b.astype("S4").view(np.uint8).reshape(-1, 4).astype(np.int64)
        dig = np.where(v >= ord("a"), v - ord("a") + 10, v - ord("0"))
        bucket = (dig[:, 0] << 12) | (dig[:, 1] << 8) \
            | (dig[:, 2] << 4) | dig[:, 3]
        return pa.table({"bucket": pa.array(bucket),
                         "key": k,
                         "doc_id": t["doc_id"].cast(pa.int64())})

    # (bucket, key, doc_id) rows are metadata-sized (no payloads);
    # materialize once so the histogram pass and the rank exchange don't
    # re-run the scan + md5 lineage twice
    keys_ds = documents_ds(sf_dir, columns=("doc_id",)).map_batches(
        keyed, batch_format="pyarrow").materialize()

    def hist(t: pa.Table) -> pa.Table:
        c = np.bincount(t["bucket"].to_numpy(zero_copy_only=False),
                        minlength=65536)
        nz = np.flatnonzero(c)
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "n_part": pa.array(c[nz].astype(np.int64))})

    hp = keys_ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    counts = np.zeros(65536, np.int64)
    g = hp.groupby("bucket")["n_part"].sum()
    counts[g.index.to_numpy()] = g.to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    S = int(shard_size)

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["bucket", "key", "doc_id"], kind="mergesort")
        within = d.groupby("bucket", sort=False).cumcount().to_numpy()
        pos = offsets[d["bucket"].to_numpy()] + within
        return pd.DataFrame({"doc_id": d["doc_id"].to_numpy(),
                             "pos": pos.astype(np.int64),
                             "shard": (pos // S).astype(np.int64)})

    return hash_groupby_apply(keys_ds, ["bucket"], rank)


def curriculum_order(sf_dir: str):
    """Curriculum ordering for training: every document's exact global
    position under (quality DESC, doc_id ASC), quality = the
    distinct-token ratio on the shared 6 dp grid — the easy-to-hard
    schedule a curriculum-learning loader consumes (read in rank order,
    or reversed for anti-curriculum). Returns (rank, doc_id, quality).

    Scale shape (rank-without-sort — :func:`epoch_shuffle`'s offsets
    pattern on a BOUNDED score grid): quality lives on the 6 dp grid in
    [0, 1], so the key domain is ≤ 1e6+1 values at ANY corpus size.
    Pass 1 streams a sparse per-batch histogram of q_micro (driver
    reduces value-domain-sized ints → exclusive prefix offsets in DESC
    quality order, broadcast once); pass 2 is ONE quality-keyed
    exchange of (q_micro, doc_id) rows — never payloads — whose kernel
    ranks each bucket locally by doc_id and adds the global offset."""
    import pandas as pd
    import ray

    from ..index.hash_partition import hash_groupby_apply
    from .text_stats import quality_score

    def to_key(t: pa.Table) -> pa.Table:
        q = t["distinct_ratio"].to_numpy()
        return pa.table({
            "q_micro": pa.array(np.floor(q * 1e6 + 0.5).astype(np.int64)),
            "doc_id": t["doc_id"].cast(pa.int64()),
        })

    # (q_micro, doc_id) rows are metadata-sized; materialize once so the
    # histogram pass and the rank exchange don't re-run the tokenize
    keys_ds = quality_score(sf_dir).map_batches(
        to_key, batch_format="pyarrow").materialize()

    def hist(t: pa.Table) -> pa.Table:
        k, n = np.unique(t["q_micro"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"q_micro": pa.array(k),
                         "n_part": pa.array(n.astype(np.int64))})

    hp = keys_ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    g = hp.groupby("q_micro")["n_part"].sum().sort_index(ascending=False)
    offsets = dict(zip(
        (int(k) for k in g.index.to_numpy()),
        (int(o) for o in np.concatenate(([0], np.cumsum(g.to_numpy())[:-1])))))
    off_ref = ray.put(offsets)

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        of = ray.get(off_ref)
        df = df.sort_values(["q_micro", "doc_id"],
                            ascending=[False, True])
        pos = df.groupby("q_micro", sort=False).cumcount().to_numpy()
        base = df["q_micro"].map(of).to_numpy()
        return pd.DataFrame({
            "rank": (base + pos + 1).astype(np.int64),
            "doc_id": df["doc_id"].to_numpy(),
            "quality": df["q_micro"].to_numpy() / 1e6,
        })

    return hash_groupby_apply(keys_ds, ["q_micro"], rank)
