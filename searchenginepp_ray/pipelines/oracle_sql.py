"""DuckDB oracle SQL for every SQL-expressible pipeline.

The tokenizer CTE is generated from the *same* punctuation tables the
Python normalizer uses (SIMPLE profile: punctuation→space, lowercase,
ASCII-whitespace split, drop empties), so Python and SQL tokenize
identically. Aggregate column names match the Ray-side outputs exactly
(the driver's compare requires it).
"""

from __future__ import annotations

from ..config import BuildConfig
from ..normalizer.punctuation import ALL_MARKS
from .search_docs import DOC_QUERIES
from .text_stats import QUALITY_STOPS


def _regex_class() -> str:
    """RE2 character class matching every punctuation mark + ASCII ws."""
    specials = set("\\]^-[")
    chars = []
    for c in sorted(set(ALL_MARKS) | set(" \t\n\v\f\r")):
        if c in specials:
            chars.append("\\" + c)
        elif c == "\t":
            chars.append("\\t")
        elif c == "\n":
            chars.append("\\n")
        elif c == "\r":
            chars.append("\\r")
        elif c == "\v":
            chars.append("\\x0b")
        elif c == "\f":
            chars.append("\\x0c")
        else:
            chars.append(c)
    return "[" + "".join(chars) + "]"


def tok_cte(source: str = "documents") -> str:
    """CTE ``toks(doc_id, term)`` — one row per token occurrence of the
    given corpus ``source`` (a view or an earlier CTE)."""
    cls = _regex_class().replace("'", "''")
    return f"""
toks AS (
    SELECT doc_id, t.term
    FROM {source},
         unnest(string_split_regex(
             trim(regexp_replace(lower(text), '{cls}', ' ', 'g')),
             ' +')) AS t(term)
    WHERE t.term <> ''
)"""


def doclen_stats_sql() -> str:
    return f"""WITH {tok_cte()}
SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
       (SELECT COUNT(*) FROM toks) AS sum_doclen,
       (SELECT COUNT(*) FROM toks) * 1.0 / (SELECT COUNT(*) FROM documents) AS avgdl"""


def term_df_sql() -> str:
    return f"""WITH {tok_cte()}
SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY term"""


def term_tf_sql() -> str:
    return f"""WITH {tok_cte()}
SELECT term, CAST(COUNT(*) AS BIGINT) AS tf FROM toks GROUP BY term"""


def unigram_logprob_sql() -> str:
    """Oracle for text_stats.unigram_logprob: per-doc mean log2 unigram
    probability under the corpus unigram LM, via the same
    Σ tf·log2(ctf) − n·log2(T) decomposition and the shared
    floor(x*1e6+0.5)/1e6 rounding rule."""
    return f"""WITH {tok_cte()},
ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY term),
tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS t FROM toks),
d AS (SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
             SUM(log2(c.c)) AS s
      FROM toks t JOIN ctf c USING (term) GROUP BY t.doc_id)
SELECT doc_id, n_tokens,
       floor((s - n_tokens * log2((SELECT t FROM tot))) / n_tokens * 1e6 + 0.5)
           / 1e6 AS avg_logprob
FROM d"""


def corpus_report_sql() -> str:
    """Oracle for text_stats.corpus_report: per-lang dataset-card
    rollup — token counts via the shared tok CTE, dup membership by
    full md5(text) corpus-wide, mean on the 6 dp floor grid."""
    return f"""WITH {tok_cte()},
d AS (SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS chars,
             md5(text) AS h
      FROM documents),
tc AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok
       FROM toks GROUP BY doc_id),
dd AS (SELECT h, COUNT(*) AS c FROM d GROUP BY h),
j AS (SELECT d.lang, d.chars, COALESCE(tc.n_tok, 0) AS n_tok,
             CASE WHEN dd.c >= 2 THEN 1 ELSE 0 END AS dup
      FROM d LEFT JOIN tc USING (doc_id) JOIN dd USING (h))
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(dup) AS BIGINT) AS n_dup_docs,
       CAST(SUM(chars) AS BIGINT) AS total_chars,
       CAST(SUM(n_tok) AS BIGINT) AS total_tokens,
       floor(SUM(n_tok) * 1.0 / COUNT(*) * 1e6 + 0.5) / 1e6
           AS mean_doclen
FROM j GROUP BY lang"""


def token_count_sql() -> str:
    return f"""WITH {tok_cte()}
SELECT d.doc_id,
       CAST(COALESCE(t.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(t.n_distinct, 0) AS BIGINT) AS n_distinct
FROM documents d
LEFT JOIN (
    SELECT doc_id, COUNT(*) AS n_tokens, COUNT(DISTINCT term) AS n_distinct
    FROM toks GROUP BY doc_id
) t USING (doc_id)"""


def quality_score_sql() -> str:
    stops = ", ".join(f"'{s}'" for s in QUALITY_STOPS)
    return f"""WITH {tok_cte()},
per AS (
    SELECT doc_id,
           COUNT(*) AS n_tok,
           COUNT(DISTINCT term) AS n_dis,
           SUM(CASE WHEN term IN ({stops}) THEN 1 ELSE 0 END) AS n_stop,
           SUM(length(term)) AS tot_len
    FROM toks GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_tok, 0) AS BIGINT) AS n_tokens,
       floor((COALESCE(p.n_dis * 1.0 / p.n_tok, 0.0)) * 1000000 + 0.5) / 1000000 AS distinct_ratio,
       floor((COALESCE(p.n_stop * 1.0 / p.n_tok, 0.0)) * 1000000 + 0.5) / 1000000 AS stopword_ratio,
       floor((COALESCE(p.tot_len * 1.0 / p.n_tok, 0.0)) * 1000000 + 0.5) / 1000000 AS mean_token_len
FROM documents d LEFT JOIN per p USING (doc_id)"""


def lang_id_sql(threshold: float = 0.08) -> str:
    stops = ", ".join(f"'{s}'" for s in QUALITY_STOPS)
    return f"""WITH {tok_cte()},
per AS (
    SELECT doc_id,
           SUM(CASE WHEN term IN ({stops}) THEN 1 ELSE 0 END) * 1.0 / COUNT(*) AS ratio
    FROM toks GROUP BY doc_id
)
SELECT d.doc_id,
       CASE WHEN COALESCE(p.ratio, 0.0) >= {threshold} THEN 'en' ELSE 'unk' END AS lang_pred
FROM documents d LEFT JOIN per p USING (doc_id)"""


def exact_dedup_sql() -> str:
    return """SELECT md5(text) AS text_md5,
       CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups
FROM documents GROUP BY md5(text)"""


def _query_values(cfg: BuildConfig | None = None) -> tuple[str, dict[int, list[str]]]:
    """VALUES rows (query_id, term) from the *Python* normalizer, so query
    tokenization can't diverge between the two systems."""
    from ..config import SIMPLE_PROFILE
    from ..normalizer.word_normalizer import normalize_tokens

    per_q = {
        qi: sorted(set(normalize_tokens(q, SIMPLE_PROFILE)))
        for qi, q in enumerate(DOC_QUERIES)
    }
    rows = ", ".join(
        f"({qi}, '{t}')" for qi, terms in per_q.items() for t in terms
    )
    return rows, per_q


def _bm25_score_expr(k1: float, b: float) -> str:
    # mirrors Bm25Scorer.score's operation order exactly:
    # tf / (k1*((1-b) + b*dl/avgdl) + tf) * idf,  idf = log2(N/df)
    return (
        f"(tf.tf / ({k1}*((1-{b}) + ({b}*dl.dl)/stats.avgdl) + tf.tf))"
        " * log2(stats.n_docs/df.df)"
    )


def _tfidf_score_expr() -> str:
    return "(1 + log2(tf.tf)) * log2(stats.n_docs/df.df)"


def search_topk_sql(scorer: str = "bm25", conj: bool = False, k: int = 10,
                    rank_lo: int = 0) -> str:
    cfg = BuildConfig()
    rows, per_q = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b) if scorer == "bm25" else _tfidf_score_expr()
    conj_having = ""
    if conj:
        counts = " ".join(f"WHEN q.query_id = {qi} THEN {len(ts)}" for qi, ts in per_q.items())
        conj_having = f"HAVING COUNT(DISTINCT q.term) = MAX(CASE {counts} END)"
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
    {conj_having}
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank > {rank_lo} AND rank <= {k}"""


def search_did_you_mean_sql(k: int = 10) -> str:
    """Oracle for search_docs.search_did_you_mean: per-token correction
    (levenshtein <= 1 over the vocabulary — the same unit-cost metric as
    the pipeline's DP verifier — picked by dist, then df DESC, then term
    ASC; uncorrectable tokens pass through) feeding the standard BM25
    stack. One statement value-checks the whole composition."""
    from .search_docs import DYM_QUERIES

    cfg = BuildConfig()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    vals = ", ".join(
        f"({qi}, '{t}')" for qi, q in enumerate(DYM_QUERIES) for t in q)
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df0 AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS dfi
        FROM toks GROUP BY term),
df AS (SELECT term, CAST(dfi AS DOUBLE) AS df FROM df0),
mq(query_id, tok) AS (VALUES {vals}),
cand AS (
  SELECT m.query_id, m.tok, v.term, v.dfi,
         levenshtein(m.tok, v.term) AS dist
  FROM mq m JOIN df0 v ON levenshtein(m.tok, v.term) <= 1),
best AS (
  SELECT query_id, tok, term,
         row_number() OVER (PARTITION BY query_id, tok
                            ORDER BY dist, dfi DESC, term) AS rn
  FROM cand),
q AS (SELECT DISTINCT m.query_id, COALESCE(b.term, m.tok) AS term
      FROM mq m LEFT JOIN (SELECT query_id, tok, term FROM best
                           WHERE rn = 1) b
        ON b.query_id = m.query_id AND b.tok = m.tok),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {k}"""


def search_after_page_sql(k: int = 10) -> str:
    """Oracle for search_docs.search_bm25_page2: the standard BM25 stack
    sliced to ranks k+1..2k — the cursor path must be rank-identical to
    the global slice. Queries with < k page-1 hits have no rank > k rows,
    matching the engine's empty-page-after-short-page contract."""
    return search_topk_sql("bm25", conj=False, k=2 * k, rank_lo=k)


def search_explain_sql(k: int = 10) -> str:
    """Oracle for search_docs.search_explain: the BM25 stack WITHOUT the
    final SUM — one row per (query, hit, matching term), joined back to
    the ranked top-k. The per-term expression is the identical scorer
    formula, so contributions match the engine's doubles on the 6 dp
    grid; zero contributions (idf == 0 terms) are filtered on both
    engines."""
    cfg = BuildConfig()
    rows, _ = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(r.query_id AS BIGINT) AS query_id, CAST(r.rank AS BIGINT) AS rank,
       r.doc_id, q.term,
       ROUND({expr}, 6) AS contribution, ROUND(r.s, 6) AS score
FROM ranked r
JOIN q ON q.query_id = r.query_id
JOIN tf ON tf.doc_id = r.doc_id AND tf.term = q.term
JOIN df ON df.term = q.term
JOIN dl ON dl.doc_id = r.doc_id, stats
WHERE r.rank <= {k} AND {expr} <> 0"""


def search_lm_dirichlet_sql(mu: float = 2000.0, k: int = 10) -> str:
    """Oracle for pipelines.search_docs.search_lm_dirichlet: Dirichlet
    query likelihood recomputed from the corpus. Mirrors the engine's
    rank-equivalent decomposition and operand order exactly:
    Σ_{t∈q∩d} log2(1 + tf·T/(μ·ctf)) + |q'|·log2(μ/(dl+μ)), where |q'|
    counts the query's collection-present terms (p(t|C)=0 terms are
    dropped on both sides) and candidates are docs matching ≥1 term."""
    rows, _ = _query_values()
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY term),
tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS t FROM toks),
q(query_id, term) AS (VALUES {rows}),
qk AS (SELECT q.query_id, q.term, ctf.c FROM q JOIN ctf USING (term)),
nq AS (SELECT query_id, COUNT(*) AS n FROM qk GROUP BY query_id),
scores AS (
    SELECT qk.query_id, tf.doc_id,
           SUM(log2(1 + (tf.tf * tot.t) / ({mu} * qk.c)))
             + MAX(nq.n) * log2({mu} / (dl.dl + {mu})) AS s
    FROM qk
    JOIN tf ON tf.term = qk.term
    JOIN dl ON dl.doc_id = tf.doc_id
    JOIN nq ON nq.query_id = qk.query_id, tot
    GROUP BY qk.query_id, tf.doc_id, dl.dl
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {k}"""


def search_bm25_rm3_sql(k_fb: int = 5, m_exp: int = 3, k: int = 10) -> str:
    """Oracle for search_docs.search_bm25_rm3: first-pass BM25 top-k_fb,
    TF-IDF expansion-term selection on the shared 6 dp grid (original
    terms anti-joined out, ties → term ASC), second-pass BM25 over the
    union term set — ONE statement for the whole two-pass loop."""
    cfg = BuildConfig()
    rows, _ = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
s1 AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id),
fb AS (
    SELECT query_id, doc_id FROM (
        SELECT query_id, doc_id,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY s DESC, doc_id ASC) AS rn
        FROM s1) WHERE rn <= {int(k_fb)}),
cand AS (
    SELECT fb.query_id, tf.term,
           floor(SUM(tf.tf * log2((SELECT n_docs FROM stats) / df.df))
                 * 1e6 + 0.5) / 1e6 AS w
    FROM fb
    JOIN tf USING (doc_id)
    JOIN df ON df.term = tf.term
    LEFT JOIN q qq ON qq.query_id = fb.query_id AND qq.term = tf.term
    WHERE qq.term IS NULL
    GROUP BY fb.query_id, tf.term),
expd AS (
    SELECT query_id, term FROM (
        SELECT query_id, term,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY w DESC, term ASC) AS rn
        FROM cand) WHERE rn <= {int(m_exp)}),
q2 AS (SELECT query_id, term FROM q
       UNION SELECT query_id, term FROM expd),
scores AS (
    SELECT q2.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q2
    JOIN tf ON tf.term = q2.term
    JOIN df ON df.term = q2.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q2.query_id, tf.doc_id),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {int(k)}"""


def index_stats_sql() -> str:
    return f"""WITH {tok_cte()}
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM documents) AS n_docs,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM toks) AS sum_doclen,
       (SELECT CAST(COUNT(DISTINCT term) AS BIGINT) FROM toks) AS n_terms,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM (SELECT DISTINCT doc_id, term FROM toks)) AS n_postings"""


def compression_ratio_stored_sql() -> str:
    """Oracle for filters.compression_ratio_stored: zlib level-0 STORED
    framing below one deflate block is exactly n + 11 bytes (2-byte
    zlib header + 5-byte stored-block header + payload + 4-byte
    adler32), so the whole pipeline reduces to one expression on the
    shared 6-dp floor grid."""
    return """
SELECT doc_id,
       CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes,
       CAST(octet_length(encode(text)) + 11 AS BIGINT) AS compressed_bytes,
       floor((octet_length(encode(text)) + 11.0)
             / greatest(octet_length(encode(text)), 1) * 1e6 + 0.5) / 1e6
           AS ratio
FROM documents"""


def doc_fingerprint_sql(window: int = 4) -> str:
    """Oracle for pipelines.text_stats.fingerprint: min 16-hex-char md5
    prefix over all ``window``-token grams of the normalized token list
    (whole-doc gram when shorter; md5('') for empty docs)."""
    cls = _regex_class().replace("'", "''")
    w = window
    return f"""
WITH tl AS (
    SELECT doc_id,
           list_filter(string_split_regex(
               trim(regexp_replace(lower(text), '{cls}', ' ', 'g')), ' +'),
               x -> x <> '') AS toks
    FROM documents
)
SELECT doc_id,
       min(substr(md5(coalesce(array_to_string(toks[i : i + {w - 1}], ' '), '')),
                  1, 16)) AS fingerprint
FROM tl, unnest(range(1, greatest(len(toks) - {w} + 1, 1) + 1)) AS r(i)
GROUP BY doc_id
"""


def ngram_jaccard_sql(shingle: int = 3, thr_num: int = 4, thr_den: int = 5) -> str:
    """Oracle for pipelines.dedup.ngram_jaccard_dedup: EXACT O(N²)
    token-shingle Jaccard over raw whitespace tokens (str.split()
    semantics), emitted as exact integers — the Ray side must find the
    identical pair set through its LSH + verify path."""
    k = shingle
    pad_empty = "'" + " " * (k - 1) + "'"
    return f"""
WITH tl AS (
    SELECT doc_id,
           list_filter(string_split_regex(trim(text), '[ \t\n\r\x0b\x0c]+'),
                       x -> x <> '') AS toks
    FROM documents
),
sh AS (
    SELECT doc_id,
        CASE
            WHEN len(toks) = 0 THEN [{pad_empty}]
            WHEN len(toks) < {k} THEN
                [array_to_string(toks, ' ') || repeat(' ', {k} - len(toks))]
            ELSE list_distinct(list_transform(range(1, len(toks) - {k} + 2),
                     i -> array_to_string(toks[i : i + {k - 1}], ' ')))
        END AS s
    FROM tl
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(len(list_intersect(a.s, b.s)) AS BIGINT) AS n_common,
       CAST(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS BIGINT)
           AS n_union
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(list_intersect(a.s, b.s)) * {thr_den}
      >= (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) * {thr_num}
"""


def dedup_incremental_minhash_sql(mod: int = 2, shingle: int = 3,
                                  thr_num: int = 4,
                                  thr_den: int = 5) -> str:
    """Oracle for dedup.dedup_incremental_minhash: EXACT
    O(N_new × N_base) shipment-vs-baseline anti-join on token-shingle
    Jaccard >= thr_num/thr_den (same shingle CTE and no-collision stance
    as :func:`ngram_jaccard_sql`); the Ray side must keep the identical
    doc set through its persisted-band-table probe + verify path."""
    k = shingle
    m = int(mod)
    pad_empty = "'" + " " * (k - 1) + "'"
    return f"""
WITH tl AS (
    SELECT doc_id,
           list_filter(string_split_regex(trim(text), '[ \t\n\r\x0b\x0c]+'),
                       x -> x <> '') AS toks
    FROM documents
),
sh AS (
    SELECT doc_id,
        CASE
            WHEN len(toks) = 0 THEN [{pad_empty}]
            WHEN len(toks) < {k} THEN
                [array_to_string(toks, ' ') || repeat(' ', {k} - len(toks))]
            ELSE list_distinct(list_transform(range(1, len(toks) - {k} + 2),
                     i -> array_to_string(toks[i : i + {k - 1}], ' ')))
        END AS s
    FROM tl
)
SELECT n.doc_id FROM sh n
WHERE n.doc_id % {m} <> 0
  AND NOT EXISTS (
    SELECT 1 FROM sh b
    WHERE b.doc_id % {m} = 0
      AND len(list_intersect(n.s, b.s)) * {thr_den}
          >= (len(n.s) + len(b.s) - len(list_intersect(n.s, b.s)))
             * {thr_num})
"""


def bpe_token_count_sql() -> str:
    from .text_stats import BPE_PATTERN

    pat = BPE_PATTERN.replace("'", "''")
    return f"""
        SELECT doc_id,
               CAST(len(list_filter(regexp_extract_all(text, '{pat}'),
                                    m -> NOT regexp_matches(m, '^[ \t\n\x0b\x0c\r]+$'))) AS BIGINT)
                   AS n_bpe_tokens
        FROM documents
    """


def dup_components_sql(shingle: int = 3, thr_num: int = 4,
                       thr_den: int = 5) -> str:
    """Oracle for dedup.dup_components: recursive-CTE reachability
    closure over the exact-Jaccard pair graph, component = min reachable
    doc_id (symmetric edges make every node its own src)."""
    pairs = ngram_jaccard_sql(shingle, thr_num, thr_den)
    return f"""
WITH RECURSIVE pairs AS ({pairs}),
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM pairs
    UNION
    SELECT doc_b AS a, doc_a AS b FROM pairs
),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a
)
SELECT src AS doc_id,
       CAST(LEAST(src, MIN(dst)) AS BIGINT) AS component
FROM reach GROUP BY src
"""


def dup_components_best_sql(shingle: int = 3, thr_num: int = 4,
                            thr_den: int = 5) -> str:
    """Oracle for dedup.dup_components_best: the reachability-closure
    components joined with per-doc token counts, keep-longest (ties to
    lowest doc_id) via a window."""
    pairs = ngram_jaccard_sql(shingle, thr_num, thr_den)
    return f"""
WITH RECURSIVE pairs AS ({pairs}),
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM pairs
    UNION
    SELECT doc_b AS a, doc_a AS b FROM pairs
),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a
),
comp AS (
    SELECT src AS doc_id, CAST(LEAST(src, MIN(dst)) AS BIGINT) AS component
    FROM reach GROUP BY src
),{tok_cte()},
tc AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM toks GROUP BY doc_id),
j AS (SELECT c.component, c.doc_id, COALESCE(tc.n, 0) AS n
      FROM comp c LEFT JOIN tc USING (doc_id)),
r AS (SELECT component, doc_id, n,
             row_number() OVER (PARTITION BY component
                                ORDER BY n DESC, doc_id ASC) AS rn,
             COUNT(*) OVER (PARTITION BY component) AS m
      FROM j)
SELECT component, doc_id AS keep_doc_id, CAST(n AS BIGINT) AS n_tokens,
       CAST(m AS BIGINT) AS n_members
FROM r WHERE rn = 1
"""


def corpus_diff_sql(add_mod: int = 13, add_res: int = 3, rm_res: int = 7,
                    chg_mod: int = 11, chg_res: int = 4) -> str:
    """Oracle for dedup.corpus_diff: the two version slices as CTEs,
    FULL OUTER JOIN on doc_id, CASE status on md5 equality."""
    return f"""WITH old AS (
    SELECT doc_id, md5(text) AS m FROM documents
    WHERE doc_id % {add_mod} <> {add_res}),
new AS (
    SELECT doc_id,
           md5(CASE WHEN doc_id % {chg_mod} = {chg_res}
                    THEN text || ' [rev2]' ELSE text END) AS m
    FROM documents WHERE doc_id % {add_mod} <> {rm_res})
SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            WHEN o.m <> n.m THEN 'changed'
            ELSE 'unchanged' END AS status
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id"""


def simhash_md5_sql() -> str:
    """Oracle for dedup.simhash_md5: per-occurrence md5-half token
    hashes, exploded to 64 bit positions, ±1 vote sums, fingerprint
    halves reassembled by bit-weight sums."""
    return f"""WITH {_word_toks_cte()},
ft AS (SELECT doc_id, unnest(w) AS term FROM wtoks),
h AS (SELECT doc_id,
             CAST(('0x' || substr(md5(term), 1, 8)) AS BIGINT) AS h1,
             CAST(('0x' || substr(md5(term), 9, 8)) AS BIGINT) AS h2
      FROM ft),
expl AS (SELECT doc_id, h1, h2,
                unnest(generate_series(0, 63)) AS j
         FROM h),
votes AS (SELECT doc_id, j,
                 SUM(CASE WHEN ((CASE WHEN j >= 32 THEN h1 ELSE h2 END)
                                >> (j % 32)) & 1 = 1
                          THEN 1 ELSE -1 END) AS v
          FROM expl GROUP BY doc_id, j)
SELECT doc_id,
       CAST(SUM(CASE WHEN v > 0 AND j >= 32
                     THEN (CAST(1 AS BIGINT) << (j - 32)) ELSE 0 END)
            AS BIGINT) AS fp_hi,
       CAST(SUM(CASE WHEN v > 0 AND j < 32
                     THEN (CAST(1 AS BIGINT) << j) ELSE 0 END)
            AS BIGINT) AS fp_lo
FROM votes GROUP BY doc_id"""


def ngram_diversity_sql(max_n: int = 3) -> str:
    """Oracle for filters.ngram_diversity: per-n distinct/total gram
    counts over the word-token arrays, diversity on the shared 6 dp
    grid."""
    branches = []
    for n in range(1, max_n + 1):
        branches.append(f"""SELECT {n} AS n,
       CAST(COUNT(DISTINCT g) AS BIGINT) AS distinct_grams,
       CAST(COUNT(*) AS BIGINT) AS total_grams
FROM (SELECT array_to_string(w[i:i+{n - 1}], ' ') AS g
      FROM (SELECT w, unnest(generate_series(1, greatest(len(w) - {n - 1}, 0))) AS i
            FROM wtoks))""")
    un = "\nUNION ALL\n".join(branches)
    return f"""WITH {_word_toks_cte()}
SELECT n, distinct_grams, total_grams,
       floor(distinct_grams * 1.0 / total_grams * 1e6 + 0.5) / 1e6 AS diversity
FROM ({un})
WHERE total_grams > 0"""


# ---------- training-data filters (pipelines/filters.py) ----------

def _word_toks_cte() -> str:
    """CTE ``wtoks(doc_id, w)`` — the filters family's word tokenization
    (lowercase, split on non-[a-z0-9] runs, empties dropped), kept
    verbatim-identical to ``filters.WORD_SPLIT``."""
    return """
wtoks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                       t -> t <> '') AS w
    FROM documents
)"""


def dup_span_stats_sql(w: int = 8) -> str:
    """Oracle for filters.dup_span_stats: exact corpus-global window
    counts over gram STRINGS (the Ray side uses 64-bit gram hashes;
    this gate pins the no-collision assumption at sf scale)."""
    return f"""WITH {_word_toks_cte()},
gpos AS (SELECT doc_id, w,
                unnest(generate_series(1, greatest(len(w) - {w - 1}, 0))) AS i
         FROM wtoks),
gr AS (SELECT doc_id, array_to_string(w[i:i+{w - 1}], ' ') AS g FROM gpos),
cnt AS (SELECT g, COUNT(*) AS c FROM gr GROUP BY g),
per AS (SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_windows,
               CAST(SUM(CASE WHEN cnt.c >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_dup_windows
        FROM gr JOIN cnt USING (g) GROUP BY doc_id)
SELECT doc_id, n_windows, n_dup_windows,
       floor(n_dup_windows * 1.0 / n_windows * 1e6 + 0.5) / 1e6 AS dup_frac
FROM per"""


def collocations_sql(min_count: int = 5, k: int = 20) -> str:
    """Oracle for filters.collocations: PMI with the identical operand
    order (log2(c_ab) + 2 log2(Tu) - log2(Tb) - log2(c_a) - log2(c_b))
    and gram-ASC tie-break on the unrounded value."""
    return f"""WITH {_word_toks_cte()},
uni AS (SELECT unnest(w) AS t FROM wtoks),
uc AS (SELECT t AS w, COUNT(*) AS c FROM uni GROUP BY t),
tu AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM uni),
bpos AS (SELECT doc_id, w,
                unnest(generate_series(1, greatest(len(w) - 1, 0))) AS i
         FROM wtoks),
bi AS (SELECT array_to_string(w[i:i+1], ' ') AS g FROM bpos),
bc AS (SELECT g, COUNT(*) AS c FROM bi GROUP BY g),
tb AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM bi),
parts AS (SELECT g, c,
                 string_split(g, ' ')[1] AS a,
                 string_split(g, ' ')[2] AS b
          FROM bc WHERE c >= {int(min_count)}),
wt AS (SELECT p.g, p.c,
              log2(CAST(p.c AS DOUBLE)) + 2 * log2((SELECT v FROM tu))
              - log2((SELECT v FROM tb))
              - log2(CAST(ua.c AS DOUBLE)) - log2(CAST(ub.c AS DOUBLE)) AS pmi
       FROM parts p JOIN uc ua ON ua.w = p.a JOIN uc ub ON ub.w = p.b),
r AS (SELECT g, c, pmi,
             row_number() OVER (ORDER BY pmi DESC, g ASC) AS rank
      FROM wt)
SELECT g AS gram, CAST(c AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank,
       floor(pmi * 1e6 + 0.5) / 1e6 AS pmi
FROM r WHERE rank <= {int(k)}"""


def repetition_stats_sql() -> str:
    """Oracle for filters.repetition_stats (Gopher-style n-gram
    repetition): top-bigram concentration + duplicate-trigram fraction
    per document."""
    return f"""WITH {_word_toks_cte()},
bpos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w) - 1, 0))) AS i FROM wtoks),
bi AS (SELECT doc_id, array_to_string(w[i:i+1], ' ') AS g FROM bpos),
bic AS (SELECT doc_id, g, COUNT(*) AS c FROM bi GROUP BY doc_id, g),
bagg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS nb, CAST(MAX(c) AS BIGINT) AS bmax FROM bic GROUP BY doc_id),
tpos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w) - 2, 0))) AS i FROM wtoks),
tri AS (SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g FROM tpos),
tagg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nt, CAST(COUNT(DISTINCT g) AS BIGINT) AS tdis FROM tri GROUP BY doc_id)
SELECT t.doc_id,
       CAST(len(t.w) AS BIGINT) AS n_tokens,
       floor((COALESCE(b.bmax / CAST(b.nb AS DOUBLE), 0)) * 1000000 + 0.5) / 1000000 AS top_bigram_frac,
       floor((COALESCE((a.nt - a.tdis) / CAST(a.nt AS DOUBLE), 0)) * 1000000 + 0.5) / 1000000 AS dup_trigram_frac
FROM wtoks t LEFT JOIN bagg b USING (doc_id) LEFT JOIN tagg a USING (doc_id)"""


def pii_redact_sql() -> str:
    """Oracle for filters.pii_redact — DuckDB's regexp functions are
    RE2 like Arrow's, so counts and replacement spans agree exactly."""
    email = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    ipv4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
    return f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{email}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(text, '{ipv4}')) AS BIGINT) AS n_ipv4,
       md5(regexp_replace(regexp_replace(text, '{email}', '<EMAIL>', 'g'),
                          '{ipv4}', '<IP>', 'g')) AS redacted_md5
FROM documents"""


def decontaminate_sql(w: int = 3, bench_mod: int = 97) -> str:
    """Oracle for filters.decontaminate: exact gram-string overlap
    between the benchmark subset and the rest of the corpus."""
    return f"""WITH {_word_toks_cte()},
pos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w) - {w - 1}, 0))) AS i FROM wtoks),
grams AS (SELECT doc_id, array_to_string(w[i:i+{w - 1}], ' ') AS g FROM pos),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {bench_mod} = 0),
cont AS (SELECT DISTINCT doc_id FROM grams
         WHERE doc_id % {bench_mod} <> 0 AND g IN (SELECT g FROM bench))
SELECT d.doc_id,
       (d.doc_id IN (SELECT doc_id FROM cont)) AS contaminated
FROM documents d WHERE d.doc_id % {bench_mod} <> 0"""


def decontaminate_bloom_sql(w: int = 3, bench_mod: int = 97,
                            m_bits: int = 1 << 17, k: int = 4) -> str:
    """Oracle for filters.decontaminate_bloom: the IDENTICAL Bloom
    filter built in SQL — positions = portable 52-bit md5 prefix of
    ``g || '|' || i`` mod m_bits; a corpus gram hits iff all k of its
    positions appear among the benchmark's distinct positions
    (COUNT(DISTINCT ki) = k per (doc, gram))."""
    posx = (f"CAST(('0x' || substr(md5(g || '|' || CAST(ki AS VARCHAR)),"
            f" 1, 13)) AS BIGINT) % {int(m_bits)}")
    return f"""WITH {_word_toks_cte()},
pos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w) - {w - 1}, 0))) AS i FROM wtoks),
grams AS (SELECT doc_id, array_to_string(w[i:i+{w - 1}], ' ') AS g FROM pos),
ks AS (SELECT unnest(generate_series(0, {int(k) - 1})) AS ki),
bpos AS (SELECT DISTINCT {posx} AS p
         FROM (SELECT DISTINCT g FROM grams
               WHERE doc_id % {bench_mod} = 0), ks),
cg AS (SELECT DISTINCT doc_id, g FROM grams
       WHERE doc_id % {bench_mod} <> 0),
cpos AS (SELECT doc_id, g, ki, {posx} AS p FROM cg, ks),
hit AS (SELECT doc_id FROM cpos JOIN bpos USING (p)
        GROUP BY doc_id, g HAVING COUNT(DISTINCT ki) = {int(k)})
SELECT d.doc_id,
       (d.doc_id IN (SELECT doc_id FROM hit)) AS contaminated_bloom
FROM documents d WHERE d.doc_id % {bench_mod} <> 0"""


def phrase_search_sql(phrases: tuple[str, ...] | None = None) -> str:
    """Oracle for filters.phrase_search: per phrase, overlapping
    consecutive-token occurrence counts via the gram-position CTE
    (same list-slice gram assembly as dup_span_stats_sql)."""
    from .search_docs import PHRASE_QUERIES

    phrases = phrases or PHRASE_QUERIES
    subs = []
    for p in phrases:
        w = len(p.split())
        esc = p.replace("'", "''")
        subs.append(f"""
SELECT '{esc}' AS query, doc_id, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT doc_id, array_to_string(w[i:i+{w - 1}], ' ') AS g
      FROM (SELECT doc_id, w,
                   unnest(generate_series(1, greatest(len(w) - {w - 1}, 0))) AS i
            FROM wtoks))
WHERE g = '{esc}'
GROUP BY doc_id""")
    return f"WITH {_word_toks_cte()}" + "\nUNION ALL".join(subs)


def regex_search_sql(patterns: tuple[str, ...] | None = None) -> str:
    """Oracle for filters.regex_search: RE2 non-overlapping match counts
    (DuckDB regexp_extract_all ≡ Arrow count_substring_regex — both
    RE2, both leftmost, so counts agree byte-for-byte)."""
    from .filters import GREP_PATTERNS

    patterns = patterns or GREP_PATTERNS
    subs = []
    for p in patterns:
        esc = p.replace("'", "''")
        subs.append(f"""
SELECT '{esc}' AS pattern, doc_id,
       CAST(len(regexp_extract_all(text, '{esc}')) AS BIGINT) AS n
FROM documents
WHERE len(regexp_extract_all(text, '{esc}')) > 0""")
    return "\nUNION ALL".join(subs)


def fuzzy_term_match_sql(queries: tuple[str, ...] | None = None,
                         max_dist: int = 1) -> str:
    """Oracle for text_stats.fuzzy_term_match: naive O(V×Q) exact edit
    distance over the full vocabulary (DuckDB ``levenshtein`` is the
    same unit-cost metric as the pipeline's DP verifier)."""
    from .text_stats import FUZZY_QUERIES

    queries = queries or FUZZY_QUERIES
    vals = ", ".join("('" + q.replace("'", "''") + "')" for q in queries)
    return f"""WITH {tok_cte()},
vocab AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
          FROM toks GROUP BY term),
q(query) AS (VALUES {vals})
SELECT q.query, v.term, v.df,
       CAST(levenshtein(q.query, v.term) AS BIGINT) AS dist
FROM vocab v CROSS JOIN q
WHERE levenshtein(q.query, v.term) <= {int(max_dist)}"""


def search_snippets_sql(k: int = 10, n_ctx: int = 3) -> str:
    """Oracle for search_docs.search_snippets: the full BM25 scoring
    stack of search_topk_sql plus first-match position + array-slice
    snippet (1-based list positions; w[max(p-n,1):p+n] is the inclusive
    twin of the pipeline's tokens[max(0,p0-n):p0+n+1])."""
    cfg = BuildConfig()
    rows, _ = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    cls = _regex_class().replace("'", "''")
    return f"""WITH {tok_cte()},
tarr AS (SELECT doc_id,
                list_filter(string_split_regex(
                    trim(regexp_replace(lower(text), '{cls}', ' ', 'g')),
                    ' +'), x -> x <> '') AS w
         FROM documents),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
),
tpos AS (SELECT doc_id, w, unnest(generate_series(1, len(w))) AS i FROM tarr),
tterm AS (SELECT doc_id, i, w[i] AS term FROM tpos),
fp AS (SELECT q.query_id, t.doc_id, MIN(t.i) AS first_pos
       FROM q JOIN tterm t ON t.term = q.term
       GROUP BY q.query_id, t.doc_id)
SELECT CAST(r.query_id AS BIGINT) AS query_id, CAST(r.rank AS BIGINT) AS rank,
       r.doc_id, ROUND(r.s, 6) AS score,
       CAST(fp.first_pos AS BIGINT) AS first_pos,
       array_to_string(ta.w[greatest(fp.first_pos - {int(n_ctx)}, 1):fp.first_pos + {int(n_ctx)}], ' ') AS snippet
FROM ranked r
JOIN fp ON fp.query_id = r.query_id AND fp.doc_id = r.doc_id
JOIN tarr ta ON ta.doc_id = r.doc_id
WHERE r.rank <= {int(k)}"""


def term_complete_sql(prefix: str = "s", k: int = 10) -> str:
    """Oracle for text_stats.term_complete: prefix-filtered df top-k with
    (df DESC, term ASC) ranking. The prefix matches LITERALLY via
    substr equality (the engine uses ``pc.starts_with``) — LIKE would
    treat '%'/'_' in the prefix as wildcards."""
    esc = prefix.replace("'", "''")
    return f"""WITH {tok_cte()},
d AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
      FROM toks
      WHERE substr(term, 1, {len(prefix)}) = '{esc}'
      GROUP BY term)
SELECT CAST(row_number() OVER (ORDER BY df DESC, term ASC) AS BIGINT) AS rank,
       term, df
FROM d
ORDER BY df DESC, term ASC
LIMIT {int(k)}"""


def search_boolean_sql(k: int = 10) -> str:
    """Oracle for search_docs.search_boolean: conjunctive BM25 over the
    MUST terms with a NOT-EXISTS anti-join on the MUST-NOT terms."""
    from ..config import BuildConfig
    from ..pipelines.search_docs import BOOL_QUERIES

    cfg = BuildConfig()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    prow, nrow = [], []
    counts = []
    for qi, (pos, neg) in enumerate(BOOL_QUERIES):
        pos_u, neg_u = sorted(set(pos)), sorted(set(neg))
        counts.append(f"WHEN q.query_id = {qi} THEN {len(pos_u)}")
        prow += [f"({qi}, '{t}')" for t in pos_u]
        nrow += [f"({qi}, '{t}')" for t in neg_u]
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {", ".join(prow)}),
nq(query_id, term) AS (VALUES {", ".join(nrow)}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    WHERE NOT EXISTS (
        SELECT 1 FROM toks x
        JOIN nq ON nq.term = x.term AND nq.query_id = q.query_id
        WHERE x.doc_id = tf.doc_id)
    GROUP BY q.query_id, tf.doc_id
    HAVING COUNT(DISTINCT q.term) = MAX(CASE {" ".join(counts)} END)
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {k}"""


def importance_weights_sql(target_lang: str = "en",
                           n_buckets: int = 64) -> str:
    """Oracle for filters.importance_weights: DSIR hashed-unigram
    importance weights. The bucket expression is the verbatim
    ``duck.md5_bucket`` rule (both engines run DuckDB md5); the
    per-bucket log-ratio uses the single-log2 operand order the Ray
    kernel evaluates — ``log2(((t+1)*(s_tot+B)) / ((s+1)*(t_tot+B)))``
    on identical doubles — so only the per-doc Σ tf·w summation order
    differs, absorbed by the shared floor(x*1e6+0.5)/1e6 rounding."""
    B = int(n_buckets)
    lang = target_lang.replace("'", "''")
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY doc_id, term),
tb AS (SELECT term,
              CAST(('0x' || substr(md5(term), 1, 8)) AS BIGINT) % {B} AS bucket
       FROM (SELECT DISTINCT term FROM tf)),
bc AS (SELECT b.bucket,
              CAST(SUM(CASE WHEN d.lang = '{lang}' THEN t.tf ELSE 0 END)
                   AS DOUBLE) AS t_cnt,
              CAST(SUM(t.tf) AS DOUBLE) AS s_cnt
       FROM tf t JOIN tb b USING (term) JOIN documents d USING (doc_id)
       GROUP BY b.bucket),
tot AS (SELECT CAST(SUM(t_cnt) AS DOUBLE) AS t_tot,
               CAST(SUM(s_cnt) AS DOUBLE) AS s_tot FROM bc),
w AS (SELECT bucket,
             log2(((t_cnt + 1.0) * ((SELECT s_tot FROM tot) + {B}))
                  / ((s_cnt + 1.0) * ((SELECT t_tot FROM tot) + {B}))) AS w
      FROM bc),
per_doc AS (
    SELECT t.doc_id, SUM(t.tf) AS n_tokens, SUM(t.tf * w.w) AS logw
    FROM tf t JOIN tb b USING (term) JOIN w USING (bucket)
    GROUP BY t.doc_id)
SELECT d.doc_id,
       CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
       floor(COALESCE(p.logw, 0.0) * 1e6 + 0.5) / 1e6 AS logw
FROM documents d LEFT JOIN per_doc p USING (doc_id)"""


def span_dedup_sql(width: int = 10) -> str:
    """Oracle for dedup.span_dedup: exact span dedup on the aligned
    ``width``-word grid, keep-first in global (doc_id, pos) order.
    Matches exact span STRINGS (the Ray side matches 64-bit xxhashes,
    so a green gate also pins the no-collision stance); the reassembly
    is ``string_agg(line, ' ' ORDER BY pos)`` — the verbatim twin of
    the Ray kernel's offset-filtered ``binary_join``."""
    W = int(width)
    return f"""WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
g AS (
  SELECT doc_id, i AS pos,
         array_to_string(ws[(i-1)*{W}+1 : i*{W}], ' ') AS line
  FROM w, LATERAL (SELECT unnest(generate_series(
       1, CAST(ceil(len(ws)/{W}.0) AS BIGINT))) AS i)),
k AS (
  SELECT doc_id, pos, line,
         (line = '' OR row_number() OVER
            (PARTITION BY line ORDER BY doc_id, pos) = 1) AS keep
  FROM g)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
       CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       md5(COALESCE(string_agg(CASE WHEN keep THEN line END,
                               ' ' ORDER BY pos), '')) AS clean_md5
FROM k GROUP BY doc_id"""


def boilerplate_spans_sql(width: int = 10, min_count: int = 2) -> str:
    """Oracle for dedup.boilerplate_spans: spans whose exact text occurs
    >= min_count times corpus-wide are removed from EVERY doc (all
    instances — the MassiveText repeated-line filter), on the identical
    aligned width-word grid as span_dedup_sql."""
    W = int(width)
    N = int(min_count)
    return f"""WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
g AS (
  SELECT doc_id, i AS pos,
         array_to_string(ws[(i-1)*{W}+1 : i*{W}], ' ') AS line
  FROM w, LATERAL (SELECT unnest(generate_series(
       1, CAST(ceil(len(ws)/{W}.0) AS BIGINT))) AS i)),
k AS (
  SELECT doc_id, pos, line,
         (line = '' OR COUNT(*) OVER (PARTITION BY line) < {N}) AS keep
  FROM g)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
       CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       md5(COALESCE(string_agg(CASE WHEN keep THEN line END,
                               ' ' ORDER BY pos), '')) AS clean_md5
FROM k GROUP BY doc_id"""


def bigram_logprob_sql() -> str:
    """Oracle for text_stats.bigram_logprob: exact bigram/context
    STRING counts (pins the Ray side's 64-bit-hash stance), identical
    add-one expression log2(c_ab + 1) − log2(c_ctx + V), shared floor
    half-up rounding."""
    cls = _regex_class().replace("'", "''")
    return f"""WITH tl AS (
  SELECT doc_id,
         list_filter(string_split_regex(
             trim(regexp_replace(lower(text), '{cls}', ' ', 'g')), ' +'),
             x -> x <> '') AS toks
  FROM documents),
v AS (SELECT CAST(COUNT(DISTINCT t) AS DOUBLE) AS v
      FROM (SELECT unnest(toks) AS t FROM tl)),
bi AS (
  SELECT doc_id, toks[i] AS a, array_to_string(toks[i:i+1], ' ') AS ab
  FROM tl, LATERAL (SELECT unnest(generate_series(1, len(toks) - 1)) AS i)
  WHERE len(toks) >= 2),
cb AS (SELECT ab, CAST(COUNT(*) AS DOUBLE) AS c FROM bi GROUP BY ab),
cc AS (SELECT a, CAST(COUNT(*) AS DOUBLE) AS c FROM bi GROUP BY a),
per AS (
  SELECT bi.doc_id,
         SUM(log2(cb.c + 1.0) - log2(cc.c + (SELECT v FROM v))) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM bi JOIN cb USING (ab) JOIN cc USING (a)
  GROUP BY bi.doc_id)
SELECT doc_id, n AS n_bigrams,
       floor(s / n * 1e6 + 0.5) / 1e6 AS avg_logprob
FROM per"""


def importance_resample_sql(n_out: int = 100, target_lang: str = "en",
                            n_buckets: int = 64,
                            salt: str = "dsir") -> str:
    """Oracle for filters.importance_resample: the importance_weights
    statement as a CTE, then the identical deterministic Gumbel key —
    rounded logw + (-ln(-ln((prefix + 0.5) / 2^52))) — and a window
    top-n_out on the unrounded key, ties → doc_id."""
    iw = importance_weights_sql(target_lang, n_buckets)
    s = salt.replace("'", "''")
    return f"""WITH iw AS ({iw}),
u AS (SELECT doc_id, logw,
             (CAST(('0x' || substr(md5('{s}:' || CAST(doc_id AS VARCHAR)),
                                   1, 13)) AS BIGINT) + 0.5)
               / 4503599627370496.0 AS uu
      FROM iw),
k AS (SELECT doc_id, logw, logw + (-ln(-ln(uu))) AS key FROM u),
r AS (SELECT doc_id, logw, key,
             row_number() OVER (ORDER BY key DESC, doc_id ASC) AS rank
      FROM k)
SELECT CAST(rank AS BIGINT) AS rank, doc_id, logw,
       floor(key * 1e6 + 0.5) / 1e6 AS key
FROM r WHERE rank <= {int(n_out)}"""


def term_heavy_hitters_sql(k: int = 2000) -> str:
    """Oracle for text_stats.term_heavy_hitters: exact grouped counts
    with the identical integer threshold (freq · k > T)."""
    return f"""WITH {tok_cte()},
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM toks)
SELECT term, CAST(COUNT(*) AS BIGINT) AS freq
FROM toks GROUP BY term
HAVING CAST(COUNT(*) AS BIGINT) * {int(k)} > (SELECT t FROM tot)"""


def vocab_stats_sql() -> str:
    """Oracle for text_stats.vocab_stats: identical decompositions —
    H = log2(T) − Σ c·log2(c)/T, α = 1 + n/Σ ln(c/0.5) — over exact
    grouped counts, shared floor rounding."""
    return f"""WITH {tok_cte()},
c AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY term),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(c) AS BIGINT) AS t,
               SUM(c * log2(c)) AS s_clog,
               SUM(ln(c / 0.5)) AS s_ln
        FROM c)
SELECT n AS n_types, t AS n_tokens,
       floor(n * 1.0 / greatest(t, 1) * 1e6 + 0.5) / 1e6
           AS type_token_ratio,
       floor((log2(greatest(t, 1)) - s_clog / greatest(t, 1)) * 1e6 + 0.5)
           / 1e6 AS entropy_bits,
       floor((1.0 + n / s_ln) * 1e6 + 0.5) / 1e6 AS zipf_alpha
FROM agg"""


def dedup_incremental_sql(mod: int = 2) -> str:
    """Oracle for dedup.dedup_incremental: NOT EXISTS anti-join on the
    content md5 between the incoming and baseline slices."""
    m = int(mod)
    return f"""WITH h AS (SELECT doc_id, md5(text) AS text_md5,
                  doc_id % {m} <> 0 AS is_new FROM documents)
SELECT n.doc_id, n.text_md5
FROM h n
WHERE n.is_new AND NOT EXISTS (
  SELECT 1 FROM h b WHERE NOT b.is_new AND b.text_md5 = n.text_md5)"""


def split_leakage_sql(w: int = 8, val_frac: float = 0.1,
                      test_frac: float = 0.1, salt: str = "split") -> str:
    """Oracle for filters.split_leakage: the identical salted md5-prefix
    split rule, exact gram STRINGS (the Ray side matches 64-bit gram
    hashes — this gate pins the no-collision stance), distinct leaked
    docs per eval split."""
    from .filters import _threshold_hex

    t_test = _threshold_hex(test_frac)
    t_val = _threshold_hex(test_frac + val_frac)
    return f"""WITH tagged AS (
  SELECT doc_id, text,
         CASE WHEN substr(md5('{salt}:' || CAST(doc_id AS VARCHAR)), 1, 4)
                   < '{t_test}' THEN 'test'
              WHEN substr(md5('{salt}:' || CAST(doc_id AS VARCHAR)), 1, 4)
                   < '{t_val}' THEN 'val'
              ELSE 'train' END AS split
  FROM documents),
wtoks AS (
  SELECT doc_id, split,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS w
  FROM tagged),
gpos AS (SELECT doc_id, split, w,
                unnest(generate_series(1, greatest(len(w) - {w - 1}, 0)))
                    AS i
         FROM wtoks),
gr AS (SELECT DISTINCT doc_id, split,
              array_to_string(w[i:i+{w - 1}], ' ') AS g
       FROM gpos),
tr AS (SELECT DISTINCT g FROM gr WHERE split = 'train'),
leaked AS (SELECT DISTINCT doc_id, split FROM gr
           WHERE split <> 'train' AND g IN (SELECT g FROM tr)),
counts AS (
  SELECT s.split, COUNT(t.doc_id) AS n
  FROM (VALUES ('test'), ('val')) s(split)
  LEFT JOIN tagged t ON t.split = s.split
  GROUP BY s.split)
SELECT c.split, CAST(c.n AS BIGINT) AS n_docs,
       CAST(COALESCE(l.n, 0) AS BIGINT) AS n_leaked
FROM counts c
LEFT JOIN (SELECT split, COUNT(*) AS n FROM leaked GROUP BY split) l
       USING (split)
ORDER BY split"""


def _bm25_ranked_sql(k: int, candidate_where: str = "",
                     grouped_by_lang: bool = False,
                     alive_where: str = "") -> str:
    """Shared BM25 rank stack for the serving-side oracle family
    (filtered / tombstoned / grouped / compacted): the
    :func:`search_topk_sql` scoring CTEs with an optional candidate
    restriction applied BEFORE ranking (collection stats stay
    corpus-global — what serving a full index through a candidate mask
    computes), optional per-lang rank partitioning, and an optional
    ``alive_where`` that restricts the CORPUS ITSELF (a shadowing
    ``documents`` CTE, so df/idf/avgdl/n_docs are recomputed over the
    survivors — what physical compaction computes). One definition — a
    scoring fix applies everywhere."""
    cfg = BuildConfig()
    rows, _ = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    where = f"WHERE {candidate_where}" if candidate_where else ""
    src = "alive_docs" if alive_where else "documents"
    alive = (f"alive_docs AS (SELECT * FROM documents WHERE {alive_where}),\n"
             if alive_where else "")
    if grouped_by_lang:
        ranked = """ranked AS (
    SELECT s.query_id, d.lang, s.doc_id, s.s,
           row_number() OVER (PARTITION BY s.query_id, d.lang
                              ORDER BY s.s DESC, s.doc_id ASC) AS rank
    FROM scores s JOIN documents d USING (doc_id)
)"""
        select = ("SELECT CAST(query_id AS BIGINT) AS query_id, lang,\n"
                  "       CAST(rank AS BIGINT) AS rank, doc_id, "
                  "ROUND(s, 6) AS score")
        tail = f"FROM ranked WHERE rank <= {k}\nORDER BY query_id, lang, rank"
    else:
        ranked = """ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)"""
        select = ("SELECT CAST(query_id AS BIGINT) AS query_id, "
                  "CAST(rank AS BIGINT) AS rank,\n"
                  "       doc_id, ROUND(s, 6) AS score")
        tail = f"FROM ranked WHERE rank <= {k}"
    return f"""WITH {alive}{tok_cte(src)},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM {src}) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM {src}) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    {where}
    GROUP BY q.query_id, tf.doc_id
),
{ranked}
{select}
{tail}"""


def search_topk_filtered_sql(lang: str | None = None,
                             k: int = 10) -> str:
    """Oracle for search_docs.search_topk_filtered: the shared BM25
    stack with candidates restricted to docs of ``lang`` (default:
    the pipeline's own FILTER_LANG) before ranking."""
    from .search_docs import FILTER_LANG

    lang = FILTER_LANG if lang is None else lang
    return _bm25_ranked_sql(
        k, candidate_where=("tf.doc_id IN (SELECT doc_id FROM documents "
                            f"WHERE lang = '{lang}')"))


def search_topk_tombstoned_sql(mod: int | None = None,
                               k: int = 10) -> str:
    """Oracle for search_docs.search_topk_tombstoned: the shared BM25
    stack with candidates restricted to NON-deleted docs (default
    delete set: the pipeline's own TOMB_MOD rule) while collection
    statistics keep the deleted docs — the tombstone contract."""
    from .search_docs import TOMB_MOD

    mod = TOMB_MOD if mod is None else int(mod)
    return _bm25_ranked_sql(k, candidate_where=f"tf.doc_id % {mod} <> 0")


def search_topk_compacted_sql(mod: int | None = None,
                              k: int = 10) -> str:
    """Oracle for search_docs.search_topk_compacted: the shared BM25
    stack over the CORPUS RESTRICTED to alive docs — df/idf/avgdl/
    n_docs recomputed over the survivors, what physical reclaim
    (compact_index) converges the statistics to. Contrast with the
    tombstoned oracle, which keeps stats corpus-global."""
    from .search_docs import TOMB_MOD

    mod = TOMB_MOD if mod is None else int(mod)
    return _bm25_ranked_sql(k, alive_where=f"doc_id % {mod} <> 0")


def search_topk_grouped_sql(k: int = 3) -> str:
    """Oracle for search_docs.search_topk_grouped: the shared BM25
    stack ranked per (query, lang)."""
    return _bm25_ranked_sql(k, grouped_by_lang=True)


def search_near_sql(queries: tuple | None = None) -> str:
    """Oracle for search_docs.search_near: per (a, b, window) query the
    min |pos_a − pos_b| per doc over the word-token positions (the
    filters family's tokenization, positions via the same
    generate_series indexing as the phrase oracle)."""
    from .search_docs import NEAR_QUERIES

    queries = queries or NEAR_QUERIES
    subs = []
    for a, b, w in queries:
        ea, eb = a.replace("'", "''"), b.replace("'", "''")
        label = f"{ea} ~{int(w)} {eb}"
        subs.append(f"""
SELECT '{label}' AS query, p1.doc_id,
       CAST(MIN(ABS(p1.pos - p2.pos)) AS BIGINT) AS dist
FROM tp p1 JOIN tp p2 USING (doc_id)
WHERE p1.term = '{ea}' AND p2.term = '{eb}'
GROUP BY p1.doc_id
HAVING MIN(ABS(p1.pos - p2.pos)) <= {int(w)}""")
    return f"""WITH {_word_toks_cte()},
tp AS (
    SELECT doc_id, i - 1 AS pos, w[i] AS term
    FROM wtoks, unnest(generate_series(1, len(w))) AS t(i)
)""" + "\nUNION ALL".join(subs)


def search_wildcard_sql(prefixes: tuple | None = None, k: int = 10) -> str:
    """Oracle for search_docs.search_wildcard: the full BM25 stack with
    each query's term set EXPANDED in SQL (df terms LIKE 'p%') — the
    same vocabulary the engine expands from its global lexicon."""
    from .search_docs import WILDCARD_QUERIES

    prefixes = prefixes or WILDCARD_QUERIES
    cfg = BuildConfig()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    pre_rows = ", ".join(
        f"({qi}, '{p.replace(chr(39), chr(39) * 2)}')"
        for qi, p in enumerate(prefixes))
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q AS (SELECT p.query_id, df.term
      FROM (VALUES {pre_rows}) p(query_id, pre)
      JOIN df ON df.term LIKE p.pre || '%'),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {k}"""


def search_bm25_prox_sql(n_cand: int = 30, k: int = 10,
                         bonus: float = 0.5) -> str:
    """Oracle for search_docs.search_bm25_prox: the full BM25 stack,
    candidates = top-``n_cand`` per query, min pair distance over the
    index-tokenization positions, final = s + bonus/(1+mind) on the
    shared floor(x*1e6+0.5)/1e6 grid."""
    cfg = BuildConfig()
    rows, _ = _query_values()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    cls = _regex_class().replace("'", "''")
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {rows}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
cand AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
),
itoks AS (
    SELECT doc_id,
           string_split_regex(trim(regexp_replace(lower(text),
                                                  '{cls}', ' ', 'g')),
                              ' +') AS w
    FROM documents
),
tp AS (
    SELECT doc_id, i - 1 AS pos, w[i] AS term
    FROM itoks, unnest(generate_series(1, len(w))) AS t(i)
    WHERE w[i] <> ''
),
prox AS (
    SELECT c.query_id, c.doc_id, MIN(ABS(p1.pos - p2.pos)) AS mind
    FROM cand c
    JOIN q qa ON qa.query_id = c.query_id
    JOIN q qb ON qb.query_id = c.query_id AND qa.term < qb.term
    JOIN tp p1 ON p1.doc_id = c.doc_id AND p1.term = qa.term
    JOIN tp p2 ON p2.doc_id = c.doc_id AND p2.term = qb.term
    WHERE c.rank <= {int(n_cand)}
    GROUP BY 1, 2
),
final AS (
    SELECT c.query_id, c.doc_id,
           c.s + COALESCE({bonus} / (1 + p.mind), 0.0) AS f
    FROM cand c LEFT JOIN prox p USING (query_id, doc_id)
    WHERE c.rank <= {int(n_cand)}
),
ranked AS (
    SELECT query_id, doc_id, f,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY f DESC, doc_id ASC) AS rank
    FROM final
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, floor(f * 1000000 + 0.5) / 1000000 AS score
FROM ranked WHERE rank <= {int(k)}"""


def search_fuzzy_sql(queries: tuple | None = None, k: int = 10,
                     max_dist: int = 1) -> str:
    """Oracle for search_docs.search_fuzzy: the full BM25 stack with
    each query's term set EXPANDED in SQL — every vocabulary term
    within ``levenshtein <= max_dist`` of any query word (DISTINCT:
    two words expanding to the same term score it once, like the
    engine's deduped token list)."""
    from .search_docs import FUZZY_SEARCH_QUERIES

    queries = queries or FUZZY_SEARCH_QUERIES
    cfg = BuildConfig()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    w_rows = ", ".join(
        f"({qi}, '{w.replace(chr(39), chr(39) * 2)}')"
        for qi, q in enumerate(queries) for w in sorted(set(q.split())))
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
q AS (SELECT DISTINCT w.query_id, df.term
      FROM (VALUES {w_rows}) w(query_id, word)
      JOIN df ON levenshtein(w.word, df.term) <= {int(max_dist)}),
scores AS (
    SELECT q.query_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    GROUP BY q.query_id, tf.doc_id
),
ranked AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (PARTITION BY query_id ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {int(k)}"""


def search_more_like_this_sql(seed_ids: tuple | None = None,
                              m_terms: int = 5, k: int = 10) -> str:
    """Oracle for search_docs.search_more_like_this: per seed doc, the
    top-m TF-IDF terms on the shared 6 dp grid (ties → term ASC) run as
    a disjunctive BM25 query with the seed anti-joined out of its own
    results — ONE statement for selection + retrieval."""
    from .search_docs import MLT_SEED_IDS

    seed_ids = seed_ids or MLT_SEED_IDS
    cfg = BuildConfig()
    expr = _bm25_score_expr(cfg.bm25_k1, cfg.bm25_b)
    seeds = ", ".join(f"({int(s)})" for s in sorted(set(seed_ids)))
    return f"""WITH {tok_cte()},
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n_docs,
                 (SELECT COUNT(*) FROM toks) * 1.0
                   / (SELECT COUNT(*) FROM documents) AS avgdl),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM toks GROUP BY term),
seeds(seed_id) AS (VALUES {seeds}),
cand AS (
    SELECT s.seed_id, tf.term,
           floor(tf.tf * log2((SELECT n_docs FROM stats) / df.df)
                 * 1e6 + 0.5) / 1e6 AS w
    FROM seeds s
    JOIN tf ON tf.doc_id = s.seed_id
    JOIN df ON df.term = tf.term),
q AS (
    SELECT seed_id, term FROM (
        SELECT seed_id, term,
               row_number() OVER (PARTITION BY seed_id
                                  ORDER BY w DESC, term ASC) AS rn
        FROM cand) WHERE rn <= {int(m_terms)}),
scores AS (
    SELECT q.seed_id, tf.doc_id, SUM({expr}) AS s
    FROM q
    JOIN tf ON tf.term = q.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id, stats
    WHERE tf.doc_id <> q.seed_id
    GROUP BY q.seed_id, tf.doc_id),
ranked AS (
    SELECT seed_id, doc_id, s,
           row_number() OVER (PARTITION BY seed_id
                              ORDER BY s DESC, doc_id ASC) AS rank
    FROM scores)
SELECT CAST(seed_id AS BIGINT) AS query_id, CAST(rank AS BIGINT) AS rank,
       doc_id, ROUND(s, 6) AS score
FROM ranked WHERE rank <= {int(k)}"""


def containment_pairs_sql(shingle: int = 3, thr_num: int = 4,
                          thr_den: int = 5,
                          max_df_frac: float = 0.05) -> str:
    """Oracle for dedup.containment_pairs: exact string-shingle
    containment with the identical df cap (common counted over capped
    shingles; set sizes uncapped) and integer threshold — pins the Ray
    side's 64-bit-hash no-collision stance like ngram_jaccard."""
    k = shingle
    pad_empty = "'" + " " * (k - 1) + "'"
    return f"""
WITH tl AS (
    SELECT doc_id,
           list_filter(string_split_regex(trim(text), '[ \t\n\r\x0b\x0c]+'),
                       x -> x <> '') AS toks
    FROM documents
),
sh AS (
    SELECT doc_id,
        CASE
            WHEN len(toks) = 0 THEN [{pad_empty}]
            WHEN len(toks) < {k} THEN
                [array_to_string(toks, ' ') || repeat(' ', {k} - len(toks))]
            ELSE list_distinct(list_transform(range(1, len(toks) - {k} + 2),
                     i -> array_to_string(toks[i : i + {k - 1}], ' ')))
        END AS s
    FROM tl
),
nn AS (SELECT GREATEST(16, CAST(floor(COUNT(*) * {max_df_frac}) AS BIGINT))
           AS max_df FROM documents),
ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
dfs AS (SELECT g, COUNT(*) AS df FROM ex GROUP BY g),
keep AS (SELECT ex.doc_id, ex.g FROM ex JOIN dfs USING (g)
         WHERE df >= 2 AND df <= (SELECT max_df FROM nn)),
pairs AS (
    SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
           CAST(COUNT(*) AS BIGINT) AS n_common
    FROM keep x JOIN keep y ON x.g = y.g AND x.doc_id < y.doc_id
    GROUP BY x.doc_id, y.doc_id
)
SELECT doc_a, doc_b, n_common,
       CAST(len(sa.s) AS BIGINT) AS n_a, CAST(len(sb.s) AS BIGINT) AS n_b
FROM pairs
JOIN sh sa ON sa.doc_id = doc_a
JOIN sh sb ON sb.doc_id = doc_b
WHERE n_common * {thr_den} >= {thr_num} * LEAST(len(sa.s), len(sb.s))"""


def search_hit_counts_sql() -> str:
    """Oracle for search_docs.search_hit_counts: exact OR / AND match
    counts per query — COUNT over docs matching ≥1 / all query terms
    (identical Python-normalizer query tokenization via _query_values);
    queries with no hits keep a zero row via the id scaffold."""
    rows, per_q = _query_values()
    ids = ", ".join(f"({qi})" for qi in per_q)
    return f"""WITH {tok_cte()},
dt AS (SELECT DISTINCT doc_id, term FROM toks),
q(query_id, term) AS (VALUES {rows}),
qt AS (SELECT query_id, CAST(COUNT(DISTINCT term) AS BIGINT) AS nt
       FROM q GROUP BY query_id),
m AS (
    SELECT q.query_id, dt.doc_id,
           CAST(COUNT(DISTINCT q.term) AS BIGINT) AS nmatch
    FROM q JOIN dt ON dt.term = q.term
    GROUP BY q.query_id, dt.doc_id),
agg AS (
    SELECT m.query_id,
           CAST(COUNT(*) AS BIGINT) AS n_or,
           CAST(COALESCE(SUM(CASE WHEN m.nmatch = qt.nt
                              THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_and
    FROM m JOIN qt USING (query_id)
    GROUP BY m.query_id),
ids(query_id) AS (VALUES {ids})
SELECT CAST(ids.query_id AS BIGINT) AS query_id,
       COALESCE(agg.n_or, 0) AS n_or,
       COALESCE(agg.n_and, 0) AS n_and
FROM ids LEFT JOIN agg ON agg.query_id = ids.query_id
ORDER BY ids.query_id"""


def term_df_drift_sql(k: int = 20, add_mod: int = 13, add_res: int = 3,
                      rm_res: int = 7, chg_mod: int = 11,
                      chg_res: int = 4) -> str:
    """Oracle for text_stats.term_df_drift: the corpus_diff version
    carve + per-side COUNT(DISTINCT doc_id) + the identical add-one
    log2 ratio on the shared 6 dp grid, ties → term ASC."""
    cls = _regex_class().replace("'", "''")
    drift = ("floor(abs(log2((COALESCE(n.df, 0) + 1.0) "
             "/ (COALESCE(o.df, 0) + 1.0))) * 1000000 + 0.5) / 1000000")
    return f"""WITH old_docs AS (
    SELECT doc_id, text FROM documents WHERE doc_id % {add_mod} <> {add_res}),
new_docs AS (
    SELECT doc_id,
           CASE WHEN doc_id % {chg_mod} = {chg_res}
                THEN text || ' [rev2]' ELSE text END AS text
    FROM documents WHERE doc_id % {add_mod} <> {rm_res}),
toks_old AS (
    SELECT doc_id, t.term
    FROM old_docs,
         unnest(string_split_regex(
             trim(regexp_replace(lower(text), '{cls}', ' ', 'g')),
             ' +')) AS t(term)
    WHERE t.term <> ''),
toks_new AS (
    SELECT doc_id, t.term
    FROM new_docs,
         unnest(string_split_regex(
             trim(regexp_replace(lower(text), '{cls}', ' ', 'g')),
             ' +')) AS t(term)
    WHERE t.term <> ''),
df_old AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
           FROM toks_old GROUP BY term),
df_new AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
           FROM toks_new GROUP BY term)
SELECT COALESCE(o.term, n.term) AS term,
       COALESCE(o.df, 0) AS df_old,
       COALESCE(n.df, 0) AS df_new,
       CASE WHEN COALESCE(n.df, 0) >= COALESCE(o.df, 0)
            THEN {drift} ELSE -({drift}) END AS drift
FROM df_old o FULL OUTER JOIN df_new n ON o.term = n.term
ORDER BY {drift} DESC, COALESCE(o.term, n.term) ASC
LIMIT {int(k)}"""
