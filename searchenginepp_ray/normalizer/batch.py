"""Columnar (Arrow/numpy) batch tokenizer — the build-time hot path.

Semantics are identical to the scalar :func:`..word_normalizer.term_frequencies`
applied per document (pinned by
``tests/test_normalizer.py::test_batch_tokenizer_matches_scalar``). The
documents stay one Arrow string array from input to output; a document,
token or vocabulary word becomes a Python string only when it carries
mojibake or misses the stem memo:

1. bytes: mojibake docs are found by ``searchsorted`` of the
   ``C2 [80-A0|AD]`` hits into the offsets, fixed in Python (rare) and
   spliced back; then one numpy pass over the whole value buffer maps
   punctuation → spaces and lowercases (their domains are disjoint —
   asserted below). Every mapping keeps the byte length, so the offsets
   are kept;
2. Arrow: split on ASCII whitespace, flatten, dictionary-encode the token
   stream, stopword/length filter on the vocabulary;
3. Arrow: stem the kept vocabulary through a process-level surface → stem
   memo of two Arrow string arrays (``pc.index_in``); only misses reach
   Python (:func:`..porter2.stem_uncached`). Equal stems collapse with
   ``dictionary_encode`` + ``array_sort_indices``;
4. numpy: count (doc, term) pairs, rebuild per-doc term-sorted
   ``terms``/``tfs`` lists and doclens.

Reference pipeline being reproduced: src/normalizer/WordNormalizer.cpp:30-85
(punctuation src/normalizer/PunctuationRemover.cpp:17-33, latin1
src/normalizer/utf8_utils.cpp:6-58, stopwords src/normalizer/stop_words.cpp,
Snowball english stemmer src/normalizer/WordNormalizer.cpp:12-18).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import NormalizerProfile
from .latin1 import _LOWER_TABLE, fix_latin1_mojibake
from .porter2 import _CACHE_MAX, stem_uncached
from .punctuation import _TRANSLATE_TABLE, PUN_1_BYTE, PUN_2_BYTE, PUN_3_BYTE
from .stop_words import STOP_WORDS

# punctuation marks and uppercase letters are disjoint code-point sets, so
# punctuation→spaces and lowercase compose into one translate table
assert not (set(_TRANSLATE_TABLE) & set(_LOWER_TABLE))

_STOPWORDS_ARR = pa.array(sorted(STOP_WORDS), pa.string())

# ---- byte-level translate (the reference itself operates on UTF-8 bytes) ----
# ASCII positions (punct-1B marks + \v\f\r → space, A-Z → a-z) are safe to
# map byte-wise on UTF-8: continuation bytes are ≥ 0x80 and lead bytes
# ≥ 0xC0, so no multi-byte sequence contains a mapped byte.  \v\f\r join
# \n\t in mapping to ' ' (all C-locale whitespace ⇒ token boundaries
# unchanged) so the later split is on a single literal space. The ASCII
# part is identical for both lowercase profiles.
_TBL_NP = np.arange(256, dtype=np.uint8)
_TBL_NP[[ord(c) for c in (*PUN_1_BYTE, *"\v\f\r")]] = 0x20
_TBL_NP[ord("A"):ord("Z") + 1] += 0x20

# ---- vectorized multi-byte passes --------------------------------------
# The 2/3-byte punctuation marks and latin1-uppercase pairs are replaced
# IN PLACE on the translated copy with numpy instead of regex-alternation
# ``re.sub`` (which scans byte-by-byte through each of the ~55 branches).
# Correctness relies on UTF-8 self-synchronization: lead bytes (>= 0xC2)
# never appear as continuation bytes, so every candidate position is a
# true sequence start, exact whole-sequence equality matches are disjoint,
# and the same-length space replacement cannot create new matches —
# byte-for-byte the result of the reference's sequential scan
# (src/normalizer/PunctuationRemover.cpp:17-33).
_P2_SEQS = [c.encode("utf8") for c in PUN_2_BYTE]
_P3_SEQS = [c.encode("utf8") for c in PUN_3_BYTE]
assert all(len(s) == 2 for s in _P2_SEQS) and all(len(s) == 3 for s in _P3_SEQS)

_P2_LEADS = np.array(sorted({s[0] for s in _P2_SEQS}), np.uint8)
_P2_CODES = np.array(sorted((s[0] << 8) | s[1] for s in _P2_SEQS), np.uint16)
_P3_LEADS = np.array(sorted({s[0] for s in _P3_SEQS}), np.uint8)
_P3_CODES = np.array(
    sorted((s[0] << 16) | (s[1] << 8) | s[2] for s in _P3_SEQS), np.uint32
)
assert not (set(_P2_LEADS.tolist()) | set(_P3_LEADS.tolist())) & {0xC2, 0xC3} - {0xC2}


def _translate_blob(blob: np.ndarray, latin1_case: bool) -> np.ndarray:
    """Punctuation → spaces and lowercase over UTF-8 bytes, into a new
    writable array of the same length (every mapping is byte-length
    preserving, so the caller keeps its offsets)."""
    arr = _TBL_NP[blob]
    lead_pos = np.flatnonzero(arr >= 0xC2)  # all mark/case leads are >= C2
    if len(lead_pos) == 0:
        return arr
    n = len(arr)
    leads = arr[lead_pos]

    p2 = lead_pos[np.isin(leads, _P2_LEADS) & (lead_pos + 1 < n)]
    if len(p2):
        u16 = (arr[p2].astype(np.uint16) << 8) | arr[p2 + 1]
        hit = p2[np.isin(u16, _P2_CODES)]
        arr[hit] = 0x20
        arr[hit + 1] = 0x20

    p3 = lead_pos[np.isin(leads, _P3_LEADS) & (lead_pos + 2 < n)]
    if len(p3):
        u32 = (
            (arr[p3].astype(np.uint32) << 16)
            | (arr[p3 + 1].astype(np.uint32) << 8)
            | arr[p3 + 2]
        )
        hit = p3[np.isin(u32, _P3_CODES)]
        arr[hit] = 0x20
        arr[hit + 1] = 0x20
        arr[hit + 2] = 0x20

    if latin1_case:
        # latin1 uppercase U+00C0-00DF = bytes C3 80-9F; +0x20 on the
        # trailing byte is the reference's lowercase arithmetic
        # (src/normalizer/utf8_utils.cpp:40-58)
        pl = lead_pos[(leads == 0xC3) & (lead_pos + 1 < n)]
        if len(pl):
            trail = arr[pl + 1]
            hit = pl[(trail >= 0x80) & (trail <= 0x9F)]
            arr[hit + 1] += 0x20
    return arr


def string_array(texts) -> pa.StringArray:
    """The documents as one ``string`` array: a list is wrapped once, a
    ``ChunkedArray`` combined, ``large_string`` cast; a null document
    reads as empty."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(texts, pa.string())
    if texts.type != pa.string():
        texts = texts.cast(pa.string())
    if texts.null_count:
        texts = pc.fill_null(texts, "")
    return texts


def value_bytes(arr: pa.StringArray) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, values)`` of a string array: its ``len + 1`` offsets
    as int64 rebased to 0, and a zero-copy ``uint8`` view of the value
    bytes they index (the array's own offset honoured)."""
    _, off_buf, data = arr.buffers()
    offs = np.frombuffer(off_buf, np.int32, len(arr) + 1, arr.offset * 4)
    offs = offs.astype(np.int64)
    base = offs[0]
    if data is None:
        return offs - base, np.empty(0, np.uint8)
    return offs - base, np.frombuffer(data, np.uint8)[base:offs[-1]]


def _mojibake_doc_ids(vals: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Indices of the docs whose bytes contain the latin1-double-encoding
    indicator ``C2 [80-A0 | AD]`` — exactly the docs where
    :func:`looks_like_mojibake` fires: the hits' positions located in the
    offsets with one ``searchsorted`` instead of a per-doc regex. A C2
    lead is never a doc's last byte in valid UTF-8, so a pair never
    straddles two docs."""
    c2 = np.flatnonzero(vals[:-1] == 0xC2)
    nxt = vals[c2 + 1]
    hits = c2[((nxt >= 0x80) & (nxt <= 0xA0)) | (nxt == 0xAD)]
    return np.unique(np.searchsorted(offs, hits, side="right") - 1)


def _prepare(arr: pa.StringArray, profile: NormalizerProfile) -> pa.StringArray:
    """Mojibake fix (rare docs only, in Python) then the byte-level
    translate over the whole value buffer, keeping its offsets."""
    offs, vals = value_bytes(arr)
    if profile.fix_latin1:
        moji = _mojibake_doc_ids(vals, offs)
        if len(moji):
            mask = np.zeros(len(arr), dtype=bool)
            mask[moji] = True
            fixed = [fix_latin1_mojibake(arr[int(i)].as_py()) for i in moji]
            arr = pc.replace_with_mask(arr, pa.array(mask),
                                       pa.array(fixed, pa.string()))
            offs, vals = value_bytes(arr)
    blob = _translate_blob(vals, profile.latin1_case)
    return pa.StringArray.from_buffers(
        len(arr), pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(blob))


#: build-side stem memo: surface → stem as two aligned Arrow string
#: arrays, so a warm build stems its vocabulary without Python strings
_MEMO_SURFACE = pa.array([], pa.string())
_MEMO_STEM = pa.array([], pa.string())


def _stem_vocab(words: pa.StringArray) -> pa.Array:
    """Stem distinct ``words`` through the Arrow memo (``pc.index_in``);
    only the misses reach Python (:func:`stem_uncached`) and join the
    memo, up to its ``_CACHE_MAX`` entries."""
    global _MEMO_SURFACE, _MEMO_STEM
    stems = _MEMO_STEM.take(pc.index_in(words, value_set=_MEMO_SURFACE))
    if not stems.null_count:
        return stems
    miss = stems.is_null()
    new = words.filter(miss)
    new_stems = pa.array([stem_uncached(w) for w in new.to_pylist()], pa.string())
    room = _CACHE_MAX - len(_MEMO_SURFACE)
    if room > 0:
        _MEMO_SURFACE = pa.concat_arrays([_MEMO_SURFACE, new[:room]])
        _MEMO_STEM = pa.concat_arrays([_MEMO_STEM, new_stems[:room]])
    return pc.replace_with_mask(stems, miss, new_stems)


def sorted_codes(values: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """``(codes, vocab)``: the distinct values in sorted order and each
    value's position in them — Arrow's ``dictionary_encode`` with its
    dictionary reordered by ``array_sort_indices``. UTF-8 byte order is
    code-point order, the reference's ``std::map`` term order."""
    de = values.dictionary_encode()
    order = np.asarray(pc.array_sort_indices(de.dictionary))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[np.asarray(de.indices)], de.dictionary.take(pa.array(order))


_TOK_SCRATCH: dict[str, np.ndarray] = {}


def _tok_scratch(name: str, n: int, dtype) -> np.ndarray:
    """Grow-only per-process scratch — fresh multi-MB temporaries pay
    ~100 µs/page first-touch on fault-pathological hosts, so the hot
    token-stream arrays are reused across batches (same pattern as
    ``pipelines.dedup._scratch_u64``)."""
    buf = _TOK_SCRATCH.get(name)
    if buf is None or buf.size < n:
        buf = np.empty(max(n + n // 4, 1024), dtype=dtype)
        _TOK_SCRATCH[name] = buf
    return buf[:n]


def _empty_term_lists(n: int):
    empty_terms = pa.ListArray.from_arrays(
        np.zeros(n + 1, dtype=np.int32), pa.array([], pa.string())
    )
    empty_tfs = pa.ListArray.from_arrays(
        np.zeros(n + 1, dtype=np.int32), pa.array([], pa.uint32())
    )
    return np.zeros(n, dtype=np.uint64), empty_terms, empty_tfs


def _mapped_stream(texts, profile: NormalizerProfile):
    """Shared vectorized head of :func:`tokenize_batch` /
    :func:`ordered_tokens_batch`: prepare → split → dictionary-encode the
    token stream, run every per-token filter (empties, stopwords, the
    240-byte cap — ``token.size() > 240``, WordNormalizer.cpp:64) and the
    stemmer on the VOCABULARY only, and return the stream as dictionary
    codes plus the code→final-term mapping.

    Returns ``None`` when the batch has no tokens or no surviving terms,
    else ``(tok_counts, codes, full_map, final_vocab_pa, n_terms)`` where
    ``full_map[raw code]`` is the final term code (dropped codes map to
    the sentinel ``n_terms``, which sorts after every real term).
    """
    arr = _prepare(string_array(texts), profile)
    # all C-locale whitespace was mapped to ' ' in the translate pass, so a
    # literal split suffices; empties from runs of spaces are filtered below
    toks = pc.split_pattern(arr, " ")
    flat = pc.list_flatten(toks)
    if len(flat) == 0:
        return None

    de = flat.dictionary_encode()
    codes = np.asarray(de.indices)  # int32, zero-copy (no nulls)
    vocab_pa = de.dictionary

    # vocabulary-sized keep mask (the reference's per-token filters)
    vlen = pc.binary_length(vocab_pa)
    keep = pc.not_equal(vlen, 0)
    if profile.stemming:
        keep = pc.and_(keep, pc.invert(pc.is_in(vocab_pa, value_set=_STOPWORDS_ARR)))
        keep = pc.and_(keep, pc.less_equal(vlen, 240))
    kept_idx = np.flatnonzero(np.asarray(keep))
    kept = vocab_pa.take(pa.array(kept_idx))
    if profile.stemming:
        kept = _stem_vocab(kept)
    # collapse stem-equal tokens into the sorted final vocabulary
    stem_code, final_vocab = sorted_codes(kept)
    n_terms = len(final_vocab)
    if n_terms == 0:
        return None

    # raw dictionary code -> final term code, dropped codes -> sentinel
    full_map = np.full(len(vocab_pa), n_terms, dtype=np.int64)
    full_map[kept_idx] = stem_code
    tok_counts = np.asarray(pc.list_value_length(toks)).astype(np.int64)
    return tok_counts, codes, full_map, final_vocab, n_terms


def ordered_tokens_batch(texts, profile: NormalizerProfile):
    """Normalized token stream per document, ORDER-PRESERVING — the batch
    twin of :func:`..word_normalizer.normalize_tokens` (equality pinned by
    ``tests/test_normalizer.py``). Same vectorized head as
    :func:`tokenize_batch`; the per-doc streams are rebuilt by one C-speed
    ``take`` through the dictionary codes instead of per-row Python.

    Returns a ``LargeListArray`` of ``string`` with one list per input doc.
    """
    n = len(texts)
    ms = _mapped_stream(texts, profile)
    if ms is None:
        return pa.LargeListArray.from_arrays(
            np.zeros(n + 1, dtype=np.int64), pa.array([], pa.string())
        )
    tok_counts, codes, full_map, final_vocab_pa, n_terms = ms
    stream = full_map[codes]  # final term code per token, stream order
    keep = stream < n_terms
    kept_codes = stream[keep]
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), tok_counts)
    kept_per_doc = np.bincount(doc_idx[keep], minlength=n)
    offsets = np.concatenate(([0], np.cumsum(kept_per_doc))).astype(np.int64)
    values = final_vocab_pa.take(pa.array(kept_codes, pa.int64()))
    return pa.LargeListArray.from_arrays(offsets, values)


class Tokenized(NamedTuple):
    """:func:`tokenize_codes` output: the (doc, term) pair codes the
    per-doc lists are built from. ``pair_doc`` is non-decreasing,
    ``pair_term`` indexes the sorted ``vocab`` and ``tf`` counts each
    pair's occurrences; pairs are (doc, term)-sorted. ``pos`` (positional
    tokenizing only) holds every pair's ``tf`` occurrence positions,
    flat, in pair order."""

    doclens: np.ndarray
    pair_doc: np.ndarray
    pair_term: np.ndarray
    tf: np.ndarray
    pos: np.ndarray | None
    vocab: pa.Array


def tokenize_codes(texts, profile: NormalizerProfile,
                   positions: bool = False) -> Tokenized:
    """The tokenizer core behind :func:`tokenize_batch` and
    :func:`tokenize_batch_positions`; index builds call it directly and
    keep the pair codes, so no term string is gathered per posting.

    The stream-sized work is one Arrow dictionary-encode, one in-place
    int64 sort and a run-length pass on reused scratch; every filter and
    the stemmer run on the VOCABULARY only (see :func:`_mapped_stream`),
    then fan back out through the dictionary codes. Dropped tokens map to
    a sentinel code that sorts past the real terms of each doc and is cut
    after the run-length pass — no stream-sized boolean filter copies.

    With ``positions`` the sort is a stable argsort instead: a token's
    position is its pre-sort stream order, which the in-place sort
    discards, so positional builds pay one extra stream-sized
    permutation.
    """
    n = len(texts)
    ms = _mapped_stream(texts, profile)
    if ms is None:
        none = np.zeros(0, dtype=np.int64)
        return Tokenized(np.zeros(n, dtype=np.uint64), none, none, none,
                         np.zeros(0, dtype=np.uint32) if positions else None,
                         pa.array([], pa.string()))
    tok_counts, codes, full_map, final_vocab, n_terms = ms
    width = n_terms + 1
    pos = None
    if positions:
        stream = full_map[codes]  # final term code per token, stream order
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), tok_counts)
        keep = stream < n_terms
        kd = doc_idx[keep]
        kept_per_doc = np.bincount(kd, minlength=n)
        doc_offs = np.concatenate(([0], np.cumsum(kept_per_doc))).astype(np.int64)
        # kd is non-decreasing, so position-within-doc is one subtraction
        pos = (np.arange(len(kd), dtype=np.int64) - doc_offs[kd]).astype(np.uint32)
        key = kd * width + stream[keep]
        order = np.argsort(key, kind="stable")  # keeps stream order per pair
        key = key[order]
        # flat positions, (doc, term, stream order) sorted
        pos = pos[order]
    else:
        # (doc, term) pair counts via one in-place sort + run-length
        # encode on scratch, sorted by (doc, term-code) == per-doc
        # term-sorted order
        key = _tok_scratch("key", len(codes), np.int64)
        np.take(full_map, codes, out=key)
        key += np.repeat(np.arange(n, dtype=np.int64) * width, tok_counts)
        key.sort()
    n_tok = len(key)
    change = _tok_scratch("chg", n_tok, bool)
    change[0] = True
    np.not_equal(key[1:], key[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    pair_key = key[starts]
    tf = np.diff(np.append(starts, n_tok))
    pair_doc = pair_key // width
    pair_term = pair_key - pair_doc * width
    real = pair_term < n_terms  # cut the per-doc sentinel runs
    pair_doc, pair_term, tf = pair_doc[real], pair_term[real], tf[real]
    doclens = np.bincount(pair_doc, weights=tf, minlength=n).astype(np.uint64)
    return Tokenized(doclens, pair_doc, pair_term, tf, pos, final_vocab)


def _term_lists(t: Tokenized):
    """Per-doc term-sorted term and tf lists of a :class:`Tokenized`
    (the term strings gathered Arrow-side with one C-speed ``take``)."""
    n = len(t.doclens)
    if len(t.vocab) == 0:
        return _empty_term_lists(n)
    pairs_per_doc = np.bincount(t.pair_doc, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(pairs_per_doc))).astype(np.int64)
    terms_list = pa.LargeListArray.from_arrays(
        offsets, t.vocab.take(pa.array(t.pair_term, pa.int64())))
    tfs_list = pa.LargeListArray.from_arrays(offsets, pa.array(t.tf, pa.uint32()))
    return t.doclens, terms_list, tfs_list


def tokenize_batch(texts, profile: NormalizerProfile):
    """Tokenize a batch of documents (a list of ``str``, or an Arrow
    string array or ``ChunkedArray``).

    Returns ``(doclens, term_lists, tf_lists)`` where ``doclens`` is an
    ``np.uint64`` array and the lists are Arrow ``ListArray``s of per-doc
    term-sorted unique terms and their frequencies — the same content as
    ``sorted(term_frequencies(text).items())`` per doc.
    """
    return _term_lists(tokenize_codes(texts, profile))


def tokenize_batch_positions(texts, profile: NormalizerProfile):
    """Position-carrying twin of :func:`tokenize_batch` for POSITIONAL
    index builds: additionally returns, per document, the 0-based token
    positions (within the document's KEPT, normalized token stream) of
    every posting's occurrences — laid out flat in (term, occurrence)
    order, so the slice for term ``i`` of a doc is the ``tf[i]``
    consecutive ascending positions after ``sum(tf[:i])``; the per-doc
    flat length is exactly ``doclen``.

    Returns ``(doclens, term_lists, tf_lists, pos_lists)``; the first
    three are element-identical to :func:`tokenize_batch`'s output
    (pytest-pinned).
    """
    t = tokenize_codes(texts, profile, positions=True)
    doc_offs = np.concatenate(([0], np.cumsum(t.doclens.astype(np.int64))))
    return (*_term_lists(t),
            pa.LargeListArray.from_arrays(doc_offs, pa.array(t.pos, pa.uint32())))
