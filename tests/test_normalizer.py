"""Normalizer goldens, ported from the reference's unit tests
(reference tests/test_normalizer.cpp) plus Porter2 spec vectors."""

import hashlib

import numpy as np
import pyarrow as pa

from searchenginepp_ray.config import FULL_PROFILE, SIMPLE_PROFILE, NormalizerProfile
from searchenginepp_ray.normalizer import (
    STOP_WORDS,
    fix_latin1_mojibake,
    looks_like_mojibake,
    lower_latin1,
    normalize_tokens,
    remove_punctuation,
    stem,
    term_frequencies,
)


def test_punctuation_length_preserving():
    # reference tests/test_normalizer.cpp:6-16
    original = "Ei fu. Siccome immobile,, dato il mortal sospiro ¶ paragrafo ⸻ inciso lungo ⸻ fine."
    expected = "Ei fu  Siccome immobile   dato il mortal sospiro    paragrafo     inciso lungo     fine "
    got = remove_punctuation(original)
    assert got == expected
    assert len(got.encode("utf8")) == len(original.encode("utf8"))


def test_full_pipeline_stemmed():
    # reference tests/test_normalizer.cpp:19-50 (stemmer branch)
    s = (
        "Twinkle, twinkle, little bat! How I wonder what you're at! "
        "Up above the world you fly, Like a tea-tray in the sky."
    )
    assert normalize_tokens(s, FULL_PROFILE) == [
        "twinkl", "twinkl", "littl", "bat", "wonder",
        "world", "like", "tea", "tray", "sky",
    ]


def test_full_pipeline_unstemmed():
    # reference tests/test_normalizer.cpp:29-33 (non-stemmer branch):
    # no stopword removal, only empty-token drop
    s = "Twinkle, twinkle, little bat! How I wonder what you're at!"
    assert normalize_tokens(s, SIMPLE_PROFILE) == [
        "twinkle", "twinkle", "little", "bat", "how", "i",
        "wonder", "what", "you", "re", "at",
    ]


def test_latin1_fix():
    # reference tests/test_normalizer.cpp:52-65
    original = "AntonÃ­n DvorÃ¡k (1841â1904) Antonin Dvorak was a son of butcher,"
    expected = "Antonín Dvorák (1841–1904) Antonin Dvorak was a son of butcher,"
    assert looks_like_mojibake(original)
    assert fix_latin1_mojibake(original) == expected
    assert not looks_like_mojibake("plain ascii text")


def test_latin1_lowercase():
    # reference tests/test_normalizer.cpp:67-83
    assert lower_latin1("ÈÉÊËÌÍÎÏÐÑÒÓÔÕÖØÙÚÛÜÝÀÇÙÆ") == "èéêëìíîïðñòóôõöøùúûüýàçùæ"
    assert (
        lower_latin1("ABCDEFGHIJKLMNOPQRSTUVWXYZ1234567890")
        == "abcdefghijklmnopqrstuvwxyz1234567890"
    )


def test_token_length_cap():
    # reference src/normalizer/WordNormalizer.cpp:64 — >240 bytes dropped
    long_tok = "z" * 241
    ok_tok = "z" * 240
    toks = normalize_tokens(f"hello {long_tok} {ok_tok} world", FULL_PROFILE)
    assert long_tok not in toks
    assert ok_tok in toks


def test_stopwords_only_with_stemming():
    assert "the" in STOP_WORDS and len(STOP_WORDS) > 1000
    assert normalize_tokens("the of and", FULL_PROFILE) == []
    assert normalize_tokens("the of and", SIMPLE_PROFILE) == ["the", "of", "and"]


def test_nbsp_does_not_split_tokens():
    # C++ istream>> splits on ASCII whitespace only; U+00A0 stays inside
    # the token (with latin1 fix off so the NBSP survives).
    profile = NormalizerProfile(stemming=False, fix_latin1=False, latin1_case=True)
    toks = normalize_tokens("foo bar baz", profile)
    assert toks == ["foo bar", "baz"]


def test_porter2_exceptions_and_vectors():
    vectors = {
        # spec exception lists
        "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
        "tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
        "early": "earli", "only": "onli", "singly": "singl",
        "sky": "sky", "news": "news", "howe": "howe", "atlas": "atlas",
        "cosmos": "cosmos", "bias": "bias", "andes": "andes",
        "inning": "inning", "outing": "outing", "canning": "canning",
        "herring": "herring", "earring": "earring",
        "proceed": "proceed", "exceed": "exceed", "succeed": "succeed",
        # step rules
        "ties": "tie", "cries": "cri", "gas": "gas", "gaps": "gap",
        "kiwis": "kiwi", "feed": "feed", "agreed": "agre",
        "hopping": "hop", "hoping": "hope", "caring": "care",
        "cats": "cat", "running": "run",
        "national": "nation", "rational": "ration",
        "generate": "generat", "general": "general",
        "happiness": "happi", "conditional": "condit",
        "controlling": "control", "controlled": "control",
        # reference golden stems (tests/test_normalizer.cpp:28)
        "twinkle": "twinkl", "little": "littl", "wonder": "wonder",
        "world": "world", "tea": "tea", "tray": "tray",
        "above": "abov", "fly": "fli",
    }
    bad = {w: (stem(w), e) for w, e in vectors.items() if stem(w) != e}
    assert not bad, bad


def test_term_frequencies_and_doclen():
    # "run" itself is a stopword (dropped pre-stem); "running"/"runs" stem
    # to "run" *after* the stopword check — ordering mirrors the reference
    # (src/normalizer/WordNormalizer.cpp:62-73).
    tf = term_frequencies("run running runs! the cat, a cat.", FULL_PROFILE)
    assert tf == {"run": 2, "cat": 2}
    assert sum(tf.values()) == 4  # doclen excludes stopwords


def test_batch_tokenizer_matches_scalar():
    """The vectorized batch tokenizer (normalizer/batch.py) must agree
    with the scalar per-doc pipeline on every profile, including mojibake,
    NUL bytes, multi-byte punctuation, latin1 case, and long tokens."""
    from searchenginepp_ray.config import NormalizerProfile, SIMPLE_PROFILE
    from searchenginepp_ray.normalizer.batch import tokenize_batch
    from searchenginepp_ray.sources.corpus_gen import generate_corpus

    texts = generate_corpus(200)["content"].to_pylist() + [
        "AntonÃ­n DvorÃ¡k Ã©tude «quoted» ¿pregunta? ÀÉÎÕÛ — dash",
        "nul\x00inside ÀBC \v\f\r tabs\tnewlines\n",
        "x" * 300 + " short ÉCOLE École ×Ø Þ",
        "",
        "   ",
        "MiXeD CaSe The THE tHe",
    ]
    profiles = [
        FULL_PROFILE,
        SIMPLE_PROFILE,
        NormalizerProfile(stemming=True, fix_latin1=False, latin1_case=False),
        NormalizerProfile(stemming=False, fix_latin1=True, latin1_case=True),
    ]
    # the same rows as a list, a two-chunk ChunkedArray and a slice with
    # a non-zero offset into a larger array
    inputs = [
        texts,
        pa.chunked_array([texts[:120], texts[120:]], pa.string()),
        pa.array(["Ã© skipped head", "x\x00y"] + texts, pa.string()).slice(2),
    ]
    for prof in profiles:
        for batch in inputs:
            doclens, terms, tfs = tokenize_batch(batch, prof)
            tl, fl = terms.to_pylist(), tfs.to_pylist()
            assert len(tl) == len(texts)
            for i, t in enumerate(texts):
                exp = sorted(term_frequencies(t, prof).items())
                assert list(zip(tl[i], fl[i])) == exp, (prof, type(batch), i)
                assert doclens[i] == sum(v for _, v in exp)


def test_batch_tokenizer_fuzz_unicode():
    """Property: the vectorized batch tokenizer agrees with the scalar
    pipeline on arbitrary unicode text (multi-byte chars, combining marks,
    random punctuation), both profiles."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from searchenginepp_ray.normalizer.batch import tokenize_batch

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(max_size=120), min_size=1, max_size=8))
    def check(texts):
        for prof in (FULL_PROFILE, SIMPLE_PROFILE):
            doclens, terms, tfs = tokenize_batch(texts, prof)
            tl, fl = terms.to_pylist(), tfs.to_pylist()
            for i, t in enumerate(texts):
                exp = sorted(term_frequencies(t, prof).items())
                assert list(zip(tl[i], fl[i])) == exp
                assert doclens[i] == sum(v for _, v in exp)

    check()


def _stem_pin_words() -> list[str]:
    """A generated syllable vocabulary, the code corpus vocabulary, and
    every Step 0-5 suffix appended to a set of generated stems."""
    from searchenginepp_ray.sources.corpus_gen import VOCAB

    rng = np.random.default_rng(20261018)
    cons = list("bcdfghjklmnpqrstvwxz") + ["th", "sh", "ch", "st", "tr", "bl", "y"]
    vows = list("aeiouy") + ["ee", "oo", "ea", "ai", "ie"]
    syl = np.array([c + v for c in cons for v in vows]
                   + [v + c for v in vows for c in cons], dtype=object)
    words = set()
    for n in (1, 2, 3, 4):
        picks = syl[rng.integers(0, len(syl), size=(4000, n))]
        words.update("".join(row) for row in picks)
    words.update(w.lower() for w in VOCAB)
    suffixes = (
        "'s' 's ' sses ied ies us ss s eedly eed ingly edly ing ed y "
        "ization ational fulness ousness iveness tional biliti lessli entli "
        "ation alism aliti ousli iviti fulli enci anci abli izer ator alli "
        "bli ogi logi li cli alize icate iciti ical ful ness ative ement "
        "ance ence able ible ment ant ent ism ate iti ous ive ize al er ic "
        "ion sion tion e l ll"
    ).split()
    stems = ["gener", "commun", "arsen", "bat", "hop", "cry", "fly", "sky",
             "y", "ay", "oy", "a", "be", "tri"]
    stems += list(dict.fromkeys(
        "".join(r) for r in syl[rng.integers(0, len(syl), size=(300, 2))]))
    words.update(s + suf for s in stems for suf in suffixes)
    words.update("'" + w for w in sorted(words)[:500])
    return sorted(words)


def test_porter2_stem_pin():
    """The stems of 36k generated words hash to the digest recorded from
    the list-scanning suffix steps the tail lookups replaced."""
    from searchenginepp_ray.normalizer.porter2 import stem_uncached

    words = _stem_pin_words()
    h = hashlib.sha256()
    for w in words:
        h.update(f"{w}\t{stem_uncached(w)}\n".encode("utf8"))
    assert len(words) == 36310
    assert h.hexdigest() == (
        "6bb3822806ff8baa40c7d7a0b7a1cde20e758df97dff1e0e225d63fdf3e63cca")


def test_stem_memo_at_cap(monkeypatch):
    """The build-side Arrow memo answers known words from the memo and
    new words through the stemmer; once at its cap it stops growing but
    keeps stemming correctly."""
    from searchenginepp_ray.normalizer import batch
    from searchenginepp_ray.normalizer.porter2 import stem_uncached

    known = ["running", "nations", "happiness"]
    monkeypatch.setattr(batch, "_MEMO_SURFACE", pa.array(known, pa.string()))
    monkeypatch.setattr(batch, "_MEMO_STEM", pa.array(
        [stem_uncached(w) for w in known], pa.string()))
    monkeypatch.setattr(batch, "_CACHE_MAX", 5)
    words = ["generously", "running", "cats", "happiness", "flying",
             "conditional", "nations"]
    for _ in range(2):
        got = batch._stem_vocab(pa.array(words, pa.string())).to_pylist()
        assert got == [stem_uncached(w) for w in words]
        assert batch._MEMO_SURFACE.to_pylist() == known + ["generously", "cats"]
        assert batch._MEMO_STEM.to_pylist() == [
            stem_uncached(w) for w in batch._MEMO_SURFACE.to_pylist()]
