"""Porter2 (Snowball "english") stemmer, pure Python.

Implemented from the published Snowball English stemmer specification
(snowballstem.org, "The English (Porter2) stemming algorithm"). The
reference engine stems with libstemmer's ``english`` stemmer
(reference src/normalizer/WordNormalizer.cpp:12-18, 68-73), which is the
same algorithm, so stems are identical. No stemmer wheel is available in
this environment, hence the from-spec implementation.

Each suffix step looks its suffix up by the word's tail — one dict
lookup by the word's last two letters, then ``str.endswith`` over the
few suffixes that end in them, longest first — instead of scanning the
step's whole suffix list. Wherever two suffixes of a step overlap the
longer one wins, as the spec's "longest suffix" rule asks.

The module-level :func:`stem` is memoized per process (the query-side
memo). Index builds stem their vocabulary through the Arrow memo in
:mod:`.batch`, which calls :func:`stem_uncached` for its misses only.
"""

from __future__ import annotations

import re

VOWELS = frozenset("aeiouy")
DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
LI_ENDINGS = frozenset("cdeghkmnrt")

_EXCEPTIONS1 = {
    "skis": "ski", "skies": "sky",
    "dying": "die", "lying": "lie", "tying": "tie",
    "idly": "idl", "gently": "gentl", "ugly": "ugli", "early": "earli",
    "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe",
    "atlas": "atlas", "cosmos": "cosmos", "bias": "bias", "andes": "andes",
}

_EXCEPTIONS2 = frozenset((
    "inning", "outing", "canning", "herring", "earring",
    "proceed", "exceed", "succeed",
))

_STEP2_SUFFIXES = (
    # (suffix, replacement) — longest-match order is handled by sorting
    ("ization", "ize"), ("ational", "ate"), ("fulness", "ful"),
    ("ousness", "ous"), ("iveness", "ive"), ("tional", "tion"),
    ("biliti", "ble"), ("lessli", "less"), ("entli", "ent"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("ousli", "ous"),
    ("iviti", "ive"), ("fulli", "ful"), ("enci", "ence"), ("anci", "ance"),
    ("abli", "able"), ("izer", "ize"), ("ator", "ate"), ("alli", "al"),
    ("bli", "ble"),
)

_STEP3_SUFFIXES = (
    ("ational", "ate"), ("tional", "tion"), ("alize", "al"),
    ("icate", "ic"), ("iciti", "ic"), ("ical", "ic"),
    ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic",
)


def _by_tail(pairs) -> dict[str, tuple[tuple[str, str], ...]]:
    """``{last two letters: ((suffix, replacement), ...)}``, each tuple
    longest suffix first. Every suffix has at least two letters."""
    out: dict[str, list[tuple[str, str]]] = {}
    for suf, rep in sorted(pairs, key=lambda p: -len(p[0])):
        out.setdefault(suf[-2:], []).append((suf, rep))
    return {tail: tuple(sufs) for tail, sufs in out.items()}


_STEP1B = _by_tail((("eedly", "ee"), ("eed", "ee"), ("ingly", ""),
                    ("edly", ""), ("ing", ""), ("ed", "")))
_STEP2 = _by_tail(_STEP2_SUFFIXES)
_STEP3 = _by_tail(_STEP3_SUFFIXES)
_STEP4 = _by_tail((suf, "") for suf in _STEP4_SUFFIXES)


def _longest_suffix(word: str, table) -> tuple[int, str] | None:
    """``(length, replacement)`` of the longest suffix of ``word`` in a
    :func:`_by_tail` table, or None: one dict lookup by the word's last
    two letters, then ``endswith`` over the few suffixes sharing them."""
    for suf, rep in table.get(word[-2:], ()):
        if word.endswith(suf):
            return len(suf), rep
    return None


# a vowel followed by a non-vowel; R1 and R2 end just after the first
# one (R1 after one of the special prefixes, if the word starts with it)
_VOWEL_NONVOWEL = re.compile("[aeiouy][^aeiouy]")
_R1 = re.compile("gener|commun|arsen|[^aeiouy]*[aeiouy]+[^aeiouy]")


def _compute_r1(word: str) -> int:
    """R1 = region after the first non-vowel following a vowel; with the
    spec's special prefixes gener-, commun-, arsen-."""
    m = _R1.match(word)
    return m.end() if m else len(word)


def _compute_r2(word: str, r1: int) -> int:
    m = _VOWEL_NONVOWEL.search(word, r1)
    return m.end() if m else len(word)


def _ends_short_syllable(word: str) -> bool:
    """Short syllable: (a) non-vowel + vowel + non-vowel(≠ w,x,Y) at the
    end, or (b) vowel + non-vowel at the very beginning of the word."""
    n = len(word)
    if n == 2:
        return word[0] in VOWELS and word[1] not in VOWELS
    if n >= 3:
        c1, c2, c3 = word[-3], word[-2], word[-1]
        return (
            c1 not in VOWELS
            and c2 in VOWELS
            and c3 not in VOWELS
            and c3 not in "wxY"
        )
    return False


def _is_short(word: str, r1: int) -> bool:
    return r1 >= len(word) and _ends_short_syllable(word)


def _contains_vowel(part: str) -> bool:
    return any(c in VOWELS for c in part)


def stem_uncached(word: str) -> str:
    if len(word) <= 2:
        return word

    # Strip a leading apostrophe (spec prelude)
    if word[0] == "'":
        word = word[1:]
        if len(word) <= 2:
            return word

    if word in _EXCEPTIONS1:
        return _EXCEPTIONS1[word]

    # Mark consonant-y: initial y, or y after a vowel, is a consonant (Y)
    if "y" in word:
        chars = list(word)
        if chars[0] == "y":
            chars[0] = "Y"
        for i in range(1, len(chars)):
            if chars[i] == "y" and chars[i - 1] in VOWELS:
                chars[i] = "Y"
        word = "".join(chars)

    r1 = _compute_r1(word)
    r2 = _compute_r2(word, r1)

    # Step 0: longest of  '  's  's'
    if "'" in word:
        for suf in ("'s'", "'s", "'"):
            if word.endswith(suf):
                word = word[: -len(suf)]
                break

    # Step 1a
    if word.endswith("s"):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-3] + ("i" if len(word) > 4 else "ie")
        elif word.endswith(("us", "ss")):
            pass
        # delete the s if the preceding word part contains a vowel not
        # immediately before the s
        elif _contains_vowel(word[:-2]):
            word = word[:-1]
    elif word.endswith("ied"):
        word = word[:-3] + ("i" if len(word) > 4 else "ie")

    if word in _EXCEPTIONS2:
        return word

    # Step 1b: eed/eedly (replacement "ee") need R1; ed/edly/ing/ingly
    # (replacement "") need a vowel before them
    m = _longest_suffix(word, _STEP1B)
    if m is not None:
        k, rep = m
        if rep:
            if len(word) - k >= r1:
                word = word[:-k] + rep
        elif _contains_vowel(word[:-k]):
            word = word[:-k]
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif word.endswith(DOUBLES):
                word = word[:-1]
            elif _is_short(word, r1):
                word += "e"

    # Step 1c: y/Y → i if preceded by a non-vowel which is not word-initial
    if (
        len(word) > 2
        and word[-1] in "yY"
        and word[-2] not in VOWELS
    ):
        word = word[:-1] + "i"

    # Step 2 (suffix must lie in R1)
    m = _longest_suffix(word, _STEP2)
    if m is not None:
        k, rep = m
        if len(word) - k >= r1:
            word = word[:-k] + rep
    else:
        if word.endswith("ogi"):
            if len(word) - 3 >= r1 and len(word) >= 4 and word[-4] == "l":
                word = word[:-1]
        elif word.endswith("li"):
            if len(word) - 2 >= r1 and len(word) >= 3 and word[-3] in LI_ENDINGS:
                word = word[:-2]

    # Step 3 (suffix in R1; "ative" additionally requires R2)
    m = _longest_suffix(word, _STEP3)
    if m is not None:
        k, rep = m
        if len(word) - k >= r1:
            word = word[:-k] + rep
    else:
        if word.endswith("ative"):
            if len(word) - 5 >= r1 and len(word) - 5 >= r2:
                word = word[:-5]

    # Step 4 (suffix in R2)
    m = _longest_suffix(word, _STEP4)
    if m is not None:
        k = m[0]
        if len(word) - k >= r2:
            word = word[:-k]
    else:
        if word.endswith("ion"):
            if len(word) - 3 >= r2 and len(word) >= 4 and word[-4] in "st":
                word = word[:-3]

    # Step 5
    if word.endswith("e"):
        if len(word) - 1 >= r2 or (
            len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1])
        ):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) >= 2 and word[-2] == "l":
            word = word[:-1]

    return word.replace("Y", "y")


_CACHE: dict[str, str] = {}
_CACHE_MAX = 2_000_000


def stem(word: str) -> str:
    """Memoized Porter2 stem."""
    s = _CACHE.get(word)
    if s is None:
        s = stem_uncached(word)
        if len(_CACHE) < _CACHE_MAX:
            _CACHE[word] = s
    return s
