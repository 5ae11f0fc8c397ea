"""Spanish Snowball stemmer.

A dependency-free port of the Spanish stemming algorithm from the
Snowball project (http://snowball.tartarus.org/algorithms/spanish/stemmer.html),
following the widely used NLTK transcription of the rule set.  The
algorithm removes attached pronouns (step 0), standard derivational
suffixes (step 1), verb suffixes (steps 2a and 2b) and residual vowels
(step 3), then strips acute accents.

Regions R1, R2 and RV follow the standard Snowball definitions over the
Spanish vowel set (a e i o u plus their accented forms and u-dieresis).
They are held as offsets into the word, not as substrings: one regex
match gives where R1 and R2 start, another where RV starts, and a suffix
lies in a region when the word's length less the suffix's is at least the
region's offset.  Every step only cuts the word's end, so the offsets stay
valid; where step 1 puts a replacement back, it replaces a suffix inside
R2, which lies inside RV.

Each step finds its suffix by lookup, not by scan.  Its ending table maps
each two-letter ending to the lengths of the step's suffixes that end in
it, longest first, with 1 last when the step has one-letter suffixes.  A
word's last two letters select the lengths to probe: each probe slices the
word's tail once and looks it up in the step's frozenset.  A suffix of two
letters or more ends in the word's last two letters, and a one-letter
suffix is shorter than all of those, so no suffix the word ends with is
missed and the first probe that hits is the longest match.  NLTK scans
each suffix tuple in order and takes the first match; no tuple lists a
shorter suffix before a longer one that ends with it, and any two suffixes
a word ends with end one with the other, so that first match is the
longest match too.
"""

from __future__ import annotations

import re

__all__ = ["stem"]

_VOWELS = "aeiou\xe1\xe9\xed\xf3\xfa\xfc"
_V, _C = f"[{_VOWELS}]", f"[^{_VOWELS}]"
# R1 ends at group 1's end, R2 at group 2's: each after the first non-vowel
# that follows a vowel (in the word, then in R1), or at the word's end.
_R1_R2 = re.compile(f"(.*?{_V}{_C}|.*)(.*?{_V}{_C}|.*)", re.DOTALL)
# RV starts after: the next vowel, when the second letter is not a vowel; the
# next non-vowel, when the first two letters are vowels; else the third
# letter.  A word that matches none has RV empty.
_RV = re.compile(f".{_C}.*?{_V}|{_V}{_V}.*?{_C}|{_C}{_V}.", re.DOTALL)

# Each step's suffixes in NLTK's scan order (tests/test_textnorm.py checks
# that no suffix comes after a shorter suffix it ends with).
_STEP0_SUFFIXES = (
    "selas", "selos", "sela", "selo", "las", "les", "los", "nos",
    "me", "se", "la", "le", "lo",
)

_STEP0_PRECEDING = (
    "ando", "\xe1ndo", "ar", "\xe1r", "er", "\xe9r", "iendo", "i\xe9ndo",
    "ir", "\xedr",
)

_STEP1_SUFFIXES = (
    "amientos", "imientos", "amiento", "imiento", "acion", "aciones",
    "uciones", "adoras", "adores", "ancias", "log\xedas", "encias",
    "amente", "idades", "anzas", "ismos", "ables", "ibles", "istas",
    "adora", "aci\xf3n", "antes", "ancia", "log\xeda", "uci\xf3n",
    "encia", "mente", "anza", "icos", "icas", "ismo", "able", "ible",
    "ista", "osos", "osas", "ador", "ante", "idad", "ivas", "ivos",
    "ico", "ica", "oso", "osa", "iva", "ivo",
)

_STEP1_AGENT_SUFFIXES = (
    "adora", "ador", "aci\xf3n", "adoras", "adores", "acion", "aciones",
    "ante", "antes", "ancia", "ancias",
)

# what a step-1 suffix in R2 is replaced with (the others are deleted)
_STEP1_REPLACEMENTS = {
    "log\xeda": "log", "log\xedas": "log", "uci\xf3n": "u", "uciones": "u",
    "encia": "ente", "encias": "ente",
}

_STEP2A_SUFFIXES = (
    "yeron", "yendo", "yamos", "yais", "yan", "yen", "yas", "yes",
    "ya", "ye", "yo", "y\xf3",
)

_STEP2B_SUFFIXES = (
    "ar\xedamos", "er\xedamos", "ir\xedamos", "i\xe9ramos", "i\xe9semos",
    "ar\xedais", "aremos", "er\xedais", "eremos", "ir\xedais", "iremos",
    "ierais", "ieseis", "asteis", "isteis", "\xe1bamos", "\xe1ramos",
    "\xe1semos", "ar\xedan", "ar\xedas", "ar\xe9is", "er\xedan",
    "er\xedas", "er\xe9is", "ir\xedan", "ir\xedas", "ir\xe9is", "ieran",
    "iesen", "ieron", "iendo", "ieras", "ieses", "abais", "arais",
    "aseis", "\xe9amos", "ar\xe1n", "ar\xe1s", "ar\xeda", "er\xe1n",
    "er\xe1s", "er\xeda", "ir\xe1n", "ir\xe1s", "ir\xeda", "iera",
    "iese", "aste", "iste", "aban", "aran", "asen", "aron", "ando",
    "abas", "adas", "idas", "aras", "ases", "\xedais", "ados", "idos",
    "amos", "imos", "emos", "ar\xe1", "ar\xe9", "er\xe1", "er\xe9",
    "ir\xe1", "ir\xe9", "aba", "ada", "ida", "ara", "ase", "\xedan",
    "ado", "ido", "\xedas", "\xe1is", "\xe9is", "\xeda", "ad", "ed",
    "id", "an", "i\xf3", "ar", "er", "ir", "as", "\xeds", "en", "es",
)

_STEP3_SUFFIXES = ("os", "a", "e", "o", "\xe1", "\xe9", "\xed", "\xf3")


_Table = tuple[dict[str, tuple[int, ...]], tuple[int, ...], frozenset[str]]


def _table(suffixes: tuple[str, ...]) -> _Table:
    """A suffix tuple as its ending table: (lengths by ending, lengths otherwise, suffixes).

    Per two-letter ending, the lengths of the suffixes of two letters or
    more that end in it, longest first, then 1 if the tuple has a one-letter
    suffix; for any other ending, just that (1,), or ().
    """
    short = (1,) if any(len(s) == 1 for s in suffixes) else ()
    lengths: dict[str, set[int]] = {}
    for s in suffixes:
        if len(s) > 1:
            lengths.setdefault(s[-2:], set()).add(len(s))
    by_ending = {end: tuple(sorted(ns, reverse=True)) + short for end, ns in lengths.items()}
    return by_ending, short, frozenset(suffixes)


_STEP0 = _table(_STEP0_SUFFIXES)
_STEP1 = _table(_STEP1_SUFFIXES)
_STEP2A = _table(_STEP2A_SUFFIXES)
_STEP2B = _table(_STEP2B_SUFFIXES)
_STEP3 = _table(_STEP3_SUFFIXES)


def _replace_accented(word: str) -> str:
    """Replace accented vowels with their plain counterparts."""
    return (
        word.replace("\xe1", "a")
        .replace("\xe9", "e")
        .replace("\xed", "i")
        .replace("\xf3", "o")
        .replace("\xfa", "u")
    )


def _suffix(word: str, start: int, table: _Table) -> str:
    """The longest suffix of ``word[start:]`` in ``table``; "" when there is none."""
    by_ending, short, suffixes = table
    room = len(word) - start
    for n in by_ending.get(word[-2:], short):
        if n <= room and word[-n:] in suffixes:
            return word[-n:]
    return ""


def stem(word: str) -> str:
    """Stem one lowercase Spanish word.

    The input is lowercased defensively; tokens are expected to arrive
    already lowercased from the normalization pipeline.
    """
    word = word.lower()
    regions = _R1_R2.match(word)
    r1, r2 = regions.end(1), regions.end(2)
    rv = _RV.match(word)
    rv = rv.end() if rv else len(word)

    # Step 0: attached pronoun, removed after a gerund or infinitive.
    suffix = _suffix(word, rv, _STEP0)
    end = len(word) - len(suffix)
    if suffix and (
        word.endswith(_STEP0_PRECEDING, rv, end)
        or (word.endswith("yendo", rv, end) and word.endswith("uyendo", 0, end))
    ):
        word = _replace_accented(word[:end])

    # Step 1: standard suffix removal.
    suffix = _suffix(word, 0, _STEP1)
    end = len(word) - len(suffix)
    if suffix == "amente" and end >= r1:
        word = word[:end]
        if word.endswith("iv", r2):
            word = word[:-2]
            if word.endswith("at", r2):
                word = word[:-2]
        elif word.endswith(("os", "ic", "ad"), r2):
            word = word[:-2]
    elif suffix and end >= r2:
        word = word[:end]
        if suffix in _STEP1_REPLACEMENTS:
            word += _STEP1_REPLACEMENTS[suffix]
        elif suffix in _STEP1_AGENT_SUFFIXES and word.endswith("ic", r2):
            word = word[:-2]
        elif suffix == "mente" and word.endswith(("ante", "able", "ible"), r2):
            word = word[:-4]
        elif suffix in ("idad", "idades"):
            for pre_suff in ("abil", "ic", "iv"):  # at most one: they end differently
                if word.endswith(pre_suff, r2):
                    word = word[: -len(pre_suff)]
                    break
        elif suffix in ("ivo", "iva", "ivos", "ivas") and word.endswith("at", r2):
            word = word[:-2]
    else:
        # Step 2a: verb suffixes beginning with y, only after u; the longest
        # suffix in RV that has a u before it.
        by_ending, short, suffixes = _STEP2A
        for n in by_ending.get(word[-2:], short):
            if n <= len(word) - rv and word[-n:] in suffixes and word[-n - 1] == "u":
                word = word[:-n]
                break

        # Step 2b: other verb suffixes.
        if suffix := _suffix(word, rv, _STEP2B):
            word = word[: -len(suffix)]
            # this also cuts the u from RV; NLTK leaves an RV of just "u"
            # there, which no step-3 suffix ends with
            if suffix in ("en", "es", "\xe9is", "emos") and word.endswith("gu"):
                word = word[:-1]

    # Step 3: residual suffix.
    if suffix := _suffix(word, rv, _STEP3):
        word = word[: -len(suffix)]
        if suffix in ("e", "\xe9") and word.endswith("gu", rv - 1):
            word = word[:-1]

    return _replace_accented(word)
