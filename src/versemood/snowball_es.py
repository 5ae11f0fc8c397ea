"""Spanish Snowball stemmer.

A dependency-free port of the Spanish stemming algorithm from the
Snowball project (http://snowball.tartarus.org/algorithms/spanish/stemmer.html),
following the widely used NLTK transcription of the rule set.  The
algorithm removes attached pronouns (step 0), standard derivational
suffixes (step 1), verb suffixes (steps 2a and 2b) and residual vowels
(step 3), then strips acute accents.

Regions R1, R2 and RV follow the standard Snowball definitions over the
Spanish vowel set (a e i o u plus their accented forms and u-dieresis).

Each step finds its suffix by lookup, not by scan: it slices the word's
tail (RV's tail in steps 0, 2a, 2b and 3) once per suffix length of its
table, longest first, and probes the table's frozenset.  NLTK scans each
suffix tuple in order and takes the first match; no tuple lists a shorter
suffix before a longer one that ends with it, so that first match is the
longest match, which is the one the lookup finds.
"""

from __future__ import annotations

import re

__all__ = ["stem"]

_VOWELS = "aeiou\xe1\xe9\xed\xf3\xfa\xfc"
_VOWEL = re.compile(f"[{_VOWELS}]")
_NON_VOWEL = re.compile(f"[^{_VOWELS}]")
_VOWEL_NON_VOWEL = re.compile(f"[{_VOWELS}][^{_VOWELS}]")

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


def _table(suffixes: tuple[str, ...]) -> tuple[frozenset[str], tuple[int, ...]]:
    """A suffix tuple as (the set of its suffixes, their lengths longest first)."""
    return frozenset(suffixes), tuple(sorted({len(s) for s in suffixes}, reverse=True))


_STEP0 = _table(_STEP0_SUFFIXES)
_STEP1 = _table(_STEP1_SUFFIXES)
_STEP2A = _table(_STEP2A_SUFFIXES)
_STEP2B = _table(_STEP2B_SUFFIXES)
_STEP3 = _table(_STEP3_SUFFIXES)


def _longest_suffix(tail: str, table: tuple[frozenset[str], tuple[int, ...]]) -> str:
    """The longest suffix of ``tail`` in ``table``; "" when there is none."""
    suffixes, lengths = table
    for n in lengths:
        if tail[-n:] in suffixes:
            return tail[-n:]
    return ""


def _replace_accented(word: str) -> str:
    """Replace accented vowels with their plain counterparts."""
    return (
        word.replace("\xe1", "a")
        .replace("\xe9", "e")
        .replace("\xed", "i")
        .replace("\xf3", "o")
        .replace("\xfa", "u")
    )


def _after(pattern: re.Pattern[str], text: str, pos: int = 0) -> str:
    """The part of ``text`` after the first match of ``pattern`` at or past ``pos``."""
    match = pattern.search(text, pos)
    return text[match.end() :] if match else ""


def _rv(word: str) -> str:
    """RV region per the standard Snowball definition for Romance languages."""
    if len(word) < 2:
        return ""
    if word[1] not in _VOWELS:
        return _after(_VOWEL, word, 2)
    if word[0] in _VOWELS:
        return _after(_NON_VOWEL, word, 2)
    return word[3:]


def stem(word: str) -> str:
    """Stem one lowercase Spanish word.

    The input is lowercased defensively; tokens are expected to arrive
    already lowercased from the normalization pipeline.
    """
    word = word.lower()
    step1_success = False

    # R1 and R2: after the first non-vowel following a vowel, in word and in R1
    r1 = _after(_VOWEL_NON_VOWEL, word)
    r2 = _after(_VOWEL_NON_VOWEL, r1)
    rv = _rv(word)

    # Step 0: attached pronoun, removed after a gerund or infinitive.
    suffix = _longest_suffix(rv, _STEP0)  # rv is a tail of word
    n = len(suffix)
    if suffix and (
        rv[:-n].endswith(_STEP0_PRECEDING)
        or (rv[:-n].endswith("yendo") and word[:-n].endswith("uyendo"))
    ):
        word, r1, r2, rv = (_replace_accented(part[:-n]) for part in (word, r1, r2, rv))

    # Step 1: standard suffix removal.
    suffix = _longest_suffix(word, _STEP1)
    if suffix == "amente" and r1.endswith(suffix):
        step1_success = True
        word, r2, rv = word[:-6], r2[:-6], rv[:-6]
        if r2.endswith("iv"):
            word, r2, rv = word[:-2], r2[:-2], rv[:-2]
            if r2.endswith("at"):
                word, rv = word[:-2], rv[:-2]
        elif r2.endswith(("os", "ic", "ad")):
            word, rv = word[:-2], rv[:-2]
    elif suffix and r2.endswith(suffix):
        step1_success = True
        n = len(suffix)
        word, r2, rv = word[:-n], r2[:-n], rv[:-n]
        if suffix in _STEP1_REPLACEMENTS:
            word += _STEP1_REPLACEMENTS[suffix]
            rv += _STEP1_REPLACEMENTS[suffix]
        elif suffix in _STEP1_AGENT_SUFFIXES and r2.endswith("ic"):
            word, rv = word[:-2], rv[:-2]
        elif suffix == "mente" and r2.endswith(("ante", "able", "ible")):
            word, rv = word[:-4], rv[:-4]
        elif suffix in ("idad", "idades"):
            for pre_suff in ("abil", "ic", "iv"):
                if r2.endswith(pre_suff):
                    word, rv = word[: -len(pre_suff)], rv[: -len(pre_suff)]
        elif suffix in ("ivo", "iva", "ivos", "ivas") and r2.endswith("at"):
            word, rv = word[:-2], rv[:-2]

    if not step1_success:
        # Step 2a: verb suffixes beginning with y, only after u; the longest
        # suffix that has a u before it.
        suffixes, lengths = _STEP2A
        for n in lengths:
            suffix = rv[-n:]
            if suffix in suffixes and word[-len(suffix) - 1 : -len(suffix)] == "u":
                word = word[: -len(suffix)]
                rv = rv[: -len(suffix)]
                break

        # Step 2b: other verb suffixes.
        suffix = _longest_suffix(rv, _STEP2B)
        if suffix:
            word = word[: -len(suffix)]
            rv = rv[: -len(suffix)]
            if suffix in ("en", "es", "\xe9is", "emos"):
                if word.endswith("gu"):
                    word = word[:-1]
                if rv.endswith("gu"):
                    rv = rv[:-1]

    # Step 3: residual suffix.
    suffix = _longest_suffix(rv, _STEP3)
    if suffix:
        word = word[: -len(suffix)]
        if suffix in ("e", "\xe9"):
            rv = rv[: -len(suffix)]
            if word[-2:] == "gu" and rv.endswith("u"):
                word = word[:-1]

    return _replace_accented(word)
