"""Tokenizer, stopword, and stemmer behavior."""

import random

import pytest

import oracles
from versemood import snowball_es
from versemood.snowball_es import stem
from versemood.textnorm import (
    InputError,
    NormalizationConfig,
    default_stopwords,
    load_lemma_table,
    load_stopwords,
    normalize,
    tokenize,
)

from conftest import build_workspace

# Golden input/output pairs for the stemmer.  The expectations were frozen
# from a reference implementation of the Spanish Snowball algorithm after a
# differential run over a few hundred forms showed full agreement.
GOLDEN_STEMS = {
    "algunas": "algun",
    "amor": "amor",
    "astrología": "astrolog",
    "biología": "biolog",
    "canciones": "cancion",
    "canción": "cancion",
    "cantáramos": "cant",
    "ceniza": "ceniz",
    "cenizas": "ceniz",
    "cielo": "ciel",
    "consigue": "consig",
    "contaminación": "contamin",
    "corazones": "corazon",
    "cual": "cual",
    "cuya": "cuy",
    "del": "del",
    "desengaño": "desengañ",
    "e": "e",
    "ella": "ella",
    "enamorado": "enamor",
    "escribiéndoselas": "escrib",
    "eso": "eso",
    "esos": "esos",
    "esta": "esta",
    "estaba": "estab",
    "estabais": "estabais",
    "estado": "estad",
    "estamos": "estam",
    "estarán": "estaran",
    "estas": "estas",
    "esto": "esto",
    "estuviera": "estuv",
    "estuviéramos": "estuv",
    "felicidad": "felic",
    "fuisteis": "fuisteis",
    "fácilmente": "facil",
    "fénix": "fenix",
    "habrías": "habr",
    "habíais": "hab",
    "hasta": "hast",
    "hubiera": "hub",
    "huyendo": "huyend",
    "la": "la",
    "les": "les",
    "llamas": "llam",
    "muerte": "muert",
    "muy": "muy",
    "negra": "negr",
    "nuestras": "nuestr",
    "nuestros": "nuestr",
    "o": "o",
    "os": "os",
    "otro": "otro",
    "pero": "per",
    "por": "por",
    "porfío": "porfi",
    "producciones": "produccion",
    "quebranto": "quebrant",
    "rojo": "roj",
    "seamos": "seam",
    "será": "ser",
    "seríamos": "ser",
    "sin": "sin",
    "sol": "sol",
    "sus": "sus",
    "tendremos": "tendr",
    "tendrás": "tendras",
    "tendré": "tendr",
    "tenida": "ten",
    "tenéis": "ten",
    "teníais": "ten",
    "teníamos": "ten",
    "tiene": "tien",
    "tienes": "tien",
    "tuviéramos": "tuv",
    "tuvo": "tuv",
    "universidad": "univers",
    "vida": "vid",
    "viva": "viv",
    "viviríamos": "viv",
}


def test_stemmer_golden_vectors():
    mismatches = {
        word: (stem(word), expected)
        for word, expected in GOLDEN_STEMS.items()
        if stem(word) != expected
    }
    assert mismatches == {}


def test_stemmer_empty_and_accent_removal():
    assert stem("") == ""
    # surviving accents are flattened at the end of the algorithm
    assert stem("fénix") == "fenix"


def test_stemmer_collapses_inflection_families():
    assert stem("ceniza") == stem("cenizas")
    assert stem("canción") == stem("canciones")
    assert stem("viva") == stem("viviríamos")


# Roots for the cross product: lengths 0-3, vowel-initial, two leading vowels,
# u and gu before steps 2a and 3, and ic/iv/at/abil before step-1 suffixes.
STEM_ROOTS = (
    "", "a", "b", "ab", "ba", "bra", "amig", "orden", "aer", "oas", "eu",
    "hu", "constru", "arg", "segu", "distingu", "critic", "format", "activ",
    "posibil", "creativ", "practic", "cantar", "revolucion",
)

# each step's suffixes in the scan's order, and the lookup's table of them
_SCAN_TABLES = {
    "step 0": (snowball_es._STEP0_SUFFIXES, snowball_es._STEP0),
    "step 1": (snowball_es._STEP1_SUFFIXES, snowball_es._STEP1),
    "step 2a": (snowball_es._STEP2A_SUFFIXES, snowball_es._STEP2A),
    "step 2b": (snowball_es._STEP2B_SUFFIXES, snowball_es._STEP2B),
    "step 3": (snowball_es._STEP3_SUFFIXES, snowball_es._STEP3),
}


# What step 1 may remove before a suffix it removed, stacked two deep before
# each step-1 suffix.
STEP1_BEFORE = ("", "ic", "iv", "at", "os", "ad", "abil", "ante", "able", "ible")


def _stem_test_words() -> list[str]:
    """Golden words, roots x suffixes, roots x gerund/infinitive x pronoun, roots x
    stacked step-1 removals, and a fuzz."""
    suffixes = sorted({s for ordered, _ in _SCAN_TABLES.values() for s in ordered})
    words = list(GOLDEN_STEMS)
    words += [root + suffix for root in STEM_ROOTS for suffix in suffixes]
    words += [
        root + first + second + suffix
        for root in ("", "a", "amig", "orden", "constru", "revolucion")
        for first in STEP1_BEFORE
        for second in STEP1_BEFORE
        for suffix in oracles._STEP1_SUFFIXES
    ]
    words += [
        root + before + pronoun
        for root in STEM_ROOTS
        for before in oracles._STEP0_PRECEDING + ("yendo", "uyendo")
        for pronoun in oracles._STEP0_SUFFIXES
    ]
    rng = random.Random(20261018)
    letters = "abcdefghijlmnopqrstuvxyz\xe1\xe9\xed\xf3\xfa\xfc\xf1"
    for _ in range(20_000):
        root = "".join(rng.choices(letters, k=rng.randint(0, 6)))
        words.append(root + "".join(rng.choices(suffixes, k=rng.randint(1, 2))))
    return words


def test_table_stemmer_equals_the_scan():
    mismatches = {}
    for word in _stem_test_words():
        table, scan = stem(word), oracles.stem_scan(word)
        if table != scan:
            mismatches[word] = (table, scan)
    assert mismatches == {}


def test_stemmer_equals_the_scan_on_random_words():
    # Random strings over the Spanish letters, and a share with letters that change
    # length or stay put when lowercased, a non-Latin letter and a NUL.
    rng = random.Random(20261020)
    letters = "abcdefghijklmnopqrstuvwxyz\xe1\xe9\xed\xf3\xfa\xfc\xf1"
    odd = "ABCDEFGHIJKLMNOPQRSTUVWXYZ\xc1\xc9\xd1\xdc\u0130\xdf\u0436\x00"
    words = ["".join(rng.choices(letters, k=rng.randint(0, 16))) for _ in range(100_000)]
    for _ in range(20_000):
        word = rng.choices(letters, k=rng.randint(1, 16))
        for _ in range(rng.randint(1, 3)):
            word[rng.randrange(len(word))] = rng.choice(odd)
        words.append("".join(word))
    mismatches = {}
    for word in words:
        table, scan = stem(word), oracles.stem_scan(word)
        if table != scan:
            mismatches[word] = (table, scan)
    assert mismatches == {}


@pytest.mark.parametrize("step", sorted(_SCAN_TABLES))
def test_suffix_tables_first_match_is_longest_match(step):
    ordered, table = _SCAN_TABLES[step]
    assert len(set(ordered)) == len(ordered)
    for i, suffix in enumerate(ordered):
        shadowing = [s for s in ordered[:i] if len(s) < len(suffix) and suffix.endswith(s)]
        assert shadowing == [], f"{step}: {suffix!r} comes after {shadowing}"
    # the ending table's lookup finds the scan's suffix for every tail of every
    # entry, in the whole word and from every start of a region
    for suffix in ordered:
        for tail in (suffix[i:] for i in range(len(suffix))):
            for word in (tail, "x" + tail):
                for start in range(len(word) + 1):
                    scanned = next((s for s in ordered if word[start:].endswith(s)), "")
                    found = snowball_es._suffix(word, start, table)
                    assert found == scanned, (step, word, start)


def test_tokenize_strips_edge_punctuation():
    assert tokenize("—¡Viva!—") == ["viva"]
    assert tokenize("«amor», (dolor)...") == ["amor", "dolor"]
    assert tokenize("  y   el\tmar\n") == ["y", "el", "mar"]


def test_tokenize_keeps_interior_marks_and_digits():
    assert tokenize("mil seiscientos cinco 1605") == [
        "mil", "seiscientos", "cinco", "1605",
    ]
    assert tokenize("vete-y-vuelve") == ["vete-y-vuelve"]


def test_tokenize_empty_input():
    assert tokenize("") == []
    assert tokenize("¡¿—!?") == []


def test_tokenize_case_switch():
    assert tokenize("Amor") == ["amor"]


# Chunks for the tokenizer's referee: edge punctuation, inverted marks and
# dashes, interior hyphens and apostrophes, digits, combining marks (a
# trailing one is not alphanumeric, so it is trimmed), and "İ", which
# lowercases to two code points.
TOKENIZER_EDGES = (
    "—¡Viva!— «amor», (dolor)... ¿quién? ¡ay! — – - ' \" d'amor l'alma vete-y-vuelve "
    "1605 3º ½ x² Ⅻ \u0301 cafe\u0301 e\u0301l \u0301ojo İstanbul İ ÀLMA SEÑOR "
    "ﬁn ß ǅ «»  \t\n\u00a0\u2003 a\u200bb ‘ay’ “voz” 'quizá' -1 +2 ¡¡¡ ...!"
)


def test_tokenize_equals_the_trim_loop_on_every_chunk(tmp_path):
    assert tokenize(TOKENIZER_EDGES) == oracles.tokenize(TOKENIZER_EDGES)
    for chunk in TOKENIZER_EDGES.split():
        assert tokenize(chunk) == oracles.tokenize(chunk), chunk
    rng = random.Random(19)
    alphabet = "aé\u0301İ1½-'¡!—. "
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert tokenize(text) == oracles.tokenize(text), text
    texts = build_workspace(tmp_path, n_sonnets=120) / "texts"
    for path in sorted(texts.iterdir()):
        text = path.read_text(encoding="utf-8")
        assert tokenize(text) == oracles.tokenize(text), path.name


def test_remove_stopwords_renumbers():
    # A key's position is its index + 1 among the words that survive.
    config = NormalizationConfig(mode="raw", stopwords=frozenset({"el", "la", "de"}))
    keys = normalize("el amor de la muerte", config)
    assert list(enumerate(keys, start=1)) == [(1, "amor"), (2, "muerte")]


def test_positions_strictly_increasing():
    text = "el amor y la muerte en el corazón de la noche"
    keys = normalize(text, NormalizationConfig(mode="raw"))
    assert keys == ["amor", "muerte", "corazón", "noche"]


def test_default_stopwords_content():
    stopwords = default_stopwords()
    assert "que" in stopwords
    assert "de" in stopwords
    assert "amor" not in stopwords
    assert len(stopwords) > 250


def test_normalize_stem_mode():
    text = "las cenizas del amor"
    surfaces = normalize(text, NormalizationConfig(mode="raw"))
    keys = normalize(text, NormalizationConfig(mode="stem"))
    assert list(zip(surfaces, keys)) == [
        ("cenizas", "ceniz"), ("amor", "amor"),
    ]


def test_normalize_raw_mode_key_equals_surface():
    text = "Las Cenizas arden"
    keys = normalize(text, NormalizationConfig(mode="raw"))
    assert keys == [w for w in tokenize(text) if w not in default_stopwords()]


def test_normalize_raw_mode_keys_no_word(monkeypatch):
    # A raw key is its word, so raw mode returns the kept tokens without keying each.
    text = "Las Cenizas arden, ¡ay! del amor que arde"
    config = NormalizationConfig(mode="raw")
    calls = []
    key = NormalizationConfig.key

    def counting(self, word):
        calls.append(word)
        return key(self, word)

    monkeypatch.setattr(NormalizationConfig, "key", counting)
    assert normalize(text, config) == [w for w in tokenize(text) if w not in default_stopwords()]
    assert calls == []
    stemmed = normalize(text, NormalizationConfig(mode="stem"))
    assert stemmed == ["ceniz", "arden", "ay", "amor", "arde"]
    assert len(calls) == 5


def test_normalize_lemma_mode_with_fallback():
    table = {"cenizas": "ceniza", "arden": "arder"}
    config = NormalizationConfig(mode="lemma", lemma_table=table)
    keys = normalize("las cenizas arden lentamente", config)
    assert keys == ["ceniza", "arder", "lentamente"]


def test_lemma_mode_requires_table():
    with pytest.raises(ValueError):
        NormalizationConfig(mode="lemma")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        NormalizationConfig(mode="porter")


def test_stemming_never_increases_distinct_keys():
    words = list(GOLDEN_STEMS)
    raw_keys = set(words)
    stem_keys = {stem(w) for w in words}
    assert len(stem_keys) <= len(raw_keys)


def test_normalize_is_deterministic():
    config = NormalizationConfig(mode="stem")
    text = "¡Oh llamas, cenizas del desengaño!"
    assert normalize(text, config) == normalize(text, config)


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("el\nLA\n\nde\n", encoding="utf-8")
    loaded = load_stopwords(path)
    assert loaded == frozenset({"el", "la", "de"})


def test_load_lemma_table_formats(tmp_path):
    tabbed = tmp_path / "lemmas.tsv"
    tabbed.write_text("cenizas\tceniza\narden\tarder\n", encoding="utf-8")
    assert load_lemma_table(tabbed) == {"cenizas": "ceniza", "arden": "arder"}
    comma = tmp_path / "lemmas.csv"
    comma.write_text("cenizas,ceniza\n", encoding="utf-8")
    assert load_lemma_table(comma) == {"cenizas": "ceniza"}


def test_load_lemma_table_error_names_the_physical_line(tmp_path):
    path = tmp_path / "lemmas.tsv"
    path.write_text("cenizas\tceniza\n\nllamas\t\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3: empty surface or lemma"):
        load_lemma_table(path)


def test_load_lemma_table_splits_lines_only_at_line_ends(tmp_path):
    # str.splitlines would also split at each of these four characters
    path = tmp_path / "lemmas.tsv"
    text = "a\x85b\tab\nc\u2028d\tcd\n\ne\x0cf\tef\r\ng\x1ch\tgh\n"
    path.write_text(text, encoding="utf-8", newline="")
    assert load_lemma_table(path) == {
        "a\x85b": "ab", "c\u2028d": "cd", "e\x0cf": "ef", "g\x1ch": "gh",
    }
    path.write_text(text + "solo\n", encoding="utf-8", newline="")
    with pytest.raises(InputError, match="line 6: expected two columns"):
        load_lemma_table(path)


def test_byte_order_mark_is_not_part_of_the_first_entry(tmp_path):
    for name, text, load in (
        ("lemmas.tsv", "cenizas\tceniza\narden\tarder\n", load_lemma_table),
        ("lemmas.csv", "cenizas,ceniza\n", load_lemma_table),
        ("stop.txt", "amor\nel\n", load_stopwords),
    ):
        clean = tmp_path / name
        clean.write_text(text, encoding="utf-8")
        marked = tmp_path / f"bom_{name}"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load(marked) == load(clean)
