"""Seeded workspace generators for the benchmark.

``build_sonnet_workspace`` reproduces the end-to-end test fixture recipe
(``tests/conftest.py:build_workspace``) byte for byte for the same size
and seed.  It is a copy on purpose: an edit to a test fixture must not
silently move the benchmark baseline.  The feature names are copied too,
so the parent process never imports the package it measures.

``build_vocab_workspace`` makes a corpus with a realistic vocabulary:
Zipf-distributed tokens over about 12k inflected Spanish-like surface
forms, three lexicons of thousands of words, and a lemma table.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORDINAL = (
    "valence", "arousal", "happiness", "anger", "sadness", "fear", "disgust",
    "concreteness", "imageability", "context availability",
)
PSYCHOLOGICAL = (
    "Anxiety", "Aversion", "Depression", "Disappointment", "Dramatisation",
    "Illusion", "Helplessness", "Instability", "Insecurity", "Anger",
    "Obsession", "Pride", "Prejudice", "Fear (binary)", "Vulnerability",
    "Compulsion", "Daydream", "Grandeur", "Idealization", "Irritability",
    "Solitude",
)
ALL_FEATURES = ORDINAL + PSYCHOLOGICAL

VOCAB = [
    "amor", "muerte", "cielo", "fuego", "llama", "ceniza", "sombra", "luz",
    "corazón", "alma", "dolor", "gloria", "tiempo", "noche", "día", "mar",
    "viento", "flor", "sangre", "olvido", "esperanza", "desengaño", "hermosura",
    "tristeza", "furia", "miedo", "dulzura", "amargura", "silencio", "voz",
    "espejo", "rosa", "nieve", "oro", "piedra", "río", "sueño", "herida",
    "verdad", "mentira",
]
FILLER = ["el", "la", "de", "en", "y", "que", "a", "su", "con", "por", "las", "los"]
PLURALS = ["llamas", "cenizas", "sombras", "rosas", "piedras", "heridas", "mentiras"]

CANONICAL_DIMS = {
    "valence": (1, 9), "arousal": (1, 9),
    "happiness": (1, 5), "anger": (1, 5), "sadness": (1, 5),
    "fear": (1, 5), "disgust": (1, 5),
    "concreteness": (1, 7), "imageability": (1, 7), "context_availability": (1, 7),
}


def _csv_writer(path: Path, delimiter: str = ","):
    handle = path.open("w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, delimiter=delimiter, lineterminator="\n")


def _write_annotations(root: Path, ids: list[str], rng: np.random.Generator) -> None:
    """Three annotators around a shared base; annotator 1 reverses valence."""
    base = {}
    for sid in ids:
        for feat in ORDINAL:
            base[(sid, feat)] = int(rng.integers(1, 5))
        for feat in PSYCHOLOGICAL:
            base[(sid, feat)] = int(rng.integers(0, 2))
    for annotator in (1, 2, 3):
        handle, writer = _csv_writer(root / f"annotator{annotator}.csv")
        with handle:
            writer.writerow(ALL_FEATURES)
            for sid in ids:
                row = []
                for feat in ALL_FEATURES:
                    value = base[(sid, feat)]
                    if feat in ORDINAL:
                        if rng.random() < 0.35:
                            value = int(np.clip(value + rng.integers(-1, 2), 1, 4))
                        if annotator == 1 and feat == "valence":
                            value = 5 - value
                        row.append(value)
                    elif rng.random() < 0.12:
                        row.append("")
                    elif rng.random() < 0.2:
                        row.append(1 - value)
                    else:
                        row.append(value)
                writer.writerow(row)


def _write_config(root: Path, lexicons: list, **extra) -> None:
    config = {
        "metadata": "metadata.csv",
        "corpus_root": "texts",
        "annotations": ["annotator1.csv", "annotator2.csv", "annotator3.csv"],
        "reversed_valence_annotators": [1],
        "lexicons": lexicons,
        **extra,
        "mode": "stem",
        "out_dir": "reports",
        "format": "both",
    }
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")


def _write_descriptor(path: Path, source_id: str, scale: list[int]) -> None:
    path.write_text(json.dumps({
        "source_id": source_id,
        "word_column": "Word",
        "delimiter": "\t",
        "dimensions": {
            "valence": {"mean": "Val_Mn", "sd": "Val_SD", "scale": scale},
            "arousal": {"mean": "Aro_Mn", "sd": "Aro_SD", "scale": scale},
        },
    }, indent=2), encoding="utf-8")


def build_sonnet_workspace(root: Path, n_sonnets: int, seed: int) -> Path:
    """The test fixture recipe: short sonnets over a forty-word vocabulary."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    texts = root / "texts"
    texts.mkdir(exist_ok=True)

    handle, writer = _csv_writer(root / "lex_a.csv")
    with handle:
        writer.writerow(["word", "dimension", "mean", "sd", "scale_min", "scale_max"])
        for word in VOCAB[:34]:
            for dim, (lo, hi) in CANONICAL_DIMS.items():
                if rng.random() < 0.08:
                    continue
                mean = float(rng.uniform(lo, hi))
                sd = float(rng.uniform(0.1, (hi - lo) / 4))
                writer.writerow([word, dim, f"{mean:.4f}", f"{sd:.4f}", lo, hi])

    handle, writer = _csv_writer(root / "lex_b.tsv", "\t")
    with handle:
        writer.writerow(["Word", "Val_Mn", "Val_SD", "Aro_Mn", "Aro_SD"])
        for word in VOCAB[10:]:
            writer.writerow([
                word,
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
            ])
    _write_descriptor(root / "lex_b_descriptor.json", "norms_b", [1, 7])

    ids = [f"s{i:03d}" for i in range(1, n_sonnets + 1)]
    handle, writer = _csv_writer(root / "metadata.csv")
    with handle:
        writer.writerow(["author", "year", "title", "id_sonnet", "file_path"])
        for i, sid in enumerate(ids):
            n_words = int(rng.integers(36, 70))
            words = []
            for _ in range(n_words):
                roll = rng.random()
                if roll < 0.28:
                    pool = FILLER
                elif roll < 0.36:
                    pool = PLURALS
                else:
                    pool = VOCAB
                words.append(pool[int(rng.integers(len(pool)))])
            lines = [
                " ".join(words[start:start + 7]) + ","
                for start in range(0, len(words), 7)
            ]
            body = "\n".join(lines).rstrip(",") + "."
            (texts / f"{sid}.txt").write_text(body + "\n", encoding="utf-8")
            writer.writerow([f"Autor {i % 4}", str(1590 + i), f"Soneto {i + 1}", sid, f"{sid}.txt"])

    _write_annotations(root, ids, rng)
    _write_config(root, [
        "lex_a.csv",
        {"path": "lex_b.tsv", "descriptor": "lex_b_descriptor.json"},
    ])
    return root


# ---------------------------------------------------------------------------
# realistic-vocabulary workspace

_ONSETS = (
    "b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
    "br", "cr", "tr", "pl", "ll", "ch", "ñ",
)
_VOWELS = ("a", "a", "e", "e", "i", "o", "o", "u", "ia", "ue", "ie", "á", "ó")
_CODAS = ("", "", "", "n", "r", "s", "l")
_FINALS = ("r", "n", "l", "s", "d", "t", "c", "m", "b", "g", "ll", "rr", "nt", "st")
_VERB_ENDINGS = (
    "o", "as", "a", "amos", "an", "aba", "aban", "ando", "ado", "ada",
    "aron", "ara", "ase", "ará",
)
_NOUN_ENDINGS = ("o", "os", "a", "as", "ez", "eza", "ción", "ciones", "ito", "mente")
_FUNCTION_WORDS = (
    "el", "la", "de", "en", "y", "que", "a", "su", "con", "por", "las", "los",
    "un", "una", "del", "se", "lo", "me", "mi", "tu", "te", "no", "más", "sus",
    "al", "como", "mis", "sin", "ya", "le", "ni", "cuando", "yo", "esta",
)


@dataclass(frozen=True)
class Vocabulary:
    """Surface forms in Zipf rank order, each with its lemma."""

    forms: tuple[str, ...]
    lemmas: tuple[str, ...]


def make_vocabulary(
    n_forms: int, rng: np.random.Generator, stopwords: frozenset[str]
) -> Vocabulary:
    """Inflected forms of invented roots: verbs (-ar lemmas) and nominals (-o)."""
    forms: list[str] = []
    lemmas: list[str] = []
    seen: set[str] = set(stopwords)
    seen_lemmas: set[str] = set()
    while len(forms) < n_forms:
        n_syllables = int(rng.integers(1, 4))
        root = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            + (_CODAS[int(rng.integers(len(_CODAS)))] if k < n_syllables - 1 else "")
            for k in range(n_syllables)
        ) + _FINALS[int(rng.integers(len(_FINALS)))]
        if rng.random() < 0.45:
            lemma, endings = root + "ar", _VERB_ENDINGS
        else:
            lemma, endings = root + "o", _NOUN_ENDINGS
        if lemma in seen_lemmas:
            continue
        seen_lemmas.add(lemma)
        chosen = rng.choice(len(endings), size=int(rng.integers(3, 7)), replace=False)
        for idx in sorted(int(i) for i in chosen):
            form = root + endings[idx]
            if form not in seen and len(forms) < n_forms:
                seen.add(form)
                forms.append(form)
                lemmas.append(lemma)
    order = rng.permutation(len(forms))
    return Vocabulary(
        forms=tuple(forms[i] for i in order), lemmas=tuple(lemmas[i] for i in order)
    )


def zipf_weights(n: int, exponent: float = 1.07, offset: float = 2.7) -> np.ndarray:
    """Zipf-Mandelbrot probabilities over ranks 1..n."""
    weights = 1.0 / (np.arange(1, n + 1) + offset) ** exponent
    return weights / weights.sum()


@dataclass(frozen=True)
class VocabSize:
    """Vocabulary and lexicon sizes of the realistic-vocabulary workspace."""

    n_forms: int = 12_000
    va_words: int = 8_400
    described_words: int = 3_600
    emotion_words: int = 3_600


def build_vocab_workspace(
    root: Path, n_sonnets: int, size: VocabSize, seed: int, stopwords: frozenset[str]
) -> int:
    """Write the workspace; return the number of distinct content forms used.

    ``stopwords`` keeps content forms apart from the function words, so
    the returned count is the raw-mode distinct-key count of the corpus.
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    texts = root / "texts"
    texts.mkdir(exist_ok=True)
    vocab = make_vocabulary(size.n_forms, rng, stopwords)
    content_p = zipf_weights(len(vocab.forms))
    function_p = zipf_weights(len(_FUNCTION_WORDS), exponent=1.0, offset=1.0)

    ids = [f"v{i:04d}" for i in range(1, n_sonnets + 1)]
    used: set[int] = set()
    handle, writer = _csv_writer(root / "metadata.csv")
    with handle:
        writer.writerow(["author", "year", "title", "id_sonnet", "file_path"])
        for i, sid in enumerate(ids):
            lines = []
            for line_no in range(14):
                n_tokens = int(rng.integers(6, 11))
                is_function = rng.random(n_tokens) < 0.3
                content = rng.choice(len(vocab.forms), size=n_tokens, p=content_p)
                function = rng.choice(len(_FUNCTION_WORDS), size=n_tokens, p=function_p)
                words = []
                for k in range(n_tokens):
                    if is_function[k]:
                        words.append(_FUNCTION_WORDS[int(function[k])])
                    else:
                        used.add(int(content[k]))
                        words.append(vocab.forms[int(content[k])])
                words[0] = words[0].capitalize()
                lines.append(" ".join(words) + ("." if line_no == 13 else ","))
            (texts / f"{sid}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            writer.writerow(
                [f"Autor {i % 17}", str(1500 + i % 200), f"Soneto {i + 1}", sid, f"{sid}.txt"]
            )

    # Lexicons list both inflected forms and lemmas, favouring frequent ones.
    pool = list(dict.fromkeys(vocab.forms[: size.n_forms * 3 // 4] + vocab.lemmas))

    def sample_words(n: int) -> list[str]:
        picked = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
        return [pool[int(i)] for i in picked]

    handle, writer = _csv_writer(root / "norms_va.csv")
    with handle:
        writer.writerow(["word", "dimension", "mean", "sd", "scale_min", "scale_max"])
        for word in sample_words(size.va_words):
            for dim in ("valence", "arousal"):
                writer.writerow([
                    word, dim, f"{rng.uniform(1, 9):.4f}", f"{rng.uniform(0.3, 2.5):.4f}", 1, 9,
                ])

    handle, writer = _csv_writer(root / "norms_described.tsv", "\t")
    with handle:
        writer.writerow(["Word", "Val_Mn", "Val_SD", "Aro_Mn", "Aro_SD"])
        for word in sample_words(size.described_words):
            writer.writerow([
                word,
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
            ])
    _write_descriptor(root / "norms_described.json", "norms_described", [1, 7])

    handle, writer = _csv_writer(root / "norms_emotion.csv")
    with handle:
        writer.writerow(["word", "dimension", "mean", "sd", "scale_min", "scale_max"])
        for word in sample_words(size.emotion_words):
            for dim, (lo, hi) in CANONICAL_DIMS.items():
                if dim in ("valence", "arousal") or rng.random() < 0.1:
                    continue
                mean = float(rng.uniform(lo, hi))
                sd = float(rng.uniform(0.1, (hi - lo) / 4))
                writer.writerow([word, dim, f"{mean:.4f}", f"{sd:.4f}", lo, hi])

    handle, writer = _csv_writer(root / "lemmas.tsv", "\t")
    with handle:
        for form, lemma in zip(vocab.forms, vocab.lemmas):
            writer.writerow([form, lemma])

    _write_annotations(root, ids, rng)
    _write_config(
        root,
        [
            "norms_va.csv",
            {"path": "norms_described.tsv", "descriptor": "norms_described.json"},
            "norms_emotion.csv",
        ],
        lemma_table="lemmas.tsv",
    )
    return len(used)
