"""Shared synthetic corpus fixture for end-to-end tests.

Forty short sonnets over a forty-word vocabulary, three annotators
derived from a common base (annotator 1 records valence on a reversed
scale), one canonical-format lexicon and one descriptor-described
lexicon whose union covers the whole vocabulary.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from versemood.corpus import ANNOTATED_FEATURES, ORDINAL_FEATURES, PSYCHOLOGICAL_TAGS

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


def build_workspace(root: Path, n_sonnets: int = 40, seed: int = 20260817) -> Path:
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    texts = root / "texts"
    texts.mkdir(exist_ok=True)

    with (root / "lex_a.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "dimension", "mean", "sd", "scale_min", "scale_max"])
        for word in VOCAB[:34]:
            for dim, (lo, hi) in CANONICAL_DIMS.items():
                if rng.random() < 0.08:
                    continue
                mean = float(rng.uniform(lo, hi))
                sd = float(rng.uniform(0.1, (hi - lo) / 4))
                writer.writerow([word, dim, f"{mean:.4f}", f"{sd:.4f}", lo, hi])

    with (root / "lex_b.tsv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["Word", "Val_Mn", "Val_SD", "Aro_Mn", "Aro_SD"])
        for word in VOCAB[10:]:
            writer.writerow([
                word,
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
                f"{rng.uniform(1, 7):.4f}", f"{rng.uniform(0.2, 1.5):.4f}",
            ])
    (root / "lex_b_descriptor.json").write_text(json.dumps({
        "source_id": "norms_b",
        "word_column": "Word",
        "delimiter": "\t",
        "dimensions": {
            "valence": {"mean": "Val_Mn", "sd": "Val_SD", "scale": [1, 7]},
            "arousal": {"mean": "Aro_Mn", "sd": "Aro_SD", "scale": [1, 7]},
        },
    }, indent=2), encoding="utf-8")

    ids = [f"s{i:03d}" for i in range(1, n_sonnets + 1)]
    with (root / "metadata.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
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

    base = {}
    for sid in ids:
        for feat in ORDINAL_FEATURES:
            base[(sid, feat)] = int(rng.integers(1, 5))
        for feat in PSYCHOLOGICAL_TAGS:
            base[(sid, feat)] = int(rng.integers(0, 2))
    for annotator in (1, 2, 3):
        with (root / f"annotator{annotator}.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = list(ANNOTATED_FEATURES)
            writer.writerow(header)
            for sid in ids:
                row = []
                for feat in header:
                    value = base[(sid, feat)]
                    if feat in ORDINAL_FEATURES:
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

    (root / "config.json").write_text(json.dumps({
        "metadata": "metadata.csv",
        "corpus_root": "texts",
        "annotations": ["annotator1.csv", "annotator2.csv", "annotator3.csv"],
        "reversed_valence_annotators": [1],
        "lexicons": [
            "lex_a.csv",
            {"path": "lex_b.tsv", "descriptor": "lex_b_descriptor.json"},
        ],
        "mode": "stem",
        "out_dir": "reports",
        "format": "both",
    }, indent=2), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    return build_workspace(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def workspace_config(workspace):
    return workspace / "config.json"
