"""Normalization pipeline for Spanish verse.

Turns raw sonnet text into a list of positioned tokens under one of
three key modes: the surface word itself (raw), its Snowball stem, or a
lemma looked up in a user-supplied table.  Stopword removal happens
before the mode transform, and token positions are recomputed over the
surviving tokens so later position-based statistics see a gap-free
sequence.
"""

from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import snowball_es

__all__ = [
    "MODES",
    "InputError",
    "NormalizationConfig",
    "Token",
    "default_stopwords",
    "lemmatize",
    "load_lemma_table",
    "load_stopwords",
    "normalize",
    "read_input",
    "remove_stopwords",
    "stem",
    "tokenize",
]

logger = logging.getLogger(__name__)

MODES = ("raw", "stem", "lemma")


class InputError(ValueError):
    """Malformed or missing input; the message names the file (and line)."""


def read_input(path: str | Path, what: str) -> str:
    """The text of one input file, read as UTF-8 with an optional byte order mark.

    ``what`` says what the file is ("metadata file", "config", ...); an
    unreadable file or a byte that is not UTF-8 raises InputError naming
    it and the path (and for a decoding error, the byte offset).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: {what} is not UTF-8 text: byte {exc.start} ({exc.reason})"
        ) from None


_stem_cached = functools.lru_cache(maxsize=None)(snowball_es.stem)


def stem(word: str) -> str:
    """Snowball stem of one word (memoized; corpora repeat words a lot)."""
    return _stem_cached(word)


@functools.lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled Snowball Spanish stopword list."""
    text = resources.files(__package__).joinpath("data/stopwords_es.txt").read_text("utf-8")
    return frozenset(text.split())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list, one word per line, blank lines ignored."""
    words = read_input(path, "stopword list").split()
    return frozenset(w.lower() for w in words)


def load_lemma_table(path: str | Path) -> dict[str, str]:
    """Read a surface-to-lemma table from two-column delimited text.

    The delimiter is a tab when the first line contains one, otherwise a
    comma.  Surfaces and lemmas are lowercased; duplicate surfaces keep
    the first entry.
    """
    raw = read_input(path, "lemma table").splitlines()
    # physical line numbers of the lines that are not blank
    numbers = [n for n, line in enumerate(raw, start=1) if line.strip()]
    if not numbers:
        raise InputError(f"{path}: lemma table is empty")
    delim = "\t" if "\t" in raw[numbers[0] - 1] else ","
    table: dict[str, str] = {}
    reader = csv.reader((raw[n - 1] for n in numbers), delimiter=delim)
    for row in reader:
        lineno = numbers[reader.line_num - 1]
        if len(row) < 2:
            raise InputError(f"{path}: line {lineno}: expected two columns")
        surface = row[0].strip().lower()
        lemma = row[1].strip().lower()
        if not surface or not lemma:
            raise InputError(f"{path}: line {lineno}: empty surface or lemma")
        table.setdefault(surface, lemma)
    return table


@dataclass(frozen=True)
class NormalizationConfig:
    """How text becomes lookup keys.

    ``mode`` selects the key transform.  Lemma mode needs a non-empty
    ``lemma_table``; the other modes ignore it.  An empty stopword set is
    allowed and simply keeps every token.
    """

    mode: str = "stem"
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    lemma_table: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "lemma" and not self.lemma_table:
            raise ValueError("lemma mode requires a non-empty lemma table")


@dataclass(frozen=True)
class Token:
    """A surviving token: surface form, 1-based position, and its key."""

    surface: str
    position: int
    normalized: str


def tokenize(text: str) -> list[str]:
    """Split text on whitespace, trim punctuation off token edges, lowercase.

    Trimming removes leading and trailing non-alphanumeric characters
    (quotes, dashes, inverted exclamation marks and the like) while
    keeping interior ones, so hyphenated forms survive.  Diacritics are
    preserved.  Tokens that trim away to nothing are dropped.
    """
    tokens = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and not chunk[start].isalnum():
            start += 1
        while end > start and not chunk[end - 1].isalnum():
            end -= 1
        chunk = chunk[start:end]
        if not chunk:
            continue
        tokens.append(chunk.lower())
    return tokens


def remove_stopwords(tokens: list[str], stopwords: frozenset[str]) -> list[Token]:
    """Drop stopwords and renumber the survivors from position 1."""
    survivors = []
    for tok in tokens:
        if tok in stopwords:
            continue
        survivors.append(Token(surface=tok, position=len(survivors) + 1, normalized=tok))
    return survivors


def lemmatize(word: str, table: dict[str, str]) -> str:
    """Look a word up in the lemma table, falling back to the word itself."""
    lemma = table.get(word)
    if lemma is None:
        logger.debug("no lemma for %r, keeping surface form", word)
        return word
    return lemma


def normalize(text: str, config: NormalizationConfig) -> list[Token]:
    """Full pipeline: tokenize, drop stopwords, apply the key transform."""
    survivors = remove_stopwords(tokenize(text), config.stopwords)
    if config.mode == "raw":
        return survivors
    if config.mode == "stem":
        return [
            Token(t.surface, t.position, stem(t.surface)) for t in survivors
        ]
    assert config.lemma_table is not None
    return [
        Token(t.surface, t.position, lemmatize(t.surface, config.lemma_table))
        for t in survivors
    ]
