"""Normalization pipeline for Spanish verse.

Turns raw sonnet text into a list of lookup keys under one of three key
modes: the surface word itself (raw), its Snowball stem, or a lemma
looked up in a user-supplied table.  Stopwords are dropped before the
mode transform, and a key's token position is its index + 1 in that
list, so position-based statistics see a gap-free sequence.

A corpus's tokens are held as a :class:`TokenTable`, an integer code per
token into the distinct words: each word is keyed once, and reports count
codes instead of strings.
"""

from __future__ import annotations

import csv
import functools
import re
from contextlib import contextmanager
from contextvars import ContextVar
from importlib import resources
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import snowball_es

__all__ = [
    "MODES",
    "Decision",
    "InputError",
    "NormalizationConfig",
    "TokenTable",
    "csv_rows",
    "decide",
    "default_stopwords",
    "kept_rows",
    "load_lemma_table",
    "load_stopwords",
    "normalize",
    "read_input",
    "recording",
    "split_lines",
    "stem",
    "tokenize",
]

MODES = ("raw", "stem", "lemma")


class InputError(ValueError):
    """Malformed or missing input; the message names the file (and line)."""


class Decision(NamedTuple):
    """A repair or fallback a run made, and how many computations it left degenerate."""

    module: str
    text: str
    degenerate: int = 0


_DECISIONS: ContextVar[list[Decision] | None] = ContextVar("decisions", default=None)


def decide(module: str, text: str, degenerate: int = 0) -> None:
    """Record a decision in the current run's list; outside :func:`recording`, do nothing."""
    decisions = _DECISIONS.get()
    if decisions is not None:
        decisions.append(Decision(module, text, degenerate))


@contextmanager
def recording(decisions: list[Decision]) -> Iterator[list[Decision]]:
    """Append the decisions made inside the block, in order, to ``decisions``; yields it."""
    token = _DECISIONS.set(decisions)
    try:
        yield decisions
    finally:
        _DECISIONS.reset(token)


def read_input(path: str | Path, what: str) -> str:
    """The text of one input file, read as UTF-8 with an optional byte order mark.

    ``what`` says what the file is ("metadata file", "config", ...); an
    unreadable file or a byte that is not UTF-8 raises InputError naming
    it and the path (and for a decoding error, the byte offset).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: {what} is not UTF-8 text: byte {exc.start} ({exc.reason})"
        ) from None


# One physical line with its end: only "\n", "\r\n" and a lone "\r" end a
# line, as in io.StringIO(text, newline="") (str.splitlines also splits at
# "\x0c", "\x85", "\u2028" and more).
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def split_lines(text: str) -> Iterator[str]:
    """The physical lines of ``text``, each with its end, one at a time."""
    return map(re.Match.group, _LINE.finditer(text))


def csv_rows(
    lines: Iterable[str], path: str | Path, error: type[InputError], delimiter: str = ","
) -> Iterator[tuple[int, list[str]]]:
    """Each csv row of the ``lines`` of the file ``path``: (the physical line it ends on, cells).

    A quoted field that spans lines ends on the last of them.  A csv.Error, such as
    a field past the csv module's size limit, raises ``error`` naming the file and line.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        yield from ((reader.line_num, row) for row in reader)
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None


def kept_rows(
    rows: Iterable[tuple[int, list[str]]], keep: Callable[[list[str]], object] = bool
) -> tuple[list[int], list[list[str]], InputError | None]:
    """The lines and cells of the ``csv_rows`` that ``keep`` accepts, and the error that ended them.

    The error is None if none did.  A loader checks the rows before it raises
    the error, so a file names its first bad line.
    """
    lines, cells = [], []
    try:
        for line, row in rows:
            if keep(row):
                lines.append(line)
                cells.append(row)
    except InputError as exc:
        return lines, cells, exc
    return lines, cells, None


# Snowball stem of one word, memoized: corpora repeat words a lot
stem = functools.cache(snowball_es.stem)


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
    lines = list(split_lines(read_input(path, "lemma table")))
    first = next((line for line in lines if line.strip()), None)
    if first is None:
        raise InputError(f"{path}: lemma table is empty")
    delim = "\t" if "\t" in first else ","
    table: dict[str, str] = {}
    # a blank line reads as an empty row, so line numbers stay physical
    blanked = (line if line.strip() else "" for line in lines)
    for lineno, row in csv_rows(blanked, path, InputError, delim):
        if not row:
            continue
        if len(row) < 2:
            raise InputError(f"{path}: line {lineno}: expected two columns")
        surface, lemma = (cell.strip().lower() for cell in row[:2])
        if not surface or not lemma:
            raise InputError(f"{path}: line {lineno}: empty surface or lemma")
        table.setdefault(surface, lemma)
    return table


class NormalizationConfig:
    """How text becomes lookup keys.

    ``mode`` selects the key transform.  Lemma mode needs a non-empty
    ``lemma_table``; the other modes ignore it.  ``stopwords`` defaults
    to the bundled list; an empty set is allowed and simply keeps every
    token.
    """

    __slots__ = ("mode", "stopwords", "lemma_table")

    def __init__(
        self, mode: str = "stem", stopwords: frozenset[str] | None = None,
        lemma_table: dict[str, str] | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if mode == "lemma" and not lemma_table:
            raise ValueError("lemma mode requires a non-empty lemma table")
        self.mode, self.lemma_table = mode, lemma_table
        self.stopwords = default_stopwords() if stopwords is None else stopwords

    def key(self, word: str) -> str:
        """The lookup key of one word; a word the lemma table lacks keeps its form."""
        if self.mode == "raw":
            return word
        if self.mode == "stem":
            return stem(word)
        assert self.lemma_table is not None
        return self.lemma_table.get(word, word)


def tokenize(text: str) -> list[str]:
    """Split text on whitespace, trim punctuation off token edges, lowercase.

    Trimming removes leading and trailing non-alphanumeric characters
    (quotes, dashes, inverted exclamation marks and the like) while
    keeping interior ones, so hyphenated forms survive.  Diacritics are
    preserved.  Tokens that trim away to nothing are dropped.
    """
    tokens = []
    for chunk in text.split():
        if not chunk.isalnum():  # most chunks have nothing to trim
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


def normalize(text: str, config: NormalizationConfig) -> list[str]:
    """Full pipeline: tokenize, drop stopwords, key each surviving word (raw keys are the words)."""
    words = [word for word in tokenize(text) if word not in config.stopwords]
    return words if config.mode == "raw" else list(map(config.key, words))


class TokenTable(NamedTuple):
    """Every sonnet's tokens, as integer codes into one list of distinct words.

    ``words`` holds the distinct words (surface words, or the keys of one
    mode) in the order the corpus first gives them; ``codes`` holds one
    int32 index into ``words`` per token, sonnet after sonnet (half the
    memory of a pointer per token), and ``lengths`` the number of tokens
    of each sonnet of ``sonnet_ids``.  A token's position in its sonnet
    is its index there + 1.
    """

    sonnet_ids: tuple[str, ...]
    words: tuple[str, ...]
    codes: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, tokens: Iterable[tuple[str, list[str] | tuple[str, ...]]]) -> TokenTable:
        """The table of (sonnet id, its tokens) pairs, coded one sonnet at a time."""
        index: dict[str, int] = {}
        ids, lengths = [], []

        def codes() -> Iterator[int]:
            for sonnet_id, words in tokens:
                ids.append(sonnet_id)
                lengths.append(len(words))
                for word in words:
                    yield index.setdefault(word, len(index))

        coded = np.fromiter(codes(), np.int32)
        return cls(tuple(ids), tuple(index), coded, np.array(lengths, np.intp))

    def keyed(self, key: Callable[[str], str]) -> TokenTable:
        """The same tokens, each word replaced by its ``key``; each word is keyed once."""
        keys = list(map(key, self.words))
        index = dict(zip(dict.fromkeys(keys), count()))
        key_of_word = np.fromiter(map(index.__getitem__, keys), np.int32, len(keys))
        return self._replace(words=tuple(index), codes=key_of_word[self.codes])

    def sonnets(self) -> np.ndarray:
        """Each token's sonnet, as its index in ``sonnet_ids``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)
